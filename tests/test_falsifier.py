"""The finite-ring falsifier against the three-stage candidate search it
replaced: constant divisors with a power chain each, monomial
survivors, then seeded random divisors filtered by their coefficient
chains.  The search is kept here as the reference; on every drawn ring,
twist, side, precision, depth, budget and seed the two verdicts are
equal.  The falsifier itself builds only the witness's chain and draws
nothing."""

import pytest
from hypothesis import given, settings, strategies as st

from test_drawn_pairs import galois_fields, square_products, twist_specs
from test_structural_rules import finite_rings

from skewarch import props
from skewarch.endos import build_endo
from skewarch.prng import derive_rng
from skewarch.props import (FAILS, Verdict, _falsifier_conclusion, archimedean_falsifier,
                            random_series)
from skewarch.rings import (Element, GaloisFieldRing, ZmodRing, nonunits, parse_ring_spec,
                            principal_power_chain, require_budget)
from skewarch.skew import TruncSeries, solve_right_divisibility


def reference_falsifier(ring, endo, precision=16, depth=5, budget=10_000, seed=0,
                        side="right"):
    """The finite-ring candidate search, stage by stage."""
    rng = derive_rng(seed, "falsify/%s/%s/%s" % (ring.spec_text, endo.text, side))
    notes = []
    examined = 0

    # stage 1: constant divisors; the chain stabilization is exact
    nus = nonunits(ring).vals
    require_budget(ring, "constant-stage chains",
                   len(nus) * ring.card * (ring.card.bit_length() + 1))
    for cv in nus:
        examined += 1
        chain, stab = principal_power_chain(ring, Element(ring, cv), side)
        if stab.members != {ring.zero_v}:
            f0 = next(v for v in stab.vals if v != ring.zero_v)
            g = TruncSeries.constant(ring, endo, cv, precision)
            f = TruncSeries.constant(ring, endo, f0, precision)
            h_texts = []
            for n in range(1, depth + 1):
                res = solve_right_divisibility(f, g, n, side=side,
                                               node_limit=max(budget, 1000))
                if res.status != "found":
                    raise RuntimeError("constant-stage divisibility witness "
                                       "not found at n = %d" % n)
                h_texts.append(res.h.to_text())
            return Verdict(
                FAILS,
                {"f": f.to_text(), "g": g.to_text(), "h": h_texts,
                 "stabilized": stab.texts()},
                "constant-stage witness: the %s chain of %s stabilizes at "
                "{%s} (exact), so %s stays divisible by every power; "
                "witnesses replayed for n = 1..%d"
                % (side, ring.text_of_v(cv), ",".join(stab.texts()),
                   ring.text_of_v(f0), depth))
    notes.append("constant stage: all %d nonunit chains reach {0} (exact)"
                 % len(nus))

    # stage 2: monomial survivors; a twist power that turns the divisor
    # constant into a unit keeps the monomial divisible at every depth
    if side == "right":
        found = None
        for cv in nus:
            if cv == ring.zero_v or found:
                continue
            for m in range(1, min(3, precision) + 1):
                examined += 1
                e = endo.power_apply_v(m, cv)
                e_inv = ring.is_unit_v(e)
                if e_inv is None:
                    continue
                g = TruncSeries.constant(ring, endo, cv, precision)
                f = TruncSeries.monomial(ring, endo, m, ring.one_v, precision)
                h_texts = []
                ok = True
                for n in range(1, depth + 1):
                    h = TruncSeries.monomial(ring, endo, m,
                                             ring.k_pow(e_inv, n), precision)
                    if h * (g ** n) != f:
                        ok = False
                        break
                    h_texts.append(h.to_text())
                if ok:
                    found = (f, g, h_texts, m, cv, e)
                    break
        if found:
            f, g, h_texts, m, cv, e = found
            return Verdict(
                FAILS,
                {"f": f.to_text(), "g": g.to_text(), "h": h_texts,
                 "unit_image": ring.text_of_v(e)},
                "monomial-stage witness: twist power %d sends the nonunit "
                "%s to the unit %s, so u^%d stays divisible by every power "
                "of %s via h = image^-n * u^%d (identity independent of "
                "the depth; replayed for n = 1..%d)"
                % (m, ring.text_of_v(cv), ring.text_of_v(e), m,
                   ring.text_of_v(cv), m, depth))
        notes.append("monomial stage: no twist power of a nonunit divisor "
                     "constant becomes a unit")
    else:
        notes.append("monomial stage: powers of a nonunit stay nonunit, so "
                     "no left-side monomial survives a constant divisor")

    # stage 3: seeded random pairs; a persistent f must have every
    # coefficient inside the stabilized chain of the matching twisted
    # divisor constant
    tried = 0
    while examined + tried < budget and tried < 200:
        tried += 1
        g = random_series(ring, endo, rng, precision, max_support=4)
        g0 = g.coeffs[0]
        if g0 == ring.zero_v or ring.has_inverse_v(g0):
            continue
        admissible = True
        for m in range(precision + 1):
            cm = endo.power_apply_v(m, g0) if side == "right" else g0
            if ring.has_inverse_v(cm):
                continue
            _, stab = principal_power_chain(ring, Element(ring, cm), side)
            if stab.members == {ring.zero_v}:
                admissible = False
                break
        if admissible:
            f = random_series(ring, endo, rng, precision, max_support=4)
            if f.is_zero:
                continue
            ok = []
            for n in range(1, depth + 1):
                res = solve_right_divisibility(f, g, n, side=side, node_limit=budget)
                if res.status != "found":
                    break
                ok.append(res.h.to_text())
            if len(ok) == depth:
                return Verdict(
                    FAILS, {"f": f.to_text(), "g": g.to_text(), "h": ok},
                    "random-stage witness replayed for n = 1..%d "
                    "(truncation-scale; persistence not separately "
                    "certified)" % depth)
    notes.append("random stage: %d filtered candidates, none survived" % tried)

    return _falsifier_conclusion(ring, endo, side, notes, examined + tried)


@settings(max_examples=100)
@given(data=st.data(), side=st.sampled_from(["right", "left"]),
       precision=st.integers(0, 16), depth=st.integers(1, 5),
       budget=st.integers(1, 10_000), seed=st.integers(0, 2 ** 64 - 1))
def test_falsifier_matches_the_three_stage_search(tmp_path_factory, data, side,
                                                  precision, depth, budget, seed):
    ring = data.draw(st.one_of(finite_rings, galois_fields, square_products))
    twist = data.draw(st.sampled_from(twist_specs(ring, tmp_path_factory.getbasetemp())))
    endo = build_endo(ring, twist)
    args = (ring, endo, precision, depth, budget, seed, side)
    assert archimedean_falsifier(*args) == reference_falsifier(*args)


@pytest.mark.parametrize("spec,twist", [("zmod:8", "endo:id"), ("zmod:9", "endo:id"),
                                        ("gf:2:2", "endo:frob"), ("zmod:6", "endo:id"),
                                        ("zmod:12", "endo:id")])
@pytest.mark.parametrize("side", ["right", "left"])
def test_finite_falsifier_builds_only_the_witness_chain_and_draws_nothing(monkeypatch, spec,
                                                                          twist, side):
    """Fresh instances, so no memoized Archimedean verdict hides a chain."""
    ring = (GaloisFieldRing if spec.startswith("gf") else ZmodRing)(parse_ring_spec(spec))
    chains = []

    def counted_chain(*args):
        chains.append(args)
        return principal_power_chain(*args)

    monkeypatch.setattr(props, "principal_power_chain", counted_chain)
    monkeypatch.setattr(props, "derive_rng", lambda *args: pytest.fail("drew from a stream"))
    verdict = archimedean_falsifier(ring, build_endo(ring, twist), seed=0, side=side)
    assert len(chains) == (verdict.status == FAILS)

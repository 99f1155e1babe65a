"""The finite-ring falsifier against the three-stage candidate search it
replaced: constant divisors with a power chain each, monomial
survivors, then seeded random divisors filtered by their coefficient
chains.  The search is kept in tests/oracles.py as the reference; on
every drawn ring, twist, side, precision, depth, budget and seed the
two verdicts are equal.  The falsifier itself builds only the witness's
chain and draws nothing."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_falsifier
from test_drawn_pairs import galois_fields, square_products, twist_specs
from test_structural_rules import finite_rings

from skewarch import props
from skewarch.endos import build_endo
from skewarch.props import FAILS, archimedean_falsifier
from skewarch.rings import GaloisFieldRing, ZmodRing, construct_ring, principal_power_chain
from skewarch.skew import TruncSeries


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
    ring = GaloisFieldRing(2, 2, (1, 1, 1)) if spec == "gf:2:2" else ZmodRing(int(spec[5:]))
    chains = []

    def counted_chain(*args):
        chains.append(args)
        return principal_power_chain(*args)

    monkeypatch.setattr(props, "principal_power_chain", counted_chain)
    monkeypatch.setattr(props, "derive_rng", lambda *args: pytest.fail("drew from a stream"))
    verdict = archimedean_falsifier(ring, build_endo(ring, twist), seed=0, side=side)
    assert len(chains) == (verdict.status == FAILS)


@pytest.mark.parametrize("precision,budget,verified,examined,powers", [
    (16, 3, 3, 3, 3), (16, 10_000, 20, 20, 8), (1, 10, 6, 10, 6), (1, 10_000, 16, 20, 12)])
def test_scope_falsifier_names_only_the_candidates_it_verified(monkeypatch, precision, budget,
                                                               verified, examined, powers):
    """xyq:gf:2:1:N=8 schedules 8 constants with a nonzero constant term,
    then 3 monomials (1 at precision 1) on each of 4 of them, then random
    series up to 16 candidates, one draw per examined candidate.  The
    candidates verified are the first the budget leaves; a zero constant
    term needs no power."""
    ring = construct_ring("xyq:gf:2:1:N=8")
    built, power = [], TruncSeries.__pow__

    def counted_power(s, n):
        built.append(n)
        return power(s, n)

    monkeypatch.setattr(TruncSeries, "__pow__", counted_power)
    verdict = archimedean_falsifier(ring, build_endo(ring, "endo:xsq"), precision=precision,
                                    seed=42, budget=budget)
    assert "escape verified on %d scheduled divisor candidates" % verified \
        in verdict.certificate
    assert verdict.certificate.endswith(
        "(%d candidates examined); the characterization certifies the reduced "
        "right-Archimedean series model (scope basis)" % examined)
    assert len(built) == powers

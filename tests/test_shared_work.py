"""Work that several checks share is done once, and the order in which
the checks run cannot change a report.

The ring-law loop takes each distinct product once; the two sides of
the two-variable derivation share one run of its scans; cor-3-2 and
thm-3-3 share one polynomial zero-divisor probe.  Exact kernel counts
guard the first two, and object identity with a sampler that may not
draw guards the third.  The next test runs the seed-42 matrix
backwards from empty construction caches, so each shared result is
filled by a different cell than in the forward run, and compares every
report.  Last, the three scans that keep per-call product memos must
give the verdicts of their loops with every product taken afresh, kept
here as oracles."""

from types import SimpleNamespace

import pytest

from skewarch import props, rings, suites
from skewarch.endos import IdentityEndo, build_endo, is_rigid
from skewarch.prng import derive_rng
from skewarch.props import (FAILS, HOLDS, HYPOTHESIS_NOT_MET, Verdict,
                            derived_archimedean, poly_radical_check,
                            poly_zero_divisor_probe, random_poly, random_series)
from skewarch.registry import ENTRIES, RegistryEntry, RunConfig
from skewarch.rings import XYQuotientRing, ZmodRing, construct_ring, scan_domain
from skewarch.skew import SkewPoly, parse_poly_text
from skewarch.suites import SUITE_IDS, run_one


def fresh_xyq():
    return XYQuotientRing(construct_ring("gf:2:1"), 8)


class LoopEnded(Exception):
    pass


def test_the_law_loop_takes_981_distinct_products(monkeypatch):
    # the loop ends where the twist law builds its variable; 10 scope
    # draws give |tri|^2 table products and 4 per triple, 4,100 in all,
    # of which 981 are distinct
    ring = fresh_xyq()
    mul, calls = ring.k_mul, []
    ring.k_mul = lambda x, y: calls.append((x, y)) or mul(x, y)

    def variable(*args):
        raise LoopEnded

    monkeypatch.setattr(suites.SkewPoly, "variable", variable)
    entry = SimpleNamespace(id="xyq:gf:2:1:N=8")
    with pytest.raises(LoopEnded):
        suites._suite_arithmetic(entry, ring, IdentityEndo(ring),
                                 RunConfig(seed=42).validated())
    assert len(calls) == len(set(calls)) == 981


def test_the_left_derivation_reuses_the_right_scans(monkeypatch):
    ring = fresh_xyq()
    right = derived_archimedean(ring, "right")
    calls = []
    mul = XYQuotientRing.k_mul
    monkeypatch.setattr(XYQuotientRing, "k_mul",
                        lambda self, x, y: calls.append(1) or mul(self, x, y))
    left = derived_archimedean(ring, "left")
    assert calls == []
    steps = right.witness["derivation"]
    assert len(steps) == 6
    assert left.witness["derivation"] == [s.replace("right", "left") for s in steps]
    assert (left.status, left.certificate) == (right.status, right.certificate)


def test_cor_3_2_and_thm_3_3_share_one_probe(monkeypatch):
    ring, seed = ZmodRing(8), 42
    drawn, seen = [], []
    sample = props._draw_terms
    monkeypatch.setattr(props, "_draw_terms",
                        lambda *a, **k: drawn.append(1) or sample(*a, **k))
    monkeypatch.setattr(props, "poly_zero_divisor_probe",
                        lambda *a: seen.append(poly_zero_divisor_probe(*a)) or seen[-1])
    poly_radical_check(ring, "right", 2000, seed)
    assert drawn and len(seen) == 1 and seen[0] is not None
    drawn.clear()
    again = poly_zero_divisor_probe(ring, build_endo(ring, "endo:id"), "right",
                                    samples=2000, seed=seed)
    assert drawn == [] and again is seen[0]


def test_memo_warmth_cannot_change_a_report(seed42_matrix, monkeypatch):
    # reversed, thm-3-4 fills each shared result before thm-3-3, and
    # thm-3-3 before cor-3-2
    monkeypatch.setattr(rings, "_RING_CACHE", {})
    config = RunConfig(seed=42).validated()
    cells = [(entry, suite_id) for entry in ENTRIES for suite_id in SUITE_IDS]
    assert len(cells) == len(seed42_matrix.reports) == 198
    backward = [run_one(entry, suite_id, config) for entry, suite_id in reversed(cells)]
    assert backward[::-1] == seed42_matrix.reports


# the three scans that multiply truncated-model values, each with every
# product taken afresh from the ring's kernel: the oracles of the scans'
# per-call product memos


def arithmetic_per_product(entry, ring, endo, config):
    """suites._suite_arithmetic with no product memo."""
    rng = derive_rng(config.seed, "arith/%s" % entry.id)
    dom = scan_domain(ring, 2)
    pool = dom.values
    if not dom.exact:
        tri = [pool[rng.below(len(pool))] for _ in range(10)]
        basis = "scope-sampled"
    elif len(pool) > 12:
        tri = [pool[rng.below(len(pool))] for _ in range(12)]
        basis = "sampled"
    else:
        tri = pool
        basis = "exhaustive"
    add, mul = ring.k_add, ring.k_mul
    sums = [[add(a, b) for b in tri] for a in tri]
    prods = [[mul(a, b) for b in tri] for a in tri]
    for i, a in enumerate(tri):
        for j, b in enumerate(tri):
            if sums[i][j] != sums[j][i]:
                return suites._law_failure(ring, "additive commutativity",
                                           [("a", a), ("b", b)])
            for k, c in enumerate(tri):
                if mul(prods[i][j], c) != mul(a, prods[j][k]):
                    return suites._law_failure(ring, "multiplicative associativity",
                                               [("a", a), ("b", b), ("c", c)])
                if mul(a, sums[j][k]) != add(prods[i][j], prods[i][k]):
                    return suites._law_failure(ring, "left distributivity",
                                               [("a", a), ("b", b), ("c", c)])
                if mul(sums[i][j], c) != add(prods[i][k], prods[j][k]):
                    return suites._law_failure(ring, "right distributivity",
                                               [("a", a), ("b", b), ("c", c)])
    x = SkewPoly.variable(ring, endo)
    for a in tri:
        lhs = x * SkewPoly.constant(ring, endo, a)
        rhs = SkewPoly(ring, endo, [ring.zero_v, endo.apply_v(a)])
        if lhs != rhs:
            return Verdict(FAILS,
                           {"law": "twist law", "a": ring.text_of_v(a),
                            "x*a": lhs.to_text(), "twist(a)*x": rhs.to_text()},
                           "x*a must equal twist(a)*x in the polynomial "
                           "model")
    for _ in range(8):
        p = random_poly(ring, endo, rng)
        if parse_poly_text(p.to_text()) != p:
            return Verdict(FAILS, {"law": "polynomial round-trip",
                                   "text": p.to_text()},
                           "parse(print(f)) must reproduce f")
        s = random_series(ring, endo, rng, config.precision)
        if parse_poly_text(s.to_text()) != s:
            return Verdict(FAILS, {"law": "series round-trip",
                                   "text": s.to_text()},
                           "parse(print(f)) must reproduce f")
    return Verdict(
        HOLDS, None,
        "ring laws on %d %s triples, twist law on %d constants, and 8 "
        "poly/series text round-trips all exact"
        % (len(tri) ** 3, basis, len(tri)))


def two_variable_scans_per_product(ring):
    """props._two_variable_scans with no product memo and no ring memo."""
    ser = ring.series
    pool = scan_domain(ring).values
    for v in pool:
        if v[1] == ser.zero_v and v[0] == ser.zero_v and v != ring.zero_v:
            return Verdict(FAILS, {"common": ring.text_of_v(v)},
                           "a nonzero value sits in both variable blocks")

    stride = max(1, len(pool) // 48)
    sample = pool[::stride]
    gens = [ring.one_v, ring.x_v(1), ring.y_v(1),
            ring.k_add(ring.x_v(1), ring.y_v(1))]
    checked = 0
    for u in sample + gens:
        for v in sample + gens:
            w = ring.k_mul(u, v)
            if (w[0] != ser.k_mul(u[0], v[0])
                    or w[1] != ser.k_mul(u[1], v[1])):
                return Verdict(FAILS,
                               {"u": ring.text_of_v(u), "v": ring.text_of_v(v)},
                               "block collapse failed to respect a product")
            checked += 1

    radical_checked = 0
    for m in (ring.x_v(1), ring.y_v(1), ring.x_v(min(2, ring.precision)),
              ring.y_v(min(2, ring.precision))):
        for r in sample:
            if not ring.has_inverse_v(ring.k_sub(ring.one_v, ring.k_mul(r, m))):
                return Verdict(FAILS,
                               {"r": ring.text_of_v(r), "m": ring.text_of_v(m)},
                               "a variable multiple escaped the radical")
            radical_checked += 1
    return len(pool), checked, radical_checked


def scope_power_products_per_product(ring, endo, rig, seed):
    """props._scope_power_product_equivalence with no product memo and
    every twisted power built afresh."""
    dom = scan_domain(ring, 2)
    wide = dom.ring
    wendo = props._twist_on(endo, dom)
    rng = derive_rng(seed, "powerprod/%s/%s" % (ring.spec_text, endo.stream_text))
    pool, lifts = zip(*((v, lv) for v, lv in zip(dom.values, dom.lifted)
                        if v != ring.zero_v))
    degs = [ring.block_degrees(v) for v in pool]
    zero = wide.zero_v
    checked = 0
    draws = 0
    while (checked < props.POWER_PRODUCT_SAMPLES
           and draws < props.POWER_PRODUCT_SAMPLES * 20):
        draws += 1
        n = rng.below(2) + 2
        picks = [rng.below(len(pool)) for _ in range(n)]
        ks = [rng.below(2) + 1 for _ in range(n)]
        ts = [rng.below(3) for _ in range(n)]
        bx = by = 0
        for i, k, t in zip(picks, ks, ts):
            dx, dy = degs[i]
            bound = endo.degree_bound(t, k * dx, k * dy)
            bx += bound[0]
            by += bound[1]
        if bx > wide.precision or by > wide.precision:
            continue
        tup = [pool[i] for i in picks]
        lifted = [lifts[i] for i in picks]
        acc = wide.one_v
        for v, k, t in zip(lifted, ks, ts):
            acc = wide.k_mul(acc, wendo.power_apply_v(t, wide.k_pow(v, k)))
        plain = wide.one_v
        for v in lifted:
            plain = wide.k_mul(plain, v)
        plain_zero = plain == zero
        checked += 1
        if (acc == zero) != plain_zero:
            witness = {"bases": [ring.text_of_v(v) for v in tup],
                       "exponents": ks, "twists": ts}
            if rig.holds:
                return Verdict(FAILS, witness,
                               "rigid twist yet the equivalence broke in "
                               "the widened model within the degree bound")
            return Verdict(HYPOTHESIS_NOT_MET,
                           {"demonstration": witness},
                           "twist not rigid; equivalence break exhibited")
    if rig.holds:
        return Verdict(
            HOLDS, None,
            "equivalence verified on %d sampled scope tuples whose twisted "
            "degree bounds fit the widened window, so the zero tests are "
            "exact (twist rigid at scope)" % checked)
    return Verdict(
        HYPOTHESIS_NOT_MET, {"rigid_witness": rig.witness},
        "twist is not rigid at scope; no break found in %d guarded samples"
        % checked)


SMALL_XYQ = tuple(RegistryEntry("xyq:gf:2:1:N=4" + suffix, "xyq:gf:2:1:N=4",
                                endo_spec, "two-variable model at N = 4")
                  for suffix, endo_spec in (("", "endo:id"), ("+endo:xsq", "endo:xsq")))
XYQ_ENTRIES = tuple(e for e in ENTRIES if e.ring_spec.startswith("xyq:")) + SMALL_XYQ


@pytest.mark.parametrize("entry", ENTRIES + SMALL_XYQ, ids=lambda e: e.id)
def test_the_law_loop_matches_its_per_product_oracle(entry):
    ring, endo = entry.build()
    for seed in range(4):
        config = RunConfig(seed=seed).validated()
        assert (suites._suite_arithmetic(entry, ring, endo, config)
                == arithmetic_per_product(entry, ring, endo, config))


@pytest.mark.parametrize("spec", sorted({e.ring_spec for e in XYQ_ENTRIES}))
def test_the_two_variable_scans_match_their_per_product_oracle(spec):
    # the ring memo is bypassed, so the scans run on every call
    ring = construct_ring(spec)
    assert (props._two_variable_scans.__wrapped__(ring)
            == two_variable_scans_per_product(ring))


@pytest.mark.parametrize("entry", XYQ_ENTRIES, ids=lambda e: e.id)
def test_the_scope_power_products_match_their_per_product_oracle(entry):
    ring, endo = entry.build()
    rig = is_rigid(endo)
    for seed in range(4):
        assert (props.twisted_power_product_equivalence(ring, endo, seed)
                == scope_power_products_per_product(ring, endo, rig, seed))

"""Each fast path against its brute-force oracle in tests/oracles.py: a
row (name, fast, oracle, cases) per pair, cases a dict from case id to
arguments, and one test that fast(*case) == oracle(*case) on each case."""

import re

import pytest

import oracles
from test_drawn_pairs import sweep_specs, twist_tables
from test_props import FINITE_SPECS, _pair
from test_skew_laws import CUBE_ZERO_UNDER_DIAG

from skewarch import props, suites
from skewarch.endos import FrobeniusEndo, TableEndo, build_endo, build_twist, is_rigid
from skewarch.prng import derive_rng
from skewarch.props import (is_archimedean, poly_zero_divisor_probe, random_poly,
                            series_reduced_check, twisted_power_product_equivalence)
from skewarch.registry import ENTRIES, RegistryEntry, RunConfig
from skewarch.rings import GaloisFieldRing, construct_ring
from skewarch.skew import SkewPoly, geometric_inverse

SEEDS = range(4)
SIDES = ("right", "left")
SMALL_XYQ = tuple(RegistryEntry("xyq:gf:2:1:N=4" + suffix, "xyq:gf:2:1:N=4",
                                endo_spec, "two-variable model at N = 4")
                  for suffix, endo_spec in (("", "endo:id"), ("+endo:xsq", "endo:xsq")))
XYQ_ENTRIES = tuple(e for e in ENTRIES if e.ring_spec.startswith("xyq:")) + SMALL_XYQ


def archimedean(ring, side):
    v = is_archimedean(ring, side)
    return v.status, v.witness, v.certificate


def scope_power_products(ring, endo, seed):
    return oracles.scope_power_products_per_product(ring, endo, is_rigid(endo), seed)


def square_scan(ring, endo, precision, seed):
    """series_reduced_check under a rigid twist as its status, witness
    and count of truncation artifacts read from its certificate."""
    v = series_reduced_check(ring, endo, precision, seed)
    counted = re.search(r"(\d+) truncation artifacts", v.certificate)
    return v.status, v.witness, int(counted.group(1)) if counted else 0


def sweep_pairs(max_card):
    """(id, ring, twist) for every sweep spec of at most max_card
    elements under each of its twists, table twists built from their
    text."""
    for spec in sweep_specs(max_card):
        ring = construct_ring(spec)
        specs, tables = twist_tables(ring)
        for twist in specs:
            yield "%s+%s" % (spec, twist), ring, build_endo(ring, twist)
        for name, text in tables.items():
            yield "%s+table:%s" % (spec, name), ring, build_twist(ring, "table:" + name, text)


def planted_zero_twist():
    """A Frobenius table of a fresh gf:2:2 altered after its law check to
    send x to 0: every product of nonzero values stays nonzero, so only
    the twist powers o >= 1 of the probe's table meet a zero."""
    ring = GaloisFieldRing(2, 2, (1, 1, 1))
    endo = TableEndo(ring, "table:planted", "".join(
        "%s -> %s\n" % (ring.text_of_v(v), ring.text_of_v(ring.k_mul(v, v)))
        for v in ring.values()))
    endo.table[2] = 0
    return ring, endo


def planted_square_zero():
    """A fresh gf:2:3 under the Frobenius with x*alpha^2(x) = x*x^4 = 0
    planted in its product: x*x and x*alpha(x) are untouched, so the
    twist stays rigid, and at precision 4 only the last twist power of
    the square table, o = 2, meets the zero."""
    ring = GaloisFieldRing(2, 3, construct_ring("gf:2:3").irr)
    endo, mul = FrobeniusEndo(ring), ring.k_mul
    planted = (2, endo.power_apply_v(2, 2))
    ring.k_mul = lambda x, y: 0 if (x, y) == planted else mul(x, y)
    return ring, endo


SWEEP_PAIRS = tuple(sweep_pairs(16))


def geometric(f, precision):
    res = geometric_inverse(f, precision)
    return res.series, res.terminated, res.index


def geometric_draws(entry, seed, count=3):
    """The first count distinct f that prop-3-1 draws on the entry."""
    ring, endo = entry.build()
    rng = derive_rng(seed, "geometric/%s/%s" % (ring.spec_text, endo.stream_text))
    fs = {}
    while len(fs) < count:
        f = random_poly(ring, endo, rng, max_terms=3)
        fs.setdefault(f.coeffs, f)
    return fs.values()


def poly(spec, twist, coeffs):
    """The polynomial with coefficients coeffs(ring) over the ring of spec."""
    ring = construct_ring(spec)
    return SkewPoly(ring, build_endo(ring, twist), coeffs(ring))


def cube_zero_under_a_cycle():
    """e + 2e*u^2 over (Z/4)^3, e = (1,0,0), under the cyclic shift alpha:
    f*u = e*u + 2e*u^3 has cube zero.  Its lowest chain dies at once,
    e*alpha(e) = 0, while one stepped by the degree 3 reads e, e, ...
    and never does, since alpha^3 is the identity."""
    ring = construct_ring("prod(zmod:4,zmod:4,zmod:4)")
    shift = TableEndo(ring, "table:cycle", "\n".join(
        "(%d,%d,%d) -> (%d,%d,%d)" % (a, b, c, c, a, b) for a, b, c in ring.values()))
    return SkewPoly(ring, shift, [(1, 0, 0), ring.zero_v, (2, 0, 0)])


# beside the drawn f: f = 0; f*u of order N + 1 > N; the lowest chains
# 2, 4, 0 and x, x^3, x^7, x^15 = 0, which die below k0; the cubes that
# vanish under the diagonal twist and a cyclic one
GEOMETRIC_CASES = {
    "zero": (poly("zmod:6", "endo:id", lambda ring: []), 16),
    "order-above-N": (poly("gf:2:2", "endo:frob", lambda ring: [0] * 8 + [2]), 8),
    "zmod:8-f=2": (poly("zmod:8", "endo:id", lambda ring: [2]), 16),
    "xyq:gf:2:1:N=8+endo:xsq-f=x": (poly("xyq:gf:2:1:N=8", "endo:xsq",
                                         lambda ring: [ring.x_v(1)]), 16),
    "cube-zero-under-diag": (SkewPoly(*CUBE_ZERO_UNDER_DIAG[:2], CUBE_ZERO_UNDER_DIAG[2][0]),
                             16),
    "cube-zero-under-a-cycle": (cube_zero_under_a_cycle(), 16),
}


FAST_PATHS = [
    # the three scans with per-call product memos, against their loops
    # with every product taken afresh; the two-variable scans bypass the
    # ring memo, so they run on every call
    ("arithmetic", suites._suite_arithmetic, oracles.arithmetic_per_product,
     {"%s-seed%d" % (e.id, seed): (e, *e.build(), RunConfig(seed=seed).validated())
      for e in ENTRIES + SMALL_XYQ for seed in SEEDS}),
    ("two-variable-scans", props._two_variable_scans.__wrapped__,
     oracles.two_variable_scans_per_product,
     {spec: (construct_ring(spec),) for spec in sorted({e.ring_spec for e in XYQ_ENTRIES})}),
    ("scope-power-products", twisted_power_product_equivalence, scope_power_products,
     {"%s-seed%d" % (e.id, seed): (*e.build(), seed) for e in XYQ_ENTRIES for seed in SEEDS}),
    # the chain scan: status, witness and certificate
    ("is-archimedean", archimedean, oracles.oracle_archimedean,
     {"%s-%s" % (spec, side): (construct_ring(spec), side)
      for spec in FINITE_SPECS for side in SIDES}),
    # the top coefficient shortcut and the table that spares the draws
    # when no top coefficient can vanish: the same zero-divisor pair, on
    # the registry, every twist of the sweep's rings of at most 16
    # elements at 200 samples, a domain past the table's budget of 2,000
    # products (48 nonzero values of gf:7:2 by their 48 images), and a
    # planted twist
    ("poly-zero-divisor-probe", poly_zero_divisor_probe, oracles.zero_divisor_probe_in_full,
     {**{"%s-%s-seed%d" % (e.id, side, seed): (*e.build(), side, 2000, seed)
         for e in ENTRIES for side in SIDES for seed in SEEDS},
      **{"%s-%s" % (name, side): (ring, endo, side, 200, 0)
         for name, ring, endo in SWEEP_PAIRS for side in SIDES},
      **{"gf:7:2+endo:frob-%s" % side: (*_pair("gf:7:2", "endo:frob"), side, 2000, 0)
         for side in SIDES},
      **{"planted-x-to-0-%s" % side: (*planted_zero_twist(), side, 2000, 0)
         for side in SIDES}}),
    # the lowest coefficient shortcut and the table that spares the draws
    # when no lowest coefficient can square to zero, under a rigid twist
    # (the only case that samples squares): the registry, the sweep at
    # precision 4, a domain past the table's budget (255 nonzero values
    # of gf:2:8 at 9 twist powers), and a planted product
    ("series-square-scan", square_scan, oracles.square_scan_in_full,
     {**{"%s-seed%d" % (e.id, seed): (*e.build(), 16, seed)
         for e in ENTRIES if is_rigid(e.build()[1]).holds for seed in SEEDS},
      **{name: (ring, endo, 4, 0)
         for name, ring, endo in SWEEP_PAIRS if is_rigid(endo).holds},
      "gf:2:8+endo:frob": (*_pair("gf:2:8", "endo:frob"), 16, 0),
      "planted-x*alpha^2(x)=0": (*planted_square_zero(), 4, 0)}),
    # the triangular solve where the lowest chain fixes the stop, and the
    # window sum where it dies first
    ("geometric-inverse", geometric, oracles.dense_geometric_inverse,
     {**{"%s-seed%d-draw%d" % (e.id, seed, i): (f, 16)
         for e in ENTRIES for seed in SEEDS for i, f in enumerate(geometric_draws(e, seed))},
      **GEOMETRIC_CASES}),
]


@pytest.mark.parametrize("fast, oracle, case", [
    pytest.param(fast, oracle, case, id="%s-%s" % (name, case_id))
    for name, fast, oracle, cases in FAST_PATHS for case_id, case in cases.items()])
def test_fast_path_matches_its_oracle(fast, oracle, case):
    assert fast(*case) == oracle(*case)

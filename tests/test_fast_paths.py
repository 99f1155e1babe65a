"""Each fast path against its brute-force oracle in tests/oracles.py: a
row (name, fast, oracle, cases) per pair, cases a dict from case id to
arguments, and one test that fast(*case) == oracle(*case) on each case."""

import pytest

import oracles
from test_props import FINITE_SPECS

from skewarch import props, suites
from skewarch.endos import is_rigid
from skewarch.props import (is_archimedean, poly_zero_divisor_probe,
                            twisted_power_product_equivalence)
from skewarch.registry import ENTRIES, RegistryEntry, RunConfig
from skewarch.rings import construct_ring

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
    # the top and lowest coefficient shortcuts: the same zero-divisor pair
    ("poly-zero-divisor-probe", poly_zero_divisor_probe, oracles.zero_divisor_probe_in_full,
     {"%s-%s-seed%d" % (e.id, side, seed): (*e.build(), side, 2000, seed)
      for e in ENTRIES for side in SIDES for seed in SEEDS}),
]


@pytest.mark.parametrize("fast, oracle, case", [
    pytest.param(fast, oracle, case, id="%s-%s" % (name, case_id))
    for name, fast, oracle, cases in FAST_PATHS for case_id, case in cases.items()])
def test_fast_path_matches_its_oracle(fast, oracle, case):
    assert fast(*case) == oracle(*case)

"""Zero patterns, and the zero tests of the twist predicates and of the
twisted power product scan, checked against the multiplying loops they
must agree with (in tests/oracles.py): same verdicts, same witnesses,
same certificate text.
Kernel-call bounds show the fast paths are taken; the last tests cover
the boolean unit test, the cost guards of the pair scans and of the
principal-quotient search, and the falsifier's product count."""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_compatible, oracle_power_product_equivalence, oracle_rigid
from test_structural_rules import CARDS, base_specs, counting

from skewarch.endos import (PAIR_SCAN_BUDGET, IdentityEndo, SquareVariableEndo,
                            build_endo, is_compatible, is_rigid, preserves_nonunits)
from skewarch.props import (INCONCLUSIVE, archimedean_falsifier, dedekind_finite_clause,
                            first_incomparable_principal_pair,
                            twisted_power_product_equivalence, von_neumann_regular)
from skewarch.registry import ENTRIES
from skewarch.rings import (GaloisFieldRing, NonEnumerableError, ProductRing,
                            XYQuotientRing, ZmodRing, construct_ring, default_irreducible,
                            scan_domain, units, zero_keys)

# ---------------------------------------------------------------------------
# the zero pattern of the widened F[[x,y]]/(xy), on the products the scans
# take (tests/test_structural_rules.py checks the finite rings)


def check_xyq_products(wide, pairs):
    key, times, zero = zero_keys(wide)
    assert (times, zero) == (operator.and_, 0)
    for a, b in pairs:
        ab = wide.k_mul(a, b)
        assert key(ab) == times(key(a), key(b))
        assert (ab == wide.zero_v) == (times(key(a), key(b)) == zero)


@pytest.mark.parametrize("spec", ["xyq:gf:2:1:N=8", "xyq:gf:3:1:N=4"])
def test_xyq_zero_pattern_decides_the_scanned_products(spec):
    """At the default support, the pairs of is_domain (commutative, so
    each unordered pair once) and is_rigid; at the support is_compatible
    shrinks to, every (a, b) and (a, alpha(b))."""
    ring = construct_ring(spec)
    dom = scan_domain(ring)
    xsq = SquareVariableEndo(ring).widened()
    lifted = dom.lifted
    check_xyq_products(dom.ring, itertools.combinations_with_replacement(lifted, 2))
    check_xyq_products(dom.ring, ((a, xsq.apply_v(a)) for a in lifted))
    while dom.support > 1 and dom.size ** 2 > PAIR_SCAN_BUDGET:
        dom = scan_domain(ring, dom.support - 1)
    lifted = dom.lifted
    images = [xsq.apply_v(b) for b in lifted]
    check_xyq_products(dom.ring, itertools.product(lifted, lifted + images))

# ---------------------------------------------------------------------------
# twisted pairs: the identity on small rings and products, the Frobenius on
# Galois fields and the diagonal on squares prod(S,S)

SMALL_CARD = 10




@st.composite
def small_rings(draw):
    first = draw(base_specs(SMALL_CARD))
    if CARDS[first] > SMALL_CARD // 2 or draw(st.booleans()):
        return construct_ring(first)
    second = draw(base_specs(SMALL_CARD // CARDS[first]))
    return construct_ring("prod(%s,%s)" % (first, second))


@st.composite
def twisted_pairs(draw):
    kind = draw(st.sampled_from(["id", "frob", "diag"]))
    if kind == "frob":
        ring = construct_ring(draw(st.sampled_from(
            ["gf:2:2", "gf:2:3", "gf:2:4", "gf:3:2"])))
    elif kind == "diag":
        factor = draw(base_specs(4))
        ring = construct_ring("prod(%s,%s)" % (factor, factor))
    else:
        ring = draw(small_rings())
    return ring, build_endo(ring, "endo:" + kind)


def check_pair(ring, endo):
    rigid, compat = is_rigid(endo), is_compatible(endo)
    assert (rigid.holds, rigid.witness) == oracle_rigid(endo)
    assert (compat.holds, compat.witness) == oracle_compatible(endo)
    assert twisted_power_product_equivalence(ring, endo) == \
        oracle_power_product_equivalence(ring, endo)


@settings(max_examples=25)
@given(twisted_pairs())
def test_twist_zero_tests_match_the_multiplying_scans(pair):
    check_pair(*pair)


def test_registry_zero_tests_match_the_multiplying_scans():
    finite = [e.build() for e in ENTRIES if not construct_ring(e.ring_spec).truncated]
    assert len(finite) == 9
    for ring, endo in finite:
        check_pair(ring, endo)


# ---------------------------------------------------------------------------
# the fast paths, bounded by kernel calls on fresh (uncached) instances


def test_power_product_scan_takes_few_products():
    ring = ProductRing((ZmodRing(2), ZmodRing(3)))
    calls = counting(ring)
    v = twisted_power_product_equivalence(ring, IdentityEndo(ring))
    assert "219660 twisted products" in v.certificate
    assert calls[0] <= 5_000


def test_compatibility_scan_on_xyq_multiplies_nothing(monkeypatch):
    ring = XYQuotientRing(construct_ring("gf:2:1"), 8)
    first = is_compatible(SquareVariableEndo(ring))   # builds the scan domain
    calls = []
    for r in (ring, ring.widen()):
        monkeypatch.setattr(r, "k_mul", lambda x, y, _mul=r.k_mul:
                            calls.append(1) or _mul(x, y))
    assert is_compatible(SquareVariableEndo(ring)) == first
    assert first.holds and calls == []


def test_units_of_a_field_compute_no_inverse():
    ring = GaloisFieldRing(2, 10, default_irreducible(2, 10))
    calls = counting(ring)
    assert len(units(ring)) == 1023
    assert calls[0] == 0


def test_regularity_and_dedekind_scans_past_their_budget_raise_at_once():
    ring = ZmodRing(2048)
    with pytest.raises(NonEnumerableError):
        dedekind_finite_clause(ring)
    with pytest.raises(NonEnumerableError):
        von_neumann_regular(ring)


def test_nonunit_scan_on_xyq_computes_no_inverse(monkeypatch):
    ring = XYQuotientRing(construct_ring("gf:2:1"), 8)
    monkeypatch.setattr(ring, "is_unit_v", lambda v: pytest.fail("inverse taken"))
    assert preserves_nonunits(SquareVariableEndo(ring)).holds


def test_falsifier_and_principal_pairs_past_their_budget_raise_at_once():
    """The principal-ideal search is guarded; the falsifier needs no
    guard, since on a finite ring it reads the exact Archimedean test,
    which decides zmod:4096 in the products its own bound allows."""
    ring = ZmodRing(4096)
    calls = counting(ring)
    with pytest.raises(NonEnumerableError):
        first_incomparable_principal_pair(ring)
    assert calls[0] == 0
    verdict = archimedean_falsifier(ring, IdentityEndo(ring), seed=0)
    assert verdict.status == INCONCLUSIVE
    assert calls[0] <= 25_000


def test_swap_twist_first_breaks_at_length_two(tmp_path):
    """The swap of prod(S,S) is injective on a reduced ring, so no single
    base breaks the equivalence; (1,0)*swap(1,0) = 0 breaks it at length
    two, where only the reachable set of products shows the break."""
    ring = construct_ring("prod(zmod:3,zmod:3)")
    table = tmp_path / "swap.txt"
    table.write_text("".join("%s -> %s\n" % (ring.text_of_v(v),
                                             ring.text_of_v((v[1], v[0])))
                             for v in ring.values()))
    endo = build_endo(ring, "endo:table:%s" % table)
    check_pair(ring, endo)
    demo = twisted_power_product_equivalence(ring, endo).witness["demonstration"]
    assert len(demo["bases"]) == 2

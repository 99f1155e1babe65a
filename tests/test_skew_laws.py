"""Laws of the twisted products, powers and inverses, on hypothesis draws
over the registry's rings and twists.

Each draw picks a registry entry and sparse coefficient lists of one to
three terms (values of a finite ring, scope values of drawn
support on the two-variable model), the shape the suites sample:

- SkewPoly.power(k) equals the k-fold product taken left to right, and
  so does a series power s ** n, taken by square-and-multiply;
- geometric_inverse equals a dense reference in tests/oracles.py, the
  alternating sum of the truncated exact powers of f*u, in series,
  termination, index and note;
- series_inverse is a two-sided inverse;
- the twisted products of SkewPoly and TruncSeries are associative.

The shortcuts that decide a product or power nonzero without building
it are checked against the full products on registry entries and on
drawn rings: finite rings of every derived kind with the identity, and
the kinds with a built-in twist under that twist:

- SkewPoly.first_zero_power and nilpotency_probe, which read the chain
  of top coefficients, agree with the k-fold products;
- power_windows yields the truncated powers;
- top_certificate and lowest_certificate, given the operands' top and
  lowest terms, are the coefficients of the full product at the top and
  lowest degrees they name."""

import functools
import itertools
import operator

from hypothesis import example, given, settings, strategies as st

from skewarch.endos import build_endo
from skewarch.registry import ENTRIES
from skewarch.rings import construct_ring
from skewarch.skew import (SkewPoly, TruncSeries, geometric_inverse,
                           lowest_certificate, nilpotency_probe, power_windows,
                           series_inverse, top_certificate)
from oracles import dense_geometric_inverse
from test_ring_laws import TWIST_OF_KIND, tser_rings, twisted_rings, value_strategy
from test_structural_rules import finite_rings

MAX_DEGREE = 4

registry_pairs = st.sampled_from(ENTRIES).map(lambda entry: entry.build())
drawn_pairs = st.one_of(
    registry_pairs,
    finite_rings.map(lambda ring: (ring, build_endo(ring, "endo:id"))),
    twisted_rings.map(lambda ring: (ring, build_endo(ring, TWIST_OF_KIND[ring.kind]))))


@st.composite
def twisted_coeffs(draw, count, pairs=registry_pairs):
    """A ring and twist, a registry entry's by default, and count
    coefficient lists of length MAX_DEGREE + 1 with one to three terms
    each."""
    ring, endo = draw(pairs)
    terms = st.lists(st.tuples(st.integers(0, MAX_DEGREE), value_strategy(ring)),
                     min_size=1, max_size=3)
    lists = []
    for _ in range(count):
        coeffs = [ring.zero_v] * (MAX_DEGREE + 1)
        for d, v in draw(terms):
            coeffs[d] = v
        lists.append(coeffs)
    return ring, endo, lists


@given(twisted_coeffs(1), st.integers(1, 6))
def test_power_is_the_left_to_right_product(drawn, k):
    ring, endo, (coeffs,) = drawn
    f = SkewPoly(ring, endo, coeffs)
    assert f.power(k) == functools.reduce(operator.mul, [f] * k)
    # a power read again, or below one already read, comes from the chain
    assert f.power(k) is f.power(k)
    assert f.power(max(1, k - 2)) == functools.reduce(operator.mul, [f] * max(1, k - 2))


XYQ, XSQ = next(entry for entry in ENTRIES if entry.endo_spec == "endo:xsq").build()
# x + y*u + x*u^3 on the two-variable model under x -> x^2
XSQ_SERIES = (XYQ, XSQ, [[XYQ.x_v(1), XYQ.y_v(1), XYQ.zero_v, XYQ.x_v(1), XYQ.zero_v]])


@given(twisted_coeffs(1, st.one_of(
    drawn_pairs, tser_rings.map(lambda ring: (ring, build_endo(ring, "endo:id"))))),
    st.integers(0, 8))
@example(XSQ_SERIES, 8)
def test_series_power_is_the_left_to_right_product(drawn, precision):
    """s ** n regroups the k-fold product by square-and-multiply, which
    holds only in an associative ring: under endo:xsq on the two-variable
    model, because the twist is an endomorphism of the truncated model."""
    ring, endo, (coeffs,) = drawn
    s = TruncSeries(ring, endo, precision, coeffs[:precision + 1])
    assert s ** 0 == TruncSeries.constant(ring, endo, ring.one_v, precision)
    for n in range(1, 10):
        assert s ** n == functools.reduce(operator.mul, [s] * n)


@settings(max_examples=100)   # terminating draws are rare
@given(twisted_coeffs(1), st.integers(1, 8))
def test_geometric_inverse_matches_the_dense_sum(drawn, precision):
    ring, endo, (coeffs,) = drawn
    f = SkewPoly(ring, endo, coeffs)
    series, terminated, index = dense_geometric_inverse(f, precision)
    res = geometric_inverse(f, precision)
    assert (res.series, res.terminated, res.index) == (series, terminated, index)
    assert res.note == ("power (f*u)^%d vanished exactly" % index if terminated
                        else "no exact zero power within the precision window")


@given(twisted_coeffs(1), st.integers(0, 8), st.data())
def test_series_inverse_is_two_sided(drawn, precision, data):
    ring, endo, (coeffs,) = drawn
    coeffs[0] = data.draw(value_strategy(ring).filter(ring.has_inverse_v))
    g = TruncSeries(ring, endo, precision, coeffs[:precision + 1])
    h = series_inverse(g)
    unity = TruncSeries.constant(ring, endo, ring.one_v, precision)
    assert g * h == unity and h * g == unity


@given(twisted_coeffs(3), st.integers(0, 8))
def test_twisted_products_are_associative(drawn, precision):
    ring, endo, lists = drawn
    a, b, c = (SkewPoly(ring, endo, cs) for cs in lists)
    assert (a * b) * c == a * (b * c)
    a, b, c = (TruncSeries(ring, endo, precision, cs[:precision + 1]) for cs in lists)
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# nonzero certificates against the full products


# (0,1)*u squares to zero under the diagonal twist, (0,1)*diag(0,1) = 0,
# though (0,1)^2 = (0,1): a chain that dropped the twist would miss it
DIAG = construct_ring("prod(zmod:2,zmod:2)")
SQUARE_ZERO_UNDER_DIAG = (DIAG, build_endo(DIAG, "endo:diag"),
                          [[(0, 0), (0, 1)] + [(0, 0)] * (MAX_DEGREE - 1)])


Z8 = construct_ring("zmod:8")
# u + 2u^2: the top chain 2, 4, 0 dies at k = 3, yet no power is zero,
# as the lowest coefficients 1, 1, ... show
TOP_DIES_LOW_LIVES = (Z8, build_endo(Z8, "endo:id"), [[0, 1, 2, 0, 0]])
# 2u + u^2 + 2u^3: the top and the lowest coefficients both read 2, 4, 0,
# yet the cube is 4u^4 + 6u^5 + u^6 + 6u^7 + 4u^8
BOTH_DIE_CUBE_LIVES = (Z8, build_endo(Z8, "endo:id"), [[0, 2, 1, 2, 0]])


P4 = construct_ring("prod(zmod:4,zmod:4)")
# (2,0) + (0,1)u: its top chain (0,1), (0,1)*diag((0,1)) = 0 dies at the
# square, which is (0,2)u, and the cube is zero; a chain twisted by the
# order 0 instead of the degree would read (0,1) on and miss the cube
CUBE_ZERO_UNDER_DIAG = (P4, build_endo(P4, "endo:diag"),
                        [[(2, 0), (0, 1)] + [(0, 0)] * (MAX_DEGREE - 1)])


@settings(max_examples=100)   # vanishing powers are rare on the registry
@given(twisted_coeffs(1, drawn_pairs), st.integers(1, 6), st.integers(0, 6))
@example(SQUARE_ZERO_UNDER_DIAG, 2, 0)
@example(TOP_DIES_LOW_LIVES, 1, 6)
@example(BOTH_DIE_CUBE_LIVES, 1, 6)
@example(CUBE_ZERO_UNDER_DIAG, 1, 3)
def test_first_zero_power_agrees_with_the_full_power(drawn, lo, span):
    """first_zero_power(lo, hi) and nilpotency_probe, which read the chain
    of top coefficients, against the k-fold products."""
    ring, endo, (coeffs,) = drawn
    hi = lo + span
    f = SkewPoly(ring, endo, coeffs)
    zero = [functools.reduce(operator.mul, [f] * k).is_zero
            for k in range(1, hi + 1)]
    least = next((k for k in range(lo, hi + 1) if zero[k - 1]), None)
    # straight to the asked exponents, where the chain alone may answer
    assert (SkewPoly(ring, endo, coeffs).first_zero_power(hi, hi) == hi) == zero[-1]
    assert SkewPoly(ring, endo, coeffs).first_zero_power(lo, hi) == least
    # every exponent up to hi, on a chain that may die on the way
    assert [f.first_zero_power(k, k) == k for k in range(1, hi + 1)] == zero
    assert f.first_zero_power(lo, hi) == least
    probe = nilpotency_probe(SkewPoly(ring, endo, coeffs), bound=hi - 1)
    index = next((k for k in range(2, hi + 1) if zero[k - 1]), None)
    assert (probe.zero_power_found, probe.index) == (index is not None, index)


@settings(max_examples=100)   # a dropped twist shows on few draws
@given(twisted_coeffs(1, drawn_pairs), st.integers(0, 8), st.integers(1, 6))
def test_power_windows_are_the_truncated_powers(drawn, precision, k):
    ring, endo, (coeffs,) = drawn
    f = SkewPoly(ring, endo, coeffs)
    for j, window in enumerate(itertools.islice(power_windows(f, precision), k), 1):
        assert TruncSeries(ring, endo, precision, window) == f.power(j).truncate(precision)


@settings(max_examples=100)
@given(twisted_coeffs(2, drawn_pairs), st.integers(0, 8))
def test_certificates_are_the_extreme_coefficients_of_the_product(drawn, precision):
    ring, endo, lists = drawn
    p, q = (SkewPoly(ring, endo, cs) for cs in lists)
    if not (p.is_zero or q.is_zero):
        product, top = p * q, p.degree + q.degree
        tops = [(x.degree, x.coeffs[-1]) for x in (p, q)]
        assert top_certificate(endo, *tops) == (product.coeffs[top]
                                                if top <= product.degree
                                                else ring.zero_v)
    s, t = (TruncSeries(ring, endo, precision, cs[:precision + 1]) for cs in lists)
    if not (s.is_zero or t.is_zero):
        lowest = s.order() + t.order()
        lows = [(x.order(), x.coeffs[x.order()]) for x in (s, t)]
        assert lowest_certificate(endo, *lows, precision) == (
            (s * t).coeffs[lowest] if lowest <= precision else ring.zero_v)

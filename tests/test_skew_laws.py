"""Laws of the twisted products, powers and inverses, on hypothesis draws
over the registry's rings and twists.

Each draw picks a registry entry and sparse coefficient lists of one to
three terms (values of a finite ring, scope values of drawn
support on the two-variable model), the shape the suites sample:

- SkewPoly.power(k) equals the k-fold product taken left to right;
- geometric_inverse equals a dense reference, the alternating sum of the
  truncated exact powers of f*u, in series, termination, index and note;
- series_inverse is a two-sided inverse;
- the twisted products of SkewPoly and TruncSeries are associative."""

import functools
import itertools
import operator

from hypothesis import given, settings, strategies as st

from skewarch.registry import ENTRIES
from skewarch.skew import SkewPoly, TruncSeries, geometric_inverse, series_inverse
from test_ring_laws import value_strategy

MAX_DEGREE = 4


@st.composite
def twisted_coeffs(draw, count):
    """A registry ring and twist, and count coefficient lists of length
    MAX_DEGREE + 1 with one to three terms each."""
    ring, endo = draw(st.sampled_from(ENTRIES)).build()
    terms = st.lists(st.tuples(st.integers(0, MAX_DEGREE), value_strategy(ring)),
                     min_size=1, max_size=3)
    lists = []
    for _ in range(count):
        coeffs = [ring.zero_v] * (MAX_DEGREE + 1)
        for d, v in draw(terms):
            coeffs[d] = v
        lists.append(coeffs)
    return ring, endo, lists


def dense_geometric_inverse(f, precision):
    """The inverse of 1 + f*u as (series, terminated, index): every power
    of f*u from one by repeated products, each truncated to a full
    window and subtracted or added whole."""
    ring, endo = f.ring, f.endo
    one = SkewPoly.constant(ring, endo, ring.one_v)
    fu = f.shift(1)
    acc, power = one.truncate(precision), one
    for k in itertools.count(1):
        power = power * fu
        if power.is_zero:
            return acc, True, k
        term = power.truncate(precision)
        acc = acc - term if k % 2 else acc + term
        if power.order() > precision:
            return acc, False, None


@given(twisted_coeffs(1), st.integers(1, 6))
def test_power_is_the_left_to_right_product(drawn, k):
    ring, endo, (coeffs,) = drawn
    f = SkewPoly(ring, endo, coeffs)
    assert f.power(k) == functools.reduce(operator.mul, [f] * k)
    # a power read again, or below one already read, comes from the chain
    assert f.power(k) is f.power(k)
    assert f.power(max(1, k - 2)) == functools.reduce(operator.mul, [f] * max(1, k - 2))


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

"""Differential tests of the ring and skew product and inverse kernels.

The references, in tests/oracles.py, are written from the definitions,
not from the library's kernels: schoolbook convolutions that multiply
every pair of coefficients (zeros included), twists applied one step at
a time with `apply_v`, the two-variable product expanded monomial by
monomial with x*y = 0, and GF(p^k) arithmetic as polynomials reduced
modulo the field's irreducible."""

import random

import pytest

from oracles import poly_mulmod, reference_mul, schoolbook

from skewarch.endos import build_endo
from skewarch.rings import (GaloisFieldRing, RingConstructionError, _digits,
                            construct_ring, default_irreducible, window_inverse)
from skewarch.skew import SkewPoly, TruncSeries, series_inverse

ROUNDS = 40


def random_value(ring, rnd):
    """A seeded draw from the scope, or, every other time, a value with
    every coefficient of the window drawn freely."""
    s = ring.bounded_support()
    if rnd.random() < 0.5:
        return ring.scope_value(rnd.randrange(ring.scope_size(s)), s)
    if ring.kind == "tser":
        return tuple(rnd.choice(ring.base.values())
                     for _ in range(ring.precision + 1))
    vals, N = ring.field.values(), ring.precision
    a = rnd.choice(vals)
    return ((a, *(rnd.choice(vals) for _ in range(N))),
            (a, *(rnd.choice(vals) for _ in range(N))))


def base(ring):
    """A truncated model's base ring, read apart from ring.layout."""
    return ring.base if ring.kind == "tser" else ring.field


def windows(ring, v):
    """A truncated model's value as its windows over the base ring, read
    apart from ring.layout, which the tests below check."""
    return (v,) if ring.kind == "tser" else v


def random_coefficient(ring, rnd):
    if ring.truncated:
        return random_value(ring, rnd)
    return rnd.choice(ring.values())


@pytest.mark.parametrize("spec", ["tser(zmod:4,N=6)",
                                  "tser(prod(zmod:2,zmod:3),N=4)",
                                  "xyq:gf:3:1:N=4"])
def test_truncated_model_products_match_the_reference(spec):
    ring = construct_ring(spec)
    ref = reference_mul(ring)
    rnd = random.Random(spec)
    for _ in range(ROUNDS):
        v, w = random_value(ring, rnd), random_value(ring, rnd)
        assert ring.k_mul(v, w) == ref(v, w)


# over the truncated models the coefficients are windows, multiplied term
# by term: non-field bases, where term sums cancel, and both xyq twists
TWISTED = [("gf:2:2", "endo:frob"), ("xyq:gf:2:1:N=4", "endo:xsq"),
           ("tser(zmod:4,N=6)", "endo:id"), ("tser(prod(zmod:2,zmod:3),N=4)", "endo:id"),
           ("xyq:gf:3:1:N=4", "endo:id")]
TRUNCATED_TWISTED = TWISTED[1:]


@pytest.mark.parametrize("ring_spec,endo_spec", TWISTED)
def test_twisted_products_match_the_reference(ring_spec, endo_spec):
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    mul = reference_mul(ring)
    rnd = random.Random(ring_spec + endo_spec)
    for n in (0, 1, 4, 7):
        for _ in range(ROUNDS // 4):
            xs = [random_coefficient(ring, rnd) for _ in range(n + 1)]
            ys = [random_coefficient(ring, rnd) for _ in range(rnd.randrange(1, n + 2))]
            # a zero coefficient here and there, including at the ends
            xs[rnd.randrange(n + 1)] = ring.zero_v
            want = schoolbook(ring.k_add, mul, ring.zero_v, xs, ys, n, endo.apply_v)
            got = TruncSeries(ring, endo, n, xs) * TruncSeries(ring, endo, n, ys)
            assert list(got.coeffs) == want
            full = len(xs) + len(ys) - 2
            want = schoolbook(ring.k_add, mul, ring.zero_v, xs, ys, full, endo.apply_v)
            got = SkewPoly(ring, endo, xs) * SkewPoly(ring, endo, ys)
            assert got == SkewPoly(ring, endo, want)


@pytest.mark.parametrize("ring_spec,endo_spec", TWISTED)
def test_twisted_series_inverse_is_two_sided(ring_spec, endo_spec):
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    mul = reference_mul(ring)
    rnd = random.Random(ring_spec + endo_spec)
    n = 6
    one = [ring.one_v] + [ring.zero_v] * n
    for _ in range(ROUNDS // 2):
        g = [random_coefficient(ring, rnd) for _ in range(n + 1)]
        if ring.is_unit_v(g[0]) is None:
            with pytest.raises(ValueError):
                series_inverse(TruncSeries(ring, endo, n, g))
            continue
        h = list(series_inverse(TruncSeries(ring, endo, n, g)).coeffs)
        assert schoolbook(ring.k_add, mul, ring.zero_v, g, h, n, endo.apply_v) == one
        assert schoolbook(ring.k_add, mul, ring.zero_v, h, g, n, endo.apply_v) == one


@pytest.mark.parametrize("ring_spec,endo_spec", [
    ("zmod:8", "endo:id"), ("gf:2:2", "endo:frob"), ("prod(zmod:2,zmod:2)", "endo:diag"),
    ("tser(zmod:4,N=6)", "endo:id"), ("xyq:gf:2:1:N=4", "endo:xsq")])
def test_a_window_with_constant_term_one_makes_no_product_by_one(
        monkeypatch, ring_spec, endo_spec):
    """window_inverse on a g with g_0 = 1 multiplies nothing by g_0^-1 = 1.
    On a finite ring k_mul runs once per nonzero g_i, 1 <= i <= m, for each
    degree m of the solve; a truncated model's own k_mul never runs, since
    its term products are the base ring's.  series_inverse of g still
    closes with one product."""
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    mul = reference_mul(ring)
    rnd = random.Random(ring_spec + endo_spec)
    n = 6
    one = [ring.one_v] + [ring.zero_v] * n
    twist = None if endo.is_identity else endo.power_apply_v
    if twist:
        twist(n, ring.one_v)        # builds the twist's value maps uncounted
    products, kernel = [], type(ring).k_mul
    series, series_mul = [], TruncSeries.__mul__

    def counted(self, x, y):
        if self is ring:
            products.append((x, y))
        return kernel(self, x, y)

    def counted_series(x, y):
        series.append((x, y))
        return series_mul(x, y)

    monkeypatch.setattr(type(ring), "k_mul", counted)
    monkeypatch.setattr(TruncSeries, "__mul__", counted_series)
    for _ in range(ROUNDS // 4):
        g = [ring.one_v] + [random_coefficient(ring, rnd) for _ in range(n)]
        products.clear()
        h = window_inverse(ring, g, twist)
        terms = 0 if ring.truncated else sum(
            1 for m in range(1, n + 1) for i in range(1, m + 1) if g[i] != ring.zero_v)
        assert len(products) == terms
        assert schoolbook(ring.k_add, mul, ring.zero_v, g, h, n, endo.apply_v) == one
        assert schoolbook(ring.k_add, mul, ring.zero_v, h, g, n, endo.apply_v) == one
        series.clear()
        assert list(series_inverse(TruncSeries(ring, endo, n, g)).coeffs) == h
        assert len(series) == 1


@pytest.mark.parametrize("ring_spec,endo_spec", TRUNCATED_TWISTED)
def test_a_coefficient_whose_terms_cancel_is_exactly_zero(ring_spec, endo_spec):
    """(a + a*u) * (1 - u) has a*(-1) + a*alpha(1) = 0 at degree 1, for
    every twist: each term of the row cancels."""
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    mul = reference_mul(ring)
    rnd = random.Random(ring_spec + endo_spec)
    a = ring.zero_v
    while sum(c != base(ring).zero_v for w in windows(ring, a) for c in w) < 3:
        a = random_value(ring, rnd)
    xs, ys = [a, a], [ring.one_v, ring.k_neg(ring.one_v)]
    want = schoolbook(ring.k_add, mul, ring.zero_v, xs, ys, 2, endo.apply_v)
    assert want[1] == ring.zero_v != want[2]
    series = TruncSeries(ring, endo, 2, xs) * TruncSeries(ring, endo, 2, ys)
    poly = SkewPoly(ring, endo, xs) * SkewPoly(ring, endo, ys)
    assert list(series.coeffs) == list(poly.coeffs) == want
    assert series.coeffs[1] == poly.coeffs[1] == ring.zero_v


def test_a_top_coefficient_whose_terms_cancel_is_stripped():
    """In tser(zmod:4,N=6), a = 2t^4 + t^5 and b = 2t + t^2 multiply to 0:
    the degree-6 row takes 2*1 + 1*2 = 0 and higher degrees drop.  So the
    top coefficient of (1 + a*u) * (1 + b*u) cancels and is stripped."""
    ring = construct_ring("tser(zmod:4,N=6)")
    endo = build_endo(ring, "endo:id")
    a, b = ring.v_of_text("[0,0,0,0,2,1]"), ring.v_of_text("[0,2,1]")
    assert reference_mul(ring)(a, b) == ring.zero_v
    assert (SkewPoly(ring, endo, [a]) * SkewPoly(ring, endo, [b])).is_zero
    product = SkewPoly(ring, endo, [ring.one_v, a]) * SkewPoly(ring, endo, [ring.one_v, b])
    assert product.coeffs == (ring.one_v, ring.k_add(a, b))
    series = TruncSeries(ring, endo, 2, [ring.one_v, a]) * TruncSeries(ring, endo, 2,
                                                                      [ring.one_v, b])
    assert series.coeffs[2] == ring.zero_v


@pytest.mark.parametrize("ring_spec,endo_spec", [("tser(zmod:4,N=6)", "endo:id"),
                                                 ("xyq:gf:2:1:N=4", "endo:xsq")])
def test_a_series_product_makes_one_base_product_per_nonzero_term_pair(
        monkeypatch, ring_spec, endo_spec):
    """The base ring's k_mul runs once for each pair of nonzero terms
    (x_i[k], alpha^i(y_j)[l]) with i + j and k + l within the precisions,
    window by window: no product is skipped or repeated."""
    ring = construct_ring(ring_spec)
    endo = build_endo(ring, endo_spec)
    zero, n = base(ring).zero_v, 8
    rnd = random.Random(ring_spec)
    xs = [random_value(ring, rnd) for _ in range(n + 1)]
    ys = [random_value(ring, rnd) for _ in range(n + 1)]
    xs[2] = ys[5] = ring.zero_v
    twisted = [ys]
    for _ in range(n):
        twisted.append([endo.apply_v(y) for y in twisted[-1]])
    want = sum(1 for i, x in enumerate(xs) for j, y in enumerate(twisted[i]) if i + j <= n
               for xw, yw in zip(windows(ring, x), windows(ring, y))
               for k, c in enumerate(xw) for l, d in enumerate(yw)
               if c != zero and d != zero and k + l <= ring.precision)
    count = [0]
    kernel = type(base(ring)).k_mul

    def counted(self, x, y):
        count[0] += 1
        return kernel(self, x, y)
    monkeypatch.setattr(type(base(ring)), "k_mul", counted)
    TruncSeries(ring, endo, n, xs) * TruncSeries(ring, endo, n, ys)
    assert count[0] == want > 0


@pytest.mark.parametrize("spec", ["xyq:gf:3:1:N=4", "tser(zmod:4,N=6)"])
def test_unit_inverses_on_the_support_two_scope(spec):
    ring = construct_ring(spec)
    ref = reference_mul(ring)
    if ring.kind == "xyq":
        constant, constant_of = ring.field, lambda v: v[0][0]
    else:
        constant, constant_of = ring.base, lambda v: v[0]
    for i in range(ring.scope_size(2)):
        v = ring.scope_value(i, 2)
        inv = ring.is_unit_v(v)
        assert ring.has_inverse_v(v) == (inv is not None)
        if constant.is_unit_v(constant_of(v)) is None:
            assert inv is None
        else:
            assert ref(v, inv) == ring.one_v and ref(inv, v) == ring.one_v


# ---------------------------------------------------------------------------
# GF(p^k) table kernels against polynomial arithmetic

FIELDS = (["gf:2:%d" % k for k in range(2, 9)] + ["gf:3:2", "gf:3:3", "gf:3:4",
          "gf:5:2", "gf:7:2"]
          # x^4 + x^3 + 1 in place of the default x^4 + x + 1
          + ["gf:2:4:1,0,0,1,1"])


def coordinates(ring):
    """Value -> its Z/p coordinates: the little-endian base-p digits."""
    return lambda v: tuple(_digits(v, ring.p, ring.k))


@pytest.mark.parametrize("spec", FIELDS)
def test_field_kernels_match_polynomial_arithmetic(spec):
    ring = construct_ring(spec)
    p, q, irr = ring.p, ring.card, ring.irr
    vals = ring.values()
    frob = build_endo(ring, "endo:frob")
    co = coordinates(ring)
    one = co(ring.one_v)
    mul = lambda x, y: poly_mulmod(x, y, p, irr)   # noqa: E731
    for a in vals:
        assert co(ring.k_neg(a)) == tuple((-c) % p for c in co(a))
        for b in vals:
            assert co(ring.k_mul(a, b)) == mul(co(a), co(b))
            assert co(ring.k_add(a, b)) == tuple((c + d) % p
                                                 for c, d in zip(co(a), co(b)))
        wanted = {0, 1, 2, p, q - 2, q}
        acc = one
        for n in range(q + 1):
            if n in wanted:
                assert co(ring.k_pow(a, n)) == acc
            if n == p:
                assert co(frob.apply_v(a)) == acc
            acc = mul(acc, co(a))
        inv = ring.is_unit_v(a)
        if a == ring.zero_v:
            assert inv is None
        else:
            assert mul(co(a), co(inv)) == one


@pytest.mark.parametrize("spec", ["gf:2:8", "gf:2:9", "gf:3:5", "gf:5:3"])
def test_field_tables_match_the_polynomial_product(spec):
    """The tables equal those built from the same primitive element by
    the test's polynomial product, also on fields past the every-pair
    check."""
    ring = construct_ring(spec)
    co = coordinates(ring)
    g, one = co(ring._primitive_element()), co(ring.one_v)
    powers = [one]
    for _ in range(ring.card - 2):
        powers.append(poly_mulmod(g, powers[-1], ring.p, ring.irr))
    assert poly_mulmod(g, powers[-1], ring.p, ring.irr) == one
    log = {v: i for i, v in enumerate(powers)}
    assert len(log) == ring.card - 1      # g is primitive
    zero_log = 2 * (ring.card - 1)        # zero's logarithm: exp reads 0 from there on
    assert [co(v) for v in ring._exp] == powers + powers + [co(0)] * (zero_log + 1)
    assert ring._log[0] == zero_log
    assert {co(v): i for v, i in enumerate(ring._log) if v} == log
    assert ring._zech == [log.get(((v[0] + 1) % ring.p,) + v[1:], zero_log)
                          for v in powers]


PRIMES = [2, 3, 5, 7, 251]


@pytest.mark.parametrize("p", PRIMES)
def test_prime_fields_agree_with_the_integers_mod_p(p):
    """gf:p:1 computes through its log tables; zmod:p by integer
    arithmetic.  The two agree on every value and pair."""
    field, zmod = construct_ring("gf:%d:1" % p), construct_ring("zmod:%d" % p)
    vals = zmod.values()
    assert field.values() == vals
    assert (field.zero_v, field.one_v) == (zmod.zero_v, zmod.one_v)
    for a in vals:
        assert field.k_neg(a) == zmod.k_neg(a)
        assert field.is_unit_v(a) == zmod.is_unit_v(a)
        assert field.v_of_text(field.text_of_v(a)) == a
        assert field.text_of_v(a) == "[%d]" % a
        for n in (0, 1, 2, p - 2, p - 1, p, 2 * p + 3):
            assert field.k_pow(a, n) == zmod.k_pow(a, n)
        for b in vals:
            assert field.k_add(a, b) == zmod.k_add(a, b)
            assert field.k_mul(a, b) == zmod.k_mul(a, b)


@pytest.mark.parametrize("spec", FIELDS + ["gf:%d:1" % p for p in PRIMES])
def test_field_values_are_the_integers_below_q(spec):
    ring = construct_ring(spec)
    assert ring.values() == list(range(ring.card))


def test_field_tables_take_about_q_polynomial_products(monkeypatch):
    """The power table takes q-2 products and the primitive-element search
    a few dozen more."""
    calls = []
    product = GaloisFieldRing._poly_mul
    monkeypatch.setattr(GaloisFieldRing, "_poly_mul",
                        lambda self, x, y: calls.append(1) or product(self, x, y))
    ring = GaloisFieldRing(2, 8, default_irreducible(2, 8))
    assert len(ring.values()) == 256
    assert len(calls) <= 256 + 256 // 4
    calls.clear()
    with pytest.raises(RingConstructionError):
        construct_ring("gf:2:17")      # past the enumeration cap
    assert calls == []

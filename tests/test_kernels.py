"""Differential tests of the ring and skew product and inverse kernels.

The references are written from the definitions, not from the library's
kernels: schoolbook convolutions that multiply every pair of
coefficients (zeros included), twists applied one step at a time with
`apply_v`, the two-variable product expanded monomial by monomial with
x*y = 0, and GF(p^k) arithmetic as polynomials reduced modulo the
field's irreducible."""

import random

import pytest

from skewarch.endos import build_endo
from skewarch.rings import (GaloisFieldRing, RingConstructionError, _digits,
                            construct_ring, parse_ring_spec)
from skewarch.skew import SkewPoly, TruncSeries, series_inverse

ROUNDS = 40


def schoolbook(add, mul, zero, xs, ys, limit, twist=None):
    """Coefficients 0..limit of sum x_i * twist^i(y_j) u^(i+j), every
    pair multiplied; twist is one application of the map."""
    powers = [list(ys)]
    for _ in range(len(xs)):
        powers.append([twist(y) if twist else y for y in powers[-1]])
    out = [zero] * (limit + 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(powers[i]):
            if i + j <= limit:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def xyq_terms(ring, v):
    """The value, a pair (x-series, y-series) sharing the constant term,
    as {(x-degree, y-degree): coefficient}."""
    terms = {(0, 0): v[0][0]}
    for i, c in enumerate(v[0][1:]):
        terms[(i + 1, 0)] = c
    for j, c in enumerate(v[1][1:]):
        terms[(0, j + 1)] = c
    return terms


def xyq_mul(ring, v, w):
    """The product expanded monomial by monomial, dropping every mixed
    monomial (x*y = 0) and every degree past the precision."""
    F, N = ring.field, ring.precision
    acc = {}
    for (a, b), c in xyq_terms(ring, v).items():
        for (d, e), k in xyq_terms(ring, w).items():
            dx, dy = a + d, b + e
            if (dx and dy) or dx > N or dy > N:
                continue
            acc[(dx, dy)] = F.k_add(acc.get((dx, dy), F.zero_v), F.k_mul(c, k))
    return (tuple(acc.get((i, 0), F.zero_v) for i in range(N + 1)),
            tuple(acc.get((0, j), F.zero_v) for j in range(N + 1)))


def reference_mul(ring):
    if ring.kind == "xyq":
        return lambda v, w: xyq_mul(ring, v, w)
    if ring.kind == "tser":
        b = ring.base
        return lambda v, w: tuple(schoolbook(b.k_add, b.k_mul, b.zero_v,
                                             v, w, ring.precision))
    return ring.k_mul


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


TWISTED = [("gf:2:2", "endo:frob"), ("xyq:gf:2:1:N=4", "endo:xsq"),
           ("tser(zmod:4,N=6)", "endo:id")]


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


def poly_mulmod(x, y, p, irr):
    """x*y as polynomials over Z/p, every coefficient pair multiplied,
    then x^d rewritten through the monic irreducible from the top down."""
    k = len(irr) - 1
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += x[i] * y[j]
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        for j in range(k + 1):
            prod[d - k + j] -= c * irr[j]
    return tuple(c % p for c in prod[:k])


@pytest.mark.parametrize("spec", FIELDS)
def test_field_kernels_match_polynomial_arithmetic(spec):
    ring = construct_ring(spec)
    p, q, irr = ring.p, ring.card, ring.irr
    vals = ring.values()
    assert vals == [tuple(_digits(i, p, ring.k)) for i in range(q)]
    frob = build_endo(ring, "endo:frob")
    mul = lambda x, y: poly_mulmod(x, y, p, irr)   # noqa: E731
    for a in vals:
        assert ring.k_neg(a) == tuple((-c) % p for c in a)
        for b in vals:
            assert ring.k_mul(a, b) == mul(a, b)
            assert ring.k_add(a, b) == tuple((c + d) % p for c, d in zip(a, b))
        wanted = {0, 1, 2, p, q - 2, q}
        acc = ring.one_v
        for n in range(q + 1):
            if n in wanted:
                assert ring.k_pow(a, n) == acc
            if n == p:
                assert frob.apply_v(a) == acc
            acc = mul(acc, a)
        inv = ring.is_unit_v(a)
        if a == ring.zero_v:
            assert inv is None
        else:
            assert mul(a, inv) == ring.one_v


@pytest.mark.parametrize("spec", ["gf:2:8", "gf:2:9", "gf:3:5", "gf:5:3"])
def test_field_tables_match_the_polynomial_product(spec):
    """The tables equal those built from the same primitive element by
    the test's polynomial product, also on fields past the every-pair
    check."""
    ring = construct_ring(spec)
    g = ring._primitive_element()
    powers = [ring.one_v]
    for _ in range(ring.card - 2):
        powers.append(poly_mulmod(g, powers[-1], ring.p, ring.irr))
    assert poly_mulmod(g, powers[-1], ring.p, ring.irr) == ring.one_v
    log = {v: i for i, v in enumerate(powers)}
    assert len(log) == ring.card - 1      # g is primitive
    assert ring._exp == powers + powers
    assert ring._log == log
    assert ring._zech == [log.get(((v[0] + 1) % ring.p,) + v[1:]) for v in powers]


def test_field_tables_take_about_q_polynomial_products(monkeypatch):
    """The power table takes q-2 products and the primitive-element search
    a few dozen more."""
    calls = []
    product = GaloisFieldRing._poly_mul
    monkeypatch.setattr(GaloisFieldRing, "_poly_mul",
                        lambda self, x, y: calls.append(1) or product(self, x, y))
    ring = GaloisFieldRing(parse_ring_spec("gf:2:8"))
    assert len(ring.values()) == 256
    assert len(calls) <= 256 + 256 // 4
    calls.clear()
    with pytest.raises(RingConstructionError):
        construct_ring("gf:2:17")      # past the enumeration cap
    assert calls == []

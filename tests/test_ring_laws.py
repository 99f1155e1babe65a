"""Ring and twist laws of every ring kind, and the text round trips.

construct_ring checks only what a spec can break (an irreducible
modulus, the enumeration and closure caps, an ideal without 1, the
guards on bases and precisions), and build_endo checks the laws only of
a table twist read from a file.  Given those checks every construction
is a ring and every built-in twist an endomorphism, so the laws are
checked here rather than on each construction, by one helper for rings
and one for twists:

- on GF(p^k) with p^k <= 256 modulo a drawn irreducible, with Frobenius;
- on drawn rings of all seven kinds: zmod, gf, products, subrings and
  quotients (the strategies of test_structural_rules), truncated series
  over small bases and F[[x,y]]/(xy) over small fields, on triples of
  values or of scope values of drawn support, with the built-in twist
  each kind admits;
- on every registry entry's ring and twist, and on the widened copies
  the seed-42 matrix builds, xyq:gf:2:1:N=16 (with endo:xsq) and
  tser(gf:2:1,N=8).

The same drawn rings check that spec text and element text round-trip."""

import functools
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from skewarch.endos import FrobeniusEndo, build_endo
from skewarch.registry import ENTRIES
from skewarch.rings import RingConstructionError, construct_ring
from test_structural_rules import CARDS, base_specs, finite_rings

PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9)
                if p ** k <= 256]
SMALL_FIELDS = [s for s, n in CARDS.items() if s.startswith("gf:") and n <= 8]


# ---------------------------------------------------------------------------
# the two law helpers


def check_ring_laws(ring, triples):
    """zero != one, the identity and negation laws on every value of each
    triple, and the ring laws on each triple: + is an abelian group with
    identity zero, * is associative and commutative with identity one,
    and * distributes over +.  Every ring built is commutative, and the
    subring, ideal and unit rules rely on it."""
    add, mul, neg = ring.k_add, ring.k_mul, ring.k_neg
    z, o = ring.zero_v, ring.one_v
    assert z != o
    for a, b, c in triples:
        for v in (a, b, c):
            assert add(z, v) == v and add(v, z) == v and add(v, neg(v)) == z
            assert mul(o, v) == v and mul(v, o) == v
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert mul(a, b) == mul(b, a)


def defining_images(endo):
    """(value, image) on ring generators, as each twist is defined.  The
    laws alone cannot tell x -> x^2, y -> y from another endomorphism
    such as x -> x^2, y -> y^2; with the laws these images pin the map."""
    ring = endo.ring
    if endo.name == "frob":
        g = ring.values()[ring.p if ring.k > 1 else 1]   # the class of X, or 1
        return [(g, functools.reduce(ring.k_mul, [g] * ring.p))]
    if endo.name == "diag":
        s = ring.factors[0]
        return [((s.one_v, s.zero_v), ring.one_v), ((s.zero_v, s.one_v), ring.zero_v)]
    if endo.name == "xsq":
        fz, N = ring.field.zero_v, ring.precision
        consts = [((c,) + (fz,) * N,) * 2 for c in ring.field.values()]
        return ([(ring.x_v(1), ring.x_v(2)), (ring.y_v(1), ring.y_v(1))]
                + [(c, c) for c in consts])
    return []


def check_twist_laws(endo, pairs):
    """endo fixes one, respects + and * on each pair, and sends the ring's
    generators where its definition says."""
    ring, f = endo.ring, endo.apply_v
    assert f(ring.one_v) == ring.one_v
    for a, b in pairs:
        assert f(ring.k_add(a, b)) == ring.k_add(f(a), f(b))
        assert f(ring.k_mul(a, b)) == ring.k_mul(f(a), f(b))
    for v, image in defining_images(endo):
        assert f(v) == image


# ---------------------------------------------------------------------------
# drawn rings


@st.composite
def fields(draw):
    """GF(p^k) modulo the first irreducible at or after a drawn monic
    polynomial, in the order of its coefficient digits."""
    p, k = draw(st.sampled_from(PRIME_POWERS))
    start = draw(st.integers(0, p ** k - 1))
    for step in range(p ** k):
        i = (start + step) % p ** k
        coeffs = [i // p ** j % p for j in range(k)] + [1]
        try:
            return construct_ring("gf:%d:%d:%s" % (p, k, ",".join(map(str, coeffs))))
        except RingConstructionError:   # reducible
            continue
    raise AssertionError("no irreducible of degree %d over Z/%d" % (k, p))


# tser over a zmod or gf ring of at most 8 elements, N = 1..6, and
# F[[x,y]]/(xy) over a field of at most 8 elements, N = 2..6
tser_rings = st.builds("tser({},N={})".format, base_specs(8),
                       st.integers(1, 6)).map(construct_ring)
xyq_rings = st.builds("xyq:{}:N={}".format, st.sampled_from(SMALL_FIELDS),
                      st.integers(2, 6)).map(construct_ring)


def value_strategy(ring):
    """Any value of a finite ring; a scope value of drawn support of a
    truncated model, up to the whole window."""
    if not ring.truncated:
        return st.sampled_from(ring.values())
    return st.integers(0, ring.precision).flatmap(
        lambda s: st.integers(0, ring.scope_size(s) - 1).map(
            lambda i: ring.scope_value(i, s)))


@st.composite
def with_triples(draw, rings):
    ring = draw(rings)
    value = value_strategy(ring)
    return ring, draw(st.lists(st.tuples(value, value, value), min_size=1, max_size=20))


all_kinds = st.one_of(finite_rings, tser_rings, xyq_rings)


# rings of the kinds a built-in twist other than the identity needs:
# gf (Frobenius), square products of a small base (the diagonal) and the
# two-variable model (x -> x^2)
TWIST_OF_KIND = {"gf": "endo:frob", "prod": "endo:diag", "xyq": "endo:xsq"}
twisted_rings = st.one_of(
    st.sampled_from([s for s in CARDS if s.startswith("gf:")]).map(construct_ring),
    base_specs(8).map(lambda s: construct_ring("prod(%s,%s)" % (s, s))),
    xyq_rings)


@given(with_triples(fields()))
def test_field_kernels_satisfy_the_ring_laws(drawn):
    ring, triples = drawn
    check_ring_laws(ring, triples)
    z, o = ring.zero_v, ring.one_v
    for a, _, _ in triples:
        assert ring.k_mul(a, z) == z
        assert ring.k_pow(a, 3) == ring.k_mul(ring.k_mul(a, a), a)
        if a != z:
            assert ring.k_mul(a, ring.is_unit_v(a)) == o


@given(with_triples(fields()))
def test_frobenius_is_additive_and_multiplicative(drawn):
    ring, triples = drawn
    check_twist_laws(FrobeniusEndo(ring), [(a, b) for a, b, _ in triples])


@given(with_triples(all_kinds))
def test_every_ring_kind_satisfies_the_ring_laws(drawn):
    check_ring_laws(*drawn)


@given(with_triples(twisted_rings))
def test_built_in_twists_are_endomorphisms(drawn):
    ring, triples = drawn
    endo = build_endo(ring, TWIST_OF_KIND[ring.kind])
    check_twist_laws(endo, [(a, b) for a, b, _ in triples])


@given(with_triples(all_kinds))
def test_spec_and_element_texts_round_trip(drawn):
    ring, triples = drawn
    assert construct_ring(ring.spec_text).spec_text == ring.spec_text
    for v in itertools.chain.from_iterable(triples):
        assert ring.v_of_text(ring.text_of_v(v)) == v


# ---------------------------------------------------------------------------
# the value format of F[[x,y]]/(xy)


def check_xyq_value(ring, v):
    """v is a pair (x-series, y-series) of values of ring.series whose
    constant terms agree, and it round-trips through text."""
    xs, ys = v
    assert len(xs) == len(ys) == ring.precision + 1
    assert xs[0] == ys[0]
    assert ring.v_of_text(ring.text_of_v(v)) == v


@given(with_triples(xyq_rings))
def test_every_xyq_operation_keeps_one_constant_term(drawn):
    ring, triples = drawn
    wide = ring.widen()
    xsq = build_endo(ring, "endo:xsq")
    text = ring.field.text_of_v
    made = [ring.v_of_text("(%s;[];[])" % text(c)) for c in ring.field.values()]
    for a, b, _ in triples:
        made += [a, ring.k_add(a, b), ring.k_neg(a), ring.k_mul(a, b),
                 xsq.apply_v(a), xsq.power_apply_v(2, a)]
        if ring.is_unit_v(a) is not None:
            made.append(ring.is_unit_v(a))
        check_xyq_value(wide, ring.lift_v(a))
    for v in made:
        check_xyq_value(ring, v)


# ---------------------------------------------------------------------------
# the registry and the widened copies the matrix builds

WIDENED = ["xyq:gf:2:1:N=16", "tser(gf:2:1,N=8)"]
RING_SAMPLES = 2_000     # triples past an exhaustive scan of 4,096
TWIST_SAMPLES = 10_000   # pairs past an exhaustive scan of 4,096


def spread(ring, width, samples):
    """Every width-tuple of a finite ring's values when there are at most
    4,096, else samples seeded draws; a truncated model draws scope
    values, alternately over the whole window and at its bounded
    support."""
    if not ring.truncated and ring.card ** width <= 4096:
        return list(itertools.product(ring.values(), repeat=width))
    rnd = random.Random(ring.spec_text)

    def value(n):
        if not ring.truncated:
            return rnd.choice(ring.values())
        s = ring.bounded_support() if n % 2 else ring.precision
        return ring.scope_value(rnd.randrange(ring.scope_size(s)), s)
    return [tuple(value(n) for _ in range(width)) for n in range(samples)]


def generators(ring):
    """Unity, every constant and the variable powers up to the precision
    of a truncated model; none for a finite ring, whose pairs spread
    lists in full."""
    if not ring.truncated:
        return []
    if ring.kind == "tser":
        return ([ring.one_v]
                + [ring.monomial_v(k) for k in range(1, ring.precision + 1)]
                + [(c,) + (ring.base.zero_v,) * ring.precision for c in ring.base.values()])
    fz, N = ring.field.zero_v, ring.precision
    return ([ring.one_v]
            + [f(k) for k in range(1, N + 1) for f in (ring.x_v, ring.y_v)]
            + [((c,) + (fz,) * N,) * 2 for c in ring.field.values()])


@pytest.mark.parametrize("spec", sorted({e.ring_spec for e in ENTRIES}) + WIDENED)
def test_registry_and_widened_rings_satisfy_the_ring_laws(spec):
    ring = construct_ring(spec)
    check_ring_laws(ring, spread(ring, 3, RING_SAMPLES))


@pytest.mark.parametrize("spec,twist", [(e.ring_spec, e.endo_spec) for e in ENTRIES]
                         + [(WIDENED[0], "endo:xsq")])
def test_registry_and_widened_twists_are_endomorphisms(spec, twist):
    endo = build_endo(construct_ring(spec), twist)
    gens = generators(endo.ring)
    check_twist_laws(endo, list(itertools.product(gens, repeat=2))
                     + spread(endo.ring, 2, TWIST_SAMPLES))

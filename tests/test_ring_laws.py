"""Ring and twist laws of the GF(p^k) table kernels on drawn fields.

Each example draws a field with p^k <= 256 and a random monic
irreducible modulus, built directly, so none of construct_ring's sampled
law checks run, and a handful of element triples.  The laws hold in
every field; the Frobenius map a -> a^p is a ring endomorphism."""

from hypothesis import given, strategies as st

from skewarch.endos import FrobeniusEndo
from skewarch.rings import (GaloisFieldRing, RingConstructionError,
                            parse_ring_spec)

PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9)
                if p ** k <= 256]


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
            spec = parse_ring_spec("gf:%d:%d:%s" % (p, k, ",".join(map(str, coeffs))))
        except RingConstructionError:   # reducible
            continue
        return GaloisFieldRing(spec)
    raise AssertionError("no irreducible of degree %d over Z/%d" % (k, p))


@st.composite
def fields_and_triples(draw):
    ring = draw(fields())
    index = st.integers(0, ring.card - 1)
    triples = draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=20))
    vals = ring.values()
    return ring, [(vals[a], vals[b], vals[c]) for a, b, c in triples]


@given(fields_and_triples())
def test_field_kernels_satisfy_the_ring_laws(drawn):
    ring, triples = drawn
    add, mul, neg = ring.k_add, ring.k_mul, ring.k_neg
    z, o = ring.zero_v, ring.one_v
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert add(a, z) == a and mul(a, o) == a and mul(a, z) == z
        assert add(a, neg(a)) == z
        assert ring.k_pow(a, 3) == mul(mul(a, a), a)
        if a != z:
            assert mul(a, ring.is_unit_v(a)) == o


@given(fields_and_triples())
def test_frobenius_is_additive_and_multiplicative(drawn):
    ring, triples = drawn
    frob = FrobeniusEndo(ring).apply_v
    assert frob(ring.one_v) == ring.one_v
    for a, b, _ in triples:
        assert frob(ring.k_add(a, b)) == ring.k_add(frob(a), frob(b))
        assert frob(ring.k_mul(a, b)) == ring.k_mul(frob(a), frob(b))

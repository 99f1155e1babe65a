"""The seeded generator and the operand draws replay exactly.

Every sampled probe, and so every report, reads its operands from
SplitMix64 streams.  These tests pin the generator's outputs against the
published sequence and a scalar reference kept here, and pin the texts
of the polynomials and series the samplers draw, so a faster generator
or draw path must give the same outputs in the same order."""

import hashlib

import pytest

from skewarch.endos import build_endo
from skewarch.prng import SplitMix64, derive_rng
from skewarch.props import _draw_terms, random_poly, random_series
from skewarch.rings import construct_ring, scan_domain

MASK64 = (1 << 64) - 1


def reference_outputs(seed):
    """SplitMix64 one output at a time, as Steele, Lea and Flood state it."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


@pytest.mark.parametrize("seed, outputs", [
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
    (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423,
               4593380528125082431, 16408922859458223821]),
])
def test_the_generator_gives_the_published_outputs(seed, outputs):
    rng = SplitMix64(seed)
    assert [rng.below(1 << 64) for _ in outputs] == outputs


# 2^64 - 1: the state wraps inside the first outputs
@pytest.mark.parametrize("seed", [0, 1, 42, MASK64, 0x5EED0FF1CE])
def test_below_is_the_reference_output_mod_the_bound(seed):
    # 300 outputs: more than four batches of 64
    bounds = [1 + k % 97 for k in range(299)] + [(1 << 64) + 12345]
    rng, ref = SplitMix64(seed), reference_outputs(seed)
    assert [rng.below(n) for n in bounds] == [next(ref) % n for n in bounds]


def test_a_refused_bound_uses_up_no_output():
    rng = SplitMix64(42)
    with pytest.raises(ValueError):
        rng.below(0)
    assert rng.below(1 << 64) == next(reference_outputs(42))


DRAWN = [("zmod:6", "endo:id"), ("gf:2:2", "endo:frob"),
         ("prod(zmod:2,zmod:2)", "endo:diag"), ("tser(zmod:4,N=6)", "endo:id"),
         ("xyq:gf:2:1:N=8", "endo:xsq")]


def _drawn_texts(seed):
    for spec, twist in DRAWN:
        ring = construct_ring(spec)
        endo = build_endo(ring, twist)
        rng = derive_rng(seed, "pin/%s/%s" % (spec, twist))
        for k in range(400):
            yield random_poly(ring, endo, rng, max_degree=2 + k % 6,
                              max_terms=1 + k % 4).to_text()
            yield random_series(ring, endo, rng, 4 + k % 13,
                                max_support=None if k % 2 else 2 + k % 5).to_text()


@pytest.mark.parametrize("seed, digest", [
    (0, "005d77c12218c797efd01343a8f7150655a6da0e02549f2e1753f2d5195fae75"),
    (42, "41406599cd6fafd3e244bf79a139791714c55ae73c52582c2ac20b88b8686bfe"),
])
def test_the_drawn_operands_replay(seed, digest):
    text = "\n".join(_drawn_texts(seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("spec, twist", DRAWN)
def test_a_term_draw_uses_up_the_stream_of_an_operand_draw(spec, twist):
    # the probes draw terms where the samplers draw operands: the same
    # terms, and the next output of either stream is the same
    ring = construct_ring(spec)
    endo, pool, zero = build_endo(ring, twist), scan_domain(ring, 2).values, ring.zero_v
    for seed in range(40):
        terms_rng, operand_rng = SplitMix64(seed), SplitMix64(seed)
        if seed % 2:
            terms = _draw_terms(terms_rng, pool, zero, 6, 3)
            operand = random_poly(ring, endo, operand_rng, max_terms=3)
        else:
            terms = _draw_terms(terms_rng, pool, zero, 5, 4)
            operand = random_series(ring, endo, operand_rng, 10, max_support=5)
        assert terms == {d: c for d, c in enumerate(operand.coeffs) if c != zero}
        assert terms_rng.below(1 << 64) == operand_rng.below(1 << 64)

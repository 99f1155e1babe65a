"""Deterministic pseudo-random numbers for sampled checks.

Everything seeded here must replay byte-for-byte across platforms, so we
use SplitMix64 with its published constants rather than the stdlib
Mersenne Twister.  Stream derivation for (entry, suite) pairs goes
through FNV-1a so that adding an entry never shifts another entry's
stream.

The k-th SplitMix64 output is mix(seed + k*gamma), so no output depends
on another.  The generator makes 64 of them at a time: each sits in its
own 128-bit lane of one Python int, the mixing steps run once on that
int, and `struct` unpacks the low halves.  Every output is the one the
scalar recurrence gives, in the same order.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Outputs per batch, each in a 128-bit lane: a lane holds one 64-bit
# value and a 64x64-bit product of it stays inside the lane.
_LANES = 64
_ONES = sum(1 << (128 * i) for i in range(_LANES))     # 1 in every lane
_LOW = _ONES * MASK64                                   # low 64 bits of every lane
_STEPS = sum(((i + 1) * _GAMMA & MASK64) << (128 * i) for i in range(_LANES))
_BATCH_STEP = _LANES * _GAMMA & MASK64
_LOW_HALVES = struct.Struct("<" + "Q8x" * _LANES)

# FNV-1a 64-bit constants.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SplitMix64:
    """64-bit SplitMix64 generator.  Output k >= 1 of seed s is

        z = s + k * 0x9E3779B97F4A7C15                  (mod 2^64)
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9        (mod 2^64)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB        (mod 2^64)
        z ^ (z >> 31)

    made 64 at a time.  `state` is the seed plus gamma times the number
    of outputs made so far, so it moves forward one batch at a time;
    the outputs not yet handed out wait in a buffer."""

    __slots__ = ("state", "_buffer")

    def __init__(self, seed: int):
        self.state = seed & MASK64
        self._buffer = []

    def _refill(self) -> list:
        # lane i starts from state + (i+1)*gamma; each right shift pulls
        # bits down from the lane above, so it is masked to the low half
        z = (self.state * _ONES + _STEPS) & _LOW
        self.state = (self.state + _BATCH_STEP) & MASK64
        z = ((z ^ ((z >> 30) & _LOW)) * _MIX1) & _LOW
        z = ((z ^ ((z >> 27) & _LOW)) * _MIX2) & _LOW
        z ^= (z >> 31) & _LOW
        outputs = list(_LOW_HALVES.unpack(z.to_bytes(_LOW_HALVES.size, "little")))
        outputs.reverse()       # the next output is popped from the end
        self._buffer = outputs
        return outputs

    def below(self, n: int) -> int:
        """Uniform-enough integer in [0, n).  Plain modulo; the tiny bias
        is irrelevant for counterexample search and keeps replay trivial.
        A refused bound uses up no output."""
        if n <= 0:
            raise ValueError("below() needs a positive bound, got %r" % n)
        return (self._buffer or self._refill()).pop() % n


def fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & MASK64
    return h


def derive_rng(master_seed: int, task: str) -> SplitMix64:
    """Independent stream for a named task under one master seed."""
    return SplitMix64((master_seed & MASK64) ^ fnv1a64(task))


# Fixed seed for the sampled law check of a table twist (endos).
# Deliberately independent of any run configuration: a twist either
# builds or it does not, regardless of the seed a caller passes.
CONSTRUCTION_SEED = 0x5EED0FF1CE

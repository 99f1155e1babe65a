"""Deterministic pseudo-random numbers for sampled checks.

Everything seeded here must replay byte-for-byte across platforms, so we
use SplitMix64 with its published constants rather than the stdlib
Mersenne Twister.  Stream derivation for (entry, suite) pairs goes
through FNV-1a so that adding an entry never shifts another entry's
stream.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# FNV-1a 64-bit constants.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SplitMix64:
    """64-bit SplitMix64 generator.

    next_u64:  state += 0x9E3779B97F4A7C15
               z = state
               z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
               z = (z ^ (z >> 27)) * 0x94D049BB133111EB
               return z ^ (z >> 31)
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def below(self, n: int) -> int:
        """Uniform-enough integer in [0, n).  Plain modulo; the tiny bias
        is irrelevant for counterexample search and keeps replay trivial."""
        if n <= 0:
            raise ValueError("below() needs a positive bound, got %r" % n)
        return self.next_u64() % n


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

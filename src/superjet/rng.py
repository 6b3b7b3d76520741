"""Seeded pseudo-random numbers for the verification suites.

The generator is splitmix64: a 64-bit state advanced by a fixed odd constant,
mixed through two xor-shift-multiply rounds.  It is tiny, fast, and easy to
reimplement bit-for-bit in any language, which is what makes the random case
corpora of the CLI suites portable.  Reports carry the algorithm id
``"splitmix64"`` next to the seed.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1

ALGORITHM = "splitmix64"


class SplitMix64:
    """Deterministic stream of 64-bit integers from a seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection to avoid modulo bias."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # largest multiple of span below 2^64
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        # Fisher-Yates, in place
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def fraction(self) -> Fraction:
        """Small exact rational: numerator in -3..3, then denominator in 1..3."""
        return Fraction(self.randint(-3, 3), self.randint(1, 3))

    def nonzero_fraction(self) -> Fraction:
        while True:
            f = self.fraction()
            if f:
                return f

"""Deterministic random generation of elements, frames and jets.

The generator is SplitMix64: a 64-bit counter-based scheme whose whole state
is one integer, advanced by the golden-gamma constant and finalized with two
xor-multiply rounds.  It is implemented here in pure integer arithmetic, so
identical (seed, path) inputs give identical streams on every platform.

A stream computes its outputs in blocks of 8, then 16, 32 and 64, all at
once: output t of a block sits in the 128-bit lane t of one integer, and the
add, xor-shift and multiply steps act on every lane together.  Each lane is
below 2**64 before a multiply, so no carry reaches the next lane, and the
outputs are those of the one-at-a-time scheme, in the same order.

Streams for independent work items are derived, never shared:
``stream(root_seed, *path)`` hashes the path integers (e.g. dimension and
trial index) into the root seed one at a time with the same finalizer.
String path components are hashed with FNV-1a, which is also stable.

Sampling ranges follow one convention everywhere: matrix entries are integers
in [-3, 3] (resampled until the determinant is nonzero when invertibility is
required) and bilinear coefficients have numerator in [-4, 4] and denominator
in {1, 2}.  Small exact values keep products readable and fast.  The typed
values hold their invariants by construction and are built with
``Checked._trusted``; n, the one value a caller gives, is checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import length_hint
from struct import Struct

from .bilinear import Bilinear, skew_part, sym_part
from .frames import HolFrame, NonHolFrame, SemiHolFrame
from .groups import (
    G2,
    GHat2,
    GTilde2,
    GTilde21,
    GTilde22,
    QuotClassHat,
    T1nL1n,
)
from .jets import Map2Jet
from .matrices import SquareMatrix, det

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=1024)
def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


#: The lane offsets of the largest block: (t + 1)·gamma mod 2**64 in lane t.
_OFFSETS = sum(((t + 1) * _GAMMA & _MASK) << 128 * t for t in range(64))


def _plan(b: int) -> tuple:
    """What a block of ``b`` outputs needs: b, 1 in every 128-bit lane, the
    lane offsets, the mask of the low 64 bits of every lane, and the reader
    of those bits."""
    lanes = (1 << 128 * b) - 1
    ones = lanes // ((1 << 128) - 1)
    return b, ones, _OFFSETS & lanes, _MASK * ones, Struct("<" + "Q8x" * b).unpack


_PLANS = tuple(map(_plan, (8, 16, 32, 64)))


class SplitMix64:
    """Deterministic 64-bit generator that computes its outputs a block at a
    time; ``randint`` and ``choice`` read the current block."""

    __slots__ = ("_block", "_last", "_level")

    def __init__(self, seed: int):
        self._block = iter(())  # the outputs not yet drawn
        self._last = seed & _MASK  # the state after the block's last output
        self._level = 0  # the index in _PLANS of the next block

    @property
    def _state(self) -> int:
        """The state after the last output drawn, as in the scalar scheme."""
        return (self._last - length_hint(self._block) * _GAMMA) & _MASK

    def _refill(self) -> int:
        """Compute the next block and draw its first output."""
        s, level = self._last, self._level
        b, ones, offsets, low, unpack = _PLANS[level]
        self._last = (s + b * _GAMMA) & _MASK
        self._level = min(level + 1, len(_PLANS) - 1)
        # The high half of every lane is 0 before each shift, so masking the
        # low 64 bits of a lane leaves its own bits alone and drops those
        # shifted in from the next lane; after the last step only the low
        # half is read.
        z = (s * ones + offsets) & low
        z = ((z ^ ((z >> 30) & low)) * _MIX1) & low
        z = ((z ^ ((z >> 27) & low)) * _MIX2) & low
        z ^= z >> 31
        self._block = block = iter(unpack(z.to_bytes(16 * b, "little")))
        return next(block)

    def next_u64(self) -> int:
        return self.randint(0, _MASK)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi]; spans here are tiny."""
        u = next(self._block, None)
        if u is None:
            u = self._refill()
        return lo + u % (hi - lo + 1)

    def choice(self, seq):
        u = next(self._block, None)
        if u is None:
            u = self._refill()
        return seq[u % len(seq)]


def stream(root_seed: int, *path: int | str) -> SplitMix64:
    s = _finalize(root_seed & _MASK)
    for part in path:
        key = _fnv1a64(part) if isinstance(part, str) else part & _MASK
        s = _finalize((s ^ key) + _GAMMA & _MASK)
    return SplitMix64(s)


def rand_point(rng: SplitMix64, n: int) -> tuple[Fraction, ...]:
    SquareMatrix._check_dim(n)
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))


def rand_matrix(rng: SplitMix64, n: int) -> SquareMatrix:
    SquareMatrix._check_dim(n)
    return SquareMatrix._of(
        ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], 1))


def rand_invertible(rng: SplitMix64, n: int) -> SquareMatrix:
    while True:
        m = rand_matrix(rng, n)
        if det(m) != 0:
            return m


def rand_bilinear(rng: SplitMix64, n: int) -> Bilinear:
    Bilinear._check_dim(n)
    # numerator, then denominator in {1, 2}, scaled to the denominator 2
    return Bilinear._of(([[rng.randint(-4, 4) * (2 // rng.choice((1, 2)))
                           for _ in range(n * n)] for _ in range(n)], 2))


def rand_symmetric(rng: SplitMix64, n: int) -> Bilinear:
    return sym_part(rand_bilinear(rng, n))


def rand_skew(rng: SplitMix64, n: int) -> Bilinear:
    return skew_part(rand_bilinear(rng, n))


def rand_nonzero_skew(rng: SplitMix64, n: int) -> Bilinear | None:
    """A nonzero skew map, or None when none exists (n = 1)."""
    if n == 1:
        return None
    while True:
        h = rand_skew(rng, n)
        if not h.is_zero():
            return h


def rand_nonzero_symmetric(rng: SplitMix64, n: int) -> Bilinear:
    while True:
        s = rand_symmetric(rng, n)
        if not s.is_zero():
            return s


# ---------------------------------------------------------------------------
# typed elements, frames and jets


def rand_tilde2(rng: SplitMix64, n: int) -> GTilde2:
    return GTilde2._trusted(rand_invertible(rng, n), rand_invertible(rng, n),
                            rand_bilinear(rng, n))


def rand_hat2(rng: SplitMix64, n: int) -> GHat2:
    return GHat2._trusted(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_g2(rng: SplitMix64, n: int) -> G2:
    return G2._trusted(rand_invertible(rng, n), rand_symmetric(rng, n))


def rand_tilde21(rng: SplitMix64, n: int) -> GTilde21:
    return GTilde21._trusted(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_tilde22(rng: SplitMix64, n: int) -> GTilde22:
    return GTilde22._trusted(rand_invertible(rng, n), rand_skew(rng, n))


def rand_t1n(rng: SplitMix64, n: int) -> T1nL1n:
    return T1nL1n._trusted(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_quot_class(rng: SplitMix64, n: int) -> QuotClassHat:
    return QuotClassHat.of(rand_hat2(rng, n))


def rand_nonhol(rng: SplitMix64, n: int) -> NonHolFrame:
    return NonHolFrame._trusted(rand_point(rng, n), rand_invertible(rng, n),
                                rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_semihol(rng: SplitMix64, n: int) -> SemiHolFrame:
    return SemiHolFrame._trusted(rand_point(rng, n), rand_invertible(rng, n),
                                 rand_bilinear(rng, n))


def rand_hol(rng: SplitMix64, n: int) -> HolFrame:
    return HolFrame._trusted(rand_point(rng, n), rand_invertible(rng, n),
                             rand_symmetric(rng, n))


def rand_map2jet(rng: SplitMix64, n: int, base=None, value=None) -> Map2Jet:
    """A 2-jet with invertible Jacobian, usable as a local diffeo germ."""
    if base is None:
        base = rand_point(rng, n)
    if value is None:
        value = rand_point(rng, n)
    return Map2Jet(base, value, rand_invertible(rng, n), rand_symmetric(rng, n))

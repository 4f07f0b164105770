"""Deterministic random generation of elements, frames and jets.

The generator is SplitMix64: a 64-bit counter-based scheme whose whole state
is one integer, advanced by the golden-gamma constant and finalized with two
xor-multiply rounds.  It is implemented here in pure integer arithmetic, so
identical (seed, path) inputs give identical streams on every platform.

Streams for independent work items are derived, never shared:
``stream(root_seed, *path)`` hashes the path integers (e.g. dimension and
trial index) into the root seed one at a time with the same finalizer.
String path components are hashed with FNV-1a, which is also stable.

Sampling ranges follow one convention everywhere: matrix entries are integers
in [-3, 3] (resampled until the determinant is nonzero when invertibility is
required) and bilinear coefficients have numerator in [-4, 4] and denominator
in {1, 2}.  Small exact values keep products readable and fast.
"""

from __future__ import annotations

from fractions import Fraction

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


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


class SplitMix64:
    """Deterministic 64-bit generator; tiny state, cheap to fork."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _finalize(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi]; spans here are tiny."""
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def stream(root_seed: int, *path: int | str) -> SplitMix64:
    s = _finalize(root_seed & _MASK)
    for part in path:
        key = _fnv1a64(part) if isinstance(part, str) else part & _MASK
        s = _finalize((s ^ key) + _GAMMA & _MASK)
    return SplitMix64(s)


def rand_point(rng: SplitMix64, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))


def rand_matrix(rng: SplitMix64, n: int) -> SquareMatrix:
    return SquareMatrix._of(
        ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], 1))


def rand_invertible(rng: SplitMix64, n: int) -> SquareMatrix:
    while True:
        m = rand_matrix(rng, n)
        if det(m) != 0:
            return m


def rand_bilinear(rng: SplitMix64, n: int) -> Bilinear:
    # numerator, then denominator in {1, 2}, scaled to the denominator 2
    return Bilinear._of(([[[rng.randint(-4, 4) * (2 // rng.choice((1, 2)))
                            for _ in range(n)] for _ in range(n)]
                          for _ in range(n)], 2))


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
    return GTilde2._generated(rand_invertible(rng, n), rand_invertible(rng, n),
                              rand_bilinear(rng, n))


def rand_hat2(rng: SplitMix64, n: int) -> GHat2:
    return GHat2._generated(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_g2(rng: SplitMix64, n: int) -> G2:
    return G2._generated(rand_invertible(rng, n), rand_symmetric(rng, n))


def rand_tilde21(rng: SplitMix64, n: int) -> GTilde21:
    return GTilde21._generated(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_tilde22(rng: SplitMix64, n: int) -> GTilde22:
    return GTilde22._generated(rand_invertible(rng, n), rand_skew(rng, n))


def rand_t1n(rng: SplitMix64, n: int) -> T1nL1n:
    return T1nL1n._generated(rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_quot_class(rng: SplitMix64, n: int) -> QuotClassHat:
    return QuotClassHat.of(rand_hat2(rng, n))


def rand_nonhol(rng: SplitMix64, n: int) -> NonHolFrame:
    return NonHolFrame._generated(rand_point(rng, n), rand_invertible(rng, n),
                                  rand_invertible(rng, n), rand_bilinear(rng, n))


def rand_semihol(rng: SplitMix64, n: int) -> SemiHolFrame:
    return SemiHolFrame._generated(rand_point(rng, n), rand_invertible(rng, n),
                                   rand_bilinear(rng, n))


def rand_hol(rng: SplitMix64, n: int) -> HolFrame:
    return HolFrame._generated(rand_point(rng, n), rand_invertible(rng, n),
                               rand_symmetric(rng, n))


def rand_map2jet(rng: SplitMix64, n: int, base=None, value=None) -> Map2Jet:
    """A 2-jet with invertible Jacobian, usable as a local diffeo germ."""
    if base is None:
        base = rand_point(rng, n)
    if value is None:
        value = rand_point(rng, n)
    return Map2Jet(base, value, rand_invertible(rng, n), rand_symmetric(rng, n))

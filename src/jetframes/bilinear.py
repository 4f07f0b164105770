"""Bilinear maps R^n x R^n -> R^n with exact rational coefficients.

Index convention, used verbatim by every module in this package:

    f(E_i, E_j) = sum_k coeffs[k][i][j] E_k

so ``coeffs[k][i][j]`` has value index ``k`` first, then the two argument
indices ``(i, j)``.  A map is symmetric when ``coeffs[k][i][j] ==
coeffs[k][j][i]`` for all indices, skew when the swap negates, and every map
splits exactly into ``sym_part + skew_part`` (division by 2 is exact here).

Composition with matrices comes in two flavours:

* ``post_compose(a, f)`` is ``a o f``: apply ``a`` to the value slot.
* ``pre_compose(f, a, b)`` is ``f(a, b)``: feed the first argument through
  ``a`` and the second through ``b``.

Storage is the canonical scaled form of ``matrices``: coefficient
``coeffs[k][i][j]`` is ``ints[k][i*n + j]`` over ``den`` (n planes, each
row-major), den > 0, gcd(all ints, den) = 1.  ``Bilinear(n, coeffs)``
converts rationals once; compositions and parts run on the stored ints
(``_scaled`` kernels) and build their result with the private ``_of``;
``coeffs`` is the ``Fraction`` view, built on first access and kept.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Iterable

from . import _scaled as sc
from .matrices import Scaled, SquareMatrix, value_type


@value_type
class Bilinear(Scaled):
    """A bilinear map R^n x R^n -> R^n, stored as ``ints`` over ``den``."""

    n: int
    ints: tuple[tuple[int, ...], ...]
    den: int
    _rank = 3
    _misshapen = "coeffs must form an {n}^3 array"
    _scale = staticmethod(sc.sbil)

    @property
    def coeffs(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._fractions(sc.bil_coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "Bilinear":
        data = tuple(tuple(tuple(Fraction(e) for e in row) for row in plane)
                     for plane in coeffs)
        return cls(len(data), data)

    @classmethod
    def single(cls, n: int, k: int, i: int, j: int, value=1) -> "Bilinear":
        """Map with one nonzero coefficient; handy in tests and examples."""
        cls._check_dim(n)
        if not all(0 <= index < n for index in (k, i, j)):
            raise ValueError(f"indices must lie in 0..{n - 1}")
        val = Fraction(value)
        return cls._of(([[val.numerator if (kk, m) == (k, i * n + j) else 0
                          for m in range(n * n)] for kk in range(n)],
                        val.denominator))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __add__(self, other: "Bilinear") -> "Bilinear":
        return Bilinear._of(sc.s_add(self.scaled, other.scaled))

    def __sub__(self, other: "Bilinear") -> "Bilinear":
        return Bilinear._of(sc.s_law((1, None, self.scaled, None, None),
                                     (-1, None, other.scaled, None, None)))

    def __neg__(self) -> "Bilinear":
        return Bilinear._of(sc.s_neg(self.scaled))


def transpose(f: Bilinear) -> Bilinear:
    """Swap the two argument slots: result[k][i][j] = f[k][j][i]."""
    return Bilinear._of(([sc.swapped(plane, f.n) for plane in f.ints], f.den))


def sym_part(f: Bilinear) -> Bilinear:
    return Bilinear._of(sc.s_sym(f.scaled))


def skew_part(f: Bilinear) -> Bilinear:
    return Bilinear._of(sc.s_skew(f.scaled))


def is_symmetric(f: Bilinear) -> bool:
    n = f.n
    return all(plane[i * n:i * n + n] == plane[i::n]
               for plane in f.ints for i in range(n))


def is_skew(f: Bilinear) -> bool:
    n = f.n
    return all(plane[i * n:i * n + n] == tuple(map(neg, plane[i::n]))
               for plane in f.ints for i in range(n))


def post_compose(a: SquareMatrix, f: Bilinear) -> Bilinear:
    """a o f: result[l][i][j] = sum_k a[l][k] * f[k][i][j]."""
    return Bilinear._of(sc.s_post(a.scaled, f.scaled))


def pre_compose(f: Bilinear, a: SquareMatrix, b: SquareMatrix) -> Bilinear:
    """f(a, b): result[k][i][j] = sum_{p,q} f[k][p][q] * a[p][i] * b[q][j]."""
    return Bilinear._of(sc.s_pre(f.scaled, a.scaled, b.scaled))

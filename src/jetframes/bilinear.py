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

Storage is the canonical scaled form of ``matrices``: ``ints[k][i][j]``
over ``den``, den > 0, gcd(all ints, den) = 1.  ``Bilinear(n, coeffs)``
converts rationals once; compositions and parts run on the stored ints
(``_scaled`` kernels) and build their result with the private ``_of``;
``coeffs`` is the ``Fraction`` view, built on first access and kept.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import _scaled as sc
from .matrices import Scaled, SquareMatrix, same_n, value_type


@value_type
class Bilinear(Scaled):
    """A bilinear map R^n x R^n -> R^n, stored as ``ints`` over ``den``."""

    n: int
    ints: tuple[tuple[tuple[int, ...], ...], ...]
    den: int
    _reduce = staticmethod(sc.reduce_bil)

    def __init__(self, n: int, coeffs: Sequence[Sequence[Sequence[Fraction]]]) -> None:
        self._check_dim(n)
        if len(coeffs) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in coeffs
        ):
            raise ValueError(f"coeffs must form an {n}^3 array")
        # reduced fractions scale to a canonical form already
        ints, den = sc.sbil(coeffs)
        self._set(n, tuple(tuple(map(tuple, plane)) for plane in ints), den)

    @property
    def coeffs(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._fractions(sc.bil_coeffs)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "Bilinear":
        data = tuple(tuple(tuple(Fraction(e) for e in row) for row in plane)
                     for plane in coeffs)
        return cls(len(data), data)

    @classmethod
    def zero(cls, n: int) -> "Bilinear":
        cls._check_dim(n)
        return cls._of(([[[0] * n for _ in range(n)] for _ in range(n)], 1))

    @classmethod
    def single(cls, n: int, k: int, i: int, j: int, value=1) -> "Bilinear":
        """Map with one nonzero coefficient; handy in tests and examples."""
        cls._check_dim(n)
        val = Fraction(value)
        return cls._of(([[[val.numerator if (kk, ii, jj) == (k, i, j) else 0
                           for jj in range(n)] for ii in range(n)]
                         for kk in range(n)], val.denominator))

    def is_zero(self) -> bool:
        return not any(any(map(any, plane)) for plane in self.ints)

    def __add__(self, other: "Bilinear") -> "Bilinear":
        same_n(self, other)
        return Bilinear._of(sc.s_add(self.scaled, other.scaled))

    def __sub__(self, other: "Bilinear") -> "Bilinear":
        same_n(self, other)
        return Bilinear._of(sc.s_law((1, None, self.scaled, None, None),
                                     (-1, None, other.scaled, None, None)))

    def __neg__(self) -> "Bilinear":
        return Bilinear._of(sc.s_neg(self.scaled))


def transpose(f: Bilinear) -> Bilinear:
    """Swap the two argument slots: result[k][i][j] = f[k][j][i]."""
    return Bilinear._of(([list(zip(*plane)) for plane in f.ints], f.den))


def sym_part(f: Bilinear) -> Bilinear:
    return Bilinear._of(sc.s_sym(f.scaled))


def skew_part(f: Bilinear) -> Bilinear:
    return Bilinear._of(sc.s_skew(f.scaled))


def is_symmetric(f: Bilinear) -> bool:
    return all(plane == tuple(zip(*plane)) for plane in f.ints)


def is_skew(f: Bilinear) -> bool:
    return all(x == -y for plane in f.ints
               for row, col in zip(plane, zip(*plane)) for x, y in zip(row, col))


def post_compose(a: SquareMatrix, f: Bilinear) -> Bilinear:
    """a o f: result[l][i][j] = sum_k a[l][k] * f[k][i][j]."""
    same_n(a, f)
    return Bilinear._of(sc.s_post(a.scaled, f.scaled))


def pre_compose(f: Bilinear, a: SquareMatrix, b: SquareMatrix) -> Bilinear:
    """f(a, b): result[k][i][j] = sum_{p,q} f[k][p][q] * a[p][i] * b[q][j]."""
    same_n(f, a, b)
    return Bilinear._of(sc.s_pre(f.scaled, a.scaled, b.scaled))

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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import _scaled as sc
from .matrices import SquareMatrix

_FR_ZERO = Fraction(0)


@dataclass(frozen=True, slots=True)
class Bilinear:
    n: int
    coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.coeffs) != self.n or any(
            len(plane) != self.n or any(len(row) != self.n for row in plane)
            for plane in self.coeffs
        ):
            raise ValueError(f"coeffs must form an {self.n}^3 array")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "Bilinear":
        data = tuple(tuple(tuple(Fraction(e) for e in row) for row in plane)
                     for plane in coeffs)
        return cls(len(data), data)

    @classmethod
    def zero(cls, n: int) -> "Bilinear":
        return cls(n, tuple(tuple((_FR_ZERO,) * n for _ in range(n)) for _ in range(n)))

    @classmethod
    def single(cls, n: int, k: int, i: int, j: int, value=1) -> "Bilinear":
        """Map with one nonzero coefficient; handy in tests and examples."""
        val = Fraction(value)
        return cls(n, tuple(
            tuple(tuple(val if (kk, ii, jj) == (k, i, j) else _FR_ZERO
                        for jj in range(n)) for ii in range(n))
            for kk in range(n)))

    def is_zero(self) -> bool:
        return all(e == 0 for plane in self.coeffs for row in plane for e in row)

    def _entrywise(self, other: "Bilinear", op) -> "Bilinear":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Bilinear(self.n, tuple(
            tuple(tuple(op(x, y) for x, y in zip(r1, r2))
                  for r1, r2 in zip(p1, p2))
            for p1, p2 in zip(self.coeffs, other.coeffs)))

    def __add__(self, other: "Bilinear") -> "Bilinear":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Bilinear") -> "Bilinear":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "Bilinear":
        return Bilinear(self.n, tuple(
            tuple(tuple(-x for x in row) for row in plane) for plane in self.coeffs))


def transpose(f: Bilinear) -> Bilinear:
    """Swap the two argument slots: result[k][i][j] = f[k][j][i]."""
    n = f.n
    c = f.coeffs
    return Bilinear(n, tuple(
        tuple(tuple(c[k][j][i] for j in range(n)) for i in range(n))
        for k in range(n)))


def sym_part(f: Bilinear) -> Bilinear:
    return Bilinear(f.n, sc.bil_coeffs(sc.s_sym(sc.sbil(f.coeffs))))


def skew_part(f: Bilinear) -> Bilinear:
    return Bilinear(f.n, sc.bil_coeffs(sc.s_skew(sc.sbil(f.coeffs))))


def is_symmetric(f: Bilinear) -> bool:
    c = f.coeffs
    n = f.n
    return all(c[k][i][j] == c[k][j][i]
               for k in range(n) for i in range(n) for j in range(i + 1, n))


def is_skew(f: Bilinear) -> bool:
    c = f.coeffs
    n = f.n
    return all(c[k][i][j] == -c[k][j][i]
               for k in range(n) for i in range(n) for j in range(i, n))


def post_compose(a: SquareMatrix, f: Bilinear) -> Bilinear:
    """a o f: result[l][i][j] = sum_k a[l][k] * f[k][i][j]."""
    if a.n != f.n:
        raise ValueError("dimension mismatch")
    out = sc.s_post(sc.smat(a.entries), sc.sbil(f.coeffs))
    return Bilinear(f.n, sc.bil_coeffs(out))


def pre_compose(f: Bilinear, a: SquareMatrix, b: SquareMatrix) -> Bilinear:
    """f(a, b): result[k][i][j] = sum_{p,q} f[k][p][q] * a[p][i] * b[q][j]."""
    if not (f.n == a.n == b.n):
        raise ValueError("dimension mismatch")
    out = sc.s_pre(sc.sbil(f.coeffs), sc.smat(a.entries), sc.smat(b.entries))
    return Bilinear(f.n, sc.bil_coeffs(out))

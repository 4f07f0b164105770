"""Exact square matrices over the rationals.

Entry convention: ``entries[j][i]`` is the coefficient of ``E_j`` in the image
of the basis vector ``E_i``, so rows index values and columns index arguments
and matrix-vector action is the usual ``(a v)^j = sum_i entries[j][i] v^i``.

Multiplication, determinant and inversion are exact; they clear denominators
and work in plain integers (see ``_scaled``), so no rounding happens anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import _scaled as sc
from .errors import SingularMatrixError

_FR_ZERO = Fraction(0)
_FR_ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class SquareMatrix:
    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError(f"entries must form an {self.n}x{self.n} array")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SquareMatrix":
        ent = tuple(tuple(Fraction(e) for e in row) for row in rows)
        return cls(len(ent), ent)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(n, tuple(tuple(_FR_ONE if i == j else _FR_ZERO for i in range(n))
                            for j in range(n)))

    @classmethod
    def zero(cls, n: int) -> "SquareMatrix":
        return cls(n, tuple((_FR_ZERO,) * n for _ in range(n)))

    def is_identity(self) -> bool:
        return all(e == (1 if i == j else 0)
                   for j, row in enumerate(self.entries) for i, e in enumerate(row))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        return mat_mul(self, other)


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    product = sc.s_matmul(sc.smat(a.entries), sc.smat(b.entries))
    return SquareMatrix(a.n, sc.mat_entries(product))


def det(a: SquareMatrix) -> Fraction:
    return sc.s_det(sc.smat(a.entries))


def mat_inv(a: SquareMatrix) -> SquareMatrix:
    """Exact inverse (fraction-free Bareiss Gauss-Jordan over cleared
    denominators, O(n^3)).

    Raises ``SingularMatrixError`` when the determinant vanishes.
    """
    inverse = sc.s_matinv(sc.smat(a.entries))
    return SquareMatrix(a.n, sc.mat_entries(inverse))


def is_invertible(a: SquareMatrix) -> bool:
    return det(a) != 0


def require_invertible(a: SquareMatrix, what: str) -> None:
    """Raise ``SingularMatrixError`` naming ``what`` when ``a`` is singular."""
    if det(a) == 0:
        raise SingularMatrixError(f"{what} must be invertible")

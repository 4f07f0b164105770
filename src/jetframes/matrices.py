"""Exact square matrices over the rationals.

Entry convention: ``entries[j][i]`` is the coefficient of ``E_j`` in the image
of the basis vector ``E_i``, so rows index values and columns index arguments
and matrix-vector action is the usual ``(a v)^j = sum_i entries[j][i] v^i``.

A matrix is stored in canonical scaled form: integers ``ints`` (nested
tuples) and a denominator ``den`` with den > 0 and gcd(all ints, den) = 1,
so the value is ints/den entrywise.  The form is unique, so equality and
hashing compare the stored ints.  ``SquareMatrix(n, entries)`` converts
rationals into this form once; operations hand ``scaled`` to the integer
kernels of ``_scaled`` and build their result with the private ``_of``,
which only reduces by the common gcd.  ``entries`` is the ``Fraction`` view,
built on first access and then kept (documents and the plain-fraction
cross-checks read it; values whose view is never read never hold one).

``Checked`` is the base of the element and frame types: the one check of
their invariants, and a trusted builder for results that satisfy them by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _scaled as sc
from .errors import SingularMatrixError


class Scaled:
    """The storage shared by ``SquareMatrix`` and ``Bilinear``.

    A subclass is a frozen dataclass with the fields ``n``, ``ints``, ``den``
    and the cache ``_view``, and names the ``_scaled`` function that reduces
    its kernel output to canonical form in ``_reduce``.
    """

    __slots__ = ()
    _reduce: Callable

    @staticmethod
    def _check_dim(n: int) -> None:
        if n < 1:
            raise ValueError("dimension must be >= 1")

    def _set(self, n: int, ints, den: int) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_view", None)

    @classmethod
    def _of(cls, s):
        """The value of kernel output ``(ints, den)``, den > 0, reduced to
        canonical form; the shape is the kernel's, so it is not checked."""
        ints, den = cls._reduce(s)
        obj = object.__new__(cls)
        obj._set(len(ints), ints, den)
        return obj

    @property
    def scaled(self):
        """The stored ``(ints, den)``, as the kernels take it."""
        return self.ints, self.den

    def _fractions(self, convert):
        """The ``Fraction`` view, built by ``convert`` on first access."""
        if self._view is None:
            object.__setattr__(self, "_view", convert(self.scaled))
        return self._view


@dataclass(frozen=True, slots=True, init=False)
class SquareMatrix(Scaled):
    n: int
    ints: tuple[tuple[int, ...], ...]
    den: int
    _view: tuple | None = field(default=None, repr=False, compare=False)
    _reduce = staticmethod(sc.reduce_mat)

    def __init__(self, n: int, entries: Sequence[Sequence[Fraction]]) -> None:
        self._check_dim(n)
        if len(entries) != n or any(len(r) != n for r in entries):
            raise ValueError(f"entries must form an {n}x{n} array")
        # reduced fractions scale to a canonical form already
        ints, den = sc.smat(entries)
        self._set(n, tuple(map(tuple, ints)), den)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._fractions(sc.mat_entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "SquareMatrix":
        ent = tuple(tuple(Fraction(e) for e in row) for row in rows)
        return cls(len(ent), ent)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        cls._check_dim(n)
        return cls._of(([[int(i == j) for i in range(n)] for j in range(n)], 1))

    @classmethod
    def zero(cls, n: int) -> "SquareMatrix":
        cls._check_dim(n)
        return cls._of(([[0] * n for _ in range(n)], 1))

    def is_identity(self) -> bool:
        return self.den == 1 and all(
            e == (i == j) for j, row in enumerate(self.ints) for i, e in enumerate(row))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        return mat_mul(self, other)


def same_n(*values: Scaled) -> int:
    """The dimension shared by ``values``; ``ValueError`` when they differ.

    The kernels take the shape of their operands and ``_of`` does not check
    it, so every operation that combines values calls this first.
    """
    n = values[0].n
    if any(v.n != n for v in values):
        raise ValueError("dimension mismatch: "
                         + " vs ".join(str(v.n) for v in values))
    return n


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    same_n(a, b)
    return SquareMatrix._of(sc.s_matmul(a.scaled, b.scaled))


def det(a: SquareMatrix) -> Fraction:
    return sc.s_det(a.scaled)


def mat_inv(a: SquareMatrix) -> SquareMatrix:
    """Exact inverse (fraction-free Bareiss Gauss-Jordan on the stored ints,
    O(n^3)).

    Raises ``SingularMatrixError`` when the determinant vanishes.
    """
    return SquareMatrix._of(sc.s_matinv(a.scaled))


def is_invertible(a: SquareMatrix) -> bool:
    return det(a) != 0


def require_invertible(a: SquareMatrix, what: str) -> None:
    """Raise ``SingularMatrixError`` naming ``what`` when ``a`` is singular."""
    if det(a) == 0:
        raise SingularMatrixError(f"{what} must be invertible")


class Checked:
    """Base of the element and frame types, and the one check of their data.

    A subclass is a frozen dataclass whose fields are its parts in order: a
    frame's base point, one or two matrices, then a bilinear map (none in a
    linear frame).  The constructor (``__post_init__``) checks, in this
    order: every part has the dimension of the first matrix (a base point by
    its length), every matrix is invertible, and the last part satisfies the
    predicate of ``_symmetric`` where a type declares it with its message
    (``bilinear`` imports this module, so this module cannot import
    ``is_symmetric``).

    Results of a law, an inverse or a projection satisfy these by
    construction (det is multiplicative, the laws are closed) and are built
    with ``_trusted``, which skips the check; pointing ``_trusted`` at the
    constructor re-checks every such result.  The generators build with
    ``_generated``, which skips only the determinant of the matrices they
    have just drawn as invertible.
    """

    __slots__ = ()
    _symmetric: tuple[Callable[[object], bool], str] | None = None

    def __post_init__(self) -> None:
        self._check(invertible=True)

    @property
    def parts(self) -> tuple:
        """The fields in order: base point, matrix parts, bilinear part."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    @property
    def n(self) -> int:
        """The dimension of the first part that is not a base point."""
        first, second = self.parts[:2]
        return (second if isinstance(first, tuple) else first).n

    def _check(self, invertible: bool) -> None:
        """Raise when an invariant fails; compute det only if ``invertible``."""
        names, parts, n = self.__match_args__, self.parts, self.n
        for part in parts:
            if isinstance(part, tuple):
                if len(part) != n:
                    raise ValueError("base point has wrong dimension")
            elif part.n != n:
                raise ValueError("dimension mismatch between components")
        if invertible:
            for name, part in zip(names, parts):
                if isinstance(part, SquareMatrix):
                    require_invertible(part, f"matrix part {name}")
        if self._symmetric is not None and not self._symmetric[0](parts[-1]):
            raise ValueError(self._symmetric[1])

    @classmethod
    def _generated(cls, *parts):
        """An instance with fields ``parts`` whose matrix parts are known to
        be invertible: every check of the constructor but the determinant."""
        obj = cls._trusted(*parts)
        obj._check(invertible=False)
        return obj

    @classmethod
    def _trusted(cls, *parts):
        """An instance with fields ``parts``, in field order, unchecked."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__match_args__, parts):
            object.__setattr__(obj, name, value)
        return obj

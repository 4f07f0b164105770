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

``Value`` gives every value type of the package (the matrices, bilinear
maps, group elements, frames, jets and group tags) its value semantics, and
``Checked`` is the base of the element, frame and jet types: the one check
of their invariants, and a trusted builder for results that satisfy them by
construction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from . import _scaled as sc
from .errors import SingularMatrixError


class _DataclassFields:
    """``__dataclass_fields__`` of a value type, built on first access, so
    that only a caller of ``is_dataclass``, ``fields`` or ``replace`` imports
    ``dataclasses``.  Its decorator, with no method generated, caches the
    fields on the class; a base of the value types has none."""

    def __get__(self, obj, cls):
        if "_key" not in cls.__dict__:
            raise AttributeError("__dataclass_fields__")
        from dataclasses import dataclass
        dataclass(init=False, repr=False, eq=False, match_args=False)(cls)
        return cls.__dataclass_fields__


class Value:
    """An immutable value, keyed on the fields named in ``__match_args__``.

    Construction (by position or by name, as ``dataclasses.replace`` calls
    it), equality, hashing, ``repr`` and pickling all read those fields in
    order, and ``__post_init__`` checks the invariants after construction.
    A field cannot be assigned or deleted; private builders set fields with
    ``object.__setattr__``.  A subclass is declared with ``value_type``.
    """

    __slots__ = ()
    _key: Callable  # the fields as a tuple; set by ``value_type``
    __dataclass_fields__ = _DataclassFields()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):]
                          if name in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes the fields "
                            + ", ".join(names))
        self.__setstate__(args)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the invariants of the fields; none by default."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__) + ")"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return self._key(self)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


def value_type(cls: type) -> type:
    """Declare a ``Value`` subclass with at least two fields, its annotated
    names in order: the class is rebuilt with them as ``__slots__`` and
    ``__match_args__``, and ``Value`` writes its methods once."""
    names = tuple(cls.__annotations__)
    body = {key: value for key, value in cls.__dict__.items()
            if key not in ("__dict__", "__weakref__")}
    body.update(__slots__=names, __match_args__=names, _key=attrgetter(*names),
                __qualname__=cls.__qualname__)
    return type(cls)(cls.__name__, cls.__bases__, body)


class Scaled(Value):
    """The storage shared by ``SquareMatrix`` and ``Bilinear``.

    A subclass is a value type with the fields ``n``, ``ints`` and ``den``,
    and names the ``_scaled`` function that reduces its kernel output to
    canonical form in ``_reduce``.  The cache ``_view`` is a slot here, not a
    field, so it is not part of the value.
    """

    __slots__ = ("_view",)
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

    def __setstate__(self, state) -> None:
        self._set(*state)

    def __eq__(self, other):
        # faster than the generic key: the canonical form is unique, and
        # equal ints have one shape
        if other.__class__ is self.__class__:
            return self.ints == other.ints and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.ints, self.den))

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


@value_type
class SquareMatrix(Scaled):
    """An n x n rational matrix, stored as ``ints`` over ``den``."""

    n: int
    ints: tuple[tuple[int, ...], ...]
    den: int
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


class Checked(Value):
    """Base of the element, frame and jet types: the one check of their data.

    A subclass is a value type whose fields are its parts in order: base
    points, matrices, then a last part (a bilinear map, but none in a linear
    frame and an element in an extension class).  The constructor checks,
    in this order: every part has the dimension ``n`` of the first part that
    is not a base point (a base point by its length), every matrix is
    invertible unless the type declares ``_invertible = False``, and the
    last part satisfies the predicate of ``_rule`` where a type declares it
    with its message (``bilinear`` imports this module, so this module
    cannot import ``is_symmetric``).

    Results of a law, an inverse or a projection satisfy these by
    construction (det is multiplicative, the laws are closed) and are built
    with ``_trusted``, which skips the check; pointing ``_trusted`` at the
    constructor re-checks every such result.  The generators build with
    ``_generated``, which skips only the determinant of the matrices they
    have just drawn as invertible.
    """

    __slots__ = ()
    _invertible = True
    _rule: tuple[Callable[[object], bool], str] | None = None

    def __post_init__(self) -> None:
        self._check(invertible=self._invertible)

    @property
    def parts(self) -> tuple:
        """The fields in order: base points, matrix parts, last part."""
        return self._key(self)

    @property
    def n(self) -> int:
        """The dimension of the first part that is not a base point."""
        for part in self.parts:
            if not isinstance(part, tuple):
                return part.n

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
        if self._rule is not None and not self._rule[0](parts[-1]):
            raise ValueError(self._rule[1])

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

"""Exact square matrices over the rationals.

Entry convention: ``entries[j][i]`` is the coefficient of ``E_j`` in the image
of the basis vector ``E_i``, so rows index values and columns index arguments
and matrix-vector action is the usual ``(a v)^j = sum_i entries[j][i] v^i``.

A matrix is stored in canonical scaled form: integers ``ints`` (a tuple of
n row tuples) and a denominator ``den`` with den > 0 and gcd(all ints,
den) = 1, so the value is ints/den entrywise.  The form is unique, so
equality and hashing compare the stored ints.  Operations hand ``scaled`` to
the integer kernels of ``_scaled``, which check that their operands share n.
``entries`` is the ``Fraction`` view, built on first access and then kept.

``Value`` gives every value type of the package (the matrices, bilinear
maps, group elements, frames, jets and group tags) its value semantics, and
``Checked`` is the base of the element, frame and jet types: the one check
of their invariants.  Four builders make every value:

* ``Value.__init__``, the checked constructor: library callers, the reader
  of element, frame and jet documents, and the second routes;
* ``Scaled.__init__(n, array)``, a matrix or bilinear map from exact
  rationals, checked: library callers, ``from_rows`` and ``from_coeffs``;
* ``Value._trusted(*fields)``, unchecked: results of a law, an inverse or a
  projection, and the generators' draws;
* ``Scaled._of(s)``, kernel output reduced to canonical form: every
  operation on matrices and bilinear maps, and the document reader.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
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
    A field cannot be assigned or deleted: the builders set fields with
    ``__setstate__``, the one field loop (``_of`` sets its own).  A subclass
    is declared with ``value_type``.
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

    @classmethod
    def _trusted(cls, *fields):
        """An instance with ``fields``, in field order, unchecked."""
        obj = object.__new__(cls)
        obj.__setstate__(fields)
        return obj


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


def _require_exact(values: Iterable, what: str) -> None:
    if not all(map(isinstance, values, repeat((int, Fraction)))):
        raise TypeError(f"{what} must be exact rationals (int or Fraction)")


class Scaled(Value):
    """The storage shared by ``SquareMatrix`` and ``Bilinear``.

    A subclass is a value type with the fields ``n``, ``ints`` and ``den``,
    ``ints`` a tuple of n flat int tuples (rows, or row-major planes).  Its
    constructor takes arrays of rank ``_rank``, refuses a misshapen one with
    ``_misshapen`` and converts with ``_scale``.  The cache ``_view`` is a
    slot here, not a field, so it is not part of the value.
    """

    __slots__ = ("_view",)
    _rank: int
    _misshapen: str
    _scale: Callable

    def __init__(self, n: int, array: Sequence) -> None:
        rows = self._check_shape(n, array)
        _require_exact(chain.from_iterable(rows), f"{type(self).__name__} entries")
        # reduced fractions scale to a canonical form already
        ints, den = self._scale(array)
        self.__setstate__((n, tuple(map(tuple, ints)), den))

    @staticmethod
    def _check_dim(n: int) -> None:
        if n < 1:
            raise ValueError("dimension must be >= 1")

    @classmethod
    def _check_shape(cls, n: int, array) -> list:
        """The rows of ``array``, once it holds n entries at each of its
        ``_rank`` levels (``ValueError`` if not): the one shape check of the
        constructor and of the document reader, which builds with ``_of``."""
        cls._check_dim(n)
        level = [array]
        for depth in range(cls._rank):
            if depth:
                level = [e for a in level for e in a]
            if set(map(len, level)) != {n}:
                raise ValueError(cls._misshapen.format(n=n))
        return level

    def __setstate__(self, state) -> None:
        Value.__setstate__(self, state)
        object.__setattr__(self, "_view", None)

    @classmethod
    def _of(cls, s):
        """The value of kernel output ``(ints, den)``, den > 0, reduced to
        canonical form by ``_scaled.reduce``; its n is the number of rows of
        ``ints``, and the shape is the kernel's, so it is not checked."""
        ints, den = sc.reduce(s)
        # sets its slots itself: through ``_trusted`` the suites ran 2-4% slower
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", len(ints))
        object.__setattr__(obj, "ints", ints)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "_view", None)
        return obj

    @classmethod
    def zero(cls, n: int) -> "Scaled":
        cls._check_dim(n)
        return cls._of(([[0] * n ** (cls._rank - 1)] * n, 1))

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
    _rank = 2
    _misshapen = "entries must form an {n}x{n} array"
    _scale = staticmethod(sc.smat)

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

    def is_identity(self) -> bool:
        return self.den == 1 and all(
            e == (i == j) for j, row in enumerate(self.ints) for i, e in enumerate(row))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        return mat_mul(self, other)


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    return SquareMatrix._of(sc.s_matmul(a.scaled, b.scaled))


def det(a: SquareMatrix) -> Fraction:
    return sc.s_det(a.scaled)


def mat_inv(a: SquareMatrix) -> SquareMatrix:
    """Exact inverse (fraction-free Bareiss Gauss-Jordan on the stored ints,
    O(n^3)).

    Raises ``SingularMatrixError`` when the determinant vanishes.
    """
    return SquareMatrix._of(sc.s_matinv(a.scaled))


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
    is not a base point (a base point by its length, and its coordinates are
    exact), every matrix is invertible unless the type declares
    ``_invertible = False``, and the last part satisfies the predicate of
    ``_rule`` where a type declares it with its message (``bilinear``
    imports this module, so this module cannot import ``is_symmetric``).

    A build checks whatever it takes that is not already a checked value:
    the public constructors (hence the parsers), the builds from a caller's
    base point and the outputs of the second routes check.  Results of a
    law, an inverse or a projection hold the invariants by construction (det
    is multiplicative, the laws are closed), and so do the generators' draws
    (``rand_invertible`` has taken det, symmetric and skew parts are made
    so, every part is drawn at one n); both are built with ``_trusted``,
    which skips the check.  Pointing ``_trusted`` at the constructor
    re-checks every such result.
    """

    __slots__ = ()
    _invertible = True
    _rule: tuple[Callable[[object], bool], str] | None = None

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

    def __post_init__(self) -> None:
        """Raise when an invariant fails."""
        names, parts, n = self.__match_args__, self.parts, self.n
        for part in parts:
            if isinstance(part, tuple):
                if len(part) != n:
                    raise ValueError("base point has wrong dimension")
                _require_exact(part, "base point coordinates")
            elif part.n != n:
                raise ValueError("dimension mismatch between components")
        if self._invertible:
            for name, part in zip(names, parts):
                if isinstance(part, SquareMatrix):
                    require_invertible(part, f"matrix part {name}")
        if self._rule is not None and not self._rule[0](parts[-1]):
            raise ValueError(self._rule[1])

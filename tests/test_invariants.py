"""The invariant check of every element and frame type, slot by slot.

Each type is a base point (frames only), invertible matrices and a bilinear
map, all of one dimension; some types also need a symmetric bilinear part.
For every slot of every type, a value that breaks one rule must be refused
with the error of that rule, and ``_generated`` must skip the determinant
alone.
"""

from fractions import Fraction

import pytest

from jetframes import frames as fr
from jetframes import groups as G
from jetframes.bilinear import Bilinear
from jetframes.errors import SingularMatrixError
from jetframes.matrices import SquareMatrix

N = 2
LOPSIDED = Bilinear.single(N, 0, 0, 1)  # f(E_0, E_1) = E_0: not symmetric

# The slots of each type in field order: x a base point, m a matrix, f a
# bilinear map; ``True`` when the bilinear part must be symmetric.
TYPES = {
    G.GTilde2: ("mmf", False),
    G.GHat2: ("mf", False),
    G.G2: ("mf", True),
    G.GTilde21: ("mf", False),
    G.GTilde22: ("mf", False),
    G.T1nL1n: ("mf", False),
    G.QuotClassHat: ("mf", True),
    fr.NonHolFrame: ("xmmf", False),
    fr.SemiHolFrame: ("xmf", False),
    fr.HolFrame: ("xmf", True),
    fr.LinFrame: ("xm", False),
}

SLOTS = [(cls, i) for cls, (kinds, _) in TYPES.items() for i in range(len(kinds))]
MATRIX_SLOTS = [(cls, i) for cls, i in SLOTS if TYPES[cls][0][i] == "m"]
BILINEAR_TYPES = [cls for cls, (kinds, _) in TYPES.items() if kinds[-1] == "f"]


def _ids(slots):
    return [f"{cls.__name__}-{TYPES[cls][0][i]}{i}" for cls, i in slots]


def _valid(cls) -> list:
    kinds, symmetric = TYPES[cls]
    good = {
        "x": (Fraction(1), Fraction(-2, 3)),
        "m": SquareMatrix.from_rows([[2, 1], [1, 1]]),
        "f": Bilinear.single(N, 1, 0, 0, 5) if symmetric else LOPSIDED,
    }
    return [good[k] for k in kinds]


def _with(cls, slot, value) -> list:
    fields = _valid(cls)
    fields[slot] = value
    return fields


def _wrong_dimension(kind):
    return {"x": (Fraction(0),),
            "m": SquareMatrix.identity(N + 1),
            "f": Bilinear.zero(N + 1)}[kind]


@pytest.mark.parametrize("cls", TYPES, ids=[c.__name__ for c in TYPES])
def test_valid_fields_build_the_same_value_every_way(cls):
    fields = _valid(cls)
    built = cls(*fields)
    assert built == cls._trusted(*fields) == cls._generated(*fields)
    assert built.n == N


@pytest.mark.parametrize("cls, slot", MATRIX_SLOTS, ids=_ids(MATRIX_SLOTS))
def test_singular_matrix_is_refused(cls, slot):
    fields = _with(cls, slot, SquareMatrix.zero(N))
    with pytest.raises(SingularMatrixError, match="invertible"):
        cls(*fields)
    # the generators have checked det themselves; every other check stays
    assert cls._generated(*fields) == cls._trusted(*fields)


@pytest.mark.parametrize("cls, slot", SLOTS, ids=_ids(SLOTS))
def test_part_of_another_dimension_is_refused(cls, slot):
    kind = TYPES[cls][0][slot]
    fields = _with(cls, slot, _wrong_dimension(kind))
    match = "base point" if kind == "x" else "dimension"
    for build in (cls, cls._generated):
        with pytest.raises(ValueError, match=match):
            build(*fields)


@pytest.mark.parametrize("cls, slot", MATRIX_SLOTS, ids=_ids(MATRIX_SLOTS))
def test_dimension_is_checked_before_the_determinant(cls, slot):
    """A singular matrix of another dimension is a dimension error: no
    determinant is taken of parts that do not fit together."""
    fields = _with(cls, slot, SquareMatrix.zero(N + 1))
    with pytest.raises(ValueError, match="dimension"):
        cls(*fields)


@pytest.mark.parametrize("cls", BILINEAR_TYPES, ids=[c.__name__ for c in BILINEAR_TYPES])
def test_symmetry_is_required_exactly_where_declared(cls):
    kinds, symmetric = TYPES[cls]
    fields = _with(cls, len(kinds) - 1, LOPSIDED)
    if not symmetric:
        assert getattr(cls(*fields), cls.__match_args__[-1]) == LOPSIDED
        return
    for build in (cls, cls._generated):
        with pytest.raises(ValueError, match="symmetric"):
            build(*fields)

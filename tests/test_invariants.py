"""The invariant check of every element, frame and jet type, slot by slot.

Each type is base points (frames and jets only), matrices and a bilinear
map, all of one dimension; the matrices must be invertible except in a jet,
and some types also need a symmetric bilinear part.  For every slot of
every type, a value that breaks one rule must be refused with the error of
that rule.  An extension class, whose parts are a frame and an element, has
cases of its own, and every value type but the storage, tag and suite types
must be checked by the one rule of ``matrices.Checked``.
"""

from fractions import Fraction

import pytest

from jetframes import frames as fr
from jetframes import groups as G
from jetframes import jets as J
from jetframes import suites
from jetframes.bilinear import Bilinear
from jetframes.errors import SingularMatrixError
from jetframes.matrices import Checked, SquareMatrix
from test_startup import VALUE_TYPES

N = 2
LOPSIDED = Bilinear.single(N, 0, 0, 1)  # f(E_0, E_1) = E_0: not symmetric

# The slots of each type in field order: x a base point, m a matrix, f a
# bilinear map; whether the bilinear part must be symmetric, and whether the
# matrices may be singular.
TYPES = {
    G.GTilde2: ("mmf", False, False),
    G.GHat2: ("mf", False, False),
    G.G2: ("mf", True, False),
    G.GTilde21: ("mf", False, False),
    G.GTilde22: ("mf", False, False),
    G.T1nL1n: ("mf", False, False),
    G.QuotClassHat: ("mf", True, False),
    fr.NonHolFrame: ("xmmf", False, False),
    fr.SemiHolFrame: ("xmf", False, False),
    fr.HolFrame: ("xmf", True, False),
    fr.LinFrame: ("xm", False, False),
    J.Map2Jet: ("xxmf", True, True),
    J.FMJetData: ("xmmf", False, True),
}

SLOTS = [(cls, i) for cls, (kinds, *_) in TYPES.items() for i in range(len(kinds))]
MATRIX_SLOTS = [(cls, i) for cls, i in SLOTS if TYPES[cls][0][i] == "m"]
INVERTIBLE_SLOTS = [(cls, i) for cls, i in MATRIX_SLOTS if not TYPES[cls][2]]
SINGULAR_SLOTS = [(cls, i) for cls, i in MATRIX_SLOTS if TYPES[cls][2]]
BILINEAR_TYPES = [cls for cls, (kinds, *_) in TYPES.items() if kinds[-1] == "f"]


def _ids(slots):
    return [f"{cls.__name__}-{TYPES[cls][0][i]}{i}" for cls, i in slots]


def _valid(cls) -> list:
    kinds, symmetric, _ = TYPES[cls]
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
    assert built == cls._trusted(*fields)
    assert built.n == N


@pytest.mark.parametrize("cls, slot", INVERTIBLE_SLOTS, ids=_ids(INVERTIBLE_SLOTS))
def test_singular_matrix_is_refused(cls, slot):
    fields = _with(cls, slot, SquareMatrix.zero(N))
    with pytest.raises(SingularMatrixError, match="invertible"):
        cls(*fields)


@pytest.mark.parametrize("cls, slot", SINGULAR_SLOTS, ids=_ids(SINGULAR_SLOTS))
def test_singular_matrix_of_a_jet_is_accepted(cls, slot):
    """A jet's matrices may be singular: the operations that need them
    invertible (``left_act_diffeo``, ``frame_from_fm_map``) refuse them."""
    fields = _with(cls, slot, SquareMatrix.zero(N))
    assert cls(*fields) == cls._trusted(*fields)


@pytest.mark.parametrize("cls, slot", SLOTS, ids=_ids(SLOTS))
def test_part_of_another_dimension_is_refused(cls, slot):
    kind = TYPES[cls][0][slot]
    fields = _with(cls, slot, _wrong_dimension(kind))
    match = "base point" if kind == "x" else "dimension"
    with pytest.raises(ValueError, match=match):
        cls(*fields)


@pytest.mark.parametrize("cls, slot", MATRIX_SLOTS, ids=_ids(MATRIX_SLOTS))
def test_dimension_is_checked_before_the_determinant(cls, slot):
    """A singular matrix of another dimension is a dimension error: no
    determinant is taken of parts that do not fit together."""
    fields = _with(cls, slot, SquareMatrix.zero(N + 1))
    with pytest.raises(ValueError, match="dimension"):
        cls(*fields)


@pytest.mark.parametrize("cls", BILINEAR_TYPES, ids=[c.__name__ for c in BILINEAR_TYPES])
def test_symmetry_is_required_exactly_where_declared(cls):
    kinds, symmetric, _ = TYPES[cls]
    fields = _with(cls, len(kinds) - 1, LOPSIDED)
    if not symmetric:
        assert getattr(cls(*fields), cls.__match_args__[-1]) == LOPSIDED
        return
    with pytest.raises(ValueError, match="symmetric"):
        cls(*fields)


# ---------------------------------------------------------------------------
# extension classes: a holonomic frame p and a canonical k = (I, h), h skew

EYE = SquareMatrix.identity(N)
SKEW = Bilinear.single(N, 0, 0, 1) - Bilinear.single(N, 0, 1, 0)


def _ext_fields(n=N, k=None):
    eye = SquareMatrix.identity(n)
    p = fr.HolFrame((Fraction(0),) * n, eye, Bilinear.zero(n))
    return p, k or G.GHat2(eye, Bilinear.zero(n))


def test_canonical_extension_class_builds_the_same_value_every_way():
    fields = _ext_fields(k=G.GHat2(EYE, SKEW))
    built = fr.ExtClass(*fields)
    assert built == fr.ExtClass._trusted(*fields)
    assert built.n == N


@pytest.mark.parametrize("k", [G.GHat2(SquareMatrix.from_rows([[2, 1], [1, 1]]), SKEW),
                               G.GHat2(EYE, LOPSIDED)], ids=["a-not-I", "h-not-skew"])
def test_non_canonical_extension_class_is_refused(k):
    with pytest.raises(ValueError, match=r"^canonical class needs k = \(I, h\) "
                                         r"with h skew; use ext_class\(\)$"):
        fr.ExtClass(*_ext_fields(k=k))


@pytest.mark.parametrize("slot", [0, 1], ids=["p", "k"])
def test_extension_class_part_of_another_dimension_is_refused(slot):
    fields = list(_ext_fields())
    fields[slot] = _ext_fields(N + 1)[slot]
    with pytest.raises(ValueError, match="dimension mismatch"):
        fr.ExtClass(*fields)


# ---------------------------------------------------------------------------
# one rule for every checked type

UNCHECKED = {SquareMatrix, Bilinear, G.Group, suites.Property,
             suites.PropertyResult, suites.Suite, suites.SuiteReport}


@pytest.mark.parametrize("cls", [c for c in VALUE_TYPES if c not in UNCHECKED],
                         ids=lambda cls: cls.__name__)
def test_every_value_type_is_checked_by_the_one_rule(cls):
    assert issubclass(cls, Checked)
    for name in ("__post_init__", "n"):
        assert name not in vars(cls), f"{cls.__name__} defines {name}"


def test_the_checked_types_are_found():
    assert {c for c in VALUE_TYPES if c not in UNCHECKED} == {*TYPES, fr.ExtClass}

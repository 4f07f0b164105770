from fractions import Fraction

import pytest

from exact_oracles import ref_det, ref_matmul
from jetframes import SingularMatrixError, SquareMatrix, det, mat_inv, mat_mul
from jetframes import frames as fr
from jetframes import jets as J
from jetframes.bilinear import Bilinear
from jetframes.matrices import Scaled, Value
from jetframes.randgen import rand_invertible, rand_matrix, stream
from test_startup import VALUE_TYPES


def test_identity_inverse():
    eye = SquareMatrix.identity(3)
    assert mat_inv(eye) == eye


def test_diagonal_inverse():
    d = SquareMatrix.from_rows([[2, 0], [0, 3]])
    assert mat_inv(d) == SquareMatrix.from_rows(
        [[Fraction(1, 2), 0], [0, Fraction(1, 3)]])


def test_random_inverse_multiplies_back():
    # small determinants keep the entries readable; the oracle is the
    # multiply-back itself
    for n in (1, 2, 3, 4, 5):
        rng = stream(2024, "inv", n)
        found = 0
        while found < 10:
            a = rand_matrix(rng, n)
            d = det(a)
            if d == 0 or abs(d) > 20:
                continue
            found += 1
            assert mat_mul(a, mat_inv(a)) == SquareMatrix.identity(n)
            assert mat_mul(mat_inv(a), a) == SquareMatrix.identity(n)


def test_singular_matrix_raises():
    singular = SquareMatrix.from_rows([[1, 2], [2, 4]])
    assert det(singular) == 0
    with pytest.raises(SingularMatrixError):
        mat_inv(singular)


def test_det_matches_permutation_expansion():
    for n in (1, 2, 3, 4):
        rng = stream(99, "det", n)
        for _ in range(25):
            a = rand_matrix(rng, n)
            assert det(a) == ref_det(a)


def test_det_multiplicative():
    rng = stream(7, "detmul")
    for _ in range(20):
        a = rand_invertible(rng, 3)
        b = rand_invertible(rng, 3)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_mul_matches_plain_loops():
    for n in (1, 2, 3, 4):
        rng = stream(5, "mul", n)
        for _ in range(20):
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            assert mat_mul(a, b) == ref_matmul(a, b)


def test_matmul_operator():
    rng = stream(11, "op")
    a = rand_invertible(rng, 2)
    b = rand_invertible(rng, 2)
    assert a @ b == mat_mul(a, b)


def test_shape_validation():
    with pytest.raises(ValueError):
        SquareMatrix(2, ((Fraction(1),),))
    with pytest.raises(ValueError):
        SquareMatrix.from_rows([[1, 2], [3]])


def test_zero_pivot_needs_row_swap():
    swap = SquareMatrix.from_rows([[0, 1], [1, 0]])
    assert det(swap) == -1
    assert mat_inv(swap) == swap
    bigger = SquareMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert det(bigger) == -1
    assert mat_mul(bigger, mat_inv(bigger)) == SquareMatrix.identity(3)


def test_fractional_entries_inverse():
    a = SquareMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                [0, Fraction(2, 5)]])
    assert mat_mul(a, mat_inv(a)) == SquareMatrix.identity(2)


def test_values_of_another_type_compare_unequal():
    eye = SquareMatrix.identity(1)
    assert eye.__eq__(Bilinear.zero(1)) is NotImplemented
    assert eye.__eq__(1) is NotImplemented
    assert eye != Bilinear.zero(1) and eye != 1


# ---------------------------------------------------------------------------
# inexact input is refused where it enters

I1, F1 = SquareMatrix.identity(1), Bilinear.zero(1)
INEXACT = {  # each type that takes a base point, with a float coordinate
    "NonHolFrame": lambda x: fr.NonHolFrame(x, I1, I1, F1),
    "SemiHolFrame": lambda x: fr.SemiHolFrame(x, I1, F1),
    "HolFrame": lambda x: fr.HolFrame(x, I1, F1),
    "LinFrame": lambda x: fr.LinFrame(x, I1),
    "Map2Jet-base": lambda x: J.Map2Jet(x, (0,), I1, F1),
    "Map2Jet-value": lambda x: J.Map2Jet((Fraction(0),), x, I1, F1),
    "FMJetData": lambda x: J.FMJetData(x, I1, I1, F1),
}


@pytest.mark.parametrize("build", INEXACT.values(), ids=INEXACT)
def test_a_float_base_point_is_refused(build):
    with pytest.raises(TypeError, match=r"base point coordinates must be "
                       r"exact rationals \(int or Fraction\)"):
        build((0.5,))
    assert build((Fraction(1, 2),)) == build((Fraction(1, 2),))
    build((1,))


@pytest.mark.parametrize("cls, array", [
    (SquareMatrix, [[0.5]]), (SquareMatrix, [[1, 0], [0, 1.0]]),
    (SquareMatrix, [["1"]]), (Bilinear, [[[0.5]]]),
    (Bilinear, [[[0, 0], [0, 0]], [[0, 0], [0, Fraction(1, 2) + 0.0]]]),
], ids=["matrix", "matrix-last", "matrix-str", "bilinear", "bilinear-last"])
def test_an_inexact_entry_is_refused(cls, array):
    with pytest.raises(TypeError, match=f"{cls.__name__} entries must be "
                       r"exact rationals \(int or Fraction\)"):
        cls(len(array), array)


def test_the_converting_builders_still_take_floats_and_strings():
    assert SquareMatrix.from_rows([[0.5]]) == SquareMatrix(1, [[Fraction(1, 2)]])
    assert Bilinear.from_coeffs([[["1/4"]]]) == Bilinear(1, [[[Fraction(1, 4)]]])


# ---------------------------------------------------------------------------
# each builder is written once

VALUE_CLASSES = sorted({base for cls in VALUE_TYPES for base in cls.__mro__
                        if issubclass(base, Value)}, key=lambda cls: cls.__qualname__)
# the one class that may define each builder, besides ``Value``
OWNERS = {"__init__": Scaled, "__setstate__": Scaled, "_trusted": Value}


def test_the_value_classes_are_found():
    assert {Value, Scaled, SquareMatrix, Bilinear, fr.HolFrame} <= set(VALUE_CLASSES)
    assert len(VALUE_CLASSES) == 25  # the 21 value types and their 4 bases


@pytest.mark.parametrize("cls", [c for c in VALUE_CLASSES if c is not Value],
                         ids=lambda cls: cls.__name__)
def test_each_builder_is_written_once(cls):
    for name, owner in OWNERS.items():
        if cls is not owner:
            assert name not in vars(cls), f"{cls.__name__} defines {name}"

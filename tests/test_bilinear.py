from fractions import Fraction

import pytest

from exact_oracles import ref_post, ref_pre, ref_skew, ref_sym, ref_transpose
from jetframes import (
    Bilinear,
    SquareMatrix,
    is_skew,
    is_symmetric,
    post_compose,
    pre_compose,
    skew_part,
    sym_part,
    transpose,
)
from jetframes.randgen import (
    rand_bilinear,
    rand_invertible,
    rand_matrix,
    rand_skew,
    rand_symmetric,
    stream,
)

# indices below are 0-based: the coefficient written c[1][1][2] in 1-based
# notation is coeffs[0][0][1]


def test_transpose_swaps_single_coefficient():
    f = Bilinear.single(2, 0, 0, 1)
    assert transpose(f) == Bilinear.single(2, 0, 1, 0)


def test_transpose_fixes_symmetric():
    rng = stream(1, "sym")
    f = rand_symmetric(rng, 3)
    assert transpose(f) == f


def test_transpose_involutive_and_matches_loops():
    for n in (1, 2, 3):
        rng = stream(2, "transpose", n)
        for _ in range(20):
            f = rand_bilinear(rng, n)
            assert transpose(transpose(f)) == f
            assert transpose(f) == ref_transpose(f)


def test_sym_part_of_single_coefficient():
    f = Bilinear.single(2, 0, 0, 1)
    s = sym_part(f)
    assert s.coeffs[0][0][1] == Fraction(1, 2)
    assert s.coeffs[0][1][0] == Fraction(1, 2)
    assert sum(1 for p in s.coeffs for r in p for e in r if e != 0) == 2


def test_sym_skew_parts_on_special_inputs():
    rng = stream(3, "parts")
    skew = rand_skew(rng, 3)
    assert sym_part(skew).is_zero()
    sym = rand_symmetric(rng, 3)
    assert skew_part(sym).is_zero()


def test_split_is_exact_and_typed():
    for n in (1, 2, 3, 4):
        rng = stream(4, "split", n)
        for _ in range(15):
            f = rand_bilinear(rng, n)
            fs, fa = sym_part(f), skew_part(f)
            assert fs == ref_sym(f) and fa == ref_skew(f)
            assert fs + fa == f
            assert is_symmetric(fs) and is_skew(fa)
            assert sym_part(fs) == fs and skew_part(fa) == fa


def test_post_compose_identity_and_scaling():
    rng = stream(5, "post")
    f = rand_bilinear(rng, 3)
    eye = SquareMatrix.identity(3)
    assert post_compose(eye, f) == f
    two = SquareMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    doubled = post_compose(two, f)
    assert all(doubled.coeffs[k][i][j] == 2 * f.coeffs[k][i][j]
               for k in range(3) for i in range(3) for j in range(3))


def test_post_compose_matches_loops():
    for n in (1, 2, 3):
        rng = stream(6, "postref", n)
        for _ in range(20):
            a = rand_matrix(rng, n)
            f = rand_bilinear(rng, n)
            assert post_compose(a, f) == ref_post(a, f)


def test_pre_compose_identity():
    rng = stream(7, "pre")
    f = rand_bilinear(rng, 2)
    eye = SquareMatrix.identity(2)
    assert pre_compose(f, eye, eye) == f


def test_pre_compose_diagonal_preserves_skew():
    rng = stream(8, "preskew")
    f = rand_skew(rng, 3)
    a = rand_invertible(rng, 3)
    assert is_skew(pre_compose(f, a, a))


def test_pre_compose_matches_loops():
    for n in (1, 2, 3):
        rng = stream(9, "preref", n)
        for _ in range(15):
            a = rand_matrix(rng, n)
            b = rand_matrix(rng, n)
            f = rand_bilinear(rng, n)
            assert pre_compose(f, a, b) == ref_pre(f, a, b)


def test_parts_commute_with_compositions():
    rng = stream(10, "commute")
    for _ in range(15):
        a = rand_invertible(rng, 3)
        f = rand_bilinear(rng, 3)
        assert transpose(post_compose(a, f)) == post_compose(a, transpose(f))
        assert sym_part(post_compose(a, f)) == post_compose(a, sym_part(f))
        assert skew_part(post_compose(a, f)) == post_compose(a, skew_part(f))
        assert transpose(pre_compose(f, a, a)) == pre_compose(transpose(f), a, a)
        assert sym_part(pre_compose(f, a, a)) == pre_compose(sym_part(f), a, a)
        assert skew_part(pre_compose(f, a, a)) == pre_compose(skew_part(f), a, a)


def test_post_and_pre_compose_commute():
    rng = stream(11, "assoc")
    for _ in range(10):
        a = rand_invertible(rng, 3)
        b = rand_invertible(rng, 3)
        c = rand_invertible(rng, 3)
        f = rand_bilinear(rng, 3)
        assert (pre_compose(post_compose(a, f), b, c)
                == post_compose(a, pre_compose(f, b, c)))


def test_arithmetic_dunders():
    rng = stream(12, "dunder")
    f = rand_bilinear(rng, 2)
    g = rand_bilinear(rng, 2)
    assert f + g - g == f
    assert f + (-f) == Bilinear.zero(2)


def test_shape_validation():
    with pytest.raises(ValueError):
        Bilinear(2, ((((Fraction(1),),),)))
    with pytest.raises(ValueError):
        Bilinear.from_coeffs([[[1, 2], [3, 4]], [[5, 6]]])
    with pytest.raises(ValueError, match=r"coeffs must form an 1\^3 array"):
        Bilinear(1, [[1]])  # nested too shallowly


@pytest.mark.parametrize("k, i, j", [(5, 0, 0), (0, -1, 0), (0, 0, 2), (-1, 1, 1)])
def test_single_refuses_an_index_out_of_range(k, i, j):
    with pytest.raises(ValueError, match=r"indices must lie in 0\.\.1"):
        Bilinear.single(2, k, i, j)

"""The integer kernels against independent routes.

The random inputs are products of three random elements, so their
coefficients are much wider than the suites' single-digit draws; the pivot
cases are written out by hand.
"""

from fractions import Fraction

import pytest

from exact_oracles import ref_det, ref_matmul, ref_post, ref_pre
from jetframes import (
    Map2Jet,
    NonHolFrame,
    SingularMatrixError,
    SquareMatrix,
    compose_2jets,
    det,
    left_act_diffeo,
    mat_inv,
    mat_mul,
    post_compose,
    pre_compose,
)
from jetframes import _scaled as sc
from jetframes.frames import act_nonhol
from jetframes.groups import mul_g2, mul_hat2, mul_tilde2
from jetframes.randgen import (
    rand_g2,
    rand_hat2,
    rand_invertible,
    rand_nonhol,
    rand_point,
    rand_tilde2,
    stream,
)


def _product(gen, mul, rng, n):
    x = gen(rng, n)
    for _ in range(2):
        x = mul(x, gen(rng, n))
    return x


@pytest.mark.parametrize("n", [6, 8])
def test_contractions_match_plain_loops(n):
    rng = stream(41, "kernels", n)
    x = _product(rand_hat2, mul_hat2, rng, n)
    y = _product(rand_hat2, mul_hat2, rng, n)
    a, b, f = sc.smat(x.a.entries), sc.smat(y.a.entries), sc.sbil(y.f.coeffs)
    eye = SquareMatrix.identity(n)
    assert max(abs(e.numerator) for row in x.a.entries for e in row) > 100
    assert sc.mat_entries(sc.s_matmul(a, b)) == ref_matmul(x.a, y.a).entries
    assert sc.bil_coeffs(sc.s_post(a, f)) == ref_post(x.a, y.f).coeffs
    assert sc.bil_coeffs(sc.s_pre(f, a, b)) == ref_pre(y.f, x.a, y.a).coeffs
    assert sc.bil_coeffs(sc.s_pre_left(f, a)) == ref_pre(y.f, x.a, eye).coeffs
    assert sc.bil_coeffs(sc.s_pre_right(f, b)) == ref_pre(y.f, eye, y.a).coeffs


@pytest.mark.parametrize("n", [8, 12])
def test_wide_inverse_multiplies_back(n):
    a = _product(rand_invertible, mat_mul, stream(42, "kernels-inv", n), n)
    inv = mat_inv(a)
    eye = SquareMatrix.identity(n)
    assert mat_mul(a, inv) == eye and mat_mul(inv, a) == eye
    assert det(inv) == 1 / det(a)


def test_singular_with_late_zero_pivot():
    # columns 0 and 1 are independent (leading 2x2 minor -1), column 2 is
    # col0 + 2 col1: elimination first finds no pivot at column 2
    rows = [[1, 2, 5, 7, Fraction(1, 3)],
            [3, 5, 13, 0, 2],
            [Fraction(1, 2), 4, Fraction(17, 2), 1, 1],
            [2, 0, 2, 9, 4],
            [0, 1, 2, 3, 5]]
    a = SquareMatrix.from_rows(rows)
    assert det(SquareMatrix.from_rows([r[:2] for r in rows[:2]])) == -1
    assert det(a) == 0 == ref_det(a)
    with pytest.raises(SingularMatrixError):
        mat_inv(a)


@pytest.mark.parametrize("rows", [
    [[0, 2, 1], [3, 1, 0], [1, 0, 2]],  # first pivot zero
    [[0, 1, 0], [1, 0, 0], [0, 0, 2]],  # only the next row can swap in
    [[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 3, 1], [1, 0, 1, Fraction(1, 2)]],
    [[2, 1, 0], [1, -1, 1], [0, 1, 1]],  # no swap: the last pivot is < 0
])
def test_negative_determinant_and_row_swaps(rows):
    a = SquareMatrix.from_rows(rows)
    d = det(a)
    assert d < 0 and d == ref_det(a)
    inv = mat_inv(a)
    eye = SquareMatrix.identity(a.n)
    assert mat_mul(a, inv) == eye and mat_mul(inv, a) == eye
    assert det(inv) == 1 / d


def test_jet_oracle_matches_group_algebra_on_wide_input():
    n = 5
    rng = stream(43, "kernels-jets", n)
    g = _product(rand_g2, mul_g2, rng, n)
    h = _product(rand_g2, mul_g2, rng, n)
    q = act_nonhol(rand_nonhol(rng, n), _product(rand_tilde2, mul_tilde2, rng, n))
    mid = rand_point(rng, n)
    inner = Map2Jet(q.x, mid, h.a, h.f)
    outer = Map2Jet(mid, rand_point(rng, n), g.a, g.f)

    composed = compose_2jets(outer, inner)
    assert composed.jac == mat_mul(g.a, h.a)
    assert composed.hess == (post_compose(g.a, h.f)
                             + pre_compose(g.f, h.a, h.a))

    moved = left_act_diffeo(inner, q)
    assert moved == NonHolFrame(mid, mat_mul(h.a, q.a), mat_mul(h.a, q.b),
                                post_compose(h.a, q.f)
                                + pre_compose(h.f, q.a, q.b))

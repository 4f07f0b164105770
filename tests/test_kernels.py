"""The integer kernels against independent routes.

The random inputs are products of three random elements, so their
coefficients are much wider than the suites' single-digit draws; the pivot
cases are written out by hand.  The fused law kernel ``s_law`` is checked at
the edge of its packing width (every entry at +-(2^b - 1), one sign, so no
sum cancels), with mixed denominators, on each of its two packings (lanes
of 8, 16, 32 or 64 bits per plane, fields of the exact width per row), where
it chooses between them and the lane width, on every call of a suite run,
and law by law against the public compositions.
"""

from fractions import Fraction
from math import prod
from operator import add, neg

import pytest

from exact_oracles import ref_add, ref_det, ref_matmul, ref_post, ref_pre
from jetframes import (
    Bilinear,
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
from jetframes import groups as G
from jetframes import suites
from jetframes.frames import act_nonhol
from jetframes.groups import mul_g2, mul_hat2, mul_tilde2
from jetframes.randgen import (
    rand_bilinear,
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
    g = sc.sbil(x.f.coeffs)
    assert sc.bil_coeffs(sc.s_add(f, g)) == ref_add(y.f, x.f).coeffs
    assert sc.bil_coeffs(sc.s_neg(g)) == _term_oracle(-1, None, x.f, None, None).coeffs


def test_negation_matches_plain_loops_on_wide_coefficients():
    f = _product(rand_hat2, mul_hat2, stream(41, "kernels-neg", 12), 12).f
    assert max(abs(e) for plane in f.ints for e in plane) > 10**4
    oracle = _term_oracle(-1, None, f, None, None)
    assert sc.bil_coeffs(sc.s_neg(f.scaled)) == oracle.coeffs
    assert -f == oracle and -oracle == f


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


# ---------------------------------------------------------------------------
# the fused law kernel


def _term_oracle(sign, c, f, a, b):
    """sign * c o f(a, b) by the plain-fraction loops; None is the identity."""
    n = f.n
    eye = SquareMatrix.identity(n)
    if a is not None or b is not None:
        f = ref_pre(f, a or eye, b or eye)
    if c is not None:
        f = ref_post(c, f)
    if sign > 0:
        return f
    return Bilinear.from_coeffs([[[-e for e in row] for row in plane]
                                 for plane in f.coeffs])


def _law_oracle(*terms):
    total = _term_oracle(*terms[0])
    for term in terms[1:]:
        total = ref_add(total, _term_oracle(*term))
    return total


def _scaled_terms(terms):
    return [(sign, *(None if m is None else m.scaled for m in (c, f, a, b)))
            for sign, c, f, a, b in terms]


def _law(*terms):
    """s_law on values: terms of (sign, c, f, a, b) with None for I."""
    return Bilinear._of(sc.s_law(*_scaled_terms(terms)))


def _lane_width(k):
    """The plane path's lane width for a law of width k <= 64."""
    return min(w for w in (8, 16, 32, 64) if w >= k)


def _paths(*terms):
    """The width k of ``s_law`` on the terms, and the plane path's and the
    rows path's results, each called directly."""
    n = terms[0][2].n
    k, den, prepared = sc._prepare(n, _scaled_terms(terms))
    return k, (Bilinear._of((sc._law_planes(n, _lane_width(k), prepared), den)),
               Bilinear._of((sc._law_rows(n, k, prepared), den)))


def _filled(n, value):
    return (SquareMatrix._of(([[value] * n for _ in range(n)], 1)),
            Bilinear._of(([[value] * (n * n) for _ in range(n)], 1)))


def _need(terms, n, b):
    """The packing width the bound asks for when every entry has b bits."""
    log_n = (n - 1).bit_length()
    width = max(b + sum(b + log_n for m in (c, a, bb) if m is not None)
                for _, c, _, a, bb in terms)
    return 1 + (len(terms) - 1).bit_length() + width


# (c, a, b) present, as 0/1 flags, for each term; several terms of one shape
_SHAPES = [
    [(0, 0, 0)], [(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 1, 1)],
    [(1, 1, 1)] * 2, [(1, 0, 0)] * 2, [(0, 1, 1)] * 3, [(1, 1, 1)] * 3,
    [(1, 0, 0), (0, 1, 1)], [(0, 0, 0), (1, 1, 0)],
]


def _edge_terms(shape, n, bits, sign):
    m, f = _filled(n, sign * ((1 << bits) - 1))
    return [(1, m if c else None, f, m if a else None, m if b else None)
            for c, a, b in shape]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_law_kernel_is_exact_at_the_width_bound(n, sign):
    hits = rows = 0
    for shape in _SHAPES:
        for bits in range(1, 17):
            terms = _edge_terms(shape, n, bits, sign)
            # every entry reaches the bound k is computed from; a case with
            # k <= 64 is packed in 64-bit lanes, any other in fields exactly
            # k bits wide, where those one bit past a byte boundary are the
            # ones a byte-rounded field left 7 bits of slack
            need = _need(terms, n, bits)
            hits += need > 64 and need % 8 == 1
            rows += need > 64
            assert _law(*terms) == _law_oracle(*terms), (shape, bits)
    assert hits and rows


@pytest.mark.parametrize("shape", [[(1, 0, 0)], [(1, 0, 0)] * 3])
def test_law_kernel_is_exact_at_the_width_bound_n12(shape):
    n = 12
    # two bit lengths whose width lands one bit past a byte boundary, where
    # a byte-rounded field had the most slack; the exact field has none
    chosen = [b for b in range(5, 40)
              if _need(_edge_terms(shape, n, b, 1), n, b) % 8 == 1][:2]
    assert len(chosen) == 2
    for bits, sign in zip(chosen, (1, -1)):
        terms = _edge_terms(shape, n, bits, sign)
        out = _law(*terms)
        assert out == _law_oracle(*terms)
        # every entry is n^r (2^b - 1)^(r + 1) per term: the bound is reached
        r = sum(shape[0])
        assert out.ints[0][0] == sign ** (r + 1) * len(shape) * (
            n ** r * ((1 << bits) - 1) ** (r + 1))


def test_law_kernel_with_mixed_denominators():
    n = 3
    rng = stream(44, "kernels-law-den", n)
    values = []
    for den in (3, 4, 6, 10, 1, 7):
        x = rand_hat2(rng, n)
        values.append((SquareMatrix._of((x.a.ints, den)),
                       Bilinear._of((rand_bilinear(rng, n).ints, den * 5))))
    (c, f), (a, g), (b, h), (d, k), (e, _), (m, p) = values
    terms = [(1, c, f, a, b), (-1, None, g, d, None), (1, e, h, None, m),
             (-1, None, k, None, None), (1, a, p, None, None)]
    dens = {prod(x.den for x in t[1:] if x is not None) for t in terms}
    assert len(dens) == len(terms)
    out = _law(*terms)
    assert out.den > 1
    assert out == _law_oracle(*terms)


def _mixed_terms(shape, n, sign):
    """Random terms of ``shape`` whose operands have pairwise different
    denominators; the term signs alternate, starting at ``sign``."""
    rng = stream(50, "kernels-paths", n, len(shape), sign)
    dens = iter((3, 4, 6, 10, 1, 7, 9, 5, 2, 11, 13, 8))
    terms = []
    for t, flags in enumerate(shape):
        c, a, b = (SquareMatrix._of((rand_invertible(rng, n).ints, next(dens)))
                   if flag else None for flag in flags)
        f = Bilinear._of((rand_bilinear(rng, n).ints, next(dens)))
        terms.append((sign * (-1) ** t, c, f, a, b))
    return terms


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("sign", [1, -1])
def test_both_law_paths_match_the_fraction_loops(n, sign):
    for shape in _SHAPES:
        terms = _mixed_terms(shape, n, sign)
        k, (planes, rows) = _paths(*terms)
        assert k <= 64, shape  # so the 64-bit lanes hold every entry
        assert planes == rows == _law_oracle(*terms), shape


def _spied(monkeypatch):
    """The paths ``s_law`` takes from now on, in call order: the lane width
    of each plane-path call, "rows" for each rows-path call."""
    taken = []
    planes, rows = sc._law_planes, sc._law_rows

    def spy_planes(n, w, prepared):
        taken.append(w)
        return planes(n, w, prepared)

    def spy_rows(n, k, prepared):
        taken.append("rows")
        return rows(n, k, prepared)

    monkeypatch.setattr(sc, "_law_planes", spy_planes)
    monkeypatch.setattr(sc, "_law_rows", spy_rows)
    return taken


def _width_cases(n, needs):
    """The edge terms at n, of either sign, whose packing width is each of
    ``needs``."""
    cases = {need: [] for need in needs}
    for shape in _SHAPES:
        for bits in range(1, 65):
            for sign in (1, -1):
                terms = _edge_terms(shape, n, bits, sign)
                if _need(terms, n, bits) in cases:
                    cases[_need(terms, n, bits)].append(terms)
    return cases


def _widest(out):
    return max(abs(e) for plane in out.ints for e in plane)


@pytest.mark.parametrize("n", range(1, 8))
def test_law_kernel_packs_planes_up_to_a_64_bit_width(monkeypatch, n):
    # every entry reaches the bound k is computed from: with k = 65 some
    # entry needs 64 bits and a sign, which no 64-bit lane holds; past
    # _PLANE_N the rows path serves every width
    taken = _spied(monkeypatch)
    planes = 64 if n <= sc._PLANE_N else "rows"
    cases = _width_cases(n, (64, 65))
    assert cases[64] and cases[65]
    wide = False
    for need, path in ((64, planes), (65, "rows")):
        for terms in cases[need]:
            taken.clear()
            out = _law(*terms)
            assert taken == [path] and out == _law_oracle(*terms)
            wide |= _widest(out) >= 1 << 63
    assert wide


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("w", [8, 16, 32])
def test_law_kernel_sizes_its_lanes_to_the_width(monkeypatch, w, n):
    # a law of width k = w takes w-bit lanes; at k = w + 1 some entry needs
    # w bits and a sign, which no w-bit lane holds, and the next width, 2w,
    # serves it
    taken = _spied(monkeypatch)
    cases = _width_cases(n, (w, w + 1))
    for need in cases:
        signs = {terms[0][2].ints[0][0] > 0 for terms in cases[need]}
        assert signs == {True, False}, need
    wide = False
    for need, lanes in ((w, w), (w + 1, 2 * w)):
        for terms in cases[need]:
            taken.clear()
            out = _law(*terms)
            assert taken == [lanes] and out == _law_oracle(*terms)
            wide |= _widest(out) >= 1 << (w - 1)
    assert wide


def test_both_law_paths_agree_on_the_suites_traffic(monkeypatch):
    # every s_law call of a suite run, on both paths: the plane path in the
    # lanes s_law chooses and the rows path in fields exactly k bits wide; a
    # lane too narrow would carry into its neighbour without an error
    calls = []
    law = sc.s_law

    def capture(*terms):
        calls.append(terms)
        return law(*terms)

    monkeypatch.setattr(sc, "s_law", capture)
    monkeypatch.setattr(suites, "_cores", lambda: 1)
    suites.run_suites(suites.ALL_SUITE_NAMES, (1, 2, 3, 4), 1, 42)
    taken = _spied(monkeypatch)
    chosen = []
    for terms in calls:
        n = len(terms[0][2][0])
        k, den, prepared = sc._prepare(n, terms)
        out = sc.reduce(law(*terms))
        chosen.append(taken[-1])
        if chosen[-1] != "rows":
            assert chosen[-1] == _lane_width(k)
            assert sc.reduce((sc._law_rows(n, k, prepared), den)) == out
    assert len(calls) > 500 and {8, 16, 32, 64, "rows"} <= set(chosen)


@pytest.mark.parametrize("n", [2, 5, 8])
@pytest.mark.parametrize("sign", [1, -1])
def test_law_kernel_raises_when_its_width_is_too_small(monkeypatch, n, sign):
    # with every operand reported 0 bits wide, the plane path is taken up to
    # _PLANE_N and the rows path past it has fields far too narrow; entries
    # of either sign far past 64 bits overflow both: the unpack must raise,
    # not return wrong lanes or fields
    x = _product(rand_hat2, mul_hat2, stream(48, "kernels-guard", n), n)
    wide = (1 << 70) - 1
    xa = SquareMatrix._of(([[e * wide for e in row] for row in x.a.ints],
                           x.a.den))
    m, f = _filled(n, sign * wide)
    monkeypatch.setattr(sc, "_bits", lambda ints: 0)
    for terms in ([(1, m, f, m, m)], [(sign, xa, x.f, xa, None)],
                  [(1, None, f, None, None), (-1, xa, x.f, None, None)]):
        with pytest.raises(OverflowError):
            _law(*terms)


@pytest.mark.parametrize("n", [8, 12])
def test_conjugation_is_the_product_with_the_inverse(n):
    rng = stream(49, "kernels-conj", n)
    outer = _product(rand_hat2, mul_hat2, rng, n)
    inner = _product(rand_hat2, mul_hat2, rng, n)
    h = _product(rand_hat2, mul_hat2, rng, n).f
    assert max(abs(e) for plane in outer.f.ints for e in plane) > 10**4
    for y in (inner, G.GHat2.from_bilinear(h)):
        assert G.conj_hat2(outer, y) == mul_hat2(mul_hat2(outer, y),
                                                 G.inv_hat2(outer))
    assert G.conj_hat2(G.GHat2.identity(n), inner) == inner


@pytest.mark.parametrize("n", [4, 5])
def test_signed_inverse_and_three_term_conjugation(n):
    rng = stream(45, "kernels-law-inv", n)
    x = _product(rand_hat2, mul_hat2, rng, n)
    y = _product(rand_hat2, mul_hat2, rng, n)
    a_inv = mat_inv(x.a)
    inv = G.inv_hat2(x)
    assert inv.a == a_inv
    assert inv.f == _term_oracle(-1, a_inv, x.f, a_inv, a_inv)
    ba = mat_mul(y.a, a_inv)
    aba = mat_mul(x.a, ba)
    conj = G.conj_hat2(x, y)
    assert conj.a == aba
    assert conj.f == _law_oracle((-1, aba, x.f, a_inv, a_inv),
                                 (1, x.a, y.f, a_inv, a_inv),
                                 (1, None, x.f, ba, ba))


def _routes(x, y, z, post, pre, add, neg):
    """Each routed law and the same bilinear part composed step by step from
    ``post``, ``pre``, ``add`` and ``neg``."""
    a, f, b, g = x.a, x.f, y.a, y.f
    eye = SquareMatrix.identity(x.n)
    ai, bi = mat_inv(a), mat_inv(b)
    ba = mat_mul(b, ai)
    return {
        "law_hat2": (G.law_hat2(a, f, b, g)[1], add(post(a, g), pre(f, b, b))),
        "law_tilde2": (G.law_tilde2(a, z, f, b, z, g)[2],
                       add(post(a, g), pre(f, b, z))),
        "law_tilde21": (G.law_tilde21(a, f, b, g)[1], add(g, pre(f, eye, b))),
        "inverse_hat2": (G._inverse_hat2(a, f)[1], neg(post(ai, pre(f, ai, ai)))),
        "inverse_tilde21": (G._inverse_tilde21(a, f)[1], neg(pre(f, eye, ai))),
        "inv_tilde2": (G.inv_tilde2(G.GTilde2(a, b, f)).f,
                       neg(post(ai, pre(f, ai, bi)))),
        "conj_hat2": (G.conj_hat2(x, y).f,
                      add(add(post(a, pre(g, ai, ai)), pre(f, ba, ba)),
                          neg(post(mat_mul(a, ba), pre(f, ai, ai))))),
        "mul_t1n": (G.mul_t1n(G.T1nL1n(a, f), G.T1nL1n(b, g)).f,
                    add(pre(f, b, eye), post(a, pre(g, eye, ai)))),
        "mul_deleon_1": (G.mul_deleon_1((a, f), (b, g))[1],
                         add(post(bi, pre(f, b, b)), g)),
        "mul_deleon_2": (G.mul_deleon_2((a, f), (b, g))[1],
                         add(f, post(a, pre(g, ai, ai)))),
        "inv_deleon_1": (G.inv_deleon_1((a, f))[1], neg(post(a, pre(f, ai, ai)))),
        "inv_deleon_2": (G.inv_deleon_2((a, f))[1], neg(post(ai, pre(f, a, a)))),
    }


def _check_routes(n, seed, *ops):
    rng = stream(seed, "kernels-law-routes", n)
    x, y = rand_hat2(rng, n), rand_hat2(rng, n)
    routes = _routes(x, y, rand_invertible(rng, n), *ops)
    assert len(routes) == 12
    for name, (fused, stepwise) in routes.items():
        assert fused == stepwise, name


@pytest.mark.parametrize("n", range(1, 13))
def test_every_routed_law_matches_the_public_compositions(n):
    # the public operations are one-term s_law calls: this checks that
    # fusing the terms changes nothing
    _check_routes(n, 46, post_compose, pre_compose, add, neg)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_routed_law_matches_the_fraction_loops(n):
    _check_routes(n, 47, ref_post, ref_pre, ref_add,
                  lambda f: _term_oracle(-1, None, f, None, None))


# ---------------------------------------------------------------------------
# the dimension check of the combining kernels


def _operands(n):
    m, f = _filled(n, 1)
    return m.scaled, f.scaled


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2)])
@pytest.mark.parametrize("slot", ["c", "f", "a", "b"])
def test_law_kernel_refuses_an_operand_of_another_dimension(slot, n1, n2):
    (m, f), (m2, f2) = _operands(n1), _operands(n2)
    term = dict(c=m, f=f, a=m, b=m)
    term[slot] = f2 if slot == "f" else m2
    with pytest.raises(ValueError, match="dimension mismatch"):
        sc.s_law((1, term["c"], term["f"], term["a"], term["b"]))


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2)])
def test_law_kernel_refuses_terms_of_different_dimensions(n1, n2):
    (m, f), (m2, f2) = _operands(n1), _operands(n2)
    for second in ((-1, None, f2, None, None), (1, m2, f2, m2, m2),
                   (1, None, f, m2, None)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            sc.s_law((1, m, f, None, m), second)


@pytest.mark.parametrize("n1, n2", [(2, 3), (3, 2), (1, 2)])
def test_matmul_kernel_refuses_rows_of_another_dimension(n1, n2):
    (m, _), (m2, _) = _operands(n1), _operands(n2)
    for a, b in ((m, m2), (m2, m)):
        with pytest.raises(ValueError, match=f"dimension mismatch: {len(a[0])} vs "
                                             f"{len(b[0])}"):
            sc.s_matmul(a, b)

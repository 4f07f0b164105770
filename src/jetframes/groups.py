"""The second-order jet group structures and the maps between them.

Every group element pairs one or two invertible matrices with a bilinear map;
what differs between the groups is only the multiplication law.  Each law is
written once, on components (``law_tilde2``, ``law_hat2``, ``law_tilde21``),
and both the products here and the frame actions in ``frames`` call it.
Each group still gets its own element type, so elements of different groups
never mix.  Products, inverses and conjugations are all exact: the bilinear
part of each is one call (two for a conjugation) of the fused kernel
``_scaled.s_law`` on the terms +-c o f(a, b) of its formula.  Operands of
different dimensions raise ``ValueError`` in the kernels ``s_law`` and
``s_matmul``, through which every operation that combines them passes.

The element types are ``matrices.Checked`` value types whose fields are
their parts in order, matrices first, so one check serves every constructor:
one dimension, invertible matrices, and a symmetric bilinear part where the
type declares it (``G2``, ``QuotClassHat``).  Each type's docstring states
its law: ``GTilde2``, ``GHat2``, ``G2``, ``GTilde21``, ``GTilde22`` and
``T1nL1n``.

``GROUPS`` declares, once for each group tag, the element type, the product
and the inverse; serialization, the CLI and the suites read it.

``QuotClassHat`` represents a class of ``GHat2`` modulo the skew maps; the
canonical representative keeps the unique symmetric bilinear part, which
makes class equality plain equality.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Any, Callable

from . import _scaled as sc
from .bilinear import Bilinear, is_skew, is_symmetric, sym_part
from .matrices import (
    Checked,
    SquareMatrix,
    Value,
    mat_inv,
    mat_mul,
    value_type,
)

# A (matrix, bilinear) pair: the components of a pair element, and the
# elements of the two alternative laws.
Pair = tuple[SquareMatrix, Bilinear]

class _Element(Checked):
    """The group element types: matrix parts, then the bilinear part."""

    __slots__ = ()

    @classmethod
    def identity(cls, n: int):
        eye = SquareMatrix.identity(n)
        mats = (eye,) * (len(cls.__match_args__) - 1)
        return cls._trusted(*mats, Bilinear.zero(n))


@value_type
class GTilde2(_Element):
    """A triple (a, b, f); law (aa', bb', a o f' + f(a', b'))."""

    a: SquareMatrix
    b: SquareMatrix
    f: Bilinear


@value_type
class GHat2(_Element):
    """A pair (a, f); law (aa', a o f' + f(a', a'))."""

    a: SquareMatrix
    f: Bilinear

    @classmethod
    def from_bilinear(cls, h: Bilinear) -> "GHat2":
        """Embed a bilinear map as (I, h)."""
        return cls._trusted(SquareMatrix.identity(h.n), h)


@value_type
class G2(_Element):
    """A pair (a, f) with f symmetric; the law of ``GHat2``, closed because
    symmetrization commutes with both compositions."""

    a: SquareMatrix
    f: Bilinear
    _rule = (is_symmetric, "bilinear part must be symmetric")

    def as_hat2(self) -> GHat2:
        return GHat2._trusted(self.a, self.f)


@value_type
class GTilde21(_Element):
    """A pair (a, f); law (aa', f' + f(I, a'))."""

    a: SquareMatrix
    f: Bilinear


@value_type
class GTilde22(_Element):
    """A pair (l, h); the law of ``GTilde21``, canonical when h is skew.

    The law does not preserve skewness (pre-composing a skew map on one slot
    only breaks the symmetry type), so products may leave the skew subset
    and construction does not enforce it; ``is_canonical`` reports it.
    """

    l: SquareMatrix
    h: Bilinear

    def is_canonical(self) -> bool:
        return is_skew(self.h)


@value_type
class T1nL1n(_Element):
    """A pair (a, f); law (aa', f(a', I) + a o f'(I, a^-1)), isomorphic to
    ``GHat2`` through ``tau``."""

    a: SquareMatrix
    f: Bilinear


# ---------------------------------------------------------------------------
# multiplication laws, on components


def law_tilde2(
    a1: SquareMatrix, b1: SquareMatrix, f1: Bilinear,
    a2: SquareMatrix, b2: SquareMatrix, f2: Bilinear,
) -> tuple[SquareMatrix, SquareMatrix, Bilinear]:
    """(a1, b1, f1)(a2, b2, f2) = (a1 a2, b1 b2, a1 o f2 + f1(a2, b2))."""
    sa1, sa2, sb2 = a1.scaled, a2.scaled, b2.scaled
    bilinear = sc.s_law((1, sa1, f2.scaled, None, None), (1, None, f1.scaled, sa2, sb2))
    return (SquareMatrix._of(sc.s_matmul(sa1, sa2)),
            SquareMatrix._of(sc.s_matmul(b1.scaled, sb2)), Bilinear._of(bilinear))


def law_hat2(a1: SquareMatrix, f1: Bilinear, a2: SquareMatrix, f2: Bilinear) -> Pair:
    """(a1, f1)(a2, f2) = (a1 a2, a1 o f2 + f1(a2, a2))."""
    sa1, sa2 = a1.scaled, a2.scaled
    bilinear = sc.s_law((1, sa1, f2.scaled, None, None), (1, None, f1.scaled, sa2, sa2))
    return SquareMatrix._of(sc.s_matmul(sa1, sa2)), Bilinear._of(bilinear)


def law_tilde21(a1: SquareMatrix, f1: Bilinear, a2: SquareMatrix, f2: Bilinear) -> Pair:
    """(a1, f1)(a2, f2) = (a1 a2, f2 + f1(I, a2))."""
    sa2 = a2.scaled
    bilinear = sc.s_law((1, None, f2.scaled, None, None),
                        (1, None, f1.scaled, None, sa2))
    return SquareMatrix._of(sc.s_matmul(a1.scaled, sa2)), Bilinear._of(bilinear)


def mul_tilde2(x: GTilde2, y: GTilde2) -> GTilde2:
    return GTilde2._trusted(*law_tilde2(x.a, x.b, x.f, y.a, y.b, y.f))


def mul_hat2(x: GHat2 | G2, y: GHat2 | G2) -> GHat2:
    return GHat2._trusted(*law_hat2(x.a, x.f, y.a, y.f))


def mul_g2(x: G2, y: G2) -> G2:
    """The same law as ``mul_hat2``, statically closed on symmetric parts."""
    return G2._trusted(*law_hat2(x.a, x.f, y.a, y.f))


def mul_tilde21(x: GTilde21, y: GTilde21) -> GTilde21:
    return GTilde21._trusted(*law_tilde21(x.a, x.f, y.a, y.f))


def mul_tilde22(x: GTilde22, y: GTilde22) -> GTilde22:
    return GTilde22._trusted(*law_tilde21(x.l, x.h, y.l, y.h))


def mul_t1n(x: T1nL1n, y: T1nL1n) -> T1nL1n:
    a1, f1 = x.a.scaled, x.f.scaled
    a2, f2 = y.a.scaled, y.f.scaled
    a1_inv = sc.s_matinv(a1)
    bilinear = sc.s_law((1, None, f1, a2, None), (1, a1, f2, None, a1_inv))
    return T1nL1n._trusted(SquareMatrix._of(sc.s_matmul(a1, a2)),
                           Bilinear._of(bilinear))


def mul_t1n_coordinate(x: T1nL1n, y: T1nL1n) -> T1nL1n:
    """The same product computed from the raw coordinate law.

    With F[i][l][k] the bilinear coordinates, A = x.a, C = y.a and
    B = A^-1, the product bilinear is

        M[i][j][k] = sum_l F[i][l][k] C[l][j]
                   + sum_{l,m} A[i][l] G[l][j][m] B[m][k]

    written here as explicit loops over the stored integers (``ints``/``den``;
    plane i of a bilinear map holds [j][k] at j*n + k), m contracted first,
    so the structural form above can be cross-checked against an independent
    computation that shares no code with ``s_law``, and so checks its own
    operands' dimensions.
    """
    n = x.n
    if y.n != n:
        raise ValueError(f"dimension mismatch: {n} vs {y.n}")
    A, Ad = x.a.scaled
    C, Cd = y.a.scaled
    B, Bd = mat_inv(x.a).scaled
    F, Fd = x.f.scaled
    G, Gd = y.f.scaled
    den1 = Ad * Gd * Bd
    den2 = Fd * Cd
    common = lcm(den1, den2)
    m1 = common // den1
    m2 = common // den2
    b_cols = list(zip(*B))
    c_cols = list(zip(*C))
    # gb[j][k][l] = sum_m G[l][j][m] B[m][k]; f_cols[i][k][l] = F[i][l][k]
    gb = [[[sum(map(mul, row, col)) for row in rows] for col in b_cols]
          for rows in ([Gl[r:r + n] for Gl in G] for r in range(0, n * n, n))]
    f_cols = [[Fi[k::n] for k in range(n)] for Fi in F]
    coeffs = [[m1 * sum(map(mul, Ai, gb_jk)) + m2 * sum(map(mul, f_col, c_col))
               for gb_j, c_col in zip(gb, c_cols) for gb_jk, f_col in zip(gb_j, f_i)]
              for Ai, f_i in zip(A, f_cols)]
    return T1nL1n(mat_mul(x.a, y.a), Bilinear._of((coeffs, common)))


def mul_deleon_1(x: Pair, y: Pair) -> Pair:
    """First alternative law on (a, f): (aa', a'^-1 o f(a', a') + f')."""
    (a, f), (a2, f2) = x, y
    sa2 = a2.scaled
    bilinear = sc.s_law((1, sc.s_matinv(sa2), f.scaled, sa2, sa2),
                        (1, None, f2.scaled, None, None))
    return SquareMatrix._of(sc.s_matmul(a.scaled, sa2)), Bilinear._of(bilinear)


def mul_deleon_2(x: Pair, y: Pair) -> Pair:
    """Second alternative law on (a, f): (aa', f + a o f'(a^-1, a^-1))."""
    (a, f), (a2, f2) = x, y
    sa = a.scaled
    a_inv = sc.s_matinv(sa)
    bilinear = sc.s_law((1, None, f.scaled, None, None),
                        (1, sa, f2.scaled, a_inv, a_inv))
    return SquareMatrix._of(sc.s_matmul(sa, a2.scaled)), Bilinear._of(bilinear)


# ---------------------------------------------------------------------------
# inverses


def _inverse_hat2(a: SquareMatrix, f: Bilinear) -> Pair:
    """(a, f)^-1 = (a^-1, -a^-1 o f(a^-1, a^-1)) under the ``GHat2`` law."""
    a_inv = sc.s_matinv(a.scaled)
    bilinear = sc.s_law((-1, a_inv, f.scaled, a_inv, a_inv))
    return SquareMatrix._of(a_inv), Bilinear._of(bilinear)


def _inverse_tilde21(a: SquareMatrix, f: Bilinear) -> Pair:
    """(a, f)^-1 = (a^-1, -f(I, a^-1)) under the ``GTilde21`` law."""
    a_inv = sc.s_matinv(a.scaled)
    return (SquareMatrix._of(a_inv),
            Bilinear._of(sc.s_law((-1, None, f.scaled, None, a_inv))))


def inv_hat2(x: GHat2) -> GHat2:
    return GHat2._trusted(*_inverse_hat2(x.a, x.f))


def inv_g2(x: G2) -> G2:
    return G2._trusted(*_inverse_hat2(x.a, x.f))


def inv_tilde2(x: GTilde2) -> GTilde2:
    a_inv = sc.s_matinv(x.a.scaled)
    b_inv = sc.s_matinv(x.b.scaled)
    bilinear = sc.s_law((-1, a_inv, x.f.scaled, a_inv, b_inv))
    return GTilde2._trusted(SquareMatrix._of(a_inv), SquareMatrix._of(b_inv),
                            Bilinear._of(bilinear))


def inv_tilde21(x: GTilde21) -> GTilde21:
    return GTilde21._trusted(*_inverse_tilde21(x.a, x.f))


def inv_tilde22(x: GTilde22) -> GTilde22:
    return GTilde22._trusted(*_inverse_tilde21(x.l, x.h))


def inv_t1n(x: T1nL1n) -> T1nL1n:
    return tau_inv(inv_hat2(tau(x)))


def inv_deleon_1(x: Pair) -> Pair:
    a, f = x
    sa = a.scaled
    a_inv = sc.s_matinv(sa)
    bilinear = sc.s_law((-1, sa, f.scaled, a_inv, a_inv))
    return SquareMatrix._of(a_inv), Bilinear._of(bilinear)


def inv_deleon_2(x: Pair) -> Pair:
    a, f = x
    sa = a.scaled
    a_inv = sc.s_matinv(sa)
    bilinear = sc.s_law((-1, a_inv, f.scaled, sa, sa))
    return SquareMatrix._of(a_inv), Bilinear._of(bilinear)


# ---------------------------------------------------------------------------
# conjugation and the symmetric/skew decomposition


def conj_hat2(outer: GHat2, inner: GHat2) -> GHat2:
    """(a, f)(b, g)(a, f)^-1 = (c, H(u, u)) for u = a^-1, c = a b u and
    H = a o g + f(b, b) - c o f, as f(b u, b u) = f(b, b)(u, u) and
    c o f(u, u) = (c o f)(u, u)."""
    a, f = outer.a.scaled, outer.f.scaled
    b, g = inner.a.scaled, inner.f.scaled
    u = sc.s_matinv(a)
    c = sc.s_matmul(sc.s_matmul(a, b), u)
    h = sc.s_law((1, a, g, None, None), (1, None, f, b, b), (-1, c, f, None, None))
    return GHat2._trusted(SquareMatrix._of(c), Bilinear._of(sc.s_pre(h, u, u)))


def skew_factor(a: SquareMatrix, f: Bilinear) -> Bilinear:
    """a^-1 o skew_part(f): the skew h with (a, f) = (a, sym_part(f)) * (I, h)."""
    return Bilinear._of(sc.s_post(sc.s_matinv(a.scaled), sc.s_skew(f.scaled)))


def contract_second(f: Bilinear, m: SquareMatrix) -> Bilinear:
    """f(I, m): feed the second argument slot of f through m."""
    return Bilinear._of(sc.s_pre_right(f.scaled, m.scaled))


def decompose_hat2(x: GHat2) -> tuple[G2, Bilinear]:
    """Split (a, f) = (a, f_s) * (I, a^-1 o f_a); the pair is unique."""
    return G2._trusted(x.a, sym_part(x.f)), skew_factor(x.a, x.f)


def in_g2(x: GHat2) -> bool:
    return is_symmetric(x.f)


def in_g1_x_a2(x: GHat2) -> bool:
    return is_skew(x.f)


# ---------------------------------------------------------------------------
# the quotient by skew maps


@value_type
class QuotClassHat(_Element):
    """A class of GHat2 elements that differ by a right factor (I, skew).

    Stored by its canonical representative: the unique member whose bilinear
    part is symmetric.  Two elements land in the same class exactly when
    their matrix parts agree and their symmetric parts agree.
    """

    a: SquareMatrix
    f_sym: Bilinear
    _rule = (is_symmetric, "canonical representative must be symmetric")

    @classmethod
    def of(cls, x: GHat2) -> "QuotClassHat":
        return cls._trusted(x.a, sym_part(x.f))

    def representative(self) -> GHat2:
        return GHat2._trusted(self.a, self.f_sym)


def mul_quot(x: QuotClassHat, y: QuotClassHat) -> QuotClassHat:
    """Class product: multiply representatives, then re-canonicalize."""
    a, f = law_hat2(x.a, x.f_sym, y.a, y.f_sym)
    return QuotClassHat._trusted(a, sym_part(f))


def coset_equal(x: GHat2, y: GHat2) -> bool:
    return x.a == y.a and sym_part(x.f) == sym_part(y.f)


def mu(c: QuotClassHat) -> G2:
    return G2._trusted(c.a, c.f_sym)


def mu_inv(g: G2) -> QuotClassHat:
    return QuotClassHat._trusted(g.a, g.f)


# ---------------------------------------------------------------------------
# the isomorphism with T1nL1n


def tau(x: T1nL1n) -> GHat2:
    return GHat2._trusted(x.a, contract_second(x.f, x.a))


def tau_inv(y: GHat2) -> T1nL1n:
    return T1nL1n._trusted(y.a, Bilinear._of(
        sc.s_pre_right(y.f.scaled, sc.s_matinv(y.a.scaled))))


# ---------------------------------------------------------------------------
# the group tags


@value_type
class Group(Value):
    """What a group tag stands for: the element type, its product, its inverse."""

    type: type
    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]


GROUPS: dict[str, Group] = {
    "tilde2": Group(GTilde2, mul_tilde2, inv_tilde2),
    "hat2": Group(GHat2, mul_hat2, inv_hat2),
    "g2": Group(G2, mul_g2, inv_g2),
    "tilde21": Group(GTilde21, mul_tilde21, inv_tilde21),
    "tilde22": Group(GTilde22, mul_tilde22, inv_tilde22),
    "t1n": Group(T1nL1n, mul_t1n, inv_t1n),
}

"""Truncated second-order Taylor calculus: the independent ground truth.

A ``Map2Jet`` is the order-2 Taylor data of a map R^n -> R^n at a base
point: value, Jacobian and symmetric Hessian tensor, where
``hess[k][i][j]`` is the second partial of component ``k`` by arguments
``i`` and ``j``.  The represented map is

    F(base + r) = value + jac . r + 1/2 hess(r, r) + O(r^3),

so a pair (a, f) with symmetric f encodes as jac = a, hess = f with no
extra factor: the 1/2 lives in the evaluation above, not in the stored
tensor.

Both jet types are ``matrices.Checked`` types, checked by its one rule:
parts of one dimension and, for ``Map2Jet``, a symmetric Hessian.  Their
matrices may be singular (``_invertible = False``); ``left_act_diffeo`` and
``frame_from_fm_map``, which need them invertible, raise ``NotAFrameError``.

Everything here re-derives compositions and frame actions from the chain
rule with its own loops over the stored integers (``ints``/``den``) of
matrices and bilinear maps, whose plane k holds [l][j] at l*n + j: each
operand is transposed once, and every entry is an inner product of a row
with a column.  It intentionally does not call the contraction kernels of
the core algebra, so agreement between this module and the group laws is a
genuine cross-check of two implementations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .bilinear import Bilinear, is_symmetric
from .errors import CompositionDomainError, NotAFrameError
from .frames import NonHolFrame, Point
from .groups import G2
from .matrices import Checked, SquareMatrix, det, value_type


@value_type
class Map2Jet(Checked):
    """The 2-jet (base, value, jac, hess) of a map R^n -> R^n."""

    base: Point
    value: Point
    jac: SquareMatrix
    hess: Bilinear
    _invertible = False
    _rule = (is_symmetric, "hessian must be symmetric in its argument slots")

    @classmethod
    def identity(cls, base: Point) -> "Map2Jet":
        n = len(base)
        return cls(base, base, SquareMatrix.identity(n), Bilinear.zero(n))


@value_type
class FMJetData(Checked):
    """Raw 1-jet data of a frame-field map r -> (phi(r), phi_lin(r)).

    ``phi0`` and ``phi_lin`` are the values at 0 of the base map and the
    frame part; ``dphi`` and ``dphi_lin`` are their first derivatives at 0,
    with ``dphi_lin.coeffs[k][l][j]`` the derivative of entry (k, l) by
    ``r^j``.
    """

    phi0: Point
    phi_lin: SquareMatrix
    dphi: SquareMatrix
    dphi_lin: Bilinear
    _invertible = False


def _matmul(x, y) -> SquareMatrix:
    """x y on scaled matrices, one inner product per entry."""
    (xi, xd), (yi, yd) = x, y
    cols = list(zip(*yi))
    return SquareMatrix._of(([[sum(map(mul, row, col)) for col in cols] for row in xi],
                             xd * yd))


def _chain_rule(jac, f, hess, a, b) -> Bilinear:
    """jac o f + hess(a, b) on scaled operands: the second-order chain rule.

    Entry [k][l][j] is m1 * sum_m jac[k][m] f[m][l][j]
    + m2 * sum_m a[m][l] (sum_p hess[k][m][p] b[p][j]), with m1 and m2
    bringing the two sums to the lcm of their denominators.
    """
    (J, Jd), (F, Fd), (H, Hd), (A, Ad), (B, Bd) = jac, f, hess, a, b
    den1 = Jd * Fd
    den2 = Hd * Ad * Bd
    common = lcm(den1, den2)
    m1 = common // den1
    m2 = common // den2
    n = len(J)
    a_cols = list(zip(*A))
    b_cols = list(zip(*B))
    # f_cols[l*n + j][m] = f[m][l][j]; hb[k][j][m] = sum_p hess[k][m][p] b[p][j]
    f_cols = list(zip(*F))
    hb = [[[sum(map(mul, row, col)) for row in rows] for col in b_cols]
          for rows in ([Hk[r:r + n] for r in range(0, n * n, n)] for Hk in H)]
    return Bilinear._of((
        [[m1 * sum(map(mul, Jk, f_col)) + m2 * sum(map(mul, a_col, hb_col))
          for f_col, (a_col, hb_col) in zip(f_cols, product(a_cols, hb_k))]
         for Jk, hb_k in zip(J, hb)],
        common))


def compose_2jets(g: Map2Jet, f: Map2Jet) -> Map2Jet:
    """Jet of g o f by the truncated chain rule; needs g.base == f.value."""
    if g.n != f.n:
        raise CompositionDomainError("jets of different dimension")
    if g.base != f.value:
        raise CompositionDomainError("outer jet is not based at the inner value")
    fj = f.jac.scaled
    jac = _matmul(g.jac.scaled, fj)
    hess = _chain_rule(g.jac.scaled, f.hess.scaled, g.hess.scaled, fj, fj)
    return Map2Jet(f.base, g.value, jac, hess)


def _jet_of_pair(a: SquareMatrix, f: Bilinear) -> Map2Jet:
    """The jet at the origin of the parts of a checked ``G2``."""
    origin = (Fraction(0),) * a.n
    return Map2Jet._trusted(origin, origin, a, f)


def g2_law_via_jets(p: G2, q: G2) -> G2:
    """Product of two symmetric pairs computed purely by jet composition."""
    composed = compose_2jets(_jet_of_pair(p.a, p.f), _jet_of_pair(q.a, q.f))
    return G2(composed.jac, composed.hess)


def frame_from_fm_map(d: FMJetData) -> NonHolFrame:
    """Read the frame (phi0, phi_lin, dphi, dphi_lin) off frame-field data."""
    if det(d.dphi) == 0:
        raise NotAFrameError("base-map derivative is singular")
    if det(d.phi_lin) == 0:
        raise NotAFrameError("frame part is singular")
    # d has one dimension, and both determinants were taken above
    return NonHolFrame._trusted(d.phi0, d.phi_lin, d.dphi, d.dphi_lin)


def left_act_diffeo(F: Map2Jet, q: NonHolFrame) -> NonHolFrame:
    """Push a frame forward along the prolongation of a local diffeo.

    The frame field r -> (phi(r), PHI(r)) maps to
    r -> (F(phi(r)), DF(phi(r)) . PHI(r)); differentiating at 0 gives

        x' = F(x),  a' = DF(x) a,  b' = DF(x) b,
        f'[k][l][j] = sum_m DF[k][m] f[m][l][j]
                    + sum_{m,p} D2F[k][m][p] a[m][l] b[p][j].
    """
    if F.n != q.n:
        raise CompositionDomainError("jet and frame dimensions differ")
    if F.base != q.x:
        raise CompositionDomainError("jet is not based at the frame's point")
    if det(F.jac) == 0:
        raise NotAFrameError("jet is not a local diffeomorphism")
    J = F.jac.scaled
    f = _chain_rule(J, q.f.scaled, F.hess.scaled, q.a.scaled, q.b.scaled)
    # DF(x) is invertible (checked above), so a' and b' are
    return NonHolFrame._trusted(F.value, _matmul(J, q.a.scaled),
                                _matmul(J, q.b.scaled), f)

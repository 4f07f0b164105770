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
rule (``_chain_rule``) with its own code over the stored integers
(``ints``/``den``) of matrices and bilinear maps.  It intentionally does not
call the contraction kernels of the core algebra, so agreement between this
module and the group laws is a genuine cross-check of two implementations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import lshift, mul

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


def _bits(rows) -> int:
    """The largest bit length of |x| over the int rows ``rows``."""
    return max(map(int.bit_length, chain.from_iterable(rows)))


def _chain_rule(jac, f, hess, a, b) -> Bilinear:
    """jac o f + hess(a, b) on scaled operands: the second-order chain rule.

    Entry [k][l][j] is sum_m jac[k][m] f[m][l][j]
    + sum_m a[m][l] (sum_p hess[k][m][p] b[p][j]), over the lcm L of the
    denominators of the two sums: jac is first scaled by L / (den jac den f)
    and a by L / (den hess den a den b).

    Packing.  The index j rides in one integer: a vector v_0..v_{n-1} is
    held as V(v) = sum_j v_j 2^(w j).  The rows of b and the rows [l] of the
    planes of f are packed once; then sum_p hess[k][m][p] V(b[p]) is
    V(hess_k b)[m], and the packed entry [k][l] is
    sum_m jac[k][m] V(f[m][l]) + sum_m a[m][l] V(hess_k b)[m].  That is
    3 n^3 multiply-adds of a small int with a packed one in all, where
    unpacked sums take 3 n^4 multiplies.  V is linear, so each packed entry
    equals V(out[k][l]) exactly, whatever carries pass between its fields.

    Width.  Let bits(x) be the largest bit length of |entry| of x, after the
    scaling, and g = ceil(log2 n): a sum of n terms is below 2^g times the
    bound of one.  So |first sum| < 2^(bits(jac) + bits(f) + g) and
    |second sum| < 2^(bits(hess) + bits(a) + bits(b) + 2 g), and every
    |out| < 2^(w - 1) for

        w = 2 + max(bits(jac) + bits(f) + g, bits(hess) + bits(a) + bits(b) + 2 g).

    Adding h = 2^(w-1) to each field puts out + h in [0, 2^w): one field,
    carrying into no other, so (y >> w j) & (2^w - 1), less h, is entry j
    of y = V(out + h).  A y below 0 or at least 2^(n w) cannot come from
    fields in bounds: the unpack raises ``OverflowError`` for it rather than
    read wrong fields.
    """
    (J, Jd), (F, Fd), (H, Hd), (A, Ad), (B, Bd) = jac, f, hess, a, b
    den1 = Jd * Fd
    den2 = Hd * Ad * Bd
    common = lcm(den1, den2)
    if common != den1:
        J = [[common // den1 * x for x in row] for row in J]
    if common != den2:
        A = [[common // den2 * x for x in row] for row in A]
    n = len(J)
    g = (n - 1).bit_length()
    w = 2 + max(_bits(J) + _bits(F) + g, _bits(H) + _bits(A) + _bits(B) + 2 * g)
    fields = range(0, n * w, w)
    starts = range(0, n * n, n)

    def pack(v):
        return sum(map(lshift, v, fields))

    # f_cols[l][m] = V(f[m][l]), a_cols[l][m] = a[m][l]
    f_cols = list(zip(*[[pack(Fm[r:r + n]) for r in starts] for Fm in F]))
    a_cols = list(zip(*A))
    b_rows = [pack(row) for row in B]
    h = 1 << (w - 1)
    mask = (1 << w) - 1
    lift = pack([h] * n)
    out = []
    for Jk, Hk in zip(J, H):
        hb = [sum(map(mul, Hk[r:r + n], b_rows)) for r in starts]
        ys = [sum(map(mul, Jk, f_col), sum(map(mul, a_col, hb), lift))
              for f_col, a_col in zip(f_cols, a_cols)]
        if min(ys) < 0 or max(ys) >> (n * w):
            raise OverflowError("_chain_rule: a field exceeds its width")
        out.append([((y >> s) & mask) - h for y in ys for s in fields])
    return Bilinear._of((out, common))


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

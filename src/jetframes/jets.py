"""Truncated second-order Taylor calculus: the independent ground truth.

A ``Map2Jet`` is the order-2 Taylor data of a map R^n -> R^n at a base
point: value, Jacobian and symmetric Hessian tensor, where
``hess[k][i][j]`` is the second partial of component ``k`` by arguments
``i`` and ``j``.  The represented map is

    F(base + r) = value + jac . r + 1/2 hess(r, r) + O(r^3),

so a pair (a, f) with symmetric f encodes as jac = a, hess = f with no
extra factor: the 1/2 lives in the evaluation above, not in the stored
tensor.

Everything here re-derives compositions and frame actions from the chain
rule with its own index loops over the stored integers (``ints``/``den``)
of matrices and bilinear maps.  It intentionally does not call the
contraction kernels of the core algebra, so agreement between this module
and the group laws is a genuine cross-check of two implementations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bilinear import Bilinear, is_symmetric
from .errors import CompositionDomainError, NotAFrameError
from .frames import NonHolFrame, Point
from .groups import G2
from .matrices import SquareMatrix, Value, det, value_type


@value_type
class Map2Jet(Value):
    """The 2-jet (base, value, jac, hess) of a map R^n -> R^n."""

    base: Point
    value: Point
    jac: SquareMatrix
    hess: Bilinear

    def __post_init__(self) -> None:
        n = self.jac.n
        if len(self.base) != n or len(self.value) != n or self.hess.n != n:
            raise ValueError("dimension mismatch between components")
        if not is_symmetric(self.hess):
            raise ValueError("hessian must be symmetric in its argument slots")

    @property
    def n(self) -> int:
        return self.jac.n

    @classmethod
    def identity(cls, base: Point) -> "Map2Jet":
        n = len(base)
        return cls(base, base, SquareMatrix.identity(n), Bilinear.zero(n))


@value_type
class FMJetData(Value):
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

    def __post_init__(self) -> None:
        n = self.phi_lin.n
        if len(self.phi0) != n or self.dphi.n != n or self.dphi_lin.n != n:
            raise ValueError("dimension mismatch between components")

    @property
    def n(self) -> int:
        return self.phi_lin.n


def compose_2jets(g: Map2Jet, f: Map2Jet) -> Map2Jet:
    """Jet of g o f by the truncated chain rule; needs g.base == f.value."""
    if g.n != f.n:
        raise CompositionDomainError("jets of different dimension")
    if g.base != f.value:
        raise CompositionDomainError("outer jet is not based at the inner value")
    n = g.n
    gj, gjd = g.jac.ints, g.jac.den
    fj, fjd = f.jac.ints, f.jac.den
    gh, ghd = g.hess.ints, g.hess.den
    fh, fhd = f.hess.ints, f.hess.den
    rng = range(n)
    jac = SquareMatrix._of(([[sum(gj[k][m] * fj[m][i] for m in rng) for i in rng]
                             for k in rng], gjd * fjd))
    # common denominator for gj.fh (gjd*fhd) and gh.fj.fj (ghd*fjd*fjd)
    den1 = gjd * fhd
    den2 = ghd * fjd * fjd
    common = lcm(den1, den2)
    m1 = common // den1
    m2 = common // den2
    # sum_{p,q} gh[k][p][q] fj[p][i] fj[q][j], contracted one slot at a time
    ghf = [[[sum(gh[k][p][q] * fj[q][j] for q in rng) for j in rng]
            for p in rng] for k in rng]
    hess = Bilinear._of((
        [[[m1 * sum(gj[k][m] * fh[m][i][j] for m in rng)
           + m2 * sum(fj[p][i] * ghf[k][p][j] for p in rng)
           for j in rng] for i in rng] for k in rng],
        common))
    return Map2Jet(f.base, g.value, jac, hess)


def _jet_of_pair(a: SquareMatrix, f: Bilinear) -> Map2Jet:
    origin = (Fraction(0),) * a.n
    return Map2Jet(origin, origin, a, f)


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
    return NonHolFrame(d.phi0, d.phi_lin, d.dphi, d.dphi_lin)


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
    n = q.n
    J, Jd = F.jac.ints, F.jac.den
    H, Hd = F.hess.ints, F.hess.den
    A, Ad = q.a.ints, q.a.den
    B, Bd = q.b.ints, q.b.den
    f, fd = q.f.ints, q.f.den
    rng = range(n)
    a_new = SquareMatrix._of(([[sum(J[k][m] * A[m][i] for m in rng) for i in rng]
                               for k in rng], Jd * Ad))
    b_new = SquareMatrix._of(([[sum(J[k][m] * B[m][i] for m in rng) for i in rng]
                               for k in rng], Jd * Bd))
    den1 = Jd * fd
    den2 = Hd * Ad * Bd
    common = lcm(den1, den2)
    m1 = common // den1
    m2 = common // den2
    # sum_{m,p} H[k][m][p] A[m][l] B[p][j], contracted one slot at a time
    HB = [[[sum(H[k][m][p] * B[p][j] for p in rng) for j in rng]
           for m in rng] for k in rng]
    f_new = Bilinear._of((
        [[[m1 * sum(J[k][m] * f[m][l][j] for m in rng)
           + m2 * sum(A[m][l] * HB[k][m][j] for m in rng)
           for j in rng] for l in rng] for k in rng],
        common))
    # DF(x) is invertible (checked above), so a' and b' are
    return NonHolFrame._trusted(F.value, a_new, b_new, f_new)

"""Coordinate models of second-order frames over the single global chart R^n.

A frame is stored as its base point plus a group part; the right actions of
the structure groups are then just the group laws applied to the group part,
with the base point fixed.  Each kind, and the linear frame (x, a), is a
``matrices.Checked`` value type whose fields are x, the matrices and the
bilinear part in order, so one check serves every constructor: a base point
and parts of one dimension, invertible matrices, and a symmetric f where the
kind declares it (``HolFrame``); ``ExtClass`` declares its canonical form
the same way.  Three kinds exist:

* ``NonHolFrame``  (x, a, b, f): two independent invertible matrices and an
  unrestricted bilinear part.
* ``SemiHolFrame`` (x, a, f): the two matrices agree; embedding into the
  non-holonomic model sets b := a.
* ``HolFrame``     (x, a, f): additionally f is symmetric in its two
  argument slots.

The projection ``proj_pi`` from non-holonomic to semi-holonomic frames
follows the coordinate formula (x, a, f(I, a)) literally, contracting the
second argument slot of f with the a-part.  Note that this contraction uses
a and not b, so embedded semi-holonomic frames are not fixed pointwise
unless a = I; see the README for the consequences on orbit invariance of the
composed projection ``proj_tilde22``.
"""

from __future__ import annotations

from fractions import Fraction

from .bilinear import Bilinear, is_skew, is_symmetric, sym_part
from .groups import (
    G2,
    GHat2,
    GTilde2,
    GTilde22,
    contract_second,
    inv_g2,
    law_hat2,
    law_tilde2,
    mul_hat2,
    skew_factor,
)
from .matrices import Checked, SquareMatrix, value_type

Point = tuple[Fraction, ...]


@value_type
class NonHolFrame(Checked):
    """A non-holonomic frame (x, a, b, f)."""

    x: Point
    a: SquareMatrix
    b: SquareMatrix
    f: Bilinear


@value_type
class SemiHolFrame(Checked):
    """A semi-holonomic frame (x, a, f)."""

    x: Point
    a: SquareMatrix
    f: Bilinear


@value_type
class HolFrame(Checked):
    """A holonomic frame (x, a, f): f is symmetric."""

    x: Point
    a: SquareMatrix
    f: Bilinear
    _rule = (is_symmetric, "holonomic frame needs a symmetric bilinear part")


@value_type
class LinFrame(Checked):
    """A linear frame (x, a)."""

    x: Point
    a: SquareMatrix


AnySecondOrderFrame = NonHolFrame | SemiHolFrame | HolFrame


# ---------------------------------------------------------------------------
# embeddings and classification


def embed_hol(q: HolFrame) -> SemiHolFrame:
    return SemiHolFrame._trusted(q.x, q.a, q.f)


def embed_semihol(q: SemiHolFrame) -> NonHolFrame:
    return NonHolFrame._trusted(q.x, q.a, q.a, q.f)


def classify(q: NonHolFrame) -> str:
    """Strongest class of a frame: holonomic > semiholonomic > nonholonomic."""
    if q.a != q.b:
        return "nonholonomic"
    if is_symmetric(q.f):
        return "holonomic"
    return "semiholonomic"


# ---------------------------------------------------------------------------
# right actions (base point fixed, group law on the group part)


def act_nonhol(q: NonHolFrame, g: GTilde2) -> NonHolFrame:
    return NonHolFrame._trusted(q.x, *law_tilde2(q.a, q.b, q.f, g.a, g.b, g.f))


def act_semihol(q: SemiHolFrame, g: GHat2 | G2) -> SemiHolFrame:
    return SemiHolFrame._trusted(q.x, *law_hat2(q.a, q.f, g.a, g.f))


def act_hol(q: HolFrame, g: G2) -> HolFrame:
    return HolFrame._trusted(q.x, *law_hat2(q.a, q.f, g.a, g.f))


def act_tilde22(q: NonHolFrame, g: GTilde22) -> NonHolFrame:
    """Right action (x, a, b, f)(I, l, h) = (x, a, bl, a o h + f(I, l))."""
    eye = SquareMatrix.identity(q.n)
    return NonHolFrame._trusted(q.x, *law_tilde2(q.a, q.b, q.f, eye, g.l, g.h))


# ---------------------------------------------------------------------------
# projections


def proj_pi(q: NonHolFrame) -> SemiHolFrame:
    """Drop b and contract: (x, a, b, f) -> (x, a, f(I, a))."""
    return SemiHolFrame._trusted(q.x, q.a, contract_second(q.f, q.a))


def proj_hat22(q: SemiHolFrame | HolFrame) -> HolFrame:
    """Symmetrize the bilinear part: (x, a, f) -> (x, a, sym_part(f))."""
    return HolFrame._trusted(q.x, q.a, sym_part(q.f))


def proj_tilde22(q: NonHolFrame) -> HolFrame:
    return proj_hat22(proj_pi(q))


def proj_21(q: AnySecondOrderFrame) -> LinFrame:
    return LinFrame._trusted(q.x, q.a)


def proj_20(q: AnySecondOrderFrame) -> Point:
    return q.x


def proj_10(q: LinFrame) -> Point:
    return q.x


def fiber_hat22_contains(q: HolFrame, p: SemiHolFrame) -> bool:
    """Is p in the fiber of ``proj_hat22`` over q (i.e. p = q . (I, skew))?"""
    return p.x == q.x and p.a == q.a and sym_part(p.f) == q.f


# ---------------------------------------------------------------------------
# the extension model of semi-holonomic frames


@value_type
class ExtClass(Checked):
    """A class [(p, k)] with p holonomic and k a GHat2 element.

    (p, k) and (p auto, auto^-1 k) are identified for every symmetric-group
    element auto; the stored representative is canonical with k = (I, h),
    h skew, obtained by absorbing the symmetric part of k into p.  Build
    instances through ``ext_class`` unless the data is already canonical.
    """

    p: HolFrame
    k: GHat2
    _rule = (lambda k: k.a.is_identity() and is_skew(k.f),
             "canonical class needs k = (I, h) with h skew; use ext_class()")


def ext_class(p: HolFrame, k: GHat2) -> ExtClass:
    """Canonicalize (p, k): absorb (k.a, sym k.f) into p, leaving (I, skew)."""
    alpha = G2._trusted(k.a, sym_part(k.f))
    p_new = act_hol(p, alpha)
    k_new = mul_hat2(inv_g2(alpha), k)
    return ExtClass._trusted(p_new, k_new)


def theta(c: ExtClass) -> SemiHolFrame:
    """Evaluate the class: [(p, k)] -> p . k as a semi-holonomic frame."""
    return act_semihol(embed_hol(c.p), c.k)


def theta_inv(q: SemiHolFrame) -> ExtClass:
    p = HolFrame._trusted(q.x, q.a, sym_part(q.f))
    return ExtClass._trusted(p, GHat2.from_bilinear(skew_factor(q.a, q.f)))


# ---------------------------------------------------------------------------
# the principal structure of proj_hat22


def omega(member: SemiHolFrame) -> HolFrame:
    """Image of the skew-orbit of ``member``; independent of the member."""
    return proj_hat22(member)


def sigma(p: SemiHolFrame) -> Bilinear:
    """Skew fiber coordinate of the trivialization over holonomic frames.

    Defined by (a, f) = (a, sym_part(f)) * (I, sigma(p)) in GHat2, which
    solves to a^-1 o skew_part(f).
    """
    return skew_factor(p.a, p.f)

"""Chart independence: the structure maps commute with the prolonged action
of a local diffeomorphism.

jetframes models one chart, R^n.  A coordinate formula defines a map of
frame bundles over a manifold only if it commutes with
``jets.left_act_diffeo``, the push of a frame along the 2-jet F of a local
diffeomorphism based at the frame's point.  Semi-holonomic and holonomic
frames are pushed through their embedding and read back as (x, a, f), a
linear frame as (F(x), DF(x) a).

``proj_pi`` does not commute: its contraction f(I, a) uses the frame's own
a, which F moves to DF(x) a.  ``test_proj_pi_is_not_natural`` pins the
n = 1 counterexample (README, "A check that fails, and why").
"""

from fractions import Fraction
from functools import partial

import pytest

from jetframes import frames as fr
from jetframes import randgen as rg
from jetframes.bilinear import Bilinear
from jetframes.jets import Map2Jet, left_act_diffeo
from jetframes.matrices import SquareMatrix

TRIALS = 10


def push(F: Map2Jet, q):
    """F . q, a frame of the kind of q."""
    if isinstance(q, fr.LinFrame):
        return fr.LinFrame(F.value, F.jac @ q.a)
    if isinstance(q, fr.NonHolFrame):
        return left_act_diffeo(F, q)
    lifted = fr.embed_hol(q) if isinstance(q, fr.HolFrame) else q
    moved = left_act_diffeo(F, fr.embed_semihol(lifted))
    assert moved.b == moved.a
    return type(q)(moved.x, moved.a, moved.f)  # a HolFrame checks symmetry


# name -> (the kind of frame q, case): case(push, q, rng, n) gives the two
# sides, m(F . q) and F . m(q), of the structure map m
CASES = {}


def case(kind: str):
    def register(fn):
        CASES[fn.__name__] = (kind, fn)
        return fn
    return register


@case("nonhol")
def act_nonhol(push, q, rng, n):
    g = rg.rand_tilde2(rng, n)
    return fr.act_nonhol(push(q), g), push(fr.act_nonhol(q, g))


@case("semihol")
def act_semihol(push, q, rng, n):
    g = rg.rand_hat2(rng, n)
    return fr.act_semihol(push(q), g), push(fr.act_semihol(q, g))


@case("hol")
def act_hol(push, q, rng, n):
    g = rg.rand_g2(rng, n)
    return fr.act_hol(push(q), g), push(fr.act_hol(q, g))


@case("nonhol")
def act_tilde22(push, q, rng, n):
    g = rg.rand_tilde22(rng, n)
    return fr.act_tilde22(push(q), g), push(fr.act_tilde22(q, g))


@case("hol")
def embed_hol(push, q, rng, n):
    return fr.embed_hol(push(q)), push(fr.embed_hol(q))


@case("semihol")
def embed_semihol(push, q, rng, n):
    return fr.embed_semihol(push(q)), push(fr.embed_semihol(q))


@case("semihol")
def proj_hat22(push, q, rng, n):
    return fr.proj_hat22(push(q)), push(fr.proj_hat22(q))


@case("nonhol")
def proj_21(push, q, rng, n):
    return fr.proj_21(push(q)), push(fr.proj_21(q))


@case("semihol")
def omega(push, q, rng, n):
    return fr.omega(push(q)), push(fr.omega(q))


@case("semihol")
def theta_after_theta_inv(push, q, rng, n):
    return (fr.theta(fr.theta_inv(push(q))),
            push(fr.theta(fr.theta_inv(q))))


@case("semihol")
def sigma_is_invariant(push, q, rng, n):
    return fr.sigma(push(q)), fr.sigma(q)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", CASES)
def test_structure_map_commutes_with_the_prolonged_action(name, n):
    kind, sides = CASES[name]
    for trial in range(TRIALS):
        rng = rg.stream(1701, "naturality", name, n, trial)
        q = getattr(rg, f"rand_{kind}")(rng, n)
        F = rg.rand_map2jet(rng, n, base=q.x)
        lhs, rhs = sides(partial(push, F), q, rng, n)
        assert lhs == rhs, (trial, lhs, rhs)


def test_proj_pi_is_not_natural():
    """At n = 1, x = 0, a = b = f = 1, DF = 2 and D2F = 0: projecting, then
    pushing, gives f = 2; pushing, then projecting, gives f = 4."""
    one = SquareMatrix.from_rows([[1]])
    origin = (Fraction(0),)
    q = fr.NonHolFrame(origin, one, one, Bilinear.single(1, 0, 0, 0))
    F = Map2Jet(origin, origin, SquareMatrix.from_rows([[2]]), Bilinear.zero(1))
    assert push(F, fr.proj_pi(q)).f == Bilinear.single(1, 0, 0, 0, 2)
    assert fr.proj_pi(push(F, q)).f == Bilinear.single(1, 0, 0, 0, 4)

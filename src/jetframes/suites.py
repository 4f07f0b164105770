"""Named verification suites over seeded random instances.

Each suite is a tuple of properties.  A property takes a dimension and a
dedicated random stream, checks one exact identity on freshly generated data
and returns ``(held, witness)``: whether the identity held, and a dict of the
raw values that make up its counterexample.  It is written in one of two ways:

- a check on its inputs, declared with ``draws``: the witness is the inputs
  by parameter name, then the extra values the check returns;
- a plain ``(n, rng)`` function, for a property that draws after a check,
  or draws an input that depends on an earlier one or may be absent.

Either carries its property's name; a factory-built one is named by its
``Property``.  A witness holds only values the check has already computed,
so a passing trial does no work for it; a vacuous trial passes, so its
witness is never reported.  The runner executes every property for each
requested dimension and trial index, with the per-trial stream derived from
``(seed, suite, property, n, trial)``; it counts a failure whenever ``held``
is false and turns the witness of the first failure alone into documents
(``_witness``), so any failure is reproducible from the (seed, trial-index)
pair printed in the report.

All comparisons are exact equality of rationals; there are no tolerances
anywhere.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

from . import randgen as rg
from .bilinear import (
    Bilinear,
    is_skew,
    is_symmetric,
    post_compose,
    pre_compose,
    skew_part,
    sym_part,
    transpose,
)
from .frames import (
    NonHolFrame,
    SemiHolFrame,
    act_hol,
    act_nonhol,
    act_semihol,
    act_tilde22,
    classify,
    embed_hol,
    embed_semihol,
    ext_class,
    fiber_hat22_contains,
    omega,
    proj_10,
    proj_20,
    proj_21,
    proj_hat22,
    proj_pi,
    proj_tilde22,
    sigma,
    theta,
    theta_inv,
)
from .groups import (
    GROUPS,
    G2,
    GHat2,
    GTilde2,
    GTilde21,
    GTilde22,
    Group,
    conj_hat2,
    coset_equal,
    decompose_hat2,
    inv_deleon_1,
    inv_deleon_2,
    inv_g2,
    inv_hat2,
    mu,
    mu_inv,
    mul_deleon_1,
    mul_deleon_2,
    mul_g2,
    mul_hat2,
    mul_quot,
    mul_t1n,
    mul_t1n_coordinate,
    mul_tilde21,
    mul_tilde22,
    tau,
    tau_inv,
)
from .jets import Map2Jet, compose_2jets, g2_law_via_jets, left_act_diffeo
from .matrices import SquareMatrix, Value, mat_inv, mat_mul, value_type
from .randgen import SplitMix64, stream
from .serialize import to_doc

PropertyFn = Callable[[int, SplitMix64], tuple[bool, dict[str, Any]]]


@value_type
class Property(Value):
    """A named property; a tracer may replace ``fn`` in place."""

    name: str
    fn: PropertyFn


@value_type
class Suite(Value):
    """A plain function in ``properties`` becomes the property of its name."""

    name: str
    description: str
    properties: tuple[Property, ...]

    def __post_init__(self):
        object.__setattr__(self, "properties", tuple(
            p if isinstance(p, Property) else Property(p.__name__, p)
            for p in self.properties))


@value_type
class PropertyResult(Value):
    """A property's trials and failures over every n, and a witness."""

    name: str
    passed: bool
    trials_run: int
    failures: int
    counterexample: dict | None

    def to_doc(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self.__match_args__}


@value_type
class SuiteReport(Value):
    """A suite's property results at the dimensions ``ns``."""

    suite: str
    ns: tuple[int, ...]
    trials: int
    seed: int
    properties: tuple[PropertyResult, ...]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_doc(self) -> dict[str, Any]:
        return {
            "suite": self.suite,
            "ns": list(self.ns),
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "properties": [p.to_doc() for p in self.properties],
            "wall_time_s": self.wall_time_s,
        }


def draws(*kinds: str) -> Callable[[Callable], PropertyFn]:
    """``draws(*kinds)(check)``: the property, named after ``check``, that
    passes it one ``randgen.rand_<kind>(rng, n)`` per kind, in order.

    ``check`` returns ``held`` or ``(held, extra)``.  The witness is the
    inputs by parameter name, then ``extra``, whose keys replace an input's
    value in place.  Each generator is looked up when the trial runs, so one
    replaced in ``randgen`` is the one called.
    """
    names = tuple(f"rand_{kind}" for kind in kinds)

    def declare(check: Callable) -> PropertyFn:
        params = check.__code__.co_varnames[:len(names)]

        def prop(n, rng):
            inputs = [getattr(rg, name)(rng, n) for name in names]
            out = check(*inputs)
            held, extra = out if type(out) is tuple else (out, {})
            return held, dict(zip(params, inputs), **extra)
        prop.__name__ = check.__name__
        return prop
    return declare


def _witness(**objs: Any) -> dict[str, Any]:
    """The counterexample payload of a witness: values become their
    documents, while strings (reasons) and lists (check results) are kept as
    they are."""
    return {key: value if isinstance(value, (str, list)) else to_doc(value)
            for key, value in objs.items()}


# ---------------------------------------------------------------------------
# core algebra identities


def _parts_commute(name: str, post: bool) -> Property:
    """transpose, sym_part and skew_part commute with a o f (``post``) or
    with the diagonal pre-composition f(a, a)."""
    @draws("invertible", "bilinear")
    def prop(a, f):
        def compose(g):
            return post_compose(a, g) if post else pre_compose(g, a, a)

        return all(part(compose(f)) == compose(part(f))
                   for part in (transpose, sym_part, skew_part))
    return Property(name, prop)


@draws("bilinear")
def sym_plus_skew_recovers(f):
    fs, fa = sym_part(f), skew_part(f)
    return (fs + fa == f and is_symmetric(fs) and is_skew(fa)
            and sym_part(fs) == fs and skew_part(fs).is_zero())


@draws("invertible", "invertible", "invertible", "bilinear")
def post_and_pre_commute(a, b, c, f):
    lhs = pre_compose(post_compose(a, f), b, c)
    return lhs == post_compose(a, pre_compose(f, b, c))


# ---------------------------------------------------------------------------
# group law axioms


def _deleon_gen(rng, n):
    return (rg.rand_invertible(rng, n), rg.rand_bilinear(rng, n))


def _deleon_identity(n):
    return (SquareMatrix.identity(n), Bilinear.zero(n))


# The alternative laws act on plain (matrix, bilinear) tuples; they have no
# element type or group tag of their own.
_DELEON = {
    "deleon1": Group(tuple, mul_deleon_1, inv_deleon_1),
    "deleon2": Group(tuple, mul_deleon_2, inv_deleon_2),
}


def _law(tag: str):
    """Generator (``randgen.rand_<tag>``), product, inverse and identity of a
    law, read when a trial runs so that a function replaced there is the one
    called."""
    if tag in GROUPS:
        group = GROUPS[tag]
        return getattr(rg, f"rand_{tag}"), group.mul, group.inv, group.type.identity
    law = _DELEON[tag]
    return _deleon_gen, law.mul, law.inv, _deleon_identity


def _law_associative(tag: str) -> PropertyFn:
    def prop(n, rng):
        gen, mul, _, _ = _law(tag)
        x, y, z = gen(rng, n), gen(rng, n), gen(rng, n)
        return mul(mul(x, y), z) == mul(x, mul(y, z)), dict(x=x, y=y, z=z)
    return prop


def _law_identity(tag: str) -> PropertyFn:
    def prop(n, rng):
        gen, mul, _, identity = _law(tag)
        x = gen(rng, n)
        e = identity(n)
        return mul(x, e) == x and mul(e, x) == x, dict(x=x)
    return prop


def _law_inverse(tag: str) -> PropertyFn:
    def prop(n, rng):
        gen, mul, inv, identity = _law(tag)
        x = gen(rng, n)
        e = identity(n)
        xi = inv(x)
        return mul(x, xi) == e and mul(xi, x) == e, dict(x=x, x_inv=xi)
    return prop


def _axiom_properties(tags) -> tuple[Property, ...]:
    props = []
    for tag in tags:
        props.append(Property(f"{tag}_associative", _law_associative(tag)))
        props.append(Property(f"{tag}_identity", _law_identity(tag)))
        props.append(Property(f"{tag}_inverse", _law_inverse(tag)))
    return tuple(props)


# ---------------------------------------------------------------------------
# conjugation, decomposition, normality


def _conj_keeps_part(name: str, symmetric: bool, key: str = "h") -> Property:
    """Conjugating (I, h) gives (I, h') with h' symmetric (or skew) as h is.

    ``key`` names h in the counterexample.
    """
    def prop(n, rng):
        x = rg.rand_hat2(rng, n)
        h = rg.rand_symmetric(rng, n) if symmetric else rg.rand_skew(rng, n)
        c = conj_hat2(x, GHat2.from_bilinear(h))
        held = c.a.is_identity() and (is_symmetric(c.f) if symmetric else is_skew(c.f))
        return held, dict(x=x, **{key: h}, conj=c)
    return Property(name, prop)


@draws("hat2", "hat2")
def conjugation_closed_form(x, y):
    direct = conj_hat2(x, y)
    explicit = mul_hat2(mul_hat2(x, y), inv_hat2(x))
    return direct == explicit, dict(closed_form=direct, triple=explicit)


@draws("hat2")
def decompose_recompose(x):
    sym_el, skew = decompose_hat2(x)
    held = is_skew(skew) and mul_hat2(sym_el.as_hat2(), GHat2.from_bilinear(skew)) == x
    return held, dict(sym=sym_el, skew=skew)


def decompose_unique(n, rng):
    x = rg.rand_hat2(rng, n)
    sym_el, skew = decompose_hat2(x)
    delta = rg.rand_nonzero_skew(rng, n)
    if delta is not None:
        if mul_hat2(sym_el.as_hat2(), GHat2.from_bilinear(skew + delta)) == x:
            return False, dict(x=x, perturbation=delta,
                               reason="skew perturbation also recomposes")
    bump = rg.rand_nonzero_symmetric(rng, n)
    other = GHat2(sym_el.a, sym_el.f + bump)
    held = mul_hat2(other, GHat2.from_bilinear(skew)) != x
    return held, dict(x=x, perturbation=bump,
                      reason="symmetric perturbation also recomposes")


@draws("invertible", "bilinear", "bilinear")
def conjugation_ignores_outer_bilinear(a, f, g):
    inner = GHat2.from_bilinear(g)
    with_f = conj_hat2(GHat2(a, f), inner)
    without_f = conj_hat2(GHat2(a, Bilinear.zero(a.n)), inner)
    return with_f == without_f


# ---------------------------------------------------------------------------
# the quotient isomorphism


@draws("quot_class", "quot_class")
def mu_homomorphism(c1, c2):
    lhs = mu(mul_quot(c1, c2))
    rhs = mul_g2(mu(c1), mu(c2))
    return lhs == rhs, dict(c1=c1.representative(), c2=c2.representative(),
                            mu_of_product=lhs, product_of_mu=rhs)


@draws("quot_class", "quot_class")
def mu_injective(c1, c2):
    held = c1 == c2 or mu(c1) != mu(c2)
    return held, dict(c1=c1.representative(), c2=c2.representative())


@draws("g2")
def mu_surjective(g):
    return mu(mu_inv(g)) == g


@draws("quot_class")
def mu_roundtrip(c):
    return mu_inv(mu(c)) == c, dict(c=c.representative())


def coset_equality(n, rng):
    x = rg.rand_hat2(rng, n)
    h = rg.rand_skew(rng, n)
    same = mul_hat2(x, GHat2.from_bilinear(h))
    if not coset_equal(x, same):
        return False, dict(x=x, h=h, reason="skew right factor left the class")
    if not coset_equal(x, GHat2(x.a, sym_part(x.f))):
        return False, dict(x=x, reason="symmetric part left the class")
    y = rg.rand_hat2(rng, n)
    want = x.a == y.a and sym_part(x.f) == sym_part(y.f)
    return coset_equal(x, y) == want, dict(x=x, y=y)


# ---------------------------------------------------------------------------
# the T1nL1n isomorphism


@draws("t1n", "t1n")
def structural_equals_coordinate(x, y):
    return mul_t1n(x, y) == mul_t1n_coordinate(x, y)


@draws("t1n", "t1n")
def tau_homomorphism(x, y):
    return tau(mul_t1n(x, y)) == mul_hat2(tau(x), tau(y))


@draws("t1n", "hat2")
def tau_roundtrip(x, y):
    return tau_inv(tau(x)) == x and tau(tau_inv(y)) == y


@draws("t1n", "t1n")
def law_recovered_through_tau(x, y):
    recovered = tau_inv(mul_hat2(tau(x), tau(y)))
    return recovered == mul_t1n(x, y), dict(recovered=recovered)


# ---------------------------------------------------------------------------
# symmetrization against products, and the projection's well-definedness


@draws("g2", "hat2")
def symmetrize_after_product(g, k):
    product = mul_hat2(g.as_hat2(), k)
    symmetrized = mul_hat2(g.as_hat2(), GHat2(k.a, sym_part(k.f)))
    return symmetrized == GHat2(product.a, sym_part(product.f)), dict(product=product)


@draws("hol", "hat2")
def symmetrize_after_frame_action(p, k):
    moved = act_semihol(embed_hol(p), k)
    direct = act_hol(p, G2(k.a, sym_part(k.f)))
    return proj_hat22(moved) == direct


@draws("hol", "hat2", "g2")
def projection_well_defined(p, k, alpha):
    p2 = act_hol(p, alpha)
    k2 = mul_hat2(inv_g2(alpha).as_hat2(), k)
    q1 = act_semihol(embed_hol(p), k)
    q2 = act_semihol(embed_hol(p2), k2)
    if q1 != q2:
        return False, dict(reason="the two factorizations name different frames")
    via1 = act_hol(p, G2(k.a, sym_part(k.f)))
    via2 = act_hol(p2, G2(k2.a, sym_part(k2.f)))
    return via1 == via2 == proj_hat22(q1), dict(via_first=via1, via_second=via2)


# ---------------------------------------------------------------------------
# level compatibility and the fiber description


def _hat22_keeps(name: str, linear: bool) -> Property:
    """proj_hat22 keeps the base point, or with ``linear`` the linear frame."""
    @draws("semihol")
    def prop(p):
        lower = proj_21 if linear else proj_20
        return lower(p) == lower(proj_hat22(p))
    return Property(name, prop)


def fiber_membership_matches_projection(n, rng):
    p = rg.rand_semihol(rng, n)
    q = rg.rand_hol(rng, n)
    if fiber_hat22_contains(q, p) != (proj_hat22(p) == q):
        return False, dict(q=q, p=p)
    own = proj_hat22(p)
    if not fiber_hat22_contains(own, p):
        return False, dict(q=own, p=p, reason="frame missing from its own fiber")
    # near miss: same base point and linear part, independent bilinear part
    probe = SemiHolFrame(q.x, q.a, rg.rand_bilinear(rng, n))
    held = fiber_hat22_contains(q, probe) == (proj_hat22(probe) == q)
    return held, dict(q=q, p=probe,
                      reason="membership disagrees with projection on a probe")


@draws("hol", "skew")
def skew_orbit_inside_fiber(q, h):
    moved = act_semihol(embed_hol(q), GHat2.from_bilinear(h))
    return proj_hat22(moved) == q and fiber_hat22_contains(q, moved)


@draws("hol", "semihol")
def fiber_rejects_other_linear_part(q, p):
    return p.a == q.a or not fiber_hat22_contains(q, p)


# ---------------------------------------------------------------------------
# the principal structure over holonomic frames


def skew_action_free(n, rng):
    q = rg.rand_semihol(rng, n)
    h = rg.rand_nonzero_skew(rng, n)
    if h is None:
        return True, {}
    return act_semihol(q, GHat2.from_bilinear(h)) != q, dict(q=q, h=h)


@draws("semihol", "skew", "skew")
def orbit_map_well_defined(q, h1, h2):
    m1 = act_semihol(q, GHat2.from_bilinear(h1))
    m2 = act_semihol(q, GHat2.from_bilinear(h2))
    return omega(m1) == omega(m2) == omega(q)


def orbit_map_injective(n, rng):
    # equal orbit-map values must come from the same orbit: exhibit the
    # connecting skew element, both for a constructed same-fiber pair and
    # for an independent pair
    q1 = rg.rand_semihol(rng, n)
    pairs = [(q1, SemiHolFrame(q1.x, q1.a, sym_part(q1.f) + rg.rand_skew(rng, n))),
             (q1, rg.rand_semihol(rng, n))]
    for qa, qb in pairs:
        if omega(qa) != omega(qb):
            continue
        diff = post_compose(mat_inv(qa.a), qb.f - qa.f)
        if not is_skew(diff):
            return False, dict(q1=qa, q2=qb, reason="connecting element is not skew")
        if act_semihol(qa, GHat2.from_bilinear(diff)) != qb:
            return False, dict(q1=qa, q2=qb,
                               reason="connecting element does not map q1 to q2")
    return True, {}


@draws("semihol")
def sigma_defining_equation(p):
    s = sigma(p)
    lhs = mul_hat2(GHat2(p.a, sym_part(p.f)), GHat2.from_bilinear(s))
    return is_skew(s) and lhs == GHat2(p.a, p.f), dict(sigma=s)


@draws("semihol")
def sigma_by_group_quotient(p):
    quotient = mul_hat2(inv_hat2(GHat2(p.a, sym_part(p.f))), GHat2(p.a, p.f))
    return quotient == GHat2.from_bilinear(sigma(p)), dict(quotient=quotient)


@draws("semihol", "skew")
def sigma_equivariance(p, h):
    return sigma(act_semihol(p, GHat2.from_bilinear(h))) == sigma(p) + h


def extension_model_roundtrip(n, rng):
    q = rg.rand_semihol(rng, n)
    c = theta_inv(q)
    if theta(c) != q:
        return False, dict(q=q, reason="theta(theta_inv(q)) != q")
    p = rg.rand_hol(rng, n)
    k = rg.rand_hat2(rng, n)
    c2 = ext_class(p, k)
    return theta_inv(theta(c2)) == c2, dict(
        p=p, k=k, reason="theta_inv(theta(c)) != c on a canonical class")


@draws("hol", "hat2", "g2")
def extension_class_invariant(p, k, alpha):
    shifted = ext_class(act_hol(p, alpha), mul_hat2(inv_g2(alpha).as_hat2(), k))
    return ext_class(p, k) == shifted


@draws("hol", "hat2", "hat2")
def extension_map_equivariant(p, k, k2):
    lhs = act_semihol(theta(ext_class(p, k)), k2)
    rhs = theta(ext_class(p, mul_hat2(k, k2)))
    return lhs == rhs


# ---------------------------------------------------------------------------
# the composite projection to holonomic frames


@draws("nonhol", "tilde22")
def action_free(q, g):
    # vacuous for the identity
    return g == GTilde22.identity(g.n) or act_tilde22(q, g) != q


@draws("nonhol")
def composite_definition(q):
    return proj_tilde22(q) == proj_hat22(proj_pi(q))


@draws("nonhol", "tilde22")
def staged_action_identity(q, g):
    eye = SquareMatrix.identity(q.n)
    staged = act_nonhol(
        act_nonhol(q, GTilde2(eye, g.l, Bilinear.zero(q.n))),
        GTilde2(eye, eye, g.h),
    )
    return act_tilde22(q, g) == staged


@draws("tilde22", "tilde22")
def law_matches_tilde21(x, y):
    z = mul_tilde22(x, y)
    w = mul_tilde21(GTilde21(x.l, x.h), GTilde21(y.l, y.h))
    return z.l == w.a and z.h == w.f


@draws("nonhol", "tilde22")
def projection_invariant_on_orbits(q, g):
    after = proj_tilde22(act_tilde22(q, g))
    before = proj_tilde22(q)
    return after == before, dict(projected=before, projected_after_action=after)


@draws("hol")
def surjective_by_explicit_preimage(target):
    eye = SquareMatrix.identity(target.n)
    preimage_f = pre_compose(target.f, eye, mat_inv(target.a))
    preimage = NonHolFrame(target.x, target.a, target.a, preimage_f)
    return proj_tilde22(preimage) == target, dict(preimage=preimage)


# ---------------------------------------------------------------------------
# the projection diagram


@draws("nonhol")
def nonholonomic_frames(q):
    checks = [
        proj_20(q) == proj_10(proj_21(q)),
        proj_20(proj_pi(q)) == proj_20(q),
        proj_21(proj_pi(q)) == proj_21(q),
        proj_20(proj_tilde22(q)) == proj_20(q),
        proj_21(proj_tilde22(q)) == proj_21(q),
        proj_tilde22(q) == proj_hat22(proj_pi(q)),
    ]
    return all(checks), dict(checks=checks)


@draws("semihol")
def semiholonomic_frames(p):
    checks = [
        proj_20(p) == proj_10(proj_21(p)),
        proj_20(proj_hat22(p)) == proj_20(p),
        proj_21(proj_hat22(p)) == proj_21(p),
    ]
    return all(checks), dict(checks=checks)


@draws("hol")
def holonomic_frames(t):
    checks = [
        proj_20(t) == proj_10(proj_21(t)),
        proj_hat22(embed_hol(t)) == t,
        proj_hat22(embed_hol(proj_hat22(embed_hol(t)))) == proj_hat22(embed_hol(t)),
    ]
    return all(checks), dict(checks=checks)


# ---------------------------------------------------------------------------
# the jet oracle


@draws("g2", "g2")
def group_law_from_jets(p, q):
    via_jets = g2_law_via_jets(p, q)
    via_law = mul_g2(p, q)
    return via_jets == via_law, dict(via_jets=via_jets, via_law=via_law)


def composition_associative(n, rng):
    x0 = rg.rand_point(rng, n)
    x1 = rg.rand_point(rng, n)
    x2 = rg.rand_point(rng, n)
    x3 = rg.rand_point(rng, n)
    f = rg.rand_map2jet(rng, n, base=x0, value=x1)
    g = rg.rand_map2jet(rng, n, base=x1, value=x2)
    h = rg.rand_map2jet(rng, n, base=x2, value=x3)
    left = compose_2jets(compose_2jets(h, g), f)
    return left == compose_2jets(h, compose_2jets(g, f)), dict(f=f, g=g, h=h)


@draws("map2jet")
def identity_jet_neutral(f):
    left = compose_2jets(Map2Jet.identity(f.value), f)
    right = compose_2jets(f, Map2Jet.identity(f.base))
    return left == f and right == f


def prolonged_action_functorial(n, rng):
    q = rg.rand_nonhol(rng, n)
    mid = rg.rand_point(rng, n)
    end = rg.rand_point(rng, n)
    G = rg.rand_map2jet(rng, n, base=q.x, value=mid)
    F = rg.rand_map2jet(rng, n, base=mid, value=end)
    direct = left_act_diffeo(compose_2jets(F, G), q)
    return direct == left_act_diffeo(F, left_act_diffeo(G, q)), dict(q=q, F=F, G=G)


def prolonged_action_preserves_class(n, rng):
    frames = (
        rg.rand_nonhol(rng, n),
        embed_semihol(rg.rand_semihol(rng, n)),
        embed_semihol(embed_hol(rg.rand_hol(rng, n))),
    )
    for q in frames:
        F = rg.rand_map2jet(rng, n, base=q.x)
        if classify(left_act_diffeo(F, q)) != classify(q):
            return False, dict(q=q, F=F, before=classify(q),
                               after=classify(left_act_diffeo(F, q)))
    return True, {}


def prolonged_action_linear_part(n, rng):
    q = rg.rand_nonhol(rng, n)
    F = rg.rand_map2jet(rng, n, base=q.x)
    moved = left_act_diffeo(F, q)
    lin = proj_21(moved)
    return lin.x == F.value and lin.a == mat_mul(F.jac, q.a), dict(q=q, F=F)


# ---------------------------------------------------------------------------
# registry and runner


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite("axioms",
              "group axioms (associativity, identity, inverses) for the six "
              "typed element kinds",
              _axiom_properties(("tilde2", "hat2", "g2", "tilde21", "tilde22",
                                 "t1n"))),
        Suite("deleon",
              "group axioms for the two alternative laws on matrix-bilinear "
              "pairs",
              _axiom_properties(("deleon1", "deleon2"))),
        Suite("prel1",
              "transpose/symmetric/skew parts against post- and diagonal "
              "pre-composition",
              (_parts_commute("post_compose_respects_parts", post=True),
               _parts_commute("diag_pre_compose_respects_parts", post=False),
               sym_plus_skew_recovers, post_and_pre_commute)),
        Suite("grol1",
              "conjugation preserves the symmetric and skew subsets; unique "
              "symmetric-times-skew factorization",
              (_conj_keeps_part("conjugation_preserves_symmetric", symmetric=True),
               _conj_keeps_part("conjugation_preserves_skew", symmetric=False),
               conjugation_closed_form, decompose_recompose, decompose_unique)),
        Suite("grol3",
              "normality of the symmetric and skew additive subgroups; "
              "conjugation of pure bilinear elements ignores the outer "
              "bilinear part",
              (_conj_keeps_part("symmetric_subgroup_normal", symmetric=True, key="s"),
               _conj_keeps_part("skew_subgroup_normal", symmetric=False),
               conjugation_ignores_outer_bilinear)),
        Suite("grop1",
              "the symmetrizing map from classes-modulo-skew is a bijective "
              "homomorphism onto symmetric pairs",
              (mu_homomorphism, mu_injective, mu_surjective, mu_roundtrip,
               coset_equality)),
        Suite("grol4",
              "the alternative pair law matches its raw coordinate form and "
              "is isomorphic to the standard pair law",
              (structural_equals_coordinate, tau_homomorphism, tau_roundtrip,
               law_recovered_through_tau,
               Property("inverse_via_tau", _law_inverse("t1n")))),
        Suite("rbsp1",
              "multiplying by a symmetric pair commutes with symmetrizing "
              "the bilinear part; the symmetrizing projection is "
              "factorization-independent",
              (symmetrize_after_product, symmetrize_after_frame_action,
               projection_well_defined)),
        Suite("rbsl1",
              "the symmetrizing projection preserves the base point",
              (_hat22_keeps("base_point_preserved", linear=False),)),
        Suite("rbsl2",
              "fibers of the symmetrizing projection are exactly the skew "
              "orbits",
              (fiber_membership_matches_projection, skew_orbit_inside_fiber,
               fiber_rejects_other_linear_part)),
        Suite("rbsl3",
              "the symmetrizing projection preserves the linear frame",
              (_hat22_keeps("linear_frame_preserved", linear=True),)),
        Suite("rbst1",
              "principal structure of the symmetrizing projection: free skew "
              "action, orbit bijection, trivialization fiber coordinate",
              (skew_action_free, orbit_map_well_defined, orbit_map_injective,
               sigma_defining_equation, sigma_by_group_quotient,
               sigma_equivariance, extension_model_roundtrip,
               extension_class_invariant, extension_map_equivariant)),
        Suite("rbst2",
              "the composite projection from non-holonomic to holonomic "
              "frames and the matrix-skew action",
              (action_free, composite_definition, staged_action_identity,
               law_matches_tilde21, projection_invariant_on_orbits,
               surjective_by_explicit_preimage)),
        Suite("diagram",
              "all composable pairs of projections between the frame levels "
              "commute",
              (nonholonomic_frames, semiholonomic_frames, holonomic_frames)),
        Suite("oracle",
              "jet-composition ground truth: group law from the chain rule, "
              "associativity, prolonged action functoriality",
              (group_law_from_jets, composition_associative, identity_jet_neutral,
               prolonged_action_functorial, prolonged_action_preserves_class,
               prolonged_action_linear_part)),
    )
}

ALL_SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, ns, trials: int, seed: int) -> SuiteReport:
    return run_suites([name], ns, trials, seed)[0]


def run_suites(names, ns, trials: int, seed: int) -> list[SuiteReport]:
    """Run every property of the named suites at each n in ``ns``, one or
    more distinct integers >= 1.

    Each item ``(suite, property index, n)`` runs all ``trials`` trials of
    one property at one n.  This process and ``min(cores, items) - 1``
    forked workers, the cores being those of its affinity mask, take items
    from one queue, largest n first.  Each trial draws from its own stream,
    so the report does not depend on the cores apart from ``wall_time_s``,
    which sums the item times.  The runner forks, so a caller that runs
    threads should narrow its affinity mask to one core."""
    names, ns = tuple(names), tuple(ns)
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (ns and all(type(n) is int and n >= 1 for n in ns)
            and len(set(ns)) == len(ns)):
        raise ValueError("ns must be one or more distinct integers >= 1")
    items = [(name, index, n) for n in sorted(ns, reverse=True) for name in names
             for index in range(len(SUITES[name].properties))]
    done = _pulled(items, trials, seed)
    reports = []
    for name in names:
        props, wall_time_s = [], 0.0
        for index, prop in enumerate(SUITES[name].properties):
            results = [done[name, index, n] for n in ns]
            failures = sum(failed for failed, _, _ in results)
            props.append(PropertyResult(
                name=prop.name, passed=failures == 0,
                trials_run=len(ns) * trials, failures=failures,
                counterexample=next((first for _, first, _ in results
                                     if first is not None), None)))
            wall_time_s += sum(seconds for _, _, seconds in results)
        reports.append(SuiteReport(name, ns, trials, seed, tuple(props), wall_time_s))
    return reports


def _run_item(name: str, index: int, n: int, trials: int, seed: int) -> list:
    """The ``[failures, first counterexample, seconds]`` of an item, the
    counterexample a JSON document.  A property that raises an ``Exception``
    fails its trial, with the exception's type and message as its witness."""
    prop = SUITES[name].properties[index]
    failures, first, start = 0, None, time.perf_counter()
    for trial in range(trials):
        try:
            held, witness = prop.fn(n, stream(seed, name, prop.name, n, trial))
        except Exception as exc:
            held, witness = False, dict(error=type(exc).__name__, message=str(exc))
        if not held:
            failures += 1
            if first is None:
                first = {"suite": name, "property": prop.name, "n": n,
                         "trial": trial, "seed": seed, **_witness(**witness)}
    return [failures, first, time.perf_counter() - start]


def _cores() -> int:
    """The cores in this process's affinity mask; 1 without it or os.fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


_SLOTS = 1024  # queue entries of 4 bytes: any pipe holds 4096 bytes


def _pulled(items, trials: int, seed: int) -> dict:
    """The ``_run_item`` result of each item.  The queue is a pipe of
    ``min(items, _SLOTS)`` entries, written before the workers fork; entry k
    stands for items k, k + _SLOTS, ...  Every worker is reaped before this
    returns or raises, and killed first if this process is interrupted."""
    queue, feed = os.pipe()
    os.write(feed, b"".join(k.to_bytes(4, "little")
                            for k in range(min(len(items), _SLOTS))))
    os.close(feed)
    workers, texts = [], []
    try:
        for _ in range(min(_cores(), len(items)) - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # a worker, which ends with os._exit: no atexit handlers
                try:
                    with open(write_fd, "w") as pipe:
                        pipe.write(json.dumps(_pull(queue, items, trials, seed)))
                except BaseException:
                    os._exit(1)
                os._exit(0)
            os.close(write_fd)
            workers.append((pid, read_fd))
        outputs = [_pull(queue, items, trials, seed)]
        texts = [open(fd, closefd=False).read() for _, fd in workers]
    finally:
        os.close(queue)
        codes = []
        for pid, read_fd in workers:
            os.close(read_fd)
            if len(texts) < len(workers):
                import signal
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(codes):
        raise RuntimeError(f"verify workers exited with {codes}")
    outputs += map(json.loads, texts)
    for _, error in outputs:
        if error:
            raise RuntimeError(error)
    pairs = [pair for done, _ in outputs for pair in done]
    if sorted(i for i, _ in pairs) != list(range(len(items))):
        raise RuntimeError("verify items did not each come back once")
    return {items[i]: result for i, result in pairs}


def _pull(queue: int, items, trials: int, seed: int) -> list:
    """``[pairs, error]``: the ``[index, result]`` of each item this process
    takes from ``queue``, and None or, if an item failed outside its
    properties, what stopped it: the item and the traceback."""
    pairs = []
    while entry := os.read(queue, 4):
        for i in range(int.from_bytes(entry, "little"), len(items), _SLOTS):
            try:
                pairs.append([i, _run_item(*items[i], trials, seed)])
            except Exception:
                import traceback
                name, index, n = items[i]
                item = f"({name}, {SUITES[name].properties[index].name}, {n})"
                return [pairs, f"verify item {item} failed:\n{traceback.format_exc()}"]
    return [pairs, None]

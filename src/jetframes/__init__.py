"""Exact algebra of second-order frame coordinates.

Rational-exact models of the jet groups acting on second-order frames, the
frame kinds (non-holonomic, semi-holonomic, holonomic), the projections
between them, and seeded property suites that check every structural
identity with zero tolerance.
"""

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
from .errors import (
    CompositionDomainError,
    GroupMismatchError,
    JetFramesError,
    KindMismatchError,
    NotAFrameError,
    ParseError,
    SingularMatrixError,
)
from .frames import (
    ExtClass,
    HolFrame,
    LinFrame,
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
    G2,
    GHat2,
    GTilde2,
    GTilde21,
    GTilde22,
    QuotClassHat,
    T1nL1n,
    conj_hat2,
    coset_equal,
    decompose_hat2,
    in_g1_x_a2,
    in_g2,
    inv_deleon_1,
    inv_deleon_2,
    inv_g2,
    inv_hat2,
    inv_t1n,
    inv_tilde2,
    inv_tilde21,
    inv_tilde22,
    mu,
    mu_inv,
    mul_deleon_1,
    mul_deleon_2,
    mul_g2,
    mul_hat2,
    mul_quot,
    mul_t1n,
    mul_t1n_coordinate,
    mul_tilde2,
    mul_tilde21,
    mul_tilde22,
    tau,
    tau_inv,
)
from .jets import (
    FMJetData,
    Map2Jet,
    compose_2jets,
    frame_from_fm_map,
    g2_law_via_jets,
    left_act_diffeo,
)
from .matrices import SquareMatrix, det, mat_inv, mat_mul
from .rational import Rational, rat, rat_from_str, rat_to_str

__version__ = "0.1.0"

#: Names served from ``suites``, which is imported on first use only: it is the
#: largest module, and of the command line only ``verify`` needs it.
_SUITE_EXPORTS = ("ALL_SUITE_NAMES", "SuiteReport", "run_suite", "run_suites")


def __getattr__(name: str):
    if name in _SUITE_EXPORTS:
        from . import suites
        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

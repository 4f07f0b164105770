"""Value semantics of every value type: copies, immutability, ``replace``.

The matrices, bilinear maps, group elements, group tags, frames and jets
are slots dataclasses whose methods come from one base, ``matrices.Value``,
keyed on ``__match_args__``.  Each generated value must survive ``pickle``
and both kinds of copy as an equal value with an equal hash, refuse every
assignment and deletion, and re-run its invariant check when
``dataclasses.replace`` builds a new one.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from jetframes import frames as fr
from jetframes import groups as G
from jetframes import jets
from jetframes import randgen as rg
from jetframes.bilinear import Bilinear
from jetframes.errors import SingularMatrixError
from jetframes.matrices import Scaled, SquareMatrix
from test_startup import VALUE_TYPES

N = 2

# A generated value of each type, from one stream.
FACTORIES = {
    SquareMatrix: rg.rand_invertible,
    Bilinear: rg.rand_bilinear,
    **{group.type: getattr(rg, f"rand_{tag}") for tag, group in G.GROUPS.items()},
    G.QuotClassHat: rg.rand_quot_class,
    G.Group: lambda rng, n: G.GROUPS[rng.choice(sorted(G.GROUPS))],
    fr.NonHolFrame: rg.rand_nonhol,
    fr.SemiHolFrame: rg.rand_semihol,
    fr.HolFrame: rg.rand_hol,
    fr.LinFrame: lambda rng, n: fr.proj_21(rg.rand_nonhol(rng, n)),
    fr.ExtClass: lambda rng, n: fr.theta_inv(rg.rand_semihol(rng, n)),
    jets.Map2Jet: rg.rand_map2jet,
    jets.FMJetData: lambda rng, n: jets.FMJetData(
        rg.rand_point(rng, n), rg.rand_invertible(rng, n),
        rg.rand_matrix(rng, n), rg.rand_bilinear(rng, n)),
}
TYPES = list(FACTORIES)
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": (lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)))
       for p in (2, pickle.HIGHEST_PROTOCOL)},
}


def _value(cls, trial=0):
    return FACTORIES[cls](rg.stream(14, "values", cls.__name__, trial), N)


def test_every_value_type_has_a_generator():
    # the suite types are value types too, but a factory-built property is a
    # closure, which cannot be pickled
    suite_types = {cls for cls in VALUE_TYPES if cls.__module__ == "jetframes.suites"}
    assert len(suite_types) == 4
    assert set(FACTORIES) == set(VALUE_TYPES) - suite_types


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_a_copy_is_an_equal_value_with_an_equal_hash(cls, how):
    for trial in range(3):
        value = _value(cls, trial)
        assert type(value) is cls
        copied = COPIES[how](value)
        assert type(copied) is cls
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = _value(cls)
    assert not hasattr(value, "__dict__")
    assert cls.__match_args__ == tuple(f.name for f in fields(cls) if f.init)
    before = repr(value)
    for name in [f.name for f in fields(cls)] + ["not_a_field"]:
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("cls", [cls for cls in TYPES if not issubclass(cls, Scaled)],
                         ids=lambda cls: cls.__name__)
def test_replace_builds_by_field_name(cls):
    value = _value(cls)
    parts = [getattr(value, f.name) for f in fields(cls)]
    assert replace(value) == value and cls(*parts) == value
    with pytest.raises(TypeError):
        replace(value, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*parts[1:])


@pytest.mark.parametrize("cls", [cls for cls in TYPES if "a" in cls.__match_args__],
                         ids=lambda cls: cls.__name__)
def test_replace_rechecks_the_invariants(cls):
    value = _value(cls)
    with pytest.raises(SingularMatrixError):
        replace(value, a=SquareMatrix.zero(N))
    if "x" in cls.__match_args__:
        moved = replace(value, x=(Fraction(0),) * N)
        assert moved.x == (0,) * N and moved.parts[1:] == value.parts[1:]
        with pytest.raises(ValueError):
            replace(value, x=(Fraction(0),) * (N + 1))


@pytest.mark.parametrize("cls, view", [(SquareMatrix, "entries"),
                                       (Bilinear, "coeffs")])
def test_a_read_view_is_not_part_of_the_value(cls, view):
    fresh = _value(cls)
    seen = cls._of(fresh.scaled)
    getattr(seen, view)
    assert seen._view is not None and fresh._view is None
    assert seen == fresh and hash(seen) == hash(fresh)
    assert repr(seen) == repr(fresh)
    restored = pickle.loads(pickle.dumps(seen))
    assert restored._view is None and restored == fresh
    assert getattr(restored, view) == getattr(seen, view)

import json
import os
import signal

import pytest

from jetframes import randgen, suites
from jetframes.bilinear import Bilinear
from jetframes.matrices import SquareMatrix
from jetframes.randgen import stream
from jetframes.suites import (
    ALL_SUITE_NAMES,
    SUITES,
    Property,
    Suite,
    _witness,
    run_suite,
    run_suites,
)

EXPECTED_SUITES = {
    "axioms", "deleon", "prel1", "grol1", "grol3", "grop1", "grol4",
    "rbsp1", "rbsl1", "rbsl2", "rbsl3", "rbst1", "rbst2", "diagram",
    "oracle",
}


def test_registry_contents():
    assert set(ALL_SUITE_NAMES) == EXPECTED_SUITES
    for suite in SUITES.values():
        assert suite.properties
        assert suite.description


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES - {"rbst2"}))
def test_suites_pass_at_small_scale(name):
    report = run_suite(name, [1, 2, 3], 15, 2024)
    failing = [p.name for p in report.properties if not p.passed]
    assert report.passed, failing


def test_dimension_one_degenerates_gracefully():
    # every skew map vanishes at n=1, so all suites still run and pass
    for name in ("prel1", "grol1", "rbst1", "rbsl2"):
        assert run_suite(name, [1], 10, 5).passed


def test_rbst2_fails_exactly_on_orbit_invariance():
    report = run_suite("rbst2", [2, 3], 25, 7)
    failing = {p.name for p in report.properties if not p.passed}
    assert failing == {"projection_invariant_on_orbits"}
    failure = next(p for p in report.properties if not p.passed)
    ce = failure.counterexample
    assert ce is not None
    assert {"suite", "property", "n", "trial", "seed"} <= set(ce)
    assert ce["projected"] != ce["projected_after_action"]


def test_reports_are_reproducible():
    a = run_suite("grol4", [2], 10, 99).to_doc()
    b = run_suite("grol4", [2], 10, 99).to_doc()
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b


def test_report_document_shape():
    rep = run_suite("rbsl1", [1, 2], 3, 1).to_doc()
    assert rep["suite"] == "rbsl1"
    assert rep["ns"] == [1, 2]
    assert rep["trials"] == 3
    assert rep["seed"] == 1
    for prop in rep["properties"]:
        assert {"name", "passed", "trials_run", "failures",
                "counterexample"} <= set(prop)
        assert prop["trials_run"] == 6


def test_unknown_suite_and_bad_trials():
    with pytest.raises(KeyError):
        run_suite("nope", [1], 1, 0)
    with pytest.raises(ValueError):
        run_suite("prel1", [1], 0, 0)
    # each n is an int >= 1, there is one at least, and none repeats
    for ns in ([0], [], [1, 1], [2.0], [True]):
        with pytest.raises(ValueError, match="ns must be"):
            run_suites(["prel1"], ns, 1, 0)


def _docs(monkeypatch, cores: int, seed: int, names=ALL_SUITE_NAMES,
          ns=(1, 2, 3), trials: int = 3) -> list[dict]:
    """The reports of a run on ``cores`` cores, without their times."""
    monkeypatch.setattr(suites, "_cores", lambda: cores)
    docs = [r.to_doc() for r in run_suites(names, ns, trials, seed)]
    for doc in docs:
        assert doc.pop("wall_time_s") > 0
    return docs


@pytest.mark.parametrize("seed", [42, 1504])
def test_reports_do_not_depend_on_jobs(monkeypatch, seed):
    assert _docs(monkeypatch, 2, seed) == _docs(monkeypatch, 1, seed)


@pytest.mark.parametrize("cores", [2, 4])
def test_first_counterexample_does_not_depend_on_jobs(monkeypatch, cores):
    """With every matrix and bilinear comparison false, most properties fail
    at every n, so the first counterexample is picked from several items.
    Items are dealt n-major, so the items of one property at n and at n + 1
    go to different workers unless ``cores`` divides the property count."""
    per_n = sum(len(suite.properties) for suite in SUITES.values())
    assert per_n % 4 != 0  # so on 4 cores they always do
    for cls in (SquareMatrix, Bilinear):
        monkeypatch.setattr(cls, "__eq__", lambda self, other: False)
    serial = _docs(monkeypatch, 1, 42)
    failing = [p for r in serial for p in r["properties"]
               if p["failures"] == 9]
    assert len(failing) > 30
    assert _docs(monkeypatch, cores, 42) == serial


def test_a_run_forks_one_worker_per_item_up_to_the_cores(monkeypatch):
    """A run forks min(cores, items) workers, and none for a single item."""
    assert len(SUITES["rbsl1"].properties) == 1
    serial = [_docs(monkeypatch, 1, 0, ["rbsl1"], ns, 2) for ns in ([1], [1, 2])]
    fork, forks = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    assert _docs(monkeypatch, 4, 0, ["rbsl1"], [1], 2) == serial[0]
    assert forks == []
    assert _docs(monkeypatch, 4, 0, ["rbsl1"], [1, 2], 2) == serial[1]
    assert len(forks) == 2


def test_without_fork_the_items_run_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    reports = run_suites(["prel1"], (1, 2), 2, 0)
    assert [p.trials_run for p in reports[0].properties] == [4] * 4


@pytest.mark.parametrize("cores", [1, 2])
def test_a_raising_property_is_a_counted_failure(monkeypatch, cores):
    """An exception in a property fails its trial, and the first failure's
    witness names the exception next to (seed, suite, property, n, trial)."""
    def raises(q, p):
        raise OverflowError(f"too wide at n = {p.n}")

    monkeypatch.setattr(suites, "fiber_hat22_contains", raises)
    docs = {p["name"]: p for p in _docs(monkeypatch, cores, 1, ["rbsl2"],
                                        (1, 2), 2)[0]["properties"]}
    prop = docs["fiber_membership_matches_projection"]
    assert not prop["passed"] and prop["failures"] == prop["trials_run"] == 4
    assert prop["counterexample"] == {
        "suite": "rbsl2", "property": "fiber_membership_matches_projection",
        "n": 1, "trial": 0, "seed": 1, "error": "OverflowError",
        "message": "too wide at n = 1"}
    assert docs["skew_orbit_inside_fiber"]["failures"] == 4


def test_declared_inputs_are_drawn_by_the_generator_of_the_trial(monkeypatch):
    """A property declared with ``draws`` looks its generators up in
    ``randgen`` when a trial runs, so one replaced there after import (as a
    tracer replaces it) is the one called."""
    def raises(rng, n):
        raise LookupError(f"rand_t1n replaced at n = {n}")

    monkeypatch.setattr(randgen, "rand_t1n", raises)
    docs = {p["name"]: p for p in _docs(monkeypatch, 1, 7, ["grol4"], (1, 2),
                                        2)[0]["properties"]}
    for name in ("structural_equals_coordinate", "tau_homomorphism",
                 "tau_roundtrip", "law_recovered_through_tau"):
        assert docs[name]["failures"] == docs[name]["trials_run"] == 4, name
        witness = docs[name]["counterexample"]
        assert (witness["n"], witness["error"], witness["message"]) == (
            1, "LookupError", "rand_t1n replaced at n = 1")
    # the axiom factories draw through ``randgen.GROUP_GENERATORS``
    assert docs["inverse_via_tau"]["passed"]


def test_a_failing_worker_raises_and_leaves_no_child(monkeypatch):
    # a raising property is a counted failure, so the worker is made to fail
    # outside it: in turning a failed trial's witness into documents
    def fails(n, rng):
        return False, {"n": n}

    def boom(n):
        raise ZeroDivisionError(f"boom at n = {n}")

    def timeout(*_):
        raise AssertionError("run_suites hung after a worker failed")

    monkeypatch.setitem(SUITES, "boom", Suite("boom", "fails",
                                              (Property("fails", fails),)))
    monkeypatch.setattr(suites, "_witness", boom)
    monkeypatch.setattr(suites, "_cores", lambda: 2)
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="ZeroDivisionError: boom"):
            run_suites(["prel1", "boom"], (1, 2), 2, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("suite, prop", [
    pytest.param(suite.name, prop, id=f"{suite.name}.{prop.name}")
    for suite in SUITES.values() for prop in suite.properties])
def test_every_property_returns_a_serializable_witness(suite, prop):
    # a witness is turned into a payload only on a failure, which no other
    # test reaches for most properties
    for n in (1, 2, 3):
        out = prop.fn(n, stream(42, suite, prop.name, n, 0))
        assert isinstance(out, tuple) and len(out) == 2
        held, witness = out
        assert isinstance(held, bool) and isinstance(witness, dict)
        json.dumps(_witness(**witness))

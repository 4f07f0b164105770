import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from jetframes import det, is_skew, sym_part
from jetframes import cli
from jetframes.cli import _OPS, main
from jetframes.serialize import (
    bilinear_from_doc,
    frame_from_doc,
    frame_to_doc,
    group_from_doc,
    group_to_doc,
    jet_to_doc,
)
import jetframes
from jetframes import groups
from jetframes.frames import embed_hol, embed_semihol, proj_hat22, proj_pi
from jetframes.groups import GROUPS, GHat2, mul_t1n_coordinate
from jetframes.randgen import rand_hol, rand_map2jet, rand_nonhol, rand_t1n, stream


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic(capsys):
    first = run_json(capsys, "gen", "g2", "--n", "2", "--seed", "9")
    second = run_json(capsys, "gen", "g2", "--n", "2", "--seed", "9")
    assert first == second
    third = run_json(capsys, "gen", "g2", "--n", "2", "--seed", "10")
    assert first != third


def test_gen_tilde22_has_skew_component(capsys):
    doc = run_json(capsys, "gen", "tilde22", "--n", "3", "--seed", "4")
    el = group_from_doc(doc)
    assert is_skew(el.h)


def test_gen_hat2_is_invertible(capsys):
    doc = run_json(capsys, "gen", "hat2", "--n", "3", "--seed", "5")
    el = group_from_doc(doc)
    assert det(el.a) != 0


def test_gen_frames_and_jets(capsys):
    frame_doc = run_json(capsys, "gen", "nonhol", "--n", "2", "--seed", "1")
    assert frame_doc["kind"] == "nonhol"
    frame_from_doc(frame_doc)
    jet_doc = run_json(capsys, "gen", "map2jet", "--n", "2", "--seed", "1")
    assert set(jet_doc) == {"base", "value", "jac", "hess"}


def test_gen_origin_pins_base_points(capsys, tmp_path):
    frame_doc = run_json(capsys, "gen", "hol", "--n", "2", "--seed", "2",
                         "--origin")
    assert frame_doc["x"] == ["0", "0"]
    jet_doc = run_json(capsys, "gen", "map2jet", "--n", "2", "--seed", "2",
                       "--origin")
    assert jet_doc["base"] == jet_doc["value"] == ["0", "0"]
    code, _, err = run_cli(capsys, "gen", "hat2", "--n", "2", "--origin")
    assert code == 2 and "origin" in err


# ---------------------------------------------------------------------------
# op


def test_op_inv_negates_pure_bilinear(capsys, tmp_path):
    el_doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "3")
    el = group_from_doc(el_doc)
    pure = GHat2.from_bilinear(el.f)
    path = write_doc(tmp_path, "x.json", group_to_doc(pure))
    result = run_json(capsys, "op", "inv", "--group", "hat2", path)
    assert group_from_doc(result) == GHat2.from_bilinear(-el.f)


def test_op_mul_t1n_cross_checked(capsys, tmp_path):
    rng = stream(77, "t1ncli")
    x, y = rand_t1n(rng, 2), rand_t1n(rng, 2)
    px = write_doc(tmp_path, "x.json", group_to_doc(x))
    py = write_doc(tmp_path, "y.json", group_to_doc(y))
    result = run_json(capsys, "op", "mul", "--group", "t1n", px, py)
    assert group_from_doc(result) == mul_t1n_coordinate(x, y)


# Written out per tag rather than read from ``groups.GROUPS``, so a wrong
# entry in that table shows here.
_EXPECTED_OPS = {
    "tilde2": (groups.mul_tilde2, groups.inv_tilde2),
    "hat2": (groups.mul_hat2, groups.inv_hat2),
    "g2": (groups.mul_g2, groups.inv_g2),
    "tilde21": (groups.mul_tilde21, groups.inv_tilde21),
    "tilde22": (groups.mul_tilde22, groups.inv_tilde22),
    "t1n": (groups.mul_t1n, groups.inv_t1n),
}


@pytest.mark.parametrize("tag", sorted(_EXPECTED_OPS))
def test_op_mul_and_inv_keep_the_group_tag(capsys, tmp_path, tag):
    mul, inv = _EXPECTED_OPS[tag]
    x_doc = run_json(capsys, "gen", tag, "--n", "2", "--seed", "21")
    y_doc = run_json(capsys, "gen", tag, "--n", "2", "--seed", "22")
    x, y = group_from_doc(x_doc), group_from_doc(y_doc)
    px = write_doc(tmp_path, "x.json", x_doc)
    py = write_doc(tmp_path, "y.json", y_doc)
    product = run_json(capsys, "op", "mul", "--group", tag, px, py)
    inverse = run_json(capsys, "op", "inv", "--group", tag, px)
    assert product["group"] == inverse["group"] == tag
    assert product == group_to_doc(mul(x, y))
    assert inverse == group_to_doc(inv(x))


def test_input_files_are_closed(capsys, tmp_path):
    doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "4")
    path = write_doc(tmp_path, "x.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run_cli(capsys, "op", "inv", "--group", "hat2", path)[0] == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("argv", [("op", "decompose", "x.json"),
                                  ("verify", "--suite", "prel1")])
def test_duplicate_spellings_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_op_mu_symmetrizes(capsys, tmp_path):
    doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "6")
    path = write_doc(tmp_path, "x.json", doc)
    result = run_json(capsys, "op", "mu", path)
    el = group_from_doc(result)
    assert result["group"] == "g2"
    assert el.f == sym_part(group_from_doc(doc).f)


def test_op_coset_equal(capsys, tmp_path):
    doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "8")
    el = group_from_doc(doc)
    sym_doc = group_to_doc(GHat2(el.a, sym_part(el.f)))
    p1 = write_doc(tmp_path, "x.json", doc)
    p2 = write_doc(tmp_path, "y.json", sym_doc)
    assert run_json(capsys, "op", "coset-equal", p1, p2) == {"equal": True}


def test_op_group_mismatch_exits_nonzero(capsys, tmp_path):
    doc = run_json(capsys, "gen", "tilde2", "--n", "2", "--seed", "1")
    path = write_doc(tmp_path, "x.json", doc)
    code, _, err = run_cli(capsys, "op", "inv", "--group", "hat2", path)
    assert code == 2 and "hat2" in err


def test_op_malformed_json_exits_nonzero(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "op", "inv", "--group", "hat2", str(path))
    assert code == 2 and "error" in err


def test_op_non_utf8_file_exits_nonzero(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run_cli(capsys, "op", "inv", "--group", "hat2", str(path))
    assert code == 2 and "error" in err


def _miscounted_inputs():
    """(op arguments, input count) for one input too few and one too many of
    every operation, the first five in the order the test ids have had."""
    cases = [(("mul", "--group", "hat2"), 1), (("mul", "--group", "hat2"), 3),
             (("conj",), 1), (("conj",), 3), (("inv", "--group", "hat2"), 2)]
    for op, (tags, _) in _OPS.items():
        argv = (op, "--group", "hat2") if None in tags else (op,)
        cases += [(argv, count) for count in (len(tags) - 1, len(tags) + 1)
                  if (argv, count) not in cases]
    return cases


@pytest.mark.parametrize("argv, count", _miscounted_inputs())
def test_op_input_count_is_checked(capsys, tmp_path, argv, count):
    doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "3")
    paths = [write_doc(tmp_path, f"x{i}.json", doc) for i in range(count)]
    code, out, err = run_cli(capsys, "op", *argv, *paths)
    assert code == 2 and out == ""
    assert f"got {count}" in err


@pytest.mark.parametrize("op", [op for op, (tags, _) in _OPS.items()
                                if None not in tags])
def test_op_group_must_name_a_fixed_input_tag(capsys, tmp_path, op):
    tags, _ = _OPS[op]
    paths = [write_doc(tmp_path, f"x{i}.json",
                       run_json(capsys, "gen", tag, "--n", "2", "--seed", str(i)))
             for i, tag in enumerate(tags)]
    plain = run_json(capsys, "op", op, *paths)
    assert run_json(capsys, "op", op, "--group", tags[0], *paths) == plain
    for group in set(GROUPS) - set(tags):
        code, out, err = run_cli(capsys, "op", op, "--group", group, *paths)
        assert code == 2 and out == ""
        assert f"not --group {group!r}" in err


@pytest.mark.parametrize("second", ["file", "stdin"])
def test_op_inputs_may_follow_the_group_option(capsys, tmp_path, monkeypatch,
                                                second):
    x, y = (write_doc(tmp_path, f"{name}.json",
                      run_json(capsys, "gen", "hat2", "--n", "2", "--seed", seed))
            for name, seed in (("x", "1"), ("y", "2")))
    before = run_cli(capsys, "op", "mul", "--group", "hat2", x, y)
    if second == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(y).read_text()))
        y = "-"
    assert before[0] == 0
    assert run_cli(capsys, "op", "mul", x, "--group", "hat2", y) == before


USAGE = ("usage: jetframes [-h] "
         "{gen,op,project,classify,decompose,oracle,verify} ...\n")


@pytest.mark.parametrize("argv, unrecognized", [
    (("op", "inv", "--group", "hat2", "x.json", "--bogus"), "--bogus"),
    (("op", "inv", "x.json", "--group", "hat2", "--bogus"), "--bogus"),
    (("gen", "hat2", "--n", "2", "extra"), "extra"),
    (("classify", "q.json", "extra"), "extra"),
])
def test_unrecognized_arguments_exit_2(capsys, argv, unrecognized):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == (f"{USAGE}jetframes: error: unrecognized arguments: "
                            f"{unrecognized}\n")


# ---------------------------------------------------------------------------
# project / classify / decompose


def test_project_hat22_fixes_holonomic_document(capsys, tmp_path):
    rng = stream(88, "projcli")
    t = rand_hol(rng, 2)
    path = write_doc(tmp_path, "t.json", frame_to_doc(t))
    result = run_json(capsys, "project", "hat22", path)
    # the projected document equals the input up to the frame kind tag
    assert frame_from_doc(result) == t


def test_project_20_returns_base_point(capsys, tmp_path):
    rng = stream(89, "proj20")
    q = rand_nonhol(rng, 2)
    path = write_doc(tmp_path, "q.json", frame_to_doc(q))
    result = run_json(capsys, "project", "20", path)
    assert frame_from_doc(frame_to_doc(q)).x == q.x
    assert result == {"x": [str(e.numerator) if e.denominator == 1
                            else f"{e.numerator}/{e.denominator}"
                            for e in q.x]}


def test_project_tilde22_equals_chained(capsys, tmp_path):
    rng = stream(90, "projchain")
    q = rand_nonhol(rng, 2)
    path = write_doc(tmp_path, "q.json", frame_to_doc(q))
    one_shot = run_json(capsys, "project", "tilde22", path)
    mid = write_doc(tmp_path, "mid.json",
                    run_json(capsys, "project", "pi", path))
    chained = run_json(capsys, "project", "hat22", mid)
    assert one_shot == chained
    assert frame_from_doc(one_shot) == proj_hat22(proj_pi(q))


def test_project_kind_mismatch(capsys, tmp_path):
    rng = stream(91, "projkind")
    t = rand_hol(rng, 2)
    path = write_doc(tmp_path, "t.json", frame_to_doc(t))
    code, _, err = run_cli(capsys, "project", "pi", path)
    assert code == 2 and "nonhol" in err


def test_classify(capsys, tmp_path):
    rng = stream(92, "clscli")
    t = rand_hol(rng, 2)
    path = write_doc(tmp_path, "t.json", frame_to_doc(t))
    assert run_json(capsys, "classify", path) == {"class": "holonomic"}


def test_decompose(capsys, tmp_path):
    doc = run_json(capsys, "gen", "hat2", "--n", "2", "--seed", "11")
    path = write_doc(tmp_path, "x.json", doc)
    result = run_json(capsys, "decompose", path)
    assert result["g2"]["group"] == "g2"
    assert is_skew(bilinear_from_doc(result["skew"]))


# ---------------------------------------------------------------------------
# oracle


def test_oracle_compose_and_act(capsys, tmp_path):
    rng = stream(93, "oraclecli")
    q = rand_nonhol(rng, 2)
    F = rand_map2jet(rng, 2, base=q.x)
    pf = write_doc(tmp_path, "f.json", jet_to_doc(F))
    pq = write_doc(tmp_path, "q.json", frame_to_doc(q))
    moved = run_json(capsys, "oracle", "act", pf, pq)
    assert frame_from_doc(moved).x == F.value
    G = rand_map2jet(rng, 2, base=F.value)
    pg = write_doc(tmp_path, "g.json", jet_to_doc(G))
    composed = run_json(capsys, "oracle", "compose", pg, pf)
    assert composed["base"] == jet_to_doc(F)["base"]
    assert composed["value"] == jet_to_doc(G)["value"]


def test_oracle_act_lifts_a_holonomic_frame(capsys, tmp_path):
    rng = stream(95, "oraclehol")
    t = rand_hol(rng, 2)
    F = rand_map2jet(rng, 2, base=t.x)
    pf = write_doc(tmp_path, "f.json", jet_to_doc(F))
    pt = write_doc(tmp_path, "t.json", frame_to_doc(t))
    pq = write_doc(tmp_path, "q.json", frame_to_doc(embed_semihol(embed_hol(t))))
    assert run_json(capsys, "oracle", "act", pf, pt) == run_json(
        capsys, "oracle", "act", pf, pq)


def test_oracle_compose_domain_error(capsys, tmp_path):
    rng = stream(94, "oracledom")
    f = rand_map2jet(rng, 2)
    g = rand_map2jet(rng, 2)
    if g.base == f.value:
        pytest.skip("random jets happened to chain")
    pf = write_doc(tmp_path, "f.json", jet_to_doc(f))
    pg = write_doc(tmp_path, "g.json", jet_to_doc(g))
    code, _, err = run_cli(capsys, "oracle", "compose", pg, pf)
    assert code == 2


@pytest.mark.parametrize("field, value, message", [
    ("base", ["0"], "base point has wrong dimension"),
    ("hess", [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
     "hessian must be symmetric in its argument slots"),
])
def test_oracle_compose_refuses_a_malformed_jet(capsys, tmp_path, field, value,
                                                message):
    doc = jet_to_doc(rand_map2jet(stream(96, "oraclebad"), 2))
    doc[field] = value
    path = write_doc(tmp_path, "f.json", doc)
    code, out, err = run_cli(capsys, "oracle", "compose", path, path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_suite_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "prel1", "--n", "1", "--n", "2",
                           "--trials", "5", "--seed", "3")
    assert code == 0
    assert "suite prel1: PASS" in out


def test_verify_failing_suite_exits_nonzero(capsys):
    code, out, _ = run_cli(capsys, "verify", "rbst2", "--n", "2",
                           "--trials", "5", "--seed", "3")
    assert code == 1
    assert "FAIL rbst2.projection_invariant_on_orbits" in out


def test_verify_json_report(capsys):
    reports = run_json(capsys, "verify", "grol1", "--n", "2", "--trials", "4",
                       "--seed", "5", "--json")
    assert len(reports) == 1
    rep = reports[0]
    assert rep["suite"] == "grol1" and rep["passed"] is True
    assert all(p["counterexample"] is None for p in rep["properties"])


def test_verify_reproducible(capsys):
    a = run_json(capsys, "verify", "grop1", "--n", "2", "--trials", "6",
                 "--seed", "9", "--json")
    b = run_json(capsys, "verify", "grop1", "--n", "2", "--trials", "6",
                 "--seed", "9", "--json")
    for rep in (a[0], b[0]):
        rep.pop("wall_time_s")
    assert a == b


def test_verify_counterexample_carries_reproduction_data(capsys):
    code, out, _ = run_cli(capsys, "verify", "rbst2", "--n", "2", "--trials",
                           "5", "--seed", "3", "--json")
    assert code == 1
    reports = json.loads(out)
    failing = [p for p in reports[0]["properties"] if not p["passed"]]
    assert len(failing) == 1
    ce = failing[0]["counterexample"]
    assert ce["seed"] == 3 and "trial" in ce and "n" in ce
    assert ce["property"] == "projection_invariant_on_orbits"


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_mutant_is_caught(capsys, monkeypatch):
    # disable the skew-difference check in the fiber membership test: the
    # fiber suite must then fail with a counterexample
    import jetframes.suites as suites_mod

    def broken_fiber(q, p):
        return p.x == q.x and p.a == q.a

    monkeypatch.setattr(suites_mod, "fiber_hat22_contains", broken_fiber)
    code, out, _ = run_cli(capsys, "verify", "rbsl2", "--n", "2", "--n", "3",
                           "--trials", "30", "--seed", "1")
    assert code == 1
    assert "FAIL rbsl2.fiber_membership_matches_projection" in out


# ---------------------------------------------------------------------------
# output


@pytest.mark.parametrize("n", ["40", "1"])
def test_closed_stdout_exits_1_without_traceback(n):
    # n = 40 fails while writing, n = 1 only at the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jetframes", "gen", "hat2", "--n", n],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# ---------------------------------------------------------------------------
# the process entry: main, a flush, then os._exit

ROOT = Path(__file__).resolve().parent.parent
# stdout block-buffered, as without PYTHONUNBUFFERED, so a lost flush shows
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}


def run_entry(tmp_path, *argv):
    return subprocess.run([sys.executable, "-m", "jetframes", *argv],
                          cwd=tmp_path, env=ENV, capture_output=True, text=True,
                          timeout=120)


def test_entry_writes_the_whole_document_before_it_ends(capsys, tmp_path):
    # the largest document: the flush before os._exit writes all of it
    _, expected, _ = run_cli(capsys, "gen", "hat2", "--n", "40")
    proc = run_entry(tmp_path, "gen", "hat2", "--n", "40")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_entry_writes_the_whole_error_line(capsys, tmp_path):
    bad = write_doc(tmp_path, "bad.json", {"group": "hat2", "n": 1,
                                           "a": [["1/0"]], "f": [[["0"]]]})
    code, _, expected = run_cli(capsys, "op", "inv", "--group", "hat2", bad)
    assert code == 2 and expected.startswith("error: ")
    proc = run_entry(tmp_path, "op", "inv", "--group", "hat2", bad)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)


def test_entry_writes_the_whole_failing_report(tmp_path):
    proc = run_entry(tmp_path, "verify", "rbst2", "--n", "1", "--trials", "1",
                     "--json")
    assert proc.returncode == 1, proc.stderr
    [report] = json.loads(proc.stdout)
    assert report["suite"] == "rbst2" and report["passed"] is False


def test_no_process_outlives_verify():
    # os._exit waits for no child: every worker is reaped before it runs
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetframes", "verify", "prel1", "--n", "1",
         "--n", "2", "--trials", "1"],
        stdout=subprocess.DEVNULL, env=ENV, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


class _Exited(Exception):
    pass


def _fake_exit(monkeypatch, streams):
    """Make ``os._exit`` raise ``_Exited`` with its code and what each of
    ``streams`` had flushed to its bytes when it was called."""
    real_exit, pid = os._exit, os.getpid()

    def _exit(code):
        if os.getpid() != pid:  # a forked verify worker
            real_exit(code)
        raise _Exited(code, *(s.buffer.getvalue().decode() for s in streams))

    monkeypatch.setattr(os, "_exit", _exit)


@pytest.mark.parametrize("bad", [False, True], ids=["gen", "malformed"])
def test_run_flushes_then_ends_with_the_code(capsys, monkeypatch, tmp_path,
                                              bad):
    argv = ["gen", "hat2", "--n", "2"]
    if bad:
        argv = ["op", "inv", "--group", "hat2",
                write_doc(tmp_path, "bad.json", {"group": "hat2"})]
    code, out, err = run_cli(capsys, *argv)
    # text streams that hold what is written until they are flushed
    stdout, stderr = streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
                                for _ in range(2)]
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "argv", ["jetframes", *argv])
    _fake_exit(monkeypatch, streams)
    with pytest.raises(_Exited) as exc:
        cli.run()
    assert code == (2 if bad else 0)
    assert exc.value.args == (code, out, err)


def test_run_ends_with_1_when_the_reader_has_gone(monkeypatch):
    class Gone(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Gone())
    monkeypatch.setattr(sys, "argv", ["jetframes", "gen", "hat2", "--n", "1"])
    _fake_exit(monkeypatch, [])
    with pytest.raises(_Exited) as exc:
        cli.run()
    assert exc.value.args == (1,)


def test_main_returns_its_code_and_never_calls_os_exit(capsys, monkeypatch,
                                                       tmp_path):
    _fake_exit(monkeypatch, [])
    bad = write_doc(tmp_path, "bad.json", [])
    assert main(["gen", "hat2", "--n", "1"]) == 0
    assert main(["classify", bad]) == 2
    assert main(["verify", "prel1", "--n", "1", "--n", "2", "--trials", "1"]) == 0


def test_the_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert doc["project"]["scripts"] == {"jetframes": "jetframes.cli:run"}

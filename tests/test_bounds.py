"""The input boundary: oversized or malformed input ends in exit code 2.

Caps are tested at MAX + 1 only, and the work they guard is replaced by a
stub that fails the test, so a missing cap cannot run a huge job here.
"""

import json

import pytest

from jetframes import cli, suites
from jetframes.cli import MAX_TRIALS, main
from jetframes.errors import ParseError
from jetframes.serialize import (
    MAX_N,
    bilinear_from_doc,
    frame_from_doc,
    group_from_doc,
    jet_from_doc,
    matrix_from_doc,
    vector_from_doc,
)


def _exit_code(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, err


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, err = _exit_code(capsys, "op", "inv", "--group", "hat2", str(path))
    assert code == 2
    assert "nested too deeply" in err


def test_integer_too_long_to_convert_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text("[" + "1" * 5000 + "]")
    code, err = _exit_code(capsys, "op", "inv", "--group", "hat2", str(path))
    assert code == 2
    assert "invalid JSON" in err


@pytest.fixture
def no_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a capped input reached the work it guards")

    monkeypatch.setattr(suites, "run_suites", fail)  # what verify imports
    monkeypatch.setattr(cli.rg, "stream", fail)


def test_gen_n_is_capped(capsys, no_work):
    code, err = _exit_code(capsys, "gen", "hat2", "--n", str(MAX_N + 1))
    assert code == 2 and str(MAX_N) in err
    assert _exit_code(capsys, "gen", "hat2", "--n", "0")[0] == 2


def test_verify_n_and_trials_are_capped(capsys, no_work):
    code, err = _exit_code(capsys, "verify", "prel1", "--n", "2", "--n",
                           str(MAX_N + 1), "--trials", "1")
    assert code == 2 and str(MAX_N) in err
    code, err = _exit_code(capsys, "verify", "prel1", "--n", "1",
                           "--trials", str(MAX_TRIALS + 1))
    assert code == 2 and str(MAX_TRIALS) in err
    assert _exit_code(capsys, "verify", "prel1", "--trials", "0")[0] == 2


def test_verify_rejects_a_repeated_n(capsys, no_work):
    code, err = _exit_code(capsys, "verify", "rbsl1", "--n", "2", "--n", "2")
    assert code == 2 and "--n" in err


def test_caps_leave_acceptance_and_benchmark_sizes_valid(capsys):
    assert MAX_N >= 12 and MAX_TRIALS >= 200
    code = main(["gen", "hat2", "--n", "12", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and group_from_doc(doc).n == 12


@pytest.mark.parametrize("parse, doc", [
    (group_from_doc, {"group": "hat2", "n": MAX_N + 1, "a": [], "f": []}),
    (frame_from_doc, {"kind": "hol", "n": MAX_N + 1, "x": [], "a": []}),
    (matrix_from_doc, [["1"]] * (MAX_N + 1)),
    (bilinear_from_doc, {"n": MAX_N + 1, "coeffs": [[["1"]]] * (MAX_N + 1)}),
    (vector_from_doc, ["0"] * (MAX_N + 1)),
    (jet_from_doc, {"base": ["0"] * (MAX_N + 1), "value": ["0"], "jac": [["1"]],
                    "hess": [[["0"]]]}),
    # an inner level over the cap is rejected before its entries ("x") are read
    (matrix_from_doc, [["x"] * (MAX_N + 1)]),
    (bilinear_from_doc, {"n": 1, "coeffs": [[["x"]] * (MAX_N + 1)]}),
    (bilinear_from_doc, {"n": 1, "coeffs": [[["x"] * (MAX_N + 1)]]}),
    (group_from_doc, {"group": "hat2", "n": 1, "a": [["x"] * (MAX_N + 1)],
                      "f": [[["0"]]]}),
    (frame_from_doc, {"kind": "hol", "n": 1, "x": ["0"], "a": [["1"]],
                      "f": [[["x"] * (MAX_N + 1)]]}),
    (jet_from_doc, {"base": ["0"], "value": ["0"], "jac": [["x"] * (MAX_N + 1)],
                    "hess": [[["0"]]]}),
    # a JSON boolean is not a dimension
    (group_from_doc, {"group": "hat2", "n": True, "a": [["1"]], "f": [[["0"]]]}),
    (frame_from_doc, {"kind": "hol", "n": True, "x": ["0"], "a": [["1"]],
                      "f": [[["0"]]]}),
    (bilinear_from_doc, {"n": True, "coeffs": [[["0"]]]}),
])
def test_document_dimension_is_capped(parse, doc):
    with pytest.raises(ParseError, match=str(MAX_N)):
        parse(doc)


def test_document_cap_is_a_cli_exit_2(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"group": "hat2", "n": MAX_N + 1, "a": [], "f": []}))
    assert _exit_code(capsys, "op", "inv", "--group", "hat2", str(path))[0] == 2


@pytest.mark.parametrize("group", ["x" * 1_400_000, ["hat2x"] * 100_000])
def test_wrong_group_tag_is_not_echoed_in_full(capsys, tmp_path, group):
    path = tmp_path / "tag.json"
    path.write_text(json.dumps({"group": group, "n": 1, "a": [["1"]],
                                "f": [[["0"]]]}))
    code, err = _exit_code(capsys, "op", "inv", "--group", "hat2", str(path))
    assert code == 2 and err.startswith("error:")
    assert len(err) < 200 + len(str(path))


@pytest.mark.parametrize("argv", [("project", "20"), ("classify",),
                                  ("oracle", "act", "JET")])
def test_tag_that_is_not_a_string_is_a_cli_exit_2(capsys, tmp_path, argv):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps({"kind": ["hol"], "n": 1, "x": ["0"],
                                 "a": [["1"]], "f": [[["0"]]]}))
    jet = tmp_path / "jet.json"
    jet.write_text(json.dumps({"base": ["0"], "value": ["0"], "jac": [["1"]],
                               "hess": [[["0"]]]}))
    code = main([str(jet) if a == "JET" else a for a in argv] + [str(frame)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("op", [("mul", "--group", "hat2"), ("conj",),
                                ("coset-equal",)])
def test_binary_op_on_different_dimensions_is_a_cli_exit_2(capsys, tmp_path, op):
    paths = []
    for n in (2, 3):
        assert main(["gen", "hat2", "--n", str(n), "--seed", "1"]) == 0
        path = tmp_path / f"n{n}.json"
        path.write_text(capsys.readouterr().out)
        paths.append(str(path))
    for pair in (paths, paths[::-1]):
        code, err = _exit_code(capsys, "op", *op, *pair)
        assert code == 2 and "has n = " in err
        assert capsys.readouterr().out == ""

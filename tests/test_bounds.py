"""The input boundary: oversized or malformed input ends in exit code 2.

Caps are tested at MAX + 1 only, and the work they guard is replaced by a
stub that fails the test, so a missing cap cannot run a huge job here.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import jetframes
from jetframes import cli, suites
from jetframes.cli import MAX_TRIALS, main
from jetframes.errors import JetFramesError, ParseError
from jetframes.rational import rat_to_str, rats_to_strs
from jetframes.serialize import (
    MAX_DEN_DIGITS,
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


# The interpreter's default limit on the digits of an int's text, which
# PYTHONINTMAXSTRDIGITS or sys.set_int_max_str_digits can change or lift (0):
# the tests of that limit pin it, in the process and in a child's environment.
DIGIT_LIMIT = 4300


@pytest.fixture
def digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    yield
    sys.set_int_max_str_digits(old)


def test_integer_too_long_to_convert_is_a_parse_error(capsys, tmp_path, digit_limit):
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


# ---------------------------------------------------------------------------
# the common denominator of an array


def _primes_above(start: int, count: int) -> list[int]:
    """The first ``count`` primes above ``start``, sieved in one segment."""
    width = 20 * count
    sieve = bytearray([1]) * width
    for p in range(2, int((start + width) ** 0.5) + 1):
        sieve[-start % p::p] = bytes(len(range(-start % p, width, p)))
    return [start + i for i, prime in enumerate(sieve) if prime][:count]


def test_common_denominator_of_the_digit_limit_is_read():
    den = 10 ** (MAX_DEN_DIGITS - 1)  # MAX_DEN_DIGITS digits
    m = matrix_from_doc([[f"1/{den}", "2/5"], ["1/2", "0"]])
    assert m.den == den


@pytest.mark.parametrize("rank", [2, 3])
def test_common_denominator_past_the_digit_limit_is_refused(rank):
    # 2^4300 and 5^4300 have 1295 and 3006 digits; their lcm 10^4300 has 4301
    leaves = [f"1/{2 ** MAX_DEN_DIGITS}", f"1/{5 ** MAX_DEN_DIGITS}"]
    with pytest.raises(ParseError, match=f"more than {MAX_DEN_DIGITS} digits"):
        if rank == 2:
            matrix_from_doc([leaves, ["1", "0"]])
        else:
            bilinear_from_doc({"n": 2, "coeffs": [[leaves, ["1", "0"]]] * 2})


def test_array_of_many_prime_denominators_is_refused_in_a_process(tmp_path):
    """A hat2 document at n = 16 whose 4096 coefficients have distinct
    7-digit prime denominators: their lcm has about 24 600 digits, and every
    stored int would be scaled to it.  The refusal comes as the lcm grows."""
    n = 16
    dens = iter(_primes_above(10 ** 6, n ** 3))
    doc = {"group": "hat2", "n": n,
           "a": [[str(int(i == j)) for j in range(n)] for i in range(n)],
           "f": [[[f"1/{next(dens)}" for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]}
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "jetframes", "op", "inv",
                           "--group", "hat2", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: bilinear common denominator has more than "
                           f"{MAX_DEN_DIGITS} digits\n")


# Two n = 1 hat2 documents, each under every cap, whose product's bilinear
# part has a 5001-digit denominator: past the interpreter's default limit of
# 4300 digits for the text of an int, which the writer must refuse cleanly.
_WIDE_DENS = (10 ** 2500 + 1, 10 ** 2500 + 3)
_TOO_LONG = ("error: cannot write the result: a number has more digits than "
             "the interpreter's limit for the text of an int\n")


def _wide_docs(tmp_path) -> list[str]:
    paths = []
    for i, d in enumerate(_WIDE_DENS):
        path = tmp_path / f"wide{i}.json"
        path.write_text(json.dumps({"group": "hat2", "n": 1, "a": [["1"]],
                                    "f": [[[f"1/{d}"]]]}))
        paths.append(str(path))
    return paths


def test_result_past_the_digit_limit_is_an_error_not_a_traceback(capsys, tmp_path,
                                                               digit_limit):
    den = _WIDE_DENS[0] * _WIDE_DENS[1]
    with pytest.raises(JetFramesError, match="cannot write the result"):
        rats_to_strs([1], den)
    with pytest.raises(JetFramesError, match="cannot write the result"):
        rats_to_strs([den], 1)
    with pytest.raises(JetFramesError, match="cannot write the result"):
        rat_to_str(Fraction(1, den))
    code = main(["op", "mul", "--group", "hat2", *_wide_docs(tmp_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", _TOO_LONG)


def test_result_past_the_digit_limit_exits_2_in_a_process(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1]),
           "PYTHONINTMAXSTRDIGITS": str(DIGIT_LIMIT)}
    proc = subprocess.run([sys.executable, "-m", "jetframes", "op", "mul",
                           "--group", "hat2", *_wide_docs(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", _TOO_LONG)

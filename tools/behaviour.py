"""Behaviour corpus: one fixed set of CLI invocations, each pinned by a digest.

Runs every invocation of the corpus in this process through ``cli.main``,
with stdout and stderr captured, and prints a JSON object that maps each
invocation's name to the sha256 of its record (exit code, stdout, stderr):

    PYTHONPATH=src python3 tools/behaviour.py             # the digests
    PYTHONPATH=src python3 tools/behaviour.py --show NAME  # one record

The corpus:

* ``gen`` of every kind at n = 1, 2 and 5, and with ``--origin`` for the
  kinds that have base points;
* every ``op`` row (``mul`` and ``inv`` under every ``--group``), every
  ``project`` level on every second-order frame kind, ``classify``,
  ``decompose``, ``oracle compose`` and ``oracle act`` on generated
  documents at n = 1..3;
* the twelve commands of the benchmark's cli-docs round at n = 2 and 12;
* documents with rationals that are not in lowest terms, and the error
  cases: bad leaves, bad shapes, caps, bad tags, files and flags.

The documents are written to a temporary directory that is the working
directory while the corpus runs, so file names in error messages do not
depend on where it runs, and usage messages are wrapped at 80 columns
whatever the terminal.  ``tests/golden/behaviour.json`` holds the digests;
a change that is meant to move one re-records the file and names the
invocations that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from unittest import mock

from jetframes import cli, groups, serialize
from jetframes import randgen as rg

GEN_NS = (1, 2, 5)
DOC_NS = (1, 2, 3)
CLI_DOCS_NS = (2, 12)
SEED = 42
BASED = ("nonhol", "semihol", "hol", "map2jet")  # the kinds --origin pins
SECOND_ORDER = ("nonhol", "semihol", "hol")


def run(argv: list[str]) -> str:
    """The record of ``jetframes argv``: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
    return f"exit {code}\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def _write(name: str, doc) -> str:
    with open(name, "w") as fh:
        fh.write(json.dumps(doc, indent=2))
    return name


def _gen(kind: str, n: int, seed: int, origin: bool = False) -> list[str]:
    return ["gen", kind, "--n", str(n), "--seed", str(seed),
            *(["--origin"] if origin else [])]


def _gen_file(name: str, *args) -> str:
    """``name``, holding the output of ``gen`` with ``args``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(_gen(*args)) == 0, args
    with open(name, "w") as fh:
        fh.write(out.getvalue())
    return name


def _gen_cases() -> dict[str, list[str]]:
    cases = {}
    for kind in cli.GEN_KINDS:
        for n in GEN_NS:
            cases[f"gen/{kind}/n{n}"] = _gen(kind, n, SEED + n)
            if kind in BASED:
                cases[f"gen/{kind}/n{n}/origin"] = _gen(kind, n, SEED + n, True)
    cases["gen/hat2/n2/origin"] = _gen("hat2", 2, SEED, True)  # refused
    return cases


def _doc_cases(n: int) -> dict[str, list[str]]:
    """Every command that reads documents, on documents generated at ``n``."""
    doc = {}
    for kind in cli.GEN_KINDS:
        for side, seed in (("x", 100 + n), ("y", 200 + n)):
            doc[kind, side] = _gen_file(f"{kind}-{side}-n{n}.json", kind, n, seed)
    for kind in ("nonhol", "map2jet"):
        for side, seed in (("x", 300 + n), ("y", 400 + n)):
            doc[kind, side + "0"] = _gen_file(
                f"{kind}-{side}0-n{n}.json", kind, n, seed, True)
    cases = {}
    for op, (tags, _) in cli._OPS.items():
        for group in groups.GROUPS if None in tags else (None,):
            kinds = [group or tag for tag in tags]
            inputs = [doc[kind, side] for kind, side in zip(kinds, "xy")]
            flags = ["--group", group] if group else []
            name = f"op/{op}/{group}" if group else f"op/{op}"
            cases[f"{name}/n{n}"] = ["op", op, *flags, *inputs]
    for level in cli._PROJECT:
        for kind in SECOND_ORDER:
            cases[f"project/{level}/{kind}/n{n}"] = ["project", level, doc[kind, "x"]]
    for kind in SECOND_ORDER:
        cases[f"classify/{kind}/n{n}"] = ["classify", doc[kind, "x"]]
    cases[f"decompose/n{n}"] = ["decompose", doc["hat2", "x"]]
    cases[f"oracle/compose/n{n}"] = ["oracle", "compose", doc["map2jet", "x0"],
                                     doc["map2jet", "y0"]]
    cases[f"oracle/act/n{n}"] = ["oracle", "act", doc["map2jet", "x0"],
                                 doc["nonhol", "x0"]]
    return cases


def _cli_docs_cases(n: int) -> dict[str, list[str]]:
    """The benchmark's cli-docs round at ``n``, on its documents at seed 42."""
    rng = rg.stream(SEED, "cli-docs", n)
    x, y = rg.rand_hat2(rng, n), rg.rand_hat2(rng, n)
    q = rg.rand_nonhol(rng, n)
    q0 = replace(rg.rand_nonhol(rng, n), x=(Fraction(0),) * n)
    jet = rg.rand_map2jet(rng, n, base=q0.x)
    path = {name: _write(f"cli-docs-{name}-n{n}.json", serialize.to_doc(value))
            for name, value in (("x", x), ("y", y), ("q", q), ("q0", q0),
                                ("jet", jet))}
    return {
        f"cli-docs/gen/n{n}": _gen("hat2", n, SEED + n),
        f"cli-docs/op-mul/n{n}": ["op", "mul", "--group", "hat2", path["x"],
                                  path["y"]],
        f"cli-docs/op-inv/n{n}": ["op", "inv", "--group", "hat2", path["x"]],
        f"cli-docs/project-pi/n{n}": ["project", "pi", path["q"]],
        f"cli-docs/classify/n{n}": ["classify", path["q"]],
        f"cli-docs/oracle-act/n{n}": ["oracle", "act", path["jet"], path["q0"]],
    }


HAT2 = {"group": "hat2", "n": 2, "a": [["2", "1"], ["1", "1"]],
        "f": [[["0", "1/2"], ["1/2", "0"]], [["1", "0"], ["0", "-1/3"]]]}
NONHOL = {"kind": "nonhol", "n": 1, "x": ["0"], "a": [["1"]], "b": [["2"]],
          "f": [[["1/2"]]]}
DIGITS = "1" + "0" * 4300  # one more digit than a rational part may have


def _with(doc: dict, key: str, value) -> dict:
    return {**doc, key: value}


# documents that are valid but not canonical, and documents each with one
# fault; every one is read by ``op inv --group hat2`` unless it is a frame
DOCS = {
    "noncanonical": _with(HAT2, "f", [[["0", "10/20"], ["2/4", "-0"]],
                                      [["3/3", "0/7"], ["0", "-2/6"]]]),
    "noncanonical-matrix": _with(HAT2, "a", [["4/2", "7/7"], ["-0", "6/6"]]),
    "mixed-denominators": _with(HAT2, "f", [[["1/7", "5/6"], ["1/2", "-9/10"]],
                                            [["11/3", "0"], ["1/4", "2"]]]),
    "long-parts": _with(HAT2, "f", [[["9" * 60, "1/" + "7" * 60],
                                     ["-" + "3" * 59 + "/" + "8" * 60, "0"]],
                                    [["1", "0"], ["0", "1"]]]),
    "non-string-leaf": _with(HAT2, "a", [["2", 1], ["1", "1"]]),
    "null-leaf": _with(HAT2, "f", [[["0", None], ["1/2", "0"]],
                                   [["1", "0"], ["0", "-1/3"]]]),
    "bad-grammar": _with(HAT2, "a", [["2", "01"], ["1", "1"]]),
    "bad-grammar-bilinear": _with(HAT2, "f", [[["0", "1/2"], ["1/2", " 0"]],
                                              [["1", "0"], ["0", "-1/3"]]]),
    "zero-denominator": _with(HAT2, "f", [[["0", "1/0"], ["1/2", "0"]],
                                          [["1", "0"], ["0", "-1/3"]]]),
    "first-bad-leaf": _with(HAT2, "f", [[["0", "x"], ["1/2", 7]],
                                        [["1", "0"], ["0", "y"]]]),
    "digits-4301": _with(HAT2, "f", [[["0", DIGITS], ["1/2", "0"]],
                                     [["1", "0"], ["0", "-1/3"]]]),
    "digits-4301-denominator": _with(HAT2, "a", [["2", "1/" + DIGITS], ["1", "1"]]),
    # coprime denominators of 2201 digits: a common one of 4401
    "common-denominator": _with(HAT2, "f", [
        [["0", f"1/{10 ** 2200}"], [f"1/{10 ** 2200 + 1}", "0"]],
        [["1", "0"], ["0", "-1/3"]]]),
    "jagged-matrix": _with(HAT2, "a", [["2", "1"], ["1"]]),
    "jagged-bilinear": _with(HAT2, "f", [[["0", "1/2"], ["1/2", "0"]],
                                         [["1", "0"]]]),
    "jagged-bilinear-row": _with(HAT2, "f", [[["0", "1/2"], ["1/2", "0"]],
                                             [["1", "0"], ["0"]]]),
    "empty-matrix": _with(HAT2, "a", []),
    "empty-row": _with(HAT2, "a", [[]]),
    "empty-bilinear": _with(HAT2, "f", []),
    "empty-plane": _with(HAT2, "f", [[], []]),
    "not-an-array": _with(HAT2, "f", [["0", "1"], ["1", "0"]]),
    "object-row": _with(HAT2, "a", [{"0": "1"}, ["1", "1"]]),
    "max-n-plus-1-rows": _with(HAT2, "a", [["1"]] * 65),
    "max-n-plus-1-row": _with(HAT2, "a", [["x"] * 65, ["1", "1"]]),
    "max-n-plus-1-n": {**HAT2, "n": 65, "a": [], "f": []},
    "wrong-n": _with(HAT2, "n", 3),
    "shape-disagrees": {**HAT2, "a": [["1"]], "f": [[["0"]]]},
    "wrong-tag": _with(HAT2, "group", "hat3"),
    "tag-not-a-string": _with(HAT2, "group", ["hat2"]),
    "other-group": _with(HAT2, "group", "g2"),
    "missing-field": {key: HAT2[key] for key in ("group", "n", "a")},
    "singular": _with(HAT2, "a", [["1", "2"], ["1/2", "1"]]),
    "frame-bad-point": _with(NONHOL, "x", ["0/1/2"]),
    "frame-non-string-point": _with(NONHOL, "x", [0]),
    "frame-singular-b": _with(NONHOL, "b", [["0"]]),
}
FRAME_DOCS = ("frame-bad-point", "frame-non-string-point", "frame-singular-b")


def _error_cases() -> dict[str, list[str]]:
    cases = {}
    for name, doc in DOCS.items():
        path = _write(f"doc-{name}.json", doc)
        argv = (["project", "pi", path] if name in FRAME_DOCS
                else ["op", "inv", "--group", "hat2", path])
        cases[f"doc/{name}"] = argv
    with open("not-json.json", "w") as fh:
        fh.write('{"group": "hat2", ')
    cases["error/invalid-json"] = ["op", "inv", "--group", "hat2", "not-json.json"]
    cases["error/missing-file"] = ["op", "inv", "--group", "hat2", "missing.json"]
    cases["error/n-mismatch"] = ["op", "mul", "--group", "hat2",
                                 _write("hat2-n1.json", {**HAT2, "n": 1, "a": [["1"]],
                                                         "f": [[["0"]]]}),
                                 "doc-noncanonical.json"]
    cases["error/input-count"] = ["op", "mul", "--group", "hat2",
                                  "doc-noncanonical.json"]
    cases["error/no-group"] = ["op", "inv", "doc-noncanonical.json"]
    cases["error/gen-n-65"] = ["gen", "hat2", "--n", "65"]
    cases["error/gen-n-0"] = ["gen", "hat2", "--n", "0"]
    cases["error/verify-n-65"] = ["verify", "axioms", "--n", "65", "--trials", "1"]
    cases["error/verify-trials-0"] = ["verify", "all", "--trials", "0"]
    cases["error/project-kind"] = ["project", "hat22", "doc-frame-bad-point.json"]
    cases["usage/unknown-kind"] = ["gen", "hat3"]
    cases["usage/no-command"] = []
    cases["usage/unknown-option"] = ["classify", "x.json", "--fast"]
    return cases


def corpus() -> dict[str, list[str]]:
    """Every invocation by name; writes its documents to the working directory."""
    cases = _gen_cases()
    for n in DOC_NS:
        cases.update(_doc_cases(n))
    for n in CLI_DOCS_NS:
        cases.update(_cli_docs_cases(n))
    cases.update(_error_cases())
    return cases


def records(names=None) -> dict[str, str]:
    """The record of each invocation in ``names`` (default: all), by name."""
    home = os.getcwd()
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.dict(os.environ, COLUMNS="80")):
        os.chdir(tmp)
        try:
            cases = corpus()
            unknown = set(names or ()) - set(cases)
            if unknown:
                raise KeyError(f"not in the corpus: {', '.join(sorted(unknown))}")
            return {name: run(argv) for name, argv in cases.items()
                    if names is None or name in names}
        finally:
            os.chdir(home)


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", metavar="NAME",
                        help="print the record of one invocation instead")
    args = parser.parse_args(argv)
    if args.show:
        try:
            sys.stdout.write(records([args.show])[args.show])
        except KeyError as exc:
            parser.error(exc.args[0])
        return 0
    json.dump({name: digest(record) for name, record in records().items()},
              sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""References for the verify-all workload, and the check against them.

A reference is the ``verify all --json`` report at ``TRIALS`` trials and
n = 1..4, reduced to the fields that exist at the commit that recorded it:
per suite ``suite, ns, trials, seed, passed`` and per property ``name,
passed, trials_run, failures, counterexample``.  Timings and fields added
later are ignored.  The known false statement (criterion 10,
``rbst2.projection_invariant_on_orbits``) fails in the reference, with its
counterexample, so exit code 1 is the expected outcome.

Seed 42 is the default; ``HELD_OUT_SEED`` is kept for re-checking a claim on
a seed not used while the claim was written.  To re-record, which is only
right when a change is meant to alter the report, run from the repository
root:

    python3 perfbench/verify_ref.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 42
HELD_OUT_SEED = 1504
REF_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
TRIALS = 2
NS = (1, 2, 3, 4)

_SUITE_FIELDS = ("suite", "ns", "trials", "seed", "passed")
_PROPERTY_FIELDS = ("name", "passed", "trials_run", "failures", "counterexample")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def verify_seed(bench_seed: int) -> int:
    """The ``verify all --seed`` that a benchmark seed runs.

    A report can only be checked against a recorded reference, so a
    benchmark seed without one selects a reference seed by its parity.  The
    run record gives the seed that ran as ``inputs.verify_seed``, and the
    benchmark says so on stderr.  To measure another seed, record its
    reference first (add it to ``REF_SEEDS`` and run this file).
    """
    if bench_seed in REF_SEEDS:
        return bench_seed
    return REF_SEEDS[bench_seed % len(REF_SEEDS)]


def command(seed: int) -> list[str]:
    ns = [arg for n in NS for arg in ("--n", str(n))]
    return ["-m", "jetframes", "verify", "all", "--trials", str(TRIALS),
            "--seed", str(seed), *ns, "--json"]


def normalize(report) -> list[dict]:
    return [{**{k: suite[k] for k in _SUITE_FIELDS},
             "properties": [{k: p[k] for k in _PROPERTY_FIELDS}
                            for p in suite["properties"]]}
            for suite in report]


def load(seed: int) -> dict:
    return json.loads((REFERENCE_DIR / f"verify-all_seed{seed}.json").read_text())


def trials_in(ref: dict) -> int:
    return sum(p["trials_run"] for s in ref["report"] for p in s["properties"])


def judge(returncode: int, stdout: bytes, ref: dict) -> tuple[int, int, str | None]:
    """Compare one run with its reference: (trials, failed trials, problem).

    A trial counts as failed when its property's result differs from the
    reference; a wrong exit code or an unreadable report fails every trial.
    """
    total = trials_in(ref)
    if returncode != ref["exit_code"]:
        return total, total, f"exit code {returncode}, expected {ref['exit_code']}"
    try:
        got = {s["suite"]: s for s in normalize(json.loads(stdout))}
    except (ValueError, KeyError, TypeError) as exc:
        return total, total, f"unreadable report: {exc!r}"
    failed = 0
    problem = None
    for want in ref["report"]:
        have = got.get(want["suite"])
        trials = sum(p["trials_run"] for p in want["properties"])
        if have is None or any(have[k] != want[k] for k in _SUITE_FIELDS) \
                or len(have["properties"]) != len(want["properties"]):
            failed += trials
            problem = problem or f"suite {want['suite']} differs"
            continue
        for hp, wp in zip(have["properties"], want["properties"]):
            if hp != wp:
                failed += wp["trials_run"]
                problem = problem or f"{want['suite']}.{wp['name']} differs"
    if len(got) != len(ref["report"]):
        failed = total
        problem = problem or "report has other suites"
    return total, failed, problem


def record(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in REF_SEEDS:
        proc = subprocess.run([sys.executable, *command(seed)], env=env, cwd=root,
                              capture_output=True, check=False)
        ref = {"seed": seed, "trials": TRIALS, "ns": list(NS),
               "exit_code": proc.returncode,
               "report": normalize(json.loads(proc.stdout))}
        path = REFERENCE_DIR / f"verify-all_seed{seed}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{path.name}: exit {proc.returncode}, {trials_in(ref)} trials")


if __name__ == "__main__":
    record(Path(__file__).resolve().parents[1])

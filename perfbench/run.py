"""The jetframes benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (see README.md beside this file for why each exists):

* ``verify-all`` -- ``jetframes verify all --json`` processes, one after the
  other, each report checked against a recorded reference;
* ``ops-large``  -- a round-robin of library calls at n = 8 and 12 in one
  worker process, each result checked by an exact identity;
* ``cli-docs``   -- fresh ``jetframes`` processes on documents at n = 2 and
  12, each output compared with the in-process result of the same call.

Every workload is a closed loop with one client.  With ``--trace 0`` it
measures for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it runs a fixed amount of the same work once untraced and once
traced, and prints the per-layer metrics and the layer sweep.  The last line
of stdout is the result; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import verify_ref
from timing import Requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
CHILD = str(HERE / "child.py")
PY = sys.executable

SETUP_RUNS = 25
CLI_NS = (2, 12)
CHILD_TIMEOUT_S = 150


class Bench:
    """Settings of one benchmark run and the processes it starts."""

    def __init__(self, args, work: Path):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        # The parent runs on one core, so that all its calibrations measure
        # the same core.  The workload processes get every core it was
        # given, so a runner that uses several cores can show it.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.core = self.cpus[-1:]
        os.sched_setaffinity(0, self.core)
        self.spawner = subprocess.Popen([PY, "-S", str(HERE / "spawner.py")], env=self.env,
                                        cwd=ROOT, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)
        self.peak_rss_kb = 0
        self.errors: list[str] = []
        self.tracing: dict | None = None
        self.sweep_checks = (0, 0)
        self._spans = 0

    def spawn(self, argv: list[str], setup: bool = False) -> tuple[float, int, bytes]:
        """Run ``python3 argv`` to its exit: (wall seconds, exit code, stdout).

        A ``setup`` process runs on the parent's core, and its memory stays
        out of ``peak_rss_mb``."""
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": [PY, *argv], "cpus": self.core if setup else self.cpus,
                   "stdout": str(out), "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        if not setup:
            self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        stderr = err.read_text(errors="replace").strip()
        if stderr:
            self.errors.append(stderr[-300:])
        return reply["wall_s"], reply["code"], out.read_bytes()

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spans_prefix(self) -> Path:
        self._spans += 1
        return self.work / f"trace{self._spans}"

    def note(self, problem: str | None) -> None:
        if problem:
            self.errors.append(problem)


def _timing_metrics(timing: dict, props: dict) -> dict:
    for key in ("requests", "machine_speed"):
        props[key] = timing[key]
    return {
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "request_ms.p50": (timing["request_ms.p50"], "ms"),
        "request_ms.p90": (timing["request_ms.p90"], "ms"),
    }


def _closed_loop(bench: Bench, one_round) -> None:
    start = time.perf_counter()
    while time.perf_counter() - start < bench.seconds:
        one_round()


# ---------------------------------------------------------------------------
# workloads: each returns (attempted, failed, metrics, input properties)


def verify_all(bench: Bench):
    seed = verify_ref.verify_seed(bench.seed)
    if seed != bench.seed:
        print(f"verify-all: seed {bench.seed} has no recorded reference; "
              f"running reference seed {seed}", file=sys.stderr)
    ref = verify_ref.load(seed)
    cmd = verify_ref.command(seed)
    totals = [0, 0]

    def invoke(argv, requests=None):
        wall, code, out = bench.spawn(argv)
        trials, failed, problem = verify_ref.judge(code, out, ref)
        if requests is not None:
            requests.add(wall, trials)
        bench.note(problem)
        totals[0] += trials
        totals[1] += failed

    props = {"verify_seed": seed, "trials": verify_ref.TRIALS,
             "ns": list(verify_ref.NS), "trials_per_process": verify_ref.trials_in(ref)}
    if not bench.trace:
        requests = Requests()
        _closed_loop(bench, lambda: invoke(cmd, requests))
        return totals[0], totals[1], _timing_metrics(requests.summary(), props), props
    untraced, traced = Requests(), Requests()
    invoke(cmd, untraced)
    prefix = bench.spans_prefix()
    invoke([CHILD, "--spans", str(prefix), "cli", *cmd[2:]], traced)
    metrics = layer_metrics(bench, [prefix], traced.total(), untraced.total())
    return totals[0], totals[1], metrics, props


def ops_large(bench: Bench):
    params = json.dumps({"seed": bench.seed, "seconds": bench.seconds})
    prefix = bench.spans_prefix() if bench.trace else None
    argv = [CHILD, "--spans", str(prefix), "ops", params] if prefix else [CHILD, "ops", params]
    wall, code, out = bench.spawn(argv)
    try:
        doc = json.loads(out.decode().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise SystemExit(f"ops-large worker failed (exit {code}): {exc!r}; "
                         + " | ".join(bench.errors))
    bench.errors += doc["errors"]
    props = {"ns": doc["ns"], "pool": doc["pool"], "factors": doc["factors"],
             "input_bits": doc["input_bits"], "rounds": doc["rounds"]}
    attempted, failed = doc["attempted"], doc["failed"] + (code != 0)
    if not bench.trace:
        return attempted, failed, _timing_metrics(doc["timing"], props), props
    metrics = layer_metrics(bench, [prefix], doc["traced_s"], doc["untraced_s"])
    return attempted, failed, metrics, props


def _cli_cases(bench: Bench) -> tuple[list, dict]:
    """The CLI calls of one cli-docs round, with the expected documents.

    Inputs are written once per run; expectations come from calling the same
    library functions in this process.
    """
    sys.path.insert(0, str(SRC))
    from dataclasses import replace
    from fractions import Fraction

    from jetframes import frames, groups, jets, serialize
    from jetframes import randgen as rg

    cases = []
    doc_bytes = {}
    for n in CLI_NS:
        rng = rg.stream(bench.seed, "cli-docs", n)
        x, y = rg.rand_hat2(rng, n), rg.rand_hat2(rng, n)
        q = rg.rand_nonhol(rng, n)
        q0 = replace(rg.rand_nonhol(rng, n), x=(Fraction(0),) * n)
        jet = rg.rand_map2jet(rng, n, base=q0.x)
        files = {}
        for name, doc in (("x", serialize.group_to_doc(x)), ("y", serialize.group_to_doc(y)),
                          ("q", serialize.frame_to_doc(q)), ("q0", serialize.frame_to_doc(q0)),
                          ("jet", serialize.jet_to_doc(jet))):
            path = bench.work / f"{name}-n{n}.json"
            path.write_text(json.dumps(doc, indent=2))
            files[name] = str(path)
            doc_bytes[f"{name}-n{n}"] = path.stat().st_size
        gen_seed = bench.seed + n
        gen = serialize.group_to_doc(rg.rand_hat2(rg.stream(gen_seed, "gen", "hat2", n), n))
        cases += [
            (["gen", "hat2", "--n", str(n), "--seed", str(gen_seed)], gen),
            (["op", "mul", "--group", "hat2", files["x"], files["y"]],
             serialize.group_to_doc(groups.mul_hat2(x, y))),
            (["op", "inv", "--group", "hat2", files["x"]],
             serialize.group_to_doc(groups.inv_hat2(x))),
            (["project", "pi", files["q"]], serialize.frame_to_doc(frames.proj_pi(q))),
            (["classify", files["q"]], {"class": frames.classify(q)}),
            (["oracle", "act", files["jet"], files["q0"]],
             serialize.frame_to_doc(jets.left_act_diffeo(jet, q0))),
        ]
        doc_bytes[f"gen-n{n}"] = len(json.dumps(gen, indent=2)) + 1
    return cases, doc_bytes


def cli_docs(bench: Bench):
    cases, doc_bytes = _cli_cases(bench)
    totals = [0, 0]

    def invoke(argv, expected, requests=None):
        wall, code, out = bench.spawn(argv)
        if requests is not None:
            requests.add(wall)
        totals[0] += 1
        try:
            ok = code == 0 and json.loads(out) == expected
        except ValueError:
            ok = False
        if not ok:
            totals[1] += 1
            bench.note(f"{' '.join(argv[-6:])}: exit {code} or wrong document")

    props = {"ns": list(CLI_NS), "calls_per_round": len(cases), "doc_bytes": doc_bytes}
    if not bench.trace:
        requests = Requests()

        def one_round():
            for argv, expected in cases:
                invoke(["-m", "jetframes", *argv], expected, requests)

        _closed_loop(bench, one_round)
        return totals[0], totals[1], _timing_metrics(requests.summary(), props), props
    untraced, traced = Requests(), Requests()
    prefixes = []
    for argv, expected in cases:
        invoke(["-m", "jetframes", *argv], expected, untraced)
    for argv, expected in cases:
        prefixes.append(bench.spans_prefix())
        invoke([CHILD, "--spans", str(prefixes[-1]), "cli", *argv], expected, traced)
    metrics = layer_metrics(bench, prefixes, traced.total(), untraced.total())
    return totals[0], totals[1], metrics, props


WORKLOADS = {"verify-all": verify_all, "ops-large": ops_large, "cli-docs": cli_docs}


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(bench: Bench, prefixes, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics of the traced processes, plus the layer sweep.

    ``traced_s`` and ``untraced_s`` are the same work's times at reference
    speed, with and without tracing."""
    agg = spans.aggregate(prefixes)
    wall = agg["wall_s"]
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (agg["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (agg["self_s"][layer], "s")
        metrics[f"{layer}.share"] = (agg["self_s"][layer] / wall, "ratio")
    metrics["scaled.kernel.max_bits"] = (agg["max_bits"], "bits")
    metrics["scaled.kernel.mults"] = (agg["mults"], "count")
    metrics["matrices.det.calls"] = (agg["det_calls"], "count")
    metrics["cli.import_s"] = (agg["import_s"], "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    bench.tracing = {"traced_s": traced_s, "untraced_s": untraced_s,
                     "spans": agg["spans"], "bookkeeping_s": agg["bookkeeping_s"]}
    _, code, out = bench.spawn([CHILD, "sweep", json.dumps({"seed": bench.seed})])
    sweep = json.loads(out.decode().splitlines()[-1])
    bench.sweep_checks = (sweep["attempted"], sweep["failed"] + (code != 0))
    for name, value in sweep["metrics"].items():
        metrics[name] = (value, "us")
    return metrics


def setup_seconds(bench: Bench) -> float:
    """Median time of a fresh interpreter importing ``jetframes.cli``,
    scaled to the reference speed (see timing.py).  The imports run on the
    core of the calibrations: one process has no use for a second core."""
    argv = ["-c", "import jetframes.cli"]
    requests = Requests()
    for _ in range(SETUP_RUNS):
        wall, code, _ = bench.spawn(argv, setup=True)
        if code != 0:
            raise SystemExit("importing jetframes.cli failed: " + " | ".join(bench.errors))
        requests.add(wall)
    return statistics.median(requests.times)


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jetframes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=verify_ref.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "jetframes" / "cli.py").is_file():
        print(f"error: no jetframes sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    bench = Bench(args, work)
    try:
        # The first import writes the bytecode cache, which users have.
        bench.spawn(["-c", "import jetframes.cli"], setup=True)
        setup_s = None if bench.trace else setup_seconds(bench)
        attempted, failed, metrics, props = WORKLOADS[args.workload](bench)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    attempted += bench.sweep_checks[0]
    failed += bench.sweep_checks[1]
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (bench.peak_rss_kb / 1024, "MB")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(bench.cpus), "git_sha": git_sha(), "src_sha256": src_digest(),
        "inputs": props, "tracing": bench.tracing, "errors": bench.errors[:5],
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Wall time of ``jetframes verify all`` on one core and on every usable core.

Runs ``python3 -m jetframes verify all --json`` at acceptance scale
(n = 1..4, 200 trials, seed 42) in fresh processes, once with its affinity
mask narrowed to the first usable core (so the items run in that process)
and once as it is (that process and one forked worker per further usable
core take the items from one queue) per round, alternating which goes
first.  It prints, per setting, each run's wall time, their median, the
median of the report's summed ``wall_time_s`` (the time the items took,
whichever process ran them) and the median share of the processes' time
spent in items: summed item time over (wall time x processes).  Every
report must equal the first one apart from ``wall_time_s``, and the exit
code must be 1 (criterion 10 fails by design); otherwise the script exits
with code 1.

Run from the root of a checkout::

    PYTHONPATH=src python3 tools/verify_jobs.py [--rounds 3] [--trials 200]
                                                [--seed 42] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

#: setting -> the affinity mask of its run (None: this process's own)
SETTINGS = {"one core": {min(os.sched_getaffinity(0))}, "default": None}
#: setting -> the processes of its run (verify all has more items than cores)
PROCESSES = {name: len(cpus or os.sched_getaffinity(0))
             for name, cpus in SETTINGS.items()}


def _run(cpus: set[int] | None, trials: int,
         seed: int) -> tuple[float, float, list]:
    """(wall seconds, summed ``wall_time_s``, report without the timings)."""
    argv = [sys.executable, "-m", "jetframes", "verify", "all", "--trials",
            str(trials), "--seed", str(seed), "--json"]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, capture_output=True, text=True, check=False,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))
    wall = time.perf_counter() - start
    if proc.returncode != 1:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}:\n"
                         f"{proc.stderr}")
    reports = json.loads(proc.stdout)
    summed = sum(report.pop("wall_time_s") for report in reports)
    return wall, summed, reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    runs: dict[str, list[tuple[float, float]]] = {name: [] for name in SETTINGS}
    reference = None
    for r in range(args.rounds):
        order = list(SETTINGS) if r % 2 == 0 else list(SETTINGS)[::-1]
        for name in order:
            wall, summed, reports = _run(SETTINGS[name], args.trials, args.seed)
            if reference is None:
                reference = reports
            elif reports != reference:
                print(f"{name}: the report differs from the first run",
                      file=sys.stderr)
                return 1
            runs[name].append((wall, summed))

    table = {
        name: {"wall_s": [round(w, 3) for w, _ in rs],
               "median_wall_s": round(statistics.median(w for w, _ in rs), 3),
               "median_summed_item_s": round(statistics.median(s for _, s in rs), 3),
               "processes": PROCESSES[name],
               "median_item_share": round(statistics.median(
                   s / (w * PROCESSES[name]) for w, s in rs), 3)}
        for name, rs in runs.items()}
    doc = {"trials": args.trials, "seed": args.seed, "ns": [1, 2, 3, 4],
           "usable_cpus": len(os.sched_getaffinity(0)), "runs": table}
    if args.json:
        print(json.dumps(doc, indent=1))
        return 0
    print(f"verify all, n = 1..4, {args.trials} trials, seed {args.seed}, "
          f"{doc['usable_cpus']} usable cores, {args.rounds} rounds")
    print(f"{'setting':<10} {'median wall s':>14} {'summed item s':>14} "
          f"{'item share':>11}  runs")
    for name, row in table.items():
        print(f"{name:<10} {row['median_wall_s']:>14.3f} "
              f"{row['median_summed_item_s']:>14.3f} "
              f"{row['median_item_share']:>11.3f}  {row['wall_s']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Law-level sweep: median microseconds per call of the group laws at each n.

Times the kernel laws ``mul_hat2``, ``inv_hat2``, ``conj_hat2``,
``mul_t1n``, ``mul_tilde2``, ``inv_tilde2`` and ``decompose_hat2``, and the
independent second routes ``left_act_diffeo``, ``g2_law_via_jets`` and
``mul_t1n_coordinate``, at n = 1, 2, 4, 8, 12 (or the ``--n`` values) on two
kinds of input: ``draw``, single generator draws (the coefficient size the
suites use), and ``product``, products of three draws (the wider
coefficients of library use; the action's frame and jet are built as the
ops-large benchmark builds them).  The timing loop is the benchmark's layer
sweep (``perfbench.sweep``): each sample repeats the call until it lasts at
least ``MIN_SAMPLE_S`` there, and the median of its ``K`` samples is
reported.  Every timed call is checked once against its exact identity, the
same identity as in ops-large.

With ``--suite-calls`` it times the kernel layer on the suites' own
traffic in place of the sweep: it captures the operands of every
``_scaled.s_law`` call of one ``run_suites(all, (1, 2, 3, 4), 1, seed)`` in
this process, pinned to one core (so the runner forks no worker), then
replays ``reduce(s_law(*terms))`` over all of them ``SUITE_RUNS`` times and
reports the median and the quartiles of the replay's wall time.

With ``--compare SRC`` it sizes a change: for each n it runs the sweep of
that n in one subprocess on this tree (the ``src`` the package is imported
from here) and in one on the package under ``SRC``, ``--rounds`` times,
the two sides alternating and each round starting with the other side.  It
reports, for every cell, the median of each side's rounds and their ratio
(this tree over ``SRC``, below 1 when this tree is faster).  Two sweeps run
one after the other cannot size a change on a shared machine: the load
moves cells that the change does not touch.

Run from the root of a checkout::

    PYTHONPATH=src python3 tools/law_sweep.py [--seed 42] [--n 3 4 5] [--json]
    PYTHONPATH=src python3 tools/law_sweep.py --suite-calls [--seed 42] [--json]
    PYTHONPATH=src python3 tools/law_sweep.py --compare OTHER/src [--rounds 3]
        [--seed 42] [--n 8 12] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jetframes
from jetframes import _scaled, bilinear, frames, jets, matrices, suites
from jetframes import groups as G
from jetframes import randgen as rg

sys.path.append(str(Path(__file__).resolve().parent.parent))
from perfbench.sweep import NS, _median_us  # noqa: E402

OPS = ("mul_hat2", "inv_hat2", "conj_hat2", "mul_t1n", "mul_tilde2",
       "inv_tilde2", "decompose_hat2", "left_act_diffeo", "g2_law_via_jets",
       "mul_t1n_coordinate")
KINDS = ("draw", "product")
SUITE_NS = (1, 2, 3, 4)
SUITE_RUNS = 21


def _inputs(seed: int, kind: str, n: int):
    rng = rg.stream(seed, "law-sweep", kind, n)
    factors = 1 if kind == "draw" else 3

    def make(gen, mul):
        x = gen(rng, n)
        for _ in range(factors - 1):
            x = mul(x, gen(rng, n))
        return x

    x, y = make(rg.rand_hat2, G.mul_hat2), make(rg.rand_hat2, G.mul_hat2)
    s, t = make(rg.rand_t1n, G.mul_t1n), make(rg.rand_t1n, G.mul_t1n)
    p, r = make(rg.rand_g2, G.mul_g2), make(rg.rand_g2, G.mul_g2)
    q = frames.act_nonhol(rg.rand_nonhol(rng, n), make(rg.rand_tilde2, G.mul_tilde2))
    jet = jets.Map2Jet(q.x, rg.rand_point(rng, n), p.a, p.f)
    u, v = make(rg.rand_tilde2, G.mul_tilde2), make(rg.rand_tilde2, G.mul_tilde2)
    return {
        "mul_hat2": (lambda i: G.mul_hat2(x, y)),
        "inv_hat2": (lambda i: G.inv_hat2(x)),
        "conj_hat2": (lambda i: G.conj_hat2(x, y)),
        "mul_t1n": (lambda i: G.mul_t1n(s, t)),
        "mul_tilde2": (lambda i: G.mul_tilde2(u, v)),
        "inv_tilde2": (lambda i: G.inv_tilde2(u)),
        "decompose_hat2": (lambda i: G.decompose_hat2(y)),
        "left_act_diffeo": (lambda i: jets.left_act_diffeo(jet, q)),
        "g2_law_via_jets": (lambda i: jets.g2_law_via_jets(p, r)),
        "mul_t1n_coordinate": (lambda i: G.mul_t1n_coordinate(s, t)),
    }, (x, y, s, t, p, r, q, jet, u, v)


def _check(x, y, s, t, p, r, q, jet, u, v) -> None:
    e = G.GHat2.identity(x.n)
    e2 = G.GTilde2.identity(x.n)
    u_inv = G.inv_tilde2(u)
    sym, skew = G.decompose_hat2(y)
    f = (bilinear.post_compose(jet.jac, q.f)
         + bilinear.pre_compose(jet.hess, q.a, q.b))
    pushed = frames.NonHolFrame(jet.value, matrices.mat_mul(jet.jac, q.a),
                                matrices.mat_mul(jet.jac, q.b), f)
    ok = (G.mul_hat2(x, G.inv_hat2(x)) == e
          and G.conj_hat2(x, y) == G.mul_hat2(G.mul_hat2(x, y), G.inv_hat2(x))
          and G.tau(G.mul_t1n(s, t)) == G.mul_hat2(G.tau(s), G.tau(t))
          and G.mul_tilde2(G.mul_tilde2(u, v), G.inv_tilde2(v)) == u
          and G.mul_tilde2(u, u_inv) == e2 == G.mul_tilde2(u_inv, u)
          and bilinear.is_symmetric(sym.f) and bilinear.is_skew(skew)
          and G.mul_hat2(sym, G.GHat2.from_bilinear(skew)) == y
          and jets.left_act_diffeo(jet, q) == pushed
          and jets.g2_law_via_jets(p, r) == G.mul_g2(p, r)
          and G.mul_t1n_coordinate(s, t) == G.mul_t1n(s, t))
    if not ok:
        raise SystemExit(f"wrong result at n = {x.n}")


def sweep(seed: int, ns=NS) -> dict:
    table = {}
    for kind in KINDS:
        for n in ns:
            calls, values = _inputs(seed, kind, n)
            _check(*values)
            for op in OPS:
                table.setdefault(kind, {}).setdefault(op, {})[n] = round(
                    _median_us(calls[op]), 1)
    return table


def _sweep_in(src: str, seed: int, n: int) -> dict:
    """The sweep of one n in a fresh process that imports the package from
    ``src``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed), "--n", str(n), "--json"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True)
    return json.loads(proc.stdout)["median_us"]


def compare(seed: int, ns, other: str, rounds: int) -> dict:
    """Every cell on this tree and on the package under ``other``, timed in
    alternating subprocesses: {kind: {op: {n: {"this", "other", "ratio"}}}}."""
    sides = {"this": str(Path(jetframes.__file__).resolve().parents[1]),
             "other": other}
    samples = {}
    for r in range(rounds):
        for n in ns:
            for side in sorted(sides, reverse=r % 2 == 1):
                for kind, ops in _sweep_in(sides[side], seed, n).items():
                    for op, row in ops.items():
                        cell = samples.setdefault(kind, {}).setdefault(
                            op, {}).setdefault(n, {"this": [], "other": []})
                        cell[side].append(row[str(n)])
    table = {}
    for kind, ops in samples.items():
        for op, row in ops.items():
            for n, cell in row.items():
                mine, theirs = (statistics.median(cell[s]) for s in sides)
                table.setdefault(kind, {}).setdefault(op, {})[n] = {
                    "this": mine, "other": theirs,
                    "ratio": round(mine / theirs, 3)}
    return table


def captured_calls(seed: int) -> list:
    """The terms of every ``s_law`` call of one suite run at ``SUITE_NS``
    with one trial, in call order.  Pins this process to one core, so the
    runner forks no worker and every call is made here."""
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    calls = []
    law = _scaled.s_law

    def capture(*terms):
        calls.append(terms)
        return law(*terms)

    _scaled.s_law = capture
    try:
        suites.run_suites(suites.ALL_SUITE_NAMES, SUITE_NS, 1, seed)
    finally:
        _scaled.s_law = law
    return calls


def time_suite_calls(seed: int) -> dict:
    calls = captured_calls(seed)
    law, reduce, perf = _scaled.s_law, _scaled.reduce, time.perf_counter
    samples = []
    for _ in range(SUITE_RUNS + 1):  # the first replay warms the caches
        start = perf()
        for terms in calls:
            reduce(law(*terms))
        samples.append((perf() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(samples[1:], n=4)
    return {"calls": len(calls), "runs": SUITE_RUNS, "median_ms": round(median, 2),
            "quartiles_ms": [round(q1, 2), round(q3, 2)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, nargs="+", default=NS, dest="ns",
                        metavar="N", help="the dimensions to time "
                        f"(default: {' '.join(map(str, NS))})")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of the table")
    parser.add_argument("--suite-calls", action="store_true",
                        help="time the s_law + reduce calls of one suite "
                        "run in place of the sweep")
    parser.add_argument("--compare", metavar="SRC",
                        help="time every cell on this tree and on the package "
                        "under SRC in alternating subprocesses")
    parser.add_argument("--rounds", type=int, default=3,
                        help="with --compare, the subprocesses per side and n "
                        "(default: 3)")
    args = parser.parse_args(argv)
    if min(args.ns) < 1:
        parser.error("--n takes dimensions >= 1")
    if args.rounds < 1:
        parser.error("--rounds takes a count >= 1")
    if args.compare and args.suite_calls:
        parser.error("--compare times the sweep, not --suite-calls")
    if args.compare:
        table = compare(args.seed, args.ns, args.compare, args.rounds)
        if args.json:
            print(json.dumps({"seed": args.seed, "unit": "us",
                              "compare": args.compare, "rounds": args.rounds,
                              "median_us": table}))
            return 0
        print(f"median us per call, seed {args.seed}, {args.rounds} rounds: "
              f"this tree / {args.compare} = ratio")
        print(f"{'kind':8} {'op':18}" + "".join(f"{f'n={n}':>24}" for n in args.ns))
        for kind, ops in table.items():
            for op, row in ops.items():
                print(f"{kind:8} {op:18}" + "".join(
                    f"{row[n]['this']:>9} /{row[n]['other']:>9} ={row[n]['ratio']:>5}"
                    for n in args.ns))
        return 0
    if args.suite_calls:
        row = time_suite_calls(args.seed)
        if args.json:
            print(json.dumps({"seed": args.seed, "unit": "ms", "suite_calls": row}))
        else:
            print(f"seed {args.seed}: {row['calls']} s_law + reduce calls, "
                  f"median {row['median_ms']} ms over {row['runs']} replays "
                  f"(quartiles {row['quartiles_ms'][0]}-{row['quartiles_ms'][1]} ms)")
        return 0
    table = sweep(args.seed, args.ns)
    if args.json:
        print(json.dumps({"seed": args.seed, "unit": "us", "median_us": table}))
        return 0
    print(f"median us per call, seed {args.seed}")
    print(f"{'kind':8} {'op':18}" + "".join(f"{f'n={n}':>10}" for n in args.ns))
    for kind, ops in table.items():
        for op, row in ops.items():
            print(f"{kind:8} {op:18}" + "".join(f"{row[n]:>10}" for n in args.ns))
    return 0


if __name__ == "__main__":
    sys.exit(main())

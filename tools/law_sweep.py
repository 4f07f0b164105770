"""Law-level sweep: median microseconds per call of the group laws at each n.

Times ``mul_hat2``, ``inv_hat2``, ``conj_hat2`` and ``mul_t1n`` at
n = 1, 2, 4, 8, 12 on two kinds of input: ``draw``, single generator draws
(the coefficient size the suites use), and ``product``, products of three
draws (the wider coefficients of library use).  The timing loop is the
benchmark's layer sweep (``perfbench.sweep``): each sample repeats the call
until it lasts at least ``MIN_SAMPLE_S`` there, and the median of its ``K``
samples is reported.  Every timed call is checked once against its exact
identity.

Run from the root of a checkout::

    PYTHONPATH=src python3 tools/law_sweep.py [--seed 42] [--json]

Pointing ``PYTHONPATH`` at another checkout's ``src`` times that tree with
the same inputs, which is how two versions are compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from jetframes import groups as G
from jetframes import randgen as rg

sys.path.append(str(Path(__file__).resolve().parent.parent))
from perfbench.sweep import NS, _median_us  # noqa: E402

OPS = ("mul_hat2", "inv_hat2", "conj_hat2", "mul_t1n")
KINDS = ("draw", "product")


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
    return {
        "mul_hat2": (lambda i: G.mul_hat2(x, y)),
        "inv_hat2": (lambda i: G.inv_hat2(x)),
        "conj_hat2": (lambda i: G.conj_hat2(x, y)),
        "mul_t1n": (lambda i: G.mul_t1n(s, t)),
    }, (x, y, s, t)


def _check(x, y, s, t) -> None:
    e = G.GHat2.identity(x.n)
    ok = (G.mul_hat2(x, G.inv_hat2(x)) == e
          and G.conj_hat2(x, y) == G.mul_hat2(G.mul_hat2(x, y), G.inv_hat2(x))
          and G.tau(G.mul_t1n(s, t)) == G.mul_hat2(G.tau(s), G.tau(t)))
    if not ok:
        raise SystemExit(f"wrong result at n = {x.n}")


def sweep(seed: int) -> dict:
    table = {}
    for kind in KINDS:
        for n in NS:
            calls, values = _inputs(seed, kind, n)
            _check(*values)
            for op in OPS:
                table.setdefault(kind, {}).setdefault(op, {})[n] = round(
                    _median_us(calls[op]), 1)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of the table")
    args = parser.parse_args(argv)
    table = sweep(args.seed)
    if args.json:
        print(json.dumps({"seed": args.seed, "unit": "us", "median_us": table}))
        return 0
    print(f"median us per call, seed {args.seed}")
    print(f"{'kind':8} {'op':10}" + "".join(f"{f'n={n}':>10}" for n in NS))
    for kind, ops in table.items():
        for op, row in ops.items():
            print(f"{kind:8} {op:10}" + "".join(f"{row[n]:>10}" for n in NS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

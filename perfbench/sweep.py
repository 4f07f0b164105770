"""Layer sweep: how single layer functions scale with n.

Median-of-k per-call microseconds at n = 1, 2, 4, 8, 12 for the kernels, the
conversions, generation and the document codec.  Each sample repeats the call
until it lasts at least ``MIN_SAMPLE_S``, so small n is not lost in timer
resolution.  The inputs are one ``rand_hat2`` element per n; a few exact
round-trip checks make sure the timed calls return correct values.
"""

from __future__ import annotations

import statistics
import time

from jetframes import _scaled as sc
from jetframes import randgen as rg
from jetframes import serialize

NS = (1, 2, 4, 8, 12)
FUNCS = ("s_matmul", "s_det", "s_matinv", "s_post", "s_pre", "smat", "sbil",
         "mat_entries", "bil_coeffs", "rand_hat2", "group_from_doc", "group_to_doc")
K = 5
MIN_SAMPLE_S = 0.002


def _calls(seed: int, n: int):
    """The timed calls at dimension n, their input element and its document."""
    x = rg.rand_hat2(rg.stream(seed, "sweep", n), n)
    a, f = sc.smat(x.a.entries), sc.sbil(x.f.coeffs)
    doc = serialize.group_to_doc(x)
    return {
        "s_matmul": lambda i: sc.s_matmul(a, a),
        "s_det": lambda i: sc.s_det(a),
        "s_matinv": lambda i: sc.s_matinv(a),
        "s_post": lambda i: sc.s_post(a, f),
        "s_pre": lambda i: sc.s_pre(f, a, a),
        "smat": lambda i: sc.smat(x.a.entries),
        "sbil": lambda i: sc.sbil(x.f.coeffs),
        "mat_entries": lambda i: sc.mat_entries(a),
        "bil_coeffs": lambda i: sc.bil_coeffs(f),
        "rand_hat2": lambda i: rg.rand_hat2(rg.stream(seed, "sweep", n, i), n),
        "group_from_doc": lambda i: serialize.group_from_doc(doc),
        "group_to_doc": lambda i: serialize.group_to_doc(x),
    }, x, doc


def _median_us(call) -> float:
    perf = time.perf_counter
    reps = 1
    while True:
        start = perf()
        for i in range(reps):
            call(i)
        if perf() - start >= MIN_SAMPLE_S:
            break
        reps *= 4
    samples = []
    for _ in range(K):
        start = perf()
        for i in range(reps):
            call(i)
        samples.append((perf() - start) / reps)
    return statistics.median(samples) * 1e6


def _checks(x, doc) -> list[bool]:
    a, f = sc.smat(x.a.entries), sc.sbil(x.f.coeffs)
    n = x.n
    inv_ints, inv_den = sc.s_matinv(a)
    prod_ints, _ = sc.s_matmul(a, (inv_ints, inv_den))
    scale = prod_ints[0][0]
    return [
        sc.mat_entries(a) == x.a.entries,
        sc.bil_coeffs(f) == x.f.coeffs,
        serialize.group_from_doc(doc) == x,
        scale != 0 and all(prod_ints[i][j] == (scale if i == j else 0)
                           for i in range(n) for j in range(n)),
    ]


def run(params: dict) -> dict:
    seed = params["seed"]
    metrics = {}
    checks = []
    for n in NS:
        calls, x, doc = _calls(seed, n)
        checks += _checks(x, doc)
        for name in FUNCS:
            metrics[f"sweep.{name}.n{n}_us"] = _median_us(calls[name])
    return {"metrics": metrics, "attempted": len(checks),
            "failed": checks.count(False)}

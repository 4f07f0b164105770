"""The ops-large worker: in-process library calls at n = 8 and 12.

One client runs a fixed round-robin of ten operations at each n, a closed
loop: the next call starts when the previous one has returned.  Inputs are
built before timing as products of a few ``randgen`` elements, so their
coefficients are wider than the suites' tiny ones; the round-robin cycles
through ``POOL`` input sets per n.  Every distinct result is checked once by
an exact identity after the timed loop, and every repeat of a call must
return a value equal to the first.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction

import jetframes
from jetframes import bilinear, frames, groups, jets, matrices
from jetframes import randgen as rg
from timing import Requests, calibrate, scaled

NS = (8, 12)
POOL = 2
FACTORS = 3
OPS = (
    (groups, "mul_hat2"), (groups, "inv_hat2"), (groups, "conj_hat2"),
    (groups, "decompose_hat2"), (groups, "mul_tilde2"), (groups, "inv_tilde2"),
    (groups, "mul_t1n"), (frames, "act_nonhol"), (frames, "proj_tilde22"),
    (jets, "left_act_diffeo"),
)


def _product(gen, mul, rng, n):
    x = gen(rng, n)
    for _ in range(FACTORS - 1):
        x = mul(x, gen(rng, n))
    return x


def make_inputs(seed: int, n: int, k: int) -> dict:
    """Arguments of every operation for input set ``k`` at dimension ``n``."""
    rng = rg.stream(seed, "ops-large", n, k)
    hat = [_product(rg.rand_hat2, groups.mul_hat2, rng, n) for _ in range(2)]
    til = [_product(rg.rand_tilde2, groups.mul_tilde2, rng, n) for _ in range(2)]
    t1n = [_product(rg.rand_t1n, groups.mul_t1n, rng, n) for _ in range(2)]
    g = _product(rg.rand_g2, groups.mul_g2, rng, n)
    q = frames.act_nonhol(rg.rand_nonhol(rng, n), til[1])
    jet = jets.Map2Jet(q.x, rg.rand_point(rng, n), g.a, g.f)
    return {
        "mul_hat2": (hat[0], hat[1]),
        "inv_hat2": (hat[0],),
        "conj_hat2": (hat[0], hat[1]),
        "decompose_hat2": (hat[1],),
        "mul_tilde2": (til[0], til[1]),
        "inv_tilde2": (til[0],),
        "mul_t1n": (t1n[0], t1n[1]),
        "act_nonhol": (q, til[0]),
        "proj_tilde22": (q,),
        "left_act_diffeo": (jet, q),
    }


def max_bits(value) -> int:
    """Largest numerator or denominator bit length inside a value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, tuple):
        return max((max_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value):
        return max(max_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def check(op: str, args: tuple, out) -> bool:
    """Exact identity that the result of ``op`` on ``args`` must satisfy."""
    G = groups
    if op == "mul_hat2":
        x, y = args
        return G.mul_hat2(out, G.inv_hat2(y)) == x
    if op == "inv_hat2":
        (x,) = args
        e = G.GHat2.identity(x.n)
        return G.mul_hat2(x, out) == e and G.mul_hat2(out, x) == e
    if op == "conj_hat2":
        o, i = args
        return out == G.mul_hat2(G.mul_hat2(o, i), G.inv_hat2(o))
    if op == "decompose_hat2":
        (x,) = args
        sym, skew = out
        return (bilinear.is_symmetric(sym.f) and bilinear.is_skew(skew)
                and G.mul_hat2(sym, G.GHat2.from_bilinear(skew)) == x)
    if op == "mul_tilde2":
        x, y = args
        return G.mul_tilde2(out, G.inv_tilde2(y)) == x
    if op == "inv_tilde2":
        (x,) = args
        e = G.GTilde2.identity(x.n)
        return G.mul_tilde2(x, out) == e and G.mul_tilde2(out, x) == e
    if op == "mul_t1n":
        x, y = args
        return G.tau(out) == G.mul_hat2(G.tau(x), G.tau(y))
    if op == "act_nonhol":
        q, g = args
        return frames.act_nonhol(out, G.inv_tilde2(g)) == q
    if op == "proj_tilde22":
        (q,) = args
        eye = matrices.SquareMatrix.identity(q.n)
        f = bilinear.sym_part(bilinear.pre_compose(q.f, eye, q.a))
        return (out.x, out.a, out.f) == (q.x, q.a, f)
    if op == "left_act_diffeo":
        # Second route: the same push-forward through the group algebra's
        # kernels, which share no code with jets.py.
        jet, q = args
        f = (bilinear.post_compose(jet.jac, q.f)
             + bilinear.pre_compose(jet.hess, q.a, q.b))
        expected = frames.NonHolFrame(jet.value, matrices.mat_mul(jet.jac, q.a),
                                      matrices.mat_mul(jet.jac, q.b), f)
        return out == expected
    raise ValueError(f"no check for {op!r}")


class _Calls:
    """Timed calls, and the first result of each distinct call for checking."""

    def __init__(self, inputs: dict, requests: Requests | None):
        self.inputs = inputs
        self.requests = requests
        self.latencies: list[float] = []
        self.first: dict = {}
        self.repeats: dict = {}
        self.failed = 0
        self.errors: list[str] = []

    def round(self, r: int) -> float:
        """Run one round-robin pass with input set r % POOL; return the time
        spent in its calls."""
        perf = time.perf_counter
        k = r % POOL
        fns = [(name, getattr(mod, name)) for mod, name in OPS]
        before = len(self.latencies)
        for n in NS:
            args_by_op = self.inputs[n, k]
            for name, fn in fns:
                args = args_by_op[name]
                t0 = perf()
                try:
                    out = fn(*args)
                    error = None
                except Exception as exc:  # counted, reported, and the loop goes on
                    error = exc
                self.latencies.append(perf() - t0)
                if self.requests is not None:
                    self.requests.add(self.latencies[-1])
                if error is not None:
                    self.failed += 1
                    self.errors.append(f"{name} n={n}: {error!r}")
                    continue
                key = (name, n, k)
                if key not in self.first:
                    self.first[key] = out
                    self.repeats[key] = 1
                elif out == self.first[key]:
                    self.repeats[key] += 1
                else:
                    self.failed += 1
                    self.errors.append(f"{name} n={n}: result differs from its first call")
        return sum(self.latencies[before:])

    def check_all(self) -> None:
        for (name, n, k), out in self.first.items():
            try:
                ok = check(name, self.inputs[n, k][name], out)
            except Exception as exc:  # a raising check is a failed check
                ok = False
                self.errors.append(f"check {name} n={n}: {exc!r}")
            if not ok:
                self.failed += self.repeats[name, n, k]
                self.errors.append(f"{name} n={n}: identity check failed")


def run(params: dict, tracer=None) -> dict:
    """Run the closed loop for ``params["seconds"]``, or, with a tracer, one
    untraced and one traced pass over every input set."""
    seed = params["seed"]
    inputs = {(n, k): make_inputs(seed, n, k) for n in NS for k in range(POOL)}
    bits = {f"n{n}": max(max_bits(args) for k in range(POOL)
                         for args in inputs[n, k].values()) for n in NS}
    calls = _Calls(inputs, Requests() if tracer is None else None)
    doc: dict = {"ns": list(NS), "pool": POOL, "factors": FACTORS, "input_bits": bits}
    if tracer is None:
        start = time.perf_counter()
        r = 0
        while time.perf_counter() - start < params["seconds"]:
            calls.round(r)
            r += 1
        doc.update(rounds=r, timing=calls.requests.summary())
    else:
        cals = [calibrate()]
        untraced = sum(calls.round(r) for r in range(POOL))
        cals.append(calibrate())
        tracer.install(jetframes)
        tracer.active = True
        with tracer.span("root:work"):
            traced = sum(calls.round(r) for r in range(POOL))
        tracer.active = False
        cals.append(calibrate())
        doc.update(rounds=2 * POOL, untraced_s=scaled(untraced, *cals[:2]),
                   traced_s=scaled(traced, *cals[1:]))
    calls.check_all()
    doc.update(attempted=len(calls.latencies), failed=calls.failed,
               errors=calls.errors[:5])
    return doc

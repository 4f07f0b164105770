"""Span tracing of the jetframes layers, installed from outside the package.

A traced process records one span (name, start, end, parent) at each wrapped
boundary and keeps the spans in flat arrays until it writes them out.  Self
time is derived afterwards as a span's duration minus the durations of its
children (``aggregate``).

The package imports by name (``from .groups import mul_hat2``), so a wrapper
only takes effect where the name is looked up.  ``Tracer.install`` therefore
replaces every reference it can reach: module globals, module attributes used
as ``sc.s_matmul``, functions held in module-level dicts and in the dataclass
instances inside them (the CLI dispatch tables, the suite law table that the
axiom properties close over), the suites' property functions, and the
``__init__`` of the value classes, so that constructor validation is counted
however an object is built.

Module imports are traced too: ``trace_imports`` puts a finder in front of
the path finder that times each ``jetframes`` module body, and the module's
layer is charged with that time.

Span names are ``"<layer>:<what>"``.  ``trace`` and ``root`` are not program
layers: ``trace:`` spans are the tracer's own bookkeeping (bit lengths),
``root:`` spans are the traced windows of a process.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import json
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

LAYERS = ("scaled.kernel", "scaled.convert", "matrices", "bilinear", "rational",
          "groups", "frames", "jets", "randgen", "suites", "serialize", "cli")

KERNEL_FNS = ("s_matmul", "s_det", "s_matinv", "s_post", "s_pre", "s_pre_left",
              "s_pre_right", "s_add", "s_neg", "s_sym", "s_skew")
CONVERT_FNS = ("smat", "sbil", "mat_entries", "bil_coeffs")

# Module -> layer that is charged with the module's import.  The package
# itself, ``errors`` and ``__main__`` belong to no table layer and go to cli.
MODULE_LAYER = {
    "jetframes": "cli",
    "jetframes.errors": "cli",
    "jetframes.cli": "cli",
    "jetframes.__main__": "cli",
    "jetframes._scaled": "scaled.kernel",
    "jetframes.matrices": "matrices",
    "jetframes.bilinear": "bilinear",
    "jetframes.rational": "rational",
    "jetframes.groups": "groups",
    "jetframes.frames": "frames",
    "jetframes.jets": "jets",
    "jetframes.randgen": "randgen",
    "jetframes.suites": "suites",
    "jetframes.serialize": "serialize",
}

_CLASSES = {
    "matrices": ("SquareMatrix",),
    "bilinear": ("Bilinear",),
    "groups": ("GTilde2", "GHat2", "G2", "GTilde21", "GTilde22", "T1nL1n",
               "QuotClassHat"),
    "frames": ("NonHolFrame", "SemiHolFrame", "HolFrame", "LinFrame", "ExtClass"),
}

_FUNCTIONS = {
    "matrices": ("det", "mat_mul", "mat_inv"),
    "bilinear": ("sym_part", "skew_part", "is_symmetric", "is_skew",
                 "post_compose", "pre_compose", "transpose"),
    "rational": ("rat_from_str", "rat_to_str"),
    "groups": ("conj_hat2", "decompose_hat2", "tau", "tau_inv", "mu", "mu_inv",
               "coset_equal"),
    "frames": ("ext_class", "theta", "theta_inv", "omega", "sigma"),
    "jets": ("compose_2jets", "left_act_diffeo", "g2_law_via_jets"),
    "randgen": ("stream",),
    "suites": ("run_suite",),
    "cli": ("main",),
}

_PREFIXES = {
    "groups": ("mul_", "inv_"),
    "frames": ("act_", "proj_"),
    "randgen": ("rand_",),
}

_SUFFIXES = {"serialize": ("_to_doc", "_from_doc")}


def det_mults(n: int) -> int:
    """Multiplies of the fraction-free (Bareiss) determinant of an n x n."""
    return (n - 1) * n * (2 * n - 1) // 3


def kernel_mults(name: str, args) -> int:
    """Integer multiplies one kernel call performs, computed from n."""
    n = len(args[0][0])
    if name == "s_matmul":
        return n ** 3
    if name == "s_det":
        return det_mults(n)
    if name == "s_matinv":
        minors = n * n * det_mults(n - 1) if n > 1 else 0
        return det_mults(n) + minors + n * n
    if name in ("s_post", "s_pre_left", "s_pre_right"):
        return n ** 4
    if name == "s_pre":
        return 2 * n ** 4
    if name == "s_add":
        return len(args) * n ** 3
    return 0  # s_neg, s_sym, s_skew only negate or add


def _max_abs(x) -> int:
    if isinstance(x, int):
        return abs(x)
    if isinstance(x, Fraction):
        return max(abs(x.numerator), x.denominator)
    if not x:
        return 0
    if isinstance(x[0], int):
        return max(map(abs, x))
    return max(_max_abs(e) for e in x)


class Tracer:
    """Records spans of the wrapped jetframes functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.active = False
        self.kernel_max_bits = 0
        self.kernel_mults = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts[i] = time.perf_counter()
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self._name_id(name))

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_kernel(self, fn, name: str):
        nid = self._name_id("scaled.kernel:" + name)
        bookkeeping = self._name_id("trace:kernel-bits")
        tracer = self

        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            i = tracer._open(nid)
            try:
                out = fn(*args)
            finally:
                tracer._close(i)
            # Scanning coefficients is the tracer's own work; its span keeps
            # that time out of the caller's self time.
            j = tracer._open(bookkeeping)
            bits = max(_max_abs(args), _max_abs(out)).bit_length()
            if bits > tracer.kernel_max_bits:
                tracer.kernel_max_bits = bits
            tracer.kernel_mults += kernel_mults(name, args)
            tracer._close(j)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the table's public functions wherever jetframes looks them up."""
        prefix = package.__name__ + "."
        mods = {name: mod for name, mod in sys.modules.items()
                if name == package.__name__ or name.startswith(prefix)}
        wrapped: dict[int, object] = {}
        for modname, mod in mods.items():
            layer = MODULE_LAYER.get(modname)
            if modname == prefix + "_scaled":
                for fname in KERNEL_FNS:
                    fn = getattr(mod, fname)
                    wrapped[id(fn)] = self._wrap_kernel(fn, fname)
                for fname in CONVERT_FNS:
                    fn = getattr(mod, fname)
                    wrapped[id(fn)] = self._wrap(fn, "scaled.convert:" + fname)
                continue
            for cname in _CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                cls.__init__ = self._wrap(cls.__init__, f"{layer}:{cname}")
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != modname):
                    continue
                if (fname in _FUNCTIONS.get(layer, ())
                        or fname.startswith(_PREFIXES.get(layer, ("\0",)))
                        or fname.endswith(_SUFFIXES.get(layer, ("\0",)))):
                    wrapped[id(fn)] = self._wrap(fn, f"{layer}:{fname}")
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if id(value) in wrapped:
                    setattr(mod, key, wrapped[id(value)])
                elif isinstance(value, dict):
                    _patch_dict(value, wrapped)
        suites = mods.get(prefix + "suites")
        if suites is not None:
            for sname, suite in suites.SUITES.items():
                for prop in suite.properties:
                    object.__setattr__(prop, "fn", self._wrap(
                        prop.fn, f"suites:{sname}.{prop.name}"))

    # -- import tracing ----------------------------------------------------

    def trace_imports(self, package: str = "jetframes") -> None:
        sys.meta_path.insert(0, _ImportFinder(self, package))

    # -- output ------------------------------------------------------------

    def write(self, prefix: Path) -> None:
        """Write the spans to ``prefix.spans`` and the names to ``prefix.json``."""
        with open(f"{prefix}.spans", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        doc = {"names": self.names, "count": len(self.name_ids),
               "kernel_max_bits": self.kernel_max_bits,
               "kernel_mults": self.kernel_mults}
        Path(f"{prefix}.json").write_text(json.dumps(doc))


def _patch_dict(table: dict, wrapped: dict) -> None:
    """Swap wrapped functions held in a dict or in the dataclasses it holds."""
    for key, value in list(table.items()):
        if id(value) in wrapped:
            table[key] = wrapped[id(value)]
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                if id(getattr(value, f.name)) in wrapped:
                    object.__setattr__(value, f.name, wrapped[id(getattr(value, f.name))])


class _Span:
    __slots__ = ("_tracer", "_nid", "_i")

    def __init__(self, tracer: Tracer, nid: int):
        self._tracer = tracer
        self._nid = nid

    def __enter__(self):
        self._i = self._tracer._open(self._nid)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._i)
        return False


class _ImportFinder:
    """Finds ``jetframes`` modules like the path finder, timing their bodies."""

    def __init__(self, tracer: Tracer, package: str):
        self._tracer = tracer
        self._package = package

    def find_spec(self, name, path=None, target=None):
        if name != self._package and not name.startswith(self._package + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or type(spec.loader) is not importlib.machinery.SourceFileLoader:
            return spec
        layer = MODULE_LAYER.get(name, "cli")
        spec.loader = _TimedLoader(spec.loader.name, spec.loader.path,
                                   self._tracer, f"{layer}:exec {name}")
        return spec


class _TimedLoader(importlib.machinery.SourceFileLoader):
    def __init__(self, fullname, path, tracer: Tracer, span_name: str):
        super().__init__(fullname, path)
        self._tracer = tracer
        self._span_name = span_name

    def exec_module(self, module):
        with self._tracer.span(self._span_name):
            super().exec_module(module)


# ---------------------------------------------------------------------------
# aggregation (run by the benchmark's parent process)


def load(prefix: Path):
    meta = json.loads(Path(f"{prefix}.json").read_text())
    count = meta["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(f"{prefix}.spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return meta, arrays


def aggregate(prefixes) -> dict:
    """Per-layer calls and self time over the spans of several processes.

    ``wall_s`` is the summed duration of the top-level spans (the import of
    ``jetframes.cli`` and the ``root:`` windows that hold the traced work),
    less the tracer's own bookkeeping inside them.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    det_calls = 0
    wall = 0.0
    bookkeeping = 0.0
    import_s = []
    max_bits = 0
    mults = 0
    span_count = 0
    for prefix in prefixes:
        meta, (name_ids, parents, starts, ends) = load(prefix)
        names = meta["names"]
        layer_of = [n.partition(":")[0] for n in names]
        max_bits = max(max_bits, meta["kernel_max_bits"])
        mults += meta["kernel_mults"]
        span_count += meta["count"]
        child = [0.0] * meta["count"]
        durs = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += durs[i]
            else:
                wall += durs[i]
        det_id = names.index("matrices:det") if "matrices:det" in names else -1
        for i, nid in enumerate(name_ids):
            layer = layer_of[nid]
            own = durs[i] - child[i]
            if layer in calls:
                calls[layer] += 1
                self_s[layer] += own
            elif layer == "trace":
                bookkeeping += own
            if nid == det_id:
                det_calls += 1
            if names[nid] == "cli:import":
                import_s.append(durs[i])
    import_s.sort()
    return {"calls": calls, "self_s": self_s, "wall_s": wall - bookkeeping,
            "det_calls": det_calls, "max_bits": max_bits, "mults": mults,
            "import_s": import_s[len(import_s) // 2] if import_s else 0.0,
            "bookkeeping_s": bookkeeping, "spans": span_count}

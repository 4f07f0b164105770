"""Entry point of the processes the benchmark starts.

    python3 perfbench/child.py --spans PREFIX cli ARGS...
        run ``jetframes ARGS...`` (what the ``jetframes`` script runs) traced
    python3 perfbench/child.py [--spans PREFIX] ops PARAMS_JSON
        run the ops-large worker and print its result document
    python3 perfbench/child.py sweep PARAMS_JSON
        run the layer sweep and print its result document

With ``--spans`` the process imports ``jetframes.cli`` under the tracer, wraps
every layer boundary and writes its spans to ``PREFIX.spans``/``PREFIX.json``.
Without it nothing is wrapped.  The package comes from ``PYTHONPATH``, which
the benchmark points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_prefix = None
    if argv[0] == "--spans":
        spans_prefix, argv = Path(argv[1]), argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "cli" and spans_prefix is None:
        raise SystemExit("cli mode needs --spans; run untraced as python3 -m jetframes")
    tracer = None
    if spans_prefix is None:
        import jetframes.cli
    else:
        tracer = Tracer()
        tracer.trace_imports()
        with tracer.span("cli:import"):
            import jetframes.cli

    if mode == "cli":
        tracer.install(jetframes)
        tracer.active = True
        with tracer.span("root:work"):
            code = jetframes.cli.main(rest)
        tracer.active = False
        sys.stdout.flush()
        tracer.write(spans_prefix)
        return code

    params = json.loads(rest[0])
    if mode == "ops":
        import ops_large
        doc = ops_large.run(params, tracer)
    elif mode == "sweep":
        import sweep
        doc = sweep.run(params)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        tracer.write(spans_prefix)
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

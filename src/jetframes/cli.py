"""Command-line front end.

Subcommands:

* ``gen KIND --n N --seed S``        -- deterministic random documents
* ``op OPERATION [--group TAG] ...`` -- group operations on JSON documents
* ``project LEVEL FRAME``            -- bundle projections
* ``classify FRAME``                 -- strongest frame class
* ``decompose ELEMENT``              -- symmetric-times-skew factorization
* ``oracle {compose,act} ...``       -- jet composition and prolonged action
* ``verify SUITE ...``               -- named property suites; exit code 0
                                        only when every property passed

``op`` and ``project`` read one table each, with a row per operation or
level; argument choices, input counts, ``--group`` and the kind checks all
come from the rows.  ``gen`` draws a kind with ``randgen.rand_<kind>``.

Documents are read from file paths ("-" for stdin) and written to stdout.
Dimensions (``--n``, document ``n``) are capped at ``serialize.MAX_N`` and
``--trials`` at ``MAX_TRIALS``; larger values, like every malformed input,
end in a ``ParseError`` and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, NoReturn

from . import randgen as rg
from .errors import (
    GroupMismatchError,
    JetFramesError,
    KindMismatchError,
    ParseError,
    echo,
)
from .frames import (
    HolFrame,
    NonHolFrame,
    SemiHolFrame,
    classify,
    embed_hol,
    embed_semihol,
    proj_20,
    proj_21,
    proj_hat22,
    proj_pi,
    proj_tilde22,
)
from .groups import (
    GROUPS,
    QuotClassHat,
    conj_hat2,
    coset_equal,
    decompose_hat2,
    mu,
    mu_inv,
    tau,
    tau_inv,
)
from .jets import compose_2jets, left_act_diffeo
from .serialize import (
    check_n,
    frame_from_doc,
    group_from_doc,
    jet_from_doc,
    to_doc,
    vector_to_doc,
)

#: The kinds ``gen`` draws, each by ``randgen.rand_<kind>``.
GEN_KINDS = (*GROUPS, "nonhol", "semihol", "hol", "map2jet")

#: The names of ``suites.SUITES``, in order, spelled out so that building the
#: parser does not import ``suites``: only ``verify`` runs it.
SUITE_NAMES = ("axioms", "deleon", "prel1", "grol1", "grol3", "grop1", "grol4",
               "rbsp1", "rbsl1", "rbsl2", "rbsl3", "rbst1", "rbst2", "diagram",
               "oracle")

#: Largest ``verify --trials``: runs stay bounded (the acceptance scale is 200).
MAX_TRIALS = 100_000

# operation -> the group tag of each input (None: the one --group names) and
# the output document of the inputs, given their group.  Rows look functions up
# in this module or in GROUPS when they run, so a wrapper put there is called.
_OPS = {
    "mul": ((None, None), lambda group, x, y: to_doc(group.mul(x, y))),
    "inv": ((None,), lambda group, x: to_doc(group.inv(x))),
    "conj": (("hat2", "hat2"), lambda _, x, y: to_doc(conj_hat2(x, y))),
    "mu": (("hat2",), lambda _, x: to_doc(mu(QuotClassHat.of(x)))),
    "mu-inv": (("g2",), lambda _, g: to_doc(mu_inv(g).representative())),
    "tau": (("t1n",), lambda _, x: to_doc(tau(x))),
    "tau-inv": (("hat2",), lambda _, y: to_doc(tau_inv(y))),
    "coset-equal": (("hat2", "hat2"), lambda _, x, y: {"equal": coset_equal(x, y)}),
}

# level -> the frame kinds it takes, how its error names them, and the output
# document of a frame of one of those kinds
_PROJECT = {
    "pi": (NonHolFrame, "a nonhol frame", lambda q: to_doc(proj_pi(q))),
    "hat22": ((SemiHolFrame, HolFrame), "a semihol (or hol) frame",
              lambda q: to_doc(proj_hat22(q))),
    "tilde22": (NonHolFrame, "a nonhol frame", lambda q: to_doc(proj_tilde22(q))),
    "21": ((NonHolFrame, SemiHolFrame, HolFrame), "a second-order frame",
           lambda q: to_doc(proj_21(q))),
    "20": (object, "", lambda q: {"x": vector_to_doc(proj_20(q))}),
}


def _read_doc(path: str) -> Any:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _emit(doc: Any) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _tagged(path: str, tag: str):
    """The ``tag`` element in ``path``.  A tag that is not a string is left
    to ``group_from_doc``, which rejects it without repeating it."""
    doc = _read_doc(path)
    found = doc.get("group") if isinstance(doc, dict) else tag
    if isinstance(found, str) and found != tag:
        raise GroupMismatchError(
            f"{path}: expected group {tag!r}, found {echo(found)}")
    return group_from_doc(doc)


def _cmd_gen(args) -> int:
    check_n(args.n, "--n")
    rng = rg.stream(args.seed, "gen", args.kind, args.n)
    value = getattr(rg, f"rand_{args.kind}")(rng, args.n)
    if args.origin:  # pin the base points, the tuple parts
        parts, origin = value.parts, (Fraction(0),) * args.n
        if not any(isinstance(part, tuple) for part in parts):
            raise ParseError("--origin only applies to frames and jets")
        value = type(value)(*(origin if isinstance(part, tuple) else part
                              for part in parts))  # the constructor checks it
    _emit(to_doc(value))
    return 0


def _cmd_op(args) -> int:
    op, paths = args.operation, args.inputs
    tags, build = _OPS[op]
    if len(paths) != len(tags):
        raise ParseError(f"op {op} takes {len(tags)} input document(s), "
                         f"got {len(paths)}")
    if None in tags:
        if args.group is None:
            raise GroupMismatchError(f"op {op} requires --group")
        tags = (args.group,) * len(tags)
    elif args.group not in (None, tags[0]):
        raise GroupMismatchError(f"op {op} reads {tags[0]!r} documents, "
                                 f"not --group {args.group!r}")
    xs = [_tagged(path, tag) for path, tag in zip(paths, tags)]
    if len({x.n for x in xs}) > 1:
        raise ParseError(f"{paths[0]} has n = {xs[0].n} "
                         f"but {paths[1]} has n = {xs[1].n}")
    _emit(build(GROUPS[tags[0]], *xs))
    return 0


def _cmd_project(args) -> int:
    frame = frame_from_doc(_read_doc(args.frame))
    kinds, needs, build = _PROJECT[args.level]
    if not isinstance(frame, kinds):
        raise KindMismatchError(f"project {args.level} needs {needs}")
    _emit(build(frame))
    return 0


def _nonhol_frame(path: str, command: str) -> NonHolFrame:
    """The second-order frame in ``path``, lifted hol -> semihol -> nonhol."""
    frame = frame_from_doc(_read_doc(path))
    if isinstance(frame, HolFrame):
        frame = embed_hol(frame)
    if isinstance(frame, SemiHolFrame):
        frame = embed_semihol(frame)
    if not isinstance(frame, NonHolFrame):
        raise KindMismatchError(f"{command} needs a second-order frame")
    return frame


def _cmd_classify(args) -> int:
    _emit({"class": classify(_nonhol_frame(args.frame, "classify"))})
    return 0


def _cmd_decompose(args) -> int:
    sym_el, skew = decompose_hat2(_tagged(args.element, "hat2"))
    _emit({"g2": to_doc(sym_el), "skew": to_doc(skew)})
    return 0


def _cmd_oracle(args) -> int:
    F = jet_from_doc(_read_doc(args.inputs[0]))
    if args.oracle_op == "compose":
        _emit(to_doc(compose_2jets(F, jet_from_doc(_read_doc(args.inputs[1])))))
    else:
        _emit(to_doc(left_act_diffeo(F, _nonhol_frame(args.inputs[1], "oracle act"))))
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suites

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ParseError(f"--trials must be between 1 and {MAX_TRIALS}, "
                         f"got {args.trials}")
    ns = tuple(args.n) if args.n else (1, 2, 3, 4)
    for n in ns:
        check_n(n, "--n")
    if len(set(ns)) < len(ns):
        raise ParseError("--n gives a dimension more than once")
    reports = run_suites(names, ns, args.trials, args.seed)
    if args.json:
        _emit([r.to_doc() for r in reports])
    else:
        for rep in reports:
            for prop in rep.properties:
                status = "ok  " if prop.passed else "FAIL"
                line = (f"{status} {rep.suite}.{prop.name} "
                        f"[ns={','.join(map(str, rep.ns))} trials={rep.trials} "
                        f"seed={rep.seed}]")
                if not prop.passed:
                    line += (f" failures={prop.failures}/{prop.trials_run}"
                             f" first={json.dumps(prop.counterexample)}")
                print(line)
            print(f"suite {rep.suite}: "
                  f"{'PASS' if rep.passed else 'FAIL'} "
                  f"({rep.wall_time_s:.2f}s)")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetframes",
        description="Exact algebra of second-order frame coordinates: "
                    "elements, frames, projections and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random document")
    p_gen.add_argument("kind", choices=GEN_KINDS)
    p_gen.add_argument("--n", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--origin", action="store_true",
                       help="pin base points (and a jet's value) to the "
                            "origin so generated documents compose")
    p_gen.set_defaults(fn=_cmd_gen)

    p_op = sub.add_parser("op", help="apply a group operation")
    p_op.add_argument("operation", choices=tuple(_OPS))
    # optional, so that _cmd_op's count check words a missing input too;
    # nargs="*" would end the inputs at a --group that follows the operation
    p_op.add_argument("inputs", nargs="+", default=[],
                      help="JSON files ('-' for stdin)").required = False
    p_op.add_argument("--group", choices=tuple(GROUPS))
    p_op.set_defaults(fn=_cmd_op)

    p_proj = sub.add_parser("project", help="apply a bundle projection")
    p_proj.add_argument("level", choices=tuple(_PROJECT))
    p_proj.add_argument("frame")
    p_proj.set_defaults(fn=_cmd_project)

    p_cls = sub.add_parser("classify", help="strongest class of a frame")
    p_cls.add_argument("frame")
    p_cls.set_defaults(fn=_cmd_classify)

    p_dec = sub.add_parser("decompose",
                           help="factor a pair into symmetric times skew")
    p_dec.add_argument("element")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_oracle = sub.add_parser("oracle", help="jet composition and action")
    p_oracle.add_argument("oracle_op", choices=("compose", "act"))
    p_oracle.add_argument("inputs", nargs=2)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--n", type=int, action="append",
                          help="dimension to test (repeatable; default 1-4)")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable report")
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "op":  # the inputs may continue after an option
        inputs = [s for s in extra if s == "-" or not s.startswith("-")]
        args.inputs = [*args.inputs, *inputs]
        extra = [s for s in extra if s not in inputs]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except JetFramesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The process entry: ``main``, a flush of stdout and stderr, then
    ``os._exit``, so the process ends at its last write and skips the
    interpreter's teardown.  When the reader of stdout has gone, the
    unwritten rest is dropped and the process ends with 1, printing nothing."""
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()

"""Command-line interface.

Three subcommands:

* ``frametc ring <id-or-path> --compute cl,zcl-basic,...`` — exact invariants
  of a single cohomology ring, from the catalog or a ring JSON file.
* ``frametc frame-bundle <descriptor-or-key>`` — every applicable TC bound
  for the oriented frame bundle of a described manifold.
* ``frametc examples [keys...]`` — built-in worked examples compared against
  their stated intervals.

Exit codes: 0 on success, 1 on hard errors (bad input, capacity, out of
memory), 2 when the computation finished but produced warnings (inconsistent
bounds, exhausted search budgets, disagreeing examples).  ``--threads`` is
accepted for interface stability and validated, but computations are
single-threaded and the flag never changes output; combined with
``--no-timing`` this makes runs byte-for-byte reproducible.

One table, ``_COMMANDS``, describes the interface.  ``_plain`` reads a plain
command line without importing argparse (5 ms a call); ``_argparser`` builds
argparse from the table for help, usage errors and every other command line.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from types import SimpleNamespace
from typing import NoReturn, Optional


def _lazy(name: str):
    """``frametc.<name>``, put in ``sys.modules`` and bound on the package now
    but compiled and executed only on its first attribute access.  A module
    imported before is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


# Only ``frame-bundle`` and ``examples`` run the bound rules and read
# descriptors, only a table ring or a ring file needs the table encoding,
# and only table rings run linear algebra.  These five layers are registered
# before the imports below, so that ``from . import linalg`` in cuplength and
# table, and ``from . import table`` in catalog, bind the lazy modules.
bounds, examples, linalg, manifold, table = map(
    _lazy, ("bounds", "examples", "linalg", "manifold", "table")
)

from .algebra import DEFAULT_CAPACITY, CapacityError  # noqa: E402
from .catalog import resolve_ring  # noqa: E402
from .cuplength import DEFAULT_BUDGET, cup_length, zcl_full  # noqa: E402
from .fields import parse_field  # noqa: E402
from .report import describe, render_bounds, render_examples, render_ring  # noqa: E402

_COMPUTE_CHOICES = ("cl", "zcl-basic", "zcl-full", "basis", "poincare")


_DESCRIPTION = (
    "Exact cup-length computations and topological-complexity bounds for "
    "oriented frame bundles."
)
# The options every subcommand takes: (flag, int or str for the type of its
# value or None for a switch, default, help).  The value lands on ``args``
# under the flag's name with "-" read as "_"; ``-h``/``--help`` is implicit.
_COMMON_OPTIONS = (
    ("--json", None, False, "emit JSON instead of text"),
    ("--budget", int, DEFAULT_BUDGET, f"search node budget (default {DEFAULT_BUDGET})"),
    (
        "--capacity",
        int,
        DEFAULT_CAPACITY,
        "dimension cap on whatever lists every basis class: table rings "
        f"and --compute basis,poincare (default {DEFAULT_CAPACITY})",
    ),
    ("--threads", int, 1, "accepted for interface stability; never affects results"),
    ("--no-timing", None, False, "omit elapsed time for byte-reproducible output"),
)
# Each subcommand: its help, its positional argument (name, whether it takes
# any number of values, help) and its options.  This table alone drives
# parsing, defaults and the help text.
_COMMANDS = {
    "ring": (
        "invariants of one cohomology ring",
        ("ring", False, "catalog id (so:5:char2) or ring JSON path"),
        (
            ("--field", str, None, "coefficient field as char=P (overrides/validates the id)"),
            ("--compute", str, "cl", "comma-separated: " + ",".join(_COMPUTE_CHOICES)),
        )
        + _COMMON_OPTIONS,
    ),
    "frame-bundle": (
        "TC bounds for the frame bundle of a manifold",
        ("manifold", False, "manifold descriptor JSON path or built-in example key"),
        _COMMON_OPTIONS,
    ),
    "examples": (
        "run the built-in worked examples",
        ("keys", True, "subset of example keys (default all)"),
        _COMMON_OPTIONS,
    ),
}


def _argparser(command: Optional[str] = None):
    """The argparse parser of ``_COMMANDS``, or the subparser of one command.

    A usage error prints ``usage: ...`` and ``frametc: error: ...`` on stderr
    and exits 2.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(2, f"frametc: error: {message}\n")

        def _get_formatter(self):  # 78 columns, whatever COLUMNS says
            return self.formatter_class(prog=self.prog, width=78)

    class HelpAll(argparse.Action):
        def __call__(self, parser, *_):
            print("\n".join(p.format_help() for p in [parser, *sub.choices.values()]), end="")
            parser.exit()

    parser = Parser(prog="frametc", description=_DESCRIPTION, add_help=False)
    parser.add_argument("-h", "--help", action=HelpAll, nargs=0, default=argparse.SUPPRESS,
                        help="show the help of every command and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, (positional, many, positional_help), options) in _COMMANDS.items():
        p = sub.add_parser(name, help=about, description=about)
        p.add_argument(positional, nargs="*" if many else None, help=positional_help)
        for flag, kind, default, text in options:
            if kind is None:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=kind, default=default, help=text)
    return parser if command is None else sub.choices[command]


def _plain(argv: list) -> Optional[SimpleNamespace]:
    """``argv`` read as argparse reads it if it is plain, else None: the
    command first, every option in full, each valued option followed by a
    value that does not start with "-", and the positional values in one run.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, (name, many, _), options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    args = {flag[2:].replace("-", "_"): default for flag, _, default, _ in options}
    positional = []
    closed = False  # an option after the positional values ends their run
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            if closed:
                return None
            positional.append(arg)
            continue
        if arg not in kinds:
            return None
        closed = bool(positional)
        value = True
        if kinds[arg] is not None:
            value = next(rest, "-")
            if value[:1] == "-":
                return None
            try:
                value = kinds[arg](value)
            except ValueError:
                return None
        args[arg[2:].replace("-", "_")] = value
    if not many and len(positional) != 1:
        return None
    args[name] = positional if many else positional[0]
    return SimpleNamespace(command=argv[0], **args)


def _parse_args(argv: list):
    """The arguments ``argv`` gives; argparse reads any that ``_plain`` does not."""
    return _plain(argv) or _argparser().parse_args(argv)


# Each command returns (renderer, payload, warned); ``main`` times it, prints
# the rendered payload and sets the exit code.  The renderer is read from this
# module's globals at call time, where the benchmark's tracer wraps it.
def _cmd_ring(args):
    fld = parse_field(args.field) if args.field else None
    ring_id, algebra = resolve_ring(args.ring, fld, args.capacity)
    # str(int) refuses past ``limit`` digits (0: none); 10**limit > 2**(3*limit).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = algebra.dim.bit_length()
    if limit and bits > 3 * limit and algebra.dim >= 10**limit:
        raise ValueError(
            f"ring {ring_id}: its dimension, of {bits} bits, has more than the "
            f"{limit} digits Python prints of an integer"
        )
    # A repeated item is read once, where it first appears.
    wanted = list(dict.fromkeys(w.strip() for w in args.compute.split(",") if w.strip()))
    if not wanted:
        raise ValueError(
            f"--compute names no item; choose from {', '.join(_COMPUTE_CHOICES)}"
        )
    for w in wanted:
        if w not in _COMPUTE_CHOICES:
            raise ValueError(
                f"unknown --compute item {w!r}; choose from {', '.join(_COMPUTE_CHOICES)}"
            )
    results: dict = {}
    warnings: list = []
    zcl = None  # zcl-basic and zcl-full are equal; one search answers both
    for w in wanted:
        if w in ("basis", "poincare") and algebra.dim > args.capacity:
            warnings.append(  # the other items still answer
                f"--compute {w}: dimension {algebra.dim} exceeds capacity {args.capacity}"
            )
        elif w == "basis":
            results["basis"] = [
                {"index": i, "degree": algebra.degree(i), "label": algebra.label(i)}
                for i in range(algebra.dim)
            ]
        elif w == "poincare":
            results["poincare"] = algebra.poincare_polynomial()
        else:
            if w == "cl":
                res = cup_length(algebra, budget=args.budget)
            elif zcl is None:
                res = zcl = zcl_full(algebra, budget=args.budget)
            else:
                res = zcl
            results[w] = describe(res)
            if not res.exact:
                warnings.append(f"{w} budget exhausted; reported value is a lower bound")
    if not results:  # every item was refused
        raise CapacityError(warnings[0])
    payload = {
        "ring": {
            "id": ring_id,
            "field": algebra.field.token(),
            "dimension": algebra.dim,
            "top_degree": algebra.top_degree,
        },
        "results": results,
        "warnings": warnings,
    }
    return render_ring, payload, bool(warnings)


def _cmd_frame_bundle(args):
    if os.path.exists(args.manifold) or args.manifold.endswith(".json"):
        descriptor = manifold.load_descriptor(args.manifold)
    elif args.manifold in examples.EXAMPLE_KEYS:
        descriptor = examples.example_descriptor(args.manifold)
    else:
        raise ValueError(
            f"{args.manifold!r} is neither a descriptor file nor a built-in key "
            f"({', '.join(examples.EXAMPLE_KEYS)})"
        )
    payload = bounds.compute_bounds(descriptor, capacity=args.capacity, budget=args.budget)
    return render_bounds, payload, bool(payload["warnings"])


def _cmd_examples(args):
    rows = examples.evaluate_examples(
        keys=args.keys or None, capacity=args.capacity, budget=args.budget
    )
    return render_examples, rows, any(r["warnings"] or not r["agrees"] for r in rows)


def main(argv: Optional[list] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    for flag, least in (("threads", 1), ("budget", 0), ("capacity", 1)):
        if getattr(args, flag) < least:
            _argparser(args.command).error(f"--{flag} must be >= {least}")
    command = {"ring": _cmd_ring, "frame-bundle": _cmd_frame_bundle, "examples": _cmd_examples}
    t0 = time.monotonic()
    try:
        render, payload, warned = command[args.command](args)
        elapsed = None if args.no_timing else time.monotonic() - t0
        print(render(payload, json_mode=args.json, elapsed=elapsed))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(
            "error: out of memory; --capacity caps only table rings and "
            "--compute basis,poincare",
            file=sys.stderr,
        )
        return 1
    return 2 if warned else 0


if __name__ == "__main__":
    sys.exit(main())

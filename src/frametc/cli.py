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
"""

from __future__ import annotations

import importlib.util
import os
import re
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
# A leading "-" marks an option, except on a negative number.
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _wrap(head: str, words: list, width: int = 79) -> str:
    """``head`` followed by ``words``, wrapped under the end of ``head``."""
    lines, line = [], head
    for word in words:
        if len(line) + len(word) > width and len(line) > len(head):
            lines.append(line.rstrip())
            line = " " * len(head)
        line += word + " "
    lines.append(line.rstrip())
    return "\n".join(lines)


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: frametc [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, (name, many, _), options = _COMMANDS[command]
    words = ["[-h]"] + [
        f"[{flag}]" if kind is None else f"[{flag} {flag[2:].upper()}]"
        for flag, kind, _, _ in options
    ]
    words.append(f"[{name} ...]" if many else name)
    return _wrap(f"usage: frametc {command} ", words)


def _help(command: Optional[str]) -> str:
    if command is None:
        blocks = [_usage(None), _wrap("", _DESCRIPTION.split())]
        return "\n\n".join(blocks + [_help(c) for c in _COMMANDS])
    about, (name, _, positional_help), options = _COMMANDS[command]
    rows = [(name, positional_help), ("-h, --help", "show this help message and exit")]
    rows += [
        (flag if kind is None else f"{flag} {flag[2:].upper()}", text)
        for flag, kind, _, text in options
    ]
    return "\n".join(
        [_usage(command), "", about, ""]
        + [_wrap(f"  {left:<22}", text.split()) for left, text in rows]
    )


def _usage_error(command: Optional[str], message: str) -> NoReturn:
    print(_usage(command), f"frametc: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _option(command: Optional[str], arg: str, flags: tuple):
    """How an argument reads, as argparse reads it.

    None for a value or positional argument; otherwise (flag, value given
    after "=" or None), where flag is None for an unknown option.  A long
    option may be shortened to any prefix that names only it.
    """
    if arg == "-h":
        return "--help", None
    if arg.startswith("--") and arg != "--":
        name, eq, value = arg.partition("=")
        hits = [flag for flag in flags if flag.startswith(name)]
        if len(hits) > 1 and name not in hits:
            _usage_error(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return (name if name in hits else hits[0]), (value if eq else None)
    if arg[:1] != "-" or arg == "-" or _NEGATIVE_NUMBER.match(arg) or " " in arg:
        return None
    return None, None


def _parse_args(argv: list) -> SimpleNamespace:
    """Parse ``argv`` as argparse parses the interface ``_COMMANDS`` describes.

    Options may come before or after the positional argument, ``--`` ends
    them, and the last of a repeated option wins.  ``-h``/``--help`` prints
    the help and exits 0; a usage error exits 2.
    """
    unrecognized = []
    at = 0
    while at < len(argv):  # before the command, only -h/--help is an option
        read = _option(None, argv[at], ("--help",))
        if read is None:
            break
        if read[0]:
            print(_help(None))
            raise SystemExit(0)
        unrecognized.append(argv[at])
        at += 1
    if at == len(argv):
        _usage_error(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        choices = ", ".join(repr(c) for c in _COMMANDS)
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    _, (name, many, _), options = _COMMANDS[command]
    flags = ("--help",) + tuple(flag for flag, _, _, _ in options)
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    positional = []
    closed = False  # a positional argument takes one unbroken run of values
    rest = iter(argv[at + 1:])
    for arg in rest:
        read = None if arg == "--" else _option(command, arg, flags)
        if read is None:  # after "--", every argument is positional
            for value in list(rest) if arg == "--" else [arg]:
                if not positional or (many and not closed):
                    positional.append(value)
                else:
                    unrecognized.append(value)
            continue
        closed = bool(positional)
        flag, value = read
        if flag is None:
            unrecognized.append(arg)
        elif flag == "--help":
            print(_help(command))
            raise SystemExit(0)
        elif kinds[flag] is None:
            if value is not None:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            values[flag] = True
        else:
            if value is None:
                value = next(rest, "--")
                if value == "--" or _option(command, value, flags) is not None:
                    _usage_error(command, f"argument {flag}: expected one argument")
            try:
                values[flag] = kinds[flag](value)
            except ValueError:
                _usage_error(command, f"argument {flag}: invalid int value: {value!r}")
    if not (positional or many):
        _usage_error(command, f"the following arguments are required: {name}")
    if unrecognized:
        _usage_error(None, f"unrecognized arguments: {' '.join(unrecognized)}")
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    args[name] = positional if many else positional[0]
    return SimpleNamespace(command=command, **args)


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
            _usage_error(args.command, f"--{flag} must be >= {least}")
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

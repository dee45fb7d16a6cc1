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

import argparse
import os
import sys
import time
from typing import Optional

from .algebra import DEFAULT_CAPACITY, CapacityError
from .bounds import compute_bounds
from .catalog import resolve_ring
from .cuplength import DEFAULT_BUDGET, cup_length, zcl_full
from .examples import EXAMPLE_KEYS, evaluate_examples, example_descriptor
from .fields import parse_field
from .manifold import load_descriptor
from .report import render_bounds, render_examples, render_ring

_COMPUTE_CHOICES = ("cl", "zcl-basic", "zcl-full", "basis", "poincare")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"search node budget (default {DEFAULT_BUDGET})",
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=DEFAULT_CAPACITY,
        help="dimension cap on whatever lists every basis class: table rings "
        f"and --compute basis,poincare (default {DEFAULT_CAPACITY})",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for interface stability; never affects results",
    )
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="omit elapsed time for byte-reproducible output",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frametc",
        description="Exact cup-length computations and topological-complexity "
        "bounds for oriented frame bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="invariants of one cohomology ring")
    ring.add_argument("ring", help="catalog id (so:5:char2) or ring JSON path")
    ring.add_argument(
        "--field",
        default=None,
        help="coefficient field as char=P (overrides/validates the id)",
    )
    ring.add_argument(
        "--compute",
        default="cl",
        help="comma-separated: " + ",".join(_COMPUTE_CHOICES),
    )
    _add_common(ring)

    fb = sub.add_parser(
        "frame-bundle", help="TC bounds for the frame bundle of a manifold"
    )
    fb.add_argument(
        "manifold", help="manifold descriptor JSON path or built-in example key"
    )
    _add_common(fb)

    ex = sub.add_parser("examples", help="run the built-in worked examples")
    ex.add_argument("keys", nargs="*", help="subset of example keys (default all)")
    _add_common(ex)
    return parser


def _cmd_ring(args) -> int:
    t0 = time.monotonic()
    fld = parse_field(args.field) if args.field else None
    ring_id, algebra = resolve_ring(args.ring, fld, args.capacity)
    wanted = [w.strip() for w in args.compute.split(",") if w.strip()]
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
            raise CapacityError(
                f"--compute {w}: dimension {algebra.dim} exceeds capacity {args.capacity}"
            )
        if w == "basis":
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
            results[w] = res.describe()
            if not res.exact:
                warnings.append(f"{w} budget exhausted; reported value is a lower bound")
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
    elapsed = None if args.no_timing else time.monotonic() - t0
    print(render_ring(payload, json_mode=args.json, elapsed=elapsed))
    return 2 if warnings else 0


def _cmd_frame_bundle(args) -> int:
    t0 = time.monotonic()
    if os.path.exists(args.manifold) or args.manifold.endswith(".json"):
        descriptor = load_descriptor(args.manifold)
    elif args.manifold in EXAMPLE_KEYS:
        descriptor = example_descriptor(args.manifold)
    else:
        raise ValueError(
            f"{args.manifold!r} is neither a descriptor file nor a built-in key "
            f"({', '.join(EXAMPLE_KEYS)})"
        )
    report = compute_bounds(descriptor, capacity=args.capacity, budget=args.budget)
    elapsed = None if args.no_timing else time.monotonic() - t0
    print(render_bounds(report, json_mode=args.json, elapsed=elapsed))
    return 2 if report.warnings else 0


def _cmd_examples(args) -> int:
    t0 = time.monotonic()
    rows = evaluate_examples(
        keys=args.keys or None, capacity=args.capacity, budget=args.budget
    )
    elapsed = None if args.no_timing else time.monotonic() - t0
    print(render_examples(rows, json_mode=args.json, elapsed=elapsed))
    disagreements = [r for r in rows if not r["agrees"]]
    warned = [r for r in rows if r["warnings"]]
    return 2 if disagreements or warned else 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    if args.budget < 0:
        parser.error("--budget must be >= 0")
    if args.capacity < 1:
        parser.error("--capacity must be >= 1")
    try:
        if args.command == "ring":
            return _cmd_ring(args)
        if args.command == "frame-bundle":
            return _cmd_frame_bundle(args)
        return _cmd_examples(args)
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


if __name__ == "__main__":
    sys.exit(main())

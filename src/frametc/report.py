"""Rendering of computation results as human-readable text or JSON.

The engines compute and verify; ``describe`` and the ``render_*`` functions
format.  Text output is line-oriented with tab-separated tables so it can be
consumed by cut/awk; JSON output is ``json.dumps(..., indent=2)`` of the
documented payload.  Both renderings are deterministic functions of the
payload: any timing information is attached by the caller and can be
suppressed entirely, which is what makes byte-for-byte output comparisons
across thread counts meaningful.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import MonomialAlgebra


def join_factors(factors: list[str]) -> str:
    """Printed factors joined by `` * ``, multi-term ones in parentheses."""
    return " * ".join(f"({w})" if " + " in w or " - " in w else w for w in factors)


def describe(res) -> dict:
    """The printed form of a cup-length result; each distinct factor is formatted once.

    A factored result prints its parts' products as one: monomials joined by
    ``·`` (their product's label), tensor-square elements by ``join_factors``.
    """
    printed = {id(w): w for w in res.witness}
    printed = {key: str(w) for key, w in printed.items()}
    out = {
        "value": res.value,
        "exact": res.exact,
        "method": res.method,
        "witness": [printed[id(w)] for w in res.witness],
    }
    products = [p.witness_product for p in res.parts or [res] if p.witness_product is not None]
    if products:
        strs = [str(p) for p in products]
        one = len(strs) == 1 or isinstance(products[0].algebra, MonomialAlgebra)
        out["witness_product"] = "·".join(strs) if one else join_factors(strs)
    if res.nodes:
        out["nodes"] = res.nodes
    return out


def _finish(payload: dict, elapsed: Optional[float], json_mode: bool, lines: list) -> str:
    if elapsed is not None:
        payload = {**payload, "elapsed_seconds": round(elapsed, 3)}
    if json_mode:
        return json.dumps(payload, indent=2)
    if elapsed is not None:
        lines.append(f"elapsed: {payload['elapsed_seconds']}s")
    return "\n".join(lines)


def render_ring(payload: dict, json_mode: bool = False, elapsed: Optional[float] = None) -> str:
    """Render the ``ring`` subcommand payload."""
    if json_mode:
        return _finish(payload, elapsed, True, [])
    ring = payload["ring"]
    lines = [
        f"ring: {ring['id']}",
        f"field: {ring['field']}",
        f"dimension: {ring['dimension']}",
        f"top degree: {ring['top_degree']}",
    ]
    results = payload.get("results", {})
    if "poincare" in results:
        lines.append("poincare: " + " ".join(str(c) for c in results["poincare"]))
    if "basis" in results:
        lines.append("basis:")
        lines.append("index\tdegree\tlabel")
        for row in results["basis"]:
            lines.append(f"{row['index']}\t{row['degree']}\t{row['label']}")
    for key in ("cl", "zcl-basic", "zcl-full"):
        if key not in results:
            continue
        res = results[key]
        exact = "exact" if res["exact"] else "lower bound (budget exhausted)"
        lines.append(f"{key}: {res['value']} ({exact}; method {res['method']})")
        if res.get("witness"):
            lines.append(f"{key} witness: " + join_factors(res["witness"]))
        if res.get("witness_product"):
            lines.append(f"{key} witness product: {res['witness_product']}")
    for w in payload.get("warnings", []):
        lines.append(f"warning: {w}")
    return _finish(payload, elapsed, False, lines)


def render_bounds(payload: dict, json_mode: bool = False, elapsed: Optional[float] = None) -> str:
    """Render the ``frame-bundle`` payload, as ``bounds.compute_bounds`` returns it."""
    if json_mode:
        return _finish(payload, elapsed, True, [])
    lo, hi = payload["interval"]
    manifold = payload["manifold"]
    lines = [
        f"manifold: {manifold.get('name', '?')} (dim {manifold.get('dim')})",
        f"frame bundle: dimension {payload['frame_bundle_dim']}, fiber SO({payload['fiber']})",
        f"interval: TC(F(M)) in [{lo}, {hi if hi is not None else 'inf'}]",
        "",
        "rule\tkind\tvalue\tfield\tstatement",
    ]
    for e in payload["entries"]:
        lines.append(
            f"{e['rule']}\t{e['kind']}\t{e['value']}\t{e.get('field', '-')}\t{e['statement']}"
        )
    notes = [(e["rule"], n) for e in payload["entries"] for n in e.get("notes", [])]
    if notes:
        lines.append("")
        for rule, note in notes:
            lines.append(f"note ({rule}): {note}")
    if payload["warnings"]:
        lines.append("")
        for w in payload["warnings"]:
            lines.append(f"warning: {w}")
    return _finish(payload, elapsed, False, lines)


def render_examples(
    rows: list, json_mode: bool = False, elapsed: Optional[float] = None
) -> str:
    """Render the worked-example comparison table."""
    payload = {"examples": rows}
    if json_mode:
        return _finish(payload, elapsed, True, [])
    lines = ["key\tstated\tderived\tagrees\ttitle"]

    def fmt(iv) -> str:
        lo, hi = iv
        return f"[{lo}, {'?' if hi is None else hi}]"  # no upper bound: ?

    for r in rows:
        agrees = "yes" if r["agrees"] else "NO"
        lines.append(
            f"{r['key']}\t{fmt(r['stated'])}\t{fmt(r['derived'])}\t{agrees}\t{r['title']}"
        )
    for r in rows:
        if r.get("note"):
            lines.append(f"note ({r['key']}): {r['note']}")
        for w in r.get("warnings", []):
            lines.append(f"warning ({r['key']}): {w}")
    return _finish(payload, elapsed, False, lines)

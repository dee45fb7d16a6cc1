"""Bound rules for the topological complexity of oriented frame bundles.

Input: a :class:`~frametc.manifold.ManifoldDescriptor` for a closed,
connected, oriented smooth n-manifold M.  Output: the payload that
``frametc frame-bundle --json`` prints, a dict collecting every applicable
upper and lower bound for TC(F(M)), where F(M) is the oriented frame bundle
(an SO(n)-principal space of dimension n(n+1)/2) and TC is the unreduced
topological complexity, normalized so that TC(point) = 1.  Its keys are
``manifold``, ``fiber``, ``frame_bundle_dim``, ``entries``, ``interval`` and
``warnings``.

Each rule contributes one entry: the substituted formula, the name of the
result it instantiates, and the assumptions it consumed.  Each rule's
citation is spelled once, in the ``_CITATIONS`` table, which lists the rules
in the fixed order they are evaluated; the zero-divisor twins (``lower-tncz``
and ``lower-parallelizable``) and the category twins (``upper-parallelizable``
and ``upper-lie``) each run through one code path.  The interval is [max of
lower bounds, min of upper bounds], computed once from the entries; an empty
lower side defaults to the trivial TC >= 1 and an empty upper side is null.
Per-field loops run over the descriptor's fields in ascending characteristic,
so reports are deterministic.

The ring invariants below are read from the cup-length engine through one
memo, at most once per (invariant, field, ring) per report for every rule.
A ring or witness it refuses gives a warning and drops only the entries
that need it.

* cat(SO(k)) = cl(SO(k); F2) + 1, cl read by ``cup_length`` from the top
  monomial: exact, witnessed, and free of any search budget.  It is known
  exact for k <= ``EXACT_CAT_SO_MAX`` (10); beyond that it is only a lower
  bound and the rules that need an exact category fall silent.
* zcl(SO(n); K) and zcl(M; K) — ``zcl_full``, the witnessed zero-divisor cup
  length.  SO(n) is monomial and read from a formula, so only a table ring
  of M can run out of the node budget; then every entry using it carries
  the same note.

``lower-tncz`` prints its fiber term as ``zcl''(SO(n))``: the zero-divisor
cup length of H*(SO(n); K) counted through zero-divisors that lift to F(M).
Its value is ``zcl_full(so_ring(n, K))``, the same number as zcl(SO(n); K),
and a Leray–Hirsch argument shows that this is right under TNCZ.  TNCZ over K
makes the restriction H*(F(M); K) → H*(SO(n); K) onto, so every bar
1⊗u − u⊗1 of the fiber lifts to a bar of F(M).  Bars generate the
zero-divisor ideal, so some product of zcl(SO(n); K) bars is nonzero, and it
lifts.  Leray–Hirsch makes H*(F(M) × F(M); K) a free module over
H*(M × M; K) on lifts of a basis of H*(SO(n) × SO(n); K).  Multiplying the
lifted product by a nonzero product of zcl(M; K) zero-divisors pulled back
from M therefore stays nonzero, so zcl(F(M); K) >= zcl''(SO(n)) + zcl(M; K).

``lower-dim-theorem`` keeps the paper's parity bump, 2m + 1 or 2m as m is
even or odd.  It is not derived from the fiber value above and nothing here
verifies it; for n >= 4 its entries carry a note saying so.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from .algebra import DEFAULT_CAPACITY
from .catalog import so_ring
from .cuplength import DEFAULT_BUDGET, cup_length, zcl_full
from .fields import F2, QQ, Field
from .manifold import ManifoldDescriptor

EXACT_CAT_SO_MAX = 10


_PARITY_NOTE = (
    "stated parity bump (2m + 1 for even m, 2m for odd m), quoted from the "
    "paper; for n >= 4 it exceeds the searched zcl(SO(n)) + 1 and nothing here "
    "verifies it"
)

_BUDGET_NOTE = (
    "zero-divisor search budget exhausted for {}; the searched value is a "
    "valid lower bound"
)


# -- rule engine -------------------------------------------------------------------

# rule -> citation, in the order the rules are evaluated.  The zero-divisor
# rules rest on Farber's TC(X) > zcl(H*(X; K)) (Topological complexity of
# motion planning, Discrete Comput. Geom. 29, 2003).
_CITATIONS = {
    "upper-farber": "dimension-connectivity upper bound for topological complexity",
    "upper-free-action": "upper bound from free compact Lie group actions",
    "upper-parallelizable": "product upper bound for trivialized frame bundles",
    "upper-lie": "category upper bound for frame bundles of Lie groups",
    "frame-bundle-lie-group": "topological complexity of a connected Lie group "
    "equals its category",
    "lower-tncz": "zero-divisor lower bound for TNCZ fiber inclusions",
    "lower-parallelizable": "zero-divisor lower bound for trivialized frame bundles",
    "lower-dim-theorem": "parity lower bound for frame bundles in dimensions "
    "2m and 2m+1",
    "lower-paradiv": "dimension lower bound for TNCZ fiber inclusions in odd "
    "characteristic",
    "lower-spin": "dimension lower bound for spin manifolds",
}


def compute_bounds(
    descriptor: ManifoldDescriptor,
    capacity: int = DEFAULT_CAPACITY,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Evaluate every applicable rule: the payload ``frame-bundle --json`` prints."""
    n = descriptor.dim
    dim_f = n * (n + 1) // 2
    entries: list = []
    warnings: list = []
    starved = False  # set when a zero-divisor search runs out of budget
    so = cache(so_ring)  # H*(SO(k); K), built once per (k, K)

    @cache
    def invariant(name: str, fld: Field, k: Optional[int] = None) -> Optional[tuple]:
        """``name`` ("cl" or "zcl") over fld of M, or of SO(k) if k is given:
        (value, notes), noting an exhausted budget; None, with a warning, if
        the ring or its witness is refused."""
        nonlocal starved
        who = "M" if k is None else f"SO({k})"
        try:
            ring = descriptor.ring(fld, capacity) if k is None else so(k, fld)
            res = (cup_length if name == "cl" else zcl_full)(ring, budget=budget)
        except (ValueError, OSError) as exc:
            warnings.append(
                f"{name}({who}) over {fld.token()} refused: {exc}; the entries "
                "that need it are left out"
            )
            return None
        if res.exact:
            return res.value, []
        starved = True
        return res.value, [_BUDGET_NOTE.format(who)]

    def cat(k: int) -> Optional[int]:  # cl(SO(k); F2) + 1, exact for k <= EXACT_CAT_SO_MAX
        cl = invariant("cl", F2, k)
        return cl and cl[0] + 1

    def add(rule, kind, value, statement, field=None, assumptions=None, notes=None):
        """Append one entry; field, assumptions and notes only when non-empty."""
        optional = {"field": field, "assumptions": assumptions, "notes": notes}
        entries.append({
            "rule": rule,
            "kind": kind,  # "upper" or "lower"
            "value": value,
            "statement": statement,
            "citation": _CITATIONS[rule],
            **{key: v for key, v in optional.items() if v},
        })

    # upper-farber: TC(X) <= ceil((2 dim X + 1)/(r + 1)) for an r-connected X.
    r = descriptor.connectivity
    value = -(-(2 * dim_f + 1) // (r + 1))
    add(
        "upper-farber",
        "upper",
        value,
        f"TC(F(M)) <= ceil((2*{dim_f} + 1)/({r} + 1)) = {value} "
        f"(dim F(M) = {dim_f}, connectivity {r})",
    )

    # upper-free-action: a compact d-dimensional Lie group acting freely on M
    # extends to a free action of dimension d + n(n-1)/2 on F(M), giving
    # TC(F(M)) <= 2 dim F(M) - (d + n(n-1)/2) + 1 = n(n+3)/2 - d + 1.
    d = descriptor.free_action_dim
    value = n * (n + 3) // 2 - d + 1
    assumptions = [f"a compact Lie group of dimension {d} acts freely on M"]
    if d == 0:
        assumptions = ["no group action needed: SO(n) itself acts freely on F(M)"]
    add(
        "upper-free-action",
        "upper",
        value,
        f"TC(F(M)) <= {n}*({n}+3)/2 - {d} + 1 = {value}",
        assumptions=assumptions,
    )

    # upper-parallelizable: F(M) = M x SO(n) so TC <= TC(M) + cat(SO(n)) - 1.
    # upper-lie: for a Lie group, TC(F(G)) <= cat(SO(n)) + cat(G) - 1.
    for rule, applies, x, x_hi, premise, cites_cat in (
        ("upper-parallelizable", descriptor.parallelizable, "TC",
         descriptor.tc_base_upper(), "M is parallelizable", True),
        ("upper-lie", descriptor.lie_group, "cat",
         descriptor.cat_base_upper(), "M is a Lie group", False),
    ):
        if not applies or x_hi is None or n > EXACT_CAT_SO_MAX:
            continue
        cso = cat(n)
        value = cso + x_hi - 1
        assumptions = [premise, f"{x}(M) <= {x_hi}"]
        if cites_cat:
            assumptions.append(
                f"cat(SO({n})) = {cso} (exact for n <= {EXACT_CAT_SO_MAX})"
            )
        add(
            rule,
            "upper",
            value,
            f"TC(F(M)) <= cat(SO({n})) + {x}(M) - 1 = {cso} + {x_hi} - 1 = {value}",
            assumptions=assumptions,
        )

    # frame-bundle-lie-group: F(M) is itself a connected Lie group SO(k), and
    # for a connected Lie group TC = cat; k must satisfy dim SO(k) = dim F(M).
    k = descriptor.frame_bundle_k
    lo = None if k is None else cat(k)
    if lo is not None:
        group = f"F(M) is the Lie group SO({k})"
        add(
            "frame-bundle-lie-group",
            "lower",
            lo,
            f"TC(F(M)) = cat(SO({k})) >= cl(SO({k});F2) + 1 = {lo}",
            assumptions=[group],
        )
        if k <= EXACT_CAT_SO_MAX:
            add(
                "frame-bundle-lie-group",
                "upper",
                lo,
                f"TC(F(M)) = cat(SO({k})) = {lo}",
                assumptions=[
                    group,
                    f"cat(SO({k})) = {lo} (exact for k <= {EXACT_CAT_SO_MAX})",
                ],
            )

    # lower-tncz: TNCZ fiber inclusion gives
    # TC(F(M)) >= zcl''(SO(n); K) + zcl(M; K) + 1.
    # lower-parallelizable: F(M) = M x SO(n) gives, over every field,
    # TC(F(M)) >= zcl(SO(n); K) + zcl(M; K) + 1.
    tncz = [f for f in descriptor.fields() if descriptor.is_tncz(f)]
    for rule, fields, zso_name, premise in (
        ("lower-tncz", tncz, "zcl''", "fiber inclusion is TNCZ over {}"),
        ("lower-parallelizable",
         descriptor.fields() if descriptor.parallelizable else [],
         "zcl", "M is parallelizable"),
    ):
        for fld in fields:
            zcl_m, zcl_so = invariant("zcl", fld), invariant("zcl", fld, n)
            if zcl_m is None or zcl_so is None:
                continue
            (zm, notes), (zso, so_notes) = zcl_m, zcl_so
            value = zso + zm + 1
            add(
                rule,
                "lower",
                value,
                f"TC(F(M)) >= {zso_name}(SO({n})) + zcl(M) + 1 = {zso} + {zm} + 1 "
                f"= {value} over {fld.token()}",
                field=fld.token(),
                assumptions=[premise.format(fld.token())],
                notes=notes + so_notes,
            )

    # lower-dim-theorem: for dim M = 2m or 2m+1 (m >= 1), a TNCZ fiber
    # inclusion over a field of odd characteristic gives
    # TC(F(M)) >= zcl(M; K) + 2m + 1 if m is even, and >= zcl(M; K) + 2m if odd.
    odd_tncz = [f for f in tncz if f.characteristic != 2]
    m = n // 2
    bump = 2 * m + 1 if m % 2 == 0 else 2 * m
    for fld in odd_tncz if m >= 1 else []:
        zcl_m = invariant("zcl", fld)
        if zcl_m is None:
            continue
        zm, notes = zcl_m
        value = zm + bump
        add(
            "lower-dim-theorem",
            "lower",
            value,
            f"TC(F(M)) >= zcl(M) + {bump} = {zm} + {bump} = {value} "
            f"over {fld.token()} (dim M = {n}, m = {m})",
            field=fld.token(),
            assumptions=[
                f"fiber inclusion is TNCZ over {fld.token()}",
                "coefficients of odd characteristic",
            ],
            notes=notes + ([_PARITY_NOTE] if n >= 4 else []),
        )

    # lower-paradiv: TNCZ over odd characteristic forces TC(F(M)) >= dim M.
    if odd_tncz or descriptor.parallelizable:
        fld = odd_tncz[0] if odd_tncz else QQ  # trivial bundle is TNCZ over every field
        add(
            "lower-paradiv",
            "lower",
            n,
            f"TC(F(M)) >= dim M = {n}",
            field=fld.token(),
            assumptions=[f"fiber inclusion is TNCZ over {fld.token()}"],
        )

    # lower-spin: a spin manifold has TC(F(M)) >= dim M.
    if descriptor.spin:
        add(
            "lower-spin", "lower", n, f"TC(F(M)) >= dim M = {n}", assumptions=["M is spin"]
        )

    if starved:
        warnings.append(
            "zero-divisor search budget exhausted: entries noting it use a "
            "searched lower value, so the lower end may rise with a larger --budget"
        )
    lo = max((e["value"] for e in entries if e["kind"] == "lower"), default=1)  # TC >= 1
    hi = min((e["value"] for e in entries if e["kind"] == "upper"), default=None)
    if hi is not None and lo > hi:
        warnings.append(
            f"inconsistent bounds: max lower {lo} exceeds min upper {hi}; "
            "check the descriptor's assumptions"
        )
    return {
        "manifold": descriptor.to_json(),
        "fiber": n,
        "frame_bundle_dim": dim_f,
        "entries": entries,
        "interval": [lo, hi],
        "warnings": warnings,
    }

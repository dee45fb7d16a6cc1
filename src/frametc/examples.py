"""Built-in worked examples: descriptors with externally stated TC intervals.

Each row pairs a manifold descriptor with the interval for TC(F(M)) stated in
the source material, so the rule engine's derived interval can be compared
against it.  ``agrees`` is True when every stated endpoint matches the derived
one.  One row (the 3-torus) intentionally disagrees: the stated family value
for tori is cat(SO(n)) + n + 1 while the upper bound rules only ever reach
cat(SO(n)) + n, and the derived lower bound meets them there; the row carries
a note to that effect instead of silently adopting either number.
"""

from __future__ import annotations

from typing import Optional

from .algebra import DEFAULT_CAPACITY
from .bounds import BoundReport, compute_bounds, EXACT_CAT_SO_MAX
from .cuplength import DEFAULT_BUDGET
from .manifold import ManifoldDescriptor

Interval = tuple[Optional[int], Optional[int]]


class ExampleRow:
    def __init__(
        self,
        key: str,
        title: str,
        descriptor: ManifoldDescriptor,
        stated: Optional[Interval],
        note: str = "",
    ):
        self.key = key
        self.title = title
        self.descriptor = descriptor
        self.stated = stated
        self.note = note


def torus_descriptor(n: int) -> ManifoldDescriptor:
    """The n-torus as a Lie group, with rings over both characteristics."""
    if not 1 <= n <= EXACT_CAT_SO_MAX:
        raise ValueError(f"torus descriptor supported for 1 <= n <= {EXACT_CAT_SO_MAX}")
    return ManifoldDescriptor(
        name=f"T^{n}",
        dim=n,
        lie_group=True,
        known_tc_base=(n + 1, n + 1),
        known_cat_base=(n + 1, n + 1),
        cohomology={"char=0": f"t:{n}:char0", "char=2": f"t:{n}:char2"},
    )


def example_rows() -> list[ExampleRow]:
    rows = [
        ExampleRow(
            key="rp1",
            title="circle (real projective line)",
            descriptor=ManifoldDescriptor(
                name="RP^1",
                dim=1,
                lie_group=True,
                frame_bundle_lie_group="so:2",
                known_tc_base=(2, 2),
                known_cat_base=(2, 2),
                cohomology={"char=2": "rp:1", "char=0": "s:1:char0"},
            ),
            stated=(2, 2),
        ),
        ExampleRow(
            key="rp3",
            title="real projective 3-space",
            descriptor=ManifoldDescriptor(
                name="RP^3",
                dim=3,
                lie_group=True,
                known_tc_base=(4, 4),
                known_cat_base=(4, 4),
                cohomology={"char=2": "rp:3", "char=0": "s:3:char0"},
            ),
            stated=(7, 7),
        ),
        ExampleRow(
            key="rp7",
            title="real projective 7-space",
            descriptor=ManifoldDescriptor(
                name="RP^7",
                dim=7,
                parallelizable=True,
                known_tc_base=(8, 8),
                cohomology={"char=2": "rp:7", "char=0": "s:7:char0"},
            ),
            stated=(19, 19),
        ),
        ExampleRow(
            key="s2",
            title="2-sphere",
            descriptor=ManifoldDescriptor(
                name="S^2",
                dim=2,
                spin=True,
                frame_bundle_lie_group="so:3",
                tncz_fields=("char=2",),
                cohomology={"char=2": "s:2:char2", "char=0": "s:2:char0"},
            ),
            stated=(4, 4),
        ),
        ExampleRow(
            key="t2",
            title="2-torus",
            descriptor=torus_descriptor(2),
            stated=(4, 4),
        ),
        ExampleRow(
            key="t3",
            title="3-torus",
            descriptor=torus_descriptor(3),
            stated=(8, 8),
            note=(
                "stated torus value cat(SO(n)) + n + 1 exceeds the derived "
                "upper bound cat(SO(n)) + n, which the derived lower bound "
                "meets; the stated number is one too high for the rules here"
            ),
        ),
        ExampleRow(
            key="sigma2",
            title="genus-2 surface",
            descriptor=ManifoldDescriptor(
                name="Sigma_2",
                dim=2,
                spin=True,
                tncz_fields=("char=2",),
                cohomology={"char=2": "sigma:2:char2", "char=0": "sigma:2:char0"},
            ),
            stated=(5, 6),
        ),
        ExampleRow(
            key="sigma3",
            title="genus-3 surface",
            descriptor=ManifoldDescriptor(
                name="Sigma_3",
                dim=2,
                spin=True,
                tncz_fields=("char=2",),
                cohomology={"char=2": "sigma:3:char2", "char=0": "sigma:3:char0"},
            ),
            stated=(5, 6),
        ),
        ExampleRow(
            key="generic3",
            title="generic closed oriented 3-manifold",
            descriptor=ManifoldDescriptor(
                name="M^3",
                dim=3,
                parallelizable=True,
                known_tc_base=(None, 7),
                cohomology={"char=2": "s:3:char2", "char=0": "s:3:char0"},
            ),
            stated=(5, 10),
            note="cohomology entries are the guaranteed minimum (sphere pattern)",
        ),
        ExampleRow(
            key="irreducible3",
            title="closed oriented 3-manifold, infinite fundamental group, "
            "not a homotopy sphere",
            descriptor=ManifoldDescriptor(
                name="M^3 (pi_1 infinite)",
                dim=3,
                parallelizable=True,
                known_tc_base=(None, 7),
                cohomology={"char=2": "rp:3", "char=0": "s:3:char0"},
            ),
            stated=(7, 10),
            note="mod-2 ring taken from the detecting length-3 product",
        ),
        ExampleRow(
            key="cp2",
            title="complex projective plane",
            descriptor=ManifoldDescriptor(
                name="CP^2",
                dim=4,
                tncz_fields=("char=0",),
                cohomology={"char=0": "cp:2:char0", "char=2": "cp:2:char2"},
            ),
            stated=(9, 15),
        ),
        ExampleRow(
            key="cp3",
            title="complex projective 3-space",
            descriptor=ManifoldDescriptor(
                name="CP^3",
                dim=6,
                spin=True,
                tncz_fields=("char=0",),
                cohomology={"char=0": "cp:3:char0", "char=2": "cp:3:char2"},
            ),
            stated=(12, 28),
        ),
    ]
    return rows


def _agrees(stated: Optional[Interval], derived: tuple) -> Optional[bool]:
    if stated is None:
        return None
    lo_ok = stated[0] is None or stated[0] == derived[0]
    hi_ok = stated[1] is None or stated[1] == derived[1]
    return lo_ok and hi_ok


def evaluate_example(
    row: ExampleRow,
    capacity: int = DEFAULT_CAPACITY,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    report: BoundReport = compute_bounds(row.descriptor, capacity=capacity, budget=budget)
    derived = report.interval
    out = {
        "key": row.key,
        "title": row.title,
        "stated": list(row.stated) if row.stated else None,
        "derived": [derived[0], derived[1]],
        "agrees": _agrees(row.stated, derived),
        "warnings": list(report.warnings),
    }
    if row.note:
        out["note"] = row.note
    return out


def evaluate_examples(
    keys: Optional[list] = None,
    capacity: int = DEFAULT_CAPACITY,
    budget: int = DEFAULT_BUDGET,
) -> list[dict]:
    rows = example_rows()
    if keys:
        wanted = set(keys)
        unknown = wanted - {r.key for r in rows}
        if unknown:
            raise KeyError(f"unknown example keys: {sorted(unknown)}")
        rows = [r for r in rows if r.key in wanted]
    return [evaluate_example(r, capacity=capacity, budget=budget) for r in rows]

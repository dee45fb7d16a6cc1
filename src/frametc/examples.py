"""Built-in worked examples: descriptors with externally stated TC intervals.

Each row pairs a shipped descriptor file, ``descriptors/<key>.json`` in this
package, with the interval for TC(F(M)) stated in the source material, so the
rule engine's derived interval can be compared against it.  The built-in keys
are exactly those files; the table below only adds a title, the stated
interval and an optional note, and fixes the order rows are printed in.
``agrees`` is True when the stated interval equals the derived one.  One
row (the 3-torus) intentionally disagrees: the stated family value for tori is
cat(SO(n)) + n + 1 while the upper bound rules only ever reach cat(SO(n)) + n,
and the derived lower bound meets them there; the row carries a note to that
effect instead of silently adopting either number.
"""

from __future__ import annotations

import os
from typing import Optional

from .algebra import DEFAULT_CAPACITY
from .bounds import compute_bounds
from .cuplength import DEFAULT_BUDGET
from .manifold import ManifoldDescriptor, load_descriptor

_DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "descriptors")

# (key, title, stated TC(F(M)) interval, note), in the order rows are printed.
_TABLE = (
    ("rp1", "circle (real projective line)", (2, 2), ""),
    ("rp3", "real projective 3-space", (7, 7), ""),
    ("rp7", "real projective 7-space", (19, 19), ""),
    ("s2", "2-sphere", (4, 4), ""),
    ("t2", "2-torus", (4, 4), ""),
    (
        "t3",
        "3-torus",
        (8, 8),
        "stated torus value cat(SO(n)) + n + 1 exceeds the derived "
        "upper bound cat(SO(n)) + n, which the derived lower bound "
        "meets; the stated number is one too high for the rules here",
    ),
    ("sigma2", "genus-2 surface", (5, 6), ""),
    ("sigma3", "genus-3 surface", (5, 6), ""),
    (
        "generic3",
        "generic closed oriented 3-manifold",
        (5, 10),
        "cohomology entries are the guaranteed minimum (sphere pattern)",
    ),
    (
        "irreducible3",
        "closed oriented 3-manifold, infinite fundamental group, "
        "not a homotopy sphere",
        (7, 10),
        "mod-2 ring taken from the detecting length-3 product",
    ),
    ("cp2", "complex projective plane", (9, 15), ""),
    ("cp3", "complex projective 3-space", (12, 28), ""),
)


EXAMPLE_KEYS = tuple(row[0] for row in _TABLE)


def example_descriptor(key: str) -> ManifoldDescriptor:
    """The built-in descriptor of ``key``, read from its package file."""
    return load_descriptor(os.path.join(_DESCRIPTOR_DIR, f"{key}.json"))


def evaluate_examples(
    keys: Optional[list] = None,
    capacity: int = DEFAULT_CAPACITY,
    budget: int = DEFAULT_BUDGET,
) -> list[dict]:
    """The rows in table order; only those named in ``keys`` if given.

    Only the descriptor files of the rows evaluated are read.
    """
    unknown = set(keys or ()) - set(EXAMPLE_KEYS)
    if unknown:
        raise ValueError(f"unknown example keys: {sorted(unknown)}")
    out = []
    for key, title, stated, note in _TABLE:
        if keys and key not in keys:
            continue
        payload = compute_bounds(example_descriptor(key), capacity=capacity, budget=budget)
        row = {
            "key": key,
            "title": title,
            "stated": list(stated),
            "derived": payload["interval"],
            "agrees": list(stated) == payload["interval"],
            "warnings": payload["warnings"],
        }
        if note:
            row["note"] = note
        out.append(row)
    return out

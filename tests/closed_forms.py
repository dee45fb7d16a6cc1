"""Closed formulas for the cohomology invariants of SO(n), for the tests.

The shipped bound rules take every SO(n) value from the cup-length engine
(``cup_length`` and ``zcl_full`` on ``so_ring``).  These formulas are the
independent reference route they are checked against: they share nothing with
the engine, not even the ring.

* ``korbas_cl(n)`` — the mod-2 cup length of SO(n),
  cl = (n-1) + sum(i * n_i * 2^(i-1)) where n-1 = sum(n_i 2^i) in binary.
* ``cat_so_lower(n)`` — the lower bound cl + 1 for cat(SO(n)), valid for
  every n.
* ``zcl_so_closed_form(n, field)`` — the zero-divisor cup length of SO(n):
  the mod-2 cup length in characteristic 2, and m = n // 2 otherwise.  Away
  from characteristic 2 the ring is exterior on m odd-degree generators; the
  bar of an odd-degree class squares to zero, so a nonzero bar product uses
  each generator at most once, and the product of all m generator bars is
  nonzero.
"""

from __future__ import annotations

from frametc.fields import Field


def korbas_cl(n: int) -> int:
    """Mod-2 cup length of SO(n) by the closed formula (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = n - 1
    total = m
    i = 0
    while m:
        if m & 1 and i >= 1:
            total += i * (1 << (i - 1))
        m >>= 1
        i += 1
    return total


def cat_so_lower(n: int) -> int:
    """Lower bound cl + 1 for cat(SO(n)), valid for every n."""
    return korbas_cl(n) + 1


def zcl_so_closed_form(n: int, field: Field) -> int:
    """Zero-divisor cup length of SO(n) by closed form (see module doc)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if field.characteristic == 2:
        return korbas_cl(n)
    return n // 2

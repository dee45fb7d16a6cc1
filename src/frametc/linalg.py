"""Exact sparse linear algebra over Q and F_p.

Vectors are sparse dicts ``{column: coefficient}`` with no stored zeros.
Coefficients are Fractions/ints over char 0 and ints in ``range(p)`` over
char p.

Over char 0 every stored row is kept as a *primitive integer* vector (scaled
by the lcm of denominators, divided by the content gcd, leading coefficient
positive) and elimination is fraction-free::

    row' = piv[c] * row - row[c] * piv

followed by renormalization.  This avoids Fraction arithmetic in the hot
loops while staying exact.  Over char p pivots are normalized to 1.

The echelon keeps one row per pivot column (pivot = smallest column index of
the row), which is enough for exact rank and span-membership tests; rows are
not back-substituted into each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .fields import Field

Vec = dict  # {column: coefficient}


class Echelon:
    """Incremental echelon basis of a growing span, with optional augmentation.

    ``insert(vec, aug)`` reduces ``vec`` against the rows stored so far (the
    same operations being applied to the augmented part) and stores the
    residual if it is nonzero.  Insertion order is the only source of
    ordering, so results are deterministic for deterministic input order.
    """

    def __init__(self, field: Field):
        self.field = field
        # pivot column -> (main, aug), in insertion order
        self.rows: dict[int, tuple[Vec, Vec]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    # -- internal helpers ----------------------------------------------------

    def _norm_pair(self, main: Vec, aug: Vec) -> tuple[Vec, Vec]:
        p = self.field.characteristic
        if p == 0:
            both = {("m", k): c for k, c in main.items() if c}
            both.update({("a", k): c for k, c in aug.items() if c})
            if not both:
                return {}, {}
            den = lcm(
                *(c.denominator if isinstance(c, Fraction) else 1 for c in both.values())
            )
            ints = {
                k: int(c * den) if isinstance(c, Fraction) else c * den
                for k, c in both.items()
            }
            g = gcd(*ints.values())
            main_keys = [k for (t, k) in ints if t == "m"]
            if main_keys:
                leadkey = ("m", min(main_keys))
            else:
                leadkey = ("a", min(k for (t, k) in ints if t == "a"))
            if ints[leadkey] < 0:
                g = -g
            main_n = {k: v // g for (t, k), v in ints.items() if t == "m"}
            aug_n = {k: v // g for (t, k), v in ints.items() if t == "a"}
            return main_n, aug_n
        main_n = {k: c % p for k, c in main.items() if c % p}
        aug_n = {k: c % p for k, c in aug.items() if c % p}
        return main_n, aug_n

    def _eliminate(self, main: Vec, aug: Vec, col: int) -> tuple[Vec, Vec]:
        piv_main, piv_aug = self.rows[col]
        p = self.field.characteristic
        if p == 0:
            a, b = main[col], piv_main[col]
            new_main = {}
            for k in main.keys() | piv_main.keys():
                c = b * main.get(k, 0) - a * piv_main.get(k, 0)
                if c:
                    new_main[k] = c
            new_aug = {}
            for k in aug.keys() | piv_aug.keys():
                c = b * aug.get(k, 0) - a * piv_aug.get(k, 0)
                if c:
                    new_aug[k] = c
            return new_main, new_aug
        f = main[col]  # pivot is normalized to 1
        new_main = dict(main)
        for k, c in piv_main.items():
            r = (new_main.get(k, 0) - f * c) % p
            if r:
                new_main[k] = r
            else:
                new_main.pop(k, None)
        new_aug = dict(aug)
        for k, c in piv_aug.items():
            r = (new_aug.get(k, 0) - f * c) % p
            if r:
                new_aug[k] = r
            else:
                new_aug.pop(k, None)
        return new_main, new_aug

    def _reduce(self, main: Vec, aug: Vec) -> tuple[Vec, Vec]:
        main, aug = self._norm_pair(main, aug)
        while main:
            hit = None
            for k in main:
                if k in self.rows and (hit is None or k < hit):
                    hit = k
            if hit is None:
                break
            main, aug = self._eliminate(main, aug, hit)
            main, aug = self._norm_pair(main, aug)
        return main, aug

    # -- public API ------------------------------------------------------------

    def insert(self, vec: Vec, aug: Optional[Vec] = None) -> tuple[bool, Vec, Vec]:
        """Reduce and, if independent, store.  Returns (added, residual, aug)."""
        main, augr = self._reduce(vec, aug or {})
        if not main:
            return False, main, augr
        p = self.field.characteristic
        if p != 0:
            piv = min(main)
            inv = pow(main[piv], -1, p)
            main = {k: (c * inv) % p for k, c in main.items()}
            augr = {k: (c * inv) % p for k, c in augr.items()}
        piv = min(main)
        self.rows[piv] = (main, augr)
        return True, main, augr


def kernel_of_map(images: list[Vec], field: Field) -> list[Vec]:
    """Kernel of the map sending domain basis vector i to ``images[i]``.

    Returns sparse coefficient vectors (over domain indices 0..len-1) spanning
    the kernel, in deterministic order.  Domain vectors are processed in
    order; whenever an image reduces to zero, the tracked combination is a
    kernel element.
    """
    ech = Echelon(field)
    kernel: list[Vec] = []
    for i, img in enumerate(images):
        added, residual, combo = ech.insert(dict(img), {i: field.one()})
        if not added:
            # residual is zero; combo expresses 0 as a combination including e_i
            if not residual:
                kernel.append(combo)
    return kernel

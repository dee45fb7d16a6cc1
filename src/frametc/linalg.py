"""Exact sparse linear algebra over Q and F_p.

Vectors are sparse dicts ``{column: coefficient}`` with no stored zeros.
Coefficients are ints, or Fractions where non-integral, over char 0 and ints
in ``range(p)`` over char p.

Elimination is one fraction-free step for every field::

    row' = piv[c] * row - row[c] * piv

and every step's result is renormalized.  Over char 0 that keeps a row a
*primitive integer* vector (scaled by the lcm of denominators, divided by
the content gcd, leading coefficient positive), so the hot loops run on
ints only while staying exact; over char p it is :meth:`Field.clean`, which
reduces mod p and drops the zeros.  Over char p a pivot is scaled to 1 by
:meth:`Field.invert` when it is stored, so there the step is
``row - row[c] * piv``.  No coefficient is reduced here but through
:class:`Field`.

The echelon keeps one row per pivot column (pivot = smallest column index of
the row), which is enough for exact rank and span-membership tests; rows are
not back-substituted into each other.  :func:`kernel_of_map` tracks each
domain vector as one more column past the image columns.
"""

from __future__ import annotations

from math import gcd, lcm

from .fields import Field

Vec = dict  # {column: coefficient}


class Echelon:
    """Incremental echelon basis of a growing span.

    ``insert(vec)`` reduces ``vec`` against the rows stored so far and stores
    the residual if it is nonzero; ``reduce(vec)`` only reduces.  Insertion
    order is the only source of ordering, so results are deterministic for
    deterministic input order.
    """

    def __init__(self, field: Field):
        self.field = field
        # pivot column -> row, in insertion order
        self.rows: dict[int, Vec] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    # -- internal helpers ----------------------------------------------------

    def _norm(self, vec: Vec) -> Vec:
        if self.field.characteristic:
            return self.field.clean(vec)
        den = lcm(*(c.denominator for c in vec.values()))
        ints = {k: c.numerator * (den // c.denominator) for k, c in vec.items() if c}
        if not ints:
            return ints
        g = gcd(*ints.values())
        if ints[min(ints)] < 0:
            g = -g
        return {k: v // g for k, v in ints.items()}

    def _eliminate(self, vec: Vec, col: int) -> Vec:
        """The fraction-free step; :meth:`_norm` drops the zeros it leaves."""
        piv = self.rows[col]
        a, b = vec[col], piv[col]
        return {k: b * vec.get(k, 0) - a * piv.get(k, 0) for k in vec.keys() | piv.keys()}

    # -- public API ------------------------------------------------------------

    def reduce(self, vec: Vec) -> Vec:
        """Residual of ``vec`` against the stored rows; stores nothing."""
        vec = self._norm(vec)
        while (hit := min(filter(self.rows.__contains__, vec), default=None)) is not None:
            vec = self._norm(self._eliminate(vec, hit))
        return vec

    def insert(self, vec: Vec) -> tuple[bool, Vec]:
        """Reduce and, if independent, store.  Returns (added, residual)."""
        vec = self.reduce(vec)
        if not vec:
            return False, vec
        piv = min(vec)
        f = self.field
        if f.characteristic:
            inv = f.invert(vec[piv])
            vec = f.clean({k: c * inv for k, c in vec.items()})
        self.rows[piv] = vec
        return True, vec


def kernel_of_map(images: list[Vec], field: Field) -> list[Vec]:
    """Kernel of the map sending domain basis vector i to ``images[i]``.

    Returns sparse coefficient vectors (over domain indices 0..len-1) spanning
    the kernel, in deterministic order.  Domain vector i is reduced as its
    image plus e_i, placed in column ``width + i`` past every image column.
    A residual with no image column left is a kernel vector.  It is never
    stored: its pivot would be a domain column that later reductions reach.
    Any other residual is inserted.
    """
    width = 1 + max((k for img in images for k in img), default=-1)
    ech = Echelon(field)
    kernel: list[Vec] = []
    for i, img in enumerate(images):
        residual = ech.reduce({**img, width + i: 1})
        if min(residual) >= width:
            kernel.append({k - width: c for k, c in residual.items()})
        else:
            ech.insert(residual)
    return kernel

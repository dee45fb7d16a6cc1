"""Basic zero-divisors of every positive-degree basis class, for the tests.

The engine searches over generator bars only (``frametc.cuplength``); the
tests also look at the bar of every positive-degree class.  Built with the
engine's own ``bar`` and ``ProductAlgebra``, so unlike ``tests/oracle.py``
this is not an independent reference.
"""

from __future__ import annotations

from frametc.algebra import Algebra, Element, ProductAlgebra
from frametc.cuplength import bar


class ZeroDivisorBasis:
    """Basic zero-divisors m̄ for every positive-degree basis class m of A."""

    def __init__(
        self,
        algebra: Algebra,
        square: ProductAlgebra,
        bars: list[Element],
        sources: list[int],  # basis index of A that each bar came from
    ):
        self.algebra = algebra
        self.square = square
        self.bars = bars
        self.sources = sources

    @property
    def labels(self) -> list[str]:
        return [f"bar({self.algebra.label(i)})" for i in self.sources]


def zero_divisor_generators(A: Algebra) -> ZeroDivisorBasis:
    """Construct m̄ = 1⊗m − m⊗1 for each positive-degree basis class m.

    Bars are ordered by (degree, basis index); the tests check that each
    lies in the kernel of the multiplication map.
    """
    T = ProductAlgebra(A, A)
    order = sorted(
        (i for i in range(A.dim) if A.degree(i) > 0),
        key=lambda i: (A.degree(i), i),
    )
    return ZeroDivisorBasis(A, T, [bar(T, A.basis_element(i)) for i in order], order)

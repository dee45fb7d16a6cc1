"""Test-side helpers that the shipped package does not need.

* :func:`tensor` — the graded tensor product of two algebras, for joint-ring
  and additivity checks; :class:`JointAlgebra` is its product form, which
  names its generators from the factors'.
* :func:`ring_to_json` — a monomial or table algebra in ring-descriptor form,
  for writing ring files and inline rings.
* :func:`interval_from_entries` — the interval a ``frame-bundle`` payload's
  entries give, recomputed apart from ``compute_bounds``.
* :func:`searched_cl` — cl from the generator search on any encoding, the
  route ``cup_length`` takes for non-monomial rings; on monomial rings it
  cross-checks the closed form.
* :func:`negated` — -x, for sign checks: elements only multiply.
* :func:`generator` — a monomial algebra's generator, by name.
* :func:`degrees`, :func:`labels` — every basis class's degree or label, as
  a list in index order.
"""

from __future__ import annotations

from fractions import Fraction

from frametc import cuplength
from frametc.algebra import (
    Algebra,
    DomainMismatchError,
    Element,
    GeneratorSpec,
    InvalidPresentationError,
    MonomialAlgebra,
    ProductAlgebra,
)
from frametc.cuplength import DEFAULT_BUDGET, CupLengthResult
from frametc.table import TableAlgebra


class JointAlgebra(ProductAlgebra):
    """A tensor product whose generators are x⊗1 and 1⊗y.

    x and y run over the factors' generators, and the result is in
    (degree, index) order, as the searches for cl and zcl expect.
    """

    def generators(self) -> list[int]:
        left, right = self.left, self.right
        gens = [self.pair_index(x, right.unit_index) for x in left.generators()]
        gens += [self.pair_index(left.unit_index, y) for y in right.generators()]
        return sorted(gens, key=lambda k: (self.degree(k), k))


def tensor(left: Algebra, right: Algebra) -> Algebra:
    """Graded (Künneth) tensor product.

    Two monomial algebras tensor to a monomial algebra by concatenating the
    generator lists (duplicate right-hand names get a ``'`` suffix); any other
    combination yields a :class:`JointAlgebra`.  Dimensions multiply and the
    Poincaré polynomial is the coefficientwise product.
    """
    if left.field != right.field:
        raise DomainMismatchError("tensor factors must share the coefficient field")
    if isinstance(left, MonomialAlgebra) and isinstance(right, MonomialAlgebra):
        taken = {g.name for g in left.gens}
        gens = list(left.gens)
        for g in right.gens:
            name = g.name
            while name in taken:
                name += "'"
            taken.add(name)
            gens.append(GeneratorSpec(name, g.degree, g.truncation))
        return MonomialAlgebra(left.field, gens)
    return JointAlgebra(left, right)


def ring_to_json(algebra: Algebra) -> dict:
    """Serialize a monomial or table algebra back to descriptor form."""
    if isinstance(algebra, MonomialAlgebra):
        return {
            "field": {"char": algebra.field.characteristic},
            "type": "monomial",
            "generators": [
                {"name": g.name, "degree": g.degree, "truncation": g.truncation}
                for g in algebra.gens
            ],
        }
    if isinstance(algebra, TableAlgebra):
        rows = []
        for (i, j), terms in sorted(algebra._table.items()):
            for k in sorted(terms):
                c = terms[k]
                rows.append(
                    [
                        algebra.label(i),
                        algebra.label(j),
                        algebra.label(k),
                        str(c) if isinstance(c, Fraction) and c.denominator != 1 else int(c),
                    ]
                )
        return {
            "field": {"char": algebra.field.characteristic},
            "type": "table",
            "basis": [
                {"name": n, "degree": d}
                for n, d in zip(labels(algebra), degrees(algebra))
            ],
            "products": rows,
        }
    raise InvalidPresentationError("only monomial and table algebras serialize")


def interval_from_entries(payload: dict) -> list:
    """[largest lower value, or 1; smallest upper value, or None]."""
    lower = [e["value"] for e in payload["entries"] if e["kind"] == "lower"]
    upper = [e["value"] for e in payload["entries"] if e["kind"] == "upper"]
    return [max(lower) if lower else 1, min(upper) if upper else None]


def searched_cl(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """cl(A) from the search over products of algebra generators, checked."""
    gens = [A.basis_element(i) for i in A.generators()]
    return cuplength._checked(cuplength._longest_product(A, A, gens, budget, "search"))


def generator(A: MonomialAlgebra, name: str) -> Element:
    """The basis element of the generator named ``name``, at its stride."""
    return A.basis_element(A.strides[[g.name for g in A.gens].index(name)])


def degrees(A: Algebra) -> list[int]:
    return [A.degree(k) for k in range(A.dim)]


def labels(A: Algebra) -> list[str]:
    return [A.label(k) for k in range(A.dim)]


def negated(x: Element) -> Element:
    """-x, coefficient by coefficient."""
    f = x.algebra.field
    return Element(x.algebra, {i: f.neg(c) for i, c in x.coeffs.items()})

"""Test-side helpers that the shipped package does not need.

* :func:`tensor` — the graded tensor product of two algebras, for joint-ring
  and additivity checks; :class:`JointAlgebra` is its product form, which
  names its generators from the factors'.
* :func:`ring_to_json` — a monomial or table algebra in ring-descriptor form,
  for writing ring files and inline rings.
* :func:`bound_entry_from_json`, :func:`bound_report_from_json` — a report
  read back from ``frame-bundle --json``.
* :func:`searched_cl` — cl from the generator search on any encoding, the
  route ``cup_length`` takes for non-monomial rings; on monomial rings it
  cross-checks the closed form.
* :func:`negated` — -x, for sign checks: elements only multiply.
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
    TableAlgebra,
)
from frametc.bounds import BoundEntry, BoundReport
from frametc.cuplength import DEFAULT_BUDGET, CupLengthResult


class JointAlgebra(ProductAlgebra):
    """A tensor product whose generators are x⊗1 and 1⊗y.

    x and y run over the factors' generators, and the result is in
    (degree, index) order, as the searches for cl and zcl expect.
    """

    def generators(self) -> list[int]:
        left, right = self.left, self.right
        gens = [self.pair_index(x, right.unit_index) for x in left.generators()]
        gens += [self.pair_index(left.unit_index, y) for y in right.generators()]
        return sorted(gens, key=lambda k: (self.degrees[k], k))


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
                        algebra.labels[i],
                        algebra.labels[j],
                        algebra.labels[k],
                        str(c) if isinstance(c, Fraction) and c.denominator != 1 else int(c),
                    ]
                )
        return {
            "field": {"char": algebra.field.characteristic},
            "type": "table",
            "basis": [
                {"name": n, "degree": d}
                for n, d in zip(algebra.labels, algebra.degrees)
            ],
            "products": rows,
        }
    raise InvalidPresentationError("only monomial and table algebras serialize")


def bound_entry_from_json(obj: dict) -> BoundEntry:
    return BoundEntry(
        rule=obj["rule"],
        kind=obj["kind"],
        value=obj["value"],
        statement=obj["statement"],
        citation=obj["citation"],
        field=obj.get("field"),
        assumptions=list(obj.get("assumptions", [])),
        notes=list(obj.get("notes", [])),
    )


def bound_report_from_json(obj: dict) -> BoundReport:
    """Rebuild a report, refusing a stored interval its entries disagree with."""
    report = BoundReport(
        manifold=obj["manifold"],
        fiber=obj["fiber"],
        frame_bundle_dim=obj["frame_bundle_dim"],
        entries=[bound_entry_from_json(e) for e in obj.get("entries", [])],
        warnings=list(obj.get("warnings", [])),
    )
    stored = obj.get("interval")
    if stored is not None and list(stored) != [report.lower, report.upper]:
        raise ValueError(
            f"stored interval {stored} disagrees with entries "
            f"{[report.lower, report.upper]}"
        )
    return report


def searched_cl(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """cl(A) from the search over products of algebra generators, checked."""
    gens = [A.basis_element(i) for i in A.generators()]
    return cuplength._checked(cuplength._longest_product(A, gens, budget, "search"))


def negated(x: Element) -> Element:
    """-x, coefficient by coefficient."""
    f = x.algebra.field
    return Element(x.algebra, {i: f.neg(c) for i, c in x.coeffs.items()})

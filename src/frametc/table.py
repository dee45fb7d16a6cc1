"""The table encoding of an algebra and the ring-JSON reader.

:class:`TableAlgebra` stores an explicit graded basis and its nonzero
products.  It is validated at construction from those products alone:
grading and graded commutativity on every stored pair, and associativity
exactly, on the triples (g, y, z) with g an algebra generator, which imply
all others (:meth:`frametc.algebra.Algebra.check_axioms`).  Its generators
are read from the table.  The default capacity refuses tables with more
than 4096 basis classes.

:func:`ring_from_json` builds a ring, monomial or table, from its JSON
descriptor.  A ring file is the only way a user supplies a table, and the
only catalog family kept as a table is ``sigma``.  So this module is a layer
of its own: the CLI compiles it only for a table ring or a ring file, never
for the monomial catalog rings, and ``linalg`` only when a table's
generators are found.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import linalg
from .algebra import (
    Algebra,
    DEFAULT_CAPACITY,
    DomainMismatchError,
    GeneratorSpec,
    InvalidPresentationError,
    MAX_GENERATORS,
    MonomialAlgebra,
    _NO_TERMS,
    check_capacity,
)
from .fields import Coeff, Field, field_from_json


class TableAlgebra(Algebra):
    """Structure-constant encoding with axiom validation at construction."""

    def __init__(
        self,
        field: Field,
        names: Sequence[str],
        degrees: Sequence[int],
        products: dict,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if len(names) != len(degrees):
            raise InvalidPresentationError("names and degrees differ in length")
        if len(set(names)) != len(names):
            raise InvalidPresentationError("duplicate basis names")
        check_capacity(len(names), capacity)
        for name, d in zip(names, degrees):
            if type(d) is not int or d < 0:
                raise InvalidPresentationError(
                    f"basis class {name}: degree must be a nonnegative integer, got {d!r}"
                )
        units = [i for i, d in enumerate(degrees) if d == 0]
        if len(units) != 1:
            raise InvalidPresentationError(
                f"need exactly one degree-0 basis class, found {len(units)}"
            )
        if "1" in names and names.index("1") != units[0]:
            raise InvalidPresentationError(
                f'basis class "1" has degree {degrees[names.index("1")]}; '
                'only the unit may be named "1", which prints as a scalar'
            )
        self.field = field
        self.dim = len(names)
        self._labels = list(names)
        self._degrees = list(degrees)
        # Bound list reads: ProductAlgebra.mul_vec reads a degree per term.
        self.label = self._labels.__getitem__
        self.degree = self._degrees.__getitem__
        self.top_degree = max(degrees)
        self.unit_index = units[0]
        table: dict[tuple[int, int], dict] = {}
        for (i, j), terms in products.items():
            clean = field.clean(terms)
            if self.unit_index in (i, j):
                other = j if i == self.unit_index else i
                if clean != {other: 1}:
                    raise InvalidPresentationError(
                        f"explicit unit product for {names[other]} contradicts unitality"
                    )
                continue  # unit products are implied
            if clean:
                table[(i, j)] = clean
        self._table = table
        self.check_axioms()

    def mul_basis(self, i: int, j: int) -> dict:
        if i == self.unit_index:
            return {j: 1}
        if j == self.unit_index:
            return {i: 1}
        return self._table.get((i, j), _NO_TERMS)

    def generators(self) -> list[int]:
        """Basis classes that generate the algebra, in (degree, index) order.

        A basis class of degree d is kept when it is independent of the
        products A+·A+ of degree d and of the classes kept before it; the
        kept classes span a complement of the decomposables, so they
        generate A.  The decomposables are spanned by the stored products
        x·y with x <= y (graded commutativity gives the others up to sign).
        The result is kept on the algebra, so the axiom check and the
        searches for cl and zcl share it.
        """
        try:
            return self._generators
        except AttributeError:
            decomposables: dict[int, list[dict]] = {}
            for (i, j), prod_ij in sorted(self._table.items()):
                if i <= j:
                    d = self._degrees[i] + self._degrees[j]
                    decomposables.setdefault(d, []).append(prod_ij)
            gens: list[int] = []
            for d, classes in sorted(self.indices_by_degree().items()):
                if d == 0:
                    continue
                ech = linalg.Echelon(self.field)
                for prod_ij in decomposables.get(d, []):
                    if ech.rank == len(classes):
                        break  # every class of degree d is decomposable
                    ech.insert(prod_ij)
                gens += [i for i in classes if ech.insert({i: 1})[0]]
            self._generators = gens
            return gens


# -- descriptor files ---------------------------------------------------------
#
# Ring descriptor JSON (schema shipped in frametc/schemas/ring.schema.json):
#   {"field": {"char": 2},
#    "type": "monomial",
#    "generators": [{"name": "b1", "degree": 1, "truncation": 4}, ...]}
# or
#   {"field": {"char": 0},
#    "type": "table",
#    "basis": [{"name": "1", "degree": 0}, {"name": "a1", "degree": 1}, ...],
#    "products": [["a1", "b1", "w", 1], ...]}
#
# Table products list one summand per row: x·y contains coeff·z.  Rows for the
# unit are implied.  Coefficients are ints or "p/q" strings (char 0 only).


def _coeff_from_json(c, field: Field) -> Coeff:
    try:
        if isinstance(c, str):
            from fractions import Fraction

            return field.coerce(Fraction(c))
        if type(c) is int:
            return field.coerce(c)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidPresentationError(f"bad coefficient {c!r}: {exc}") from None
    raise InvalidPresentationError(f"bad coefficient {c!r} (int or 'p/q' string)")


def _json_list(obj: dict, key: str, kind: type) -> list:
    """Entry ``key`` of a descriptor (default empty): a list of ``kind`` items."""
    value = obj.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise InvalidPresentationError(
            f"'{key}' must be a list of JSON {'objects' if kind is dict else 'arrays'}"
        )
    return value


def ring_from_json(
    obj: dict, field: Optional[Field] = None, capacity: int = DEFAULT_CAPACITY
) -> Algebra:
    """Build an algebra from its JSON descriptor (see module comment).

    ``capacity`` caps table descriptors only; they list every basis class.
    """
    if not isinstance(obj, dict):
        raise InvalidPresentationError("ring descriptor must be a JSON object")
    if "field" in obj:
        declared = field_from_json(obj["field"])
        if field is not None and declared != field:
            raise DomainMismatchError(
                f"descriptor declares {declared.token()} but {field.token()} was requested"
            )
        field = declared
    if field is None:
        raise InvalidPresentationError("ring descriptor needs a 'field' entry")
    kind = obj.get("type")
    if kind == "monomial":
        specs = _json_list(obj, "generators", dict)
        if len(specs) > MAX_GENERATORS:
            raise InvalidPresentationError(
                f"ring descriptor has {len(specs)} generators; "
                f"a monomial ring has at most {MAX_GENERATORS} generators"
            )
        return MonomialAlgebra(
            field,
            [GeneratorSpec(g.get("name"), g.get("degree"), g.get("truncation", 2)) for g in specs],
        )
    if kind == "table":
        basis = _json_list(obj, "basis", dict)
        names = [b.get("name") for b in basis]
        degrees = [b.get("degree") for b in basis]
        if not all(isinstance(n, str) and n for n in names):
            raise InvalidPresentationError(f"basis names must be nonempty strings: {names!r}")
        index = {n: i for i, n in enumerate(names)}
        products: dict[tuple[int, int], dict] = {}
        for row in _json_list(obj, "products", list):
            if len(row) != 4 or not all(isinstance(v, str) for v in row[:3]):
                raise InvalidPresentationError(f"product row {row!r} is not [x,y,z,coeff]")
            x, y, z, c = row
            try:
                key = (index[x], index[y])
                k = index[z]
            except KeyError as e:
                raise InvalidPresentationError(f"unknown basis name {e.args[0]!r}")
            terms = products.setdefault(key, {})
            terms[k] = field.add(terms.get(k, 0), _coeff_from_json(c, field))
        return TableAlgebra(field, names, degrees, products, capacity=capacity)
    raise InvalidPresentationError(f"unknown ring type {kind!r} (monomial or table)")

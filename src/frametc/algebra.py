"""Finite-dimensional graded-commutative algebras with exact arithmetic.

Three encodings share one interface (:class:`Algebra`):

* :class:`MonomialAlgebra` — generators ``g_i`` with degrees ``d_i`` and
  truncations ``q_i`` (the relation ``g_i**q_i = 0``), basis = exponent
  vectors ``e`` with ``0 <= e_i < q_i`` in lexicographic order over the
  declared generator order.  Basis class k is the mixed-radix number with
  digits ``e``, so nothing is stored per basis class: multiplication adds
  digits, is zero when one overflows its truncation, and otherwise lands on
  index i + j with the Koszul sign from counting transpositions of
  odd-degree factors.
* :class:`TableAlgebra` — explicit graded basis plus its nonzero products,
  validated at construction from those products alone: grading and graded
  commutativity on every stored pair, and associativity exactly, on the
  triples (g, y, z) with g an algebra generator, which imply all others
  (:meth:`Algebra.check_axioms`).  Its generators are read from the table.
* :class:`ProductAlgebra` — the graded tensor product of two algebras with
  structure constants computed lazily:
  ``(a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb'``.  Its degrees and
  labels are lazy too: basis class k = (i, j) is answered from the factors'
  lists on demand, so a tensor square costs nothing per basis class until
  it is multiplied in.

Monomial and table encodings name a set of algebra generators
(``generators()``), found once per algebra and shared by the axiom check and
the cup-length searches.  Basis ordering is deterministic everywhere, so
searches and reported witnesses are reproducible.  Elements are sparse maps
from basis index to a nonzero field coefficient.  Only encodings that store
every basis class are capped: the default capacity refuses table algebras
with more than 4096 basis elements.  Monomial and product encodings store
nothing per basis class and take no cap.
"""

from __future__ import annotations

from collections import abc
from fractions import Fraction
from math import prod
from typing import Callable, Optional, Sequence

from .fields import Coeff, Field, field_from_json
from .linalg import Echelon

DEFAULT_CAPACITY = 4096


class InvalidPresentationError(ValueError):
    """The given presentation violates an algebra axiom."""


class CapacityError(ValueError):
    """Construction or computation would exceed the configured dimension cap."""


def check_capacity(dim: int, capacity: int) -> None:
    """Refuse an encoding that would store ``dim`` basis classes above ``capacity``."""
    if dim > capacity:
        raise CapacityError(f"dimension {dim} exceeds capacity {capacity}")


class DomainMismatchError(ValueError):
    """Operands belong to different algebras or fields."""


class GeneratorSpec:
    """A truncated generator: ``name`` of ``degree`` with ``name**truncation = 0``."""

    def __init__(self, name: str, degree: int, truncation: int = 2):
        self.name = name
        self.degree = degree
        self.truncation = truncation
        if not isinstance(name, str) or not name:
            raise InvalidPresentationError(
                f"generator name must be a nonempty string, got {name!r}"
            )
        for what, value, least in (("degree", degree, 1), ("truncation", truncation, 2)):
            if type(value) is not int or value < least:  # JSON true is no integer
                raise InvalidPresentationError(
                    f"generator {name}: {what} must be an integer >= {least}, got {value!r}"
                )


class Element:
    """Sparse exact linear combination of basis classes of one algebra."""

    __slots__ = ("algebra", "coeffs")
    __hash__ = None

    def __init__(self, algebra: "Algebra", coeffs: dict):
        clean = {}
        for i, c in coeffs.items():
            c = algebra.field.coerce(c)
            if c:
                clean[i] = c
        self.algebra = algebra
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        """Common degree of the support, None for 0, error if mixed."""
        if not self.coeffs:
            return None
        degs = {self.algebra.degrees[i] for i in self.coeffs}
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    def __mul__(self, other: "Element") -> "Element":
        if self.algebra is not other.algebra:
            raise DomainMismatchError("elements belong to different algebras")
        return Element(self.algebra, self.algebra.mul_vec(self.coeffs, other.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c, lab = self.coeffs[i], self.algebra.labels[i]
            if lab == "1":
                term = str(c)
            elif c == 1:
                term = lab
            elif c == -1:
                term = f"-{lab}"
            else:
                term = f"{c}·{lab}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__


class Algebra:
    """Common interface of all encodings.

    Subclasses populate ``field``, ``degrees``, ``labels``, ``unit_index`` and
    implement :meth:`mul_basis`.  Instances are immutable after construction
    and safe to share; all operations are pure.  The dict ``mul_basis``
    returns may be the stored one, so callers only read it.
    """

    field: Field
    degrees: Sequence[int]
    labels: Sequence[str]
    unit_index: int

    @property
    def dim(self) -> int:
        return len(self.degrees)

    @property
    def top_degree(self) -> int:
        return max(self.degrees)

    def mul_basis(self, i: int, j: int) -> dict:
        raise NotImplementedError

    def indices_by_degree(self) -> dict[int, list[int]]:
        try:
            return self._by_degree
        except AttributeError:
            by: dict[int, list[int]] = {}
            for i, d in enumerate(self.degrees):
                by.setdefault(d, []).append(i)
            self._by_degree = by
            return by

    def poincare_polynomial(self) -> list[int]:
        """Coefficient c_d = number of basis classes of degree d, d = 0..top."""
        out = [0] * (self.top_degree + 1)
        for d in self.degrees:
            out[d] += 1
        return out

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: 1})

    # -- products ------------------------------------------------------------

    def mul_vec(self, u: dict, v: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                cij = f.mul(ci, cj)
                for k, s in self.mul_basis(i, j).items():
                    acc = f.add(out.get(k, 0), f.mul(cij, s))
                    if not acc:
                        out.pop(k, None)
                    else:
                        out[k] = acc
        return out

    # -- axiom checking --------------------------------------------------------

    def check_axioms(self) -> None:
        """Verify the stored products ``_table`` of a table encoding.

        Only the pairs the table lists are read: a pair listed in neither
        order has product 0 both ways, which is graded and commutative, and
        the constructor fixes the unit's products.  Each listed unordered
        pair x, y is checked for grading (x·y lies in degree |x| + |y|) and
        graded commutativity (x·y = (-1)^{|x||y|} y·x).
        Associativity is checked exactly, on generator triples:
        (g·y)·z = g·(y·z) for every generator g (:meth:`generators`) and
        every pair of non-unit basis classes y, z, hence for all elements
        y, z.  That implies it everywhere.  Every x in A+ is a sum of terms
        g·w with deg w < deg x, since the generators span a complement of
        A+·A+ in each degree and (g·w)·b = g·(w·b); so, by induction on deg x,
        ((g·w)·y)·z = (g·(w·y))·z = g·((w·y)·z) = g·(w·(y·z)) = (g·w)·(y·z).
        Triples the grading settles are skipped: those with deg g + deg y +
        (least positive degree) above the top degree, and those with g·y = 0
        and y·z = 0, where both sides are 0.  So z runs only over the classes
        with y·z ≠ 0 or x·z ≠ 0 for a term x of g·y.
        Raises InvalidPresentationError naming the first offender; for
        associativity, the first failing (g, y, z) in generator order, then
        y index, then z index.  The method is defined here, not on
        TableAlgebra, because ``bench/tracer.py`` times it under this name.
        """
        f = self.field
        table = self._table
        degs = self.degrees
        signs = (1, f.sign_to_coeff(1))  # (-1)**(even), (-1)**(odd)
        # One visit per unordered pair: if (j, i) passes both checks then
        # prod_ij = ±prod_ji, so (i, j) passes too.  The first offender of
        # the full row-major loop therefore has i <= j, and is found here.
        for i, j in sorted({(min(key), max(key)) for key in table}):
            prod_ij = table.get((i, j), _NO_TERMS)
            d = degs[i] + degs[j]
            for k in prod_ij:
                if degs[k] != d:
                    raise InvalidPresentationError(
                        f"product {self.labels[i]}·{self.labels[j]} violates grading"
                    )
            sign = signs[degs[i] * degs[j] % 2]
            prod_ji = table.get((j, i), _NO_TERMS)
            expect = {k: f.mul(sign, c) for k, c in prod_ji.items()}
            if prod_ij != expect:
                raise InvalidPresentationError(
                    f"graded commutativity fails on {self.labels[i]}, {self.labels[j]}"
                )
        partners: list[list[int]] = [[] for _ in degs]  # non-unit z with y·z ≠ 0
        for y, z in table:
            partners[y].append(z)
        unit = self.unit_index
        top = self.top_degree
        least = min((d for d in degs if d > 0), default=0)
        ys: dict[int, list[int]] = {}  # generator degree -> the y worth trying
        for g in self.generators():
            if degs[g] not in ys:
                room = top - least - degs[g]
                ys[degs[g]] = [y for y, d in enumerate(degs) if y != unit and d <= room]
            for y in ys[degs[g]]:
                prod_gy = table.get((g, y), _NO_TERMS)
                zs = set(partners[y])
                for x in prod_gy:
                    zs.update(partners[x])
                for z in sorted(zs):
                    left = self.mul_vec(prod_gy, {z: 1})
                    right = self.mul_vec({g: 1}, table.get((y, z), _NO_TERMS))
                    if left != right:
                        raise InvalidPresentationError(
                            "associativity fails on "
                            f"{self.labels[g]}, {self.labels[y]}, {self.labels[z]}"
                        )


class _LazySeq(abc.Sequence):
    """Read-only sequence whose entry k is ``entry(k)``, computed when read."""

    def __init__(self, length: int, entry: Callable):
        self._length = length
        self._entry = entry

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, k: int):
        if not -self._length <= k < self._length:
            raise IndexError(f"index {k} out of range for length {self._length}")
        return self._entry(k % self._length)

    def __iter__(self):
        return map(self._entry, range(self._length))


class MonomialAlgebra(Algebra):
    """Truncated-generator encoding (tensor product of one-generator algebras).

    Basis index k has digits e_i in the mixed radix (q_1, ..., q_r), the
    last generator least significant, so generator i sits at index
    ``strides[i]`` and the top monomial at index dim - 1.  ``degrees`` and
    ``labels`` are lazy views decoded from the digits.
    """

    def __init__(self, field: Field, gens: Sequence[GeneratorSpec]):
        gens = tuple(gens)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise InvalidPresentationError(f"duplicate generator names in {names}")
        if field.characteristic != 2:
            for g in gens:
                if g.degree % 2 == 1 and g.truncation != 2:
                    raise InvalidPresentationError(
                        f"generator {g.name} has odd degree {g.degree}; truncation "
                        f"must be 2 over a field of characteristic != 2"
                    )
        self.field = field
        self.gens = gens
        self.strides = tuple(
            prod(g.truncation for g in gens[t + 1 :]) for t in range(len(gens))
        )
        dim = prod(g.truncation for g in gens)
        self.degrees = _LazySeq(dim, self._degree)
        self.labels = _LazySeq(dim, self._label)
        self.unit_index = 0
        self._radix = [(g.truncation, g.degree % 2 == 1) for g in reversed(gens)]

    @property
    def top_degree(self) -> int:
        return sum((g.truncation - 1) * g.degree for g in self.gens)

    def _digits(self, k: int) -> list[int]:
        """Exponent of each generator in basis class k, in declared order."""
        out = []
        for g in reversed(self.gens):
            k, e = divmod(k, g.truncation)
            out.append(e)
        return out[::-1]

    def _degree(self, k: int) -> int:
        return sum(e * g.degree for e, g in zip(self._digits(k), self.gens))

    def _label(self, k: int) -> str:
        parts = [
            g.name if e == 1 else f"{g.name}^{e}"
            for e, g in zip(self._digits(k), self.gens)
            if e > 0
        ]
        return "·".join(parts) if parts else "1"

    def generators(self) -> list[int]:
        """The generator monomials, at their strides, in (degree, index) order."""
        return sorted(self.strides, key=lambda i: (self.degrees[i], i))

    def generator_element(self, name: str) -> Element:
        for g, stride in zip(self.gens, self.strides):
            if g.name == name:
                return self.basis_element(stride)
        raise KeyError(f"no generator named {name!r}")

    def mul_basis(self, i: int, j: int) -> dict:
        # Digits add without carry, so a nonzero product is class i + j.
        # Koszul sign: each of the f_a copies of generator a crosses each of
        # the e_b copies of generator b > a; ``later`` counts those e_b, over
        # odd-degree generators only, as digits are read from the last one.
        x, y = i, j
        exponent = later = 0
        for q, odd in self._radix:
            x, e = divmod(x, q)
            y, f = divmod(y, q)
            if e + f >= q:
                return {}
            if odd:
                exponent += f * later
                later += e
        return {i + j: self.field.sign_to_coeff(exponent)}


_NO_TERMS: dict = {}  # the product of every pair the table does not list


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
        self.field = field
        self.labels = list(names)
        self.degrees = list(degrees)
        self.unit_index = units[0]
        table: dict[tuple[int, int], dict] = {}
        for (i, j), terms in products.items():
            clean = {}
            for k, c in terms.items():
                c = field.coerce(c)
                if c:
                    clean[k] = c
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
                    d = self.degrees[i] + self.degrees[j]
                    decomposables.setdefault(d, []).append(prod_ij)
            gens: list[int] = []
            for d, classes in sorted(self.indices_by_degree().items()):
                if d == 0:
                    continue
                ech = Echelon(self.field)
                for prod_ij in decomposables.get(d, []):
                    if ech.rank == len(classes):
                        break  # every class of degree d is decomposable
                    ech.insert(prod_ij)
                gens += [i for i in classes if ech.insert({i: 1})[0]]
            self._generators = gens
            return gens


class ProductAlgebra(Algebra):
    """Graded tensor product with lazily computed structure constants.

    ``degrees`` and ``labels`` are read-only views: entry
    ``pair_index(i, j)`` is computed from entries i and j of the factors'
    sequences when it is asked for, so construction and ``dim`` (the
    views' length) are O(1) whatever the dimension.
    """

    def __init__(self, left: Algebra, right: Algebra):
        if left.field != right.field:
            raise DomainMismatchError("tensor factors must share the coefficient field")
        self.field = left.field
        self.left = left
        self.right = right
        n = right.dim
        self.degrees = _LazySeq(
            left.dim * n, lambda k: left.degrees[k // n] + right.degrees[k % n]
        )
        self.labels = _LazySeq(
            left.dim * n, lambda k: f"{left.labels[k // n]}⊗{right.labels[k % n]}"
        )
        self.unit_index = self.pair_index(left.unit_index, right.unit_index)

    @property
    def top_degree(self) -> int:
        return self.left.top_degree + self.right.top_degree

    def pair_index(self, i: int, j: int) -> int:
        return i * self.right.dim + j

    def split_index(self, k: int) -> tuple[int, int]:
        return divmod(k, self.right.dim)

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mul_vec({i: 1}, {j: 1})

    def mul_vec(self, u: dict, v: dict) -> dict:
        """Product of two vectors, multiplied factor by factor.

        Each pair of terms gives (x1⊗y1)(x2⊗y2) = (-1)^{|y1||x2|} x1x2⊗y1y2
        from the factors' ``mul_basis``.  Nothing is stored per pair: a
        factor product with the unit is not looked up (every bar term has
        one) and a coefficient 1 is not multiplied by.
        """
        f = self.field
        left, right = self.left, self.right
        n = right.dim
        vterms = []
        for y, cy in v.items():
            i2, j2 = divmod(y, n)
            vterms.append((i2, j2, left.degrees[i2] % 2, cy))
        out: dict = {}
        for x, cx in u.items():
            i1, j1 = divmod(x, n)
            odd = right.degrees[j1] % 2
            for i2, j2, odd2, cy in vterms:
                lterms = _factor_terms(left, i1, i2)
                if not lterms:
                    continue
                rterms = _factor_terms(right, j1, j2)
                c = _times(f, cx, cy)
                if odd and odd2:
                    c = f.neg(c)
                for k, a in lterms:
                    ca = _times(f, c, a)
                    for l, b in rterms:
                        key = k * n + l
                        acc = f.add(out.get(key, 0), _times(f, ca, b))
                        if not acc:
                            out.pop(key, None)
                        else:
                            out[key] = acc
        return out


def _factor_terms(A: Algebra, i: int, j: int):
    """Terms (k, c) of the basis product i·j in A; a unit factor is not looked up."""
    if i == A.unit_index:
        return ((j, 1),)
    if j == A.unit_index:
        return ((i, 1),)
    return A.mul_basis(i, j).items()


def _times(f: Field, c: Coeff, a: Coeff) -> Coeff:
    """c·a, without multiplying when a is 1."""
    return c if a == 1 else f.mul(c, a)


def tensor_square(algebra: Algebra) -> ProductAlgebra:
    """The tensor square A (x) A in product form (labels ``x⊗y``)."""
    return ProductAlgebra(algebra, algebra)


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
        gens = [
            GeneratorSpec(g.get("name"), g.get("degree"), g.get("truncation", 2))
            for g in _json_list(obj, "generators", dict)
        ]
        return MonomialAlgebra(field, gens)
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

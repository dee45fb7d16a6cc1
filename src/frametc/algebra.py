"""Finite-dimensional graded-commutative algebras with exact arithmetic.

Three encodings share one interface (:class:`Algebra`):

* :class:`MonomialAlgebra` — generators ``g_i`` with degrees ``d_i`` and
  truncations ``q_i`` (the relation ``g_i**q_i = 0``), basis = exponent
  vectors ``e`` with ``0 <= e_i < q_i`` in lexicographic order over the
  declared generator order.  Basis class k is the mixed-radix number with
  digits ``e``, so nothing is stored per basis class: its degree and label
  are decoded from the digits when asked for, and multiplication adds
  digits, is zero when one overflows its truncation, and otherwise lands on
  index i + j with the Koszul sign from counting transpositions of
  odd-degree factors.
* ``TableAlgebra`` — explicit graded basis plus its nonzero products,
  validated at construction from those products alone
  (:meth:`Algebra.check_axioms`); its generators are read from the table.
  It lives in :mod:`frametc.table` with the ring-JSON reader, so a call on
  monomial rings never compiles it.
* :class:`ProductAlgebra` — the graded tensor product of two algebras with
  structure constants computed lazily:
  ``(a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb'``.  The degree and
  label of basis class k = (i, j) are read from the factors' classes i and
  j, so a tensor square costs nothing per basis class until it is
  multiplied in.

Every encoding answers ``degree(k)`` and ``label(k)`` for a basis class k.
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

from itertools import accumulate
from operator import mul
from typing import Optional, Sequence

from .fields import Field

DEFAULT_CAPACITY = 4096
# A monomial ring keeps one stride per generator, and stride i has as many
# bits as the classes of the generators after it: O(r²) bits in all, about
# 6 MB at this many generators of truncation 2 and 625 MB at ten times as many.
# The catalog and the ring-JSON reader refuse a ring with more generators.
MAX_GENERATORS = 10_000
_NO_TERMS: dict = {}  # the product of every pair a table does not list


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
        if name == "1":  # a generator is never the unit
            raise InvalidPresentationError(
                f'generator "1" has degree {degree!r}; '
                'only the unit may be named "1", which prints as a scalar'
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
        self.algebra = algebra
        self.coeffs = algebra.field.clean(coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Optional[int]:
        """Common degree of the support, None for 0, error if mixed."""
        if not self.coeffs:
            return None
        degs = {self.algebra.degree(i) for i in self.coeffs}
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
            c, lab = self.coeffs[i], self.algebra.label(i)
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

    Subclasses populate ``field``, ``dim``, ``unit_index`` and
    ``top_degree``, answer ``degree(k)`` and ``label(k)`` for each basis
    class k < dim, and implement :meth:`mul_basis`.  Instances are immutable
    after construction and safe to share; all operations are pure.  The dict
    ``mul_basis`` returns may be the stored one, so callers only read it.
    """

    field: Field
    dim: int
    unit_index: int
    top_degree: int

    def mul_basis(self, i: int, j: int) -> dict:
        raise NotImplementedError

    def indices_by_degree(self) -> dict[int, list[int]]:
        by: dict[int, list[int]] = {}
        for i in range(self.dim):
            by.setdefault(self.degree(i), []).append(i)
        return by

    def poincare_polynomial(self) -> list[int]:
        """Coefficient c_d = number of basis classes of degree d, d = 0..top."""
        out = [0] * (self.top_degree + 1)
        for i in range(self.dim):
            out[self.degree(i)] += 1
        return out

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: 1})

    # -- products ------------------------------------------------------------

    def mul_vec(self, u: dict, v: dict) -> dict:
        """Product of two vectors: exact sums of the term products from
        ``mul_basis``, reduced once by :meth:`Field.clean`."""
        out: dict = {}
        for i, ci in u.items():
            for j, cj in v.items():
                cij = ci * cj
                for k, s in self.mul_basis(i, j).items():
                    out[k] = out.get(k, 0) + cij * s
        return self.field.clean(out)

    # -- axiom checking --------------------------------------------------------

    def check_axioms(self) -> None:
        """Verify the stored products ``_table`` of a table encoding
        (:class:`frametc.table.TableAlgebra`).

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
        The check is row-wise: one pass per generator g and class y builds
        both sides for every z at once, as maps ``{(z, k): coefficient}`` of
        exact sums, cleans each once and compares them.  Classes y that the
        grading settles are skipped: those with deg g + deg y + (least
        positive degree) above the top degree.  Only the z with y·z ≠ 0 or
        x·z ≠ 0 for a term x of g·y add terms; for the others both sides are 0.
        Raises InvalidPresentationError naming the first offender; for
        associativity, the first failing (g, y, z) in generator order, then
        y index, then z index.  The method is defined here, not on
        TableAlgebra, because ``bench/tracer.py`` times it under this name:
        it wraps ``Algebra.check_axioms``, and that stays loaded on a
        monomial call while ``frametc.table`` does not.
        """
        f = self.field
        table = self._table
        degs, labels = self._degrees, self._labels
        # One visit per unordered pair: if (j, i) passes both checks then
        # prod_ij = ±prod_ji, so (i, j) passes too.  The first offender of
        # the full row-major loop therefore has i <= j, and is found here.
        for i, j in sorted({(min(key), max(key)) for key in table}):
            prod_ij = table.get((i, j), _NO_TERMS)
            d = degs[i] + degs[j]
            for k in prod_ij:
                if degs[k] != d:
                    raise InvalidPresentationError(
                        f"product {labels[i]}·{labels[j]} violates grading"
                    )
            sign = -1 if degs[i] * degs[j] % 2 else 1
            expect = f.clean({k: sign * c for k, c in table.get((j, i), _NO_TERMS).items()})
            if prod_ij != expect:
                raise InvalidPresentationError(
                    f"graded commutativity fails on {labels[i]}, {labels[j]}"
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
                left: dict = {}  # (g·y)·z
                for x, c in table.get((g, y), _NO_TERMS).items():
                    for z in partners[x]:
                        for k, s in table[(x, z)].items():
                            left[z, k] = left.get((z, k), 0) + c * s
                right: dict = {}  # g·(y·z)
                for z in partners[y]:
                    for w, c in table[(y, z)].items():
                        for k, s in table.get((g, w), _NO_TERMS).items():
                            right[z, k] = right.get((z, k), 0) + c * s
                left, right = f.clean(left), f.clean(right)
                if left != right:
                    z = min(z for (z, _), _ in left.items() ^ right.items())
                    raise InvalidPresentationError(
                        "associativity fails on "
                        f"{labels[g]}, {labels[y]}, {labels[z]}"
                    )


class MonomialAlgebra(Algebra):
    """Truncated-generator encoding (tensor product of one-generator algebras).

    Basis index k has digits e_i in the mixed radix (q_1, ..., q_r), the
    last generator least significant, so generator i sits at index
    ``strides[i]`` and the top monomial at index dim - 1.  ``degree(k)`` and
    ``label(k)`` are decoded from the digits of k.
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
        # One running product, from the last generator: its strides, then dim.
        *strides, self.dim = accumulate(
            (g.truncation for g in reversed(gens)), mul, initial=1
        )
        self.strides = tuple(reversed(strides))
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

    def degree(self, k: int) -> int:
        return sum(e * g.degree for e, g in zip(self._digits(k), self.gens))

    def label(self, k: int) -> str:
        parts = [
            g.name if e == 1 else f"{g.name}^{e}"
            for e, g in zip(self._digits(k), self.gens)
            if e > 0
        ]
        return "·".join(parts) if parts else "1"

    def generators(self) -> list[int]:
        """The generator monomials, at their strides, in (degree, index) order."""
        return [i for _, i in sorted(zip((g.degree for g in self.gens), self.strides))]

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


class ProductAlgebra(Algebra):
    """Graded tensor product with lazily computed structure constants.

    The degree and label of class ``pair_index(i, j)`` are read from the
    factors' classes i and j when asked for, so construction is O(1)
    whatever the dimension.
    """

    def __init__(self, left: Algebra, right: Algebra):
        if left.field != right.field:
            raise DomainMismatchError("tensor factors must share the coefficient field")
        self.field = left.field
        self.left = left
        self.right = right
        self.dim = left.dim * right.dim
        self.unit_index = self.pair_index(left.unit_index, right.unit_index)

    @property
    def top_degree(self) -> int:
        return self.left.top_degree + self.right.top_degree

    def pair_index(self, i: int, j: int) -> int:
        return i * self.right.dim + j

    def split_index(self, k: int) -> tuple[int, int]:
        return divmod(k, self.right.dim)

    def degree(self, k: int) -> int:
        i, j = self.split_index(k)
        return self.left.degree(i) + self.right.degree(j)

    def label(self, k: int) -> str:
        i, j = self.split_index(k)
        return f"{self.left.label(i)}⊗{self.right.label(j)}"

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mul_vec({i: 1}, {j: 1})

    def mul_vec(self, u: dict, v: dict) -> dict:
        """Product of two vectors, multiplied factor by factor.

        Each pair of terms gives (x1⊗y1)(x2⊗y2) = (-1)^{|y1||x2|} x1x2⊗y1y2
        from the factors' ``mul_basis``.  Nothing is stored per pair, and
        each term's degree parity is read once per call.  The coefficients
        are exact sums, reduced once by :meth:`Field.clean`.
        """
        left, right = self.left, self.right
        n = right.dim
        vterms = []
        for y, cy in v.items():
            i2, j2 = divmod(y, n)
            vterms.append((i2, j2, left.degree(i2) % 2, cy))
        out: dict = {}
        for x, cx in u.items():
            i1, j1 = divmod(x, n)
            odd = right.degree(j1) % 2
            for i2, j2, odd2, cy in vterms:
                lterms = left.mul_basis(i1, i2)
                if not lterms:
                    continue
                rterms = right.mul_basis(j1, j2).items()
                c = -cx * cy if odd and odd2 else cx * cy
                for k, a in lterms.items():
                    ca = c * a
                    for l, b in rterms:
                        key = k * n + l
                        out[key] = out.get(key, 0) + ca * b
        return self.field.clean(out)


def __getattr__(name: str):
    # ``bench/tracer.py`` and ``bench/run.py`` import TableAlgebra and
    # ring_from_json from here.  Until the tracer imports each layer itself
    # (ROADMAP item 5, step 2), they are looked up in frametc.table.
    if name in ("TableAlgebra", "ring_from_json"):
        from . import table

        return getattr(table, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

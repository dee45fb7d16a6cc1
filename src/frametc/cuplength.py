"""Cup-length computations on graded algebras and their tensor squares.

Three quantities, in increasing strength on the zero-divisor side:

* ``cup_length(A)`` — longest nonzero product from the positive-degree part.
  Closed form for monomial encodings (sum of truncation heights minus one
  per generator, witnessed by the top monomial); the generator-product
  search below otherwise.  The test suite runs that search on monomial
  rings too, as a cross-check of the closed form.
* ``zcl_basic(A)`` — longest nonzero product of *basic* zero-divisors
  ``m̄ = 1⊗m − m⊗1`` in A⊗A, m running over positive-degree basis classes.
* ``zcl_full(A)`` — cup length of the whole zero-divisor ideal
  Z = ker(A⊗A → A).

Both zero-divisor values come from one engine, a search over products of
*generator* bars.  Let Z = ker(μ: A⊗A → A).  Any kernel element
Σ c·x⊗y equals Σ c·(x⊗1)·ȳ, so the bars of basis classes generate Z as an
ideal, and the identity 1⊗ab − ab⊗1 = (1⊗a)·b̄ + ā·(b⊗1) reduces every bar
to bars of algebra generators.  A⊗A is graded commutative, so Z^k ≠ 0
exactly when some product of k generator bars is nonzero.  Generator bars
are basic bars, hence zcl_basic = zcl_full = the longest nonzero product of
generator bars (the basic zero-divisor setting of Farber, *Topological
complexity of motion planning*, DCG 29, 2003).  The generators come from
the algebra's ``generators()``: the generator monomials of a monomial
encoding, and for a table the basis classes that stay independent of its
stored products A+·A+ in their degree.  A table ring's axiom check already
found them, so the searches reuse that list.

One search answers both sides.  Every product of positive-degree classes
is a sum of products of generators, and a nonzero product of k or more
generators has a nonzero prefix of k of them, so cl(A) is the longest
nonzero product of algebra generators, just as zcl is the longest nonzero
product of generator bars.  :func:`_longest_product` finds either: a
depth-first search, on an explicit stack, over multisets of degree-sorted
elements in nondecreasing order, run on A for cl and on A⊗A for zcl.
Degree counting bounds it: a product of k elements of degree at least d
is zero once k·d passes the top degree, so no product is longer than
top degree // (least element degree), and the search stops when it finds
one of that length.

For monomial algebras ``zcl_full`` also has a factorization route: over a
field, Z(A⊗B) = Z_A·(B⊗B) + (A⊗A)·Z_B, and expanding a product of more than
zcl(A)+zcl(B) such elements binomially always overruns one of the two
factors, so zcl is additive across tensor factors and a monomial algebra
contributes the sum of its single-generator values.  It keeps the search on
tensor squares of one-generator algebras and never builds A⊗A: each
generator's witness is checked in its own square, which is exact because
A⊗A is the tensor product of those squares and, over a field, a tensor
product of nonzero elements is nonzero.  Both routes are cross-checked
against the independent dense kernel-power oracle by the test suite, never
only against each other.

Every result carries a witness that is re-multiplied and checked nonzero
before it is returned, once, by the public entry that returns it.
Budget-limited searches return ``exact=False`` and their value is then only
a lower bound; callers that need upper bounds must reject inexact results.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .algebra import (
    Algebra,
    Element,
    MonomialAlgebra,
    ProductAlgebra,
    tensor_square,
)
from .linalg import kernel_of_map

DEFAULT_BUDGET = 500_000


def join_factors(factors: list[str]) -> str:
    """Printed factors joined by `` * ``, multi-term ones in parentheses."""
    return " * ".join(f"({w})" if " + " in w or " - " in w else w for w in factors)


class CupLengthResult:
    """Value with witness; ``exact=False`` means lower bound only.

    A factored result has ``parts``, one result per tensor factor with its
    witness in its own algebra; its value is their sum, its witness their
    concatenation, and it prints their products as one factored product.
    """

    def __init__(
        self,
        value: int,
        exact: bool,
        method: str,
        witness: Optional[list[Element]] = None,
        witness_product: Optional[Element] = None,
        nodes: int = 0,
        parts: Optional[list["CupLengthResult"]] = None,
    ):
        self.value = value
        self.exact = exact
        self.method = method
        self.witness = [] if witness is None else witness
        self.witness_product = witness_product
        self.nodes = nodes
        self.parts = [] if parts is None else parts

    def verify(self) -> bool:
        """Re-multiply the witness and confirm a nonzero product of the stated length.

        A factored result re-verifies its parts and checks that they add up.
        """
        if self.parts:
            return (
                sum(p.value for p in self.parts) == self.value
                and self.witness == [w for p in self.parts for w in p.witness]
                and all(p.verify() for p in self.parts)
            )
        if self.value == 0:
            return not self.witness
        if len(self.witness) != self.value:
            return False
        prod = self.witness[0]
        for w in self.witness[1:]:
            prod = prod * w
        if prod.is_zero:
            return False
        if self.witness_product is not None and prod != self.witness_product:
            return False
        return True

    def describe(self) -> dict:
        out = {
            "value": self.value,
            "exact": self.exact,
            "method": self.method,
            "witness": [str(w) for w in self.witness],
        }
        products = [
            str(p.witness_product)
            for p in self.parts or [self]
            if p.witness_product is not None
        ]
        if products:
            out["witness_product"] = (
                products[0] if len(products) == 1 else join_factors(products)
            )
        if self.nodes:
            out["nodes"] = self.nodes
        return out


def _checked(result: CupLengthResult) -> CupLengthResult:
    if not result.verify():
        raise AssertionError(
            f"internal error: witness failed re-multiplication for {result.method}"
        )
    return result


# -- cup length ---------------------------------------------------------------


def cup_length(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """Longest nonzero product of positive-degree classes.

    A monomial encoding answers with its top monomial; a table encoding
    takes the search over products of its ``generators()``, which loses
    nothing (module docstring) and gives ``exact=False`` when its node
    budget runs out.
    """
    if not isinstance(A, MonomialAlgebra):
        gens = [A.basis_element(i) for i in A.generators()]
        return _checked(_longest_product(A, gens, budget, "search"))
    # The top monomial (each generator at its top power) is a nonzero class,
    # and total exponent weight is additive and capped, so the value is
    # exactly the sum of (truncation - 1).
    witness: list[Element] = []
    for g in A.gens:
        witness += [A.generator_element(g.name)] * (g.truncation - 1)
    value = len(witness)
    top = A.basis_element(A.dim - 1)
    return _checked(
        CupLengthResult(value, True, "closed-form", witness, top if value else None)
    )


# -- zero-divisors ----------------------------------------------------------------


def diagonal_image(T: ProductAlgebra, vec: dict) -> dict:
    """Image of a tensor-square vector under the multiplication map A⊗A → A."""
    A = T.left
    f = A.field
    out: dict = {}
    for k, c in vec.items():
        i, j = T.split_index(k)
        for m, s in A.mul_basis(i, j).items():
            acc = f.add(out.get(m, 0), f.mul(c, s))
            if not acc:
                out.pop(m, None)
            else:
                out[m] = acc
    return out


def bar(T: ProductAlgebra, u: Element) -> Element:
    """The zero-divisor 1⊗u − u⊗1 associated with u, inside the tensor square."""
    A = T.left
    f = A.field
    unit = A.unit_index
    coeffs: dict = {}
    for i, c in u.coeffs.items():
        k = T.pair_index(unit, i)
        coeffs[k] = f.add(coeffs.get(k, 0), c)
        k = T.pair_index(i, unit)
        coeffs[k] = f.sub(coeffs.get(k, 0), c)
    return Element(T, coeffs)


def _bars(T: ProductAlgebra, sources: list[int]) -> list[Element]:
    """Bars of the given basis classes, each checked to be a zero-divisor."""
    A = T.left
    bars = []
    for i in sources:
        b = bar(T, A.basis_element(i))
        if diagonal_image(T, b.coeffs):
            raise AssertionError(
                f"internal error: bar({A.labels[i]}) is not a zero-divisor"
            )
        bars.append(b)
    return bars


def _longest_product(
    T: Algebra, elements: list[Element], budget: int, method: str
) -> CupLengthResult:
    """Longest nonzero product of ``elements`` (repetition allowed) in ``T``.

    ``elements`` are homogeneous, of positive degree and sorted by degree.
    Depth-first search, on an explicit stack, over multisets of them in
    nondecreasing index order, pruning zero partial products and products
    whose degree would pass ``T.top_degree``.  The search stops as soon as
    a product reaches the degree bound ``T.top_degree // (least degree)``,
    past which no product is nonzero; the best product only changes when a
    strictly longer one is found, so the value and witness are those of
    the full search.  If the node budget runs out the best length found so
    far is returned with ``exact=False``.
    """
    vecs = [e.coeffs for e in elements]
    degs = [e.degree() for e in elements]
    top = T.top_degree
    bound = top // degs[0] if degs else 0
    nodes = 0
    exact = True
    best: tuple = ()
    best_product = None
    path: list[int] = []  # the factor each frame above the root extended by
    # A frame is (indices still to try, product, degree).  ``degs`` is sorted,
    # so the indices that keep the degree within ``top`` form a prefix.
    stack = [(iter(range(bisect_right(degs, top))), {T.unit_index: 1}, 0)]
    while stack and len(best) < bound:
        candidates, vec, deg = stack[-1]
        for t in candidates:
            nodes += 1
            if nodes > budget:
                exact = False
                break
            prod = T.mul_vec(vec, vecs[t])
            if prod:
                path.append(t)
                if len(path) > len(best):
                    best, best_product = tuple(path), prod
                d = deg + degs[t]
                stack.append((iter(range(t, bisect_right(degs, top - d, t))), prod, d))
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        if not exact:
            break
    witness = [elements[t] for t in best]
    product = Element(T, best_product) if best else None
    return CupLengthResult(len(best), exact, method, witness, product, nodes)


def _generator_bar_search(A: Algebra, budget: int) -> CupLengthResult:
    """Longest nonzero product of generator bars, in the lazy tensor square."""
    T = tensor_square(A)
    return _longest_product(T, _bars(T, A.generators()), budget, "generator-bars")


def zcl_basic(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """Longest nonzero product of basic zero-divisors (repetition allowed).

    Searched over generator bars only, which loses nothing (module
    docstring).  No dimension cap applies beyond the one ``A`` was built
    under; an exhausted node budget gives ``exact=False``.
    """
    return _checked(_generator_bar_search(A, budget))


# -- full zero-divisor cup length ------------------------------------------------


def zero_divisor_ideal_basis(T: ProductAlgebra) -> tuple[list[dict], list[int]]:
    """Per-degree exact kernel of the multiplication map, as sparse vectors.

    Returns (vectors, degrees), ordered by degree then by kernel extraction
    order.  Degree-0 (the unit line) is excluded: zero-divisors live in the
    reduced part.  No cup-length engine needs it: the powers of this ideal
    are searched through generator bars (module docstring).
    """
    A = T.left
    vectors: list[dict] = []
    degrees: list[int] = []
    by_degree = T.indices_by_degree()
    for d in sorted(by_degree):
        if d == 0:
            continue
        domain = by_degree[d]
        images = []
        for k in domain:
            i, j = T.split_index(k)
            images.append(dict(A.mul_basis(i, j)))
        for combo in kernel_of_map(images, T.field):
            vec = {domain[pos]: c for pos, c in combo.items()}
            vectors.append(vec)
            degrees.append(d)
    return vectors, degrees


def _zcl_full_factor(A: MonomialAlgebra, budget: int) -> CupLengthResult:
    """Sum of per-generator values, one part per generator.

    Justified by additivity of zcl across tensor factors over a field (see
    module docstring); each generator's part comes from the generator-bar
    search on its one-generator algebra, with what is left of the node
    budget.  ``zcl_full`` checks the sum, whose ``verify`` re-multiplies
    each part in its own square.
    """
    parts: list[CupLengthResult] = []
    nodes = 0
    for g in A.gens:
        part = _generator_bar_search(MonomialAlgebra(A.field, [g]), max(budget - nodes, 0))
        nodes += part.nodes
        parts.append(part)
    return CupLengthResult(
        sum(p.value for p in parts),
        all(p.exact for p in parts),
        "factorization",
        [w for p in parts for w in p.witness],
        nodes=nodes,
        parts=parts,
    )


def zcl_full(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """Cup length of the full zero-divisor ideal Z = ker(A⊗A → A).

    Monomial encodings take the factorization route, any other encoding the
    generator-bar search.  No dimension cap applies beyond the one ``A`` was
    built under; an exhausted node budget gives ``exact=False``.
    """
    route = _zcl_full_factor if isinstance(A, MonomialAlgebra) else _generator_bar_search
    return _checked(route(A, budget))

"""Cup-length computations on graded algebras and their tensor squares.

Three quantities, in increasing strength on the zero-divisor side:

* ``cup_length(A)`` — longest nonzero product from the positive-degree part.
* ``zcl_basic(A)`` — longest nonzero product of *basic* zero-divisors
  ``m̄ = 1⊗m − m⊗1`` in A⊗A, m running over positive-degree basis classes.
* ``zcl_full(A)`` — cup length of the whole zero-divisor ideal
  Z = ker(A⊗A → A).

Both zero-divisor values equal the longest nonzero product of
*generator* bars.  Let Z = ker(μ: A⊗A → A).  Any kernel element
Σ c·x⊗y equals Σ c·(x⊗1)·ȳ, so the bars of basis classes generate Z as an
ideal, and the identity 1⊗ab − ab⊗1 = (1⊗a)·b̄ + ā·(b⊗1) reduces every bar
to bars of algebra generators.  A⊗A is graded commutative, so Z^k ≠ 0
exactly when some product of k generator bars is nonzero.  Generator bars
are basic bars, hence zcl_basic = zcl_full = the longest nonzero product of
generator bars (the basic zero-divisor setting of Farber, *Topological
complexity of motion planning*, DCG 29, 2003).  The generators come from
the algebra's ``generators()``; a table ring's axiom check already found
them, as the classes independent of A+·A+ in their degree.

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

Monomial rings take formulas for cl and zcl and table rings the search,
which ``zcl_basic`` runs on any ring and the tests run against each formula.
A monomial algebra is the tensor product of its one-generator algebras
K[g]/g^q, and over a field both invariants are additive across tensor
factors.  Top classes multiply to a top class, and a product of more than
cl(A)+cl(B) positive-degree elements of A⊗B expands into terms with more
than cl(A) such factors in A or more than cl(B) in B.  Likewise, with
Z(A⊗B) = Z_A·(B⊗B) + (A⊗A)·Z_B, a product of more than zcl(A)+zcl(B)
zero-divisors always overruns one of the two factors.  Each generator gets
one part, g^(q−1) in K[g]/g^q for cl and the longest nonzero power of
bar(g) in its square for zcl, checked there alone: over a field, a tensor
product of nonzero elements is nonzero.

Every result carries a witness that is re-multiplied and checked nonzero
before it is returned, once, by the public entry that returns it; each
distinct factor of a zcl witness is also checked to be a zero-divisor, and
an exact product to vanish times any one of them.  Only the search reads
the node budget; one that runs out returns ``exact=False``: a lower bound,
which callers that need upper bounds reject.  A monomial witness of more
than ``MAX_WITNESS`` factors is refused before any part is built.
``report.describe`` formats a result for printing.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb
from typing import Optional

from . import linalg
from .algebra import Algebra, Element, GeneratorSpec, MonomialAlgebra, ProductAlgebra

DEFAULT_BUDGET = 500_000
MAX_WITNESS = 500_000  # factors in a witness, which is listed and printed in full


class WitnessTooLongError(ValueError):
    """A witness longer than ``MAX_WITNESS`` factors."""


class CupLengthResult:
    """Value with witness; ``exact=False`` means lower bound only.

    ``algebra`` is the ring the value is of.  A factored result has
    ``parts``, part i on the one-generator algebra of ``algebra.gens[i]``;
    its value is their sum and its witness their concatenation.
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
        algebra: Optional[Algebra] = None,
    ):
        self.value = value
        self.exact = exact
        self.method = method
        self.witness = [] if witness is None else witness
        self.witness_product = witness_product
        self.nodes = nodes
        self.parts = [] if parts is None else parts
        self.algebra = algebra

    def verify(self) -> bool:
        """Re-multiply the witness and confirm a nonzero product of the stated length.

        A factor outside ``algebra`` must be a zero-divisor of its tensor
        square, each distinct one checked once, and an exact product must
        vanish times any one of them.  A factored result re-verifies its
        parts, in generator order, and their sum.
        """
        if self.parts:
            return (
                [getattr(p.algebra, "gens", None) for p in self.parts]
                == [(g,) for g in getattr(self.algebra, "gens", ())]
                and sum(p.value for p in self.parts) == self.value
                and self.witness == [w for p in self.parts for w in p.witness]
                and all(p.verify() for p in self.parts)
            )
        if self.value == 0:
            return not self.witness
        if len(self.witness) != self.value:
            return False
        A = self.algebra
        factors = {id(w): w for w in self.witness}.values()
        for w in factors:
            T = w.algebra
            if T is not A and not (
                isinstance(T, ProductAlgebra) and T.left is A and T.right is A
                and not diagonal_image(T, w.coeffs)
            ):
                return False
        prod = self.witness[0]
        for w in self.witness[1:]:
            prod = prod * w
        if prod.is_zero:
            return False
        if self.witness_product is not None and prod != self.witness_product:
            return False
        return not self.exact or all((prod * w).is_zero for w in factors)


def _checked(result: CupLengthResult) -> CupLengthResult:
    if not result.verify():
        raise AssertionError(
            f"internal error: witness failed re-multiplication for {result.method}"
        )
    return result


# -- cup length ---------------------------------------------------------------


def cup_length(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """Longest nonzero product of positive-degree classes.

    A monomial encoding answers by generator, g^(q−1) in each K[g]/g^q; a
    table encoding takes the search over products of its ``generators()``,
    which loses nothing (module docstring) and gives ``exact=False`` when
    its node budget runs out.  A monomial witness past ``MAX_WITNESS``
    factors raises :class:`WitnessTooLongError` before any part is built.
    """
    if not isinstance(A, MonomialAlgebra):
        gens = [A.basis_element(i) for i in A.generators()]
        return _checked(_longest_product(A, A, gens, budget, "search"))
    values = _within_max_witness("cl", [g.truncation - 1 for g in A.gens])
    return _checked(_by_generator(A, values, _top_power, "closed-form"))


def _top_power(B: MonomialAlgebra, k: int) -> CupLengthResult:
    """cl of K[g]/g^q: k = q − 1 factors g, whose product g^k is the top class."""
    g, top = B.basis_element(1), B.basis_element(k)
    return CupLengthResult(k, True, "closed-form", [g] * k, top, algebra=B)


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


def _longest_product(
    A: Algebra, T: Algebra, elements: list[Element], budget: int, method: str
) -> CupLengthResult:
    """Longest nonzero product of ``elements`` (repetition allowed) in ``T``, A or A⊗A.

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
    return CupLengthResult(len(best), exact, method, witness, product, nodes, algebra=A)


def _generator_bar_search(A: Algebra, budget: int) -> CupLengthResult:
    """Longest nonzero product of generator bars, in the lazy tensor square."""
    T = ProductAlgebra(A, A)
    bars = [bar(T, A.basis_element(i)) for i in A.generators()]
    return _longest_product(A, T, bars, budget, "generator-bars")


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
        for combo in linalg.kernel_of_map(images, T.field):
            vec = {domain[pos]: c for pos, c in combo.items()}
            vectors.append(vec)
            degrees.append(d)
    return vectors, degrees


def _within_max_witness(invariant: str, values: list[int]) -> list[int]:
    """The part values of a factored witness, refused past ``MAX_WITNESS`` factors."""
    if sum(values) > MAX_WITNESS:
        raise WitnessTooLongError(
            f"the {invariant} witness would have {sum(values)} factors; at most "
            f"MAX_WITNESS = {MAX_WITNESS} are listed"
        )
    return values


def _bar_power_length(g: GeneratorSpec, p: int) -> int:
    """zcl of K[g]/g^q, p = char K, h = q − 1: the largest k with bar(g)^k ≠ 0.

    bar(g)^k = Σ (−1)^i C(k, i) g^i ⊗ g^(k−i) over i in [k − h, h], so k = 1
    for odd g and p ≠ 2, and 2h over Q (Farber, DCG 29, 2003).  Over F_p it
    is the largest i + j with i, j ≤ h that adds without a carry in base p
    (Lucas, Kummer): a digit d of h gives 2d, or p − 1 once it or a higher
    digit has 2d ≥ p.  For p = 2 that is 2^bitlen(h) − 1
    (Farber–Tabachnikov–Yuzvinsky, IMRN 2003).
    """
    h = g.truncation - 1
    if g.degree % 2 and p != 2:
        return 1
    if p == 0:
        return 2 * h
    k, unit = 0, 1
    while h:
        h, d = divmod(h, p)
        k = unit * p - 1 if 2 * d >= p else k + 2 * d * unit
        unit *= p
    return k


def _bar_power(B: MonomialAlgebra, k: int) -> CupLengthResult:
    """zcl of K[g]/g^q: k factors bar(g), their product from the binomial formula."""
    h = B.dim - 1
    T, f = ProductAlgebra(B, B), B.field
    terms, lo = {}, max(0, k - h)
    c = comb(k, lo)
    for i in range(lo, min(k, h) + 1):  # c = C(k, i)
        terms[T.pair_index(i, k - i)] = f.mul(f.sign_to_coeff(i), c)
        c = c * (k - i) // (i + 1)
    witness = [bar(T, B.basis_element(1))] * k
    product = Element(T, terms) if k else None
    return CupLengthResult(k, True, "generator-bars", witness, product, algebra=B)


def _by_generator(A: MonomialAlgebra, values, part, method: str) -> CupLengthResult:
    """Sum of ``part(B, values[i])`` over the algebras B of each generator i
    of A: exact for cl and zcl by additivity across tensor factors (module
    docstring).  The caller's check re-verifies each part.
    """
    parts = [part(MonomialAlgebra(A.field, [g]), k) for g, k in zip(A.gens, values)]
    witness = [w for p in parts for w in p.witness]
    return CupLengthResult(sum(values), True, method, witness, parts=parts, algebra=A)


def zcl_full(A: Algebra, budget: int = DEFAULT_BUDGET) -> CupLengthResult:
    """Cup length of the full zero-divisor ideal Z = ker(A⊗A → A).

    A monomial encoding answers by generator, the longest nonzero power of
    bar(g) in each K[g]/g^q, and a table encoding by the generator-bar
    search; the budget and ``MAX_WITNESS`` act as in :func:`cup_length`.
    No dimension cap applies beyond the one ``A`` was built under.
    """
    if isinstance(A, MonomialAlgebra):
        p = A.field.characteristic
        values = _within_max_witness("zcl", [_bar_power_length(g, p) for g in A.gens])
        return _checked(_by_generator(A, values, _bar_power, "factorization"))
    return _checked(_generator_bar_search(A, budget))

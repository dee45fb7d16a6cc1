"""Cup-length engine: frozen values, witnesses, budgets and search depth.

Expected numbers fall in three groups: hand-checkable values (truncated
polynomial and exterior algebras), values frozen from the independent
brute-force oracle in ``tests/oracle.py`` (which shares nothing with the
engine beyond the basis multiplication table), and binomial-coefficient
identities checked symbolically in the tests themselves.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from frametc import cuplength, linalg
from frametc.algebra import (
    Element,
    GeneratorSpec,
    MonomialAlgebra,
    ProductAlgebra,
)
from frametc.catalog import (
    cp_ring,
    rp_ring,
    so_ring,
    sphere_ring,
    surface_ring,
    torus_ring,
)
from frametc.cuplength import (
    CupLengthResult,
    bar,
    cup_length,
    diagonal_image,
    zcl_basic,
    zcl_full,
    zero_divisor_ideal_basis,
)
from frametc.fields import F2, QQ, field_of
from frametc.linalg import Echelon
from frametc.table import TableAlgebra
from closed_forms import korbas_cl
from helpers import degrees, labels, searched_cl, tensor
from oracle import brute_force_cl
from test_algebra import table_from
from zero_divisors import zero_divisor_generators


class TestCupLength:
    def test_closed_form_with_witness(self):
        res = cup_length(rp_ring(7))
        assert res.value == 7
        assert res.exact and res.method == "closed-form"
        assert [str(w) for w in res.witness] == ["a"] * 7
        assert str(res.witness_product) == "a^7"
        assert res.verify()

    def test_search_agrees_with_closed_form(self, entries):
        for entry in entries:
            if not isinstance(entry.algebra, MonomialAlgebra):
                continue
            closed = cup_length(entry.algebra)
            searched = searched_cl(entry.algebra)
            assert closed.value == searched.value, entry.entry_id
            assert searched.exact and searched.verify()

    def test_closed_form_matches_oracle_above_the_small_cut(self, entries):
        # Criterion 5 runs the oracle on every ring of dimension <= 16; these
        # are the catalog's other monomial rings.
        large = [e for e in entries if e.algebra.dim > 16]
        assert [e.entry_id for e in large] == ["so:6:char2", "so:7:char2", "so:8:char2"]
        for entry in large:
            closed = cup_length(entry.algebra)
            assert closed.method == "closed-form", entry.entry_id
            assert brute_force_cl(entry.algebra, "positive") == closed.value, entry.entry_id

    def test_table_ring_searches(self):
        res = cup_length(surface_ring(2, F2))
        assert res.value == 2 and res.method == "search"
        assert res.verify()

    def test_point_has_length_zero(self):
        res = cup_length(so_ring(1, QQ))
        assert res.value == 0 and res.exact
        assert res.witness == []

    def test_search_budget_exhaustion_is_flagged(self):
        res = cup_length(surface_ring(3, F2), budget=3)
        assert not res.exact and res.nodes == 4
        assert res.value < 2 and res.verify()

    def test_search_past_the_recursion_limit(self):
        # The search keeps its own stack: 1500 factors deep, no RecursionError.
        res = searched_cl(rp_ring(1500))
        assert (res.value, res.exact) == (1500, True)
        assert str(res.witness_product) == "a^1500" and res.verify()


class TestZeroDivisorGenerators:
    def test_torus2_has_three_bars(self):
        zdb = zero_divisor_generators(torus_ring(2, QQ))
        assert len(zdb.bars) == 3
        assert zdb.labels == ["bar(u2)", "bar(u1)", "bar(u1·u2)"]

    def test_so3_char2_has_three_bars(self):
        zdb = zero_divisor_generators(so_ring(3, F2))
        assert len(zdb.bars) == 3
        assert zdb.labels == ["bar(b1)", "bar(b1^2)", "bar(b1^3)"]

    def test_bars_sorted_by_degree_then_index(self):
        zdb = zero_divisor_generators(so_ring(5, F2))
        degs = [
            zdb.algebra.degree(i) for i in zdb.sources
        ]
        assert degs == sorted(degs)

    def test_bars_are_zero_divisors(self):
        zdb = zero_divisor_generators(cp_ring(3, QQ))
        for b in zdb.bars:
            assert diagonal_image(zdb.square, b.coeffs) == {}

    def test_bar_coefficients(self):
        A = cp_ring(2, QQ)
        T = ProductAlgebra(A, A)
        u = A.generator_element("u")
        b = bar(T, u)
        assert b.coeffs == {
            T.pair_index(0, 1): Fraction(1),
            T.pair_index(1, 0): Fraction(-1),
        }

    def test_bar_square_identity_spot_check(self):
        # For |u| even: bar(u)^2 = 1 (x) u^2 - 2 u (x) u + u^2 (x) 1; in a
        # height-2 truncation only the middle term survives.
        A = cp_ring(1, QQ)
        T = ProductAlgebra(A, A)
        b = bar(T, A.generator_element("u"))
        assert (b * b).coeffs == {T.pair_index(1, 1): Fraction(-2)}

    def test_odd_degree_bar_squares_to_zero(self):
        # For |u| odd with u^2 = 0 the three terms cancel outright, over any
        # field: bar(u)^2 = u^2 (x) 1 + 1 (x) u^2 - (1 + (-1)^{|u|}) u (x) u.
        for field in (QQ, F2, field_of(3)):
            A = torus_ring(1, field)
            T = ProductAlgebra(A, A)
            b = bar(T, A.generator_element("u1"))
            assert (b * b).is_zero

    def test_bar_power_dies_at_source_truncation_char2(self):
        # Over a characteristic-2 field, bar(b)^q = 1 (x) b^q + b^q (x) 1
        # when q is a power of two, so the bar of a height-q generator is
        # nilpotent of exponent exactly its truncation.
        for n in range(2, 7):
            A = so_ring(n, F2)
            T = ProductAlgebra(A, A)
            for g in A.gens:
                b = bar(T, A.generator_element(g.name))
                power = T.basis_element(T.unit_index)
                for _ in range(g.truncation - 1):
                    power = power * b
                assert not power.is_zero, (n, g.name)
                assert (power * b).is_zero, (n, g.name)


JOINT_CAP = 32  # classes of a joint ring re-encoded as a table, to keep it quick


class TestGeneratorIndices:
    def test_monomial_generators_are_the_generator_monomials(self):
        A = so_ring(5, F2)
        assert [A.label(i) for i in A.generators()] == ["b1", "b3"]

    def test_table_surface_generated_in_degree_one(self):
        A = surface_ring(2, QQ)
        gens = A.generators()
        assert [A.label(i) for i in gens] == ["a1", "a2", "b1", "b2"]

    def test_table_encoding_of_monomial_ring_finds_same_generators(self):
        # A structure-constant copy of a monomial ring goes through the
        # decomposables route and must land on the same basis classes.
        for A in (so_ring(5, F2), so_ring(6, QQ), cp_ring(3, QQ), torus_ring(3, F2)):
            table = TableAlgebra(
                A.field,
                labels(A),
                degrees(A),
                {(i, j): A.mul_basis(i, j) for i in range(A.dim) for j in range(A.dim)},
            )
            assert table.generators() == A.generators()

    def test_product_algebra_generators_are_the_factor_generators(self):
        A, B = surface_ring(1, F2), rp_ring(3)
        P = tensor(A, B)
        assert [P.label(i) for i in P.generators()] == ["1⊗a", "a1⊗1", "b1⊗1"]  # (degree, index) order

    def test_joint_generators_match_the_table_route(self, small_entries):
        # The factor-by-factor generators of a joint ring against the
        # decomposables route run on the same ring as a table.
        pairs = 0
        for a in small_entries:
            for b in small_entries:
                A, B = a.algebra, b.algebra
                if A.field != B.field or A.dim * B.dim > JOINT_CAP:
                    continue
                P = tensor(A, B)
                if isinstance(P, MonomialAlgebra):
                    continue
                assert table_from(P).generators() == P.generators(), (a.entry_id, b.entry_id)
                pairs += 1
        assert pairs > 0

    def test_found_once_per_algebra(self, monkeypatch):
        # ``ring --compute cl,zcl-full`` builds a table ring, whose axiom
        # check needs its generators, and then runs both searches on it.
        # Finding them takes one echelon per positive degree, here 1 and 2.
        calls = []
        monkeypatch.setattr(
            linalg, "Echelon", lambda field: calls.append(field) or Echelon(field)
        )
        A = surface_ring(3, QQ)
        assert cup_length(A).value == 2 and zcl_full(A).value == 4
        assert A.generators() is A.generators()
        assert len(calls) == 2

    def test_point_has_no_generators(self):
        assert so_ring(1, QQ).generators() == []
        assert TableAlgebra(QQ, ["1"], [0], {}).generators() == []


class TestZclBasic:
    def test_complex_projective_values_and_coefficient(self):
        # bar(u)^{2n} expands binomially; truncation kills everything except
        # the middle term C(2n, n) * (-1)^n u^n (x) u^n.
        for n in range(1, 5):
            A = cp_ring(n, QQ)
            T = ProductAlgebra(A, A)
            res = zcl_basic(A)
            assert res.value == 2 * n
            assert res.exact and res.verify()
            b = bar(T, A.generator_element("u"))
            power = T.basis_element(T.unit_index)
            for _ in range(2 * n):
                power = power * b
            sign = 1 if n % 2 == 0 else -1
            assert power.coeffs == {
                T.pair_index(n, n): Fraction(sign * comb(2 * n, n))
            }

    def test_sphere_values(self):
        # Odd spheres stop at one factor (odd-degree bars square to zero over
        # every field); even spheres reach two unless -2 vanishes.
        assert zcl_basic(sphere_ring(1, QQ)).value == 1
        assert zcl_basic(sphere_ring(3, QQ)).value == 1
        assert zcl_basic(sphere_ring(3, F2)).value == 1
        assert zcl_basic(sphere_ring(2, QQ)).value == 2
        assert zcl_basic(sphere_ring(2, F2)).value == 1
        assert zcl_basic(sphere_ring(4, field_of(3))).value == 2

    def test_torus_values(self):
        for n in range(1, 4):
            assert zcl_basic(torus_ring(n, QQ)).value == n
            assert zcl_basic(torus_ring(n, F2)).value == n

    def test_surface_genus2_reaches_three(self):
        res = zcl_basic(surface_ring(2, F2))
        assert res.value == 3
        assert res.exact and res.verify()
        assert zcl_basic(surface_ring(2, QQ)).value == 4

    def test_so_char2_matches_mod2_cup_length(self):
        for n in range(2, 6):
            assert zcl_basic(so_ring(n, F2)).value == cup_length(so_ring(n, F2)).value

    def test_so_odd_char_searched_values(self):
        # Exterior algebras on k odd generators reach exactly k: each bar
        # squares to zero, so factors cannot repeat, and the k distinct
        # generator bars do multiply out nonzero.
        expected = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3}
        for n, want in expected.items():
            res = zcl_basic(so_ring(n, QQ))
            assert res.value == want, f"so:{n}:char0"
            assert res.exact

    def test_budget_exhaustion_is_flagged(self):
        res = zcl_basic(so_ring(5, F2), budget=20)
        assert not res.exact
        assert res.value <= 8
        assert res.verify()

    def test_deterministic_witness(self):
        a = zcl_basic(surface_ring(2, F2))
        b = zcl_basic(surface_ring(2, F2))
        assert [str(w) for w in a.witness] == [str(w) for w in b.witness]
        assert str(a.witness_product) == str(b.witness_product)

    def test_point_is_zero(self):
        assert zcl_basic(so_ring(1, F2)).value == 0


class TestZclFull:
    def test_known_small_values(self):
        assert zcl_full(torus_ring(2, QQ)).value == 2
        assert zcl_full(cp_ring(1, QQ)).value == 2
        assert zcl_full(rp_ring(3)).value == 3

    def test_truncated_polynomial_heights(self):
        # F2[b]/(b^{2^k}) has full zero-divisor length 2^k - 1.
        for k in (1, 2, 3):
            A = MonomialAlgebra(F2, [GeneratorSpec("b", 1, 2 ** k)])
            res = zcl_full(A)
            assert res.value == 2 ** k - 1
            assert res.verify()

    def test_direct_and_factor_agree(self, small_entries):
        # The whole-ring search (zcl_basic) against the factor split.
        for entry in small_entries:
            if not isinstance(entry.algebra, MonomialAlgebra):
                continue
            direct = zcl_basic(entry.algebra)
            factored = zcl_full(entry.algebra)
            assert factored.method == "factorization", entry.entry_id
            assert direct.value == factored.value, entry.entry_id
            assert direct.verify() and factored.verify()

    def test_additive_across_tensor_factors(self):
        A, B = rp_ring(3), so_ring(3, F2)
        AB = tensor(A, B)
        assert zcl_basic(AB).value == zcl_full(A).value + zcl_full(B).value

    def test_ideal_basis_is_kernel(self):
        A = surface_ring(1, QQ)
        T = ProductAlgebra(A, A)
        vecs, degs = zero_divisor_ideal_basis(T)
        assert len(vecs) == len(degs)
        assert degs == sorted(degs)
        assert all(d > 0 for d in degs)
        for v in vecs:
            assert diagonal_image(T, v) == {}
        # Rank count: dim ker = dim(A (x) A) - dim A in each positive degree,
        # summed; the multiplication map is onto (split by a (x) 1).
        assert len(vecs) == T.dim - A.dim

    def test_capacity_does_not_cap_the_tensor_square(self):
        # The searches multiply sparsely in a lazy tensor square, so a ring
        # built under capacity 16 is searched although its square has 36
        # classes; the oracle builds its own dense square.
        A = surface_ring(2, F2, capacity=16)
        for engine, ideal in (
            (zcl_full, "zero-divisor-full"),
            (zcl_basic, "zero-divisor-basic"),
        ):
            res = engine(A)
            assert (res.value, res.exact) == (3, True), ideal
            assert res.verify(), ideal
            assert res.value == brute_force_cl(A, ideal), ideal

    def test_so8_char2_basic_search_at_default_capacity(self):
        # Its tensor square has 65536 classes, far above the default cap.
        res = zcl_basic(so_ring(8, F2))
        assert (res.value, res.exact) == (12, True) and res.verify()

    def test_so13_char2_in_little_memory(self):
        # A 2^24-class tensor square whose degrees and labels are never listed.
        tracemalloc.start()
        try:
            res = zcl_full(so_ring(13, F2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.value, res.exact) == (28, True) and res.verify()
        assert peak < 64 * 2**20, peak

    def test_surface_search_stores_nothing_per_product_pair(self):
        # An exhaustive 4,054-node bar search in a 676-class tensor square; a
        # per-pair product cache peaks at about 2.2 MB here.
        A = surface_ring(12, F2)
        tracemalloc.start()
        try:
            res = zcl_full(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (res.value, res.exact, res.nodes) == (3, True, 4054) and res.verify()
        assert peak < 0.5 * 2**20, peak

    def test_so_char2_scaling_matches_closed_formula(self):
        # so:14 (8192 classes) and up were refused under the old monomial
        # cap; the values come from Korbaš's closed formula, not a search.
        for n in range(14, 25):
            A = so_ring(n, F2)
            for res in (cup_length(A), zcl_full(A)):
                assert (res.value, res.exact) == (korbas_cl(n), True), (n, res.method)
                assert res.verify(), (n, res.method)

    def test_so24_char2_in_little_memory(self):
        # 2^23 basis classes, a 2^46-class tensor square: nothing is listed.
        tracemalloc.start()
        try:
            A = so_ring(24, F2)
            cl, zf = cup_length(A), zcl_full(A)
            assert zf.verify()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cl.value == zf.value == korbas_cl(24) == 60
        assert peak < 64 * 2**20, peak

    def test_budget_exhaustion_is_flagged(self):
        for engine in (zcl_full, zcl_basic):
            res = engine(so_ring(5, F2), budget=3)
            assert not res.exact, engine.__name__
            assert res.value < 8 and res.verify(), engine.__name__
        res = zcl_full(surface_ring(2, QQ), budget=5)
        assert not res.exact and res.value <= 4 and res.verify()
        assert zcl_full(so_ring(5, F2), budget=0).value == 0

    def test_factor_route_shares_the_budget(self):
        # The two generator searches of so:5:char2 together need more nodes
        # than either alone; a budget covering only the first must not be
        # handed out again to the second.
        full = zcl_full(so_ring(5, F2))
        assert full.exact and full.value == 8
        res = zcl_full(so_ring(5, F2), budget=full.nodes - 1)
        assert not res.exact and res.verify()

    def test_point_is_zero(self):
        assert zcl_full(so_ring(1, QQ)).value == 0
        assert zcl_basic(so_ring(1, QQ)).value == 0

    def test_rp600_past_the_recursion_limit(self):
        # zcl(RP^n) over F2 is 2^k - 1 with 2^(k-1) <= n < 2^k: 1023 bars deep.
        res = zcl_full(rp_ring(600))
        assert (res.value, res.exact) == (1023, True)
        assert res.verify()


def embedded_witness_product(A: MonomialAlgebra, res):
    """Re-multiply a factored witness inside the full tensor square of A.

    Each part's witness lives in the square of a one-generator algebra;
    its classes are matched to A's basis by label, independently of how
    either encoding indexes its basis.
    """
    index = {label: k for k, label in enumerate(labels(A))}
    T = ProductAlgebra(A, A)
    product = T.basis_element(T.unit_index)
    for w in res.witness:
        P = w.algebra
        embedded = {}
        for k, c in w.coeffs.items():
            i, j = P.split_index(k)
            embedded[T.pair_index(index[P.left.label(i)], index[P.right.label(j)])] = c
        product = product * Element(T, embedded)
    return product


class TestFactorWitnesses:
    def test_embedded_witness_is_nonzero_in_the_full_square(self, entries):
        checked = 0
        for entry in entries:
            A = entry.algebra
            if not isinstance(A, MonomialAlgebra) or A.dim > 64:
                continue
            res = zcl_full(A)
            assert res.method == "factorization" and res.verify(), entry.entry_id
            assert len(res.parts) == len(A.gens), entry.entry_id
            product = embedded_witness_product(A, res)
            if res.value == 0:
                continue
            assert not product.is_zero, entry.entry_id
            assert product.degree() == sum(w.degree() for w in res.witness), entry.entry_id
            checked += 1
        assert checked == 39  # all but the point so:1, over both fields

    def test_factor_route_builds_no_square_of_the_ring(self, monkeypatch):
        built = []
        init = ProductAlgebra.__init__

        def recording(self, left, right):
            built.append((left, right))
            init(self, left, right)

        monkeypatch.setattr(ProductAlgebra, "__init__", recording)
        A = so_ring(8, F2)
        res = zcl_full(A)
        assert res.value == 12 and res.verify()
        assert len(built) == len(A.gens)
        for left, right in built:
            assert left is right and left is not A
            assert len(left.gens) == 1

    def test_tampered_part_fails_verification(self):
        res = zcl_full(so_ring(5, F2))
        assert res.verify() and [p.value for p in res.parts] == [7, 1]
        b1, b3 = res.parts

        def factored(parts, value=None):
            return CupLengthResult(
                sum(p.value for p in parts) if value is None else value,
                True,
                res.method,
                [w for p in parts for w in p.witness],
                parts=parts,
            )

        assert factored([b1, b3]).verify()
        # bar(b3)^2 = 0: the part claims a product that is zero.
        dead = CupLengthResult(2, True, b3.method, b3.witness * 2)
        assert not factored([b1, dead]).verify()
        # A part whose stated product is not its witness product.
        wrong = CupLengthResult(1, True, b3.method, b3.witness, b1.witness_product)
        assert not factored([b1, wrong]).verify()
        # Values that do not add up, and a witness that is not the parts'.
        assert not factored([b1, b3], value=9).verify()
        mixed = factored([b1, b3])
        mixed.witness = list(reversed(mixed.witness))
        assert not mixed.verify()

    def test_factored_witness_product_is_printed_per_part(self):
        d = zcl_full(so_ring(5, F2)).describe()
        assert d["witness_product"] == (
            "(1⊗b1^7 + b1⊗b1^6 + b1^2⊗b1^5 + b1^3⊗b1^4 + b1^4⊗b1^3"
            " + b1^5⊗b1^2 + b1^6⊗b1 + b1^7⊗1) * (1⊗b3 + b3⊗1)"
        )
        assert d["witness"] == ["1⊗b1 + b1⊗1"] * 7 + ["1⊗b3 + b3⊗1"]
        # One generator: the part's product, without parentheses.
        d = zcl_full(rp_ring(3)).describe()
        assert d["witness_product"] == "1⊗a^3 + a⊗a^2 + a^2⊗a + a^3⊗1"
        assert "witness_product" not in zcl_full(so_ring(1, F2)).describe()


def exhaustive_longest_product(T, elements):
    """First longest nonzero product of ``elements``, walking every node.

    A reference for the search's early stop at its degree bound: plain
    recursion in the same nondecreasing-index preorder, pruning only zero
    products and degrees above ``T.top_degree``.  Returns (factor indices,
    nodes).
    """
    vecs = [e.coeffs for e in elements]
    degs = [e.degree() for e in elements]
    best: list = []
    nodes = 0

    def extend(start, vec, deg, path):
        nonlocal best, nodes
        for t in range(start, len(elements)):
            if deg + degs[t] > T.top_degree:
                continue
            nodes += 1
            prod = T.mul_vec(vec, vecs[t])
            if prod:
                path.append(t)
                if len(path) > len(best):
                    best = list(path)
                extend(t, prod, deg + degs[t], path)
                path.pop()

    extend(0, {T.unit_index: 1}, 0, [])
    return best, nodes


class TestDegreeBoundStop:
    def test_same_value_and_witness_as_the_exhaustive_walk(self, small_entries):
        algebras = [e.algebra for e in small_entries] + [surface_ring(5, QQ)]
        fewer = 0
        for A in algebras:
            gens = A.generators()
            T = ProductAlgebra(A, A)
            for res, S, elements in (
                (searched_cl(A), A, [A.basis_element(i) for i in gens]),
                (zcl_basic(A), T, [bar(T, A.basis_element(i)) for i in gens]),
            ):
                best, nodes = exhaustive_longest_product(S, elements)
                assert res.exact and res.value == len(best), labels(A)
                assert [str(w) for w in res.witness] == [str(elements[t]) for t in best]
                assert res.nodes <= nodes
                fewer += res.nodes < nodes
        assert fewer  # the surfaces stop early


class TestChain:
    def test_chain_inequality_on_small_rings(self, small_entries):
        for entry in small_entries:
            A = entry.algebra
            cl = cup_length(A)
            zb = zcl_basic(A)
            zf = zcl_full(A)
            assert cl.exact and zb.exact and zf.exact, entry.entry_id
            assert cl.value <= zb.value <= zf.value, entry.entry_id


class TestWitnessContract:
    def test_every_result_verifies(self, small_entries):
        for entry in small_entries[:10]:
            for res in (
                cup_length(entry.algebra),
                zcl_basic(entry.algebra),
                zcl_full(entry.algebra),
            ):
                assert res.verify()
                assert len(res.witness) == res.value

    def test_verify_rejects_tampering(self):
        res = cup_length(rp_ring(3))
        assert res.verify()
        broken = CupLengthResult(
            value=res.value,
            exact=res.exact,
            method=res.method,
            witness=res.witness[:-1],
            witness_product=res.witness_product,
        )
        assert not broken.verify()
        wrong_product = CupLengthResult(
            value=res.value,
            exact=res.exact,
            method=res.method,
            witness=res.witness,
            witness_product=res.witness[0],
        )
        assert not wrong_product.verify()

    def test_each_factor_part_is_verified_once(self, monkeypatch):
        calls = Counter()
        verify = CupLengthResult.verify

        def counted(res):
            calls[id(res)] += 1
            return verify(res)

        monkeypatch.setattr(CupLengthResult, "verify", counted)
        res = zcl_full(so_ring(12, F2))
        assert len(res.parts) == 6
        assert [calls[id(p)] for p in res.parts] == [1] * 6
        assert calls[id(res)] == 1

    @pytest.mark.parametrize(
        "entry, A",
        [
            (cup_length, rp_ring(3)),
            (cup_length, surface_ring(2, F2)),
            (zcl_basic, rp_ring(3)),
            (zcl_full, rp_ring(3)),
            (zcl_full, surface_ring(2, F2)),
        ],
        ids=["cl-monomial", "cl-table", "zcl-basic", "zcl-full-monomial", "zcl-full-table"],
    )
    def test_tampered_witness_raises_from_each_entry(self, monkeypatch, entry, A):
        class Overclaimed(CupLengthResult):
            """Claims one factor more than its witness has."""

            def __init__(self, value, *args, **kwargs):
                super().__init__(value + 1, *args, **kwargs)

        monkeypatch.setattr(cuplength, "CupLengthResult", Overclaimed)
        with pytest.raises(AssertionError, match="witness failed re-multiplication"):
            entry(A)

    def test_verify_rejects_zero_product(self):
        A = rp_ring(3)
        a = A.generator_element("a")
        dead = CupLengthResult(2, True, "search", [a * a, a * a])
        assert not dead.verify()

    def test_describe_formats_each_distinct_factor_once(self, monkeypatch):
        # The closed-form witness of cl(SO(12); F2) repeats one element per
        # generator: 24 factors, 6 distinct.  Each distinct factor and the
        # product are formatted once, one label each.
        res = cup_length(so_ring(12, F2))
        assert (len(res.witness), len({id(w) for w in res.witness})) == (24, 6)
        calls = []
        label = MonomialAlgebra.label

        def counted(A, k):
            calls.append(k)
            return label(A, k)

        monkeypatch.setattr(MonomialAlgebra, "label", counted)
        d = res.describe()
        assert len(calls) == 7
        assert d["witness"] == [str(w) for w in res.witness]

    def test_describe_shape(self):
        d = cup_length(rp_ring(3)).describe()
        assert d["value"] == 3
        assert d["exact"] is True
        assert d["method"] == "closed-form"
        assert d["witness"] == ["a", "a", "a"]
        assert d["witness_product"] == "a^3"

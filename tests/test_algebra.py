"""Algebra encodings: monomial, table, tensor product; axioms and JSON forms."""

import copy
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from frametc.algebra import (
    Algebra,
    CapacityError,
    DomainMismatchError,
    Element,
    GeneratorSpec,
    InvalidPresentationError,
    MonomialAlgebra,
    ProductAlgebra,
)
from frametc.catalog import catalog_ring, rp_ring, so_ring, surface_ring, torus_ring
from frametc.cuplength import cup_length, zcl_basic, zcl_full
from frametc.fields import F2, QQ
from frametc.table import TableAlgebra, ring_from_json
from helpers import degrees, labels, negated, ring_to_json, tensor
from oracle import _tmul
from test_reencoding import SEEDS, SOURCES, reencode


def exterior_pair(field=QQ):
    return MonomialAlgebra(
        field, [GeneratorSpec("a", 1), GeneratorSpec("b", 1)]
    )


def table_from(algebra) -> TableAlgebra:
    """Re-encode any algebra as an explicit structure-constant table."""
    unit = algebra.unit_index
    products = {}
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            if unit in (i, j):
                continue
            terms = algebra.mul_basis(i, j)
            if terms:
                products[(i, j)] = terms
    return TableAlgebra(
        algebra.field, labels(algebra), degrees(algebra), products
    )


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(InvalidPresentationError):
            GeneratorSpec("", 1)
        with pytest.raises(InvalidPresentationError):
            GeneratorSpec("a", 0)
        with pytest.raises(InvalidPresentationError):
            GeneratorSpec("a", 1, truncation=1)

    def test_fields_and_default_truncation(self):
        spec = GeneratorSpec("a", 2, 3)
        assert (spec.name, spec.degree, spec.truncation) == ("a", 2, 3)
        assert GeneratorSpec("a", 1).truncation == 2


class TestMonomialAlgebra:
    def test_basis_order_is_lexicographic(self):
        A = torus_ring(2, QQ)
        assert A.strides == (2, 1)  # exponent vectors (0,0), (0,1), (1,0), (1,1)
        assert labels(A) == ["1", "u2", "u1", "u1·u2"]
        assert degrees(A) == [0, 1, 1, 2]
        assert A.degree(A.unit_index) == 0

    def test_strides_and_dim_are_products_of_truncations(self):
        # Generator t sits at the product of the truncations after it.
        A = MonomialAlgebra(F2, [GeneratorSpec("a", 1, 2), GeneratorSpec("b", 2, 3),
                                 GeneratorSpec("c", 4, 5)])
        assert A.strides == (15, 5, 1)
        assert A.dim == 30 and A.label(29) == "a·b^2·c^4" and A.degree(29) == 1 + 4 + 16
        assert MonomialAlgebra(F2, []).dim == 1  # the point

    def test_index_arithmetic_matches_exponent_table(self, entries):
        # The reference is the exponent table MonomialAlgebra used to build:
        # every exponent vector in lexicographic order, with the Koszul sign
        # counted pair by pair.
        checked = 0
        for entry in entries:
            A = entry.algebra
            if not isinstance(A, MonomialAlgebra) or A.dim > 64:
                continue
            exps = list(itertools.product(*(range(g.truncation) for g in A.gens)))
            index_of = {e: i for i, e in enumerate(exps)}
            odd = [g.degree % 2 == 1 for g in A.gens]
            assert degrees(A) == [sum(e * g.degree for e, g in zip(x, A.gens)) for x in exps]
            assert labels(A) == [
                "·".join(g.name if e == 1 else f"{g.name}^{e}" for e, g in zip(x, A.gens) if e)
                or "1"
                for x in exps
            ]
            assert A.top_degree == max(degrees(A)) and A.unit_index == index_of[exps[0]]
            for i, e in enumerate(exps):
                for j, f in enumerate(exps):
                    s = tuple(a + b for a, b in zip(e, f))
                    if any(t >= g.truncation for t, g in zip(s, A.gens)):
                        assert A.mul_basis(i, j) == {}, (entry.entry_id, e, f)
                        continue
                    sign = sum(
                        f[a] * e[b]
                        for a in range(len(e))
                        for b in range(a + 1, len(e))
                        if odd[a] and odd[b]
                    )
                    expected = {index_of[s]: A.field.sign_to_coeff(sign)}
                    assert A.mul_basis(i, j) == expected, (entry.entry_id, e, f)
            checked += 1
        assert checked == 41

    def test_dim_is_product_of_truncations(self):
        A = MonomialAlgebra(
            F2, [GeneratorSpec("x", 1, 4), GeneratorSpec("y", 3, 2)]
        )
        assert A.dim == 8
        assert A.top_degree == 3 * 1 + 3

    def test_power_labels(self):
        A = rp_ring(3)
        assert labels(A) == ["1", "a", "a^2", "a^3"]

    def test_odd_generator_squares_to_zero(self):
        A = exterior_pair()
        a = A.generator_element("a")
        assert (a * a).is_zero

    def test_anticommutativity_in_char_zero(self):
        A = exterior_pair()
        a, b = A.generator_element("a"), A.generator_element("b")
        assert b * a == negated(a * b)
        assert not (a * b).is_zero

    def test_commutativity_in_char_two(self):
        A = exterior_pair(F2)
        a, b = A.generator_element("a"), A.generator_element("b")
        assert b * a == a * b

    def test_even_degree_commutes_over_q(self):
        A = MonomialAlgebra(
            QQ, [GeneratorSpec("u", 2, 3), GeneratorSpec("v", 2, 3)]
        )
        u, v = A.generator_element("u"), A.generator_element("v")
        assert u * v == v * u

    def test_koszul_sign_on_higher_powers(self):
        # In F[x]/(x^4) with |x| = 1 over characteristic 2, x^2 * x^2 = x^4 = 0
        # and x * x^2 = x^3.
        A = MonomialAlgebra(F2, [GeneratorSpec("x", 1, 4)])
        x = A.generator_element("x")
        x2 = x * x
        assert not x2.is_zero
        assert (x2 * x2).is_zero
        assert (x * x2) == A.basis_element(3)

    def test_truncation_rule_odd_degree_odd_char(self):
        with pytest.raises(InvalidPresentationError):
            MonomialAlgebra(QQ, [GeneratorSpec("a", 1, 3)])
        # fine over characteristic 2
        MonomialAlgebra(F2, [GeneratorSpec("a", 1, 3)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidPresentationError):
            MonomialAlgebra(QQ, [GeneratorSpec("a", 2), GeneratorSpec("a", 4)])

    def test_capacity(self):
        # Monomial rings store nothing per basis class and take no cap; the
        # same ring as a table lists its basis and is refused.
        A = MonomialAlgebra(F2, [GeneratorSpec("x", 1, 100)])
        assert A.dim == 100 and A.label(99) == "x^99"
        with pytest.raises(CapacityError):
            TableAlgebra(F2, labels(A), degrees(A), {}, capacity=50)
        assert table_from(A).dim == 100  # under the default cap

    def test_generator_element_unknown(self):
        with pytest.raises(KeyError):
            torus_ring(2, QQ).generator_element("nope")

    def test_axioms_hold(self):
        # check_axioms validates a stored table; other encodings take the
        # exhaustive reference.
        reference_check_axioms(torus_ring(3, QQ))
        reference_check_axioms(so_ring(5, F2))


class TestElement:
    def test_zero_coefficients_dropped(self):
        A = torus_ring(2, QQ)
        x = Element(A, {1: 0, 2: 3})
        assert x.coeffs == {2: 3}
        assert Element(A, {1: 0}).is_zero
        assert Element(A, {1: 0}).coeffs == {}

    def test_float_scalar_rejected(self):
        A = torus_ring(2, QQ)
        with pytest.raises(TypeError):
            Element(A, {1: 0.25})

    def test_degree(self):
        A = torus_ring(2, QQ)
        assert Element(A, {1: 1, 2: 1}).degree() == 1  # u2 + u1
        assert Element(A, {}).degree() is None
        with pytest.raises(ValueError):
            Element(A, {A.unit_index: 1, 2: 1}).degree()  # 1 + u1

    def test_cross_algebra_rejected(self):
        A, B = torus_ring(2, QQ), torus_ring(2, QQ)
        with pytest.raises(DomainMismatchError):
            A.generator_element("u1") * B.generator_element("u1")

    def test_str_formats(self):
        A = torus_ring(2, QQ)
        assert str(Element(A, {1: 2, 2: 1})) == "2·u2 + u1"
        assert str(Element(A, {1: 1, 2: -1})) == "u2 - u1"
        assert str(Element(A, {})) == "0"
        assert str(A.basis_element(A.unit_index)) == "1"
        assert str(Element(A, {2: -1})) == "-u1"

    def test_one_is_multiplicative_unit(self):
        A = so_ring(4, QQ)
        one = A.basis_element(A.unit_index)
        for i in range(A.dim):
            e = A.basis_element(i)
            assert one * e == e
            assert e * one == e


class TestTableAlgebra:
    def test_surface_matches_its_table(self):
        A = surface_ring(2, QQ)
        a1, b1 = A.basis_element(1), A.basis_element(3)
        w = A.basis_element(5)
        assert a1 * b1 == w
        assert b1 * a1 == negated(w)
        assert (a1 * A.basis_element(4)).is_zero  # a1 * b2 = 0
        assert (w * a1).is_zero

    @pytest.mark.parametrize("ring_id", ["sigma:3:char0", "t:3:char2", "rp:3:char2"])
    def test_reads_leave_the_stored_table_alone(self, ring_id):
        # mul_basis hands out the stored dicts; validation and the searches
        # only read them.
        A = reencode(catalog_ring(ring_id)[1], seed=0)
        before = copy.deepcopy(A._table)
        A.check_axioms()
        cup_length(A)
        zcl_full(A)
        zcl_basic(A)
        assert A._table == before
        assert A.mul_basis(A.dim - 1, A.dim - 1) == {}  # the shared empty product

    def test_construction_looks_up_no_pair_the_table_leaves_out(self, monkeypatch):
        # Genus 300 has 602 classes and 600 stored products; a pass over
        # every basis pair would look up some 180,000 of them.
        calls = []
        lookup = TableAlgebra.mul_basis

        def counted(self, i, j):
            calls.append((i, j))
            return lookup(self, i, j)

        monkeypatch.setattr(TableAlgebra, "mul_basis", counted)
        A = surface_ring(300, QQ)
        assert len(calls) <= len(A._table)

    def test_unit_products_implied(self):
        A = surface_ring(1, F2)
        for i in range(A.dim):
            assert A.mul_basis(A.unit_index, i) == {i: 1}
            assert A.mul_basis(i, A.unit_index) == {i: 1}

    def test_exactly_one_unit_required(self):
        # Two units: refused as such, before the check on the name "1".
        with pytest.raises(InvalidPresentationError, match="exactly one degree-0"):
            TableAlgebra(QQ, ["1", "e"], [0, 0], {})
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(QQ, ["x"], [2], {})

    def test_grading_violation_caught(self):
        # x has degree 2 but x*x is declared in degree 2 instead of 4.
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(QQ, ["1", "x"], [0, 2], {(1, 1): {1: 1}})

    def test_commutativity_violation_caught(self):
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(
                QQ,
                ["1", "x", "y", "z"],
                [0, 2, 2, 4],
                {(1, 2): {3: 1}, (2, 1): {3: 2}},
            )

    def test_anticommutativity_enforced_for_odd_degrees(self):
        # a*b = w and b*a = w violates graded commutativity over Q ...
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(
                QQ, ["1", "a", "b", "w"], [0, 1, 1, 2],
                {(1, 2): {3: 1}, (2, 1): {3: 1}},
            )
        # ... but is exactly right over F2.
        TableAlgebra(
            F2, ["1", "a", "b", "w"], [0, 1, 1, 2],
            {(1, 2): {3: 1}, (2, 1): {3: 1}},
        )

    def test_bad_unit_row_rejected(self):
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(QQ, ["1", "x"], [0, 2], {(0, 1): {1: 2}})

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidPresentationError):
            TableAlgebra(QQ, ["1", "x", "x"], [0, 2, 4], {})

    def test_monomial_and_table_encodings_multiply_identically(self):
        for A in (rp_ring(3), torus_ring(3, QQ), so_ring(4, F2)):
            T = table_from(A)
            for i in range(A.dim):
                for j in range(A.dim):
                    assert A.mul_basis(i, j) == T.mul_basis(i, j)


class TestTensor:
    def test_product_algebra_koszul_sign(self):
        A = torus_ring(1, QQ)
        T = ProductAlgebra(A, A)
        left = Element(T, {T.pair_index(1, 0): 1})   # u (x) 1
        right = Element(T, {T.pair_index(0, 1): 1})  # 1 (x) u
        # (1 (x) u)(u (x) 1) = -(u (x) u); (u (x) 1)(1 (x) u) = +(u (x) u)
        uu = Element(T, {T.pair_index(1, 1): 1})
        assert left * right == uu
        assert right * left == negated(uu)

    def test_pair_and_split_index_round_trip(self):
        A = torus_ring(2, QQ)
        T = ProductAlgebra(A, A)
        for k in range(T.dim):
            i, j = T.split_index(k)
            assert T.pair_index(i, j) == k

    def test_monomial_tensor_stays_monomial_with_primed_names(self):
        A = torus_ring(1, QQ)
        AB = tensor(A, A)
        assert isinstance(AB, MonomialAlgebra)
        assert [g.name for g in AB.gens] == ["u1", "u1'"]
        assert AB.dim == 4

    def test_table_tensor_is_product_algebra(self):
        S = surface_ring(1, F2)
        P = tensor(S, S)
        assert isinstance(P, ProductAlgebra)
        assert P.dim == S.dim * S.dim

    def test_poincare_polynomial_multiplies(self):
        A, B = rp_ring(2), so_ring(3, F2)
        pa, pb = A.poincare_polynomial(), B.poincare_polynomial()
        expected = [0] * (len(pa) + len(pb) - 1)
        for i, ca in enumerate(pa):
            for j, cb in enumerate(pb):
                expected[i + j] += ca * cb
        assert tensor(A, B).poincare_polynomial() == expected

    def test_field_mismatch_rejected(self):
        with pytest.raises(DomainMismatchError):
            tensor(torus_ring(1, QQ), torus_ring(1, F2))

    def test_capacity(self):
        # Tensor products are lazy and take no cap; the cap stays on the
        # table factor, which lists its basis.
        S = surface_ring(2, F2, capacity=6)
        assert ProductAlgebra(S, S).dim == 36 and tensor(S, S).dim == 36
        SO = so_ring(24, F2)
        assert ProductAlgebra(SO, SO).dim == 2**46
        with pytest.raises(CapacityError):
            surface_ring(2, F2, capacity=5)

    def test_tensor_square_axioms(self):
        for A in (surface_ring(1, F2), torus_ring(2, QQ)):
            reference_check_axioms(ProductAlgebra(A, A))

    def test_lazy_degrees_and_labels_match_eager_lists(self, small_entries):
        # The eager comprehensions are the lists ProductAlgebra used to build.
        kinds = set()
        for a in small_entries:
            for b in small_entries:
                A, B = a.algebra, b.algebra
                if A.field != B.field:
                    continue
                kinds.add((type(A).__name__, type(B).__name__))
                P = ProductAlgebra(A, B)
                pairs = [(i, j) for i in range(A.dim) for j in range(B.dim)]
                eager_degrees = [A.degree(i) + B.degree(j) for i, j in pairs]
                eager_labels = [f"{A.label(i)}⊗{B.label(j)}" for i, j in pairs]
                assert P.dim == len(pairs)
                assert degrees(P) == eager_degrees
                assert labels(P) == eager_labels
                assert P.top_degree == max(eager_degrees)
                poincare = [eager_degrees.count(d) for d in range(P.top_degree + 1)]
                assert P.poincare_polynomial() == poincare
                assert tensor(A, B).poincare_polynomial() == poincare
        both = ("MonomialAlgebra", "TableAlgebra")
        assert {(x, y) for x in both for y in both} <= kinds


class CachedProduct(ProductAlgebra):
    """Reference: the per-pair cached route ProductAlgebra used to take.

    Each basis pair's constants are computed once from the factors, stored
    behind an ``lru_cache`` and copied out; vectors multiply through the
    generic ``Algebra.mul_vec``.
    """

    mul_vec = Algebra.mul_vec

    def __init__(self, left, right):
        super().__init__(left, right)
        self._mul_cached = lru_cache(maxsize=1 << 18)(self._mul_uncached)

    def _mul_uncached(self, x, y):
        f = self.field
        i1, j1 = self.split_index(x)
        i2, j2 = self.split_index(y)
        sign = f.sign_to_coeff(self.right.degree(j1) * self.left.degree(i2))
        out = {}
        lterms = self.left.mul_basis(i1, i2)
        if lterms:
            rterms = self.right.mul_basis(j1, j2)
            for k, ca in lterms.items():
                for l, cb in rterms.items():
                    out[self.pair_index(k, l)] = f.mul(sign, f.mul(ca, cb))
        return tuple(out.items())

    def mul_basis(self, i, j):
        return dict(self._mul_cached(i, j))


def random_vector(rng, P, terms):
    """Seeded sparse vector of P: unit coefficients, signs and fractions."""
    f = P.field
    coeffs = [1, -1, 2, Fraction(1, 3), Fraction(-5, 2)] if f.characteristic == 0 else [1, 2, 3]
    vec = {}
    for _ in range(terms):
        c = f.coerce(rng.choice(coeffs))
        if c:
            vec[rng.randrange(P.dim)] = c
    return vec


class TestProductKernel:
    """ProductAlgebra's factor-by-factor products against two references:
    the cached route it replaced (same values in the same order) and the
    oracle's own (i, j)-pair arithmetic ``_tmul`` (tensor squares only)."""

    @staticmethod
    def check_vectors(P, rng, count=60):
        ref = CachedProduct(P.left, P.right)
        square = P.left is P.right
        p = P.field.characteristic
        bars = [
            {P.pair_index(P.left.unit_index, i): 1,
             P.pair_index(i, P.left.unit_index): P.field.neg(1)}
            for i in range(P.left.dim) if square and P.left.degree(i) > 0
        ]
        for n in range(count):
            u = random_vector(rng, P, rng.randrange(1, 7))
            v = bars[n % len(bars)] if bars and n % 2 else random_vector(rng, P, rng.randrange(1, 4))
            got = P.mul_vec(u, v)
            assert list(got.items()) == list(ref.mul_vec(u, v).items()), (u, v)
            if square:
                want = _tmul(P.left, _as_pairs(P, u), _as_pairs(P, v), p)
                assert _as_pairs(P, got) == want, (u, v)

    @staticmethod
    def check_basis(P, rng, limit=4096):
        """mul_basis on every pair (a seeded sample above ``limit``); returns
        the number of nonzero products that took the Koszul sign."""
        ref = CachedProduct(P.left, P.right)
        n = P.dim
        if n * n <= limit:
            pairs = list(itertools.product(range(n), repeat=2))
        else:
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(limit)]
        signed = 0
        for x, y in pairs:
            got = P.mul_basis(x, y)
            assert list(got.items()) == list(ref.mul_basis(x, y).items()), (x, y)
            if P.left is P.right:
                want = _tmul(P.left, {P.split_index(x): 1}, {P.split_index(y): 1},
                             P.field.characteristic)
                assert _as_pairs(P, got) == want, (x, y)
            (_, j1), (i2, _) = P.split_index(x), P.split_index(y)
            signed += bool(got) and P.right.degree(j1) * P.left.degree(i2) % 2
        return signed

    def test_squares_of_small_catalog_rings(self, small_entries):
        rng = random.Random(0)
        signed = {}
        for e in small_entries:
            T = ProductAlgebra(e.algebra, e.algebra)
            p = T.field.characteristic
            signed[p] = signed.get(p, 0) + self.check_basis(T, rng)
            self.check_vectors(T, rng)
        # Both fields, and odd-degree pairs whose sign is -1 over Q.
        assert signed.keys() == {0, 2} and signed[0] > 0 and signed[2] > 0

    def test_squares_of_reencoded_tables(self):
        rng = random.Random(1)
        for source in SOURCES:
            for seed in SEEDS:
                A = reencode(catalog_ring(source)[1], seed)
                T = ProductAlgebra(A, A)
                self.check_basis(T, rng, limit=1024)
                self.check_vectors(T, rng)

    @pytest.mark.parametrize("field", [QQ, F2])
    def test_table_times_monomial(self, field):
        rng = random.Random(2)
        table, monomial = surface_ring(2, field), so_ring(5, field)
        assert isinstance(monomial, MonomialAlgebra)
        for P in (tensor(table, monomial), tensor(monomial, table)):
            assert isinstance(P, ProductAlgebra) and P.left is not P.right
            assert self.check_basis(P, rng) > 0
            self.check_vectors(P, rng, count=200)

    def test_unit_and_empty_vectors(self):
        A = surface_ring(1, QQ)
        T = ProductAlgebra(A, A)
        u = random_vector(random.Random(3), T, 5)
        one = {T.unit_index: 1}
        assert T.mul_vec(one, u) == u == T.mul_vec(u, one)
        assert T.mul_vec(u, {}) == {} == T.mul_vec({}, u)


def _as_pairs(P, vec):
    return {P.split_index(k): c for k, c in vec.items()}


class TestRingJson:
    def test_monomial_round_trip(self):
        A = so_ring(5, F2)
        B = ring_from_json(ring_to_json(A))
        assert labels(B) == labels(A) and degrees(B) == degrees(A)
        assert all(
            A.mul_basis(i, j) == B.mul_basis(i, j)
            for i in range(A.dim)
            for j in range(A.dim)
        )

    def test_table_round_trip(self):
        A = surface_ring(2, QQ)
        B = ring_from_json(ring_to_json(A))
        assert labels(B) == labels(A) and degrees(B) == degrees(A)
        assert all(
            A.mul_basis(i, j) == B.mul_basis(i, j)
            for i in range(A.dim)
            for j in range(A.dim)
        )

    def test_fractional_coefficients_round_trip_as_strings(self):
        A = TableAlgebra(
            QQ, ["1", "x", "z"], [0, 2, 4], {(1, 1): {2: Fraction(1, 2)}}
        )
        js = ring_to_json(A)
        assert js["products"] == [["x", "x", "z", "1/2"]]
        B = ring_from_json(js)
        assert B.mul_basis(1, 1) == {2: Fraction(1, 2)}

    def test_integral_fraction_strings_are_stored_as_ints(self):
        js = {
            "field": {"char": 0},
            "type": "table",
            "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                      {"name": "z", "degree": 4}],
            "products": [["x", "x", "z", "4/2"]],
        }
        c = ring_from_json(js).mul_basis(1, 1)[2]
        assert c == 2 and type(c) is int

    @pytest.mark.parametrize(
        "char, text, stored",
        [(0, "1/2", Fraction(1, 2)), (0, "2/1", 2), (3, "1/2", 2)],
    )
    def test_fraction_string_constants(self, char, text, stored):
        # Over Q a non-integral constant stays a Fraction and an integral one
        # becomes an int; over F_3, 1/2 is the inverse of 2, which is 2.
        js = {
            "field": {"char": char},
            "type": "table",
            "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                      {"name": "z", "degree": 4}],
            "products": [["x", "x", "z", text]],
        }
        c = ring_from_json(js).mul_basis(1, 1)[2]
        assert c == stored and type(c) is type(stored)

    def test_integral_sums_of_fraction_rows_are_stored_as_ints(self):
        js = {
            "field": {"char": 0},
            "type": "table",
            "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 2},
                      {"name": "z", "degree": 4}],
            "products": [["x", "x", "z", "1/2"], ["x", "x", "z", "1/2"]],
        }
        c = ring_from_json(js).mul_basis(1, 1)[2]
        assert c == 1 and type(c) is int

    def test_field_override_must_match(self):
        js = ring_to_json(rp_ring(3))
        with pytest.raises(DomainMismatchError):
            ring_from_json(js, field=QQ)
        assert ring_from_json(js, field=F2).dim == 4

    def test_errors(self):
        with pytest.raises(InvalidPresentationError):
            ring_from_json([])
        with pytest.raises(InvalidPresentationError):
            ring_from_json({"type": "monomial"})  # no field
        with pytest.raises(InvalidPresentationError):
            ring_from_json({"field": {"char": 2}, "type": "weird"})
        with pytest.raises(InvalidPresentationError):
            ring_from_json(
                {
                    "field": {"char": 0},
                    "type": "table",
                    "basis": [{"name": "1", "degree": 0}],
                    "products": [["1", "1", "1"]],
                }
            )
        with pytest.raises(InvalidPresentationError):
            ring_from_json(
                {
                    "field": {"char": 0},
                    "type": "table",
                    "basis": [{"name": "1", "degree": 0}],
                    "products": [["ghost", "1", "1", 1]],
                }
            )

    def test_bad_coefficient_encoding(self):
        with pytest.raises(InvalidPresentationError):
            ring_from_json(
                {
                    "field": {"char": 0},
                    "type": "table",
                    "basis": [
                        {"name": "1", "degree": 0},
                        {"name": "x", "degree": 2},
                        {"name": "z", "degree": 4},
                    ],
                    "products": [["x", "x", "z", 0.5]],
                }
            )


def reference_check_axioms(A) -> None:
    """The axiom check by definition, at every size.

    An independent reference: every basis pair and every basis triple, the
    unit and degree-settled ones included, is multiplied out on both sides.
    """
    reference_pair_axioms(A)
    for i, j, k in itertools.product(range(A.dim), repeat=3):
        if not associates(A, i, j, k):
            raise InvalidPresentationError(
                f"associativity fails on {A.label(i)}, {A.label(j)}, {A.label(k)}"
            )


def reference_pair_axioms(A) -> None:
    """Unit, grading and graded commutativity, on every basis pair."""
    f = A.field
    n = A.dim
    if A.degree(A.unit_index) != 0:
        raise InvalidPresentationError("unit must have degree 0")
    for i in range(n):
        if A.mul_basis(A.unit_index, i) != {i: 1} or A.mul_basis(
            i, A.unit_index
        ) != {i: 1}:
            raise InvalidPresentationError(f"unit fails on basis class {A.label(i)}")
    for i in range(n):
        for j in range(n):
            prod_ij = A.mul_basis(i, j)
            d = A.degree(i) + A.degree(j)
            for k in prod_ij:
                if A.degree(k) != d:
                    raise InvalidPresentationError(
                        f"product {A.label(i)}·{A.label(j)} violates grading"
                    )
            sign = f.sign_to_coeff(A.degree(i) * A.degree(j))
            expect = {k: f.mul(sign, c) for k, c in A.mul_basis(j, i).items()}
            if prod_ij != expect:
                raise InvalidPresentationError(
                    f"graded commutativity fails on {A.label(i)}, {A.label(j)}"
                )


def associates(A, i, j, k) -> bool:
    """(i·j)·k = i·(j·k) for basis classes i, j, k."""
    return A.mul_vec(A.mul_basis(i, j), {k: 1}) == A.mul_vec({i: 1}, A.mul_basis(j, k))


class UncheckedTable(TableAlgebra):
    """A table algebra whose constructor leaves the axioms unchecked."""

    def check_axioms(self) -> None:
        pass


def unchecked(A, table=None) -> UncheckedTable:
    """Copy of table algebra A, optionally with other structure constants."""
    return UncheckedTable(
        A.field, labels(A), degrees(A), A._table if table is None else table
    )


def outcome(check, A):
    """None if ``check(A)`` passes, else the message it raises."""
    try:
        check(A)
    except InvalidPresentationError as exc:
        return str(exc)
    return None


def assert_same_verdict(A) -> None:
    """check_axioms refuses A exactly when the reference does, for the same reason.

    Unit, grading and commutativity messages match word for word.  An
    associativity message may name another triple than the reference's
    first, but that triple must fail under the reference multiplication.
    """
    got = outcome(TableAlgebra.check_axioms, A)
    prefix = "associativity fails on "
    if got is None or not got.startswith(prefix):
        assert got == outcome(reference_check_axioms, A)
        return
    # The reference passes the pairs and then meets a failing triple, this
    # one or an earlier one: it refuses A too.
    assert outcome(reference_pair_axioms, A) is None
    index = {label: i for i, label in enumerate(labels(A))}
    i, j, k = (index[label] for label in got[len(prefix):].split(", "))
    assert not associates(A, i, j, k), got


def perturbed(A, count: int, seed: int):
    """Copies of table A, each with one structure constant c_ij^k raised by 1.

    k is a class of degree |i| + |j| and c_ji^k moves by the graded sign with
    it, so most copies pass the grading and commutativity checks and reach
    associativity.
    """
    rng = random.Random(seed)
    f = A.field
    by_degree = A.indices_by_degree()
    pos = [i for i in range(A.dim) if A.degree(i) > 0]
    slots = [
        (i, j, k)
        for i in pos
        for j in pos
        for k in by_degree.get(A.degree(i) + A.degree(j), [])
    ]
    for i, j, k in rng.sample(slots, min(count, len(slots))):
        table = {key: dict(terms) for key, terms in A._table.items()}
        sign = f.sign_to_coeff(A.degree(i) * A.degree(j))
        for key, step in {(j, i): sign, (i, j): 1}.items():
            terms = table.setdefault(key, {})
            terms[k] = f.add(terms.get(k, 0), step)
        yield unchecked(A, table)


def nonassociative(width: int):
    """x·y_t = u and u·z = v but y_t·z = 0, so (x·y_t)·z = v and x·(y_t·z) = 0.

    Every class has even degree and every product is listed both ways, so
    the table is unital, graded and graded commutative over any field; v
    fills degree 6, the degree of the failing triples.
    """
    names = ["1", "x"] + [f"y{t}" for t in range(width)] + ["z", "u", "v"]
    degrees = [0] + [2] * (width + 2) + [4, 6]
    x, z, u, v = 1, width + 2, width + 3, width + 4
    products = {(u, z): {v: 1}, (z, u): {v: 1}}
    for y in range(2, width + 2):
        products[(x, y)] = products[(y, x)] = {u: 1}
    return names, degrees, products


class TestAxiomChecker:
    def test_all_catalog_rings_pass(self, small_entries):
        for entry in small_entries:
            reference_check_axioms(entry.algebra)

    @pytest.mark.parametrize("field", [QQ, F2])
    @pytest.mark.parametrize("width", [1, 30])
    def test_associativity_failure_raises(self, field, width):
        # width 30 gives 35 classes.  The first failing generator triple,
        # (x, y0, z), is also the reference's first offender.
        names, degrees, products = nonassociative(width)
        with pytest.raises(InvalidPresentationError, match="associativity fails on") as exc:
            TableAlgebra(field, names, degrees, products)
        A = UncheckedTable(field, names, degrees, products)
        assert str(exc.value) == outcome(reference_check_axioms, A)

    def test_skipped_triples_change_no_outcome(self):
        tables = [catalog_ring(f"sigma:{g}:char{p}")[1] for g in (1, 2, 3) for p in (0, 2)]
        tables += [reencode(catalog_ring(r)[1], seed) for r in SOURCES for seed in SEEDS]
        tables.append(table_from(torus_ring(6, QQ)))  # 64 classes
        outcomes = []
        for t, A in enumerate(tables):
            for B in [unchecked(A), *perturbed(A, 6, t)]:
                assert_same_verdict(B)
                outcomes.append(outcome(TableAlgebra.check_axioms, B))
        # The perturbed copies reach every kind of outcome.
        assert None in outcomes
        for kind in ("graded commutativity", "associativity"):
            assert any(o and o.startswith(kind) for o in outcomes), kind

    def test_perturbed_so7_tables_are_refused(self):
        # H*(SO(7); F2) as a 64-class table, with one product x·y = y·x moved
        # by a class of its degree: grading and commutativity still hold, and
        # every copy is non-associative.  A check of 2,048 seeded random
        # triples let 29 of these 40 through.
        A = table_from(so_ring(7, F2))
        assert A.dim == 64
        copies = list(perturbed(A, 40, 0))
        assert len(copies) == 40
        for B in copies:
            assert outcome(TableAlgebra.check_axioms, B).startswith("associativity fails on ")
            assert_same_verdict(B)

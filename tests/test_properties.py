"""Randomized and exhaustive structural checks over the whole ring catalog.

Two layers:

* randomized: hypothesis draws rings, degrees, and coefficient vectors and
  checks the algebraic laws on them.  ``CASE_BUDGETS`` fixes how many examples
  each law gets; the totals are part of the package's acceptance surface.
* exhaustive: the identities that admit a finite, affordable enumeration
  (the bar-square expansion on every basis class of every catalog ring, the
  invariant chain on every ring, tensor additivity on every small pair) are
  additionally checked on every instance, not just sampled ones.  The
  generator-bar search on joint rings of dimension <= 12 is also checked
  against the independent dense kernel-power oracle, since additivity alone
  compares the search with itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalog_entries
from frametc.algebra import Element
from frametc.cuplength import cup_length, zcl_basic, zcl_full
from helpers import degrees, labels, negated, tensor
from oracle import brute_force_cl
from zero_divisors import zero_divisor_generators

# How many randomized examples each law receives.  Edit here, nowhere else;
# the acceptance gate asserts the total stays at or above one thousand.
CASE_BUDGETS = {
    "graded_commutativity": 250,
    "associativity": 250,
    "bar_square_identity": 150,
    "kunneth_poincare": 100,
    "invariant_chain": 100,
    "tensor_additivity": 100,
    "encoding_agreement": 50,
    "element_arithmetic": 100,
}

ENTRIES = catalog_entries()
BY_ID = {e.entry_id: e for e in ENTRIES}
SMALL_IDS = [e.entry_id for e in ENTRIES if e.algebra.dim <= 16]
ALL_IDS = [e.entry_id for e in ENTRIES]
# Rings with at least one positive-degree class, i.e. at least one bar.
BAR_IDS = [e.entry_id for e in ENTRIES if e.algebra.dim > 1]

# Same-field pairs whose tensor square stays within 256 dimensions.
ADDITIVE_PAIRS = [
    (a.entry_id, b.entry_id)
    for i, a in enumerate(ENTRIES)
    for b in ENTRIES[i:]
    if a.algebra.field is b.algebra.field and a.algebra.dim * b.algebra.dim <= 16
]

# Additive pairs whose joint ring is small enough for the dense oracle.
ORACLE_PAIRS = [
    (id_a, id_b)
    for id_a, id_b in ADDITIVE_PAIRS
    if BY_ID[id_a].algebra.dim * BY_ID[id_b].algebra.dim <= 12
]

# Small same-field pairs for the Poincaré product check.
KUNNETH_PAIRS = [
    (a.entry_id, b.entry_id)
    for i, a in enumerate(ENTRIES)
    for b in ENTRIES[i:]
    if a.algebra.field is b.algebra.field
    and a.algebra.dim <= 16
    and b.algebra.dim <= 16
]


def fixed_settings(name):
    return settings(
        max_examples=CASE_BUDGETS[name], derandomize=True, deadline=None
    )


def coefficients(field):
    p = field.characteristic
    if p == 0:
        return st.sampled_from(
            [Fraction(-2), Fraction(-1), Fraction(1), Fraction(2),
             Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
        )
    return st.integers(min_value=1, max_value=p - 1) if p > 2 else st.just(1)


def draw_element(data, A, indices, max_terms=3):
    chosen = data.draw(
        st.lists(
            st.sampled_from(indices),
            min_size=1,
            max_size=min(max_terms, len(indices)),
            unique=True,
        ),
        label="support",
    )
    coeff = coefficients(A.field)
    return Element(A, {i: data.draw(coeff, label=f"c[{i}]") for i in chosen})


@lru_cache(maxsize=None)
def bar_basis(entry_id):
    A = BY_ID[entry_id].algebra
    return zero_divisor_generators(A)


@lru_cache(maxsize=None)
def exact_invariants(entry_id):
    A = BY_ID[entry_id].algebra
    return (
        cup_length(A).value,
        zcl_basic(A).value,
        zcl_full(A).value,
    )


@lru_cache(maxsize=None)
def additivity_sides(id_a, id_b):
    A, B = BY_ID[id_a].algebra, BY_ID[id_b].algebra
    joint = zcl_basic(tensor(A, B)).value
    return joint, zcl_full(A).value + zcl_full(B).value


def check_bar_square(entry_id, k):
    """The square of the k-th bar equals its three-term expansion."""
    A = BY_ID[entry_id].algebra
    zdb = bar_basis(entry_id)
    T = zdb.square
    u = zdb.sources[k]
    d = A.degree(u)
    unit = A.unit_index
    sign = -1 if d % 2 else 1
    usq = A.mul_basis(u, u)
    expected: dict = {}
    for j, c in usq.items():
        expected[T.pair_index(unit, j)] = expected.get(T.pair_index(unit, j), 0) + c
        expected[T.pair_index(j, unit)] = expected.get(T.pair_index(j, unit), 0) + c
    uu = T.pair_index(u, u)
    expected[uu] = expected.get(uu, 0) - (1 + sign)
    assert zdb.bars[k] * zdb.bars[k] == Element(T, expected)


class TestRandomized:
    @fixed_settings("graded_commutativity")
    @given(data=st.data())
    def test_graded_commutativity(self, data):
        A = BY_ID[data.draw(st.sampled_from(SMALL_IDS), label="ring")].algebra
        present = sorted(set(degrees(A)))
        d1 = data.draw(st.sampled_from(present), label="deg1")
        d2 = data.draw(st.sampled_from(present), label="deg2")
        x = draw_element(data, A, [i for i in range(A.dim) if A.degree(i) == d1])
        y = draw_element(data, A, [i for i in range(A.dim) if A.degree(i) == d2])
        if d1 * d2 % 2:
            assert x * y == negated(y * x)
        else:
            assert x * y == y * x

    @fixed_settings("associativity")
    @given(data=st.data())
    def test_associativity(self, data):
        A = BY_ID[data.draw(st.sampled_from(SMALL_IDS), label="ring")].algebra
        basis = list(range(A.dim))
        x = draw_element(data, A, basis)
        y = draw_element(data, A, basis)
        z = draw_element(data, A, basis)
        assert (x * y) * z == x * (y * z)

    @fixed_settings("bar_square_identity")
    @given(data=st.data())
    def test_bar_square_identity(self, data):
        entry_id = data.draw(st.sampled_from(BAR_IDS), label="ring")
        zdb = bar_basis(entry_id)
        k = data.draw(
            st.integers(min_value=0, max_value=len(zdb.bars) - 1), label="bar"
        )
        check_bar_square(entry_id, k)

    @fixed_settings("kunneth_poincare")
    @given(data=st.data())
    def test_kunneth_poincare(self, data):
        id_a, id_b = data.draw(st.sampled_from(KUNNETH_PAIRS), label="pair")
        A, B = BY_ID[id_a].algebra, BY_ID[id_b].algebra
        p, q = A.poincare_polynomial(), B.poincare_polynomial()
        product = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                product[i + j] += a * b
        assert tensor(A, B).poincare_polynomial() == product

    @fixed_settings("invariant_chain")
    @given(data=st.data())
    def test_invariant_chain(self, data):
        entry_id = data.draw(st.sampled_from(SMALL_IDS), label="ring")
        cl, zb, zf = exact_invariants(entry_id)
        assert cl <= zb <= zf

    @fixed_settings("tensor_additivity")
    @given(data=st.data())
    def test_tensor_additivity(self, data):
        id_a, id_b = data.draw(st.sampled_from(ADDITIVE_PAIRS), label="pair")
        joint, split = additivity_sides(id_a, id_b)
        assert joint == split

    @fixed_settings("encoding_agreement")
    @given(data=st.data())
    def test_encoding_agreement(self, data):
        """Structure-constant re-encoding multiplies identically."""
        from frametc.algebra import TableAlgebra

        A = BY_ID[data.draw(st.sampled_from(SMALL_IDS), label="ring")].algebra
        products = {
            (i, j): A.mul_basis(i, j)
            for i in range(A.dim)
            for j in range(A.dim)
        }
        B = TableAlgebra(
            field=A.field,
            names=labels(A),
            degrees=degrees(A),
            products=products,
        )
        i = data.draw(st.integers(0, A.dim - 1), label="i")
        j = data.draw(st.integers(0, A.dim - 1), label="j")
        assert B.mul_basis(i, j) == A.mul_basis(i, j)

    @fixed_settings("element_arithmetic")
    @given(data=st.data())
    def test_element_arithmetic(self, data):
        A = BY_ID[data.draw(st.sampled_from(SMALL_IDS), label="ring")].algebra
        basis = list(range(A.dim))
        x = draw_element(data, A, basis)
        one = A.basis_element(A.unit_index)
        assert one * x == x == x * one


class TestExhaustive:
    def test_bar_square_identity_everywhere(self):
        for entry_id in ALL_IDS:
            zdb = bar_basis(entry_id)
            for k in range(len(zdb.bars)):
                check_bar_square(entry_id, k)

    def test_invariant_chain_every_ring(self):
        for entry_id in SMALL_IDS:
            cl, zb, zf = exact_invariants(entry_id)
            assert cl <= zb <= zf, entry_id
        # The three large rings: the searched value is only a lower bound
        # when the node budget runs out, so the exact comparisons soften.
        for entry_id in set(ALL_IDS) - set(SMALL_IDS):
            A = BY_ID[entry_id].algebra
            cl = cup_length(A)
            zb = zcl_basic(A, budget=2000)
            zf = zcl_full(A)
            assert cl.exact and zf.exact
            assert zb.value <= zf.value, entry_id
            if zb.exact:
                assert cl.value <= zb.value, entry_id

    def test_tensor_additivity_every_small_pair(self):
        assert len(ADDITIVE_PAIRS) >= 300
        for id_a, id_b in ADDITIVE_PAIRS:
            joint, split = additivity_sides(id_a, id_b)
            assert joint == split, (id_a, id_b)

    def test_joint_rings_match_oracle(self):
        # The whole-ring search and the library's route (the factor split
        # on monomial joint rings) against the oracle's dense full-kernel
        # powers, which share only the multiplication table.
        assert len(ORACLE_PAIRS) >= 250
        for id_a, id_b in ORACLE_PAIRS:
            joint = tensor(BY_ID[id_a].algebra, BY_ID[id_b].algebra)
            expected = brute_force_cl(joint, "zero-divisor-full")
            for res in (zcl_basic(joint), zcl_full(joint)):
                assert res.exact, (id_a, id_b, res.method)
                assert res.value == expected, (id_a, id_b, res.method)


def test_budget_floor():
    assert sum(CASE_BUDGETS.values()) >= 1000

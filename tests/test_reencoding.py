"""Seeded per-degree changes of basis of catalog rings, as table algebras.

A unimodular change of basis inside each degree block (the unit fixed)
rewrites the structure constants into a dense table that is not monomial, so
the zero-divisor engine has to find generators through the decomposables
route.  Generators per degree, the cup length, zcl_basic and zcl_full are
invariants of the ring, so each re-encoding must give the source ring's
values, and each searched value must equal the independent oracle's.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from frametc.algebra import TableAlgebra
from frametc.catalog import catalog_ring
from frametc.cuplength import cup_length, zcl_basic, zcl_full
from helpers import degrees
from oracle import brute_force_cl

SOURCES = [
    "sigma:2:char0",
    "sigma:3:char2",
    "sigma:3:char0",
    "so:6:char0",
    "so:8:char0",
    "t:3:char2",
    "t:3:char0",
    "rp:3:char2",
]
SEEDS = (0, 1, 2)


def unimodular_blocks(A, seed):
    """Block-diagonal P and its inverse Q (P·Q = 1) over the degree blocks.

    Built from the identity by random row operations r_i += s·r_j within a
    degree block and random row negations; each step is mirrored on Q by the
    inverse column operation, so Q stays the exact integer inverse.
    """
    rng = random.Random(seed)
    n = A.dim
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    for d, block in sorted(A.indices_by_degree().items()):
        if d == 0:
            continue
        for _ in range(3 * len(block)):
            if len(block) > 1:
                i, j = rng.sample(block, 2)
                s = rng.choice((-2, -1, 1, 2))
                for c in range(n):
                    P[i][c] += s * P[j][c]
                for r in range(n):
                    Q[r][j] -= s * Q[r][i]
            k = rng.choice(block)
            if rng.random() < 0.5:
                P[k] = [-c for c in P[k]]
                for r in range(n):
                    Q[r][k] = -Q[r][k]
    return P, Q


def reencode(A, seed):
    """The table algebra with basis f_a = sum_i P[a][i] e_i."""
    P, Q = unimodular_blocks(A, seed)
    n = A.dim
    f = A.field
    rows = [{i: c for i, c in enumerate(P[a]) if c} for a in range(n)]
    products = {}
    for a in range(n):
        for b in range(n):
            old: dict = {}
            for i, ci in rows[a].items():
                for j, cj in rows[b].items():
                    for k, ck in A.mul_basis(i, j).items():
                        old[k] = f.add(old.get(k, 0), f.mul(ci * cj, ck))
            new: dict = {}
            for k, ck in old.items():
                for c in range(n):
                    if Q[k][c]:
                        new[c] = f.add(new.get(c, 0), f.mul(ck, Q[k][c]))
            products[(a, b)] = new
    names = ["1" if A.degree(a) == 0 else f"f{a}" for a in range(n)]
    return TableAlgebra(f, names, degrees(A), products)


def generator_degrees(A):
    return Counter(A.degree(i) for i in A.generators())


def test_change_of_basis_is_inverted_exactly():
    A = catalog_ring("sigma:3:char0")[1]
    P, Q = unimodular_blocks(A, 7)
    n = A.dim
    for r in range(n):
        assert [sum(P[r][k] * Q[k][c] for k in range(n)) for c in range(n)] == [
            int(r == c) for c in range(n)
        ]
    # Some off-diagonal entry: classes of one degree really get mixed.
    assert any(P[r][c] for r in range(n) for c in range(n) if r != c)


@pytest.mark.parametrize("ring_id", SOURCES)
def test_reencoded_ring_keeps_generators_and_zcl(ring_id):
    A = catalog_ring(ring_id)[1]
    want = zcl_full(A)
    assert want.exact
    for seed in SEEDS:
        B = reencode(A, seed)
        assert B.poincare_polynomial() == A.poincare_polynomial()
        assert generator_degrees(B) == generator_degrees(A), seed
        basic = zcl_basic(B)
        full = zcl_full(B)
        assert basic.exact and full.exact, seed
        assert full.method == "generator-bars"
        assert basic.value == full.value == want.value, seed
        assert full.value == brute_force_cl(B, "zero-divisor-full"), seed


@pytest.mark.parametrize("ring_id", SOURCES)
def test_reencoded_ring_keeps_cup_length(ring_id):
    A = catalog_ring(ring_id)[1]
    want = cup_length(A)
    assert want.exact
    for seed in SEEDS:
        B = reencode(A, seed)
        got = cup_length(B)
        assert got.exact and got.method == "search", seed
        assert got.value == want.value == brute_force_cl(B, "positive"), seed

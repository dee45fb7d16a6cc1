"""Seeded re-encoding of catalog rings as dense ``type: table`` ring JSON.

The source rings are rebuilt here from their textbook presentations, not
taken from ``frametc``, so the generated inputs do not depend on the code
under test.  Each degree block of the basis gets an invertible integer
matrix P (the degree-0 block, the unit, stays fixed): a dense matrix fixed
per source and degree, whose rows the seed shuffles and negates at random.
Different seeds give different inputs of the same size, so the cost of a run
does not depend on its seed.  The structure constants are rewritten exactly:

    f_a = sum_i P[a][i] e_i,   f_a f_b = sum_{i,j,k} P[a][i] P[b][j] c_ij^k e_k,
    e_k = sum_c Q[k][c] f_c    with Q = P^-1.

P is unimodular (det = +-1), so Q is integral, every coefficient is an
integer, and the same P is invertible mod every prime.  zcl, cl and the
Poincare polynomial are invariants of the ring, so a re-encoded ring must give
the same values as its source.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def exterior(degrees: list[int], prefix: str = "x") -> tuple[list, list, dict]:
    """Exterior algebra on generators of the given odd degrees.

    Basis: subsets of generators in lexicographic exponent-vector order;
    x_S * x_T = 0 if S and T meet, else (-1)^(inversions) x_{S u T}.
    """
    n = len(degrees)
    exps = list(itertools.product((0, 1), repeat=n))
    index = {e: i for i, e in enumerate(exps)}
    names = ["1" if not any(e) else "·".join(f"{prefix}{t + 1}" for t in range(n) if e[t]) for e in exps]
    degs = [sum(d for d, bit in zip(degrees, e) if bit) for e in exps]
    table: dict = {}
    for i, e in enumerate(exps):
        for j, f in enumerate(exps):
            if any(a and b for a, b in zip(e, f)):
                continue
            # moving each factor of f left past the later factors of e
            inversions = sum(1 for a in range(n) for b in range(a + 1, n) if f[a] and e[b])
            k = index[tuple(a + b for a, b in zip(e, f))]
            table[(i, j)] = {k: -1 if inversions % 2 else 1}
    return names, degs, table


def surface(genus: int) -> tuple[list, list, dict]:
    """Closed orientable surface: a_i b_i = w = -b_i a_i, all else zero."""
    names = ["1"] + [f"a{i}" for i in range(1, genus + 1)] + [f"b{i}" for i in range(1, genus + 1)] + ["w"]
    degs = [0] + [1] * (2 * genus) + [2]
    w = 2 * genus + 1
    table: dict = {}
    for i in range(1, genus + 1):
        table[(i, genus + i)] = {w: 1}
        table[(genus + i, i)] = {w: -1}
    return names, degs, table


# SO(8) over a field of characteristic 0: exterior on degrees 3, 7, 11 and the
# extra generator of degree 2m - 1 = 7.  T^4: exterior on four degree-1 classes.
SOURCES = {
    "sigma:6:char0": (0, lambda: surface(6)),
    "so:8:char0": (0, lambda: exterior([3, 7, 11, 7], "a")),
    "t:4:char2": (2, lambda: exterior([1, 1, 1, 1], "u")),
    "sigma:6:char2": (2, lambda: surface(6)),
}


def _unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """Dense-ish n x n integer matrix of determinant +-1.

    Built from the identity by 2n random row operations r_i += +-r_j and a
    random sign per row, so entries stay small and the inverse is integral.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-a for a in m[i]]
    return m


def _inverse(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse by Gauss-Jordan over Fraction; must be integral."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        r = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[r] = a[r], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        raise AssertionError("change of basis is not unimodular")
    return [[int(x) for x in row] for row in inv]


def reencode(source: str, seed: int) -> dict:
    """Ring JSON of ``source`` in a seeded random basis (unit fixed)."""
    char, build = SOURCES[source]
    names, degs, table = build()
    rng = random.Random(f"{source}/{seed}")
    n = len(names)
    # P and Q as sparse rows over the whole basis, block-diagonal by degree.
    P: list[dict] = [dict() for _ in range(n)]
    Q: list[dict] = [dict() for _ in range(n)]
    for d in sorted(set(degs)):
        block = [i for i in range(n) if degs[i] == d]
        if d == 0:
            P[block[0]] = {block[0]: 1}
            Q[block[0]] = {block[0]: 1}
            continue
        # A fixed dense matrix per source and degree, then a seeded order and
        # sign for each new basis element: every seed gives another input of
        # the same size, so a run's cost does not depend on its seed.
        m = _unimodular(len(block), random.Random(f"{source}/degree {d}"))
        rng.shuffle(m)
        m = [[-x for x in row] if rng.random() < 0.5 else row for row in m]
        inv = _inverse(m)
        for a, row in enumerate(m):
            P[block[a]] = {block[b]: x for b, x in enumerate(row) if x}
        for a, row in enumerate(inv):
            Q[block[a]] = {block[b]: x for b, x in enumerate(row) if x}
    new_names = ["1" if degs[a] == 0 else f"f{a}" for a in range(n)]
    rows = []
    for a in range(n):
        if degs[a] == 0:
            continue
        for b in range(n):
            if degs[b] == 0:
                continue
            acc: dict = {}
            for i, pa in P[a].items():
                for j, pb in P[b].items():
                    for k, c in table.get((i, j), {}).items():
                        for t, q in Q[k].items():
                            acc[t] = acc.get(t, 0) + pa * pb * c * q
            for t in sorted(acc):
                c = acc[t] % char if char else acc[t]
                if c:
                    rows.append([new_names[a], new_names[b], new_names[t], c])
    return {
        "field": {"char": char},
        "type": "table",
        "basis": [{"name": nm, "degree": d} for nm, d in zip(new_names, degs)],
        "products": rows,
    }


def source_poincare(source: str) -> list[int]:
    _, degs, _ = SOURCES[source][1]()
    out = [0] * (max(degs) + 1)
    for d in degs:
        out[d] += 1
    return out

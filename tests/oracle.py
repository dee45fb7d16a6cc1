"""Slow, independent reference computations used only by the test suite.

Everything here recomputes values with deliberately different machinery from
the main engine: dense row-reduction over lists instead of the sparse
fraction-free echelon, its own tensor-square arithmetic over (i, j) index
pairs instead of ProductAlgebra, and exhaustive depth-first search for the
searched quantities.  The only shared ingredient is the algebra's basis
multiplication table itself, which is what defines the ring and is
axiom-checked separately.

The searches are exhaustive, not heuristic: the depth-first searches memoize
on (position, canonically-scaled product vector), which never changes the
computed value, and the ideal-power iteration skips products whose target
degree block is already saturated, which never changes the computed span.
Intended for small algebras (dimension about 16, tensor squares about 256).

``brute_force_cl`` is the single entry point: it selects the ideal to power
("positive" for the cup length, "zero-divisor-basic" for products of basic
zero-divisors, "zero-divisor-full" for the full kernel ideal) and raises
:class:`OracleError` when ``max_len`` is too small to certify the value.
"""

from __future__ import annotations

from fractions import Fraction

from frametc.algebra import Algebra

_NODE_LIMIT = 20_000_000


class OracleError(Exception):
    pass


# -- dense linear algebra (independent of frametc.linalg) ---------------------


def _scale_canonical(vec: dict, p: int) -> tuple:
    """Sorted items of vec divided by its first nonzero coefficient."""
    items = sorted(vec.items())
    lead = items[0][1]
    if p:
        inv = pow(int(lead), p - 2, p)
        return tuple((k, (c * inv) % p) for k, c in items)
    return tuple((k, c / lead) for k, c in items)


class _DenseSpan:
    """Row space in reduced row-echelon form over one degree block."""

    def __init__(self, width: int, p: int):
        self.width = width
        self.p = p
        self.rows: list[list] = []
        self.pivots: list[int] = []

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.width

    def insert(self, vec: list) -> bool:
        """Reduce ``vec``; append and return True if independent."""
        p = self.p
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                if p:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
                else:
                    v = [a - c * b for a, b in zip(v, row)]
        piv = next((i for i in range(self.width) if v[i]), None)
        if piv is None:
            return False
        inv = pow(int(v[piv]), p - 2, p) if p else Fraction(1) / v[piv]
        v = [(a * inv) % p if p else a * inv for a in v]
        for row in self.rows:
            c = row[piv]
            if c:
                for i in range(self.width):
                    row[i] = (row[i] - c * v[i]) % p if p else row[i] - c * v[i]
        self.rows.append(v)
        self.pivots.append(piv)
        return True


def _nullspace(matrix: list[list], p: int) -> list[list]:
    """Basis of {x : x·matrix = 0} for a row-major matrix (rows are images)."""
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    # Row-reduce [matrix | I]; rows whose matrix part vanishes give relations.
    rows: list[list] = []
    pivots: list[int] = []
    kernel = []
    for r in range(m):
        aug = list(matrix[r]) + [Fraction(0) if not p else 0] * m
        aug[n + r] = Fraction(1) if not p else 1
        v = aug
        for row, piv in zip(rows, pivots):
            c = v[piv]
            if c:
                if p:
                    v = [(a - c * b) % p for a, b in zip(v, row)]
                else:
                    v = [a - c * b for a, b in zip(v, row)]
        piv = next((i for i in range(n) if v[i]), None)
        if piv is None:
            kernel.append(v[n:])
            continue
        inv = pow(int(v[piv]), p - 2, p) if p else Fraction(1) / v[piv]
        v = [(a * inv) % p if p else a * inv for a in v]
        rows.append(v)
        pivots.append(piv)
    return kernel


# -- own tensor-square arithmetic ---------------------------------------------


def _tmul(A: Algebra, x: dict, y: dict, p: int) -> dict:
    """Product of two tensor-square vectors keyed by (i, j) basis pairs.

    Sign rule: (a⊗b)(c⊗d) = (-1)^(|b||c|) ac⊗bd.
    """
    out: dict = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            sign = -1 if (A.degree(j1) * A.degree(i2)) % 2 else 1
            c = c1 * c2 * sign
            left = A.mul_basis(i1, i2)
            if not left:
                continue
            right = A.mul_basis(j1, j2)
            if not right:
                continue
            for mm, cm in left.items():
                for nn, cn in right.items():
                    key = (mm, nn)
                    acc = out.get(key, 0) + c * cm * cn
                    acc = acc % p if p else acc
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
    return out


# -- exhaustive searches -------------------------------------------------------


class _PlainView:
    """The algebra as the searches read it, built once per call.

    Degrees are read once into a list that ``degree`` indexes, and each
    basis product is looked up in ``A`` once and kept, so a lazy encoding
    pays its decoding only once.  The products are the algebra's own
    multiplication table, read and not changed.
    """

    def __init__(self, A: Algebra):
        self.dim = A.dim
        self.degree = [A.degree(k) for k in range(A.dim)].__getitem__
        self.top_degree = A.top_degree
        self.unit_index = A.unit_index
        self._mul_basis = A.mul_basis
        self._products: dict = {}

    def mul_basis(self, i: int, j: int) -> dict:
        try:
            return self._products[i, j]
        except KeyError:
            out = self._products[i, j] = self._mul_basis(i, j)
            return out


def brute_force_cl(A: Algebra, ideal: str, max_len: int = 0) -> int:
    """Exhaustive cup length of the selected ideal (see module docstring).

    ``ideal``: "positive", "zero-divisor-basic", or "zero-divisor-full".
    ``max_len`` of 0 picks a provably sufficient cap from the grading (every
    ideal element has degree >= 1, so products longer than the top degree of
    the ambient algebra vanish); a positive cap that turns out too small
    raises OracleError rather than returning a possibly-wrong value.
    """
    p = A.field.characteristic
    A = _PlainView(A)
    if ideal == "positive":
        cap = max_len or A.top_degree
        return _longest_positive(A, p, cap)
    if ideal == "zero-divisor-basic":
        cap = max_len or 2 * A.top_degree
        return _longest_bars(A, p, cap)
    if ideal == "zero-divisor-full":
        cap = max_len or 2 * A.top_degree
        return _ideal_power_length(A, p, cap)
    raise ValueError(f"unknown ideal selector {ideal!r}")


def _longest_positive(A: _PlainView, p: int, cap: int) -> int:
    one = 1 if p else Fraction(1)
    pos = [i for i in range(A.dim) if A.degree(i) > 0]

    def mul_by_basis(vec: dict, g: int) -> dict:
        out: dict = {}
        for i, c in vec.items():
            for mm, cm in A.mul_basis(i, g).items():
                acc = out.get(mm, 0) + c * cm
                acc = acc % p if p else acc
                if acc:
                    out[mm] = acc
                else:
                    out.pop(mm, None)
        return out

    state = {"nodes": 0}
    memo: dict = {}

    # Memo entries are only written after a subtree finished without raising,
    # so every stored value is the exact extension depth from that state; the
    # depth depends only on (position, line of the product), not on the path.
    def extend(start: int, vec: dict, remaining: int) -> int:
        key = (start, _scale_canonical(vec, p))
        hit = memo.get(key)
        if hit is not None:
            if hit > remaining:
                raise OracleError("max_len too small: a longer nonzero product exists")
            return hit
        best = 0
        for t in range(start, len(pos)):
            state["nodes"] += 1
            if state["nodes"] > _NODE_LIMIT:
                raise OracleError("node limit hit in brute positive search")
            nxt = mul_by_basis(vec, pos[t])
            if not nxt:
                continue
            if remaining <= 0:
                raise OracleError("max_len too small: a longer nonzero product exists")
            sub = extend(t, nxt, remaining - 1)
            if 1 + sub > best:
                best = 1 + sub
        memo[key] = best
        return best

    return extend(0, {A.unit_index: one}, cap)


def _longest_bars(A: _PlainView, p: int, cap: int) -> int:
    one = 1 if p else Fraction(1)
    unit = A.unit_index
    bars = [
        {(unit, i): one, (i, unit): (-one) % p if p else -one}
        for i in range(A.dim)
        if A.degree(i) > 0
    ]
    state = {"nodes": 0}
    memo: dict = {}

    # Same memoization argument as the positive search: entries are written
    # only for completed subtrees, hence exact.
    def extend(start: int, vec: dict, remaining: int) -> int:
        key = (start, _scale_canonical(vec, p))
        hit = memo.get(key)
        if hit is not None:
            if hit > remaining:
                raise OracleError("max_len too small: a longer nonzero product exists")
            return hit
        best = 0
        for t in range(start, len(bars)):
            state["nodes"] += 1
            if state["nodes"] > _NODE_LIMIT:
                raise OracleError("node limit hit in brute zero-divisor search")
            nxt = _tmul(A, vec, bars[t], p)
            if not nxt:
                continue
            if remaining <= 0:
                raise OracleError("max_len too small: a longer nonzero product exists")
            sub = extend(t, nxt, remaining - 1)
            if 1 + sub > best:
                best = 1 + sub
        memo[key] = best
        return best

    return extend(0, {(unit, unit): one}, cap)


def _ideal_power_length(A: _PlainView, p: int, cap: int) -> int:
    """Largest k with Z^k != 0, Z = ker(A⊗A → A), by dense ideal powers."""
    dim = A.dim
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    degree_of = {ij: A.degree(ij[0]) + A.degree(ij[1]) for ij in pairs}
    blocks: dict[int, list] = {}
    for ij in pairs:
        blocks.setdefault(degree_of[ij], []).append(ij)
    block_pos = {
        d: {ij: k for k, ij in enumerate(members)} for d, members in blocks.items()
    }

    # Kernel of the multiplication map, one dense nullspace per degree.
    kernel_vecs: list[dict] = []
    for d in sorted(blocks):
        if d == 0:
            continue  # the unit line is not a zero-divisor
        block = blocks[d]
        matrix = []
        for i, j in block:
            img = A.mul_basis(i, j)
            row = [0 if p else Fraction(0)] * dim
            for mm, c in img.items():
                row[mm] = c % p if p else Fraction(c)
            matrix.append(row)
        for combo in _nullspace(matrix, p):
            vec = {block[t]: combo[t] for t in range(len(block)) if combo[t]}
            if vec:
                kernel_vecs.append(vec)
    if not kernel_vecs:
        return 0

    def dense(vec: dict, d: int) -> list:
        row = [0 if p else Fraction(0)] * len(blocks[d])
        pos = block_pos[d]
        for ij, c in vec.items():
            row[pos[ij]] = c
        return row

    kernel = [(vec, next(iter(degree_of[ij] for ij in vec))) for vec in kernel_vecs]
    current = list(kernel)
    power = 1
    while True:
        if power > cap:
            raise OracleError("max_len too small: a longer nonzero product exists")
        spans = {d: _DenseSpan(len(blocks[d]), p) for d in blocks if d > 0}
        nxt = []
        for vec, dv in current:
            for z, dz in kernel:
                target = dv + dz
                if target not in blocks:
                    continue  # no basis pairs of that degree: product is zero
                span = spans[target]
                if span.full:
                    continue  # block saturated: no new directions possible
                prod = _tmul(A, vec, z, p)
                if prod and span.insert(dense(prod, target)):
                    nxt.append((prod, target))
        if not nxt:
            return power
        current = nxt
        power += 1


# -- compatibility wrappers used throughout the tests ---------------------------


def brute_cup_length(A: Algebra, max_len: int = 0) -> int:
    return brute_force_cl(A, "positive", max_len)


def brute_zcl_basic(A: Algebra, max_len: int = 0) -> int:
    return brute_force_cl(A, "zero-divisor-basic", max_len)


def brute_zcl_full(A: Algebra, max_len: int = 0) -> int:
    return brute_force_cl(A, "zero-divisor-full", max_len)

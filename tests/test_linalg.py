"""Sparse exact linear algebra: echelon spans and kernel extraction."""

from fractions import Fraction

from frametc.fields import F2, QQ, field_of
from frametc.linalg import Echelon, kernel_of_map


def span_rank(vectors, field):
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def basis(ech):
    """Stored rows of an echelon, in insertion order."""
    return [main for main, _ in ech.rows.values()]


def contains(ech, vec):
    """Span membership, probed on a copy so ``ech`` is left unchanged."""
    probe = Echelon(ech.field)
    for row in basis(ech):
        probe.insert(row)
    return not probe.insert(vec)[0]


def _recombine(combo, images, field):
    """Apply the linear map defined by ``images`` to a coefficient vector."""
    out = {}
    for i, c in combo.items():
        for k, v in images[i].items():
            acc = field.add(out.get(k, field.zero()), field.mul(c, v))
            if field.is_zero(acc):
                out.pop(k, None)
            else:
                out[k] = acc
    return out


class TestEchelon:
    def test_rank_and_dependence_over_q(self):
        ech = Echelon(QQ)
        added, _, _ = ech.insert({0: Fraction(1), 1: Fraction(2)})
        assert added and ech.rank == 1
        added, residual, _ = ech.insert({0: Fraction(2), 1: Fraction(4)})
        assert not added and not residual
        added, _, _ = ech.insert({1: Fraction(1)})
        assert added and ech.rank == 2

    def test_contains(self):
        ech = Echelon(QQ)
        ech.insert({0: Fraction(1), 1: Fraction(1)})
        ech.insert({1: Fraction(1), 2: Fraction(1)})
        assert contains(ech, {0: Fraction(1), 2: Fraction(-1)})
        assert not contains(ech, {2: Fraction(1), 3: Fraction(1)})
        assert contains(ech, {})

    def test_char0_rows_stored_as_primitive_integers(self):
        ech = Echelon(QQ)
        ech.insert({0: Fraction(1, 2), 2: Fraction(1, 3)})
        (row,) = basis(ech)
        assert row == {0: 3, 2: 2}

    def test_leading_coefficient_positive(self):
        ech = Echelon(QQ)
        ech.insert({0: Fraction(-2), 1: Fraction(4)})
        (row,) = basis(ech)
        assert row == {0: 1, 1: -2}

    def test_mod_p_pivot_normalized(self):
        F5 = field_of(5)
        ech = Echelon(F5)
        ech.insert({0: 3, 1: 1})
        (row,) = basis(ech)
        assert row[0] == 1  # 3 * inverse(3) = 1

    def test_deterministic_given_order(self):
        vecs = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
        runs = []
        for _ in range(2):
            ech = Echelon(F2)
            for v in vecs:
                ech.insert(dict(v))
            runs.append(basis(ech))
        assert runs[0] == runs[1]

    def test_span_rank(self):
        vecs = [{0: Fraction(1)}, {0: Fraction(2)}, {1: Fraction(1)}, {}]
        assert span_rank(vecs, QQ) == 2


class TestKernelOfMap:
    def test_rank_nullity_over_q(self):
        # Map Q^3 -> Q: e_i -> i+1 times the single target coordinate.
        images = [{0: Fraction(1)}, {0: Fraction(2)}, {0: Fraction(3)}]
        kernel = kernel_of_map(images, QQ)
        assert len(kernel) == 2
        for combo in kernel:
            assert _recombine(combo, images, QQ) == {}
        assert span_rank(kernel, QQ) == 2

    def test_zero_map(self):
        images = [{}, {}]
        kernel = kernel_of_map(images, QQ)
        assert len(kernel) == 2
        assert span_rank(kernel, QQ) == 2

    def test_injective_map_has_trivial_kernel(self):
        images = [{0: Fraction(1)}, {1: Fraction(1)}]
        assert kernel_of_map(images, QQ) == []

    def test_over_f2(self):
        images = [{0: 1}, {0: 1}, {1: 1}]
        kernel = kernel_of_map(images, F2)
        assert len(kernel) == 1
        (combo,) = kernel
        assert _recombine(combo, images, F2) == {}
        assert combo == {0: 1, 1: 1}

    def test_fractional_images_recombine_to_zero(self):
        images = [
            {0: Fraction(1, 2), 1: Fraction(1, 3)},
            {0: Fraction(1, 4), 1: Fraction(1, 6)},
            {1: Fraction(1)},
        ]
        kernel = kernel_of_map(images, QQ)
        assert len(kernel) == 1
        for combo in kernel:
            assert _recombine(combo, images, QQ) == {}

    def test_deterministic(self):
        images = [{0: 1, 1: 1}, {0: 1}, {1: 1}, {0: 1, 1: 1}]
        assert kernel_of_map(images, F2) == kernel_of_map(images, F2)

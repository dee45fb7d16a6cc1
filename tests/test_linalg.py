"""Sparse exact linear algebra: echelon spans and kernel extraction."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from frametc import cuplength, linalg
from frametc.algebra import ProductAlgebra
from frametc.fields import F2, QQ, field_of
from frametc.linalg import Echelon, kernel_of_map


def span_rank(vectors, field):
    ech = Echelon(field)
    for v in vectors:
        ech.insert(v)
    return ech.rank


def basis(ech):
    """Stored rows of an echelon, in insertion order."""
    return list(ech.rows.values())


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
            acc = field.add(out.get(k, 0), field.mul(c, v))
            if not acc:
                out.pop(k, None)
            else:
                out[k] = acc
    return out


class TestEchelon:
    def test_rank_and_dependence_over_q(self):
        ech = Echelon(QQ)
        added, _ = ech.insert({0: Fraction(1), 1: Fraction(2)})
        assert added and ech.rank == 1
        added, residual = ech.insert({0: Fraction(2), 1: Fraction(4)})
        assert not added and not residual
        added, _ = ech.insert({1: Fraction(1)})
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


# -- the augmented echelon, as a reference --------------------------------------


class ReferenceEchelon:
    """The echelon as it was when each row carried a second, augmented vector.

    An independent reference: ``insert(vec, aug)`` applies every operation on
    ``vec`` to ``aug`` too, and :func:`reference_kernel_of_map` reads kernel
    vectors off the augmented part instead of off extra columns.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> (main, aug), in insertion order

    def _norm_pair(self, main, aug):
        p = self.field.characteristic
        if p == 0:
            both = {("m", k): c for k, c in main.items() if c}
            both.update({("a", k): c for k, c in aug.items() if c})
            if not both:
                return {}, {}
            den = lcm(*(c.denominator if isinstance(c, Fraction) else 1 for c in both.values()))
            ints = {
                k: int(c * den) if isinstance(c, Fraction) else c * den for k, c in both.items()
            }
            g = gcd(*ints.values())
            main_keys = [k for (t, k) in ints if t == "m"]
            if main_keys:
                leadkey = ("m", min(main_keys))
            else:
                leadkey = ("a", min(k for (t, k) in ints if t == "a"))
            if ints[leadkey] < 0:
                g = -g
            main_n = {k: v // g for (t, k), v in ints.items() if t == "m"}
            aug_n = {k: v // g for (t, k), v in ints.items() if t == "a"}
            return main_n, aug_n
        main_n = {k: c % p for k, c in main.items() if c % p}
        return main_n, {k: c % p for k, c in aug.items() if c % p}

    def _eliminate(self, main, aug, col):
        piv_main, piv_aug = self.rows[col]
        p = self.field.characteristic
        if p == 0:
            a, b = main[col], piv_main[col]

            def comb(x, y):
                out = {}
                for k in x.keys() | y.keys():
                    c = b * x.get(k, 0) - a * y.get(k, 0)
                    if c:
                        out[k] = c
                return out

            return comb(main, piv_main), comb(aug, piv_aug)
        f = main[col]

        def sub(x, y):
            out = dict(x)
            for k, c in y.items():
                r = (out.get(k, 0) - f * c) % p
                if r:
                    out[k] = r
                else:
                    out.pop(k, None)
            return out

        return sub(main, piv_main), sub(aug, piv_aug)

    def insert(self, vec, aug=None):
        main, augr = self._norm_pair(vec, aug or {})
        while main:
            hit = None
            for k in main:
                if k in self.rows and (hit is None or k < hit):
                    hit = k
            if hit is None:
                break
            main, augr = self._norm_pair(*self._eliminate(main, augr, hit))
        if not main:
            return False, main, augr
        p = self.field.characteristic
        if p != 0:
            inv = pow(main[min(main)], -1, p)
            main = {k: (c * inv) % p for k, c in main.items()}
            augr = {k: (c * inv) % p for k, c in augr.items()}
        self.rows[min(main)] = (main, augr)
        return True, main, augr


def reference_kernel_of_map(images, field):
    """Kernel vectors and the echelon left behind, tracking e_i as ``aug``."""
    ech = ReferenceEchelon(field)
    kernel = []
    for i, img in enumerate(images):
        added, residual, combo = ech.insert(dict(img), {i: 1})
        if not added and not residual:
            kernel.append(combo)
    return kernel, ech


FIELDS = [QQ, F2, field_of(3), field_of(5), field_of(7)]


def random_map(rng, field):
    """A few sparse images, with repeats and combinations so kernels appear."""
    width = rng.randint(1, 7)

    def coeff():
        if field.characteristic == 0:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        return rng.randrange(1, field.characteristic)

    images = []
    for _ in range(rng.randint(0, 10)):
        if images and rng.random() < 0.3:  # a combination of earlier images
            i, j = rng.randrange(len(images)), rng.randrange(len(images))
            images.append(_recombine({i: coeff(), j: coeff()}, images, field))
        else:
            cols = rng.sample(range(width), rng.randint(0, width))
            images.append({k: coeff() for k in cols})
    return images


class TestAgainstAugmentedReference:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_insert_results_and_rows_match(self, field):
        rng = random.Random(f"insert-{field.characteristic}")
        for _ in range(150):
            ech, ref = Echelon(field), ReferenceEchelon(field)
            for img in random_map(rng, field):
                added, residual, aug = ref.insert(dict(img))
                assert ech.insert(dict(img)) == (added, residual) and aug == {}
            assert list(ech.rows.items()) == [(k, main) for k, (main, _) in ref.rows.items()]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"char{f.characteristic}")
    def test_kernels_and_stored_rows_match(self, field, monkeypatch):
        made = []

        class Recording(Echelon):
            def __init__(self, field):
                super().__init__(field)
                self.inserted = []
                made.append(self)

            def insert(self, vec):
                result = super().insert(vec)
                self.inserted.append(result)
                return result

        monkeypatch.setattr(linalg, "Echelon", Recording)
        rng = random.Random(f"kernel-{field.characteristic}")
        for _ in range(150):
            images = random_map(rng, field)
            kernel = kernel_of_map(images, field)
            ref_kernel, ref = reference_kernel_of_map(images, field)
            assert kernel == ref_kernel
            width = 1 + max((k for img in images for k in img), default=-1)
            rows = [
                (piv, {**main, **{width + k: c for k, c in aug.items()}})
                for piv, (main, aug) in ref.rows.items()
            ]
            (ech,) = made
            made.clear()
            assert list(ech.rows.items()) == rows
            assert ech.inserted == [(True, row) for _, row in rows]

    def test_ideal_basis_matches_reference_on_catalog_squares(self, small_entries, monkeypatch):
        squares = [ProductAlgebra(e.algebra, e.algebra) for e in small_entries]
        ours = [cuplength.zero_divisor_ideal_basis(T) for T in squares]

        def reference(images, field):
            return reference_kernel_of_map(images, field)[0]

        monkeypatch.setattr(linalg, "kernel_of_map", reference)
        assert ours == [cuplength.zero_divisor_ideal_basis(T) for T in squares]
        assert sum(len(vecs) for vecs, _ in ours) > 0

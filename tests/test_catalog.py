"""The shipped ring catalog: presentations, ids, and frozen invariants."""

import tracemalloc

import pytest

from frametc.algebra import CapacityError
from frametc.catalog import (
    MAX_GENERATORS,
    CatalogError,
    catalog_ring,
    cp_ring,
    parse_catalog_id,
    pi_exponent,
    rp_ring,
    so_ring,
    sphere_ring,
    surface_ring,
    torus_ring,
)
from frametc.cuplength import cup_length
from frametc.fields import F2, QQ, field_of
from helpers import degrees, generator, negated


class TestPiExponent:
    def test_values(self):
        # smallest 2-power q with i*q >= n
        assert pi_exponent(1, 2) == 2
        assert pi_exponent(1, 3) == 4
        assert pi_exponent(1, 5) == 8
        assert pi_exponent(3, 5) == 2
        assert pi_exponent(3, 7) == 4
        assert pi_exponent(5, 7) == 2
        assert pi_exponent(7, 8) == 2

    def test_rejects(self):
        with pytest.raises(CatalogError):
            pi_exponent(2, 5)
        with pytest.raises(CatalogError):
            pi_exponent(5, 5)
        with pytest.raises(CatalogError):
            pi_exponent(-1, 5)


class TestSoRing:
    def test_char2_presentation(self):
        A = so_ring(5, F2)
        assert [(g.name, g.degree, g.truncation) for g in A.gens] == [
            ("b1", 1, 8),
            ("b3", 3, 2),
        ]
        assert A.dim == 16
        assert A.top_degree == 7 + 3

    def test_char0_presentation_odd_n(self):
        A = so_ring(5, QQ)
        assert [(g.name, g.degree) for g in A.gens] == [("a3", 3), ("a7", 7)]
        assert A.dim == 4

    def test_char0_presentation_even_n(self):
        A = so_ring(4, QQ)
        assert [(g.name, g.degree) for g in A.gens] == [("a3", 3), ("a'3", 3)]
        A6 = so_ring(6, QQ)
        assert [(g.name, g.degree) for g in A6.gens] == [
            ("a3", 3),
            ("a7", 7),
            ("a'5", 5),
        ]

    def test_so1_and_so2(self):
        assert so_ring(1, F2).dim == 1
        assert so_ring(1, QQ).dim == 1
        assert so_ring(2, QQ).dim == 2  # circle
        assert so_ring(2, F2).dim == 2

    def test_odd_characteristic_uses_exterior_form(self):
        A = so_ring(5, field_of(5))
        assert A.dim == 4
        a3 = generator(A, "a3")
        assert (a3 * a3).is_zero

    def test_rejects(self):
        with pytest.raises(CatalogError):
            so_ring(0, F2)


class TestOtherFamilies:
    def test_rp(self):
        A = rp_ring(3)
        a = generator(A, "a")
        assert not (a * a * a).is_zero
        assert (a * a * a * a).is_zero
        with pytest.raises(CatalogError):
            rp_ring(3, QQ)
        with pytest.raises(CatalogError):
            rp_ring(0)

    def test_cp(self):
        A = cp_ring(2)
        u = generator(A, "u")
        assert u.degree() == 2
        assert not (u * u).is_zero
        assert (u * u * u).is_zero
        assert cp_ring(2, field_of(3)).dim == 3

    def test_torus(self):
        assert torus_ring(3, QQ).dim == 8
        assert torus_ring(3, F2).dim == 8

    def test_sphere(self):
        A = sphere_ring(4, QQ)
        x = generator(A, "x")
        assert x.degree() == 4
        assert (x * x).is_zero

    def test_surface_structure(self):
        A = surface_ring(3, QQ)
        assert A.dim == 8  # 1 + 2g + 1
        a2, b2 = A.basis_element(2), A.basis_element(5)
        w = A.basis_element(7)
        assert a2 * b2 == w
        assert b2 * a2 == negated(w)
        assert (a2 * A.basis_element(4)).is_zero  # a2 * b1 = 0
        with pytest.raises(CatalogError):
            surface_ring(0)

    def test_surface_over_capacity_refused_before_building(self):
        # 2g + 2 classes: the table is refused before any name or product exists.
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as exc:
                surface_ring(100_000, F2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "dimension 200002 exceeds capacity 4096"
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "ring_id, count",
        [
            ("so:2000:char2", 1000),
            ("t:3000:char0", 3000),
            (f"so:{2 * MAX_GENERATORS + 1}:char2", MAX_GENERATORS),
            (f"so:{2 * MAX_GENERATORS + 1}:char0", MAX_GENERATORS),
            (f"t:{MAX_GENERATORS}:char2", MAX_GENERATORS),
        ],
    )
    def test_generator_count_up_to_the_limit_is_built(self, ring_id, count):
        assert len(catalog_ring(ring_id)[1].gens) == count

    @pytest.mark.parametrize(
        "ring_id, count",
        [
            (f"so:{2 * MAX_GENERATORS + 2}:char2", MAX_GENERATORS + 1),
            (f"so:{2 * MAX_GENERATORS + 2}:char0", MAX_GENERATORS + 1),
            (f"t:{MAX_GENERATORS + 1}:char0", MAX_GENERATORS + 1),
        ],
    )
    def test_generator_count_past_the_limit_is_refused(self, ring_id, count):
        family, n = ring_id.split(":")[:2]
        with pytest.raises(CatalogError) as exc:
            catalog_ring(ring_id)
        assert str(exc.value) == (
            f"{family}:{n} has {count} generators; "
            f"the catalog builds rings of at most {MAX_GENERATORS} generators"
        )


class TestCatalogIds:
    def test_parse(self):
        assert parse_catalog_id("so:5:char2") == ("so", 5, F2)
        assert parse_catalog_id("cp:3:char0") == ("cp", 3, QQ)
        family, param, fld = parse_catalog_id("rp:7")
        assert (family, param, fld) == ("rp", 7, F2)
        assert parse_catalog_id("t:2") == ("t", 2, None)

    @pytest.mark.parametrize(
        "bad",
        # int() would read the parameters 5_0, -3, +5, " 5" and \u0665 as
        # 50, -3, 5, 5 and 5.
        ["so", "so:5:char2:extra", "nope:1", "so:x", "so:5:weird", "so:5_0:char2",
         "so:-3:char2", "so:+5", "so: 5", "so:\u0665",
         pytest.param("so:" + "9" * 5000, id="past-int-digit-limit")],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):  # CatalogError or FieldError
            parse_catalog_id(bad)

    def test_catalog_ring_needs_field(self):
        with pytest.raises(CatalogError):
            catalog_ring("t:2")
        ring_id, A = catalog_ring("t:2", field=QQ)
        assert ring_id == "t:2:char0" and A.dim == 4

    def test_id_names_the_field(self):
        assert catalog_ring("rp:7")[0] == "rp:7:char2"
        assert catalog_ring(" so:5:char=2")[0] == "so:5:char2"

    def test_field_conflict_rejected(self):
        with pytest.raises(CatalogError):
            catalog_ring("so:5:char2", field=QQ)

    def test_entry_ids_round_trip(self, entries):
        seen = set()
        for entry in entries:
            assert entry.entry_id not in seen
            seen.add(entry.entry_id)
            again_id, again = catalog_ring(entry.entry_id)
            assert again_id == entry.entry_id
            assert again.dim == entry.algebra.dim
            assert degrees(again) == degrees(entry.algebra)

    def test_registry_census(self, entries):
        assert len(entries) == 48
        families = {e.entry_id.split(":")[0] for e in entries}
        assert families == {"so", "rp", "cp", "t", "s", "sigma"}


class TestFrozenCupLengths:
    """Cup lengths with independently known values."""

    def test_so5_char2(self):
        assert cup_length(so_ring(5, F2)).value == 8

    def test_torus(self):
        for n in range(1, 5):
            assert cup_length(torus_ring(n, QQ)).value == n

    def test_surface(self):
        res = cup_length(surface_ring(2, F2))
        assert res.value == 2
        assert res.exact

    def test_projective_spaces(self):
        assert cup_length(rp_ring(7)).value == 7
        assert cup_length(cp_ring(4)).value == 4

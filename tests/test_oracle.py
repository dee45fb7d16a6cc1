"""The brute-force oracle itself: selectors, caps, and hand-checked values.

The oracle exists to cross-check the engine, so these tests pin it only to
values small enough to confirm by hand, plus its error contract.  The full
oracle-vs-engine sweep lives in the acceptance suite.
"""

import pytest

from frametc.catalog import cp_ring, rp_ring, so_ring, surface_ring, torus_ring
from frametc.fields import F2, QQ
from oracle import OracleError, brute_force_cl


class TestSelectors:
    def test_positive(self):
        assert brute_force_cl(rp_ring(3), "positive") == 3
        assert brute_force_cl(torus_ring(2, QQ), "positive") == 2

    def test_zero_divisor_basic(self):
        assert brute_force_cl(cp_ring(1, QQ), "zero-divisor-basic") == 2
        assert brute_force_cl(torus_ring(2, QQ), "zero-divisor-basic") == 2

    def test_zero_divisor_full(self):
        assert brute_force_cl(rp_ring(3), "zero-divisor-full") == 3
        assert brute_force_cl(torus_ring(2, QQ), "zero-divisor-full") == 2
        assert brute_force_cl(cp_ring(1, QQ), "zero-divisor-full") == 2

    def test_table_encoding(self):
        A = surface_ring(2, F2)
        assert brute_force_cl(A, "positive") == 2
        assert brute_force_cl(A, "zero-divisor-basic") == 3
        assert brute_force_cl(A, "zero-divisor-full") == 3

    def test_point(self):
        A = so_ring(1, QQ)
        for ideal in ("positive", "zero-divisor-basic", "zero-divisor-full"):
            assert brute_force_cl(A, ideal) == 0

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            brute_force_cl(rp_ring(3), "everything")


class TestMaxLen:
    @pytest.mark.parametrize(
        "ideal", ["positive", "zero-divisor-basic", "zero-divisor-full"]
    )
    def test_insufficient_cap_raises(self, ideal):
        with pytest.raises(OracleError):
            brute_force_cl(rp_ring(3), ideal, max_len=2)

    def test_exact_cap_is_enough(self):
        assert brute_force_cl(rp_ring(3), "positive", max_len=3) == 3
        assert brute_force_cl(rp_ring(3), "zero-divisor-full", max_len=3) == 3

    def test_generous_cap_changes_nothing(self):
        assert brute_force_cl(rp_ring(7), "positive", max_len=50) == 7

    def test_default_cap_is_provably_sufficient(self):
        # Every ideal element has degree >= 1, so the grading bounds any
        # nonzero product length; the defaults never raise.
        for entry_ring in (rp_ring(7), so_ring(4, F2), surface_ring(3, QQ)):
            for ideal in ("positive", "zero-divisor-basic", "zero-divisor-full"):
                brute_force_cl(entry_ring, ideal)

"""Bound rules for TC of oriented frame bundles.

The numeric fixtures fall into two groups: closed-form sequences that can be
recomputed by hand from their defining formulas (mod-2 cup length of SO(n),
category of SO(n), the fiber zero-divisor closed form), and per-rule outputs
frozen from hand-evaluated instances of each inequality.  The closed forms
live in ``tests/closed_forms.py``; the rules read every SO(n) value from the
cup-length engine, which is checked against them here.
"""

import json
import os

import pytest

from frametc import bounds
from frametc.bounds import compute_bounds
from frametc.catalog import so_ring
from frametc.cuplength import cup_length, zcl_full
from frametc.examples import EXAMPLE_KEYS, example_descriptor
from frametc.fields import F2, QQ, field_of
from frametc.manifold import DescriptorError, ManifoldDescriptor, load_descriptor
from closed_forms import cat_so_lower, korbas_cl, zcl_so_closed_form
from helpers import interval_from_entries
from oracle import brute_force_cl

DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "descriptors")
RP7 = os.path.join(DESCRIPTOR_DIR, "rp7.json")


def table_torus() -> dict:
    """The t2 descriptor with the torus written as a table ring, which is searched."""
    with open(os.path.join(DESCRIPTOR_DIR, "t2.json"), encoding="utf-8") as fh:
        obj = json.load(fh)
    return {**obj, "cohomology": {"char=0": "sigma:1:char0", "char=2": "sigma:1:char2"}}


@pytest.fixture(scope="module")
def reports():
    return {key: compute_bounds(example_descriptor(key)) for key in EXAMPLE_KEYS}


def by_rule(report, rule, kind=None, field=None):
    hits = [
        e
        for e in report["entries"]
        if e["rule"] == rule
        and (kind is None or e["kind"] == kind)
        and (field is None or e.get("field") == field)
    ]
    assert hits, f"no entry for {rule}/{kind}/{field}"
    assert len(hits) == 1
    return hits[0]


class TestClosedForms:
    def test_mod2_cup_length_of_rotation_groups(self):
        # cl(SO(n); F2) = (n-1) + sum_i i * n_i * 2^(i-1) from the dyadic
        # expansion n = sum n_i 2^i; hand-checked for small n.
        assert [korbas_cl(n) for n in range(1, 11)] == [
            0, 1, 3, 4, 8, 9, 11, 12, 20, 21,
        ]

    def test_mod2_cup_length_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            korbas_cl(0)

    def test_category_of_rotation_groups(self):
        # cat = cl + 1 holds exactly in this range.
        assert [cup_length(so_ring(n, F2)).value + 1 for n in range(1, 11)] == [
            1, 2, 4, 5, 9, 10, 12, 13, 21, 22,
        ]

    def test_category_exactness_window(self):
        # Beyond the window only the lower bound cl + 1 is available.
        assert cat_so_lower(11) == 24
        assert cup_length(so_ring(11, F2)).value + 1 == 24

    def test_engine_fiber_values_match_closed_forms(self):
        # The rules take cl and zcl of SO(n) from the engine; the closed
        # formulas are the independent route they must agree with.
        for n in range(1, 13):
            cl = cup_length(so_ring(n, F2))
            assert (cl.value, cl.exact) == (korbas_cl(n), True), n
            for fld in (QQ, F2, field_of(3)):
                zcl = zcl_full(so_ring(n, fld))
                assert zcl.exact and zcl.verify(), (n, fld.characteristic)
                assert zcl.value == zcl_so_closed_form(n, fld), (n, fld.characteristic)

    def test_fiber_zero_divisor_closed_form(self):
        assert [zcl_so_closed_form(n, QQ) for n in range(1, 9)] == [
            0, 1, 1, 2, 2, 3, 3, 4,
        ]
        # In characteristic 2 the value is the mod-2 cup length.
        assert [zcl_so_closed_form(n, F2) for n in range(1, 9)] == [
            korbas_cl(n) for n in range(1, 9)
        ]

    def test_fiber_closed_form_matches_oracle_away_from_two(self):
        # Independent route: the brute-force oracle over every ring of
        # dimension <= 16 (all n <= 8) in characteristics 0, 3 and 5.
        for fld in (QQ, field_of(3), field_of(5)):
            for n in range(1, 9):
                A = so_ring(n, fld)
                assert A.dim <= 16
                assert (
                    brute_force_cl(A, "zero-divisor-basic")
                    == zcl_so_closed_form(n, fld)
                ), (n, fld.characteristic)


class TestRuleOutputs:
    def test_sphere_report(self, reports):
        rep = reports["s2"]
        assert rep["interval"] == [4, 4]
        assert by_rule(rep, "upper-farber")["value"] == 7
        assert by_rule(rep, "upper-free-action")["value"] == 6
        assert by_rule(rep, "frame-bundle-lie-group", kind="lower")["value"] == 4
        assert by_rule(rep, "frame-bundle-lie-group", kind="upper")["value"] == 4
        assert by_rule(rep, "lower-tncz", field="char=2")["value"] == 3
        assert by_rule(rep, "lower-spin")["value"] == 2
        assert len(rep["entries"]) == 6

    def test_torus_report(self, reports):
        rep = reports["t2"]
        assert rep["interval"] == [4, 4]
        assert by_rule(rep, "upper-free-action")["value"] == 4
        assert by_rule(rep, "upper-parallelizable")["value"] == 4
        assert by_rule(rep, "upper-lie")["value"] == 4
        assert by_rule(rep, "lower-tncz", field="char=0")["value"] == 4
        assert by_rule(rep, "lower-parallelizable", field="char=2")["value"] == 4
        assert by_rule(rep, "lower-dim-theorem", field="char=0")["value"] == 4

    def test_projective_space_report(self, reports):
        rep = reports["rp3"]
        assert rep["interval"] == [7, 7]
        # The two characteristics disagree sharply; the aggregate takes the max.
        assert by_rule(rep, "lower-tncz", field="char=0")["value"] == 3
        assert by_rule(rep, "lower-tncz", field="char=2")["value"] == 7
        assert by_rule(rep, "upper-parallelizable")["value"] == 7

    def test_complex_projective_report(self, reports):
        rep = reports["cp2"]
        assert rep["interval"] == [9, 15]
        assert by_rule(rep, "upper-free-action")["value"] == 15
        # The parity bump of lower-dim-theorem is quoted, not verified: for
        # SO(n), n >= 4, it exceeds the searched zcl(SO(n)) + 1; the entry
        # must say so.
        entry = by_rule(rep, "lower-dim-theorem", field="char=0")
        assert entry["value"] == 9
        assert any("parity bump" in note for note in entry.get("notes", []))
        # lower-tncz uses the searched fiber value: 2 + zcl(CP^2) + 1 = 7.
        entry = by_rule(rep, "lower-tncz", field="char=0")
        assert entry["value"] == 7
        assert not any("parity bump" in note for note in entry.get("notes", []))
        # Below n = 4 the bump equals zcl(SO(n)) + 1, and no note is added.
        entry = by_rule(reports["t2"], "lower-dim-theorem", field="char=0")
        assert not any("parity bump" in note for note in entry.get("notes", []))

    def test_exhausted_budget_is_noted_on_every_searched_entry(self, reports):
        # A zero node budget leaves the searched zcl(M) of a table ring a
        # lower bound: the entries that use it must say so, and the interval
        # can only get weaker, never stronger.  zcl(SO(2)) is read from its
        # formula, which no budget bounds.
        starved = compute_bounds(ManifoldDescriptor(table_torus()), budget=0)
        (lo, hi), (t2_lo, t2_hi) = starved["interval"], reports["t2"]["interval"]
        assert lo < t2_lo and hi == t2_hi
        assert compute_bounds(ManifoldDescriptor(table_torus()))["interval"] == [t2_lo, t2_hi]
        for entry in starved["entries"]:
            notes = entry.get("notes", [])
            if entry["rule"] in ("lower-tncz", "lower-parallelizable", "lower-dim-theorem"):
                assert any("budget exhausted for M" in n for n in notes)
            assert not any("budget exhausted for SO(2)" in n for n in notes)
        for field in ("char=0", "char=2"):
            notes = by_rule(starved, "lower-parallelizable", field=field).get("notes", [])
            assert any("budget exhausted for M" in n for n in notes)
        for entry in reports["t2"]["entries"]:
            assert not any("budget exhausted" in n for n in entry.get("notes", []))

    def test_starved_m_value_is_shared(self, run_cli, tmp_path):
        # lower-tncz, lower-parallelizable and lower-dim-theorem read one
        # zcl(M) search, so a starved budget gives them the same value and
        # the same note, and the cl route behind cat(SO(2)) has no budget to
        # starve.
        path = tmp_path / "table_torus.json"
        path.write_text(json.dumps(table_torus()))
        code, out, _ = run_cli(["frame-bundle", str(path), "--budget", "0", "--json", "--no-timing"])
        assert code == 2
        report = json.loads(out)
        assert report["interval"] == interval_from_entries(report)
        for field in ("char=0", "char=2"):
            tncz = by_rule(report, "lower-tncz", field=field)
            par = by_rule(report, "lower-parallelizable", field=field)
            assert tncz["value"] == par["value"]
            assert tncz.get("notes", []) == par.get("notes", [])
            assert tncz["notes"] == [bounds._BUDGET_NOTE.format("M")]
        dim = by_rule(report, "lower-dim-theorem", field="char=0")
        assert dim["notes"] == by_rule(report, "lower-tncz", field="char=0")["notes"]
        upper = by_rule(report, "upper-parallelizable")
        assert "cat(SO(2)) + TC(M) - 1 = 2 + 3 - 1" in upper["statement"]

    def test_each_fiber_ring_is_built_once(self, monkeypatch):
        built = []

        def counting(n, field):
            built.append((n, field.token()))
            return so_ring(n, field)

        monkeypatch.setattr(bounds, "so_ring", counting)
        report = compute_bounds(load_descriptor(RP7))
        assert report["interval"] == [19, 19]
        assert sorted(built) == [(7, "char=0"), (7, "char=2")]

    def test_bare_descriptor_defaults(self):
        rep = compute_bounds(ManifoldDescriptor({"name": "bare", "dim": 4}))
        assert rep["interval"] == [1, 15]
        rules = [e["rule"] for e in rep["entries"]]
        assert rules == ["upper-farber", "upper-free-action"]

    @pytest.mark.parametrize(
        "r, farber, upper",
        [(0, 18014398643699713, 9007199456067585), (2, 6004799547899905, 6004799547899905)],
    )
    def test_farber_bound_is_exact_beyond_float_precision(self, r, farber, upper):
        # dim F(M) = 2**53 + 2**26, so 2 dim F(M) + 1 has no exact float and
        # a float division rounds the ceiling down by one.  With r = 2 the
        # Farber bound is the interval's upper end.
        d = ManifoldDescriptor({"name": "big", "dim": 2**27, "connectivity": r})
        rep = compute_bounds(d)
        assert rep["frame_bundle_dim"] == 2**53 + 2**26
        assert by_rule(rep, "upper-farber")["value"] == farber
        assert rep["interval"][1] == upper

    def test_rule_order_is_fixed(self, reports):
        order = [
            "upper-farber",
            "upper-free-action",
            "upper-parallelizable",
            "upper-lie",
            "frame-bundle-lie-group",
            "lower-tncz",
            "lower-parallelizable",
            "lower-dim-theorem",
            "lower-paradiv",
            "lower-spin",
        ]
        for rep in reports.values():
            seen = [e["rule"] for e in rep["entries"]]
            positions = [order.index(r) for r in seen]
            assert positions == sorted(positions)


class TestCategoryWindow:
    # upper-parallelizable and upper-lie need cat(SO(n)) exactly, known for
    # n <= EXACT_CAT_SO_MAX = 10.
    @staticmethod
    def lie_group(dim):
        return ManifoldDescriptor({
            "name": "G", "dim": dim, "parallelizable": True, "lie_group": True,
            "known_tc_base": [1, 5], "known_cat_base": [1, 5],
        })

    def test_inside_the_window_both_rules_apply(self, monkeypatch):
        calls = []

        def counting(ring, *args, **kwargs):
            calls.append(ring)
            return cup_length(ring, *args, **kwargs)

        monkeypatch.setattr(bounds, "cup_length", counting)
        rep = compute_bounds(self.lie_group(10))
        # cat(SO(10)) + 5 - 1 = 22 + 5 - 1, from one cl(SO(10); F2).
        assert by_rule(rep, "upper-parallelizable")["value"] == 26
        assert by_rule(rep, "upper-lie")["value"] == 26
        assert len(calls) == 1

    def test_beyond_the_window_neither_rule_applies(self):
        rep = compute_bounds(self.lie_group(11))
        rules = {e["rule"] for e in rep["entries"]}
        assert not rules & {"upper-parallelizable", "upper-lie"}


class TestWarnings:
    def test_inconsistent_bounds_warn(self):
        d = ManifoldDescriptor(
            {
                "name": "odd",
                "dim": 3,
                "parallelizable": True,
                "known_tc_base": [None, 1],
                "cohomology": {"char=2": "rp:3"},
            }
        )
        rep = compute_bounds(d)
        lo, hi = rep["interval"]
        assert lo > hi
        assert rep["warnings"] and "inconsistent" in rep["warnings"][0]


class TestFrameBundleLieGroupRule:
    # The descriptor refuses these at construction, before any rule runs.
    def test_requires_rotation_group_id(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "X", "dim": 2, "frame_bundle_lie_group": "rp:3"})

    def test_requires_matching_dimension(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "X", "dim": 2, "frame_bundle_lie_group": "so:5"})

    def test_beyond_exact_window_only_bounds_below(self):
        # dim SO(11) = 55 = dim F(M) for dim M = 10.  cat(SO(11)) is only
        # known to be at least cl(SO(11); F2) + 1 = 24, so no upper entry.
        rep = compute_bounds(
            ManifoldDescriptor({"name": "X", "dim": 10, "frame_bundle_lie_group": "so:11"})
        )
        entries = [e for e in rep["entries"] if e["rule"] == "frame-bundle-lie-group"]
        assert [(e["kind"], e["value"]) for e in entries] == [("lower", 24)]
        assert rep["interval"] == [24, 66]

    def test_group_cup_length_is_computed_once(self, monkeypatch):
        # The upper entry cat(SO(3)) = cl + 1 reuses the lower entry's value.
        calls = []

        def counting(ring, *args, **kwargs):
            calls.append(ring)
            return cup_length(ring, *args, **kwargs)

        monkeypatch.setattr(bounds, "cup_length", counting)
        rep = compute_bounds(example_descriptor("s2"))
        assert len(calls) == 1
        lie = [e for e in rep["entries"] if e["rule"] == "frame-bundle-lie-group"]
        assert [(e["kind"], e["value"]) for e in lie] == [("lower", 4), ("upper", 4)]


class TestReportJson:
    def test_round_trip(self, reports):
        # The payload is plain JSON, and its interval is the one its entries give.
        for rep in reports.values():
            again = json.loads(json.dumps(rep))
            assert again == rep
            assert again["interval"] == interval_from_entries(again)

    def test_json_shape(self, reports):
        js = reports["s2"]
        assert sorted(js.keys()) == [
            "entries", "fiber", "frame_bundle_dim", "interval",
            "manifold", "warnings",
        ]
        assert js["fiber"] == 2 and js["frame_bundle_dim"] == 3

    def test_tampered_interval_rejected(self, reports):
        js = json.loads(json.dumps(reports["cp2"]))
        js["interval"] = [9, 3]
        assert interval_from_entries(js) == [9, 15] != js["interval"]

    @pytest.mark.parametrize("budget", [None, 0])
    def test_returned_payload_is_the_printed_payload(self, run_cli, budget):
        for name in sorted(os.listdir(DESCRIPTOR_DIR)):
            path = os.path.join(DESCRIPTOR_DIR, name)
            flags = [] if budget is None else ["--budget", str(budget)]
            _, out, _ = run_cli(["frame-bundle", path, "--json", "--no-timing"] + flags)
            kwargs = {} if budget is None else {"budget": budget}
            payload = compute_bounds(load_descriptor(path), **kwargs)
            assert payload == json.loads(out), name
            assert payload["interval"] == interval_from_entries(payload), name

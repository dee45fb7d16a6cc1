"""Command-line surface: output shapes, exit codes, reproducibility."""

import json
import os
import resource
import subprocess
import sys

import pytest

from frametc.algebra import DEFAULT_CAPACITY, MonomialAlgebra
from frametc.catalog import MAX_GENERATORS, rp_ring, sphere_ring
from frametc.fields import F2, MAX_CHARACTERISTIC
from frametc.cuplength import MAX_WITNESS, cup_length, zcl_full
from helpers import ring_to_json

DESCRIPTOR = os.path.join(os.path.dirname(__file__), "..", "descriptors", "s2.json")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def cli_child(argv, timeout, memory_mb=None):
    """Run ``frametc.cli`` with argv in a child held to ``timeout`` seconds
    and, if given, ``memory_mb`` of address space.  The child does not see
    pytest's ``pythonpath``, so ``src`` goes first on its PYTHONPATH."""
    path = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def cap_memory():
        limit = memory_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "frametc.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap_memory if memory_mb else None,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestRingCommand:
    def test_text_shape(self, run_cli):
        code, out, err = run_cli(
            ["ring", "rp:3", "--compute", "cl,basis,poincare", "--no-timing"]
        )
        assert code == 0 and err == ""
        assert "ring: rp:3:char2" in out
        assert "poincare: 1 1 1 1" in out
        assert "cl: 3 (exact; method closed-form)" in out
        assert "cl witness: a * a * a" in out

    def test_json_shape(self, run_cli):
        code, out, err = run_cli(["ring", "rp:3", "--json", "--no-timing"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"]["id"] == "rp:3:char2"
        assert payload["results"]["cl"]["value"] == 3
        assert payload["results"]["cl"]["witness_product"] == "a^3"
        assert payload["warnings"] == []

    def test_all_computations_at_once(self, run_cli):
        code, out, _ = run_cli(
            ["ring", "t:2:char0", "--json", "--no-timing",
             "--compute", "cl,zcl-basic,zcl-full,basis,poincare"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["cl"]["value"] == 2
        assert results["zcl-basic"]["value"] == 2
        assert results["zcl-full"]["value"] == 2
        assert len(results["basis"]) == 4

    def test_ring_from_file(self, run_cli, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring_to_json(rp_ring(3))))
        code, out, _ = run_cli(["ring", str(path), "--json", "--no-timing"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"]["id"] == str(path)
        assert payload["results"]["cl"]["value"] == 3

    def test_field_mismatch_on_file(self, run_cli, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring_to_json(rp_ring(3))))
        code, _, err = run_cli(
            ["ring", str(path), "--field", "char=3", "--no-timing"]
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("family", ["cp", "t", "s"])
    def test_empty_catalog_ring_is_refused(self, run_cli, family):
        code, out, err = run_cli(["ring", f"{family}:0:char0", "--no-timing"])
        assert (code, out, err) == (1, "", f"error: {family} requires n >= 1, got 0\n")

    @pytest.mark.parametrize(
        "ring",
        [
            {"type": "monomial", "generators": [{"name": "a", "degree": "1"}]},
            {"type": "monomial", "generators": [{"degree": 1}]},
            {"type": "monomial", "generators": [{"name": "a", "degree": True}]},
            {"type": "monomial", "generators": {"name": "a", "degree": 1}},
            {"type": "table", "basis": [{"name": "1", "degree": 0}], "products": 5},
            {"type": "table", "basis": [{"name": "1", "degree": 0}], "products": [[["1"], "1", "1", 1]]},
            {"type": "table", "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": -1}]},
            {"type": "table", "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": 1.5}]},
            {"type": "table", "basis": [{"name": "1", "degree": 0}, 7]},
            {"type": "table", "basis": [{"name": "1", "degree": 0}, {"degree": 1}]},
            {"type": "table", "basis": [{"name": "1", "degree": 0}], "products": [["1", "1", "1", "1/0"]]},
        ],
        ids=[
            "string-degree", "missing-name", "bool-degree", "generators-object",
            "products-number", "unhashable-name", "negative-degree", "float-degree",
            "basis-number", "missing-basis-name", "zero-denominator",
        ],
    )
    def test_malformed_ring_json_is_a_clean_error(self, run_cli, tmp_path, ring):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"field": {"char": 0}, **ring}))
        code, out, err = run_cli(["ring", str(path), "--compute", "zcl-full"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_exhausted_budget_is_a_warning_exit(self, run_cli):
        # Only a table ring is searched, so only it can run out of budget.
        code, out, _ = run_cli(
            ["ring", "sigma:2:char2", "--compute", "zcl-basic",
             "--budget", "3", "--no-timing"]
        )
        assert code == 2
        assert "budget exhausted" in out


    def test_exhausted_budget_on_zcl_full_is_a_warning_exit(self, run_cli):
        code, out, _ = run_cli(
            ["ring", "sigma:2:char2", "--compute", "zcl-full",
             "--budget", "3", "--no-timing"]
        )
        assert code == 2
        assert "zcl-full budget exhausted" in out
        assert "lower bound (budget exhausted)" in out

    def test_monomial_rings_print_alike_at_every_budget(self, run_cli, entries):
        # cl and zcl of a monomial ring come from formulas, which no budget
        # bounds: the same bytes and exit code at budget 0, 1 and the default.
        checked = 0
        for entry in entries:
            if not isinstance(entry.algebra, MonomialAlgebra):
                continue
            for mode in ([], ["--json"]):
                argv = ["ring", entry.entry_id, "--compute", "cl,zcl-basic,zcl-full",
                        "--no-timing", *mode]
                default = run_cli(argv)
                assert default[0] == 0, (entry.entry_id, mode)
                for budget in ("0", "1"):
                    starved = run_cli(argv + ["--budget", budget])
                    assert starved == default, (entry.entry_id, budget, mode)
            checked += 1
        assert checked == len(entries) - 6  # all but the six surfaces

    def test_exhausted_budget_on_cl_is_a_warning_exit(self, run_cli):
        code, out, _ = run_cli(
            ["ring", "sigma:3:char2", "--compute", "cl",
             "--budget", "3", "--no-timing"]
        )
        assert code == 2
        assert "cl budget exhausted" in out
        assert "lower bound (budget exhausted)" in out

    def test_deep_zcl_search_answers(self, run_cli):
        code, out, err = run_cli(
            ["ring", "rp:1000", "--compute", "zcl-full", "--json", "--no-timing"]
        )
        assert code == 0 and err == ""
        res = json.loads(out)["results"]["zcl-full"]
        assert (res["value"], res["exact"]) == (1023, True)

    def test_surface_cl_stops_at_its_degree_bound(self, run_cli):
        # cl = 2 = top degree // 1 is reached at a1·b1, node g + 2; walking
        # every pair instead would exhaust the default budget.
        code, out, err = run_cli(
            ["ring", "sigma:600:char0", "--compute", "cl", "--json", "--no-timing"]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["warnings"] == []
        cl = payload["results"]["cl"]
        assert (cl["value"], cl["exact"], cl["nodes"]) == (2, True, 602)
        assert (cl["witness"], cl["witness_product"]) == (["a1", "b1"], "w")

    def test_surface_zcl_witness_survives_the_degree_bound(self, run_cli):
        code, out, _ = run_cli(
            ["ring", "sigma:12:char0", "--compute", "zcl-basic,zcl-full",
             "--json", "--no-timing"]
        )
        assert code == 0
        for res in json.loads(out)["results"].values():
            assert (res["value"], res["exact"], res["nodes"]) == (4, True, 17)
            assert res["witness"] == [
                f"1⊗{x} - {x}⊗1" for x in ("a1", "a2", "b1", "b2")
            ]
            assert res["witness_product"] == "-2·w⊗w"

    def test_point_table_ring_is_zero(self, run_cli, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(
            {"field": {"char": 0}, "type": "table", "basis": [{"name": "1", "degree": 0}]}
        ))
        code, out, _ = run_cli(
            ["ring", str(path), "--compute", "cl,zcl-basic,zcl-full", "--json", "--no-timing"]
        )
        assert code == 0
        for res in json.loads(out)["results"].values():
            assert (res["value"], res["exact"], res["witness"]) == (0, True, [])
            assert "nodes" not in res

    def test_fractional_constants_stay_exact(self, run_cli, tmp_path):
        # sigma:2 over Q with non-integral "p/q" structure constants.
        names = ["1", "a1", "a2", "b1", "b2", "w"]
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({
            "field": {"char": 0},
            "type": "table",
            "basis": [{"name": n, "degree": d} for n, d in zip(names, [0, 1, 1, 1, 1, 2])],
            "products": [
                ["a1", "b1", "w", "1/2"], ["b1", "a1", "w", "-1/2"],
                ["a2", "b2", "w", "-2/3"], ["b2", "a2", "w", "2/3"],
            ],
        }))
        code, out, _ = run_cli(["ring", str(path), "--compute", "cl,zcl-full", "--no-timing"])
        assert code == 0
        lines = out.splitlines()
        assert "cl: 2 (exact; method search)" in lines
        assert "cl witness product: 1/2·w" in lines
        assert "zcl-full: 4 (exact; method generator-bars)" in lines
        assert "zcl-full witness product: 2/3·w⊗w" in lines

    def test_non_unit_class_named_one_is_refused(self, run_cli, tmp_path):
        # "1" prints as a bare scalar, so the witness product x·x of this
        # table would read as the unit although its degree is 2.
        path = tmp_path / "named_one.json"
        path.write_text(json.dumps({
            "field": {"char": 2},
            "type": "table",
            "basis": [{"name": n, "degree": d} for n, d in [("e", 0), ("x", 1), ("1", 2)]],
            "products": [["x", "x", "1", 1]],
        }))
        code, out, err = run_cli(["ring", str(path), "--compute", "cl", "--no-timing"])
        assert (code, out) == (1, "")
        assert err == (
            'error: basis class "1" has degree 2; only the unit may be named "1", '
            "which prints as a scalar\n"
        )

    def test_monomial_generator_named_one_is_refused(self, run_cli, tmp_path):
        # A generator named "1" would print its powers as the unit and share
        # the label "1" with the unit class.
        path = tmp_path / "generator_one.json"
        path.write_text(json.dumps({
            "field": {"char": 2},
            "type": "monomial",
            "generators": [{"name": "1", "degree": 1, "truncation": 3}],
        }))
        code, out, err = run_cli(["ring", str(path), "--compute", "cl,basis", "--no-timing"])
        assert (code, out) == (1, "")
        assert err == (
            'error: generator "1" has degree 1; only the unit may be named "1", '
            "which prints as a scalar\n"
        )

    def test_budget_must_be_nonnegative(self, run_cli):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ring", "so:5:char2", "--compute", "zcl-basic", "--budget", "-5"])
        assert exc.value.code == 2
        code, _, _ = run_cli(["ring", "rp:3", "--compute", "cl", "--budget", "0"])
        assert code == 0

    def test_capacity_must_be_positive(self, run_cli):
        for flag in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run_cli(["frame-bundle", "s2", "--capacity", flag])
            assert exc.value.code == 2
        code, _, _ = run_cli(["ring", "rp:1", "--capacity", "1", "--compute", "poincare"])
        assert code == 1  # rp:1 has dimension 2, above the cap: a clean error


    def test_both_zero_divisor_items_come_from_one_search(self, run_cli, monkeypatch):
        import frametc.cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return zcl_full(*args, **kwargs)

        monkeypatch.setattr(frametc.cli, "zcl_full", counted)
        code, out, _ = run_cli(
            ["ring", "so:13:char2", "--compute", "zcl-basic,zcl-full", "--json", "--no-timing"]
        )
        assert code == 0 and len(calls) == 1
        results = json.loads(out)["results"]
        assert results["zcl-basic"] == results["zcl-full"]
        assert results["zcl-basic"]["value"] == 28
        assert results["zcl-basic"]["method"] == "factorization"

    def test_repeated_compute_item_runs_and_warns_once(self, run_cli, monkeypatch):
        import frametc.cli

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return cup_length(*args, **kwargs)

        monkeypatch.setattr(frametc.cli, "cup_length", counted)
        code, out, _ = run_cli(
            ["ring", "sigma:3:char0", "--compute", "zcl-full,zcl-full,cl,cl",
             "--budget", "1", "--json", "--no-timing"]
        )
        assert code == 2 and len(calls) == 1
        payload = json.loads(out)
        assert list(payload["results"]) == ["zcl-full", "cl"]
        assert payload["warnings"] == [
            "zcl-full budget exhausted; reported value is a lower bound",
            "cl budget exhausted; reported value is a lower bound",
        ]

    def test_rings_beyond_the_old_cap_answer_at_default_flags(self, run_cli):
        code, out, err = run_cli(
            ["ring", "so:24:char2", "--compute", "cl,zcl-full", "--json", "--no-timing"]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["ring"]["dimension"] == 2**23
        assert payload["ring"]["top_degree"] == 276  # dim SO(24)
        for item in ("cl", "zcl-full"):
            assert payload["results"][item]["value"] == 60
            assert payload["results"][item]["exact"] is True

    def test_basis_listing_is_capped(self, run_cli):
        for item in ("basis", "poincare"):
            code, out, err = run_cli(["ring", "so:24:char2", "--compute", item])
            assert code == 1 and out == ""
            assert "dimension 8388608 exceeds capacity 4096" in err, item
            assert "Traceback" not in err
        # The flag lifts the cap: so:14 lists 8192 classes.
        code, out, _ = run_cli(
            ["ring", "so:14:char2", "--compute", "poincare", "--capacity", "8192",
             "--json", "--no-timing"]
        )
        assert code == 0 and sum(json.loads(out)["results"]["poincare"]) == 2**13

    def test_capacity_refusal_keeps_the_other_items(self, run_cli):
        refused = "--compute basis: dimension 32768 exceeds capacity 4096"
        argv = ["ring", "so:16:char2", "--compute", "cl,basis,zcl-full", "--no-timing"]
        code, out, err = run_cli(argv)
        assert (code, err) == (2, "")
        assert "cl: 32 (exact; method closed-form)\n" in out
        assert "zcl-full: 32 (exact; method factorization)\n" in out
        assert "\nbasis:" not in out and out.endswith(f"\nwarning: {refused}\n")
        code, out, err = run_cli(argv + ["--json"])
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert list(payload["results"]) == ["cl", "zcl-full"]
        assert payload["warnings"] == [refused]

    @pytest.mark.parametrize(
        "ring, dimension, cl",
        [("t:63:char0", 2**63, 63), ("so:65:char2", 2**64, 256)],
    )
    def test_dimension_past_sys_maxsize(self, run_cli, ring, dimension, cl):
        # len() of a lazy view stops at sys.maxsize; the encoding's dim does not.
        for item in ("cl", "zcl-full"):
            code, out, err = run_cli(["ring", ring, "--compute", item, "--no-timing"])
            assert code == 0 and err == ""
            assert f"dimension: {dimension}\n" in out
        code, out, _ = run_cli(["ring", ring, "--no-timing"])
        assert code == 0 and f"cl: {cl} (exact" in out

    def test_cl_witness_longer_than_a_list_is_refused(self, run_cli):
        # cl(RP^n; F2) = n, witnessed by n copies of the generator: past
        # MAX_WITNESS factors the closed form refuses.
        for n in (99999999999999999999, MAX_WITNESS + 1):
            code, out, err = run_cli(["ring", f"rp:{n}", "--compute", "cl"])
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"would have {n} factors; at most MAX_WITNESS = {MAX_WITNESS}" in err

    def test_cl_witness_past_the_limit_is_refused_at_once(self):
        # cl(CP^n; Q) = n.  For n = 30,000,000 the witness list was built,
        # re-multiplied and printed, past 40 s and 700 MB; now the call
        # exits 1 in a child held to 100 MB of address space and 5 s.
        proc = cli_child(
            ["ring", "cp:30000000:char0", "--compute", "cl", "--no-timing"],
            timeout=5,
            memory_mb=100,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: the cl witness would have 30000000 factors; at most "
            f"MAX_WITNESS = {MAX_WITNESS} are listed\n"
        )

    def test_zcl_witness_past_the_limit_is_refused_at_once(self):
        # zcl(RP^n; F2) = 2^bitlen(n) − 1 is read from a formula, so a witness
        # past MAX_WITNESS is refused before any part is built, whatever the
        # budget, as cl is.
        for budget in ([], ["--budget", "10"]):
            proc = cli_child(
                ["ring", "rp:99999999999999999999", "--compute", "zcl-full",
                 "--no-timing", *budget],
                timeout=5,
            )
            assert (proc.returncode, proc.stdout) == (1, ""), budget
            assert proc.stderr == (
                f"error: the zcl witness would have {2**67 - 1} factors; at most "
                f"MAX_WITNESS = {MAX_WITNESS} are listed\n"
            ), budget

    def test_witness_refusal_keeps_the_other_items(self, run_cli):
        # zcl(CP^300000; Q) = 600000 is past MAX_WITNESS and refused; cl =
        # 300000 is not, and stays.  Only a command whose every item is
        # refused exits 1, with the refusal of the first witness.
        refused = (
            "the zcl witness would have 600000 factors; at most "
            f"MAX_WITNESS = {MAX_WITNESS} are listed"
        )
        argv = ["ring", "cp:300000:char0", "--json", "--no-timing", "--compute"]
        code, out, err = run_cli(argv + ["zcl-full,cl,basis,zcl-basic"])
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert list(payload["results"]) == ["cl"]
        assert payload["results"]["cl"]["value"] == 300000
        assert payload["warnings"] == [
            f"--compute zcl-full: {refused}",
            f"--compute basis: dimension 300001 exceeds capacity {DEFAULT_CAPACITY}",
            f"--compute zcl-basic: {refused}",
        ]
        for items in ("zcl-full", "basis,zcl-full", "zcl-basic,poincare,zcl-full"):
            assert run_cli(argv + [items]) == (1, "", f"error: {refused}\n"), items

    def test_long_zcl_witness_verifies_at_once(self):
        # zcl(RP^20000; F2) = 2^15 − 1 = 32767 bars of one generator.  Raised
        # by repeated squaring, the witness verifies in well under 5 s; a
        # chain of 32766 products of up to 20001 terms took 17 s.
        proc = cli_child(
            ["ring", "rp:20000", "--compute", "zcl-full", "--json", "--no-timing"], timeout=5
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        zcl = json.loads(proc.stdout)["results"]["zcl-full"]
        assert (zcl["value"], zcl["exact"], len(zcl["witness"])) == (32767, True, 32767)

    def test_so_ring_too_long_to_print_is_refused(self, run_cli):
        # so:n:char2 has dimension 2^(n-1): 2^14284 has 4300 digits, the
        # most Python prints by default, and 2^14285 has 4301.  The limit is
        # read at run time and the ring refused before any item runs.
        refused = (
            "error: ring so:14286:char2: its dimension, of 14286 bits, has more "
            "than the 4300 digits Python prints of an integer\n"
        )
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            for extra in ([], ["--json"], ["--compute", "zcl-full,basis"]):
                code, out, err = run_cli(["ring", "so:14286:char2", "--no-timing", *extra])
                assert (code, out, err) == (1, "", refused)
                assert "set_int_max_str_digits" not in err
            for n, cl in ((14284, 101208), (14285, 101212)):
                code, out, err = run_cli(["ring", f"so:{n}:char2", "--no-timing"])
                assert code == 0 and err == ""
                assert f"\ndimension: {2 ** (n - 1)}\n" in out
                assert f"\ncl: {cl} (exact; method closed-form)\n" in out
        finally:
            sys.set_int_max_str_digits(before)

    def test_ring_file_too_long_to_print_is_refused(self, run_cli, tmp_path):
        # 7,143 generators of truncation 4: dimension 2^14286, 4301 digits.
        # Refused under the default limit; printed when there is none (0).
        ring = str(tmp_path / "long-dimension.json")
        gens = [{"name": f"x{i}", "degree": 2, "truncation": 4} for i in range(7143)]
        with open(ring, "w", encoding="utf-8") as fh:
            json.dump({"field": {"char": 2}, "type": "monomial", "generators": gens}, fh)
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            refused = run_cli(["ring", ring, "--no-timing"])
            sys.set_int_max_str_digits(0)
            code, out, err = run_cli(["ring", ring, "--no-timing"])
        finally:
            sys.set_int_max_str_digits(before)
        assert refused == (
            1,
            "",
            f"error: ring {ring}: its dimension, of 14287 bits, has more than the "
            "4300 digits Python prints of an integer\n",
        )
        assert code == 0 and err == "" and "\ncl: 21429 (exact; method closed-form)\n" in out

    @pytest.mark.parametrize(
        "ring",
        ["so:99999999999999999999:char2", "t:99999999999999999999:char0", "monomial-file"],
    )
    def test_absurd_generator_count_is_refused_before_building(self, ring, tmp_path):
        # Each id would have about 10^20 generators, and the ring file lists
        # one more than the limit.  The ring is refused from its generator
        # count, in a child held to 100 MB of address space and a wall
        # timeout; without the refusal the child runs out of memory building
        # GeneratorSpecs, or runs past the timeout building the ring.
        if ring == "monomial-file":
            ring = str(tmp_path / "many-generators.json")
            gens = [{"name": f"x{i}", "degree": 1} for i in range(MAX_GENERATORS + 1)]
            with open(ring, "w", encoding="utf-8") as fh:
                json.dump({"field": {"char": 2}, "type": "monomial", "generators": gens}, fh)
        proc = cli_child(["ring", ring, "--no-timing"], timeout=10, memory_mb=100)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"at most {MAX_GENERATORS} generators" in proc.stderr

    def test_characteristic_past_the_limit_is_refused_at_once(self):
        # Trial division would prove 2**61 - 1 prime in about 1.5e9 steps;
        # the field refuses it before trying, in a child held to 5 s.
        proc = cli_child(["ring", "so:3:char2305843009213693951"], timeout=5)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: characteristic {2**61 - 1} exceeds the limit {MAX_CHARACTERISTIC}\n"
        )


class TestFrameBundleCommand:
    def test_text_shape(self, run_cli):
        code, out, _ = run_cli(["frame-bundle", "s2", "--no-timing"])
        assert code == 0
        assert "interval: TC(F(M)) in [4, 4]" in out
        assert "rule\tkind\tvalue\tfield\tstatement" in out

    def test_json_validates_against_schema(self, run_cli, schema_validator):
        validator = schema_validator("report.schema.json")
        for key in ("s2", "t2", "rp3"):
            code, out, _ = run_cli(["frame-bundle", key, "--json", "--no-timing"])
            assert code == 0
            assert not list(validator.iter_errors(json.loads(out))), key

    def test_unknown_key(self, run_cli):
        code, _, err = run_cli(["frame-bundle", "klein", "--no-timing"])
        assert code == 1
        assert "neither a descriptor file nor a built-in key" in err

    def test_missing_file(self, run_cli):
        code, _, err = run_cli(["frame-bundle", "no/such/file.json"])
        assert code == 1 and "error:" in err

    def test_mistyped_descriptor_fields_are_clean_errors(self, run_cli, schema_validator, tmp_path):
        validator = schema_validator("manifold.schema.json")
        required = set(validator.schema["required"])
        with open(DESCRIPTOR, encoding="utf-8") as fh:
            base = json.load(fh)
        wrong = [5, -1, 2.5, True, None, "x", [], [1], ["char=2"], [None, 3], {}, {"a": 1}]
        # Near misses of the schema's patterns and uniqueness, which the
        # loader once read leniently.
        wrong += ["so:3:char0", "so:3:char=7", " so:3", ["char=2", "char=2"]]
        path = tmp_path / "m.json"
        for field in base:
            for value in wrong:
                if value == base[field]:
                    continue
                doc = {**base, field: value}
                path.write_text(json.dumps(doc))
                # main re-raises any error it has no message for, failing here
                code, out, err = run_cli(["frame-bundle", str(path), "--no-timing"])
                assert "Traceback" not in err, (field, value)
                if code == 1:
                    assert out == "" and err.startswith("error: "), (field, value)
                if value is None and field not in required:
                    # null on an optional field is refused or means the field is absent
                    if code != 1:
                        path.write_text(json.dumps({k: v for k, v in base.items() if k != field}))
                        absent = run_cli(["frame-bundle", str(path), "--no-timing"])
                        assert (code, out, err) == absent, field
                elif not validator.is_valid(doc):
                    assert code == 1, (field, value)
        for value in (5, True, ["so:3"], "so:3:char0", "so:3:char=7", " so:3"):
            path.write_text(json.dumps({**base, "frame_bundle_lie_group": value}))
            code, _, err = run_cli(["frame-bundle", str(path), "--no-timing"])
            assert code == 1 and "frame_bundle_lie_group must be an so:k id" in err

    @pytest.mark.parametrize(
        "known",
        [
            {"known_cat_base": -1},
            {"known_tc_base": 0},
            {"known_tc_base": [True, 2]},
            {"known_cat_base": [2, False]},
            {"known_tc_base": [0, 3]},
            {"known_cat_base": [None, -2]},
            {"known_cat_base": -1, "known_tc_base": [True, 2]},
        ],
    )
    def test_known_base_values_below_one_are_clean_errors(
        self, run_cli, schema_validator, tmp_path, known
    ):
        # TC and cat are unreduced (a point has 1), so the schema and the
        # loader both refuse values below 1 and boolean endpoints.
        t2 = os.path.join(os.path.dirname(DESCRIPTOR), "t2.json")
        with open(t2, encoding="utf-8") as fh:
            doc = {**json.load(fh), **known}
        assert not schema_validator("manifold.schema.json").is_valid(doc)
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["frame-bundle", str(path), "--no-timing"])
        assert code == 1 and out == "" and err.startswith("error: "), err
        assert "known_" in err

    def test_field_named_twice_is_a_clean_error(self, run_cli, tmp_path):
        with open(DESCRIPTOR, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["cohomology"] = {"char=2": "s:2:char2", "char2": "rp:2"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["frame-bundle", str(path), "--no-timing"])
        assert code == 1 and out == "" and err.startswith("error: "), err
        assert "char=2 twice" in err

    def test_tncz_field_named_twice_is_a_clean_error(self, run_cli, tmp_path):
        with open(DESCRIPTOR, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["tncz_fields"] = ["char=2", "char2"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["frame-bundle", str(path), "--no-timing"])
        assert code == 1 and out == "" and err.startswith("error: "), err
        assert "tncz_fields names char=2 twice" in err

    def test_ring_file_resolves_alike_for_ring_and_descriptor(
        self, run_cli, tmp_path, monkeypatch
    ):
        # "myring" has no slash and no .json suffix: an existing file wins
        # over the catalog, for the ring argument and for a cohomology value.
        (tmp_path / "myring").write_text(json.dumps(ring_to_json(sphere_ring(2, F2))))
        monkeypatch.chdir(tmp_path)
        compute = ["--json", "--no-timing", "--compute", "cl,zcl-full,basis"]
        code, from_file, _ = run_cli(["ring", "myring", *compute])
        _, from_catalog, _ = run_cli(["ring", "s:2:char2", *compute])
        assert code == 0
        assert json.loads(from_file)["results"] == json.loads(from_catalog)["results"]
        with open(DESCRIPTOR, encoding="utf-8") as fh:
            doc = json.load(fh)
        _, original, _ = run_cli(["frame-bundle", DESCRIPTOR, "--json", "--no-timing"])
        doc["cohomology"]["char=2"] = "myring"
        (tmp_path / "m.json").write_text(json.dumps(doc))
        code, out, err = run_cli(["frame-bundle", "m.json", "--json", "--no-timing"])
        assert code == 0 and err == ""
        assert json.loads(out)["entries"] == json.loads(original)["entries"]

    def test_torus13_beyond_the_old_cap(self, run_cli, tmp_path):
        # H*(T^13) has 8192 classes, above the default capacity of 4096,
        # which used to refuse the monomial ring and lose the whole report.
        t3 = os.path.join(os.path.dirname(DESCRIPTOR), "t3.json")
        with open(t3, encoding="utf-8") as fh:
            descriptor = json.load(fh)
        descriptor.update(
            name="T^13",
            dim=13,
            free_action_dim=13,
            cohomology={"char=0": "t:13:char0", "char=2": "t:13:char2"},
            known_tc_base=[14, 14],
            known_cat_base=[14, 14],
        )
        path = tmp_path / "t13.json"
        path.write_text(json.dumps(descriptor))
        code, out, err = run_cli(["frame-bundle", str(path), "--json", "--no-timing"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["interval"] == [42, 92] and report["warnings"] == []
        # zcl(SO(13)) is 28 over F2 and 6 over Q; zcl(T^13) = 13; all searched.
        values = {(e["rule"], e.get("field")): e["value"] for e in report["entries"]}
        assert values[("lower-parallelizable", "char=2")] == 28 + 13 + 1
        assert values[("lower-parallelizable", "char=0")] == 6 + 13 + 1
        assert len(report["entries"]) == 9

    def test_frame_bundle_of_dimension_past_sys_maxsize(self, run_cli, tmp_path):
        # F(S^64) = SO(65), whose mod-2 ring has 2^64 classes.
        path = tmp_path / "s64.json"
        path.write_text(
            json.dumps({"name": "S^64", "dim": 64, "frame_bundle_lie_group": "so:65"})
        )
        code, out, err = run_cli(["frame-bundle", str(path), "--json", "--no-timing"])
        assert code == 0 and err == ""
        assert json.loads(out)["interval"] == [257, 2145]

    def test_exhausted_budget_is_a_warning_exit(self, run_cli):
        # The genus-2 surface is a table ring, whose zcl is searched.
        path = os.path.join(os.path.dirname(DESCRIPTOR), "sigma2.json")
        code, out, _ = run_cli(["frame-bundle", path, "--budget", "0", "--json"])
        payload = json.loads(out)
        assert code == 2
        assert payload["interval"] == [2, 6]  # a valid but starved interval
        assert len(payload["warnings"]) == 1
        assert "budget exhausted" in payload["warnings"][0]
        code, out, _ = run_cli(["frame-bundle", path, "--json"])
        assert code == 0 and json.loads(out)["warnings"] == []

    def test_a_refused_ring_keeps_the_other_fields_entries(self, run_cli, tmp_path):
        # so:20004 has 10,002 generators, past MAX_GENERATORS; only the
        # char=2 entries need it, and they alone are left out.
        both = {
            "name": "M", "dim": 2, "tncz_fields": ["char=0", "char=2"],
            "cohomology": {"char=0": "s:2:char0", "char=2": "so:20004:char2"},
        }
        char0 = {**both, "cohomology": {"char=0": "s:2:char0"}}
        runs = []
        for name, obj in (("both", both), ("char0", char0)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            runs.append(run_cli(["frame-bundle", str(path), "--json", "--no-timing"]))
        (code, out, err), (code0, out0, _) = runs
        assert (code, err, code0) == (2, "", 0)
        payload, expected = json.loads(out), json.loads(out0)
        assert payload["warnings"] == [
            "zcl(M) over char=2 refused: so:20004 has 10002 generators; the catalog "
            f"builds rings of at most {MAX_GENERATORS} generators; the entries that "
            "need it are left out"
        ]
        assert payload["entries"] == expected["entries"]
        assert payload["interval"] == expected["interval"] == [4, 6]
        assert {e.get("field") for e in payload["entries"]} == {None, "char=0"}

    def test_a_refused_lie_group_keeps_the_other_entries(self, run_cli, tmp_path):
        # F(M) = SO(20004) needs cl(SO(20004); F2), whose ring of 10,002
        # generators is refused: its entries are left out, and the entries
        # that need no ring stay.
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"name": "big", "dim": 20003, "spin": True, "frame_bundle_lie_group": "so:20004"}
        ))
        code, out, err = run_cli(["frame-bundle", str(path), "--json", "--no-timing"])
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["warnings"] == [
            "cl(SO(20004)) over char=2 refused: so:20004 has 10002 generators; the "
            f"catalog builds rings of at most {MAX_GENERATORS} generators; the entries "
            "that need it are left out"
        ]
        assert [e["rule"] for e in payload["entries"]] == [
            "upper-farber", "upper-free-action", "lower-spin"
        ]
        assert payload["interval"] == [20003, 200090010]


class TestExamplesCommand:
    def test_agreeing_subset_exits_zero(self, run_cli):
        code, out, _ = run_cli(["examples", "rp1", "t2", "--no-timing"])
        assert code == 0
        assert "yes" in out and "NO" not in out

    def test_disagreeing_row_exits_two(self, run_cli):
        code, out, _ = run_cli(["examples", "s2", "t3", "--no-timing"])
        assert code == 2
        assert "NO" in out
        assert "note (t3):" in out

    def test_budget_zero_warns_under_each_row_in_text(self, run_cli):
        # The surfaces are table rings, searched; rp1's rings take formulas.
        code, out, _ = run_cli(
            ["examples", "rp1", "sigma2", "sigma3", "--budget", "0", "--no-timing"]
        )
        assert code == 2
        warning = (
            "zero-divisor search budget exhausted: entries noting it use a searched"
            " lower value, so the lower end may rise with a larger --budget"
        )
        assert [line for line in out.splitlines() if line.startswith("warning")] == [
            f"warning (sigma2): {warning}", f"warning (sigma3): {warning}"
        ]

    def test_json_mode(self, run_cli):
        code, out, _ = run_cli(["examples", "rp1", "--json", "--no-timing"])
        assert code == 0
        rows = json.loads(out)["examples"]
        assert rows[0]["key"] == "rp1" and rows[0]["agrees"] is True

    def test_unknown_example(self, run_cli):
        code, _, err = run_cli(["examples", "rp2", "--no-timing"])
        assert code == 1 and "unknown example keys" in err
        assert err.startswith("error: unknown example keys")


class TestCommonFlags:
    def test_bad_compute_item(self, run_cli):
        code, _, err = run_cli(["ring", "rp:3", "--compute", "bogus"])
        assert code == 1 and "unknown --compute item" in err

    @pytest.mark.parametrize("items", [",", ""])
    def test_empty_compute_list(self, run_cli, items):
        code, out, err = run_cli(["ring", "so:5:char2", "--compute", items])
        assert code == 1 and out == ""
        assert err.startswith("error: --compute names no item")

    def test_threads_must_be_positive(self, run_cli):
        with pytest.raises(SystemExit):
            run_cli(["ring", "rp:3", "--threads", "0"])

    def test_thread_count_never_changes_output(self, run_cli):
        for argv in (
            ["ring", "so:4:char2", "--compute", "cl,zcl-basic", "--json"],
            ["frame-bundle", "rp3", "--json"],
            ["examples", "t2"],
        ):
            runs = [
                run_cli(argv + ["--no-timing", "--threads", str(n)])
                for n in (1, 4)
            ]
            assert runs[0] == runs[1]

    def test_timing_line_present_by_default(self, run_cli):
        _, text_out, _ = run_cli(["ring", "rp:3"])
        assert "elapsed" in text_out
        _, json_out, _ = run_cli(["ring", "rp:3", "--json"])
        assert "elapsed_seconds" in json.loads(json_out)

    def test_no_timing_removes_it(self, run_cli):
        _, out, _ = run_cli(["ring", "rp:3", "--json", "--no-timing"])
        assert "elapsed_seconds" not in json.loads(out)

    def test_out_of_memory_is_a_clean_error(self, run_cli, monkeypatch):
        import frametc.cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(frametc.cli, "zcl_full", exhausted)
        code, out, err = run_cli(["ring", "so:4:char2", "--compute", "zcl-full"])
        assert code == 1 and out == ""
        assert err.startswith("error: out of memory")
        assert "--capacity" in err and "Traceback" not in err
        # The advice names what the cap covers; it caps no monomial ring.
        assert "--capacity caps only table rings and --compute basis,poincare" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = cli_child(["ring", "rp:3", "--no-timing"], timeout=120)
        assert proc.returncode == 0
        assert "cl: 3" in proc.stdout

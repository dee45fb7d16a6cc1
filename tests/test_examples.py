"""Worked-example table: golden intervals, the designed torus discrepancy,
and the shipped descriptor files the built-in rows are read from."""

import os

import pytest

from frametc import examples
from frametc.examples import EXAMPLE_KEYS, evaluate_examples, example_descriptor
from frametc.manifold import load_descriptor

KEYS = [
    "rp1", "rp3", "rp7", "s2", "t2", "t3",
    "sigma2", "sigma3", "generic3", "irreducible3", "cp2", "cp3",
]
PACKAGE_DIR = os.path.join(os.path.dirname(examples.__file__), "descriptors")
ROOT_DIR = os.path.join(os.path.dirname(__file__), "..", "descriptors")

# Stated intervals, independently rechecked against each rule by hand.
GOLDEN = {
    "rp1": (2, 2),
    "rp3": (7, 7),
    "rp7": (19, 19),
    "s2": (4, 4),
    "t2": (4, 4),
    "sigma2": (5, 6),
    "sigma3": (5, 6),
    "generic3": (5, 10),
    "irreducible3": (7, 10),
    "cp2": (9, 15),
    "cp3": (12, 28),
}


@pytest.fixture(scope="module")
def results():
    return {r["key"]: r for r in evaluate_examples()}


class TestRows:
    def test_keys_and_order(self):
        assert list(EXAMPLE_KEYS) == KEYS
        assert [r["key"] for r in evaluate_examples()] == KEYS

    def test_every_row_has_stated_interval(self):
        for key, _, stated, _ in examples._TABLE:
            lo, hi = stated
            assert type(lo) is int and type(hi) is int and lo <= hi, key

    def test_descriptor_of_a_key_is_its_file(self):
        for key in KEYS:
            got = example_descriptor(key).to_json()
            assert got == load_descriptor(os.path.join(ROOT_DIR, f"{key}.json")).to_json()


class TestAgreement:
    def test_golden_rows_agree(self, results):
        for key, interval in GOLDEN.items():
            row = results[key]
            assert tuple(row["stated"]) == interval, key
            assert tuple(row["derived"]) == interval, key
            assert row["agrees"], key

    def test_torus_three_is_the_known_outlier(self, results):
        # The stated interval for the 3-torus is one above what the rules
        # support; the evaluation must flag the disagreement and explain it.
        row = results["t3"]
        assert tuple(row["stated"]) == (8, 8)
        assert tuple(row["derived"]) == (7, 7)
        assert not row["agrees"]
        assert "one too high" in row["note"]

    def test_no_unexpected_warnings(self, results):
        for row in results.values():
            assert row["warnings"] == []


class TestSelection:
    def test_subset_keeps_table_order(self):
        res = evaluate_examples(keys=["t2", "rp1"])
        assert [r["key"] for r in res] == ["rp1", "t2"]

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            evaluate_examples(keys=["rp2"])


class TestDescriptorFiles:
    def test_keys_are_the_shipped_files(self):
        stems = sorted(f[:-5] for f in os.listdir(PACKAGE_DIR) if f.endswith(".json"))
        assert stems == sorted(EXAMPLE_KEYS)

    @pytest.mark.parametrize("key", KEYS)
    def test_root_path_is_the_package_file(self, key):
        assert os.path.samefile(
            os.path.join(ROOT_DIR, f"{key}.json"),
            os.path.join(PACKAGE_DIR, f"{key}.json"),
        )

    def test_key_reads_only_its_own_file(self, run_cli, monkeypatch):
        read = []

        def recording(path):
            read.append(os.path.basename(path))
            return load_descriptor(path)

        monkeypatch.setattr(examples, "load_descriptor", recording)
        code, _, _ = run_cli(["frame-bundle", "t2", "--no-timing"])
        assert code == 0 and read == ["t2.json"]

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("key", KEYS)
    def test_key_and_file_print_alike(self, run_cli, key, mode):
        path = os.path.join(ROOT_DIR, f"{key}.json")
        from_key = run_cli(["frame-bundle", key, "--no-timing"] + mode)
        from_file = run_cli(["frame-bundle", path, "--no-timing"] + mode)
        assert from_key == from_file

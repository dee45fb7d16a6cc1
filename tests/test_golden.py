"""Recorded ``--no-timing`` CLI output, compared byte for byte.

Each case is an argv, its exit code and its stdout as stored under
``tests/golden/``.  A change that means to alter one of these outputs
rewrites the files with ``PYTHONPATH=src python3 tests/test_golden.py``
and shows the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from conftest import CATALOG_IDS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
DESCRIPTOR_DIR = os.path.join(HERE, "..", "descriptors")
DESCRIPTORS = sorted(f[:-5] for f in os.listdir(DESCRIPTOR_DIR) if f.endswith(".json"))
RING_ITEMS = "cl,zcl-basic,zcl-full,basis,poincare"

CASES = {
    "examples.txt": ["examples"],
    "examples.json": ["examples", "--json"],
    **{
        f"frame-bundle-{name}.json": [
            "frame-bundle", os.path.join(DESCRIPTOR_DIR, f"{name}.json"), "--json"
        ]
        for name in DESCRIPTORS
    },
    # --budget 0: a table ring's search starves, and every entry using it
    # carries its budget note; monomial rings print as at the default budget.
    **{
        f"frame-bundle-{name}-budget0.json": [
            "frame-bundle", os.path.join(DESCRIPTOR_DIR, f"{name}.json"),
            "--budget", "0", "--json",
        ]
        for name in DESCRIPTORS
    },
    **{
        f"ring-{ring_id.replace(':', '-')}.json": [
            "ring", ring_id, "--compute", RING_ITEMS, "--json"
        ]
        for ring_id in CATALOG_IDS
    },
}


def _run(argv):
    from frametc.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--no-timing"])
    return code, out.getvalue()


def _exit_codes() -> dict:
    with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_exit_codes_cover_every_case():
    assert sorted(_exit_codes()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name):
    code, out = _run(CASES[name])
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == _exit_codes()[name]


def _record():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        with open(os.path.join(GOLDEN_DIR, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN_DIR, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record())

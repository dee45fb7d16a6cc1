"""The four benchmark workloads: CLI invocations and their reference answers.

Every reference is a literal (or is derived here from a closed formula) with a
one-line source; none is computed by ``frametc``.  See README.md for why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import json
import os

import reencode

WORKLOADS = ("so-curve", "zcl-basic-search", "table-reencoded", "bounds-suite")
FLAGS = ["--json", "--no-timing"]


def so_char2_heights(n: int) -> list[int]:
    """Truncation heights p_i of H*(SO(n); F2): p_i = least 2^k with i 2^k >= n, i odd < n."""
    heights = []
    for i in range(1, n, 2):
        p = 1
        while i * p < n:
            p *= 2
        heights.append(p)
    return heights


# zcl-basic references.  Exterior algebras on k odd generators reach k over
# every field (odd bars square to zero; the k distinct bars multiply out).
# so:n:char2 reaches sum(p_i - 1), its mod-2 cup length.  Surfaces of genus
# g >= 2 reach 4 over Q (Farber, DCG 29 (2003): TC(Sigma_g) = 5) and 3 over
# F2 (degree-1 bars square to zero mod 2; tests/test_cuplength.py genus 2).
ZCL_BASIC = {
    "so:6:char2": (sum(p - 1 for p in so_char2_heights(6)), "sum(p_i - 1) of H*(SO(6); F2)"),
    "so:5:char2": (sum(p - 1 for p in so_char2_heights(5)), "sum(p_i - 1) of H*(SO(5); F2)"),
    "so:8:char0": (4, "exterior algebra on 4 odd generators (degrees 3, 7, 11, 7)"),
    "t:4:char0": (4, "exterior algebra on 4 degree-1 generators"),
    "t:4:char2": (4, "exterior algebra on 4 degree-1 generators"),
    "sigma:12:char0": (4, "genus >= 2 surface over Q: zcl = TC - 1 = 4 (Farber 2003)"),
    "sigma:12:char2": (3, "genus >= 2 surface over F2: 3 (degree-1 bars square to zero)"),
}

# Re-encoded rings keep the invariant of their source ring.
ZCL_FULL_SOURCE = {
    "sigma:6:char0": (4, "genus >= 2 surface over Q: zcl = TC - 1 = 4 (Farber 2003)"),
    "so:8:char0": (4, "exterior algebra on 4 odd generators"),
    "t:4:char2": (4, "exterior algebra on 4 degree-1 generators"),
    "sigma:6:char2": (3, "genus >= 2 surface over F2: 3 (degree-1 bars square to zero)"),
}

# TC(F(M)) intervals, from GOLDEN in tests/test_examples.py; t3 from
# test_torus_three_is_the_known_outlier (derived (7, 7) against stated (8, 8)).
INTERVALS = {
    "rp1": (2, 2), "rp3": (7, 7), "rp7": (19, 19), "s2": (4, 4), "t2": (4, 4),
    "t3": (7, 7), "sigma2": (5, 6), "sigma3": (5, 6), "generic3": (5, 10),
    "irreducible3": (7, 10), "cp2": (9, 15), "cp3": (12, 28),
}
EXAMPLE_DISAGREES = {"t3": (8, 8)}  # stated interval of the designed outlier


def invocations(workload: str, seed: int, work_dir: str) -> list[dict]:
    """CLI argument lists with their expected answers, in run order.

    Paths in ``argv`` are relative to the checkout root, the working
    directory of every invocation.  Each item: ``argv`` (arguments after ``frametc``), ``kind`` and ``expect``
    for :func:`check`, and ``exit`` (the expected exit code).
    """
    if workload == "so-curve":
        out = []
        for n in (8, 10, 12):
            value = sum(p - 1 for p in so_char2_heights(n))
            out.append({
                "argv": ["ring", f"so:{n}:char2", "--compute", "cl,zcl-full"] + FLAGS,
                "kind": "ring",
                "expect": {"cl": value, "zcl-full": value},
                "exit": 0,
            })
        return out
    if workload == "zcl-basic-search":
        return [
            {
                "argv": ["ring", rid, "--compute", "zcl-basic"] + FLAGS,
                "kind": "ring",
                "expect": {"zcl-basic": value},
                "exit": 0,
            }
            for rid, (value, _) in ZCL_BASIC.items()
        ]
    if workload == "table-reencoded":
        out = []
        for source, (value, _) in ZCL_FULL_SOURCE.items():
            path = os.path.join(work_dir, source.replace(":", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(reencode.reencode(source, seed), fh)
            out.append({
                "argv": ["ring", path, "--compute", "zcl-full"] + FLAGS,
                "kind": "ring",
                "expect": {"zcl-full": value},
                "exit": 0,
            })
        return out
    if workload == "bounds-suite":
        out = [{
            "argv": ["examples"] + FLAGS,
            "kind": "examples",
            "expect": INTERVALS,
            "exit": 2,  # the t3 row disagrees with its stated value by design
        }]
        for key in sorted(INTERVALS):
            out.append({
                "argv": ["frame-bundle", f"descriptors/{key}.json"] + FLAGS,
                "kind": "frame-bundle",
                "expect": INTERVALS[key],
                "exit": 0,
            })
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check(inv: dict, code: int, stdout: str, stderr: str) -> str:
    """Empty string when the invocation's answer is right, else the reason."""
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if code != inv["exit"]:
        return f"exit {code}, expected {inv['exit']}"
    try:
        return _check_answer(inv["kind"], inv["expect"], json.loads(stdout))
    except ValueError:
        return "output is not JSON"
    except (KeyError, TypeError, AttributeError) as exc:
        return f"output lacks {exc}"


def _check_answer(kind: str, expect, out: dict) -> str:
    if kind == "ring":
        for item, value in expect.items():
            res = out["results"].get(item)
            if res is None or res["value"] != value:
                return f"{item} = {res and res['value']}, expected {value}"
            if res["exact"] is not True:
                return f"{item} is not exact"
        return ""
    if kind == "frame-bundle":
        if out["interval"] != list(expect) or out["warnings"]:
            return f"interval {out['interval']}, expected {list(expect)}"
        return ""
    rows = {r["key"]: r for r in out["examples"]}
    if set(rows) != set(expect):
        return f"example keys {sorted(rows)}"
    for key, interval in expect.items():
        r = rows[key]
        stated = EXAMPLE_DISAGREES.get(key, interval)
        agrees = key not in EXAMPLE_DISAGREES
        if r["derived"] != list(interval) or r["stated"] != list(stated) or r["agrees"] is not agrees or r["warnings"]:
            return f"example {key}: derived {r['derived']}, stated {r['stated']}"
    return ""

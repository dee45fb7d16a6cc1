"""``scripts/bench_compare.py`` on two synthetic benchmark records."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_compare.py")
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def record(seed_walls, row_wall, row_min, row_max):
    """A record with one workload over three seeds and one 5-sample row."""
    return {
        "benchmark": {
            "so-curve": {
                f"seed{s}": {"metrics": {"wall_s": {"value": v, "unit": "s"}}}
                for s, v in enumerate(seed_walls, 1)
            }
        },
        "invocations": [
            {
                "argv": ["ring", "so:8:char2"], "exit": 0, "samples": 5,
                "wall_s": row_wall, "wall_s_min": row_min, "wall_s_max": row_max,
                "peak_rss_mb": 14.5, "peak_rss_mb_min": 14.4, "peak_rss_mb_max": 14.6,
            }
        ],
    }


BEFORE = record([1.00, 0.98, 1.02], 1.0, 0.8, 1.3)


def test_a_change_within_the_spread_is_not_flagged():
    # +3 % on the workload; +15 % on the row, but inside its 0.5 s spread.
    after = record([1.03, 1.01, 1.05], 1.15, 0.9, 1.4)
    assert bench_compare.report(BEFORE, after) == [
        "so-curve wall_s: 1 -> 1.03 (x1.030)",
        "ring so:8:char2 wall_s: 1 -> 1.15 (x1.150)",
        "ring so:8:char2 peak_rss_mb: 14.5 -> 14.5 (x1.000)",
    ]


def test_twenty_percent_beyond_the_spread_is_flagged():
    after = record([1.20, 1.19, 1.21], 1.6, 1.55, 1.7)
    lines = bench_compare.report(BEFORE, after)
    assert lines[0] == "so-curve wall_s: 1 -> 1.2 (x1.200)  FLAG"
    assert lines[1] == "ring so:8:char2 wall_s: 1 -> 1.6 (x1.600)  FLAG"
    assert not lines[2].endswith("FLAG")


@pytest.mark.parametrize("faster", [False, True])
def test_main_reads_two_files(tmp_path, capsys, faster):
    after = record([0.8, 0.79, 0.81], 1.0, 0.8, 1.3) if faster else BEFORE
    paths = []
    for name, rec in (("a.json", BEFORE), ("b.json", after)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(rec))
    assert bench_compare.main(paths) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"{int(faster)} of 3 lines flagged\n")


def with_ref(rec, ref, spread=0.02):
    """rec with a per-child reference-speed wall time on its row."""
    rec["invocations"][0].update(wall_s_ref=ref, wall_s_ref_min=ref - spread,
                                 wall_s_ref_max=ref + spread)
    return rec


def test_per_child_reference_wall_times_are_compared():
    # The host ran 25 % slower for B: its measured wall time reads +25 %,
    # beyond the spread, and its reference-speed time did not move.
    before = with_ref(record([1.0] * 3, 1.0, 0.98, 1.02), 1.0)
    after = with_ref(record([1.0] * 3, 1.25, 1.23, 1.27), 1.0)
    assert bench_compare.report(before, after)[1:4] == [
        "ring so:8:char2 wall_s: 1 -> 1.25 (x1.250)  FLAG",
        "ring so:8:char2 wall_s_ref: 1 -> 1 (x1.000)",
        "ring so:8:char2 peak_rss_mb: 14.5 -> 14.5 (x1.000)",
    ]
    slower = with_ref(record([1.0] * 3, 1.25, 1.23, 1.27), 1.3)
    assert bench_compare.report(before, slower)[2] == (
        "ring so:8:char2 wall_s_ref: 1 -> 1.3 (x1.300)  FLAG"
    )


def test_round_scaled_times_are_never_compared_with_per_child_ones():
    # A row of a record that scaled each round of rows by one speed, against
    # a row timed beside its own calibration thread: only the measures both
    # carry are compared.
    old = record([1.0] * 3, 1.0, 0.98, 1.02)
    old["invocations"][0].update(wall_s_scaled=0.8, wall_s_scaled_min=0.78,
                                 wall_s_scaled_max=0.82)
    new = with_ref(record([1.0] * 3, 1.0, 0.98, 1.02), 1.2)
    for a, b in ((old, new), (new, old)):
        lines = bench_compare.report(a, b)
        assert lines[1:] == [
            "ring so:8:char2 wall_s: 1 -> 1 (x1.000)",
            "ring so:8:char2 peak_rss_mb: 14.5 -> 14.5 (x1.000)",
        ]


def test_one_line_per_module_compile_step():
    before, after = record([1.0] * 3, 1.0, 0.9, 1.1), record([1.0] * 3, 1.0, 0.9, 1.1)
    before["compile_alloc_kb"] = {"cli.py": 1016, "cuplength.py": 800, "gone.py": 12}
    after["compile_alloc_kb"] = {"cli.py": 1016, "cuplength.py": 676}
    assert bench_compare.report(before, after)[-2:] == [
        "compile cli.py alloc_kb: 1016 -> 1016 (x1.000)",
        "compile cuplength.py alloc_kb: 800 -> 676 (x0.845)  FLAG",
    ]


def test_exact_compile_steps_are_never_compared_with_rss_steps():
    # An older record's steps are RSS growth in 128 KB pages; a newer one's
    # are exact allocations: no line compares the two, either way round.
    old, new = record([1.0] * 3, 1.0, 0.9, 1.1), record([1.0] * 3, 1.0, 0.9, 1.1)
    old["compile_peak_rss_kb"] = {"cli.py": 1280}
    new["compile_alloc_kb"] = {"cli.py": 1016}
    for a, b in ((old, new), (new, old)):
        assert not [line for line in bench_compare.report(a, b) if line.startswith("compile")]


def test_equal_exact_compile_steps_never_flag():
    steps = {"__init__.py": 12, "algebra.py": 1090, "cli.py": 1016}
    before, after = record([1.0] * 3, 1.0, 0.9, 1.1), record([1.0] * 3, 1.0, 0.9, 1.1)
    before["compile_alloc_kb"], after["compile_alloc_kb"] = steps, dict(steps)
    lines = [line for line in bench_compare.report(before, after) if line.startswith("compile")]
    assert len(lines) == 3 and all(line.endswith("(x1.000)") for line in lines)

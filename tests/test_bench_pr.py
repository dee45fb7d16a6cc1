"""``scripts/bench_pr.py``'s child runner on one small child."""

import importlib.util
import os
import resource
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
spec = importlib.util.spec_from_file_location(
    "bench_pr", os.path.join(ROOT, "scripts", "bench_pr.py")
)
bench_pr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pr)


def test_a_child_is_timed_by_spawn_and_not_forked_from_the_caller():
    # A child's peak RSS counts the pages its parent held at fork.  This
    # test process holds more than the bound below, so a peak under it
    # shows that the child was forked from the small probe interpreter.
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 > 20
    sample = bench_pr.timed_child([sys.executable, "-c", "pass"], ROOT)
    assert set(sample) == {"exit", "wall_s", "wall_s_ref", "speed", "peak_rss_mb"}
    assert sample["exit"] == 0 and sample["speed"] > 0
    assert sample["wall_s_ref"] == pytest.approx(sample["wall_s"] * sample["speed"], abs=1e-3)
    assert 0 < sample["peak_rss_mb"] < 20

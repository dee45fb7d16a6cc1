"""``scripts/bench_pr.py``: its child runner, compile steps and provenance."""

import importlib.util
import json
import os
import resource
import subprocess
import sys

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
    assert set(sample) == {"exit", "wall_s_ref", "speed", "peak_rss_mb"}
    assert sample["exit"] == 0 and sample["speed"] > 0 and sample["wall_s_ref"] > 0
    assert 0 < sample["peak_rss_mb"] < 20


def test_compile_steps_are_exact_and_grow_with_the_source(tmp_path):
    pkg = tmp_path / "src" / "frametc"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "b.py").write_text("".join(f"def f{i}(x):\n    return x + {i}\n" for i in range(200)))
    steps = bench_pr.compile_steps(str(tmp_path))
    assert steps == bench_pr.compile_steps(str(tmp_path))
    assert set(steps) == {"a.py", "b.py"}
    assert 0 <= steps["a.py"] < steps["b.py"]


def test_provenance_is_the_first_that_a_run_printed(monkeypatch):
    # The first run fails before it prints anything; every later run prints
    # its own provenance, so the record takes the second run's.
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        if len(calls) == 1:
            return subprocess.CompletedProcess(cmd, 2, "", "error: no such workload\n")
        prov = {"workload": "w", "seed": 1, "nproc": 2, "cpu_model": "cpu", "python": "3.11.7",
                "commit": f"c{len(calls)}", "src_sha256": f"s{len(calls)}"}
        out = f"workload w\nprovenance {json.dumps(prov)}\n{json.dumps({'correct': True})}\n"
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench_pr.subprocess, "run", fake_run)
    record = bench_pr.benchmark_runs("root", ["w"])
    assert len(calls) == 4
    assert record["benchmark"]["w"] == {
        "seed1": {"error": "exit 2: error: no such workload"},
        "seed2": {"correct": True},
        "seed3": {"correct": True},
    }
    assert record["traced"] == {"w": {"correct": True}}
    assert {k: record[k] for k in bench_pr.PROVENANCE} == {
        "commit": "c2", "src_sha256": "s2", "python": "3.11.7", "nproc": 2, "cpu_model": "cpu",
    }

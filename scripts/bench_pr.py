"""Record one point of the benchmark trajectory as ``BENCH_<PR>.json`` (stdlib only).

Usage, from the root of a checkout::

    python3 scripts/bench_pr.py --pr N

``--root`` measures another checkout (for example the parent commit, cloned
elsewhere) and ``--out`` names the output file, by default
``BENCH_<PR>.json`` at the root of the measured checkout.  Everything runs
one process at a time, in this order:

* the final JSON line of ``bench/run.py --workload W --seed S --seconds 25
  --trace 0`` for every workload in ``BENCHMARK.json`` and seeds 1-3;
* one ``--trace 1 --seed 1`` record per workload;
* the commit, the SHA-256 of ``src/frametc``, the Python version, the CPU
  count and model, as the first of those runs to print its ``provenance``
  line gave them;
* each off-benchmark invocation in ``INVOCATIONS``, ``SAMPLES`` times, one
  sample of every row per round, each in a fresh interpreter timed as
  ``bench/run.py`` times its children: the measured checkout's ``spawn``,
  imported read-only and called from a small ``PROBE`` interpreter, runs the
  child beside a calibration thread on its CPU.  Each sample gives the
  child's wall time less that thread's share at the reference host's speed
  (``wall_s_ref``, the scale of the benchmark's own ``wall_s``), that
  ``speed`` and the child's peak RSS (``peak_rss_mb``), and each row the
  median, min and max of each;
* whether the children compiled ``frametc`` cold: ``PYTHONDONTWRITEBYTECODE``
  and whether ``src/frametc/__pycache__`` existed before the benchmark runs
  and after the off-benchmark rows;
* the compile step of each ``src/frametc/*.py``: the peak KiB that
  ``tracemalloc`` sees ``compile()`` allocate for its source in a fresh
  ``python3 -S`` interpreter (``compile_alloc_kb``), the same on every run
  of the same source;
* the Tier-1 pass and fail counts and wall time;
* ``python3 -c pass``, timed as the rows, ``STARTUP_SAMPLES`` times, with
  the same summary (``python_c_pass``);
* whether ``src`` differs from the commit, and the line count (``wc -l``)
  of each ``src/frametc/*.py`` and their total.

A full run takes about ten minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1, 2, 3)
SECONDS = 25  # run length of every bench/run.py run
CHILD_TIMEOUT_S = 300
SAMPLES = 5  # of each off-benchmark invocation
STARTUP_SAMPLES = 9
CLI = "import sys; from frametc.cli import main; sys.exit(main())"
# Loads the measured checkout's bench/run.py, pins itself off the child's CPU
# as ``run_e2e`` does, and runs the command after its timeout and work-dir
# arguments with ``spawn``: the child shares its CPU with a calibration
# thread for its whole life.  Prints the exit code, the child's wall time
# less the calibration thread's share at the reference host's speed
# (``wall_s_ref``, as bench/run.py scales its children), the speed and the
# child's peak RSS as JSON.  A child's peak RSS counts the pages its parent
# held at fork, so the fork is made from this small interpreter, not from
# the script.
PROBE = r"""
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("bench_run", os.path.join("bench", "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
cpus = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {cpus[-1]})
sys.setswitchinterval(0.001)
res = run.spawn(sys.argv[3:], sys.argv[2], float(sys.argv[1]), cpus[0])
print(json.dumps({
    "exit": res["code"],
    "wall_s_ref": round(res["solo_wall"] * res["speed"], 4),
    "speed": round(res["speed"], 4),
    "peak_rss_mb": round(res["rss_mb"], 2),
}))
"""
# Prints the peak KiB that compiling the file named by its argument
# allocates.  The first compile() sets up the parser's own state, so the
# traced one counts only what this source needs.
COMPILE_PROBE = r"""
import sys, tracemalloc
with open(sys.argv[1], encoding="utf-8") as fh:
    source = fh.read()
compile("pass", "<parser>", "exec")
tracemalloc.start()
compile(source, sys.argv[1], "exec")
print(tracemalloc.get_traced_memory()[1] // 1024)
"""
# The keys of a bench/run.py ``provenance`` line that a record keeps.
PROVENANCE = ("commit", "src_sha256", "python", "nproc", "cpu_model")
# Off-benchmark invocations: the "where the time goes" rows of ROADMAP.md.
# An argv item that is a key of the script's input files stands for that
# file, written to a temp dir: "T10_TABLE" is t:10:char2 written out as a
# 1,024-class table, and "DIM1000_DESCRIPTOR" a dim-1000 manifold whose
# ring is s:2:char2.  The two small rings show what a child compiles: a
# monomial ring compiles neither the table layer nor linalg, and sigma:2
# compiles both.
INVOCATIONS = (
    ["ring", "so:8:char2", "--compute", "cl,zcl-full"],
    ["ring", "sigma:2:char0", "--compute", "zcl-full"],
    ["examples"],
    ["ring", "cp:300:char0", "--compute", "zcl-full"],
    ["ring", "cp:600:char0", "--compute", "zcl-full"],
    # The largest characteristic: there exact sums grow most before a clean.
    ["ring", "cp:600:char2147483647", "--compute", "zcl-full"],
    ["ring", "sigma:600:char0", "--compute", "cl,zcl-full"],
    ["ring", "so:1000:char2", "--compute", "cl"],
    ["ring", "so:2000:char2", "--compute", "cl"],
    ["ring", "so:4000:char2", "--compute", "zcl-full"],
    ["ring", "rp:4000", "--compute", "zcl-full"],
    ["ring", "t:3000:char0", "--compute", "cl"],
    ["ring", "t:3000:char0", "--compute", "zcl-full"],
    ["ring", "T10_TABLE", "--compute", "cl"],
    ["frame-bundle", "DIM1000_DESCRIPTOR"],
)
DIM1000_DESCRIPTOR = {
    "name": "dim-1000 manifold with the cohomology of S^2",
    "dim": 1000,
    "tncz_fields": ["char=2"],
    "cohomology": {"char=2": "s:2:char2"},
}


def exterior_table(n: int) -> dict:
    """The exterior algebra on n degree-1 generators over F_2 as a table ring."""
    def name(mask: int) -> str:
        return "".join(f"u{i + 1}" for i in range(n) if mask >> i & 1) or "1"

    size = 1 << n
    return {
        "field": {"char": 2},
        "type": "table",
        "basis": [{"name": name(m), "degree": bin(m).count("1")} for m in range(size)],
        "products": [
            [name(a), name(b), name(a | b), 1]
            for a in range(1, size)
            for b in range(1, size)
            if not a & b
        ],
    }


def timed_child(cmd: list, root: str) -> dict:
    """Run one child with ``bench/run.py``'s ``spawn`` under ``PROBE``: its measures."""
    with tempfile.TemporaryDirectory() as work:
        probe = [sys.executable, "-S", "-c", PROBE, str(CHILD_TIMEOUT_S), work, *cmd]
        proc = subprocess.run(probe, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"probe of {cmd} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summary(samples: list) -> dict:
    """Exit code, and median, min and max of each measure of samples."""
    exits = sorted({row["exit"] for row in samples})
    out = {"exit": exits[0] if len(exits) == 1 else exits, "samples": len(samples)}
    for key in ("wall_s_ref", "speed", "peak_rss_mb"):
        values = [row[key] for row in samples]
        out[key] = statistics.median(values)
        out[key + "_min"] = min(values)
        out[key + "_max"] = max(values)
    return out


def bytecode_state(root: str) -> dict:
    """What decides whether a child compiles ``frametc`` from source."""
    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache_exists": os.path.isdir(os.path.join(root, "src", "frametc", "__pycache__")),
    }


def compile_steps(root: str) -> dict:
    """Peak KiB that compiling each ``src/frametc/*.py`` allocates, by basename."""
    return {
        os.path.basename(path): int(subprocess.run(
            [sys.executable, "-S", "-c", COMPILE_PROBE, path],
            capture_output=True, text=True, check=True,
        ).stdout)
        for path in sorted(glob.glob(os.path.join(root, "src", "frametc", "*.py")))
    }


def bench_line(root: str, workload: str, seed: int, trace: int) -> tuple:
    """The final JSON line of one ``bench/run.py`` run and its provenance (or None)."""
    cmd = [
        sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("provenance ")), None)
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}, prov
    return json.loads(lines[-1]), prov


def benchmark_runs(root: str, workloads: list) -> dict:
    """Seeds 1-3 and one traced run of each workload, with the first provenance printed."""
    provs = []

    def run(workload: str, seed: int, trace: int) -> dict:
        line, prov = bench_line(root, workload, seed, trace)
        provs.append(prov)
        return line

    out = {"benchmark": {w: {f"seed{s}": run(w, s, 0) for s in SEEDS} for w in workloads}}
    out["traced"] = {w: run(w, 1, 1) for w in workloads}
    first = next((p for p in provs if p), {})
    return {**out, **{key: first.get(key) for key in PROVENANCE}}


def tier1(root: str, env: dict) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "wall_s": round(wall, 2),
        "summary": tail,
    }


def source_lines(root: str) -> dict:
    """``wc -l`` of each ``src/frametc/*.py`` and their total."""
    lines = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "frametc", "*.py"))):
        with open(path, "rb") as fh:
            lines[os.path.basename(path)] = fh.read().count(b"\n")
    return {"files": lines, "total": sum(lines.values())}


def git(root: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--root", default=os.path.dirname(HERE))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    out = args.out or os.path.join(root, f"BENCH_{args.pr}.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    record = {"pr": args.pr, "seconds": SECONDS}
    bytecode = {"before": bytecode_state(root)}
    record.update(benchmark_runs(root, workloads))

    samples = [[] for _ in INVOCATIONS]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"T10_TABLE": exterior_table(10), "DIM1000_DESCRIPTOR": DIM1000_DESCRIPTOR}
        for name, data in files.items():
            with open(os.path.join(tmp, name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        for _ in range(SAMPLES):  # round-robin, so host drift spreads over every row
            for argv, row in zip(INVOCATIONS, samples):
                real = [os.path.join(tmp, a + ".json") if a in files else a for a in argv]
                row.append(timed_child([sys.executable, "-c", CLI, *real, "--no-timing"], root))
    record["invocations"] = [
        {"argv": list(argv), **summary(taken)} for argv, taken in zip(INVOCATIONS, samples)
    ]
    bytecode["after_rows"] = bytecode_state(root)
    record["bytecode"] = bytecode
    record["compile_alloc_kb"] = compile_steps(root)

    record["tier1"] = tier1(root, env)
    record["python_c_pass"] = summary(
        [timed_child([sys.executable, "-c", "pass"], root) for _ in range(STARTUP_SAMPLES)]
    )
    record["dirty"] = bool(git(root, "status", "--porcelain", "--", "src"))
    record["src_lines"] = source_lines(root)

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

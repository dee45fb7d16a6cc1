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
* wall time and peak RSS (``os.wait4``) of each off-benchmark invocation in
  ``INVOCATIONS``, each in a fresh interpreter;
* the Tier-1 pass and fail counts and wall time;
* the median ``python3 -c pass`` time and peak RSS, the commit, the SHA-256
  of ``src/frametc``, the CPU count and the Python version.

A full run takes about ten minutes on two CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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
STARTUP_SAMPLES = 9
CLI = "import sys; from frametc.cli import main; sys.exit(main())"
# Runs the command after its timeout argument in a forked child, with output
# discarded and SIGALRM after the timeout, and prints its exit code, wall
# time and peak RSS (os.wait4) as JSON.  A child's peak RSS counts the pages
# it shared with its parent before exec, so the fork is made from this small
# interpreter, not from the script: its RSS, a few MB, is the floor.
PROBE = r"""
import os, signal, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    signal.alarm(int(sys.argv[1]))
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
import json
print(json.dumps({
    "exit": os.waitstatus_to_exitcode(status),
    "wall_s": round(wall, 4),
    "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
}))
"""
# Off-benchmark invocations: the "where the time goes" rows of ROADMAP.md.
# "T10_TABLE" stands for t:10:char2 written out as a 1,024-class table.  The
# two small rings show what a child compiles, seen outside the benchmark's
# fork floor: a monomial ring compiles neither the table layer nor linalg,
# and sigma:2 compiles both.
INVOCATIONS = (
    ["ring", "so:8:char2", "--compute", "cl,zcl-full"],
    ["ring", "sigma:2:char0", "--compute", "zcl-full"],
    ["examples"],
    ["ring", "cp:300:char0", "--compute", "zcl-full"],
    ["ring", "cp:600:char0", "--compute", "zcl-full"],
    ["ring", "sigma:600:char0", "--compute", "cl,zcl-full"],
    ["ring", "so:1000:char2", "--compute", "cl"],
    ["ring", "so:2000:char2", "--compute", "cl"],
    ["ring", "t:3000:char0", "--compute", "cl"],
    ["ring", "t:3000:char0", "--compute", "zcl-full"],
    ["ring", "T10_TABLE", "--compute", "cl"],
)


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


def timed_child(cmd: list, cwd: str, env: dict) -> dict:
    """Run one child to completion: exit code, wall time and peak RSS."""
    probe = [sys.executable, "-S", "-c", PROBE, str(CHILD_TIMEOUT_S), *cmd]
    proc = subprocess.run(probe, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def bench_line(root: str, workload: str, seed: int, trace: int) -> dict:
    """The final JSON line of one ``bench/run.py`` run."""
    cmd = [
        sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


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


def source_sha256(root: str) -> str:
    """SHA-256 over the relative path and bytes of every file in src/frametc."""
    top = os.path.join(root, "src", "frametc")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


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
    record["benchmark"] = {
        w: {f"seed{s}": bench_line(root, w, s, 0) for s in SEEDS} for w in workloads
    }
    record["traced"] = {w: bench_line(root, w, 1, 1) for w in workloads}

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "t10-char2-table.json")
        with open(table, "w", encoding="utf-8") as fh:
            json.dump(exterior_table(10), fh)
        for argv in INVOCATIONS:
            real = [table if a == "T10_TABLE" else a for a in argv]
            row = timed_child([sys.executable, "-c", CLI, *real, "--no-timing"], root, env)
            rows.append({"argv": list(argv), **row})
    record["invocations"] = rows

    record["tier1"] = tier1(root, env)
    startup = [
        timed_child([sys.executable, "-c", "pass"], root, env)
        for _ in range(STARTUP_SAMPLES)
    ]
    record["python_c_pass_s"] = statistics.median(row["wall_s"] for row in startup)
    record["python_c_pass_peak_rss_mb"] = statistics.median(
        row["peak_rss_mb"] for row in startup
    )
    record["commit"] = git(root, "rev-parse", "HEAD")
    record["dirty"] = bool(git(root, "status", "--porcelain", "--", "src"))
    record["src_sha256"] = source_sha256(root)
    record["nproc"] = os.cpu_count()
    record["python"] = platform.python_version()

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

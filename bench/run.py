"""End-to-end benchmark of the ``frametc`` CLI (stdlib only).

Usage, from the root of a checkout::

    python3 bench/run.py --workload so-curve --seed 1 --seconds 25 --trace 0

Workloads: so-curve, zcl-basic-search, table-reencoded, bounds-suite (see
README.md).  Each invocation runs in a fresh interpreter, one at a time (a
closed loop with one client), under a per-child timeout and address-space
limit, and its answer is checked against a stored reference.

``--trace 0`` repeats passes over the workload's invocations for about
``--seconds`` and reports, as medians over passes, ``wall_s``,
``cpu_s`` and ``peak_rss_mb``, plus ``setup_s`` (median of several bare
``import frametc.cli`` interpreters).  Each child shares its CPU with a
calibration thread, and its times are scaled to the speed of a reference
host (see ``spawn``).  ``--trace 1`` runs the workload in-process under
``tracer.py`` and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and sample count, the failure ratio, and the
provenance of the run.  A copy of the result, and the spans of a traced run,
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reencode  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60  # so:12:char2, the slowest invocation, takes about 6 s alone, 12 s beside calibration
TRACE_TIMEOUT_S = 150
CHILD_MEMORY_BYTES = 2 << 30  # address space; the largest child peaks near 0.7 GB RSS
SETUP_SAMPLES = 9
# Speed calibration (see ``calibration_chunk``): chunks per CPU second of the
# calibration thread on the reference host (2 vCPUs of an Intel Xeon, Python
# 3.11.7) when it is fast.  Reported times are seconds at that speed.
REFERENCE_RATE = 1000.0
CLI = "import sys; from frametc.cli import main; sys.exit(main())"
IMPORT_ONLY = "import frametc.cli"

# Layer metrics the prediction table in README.md expects to read exactly 0.
PREDICTED_ZERO = {
    "so-curve": ["manifold.load_s", "bounds.compute_self_s", "examples.evaluate_self_s",
                 "algebra.check_axioms_s", "algebra.mul_basis_calls.table",
                 "linalg.insert_calls.char0", "fields.ops.char0"],
    "zcl-basic-search": ["manifold.load_s", "bounds.compute_self_s", "examples.evaluate_self_s",
                         "cuplength.zcl_full_self_s", "cuplength.cl_self_s",
                         "linalg.insert_calls.char0", "linalg.insert_calls.char2", "linalg.kernel_calls"],
    "table-reencoded": ["manifold.load_s", "bounds.compute_self_s", "examples.evaluate_self_s",
                        "catalog.ring_calls", "cuplength.zcl_basic_self_s", "cuplength.cl_self_s",
                        "algebra.mul_basis_calls.monomial"],
    "bounds-suite": ["cuplength.cl_self_s", "cuplength.zcl_basic_self_s"],
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad input)."""


def calibration_chunk() -> int:
    """A fixed amount of pure-Python work, independent of ``frametc``: int-keyed dict updates."""
    table = {}
    for i in range(5000):
        key = (i * 2654435761) % 100003
        table[key] = table.get(key, 0) ^ i
    return len(table)


def _calibrate(cpu: int, stop: threading.Event, out: list) -> None:
    """Run calibration chunks on ``cpu`` until ``stop``; append (chunks, their CPU seconds)."""
    os.sched_setaffinity(0, {cpu})
    chunks = 0
    t0 = t = time.thread_time()
    while not stop.is_set():
        calibration_chunk()
        chunks += 1
        t = time.thread_time()
    out.append((chunks, t - t0))


def spawn(cmd: list[str], work: str, timeout: float, cpu: int | None = None) -> dict:
    """Run one child to completion; wall, CPU and peak RSS from its own rusage.

    With ``cpu``, the child is pinned to that CPU and shares it with a
    calibration thread for its whole life.  Both then see the same host
    speed, so ``speed`` (calibration rate / ``REFERENCE_RATE``) scales the
    child's times to the reference host, and ``solo_wall`` is the child's
    wall time less the calibration thread's share of the CPU.
    """
    out_path, err_path = os.path.join(work, "stdout"), os.path.join(work, "stderr")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    stop, calibration = threading.Event(), []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT, preexec_fn=limit_child)
        pidfd = os.pidfd_open(proc.pid)
        thread = threading.Thread(target=_calibrate, args=(cpu, stop, calibration)) if cpu is not None else None
        try:
            if thread:
                thread.start()
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            stop.set()
            if thread:
                thread.join()
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    res = {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": timed_out,
        "stdout": stdout,
        "stderr": stderr,
    }
    if calibration and calibration[0][0] and calibration[0][1] > 0:
        chunks, seconds = calibration[0]
        res["speed"] = chunks / seconds / REFERENCE_RATE
        res["solo_wall"] = wall - seconds
    return res


def check_reencoded(seed: int) -> None:
    """Self-check the generated rings: they load, keep their Poincare series, vary with the seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from frametc.algebra import ring_from_json

    for source in reencode.SOURCES:
        ring = reencode.reencode(source, seed)
        got = ring_from_json(json.loads(json.dumps(ring))).poincare_polynomial()
        if got != reencode.source_poincare(source):
            raise BenchError(f"re-encoded {source} has Poincare series {got}")
        if ring == reencode.reencode(source, seed + 1):
            raise BenchError(f"seeds {seed} and {seed + 1} give the same {source} input")


def provenance(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "frametc")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def describe(values: list[float], what: str) -> str:
    """Sample count, and the p90 only when at least ten samples lie beyond it."""
    n = len(values)
    if n * 0.1 >= 10:
        return f"median of {n} {what}, p90 {statistics.quantiles(values, n=10)[-1]:.6f}"
    return f"median of {n} {what}; no p90 (fewer than 10 samples beyond it)"


def run_e2e(workload: str, plan: list[dict], seconds: float, work: str) -> tuple[dict, list[str], int, list[str]]:
    """Passes over ``plan`` for about ``seconds``; medians over passes of speed-scaled times.

    The speed of the shared measuring host drifts by up to a factor of two,
    so each child runs beside a calibration thread on its CPU (see ``spawn``)
    and its times are scaled to the reference host.  The parent runs on
    another CPU when there is one.
    """
    cpus_allowed = sorted(os.sched_getaffinity(0))
    child_cpu = cpus_allowed[0]
    os.sched_setaffinity(0, {cpus_allowed[-1]})
    sys.setswitchinterval(0.001)  # the parent's wakeup waits at most this long for the calibration thread

    def scaled(res: dict) -> tuple[float, float, float]:
        if "speed" not in res:
            raise BenchError("a child ended before its calibration thread ran:\n" + res["stderr"][-2000:])
        return res["solo_wall"] * res["speed"], res["cpu"] * res["speed"], res["speed"]

    setup, setup_raw = [], []
    for _ in range(SETUP_SAMPLES):
        res = spawn([sys.executable, "-c", IMPORT_ONLY], work, CHILD_TIMEOUT_S, child_cpu)
        if res["code"] != 0:
            raise BenchError("import frametc.cli failed:\n" + res["stderr"])
        setup.append(scaled(res)[0])
        setup_raw.append(res["solo_wall"])
    walls, cpus, rsss, raw_walls, speeds, failures = [], [], [], [], [], []
    pass_lengths = []
    attempted = 0
    start = time.perf_counter()
    # Start a pass only if it is expected to end within the window, so every
    # run lasts about --seconds whatever the pass length.
    while not walls or time.perf_counter() - start + statistics.mean(pass_lengths) <= seconds:
        t_pass = time.perf_counter()
        wall = cpu = rss = raw = 0.0
        for inv in plan:
            res = spawn([sys.executable, "-c", CLI] + inv["argv"], work, CHILD_TIMEOUT_S, child_cpu)
            attempted += 1
            why = "timeout" if res["timed_out"] else workloads.check(inv, res["code"], res["stdout"], res["stderr"])
            if why:
                failures.append(f"{' '.join(inv['argv'])}: {why}")
            w, c, speed = scaled(res)
            wall += w
            cpu += c
            raw += res["solo_wall"]
            speeds.append(speed)
            rss = max(rss, res["rss_mb"])
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        raw_walls.append(raw)
        pass_lengths.append(time.perf_counter() - t_pass)
    metrics = {
        "wall_s": (statistics.median(walls), "s", describe(walls, "passes")),
        "cpu_s": (statistics.median(cpus), "s", describe(cpus, "passes")),
        "peak_rss_mb": (statistics.median(rsss), "MB", describe(rsss, "passes (largest child of each)")),
        "setup_s": (statistics.median(setup), "s", describe(setup, "`import frametc.cli` interpreters")),
    }
    lines = [f"{name:<12} {value:.6f} {unit:<3} {note}" for name, (value, unit, note) in metrics.items()]
    lines.append("pass walls at reference speed (s): " + " ".join(f"{w:.4f}" for w in walls))
    lines.append("pass walls at host speed (s): " + " ".join(f"{w:.4f}" for w in raw_walls))
    lines.append("setup at host speed (s): " + " ".join(f"{w:.4f}" for w in setup_raw))
    lines.append("host speed during each child (reference = 1): " + " ".join(f"{s:.3f}" for s in speeds))
    ratio = len(failures) / attempted
    lines.append(f"{'fail_ratio':<12} {ratio:.6f} ratio {len(failures)} failed of {attempted} attempted invocations")
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}, lines, attempted, failures


def layer_unit(name: str) -> str:
    stem = name.split(".")[1]  # e.g. main_s, insert_s (of insert_s.char0), ops, mul_vec_nonzero_ratio
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_dim", "dim")):
        if stem.endswith(suffix):
            return unit
    return "count"


def run_trace(workload: str, plan: list[dict], work: str, spans_path: str) -> tuple[dict, list[str], int, list[str], list[str]]:
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    res = spawn([sys.executable, os.path.join(HERE, "tracer.py"), plan_path, spans_path], work, TRACE_TIMEOUT_S)
    if res["code"] != 0 or res["timed_out"]:
        raise BenchError(f"traced run failed (exit {res['code']}):\n" + res["stderr"][-2000:])
    out = json.loads(res["stdout"].strip().splitlines()[-1])
    metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in out["metrics"].items()}
    lines = []
    for name, m in metrics.items():
        base = out["bases"].get(name)
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6f}"
        lines.append(f"{name:<34} {value} {m['unit']}" + (f" ({base})" if base else ""))
    lines.append(f"traced pass {out['wall']['traced']:.6f} s, untraced in-process pass {out['wall']['untraced']:.6f} s, "
                 f"{out['spans']} spans")
    for name in PREDICTED_ZERO[workload]:
        state = "holds" if metrics[name]["value"] == 0 else f"VIOLATED ({metrics[name]['value']})"
        lines.append(f"prediction {name} = 0: {state}")
    return metrics, lines, out["attempted"], out["failures"], out["problems"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "frametc", "cli.py")):
            raise BenchError(f"no frametc sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(work)
        os.makedirs(out_dir, exist_ok=True)
        # Compile bytecode once, so every measured interpreter starts warm.
        res = spawn([sys.executable, "-c", IMPORT_ONLY], work, CHILD_TIMEOUT_S)
        if res["code"] != 0:
            raise BenchError("import frametc.cli failed:\n" + res["stderr"])
        if args.workload == "table-reencoded":
            check_reencoded(args.seed)
        plan = workloads.invocations(args.workload, args.seed, work)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        problems: list[str] = []
        if args.trace:
            spans_path = os.path.join(out_dir, tag + "-spans.json")
            metrics, lines, attempted, failures, problems = run_trace(args.workload, plan, work, spans_path)
        else:
            metrics, lines, attempted, failures = run_e2e(args.workload, plan, args.seconds, work)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    prov = provenance(args.workload, args.seed)
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(f"workload {args.workload}, seed {args.seed}, {len(plan)} invocations per pass")
    for line in lines:
        print(line)
    for line in failures[:20] + problems:
        print("FAILED " + line)
    print("provenance " + json.dumps(prov))
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result, "lines": lines, "failures": failures, "problems": problems},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

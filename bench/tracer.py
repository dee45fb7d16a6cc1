"""Traced in-process run of one workload: per-layer spans and counts.

Usage (``src`` must be importable, e.g. ``PYTHONPATH=src``)::

    python3 bench/tracer.py PLAN.json SPANS.json

PLAN.json is a list of invocations as built by ``workloads.invocations``.
The program calls ``frametc.cli.main(argv)`` for each of them in three
passes: traced, untraced, traced.  Wrappers are installed from here, around
the public functions of each ``frametc`` module, wherever a caller looks the
name up (``from x import f`` copies the binding, so every module attribute
that is the original function is replaced); nothing under ``src`` changes.

* Functions at layer boundaries get a span: name, start, end, parent.
* Hot per-vector calls (``mul_vec``, ``Echelon.insert``) are timed without
  storing a span, and per-basis / per-coefficient calls (``mul_basis``,
  ``Field`` arithmetic) only counted, so the spans are not distorted.
* Self time of a frame is its duration minus the time of the wrapped calls
  made inside it.

It prints one JSON object: the per-layer metrics of the second traced pass,
the self-check results, and the attempted / failed invocation counts.  Spans
of that pass are written to SPANS.json.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
import traceback
from collections import Counter, defaultdict

import workloads

ENGINES = ("cuplength.cl", "cuplength.zcl_basic", "cuplength.zcl_full")
FIELD_OPS = ("add", "sub", "mul", "neg", "coerce", "invert")


class Tracer:
    """Spans, per-label call counts, inclusive and self times, and counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans: list[tuple] = []  # (name, start, end, parent id, id)
        self.next_id = 0
        self.stack: list[list] = []  # frames [name, span id or None, child time]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_square_dim = 0

    def timed(self, fn, name, keep=True, post=None):
        """Wrap ``fn``: time each call and charge it to the calling frame.

        ``name`` is a label or a function of the call's arguments.  Inclusive
        time counts only the outermost active call of a label, so recursion
        and nesting under the same label are not counted twice.
        """
        dynamic = callable(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args) if dynamic else name
            stack = self.stack
            sid = None
            if keep:
                sid = self.next_id
                self.next_id += 1
            frame = [label, sid, 0.0]
            outer = not self.active[label]
            self.active[label] += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.active[label] -= 1
                dur = t1 - t0
                self.calls[label] += 1
                self.self_time[label] += dur - frame[2]
                if outer:
                    self.incl[label] += dur
                if stack:
                    stack[-1][2] += dur
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans.append((label, t0, t1, parent, sid))
            if post is not None:
                post(args, result)
            return result

        wrapper.bench_wrapper = True
        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.bench_wrapper = True
        return wrapper

    def field_op(self, fn):
        counts = self.counts
        keys = {0: "fields.ops.char0", 2: "fields.ops.char2"}

        def wrapper(field, *args):
            p = field.characteristic
            counts[keys.get(p) or f"fields.ops.char{p}"] += 1
            return fn(field, *args)

        wrapper.bench_wrapper = True
        return wrapper

    # -- post hooks ---------------------------------------------------------

    def add_nodes(self, args, result):
        """Sum ``result.nodes`` of top-level engine calls only."""
        if not any(self.active[e] for e in ENGINES):
            self.counts["cuplength.nodes"] += result.nodes

    def square_built(self, args, result):
        self.max_square_dim = max(self.max_square_dim, args[0].dim)

    def mul_vec_done(self, args, result):
        if result:
            self.counts["algebra.mul_vec_nonzero"] += 1

    def insert_done(self, args, result):
        if result[0]:
            self.counts["linalg.insert_added"] += 1


class Patches:
    """Installs wrappers and puts every original back."""

    def __init__(self):
        self.saved: list[tuple] = []

    @staticmethod
    def modules():
        return [m for name, m in sorted(sys.modules.items()) if name == "frametc" or name.startswith("frametc.")]

    def function(self, module: str, attr: str, make):
        """Replace a module-level function in every module that binds it."""
        orig = getattr(sys.modules[module], attr)
        wrapper = make(orig)
        for mod in self.modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self.saved.append((mod, name, orig))

    def method(self, cls, attr: str, make):
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        self.saved.append((cls, attr, orig))

    def restore(self) -> list[str]:
        """Undo every patch; return the names of any wrapper still installed."""
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()
        left = []
        for mod in self.modules():
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for name, value in vars(owner).items():
                    if getattr(value, "bench_wrapper", False):
                        left.append(f"{getattr(owner, '__name__', owner)}.{name}")
        return left


def install(tr: Tracer, patches: Patches):
    import frametc.cli  # noqa: F401  (loads every layer)
    from frametc.algebra import Algebra, MonomialAlgebra, ProductAlgebra, TableAlgebra
    from frametc.cuplength import CupLengthResult
    from frametc.fields import Field
    from frametc.linalg import Echelon

    def span(label, **kw):
        return lambda f: tr.timed(f, label, **kw)

    patches.function("frametc.cli", "main", span("cli.main"))
    for name in ("render_ring", "render_bounds", "render_examples"):
        patches.function("frametc.report", name, span("report.render"))
    for name in ("catalog_ring", "so_ring"):
        patches.function("frametc.catalog", name, span("catalog.ring"))
    patches.function("frametc.manifold", "load_descriptor", span("manifold.load"))
    patches.function("frametc.bounds", "compute_bounds", span("bounds.compute"))
    patches.function("frametc.examples", "evaluate_examples", span("examples.evaluate"))
    for name, label in zip(("cup_length", "zcl_basic", "zcl_full"), ENGINES):
        patches.function("frametc.cuplength", name, span(label, post=tr.add_nodes))
    patches.function("frametc.cuplength", "zero_divisor_ideal_basis", span("cuplength.kernel"))
    patches.method(CupLengthResult, "verify", span("cuplength.verify"))
    patches.method(ProductAlgebra, "__init__", span("algebra.square_build", post=tr.square_built))
    patches.method(Algebra, "mul_vec", span("algebra.mul_vec", keep=False, post=tr.mul_vec_done))
    patches.method(Algebra, "check_axioms", span("algebra.check_axioms"))
    for cls, key in ((MonomialAlgebra, "monomial"), (TableAlgebra, "table"), (ProductAlgebra, "product")):
        patches.method(cls, "mul_basis", lambda f, k=key: tr.counted(f, "algebra.mul_basis_calls." + k))
    patches.method(
        Echelon,
        "insert",
        span(lambda a: f"linalg.insert.char{a[0].field.characteristic}", keep=False, post=tr.insert_done),
    )
    patches.function("frametc.linalg", "kernel_of_map", span("linalg.kernel"))
    for op in FIELD_OPS:
        patches.method(Field, op, tr.field_op)


def run_pass(plan: list[dict]) -> tuple[float, list[str], list[str]]:
    """Call ``frametc.cli.main`` for each invocation; (wall, outputs, failures)."""
    import frametc.cli

    wall, outputs, failures = 0.0, [], []
    for inv in plan:
        gc.collect()  # free the previous invocation's tensor squares outside the timed region
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = frametc.cli.main(list(inv["argv"]))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc()
                code = 1
        wall += time.perf_counter() - t0
        outputs.append(out.getvalue())
        why = workloads.check(inv, code, out.getvalue(), err.getvalue())
        if why:
            failures.append(f"{' '.join(inv['argv'])}: {why}")
    return wall, outputs, failures


def layer_metrics(tr: Tracer, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics and the bases of the ratios among them."""
    calls, incl, st, c = tr.calls, tr.incl, tr.self_time, tr.counts
    inserts = calls["linalg.insert.char0"] + calls["linalg.insert.char2"]
    m = {
        "cli.main_s": incl["cli.main"],
        "report.render_s": incl["report.render"],
        "catalog.ring_calls": calls["catalog.ring"],
        "catalog.ring_s": incl["catalog.ring"],
        "manifold.load_s": incl["manifold.load"],
        "bounds.compute_self_s": st["bounds.compute"],
        "examples.evaluate_self_s": st["examples.evaluate"],
        "cuplength.zcl_full_self_s": st["cuplength.zcl_full"],
        "cuplength.zcl_basic_self_s": st["cuplength.zcl_basic"],
        "cuplength.cl_self_s": st["cuplength.cl"],
        "cuplength.kernel_s": incl["cuplength.kernel"],
        "cuplength.verify_s": incl["cuplength.verify"],
        "cuplength.nodes": c["cuplength.nodes"],
        "algebra.square_builds": calls["algebra.square_build"],
        "algebra.square_build_s": incl["algebra.square_build"],
        "algebra.square_max_dim": tr.max_square_dim,
        "algebra.mul_vec_calls": calls["algebra.mul_vec"],
        "algebra.mul_vec_s": incl["algebra.mul_vec"],
        "algebra.mul_vec_nonzero_ratio": c["algebra.mul_vec_nonzero"] / calls["algebra.mul_vec"]
        if calls["algebra.mul_vec"] else 0.0,
        "algebra.mul_basis_calls.monomial": c["algebra.mul_basis_calls.monomial"],
        "algebra.mul_basis_calls.table": c["algebra.mul_basis_calls.table"],
        "algebra.mul_basis_calls.product": c["algebra.mul_basis_calls.product"],
        "algebra.check_axioms_s": incl["algebra.check_axioms"],
        "linalg.insert_calls.char0": calls["linalg.insert.char0"],
        "linalg.insert_calls.char2": calls["linalg.insert.char2"],
        "linalg.insert_s.char0": incl["linalg.insert.char0"],
        "linalg.insert_s.char2": incl["linalg.insert.char2"],
        "linalg.insert_added_ratio": c["linalg.insert_added"] / inserts if inserts else 0.0,
        "linalg.kernel_calls": calls["linalg.kernel"],
        "linalg.kernel_s": incl["linalg.kernel"],
        "fields.ops.char0": c["fields.ops.char0"],
        "fields.ops.char2": c["fields.ops.char2"],
        "trace.overhead_s": overhead,
    }
    bases = {
        "algebra.mul_vec_nonzero_ratio": f"{c['algebra.mul_vec_nonzero']} nonzero of {calls['algebra.mul_vec']} calls",
        "linalg.insert_added_ratio": f"{c['linalg.insert_added']} added of {inserts} inserts",
    }
    return m, bases


def counts_of(tr: Tracer) -> dict:
    """Every deterministic count of a pass, for the repeat check."""
    out = {f"calls.{k}": v for k, v in tr.calls.items()}
    out.update(tr.counts)
    out["algebra.square_max_dim"] = tr.max_square_dim
    return out


def main(argv: list[str]) -> int:
    plan_path, spans_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tr, patches = Tracer(), Patches()
    problems: list[str] = []

    install(tr, patches)
    wall_a, out_a, fail_a = run_pass(plan)
    counts_a = counts_of(tr)
    left = patches.restore()
    if left:
        problems.append("wrappers left installed: " + ", ".join(left))

    wall_b, out_b, fail_b = run_pass(plan)

    tr.reset()
    install(tr, patches)
    wall_c, out_c, fail_c = run_pass(plan)
    left = patches.restore()
    if left:
        problems.append("wrappers left installed: " + ", ".join(left))

    for i, inv in enumerate(plan):
        if not (out_a[i] == out_b[i] == out_c[i]):
            problems.append(f"traced output differs from untraced: {' '.join(inv['argv'])}")
    counts_c = counts_of(tr)
    if counts_a != counts_c:
        diff = sorted(k for k in counts_a.keys() | counts_c.keys() if counts_a.get(k) != counts_c.get(k))
        problems.append("counts differ between the two traced passes: " + ", ".join(diff))

    metrics, bases = layer_metrics(tr, wall_c - wall_b)
    spans = [{"id": s[4], "name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in tr.spans]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    failures = fail_a + fail_b + fail_c
    print(json.dumps({
        "attempted": 3 * len(plan),
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "bases": bases,
        "wall": {"traced": wall_c, "untraced": wall_b},
        "spans": len(spans),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

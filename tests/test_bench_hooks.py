"""The benchmark tracer's hooks: every name it wraps must exist.

``bench/tracer.py`` wraps package functions and methods by name.  Installing
and restoring its hooks here makes a renamed or deleted name fail the test
suite instead of breaking ``bench/run.py --trace 1``.
"""

import json
import os
import subprocess
import sys

import pytest

import frametc

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "descriptors")
# Installs the tracer's hooks in an interpreter whose first frametc import is
# the tracer's own ``import frametc.cli``, runs the CLI calls given as argv,
# restores the hooks and prints the call counts and any wrapper left behind.
FRESH_PROBE = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracer
assert not [name for name in sys.modules if name.startswith("frametc")]
tr, patches = tracer.Tracer(), tracer.Patches()
tracer.install(tr, patches)
codes = []
try:
    for argv in json.loads(sys.argv[2]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(sys.modules["frametc.cli"].main(argv))
finally:
    left = patches.restore()
print(json.dumps({"codes": codes, "calls": tr.calls, "left": left}))
"""


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(BENCH))
    import tracer

    yield tracer
    for name in ("tracer", "workloads", "reencode"):
        sys.modules.pop(name, None)


def test_tracer_hooks_install_and_restore(tracer):
    patches = tracer.Patches()
    try:
        tracer.install(tracer.Tracer(), patches)
        assert patches.saved, "no hook was installed"
    finally:
        left = patches.restore()
    assert left == []


def test_table_check_is_timed_under_its_hooked_name(tracer):
    # The tracer times ``Algebra.check_axioms``; an override on a subclass
    # would leave ``algebra.check_axioms_s`` at zero without failing a run.
    from frametc import catalog

    tr = tracer.Tracer()
    patches = tracer.Patches()
    try:
        tracer.install(tr, patches)
        catalog.catalog_ring("sigma:2:char0")
    finally:
        patches.restore()
    assert tr.calls["algebra.check_axioms"] == 1


def test_tracer_reaches_the_lazy_layers_in_a_fresh_interpreter():
    # Inside this suite, the test modules have already loaded every layer.
    # ``import frametc.cli`` alone leaves four of them unrun until first use,
    # and the tracer must still wrap what each of them defines.
    argvs = [
        ["frame-bundle", os.path.join(DESCRIPTOR_DIR, "s2.json"), "--no-timing"],
        ["examples", "s2", "--no-timing"],
        ["ring", "sigma:2:char0", "--no-timing"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(frametc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", FRESH_PROBE, os.path.abspath(BENCH), json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    probe = json.loads(out)
    assert probe["codes"] == [0, 0, 0] and probe["left"] == []
    calls = probe["calls"]
    assert calls["cli.main"] == 3
    assert calls["manifold.load"] == 2 and calls["bounds.compute"] == 2
    assert calls["examples.evaluate"] == 1
    assert calls["linalg.insert.char0"] > 0

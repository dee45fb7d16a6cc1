"""The benchmark tracer's hooks: every name it wraps must exist.

``bench/tracer.py`` wraps package functions and methods by name.  Installing
and restoring its hooks here makes a renamed or deleted name fail the test
suite instead of breaking ``bench/run.py --trace 1``.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


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

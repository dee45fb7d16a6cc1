"""Package-wide contracts: what ``import frametc.cli`` loads, what the package
exports, and the fresh default containers of the hand-written record classes."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import frametc
from frametc import algebra, bounds, catalog, examples
from frametc.bounds import BoundEntry, BoundReport
from frametc.cuplength import CupLengthResult, cup_length
from frametc.fields import Field
from frametc.manifold import ManifoldDescriptor

# Modules that ``dataclasses`` pulls in behind it; none is needed at start-up.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# The benchmark's tracer relies on ``import frametc.cli`` loading every layer.
LAYERS = (
    "algebra", "bounds", "catalog", "cuplength", "examples",
    "fields", "linalg", "manifold", "report",
)


def test_cli_import_loads_every_layer_and_no_heavy_module():
    probe = (
        "import json, sys; import frametc.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(frametc.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert not loaded & set(HEAVY_MODULES)
    assert {f"frametc.{name}" for name in LAYERS} <= loaded


def test_every_exported_name_resolves():
    missing = [name for name in frametc.__all__ if not hasattr(frametc, name)]
    assert not missing


@pytest.mark.parametrize("name", ["korbas_cl", "zcl_so_closed_form", "cat_so_lower"])
def test_fibre_closed_forms_are_not_shipped(name):
    # The bound rules read SO(n) values from the cup-length engine; the
    # closed forms are a test-side reference only (tests/closed_forms.py).
    assert name not in frametc.__all__
    assert not hasattr(frametc, name)
    assert not hasattr(bounds, name)


@pytest.mark.parametrize(
    "module, name",
    [
        (catalog, "CatalogEntry"),
        (catalog, "catalog_entries"),
        (algebra, "tensor"),
        (algebra, "ring_to_json"),
    ],
)
def test_test_only_helpers_are_not_shipped(module, name):
    # The ring registry and these helpers live under tests/ (conftest.py,
    # helpers.py); nothing the CLI runs needs them.
    assert name not in frametc.__all__
    assert not hasattr(frametc, name)
    assert not hasattr(module, name)


def test_built_in_descriptors_are_only_files():
    # Every built-in descriptor is read from a shipped file; no code builds one.
    assert "torus_descriptor" not in frametc.__all__
    assert not hasattr(frametc, "torus_descriptor")
    assert not hasattr(examples, "torus_descriptor")


def test_fields_have_only_a_text_form():
    assert not hasattr(Field, "to_json")


def test_descriptor_files_are_package_data():
    # The built-in example keys are read from frametc/descriptors/ at run time.
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
    with open(pyproject, "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert "descriptors/*.json" in package_data["frametc"]


def test_every_package_error_is_a_value_error():
    # cli.main reports a ValueError as "error: ..." with exit code 1; a
    # package error of any other kind would escape as a traceback.
    errors = {
        obj
        for info in pkgutil.iter_modules(frametc.__path__)
        for obj in vars(importlib.import_module(f"frametc.{info.name}")).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__.startswith("frametc")
    }
    assert {e.__name__ for e in errors} >= {"CapacityError", "CatalogError", "DescriptorError"}
    assert [e.__name__ for e in errors if not issubclass(e, ValueError)] == []


def test_reports_are_not_read_back_and_cup_length_has_no_route_knob():
    assert not hasattr(BoundEntry, "from_json")
    assert not hasattr(BoundReport, "from_json")
    assert list(inspect.signature(cup_length).parameters) == ["A", "budget"]


@pytest.mark.parametrize(
    "make, attrs",
    [
        (lambda: BoundEntry("r", "lower", 1, "s", "c"), ("assumptions", "notes")),
        (lambda: BoundReport({}, 1, 1), ("entries", "warnings")),
        (lambda: CupLengthResult(0, True, "m"), ("witness", "parts")),
        (lambda: ManifoldDescriptor(name="M", dim=3), ("cohomology",)),
    ],
    ids=["BoundEntry", "BoundReport", "CupLengthResult", "ManifoldDescriptor"],
)
def test_default_containers_are_not_shared(make, attrs):
    first, second = make(), make()
    for attr in attrs:
        assert getattr(first, attr) is not getattr(second, attr)
        assert not getattr(first, attr)

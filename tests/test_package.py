"""Package-wide contracts: what ``import frametc.cli`` loads, that the package
root re-exports nothing, that every shipped function is reached from the CLI,
and the fresh default containers of the hand-written record classes."""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import frametc
from frametc import algebra, bounds, catalog, examples, table
from frametc.cuplength import CupLengthResult, cup_length
from frametc.fields import Field
from frametc.manifold import ManifoldDescriptor

# Modules that ``dataclasses``, ``argparse`` and ``fractions`` pull in behind
# them; none is needed at start-up.
HEAVY_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "argparse", "gettext", "locale", "fractions", "decimal", "numbers",
)
# The benchmark's tracer relies on ``import frametc.cli`` putting every layer
# in ``sys.modules``.  Five of them (bounds, examples, linalg, manifold,
# table) are lazy there: a layer's body runs on its first attribute access,
# which the tracer's own ``getattr`` and ``vars`` calls make.
LAYERS = (
    "algebra", "bounds", "catalog", "cuplength", "examples",
    "fields", "linalg", "manifold", "report", "table",
)
# Functions of src/frametc that no CLI run enters, each for a reason.
# ``algebra.__getattr__`` is not one: every ``from .algebra import ...`` asks
# it for ``__path__``, which it refuses.
UNREACHED_BY_DESIGN = {
    # bench/tracer.py wraps these by name, and tests/test_bench_hooks.py
    # requires every name it wraps to exist.
    "cuplength.zcl_basic",
    "cuplength.zero_divisor_ideal_basis",
    "linalg.kernel_of_map",
    "fields.Field.invert",
    "algebra.ProductAlgebra.mul_basis",
    # The abstract method that every encoding overrides.
    "algebra.Algebra.mul_basis",
    # The immutability guard and the debugging form.
    "fields.Field.__setattr__",
    "fields.Field.__repr__",
}
# Runs each argv list read from stdin through ``frametc.cli.main`` in one
# interpreter, profiled from before ``frametc`` is imported, and prints the
# exit codes, the (file, first line) of every package function entered and
# the files whose module body ran.
REACH_PROBE = r"""
import contextlib, io, json, os, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
import frametc.cli
codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(frametc.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
here = os.path.dirname(frametc.cli.__file__)
ours = [c for c in entered if os.path.dirname(c.co_filename) == here]
print(json.dumps({"codes": codes, "entered": sorted(
    (os.path.basename(c.co_filename), c.co_firstlineno) for c in ours
), "bodies": sorted(
    os.path.basename(c.co_filename) for c in ours if c.co_name == "<module>"
)}))
"""


def _reach(argvs: list) -> dict:
    """The output of ``REACH_PROBE`` for ``argvs``, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(frametc.__file__))
    out = subprocess.run(
        [sys.executable, "-c", REACH_PROBE], input=json.dumps(argvs),
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    return json.loads(out)


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


DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "descriptors")


@pytest.mark.parametrize(
    "argv, used, skipped",
    [
        (
            ["ring", "so:8:char2", "--compute", "cl,zcl-full", "--json"],
            set(),
            {"bounds", "examples", "linalg", "manifold", "table"},
        ),
        (
            ["frame-bundle", os.path.join(DESCRIPTOR_DIR, "s2.json"), "--json"],
            {"bounds", "manifold"},
            {"examples", "linalg", "table"},
        ),
        (
            ["ring", "sigma:2:char0", "--json"],
            {"linalg", "table"},
            {"bounds", "examples", "manifold"},
        ),
    ],
    ids=["ring-monomial", "frame-bundle-file", "ring-table"],
)
def test_a_cli_call_runs_only_the_layers_it_uses(argv, used, skipped):
    # ``import frametc.cli`` registers every layer (the test above), but a
    # layer's body is compiled and run only when a call first uses it.
    probe = _reach([argv])
    assert probe["codes"] == [0]
    ran = {name[:-3] for name in probe["bodies"]}
    assert ran >= {"cli", "algebra", "catalog", "cuplength", "fields", "report"} | used
    assert ran & skipped == set()


def test_algebra_keeps_the_table_names_the_benchmark_imports():
    # bench/tracer.py and bench/run.py import these two from frametc.algebra;
    # they are the objects frametc.table defines, not copies.
    assert algebra.TableAlgebra is table.TableAlgebra
    assert algebra.ring_from_json is table.ring_from_json


@pytest.mark.parametrize("name", ["linalg", "_coeff_from_json", "_json_list", "no_such_name"])
def test_algebra_has_no_other_table_names(name):
    with pytest.raises(AttributeError, match=name):
        getattr(algebra, name)


def _defined_functions() -> dict:
    """(file, first line) -> dotted name of every function in src/frametc.

    Lambdas and comprehensions are left out; they run inside a function.
    """
    found = {}

    def walk(code, prefix, name):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            dotted = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[(name, const.co_firstlineno)] = dotted
            walk(const, dotted + ".", name)

    here = os.path.dirname(frametc.__file__)
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            path = os.path.join(here, name)
            with open(path, encoding="utf-8") as fh:
                walk(compile(fh.read(), path, "exec"), name[:-3] + ".", name)
    return found


def test_every_shipped_function_is_entered_by_a_cli_run(tmp_path):
    from test_golden import CASES, RING_ITEMS

    def ring_file(name, field, basis, products):
        path = tmp_path / name
        path.write_text(json.dumps({
            "field": {"char": field},
            "type": "table",
            "basis": [{"name": n, "degree": d} for n, d in basis],
            "products": products,
        }))
        return str(path)

    fractional = ring_file(
        "half.json", 0, [("1", 0), ("x", 2), ("z", 4)], [["x", "x", "z", "1/2"]]
    )
    # x·y = u and u·z = v, but y·z = 0: (x·y)·z = v and x·(y·z) = 0.
    nonassociative = ring_file(
        "broken.json", 2,
        [("1", 0), ("x", 2), ("y", 2), ("z", 2), ("u", 4), ("v", 6)],
        [["x", "y", "u", 1], ["y", "x", "u", 1], ["u", "z", "v", 1], ["z", "u", "v", 1]],
    )
    errors = [
        ["ring", nonassociative],
        ["ring", "so:3:char4"],
        ["ring", "nope:3"],
        ["ring", "so:3:char2", "--compute", "bogus"],
        ["ring", "so:3:char2", "--field", "char=4"],
        ["frame-bundle", "nope"],
        ["frame-bundle", str(tmp_path / "missing.json")],
        ["examples", "rp9"],
    ]
    # A usage error exits 2 and --help exits 0, each through SystemExit.
    usage = [["ring", "so:3:char2", "--budget", "-5"], ["--help"]]
    argvs = [
        *CASES.values(), ["ring", fractional, "--compute", RING_ITEMS], *errors, *usage
    ]
    probe = _reach(argvs)
    assert probe["codes"][-len(errors) - 3:] == [0] + [1] * len(errors) + [2, 0]
    entered = {tuple(key) for key in probe["entered"]}
    defined = _defined_functions()
    unreached = {name for key, name in defined.items() if key not in entered}
    assert sorted(unreached - UNREACHED_BY_DESIGN) == []
    assert unreached >= UNREACHED_BY_DESIGN  # the allow-list is not stale


def test_package_root_binds_only_its_version_and_submodules():
    # Every name is imported from the module that defines it; the root
    # re-exports nothing.
    public = {
        name: value for name, value in vars(frametc).items()
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert [
        name for name, value in public.items()
        if not (isinstance(value, types.ModuleType) and value.__name__ == f"frametc.{name}")
    ] == []
    assert not hasattr(frametc, "__all__") and frametc.__version__


@pytest.mark.parametrize("name", ["korbas_cl", "zcl_so_closed_form", "cat_so_lower"])
def test_fibre_closed_forms_are_not_shipped(name):
    # The bound rules read SO(n) values from the cup-length engine; the
    # closed forms are a test-side reference only (tests/closed_forms.py).
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
    assert not hasattr(module, name)


def test_every_encoding_reads_a_basis_class_one_way():
    # No abstract method declares degree(k) and label(k); this holds every
    # encoding, and a tensor square of each, to answering both for every
    # class, with no list view beside them.
    rings = [catalog.catalog_ring(ring_id)[1] for ring_id in ("so:5:char2", "sigma:2:char0")]
    encodings = rings + [algebra.ProductAlgebra(A, A) for A in rings]
    assert [type(A).__name__ for A in encodings] == [
        "MonomialAlgebra", "TableAlgebra", "ProductAlgebra", "ProductAlgebra",
    ]
    for A in encodings:
        for k in range(A.dim):
            assert 0 <= A.degree(k) <= A.top_degree and A.label(k), (A, k)
        assert A.degree(A.unit_index) == 0
        assert not hasattr(A, "degrees") and not hasattr(A, "labels")


def test_built_in_descriptors_are_only_files():
    # Every built-in descriptor is read from a shipped file; no code builds one.
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
    # A frame-bundle report is its JSON payload; no record class reads it back.
    assert not {"BoundEntry", "BoundReport"} & set(vars(bounds))
    assert list(inspect.signature(cup_length).parameters) == ["A", "budget"]


@pytest.mark.parametrize(
    "make, attrs",
    [
        (lambda: CupLengthResult(0, True, "m"), ("witness", "parts")),
        (lambda: ManifoldDescriptor({"name": "M", "dim": 3}), ("cohomology",)),
    ],
    ids=["CupLengthResult", "ManifoldDescriptor"],
)
def test_default_containers_are_not_shared(make, attrs):
    first, second = make(), make()
    for attr in attrs:
        assert getattr(first, attr) is not getattr(second, attr)
        assert not getattr(first, attr)

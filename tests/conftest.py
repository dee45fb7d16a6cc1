"""Shared fixtures: the canonical ring registry, an in-process CLI runner,
and a JSON-schema validator wired up for the package's cross-file refs."""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import namedtuple

import pytest

import frametc
from frametc.catalog import catalog_ring
from frametc.cli import main

# The canonical registry of catalog rings, in a fixed order: the golden,
# oracle-equivalence and property suites all run over it.
CATALOG_IDS = (
    [f"so:{n}:char0" for n in range(1, 9)]
    + [f"so:{n}:char2" for n in range(1, 9)]
    + [f"rp:{n}" for n in (1, 2, 3, 7)]
    + [f"cp:{n}:char0" for n in range(1, 5)]
    + [f"cp:{n}:char2" for n in (1, 2)]
    + [f"t:{n}:char0" for n in range(1, 5)]
    + [f"t:{n}:char2" for n in range(1, 5)]
    + [f"s:{n}:char0" for n in range(1, 5)]
    + [f"s:{n}:char2" for n in range(1, 5)]
    + [f"sigma:{g}:char0" for g in range(1, 4)]
    + [f"sigma:{g}:char2" for g in range(1, 4)]
)

CatalogRing = namedtuple("CatalogRing", "entry_id algebra")


def catalog_entries() -> list[CatalogRing]:
    """Every ring of the registry, built, with its ``family:param:charP`` id."""
    return [CatalogRing(*catalog_ring(i)) for i in CATALOG_IDS]


@pytest.fixture(scope="session")
def entries():
    return catalog_entries()


@pytest.fixture(scope="session")
def small_entries(entries):
    """Every catalog ring small enough for exhaustive cross-checks."""
    return [e for e in entries if e.algebra.dim <= 16]


@pytest.fixture(scope="session")
def run_cli():
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


@pytest.fixture(scope="session")
def schema_validator():
    """Build a validator for one of the shipped schemas.

    The schemas reference each other by bare file name, so every file in the
    schema directory is registered under that name before validating.
    """
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")

    schema_dir = os.path.join(os.path.dirname(frametc.__file__), "schemas")
    registry = referencing.Registry()
    for name in sorted(os.listdir(schema_dir)):
        with open(os.path.join(schema_dir, name), encoding="utf-8") as fh:
            contents = json.load(fh)
        registry = registry.with_resource(
            uri=name, resource=referencing.Resource.from_contents(contents)
        )

    def make(schema_name):
        with open(os.path.join(schema_dir, schema_name), encoding="utf-8") as fh:
            schema = json.load(fh)
        cls = jsonschema.validators.validator_for(schema)
        return cls(schema, registry=registry)

    return make

"""Exact cup-length engine and topological-complexity bound rules for frame bundles."""

from .algebra import (
    Algebra,
    CapacityError,
    DEFAULT_CAPACITY,
    DomainMismatchError,
    Element,
    GeneratorSpec,
    InvalidPresentationError,
    MonomialAlgebra,
    ProductAlgebra,
    TableAlgebra,
    ring_from_json,
    tensor_square,
)
from .bounds import BoundEntry, BoundReport, cat_so, compute_bounds
from .catalog import CatalogError, catalog_ring, parse_catalog_id
from .cuplength import CupLengthResult, bar, cup_length, zcl_full
from .examples import evaluate_examples, example_descriptor
from .fields import F2, Field, FieldError, QQ, field_of, parse_field
from .manifold import DescriptorError, ManifoldDescriptor, load_descriptor

__all__ = [
    "Algebra",
    "BoundEntry",
    "BoundReport",
    "CapacityError",
    "CatalogError",
    "CupLengthResult",
    "DEFAULT_CAPACITY",
    "DescriptorError",
    "DomainMismatchError",
    "Element",
    "F2",
    "Field",
    "FieldError",
    "GeneratorSpec",
    "InvalidPresentationError",
    "ManifoldDescriptor",
    "MonomialAlgebra",
    "ProductAlgebra",
    "QQ",
    "TableAlgebra",
    "bar",
    "cat_so",
    "catalog_ring",
    "compute_bounds",
    "cup_length",
    "evaluate_examples",
    "example_descriptor",
    "field_of",
    "load_descriptor",
    "parse_catalog_id",
    "parse_field",
    "ring_from_json",
    "tensor_square",
    "zcl_full",
]

__version__ = "0.1.0"

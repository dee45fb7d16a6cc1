"""Exact cup-length engine and topological-complexity bound rules for frame bundles."""

__version__ = "0.1.0"

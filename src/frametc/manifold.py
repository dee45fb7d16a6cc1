"""Descriptors for closed oriented manifolds feeding the bound rules.

A descriptor records the structural facts about a closed, connected, oriented
smooth manifold that the rules in :mod:`frametc.bounds` can act on: dimension,
parallelizability, Lie-group structure, spin, fields over which the fiber
inclusion of the frame bundle is totally non-cohomologous to zero (TNCZ),
cohomology rings per coefficient field, known topological complexity and
category of the base, and the dimension of a compact Lie group known to act
freely.

Implication closure applied at construction: a Lie group is parallelizable,
and a parallelizable manifold is spin and has trivial (hence TNCZ) frame
bundle over every field.  The descriptor stores the closure so downstream
rules can test single flags.

Cohomology ring references are either catalog ids (``"rp:3"``, ``"cp:2:char0"``),
paths to ring JSON files (anything containing a slash or ending in ``.json``),
or inline ring objects.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Union

from .algebra import Algebra, DEFAULT_CAPACITY, ring_from_json
from .catalog import catalog_ring
from .fields import Field, parse_field


class DescriptorError(Exception):
    pass


Interval = tuple[Optional[int], Optional[int]]


def _as_interval(value, what: str) -> Optional[Interval]:
    """Normalize an int or [lo, hi] (None endpoints allowed) to a tuple.

    Values are unreduced (TC or cat of a point is 1), so every given
    integer must be at least 1.
    """
    if value is None:
        return None
    if type(value) is int:  # JSON true is no integer
        if value < 1:
            raise DescriptorError(f"{what} must be at least 1, got {value!r}")
        return (value, value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        lo, hi = value
        for v in (lo, hi):
            if v is not None and (type(v) is not int or v < 1):
                raise DescriptorError(
                    f"{what} endpoints must be integers >= 1 or null, got {value!r}"
                )
        if lo is not None and hi is not None and lo > hi:
            raise DescriptorError(f"{what} has lo > hi: {value!r}")
        return (lo, hi)
    raise DescriptorError(f"{what} must be an integer or [lo, hi], got {value!r}")


class ManifoldDescriptor:
    """Structural facts about a closed oriented manifold."""

    def __init__(
        self,
        name: str,
        dim: int,
        orientable: bool = True,
        parallelizable: bool = False,
        spin: bool = False,
        lie_group: bool = False,
        frame_bundle_lie_group: Optional[str] = None,
        tncz_fields: tuple[str, ...] = (),
        cohomology: Optional[dict] = None,
        known_tc_base: Optional[Interval] = None,
        known_cat_base: Optional[Interval] = None,
        free_action_dim: Optional[int] = None,
        connectivity: int = 0,
        base_dir: Optional[str] = None,  # resolves relative ring paths
    ):
        self.name = name
        self.dim = dim
        self.orientable = orientable
        self.parallelizable = parallelizable
        self.spin = spin
        self.lie_group = lie_group
        self.frame_bundle_lie_group = frame_bundle_lie_group
        self.tncz_fields = tncz_fields
        self.cohomology = {} if cohomology is None else cohomology
        self.known_tc_base = known_tc_base
        self.known_cat_base = known_cat_base
        self.free_action_dim = free_action_dim
        self.connectivity = connectivity
        self.base_dir = base_dir
        self._check()

    def _check(self):
        """Validate the facts and close them under their implications."""
        if self.free_action_dim is None:  # the default is checked like a given value
            self.free_action_dim = self.dim if self.lie_group else 0
        if not isinstance(self.name, str) or not self.name:
            raise DescriptorError(f"descriptor needs a name string, got {self.name!r}")
        for what in ("orientable", "parallelizable", "spin", "lie_group"):
            value = getattr(self, what)
            if type(value) is not bool:
                raise DescriptorError(f"{what} must be true or false, got {value!r}")
        for what in ("dim", "connectivity", "free_action_dim"):
            value = getattr(self, what)
            if type(value) is not int:  # JSON true is no integer
                raise DescriptorError(f"{what} must be an integer, got {value!r}")
        if self.dim < 1:
            raise DescriptorError(f"dim must be >= 1, got {self.dim}")
        if not self.orientable:
            raise DescriptorError(
                "the oriented frame bundle needs an orientable manifold"
            )
        if self.connectivity < 0:
            raise DescriptorError("connectivity must be >= 0")
        if self.frame_bundle_lie_group is not None and not isinstance(
            self.frame_bundle_lie_group, str
        ):
            raise DescriptorError(
                "frame_bundle_lie_group must be an so:k id string, got "
                f"{self.frame_bundle_lie_group!r}"
            )
        if not isinstance(self.tncz_fields, (list, tuple)) or not all(
            isinstance(t, str) for t in self.tncz_fields
        ):
            raise DescriptorError(
                f"tncz_fields must list field tokens like char=2, got {self.tncz_fields!r}"
            )
        if not isinstance(self.cohomology, dict):
            raise DescriptorError(
                f"cohomology must map field tokens to rings, got {self.cohomology!r}"
            )
        # implication closure
        if self.lie_group:
            self.parallelizable = True
        if self.parallelizable:
            self.spin = True
        if self.free_action_dim < 0:
            raise DescriptorError("free_action_dim must be >= 0")
        if self.free_action_dim > self.dim:
            raise DescriptorError(
                "a group acting freely cannot have dimension above the manifold's"
            )
        if self.lie_group and self.free_action_dim < self.dim:
            raise DescriptorError(
                "a Lie group acts freely on itself; free_action_dim below dim "
                "contradicts lie_group"
            )
        # normalize field tokens (validates them) and intervals
        self.tncz_fields = tuple(parse_field(t).token() for t in self.tncz_fields)
        self.known_tc_base = _as_interval(self.known_tc_base, "known_tc_base")
        self.known_cat_base = _as_interval(self.known_cat_base, "known_cat_base")
        for token in self.cohomology:
            parse_field(token)  # raises on bad token

    # -- convenience accessors ------------------------------------------------

    def tc_base_upper(self) -> Optional[int]:
        return self.known_tc_base[1] if self.known_tc_base else None

    def cat_base_upper(self) -> Optional[int]:
        return self.known_cat_base[1] if self.known_cat_base else None

    def is_tncz(self, token: str) -> bool:
        """TNCZ over the field: declared, or forced by a trivial frame bundle."""
        return self.parallelizable or parse_field(token).token() in self.tncz_fields

    def field_tokens(self) -> list[str]:
        """Field tokens with ring data, characteristic 0 first then ascending."""
        tokens = {parse_field(t).token() for t in self.cohomology}
        return sorted(tokens, key=lambda t: int(t.split("=")[1]))

    def ring(self, token: str, capacity: int = DEFAULT_CAPACITY) -> Optional[Algebra]:
        """Resolve the cohomology ring for a field token, or None if absent."""
        fld = parse_field(token)
        ref = None
        for key, value in self.cohomology.items():
            if parse_field(key).token() == fld.token():
                ref = value
                break
        if ref is None:
            return None
        return self._resolve_ref(ref, fld, capacity)

    def _resolve_ref(self, ref, fld: Field, capacity: int) -> Algebra:
        if isinstance(ref, dict):
            return ring_from_json(ref, field=fld, capacity=capacity)
        if isinstance(ref, str):
            if "/" in ref or ref.endswith(".json"):
                path = ref
                if not os.path.isabs(path) and self.base_dir:
                    path = os.path.join(self.base_dir, path)
                with open(path, "r", encoding="utf-8") as fh:
                    return ring_from_json(json.load(fh), field=fld, capacity=capacity)
            return catalog_ring(ref, field=fld, capacity=capacity).algebra
        raise DescriptorError(f"bad ring reference {ref!r}")

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "orientable": self.orientable,
            "parallelizable": self.parallelizable,
            "spin": self.spin,
            "lie_group": self.lie_group,
            "connectivity": self.connectivity,
            "free_action_dim": self.free_action_dim,
        }
        if self.frame_bundle_lie_group:
            out["frame_bundle_lie_group"] = self.frame_bundle_lie_group
        if self.tncz_fields:
            out["tncz_fields"] = list(self.tncz_fields)
        if self.cohomology:
            out["cohomology"] = self.cohomology
        if self.known_tc_base:
            out["known_tc_base"] = list(self.known_tc_base)
        if self.known_cat_base:
            out["known_cat_base"] = list(self.known_cat_base)
        return out

    @classmethod
    def from_json(cls, obj: dict, base_dir: Optional[str] = None) -> "ManifoldDescriptor":
        if not isinstance(obj, dict):
            raise DescriptorError("manifold descriptor must be a JSON object")
        known = {
            "name", "dim", "orientable", "parallelizable", "spin", "lie_group",
            "frame_bundle_lie_group", "tncz_fields", "cohomology",
            "known_tc_base", "known_cat_base", "free_action_dim", "connectivity",
        }
        unknown = set(obj) - known
        if unknown:
            raise DescriptorError(f"unknown descriptor keys: {sorted(unknown)}")
        # null leaves these flags at their default, as an absent key does
        nullable = ("parallelizable", "spin", "lie_group")
        obj = {k: v for k, v in obj.items() if v is not None or k not in nullable}
        try:
            return cls(
                name=obj.get("name", ""),
                dim=obj.get("dim", 0),
                orientable=obj.get("orientable", True),
                parallelizable=obj.get("parallelizable", False),
                spin=obj.get("spin", False),
                lie_group=obj.get("lie_group", False),
                frame_bundle_lie_group=obj.get("frame_bundle_lie_group"),
                tncz_fields=obj.get("tncz_fields", ()),
                cohomology=obj.get("cohomology", {}),
                known_tc_base=obj.get("known_tc_base"),
                known_cat_base=obj.get("known_cat_base"),
                free_action_dim=obj.get("free_action_dim"),
                connectivity=obj.get("connectivity", 0),
                base_dir=base_dir,
            )
        except TypeError as exc:
            raise DescriptorError(str(exc)) from exc


def load_descriptor(path: str) -> ManifoldDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return ManifoldDescriptor.from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))

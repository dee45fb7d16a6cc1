"""Descriptors for closed oriented manifolds feeding the bound rules.

A descriptor records the structural facts about a closed, connected, oriented
smooth manifold that the rules in :mod:`frametc.bounds` can act on: dimension,
parallelizability, Lie-group structure, spin, fields over which the fiber
inclusion of the frame bundle is totally non-cohomologous to zero (TNCZ),
cohomology rings per coefficient field, known topological complexity and
category of the base, and the dimension of a compact Lie group known to act
freely.

There is one constructor, ``ManifoldDescriptor(obj, base_dir=None)``, which
reads a descriptor object as parsed from JSON; :func:`load_descriptor` reads
one from a file.  One table, ``_KEYS``, lists every key with its default:
an unknown key is refused, an absent key takes its default, and ``to_json``
writes the keys in the table's order.  JSON null for ``parallelizable``,
``spin``, ``lie_group`` or ``cohomology`` means the default, as an absent
key does; null for a key whose default is a value (``name``, ``dim``,
``orientable``, ``connectivity``, ``tncz_fields``) is refused.

Implication closure applied at construction: a Lie group is parallelizable,
and a parallelizable manifold is spin and has trivial (hence TNCZ) frame
bundle over every field.  The descriptor stores the closure so downstream
rules can test single flags.

Every fact the rules read from the descriptor is decided here, once, at
construction: the ``cohomology`` keys become one ring reference per
:class:`~frametc.fields.Field` and ``tncz_fields`` a tuple of fields (in
both, a field named twice is refused), and ``frame_bundle_lie_group`` must
be ``so:k``, exactly as the schema spells it, with SO(k) of the frame
bundle's dimension.  Ring references resolve through
:func:`frametc.catalog.resolve_ring`, relative paths against ``base_dir``.
"""

from __future__ import annotations

import json
import os
import re
from typing import Optional

from .algebra import Algebra, DEFAULT_CAPACITY
from .catalog import resolve_ring
from .fields import Field, parse_field


class DescriptorError(ValueError):
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


# Every descriptor key with its default, in the order ``to_json`` writes
# them.  Null means the default for the keys in ``_NULL_MEANS_DEFAULT`` and
# for those whose default is None; for any other key it is refused.
_KEYS = {
    "name": "",
    "dim": 0,
    "orientable": True,
    "parallelizable": False,
    "spin": False,
    "lie_group": False,
    "connectivity": 0,
    "free_action_dim": None,  # dim for a Lie group, else 0
    "frame_bundle_lie_group": None,
    "tncz_fields": (),
    "cohomology": {},
    "known_tc_base": None,
    "known_cat_base": None,
}
_NULL_MEANS_DEFAULT = ("parallelizable", "spin", "lie_group", "cohomology")


class ManifoldDescriptor:
    """Structural facts about a closed oriented manifold.

    Built from a descriptor object (the parsed JSON) and the directory that
    relative ring paths in its ``cohomology`` resolve against.
    """

    def __init__(self, obj: dict, base_dir: Optional[str] = None):
        if not isinstance(obj, dict):
            raise DescriptorError("manifold descriptor must be a JSON object")
        unknown = set(obj) - set(_KEYS)
        if unknown:
            raise DescriptorError(f"unknown descriptor keys: {sorted(unknown)}")
        for key, default in _KEYS.items():
            value = obj.get(key, default)
            if value is None and key in _NULL_MEANS_DEFAULT:
                value = default
            if isinstance(value, dict):  # cohomology: share no dict with obj or _KEYS
                value = dict(value)
            setattr(self, key, value)
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
        self.frame_bundle_k = self._so_k()
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
        tncz: list[Field] = []
        for text in self.tncz_fields:
            fld = parse_field(text)
            if fld in tncz:
                raise DescriptorError(f"tncz_fields names {fld.token()} twice")
            tncz.append(fld)
        self.tncz_fields = tuple(tncz)
        self.known_tc_base = _as_interval(self.known_tc_base, "known_tc_base")
        self.known_cat_base = _as_interval(self.known_cat_base, "known_cat_base")
        refs: dict[Field, object] = {}
        for key, ref in self.cohomology.items():
            fld = parse_field(key)
            if fld in refs:
                raise DescriptorError(f"cohomology names {fld.token()} twice")
            if not isinstance(ref, (str, dict)):
                raise DescriptorError(f"bad ring reference {ref!r}")
            refs[fld] = ref
        self._refs = dict(sorted(refs.items(), key=lambda kv: kv[0].characteristic))

    def _so_k(self) -> Optional[int]:
        """The k of ``frame_bundle_lie_group`` = so:k, checked against dim F(M)."""
        text = self.frame_bundle_lie_group
        if text is None:
            return None
        if not isinstance(text, str) or not re.fullmatch("so:[0-9]+", text):
            raise DescriptorError(
                f"frame_bundle_lie_group must be an so:k id, got {text!r}"
            )
        k = int(text[3:])
        dim_f = self.dim * (self.dim + 1) // 2
        if k * (k - 1) // 2 != dim_f:
            raise DescriptorError(
                f"SO({k}) has dimension {k * (k - 1) // 2}, but F(M) has "
                f"dimension {dim_f}"
            )
        return k

    # -- convenience accessors ------------------------------------------------

    def tc_base_upper(self) -> Optional[int]:
        return self.known_tc_base[1] if self.known_tc_base else None

    def cat_base_upper(self) -> Optional[int]:
        return self.known_cat_base[1] if self.known_cat_base else None

    def is_tncz(self, field: Field) -> bool:
        """TNCZ over the field: declared, or forced by a trivial frame bundle."""
        return self.parallelizable or field in self.tncz_fields

    def fields(self) -> list[Field]:
        """Fields with ring data, in ascending characteristic."""
        return list(self._refs)

    def ring(self, field: Field, capacity: int = DEFAULT_CAPACITY) -> Optional[Algebra]:
        """The cohomology ring over the field, or None if none is given."""
        if field not in self._refs:
            return None
        return resolve_ring(self._refs[field], field, capacity, self.base_dir)[1]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """The checked facts as JSON, in table order; unset keys are left out."""
        out = {}
        for key in _KEYS:
            value = getattr(self, key)
            if isinstance(value, tuple):  # tncz_fields and the intervals
                value = [v.token() if isinstance(v, Field) else v for v in value]
            if value not in (None, [], {}):
                out[key] = value
        return out


def load_descriptor(path: str) -> ManifoldDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return ManifoldDescriptor(obj, base_dir=os.path.dirname(os.path.abspath(path)))

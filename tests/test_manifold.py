"""Manifold descriptors: validation, implication closure, ring resolution, JSON."""

import json
import os

import pytest

from frametc import manifold
from frametc.catalog import rp_ring
from frametc.fields import F2, QQ, field_of
from frametc.manifold import DescriptorError, ManifoldDescriptor, load_descriptor
from helpers import ring_to_json

DESCRIPTOR_DIR = os.path.join(os.path.dirname(__file__), "..", "descriptors")
SCHEMA_DIR = os.path.join(os.path.dirname(manifold.__file__), "schemas")


def minimal(base_dir=None, **kw):
    return ManifoldDescriptor({"name": "M", "dim": 3, **kw}, base_dir=base_dir)


class TestValidation:
    def test_needs_name_and_dimension(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "", "dim": 3})
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "M", "dim": 0})

    def test_orientable_required(self):
        with pytest.raises(DescriptorError):
            minimal(orientable=False)

    def test_connectivity_nonnegative(self):
        with pytest.raises(DescriptorError):
            minimal(connectivity=-1)
        assert minimal(connectivity=2).connectivity == 2

    def test_free_action_dim_bounds(self):
        with pytest.raises(DescriptorError):
            minimal(free_action_dim=-1)
        with pytest.raises(DescriptorError):
            minimal(free_action_dim=4)  # exceeds dim 3
        assert minimal(free_action_dim=2).free_action_dim == 2

    def test_lie_group_forces_full_free_action(self):
        with pytest.raises(DescriptorError):
            minimal(lie_group=True, free_action_dim=1)
        assert minimal(lie_group=True).free_action_dim == 3

    def test_interval_normalization(self):
        d = minimal(known_tc_base=4)
        assert d.known_tc_base == (4, 4)
        d = minimal(known_tc_base=[None, 7])
        assert d.known_tc_base == (None, 7)
        with pytest.raises(DescriptorError):
            minimal(known_tc_base=[5, 3])
        with pytest.raises(DescriptorError):
            minimal(known_tc_base=True)
        with pytest.raises(DescriptorError):
            minimal(known_cat_base=["a", 3])

    def test_field_tokens_validated(self):
        with pytest.raises(Exception):
            minimal(tncz_fields=("charx",))
        with pytest.raises(Exception):
            minimal(cohomology={"weird": "rp:3"})


class TestImplicationClosure:
    def test_lie_group_implies_parallelizable_implies_spin(self):
        d = minimal(lie_group=True)
        assert d.parallelizable and d.spin

    def test_parallelizable_implies_spin(self):
        d = minimal(parallelizable=True)
        assert d.spin and not d.lie_group

    def test_default_free_action(self):
        assert minimal().free_action_dim == 0
        assert minimal(lie_group=True).free_action_dim == 3


class TestAccessors:
    def test_tc_and_cat_accessors(self):
        d = minimal(known_tc_base=[4, 6], known_cat_base=5)
        assert d.tc_base_upper() == 6
        assert d.cat_base_upper() == 5
        assert minimal().tc_base_upper() is None

    @pytest.mark.parametrize("tokens", [("char=2", "char2"), ("char=0", " CHAR0 ")])
    def test_tncz_field_named_twice_rejected(self, tokens):
        with pytest.raises(DescriptorError, match="twice"):
            minimal(tncz_fields=tokens)

    def test_is_tncz(self):
        d = minimal(tncz_fields=("char=2",))
        assert d.is_tncz(F2)
        assert minimal(tncz_fields=("char2",)).is_tncz(F2)  # token normalization
        assert not d.is_tncz(QQ)
        assert minimal(parallelizable=True).is_tncz(field_of(13))

    def test_field_tokens_sorted_by_characteristic(self):
        d = minimal(
            cohomology={"char=3": "s:3:char3", "char2": "rp:3", "char=0": "s:3:char0"}
        )
        assert d.fields() == [QQ, F2, field_of(3)]


class TestRingResolution:
    def test_catalog_reference(self):
        d = minimal(cohomology={"char=2": "rp:3"})
        A = d.ring(F2)
        assert A.dim == 4
        assert d.ring(QQ) is None

    def test_inline_ring(self):
        d = minimal(cohomology={"char=2": ring_to_json(rp_ring(3))})
        assert d.ring(F2).dim == 4

    def test_file_reference_resolved_against_base_dir(self, tmp_path):
        ring_path = tmp_path / "rings" / "m.json"
        ring_path.parent.mkdir()
        ring_path.write_text(json.dumps(ring_to_json(rp_ring(3))))
        d = ManifoldDescriptor(
            {"name": "M", "dim": 3, "cohomology": {"char=2": "rings/m.json"}},
            base_dir=str(tmp_path),
        )
        assert d.ring(F2).dim == 4

    def test_file_named_without_slash_or_suffix(self, tmp_path):
        (tmp_path / "myring").write_text(json.dumps(ring_to_json(rp_ring(3))))
        d = minimal(cohomology={"char=2": "myring"}, base_dir=str(tmp_path))
        assert d.ring(F2).dim == 4

    def test_bad_reference(self):
        with pytest.raises(DescriptorError):
            minimal(cohomology={"char=2": 42})

    @pytest.mark.parametrize("keys", [("char=2", "char2"), ("char=0", " CHAR0 ")])
    def test_field_named_twice_rejected(self, keys):
        with pytest.raises(DescriptorError, match="twice"):
            minimal(cohomology={keys[0]: "rp:3", keys[1]: "s:3:char2"})


class TestFrameBundleLieGroup:
    @pytest.mark.parametrize(
        "value", ["rp:3", "so:5", 5, "so:3:char0", "so:3:char=7", " so:3", "so:3 ", "so:+3"]
    )
    def test_refused_at_construction_and_load(self, tmp_path, value):
        # F(S^2) has dimension 3 = dim SO(3); SO(5) has dimension 10.
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "S^2", "dim": 2, "frame_bundle_lie_group": value})
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": "S^2", "dim": 2, "frame_bundle_lie_group": value}))
        with pytest.raises(DescriptorError):
            load_descriptor(str(path))

    def test_rotation_group_of_matching_dimension(self):
        assert minimal(frame_bundle_lie_group="so:4").frame_bundle_k == 4
        assert minimal().frame_bundle_k is None


class TestJson:
    def test_round_trip(self):
        d = minimal(  # a 3-dimensional Lie group with F(M) = SO(4), as for S^3
            lie_group=True,
            frame_bundle_lie_group="so:4",
            tncz_fields=("char=2",),
            cohomology={"char=2": "rp:3"},
            known_tc_base=[2, 2],
        )
        again = ManifoldDescriptor(d.to_json())
        assert again.to_json() == d.to_json()

    def test_unknown_keys_rejected(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "M", "dim": 2, "mystery": 1})

    def test_not_an_object(self):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor([1, 2])

    @pytest.mark.parametrize(
        "bad", [{"dim": "3"}, {"connectivity": None}, {"free_action_dim": "1"}]
    )
    def test_mistyped_values_rejected(self, bad):
        with pytest.raises(DescriptorError):
            ManifoldDescriptor({"name": "M", "dim": 3, **bad})

    @pytest.mark.parametrize("key", ["parallelizable", "spin", "lie_group", "cohomology"])
    def test_null_means_the_default(self, key):
        # These keys read null as absent; the other keys refuse it.
        assert minimal(**{key: None}).to_json() == minimal().to_json()

    @pytest.mark.parametrize(
        "key", ["name", "dim", "orientable", "connectivity", "tncz_fields"]
    )
    def test_null_refused_where_the_default_is_a_value(self, key):
        with pytest.raises(DescriptorError):
            minimal(**{key: None})

    def test_keywords_are_not_a_constructor(self):
        # The one constructor takes the descriptor object, never its keys.
        with pytest.raises(TypeError):
            ManifoldDescriptor(name="M", dim=3)
        assert not hasattr(ManifoldDescriptor, "from_json")

    def test_shipped_descriptors_load(self):
        files = sorted(os.listdir(DESCRIPTOR_DIR))
        assert len([f for f in files if f.endswith(".json")]) == 12
        for fname in files:
            if not fname.endswith(".json"):
                continue
            d = load_descriptor(os.path.join(DESCRIPTOR_DIR, fname))
            assert d.dim >= 1
            assert d.base_dir  # set from the file location


class TestSchema:
    def test_shipped_descriptors_validate(self, schema_validator):
        validator = schema_validator("manifold.schema.json")
        for fname in sorted(os.listdir(DESCRIPTOR_DIR)):
            if not fname.endswith(".json"):
                continue
            with open(os.path.join(DESCRIPTOR_DIR, fname)) as fh:
                obj = json.load(fh)
            assert not list(validator.iter_errors(obj)), fname

    def test_key_table_is_the_schema(self):
        # Every key the schema allows is in the table and the reverse, and a
        # default the schema states is the table's default.
        with open(os.path.join(SCHEMA_DIR, "manifold.schema.json")) as fh:
            properties = json.load(fh)["properties"]
        assert set(properties) - set(manifold._KEYS) == set()
        assert set(manifold._KEYS) - set(properties) == set()
        for key, spec in properties.items():
            if "default" in spec:
                assert spec["default"] == manifold._KEYS[key], key

    def test_cohomology_keys_are_field_tokens(self, schema_validator):
        validator = schema_validator("manifold.schema.json")
        obj = {"name": "M", "dim": 3, "cohomology": {"char=2": "rp:3"}}
        assert validator.is_valid(obj)
        obj["cohomology"] = {"char2": "rp:3"}
        assert not validator.is_valid(obj)

    def test_inline_ring_crosses_schema_boundary(self, schema_validator):
        # An inline cohomology ring is checked against the ring schema, which
        # lives in a separate file; this exercises the cross-file reference.
        validator = schema_validator("manifold.schema.json")
        obj = minimal(cohomology={"char=2": ring_to_json(rp_ring(3))}).to_json()
        assert not list(validator.iter_errors(obj))
        bad = json.loads(json.dumps(obj))
        bad["cohomology"]["char=2"]["type"] = "mystery"
        assert list(validator.iter_errors(bad))

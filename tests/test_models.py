import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amf import autodiff as ad
from amf.autodiff import Tensor, new_rng
from amf.errors import CompatibilityError, ConfigError, FormatError, UsageError
from amf.models import (
    CKPT_MAGIC,
    AMFModel,
    MultiTuneModel,
    PolicyPretrainModel,
    SingleModel,
    checkpoint_load,
    checkpoint_save,
    deserialize_params,
    group_prefixes,
    init_model,
    load_params_into,
    serialize_params,
    snapshot,
    transfer_init,
)
from amf.optim import OptimizerState, ScheduleSpec, build_groups, sgd_step


def _batch(n=4, hw=8, seed=0):
    return Tensor(new_rng(seed).normal(0.5, 0.3, size=(n, 1, hw, hw)).astype(np.float32))


class TestInit:
    def test_factory_is_seed_deterministic(self):
        a = init_model("amf", 3, num_classes=4, n=2, d=8, image_hw=8)
        b = init_model("amf", 3, num_classes=4, n=2, d=8, image_hw=8)
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_factory_builds_policy_pretrain_model(self, seed):
        # n and d are ignored, as the class takes neither
        a = init_model("policy_pretrain", seed, num_classes=4, n=3, d=8, image_hw=8)
        b = PolicyPretrainModel(4, image_hw=8, seed=seed)
        assert a.arch == "policy_pretrain"
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_factory_rejects_unknown_arch(self):
        with pytest.raises(UsageError):
            init_model("resnet", 0, num_classes=4)

    def test_group_prefixes(self):
        assert group_prefixes("amf", 2) == {"branch1": "branch1.", "branch2": "branch2.",
                                            "classifier": "classifier.", "policy": "policy."}
        assert group_prefixes("multitune", 3) == {"branch1": "branch1.", "branch2": "branch2.",
                                                  "branch3": "branch3.", "classifier": "classifier."}
        assert group_prefixes("single", 1) == {"backbone": "branch1.", "classifier": "classifier."}
        assert group_prefixes("policy_pretrain", 1) == {"policy": "policy.", "classifier": "classifier."}
        with pytest.raises(ConfigError):
            group_prefixes("resnet", 1)

    def test_policy_is_smaller_than_a_branch(self):
        m = AMFModel(n=2, d=64, num_classes=16)
        assert m.param_count("policy.") < m.param_count("branch1.")

    def test_policy_head_starts_at_uniform_weighting(self):
        m = AMFModel(n=3, d=8, num_classes=4, image_hw=8)
        h = m.forward(_batch()).weights.data
        np.testing.assert_allclose(h, 1.0 / 3.0, atol=1e-7)

    def test_classifier_bias_zero(self):
        m = SingleModel(d=8, num_classes=4, image_hw=8)
        np.testing.assert_array_equal(m.params["classifier.b"].data, 0.0)


class TestForward:
    def test_amf_shapes(self):
        m = AMFModel(n=2, d=8, num_classes=5, image_hw=8)
        res = m.forward(_batch(n=3))
        assert res.logits.shape == (3, 5)
        assert res.fused.shape == (3, 16)
        assert res.weights.shape == (3, 2)
        assert len(res.latents) == 2

    def test_single_n1_amf_bit_identical(self):
        single = SingleModel(d=8, num_classes=4, image_hw=8, seed=2)
        gated = AMFModel(n=1, d=8, num_classes=4, image_hw=8, seed=2)
        for k, t in single.params.items():
            gated.params[k].data = t.data.copy()
        x = _batch(seed=5)
        rs, rg = single.forward(x), gated.forward(x)
        np.testing.assert_array_equal(rs.logits.data, rg.logits.data)

    def test_uniform_policy_times_n_matches_multitune(self):
        n = 2
        mt = MultiTuneModel(n=n, d=8, num_classes=4, image_hw=8, seed=4)
        gated = AMFModel(n=n, d=8, num_classes=4, image_hw=8, seed=4)
        for k, t in mt.params.items():
            gated.params[k].data = t.data.copy()
        gated.params["classifier.w"].data = (n * mt.params["classifier.w"].data).astype(np.float32)
        x = _batch(n=6, seed=9)
        np.testing.assert_allclose(gated.forward(x).logits.data,
                                   mt.forward(x).logits.data, atol=1e-5)


class TestSnapshot:
    def test_copies_survive_an_update(self):
        m = AMFModel(n=2, d=8, num_classes=4, image_hw=8, seed=1)
        snap = snapshot(m)
        # sgd_step rebinds each parameter's array, so also rule out shared memory
        assert not any(np.shares_memory(snap[k], t.data) for k, t in m.params.items())
        before = {k: v.tobytes() for k, v in snap.items()}
        loss = ad.cross_entropy(m.forward(_batch()).logits, np.array([0, 1, 2, 3]))
        m.zero_grads()
        loss.backward()
        sgd_step(m, OptimizerState(m), build_groups(m, {g: ScheduleSpec(0.1) for g in group_prefixes("amf", 2)}))
        assert any(snap[k].tobytes() != t.data.tobytes() for k, t in m.params.items())
        assert {k: v.tobytes() for k, v in snap.items()} == before

    def test_filters_by_prefix_in_model_order(self):
        m = AMFModel(n=2, d=8, num_classes=4, image_hw=8, seed=1)
        assert list(snapshot(m)) == list(m.params)
        policy = snapshot(m, "policy.")
        assert list(policy) == [k for k in m.params if k.startswith("policy.")] != []
        for k, v in policy.items():
            np.testing.assert_array_equal(v, m.params[k].data)
        assert snapshot(m, "nothing.") == {}


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = AMFModel(n=2, d=8, num_classes=4, image_hw=8, seed=1)
        path = str(tmp_path / "m.ckpt")
        checkpoint_save(snapshot(m), path)
        loaded = checkpoint_load(path)
        assert set(loaded) == set(m.params)
        for k in loaded:
            np.testing.assert_array_equal(loaded[k], m.params[k].data)

    def test_serialize_roundtrip(self):
        params = {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.float32([1.5])}
        out = deserialize_params(serialize_params(params))
        for k in params:
            np.testing.assert_array_equal(out[k], params[k])

    def test_bad_magic_rejected(self):
        blob = serialize_params({"w": np.zeros(2, dtype=np.float32)})
        with pytest.raises(FormatError):
            deserialize_params(b"XX" + blob[2:])

    def test_truncation_rejected(self):
        blob = serialize_params({"w": np.zeros(4, dtype=np.float32)})
        with pytest.raises(FormatError):
            deserialize_params(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = serialize_params({"w": np.zeros(4, dtype=np.float32)})
        with pytest.raises(FormatError):
            deserialize_params(blob + b"\x00")

    @staticmethod
    def _record(name: bytes, dims: tuple) -> bytes:
        return (struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
                + b"\x00" * 4 * int(np.prod(dims)))

    @pytest.mark.parametrize("records", [
        [(b"\xff\xfe", (2,))],           # name not UTF-8
        [(b"w", (2,)), (b"w", (3,))],      # duplicate name
    ], ids=["non_utf8_name", "duplicate_name"])
    def test_malformed_records_rejected(self, records):
        blob = CKPT_MAGIC + struct.pack("<I", len(records)) + b"".join(self._record(*r) for r in records)
        with pytest.raises(FormatError):
            deserialize_params(blob)

    def test_overflowing_dims_rejected(self):
        blob = CKPT_MAGIC + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B2I", 2, 2**31, 2**31)
        with pytest.raises(FormatError):
            deserialize_params(blob)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
           st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_mutated_blob_raises_only_format_error(self, edits, cut):
        blob = bytearray(serialize_params({"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                           "b": np.float32([1.5])}))
        for pos, value in edits:
            blob[pos % len(blob)] = value
        try:
            deserialize_params(bytes(blob[:cut]))
        except FormatError:
            pass

    def test_load_params_into_name_mismatch(self):
        m = SingleModel(d=8, num_classes=4, image_hw=8)
        with pytest.raises(CompatibilityError):
            load_params_into(m, {"nonsense.w": np.zeros(3, dtype=np.float32)})

    def test_load_params_into_shape_mismatch(self):
        m = SingleModel(d=8, num_classes=4, image_hw=8)
        bad = {k: t.data.copy() for k, t in m.params.items()}
        bad["classifier.w"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(CompatibilityError):
            load_params_into(m, bad)


class TestTransfer:
    def test_prefix_mapping_copies_all_branches(self):
        src = SingleModel(d=8, num_classes=6, image_hw=8, seed=7)
        ckpt = {k: t.data.copy() for k, t in src.params.items() if not k.startswith("classifier.")}
        tgt = AMFModel(n=2, d=8, num_classes=4, image_hw=8, seed=1)
        transfer_init(tgt, ckpt, {"branch1.": "branch1.", "branch2.": "branch1."})
        for k in ckpt:
            np.testing.assert_array_equal(tgt.params[k].data, ckpt[k])
            other = "branch2." + k.split(".", 1)[1]
            np.testing.assert_array_equal(tgt.params[other].data, ckpt[k])

    def test_classifier_left_untouched(self):
        src = SingleModel(d=8, num_classes=6, image_hw=8, seed=7)
        ckpt = {k: t.data.copy() for k, t in src.params.items() if not k.startswith("classifier.")}
        tgt = SingleModel(d=8, num_classes=4, image_hw=8, seed=1)
        before = tgt.params["classifier.w"].data.copy()
        transfer_init(tgt, ckpt, {"branch1.": "branch1."})
        np.testing.assert_array_equal(tgt.params["classifier.w"].data, before)

    def test_empty_mapping_prefix_rejected(self):
        tgt = SingleModel(d=8, num_classes=4, image_hw=8)
        with pytest.raises(CompatibilityError):
            transfer_init(tgt, {}, {"branch1.": "missing."})

    def test_gradients_flow_to_every_parameter(self):
        m = AMFModel(n=2, d=4, num_classes=3, image_hw=8, seed=0)
        # nudge the policy head off zero so its conv receives gradient too
        m.params["policy.head.w"].data += 0.01
        res = m.forward(_batch(n=2))
        loss = ad.cross_entropy(res.logits, np.array([0, 1]))
        m.zero_grads()
        loss.backward()
        for k, t in m.params.items():
            assert t.grad is not None, k

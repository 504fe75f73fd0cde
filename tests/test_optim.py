import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amf.autodiff import Tensor
from amf.errors import ConfigError, UsageError
from amf.models import AMFModel, MultiTuneModel, SingleModel
from amf.optim import (
    OptimizerState,
    ParamGroup,
    ScheduleSpec,
    build_groups,
    lr_at_epoch,
    sgd_step,
)


class _Stub:
    """Minimal params holder for optimizer unit tests."""

    def __init__(self, **arrays):
        self.params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}


def _step_n(stub, group, grads_fn, steps):
    state = OptimizerState(stub)
    history = []
    for _ in range(steps):
        for name, g in grads_fn(stub).items():
            stub.params[name].grad = g
        sgd_step(stub, state, [group])
        history.append({k: t.data.copy() for k, t in stub.params.items()})
    return history


class TestSchedule:
    def test_reference_decay_example(self):
        assert lr_at_epoch(ScheduleSpec(0.03, 0.9, 20), 20) == pytest.approx(0.027, abs=1e-12)

    def test_closed_form(self):
        spec = ScheduleSpec(0.1, 0.5, 3)
        for epoch in range(12):
            assert lr_at_epoch(spec, epoch) == pytest.approx(0.1 * 0.5 ** (epoch // 3))

    @given(st.integers(0, 200), st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_monotone_nonincreasing(self, epoch, period):
        spec = ScheduleSpec(0.05, 0.8, period)
        assert lr_at_epoch(spec, epoch + 1) <= lr_at_epoch(spec, epoch) + 1e-15

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(-0.1)
        with pytest.raises(ConfigError):
            ScheduleSpec(0.1, decay_rate=1.5)
        with pytest.raises(ConfigError):
            ScheduleSpec(0.1, decay_epochs=0)
        with pytest.raises(UsageError):
            lr_at_epoch(ScheduleSpec(0.1), -1)


class TestHeavyBall:
    def test_hand_recurrence_constant_gradient(self):
        # v <- 0.9 v + 1, w <- w - v starting from w = 0:
        # w_1 = -1, w_2 = -2.9, then the recurrence below, exactly
        stub = _Stub(w=np.zeros(1, dtype=np.float64))
        group = ParamGroup("all", ["w"], ScheduleSpec(1.0), momentum=0.9)
        hist = _step_n(stub, group, lambda s: {"w": np.ones(1)}, steps=10)
        v, w = 0.0, 0.0
        for step in range(10):
            v = 0.9 * v + 1.0
            w = w - v
            assert hist[step]["w"][0] == w
        assert hist[0]["w"][0] == -1.0
        assert hist[1]["w"][0] == pytest.approx(-2.9, abs=0)

    def test_quadratic_descent_geometric_decay(self):
        # f(w) = w^2/2, lr 0.1, no momentum: w_t = 0.9^t
        stub = _Stub(w=np.ones(1, dtype=np.float64))
        group = ParamGroup("all", ["w"], ScheduleSpec(0.1), momentum=0.0)
        hist = _step_n(stub, group, lambda s: {"w": s.params["w"].data.copy()}, steps=40)
        for t, snap in enumerate(hist, start=1):
            assert snap["w"][0] == pytest.approx(0.9 ** t, abs=1e-6)

    def test_missing_gradient_rejected(self):
        stub = _Stub(w=np.zeros(1, dtype=np.float64))
        group = ParamGroup("all", ["w"], ScheduleSpec(0.1))
        with pytest.raises(UsageError):
            sgd_step(stub, OptimizerState(stub), [group])

    def test_schedule_decay_applies_between_epochs(self):
        stub = _Stub(w=np.zeros(1, dtype=np.float64))
        group = ParamGroup("all", ["w"], ScheduleSpec(1.0, 0.5, 1), momentum=0.0)
        state = OptimizerState(stub)
        stub.params["w"].grad = np.ones(1)
        sgd_step(stub, state, [group])
        assert stub.params["w"].data[0] == -1.0
        state.epoch = 1
        stub.params["w"].grad = np.ones(1)
        sgd_step(stub, state, [group])
        assert stub.params["w"].data[0] == -1.5

    def test_zero_gradient_sign_does_not_change_bits(self):
        # velocity starts at +0.0 and +0.0 + -0.0 == +0.0, so a -0.0 and a
        # +0.0 gradient leave the same parameter and velocity bits, whether
        # the velocity is still zero or already carries earlier steps
        w0 = np.array([0.5, -0.25, 0.0, 1.5, -2.0, 0.0], dtype=np.float32)
        warm = np.array([1.0, -1.0, 0.0, 0.0, -3.0, 2.0])
        zero = np.zeros(6)
        for first in ([], [warm]):
            runs = []
            for sign in (1.0, -1.0):
                stub = _Stub(w=w0.copy())
                state = OptimizerState(stub)
                group = ParamGroup("all", ["w"], ScheduleSpec(0.1), momentum=0.9)
                for g in first + [sign * zero, sign * zero]:
                    stub.params["w"].grad = g.copy()
                    sgd_step(stub, state, [group])
                runs.append((stub.params["w"].data.tobytes(), state.velocity["w"].tobytes()))
            assert np.signbit(-1.0 * zero).all()
            assert runs[0] == runs[1]


class TestGroups:
    def test_amf_group_layout_covers_all_params(self):
        model = AMFModel(n=2, d=8, num_classes=4, image_hw=8)
        scheds = {g: ScheduleSpec(0.01) for g in ("branch1", "branch2", "classifier", "policy")}
        groups = build_groups(model, scheds, layer_scale_factor=None)
        assert [g.name for g in groups] == ["branch1", "branch2", "classifier", "policy"]
        covered = sorted(sum((g.members for g in groups), []))
        assert covered == sorted(model.params)

    def test_multitune_group_layout_covers_all_params(self):
        model = MultiTuneModel(n=3, d=8, num_classes=4, image_hw=8)
        scheds = {g: ScheduleSpec(0.01) for g in ("branch1", "branch2", "branch3", "classifier")}
        groups = build_groups(model, scheds)
        assert [g.name for g in groups] == ["branch1", "branch2", "branch3", "classifier"]
        for g in groups:
            assert all(m.startswith(g.name + ".") for m in g.members)
        covered = sorted(sum((g.members for g in groups), []))
        assert covered == sorted(model.params)

    def test_single_arch_uses_backbone_group(self):
        model = SingleModel(d=8, num_classes=4, image_hw=8)
        groups = build_groups(model, {"backbone": ScheduleSpec(0.01),
                                      "classifier": ScheduleSpec(0.01)})
        by_name = {g.name: g for g in groups}
        assert all(m.startswith("branch1.") for m in by_name["backbone"].members)

    def test_missing_schedule_rejected(self):
        model = SingleModel(d=8, num_classes=4, image_hw=8)
        with pytest.raises(ConfigError):
            build_groups(model, {"backbone": ScheduleSpec(0.01)})

    def test_layer_scale_slows_first_conv_block(self):
        model = SingleModel(d=8, num_classes=4, image_hw=8)
        scheds = {"backbone": ScheduleSpec(0.01), "classifier": ScheduleSpec(0.01)}
        groups = build_groups(model, scheds, layer_scale_factor=0.4)
        by_name = {g.name: g for g in groups}
        assert by_name["backbone"].scales == {"branch1.conv1.w": 0.4, "branch1.conv1.b": 0.4}
        assert by_name["classifier"].scales == {}

    def test_apply_layer_scale_validates_prefix(self):
        with pytest.raises(UsageError):
            ParamGroup("g", ["a.w"], ScheduleSpec(0.1), scales={"b.w": 0.5})
        with pytest.raises(ConfigError):
            ParamGroup("g", ["a.w"], ScheduleSpec(0.1), scales={"a.w": 1.5})

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amf import autodiff as ad
from amf import harness
from amf.data import gen_source_task
from amf.errors import ConfigError, RunError, UsageError
from amf.harness import (
    PretrainConfig,
    assignment_accuracy,
    evaluate,
    monitor_csv,
    pretrain,
    train,
    transfer_map_for,
)
from amf.models import AMFModel, MultiTuneModel, SingleModel
from amf.optim import ScheduleSpec

from conftest import TINY_SPEC, tiny_train_config


class TestAssignmentAccuracy:
    def test_fractional_miss_assignment(self):
        # 3102 samples, 24 miss-assigned -> 99.23%
        modes = np.array([0] * 1551 + [1] * 1551)
        assigned = modes.copy()
        assigned[:24] = 1 - assigned[:24]
        h = np.zeros((3102, 2))
        h[np.arange(3102), assigned] = 1.0
        per_mode, overall, perm = assignment_accuracy(h, modes)
        assert overall == pytest.approx(0.9923, abs=1e-4)
        assert perm == (0, 1)
        assert per_mode[1] == 1.0

    def test_matching_is_label_free(self):
        # branch 1 serves mode 0 perfectly; the bijection should find it
        modes = np.array([0, 0, 1, 1])
        h = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.7, 0.3]])
        _, overall, perm = assignment_accuracy(h, modes)
        assert overall == 1.0
        assert perm == (1, 0)

    def test_branch_mode_count_mismatch(self):
        with pytest.raises(UsageError):
            assignment_accuracy(np.ones((4, 3)), np.array([0, 1, 0, 1]))

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True),
        st.lists(st.tuples(st.integers(0, n - 1), st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                 max_size=40))))
    @settings(max_examples=300, deadline=None)
    def test_matches_enumerating_every_bijection(self, case):
        # every mode id appears at least once; h takes few values, so argmax and matching ties are common
        ids, rows = case
        n = len(ids)
        rows = [(k, [1] * n) for k in range(n)] + rows
        modes = np.array([ids[k] for k, _ in rows])
        h = np.array([w for _, w in rows], dtype=np.float64)
        assert assignment_accuracy(h, modes) == _assignment_by_enumeration(h, modes)


def _assignment_by_enumeration(h, modes):
    """Reference: count each bijection's hits over the samples directly."""
    mode_ids = sorted(set(int(m) for m in modes))
    assigned = h.argmax(axis=1)
    best = None
    for perm in itertools.permutations(range(h.shape[1])):
        correct = sum(int(((modes == m) & (assigned == perm[k])).sum()) for k, m in enumerate(mode_ids))
        acc = correct / len(modes)
        if best is None or acc > best[0]:
            best = (acc, perm)
    overall, perm = best
    per_mode = {m: float((assigned[modes == m] == perm[k]).mean()) for k, m in enumerate(mode_ids)}
    return per_mode, overall, perm


class TestEvaluate:
    def test_gated_report_has_assignment(self, tiny_amf_run, tiny_mixture):
        model, _, _ = tiny_amf_run
        report = evaluate(model, tiny_mixture.val)
        assert 0.0 <= report.top1_overall <= 1.0
        assert set(report.top1_per_mode) == {0, 1}
        assert report.assignment_overall is not None
        assert len(report.branch_matching) == 2

    def test_single_report_has_no_assignment(self, tiny_mixture):
        model = SingleModel(d=8, num_classes=TINY_SPEC.num_classes, image_hw=8)
        report = evaluate(model, tiny_mixture.val)
        assert report.assignment_overall is None

    def test_ungated_multi_branch_report_has_no_weighting(self, tiny_mixture):
        model = MultiTuneModel(n=2, d=8, num_classes=TINY_SPEC.num_classes, image_hw=8)
        report = evaluate(model, tiny_mixture.val)
        assert report.mean_h is None and report.assignment_overall is None

    def test_empty_split_rejected(self):
        model = SingleModel(d=8, num_classes=4, image_hw=8)
        with pytest.raises(UsageError):
            evaluate(model, [])

    def test_weighting_trace_is_a_distribution(self, tiny_amf_run, tiny_mixture):
        model, _, _ = tiny_amf_run
        mean_h = evaluate(model, tiny_mixture.val).mean_h
        assert len(mean_h) == model.n == 2
        assert sum(mean_h) == pytest.approx(1.0, abs=1e-6)

    def test_forward_only_and_returns_with_grad_mode_on(self, tiny_mixture, monkeypatch):
        model = AMFModel(n=2, d=8, num_classes=TINY_SPEC.num_classes, image_hw=8)
        forward, modes = model.forward, []

        def recorded(x):
            modes.append(ad.is_grad_enabled())
            return forward(x)
        monkeypatch.setattr(model, "forward", recorded)
        evaluate(model, tiny_mixture.val, batch_size=4)
        assert modes == [False] * -(-len(tiny_mixture.val) // 4) and ad.is_grad_enabled()

        def failing(x):
            raise RunError("forward failed")
        monkeypatch.setattr(model, "forward", failing)
        with pytest.raises(RunError):
            evaluate(model, tiny_mixture.val)
        assert ad.is_grad_enabled()


class TestTrainLoop:
    def test_one_record_per_epoch(self, tiny_amf_run):
        _, trace, _ = tiny_amf_run
        assert [r.epoch for r in trace.records] == list(range(4))

    def test_best_val_is_max_over_records(self, tiny_amf_run):
        _, trace, _ = tiny_amf_run
        assert trace.best_val_top1() == max(r.val.top1_overall for r in trace.records)

    def test_best_params_cover_all_params(self, tiny_amf_run):
        model, _, best = tiny_amf_run
        assert set(best) == set(model.params)

    def test_monitor_csv_layout(self, tiny_amf_run):
        _, trace, _ = tiny_amf_run
        lines = monitor_csv(trace).strip().split("\n")
        assert lines[0] == ("epoch,train_loss,val_top1_mode0,val_top1_mode1,"
                            "mean_h_branch0,mean_h_branch1,assign_acc_mode0,assign_acc_mode1")
        assert len(lines) == 1 + len(trace.records)
        assert all(len(l.split(",")) == 8 for l in lines[1:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_run_error(self, tiny_mixture):
        huge = {g: ScheduleSpec(1e30) for g in ("branch1", "branch2", "classifier", "policy")}
        with pytest.raises(RunError):
            train(tiny_train_config(schedules=huge, epochs=5), tiny_mixture)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_weights_after_the_last_step_raise_run_error(self, tiny_mixture):
        # one epoch of one batch: the first and only loss is read before the step
        huge = {g: ScheduleSpec(1e30) for g in ("branch1", "branch2", "classifier", "policy")}
        cfg = tiny_train_config(schedules=huge, epochs=1, batch_size=len(tiny_mixture.train))
        with pytest.raises(RunError, match="non-finite validation loss at epoch 0"):
            train(cfg, tiny_mixture)

    def test_single_arch_records_have_no_weighting(self, tiny_mixture):
        cfg = tiny_train_config(arch="single", n=1, epochs=2,
                                schedules={"backbone": ScheduleSpec(0.01),
                                           "classifier": ScheduleSpec(0.01)})
        _, trace, _ = train(cfg, tiny_mixture)
        assert all(r.val.mean_h is None for r in trace.records)


@pytest.fixture(scope="module")
def source_ckpt():
    source = gen_source_task(TINY_SPEC, seed=21)
    report = {}
    ckpt = pretrain(PretrainConfig(epochs=2, batch_size=8, d=8), source, report=report)
    return ckpt, report


class TestPretrainTransfer:
    def test_checkpoint_strips_heads(self, source_ckpt):
        ckpt, _ = source_ckpt
        assert not any(k.startswith("classifier.") for k in ckpt)
        assert not any(k.startswith("policy.head.") for k in ckpt)
        assert any(k.startswith("branch1.") for k in ckpt)
        assert any(k.startswith("policy.conv.") for k in ckpt)

    def test_report_carries_val_accuracy(self, source_ckpt):
        _, report = source_ckpt
        assert 0.0 <= report["backbone_val"] <= 1.0
        assert 0.0 <= report["policy_val"] <= 1.0

    def test_report_reads_the_weights_it_returns(self, monkeypatch):
        # on this config the policy run's val top-1 falls in its last epoch
        runs = []

        def recording_train(*args, **kwargs):
            runs.append(train(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "train", recording_train)
        report = {}
        ckpt = pretrain(PretrainConfig(epochs=2, batch_size=8, d=8, seed_init=3, seed_data=3),
                        gen_source_task(TINY_SPEC, seed=1000, k_src=3), report=report)
        (backbone, backbone_trace, _), (policy, policy_trace, _) = runs
        assert report == {"backbone_val": backbone_trace.records[-1].val.top1_overall,
                          "policy_val": policy_trace.records[-1].val.top1_overall}
        for k, v in ckpt.items():
            np.testing.assert_array_equal(v, (backbone if k.startswith("branch1.") else policy).params[k].data)

    def test_zero_epochs_is_a_config_error(self):
        with pytest.raises(ConfigError, match="epochs"):
            pretrain(PretrainConfig(epochs=0, batch_size=8, d=8), gen_source_task(TINY_SPEC, seed=21),
                     report={})

    def test_transfer_map_shapes(self):
        amf = AMFModel(n=3, d=8, num_classes=4, image_hw=8)
        mapping = transfer_map_for(amf)
        assert mapping["branch3."] == "branch1."
        assert mapping["policy.conv."] == "policy.conv."
        single = SingleModel(d=8, num_classes=4, image_hw=8)
        assert transfer_map_for(single) == {"branch1.": "branch1."}
        multitune = MultiTuneModel(n=2, d=8, num_classes=4, image_hw=8)
        assert transfer_map_for(multitune) == {"branch1.": "branch1.", "branch2.": "branch1."}

    def test_train_starts_from_transferred_weights(self, source_ckpt, tiny_mixture):
        ckpt, _ = source_ckpt
        model, _, _ = train(tiny_train_config(epochs=1), tiny_mixture, pretrained=ckpt)
        assert model.params["branch1.conv1.w"].shape == ckpt["branch1.conv1.w"].shape

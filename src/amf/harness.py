"""Training workflows: ``train``, the one epoch loop, for fine-tuning and for
source-task pretraining (a ``single`` and a ``policy_pretrain`` run), transfer,
and the monitors (per-mode top-1, policy assignment accuracy, mean weighting).
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import branchworker
from .autodiff import Tensor
from .data import MixtureDataset, batches
from .errors import ConfigError, RunError, UsageError
from .models import (
    Model,
    checkpoint_save,
    group_prefixes,
    init_model,
    snapshot,
    transfer_init,
    transfer_map_for,
)
from .optim import OptimizerState, ScheduleSpec, build_groups, sgd_step


@dataclass
class TrainConfig:
    arch: str = "amf"
    n: int = 2
    d: int = 64
    num_classes: int = 16
    in_channels: int = 1
    image_hw: int = 16
    schedules: dict = field(default_factory=dict)  # group name -> ScheduleSpec
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 30
    seed_init: int = 0
    seed_data: int = 0
    layer_scale: float | None = 0.4

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class EvalReport:
    top1_overall: float
    top1_per_mode: dict
    loss: float
    assignment_overall: float | None = None
    assignment_per_mode: dict | None = None
    branch_matching: tuple | None = None  # branch index assigned to each mode id
    mean_h: list | None = None  # mean policy weight per branch (gated arch only)


@dataclass
class MonitorRecord:
    epoch: int
    train_loss: float
    val: EvalReport  # the epoch's validation report


@dataclass
class MonitorTrace:
    records: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def best_val_top1(self) -> float:
        return max(r.val.top1_overall for r in self.records)


def assignment_accuracy(h: np.ndarray, modes: np.ndarray) -> tuple[dict, float, tuple]:
    """Per-mode assignment accuracy under the best branch-to-mode matching.

    A sample is assigned to branch argmax h (ties -> lowest index). The
    branch-mode correspondence is the bijection maximizing overall accuracy
    (the first in ``itertools.permutations`` order among equals); it is
    returned so callers can report it. All n! bijections are scored from one
    n x n confusion matrix.
    """
    h = np.asarray(h)
    modes = np.asarray(modes)
    n = h.shape[1]
    mode_ids, mode_idx = np.unique(modes, return_inverse=True)
    if n != len(mode_ids):
        raise UsageError(f"branch count {n} != mode count {len(mode_ids)}")
    # confusion[k, b]: samples of mode_ids[k] assigned to branch b
    confusion = np.bincount(mode_idx * n + h.argmax(axis=1), minlength=n * n).reshape(n, n).tolist()
    # perm[k] = branch matched to mode_ids[k]; max keeps the first of equals
    def hits(perm):
        return sum(confusion[k][b] for k, b in enumerate(perm))
    perm = max(itertools.permutations(range(n)), key=hits)
    per_mode = {int(m): confusion[k][perm[k]] / sum(confusion[k]) for k, m in enumerate(mode_ids)}
    return per_mode, hits(perm) / len(modes), perm


def _passes(model: Model, split, batch_size: int, epoch_seed: int | None = None,
            worker: branchworker.BranchWorker | None = None):
    """Yield (forward result, mean cross-entropy, labels, modes) per batch of
    ``split``, in the order ``batches`` gives for ``epoch_seed``. With a
    ``worker``, it computes its branches of each batch alongside ``model``."""
    for images, labels, modes in batches(split, batch_size, epoch_seed):
        x = Tensor(images.astype(ad.DEFAULT_DTYPE))
        if worker is None:
            res = model.forward(x)
        else:
            worker.send(x)
            res = model.forward(x, worker)
        yield res, ad.cross_entropy(res.logits, labels), labels, modes


def evaluate(model: Model, split, batch_size: int = 64,
             worker: branchworker.BranchWorker | None = None) -> EvalReport:
    """Top-1 and loss over a split; adds assignment metrics for the gated arch.
    The forward passes run forward-only (``ad.no_grad``). ``worker`` is
    ``train``'s, which holds the current parameters of its branches."""
    preds, labels_all, modes_all, losses, hs = [], [], [], [], []
    with ad.no_grad():
        for res, loss, labels, modes in _passes(model, split, batch_size, None, worker):
            preds.append(res.logits.data.argmax(axis=1))
            labels_all.append(labels)
            modes_all.append(modes)
            losses.append(float(loss.data) * len(labels))
            if res.weights is not None:
                hs.append(res.weights.data)
    correct = np.concatenate(preds) == np.concatenate(labels_all)
    modes_all = np.concatenate(modes_all)
    per_mode = {int(m): float(correct[modes_all == m].mean()) for m in sorted(set(modes_all.tolist()))}
    report = EvalReport(
        top1_overall=float(correct.mean()),
        top1_per_mode=per_mode,
        loss=sum(losses) / len(correct),
    )
    if hs:
        h = np.concatenate(hs)
        report.mean_h = h.mean(axis=0).tolist()
        if model.n == len(per_mode):
            am, overall, perm = assignment_accuracy(h, modes_all)
            report.assignment_per_mode = am
            report.assignment_overall = overall
            report.branch_matching = perm
    return report


def _fmt(v) -> str:
    return "" if v is None else f"{v:.6g}"


def monitor_csv(trace: MonitorTrace) -> str:
    """One row per epoch, with one mean-h column per branch (never fewer than
    two) and one top-1 and one assignment column per mode id (modes 0 and 1 at least)."""
    n_h = max([2] + [len(r.val.mean_h) for r in trace.records if r.val.mean_h is not None])
    modes = sorted({0, 1}.union(*(r.val.top1_per_mode for r in trace.records)))
    lines = [",".join(["epoch", "train_loss", *(f"val_top1_mode{m}" for m in modes),
                       *(f"mean_h_branch{i}" for i in range(n_h)), *(f"assign_acc_mode{m}" for m in modes)])]
    for r in trace.records:
        h = r.val.mean_h or []
        aa = r.val.assignment_per_mode or {}
        lines.append(",".join([
            str(r.epoch), _fmt(r.train_loss),
            *(_fmt(r.val.top1_per_mode.get(m)) for m in modes),
            *(_fmt(v) for v in h + [None] * (n_h - len(h))),
            *(_fmt(aa.get(m)) for m in modes),
        ]))
    return "\n".join(lines) + "\n"


@dataclass
class PretrainConfig:
    epochs: int = 40
    batch_size: int = 32
    backbone_lr: float = 0.05
    policy_lr: float = 0.05
    momentum: float = 0.9
    seed_init: int = 0
    seed_data: int = 0
    d: int = 64


def pretrain(config: PretrainConfig, source: MixtureDataset,
             report: dict | None = None) -> dict[str, np.ndarray]:
    """Train one branch extractor (arch ``single``) and one policy backbone
    (arch ``policy_pretrain``) on the source task, each by one ``train`` run.

    Returns each run's last-epoch weights as a checkpoint-style parameter
    dict with the classification heads stripped (names ``branch1.*`` and
    ``policy.conv.*``). When ``report`` is given, the source val top-1 of
    those weights (each run's last epoch) is stored under ``backbone_val``
    and ``policy_val``.
    """
    def run(arch: str, lr: float, seed_data: int) -> tuple[Model, MonitorTrace, dict]:
        spec = source.spec
        return train(TrainConfig(arch=arch, n=1, d=config.d, num_classes=spec.num_classes,
                                 in_channels=spec.channels, image_hw=spec.image_hw,
                                 schedules={g: ScheduleSpec(lr) for g in group_prefixes(arch, 1)},
                                 momentum=config.momentum, batch_size=config.batch_size,
                                 epochs=config.epochs, seed_init=config.seed_init,
                                 seed_data=seed_data, layer_scale=None), source)

    backbone, backbone_trace, _ = run("single", config.backbone_lr, config.seed_data)
    policy, policy_trace, _ = run("policy_pretrain", config.policy_lr, config.seed_data + 1)
    if report is not None:
        report["backbone_val"] = backbone_trace.records[-1].val.top1_overall
        report["policy_val"] = policy_trace.records[-1].val.top1_overall

    return snapshot(backbone, "branch1.") | snapshot(policy, "policy.conv.")


def train(config: TrainConfig, target: MixtureDataset,
          pretrained: dict[str, np.ndarray] | None = None
          ) -> tuple[Model, MonitorTrace, dict[str, np.ndarray]]:
    """Full training run; returns (final model, trace, best-val checkpoint).

    When ``branchworker.use_worker`` allows, a forked ``BranchWorker`` trains
    the upper half of the branches for the whole run and is ended and reaped
    however the run ends; the results are the same bytes as a serial run's.
    """
    model = init_model(config.arch, config.seed_init, config.num_classes, config.n,
                       config.d, config.in_channels, config.image_hw)
    if pretrained is not None:
        transfer_init(model, pretrained, transfer_map_for(model))
    groups = build_groups(model, config.schedules, config.momentum,
                          layer_scale_factor=config.layer_scale)
    state = OptimizerState(model)
    trace = MonitorTrace()
    best_params = None
    saturated_epochs = 0
    worker = branchworker.BranchWorker(model, groups, state) if branchworker.use_worker(model.n) else None
    with worker or contextlib.nullcontext():
        local = groups if worker is None else [g for g in groups if g not in worker.groups]
        for epoch in range(config.epochs):
            state.epoch = epoch
            losses = []
            for _, loss, labels, _ in _passes(model, target.train, config.batch_size,
                                              config.seed_data * 1_000_003 + epoch, worker):
                if not np.isfinite(loss.data):
                    raise RunError(f"non-finite loss at epoch {epoch}")
                model.zero_grads()
                loss.backward()  # sends the worker its latents' gradients as the sweep reaches them
                if worker is not None:
                    worker.step(epoch)
                sgd_step(model, state, local)
                losses.append(float(loss.data) * len(labels))
            train_loss = sum(losses) / len(target.train)

            report = evaluate(model, target.val, config.batch_size, worker)
            # the last step's weights are checked here, as no later loss reads them
            if not np.isfinite(report.loss):
                raise RunError(f"non-finite validation loss at epoch {epoch}")
            if not trace.records or report.top1_overall > trace.best_val_top1():
                if worker is not None:
                    worker.pull()
                best_params = snapshot(model)

            trace.records.append(MonitorRecord(epoch=epoch, train_loss=train_loss, val=report))
            # dead-policy watch: one branch hogging all weight at chance accuracy
            if report.assignment_overall is not None:  # implies mean_h is set
                if max(report.mean_h) > 0.99 and report.assignment_overall <= 0.5 + 1e-9:
                    saturated_epochs += 1
                else:
                    saturated_epochs = 0
                if saturated_epochs == 20:
                    trace.warnings.append(f"dead policy network suspected at epoch {epoch}")
        if worker is not None:
            worker.pull()
    return model, trace, best_params


def save_run_artifacts(trace: MonitorTrace, best_params: dict, out_dir: str, name: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}_monitor.csv")
    tmp = csv_path + ".tmp"
    with open(tmp, "w") as f:
        f.write(monitor_csv(trace))
    os.replace(tmp, csv_path)
    ckpt_path = os.path.join(out_dir, f"{name}_best.ckpt")
    checkpoint_save(best_params, ckpt_path)
    return csv_path, ckpt_path

"""SGD with momentum over named parameter groups.

Each group carries its own base learning rate and step-decay schedule; the
heavy-ball update is v <- mu*v + g, p <- p - lr*v (no weight decay). The
effective rate is recomputed once per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, UsageError
from .models import Model, group_prefixes


@dataclass(frozen=True)
class ScheduleSpec:
    base_lr: float
    decay_rate: float = 1.0
    decay_epochs: int = 20

    def __post_init__(self):
        if self.base_lr < 0:
            raise ConfigError(f"base_lr must be >= 0, got {self.base_lr}")
        if not (0 < self.decay_rate <= 1):
            raise ConfigError(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        if self.decay_epochs < 1:
            raise ConfigError(f"decay_epochs must be >= 1, got {self.decay_epochs}")


def lr_at_epoch(spec: ScheduleSpec, epoch: int) -> float:
    """lr(e) = base_lr * decay_rate ** floor(e / decay_epochs)."""
    if epoch < 0:
        raise UsageError(f"epoch must be >= 0, got {epoch}")
    return spec.base_lr * spec.decay_rate ** math.floor(epoch / spec.decay_epochs)


@dataclass
class ParamGroup:
    name: str
    members: list[str]
    schedule: ScheduleSpec
    momentum: float = 0.9
    # member -> learning-rate factor; members not listed train at the group rate
    scales: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for name, factor in self.scales.items():
            if not (0 < factor <= 1):
                raise ConfigError(f"layer scale factor must be in (0, 1], got {factor}")
            if name not in self.members:
                raise UsageError(f"scaled parameter {name!r} is not a member of group {self.name!r}")


class OptimizerState:
    """Velocity tensors (zero-initialized, float64) plus the current epoch."""

    def __init__(self, model: Model):
        self.velocity = {k: np.zeros(t.shape, dtype=np.float64) for k, t in model.params.items()}
        self.epoch = 0


def build_groups(model: Model, schedules: dict[str, ScheduleSpec], momentum: float = 0.9,
                 layer_scale_factor: float | None = None) -> list[ParamGroup]:
    """Partition the model's parameters into the learning-rate groups that
    ``models.group_prefixes`` lays out for its arch. With a layer-scale
    factor, each backbone's first conv block trains at that fraction of its
    group's rate (for the single arch, a stand-in for a third rate).
    """
    names = list(model.params)
    prefixes = group_prefixes(model.arch, model.n)
    missing = [g for g in prefixes if g not in schedules]
    if missing:
        raise ConfigError(f"missing schedules for groups: {missing}")

    groups = []
    for g, prefix in prefixes.items():
        mem = [n for n in names if n.startswith(prefix)]
        if not mem:
            raise ConfigError(f"group {g!r} matched no parameters")
        # shallow-block reduction: each backbone's first conv block trains slower
        scales = {m: layer_scale_factor for m in mem if layer_scale_factor is not None and ".conv1." in m}
        groups.append(ParamGroup(g, mem, schedules[g], momentum, scales))

    covered: list[str] = sum((g.members for g in groups), [])
    if sorted(covered) != sorted(names) or len(covered) != len(set(covered)):
        raise ConfigError(f"group cover mismatch: {sorted(set(names) ^ set(covered))}")
    return groups


def sgd_step(model: Model, state: OptimizerState, groups: list[ParamGroup]) -> None:
    """One heavy-ball update over every group; requires grads on all members."""
    for g in groups:
        lr = lr_at_epoch(g.schedule, state.epoch)
        for name in g.members:
            p = model.params[name]
            if p.grad is None:
                raise UsageError(f"missing gradient for parameter {name!r}")
            v = state.velocity[name]
            v *= g.momentum
            v += p.grad
            p.data = (p.data - (lr * g.scales.get(name, 1.0)) * v).astype(p.dtype)

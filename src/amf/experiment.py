"""Reference mixture-distribution experiment.

Protocol, per seed: generate the default two-mode mixture and its source
task, pretrain the shared backbone and policy conv on the source, then
fine-tune three architectures on the target:

- AMF with one conservative branch (low LR, keeps the transferred grating
  features) and one aggressive branch (high LR with fast decay, free to
  chase the hard bar mode), a moderate classifier LR, and a tiny policy LR;
- single fine-tune with the low LR everywhere;
- single fine-tune with the high LR schedule everywhere.

Reported per seed: test top-1 for all three runs, the AMF epoch-0 mean
weighting per branch, converged assignment accuracy under the best
branch-mode matching, and source val top-1 from pretraining.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import MixtureSpec, gen_mixture, gen_source_task
from .harness import EvalReport, PretrainConfig, TrainConfig, evaluate, pretrain, train
from .jobs import Pool
from .models import load_params_into
from .optim import ScheduleSpec

LOW_LR = 0.003
HIGH_LR = ScheduleSpec(base_lr=0.5, decay_rate=0.8, decay_epochs=15)


def amf_schedules() -> dict[str, ScheduleSpec]:
    """The frozen four-group learning-rate recipe for the reference run."""
    return {
        "branch1": ScheduleSpec(LOW_LR),
        "branch2": HIGH_LR,
        "classifier": ScheduleSpec(0.008, 0.9, 30),
        "policy": ScheduleSpec(1e-5),
    }


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    d: int = 16
    batch_size: int = 64
    amf_epochs: int = 100
    baseline_epochs: int = 60
    source_seed_base: int = 1000
    mixture: MixtureSpec = MixtureSpec()


@dataclass
class SeedResult:
    seed: int
    source_val: float
    amf: EvalReport
    low: EvalReport
    high: EvalReport
    epoch0_mean_h: list[float]


@dataclass
class ExperimentResult:
    per_seed: list[SeedResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def mean(self, pick) -> float:
        return float(np.mean([pick(r) for r in self.per_seed]))

    @property
    def amf_mean_top1(self) -> float:
        return self.mean(lambda r: r.amf.top1_overall)

    @property
    def low_mean_top1(self) -> float:
        return self.mean(lambda r: r.low.top1_overall)

    @property
    def high_mean_top1(self) -> float:
        return self.mean(lambda r: r.high.top1_overall)

    @property
    def assignment_mean(self) -> float:
        return self.mean(lambda r: r.amf.assignment_overall)


def _pretrain(config: ExperimentConfig, seed: int) -> tuple[dict[str, np.ndarray], float]:
    """The seed's pretrained checkpoint and its backbone's source val top-1."""
    spec = replace(config.mixture, seed=seed)
    report: dict = {}
    ckpt = pretrain(PretrainConfig(d=config.d, seed_init=seed, seed_data=seed),
                    gen_source_task(spec, config.source_seed_base + seed), report=report)
    return ckpt, report["backbone_val"]


def _runs(config: ExperimentConfig, seed: int) -> dict[str, TrainConfig]:
    """The seed's three fine-tunes: amf, low and high."""
    spec = config.mixture
    common = dict(d=config.d, num_classes=spec.num_classes, in_channels=spec.channels,
                  image_hw=spec.image_hw, batch_size=config.batch_size, seed_init=seed, seed_data=seed)
    low = ScheduleSpec(LOW_LR)
    return {
        "amf": TrainConfig(arch="amf", n=2, schedules=amf_schedules(), epochs=config.amf_epochs, **common),
        "low": TrainConfig(arch="single", n=1, schedules={"backbone": low, "classifier": low},
                           epochs=config.baseline_epochs, **common),
        "high": TrainConfig(arch="single", n=1, schedules={"backbone": HIGH_LR, "classifier": HIGH_LR},
                            epochs=config.baseline_epochs, **common),
    }


def _finetune(cfg: TrainConfig, target, ckpt: dict[str, np.ndarray]) -> tuple[EvalReport, list | None]:
    """The test report of the run's best-val weights, and its epoch-0 mean h."""
    model, trace, best = train(cfg, target, ckpt)
    load_params_into(model, best)
    return evaluate(model, target.test), trace.records[0].val.mean_h


def _seed_result(seed: int, source_val: float, runs: dict, log) -> SeedResult:
    result = SeedResult(seed=seed, source_val=source_val, epoch0_mean_h=list(runs["amf"][1]),
                        **{name: report for name, (report, _) in runs.items()})
    if log is not None:
        log(f"seed {seed}: source val {result.source_val:.4f}, "
            f"amf {result.amf.top1_overall:.4f}, low {result.low.top1_overall:.4f}, "
            f"high {result.high.top1_overall:.4f}, "
            f"epoch-0 h {[round(v, 3) for v in result.epoch0_mean_h]}, "
            f"assignment {result.amf.assignment_overall:.4f}")
    return result


def run_experiment(config: ExperimentConfig = ExperimentConfig(), log=None) -> ExperimentResult:
    """Every seed of ``config``, each pretraining and fine-tune a job on one
    ``jobs.Pool``: each pretraining first, then its seed's fine-tunes, forked
    once its checkpoint is in this process, the longest (most epochs times
    branches) first. The per-seed results are the same bits at any number of
    slots; with one slot every job runs in this process."""
    start = time.perf_counter()
    source_val, runs = {}, [{} for _ in config.seeds]
    per_seed = [None] * len(config.seeds)
    with Pool() as pool:
        names = {pool.submit(functools.partial(_pretrain, config, seed), math.inf): (i, "pretrain")
                 for i, seed in enumerate(config.seeds)}
        for job_id, out in pool.results():
            i, name = names.pop(job_id)
            seed = config.seeds[i]
            if name == "pretrain":
                ckpt, source_val[i] = out
                target = gen_mixture(replace(config.mixture, seed=seed))
                for run, cfg in _runs(config, seed).items():
                    names[pool.submit(functools.partial(_finetune, cfg, target, ckpt), cfg.epochs * cfg.n)] = (i, run)
                continue
            runs[i][name] = out
            if len(runs[i]) == 3:
                per_seed[i] = _seed_result(seed, source_val[i], runs[i], log)
    result = ExperimentResult(per_seed, time.perf_counter() - start)
    if log is not None:
        log(f"means: amf {result.amf_mean_top1:.4f}, low {result.low_mean_top1:.4f}, "
            f"high {result.high_mean_top1:.4f}, assignment {result.assignment_mean:.4f} "
            f"({result.elapsed_seconds:.0f}s)")
    return result

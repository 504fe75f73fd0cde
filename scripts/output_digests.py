#!/usr/bin/env python3
"""Print one sha256 per output of a short run of the reference pipeline.

Usage: PYTHONPATH=src python3 scripts/output_digests.py

For seeds 0 and 7 it generates the default mixture (150 training examples per
class) and its source task, pretrains for 2 epochs at batch 32, and fine-tunes
the amf, low and high runs of the reference experiment for 2 epochs each at
d=16 and batch 64. The outputs are the pretrained checkpoint, each run's
monitor CSV and best-val checkpoint, the repr of each run's test
``EvalReport`` (best-val weights), and the repr of ``run_suite(20, mode,
amf_seeds=1)`` for f64 and f32. Two checkouts whose code should give the same
numbers must print the same lines.
"""

import hashlib
import os
import tempfile

from amf.data import MixtureSpec, gen_mixture, gen_source_task
from amf.experiment import HIGH_LR, LOW_LR, amf_schedules
from amf.gradsuite import run_suite
from amf.harness import PretrainConfig, TrainConfig, evaluate, pretrain, save_run_artifacts, train
from amf.models import checkpoint_save, load_params_into
from amf.optim import ScheduleSpec

SEEDS = (0, 7)
D, BATCH, EPOCHS = 16, 64, 2


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return sha256(f.read())


def seed_digests(seed: int, out_dir: str) -> dict[str, str]:
    spec = MixtureSpec(seed=seed)
    target = gen_mixture(spec)
    source = gen_source_task(spec, 1000 + seed)
    ckpt = pretrain(PretrainConfig(epochs=EPOCHS, batch_size=32, d=D, seed_init=seed, seed_data=seed), source)
    path = os.path.join(out_dir, "pretrained.ckpt")
    checkpoint_save(ckpt, path)
    digests = {"pretrained.ckpt": file_sha256(path)}

    common = dict(d=D, num_classes=spec.num_classes, in_channels=spec.channels, image_hw=spec.image_hw,
                  batch_size=BATCH, epochs=EPOCHS, seed_init=seed, seed_data=seed)
    low = ScheduleSpec(LOW_LR)
    # the experiment's three fine-tunes per seed, written out so that the script
    # needs no helper newer than the checkouts it compares
    runs = {
        "amf": TrainConfig(arch="amf", n=2, schedules=amf_schedules(), **common),
        "low": TrainConfig(arch="single", n=1, schedules={"backbone": low, "classifier": low}, **common),
        "high": TrainConfig(arch="single", n=1, schedules={"backbone": HIGH_LR, "classifier": HIGH_LR},
                            **common),
    }
    for name, cfg in runs.items():
        model, trace, best = train(cfg, target, ckpt)
        for path in save_run_artifacts(trace, best, out_dir, name):
            digests[os.path.basename(path)] = file_sha256(path)
        load_params_into(model, best)
        digests[f"{name}_test_report"] = sha256(repr(evaluate(model, target.test)).encode())
    return {f"seed{seed}/{k}": v for k, v in digests.items()}


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            out_dir = os.path.join(tmp, f"seed{seed}")
            os.makedirs(out_dir)
            digests.update(seed_digests(seed, out_dir))
    for mode in ("f64", "f32"):
        digests[f"run_suite_{mode}"] = sha256(repr(run_suite(20, mode, amf_seeds=1)).encode())
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

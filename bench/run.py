#!/usr/bin/env python3
"""Benchmark of the amf reproduction: gated and single fine-tune throughput
and the gradient suite, with an optional traced run for per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload finetune_amf --seed 0 --seconds 30 --trace 0

Workloads are `finetune_amf`, `finetune_single` and `gradcheck`; see
bench/README.md for what each measures and why. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones; the line before it records the environment.
"""

import os

# One BLAS thread, set before numpy loads. On the 2-core reference machine
# OpenBLAS's second thread doubles CPU time for the small GEMMs here without
# a wall-time gain, and it widens the run-to-run spread of fine-tune
# throughput (1199-1408 samples/s over 3 runs, against 1181-1195 with one).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("finetune_amf", "finetune_single", "gradcheck")
SOURCE_SEED_BASE = 1000  # as in the reference experiment
D = 16
BATCH = 64


@dataclass(frozen=True)
class Size:
    n_train: int          # examples per class (16 classes)
    n_val: int            # per class, also the size of the unused test split
    pretrain_epochs: int
    epochs: int           # fine-tune epochs per timed repetition
    suite_seeds: int      # gradient-suite instances per primitive
    amf_seeds: int        # gradient-suite instances of the full model loss


FULL = Size(150, 10, 2, 2, 20, 1)
TINY = Size(4, 2, 1, 1, 2, 1)

# Best val top-1 every full-size fine-tune repetition with a live pretrained
# head must reach. After two epochs, the lowest over seeds 0-29, 99, 1234,
# 98765 and 2**31-5 at the commit that added this benchmark was 0.100 for amf
# (seed 20). For single it was 0.069 (seed 13, whose low-rate run stays at
# chance, 0.0625), so its floor only rejects worse than chance.
TOP1_FLOOR = {"amf": 0.075, "single": 0.05}


def load_program():
    """Import `amf` from the checkout's own source tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "amf" / "__init__.py").is_file():
        sys.exit(f"bench: {src / 'amf'} not found; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import amf
    import amf.autodiff, amf.data, amf.experiment, amf.gradsuite, amf.harness  # noqa: E401,F401
    import amf.errors, amf.models, amf.optim  # noqa: E401,F401
    return amf


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reason": "one thread: the second doubles CPU time for no wall-time "
                               "gain on these small GEMMs and widens the run-to-run spread",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Failures:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._last_failed = False

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self._last_failed = bool(problems)
        self.failed += self._last_failed
        self.reasons.extend(problems)

    def fail_last(self, reason: str) -> None:
        """Mark the operation recorded last as failed."""
        self.failed += not self._last_failed
        self._last_failed = True
        self.reasons.append(reason)


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


class FineTune:
    """`harness.train` from a pretrained checkpoint on the reference mixture.

    Set-up generates the mixture and its source task from the seed, round-trips
    both through the AMFDATA1 format, pretrains briefly and round-trips the
    checkpoint through AMFCKPT1. One repetition is one `harness.train` call of
    `size.epochs` epochs; every repetition must give byte-identical outputs.
    """

    def __init__(self, amf, arch: str, size: Size, seed: int):
        self.amf, self.arch, self.size, self.seed = amf, arch, size, seed
        self.floor = TOP1_FLOOR[arch] if size == FULL else 0.0
        self.spec = replace(amf.data.MixtureSpec(), n_train=size.n_train, n_val=size.n_val,
                            n_test=size.n_val, seed=seed)
        self.first_digest = None
        self.head_dead = None

    def setup(self):
        """Returns the repetition's inputs and the evidence `check_setup` reads."""
        data, models, harness = self.amf.data, self.amf.models, self.amf.harness
        files, loaded = {}, {}
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for name, ds in (("target", data.gen_mixture(self.spec)),
                             ("source", data.gen_source_task(self.spec, SOURCE_SEED_BASE + self.seed))):
                path = os.path.join(tmp, name + ".ds")
                data.dataset_save(ds, path)
                loaded[name] = data.dataset_load(path)
                files[name] = Path(path).read_bytes()
            pcfg = harness.PretrainConfig(epochs=self.size.pretrain_epochs, batch_size=32, d=D,
                                          seed_init=self.seed, seed_data=self.seed)
            path = os.path.join(tmp, "pretrained.ckpt")
            models.checkpoint_save(harness.pretrain(pcfg, loaded["source"]), path)
            ckpt = models.checkpoint_load(path)
            files["ckpt"] = Path(path).read_bytes()
        target = loaded["target"]
        return (self.config(target.spec), target, ckpt), (files, loaded)

    def check_setup(self, state, evidence, failures: Failures) -> str:
        """Round trips must be exact: what was loaded saves back to the same bytes."""
        files, loaded = evidence
        problems = []
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for name, ds in loaded.items():
                path = os.path.join(tmp, name + ".ds")
                self.amf.data.dataset_save(ds, path)
                if Path(path).read_bytes() != files[name]:
                    problems.append(f"{name} dataset changed in the AMFDATA1 round trip")
        if self.amf.models.serialize_params(state[2]) != files["ckpt"]:
            problems.append("checkpoint changed in the AMFCKPT1 round trip")
        failures.record(problems)
        return _digest(*files.values())

    def config(self, spec):
        amf = self.amf
        if self.arch == "amf":
            arch, n, schedules = "amf", 2, amf.experiment.amf_schedules()
        else:
            low = amf.optim.ScheduleSpec(amf.experiment.LOW_LR)
            arch, n, schedules = "single", 1, {"backbone": low, "classifier": low}
        return amf.harness.TrainConfig(
            arch=arch, n=n, d=D, num_classes=spec.num_classes, in_channels=spec.channels,
            image_hw=spec.image_hw, schedules=schedules, batch_size=BATCH,
            epochs=self.size.epochs, seed_init=self.seed, seed_data=self.seed)

    def call(self, state):
        cfg, target, ckpt = state
        return self.amf.harness.train(cfg, target, ckpt)

    def _head_dead(self, cfg, target, ckpt) -> bool:
        """True when no unit of the pretrained branch head fires on any
        training example. Some seeds' short pretraining ends there (seed
        2011908968 does): every gradient but the classifier bias's is then
        zero, so the fine-tune stays at chance by construction."""
        models, ad = self.amf.models, self.amf.autodiff
        model = models.SingleModel(cfg.d, cfg.num_classes, cfg.in_channels, cfg.image_hw)
        models.transfer_init(model, ckpt, {"branch1.": "branch1."})
        images = np.stack([e.image for e in target.train]).astype(ad.DEFAULT_DTYPE)
        return not any(model.forward(ad.Tensor(images[i:i + BATCH])).fused.data.any()
                       for i in range(0, len(images), BATCH))

    def _moved_params(self, cfg, ckpt, best) -> list[str]:
        """Parameters of `best` other than the classifier bias that differ
        from their value at the start of the fine-tune."""
        models = self.amf.models
        init = models.init_model(cfg.arch, cfg.seed_init, cfg.num_classes, cfg.n, cfg.d,
                                 cfg.in_channels, cfg.image_hw)
        models.transfer_init(init, ckpt, self.amf.harness.transfer_map_for(init))
        return [k for k, t in init.params.items()
                if k != "classifier.b" and not np.array_equal(t.data, best[k])]

    def check(self, state, out, failures: Failures) -> float:
        """Checks one repetition's outputs; returns the training samples it processed."""
        _, trace, best = out
        problems = []
        if len(trace.records) != self.size.epochs:
            problems.append(f"{len(trace.records)} monitor records for {self.size.epochs} epochs")
        losses = [r.train_loss for r in trace.records]
        cfg, target, ckpt = state
        if self.head_dead is None:
            self.head_dead = self._head_dead(cfg, target, ckpt)
        if not all(math.isfinite(v) for v in losses):
            problems.append("non-finite train loss")
        elif self.head_dead:
            # no floor and no falling loss: check the zero gradients instead
            moved = self._moved_params(cfg, ckpt, best)
            if moved:
                problems.append(f"dead pretrained head, yet parameters moved: {moved}")
        else:
            if len(losses) > 1 and not losses[-1] < losses[0]:
                problems.append(f"train loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")
            if trace.records and trace.best_val_top1() < self.floor:
                problems.append(f"best val top-1 {trace.best_val_top1():.4f} < floor {self.floor}")
        digest = _digest(self.amf.harness.monitor_csv(trace).encode(),
                         self.amf.models.serialize_params(best))
        self.first_digest = self.first_digest or digest
        if digest != self.first_digest:
            problems.append("repetition not byte-identical to the first")
        failures.record(problems)
        return float(self.size.epochs * len(state[1].train))


class GradCheck:
    """`gradsuite.run_suite` in f64 then f32 mode, as `amf grad-check` runs it.

    One repetition is a fifth of the 100-seed suite in each mode: 20
    primitive seeds and one model-loss seed, the same mix of evaluations
    (7,311 per mode) in a block short enough to repeat many times per run.
    The suite draws its instances from its own seeds 0..n-1, so `--seed` does
    not change them. Set-up is a one-seed pass of both suites. A "sample" is
    one checked instance (one primitive at one seed, or one model-loss seed).
    """

    MODES = ("f64", "f32")

    def __init__(self, amf, size: Size):
        self.amf, self.size = amf, size
        self.first_digest = None

    def _suites(self, num_seeds: int, amf_seeds: int) -> list:
        return [self.amf.gradsuite.run_suite(num_seeds=num_seeds, mode=mode, amf_seeds=amf_seeds)
                for mode in self.MODES]

    def _check(self, out, num_seeds: int, amf_seeds: int, failures: Failures) -> tuple[float, str]:
        samples = 0.0
        for mode, reports in zip(self.MODES, out):
            problems = [f"{mode} {r['op']}: max rel err {r['max_rel_err']:.3g} >= {r['tol']}"
                        for r in reports if not r["passed"]]
            if len(reports) != len(self.amf.gradsuite.OP_NAMES) + 1:
                problems.append(f"{mode}: {len(reports)} reports")
            failures.record(problems)
            samples += num_seeds * (len(reports) - 1) + amf_seeds
        return samples, _digest(repr(out).encode())

    def setup(self):
        return None, self._suites(1, 1)

    def check_setup(self, state, evidence, failures: Failures) -> str:
        return self._check(evidence, 1, 1, failures)[1]

    def call(self, state):
        return self._suites(self.size.suite_seeds, self.size.amf_seeds)

    def check(self, state, out, failures: Failures) -> float:
        samples, digest = self._check(out, self.size.suite_seeds, self.size.amf_seeds, failures)
        self.first_digest = self.first_digest or digest
        if digest != self.first_digest:
            failures.fail_last("suite reports not identical to the first repetition")
        return samples


def make_workload(amf, name: str, size: Size, seed: int):
    if name == "gradcheck":
        return GradCheck(amf, size)
    return FineTune(amf, name.removeprefix("finetune_"), size, seed)


def timed_setup(amf, work, failures: Failures, digests: list, rec=None):
    """Times one set-up (traced when `rec` is given), then checks it outside
    the timed part."""
    t0 = time.perf_counter()
    with tracing.instrument(rec, amf) if rec is not None else contextlib.nullcontext():
        state, evidence = work.setup()
    wall = time.perf_counter() - t0
    digest = work.check_setup(state, evidence, failures)
    if digests and digest != digests[0]:
        failures.fail_last("set-up files differ from the first set-up's")
    digests.append(digest)
    return state, wall


def timed_rep(amf, work, state, failures: Failures, counter=None, rec=None) -> dict:
    """Times one call into the program (traced when `rec` is given), then
    checks its outputs outside the timed part."""
    c0 = counter[0] if counter else 0
    p0, t0 = time.process_time(), time.perf_counter()
    try:
        with tracing.instrument(rec, amf) if rec is not None else contextlib.nullcontext():
            out = work.call(state)
    except amf.errors.AMFError as e:
        out = e
    wall, cpu = time.perf_counter() - t0, time.process_time() - p0
    losses = (counter[0] - c0) if counter else 0
    if isinstance(out, amf.errors.AMFError):
        failures.record([f"{type(out).__name__}: {out}"])
        samples = 0.0
    else:
        samples = work.check(state, out, failures)
    return {"wall": wall, "cpu": cpu, "samples": samples, "losses": losses}


def untraced_run(amf, work, seconds: float, failures: Failures) -> dict:
    """Set-ups and repetitions in turn until `seconds` have passed, so both
    medians sample the same stretch of machine time."""
    setup_walls, reps, digests = [], [], []
    with tracing.loss_counter(amf) as counter:
        end = time.perf_counter() + seconds
        while not reps or time.perf_counter() < end:
            state, wall = timed_setup(amf, work, failures, digests)
            setup_walls.append(wall)
            reps.append(timed_rep(amf, work, state, failures, counter))
    med = statistics.median
    return {
        "train_samples_per_s": (med(r["samples"] / r["wall"] for r in reps), "1/s"),
        "loss_evals_per_s": (med(r["losses"] / r["wall"] for r in reps), "1/s"),
        "setup_s": (med(setup_walls), "s"),
        "cpu_s": (med(r["cpu"] for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(amf, work, name: str, seconds: float, failures: Failures, env: dict) -> dict:
    """One traced set-up, then untraced and traced repetitions in turn; the
    difference of their median walls is the tracing overhead."""
    rec = tracing.Recorder()
    state, _ = timed_setup(amf, work, failures, [], rec)
    plain, traced = [], []
    end = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < end:
        if len(plain) <= len(traced):
            plain.append(timed_rep(amf, work, state, failures)["wall"])
        else:
            rec.run = len(traced) + 1
            traced.append(timed_rep(amf, work, state, failures, rec=rec)["wall"])
    metrics = tracing.layer_metrics(rec, len(traced))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(plain)
    metrics["trace.spans"] = len(rec)
    rec.dump(str(OUT / f"spans-{name}.jsonl"),
             {"workload": name, "traced_reps": len(traced), "environment": env,
              "fields": ["id", "name", "start", "end", "parent", "run"]})
    return {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed: 0 for baselines, 7 to check a claimed gain on held-out inputs")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: a few examples, one epoch, two suite seeds")
    args = ap.parse_args(argv)

    amf = load_program()
    OUT.mkdir(exist_ok=True)
    size = TINY if args.tiny else FULL
    work = make_workload(amf, args.workload, size, args.seed)
    env = environment()
    failures = Failures()
    if args.trace:
        metrics = traced_run(amf, work, args.workload, args.seconds, failures, env)
    else:
        metrics = untraced_run(amf, work, args.seconds, failures)
    for reason in failures.reasons:
        print(f"bench: failed: {reason}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

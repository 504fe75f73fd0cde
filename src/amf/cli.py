"""Command-line entry point.

Commands: gen-data, pretrain, train, eval, grad-check.
Exit codes: 0 success; 1 grad-check failure; 2 bad config or argument;
3 I/O error; 4 corrupt checkpoint or dataset file, or architecture/checkpoint
mismatch; 5 non-finite training or validation loss, a lost branch worker or
job process, or one that fails with a non-package error (a package error in
either keeps its own code); 6 data value out of contract (DataError);
7 invalid tensor shape (ShapeError); 8 API misuse (UsageError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import get, load_config, schedules_for
from .data import dataset_load, dataset_save, gen_mixture, gen_source_task, MixtureSpec
from .errors import (
    CompatibilityError,
    ConfigError,
    DataError,
    FormatError,
    RunError,
    ShapeError,
    UsageError,
)
from .harness import (
    PretrainConfig,
    TrainConfig,
    evaluate,
    pretrain,
    save_run_artifacts,
    train,
)
from .models import checkpoint_load, checkpoint_save, group_prefixes, init_model, load_params_into

EXIT_OK = 0
EXIT_GRADFAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_MISMATCH = 4
EXIT_DIVERGED = 5
EXIT_DATA = 6
EXIT_SHAPE = 7
EXIT_USAGE = 8


def _mixture_spec(cfg: dict, seed_override: int | None) -> MixtureSpec:
    seed = seed_override if seed_override is not None else get(cfg, "data.seed")
    return MixtureSpec(
        k_a=get(cfg, "data.k_a"), k_b=get(cfg, "data.k_b"),
        n_train=get(cfg, "data.n_train"), n_val=get(cfg, "data.n_val"),
        n_test=get(cfg, "data.n_test"), image_hw=get(cfg, "data.image_hw"),
        channels=get(cfg, "data.channels"), noise_a=get(cfg, "data.noise_a"),
        noise_b=get(cfg, "data.noise_b"), seed=seed,
    )


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    spec = _mixture_spec(cfg, args.seed)
    # the source spec is checked first, so a bad config fails before any generation
    source = gen_source_task(spec, get(cfg, "data.source_seed"),
                             get(cfg, "data.source_classes"),
                             noise=get(cfg, "data.source_noise"))
    target = gen_mixture(spec)
    os.makedirs(args.out, exist_ok=True)
    dataset_save(target, os.path.join(args.out, "target.ds"))
    dataset_save(source, os.path.join(args.out, "source.ds"))
    for name, ds in (("target", target), ("source", source)):
        print(f"{name}: classes={ds.spec.num_classes} "
              f"train={len(ds.train)} val={len(ds.val)} test={len(ds.test)}")
    return EXIT_OK


def _train_config(cfg: dict, num_classes: int, spec, seed_override: int | None) -> TrainConfig:
    arch, n = get(cfg, "model.arch"), get(cfg, "model.n")
    seed_init = seed_override if seed_override is not None else get(cfg, "train.seed_init")
    seed_data = seed_override if seed_override is not None else get(cfg, "train.seed_data")
    return TrainConfig(
        arch=arch, n=n, d=get(cfg, "model.d"), num_classes=num_classes,
        in_channels=spec.channels, image_hw=spec.image_hw,
        schedules=schedules_for(cfg, list(group_prefixes(arch, n))),
        momentum=get(cfg, "optim.momentum"),
        batch_size=get(cfg, "train.batch_size"), epochs=get(cfg, "train.epochs"),
        seed_init=seed_init, seed_data=seed_data,
        layer_scale=get(cfg, "train.layer_scale"),
    )


def cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    source = dataset_load(args.data)
    seed = args.seed if args.seed is not None else get(cfg, "train.seed_init")
    pcfg = PretrainConfig(
        epochs=get(cfg, "pretrain.epochs"), batch_size=get(cfg, "pretrain.batch_size"),
        backbone_lr=get(cfg, "pretrain.lr"), policy_lr=get(cfg, "pretrain.policy_lr"),
        momentum=get(cfg, "optim.momentum"), seed_init=seed, seed_data=seed,
        d=get(cfg, "model.d"),
    )
    ckpt = pretrain(pcfg, source)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "pretrained.ckpt")
    checkpoint_save(ckpt, path)
    print(f"pretrained checkpoint: {path} ({len(ckpt)} tensors)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    target = dataset_load(args.data)
    tcfg = _train_config(cfg, target.spec.num_classes, target.spec, args.seed)
    pretrained = checkpoint_load(args.ckpt) if args.ckpt else None
    model, trace, best = train(tcfg, target, pretrained)
    csv_path, ckpt_path = save_run_artifacts(trace, best, args.out, tcfg.arch)
    for w in trace.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"monitor: {csv_path}")
    print(f"best checkpoint: {ckpt_path} (val top-1 {trace.best_val_top1():.6g})")
    return EXIT_OK


def _eval_line(arch: str, report) -> str:
    # field order: arch, top1_overall, one top1_mode{m} per mode in the split,
    # loss, then assign_overall and one assign_mode{m} per mode when assigned
    fields = {"arch": arch, "top1_overall": round(report.top1_overall, 6)}
    for m, v in sorted(report.top1_per_mode.items()):
        fields[f"top1_mode{m}"] = round(v, 6)
    fields["loss"] = round(report.loss, 6)
    if report.assignment_overall is not None:
        fields["assign_overall"] = round(report.assignment_overall, 6)
        for m, v in sorted(report.assignment_per_mode.items()):
            fields[f"assign_mode{m}"] = round(v, 6)
    return json.dumps(fields)


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    target = dataset_load(args.data)
    arch = get(cfg, "model.arch")
    model = init_model(arch, 0, target.spec.num_classes, get(cfg, "model.n"), get(cfg, "model.d"),
                       target.spec.channels, target.spec.image_hw)
    load_params_into(model, checkpoint_load(args.ckpt))
    report = evaluate(model, target.split(args.split))
    print(f"{arch} {args.split} top-1: {report.top1_overall:.4f} "
          f"(per mode: {report.top1_per_mode}), loss {report.loss:.4f}")
    if report.assignment_overall is not None:
        print(f"assignment accuracy: {report.assignment_overall:.4f} "
              f"(per mode: {report.assignment_per_mode}, matching {report.branch_matching})")
    print(_eval_line(arch, report))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    from .gradsuite import run_suite

    reports = run_suite(num_seeds=args.seeds, mode=args.mode)
    failed = [r for r in reports if not r["passed"]]
    for r in reports:
        status = "ok" if r["passed"] else "FAIL"
        print(f"{r['op']:<14} max rel err {r['max_rel_err']:.3e} (tol {r['tol']:.0e}) {status}")
    return EXIT_GRADFAIL if failed else EXIT_OK


def _seed(text: str) -> int:
    """A seed argument: a non-negative integer, as ``data.seed`` in a config."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="amf", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, data=False, ckpt=False, out=False):
        if config:
            sp.add_argument("--config", required=True)
        if data:
            sp.add_argument("--data", required=True)
        if ckpt is not False:
            sp.add_argument("--ckpt", required=(ckpt == "required"), default=None)
        if out:
            sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=_seed, default=None, help="override config seeds")

    sp = sub.add_parser("gen-data", help="generate target and source dataset files")
    common(sp, out=True)
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("pretrain", help="pretrain backbones on the source task")
    common(sp, data=True, out=True)
    sp.set_defaults(func=cmd_pretrain)

    sp = sub.add_parser("train", help="fine-tune on the target mixture")
    common(sp, data=True, ckpt=True, out=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp, data=True, ckpt="required")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("grad-check", help="finite-difference gradient suite")
    sp.add_argument("--mode", default="f64", choices=("f64", "f32"))
    sp.add_argument("--seeds", type=int, default=20)
    sp.set_defaults(func=cmd_grad_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (CompatibilityError, FormatError) as e:
        print(f"checkpoint/format error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except RunError as e:
        print(f"run error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ShapeError as e:
        print(f"shape error: {e}", file=sys.stderr)
        return EXIT_SHAPE
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

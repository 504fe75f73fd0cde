"""Golden outputs: a tiny pretrain, AMF, multitune and single fine-tunes and
a short gradient suite must give byte-identical artifacts to the recorded run.

The digests were recorded with numpy 2.4.6 and OpenBLAS 0.3.31 (the
scipy-openblas build, Haswell kernels) on x86-64. The gradient-suite errors
depend on BLAS's small-matrix summation order, and the checkpoints on its
GEMM kernels, so another numpy or BLAS build may change the bits without any
change to this code; re-record the digests only after checking that on the
unchanged code.
"""

import hashlib
import os

from amf.data import MixtureSpec, dataset_save, gen_mixture, gen_source_task
from amf.gradsuite import run_suite
from amf.harness import PretrainConfig, pretrain, save_run_artifacts, train
from amf.models import checkpoint_save, snapshot
from amf.optim import ScheduleSpec

from conftest import TINY_SCHEDULES, TINY_SPEC, tiny_train_config

EXPECTED = {
    "amf_best.ckpt": "cf61a7c5a4dbe59980d6e8fb3572342f0b7e2e8ab66df7e448b788a2a8782185",
    "amf_final.ckpt": "cf61a7c5a4dbe59980d6e8fb3572342f0b7e2e8ab66df7e448b788a2a8782185",
    "amf_monitor.csv": "1a9500f8cd24183d01c2addedb21665346b82e5de0c306f5575829e5b9ebd742",
    "multitune_best.ckpt": "099fafb7e657c478ed72a732cdc620e7e8139dd13fba4aadd1be6f8eb57e5029",
    "multitune_final.ckpt": "099fafb7e657c478ed72a732cdc620e7e8139dd13fba4aadd1be6f8eb57e5029",
    "multitune_monitor.csv": "373dfddd2b0fb16778e38b26c949ebd7d83db2c3c12b0783a682c4f050a7d81a",
    "pretrained.ckpt": "40e1c1ea7c5d1bd01065abe21ba1a39519a1ea06b98d6dafdb2050c9da8f3392",
    "single_best.ckpt": "00b6ca581b1eb8c55f16287e38f53bb5e6415db251381dd38d23fd2fb4269b42",
    "single_final.ckpt": "a5d0462eb880304d34663794f476838fffe316fc61c4e9667d13b2e348d43e60",
    "single_monitor.csv": "39c35310d729a4db011fe8fdfb1efdcc5e2750a8c1326a06e5e9da206a017e18",
    "gradsuite_f64": "191202d9fe8a5123dbb761890663715640299009c03403db45be1c5ce2ad1578",
    "gradsuite_f32": "30631db146dd1481ef87bdc4ee0efce06e43c42d7dd32952bd9dff375e10531f",
}


# AMFDATA1 files of generated datasets. Recorded before the splits were
# stored as arrays, when each image was drawn and written one at a time.
DATASET_EXPECTED = {
    "tiny_target": "c320bcf499570233a267ada54a6df8c0330641caa22d6c4c0625d15673caf046",
    "tiny_source": "0d918f2832f5857d0a5410c0fdbe61bba8e0320a6550acd5d354986592d6e1c7",
    "seed0_target": "f458ba8663b86e7664c2faab1e209df31ba674859067d858579622f52a3f5114",
    "seed0_source": "c53c2ca4d4115b6fd0f726f21fb4d22d11134dd6cc720a356d44e601358a75fb",
}


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _suite_bytes(mode: str) -> bytes:
    reports = run_suite(num_seeds=2, mode=mode, amf_seeds=1, amf_coords=4)
    return "\n".join(f"{r['op']} {float(r['max_rel_err']).hex()} {r['passed']}" for r in reports).encode()


def golden_digests(out_dir: str) -> dict[str, str]:
    source = gen_source_task(TINY_SPEC, seed=1000, k_src=3)
    pretrained = pretrain(PretrainConfig(epochs=2, batch_size=8, d=8, seed_init=3, seed_data=3), source)
    checkpoint_save(pretrained, os.path.join(out_dir, "pretrained.ckpt"))
    runs = {
        "amf": tiny_train_config(epochs=3),
        "multitune": tiny_train_config(arch="multitune", epochs=3, schedules={
            g: s for g, s in TINY_SCHEDULES.items() if g != "policy"}),
        "single": tiny_train_config(arch="single", n=1, epochs=3, schedules={
            "backbone": ScheduleSpec(0.01), "classifier": ScheduleSpec(0.01)}),
    }
    target = gen_mixture(TINY_SPEC)
    for name, cfg in runs.items():
        model, trace, best = train(cfg, target, pretrained)
        save_run_artifacts(trace, best, out_dir, name)
        checkpoint_save(snapshot(model), os.path.join(out_dir, f"{name}_final.ckpt"))
    digests = {name: _sha256(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}
    for mode in ("f64", "f32"):
        digests[f"gradsuite_{mode}"] = hashlib.sha256(_suite_bytes(mode)).hexdigest()
    return digests


def test_artifacts_match_recorded_digests(tmp_path):
    assert golden_digests(str(tmp_path)) == EXPECTED


def test_dataset_files_match_recorded_digests(tmp_path):
    datasets = {
        "tiny_target": gen_mixture(TINY_SPEC),
        "tiny_source": gen_source_task(TINY_SPEC, seed=1000, k_src=3),
        "seed0_target": gen_mixture(MixtureSpec(seed=0)),
        "seed0_source": gen_source_task(MixtureSpec(seed=0), 1000),
    }
    digests = {}
    for name, ds in datasets.items():
        path = str(tmp_path / f"{name}.ds")
        dataset_save(ds, path)
        digests[name] = _sha256(path)
    assert digests == DATASET_EXPECTED

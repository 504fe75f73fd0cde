"""Smoke test of the benchmark at tiny size (one epoch, two suite seeds).

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload: str, trace: int, seed: int = 1) -> dict:
    proc = run_bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): result(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_printed_with_its_unit(results, workload, trace):
    res = results[(workload, trace)]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_nonzero(results, workload):
    assert all(v["value"] > 0 for v in results[(workload, 0)]["metrics"].values())


def test_weighting_trace_only_on_gated_model(results):
    amf = results[("finetune_amf", 1)]["metrics"]
    single = results[("finetune_single", 1)]["metrics"]
    assert amf["harness.weighting_trace_calls"]["value"] > 0
    assert single["harness.weighting_trace_calls"]["value"] == 0
    assert amf["autodiff.scale_rows.calls"]["value"] > 0
    assert single["autodiff.scale_rows.calls"]["value"] == 0


@pytest.mark.parametrize("workload", ["finetune_amf", "finetune_single"])
def test_self_times_account_for_train_time(results, workload):
    m = {k: v["value"] for k, v in results[(workload, 1)]["metrics"].items()}
    parts = [k for k in m if k.startswith("autodiff.") and k.endswith(("fwd_s", "bwd_s"))]
    parts += ["autodiff.sweep_self_s", "autodiff.gc_pause_s", "models.forward_self_s",
              "models.init_model_s", "models.transfer_init_s", "optim.build_groups_s",
              "optim.sgd_step_s", "data.batches_s", "harness.train_self_s"]
    assert sum(m[k] for k in parts) == pytest.approx(m["harness.train_s"], rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(results, workload):
    again = result(workload, 1, seed=2)["metrics"]
    first = results[(workload, 1)]["metrics"]
    counts = [k for k in first if first[k]["unit"] in ("count", "GFLOP") and k != "trace.spans"
              and not k.startswith("autodiff.gc")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: again[k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_setup_spans_recorded(results):
    m = results[("finetune_amf", 1)]["metrics"]
    for key in ("data.gen_mixture_s", "data.dataset_save_s", "data.dataset_load_s",
                "harness.pretrain_s", "models.checkpoint_save_s", "models.checkpoint_load_s"):
        assert m[key]["value"] > 0, key

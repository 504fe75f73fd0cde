import json
import os
import re
import signal
import struct

import pytest

from amf import branchworker, gradsuite
from amf.cli import (
    _eval_line,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_SHAPE,
    EXIT_USAGE,
    main,
)
from amf.data import Split
from amf.errors import DataError, ShapeError, UsageError
from amf.harness import EvalReport, evaluate
from amf.models import AMFModel

from conftest import TINY_SPEC

CONFIG = """
data.k_a = 2
data.k_b = 2
data.n_train = 4
data.n_val = 2
data.n_test = 2
data.seed = 0
data.source_classes = 3
model.arch = amf
model.n = 2
model.d = 8
train.epochs = 2
train.batch_size = 16
pretrain.epochs = 2
pretrain.batch_size = 16
optim.branch1.lr = 0.01
optim.branch2.lr = 0.02
optim.classifier.lr = 0.01
optim.policy.lr = 0.001
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Full pipeline: gen-data -> pretrain -> train, shared by the eval tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    data = str(root / "data")
    runs = str(root / "runs")
    assert main(["gen-data", "--config", str(cfg), "--out", data]) == EXIT_OK
    assert main(["pretrain", "--config", str(cfg), "--data",
                 os.path.join(data, "source.ds"), "--out", runs]) == EXIT_OK
    assert main(["train", "--config", str(cfg), "--data",
                 os.path.join(data, "target.ds"),
                 "--ckpt", os.path.join(runs, "pretrained.ckpt"),
                 "--out", runs]) == EXIT_OK
    return root


class TestPipeline:
    def test_artifacts_exist(self, workdir):
        for name in ("data/target.ds", "data/source.ds", "runs/pretrained.ckpt",
                     "runs/amf_monitor.csv", "runs/amf_best.ckpt"):
            assert (workdir / name).exists(), name

    def test_monitor_has_expected_rows(self, workdir):
        lines = (workdir / "runs/amf_monitor.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 epochs

    def test_eval_ok(self, workdir, capsys):
        rc = main(["eval", "--config", str(workdir / "run.cfg"),
                   "--data", str(workdir / "data/target.ds"),
                   "--ckpt", str(workdir / "runs/amf_best.ckpt")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "top-1" in out and "assignment" in out

    def test_train_without_pretrained_ckpt(self, workdir, tmp_path):
        rc = main(["train", "--config", str(workdir / "run.cfg"),
                   "--data", str(workdir / "data/target.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_OK

    def test_monitor_has_a_weight_column_per_branch(self, workdir, tmp_path):
        cfg = tmp_path / "n3.cfg"
        cfg.write_text(CONFIG.replace("model.n = 2", "model.n = 3") + "optim.branch3.lr = 0.03\n")
        rc = main(["train", "--config", str(cfg),
                   "--data", str(workdir / "data/target.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_OK
        header, *rows = (tmp_path / "amf_monitor.csv").read_text().strip().split("\n")
        cols = header.split(",")
        assert "mean_h_branch2" in cols
        h_cols = [i for i, c in enumerate(cols) if c.startswith("mean_h_")]
        assert len(h_cols) == 3 and len(rows) == 2
        for row in rows:
            h = [float(row.split(",")[i]) for i in h_cols]
            assert sum(h) == pytest.approx(1.0, abs=1e-5)

    def test_single_arch_ignores_n(self, workdir, tmp_path):
        artifacts = []
        for n in (1, 2):
            cfg = tmp_path / f"single{n}.cfg"
            text = "".join(line + "\n" for line in CONFIG.splitlines()
                           if not line.startswith(("optim.branch", "optim.policy.")))
            cfg.write_text(text.replace("model.arch = amf", "model.arch = single")
                               .replace("model.n = 2", f"model.n = {n}") + "optim.backbone.lr = 0.01\n")
            out = tmp_path / f"n{n}"
            rc = main(["train", "--config", str(cfg), "--data", str(workdir / "data/target.ds"),
                       "--ckpt", str(workdir / "runs/pretrained.ckpt"), "--out", str(out)])
            assert rc == EXIT_OK
            artifacts.append([(out / f).read_bytes() for f in ("single_monitor.csv", "single_best.ckpt")])
        assert artifacts[0] == artifacts[1]


class TestEvalLine:
    def test_two_modes_keep_the_field_order(self):
        report = EvalReport(top1_overall=0.5, top1_per_mode={1: 0.75, 0: 0.25}, loss=1.25,
                            assignment_overall=0.5, assignment_per_mode={0: 1.0, 1: 0.0})
        assert _eval_line("amf", report) == (
            '{"arch": "amf", "top1_overall": 0.5, "top1_mode0": 0.25, "top1_mode1": 0.75, '
            '"loss": 1.25, "assign_overall": 0.5, "assign_mode0": 1.0, "assign_mode1": 0.0}')

    def test_one_mode_split_has_one_top1_field(self, tiny_mixture):
        val = tiny_mixture.val
        keep = val.modes == 1
        split = Split(val.images[keep], val.labels[keep], val.modes[keep])
        model = AMFModel(n=2, d=8, num_classes=TINY_SPEC.num_classes, image_hw=8)
        line = _eval_line("amf", evaluate(model, split))
        assert "NaN" not in line
        assert list(json.loads(line)) == ["arch", "top1_overall", "top1_mode1", "loss"]


class TestExitCodes:
    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("data.bogus = 1\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_misspelt_optim_group(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "misspelt.cfg"
        cfg.write_text(CONFIG + "optim.brnch2.decay_rate = 0.5\n")
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg), "--data", str(workdir / "data/target.ds"),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "optim.brnch2.decay_rate" in capsys.readouterr().err
        assert not out.exists()

    # noise is stored as f32 in a dataset file, so a value it cannot restore is a config error
    @pytest.mark.parametrize("line", ["data.noise_a = 0.123456789", "data.noise_b = 0.123456789",
                                      "data.source_noise = 0.123456789"])
    def test_noise_a_dataset_cannot_restore(self, tmp_path, line):
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(CONFIG + line + "\n")
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_data_file(self, workdir, tmp_path):
        rc = main(["train", "--config", str(workdir / "run.cfg"),
                   "--data", str(tmp_path / "nope.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_IO

    def test_checkpoint_arch_mismatch(self, workdir, tmp_path):
        cfg = tmp_path / "single.cfg"
        cfg.write_text(CONFIG.replace("model.arch = amf", "model.arch = single")
                             .replace("optim.branch1.lr = 0.01", "optim.backbone.lr = 0.01"))
        rc = main(["eval", "--config", str(cfg),
                   "--data", str(workdir / "data/target.ds"),
                   "--ckpt", str(workdir / "runs/amf_best.ckpt")])
        assert rc == EXIT_MISMATCH

    def test_corrupt_checkpoint(self, workdir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        rc = main(["eval", "--config", str(workdir / "run.cfg"),
                   "--data", str(workdir / "data/target.ds"), "--ckpt", str(bad)])
        assert rc == EXIT_MISMATCH

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_run(self, workdir, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(CONFIG.replace("optim.branch2.lr = 0.02",
                                      "optim.branch2.lr = 1e30"))
        rc = main(["train", "--config", str(cfg),
                   "--data", str(workdir / "data/target.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_DIVERGED

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_last_step(self, workdir, tmp_path):
        # one epoch of one batch of 16: only the validation loss reads the stepped weights
        cfg = tmp_path / "diverge.cfg"
        text = CONFIG.replace("train.epochs = 2", "train.epochs = 1")
        for group in ("branch1", "branch2", "classifier", "policy"):
            text = re.sub(rf"optim\.{group}\.lr = \S+", f"optim.{group}.lr = 1e30", text)
        cfg.write_text(text)
        rc = main(["train", "--config", str(cfg),
                   "--data", str(workdir / "data/target.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_DIVERGED
        assert not (tmp_path / "amf_best.ckpt").exists()

    def test_lost_branch_worker(self, workdir, tmp_path, monkeypatch, capsys):
        step = branchworker.BranchWorker.step

        def step_then_kill(self, epoch):
            step(self, epoch)
            os.kill(self.pid, signal.SIGKILL)
        monkeypatch.setattr(branchworker, "use_worker", lambda n: True)
        monkeypatch.setattr(branchworker.BranchWorker, "step", step_then_kill)
        rc = main(["train", "--config", str(workdir / "run.cfg"),
                   "--data", str(workdir / "data/target.ds"), "--out", str(tmp_path)])
        assert rc == EXIT_DIVERGED
        assert "branch worker lost" in capsys.readouterr().err

    def test_dataset_label_out_of_range(self, workdir, tmp_path):
        blob = bytearray((workdir / "data/target.ds").read_bytes())
        struct.pack_into("<H", blob, 68, 4)  # first label; the config has 4 classes
        bad = tmp_path / "bad.ds"
        bad.write_bytes(bytes(blob))
        rc = main(["train", "--config", str(workdir / "run.cfg"),
                   "--data", str(bad), "--out", str(tmp_path)])
        assert rc == EXIT_MISMATCH

    @pytest.mark.parametrize("error, code", [(DataError, EXIT_DATA), (ShapeError, EXIT_SHAPE),
                                             (UsageError, EXIT_USAGE)])
    def test_package_errors_map_to_exit_codes(self, monkeypatch, capsys, error, code):
        def fail(**kwargs):
            raise error("injected")

        monkeypatch.setattr(gradsuite, "run_suite", fail)
        assert main(["grad-check", "--seeds", "1"]) == code
        assert "injected" in capsys.readouterr().err

    # a negative seed is rejected while parsing, with the exit code of an out-of-range data.seed
    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "train"])
    def test_negative_seed(self, workdir, tmp_path, capsys, command):
        argv = [command, "--config", str(workdir / "run.cfg"), "--out", str(tmp_path / "out"), "--seed", "-3"]
        if command != "gen-data":
            argv += ["--data", str(workdir / "data/source.ds")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grad_check_without_seeds(self, capsys):
        assert main(["grad-check", "--seeds", "0"]) == EXIT_USAGE
        assert "num_seeds=0" in capsys.readouterr().err

    def test_grad_check_ok(self):
        assert main(["grad-check", "--seeds", "3"]) == EXIT_OK

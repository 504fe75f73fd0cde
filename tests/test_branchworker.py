import os
import signal

import pytest

from amf import branchworker, harness
from amf.errors import RunError
from amf.harness import monitor_csv, train
from amf.models import serialize_params, snapshot
from amf.optim import ScheduleSpec

from conftest import TINY_SCHEDULES, tiny_train_config


class TestThreadBudget:
    @pytest.mark.parametrize("cpus, env, n, forks", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 3, True),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, False),  # single and pretraining runs
        (2, {}, 2, False),  # OpenBLAS takes every CPU
        (2, {"OMP_NUM_THREADS": "1"}, 2, True),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 2, False),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2, True),
        (4, {"OPENBLAS_NUM_THREADS": "3"}, 2, False),
        (4, {"OPENBLAS_NUM_THREADS": "8"}, 2, False),  # capped at 4 CPUs
        (4, {}, 2, False),
    ])
    def test_forks_when_the_cpus_hold_both_processes_blas_threads(self, monkeypatch, cpus, env, n, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert branchworker.use_worker(n) is forks

    def test_no_fork_without_os_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork")
        assert not branchworker.use_worker(2)


@pytest.fixture
def workers(monkeypatch):
    """Forces every train run onto the forked path; yields the workers' pids."""
    pids = []

    class Recorded(branchworker.BranchWorker):
        def __init__(self, *args):
            super().__init__(*args)
            pids.append(self.pid)

    monkeypatch.setattr(branchworker, "use_worker", lambda n: True)
    monkeypatch.setattr(branchworker, "BranchWorker", Recorded)
    yield pids
    for pid in pids:  # every worker is reaped by the time train returns or raises
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _outputs(cfg, target) -> tuple[bytes, bytes, bytes]:
    model, trace, best = train(cfg, target)
    return monitor_csv(trace).encode(), serialize_params(best), serialize_params(snapshot(model))


RUNS = {
    "amf_n2": tiny_train_config(epochs=3),
    "amf_n3": tiny_train_config(n=3, epochs=3, schedules=dict(TINY_SCHEDULES, branch3=ScheduleSpec(0.03))),
    "multitune_n2": tiny_train_config(arch="multitune", epochs=3, schedules={
        g: s for g, s in TINY_SCHEDULES.items() if g != "policy"}),
}


@pytest.mark.parametrize("name", RUNS)
def test_forked_run_gives_the_serial_bytes(name, tiny_mixture, monkeypatch, workers):
    cfg = RUNS[name]
    with monkeypatch.context() as serial:
        serial.setattr(branchworker, "use_worker", lambda n: False)
        expected = _outputs(cfg, tiny_mixture)
    assert not workers
    assert _outputs(cfg, tiny_mixture) == expected
    assert len(workers) == 1


def test_killed_worker_is_a_run_error(tiny_mixture, monkeypatch, workers):
    step = branchworker.BranchWorker.step

    def step_then_kill(self, epoch):
        step(self, epoch)
        os.kill(self.pid, signal.SIGKILL)
    monkeypatch.setattr(branchworker.BranchWorker, "step", step_then_kill)
    with pytest.raises(RunError, match="branch worker"):
        train(tiny_train_config(), tiny_mixture)
    assert len(workers) == 1


def test_exception_in_the_worker_is_a_run_error(tiny_mixture, monkeypatch, workers):
    def failing(*args):
        raise ValueError("boom")
    monkeypatch.setattr(branchworker, "sgd_step", failing)  # the worker's binding only
    with pytest.raises(RunError, match="ValueError: boom"):
        train(tiny_train_config(), tiny_mixture)
    assert len(workers) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_reaps_the_worker(tiny_mixture, workers):
    huge = {g: ScheduleSpec(1e30) for g in ("branch1", "branch2", "classifier", "policy")}
    with pytest.raises(RunError, match="non-finite"):
        train(tiny_train_config(schedules=huge, epochs=5), tiny_mixture)
    assert len(workers) == 1


def test_other_exceptions_reap_the_worker(tiny_mixture, monkeypatch, workers):
    def failing(*args):
        raise KeyError("evaluate")
    monkeypatch.setattr(harness, "evaluate", failing)
    with pytest.raises(KeyError):
        train(tiny_train_config(), tiny_mixture)
    assert len(workers) == 1

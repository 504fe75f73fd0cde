import os
import signal

import pytest

from amf import blas, branchworker, harness
from amf.errors import ConfigError, RunError
from amf.harness import monitor_csv, train
from amf.models import serialize_params, snapshot
from amf.optim import ScheduleSpec

from conftest import TINY_SCHEDULES, fake_openblas, tiny_train_config


class TestThreadBudget:
    # cpus, environment, branches; then the threads OpenBLAS reads at load and whether a run forks at them
    CASES = [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1, True),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 3, 1, True),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 1, 1, False),  # single and pretraining runs
        (2, {}, 2, 2, False),  # OpenBLAS takes every CPU
        (2, {"OMP_NUM_THREADS": "1"}, 2, 1, True),
        (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 2, False),
        (2, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 1, True),
        (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 1, True),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 2, 1, False),
        (4, {"OPENBLAS_NUM_THREADS": "2"}, 2, 2, True),
        (4, {"OPENBLAS_NUM_THREADS": "3"}, 2, 3, False),
        (4, {"OPENBLAS_NUM_THREADS": "8"}, 2, 4, False),  # capped at 4 CPUs
        (4, {}, 2, 4, False),
    ]

    @pytest.fixture
    def machine(self, monkeypatch):
        def set_up(cpus, env):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                monkeypatch.delenv(var, raising=False)
            for var, value in env.items():
                monkeypatch.setenv(var, value)
        return set_up

    @pytest.mark.parametrize("cpus, env, n, threads, forks", CASES)
    def test_without_the_library_forks_when_the_cpus_hold_both_processes_load_threads(
            self, monkeypatch, machine, cpus, env, n, threads, forks):
        machine(cpus, env)
        monkeypatch.setattr(blas, "_openblas", lambda: None)
        assert blas.threads() == threads
        assert branchworker.worker_threads() == threads
        assert branchworker.use_worker(n) is forks

    @pytest.mark.parametrize("cpus, env, n, threads, forks", CASES)
    def test_with_the_library_the_run_time_count_replaces_the_environment(
            self, monkeypatch, machine, cpus, env, n, threads, forks):
        # the same machines, with OpenBLAS reporting the count it read at load:
        # a forked run lowers it to half the CPUs, so every multi-branch run forks on 2 CPUs
        machine(cpus, env)
        fake_openblas(monkeypatch, threads)
        assert blas.threads() == threads
        assert branchworker.worker_threads() == min(threads, max(1, cpus // 2))
        assert branchworker.use_worker(n) is (n >= 2 and cpus >= 2)

    @pytest.mark.parametrize("cpus, count, per_process", [(2, 2, 1), (4, 4, 2), (4, 1, 1), (8, 3, 3), (1, 1, 1)])
    def test_forked_runs_never_raise_the_count(self, monkeypatch, machine, cpus, count, per_process):
        machine(cpus, {})
        fake_openblas(monkeypatch, count)
        assert branchworker.worker_threads() == per_process

    def test_no_fork_without_os_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork")
        assert not branchworker.use_worker(2)


def test_forked_train_runs_at_the_worker_threads_and_restores_the_count(tiny_mixture, monkeypatch):
    counts = fake_openblas(monkeypatch, 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = []

    class Recorded(branchworker.BranchWorker):
        def step(self, epoch):
            seen.append(counts[0])
            super().step(epoch)
    monkeypatch.setattr(branchworker, "BranchWorker", Recorded)
    train(tiny_train_config(epochs=1), tiny_mixture)
    assert seen and set(seen) == {1}
    assert counts == [2]


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


def test_package_error_in_the_worker_keeps_its_class_and_message(tiny_mixture, monkeypatch, workers):
    def failing(*args):
        raise ConfigError("group branch2 has no rate")
    monkeypatch.setattr(branchworker, "sgd_step", failing)  # the worker's binding only
    with pytest.raises(ConfigError, match="^group branch2 has no rate$"):
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

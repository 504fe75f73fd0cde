import os
import signal
import time

import numpy as np
import pytest

from amf import blas, branchworker, jobs
from amf.errors import ConfigError, RunError
from amf.experiment import ExperimentConfig, run_experiment
from amf.harness import EvalReport

from conftest import TINY_SPEC, fake_openblas


@pytest.fixture
def forks(monkeypatch):
    """Records the pid of every child this process forks; after the test,
    checks that each one has been reaped."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _fail(error):
    raise error


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


REPORT = EvalReport(top1_overall=0.8125, top1_per_mode={0: 0.75, 1: 0.875}, loss=0.1 + 0.2,
                    assignment_overall=0.5, assignment_per_mode={0: 1.0, 1: 0.0},
                    branch_matching=(1, 0), mean_h=[0.47020658850669861, 0.5297933220863342])


@pytest.fixture
def slots(monkeypatch):
    """Gives this process's pools ``n`` slots (the real rule for ``None``),
    while the jobs it forks keep the real rule (their pinned CPU gives them one)."""
    here, real = os.getpid(), jobs.slots

    def force(n):
        monkeypatch.setattr(jobs, "slots", lambda: n if n and os.getpid() == here else real())
    return force


def pooled(*fns) -> list:
    """The results of ``fns`` run on a ``Pool``, in the order they end."""
    with jobs.Pool() as pool:
        for fn in fns:
            pool.submit(fn)
        return [result for _, result in pool.results()]


def probe():
    return os.sched_getaffinity(0), blas.threads(), jobs.slots(), branchworker.use_worker(2)


class TestPool:
    @pytest.fixture(autouse=True)
    def two_slots(self, slots):
        slots(2)

    def test_results_keep_their_types_and_bits(self, forks):
        params = {"w": np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32),
                  "b": np.arange(3, dtype=np.float64) / 7}
        (x,), (report,), (back,) = (pooled(lambda r=r: r) for r in (np.float64(1) / 3, REPORT, params))
        assert type(x) is np.float64 and x == np.float64(1) / 3
        assert repr(report) == repr(REPORT)
        assert back.keys() == params.keys()
        for k, v in params.items():
            assert back[k].dtype == v.dtype and back[k].tobytes() == v.tobytes()
        assert len(forks) == 3

    def test_one_slot_runs_the_jobs_here_in_priority_then_submission_order(self, forks, slots):
        slots(1)
        order = []
        with jobs.Pool() as pool:
            for name, priority in (("a", 0), ("b", 2), ("c", 0), ("d", 2)):
                pool.submit(lambda name=name: order.append(name) or name, priority)
            assert [r for _, r in pool.results()] == ["b", "d", "a", "c"]
        assert order == ["b", "d", "a", "c"]
        assert not forks

    def test_jobs_submitted_while_reading_results_run_too(self, forks):
        with jobs.Pool() as pool:
            first = pool.submit(lambda: 20)
            seen = {}
            for job_id, result in pool.results():
                seen[job_id] = result
                if job_id == first:
                    seen[pool.submit(lambda result=result: result + 1)] = None
        assert sorted(seen.values()) == [20, 21]
        assert len(forks) == 2

    def test_a_child_runs_pinned_at_one_blas_thread_and_stays_serial(self, forks):
        threads = 1 if blas.settable() else blas.threads()
        affinity = sorted(os.sched_getaffinity(0))
        first, second = pooled(probe, probe)
        assert {first[0].pop(), second[0].pop()} == {affinity[0], affinity[1 % len(affinity)]}
        assert first[1:] == second[1:] == (threads, 1, False)

    def test_run_gives_job_order(self, forks):
        affinity = sorted(os.sched_getaffinity(0))
        results = jobs.run([probe, probe, lambda: os.getpid(), lambda: 5])
        assert {results[0][0].pop(), results[1][0].pop()} == {affinity[0], affinity[1 % len(affinity)]}
        assert results[2] != os.getpid() and results[3] == 5
        assert len(forks) == 4

    def test_a_freed_slot_starts_the_next_job_while_the_others_run(self, forks, tmp_path):
        started = tmp_path / "third started"

        def waits_for_the_third():
            deadline = time.perf_counter() + 20
            while not started.exists() and time.perf_counter() < deadline:
                time.sleep(0.01)
            return started.exists()
        assert jobs.run([lambda: 1, waits_for_the_third, started.touch]) == [1, True, None]
        assert len(forks) == 3

    def test_run_with_one_slot_forks_nothing(self, forks, slots):
        slots(1)
        assert jobs.run([lambda: 1, lambda: os.getpid()]) == [1, os.getpid()]
        assert not forks

    def test_package_error_keeps_its_class_and_message(self, forks):
        with pytest.raises(ConfigError, match="^epochs must be >= 1, got 0$"):
            pooled(lambda: 1, lambda: _fail(ConfigError("epochs must be >= 1, got 0")))
        assert len(forks) == 2

    def test_other_exception_is_a_run_error_with_its_text(self, forks):
        with pytest.raises(RunError, match="job failed: ValueError: boom"):
            jobs.run([lambda: 1, lambda: _fail(ValueError("boom"))])
        assert len(forks) == 2

    def test_killed_child_is_a_run_error(self, forks):
        with pytest.raises(RunError, match=f"job process lost \\(killed by signal {int(signal.SIGKILL)}\\)"):
            pooled(_kill_self, lambda: 1)
        assert len(forks) == 2

    def test_a_failure_kills_and_reaps_the_jobs_still_running(self, forks):
        start = time.perf_counter()
        with pytest.raises(RunError, match="ValueError"):
            pooled(lambda: time.sleep(60), lambda: _fail(ValueError("early")))
        assert time.perf_counter() - start < 30
        assert len(forks) == 2


def test_slots(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    fake_openblas(monkeypatch, 4)
    assert jobs.slots() == 4  # children are set to one thread each
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert jobs.slots() == 2  # children keep the two threads read at load
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert jobs.slots() == 1
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert jobs.slots() == 1


TINY_EXPERIMENT = ExperimentConfig(seeds=(0, 3, 1), d=4, batch_size=8, amf_epochs=3, baseline_epochs=2,
                                   mixture=TINY_SPEC)


def test_pooled_experiment_gives_the_serial_results(forks, slots):
    slots(1)
    serial = run_experiment(TINY_EXPERIMENT)  # forks only a branch worker, where use_worker allows
    n_serial = len(forks)
    slots(2)
    lines = []
    forced = run_experiment(TINY_EXPERIMENT, log=lines.append)
    assert len(forks) - n_serial == 12  # 3 pretrainings and 9 fine-tunes, none forking again
    slots(None)
    for result in (forced, run_experiment(TINY_EXPERIMENT)):
        assert [r.seed for r in result.per_seed] == [0, 3, 1]
        for a, b in zip(serial.per_seed, result.per_seed):
            assert repr(a) == repr(b)
            assert a.epoch0_mean_h == b.epoch0_mean_h
    assert len(lines) == 4 and lines[-1].startswith("means:")

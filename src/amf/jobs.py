"""A pool of forked processes that run independent jobs side by side.

A job is a zero-argument callable whose result can be pickled. ``Pool.submit``
queues one; ``Pool.results`` starts queued jobs, the highest priority first,
while a slot is free, and yields each job's id and result as it ends. Jobs
submitted while the results are read join the queue, so a job can start once
the results it needs are in the parent, and it reads them from the memory it
inherits at the fork. ``run`` is the short form for a fixed list of jobs: it
returns their results in job order.

Each job runs in a child forked for it, pinned to its slot's CPUs of the
parent's affinity and run under ``blas.limit(1)``. Inside such a job the
pool and ``branchworker.use_worker`` therefore see one CPU and stay serial,
so no level oversubscribes the cores. The child sends back one message over a
pipe: ``K`` and the pickled result, or its error as ``encode_error`` writes
it, which the parent raises as ``decode_error`` reads it. A child that exits
without a whole message (killed, crashed) raises ``RunError``. Leaving the
pool's ``with`` block kills and reaps every child still running, however the
block ends.

A pool has ``slots()`` slots: as many processes as the CPUs hold at
``blas.share`` threads each, that is one per CPU where ``blas.limit`` can set
the thread count and one per ``blas.threads()`` CPUs where it cannot; without
``os.fork`` it has one. A pool of one slot forks nothing: it runs each job in
the calling process when its result is read, in priority and then submission
order.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import pickle
import select
import signal
from dataclasses import dataclass, field

from . import blas
from .errors import AMFError, RunError


def slots() -> int:
    """Jobs a pool runs at once; see the module docstring."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, blas.cpus() // blas.share(blas.cpus()))


@dataclass
class _Child:
    job: int
    pid: int
    slot: int
    message: bytearray = field(default_factory=bytearray)


class Pool:
    """Runs submitted jobs in at most ``slots()`` forked children at once,
    or here when that is 1; see the module docstring."""

    def __init__(self):
        self.size = slots()
        self._queue: list = []  # (-priority, id, job)
        self._ids = itertools.count()
        self._free = list(range(self.size))
        self._running: dict[int, _Child] = {}  # read end of the child's pipe -> child
        affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        width = blas.share(blas.cpus())
        self._cpus = [{affinity[(s * width + j) % len(affinity)] for j in range(width)} if affinity else None
                      for s in range(self.size)]

    def submit(self, job, priority: float = 0) -> int:
        """Queues ``job``; returns its id, which ``results`` yields with its result."""
        job_id = next(self._ids)
        heapq.heappush(self._queue, (-priority, job_id, job))
        return job_id

    def results(self):
        """Yields ``(id, result)`` per job as it ends, until no job is queued
        or running; raises a job's error as the module docstring says."""
        while self._queue or self._running:
            if self.size < 2:
                _, job_id, job = heapq.heappop(self._queue)
                yield job_id, job()
                continue
            self._fill()
            yield self._next()

    def __enter__(self) -> Pool:
        return self

    def __exit__(self, *exc) -> None:
        for fd, child in self._running.items():
            with contextlib.suppress(ProcessLookupError):
                os.kill(child.pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(child.pid, 0)
        self._running.clear()

    def _fill(self) -> None:
        """Starts queued jobs while a slot is free."""
        while self._queue and self._free:
            _, job_id, job = heapq.heappop(self._queue)
            self._start(job_id, job)

    def _start(self, job_id: int, job) -> None:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        slot = self._free.pop(0)
        if pid == 0:  # the child never returns into the caller's frames
            code = 1
            try:
                os.close(read)
                with open(write, "wb") as out:
                    out.write(_outcome(job, self._cpus[slot]))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self._running[read] = _Child(job_id, pid, slot)

    def _next(self) -> tuple[int, object]:
        """Reads the running children's pipes until one ends; reaps it and
        returns its job's id and result."""
        while True:
            for fd in select.select(list(self._running), [], [])[0]:
                child = self._running[fd]
                if chunk := os.read(fd, 1 << 20):
                    child.message += chunk
                    continue
                del self._running[fd]
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])
                self._free.append(child.slot)
                return child.job, _result(child.message, code)


def run(jobs) -> list:
    """The results of ``jobs`` in job order, run on a ``Pool``."""
    with Pool() as pool:
        ids = [pool.submit(job) for job in jobs]
        done = dict(pool.results())
    return [done[i] for i in ids]


def _outcome(job, cpus: set[int] | None) -> bytes:
    """The child's message for ``job``, run on ``cpus`` at one BLAS thread."""
    try:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        with blas.limit(1):
            return b"K" + pickle.dumps(job(), pickle.HIGHEST_PROTOCOL)
    except Exception as e:
        return encode_error(e)


def _result(message: bytearray, code: int):
    if code != 0 or not message:
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise RunError(f"job process lost ({how})")
    if message[:1] == b"K":
        return pickle.loads(message[1:])
    raise decode_error(message, "job")


def encode_error(e: Exception) -> bytes:
    """A forked child's report of the error that ended its work: ``A`` and the
    pickled error for an ``AMFError``, else ``E``, its type and its text."""
    if isinstance(e, AMFError):
        with contextlib.suppress(Exception):
            return b"A" + pickle.dumps(e, pickle.HIGHEST_PROTOCOL)
    return f"E{type(e).__name__}: {e}".encode()


def decode_error(report: bytes, label: str) -> AMFError:
    """The error an ``encode_error`` report names, for the parent to raise: the
    ``AMFError`` with its own class, any other as ``RunError("<label> failed: Type: text")``."""
    if report[:1] == b"A":
        return pickle.loads(report[1:])
    return RunError(f"{label} failed: {report[1:].decode(errors='replace')}")

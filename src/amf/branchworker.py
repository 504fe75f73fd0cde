"""A forked worker that trains the upper branches of a multi-branch model, so
that one ``harness.train`` step runs on two cores.

The branches of ``amf`` and ``multitune`` meet only at the fusion, so after
the shared input each branch's forward, backward and SGD step can run apart
from the rest. ``BranchWorker`` forks the process once per run. The child
owns branches floor(n/2)+1..n: their parameters, velocities and optimizer
groups. The parent keeps the policy, the other branches, the fusion, the
classifier, the loss and the monitors. The two talk over two pipes that carry
fixed-shape arrays as raw bytes, and each side runs the same numpy code on
the same arrays as a serial run, so the results are the serial ones to the
bit.

Commands, parent to worker, are a header ``<cBII`` (command, flag, argument,
rows) and a payload:

    F  forward of a batch: flag 1 in grad mode, ``rows`` images as float32.
       The worker replies with its branches' latents, float32.
    G  the gradient of the worker's latent number ``flag`` (0-based), ``rows``
       by d float64. The worker sweeps that branch.
    S  an SGD step of the worker's groups at epoch ``argument``.
    P  the worker replies with its parameters, float32, in model order.

Replies are a header ``<cI`` (status, payload length) and the payload:
status ``K`` carries data, ``E`` the text of the exception that ended the
worker. The worker exits at EOF on its commands.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import RunError
from .models import Model
from .optim import OptimizerState, ParamGroup, sgd_step

_COMMAND = struct.Struct("<cBII")
_REPLY = struct.Struct("<cI")
_LOST = (EOFError, BrokenPipeError, ConnectionResetError)


def blas_threads(cpus: int) -> int:
    """BLAS threads per process, read the way OpenBLAS reads them at load:
    ``OPENBLAS_NUM_THREADS``, then ``OMP_NUM_THREADS``, at most ``cpus``;
    ``cpus`` when neither is a positive integer."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return min(threads, cpus)
    return cpus


def use_worker(n: int) -> bool:
    """Whether a run of an ``n``-branch model forks a ``BranchWorker``: when
    n >= 2, ``os.fork`` exists and the CPUs this process may run on hold the
    BLAS threads of both processes. With fewer, the two processes' spinning
    BLAS threads share the cores: a 5-epoch ``train`` of the reference amf
    fine-tune on a 2-core AMD EPYC took 15.3-15.6 s forked against
    0.62-0.65 s serial at two BLAS threads, and 0.43-0.44 s forked against
    0.68-0.69 s serial at one."""
    if n < 2 or not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus >= 2 * blas_threads(cpus)


class BranchWorker:
    """Branches ``first``..n of a model, trained in a forked child; see the
    module docstring. Build it after the model's groups and optimizer state,
    which the child takes over for its branches, and use it as a context
    manager: leaving the ``with`` block ends and reaps the child, however the
    block ends. Any loss of the child, or an exception in it, raises
    ``RunError`` in the parent.
    """

    def __init__(self, model: Model, groups: list[ParamGroup], state: OptimizerState):
        self.first = model.n // 2 + 1
        owned = tuple(f"branch{i}." for i in range(self.first, model.n + 1))
        self.groups = [g for g in groups if all(m.startswith(owned) for m in g.members)]
        self._names = [k for k in model.params if k.startswith(owned)]
        self._model = model
        self._rows = 0
        cmd_r, cmd_w = os.pipe()
        rep_r, rep_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the child never returns into the caller's frames
            code = 1
            try:
                os.close(cmd_w)
                os.close(rep_r)
                with open(cmd_r, "rb") as commands, open(rep_w, "wb") as replies:
                    code = self._serve(state, commands, replies)
            finally:
                os._exit(code)
        os.close(cmd_r)
        os.close(rep_w)
        self._commands = open(cmd_w, "wb")
        self._replies = open(rep_r, "rb")

    # -- parent side --------------------------------------------------------

    def send(self, x: Tensor) -> None:
        """Start the worker's forward of a batch, in the caller's grad mode."""
        self._rows = x.shape[0]
        self._command(b"F", ad.is_grad_enabled(), 0, self._rows, x.data.astype(ad.DEFAULT_DTYPE, copy=False))

    def latents(self) -> list[Tensor]:
        """The worker's latents of the batch sent last, as ``ad.remote`` nodes
        that pass their gradients back to it."""
        data = np.frombuffer(self._reply(), dtype=ad.DEFAULT_DTYPE)
        data = data.reshape(self._model.n - self.first + 1, self._rows, self._model.d)
        return [ad.remote(m, functools.partial(self._gradient, j)) for j, m in enumerate(data)]

    def _gradient(self, j: int, g: np.ndarray) -> None:
        self._command(b"G", j, 0, g.shape[0], np.ascontiguousarray(g, dtype=np.float64))

    def step(self, epoch: int) -> None:
        """An SGD step of the worker's groups, once their gradients are sent."""
        self._command(b"S", 0, epoch, 0)

    def pull(self) -> None:
        """Copy the worker's current parameters into the parent's model."""
        self._command(b"P", 0, 0, 0)
        payload, offset = self._reply(), 0
        for k in self._names:
            t = self._model.params[k]
            t.data = np.frombuffer(payload, t.dtype, t.data.size, offset).reshape(t.shape)
            offset += t.data.nbytes

    def __enter__(self) -> BranchWorker:
        return self

    def __exit__(self, *exc) -> None:
        """End the worker and reap it. Closing both pipes ends it however it
        stands: at EOF on its commands, or at a broken pipe when it replies."""
        for f in (self._commands, self._replies):
            with contextlib.suppress(OSError):  # a lost worker's unsent commands
                f.close()
        os.waitpid(self.pid, 0)

    def _command(self, command: bytes, flag: int, arg: int, rows: int, payload=None) -> None:
        try:
            self._commands.write(_COMMAND.pack(command, flag, arg, rows))
            if payload is not None:
                self._commands.write(payload)
            self._commands.flush()
        except _LOST:
            self._reply()  # raises the worker's own error, if it sent one
            raise RunError("branch worker stopped reading its commands") from None

    def _reply(self) -> bytearray:
        try:
            status, size = _REPLY.unpack(_read(self._replies, _REPLY.size))
            payload = _read(self._replies, size)
        except _LOST as e:
            raise RunError(f"branch worker lost ({type(e).__name__})") from None
        if status == b"E":
            raise RunError(f"branch worker failed: {payload.decode(errors='replace')}")
        return payload

    # -- worker side --------------------------------------------------------

    def _serve(self, state: OptimizerState, commands, replies) -> int:
        """Answers commands until EOF; returns the exit code."""
        model, latents = self._model, []
        shape = (model.in_channels, model.image_hw, model.image_hw)
        while head := commands.read(_COMMAND.size):
            try:
                command, flag, arg, rows = _COMMAND.unpack(head)
                if command == b"F":
                    images = _read(commands, rows * math.prod(shape) * np.dtype(ad.DEFAULT_DTYPE).itemsize)
                    x = Tensor(np.frombuffer(images, ad.DEFAULT_DTYPE).reshape(rows, *shape))
                    with contextlib.nullcontext() if flag else ad.no_grad():
                        latents = [model._branch_forward(f"branch{i}", x) for i in range(self.first, model.n + 1)]
                    model.zero_grads()
                    _send(replies, b"K", b"".join(m.data.tobytes() for m in latents))
                elif command == b"G":
                    g = np.frombuffer(_read(commands, rows * 8 * model.d), np.float64).reshape(rows, model.d)
                    latents[flag].backward(g)
                elif command == b"S":
                    state.epoch = arg
                    sgd_step(model, state, self.groups)
                elif command == b"P":
                    _send(replies, b"K", b"".join(model.params[k].data.tobytes() for k in self._names))
            except Exception as e:
                _send(replies, b"E", f"{type(e).__name__}: {e}".encode())
                return 1
        return 0


def _read(f, size: int) -> bytearray:
    """Exactly ``size`` bytes of ``f``, writable; ``EOFError`` when it ends first."""
    buf = bytearray(size)
    if f.readinto(buf) != size:
        raise EOFError(f"pipe closed within a {size}-byte message")
    return buf


def _send(f, status: bytes, payload: bytes) -> None:
    f.write(_REPLY.pack(status, len(payload)) + payload)
    f.flush()

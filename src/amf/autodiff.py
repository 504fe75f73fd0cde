"""Reverse-mode autodiff over dense numpy tensors.

Design notes that the gradient checks rely on:

- Storage dtype is float32 by default (float64 available for high-precision
  checks); every reduction (matmul, conv, pooling sums, softmax denominators)
  accumulates in float64 before casting back, so results are independent of
  internal blocking and bit-reproducible.
- Gradients are always held in float64.
- All randomness flows through ``new_rng``: the repo-wide PRNG is numpy's
  Philox counter-based generator, and gaussian fills draw in flat row-major
  index order.
- ReLU uses subgradient 0 at x == 0; maxpool ties break to the first element
  in row-major window order. The models apply ReLU after pooling:
  relu(max(a, b, c, d)) == max(relu(a), ..., relu(d)), so the values are
  those of pooling after ReLU, on a tensor 4x smaller, and input gradients
  differ at most in the sign of zeros in windows with no positive value.
- ``Tensor._accumulate`` copies an incoming gradient unless the op passes
  ``owned=True``, which it does only for a fresh C-ordered float64 array that
  nothing else references (never the output gradient ``g`` its closure
  receives, a view of it, or an array captured from the forward pass); the
  tensor then keeps that array as its ``.grad`` and later accumulations add
  into it. A handed-over array thus never shares memory with another live
  gradient.
- ``_op`` is the one place that decides whether an op's output joins the
  graph. It does only when grad mode is on and one of the op's inputs
  requires grad; the node then keeps its parents and a closure that reaches
  the node through a weak reference, so a graph holds no reference cycle and
  is freed by reference counting as soon as its caller drops the last tensor
  of it, without waiting for the cyclic garbage collector.
  ``Tensor.backward`` keeps every node alive while the sweep runs, so the
  reference is never dead inside a closure. Any other output is a constant:
  it requires no grad, keeps no parents and no closure, and what the op
  saved for a sweep is freed when the op returns.
- ``no_grad()`` turns grad mode off for its body, so every graph built
  inside it is forward-only: its values are bit-equal to a graph built
  outside it, and ``backward`` from such a loss raises ``UsageError``. Leaves
  keep the ``requires_grad`` they are created with. The context nests and
  restores the previous mode however its body exits. Grad mode is per
  thread.
- A sweep does not retain the graph. Once an interior node's closure has run,
  or no gradient reached it, its ``.grad`` is set to ``None`` and its
  ``_backward`` is replaced by a marker, which frees the forward arrays the
  closure saved (im2col patches, pooled row maxima, softmax outputs);
  ``conv2d``'s closure drops its patches earlier, once the weight gradient
  has used them, and the last closure that holds a shared matrix frees it.
  Leaves (parameters and inputs) keep their ``.grad``. So a swept graph
  holds only its node data until the caller drops it, and a later sweep that
  carries a gradient into a swept node raises ``UsageError``: build the loss
  again rather than sweep a graph twice.
- ``conv2d`` takes an optional float64 im2col patch matrix of its input
  (``im2col(x)``), so convs that read the same input can share one: the
  models build the image's patches once per forward and pass them to the
  policy conv and every branch's first conv.
- A graph can be cut between processes. ``remote(data, on_grad)`` stands for
  a value computed elsewhere and hands its gradient to ``on_grad`` when the
  sweep reaches it; where the value was made, ``backward(grad)`` sweeps its
  own graph from that seed. The leaf gradients are those of one sweep
  through the whole graph, to the bit, as long as the remote value's
  gradient is complete when the sweep reaches it (every consumer of the
  value is on the sweeping side).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DataError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

_ids = itertools.count()


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops in this thread record the graph that ``backward`` sweeps."""
    return _grad_mode.enabled


@contextmanager
def no_grad() -> Iterator[None]:
    """Forward-only mode: every op output made in the body is a constant."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def new_rng(seed: int) -> np.random.Generator:
    """Repo-wide PRNG: Philox4x32 counter-based generator."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """A dense n-d array node in the autodiff graph.

    Nodes are created in topological order (the creation counter ``_id``
    increases monotonically), so a backward sweep in decreasing id order
    visits each node exactly once after all of its consumers.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_id", "__weakref__")

    def __init__(
        self,
        data: np.ndarray,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
    ):
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward: Callable[[], None] | None = None  # set by the op that made it
        self._id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        if self.grad is None:
            # a C-ordered float64 copy, so later adds never write into ``g``,
            # unless the caller hands over an array nothing else references
            self.grad = g if owned else np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse sweep from this node: accumulates into the .grad of every
        reachable leaf, and releases each interior node once it is swept.
        The sweep starts from ``grad``, which must have this node's shape,
        or from 1 when none is given, which needs a scalar node."""
        if grad is None:
            if self.data.size != 1:
                raise UsageError(f"backward requires a scalar loss, got shape {self.shape}")
            grad = np.ones(self.data.shape)
        elif np.shape(grad) != self.shape:
            raise ShapeError(f"seed gradient shape {np.shape(grad)} != node shape {self.shape}")
        if not self.requires_grad:
            raise UsageError("backward from a loss that requires no grad: it was built inside "
                             "no_grad() or from inputs that require none")
        nodes: list[Tensor] = []
        seen: set[int] = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
        self.grad = np.array(grad, dtype=np.float64, order="C")
        for t in sorted(nodes, key=lambda n: n._id, reverse=True):
            if t._backward is None:  # a leaf keeps its gradient
                continue
            if t.grad is not None:
                t._backward()
            # drop the swept node's gradient and the arrays its closure saved
            t.grad = None
            t._backward = _released

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _op(data: np.ndarray, parents: tuple[Tensor, ...],
        backward: Callable[[np.ndarray], None]) -> Tensor:
    """The output node of an op that computed ``data`` from ``parents``.

    In grad mode, when a parent requires grad, the node keeps ``parents`` and
    a closure that calls ``backward`` with the node's gradient; otherwise it
    is a constant, and ``backward`` is dropped with everything it saved.
    """
    if not (_grad_mode.enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    return _node(data, parents, backward)


def remote(data: np.ndarray, on_grad: Callable[[np.ndarray], None]) -> Tensor:
    """A node for a value computed elsewhere, such as in another process: the
    sweep passes the node's gradient to ``on_grad``, which carries it on to
    where the value was made. Inside ``no_grad`` it is a constant."""
    if not _grad_mode.enabled:
        return Tensor(data)
    return _node(data, (), on_grad)


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """A graph node whose closure calls ``backward`` with its gradient,
    reaching the node through a weak reference."""
    out = Tensor(data, requires_grad=True, _parents=parents)
    out_ref = weakref.ref(out)
    out._backward = lambda: backward(out_ref().grad)
    return out


def _released() -> None:
    """The ``_backward`` of a node that a sweep has already gone through."""
    raise UsageError("backward through a graph that was already swept; build the loss again")


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"extents must be >= 1, got {shape}")
    return shape


def tensor_create(
    shape: Sequence[int],
    fill: str = "zeros",
    std: float = 1.0,
    seed: int = 0,
    requires_grad: bool = False,
) -> Tensor:
    """Create a tensor filled with zeros or seeded zero-mean gaussians.

    Gaussian fill draws from the Philox generator in flat row-major order.
    """
    shape = _check_shape(shape)
    if fill == "zeros":
        data = np.zeros(shape, dtype=DEFAULT_DTYPE)
    elif fill == "gaussian":
        if std < 0:
            raise ShapeError(f"std must be >= 0, got {std}")
        flat = new_rng(seed).normal(0.0, std, size=int(np.prod(shape)))
        data = flat.reshape(shape).astype(DEFAULT_DTYPE)
    else:
        raise UsageError(f"unknown fill kind {fill!r}")
    return Tensor(data, requires_grad=requires_grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out_data = (a.data.astype(np.float64) @ b.data.astype(np.float64)).astype(a.dtype)

    def _backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.astype(np.float64).T, owned=True)
        if b.requires_grad:
            b._accumulate(a.data.astype(np.float64).T @ g, owned=True)

    return _op(out_data, (a, b), _backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias add: x[N,d] + b[d]."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes incompatible: {x.shape} + {b.shape}")

    def _backward(g):
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0), owned=True)

    return _op(x.data + b.data, (x, b), _backward)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, cols: np.ndarray | None = None) -> Tensor:
    """3x3 / stride-1 / same-padding cross-correlation.

    The contraction over (channel, kernel row, kernel column) runs as one
    float64 GEMM over im2col patches, giving a single fixed reduction path.
    ``cols`` is ``im2col(x)``, built here when not given; convs that read the
    same input can pass one matrix, which no conv writes to.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and weights, got {x.shape}, {w.shape}")
    n, c, h, wd = x.shape
    f, cw, kh, kw = w.shape
    if (kh, kw) != (3, 3):
        raise ShapeError(f"kernel must be 3x3, got {kh}x{kw}")
    if cw != c:
        raise ShapeError(f"channel mismatch: input {c}, kernel {cw}")
    if bias.shape != (f,):
        raise ShapeError(f"bias shape {bias.shape} != ({f},)")

    if cols is None:
        cols = im2col(x)
    elif cols.shape != (c * 9, n * h * wd):
        raise ShapeError(f"patches shape {cols.shape} != ({c * 9}, {n * h * wd}) for input {x.shape}")
    w64 = w.data.reshape(f, c * 9).astype(np.float64)
    acc = w64 @ cols
    acc += bias.data.astype(np.float64)[:, None]

    def _backward(grad):
        # g2 is [n*h*w, f]: BLAS kernels for small matrices sum in an order
        # that depends on operand layout, and this one gives the same bits as
        # a sample-major patch matrix at every shape of the reference run
        nonlocal cols
        g = grad.transpose(0, 2, 3, 1)
        g2 = g.reshape(n * h * wd, f)
        if w.requires_grad:
            w._accumulate((g2.T @ cols.T).reshape(f, c, 3, 3), owned=True)
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), owned=True)
        # the patches are freed as soon as dw has used them, before the dx
        # buffers are allocated, which can then reuse their memory. Freed only
        # when the sweep released the node, they left a free block at the top
        # of the heap that glibc trimmed and the next step faulted back in
        cols = None
        if x.requires_grad:
            # patch gradients laid out on the padded grid, output (y, x) at
            # padded (y, x): kernel offset (i, j) is then a flat shift of
            # i*(w+2)+j, and col2im is nine contiguous adds; the extra grid
            # points carry zeros
            gp = np.zeros((n, h + 2, wd + 2, f), dtype=np.float64)
            gp[:, :h, :wd] = g
            dcols = (w64.T @ gp.reshape(-1, f).T).reshape(c, 9, -1)
            size = dcols.shape[2]
            dxp = np.zeros((c, size), dtype=np.float64)
            for k in range(9):
                shift = (k // 3) * (wd + 2) + k % 3
                dxp[:, shift:] += dcols[:, k, : size - shift]
            dxp = dxp.reshape(c, n, h + 2, wd + 2)
            x._accumulate(dxp[:, :, 1 : h + 1, 1 : wd + 1].transpose(1, 0, 2, 3))

    out_data = np.ascontiguousarray(acc.reshape(f, n, h, wd).transpose(1, 0, 2, 3), dtype=x.dtype)
    return _op(out_data, (x, w, bias), _backward)


def im2col(x: Tensor) -> np.ndarray:
    """K-major float64 patches of a 3x3 same-padded conv of ``x``,
    cols[(ci, i, j), (s, y, x)]: each of the nine kernel offsets is one slice
    copy of the padded input."""
    data = x.data
    n, c, h, wd = data.shape
    xp = np.zeros((c, n, h + 2, wd + 2), dtype=np.float64)
    xp[:, :, 1 : h + 1, 1 : wd + 1] = data.transpose(1, 0, 2, 3)
    cols = np.empty((c, 3, 3, n, h, wd), dtype=np.float64)
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = xp[:, :, i : i + h, j : j + wd]
    return cols.reshape(c * 9, n * h * wd)


def relu(x: Tensor) -> Tensor:
    def _backward(g):
        x._accumulate(g * (x.data > 0), owned=True)

    return _op(np.maximum(x.data, 0), (x,), _backward)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 / stride-2 max pooling; ties route gradient to the first row-major position."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2 expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial dims must be even, got {h}x{w}")
    # two passes of np.maximum over strided pair views: across each
    # horizontal pair, then across each pair of the resulting rows
    pairs = x.data.reshape(-1, 2)
    rows = np.maximum(pairs[:, 0], pairs[:, 1]).reshape(-1, 2, w // 2)

    def _backward(g):
        # first-tie masks: the lower row or right column wins only when strictly greater
        below = rows[:, 1] > rows[:, 0]
        right = pairs[:, 1] > pairs[:, 0]
        g = g.reshape(below.shape)
        grow = np.empty(rows.shape, dtype=np.float64)
        np.multiply(g, ~below, out=grow[:, 0])
        np.multiply(g, below, out=grow[:, 1])
        grow = grow.reshape(-1)
        dx = np.empty(x.shape, dtype=np.float64)
        dpairs = dx.reshape(-1, 2)
        np.multiply(grow, ~right, out=dpairs[:, 0])
        np.multiply(grow, right, out=dpairs[:, 1])
        dx += 0.0  # masked-out -0.0 becomes +0.0, as in a zero-filled scatter
        x._accumulate(dx, owned=True)

    return _op(np.maximum(rows[:, 0], rows[:, 1]).reshape(n, c, h // 2, w // 2), (x,), _backward)


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading (batch) axis."""

    def _backward(g):
        x._accumulate(g.reshape(x.shape))

    return _op(x.data.reshape(x.shape[0], -1), (x,), _backward)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of [N, d_i] parts in branch order."""
    if not parts:
        raise ShapeError("concat of zero parts")
    n = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != n:
            raise ShapeError(f"concat batch mismatch: {[p.shape for p in parts]}")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def _backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[:, lo:hi])

    return _op(np.concatenate([p.data for p in parts], axis=1), tuple(parts), _backward)


def scale_rows(m: Tensor, h: Tensor) -> Tensor:
    """Per-sample scalar scaling: z[s, j] = h[s, 0] * m[s, j]."""
    if h.data.ndim != 2 or h.shape[1] != 1 or h.shape[0] != m.shape[0]:
        raise ShapeError(f"scale_rows shapes incompatible: {m.shape}, {h.shape}")

    def _backward(g):
        if m.requires_grad:
            m._accumulate(g * h.data)
        if h.requires_grad:
            h._accumulate((g * m.data).sum(axis=1, keepdims=True))

    return _op(m.data * h.data, (m, h), _backward)


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    """Column slice x[:, lo:hi], differentiable."""
    if x.data.ndim != 2 or not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"bad column slice [{lo}:{hi}] of {x.shape}")

    def _backward(g):
        full = np.zeros(x.shape, dtype=np.float64)
        full[:, lo:hi] = g
        x._accumulate(full)

    return _op(x.data[:, lo:hi].copy(), (x,), _backward)


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits: Tensor) -> Tensor:
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax expects [N, k], got {logits.shape}")
    p = _softmax64(logits.data)

    def _backward(g):
        logits._accumulate(p * (g - (g * p).sum(axis=1, keepdims=True)))

    return _op(p.astype(logits.dtype), (logits,), _backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood via log-sum-exp; backward is (softmax - onehot)/N."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, C] logits, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if n == 0:
        raise ShapeError("cross_entropy of an empty batch")
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels outside [0, {c})")
    z = logits.data.astype(np.float64)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = (lse - z[np.arange(n), labels]).mean()

    def _backward(g):
        p = _softmax64(logits.data)
        p[np.arange(n), labels] -= 1.0
        logits._accumulate(g * p / n)

    return _op(np.asarray(loss, dtype=np.float64).reshape(()), (logits,), _backward)


def sum_all(x: Tensor) -> Tensor:
    def _backward(g):
        x._accumulate(np.full(x.shape, g, dtype=np.float64))

    return _op(np.asarray(x.data.astype(np.float64).sum()).reshape(()), (x,), _backward)


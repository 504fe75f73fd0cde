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
  nothing else references (never ``out.grad``, a view of it, or an array
  captured from the forward pass); the tensor then keeps that array as its
  ``.grad`` and later accumulations add into it. A handed-over array thus
  never shares memory with another live gradient.
- Each op's backward closure reaches its output tensor through a weak
  reference, so a graph holds no reference cycle and is freed by reference
  counting as soon as its caller drops the last tensor of it, without
  waiting for the cyclic garbage collector. ``Tensor.backward`` keeps every
  node alive while the sweep runs, so the reference is never dead inside a
  closure.
- A sweep does not retain the graph. Once an interior node's closure has run,
  or no gradient reached it, its ``.grad`` is set to ``None`` and its
  ``_backward`` is replaced by a marker, which frees the forward arrays the
  closure saved (im2col patches, pooled row maxima, softmax outputs);
  ``conv2d`` frees its patches earlier, inside its closure, once the weight
  gradient has used them. Leaves (parameters and inputs) keep their
  ``.grad``. So a swept graph holds only its node data until the caller drops
  it, and a later sweep that carries a gradient into a swept node raises
  ``UsageError``: build the loss again rather than sweep a graph twice.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import DataError, ShapeError, UsageError

DEFAULT_DTYPE = np.float32

_ids = itertools.count()


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
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
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

    def backward(self) -> None:
        """Reverse sweep from a scalar node: accumulates into the .grad of every
        reachable leaf, and releases each interior node once it is swept."""
        if self.data.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {self.shape}")
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
        self.grad = np.ones(self.data.shape, dtype=np.float64)
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
    out = Tensor(out_data, _parents=(a, b))
    out_ref = weakref.ref(out)

    def _backward():
        g = out_ref().grad
        if a.requires_grad:
            a._accumulate(g @ b.data.astype(np.float64).T, owned=True)
        if b.requires_grad:
            b._accumulate(a.data.astype(np.float64).T @ g, owned=True)

    out._backward = _backward
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias add: x[N,d] + b[d]."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias shapes incompatible: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data, _parents=(x, b))
    out_ref = weakref.ref(out)

    def _backward():
        g = out_ref().grad
        if x.requires_grad:
            x._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0), owned=True)

    out._backward = _backward
    return out


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """3x3 / stride-1 / same-padding cross-correlation.

    The contraction over (channel, kernel row, kernel column) runs as one
    float64 GEMM over im2col patches, giving a single fixed reduction path.
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

    # im2col + float64 GEMM; one deterministic reduction path for all shapes.
    # The patch matrix is K-major, cols[(ci, i, j), (s, y, x)], so each of
    # the nine kernel offsets is one slice copy of the padded input.
    xp = np.zeros((c, n, h + 2, wd + 2), dtype=np.float64)
    xp[:, :, 1 : h + 1, 1 : wd + 1] = x.data.transpose(1, 0, 2, 3)
    cols = np.empty((c, 3, 3, n, h, wd), dtype=np.float64)
    for i in range(3):
        for j in range(3):
            cols[:, i, j] = xp[:, :, i : i + h, j : j + wd]
    cols = cols.reshape(c * 9, n * h * wd)
    w64 = w.data.reshape(f, c * 9).astype(np.float64)
    acc = w64 @ cols
    acc += bias.data.astype(np.float64)[:, None]
    out = Tensor(np.ascontiguousarray(acc.reshape(f, n, h, wd).transpose(1, 0, 2, 3), dtype=x.dtype),
                 _parents=(x, w, bias))
    out_ref = weakref.ref(out)

    def _backward():
        # g2 is [n*h*w, f]: BLAS kernels for small matrices sum in an order
        # that depends on operand layout, and this one gives the same bits as
        # a sample-major patch matrix at every shape of the reference run
        nonlocal cols
        grad = out_ref().grad
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

    out._backward = _backward
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0), _parents=(x,))
    out_ref = weakref.ref(out)

    def _backward():
        if x.requires_grad:
            x._accumulate(out_ref().grad * (x.data > 0), owned=True)

    out._backward = _backward
    return out


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
    out = Tensor(np.maximum(rows[:, 0], rows[:, 1]).reshape(n, c, h // 2, w // 2), _parents=(x,))
    out_ref = weakref.ref(out)

    def _backward():
        if not x.requires_grad:
            return
        # first-tie masks: the lower row or right column wins only when strictly greater
        below = rows[:, 1] > rows[:, 0]
        right = pairs[:, 1] > pairs[:, 0]
        g = out_ref().grad.reshape(below.shape)
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

    out._backward = _backward
    return out


def flatten(x: Tensor) -> Tensor:
    """Collapse all but the leading (batch) axis."""
    n = x.shape[0]
    out = Tensor(x.data.reshape(n, -1), _parents=(x,))
    out_ref = weakref.ref(out)

    def _backward():
        if x.requires_grad:
            x._accumulate(out_ref().grad.reshape(x.shape))

    out._backward = _backward
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of [N, d_i] parts in branch order."""
    if not parts:
        raise ShapeError("concat of zero parts")
    n = parts[0].shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.shape[0] != n:
            raise ShapeError(f"concat batch mismatch: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), _parents=tuple(parts))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    out_ref = weakref.ref(out)

    def _backward():
        g = out_ref().grad
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[:, lo:hi])

    out._backward = _backward
    return out


def scale_rows(m: Tensor, h: Tensor) -> Tensor:
    """Per-sample scalar scaling: z[s, j] = h[s, 0] * m[s, j]."""
    if h.data.ndim != 2 or h.shape[1] != 1 or h.shape[0] != m.shape[0]:
        raise ShapeError(f"scale_rows shapes incompatible: {m.shape}, {h.shape}")
    out = Tensor(m.data * h.data, _parents=(m, h))
    out_ref = weakref.ref(out)

    def _backward():
        g = out_ref().grad
        if m.requires_grad:
            m._accumulate(g * h.data)
        if h.requires_grad:
            h._accumulate((g * m.data).sum(axis=1, keepdims=True))

    out._backward = _backward
    return out


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    """Column slice x[:, lo:hi], differentiable."""
    if x.data.ndim != 2 or not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"bad column slice [{lo}:{hi}] of {x.shape}")
    out = Tensor(x.data[:, lo:hi].copy(), _parents=(x,))
    out_ref = weakref.ref(out)

    def _backward():
        if x.requires_grad:
            g = np.zeros(x.shape, dtype=np.float64)
            g[:, lo:hi] = out_ref().grad
            x._accumulate(g)

    out._backward = _backward
    return out


def _softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax(logits: Tensor) -> Tensor:
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax expects [N, k], got {logits.shape}")
    p = _softmax64(logits.data)
    out = Tensor(p.astype(logits.dtype), _parents=(logits,))
    out_ref = weakref.ref(out)

    def _backward():
        if logits.requires_grad:
            g = out_ref().grad
            logits._accumulate(p * (g - (g * p).sum(axis=1, keepdims=True)))

    out._backward = _backward
    return out


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
    out = Tensor(np.asarray(loss, dtype=np.float64).reshape(()), _parents=(logits,))
    out_ref = weakref.ref(out)

    def _backward():
        if logits.requires_grad:
            p = _softmax64(logits.data)
            p[np.arange(n), labels] -= 1.0
            logits._accumulate(out_ref().grad * p / n)

    out._backward = _backward
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.astype(np.float64).sum()).reshape(()), _parents=(x,))
    out_ref = weakref.ref(out)

    def _backward():
        if x.requires_grad:
            x._accumulate(np.full(x.shape, out_ref().grad, dtype=np.float64))

    out._backward = _backward
    return out


"""Finite-difference verification suite covering every autodiff primitive and
the full gated-model loss. Used by the `grad-check` CLI command and the
acceptance tests.

Two precision modes:

- "f64": tensors are float64 end to end; analytic gradients must match
  central differences to 1e-6.
- "f32": analytic gradients are computed by the float32 forward/backward,
  then compared at tolerance 1e-4 against central differences of the same
  function with the (float32-rounded) values promoted to float64. Promoting
  the finite-difference side removes float32 evaluation noise, which would
  otherwise swamp small-gradient coordinates, while still validating the
  32-bit implementation's gradients.

In both modes the analytic gradients come from one ordinary forward and
backward, and every central-difference loss is built forward-only, inside
``autodiff.no_grad``: it keeps no closure, parent or saved array, and its
value is bit-equal to the same loss built with a graph.

The model-loss check evaluates the loss twice per checked coordinate, and a
coordinate belongs to exactly one of the policy, one branch or the
classifier. The policy output and each branch latent are therefore memoized
inside ``check_amf_loss``: each is rebuilt only when the bytes of its own
parameters or of the input differ from those of its last build. Those bytes
are everything the part reads, so a cache hit returns the very values a
rebuild would compute, and the losses stay bit-identical to rebuilding the
whole forward. No invalidation is needed: a perturbation, its restore and the
f32 mode's promotion to float64 each change the key of exactly the parts
they touch. The fusion, the classifier and the cross-entropy are always
rebuilt. A cache hit may return a part that the analytic-gradient sweep has
already released; the finite differences read only its ``.data``, and a
backward through such a part raises ``UsageError`` rather than give wrong
gradients. A part rebuilt during the differences is a forward-only constant,
so only the first loss of a builder, the one ``_run_case`` sweeps, carries
gradients to every part.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, new_rng
from .errors import UsageError
from .models import AMFModel

MODES = {"f64": (np.float64, 1e-6, 1e-5), "f32": (np.float32, 1e-4, 1e-4)}


def _mode(mode: str) -> tuple:
    """(dtype, tolerance, default eps) of a precision mode."""
    if mode not in MODES:
        raise UsageError(f"unknown precision mode {mode!r}")
    return MODES[mode]


def _t(rng, shape, dtype, scale=1.0) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape).astype(dtype), requires_grad=True)


def _op_cases(dtype):
    """One case builder per primitive; each returns (params, build_loss)."""

    def matmul(rng):
        a, b = _t(rng, (2, 3), dtype), _t(rng, (3, 2), dtype)
        return [a, b], lambda: ad.sum_all(ad.matmul(a, b))

    def add_bias(rng):
        x, b = _t(rng, (2, 3), dtype), _t(rng, (3,), dtype)
        return [x, b], lambda: ad.sum_all(ad.relu(ad.add_bias(x, b)))

    def conv2d(rng):
        x = _t(rng, (1, 2, 4, 4), dtype)
        w = _t(rng, (2, 2, 3, 3), dtype, scale=0.5)
        b = _t(rng, (2,), dtype)
        return [x, w, b], lambda: ad.sum_all(ad.conv2d(x, w, b))

    def relu(rng):
        x = _t(rng, (2, 5), dtype)
        # keep samples away from the kink so central differences are valid
        x.data[np.abs(x.data) < 0.05] += 0.1
        return [x], lambda: ad.sum_all(ad.relu(x))

    def maxpool2(rng):
        x = _t(rng, (1, 1, 4, 4), dtype)
        return [x], lambda: ad.sum_all(ad.maxpool2(x))

    def concat(rng):
        a, b = _t(rng, (2, 2), dtype), _t(rng, (2, 3), dtype)
        return [a, b], lambda: ad.sum_all(ad.concat([a, b]))

    def scale_rows(rng):
        m, h = _t(rng, (3, 4), dtype), _t(rng, (3, 1), dtype)
        return [m, h], lambda: ad.sum_all(ad.scale_rows(m, h))

    def softmax(rng):
        x = _t(rng, (2, 4), dtype)
        w = _t(rng, (4, 1), dtype)
        return [x, w], lambda: ad.sum_all(ad.matmul(ad.softmax(x), w))

    def cross_entropy(rng):
        x = _t(rng, (3, 4), dtype)
        labels = rng.integers(0, 4, size=3)
        return [x], lambda: ad.cross_entropy(x, labels)

    return {
        "matmul": matmul,
        "add_bias": add_bias,
        "conv2d": conv2d,
        "relu": relu,
        "maxpool2": maxpool2,
        "concat": concat,
        "scale_rows": scale_rows,
        "softmax": softmax,
        "cross_entropy": cross_entropy,
    }


OP_NAMES = tuple(_op_cases(np.float64))


def _run_case(params, build_loss, mode, max_coords=None, pick_seed=0, eps=None,
              promote=None) -> float:
    """Max relative error between the analytic gradients of ``build_loss`` and
    its central differences over ``params``.

    In f32 mode the finite differences run on ``promote`` (default
    ``params``) promoted to float64 after the float32 backward.
    """
    _, _, default_eps = _mode(mode)
    eps = eps or default_eps
    for p in params:
        p.zero_grad()
    build_loss().backward()
    if mode == "f32":
        for p in (promote or params):
            p.data = p.data.astype(np.float64)
    analytic = [np.array(p.grad if p.grad is not None else np.zeros(p.shape)) for p in params]
    pick = new_rng(pick_seed)
    max_rel = 0.0
    with ad.no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            idxs = np.arange(flat.size)
            if max_coords is not None and flat.size > max_coords:
                idxs = pick.permutation(flat.size)[:max_coords]
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = float(build_loss().data)
                flat[i] = orig - eps
                f_minus = float(build_loss().data)
                flat[i] = orig
                num = (f_plus - f_minus) / (2 * eps)
                an = a.reshape(-1)[i]
                max_rel = max(max_rel, abs(an - num) / max(abs(an), abs(num), 1e-8))
    return max_rel


def check_primitive(op: str, seed: int, mode: str = "f64") -> float:
    dtype = _mode(mode)[0]
    params, build = _op_cases(dtype)[op](new_rng(seed))
    return _run_case(params, build, mode)


def _amf_case(seed: int, mode: str) -> tuple[AMFModel, Tensor, np.ndarray]:
    """The gated model, input batch and labels of model-loss instance ``seed``."""
    dtype = _mode(mode)[0]
    rng = new_rng(seed)
    model = AMFModel(n=2, d=4, num_classes=3, in_channels=1, image_hw=8, seed=seed)
    for t in model.params.values():
        t.data = t.data.astype(dtype)
    x = Tensor(rng.normal(0.5, 0.3, size=(2, 1, 8, 8)).astype(dtype))
    labels = rng.integers(0, 3, size=2)
    return model, x, labels


def _memo(build, inputs: list[Tensor]):
    """``build`` rerun only when the bytes of ``inputs`` differ from those
    of its last run; otherwise its last result."""
    last = [None, None]

    def run():
        # a list: tuple(<generator>) resizes each key, and the resized tuples
        # pile up on CPython's tuple free list (+0.4 MB of peak RSS in the
        # bench's gradcheck workload)
        key = [t.data.tobytes() for t in inputs]
        if key != last[0]:
            last[:] = key, build()
        return last[1]
    return run


def _amf_loss(model: AMFModel, x: Tensor, labels: np.ndarray):
    """Builder of the model's cross-entropy on ``(x, labels)``, with the
    policy output and each branch latent memoized."""

    def part(prefix, build):
        return _memo(build, [t for k, t in model.params.items() if k.startswith(prefix)] + [x])

    gate = part("policy.", lambda: model.gate(x))
    branches = [part(f"branch{i}.", lambda i=i: model._branch_forward(f"branch{i}", x))
                for i in range(1, model.n + 1)]

    def build():
        return ad.cross_entropy(model.fuse(gate(), [b() for b in branches]).logits, labels)
    return build


def check_amf_loss(seed: int, mode: str = "f64", max_coords: int | None = None) -> float:
    """Finite differences on the full gated-model cross-entropy loss.

    ``max_coords`` caps the checked coordinates per parameter for speed.
    """
    model, x, labels = _amf_case(seed, mode)
    params = list(model.params.values())
    return _run_case(params, _amf_loss(model, x, labels), mode, max_coords=max_coords,
                     pick_seed=seed + 1, eps=1e-4, promote=params + [x])


def run_suite(num_seeds: int = 100, mode: str = "f64",
              amf_seeds: int = 5, amf_coords: int = 20) -> list[dict]:
    """Run every primitive over ``num_seeds`` random instances plus the full
    model loss; returns one report dict per op."""
    if num_seeds < 1 or amf_seeds < 1:
        raise UsageError(f"need >= 1 seed per check, got num_seeds={num_seeds}, amf_seeds={amf_seeds}")
    tol = _mode(mode)[1]
    reports = []
    for op in OP_NAMES:
        worst = max(check_primitive(op, seed, mode) for seed in range(num_seeds))
        reports.append({"op": op, "max_rel_err": worst, "tol": tol, "passed": worst < tol})
    worst = max(check_amf_loss(seed, mode, max_coords=amf_coords) for seed in range(amf_seeds))
    reports.append({"op": "amf_loss", "max_rel_err": worst, "tol": tol, "passed": worst < tol})
    return reports

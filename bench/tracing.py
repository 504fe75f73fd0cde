"""Span recorder and the instrumentation that feeds it.

Spans are recorded from the benchmark's side only: the public functions of
each `amf` layer are wrapped where their callers look them up (module
attributes and model classes), so the program itself is unchanged. Every
span is `[name, start, end, parent, run]`; `parent` is the index of the span
that was open when it started (-1 at top level) and `run` is 0 for the
set-up and k >= 1 for the k-th traced repetition. Garbage-collector pauses
come in through `gc.callbacks` as `autodiff.gc` spans, children of whatever
span was open, so they are taken out of that span's self time.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from array import array
from contextlib import contextmanager

OPS = ("conv2d", "maxpool2", "relu", "matmul", "add_bias", "flatten", "concat",
       "scale_rows", "slice_cols", "softmax", "cross_entropy", "sum_all")

# Loss heads: every loss the fine-tunes and the gradient suite evaluate ends
# in exactly one call of one of these.
LOSS_HEADS = ("cross_entropy", "sum_all")

# Metrics computed from the set-up span (run 0); all others are per traced
# repetition.
SETUP_METRICS = ("data.gen_mixture_s", "data.gen_source_task_s", "data.dataset_save_s",
                 "data.dataset_load_s", "harness.pretrain_s", "models.checkpoint_save_s",
                 "models.checkpoint_load_s")


class Recorder:
    """Keeps spans in memory, column by column; `dump` writes them out.

    Columns are `array`s rather than one list per span: lists are tracked by
    the garbage collector, and hundreds of thousands of them would lengthen
    the very GC pauses the recorder measures.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_of = array("i")
        self.stack: list[int] = []
        self.run = 0
        self.conv_flops = 0  # of the traced repetitions only
        self.clock = time.perf_counter
        self._gc_ids = (self.name_id("autodiff.gc"), self.name_id("autodiff.gc.gen2"))

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run_of.append(self.run)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def rows(self):
        """(name, start, end, parent, run) per span, in opening order."""
        names = self.names
        for nid, start, end, parent, run in zip(self.name, self.start, self.end,
                                                self.parent, self.run_of):
            yield names[nid], start, end, parent, run

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.open(self._gc_ids[info["generation"] == 2])
        else:
            self.close(self.stack[-1])

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, run) in enumerate(self.rows()):
                f.write(f'[{i},"{name}",{start:.9f},{end:.9f},{parent},{run}]\n')


def _span_fn(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return traced


def _span_gen(rec: Recorder, name: str, fn):
    """One span per item a generator function produces."""
    nid, done = rec.name_id(name), rec.name_id(name + ".exhausted")

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            i = rec.open(nid)
            try:
                item = next(it)
            except StopIteration:
                rec.name[i] = done
                return
            finally:
                rec.close(i)
            yield item
    return traced


def _conv_gemm_flops(x, w) -> int:
    """Multiply-adds x2 of one im2col GEMM: [N*H*W, C*9] x [C*9, F]."""
    n, c, h, wd = x.shape
    return 2 * n * h * wd * c * 9 * w.shape[0]


def _span_op(rec: Recorder, op: str, fn):
    """Forward span per call, plus a backward span wrapped around the
    closure the op stores on its output."""
    fwd, bwd = rec.name_id(f"autodiff.{op}.fwd"), rec.name_id(f"autodiff.{op}.bwd")
    is_conv = op == "conv2d"

    def traced(*args, **kwargs):
        i = rec.open(fwd)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if is_conv and rec.run:
            rec.conv_flops += _conv_gemm_flops(args[0], args[1])
        backward = out._backward
        if backward is not None:
            def timed_backward():
                if is_conv and rec.run:
                    # dx and dw GEMMs run only for inputs that need a gradient
                    x, w = args[0], args[1]
                    rec.conv_flops += _conv_gemm_flops(x, w) * (x.requires_grad + w.requires_grad)
                j = rec.open(bwd)
                try:
                    backward()
                finally:
                    rec.close(j)
            out._backward = timed_backward
        return out
    return traced


def _model_classes(models_mod):
    todo, seen = [models_mod.Model], []
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [c for c in seen if "forward" in c.__dict__]


@contextmanager
def patched(targets):
    """Set each (owner, attribute, value) for the duration; restore after."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextmanager
def loss_counter(amf):
    """Counts loss evaluations (calls of a loss head); the only
    instrumentation an untraced run carries."""
    count = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    ad = amf.autodiff
    with patched([(ad, op, counting(getattr(ad, op))) for op in LOSS_HEADS]):
        yield count


@contextmanager
def instrument(rec: Recorder, amf):
    """Instrument every layer and record GC pauses into `rec`."""
    ad, models, harness, optim, data, gradsuite = (
        amf.autodiff, amf.models, amf.harness, amf.optim, amf.data, amf.gradsuite)
    targets = [(ad, op, _span_op(rec, op, getattr(ad, op))) for op in OPS]
    targets.append((ad.Tensor, "backward", _span_fn(rec, "autodiff.backward", ad.Tensor.backward)))
    for cls in _model_classes(models):
        targets.append((cls, "forward", _span_fn(rec, "models.forward", cls.__dict__["forward"])))
    for owner, names in ((models, ("init_model", "transfer_init", "checkpoint_save", "checkpoint_load")),
                         (data, ("gen_mixture", "gen_source_task", "dataset_save", "dataset_load")),
                         (optim, ("build_groups", "sgd_step")),
                         (harness, ("train", "pretrain", "evaluate", "weighting_trace")),
                         (gradsuite, ("run_suite", "check_primitive", "check_amf_loss"))):
        layer = owner.__name__.rsplit(".", 1)[-1]
        for name in names:
            if name in owner.__dict__:
                targets.append((owner, name, _span_fn(rec, f"{layer}.{name}", getattr(owner, name))))
    # harness binds these by name at import, so its own references are patched
    for name in ("init_model", "transfer_init", "build_groups", "sgd_step"):
        if name in harness.__dict__:
            layer = "models" if name in ("init_model", "transfer_init") else "optim"
            targets.append((harness, name, _span_fn(rec, f"{layer}.{name}", harness.__dict__[name])))
    if "batches" in harness.__dict__:
        targets.append((harness, "batches", _span_gen(rec, "data.batches", harness.batches)))

    with patched(targets):
        gc.callbacks.append(rec._gc_callback)
        try:
            yield rec
        finally:
            gc.callbacks.remove(rec._gc_callback)


def layer_metrics(rec: Recorder, n_reps: int) -> dict[str, float]:
    """Per-layer metrics: set-up ones from run 0, the rest averaged over the
    `n_reps` traced repetitions. Leaf timings (`*.fwd_s`, `*.bwd_s`,
    `optim.sgd_step_s`, `data.batches_s`, ...) are self times, so GC pauses
    inside them count only in `autodiff.gc_pause_s`."""
    spans = list(rec.rows())
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup: dict[str, float] = {}
    train_roots = set()
    for i, (name, start, end, parent, run) in enumerate(spans):
        dur = end - start
        if parent < 0 and name.startswith("autodiff.gc"):
            continue  # a pause in the benchmark's own code, not the program's
        if run == 0:
            setup[name] = setup.get(name, 0.0) + dur
            continue
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "harness.train":
            train_roots.add(i)

    def per_rep(table, key):
        return table.get(key, 0) / n_reps

    m: dict[str, float] = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_s"] = per_rep(self_t, f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_s"] = per_rep(self_t, f"autodiff.{op}.bwd")
        m[f"autodiff.{op}.calls"] = per_rep(calls, f"autodiff.{op}.fwd")
    m["autodiff.conv2d.gflop"] = rec.conv_flops / n_reps / 1e9
    m["autodiff.backward_s"] = per_rep(total, "autodiff.backward")
    m["autodiff.backward_calls"] = per_rep(calls, "autodiff.backward")
    m["autodiff.sweep_self_s"] = per_rep(self_t, "autodiff.backward")
    m["autodiff.gc_pause_s"] = (per_rep(total, "autodiff.gc") + per_rep(total, "autodiff.gc.gen2"))
    m["autodiff.gc_gen2_collections"] = per_rep(calls, "autodiff.gc.gen2")

    m["models.forward_s"] = per_rep(total, "models.forward")
    m["models.forward_self_s"] = per_rep(self_t, "models.forward")
    m["models.forward_calls"] = per_rep(calls, "models.forward")
    m["models.init_model_s"] = per_rep(self_t, "models.init_model")
    m["models.transfer_init_s"] = per_rep(self_t, "models.transfer_init")

    m["optim.sgd_step_s"] = per_rep(self_t, "optim.sgd_step")
    m["optim.sgd_step_calls"] = per_rep(calls, "optim.sgd_step")
    m["optim.build_groups_s"] = per_rep(self_t, "optim.build_groups")

    m["data.batches_s"] = per_rep(self_t, "data.batches") + per_rep(self_t, "data.batches.exhausted")
    m["data.batches_calls"] = per_rep(calls, "data.batches")

    harness_self = sum(per_rep(self_t, k) for k in ("harness.train", "harness.evaluate",
                                                   "harness.weighting_trace"))
    m["harness.train_s"] = per_rep(total, "harness.train")
    m["harness.train_self_s"] = harness_self
    m["harness.evaluate_s"] = per_rep(total, "harness.evaluate")
    m["harness.evaluate_calls"] = per_rep(calls, "harness.evaluate")
    m["harness.weighting_trace_s"] = per_rep(total, "harness.weighting_trace")
    m["harness.weighting_trace_calls"] = per_rep(calls, "harness.weighting_trace")
    steps = _step_ms(spans, train_roots)
    m["harness.step_ms_p50"] = _quantile(steps, 0.5)
    m["harness.step_ms_p90"] = _quantile(steps, 0.9)

    m["gradsuite.run_suite_s"] = per_rep(total, "gradsuite.run_suite")
    m["gradsuite.check_primitive_s"] = per_rep(total, "gradsuite.check_primitive")
    m["gradsuite.check_amf_loss_s"] = per_rep(total, "gradsuite.check_amf_loss")
    m["gradsuite.self_s"] = sum(per_rep(self_t, k) for k in (
        "gradsuite.run_suite", "gradsuite.check_primitive", "gradsuite.check_amf_loss"))
    in_suite = _loss_heads_under(spans, "gradsuite.run_suite")
    m["gradsuite.loss_evals"] = in_suite / n_reps

    for key in SETUP_METRICS:
        m[key] = setup.get(key[:-2], 0.0)
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_ms_p50") or metric.endswith("_ms_p90"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".gflop"):
        return "GFLOP"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


def _step_ms(spans, train_roots) -> list[float]:
    """Training-step times: from a forward pass directly under
    `harness.train` to the end of the `sgd_step` that follows it."""
    out, last_fwd = [], None
    for name, start, end, parent, run in spans:
        if parent not in train_roots:
            continue
        if name == "models.forward":
            last_fwd = start
        elif name == "optim.sgd_step" and last_fwd is not None:
            out.append((end - last_fwd) * 1e3)
            last_fwd = None
    return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _loss_heads_under(spans, root: str) -> int:
    """Loss-head calls that have a `root` span among their ancestors."""
    inside = [False] * len(spans)
    n = 0
    heads = {f"autodiff.{op}.fwd" for op in LOSS_HEADS}
    for i, (name, _, _, parent, run) in enumerate(spans):
        inside[i] = name == root or (parent >= 0 and inside[parent])
        if run and name in heads and inside[i]:
            n += 1
    return n

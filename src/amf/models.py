"""Model architectures: gated multi-branch network, static-fusion and
single-backbone baselines and the policy pretraining model, each built by
``init_model`` with its optimizer group layout in ``group_prefixes``, plus
parameter snapshots, checkpoint I/O and transfer of pretrained backbone
weights.

The branched architectures share ``Model.forward``: n branches, a per-sample
``gate`` (gated arch only) and a ``fuse`` into one linear classifier.

Parameter naming convention (load-bearing for optimizer groups and transfer):

    branch{i}.conv1.w / .b     first conv block of branch i (1-based)
    branch{i}.conv2.w / .b     second conv block
    branch{i}.head.w / .b      dense projection to the latent width
    policy.conv.w / .b         policy backbone conv block
    policy.head.w / .b         policy logits head
    classifier.w / .b          final linear classifier
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CompatibilityError, ConfigError, FormatError, ShapeError, UsageError

CKPT_MAGIC = b"AMFCKPT1"


@dataclass
class ForwardResult:
    """Everything the monitors need from one forward pass; predictions are
    the argmax of ``logits``."""

    logits: Tensor
    fused: Tensor
    weights: Tensor | None = None  # [N, n] softmaxed policy output (gated arch only)
    latents: list[Tensor] = field(default_factory=list)


def _gaussian(shape, std, seed) -> Tensor:
    return ad.tensor_create(shape, fill="gaussian", std=std, seed=seed, requires_grad=True)


def _zeros(shape) -> Tensor:
    return ad.tensor_create(shape, requires_grad=True)


def _he_std(fan_in: int) -> float:
    return float(np.sqrt(2.0 / fan_in))


class Model:
    """Base: a named, ordered parameter dict plus architecture metadata."""

    arch: str

    def __init__(self, n: int, d: int, num_classes: int, in_channels: int, image_hw: int):
        if n < 1:
            raise UsageError(f"branch count must be >= 1, got {n}")
        if num_classes < 2:
            raise UsageError(f"need >= 2 classes, got {num_classes}")
        if image_hw % 4:
            raise ShapeError(f"image size must be divisible by 4, got {image_hw}")
        self.n = n
        self.d = d
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.image_hw = image_hw
        self.params: dict[str, Tensor] = {}

    def _init_block(self, name: str, c_in: int, c_out: int, seed: int) -> None:
        self.params[f"{name}.w"] = _gaussian((c_out, c_in, 3, 3), _he_std(c_in * 9), seed)
        self.params[f"{name}.b"] = _zeros((c_out,))

    def _block(self, name: str, x: Tensor, cols: np.ndarray | None = None) -> Tensor:
        """One conv block: 3x3 conv, 2x2 max-pool, ReLU. Pooling before the
        ReLU gives the same values (both are monotone) on a quarter of the
        elements. ``cols`` is ``ad.im2col(x)`` when the caller shares it."""
        return ad.relu(ad.maxpool2(ad.conv2d(x, self.params[f"{name}.w"], self.params[f"{name}.b"], cols)))

    def _linear(self, name: str, x: Tensor) -> Tensor:
        return ad.add_bias(ad.matmul(x, self.params[f"{name}.w"]), self.params[f"{name}.b"])

    def _init_branch(self, prefix: str, rng_seed: int) -> None:
        flat = 16 * (self.image_hw // 4) ** 2
        self._init_block(f"{prefix}.conv1", self.in_channels, 8, rng_seed)
        self._init_block(f"{prefix}.conv2", 8, 16, rng_seed + 1)
        self.params[f"{prefix}.head.w"] = _gaussian((flat, self.d), _he_std(flat), rng_seed + 2)
        self.params[f"{prefix}.head.b"] = _zeros((self.d,))

    def _branch_forward(self, prefix: str, x: Tensor) -> Tensor:
        return self._branch_tail(prefix, self._block(f"{prefix}.conv1", x))

    def _branch_tail(self, prefix: str, h: Tensor) -> Tensor:
        """A branch from the output of its first conv block to its latent."""
        return ad.relu(self._linear(f"{prefix}.head", ad.flatten(self._block(f"{prefix}.conv2", h))))

    def _init_policy_stem(self, seed: int) -> int:
        """The policy backbone conv block; returns its flattened output width."""
        self._init_block("policy.conv", self.in_channels, 4, seed * 1000 + 800)
        return 4 * (self.image_hw // 2) ** 2

    def _init_classifier(self, in_width: int, seed: int) -> None:
        self.params["classifier.w"] = _gaussian((in_width, self.num_classes), 0.1, seed)
        self.params["classifier.b"] = _zeros((self.num_classes,))

    def _classify(self, fused: Tensor, **extra) -> ForwardResult:
        return ForwardResult(logits=self._linear("classifier", fused), fused=fused, **extra)

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def gate(self, x: Tensor, cols: np.ndarray | None = None) -> Tensor | None:
        """Per-sample branch weights [N, n]; ``None`` for an ungated model."""
        return None

    def fuse(self, weights: Tensor | None, latents: list[Tensor]) -> ForwardResult:
        """Classify the concatenated branch latents; a single latent is
        classified as it is, with no concat node."""
        return self._classify(latents[0] if len(latents) == 1 else ad.concat(latents), latents=latents)

    def forward(self, x: Tensor, remote=None) -> ForwardResult:
        """Logits of a batch. With ``remote``, branches ``remote.first``..n
        are computed elsewhere: this forward builds the branches before them
        and then calls ``remote.latents()``, which returns the latent nodes
        of the rest (``ad.remote``), so that both run at the same time."""
        cols = ad.im2col(x)  # the policy conv (gated arch) and every branch's first conv read x
        weights = self.gate(x, cols)
        local = range(1, self.n + 1 if remote is None else remote.first)
        first = [self._block(f"branch{i}.conv1", x, cols) for i in local]
        # freed before the second convs allocate theirs: held through them, the
        # patches were freed last, glibc trimmed the heap at the end of every
        # forward-only forward, and the next one faulted the pages back in
        del cols
        latents = [self._branch_tail(f"branch{i}", h) for i, h in zip(local, first)]
        return self.fuse(weights, latents if remote is None else latents + remote.latents())


class SingleModel(Model):
    """Standard fine-tune baseline: one backbone, one classifier."""

    arch = "single"

    def __init__(self, d: int, num_classes: int, in_channels: int = 1, image_hw: int = 16, seed: int = 0):
        super().__init__(1, d, num_classes, in_channels, image_hw)
        self._init_branch("branch1", seed * 1000 + 1)
        self._init_classifier(d, seed * 1000 + 900)


class MultiTuneModel(Model):
    """Static concatenation fusion of n branches (no gating)."""

    arch = "multitune"

    def __init__(self, n: int, d: int, num_classes: int, in_channels: int = 1, image_hw: int = 16, seed: int = 0):
        super().__init__(n, d, num_classes, in_channels, image_hw)
        for i in range(1, n + 1):
            self._init_branch(f"branch{i}", seed * 1000 + i * 10)
        self._init_classifier(n * d, seed * 1000 + 900)


class AMFModel(Model):
    """n parallel branches gated per sample by a softmaxed policy network,
    concatenated into one linear classifier."""

    arch = "amf"

    def __init__(self, n: int, d: int, num_classes: int, in_channels: int = 1, image_hw: int = 16, seed: int = 0):
        super().__init__(n, d, num_classes, in_channels, image_hw)
        for i in range(1, n + 1):
            self._init_branch(f"branch{i}", seed * 1000 + i * 10)
        pol_flat = self._init_policy_stem(seed)
        # zero head: every sample starts at the uniform weighting 1/n, so early
        # routing reflects accumulated gradient signal rather than init noise
        self.params["policy.head.w"] = _zeros((pol_flat, n))
        self.params["policy.head.b"] = _zeros((n,))
        self._init_classifier(n * d, seed * 1000 + 900)
        assert self.param_count("policy.") < self.param_count("branch1.")

    def param_count(self, prefix: str) -> int:
        return sum(t.data.size for k, t in self.params.items() if k.startswith(prefix))

    def gate(self, x: Tensor, cols: np.ndarray | None = None) -> Tensor:
        """Per-sample branch weights [N, n]: the softmaxed policy output."""
        return ad.softmax(self._linear("policy.head", ad.flatten(self._block("policy.conv", x, cols))))

    def fuse(self, weights: Tensor, latents: list[Tensor]) -> ForwardResult:
        """Scale each branch latent by its weight column, concatenate and
        classify. The only point where the policy and the branches meet."""
        scaled = [ad.scale_rows(m, ad.slice_cols(weights, i, i + 1)) for i, m in enumerate(latents)]
        return self._classify(ad.concat(scaled), weights=weights, latents=latents)


class PolicyPretrainModel(Model):
    """Policy backbone plus a throwaway classification head, for pretraining."""

    arch = "policy_pretrain"

    def __init__(self, num_classes: int, in_channels: int = 1, image_hw: int = 16, seed: int = 0):
        super().__init__(1, 4, num_classes, in_channels, image_hw)
        self._init_classifier(self._init_policy_stem(seed), seed * 1000 + 901)

    def forward(self, x: Tensor) -> ForwardResult:
        return self._classify(ad.flatten(self._block("policy.conv", x)))


def group_prefixes(arch: str, n: int) -> dict[str, str]:
    """Optimizer group layout: group name -> prefix of its parameter names.

    Each branch is its own group (its own fine-tuning rate); the single
    baseline calls its one branch the backbone.
    """
    if arch == "single":
        return {"backbone": "branch1.", "classifier": "classifier."}
    if arch == "policy_pretrain":
        return {"policy": "policy.", "classifier": "classifier."}
    if arch not in ("amf", "multitune"):
        raise ConfigError(f"no group layout for arch {arch!r}")
    groups = [f"branch{i}" for i in range(1, n + 1)] + ["classifier"]
    if arch == "amf":
        groups.append("policy")
    return {g: g + "." for g in groups}


def init_model(arch: str, seed: int, num_classes: int, n: int = 2, d: int = 64,
               in_channels: int = 1, image_hw: int = 16) -> Model:
    """Deterministic model factory. Classifier weights ~ N(0, 0.1), bias 0;
    backbone weights use fan-in-scaled gaussians. ``single`` ignores ``n``;
    ``policy_pretrain`` ignores ``n`` and ``d``."""
    if arch == "amf":
        return AMFModel(n, d, num_classes, in_channels, image_hw, seed)
    if arch == "multitune":
        return MultiTuneModel(n, d, num_classes, in_channels, image_hw, seed)
    if arch == "single":
        return SingleModel(d, num_classes, in_channels, image_hw, seed)
    if arch == "policy_pretrain":
        return PolicyPretrainModel(num_classes, in_channels, image_hw, seed)
    raise UsageError(f"unknown arch {arch!r}")


# ---------------------------------------------------------------------------
# Checkpoint format:
#   "AMFCKPT1" | u32 param count | per param:
#     u16 name length, UTF-8 name, u8 rank, u32 dims[rank], f32 payload
# All integers little-endian.
# ---------------------------------------------------------------------------

def serialize_params(params: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", len(params)))
    for name, arr in params.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return buf.getvalue()


def deserialize_params(blob: bytes) -> dict[str, np.ndarray]:
    """Parse an AMFCKPT1 blob; any malformed input raises ``FormatError``."""
    buf = io.BytesIO(blob)

    def read(n: int) -> bytes:
        # checked before reading: a corrupt size can exceed what BytesIO accepts
        if n > len(blob) - buf.tell():
            raise FormatError("truncated checkpoint")
        return buf.read(n)

    if read(8) != CKPT_MAGIC:
        raise FormatError("bad checkpoint magic")
    count = struct.unpack("<I", read(4))[0]
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        nlen = struct.unpack("<H", read(2))[0]
        try:
            name = read(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("tensor name is not valid UTF-8") from None
        if name in out:
            raise FormatError(f"duplicate tensor name {name!r}")
        rank = struct.unpack("<B", read(1))[0]
        dims = struct.unpack(f"<{rank}I", read(4 * rank))
        payload = read(4 * math.prod(dims))
        try:
            out[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError:  # rank beyond what numpy supports
            raise FormatError(f"tensor {name!r} has unsupported rank {rank}") from None
    if buf.read(1):
        raise FormatError("trailing bytes after checkpoint payload")
    return out


def snapshot(model: Model, prefix: str = "") -> dict[str, np.ndarray]:
    """Copies of the parameters whose names start with ``prefix``, in the model's order."""
    return {k: t.data.copy() for k, t in model.params.items() if k.startswith(prefix)}


def checkpoint_save(params: dict[str, np.ndarray], path: str) -> None:
    blob = serialize_params(params)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def checkpoint_load(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        return deserialize_params(f.read())


def load_params_into(model: Model, params: dict[str, np.ndarray]) -> None:
    """Load a full checkpoint into a model; all names and shapes must match."""
    bad = sorted(set(params) ^ set(model.params))
    if bad:
        raise CompatibilityError(f"parameter name mismatch: {bad}")
    _copy_checked(model, params)


def _copy_checked(model: Model, params: dict[str, np.ndarray]) -> None:
    bad = [k for k, v in params.items() if model.params[k].shape != v.shape]
    if bad:
        raise CompatibilityError(f"shape mismatch for: {sorted(bad)}")
    for k, v in params.items():
        model.params[k].data = v.astype(model.params[k].dtype)


def transfer_init(target: Model, source: dict[str, np.ndarray], mapping: dict[str, str]) -> Model:
    """Copy pretrained weights into ``target`` by name-prefix mapping.

    ``mapping`` maps target prefixes to source prefixes; parameters not
    covered by any mapping (e.g. the freshly initialized classifier) are
    left untouched.
    """
    updates: dict[str, np.ndarray] = {}
    for tgt_prefix, src_prefix in mapping.items():
        hit = False
        for name in target.params:
            if name.startswith(tgt_prefix):
                src_name = src_prefix + name[len(tgt_prefix):]
                if src_name in source:
                    updates[name] = source[src_name]
                    hit = True
        if not hit:
            raise CompatibilityError(f"mapping {tgt_prefix!r} -> {src_prefix!r} matched nothing")
    _copy_checked(target, updates)
    return target


def transfer_map_for(model: Model) -> dict[str, str]:
    """Default mapping from a pretrain checkpoint: each branch from the
    pretrained backbone, and the policy conv where the model has one."""
    mapping = {f"branch{i}.": "branch1." for i in range(1, model.n + 1)}
    if "policy.conv.w" in model.params:
        mapping["policy.conv."] = "policy.conv."
    return mapping

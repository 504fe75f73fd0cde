"""Synthetic two-mode image datasets, dataset persistence, batching, and an
IDX loader.

The target mixture has two feature-separated sub-distributions:

- Mode A ("bars"): class c is a 2-pixel-wide anti-aliased bar through the
  image center at angle pi*c/K_A. Pixel intensity is max(0, 1 - dist) where
  dist is the pixel-center distance to the bar's axis; class separability
  depends on this exact kernel.
- Mode B ("textures"): class c is a thresholded sinusoidal grating with
  period p = 2 + c, sign(sin(2*pi*x/p) * sin(2*pi*y/p)) mapped to
  {0.25, 0.75} (strictly positive -> 0.75).

Gaussian pixel noise is added per mode and values are clamped to [0, 1].
The source (pretraining) task draws from the grating family with periods
disjoint from mode B's, so pretrained features start close to mode B and
far from mode A.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import new_rng
from .errors import ConfigError, FormatError, UsageError

DATA_MAGIC = b"AMFDATA1"


@dataclass
class Example:
    image: np.ndarray  # [C, H, W] float32 in [0, 1]
    label: int
    mode: int


@dataclass(frozen=True)
class MixtureSpec:
    k_a: int = 8
    k_b: int = 8
    n_train: int = 150  # per class
    n_val: int = 10
    n_test: int = 10
    image_hw: int = 16
    channels: int = 1
    noise_a: float = 0.8
    noise_b: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.k_a < 0 or self.k_b < 0 or self.k_a + self.k_b < 1:
            raise ConfigError("need at least one class")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("per-class split counts must be >= 1")
        if self.image_hw < 4 or self.image_hw % 4:
            raise ConfigError("image size must be a positive multiple of 4")
        if self.channels < 1:
            raise ConfigError("need at least one channel")
        if self.noise_a < 0 or self.noise_b < 0:
            raise ConfigError("noise std must be >= 0")

    @property
    def num_classes(self) -> int:
        return self.k_a + self.k_b


@dataclass
class MixtureDataset:
    spec: MixtureSpec
    train: list[Example] = field(default_factory=list)
    val: list[Example] = field(default_factory=list)
    test: list[Example] = field(default_factory=list)

    def split(self, name: str) -> list[Example]:
        if name not in ("train", "val", "test"):
            raise UsageError(f"unknown split {name!r}")
        return getattr(self, name)


def _bar_image(hw: int, angle: float) -> np.ndarray:
    ctr = (hw - 1) / 2.0
    yy, xx = np.mgrid[0:hw, 0:hw].astype(np.float64)
    dist = np.abs(-(xx - ctr) * np.sin(angle) + (yy - ctr) * np.cos(angle))
    return np.maximum(0.0, 1.0 - dist)


def _grating_image(hw: int, period: float) -> np.ndarray:
    # sample at pixel centers: on an integer grid, nearby periods (e.g. 12 and
    # 13 at 16x16) alias to the same thresholded pattern
    yy, xx = (np.mgrid[0:hw, 0:hw] + 0.5).astype(np.float64)
    s = np.sin(2 * np.pi * xx / period) * np.sin(2 * np.pi * yy / period)
    return np.where(s > 0, 0.75, 0.25)


def _noisy(base: np.ndarray, std: float, channels: int, rng) -> np.ndarray:
    img = np.broadcast_to(base, (channels,) + base.shape).copy()
    if std > 0:
        img = img + rng.normal(0.0, std, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _gen_split(spec: MixtureSpec, count: int, rng, grating_periods=None) -> list[Example]:
    """One split: every (mode, class) pair gets exactly ``count`` examples.

    Generation order is fixed (mode, then class, then example index) so the
    Philox draw sequence, and therefore the dataset, is seed-deterministic.
    """
    out: list[Example] = []
    for c in range(spec.k_a):
        base = _bar_image(spec.image_hw, np.pi * c / max(spec.k_a, 1))
        for _ in range(count):
            out.append(Example(_noisy(base, spec.noise_a, spec.channels, rng), c, 0))
    for c in range(spec.k_b):
        period = grating_periods[c] if grating_periods is not None else 2 + c
        base = _grating_image(spec.image_hw, period)
        for _ in range(count):
            out.append(Example(_noisy(base, spec.noise_b, spec.channels, rng), spec.k_a + c, 1))
    return out


def gen_mixture(spec: MixtureSpec) -> MixtureDataset:
    rng = new_rng(spec.seed)
    return MixtureDataset(
        spec=spec,
        train=_gen_split(spec, spec.n_train, rng),
        val=_gen_split(spec, spec.n_val, rng),
        test=_gen_split(spec, spec.n_test, rng),
    )


SOURCE_PERIOD_BASE = 10


def gen_source_task(spec: MixtureSpec, seed: int, k_src: int = 6,
                    noise: float = 0.3) -> MixtureDataset:
    """Pretraining task: classify grating periods {10, ..., 10+k_src-1}.

    Periods are disjoint from the target's mode-B periods (2..2+k_b-1 for the
    default k_b <= 8). All examples carry mode id 1 (the grating family).
    The source is rendered at its own noise level (clean upstream corpus);
    the target's noise_b does not apply to it.
    """
    if spec.k_b > SOURCE_PERIOD_BASE - 2:
        raise ConfigError("target grating periods would overlap the source task's")
    src_spec = replace(spec, k_a=0, k_b=k_src, noise_b=noise, seed=seed)
    periods = [SOURCE_PERIOD_BASE + c for c in range(k_src)]
    rng = new_rng(seed)
    return MixtureDataset(
        spec=src_spec,
        train=_gen_split(src_spec, src_spec.n_train, rng, grating_periods=periods),
        val=_gen_split(src_spec, src_spec.n_val, rng, grating_periods=periods),
        test=_gen_split(src_spec, src_spec.n_test, rng, grating_periods=periods),
    )


def batches(split: list[Example], batch_size: int, epoch_seed: int, shuffle: bool = True):
    """Yield (images [N,C,H,W], labels, modes) with a seeded per-epoch order."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    if not split:
        raise UsageError("empty split")
    order = np.arange(len(split))
    if shuffle:
        order = new_rng(epoch_seed).permutation(order)
    for lo in range(0, len(split), batch_size):
        idx = order[lo : lo + batch_size]
        images = np.stack([split[i].image for i in idx])
        labels = np.array([split[i].label for i in idx], dtype=np.int64)
        modes = np.array([split[i].mode for i in idx], dtype=np.int64)
        yield images, labels, modes


# ---------------------------------------------------------------------------
# Dataset file format (little-endian):
#   "AMFDATA1"
#   spec block: u32 k_a, k_b, n_train, n_val, n_test, H, W, C;
#               f32 noise_a, noise_b; u64 seed
#   u32 train count, u32 val count, u32 test count
#   per example: u16 label, u8 mode, f32 pixels row-major [C, H, W]
# ---------------------------------------------------------------------------

def dataset_save(ds: MixtureDataset, path: str) -> None:
    s = ds.spec
    parts = [DATA_MAGIC]
    parts.append(struct.pack("<8I2fQ", s.k_a, s.k_b, s.n_train, s.n_val, s.n_test,
                             s.image_hw, s.image_hw, s.channels, s.noise_a, s.noise_b, s.seed))
    parts.append(struct.pack("<3I", len(ds.train), len(ds.val), len(ds.test)))
    for ex in ds.train + ds.val + ds.test:
        parts.append(struct.pack("<HB", ex.label, ex.mode))
        parts.append(np.ascontiguousarray(ex.image, dtype="<f4").tobytes())
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(parts))
    os.replace(tmp, path)


def dataset_load(path: str) -> MixtureDataset:
    """Read an AMFDATA1 file; any malformed content raises ``FormatError``."""
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def read(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError("truncated dataset file")
        b = blob[pos : pos + n]
        pos += n
        return b

    if read(8) != DATA_MAGIC:
        raise FormatError("bad dataset magic")
    k_a, k_b, n_train, n_val, n_test, h, w, c = struct.unpack("<8I", read(32))
    noise_a, noise_b = struct.unpack("<2f", read(8))
    (seed,) = struct.unpack("<Q", read(8))
    if h != w:
        raise FormatError("non-square images unsupported")
    try:
        spec = MixtureSpec(k_a=k_a, k_b=k_b, n_train=n_train, n_val=n_val, n_test=n_test,
                           image_hw=h, channels=c, noise_a=noise_a, noise_b=noise_b, seed=seed)
    except ConfigError as e:
        raise FormatError(f"bad dataset spec block: {e}") from None
    counts = struct.unpack("<3I", read(12))
    expected = tuple(spec.num_classes * k for k in (n_train, n_val, n_test))
    if counts != expected:
        raise FormatError(f"split counts {counts} do not match the spec block's {expected}")
    splits = []
    for count in counts:
        exs = []
        for _ in range(count):
            label, mode = struct.unpack("<HB", read(3))
            if label >= spec.num_classes:
                raise FormatError(f"label {label} outside [0, {spec.num_classes})")
            if mode not in (0, 1):
                raise FormatError(f"mode {mode} is not 0 or 1")
            img = np.frombuffer(read(4 * c * h * w), dtype="<f4").reshape(c, h, w).copy()
            exs.append(Example(img, label, mode))
        splits.append(exs)
    if pos != len(blob):
        raise FormatError("trailing bytes after dataset payload")
    return MixtureDataset(spec=spec, train=splits[0], val=splits[1], test=splits[2])


# ---------------------------------------------------------------------------
# IDX (big-endian headers, as distributed for MNIST-family datasets)
# ---------------------------------------------------------------------------

def load_idx(images_path: str, labels_path: str, limit: int | None = None,
             mode_rule: str = "parity") -> list[Example]:
    """Load an IDX image/label pair; pixels scaled to [0, 1] by /255.

    ``mode_rule``: "parity" assigns mode = label % 2, "single" assigns mode 0.
    """
    if mode_rule not in ("parity", "single"):
        raise UsageError(f"unknown mode_rule {mode_rule!r}")
    with open(images_path, "rb") as f:
        head = f.read(16)
        if len(head) != 16 or struct.unpack(">I", head[:4])[0] != 0x00000803:
            raise FormatError("bad IDX image magic")
        count, rows, cols = struct.unpack(">3I", head[4:])
        raw = f.read(count * rows * cols)
    if len(raw) != count * rows * cols:
        raise FormatError("truncated IDX image payload")
    with open(labels_path, "rb") as f:
        head = f.read(8)
        if len(head) != 8 or struct.unpack(">I", head[:4])[0] != 0x00000801:
            raise FormatError("bad IDX label magic")
        (lcount,) = struct.unpack(">I", head[4:])
        labels = np.frombuffer(f.read(lcount), dtype=np.uint8)
    if lcount != count or len(labels) != lcount:
        raise FormatError(f"image/label count mismatch: {count} vs {lcount}")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    out = []
    for img, lab in zip(images, labels):
        mode = int(lab) % 2 if mode_rule == "parity" else 0
        out.append(Example((img / 255.0).astype(np.float32), int(lab), mode))
    return out

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

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import new_rng
from .errors import ConfigError, FormatError, UsageError

DATA_MAGIC = b"AMFDATA1"


@dataclass
class Example:
    image: np.ndarray  # [C, H, W] float32 in [0, 1]
    label: int
    mode: int


@dataclass(frozen=True, eq=False)
class Split:
    """One dataset split held as arrays: ``images`` [N, C, H, W] float32,
    ``labels`` and ``modes`` [N] int64.

    Supports ``len`` and iteration (one ``Example`` per row, its image a view).
    """

    images: np.ndarray
    labels: np.ndarray
    modes: np.ndarray

    def __post_init__(self):
        n = len(self.images)
        if self.images.ndim != 4 or len(self.labels) != n or len(self.modes) != n:
            raise UsageError(f"split arrays disagree: images {self.images.shape}, "
                             f"{len(self.labels)} labels, {len(self.modes)} modes")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        for image, label, mode in zip(self.images, self.labels.tolist(), self.modes.tolist()):
            yield Example(image, label, mode)


def _decode_noise(v: float) -> float:
    """The value a noise level stored as f32 loads back as: the shortest decimal of the f32."""
    return float(str(np.float32(v)))


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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), the dataset file's u64 field, got {self.seed}")
        for name in ("noise_a", "noise_b"):
            v = getattr(self, name)
            if _decode_noise(v) != v:
                raise ConfigError(f"{name}={v!r} is stored as f32 in a dataset file and "
                                  f"would load back as {_decode_noise(v)!r}")

    @property
    def num_classes(self) -> int:
        return self.k_a + self.k_b


@dataclass
class MixtureDataset:
    spec: MixtureSpec
    train: Split
    val: Split
    test: Split

    def split(self, name: str) -> Split:
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


def _class_bases(spec: MixtureSpec, grating_periods=None) -> list[tuple]:
    """(clean image, noise std, label, mode) per class, in label order."""
    out = [(_bar_image(spec.image_hw, np.pi * c / max(spec.k_a, 1)), spec.noise_a, c, 0)
           for c in range(spec.k_a)]
    for c in range(spec.k_b):
        period = grating_periods[c] if grating_periods is not None else 2 + c
        out.append((_grating_image(spec.image_hw, period), spec.noise_b, spec.k_a + c, 1))
    return out


def _gen_split(spec: MixtureSpec, bases: list[tuple], count: int, rng) -> Split:
    """One split: every class gets exactly ``count`` examples.

    Generation order is fixed (class, then example index) so the Philox draw
    sequence, and therefore the dataset, is seed-deterministic. One draw of
    ``count`` images reads the same stream as ``count`` draws of one image.
    """
    shape = (count, spec.channels, spec.image_hw, spec.image_hw)
    images = np.empty((len(bases) * count,) + shape[1:], dtype=np.float32)
    for i, (base, std, _, _) in enumerate(bases):
        block = base + rng.normal(0.0, std, size=shape) if std > 0 else np.broadcast_to(base, shape)
        images[i * count : (i + 1) * count] = np.clip(block, 0.0, 1.0)
    labels = np.repeat(np.array([b[2] for b in bases], dtype=np.int64), count)
    modes = np.repeat(np.array([b[3] for b in bases], dtype=np.int64), count)
    return Split(images, labels, modes)


def _gen_dataset(spec: MixtureSpec, bases: list[tuple]) -> MixtureDataset:
    rng = new_rng(spec.seed)
    train, val, test = (_gen_split(spec, bases, k, rng) for k in (spec.n_train, spec.n_val, spec.n_test))
    return MixtureDataset(spec=spec, train=train, val=val, test=test)


def gen_mixture(spec: MixtureSpec) -> MixtureDataset:
    return _gen_dataset(spec, _class_bases(spec))


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
    return _gen_dataset(src_spec, _class_bases(src_spec, periods))


def batches(split: Split, batch_size: int, epoch_seed: int | None = None):
    """Yield (images [N,C,H,W], labels, modes), permuted by ``epoch_seed`` if given."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    if not split:
        raise UsageError("empty split")
    order = np.arange(len(split))
    if epoch_seed is not None:
        order = new_rng(epoch_seed).permutation(order)
    for lo in range(0, len(split), batch_size):
        idx = order[lo : lo + batch_size]
        yield split.images[idx], split.labels[idx], split.modes[idx]


# ---------------------------------------------------------------------------
# Dataset file format (little-endian):
#   "AMFDATA1"
#   spec block: u32 k_a, k_b, n_train, n_val, n_test, H, W, C;
#               f32 noise_a, noise_b; u64 seed
#   u32 train count, u32 val count, u32 test count
#   per example: u16 label, u8 mode, f32 pixels row-major [C, H, W]
# A noise value is stored as f32 and loaded back as the shortest decimal
# that rounds to it; MixtureSpec accepts only values equal to that decimal.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<8s8I2fQ3I")  # magic, spec block, split counts


def _record_dtype(c: int, h: int, w: int) -> np.dtype:
    return np.dtype([("label", "<u2"), ("mode", "u1"), ("image", "<f4", (c, h, w))])


def dataset_save(ds: MixtureDataset, path: str) -> None:
    s = ds.spec
    splits = (ds.train, ds.val, ds.test)
    dtype = _record_dtype(s.channels, s.image_hw, s.image_hw)
    if any(sp.images.shape[1:] != dtype["image"].shape for sp in splits):
        raise UsageError(f"image shapes do not match the spec's {dtype['image'].shape}")
    labels = np.concatenate([sp.labels for sp in splits])
    modes = np.concatenate([sp.modes for sp in splits])
    if ((labels < 0) | (labels >= s.num_classes) | (modes < 0) | (modes > 1)).any():
        raise UsageError(f"a label is outside [0, {s.num_classes}) or a mode is not 0 or 1")
    records = np.empty(len(labels), dtype=dtype)
    records["label"], records["mode"] = labels, modes
    np.concatenate([sp.images for sp in splits], out=records["image"])
    header = _HEADER.pack(
        DATA_MAGIC, s.k_a, s.k_b, s.n_train, s.n_val, s.n_test, s.image_hw, s.image_hw,
        s.channels, s.noise_a, s.noise_b, s.seed, *(len(sp) for sp in splits))
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(header)
        f.write(records.data)
    os.replace(tmp, path)


def dataset_load(path: str) -> MixtureDataset:
    """Read an AMFDATA1 file; any malformed content raises ``FormatError``."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != DATA_MAGIC:
        raise FormatError("bad dataset magic")
    if len(blob) < _HEADER.size:
        raise FormatError("truncated dataset file")
    _, k_a, k_b, n_train, n_val, n_test, h, w, c, noise_a, noise_b, seed, *counts = _HEADER.unpack_from(blob)
    if h != w:
        raise FormatError("non-square images unsupported")
    try:
        spec = MixtureSpec(k_a=k_a, k_b=k_b, n_train=n_train, n_val=n_val, n_test=n_test,
                           image_hw=h, channels=c, noise_a=_decode_noise(noise_a),
                           noise_b=_decode_noise(noise_b), seed=seed)
    except ConfigError as e:
        raise FormatError(f"bad dataset spec block: {e}") from None
    counts = tuple(counts)
    expected = tuple(spec.num_classes * k for k in (n_train, n_val, n_test))
    if counts != expected:
        raise FormatError(f"split counts {counts} do not match the spec block's {expected}")
    # every count is >= 1 here, so a payload of the right length bounds the
    # record size by the file size before any array is built
    payload = len(blob) - _HEADER.size
    need = sum(counts) * (3 + 4 * c * h * w)
    if payload < need:
        raise FormatError("truncated dataset file")
    if payload > need:
        raise FormatError("trailing bytes after dataset payload")
    records = np.frombuffer(blob, dtype=_record_dtype(c, h, w), offset=_HEADER.size)
    labels = records["label"].astype(np.int64)
    modes = records["mode"].astype(np.int64)
    if (labels >= spec.num_classes).any():
        raise FormatError(f"label {labels.max()} outside [0, {spec.num_classes})")
    if (modes > 1).any():
        raise FormatError(f"mode {modes.max()} is not 0 or 1")
    images = records["image"].astype(np.float32)
    bounds = np.cumsum((0,) + counts)
    train, val, test = (Split(images[a:b], labels[a:b], modes[a:b]) for a, b in zip(bounds, bounds[1:]))
    return MixtureDataset(spec=spec, train=train, val=val, test=test)


# ---------------------------------------------------------------------------
# IDX (big-endian headers, as distributed for MNIST-family datasets)
# ---------------------------------------------------------------------------

def _read_idx(path: str, magic: int, what: str) -> tuple[tuple[int, ...], bytes]:
    """Header dims and unsigned-byte payload of an IDX file; the magic's low byte is the rank."""
    ndim = magic & 0xFF
    with open(path, "rb") as f:
        head = f.read(4 + 4 * ndim)
        if len(head) != 4 + 4 * ndim or struct.unpack(">I", head[:4])[0] != magic:
            raise FormatError(f"bad IDX {what} magic")
        dims = struct.unpack(f">{ndim}I", head[4:])
        size = math.prod(dims)
        # checked before reading: a corrupt header can ask for more than the file holds
        if size > os.fstat(f.fileno()).st_size - len(head):
            raise FormatError(f"truncated IDX {what} payload")
        return dims, f.read(size)


def load_idx(images_path: str, labels_path: str, mode_rule: str = "parity") -> Split:
    """Load an IDX image/label pair; pixels scaled to [0, 1] by /255.

    ``mode_rule``: "parity" assigns mode = label % 2, "single" assigns mode 0.
    """
    if mode_rule not in ("parity", "single"):
        raise UsageError(f"unknown mode_rule {mode_rule!r}")
    (count, rows, cols), raw = _read_idx(images_path, 0x00000803, "image")
    (lcount,), raw_labels = _read_idx(labels_path, 0x00000801, "label")
    if lcount != count:
        raise FormatError(f"image/label count mismatch: {count} vs {lcount}")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8)
    labels = labels.astype(np.int64)
    modes = labels % 2 if mode_rule == "parity" else np.zeros_like(labels)
    scaled = np.divide(images, 255.0, out=np.empty(images.shape, np.float32),
                       dtype=np.float64, casting="unsafe")
    return Split(scaled, labels, modes)

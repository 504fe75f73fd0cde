"""Flat key=value config files.

Grammar: one `key = value` per line; blank lines and `#` comments ignored;
whitespace around keys and values stripped; duplicate keys are an error;
unknown keys are an error. Sections are dotted key prefixes (data.*, model.*,
optim.*, train.*, pretrain.*).
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .optim import ScheduleSpec

_GROUP_KEY = re.compile(r"^optim\.(\w+)\.(lr|decay_rate|decay_epochs)$")

# key -> (parser, validator, default); default None means required when used
_SCHEMA = {
    "data.k_a": (int, lambda v: v >= 0, 8),
    "data.k_b": (int, lambda v: v >= 0, 8),
    "data.n_train": (int, lambda v: v >= 1, 150),
    "data.n_val": (int, lambda v: v >= 1, 10),
    "data.n_test": (int, lambda v: v >= 1, 10),
    "data.image_hw": (int, lambda v: v >= 4 and v % 4 == 0, 16),
    "data.channels": (int, lambda v: v >= 1, 1),
    "data.noise_a": (float, lambda v: v >= 0, 0.8),
    "data.noise_b": (float, lambda v: v >= 0, 0.5),
    "data.seed": (int, lambda v: v >= 0, None),
    "data.source_classes": (int, lambda v: v >= 2, 6),
    "data.source_seed": (int, lambda v: v >= 0, 1000),
    "data.source_noise": (float, lambda v: v >= 0, 0.3),
    "model.arch": (str, lambda v: v in ("amf", "multitune", "single"), "amf"),
    "model.n": (int, lambda v: v >= 1, 2),
    "model.d": (int, lambda v: v >= 1, 64),
    "optim.momentum": (float, lambda v: 0 <= v < 1, 0.9),
    "train.epochs": (int, lambda v: v >= 1, 30),
    "train.batch_size": (int, lambda v: v >= 1, 32),
    "train.seed_init": (int, lambda v: v >= 0, 0),
    "train.seed_data": (int, lambda v: v >= 0, 0),
    "train.layer_scale": (float, lambda v: 0 < v <= 1, 0.4),
    "pretrain.epochs": (int, lambda v: v >= 1, 40),
    "pretrain.batch_size": (int, lambda v: v >= 1, 32),
    "pretrain.lr": (float, lambda v: v > 0, 0.05),
    "pretrain.policy_lr": (float, lambda v: v > 0, 0.05),
}

_GROUP_FIELDS = {
    "lr": (float, lambda v: v > 0),
    "decay_rate": (float, lambda v: 0 < v <= 1),
    "decay_epochs": (int, lambda v: v >= 1),
}


def parse_config(text: str) -> dict:
    """Parse and validate config text into a {key: typed value} dict."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"duplicate key {key!r}")
        m = _GROUP_KEY.match(key)
        if m:
            parser, check = _GROUP_FIELDS[m.group(2)]
        elif key in _SCHEMA:
            parser, check, _ = _SCHEMA[key]
        else:
            raise ConfigError(f"unknown key {key!r}")
        try:
            typed = parser(val)
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {val!r}")
        if not check(typed):
            raise ConfigError(f"value out of range for {key!r}: {val!r}")
        values[key] = typed
    return values


def load_config(path: str) -> dict:
    with open(path) as f:
        return parse_config(f.read())


def get(cfg: dict, key: str):
    """Config value with schema default; raises on a missing required key."""
    if key in cfg:
        return cfg[key]
    if key in _SCHEMA:
        default = _SCHEMA[key][2]
        if default is not None:
            return default
    raise ConfigError(f"missing required key {key!r}")


def schedules_for(cfg: dict, group_names: list[str]) -> dict[str, ScheduleSpec]:
    """Build one ScheduleSpec per required group from optim.<group>.* keys.

    An optim.<group>.* key for a group not in ``group_names`` (a misspelt
    group, or one the arch does not have) is an error, not silently unused.
    """
    out = {}
    for g in group_names:
        lr_key = f"optim.{g}.lr"
        if lr_key not in cfg:
            raise ConfigError(f"missing required key {lr_key!r}")
        out[g] = ScheduleSpec(
            base_lr=cfg[lr_key],
            decay_rate=cfg.get(f"optim.{g}.decay_rate", 0.9),
            decay_epochs=cfg.get(f"optim.{g}.decay_epochs", 20),
        )
    unknown = sorted(k for k in cfg if (m := _GROUP_KEY.match(k)) and m.group(1) not in out)
    if unknown:
        raise ConfigError(f"keys for no optimizer group of this model: {unknown} "
                          f"(groups: {group_names})")
    return out

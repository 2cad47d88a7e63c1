"""Run configuration: a flat `key = value` text format.

Blank lines and lines starting with # are skipped, and a # that starts the
value or follows whitespace begins a comment running to the end of the line.
Every key must be known and appear at most once; values are typed per key.
An empty value sets an optional key (one whose default is None) to None. The same RunConfig feeds
training and the command-line tools, with command-line flags taking
precedence over file values and file values over the dataclass defaults.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidInput, ParseError

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _to_bool(text, key, lineno):
    word = text.lower()
    if word not in _BOOL_WORDS:
        raise ParseError(f"{key}: expected a boolean, got {text!r}", line=lineno)
    return _BOOL_WORDS[word]


def _to_float(text, key, lineno):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{key}: expected a number, got {text!r}", line=lineno) from None


def _to_int(text, key, lineno):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{key}: expected an integer, got {text!r}", line=lineno) from None


def _to_opt_int(text, key, lineno):
    if text.lower() == "none":
        return None
    return _to_int(text, key, lineno)


def _to_str_tuple(text, key, lineno):
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ParseError(f"{key}: expected a comma-separated list", line=lineno)
    return parts


def _to_lambda(text, key, lineno):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) not in (1, 3):
        raise ParseError(
            f"{key}: expected one value or an axis triple, got {len(parts)} values",
            line=lineno,
        )
    return tuple(_to_float(p, key, lineno) for p in parts)


_SCHEMA = {
    "arch": lambda t, k, n: t,
    "lambda0": _to_lambda,
    "feature_channels": _to_str_tuple,
    "lattice_channels": _to_str_tuple,
    "num_classes": _to_opt_int,
    "data_dir": lambda t, k, n: t,
    "checkpoint": lambda t, k, n: t,
    "output_dir": lambda t, k, n: t,
    "learning_rate": _to_float,
    "adam_beta1": _to_float,
    "adam_beta2": _to_float,
    "adam_epsilon": _to_float,
    "batch_size": _to_int,
    "max_iterations": _to_int,
    "rotate": _to_bool,
    "rotate_full_sphere": _to_bool,
    "translate": _to_bool,
    "scale": _to_bool,
    "color_jitter": _to_bool,
    "translate_magnitude": _to_float,
    "scale_low": _to_float,
    "scale_high": _to_float,
    "color_jitter_magnitude": _to_float,
    "sample_size": _to_opt_int,
    "seed": _to_int,
    "ignore_label": _to_opt_int,
    "gravity_axis": lambda t, k, n: t,
    "log_every": _to_int,
    "checkpoint_every": _to_int,
    "patience": _to_opt_int,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: model, channels, paths, train settings."""

    arch: str | None = None
    lambda0: tuple = (1.0,)
    feature_channels: tuple = ("xyz",)
    lattice_channels: tuple = ("xyz",)
    num_classes: int | None = None
    data_dir: str | None = None
    checkpoint: str | None = None
    output_dir: str | None = None
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 1
    max_iterations: int = 100
    rotate: bool = False
    rotate_full_sphere: bool = False
    translate: bool = False
    scale: bool = False
    color_jitter: bool = False
    translate_magnitude: float = 0.1
    scale_low: float = 0.9
    scale_high: float = 1.1
    color_jitter_magnitude: float = 0.05
    sample_size: int | None = None
    seed: int = 0
    ignore_label: int | None = None
    gravity_axis: str = "y"
    log_every: int = 1
    checkpoint_every: int = 0
    patience: int | None = None

    def __post_init__(self):
        lam = self.lambda0
        if isinstance(lam, (int, float)):
            lam = (float(lam),)
            object.__setattr__(self, "lambda0", lam)
        if len(lam) not in (1, 3) or any(v <= 0 for v in lam):
            raise ConfigError(f"lambda0 must be positive, got {lam}")

    def lattice_scale(self, dim):
        """Per-axis scale vector for a dim-dimensional lattice."""
        if len(self.lambda0) == 1:
            return [self.lambda0[0]] * dim
        if len(self.lambda0) != dim:
            raise ConfigError(
                f"lambda0 has {len(self.lambda0)} axes but the lattice features "
                f"have {dim}"
            )
        return list(self.lambda0)

    def train_config(self):
        from .train import TrainConfig

        names = {f.name for f in fields(TrainConfig)}
        kwargs = {k: getattr(self, k) for k in names}
        try:
            return TrainConfig(**kwargs)
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc


_OPTIONAL = frozenset(f.name for f in fields(RunConfig) if f.default is None)

_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config_text(text, source="<config>"):
    """Parse `key = value` lines into a {key: typed value} dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}: expected 'key = value'", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = _COMMENT.sub("", value).strip()
        if not key:
            raise ParseError(f"{source}: missing key before '='", line=lineno)
        if key not in _SCHEMA:
            raise ConfigError(f"{source}: unknown key {key!r} on line {lineno}")
        if key in values:
            raise ConfigError(f"{source}: duplicate key {key!r} on line {lineno}")
        if value:
            values[key] = _SCHEMA[key](value, key, lineno)
        elif key in _OPTIONAL:
            values[key] = None
        else:
            raise ParseError(f"{source}: empty value for {key!r}", line=lineno)
    return values


def load_run_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return RunConfig(**parse_config_text(text, source=str(path)))

"""Run configuration: a flat `key = value` text format.

Blank lines and lines starting with # are skipped, and a # that starts the
value or follows whitespace begins a comment running to the end of the line.
Every key must be known and appear at most once; each value is parsed by
its field's type. An empty value or `none` (any case) sets an optional key
(one whose default is None) to None. RunConfig is TrainConfig (the training
settings) plus the model, channel and path keys; it feeds training and the
command-line tools, with command-line flags taking precedence over file
values and file values over the dataclass defaults. This module does not
import NumPy.
"""

from __future__ import annotations

import math
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


def _to_str(text, key, lineno):
    return text


def _to_str_tuple(text, key, lineno):
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ParseError(f"{key}: expected a comma-separated list", line=lineno)
    return parts


def _to_positive_floats(text, key, lineno):
    values = tuple(_to_float(p, key, lineno) for p in _to_str_tuple(text, key, lineno))
    if not all(0 < v < math.inf for v in values):
        raise ParseError(f"{key}: values must be finite and positive, got {text!r}",
                         line=lineno)
    return values


def _to_lambda(text, key, lineno):
    values = _to_positive_floats(text, key, lineno)
    if len(values) not in (1, 3):
        raise ParseError(
            f"{key}: expected one value or an axis triple, got {len(values)} values",
            line=lineno,
        )
    return values


# Gravity axis name -> column of the positions.
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, batching, and augmentation settings.

    learning_rate accepts 0 so a frozen run can be used as a no-op baseline.
    batch_size counts clouds accumulated per optimizer step.
    """

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

    def __post_init__(self):
        if self.learning_rate < 0:
            raise InvalidInput("learning_rate must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise InvalidInput(f"{name} must lie in [0, 1), got {b!r}")
        if self.adam_epsilon <= 0:
            raise InvalidInput("adam_epsilon must be positive")
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be >= 1")
        if self.max_iterations < 0:
            raise InvalidInput("max_iterations must be >= 0")
        if self.sample_size is not None and self.sample_size < 1:
            raise InvalidInput("sample_size must be >= 1 when given")
        if not 0 < self.scale_low <= self.scale_high:
            raise InvalidInput("need 0 < scale_low <= scale_high")
        if self.translate_magnitude < 0 or self.color_jitter_magnitude < 0:
            raise InvalidInput("augmentation magnitudes must be >= 0")
        if self.gravity_axis not in _AXIS_INDEX:
            raise InvalidInput(f"gravity_axis must be one of x/y/z, got {self.gravity_axis!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise InvalidInput("seed must be a 64-bit unsigned integer")
        if self.log_every < 1:
            raise InvalidInput("log_every must be >= 1")
        if self.checkpoint_every < 0:
            raise InvalidInput("checkpoint_every must be >= 0")


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """Everything a command needs: model, channels, paths, train settings."""

    arch: str | None = None
    lambda0: tuple = (1.0,)
    feature_channels: tuple = ("xyz",)
    lattice_channels: tuple = ("xyz",)
    num_classes: int | None = None
    data_dir: str | None = None
    checkpoint: str | None = None
    output_dir: str | None = None

    def __post_init__(self):
        try:
            super().__post_init__()
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc
        lam = self.lambda0
        if isinstance(lam, (int, float)):
            lam = (float(lam),)
            object.__setattr__(self, "lambda0", lam)
        if len(lam) not in (1, 3) or not all(0 < v < math.inf for v in lam):
            raise ConfigError(f"lambda0 must be finite and positive, got {lam}")

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


# Value parser per key: by the field's annotation, less an optional key's
# "| None", except where a key needs more than its type says.
_BY_TYPE = {
    "str": _to_str,
    "int": _to_int,
    "float": _to_float,
    "bool": _to_bool,
}
_BY_KEY = {
    "lambda0": _to_lambda,
    "feature_channels": _to_str_tuple,
    "lattice_channels": _to_str_tuple,
}
_SCHEMA = {f.name: _BY_KEY.get(f.name) or _BY_TYPE[f.type.removesuffix(" | None")]
           for f in fields(RunConfig)}

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
        if key in _OPTIONAL and value.lower() in ("", "none"):
            values[key] = None
        elif value:
            values[key] = _SCHEMA[key](value, key, lineno)
        else:
            raise ParseError(f"{source}: empty value for {key!r}", line=lineno)
    return values


def load_run_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return RunConfig(**parse_config_text(text, source=str(path)))

"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  b"SPLT"
    version u32      1 = inference checkpoint, 2 = training state
    arch    u32 len + utf-8 architecture string (final width resolved)
    dim     u32      lattice dimensionality d_l
    lambda0 f64[dim] base lattice scale
    feats   u32 len + utf-8 comma-joined feature channel names
    latts   u32 len + utf-8 comma-joined lattice channel names
    classes u32
    norm    u8       BCL normalization flag: always 1 (every BCL normalizes);
                     any other value is refused
    count   u32      tensor count, then per tensor:
        name  u32 len + utf-8 (e.g. "003.weight")
        dtype u8   0 = f32, 1 = f64, 2 = i64
        ndim  u8, dims u32[ndim]
        data  raw little-endian payload
    The last tensor ends the file, and no tensor name repeats.

Version-1 files store every tensor as f32: loading upcasts to f64 exactly
and saving rounds once, so load(save(load(f))) is a fixed point and
save(load(f)) reproduces f bit for bit. Version-2 files (training state)
keep f64 tensors plus optimizer moments and the iteration counter, so a
resumed run continues bit-exactly.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInput, ParseError
from .lattice import LatticeConfig
from .network import NetworkSpec, named_parameters, parameter_shapes, parse_arch

MAGIC = b"SPLT"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_DTYPE_CODES = {v: k for k, v in _DTYPES.items()}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    """Reads the file's bytes front to back; every read is a view of them, so
    tensor payloads are not copied until they are converted."""

    def __init__(self, data: bytes, path: str):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise ParseError(f"{self.path}: truncated checkpoint")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        try:
            return str(self.take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{self.path}: string is not valid utf-8") from None


def _pack_tensor(name: str, arr: np.ndarray, dtype_code: int) -> tuple[bytes, np.ndarray]:
    """(head, payload) of one tensor; the payload is arr itself when arr
    already has the wire dtype and layout. Raises InvalidInput for a finite
    value that the cast to the wire dtype makes infinite; NaN and infinities
    are written as they are."""
    with np.errstate(over="ignore"):
        wire = np.ascontiguousarray(arr.astype(_DTYPES[dtype_code], copy=False))
    if (np.isinf(wire) & np.isfinite(arr)).any():
        raise InvalidInput(f"tensor {name!r} holds a finite value beyond the {wire.dtype} range")
    head = _pack_str(name) + struct.pack("<BB", dtype_code, wire.ndim)
    head += struct.pack(f"<{wire.ndim}I", *wire.shape) if wire.ndim else b""
    return head, wire


def _read_tensor(r: _Reader) -> tuple[str, np.ndarray]:
    name = r.string()
    code = r.u8()
    if code not in _DTYPES:
        raise ParseError(f"{r.path}: unknown tensor dtype code {code}")
    ndim = r.u8()
    shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim)) if ndim else ()
    dt = _DTYPES[code]
    # Python ints: a product of u32 dims must not wrap
    payload = r.take(math.prod(shape) * dt.itemsize)
    try:
        arr = np.frombuffer(payload, dtype=dt).reshape(shape)
    except ValueError:
        # more dims than NumPy allows, or an empty tensor with huge dims
        raise ParseError(f"{r.path}: tensor {name!r} has an impossible shape") from None
    return name, arr


def _read_tensors(r: _Reader) -> dict[str, np.ndarray]:
    """The tensor table that ends the file, by name; refuses a repeated name."""
    tensors = {}
    for _ in range(r.u32()):
        name, arr = _read_tensor(r)
        if name in tensors:
            raise ParseError(f"{r.path}: tensor {name!r} appears twice")
        tensors[name] = arr
    if r.pos != len(r.data):
        raise ParseError(f"{r.path}: trailing bytes after the last tensor")
    return tensors


def _header_bytes(
    version: int,
    spec: NetworkSpec,
    feature_channels: tuple[str, ...],
    lattice_channels: tuple[str, ...],
) -> bytes:
    out = MAGIC + struct.pack("<I", version)
    out += _pack_str(spec.arch)
    out += struct.pack("<I", spec.lattice.dim)
    out += np.asarray(spec.lattice.scale, dtype="<f8").tobytes()
    out += _pack_str(",".join(feature_channels))
    out += _pack_str(",".join(lattice_channels))
    out += struct.pack("<IB", spec.num_classes, 1)
    return out


def _tensor_items(params: list[dict]) -> list[tuple[str, np.ndarray]]:
    items = []
    for i, tensors in enumerate(params):
        for key in sorted(tensors):
            items.append((f"{i:03d}.{key}", tensors[key]))
    return items


def save_checkpoint(
    path,
    spec: NetworkSpec,
    params: list[dict],
    feature_channels=("xyz",),
    lattice_channels=("xyz",),
) -> None:
    """Write an inference checkpoint (version 1, f32 tensors); a finite value
    beyond the float32 range raises InvalidInput before any byte is written."""
    items = _tensor_items(params)
    parts = [_header_bytes(1, spec, tuple(feature_channels), tuple(lattice_channels)),
             struct.pack("<I", len(items))]
    for name, arr in items:
        parts += _pack_tensor(name, arr, 0)
    with Path(path).open("wb") as f:
        f.writelines(parts)


def _read_header(r: _Reader):
    if r.take(4) != MAGIC:
        raise ParseError(f"{r.path}: not a checkpoint (bad magic)")
    version = r.u32()
    if version not in (1, 2):
        raise ParseError(f"{r.path}: unsupported checkpoint version {version}")
    arch = r.string()
    dim = r.u32()
    lambda0 = np.frombuffer(r.take(8 * dim), dtype="<f8").copy()
    feats = tuple(s for s in r.string().split(",") if s)
    latts = tuple(s for s in r.string().split(",") if s)
    num_classes = r.u32()
    norm = r.u8()
    if norm != 1:
        raise ParseError(f"{r.path}: normalization flag must be 1, got {norm}")
    try:
        spec = parse_arch(arch, LatticeConfig(dim, lambda0), num_classes)
    except Exception as exc:
        raise ParseError(f"{r.path}: invalid architecture in checkpoint: {exc}") from exc
    return version, spec, feats, latts


def _assemble_params(spec: NetworkSpec, tensors: dict[str, np.ndarray], path: str,
                     shapes: list[dict] | None = None) -> list[dict]:
    """Per-layer finite float64 tensors, checked key for key and shape for shape
    against shapes: by default what parameter_shapes gives for the input
    width read from layer 0's weight (layer 0 is always a C or B layer)."""
    params: list[dict] = [dict() for _ in spec.layers]
    for name, arr in tensors.items():
        try:
            idx_s, key = name.split(".", 1)
            idx = int(idx_s)
        except ValueError:
            raise ParseError(f"{path}: malformed tensor name {name!r}") from None
        if not (0 <= idx < len(spec.layers)):
            raise ParseError(f"{path}: tensor {name!r} indexes a nonexistent layer")
        params[idx][key] = arr.astype(np.float64)
        if not np.isfinite(params[idx][key]).all():
            raise ParseError(f"{path}: tensor {name!r} holds a non-finite value")
    if shapes is None:
        weight = params[0].get("weight")
        if weight is None or weight.ndim < 2 or weight.shape[-2] < 1:
            raise ParseError(f"{path}: layer 0 has no usable weight tensor")
        shapes = parameter_shapes(spec, weight.shape[-2])
    for i, (got, want) in enumerate(zip(params, shapes)):
        if got.keys() != want.keys():
            raise ParseError(f"{path}: layer {i} has tensors {sorted(got)}, "
                             f"the architecture needs {sorted(want)}")
        for key, shape in want.items():
            if got[key].shape != shape:
                raise ParseError(f"{path}: tensor {i:03d}.{key} has shape "
                                 f"{got[key].shape}, the architecture needs {shape}")
    return params


def load_checkpoint(path):
    """Read a version-1 checkpoint.

    Returns (spec, params, feature_channels, lattice_channels); tensors come
    back as float64.
    """
    r = _Reader(Path(path).read_bytes(), str(path))
    version, spec, feats, latts = _read_header(r)
    if version != 1:
        raise ParseError(f"{r.path}: expected an inference checkpoint, got version {version}")
    return spec, _assemble_params(spec, _read_tensors(r), r.path), feats, latts


def save_train_state(
    path,
    spec: NetworkSpec,
    params: list[dict],
    moments_m: list[dict],
    moments_v: list[dict],
    adam_step: int,
    iteration: int,
    feature_channels=("xyz",),
    lattice_channels=("xyz",),
) -> None:
    """Write a version-2 training state: f64 tensors + optimizer moments."""
    groups = [("param", params), ("adam_m", moments_m), ("adam_v", moments_v)]
    items = [(f"{tag}.{n}", a) for tag, group in groups for n, a in _tensor_items(group)]
    parts = [_header_bytes(2, spec, tuple(feature_channels), tuple(lattice_channels)),
             struct.pack("<QQI", adam_step, iteration, len(items))]
    for name, arr in items:
        parts += _pack_tensor(name, arr, 1)
    with Path(path).open("wb") as f:
        f.writelines(parts)


def load_train_state(path):
    """Read a version-2 training state.

    Returns (spec, params, moments_m, moments_v, adam_step, iteration,
    feature_channels, lattice_channels).
    """
    r = _Reader(Path(path).read_bytes(), str(path))
    version, spec, feats, latts = _read_header(r)
    if version != 2:
        raise ParseError(f"{r.path}: expected a training state, got version {version}")
    adam_step = r.u64()
    iteration = r.u64()
    groups: dict[str, dict[str, np.ndarray]] = {"param": {}, "adam_m": {}, "adam_v": {}}
    for name, arr in _read_tensors(r).items():
        tag, _, rest = name.partition(".")
        if tag not in groups:
            raise ParseError(f"{r.path}: unexpected tensor group {tag!r}")
        groups[tag][rest] = arr
    params = _assemble_params(spec, groups["param"], r.path)
    moment_shapes: list[dict] = [{} for _ in params]
    for i, key, p in named_parameters(params):
        moment_shapes[i][key] = p.shape
    m = _assemble_params(spec, groups["adam_m"], r.path, moment_shapes)
    v = _assemble_params(spec, groups["adam_v"], r.path, moment_shapes)
    return spec, params, m, v, adam_step, iteration, feats, latts

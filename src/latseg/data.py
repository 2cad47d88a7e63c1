"""Point-cloud containers, ASCII file formats, and segmentation metrics.

A :class:`PointCloud` carries mandatory XYZ positions plus optional named
channels (normals, rgb, height, labels) and free-form extra scalar columns.
Two text formats are supported: ASCII PLY restricted to a fixed property
vocabulary, and a headered whitespace table ("xyz text"). Floats are written
with shortest round-trip precision so save/load is lossless for anything the
format can represent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .config import _AXIS_INDEX
from .errors import (
    ConfigError,
    EmptyEvaluation,
    EmptyInput,
    InvalidInput,
    ParseError,
    ShapeError,
    UnsupportedError,
)


# PLY property vocabulary. Anything else in a header is rejected.
_PLY_FLOAT_TYPES = frozenset({"float", "float32", "double", "float64"})
_PLY_INT_TYPES = frozenset(
    {"char", "uchar", "int8", "uint8", "short", "ushort", "int16", "uint16",
     "int", "uint", "int32", "uint32"}
)
_PLY_PROPERTIES = ("x", "y", "z", "nx", "ny", "nz", "red", "green", "blue",
                   "height", "label")


def _as_float_matrix(arr, name, cols):
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != cols:
        raise ShapeError(f"{name} must have shape (n, {cols}), got {out.shape}")
    return out


@dataclass
class PointCloud:
    """n points with optional per-point channels.

    Invariants enforced at construction: every channel has n rows, rgb lies
    in [0, 1], labels are integers. Arrays are stored as float64 / int64.
    """

    positions: np.ndarray
    normals: np.ndarray | None = None
    rgb: np.ndarray | None = None
    height: np.ndarray | None = None
    labels: np.ndarray | None = None
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.positions = _as_float_matrix(self.positions, "positions", 3)
        n = self.positions.shape[0]
        if self.normals is not None:
            self.normals = _as_float_matrix(self.normals, "normals", 3)
        if self.rgb is not None:
            self.rgb = _as_float_matrix(self.rgb, "rgb", 3)
            if self.rgb.size and (self.rgb.min() < 0.0 or self.rgb.max() > 1.0):
                raise InvalidInput("rgb values must lie in [0, 1]")
        if self.height is not None:
            self.height = np.asarray(self.height, dtype=np.float64).reshape(-1)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu":
                if not np.array_equal(labels, np.round(labels)):
                    raise InvalidInput("labels must be integers")
            self.labels = labels.astype(np.int64).reshape(-1)
        for key, value in list(self.extras.items()):
            self.extras[key] = np.asarray(value, dtype=np.float64).reshape(-1)
        for name, arr in self._channels():
            if arr.shape[0] != n:
                raise ShapeError(
                    f"channel {name!r} has {arr.shape[0]} rows, expected {n}"
                )

    def _channels(self):
        for name in ("normals", "rgb", "height", "labels"):
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr
        for name, arr in self.extras.items():
            yield name, arr

    @property
    def num_points(self):
        return self.positions.shape[0]

    def take(self, indices):
        """Row subset (or reorder) across every channel."""
        idx = np.asarray(indices)
        return PointCloud(
            positions=self.positions[idx],
            normals=None if self.normals is None else self.normals[idx],
            rgb=None if self.rgb is None else self.rgb[idx],
            height=None if self.height is None else self.height[idx],
            labels=None if self.labels is None else self.labels[idx],
            extras={k: v[idx] for k, v in self.extras.items()},
        )

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)

    def channel_matrix(self, names, gravity_axis="y"):
        """Stack named channels into an (n, d) float matrix.

        Recognized names: "xyz", "normals", "rgb", "height", or any extras
        key. A missing height channel is synthesized as distance above the
        cloud's lowest point along the gravity axis. Missing normals or rgb
        are an error; no estimation is performed.
        """
        if gravity_axis not in _AXIS_INDEX:
            raise ConfigError(f"unknown gravity axis {gravity_axis!r}")
        cols = []
        for name in names:
            if name == "xyz":
                cols.append(self.positions)
            elif name == "normals":
                if self.normals is None:
                    raise ConfigError("channel 'normals' requested but absent")
                cols.append(self.normals)
            elif name == "rgb":
                if self.rgb is None:
                    raise ConfigError("channel 'rgb' requested but absent")
                cols.append(self.rgb)
            elif name == "height":
                if self.height is not None:
                    cols.append(self.height[:, None])
                else:
                    up = self.positions[:, _AXIS_INDEX[gravity_axis]]
                    base = up.min() if up.size else 0.0
                    cols.append((up - base)[:, None])
            elif name in self.extras:
                cols.append(self.extras[name][:, None])
            else:
                raise ConfigError(f"unknown channel {name!r}")
        if not cols:
            raise ConfigError("no channels requested")
        return np.hstack(cols)


# ------------------------------------------------------------------ floats

def _fmt(value):
    # repr of a Python float is the shortest string that round-trips
    return repr(float(value))


# --------------------------------------------------------------------- PLY

def _cloud_to_columns(cloud):
    """Ordered (name, values, kind) triples for serialization."""
    cols = [("x", cloud.positions[:, 0], "f"),
            ("y", cloud.positions[:, 1], "f"),
            ("z", cloud.positions[:, 2], "f")]
    if cloud.normals is not None:
        for i, name in enumerate(("nx", "ny", "nz")):
            cols.append((name, cloud.normals[:, i], "f"))
    if cloud.rgb is not None:
        for i, name in enumerate(("red", "green", "blue")):
            cols.append((name, cloud.rgb[:, i], "c"))
    if cloud.height is not None:
        cols.append(("height", cloud.height, "f"))
    if cloud.labels is not None:
        cols.append(("label", cloud.labels, "i"))
    return cols


def save_ply(cloud, path):
    """Write ASCII PLY. Colors quantize to 0..255; extras are not storable."""
    if cloud.extras:
        raise UnsupportedError(
            "PLY cannot store extra channels: " + ", ".join(sorted(cloud.extras))
        )
    cols = _cloud_to_columns(cloud)
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.num_points}"]
    for name, _, kind in cols:
        ptype = {"f": "double", "c": "uchar", "i": "int"}[kind]
        header.append(f"property {ptype} {name}")
    header.append("end_header")

    rendered = []
    for name, values, kind in cols:
        if kind == "f":
            rendered.append([_fmt(v) for v in values])
        elif kind == "c":
            bytes_ = np.clip(np.rint(values * 255.0), 0, 255).astype(np.int64)
            rendered.append([str(v) for v in bytes_])
        else:
            rendered.append([str(int(v)) for v in values])
    lines = header + [" ".join(row) for row in zip(*rendered)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_ply_header(lines):
    """Returns (property list, vertex count, index of first data line)."""
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file: missing 'ply' magic", line=1)
    props = []
    count = None
    saw_format = False
    i = 1
    while i < len(lines):
        tokens = lines[i].split()
        lineno = i + 1
        i += 1
        if not tokens or tokens[0] == "comment":
            continue
        if tokens[0] == "format":
            if tokens[1:] != ["ascii", "1.0"]:
                raise ParseError("only 'format ascii 1.0' is supported", line=lineno)
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3 or tokens[1] != "vertex":
                raise ParseError(
                    f"unsupported element {' '.join(tokens[1:2])!r}", line=lineno
                )
            if count is not None:
                raise ParseError("multiple vertex elements", line=lineno)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError("bad vertex count", line=lineno) from None
            if count < 0:
                raise ParseError("negative vertex count", line=lineno)
        elif tokens[0] == "property":
            if count is None:
                raise ParseError("property before any element", line=lineno)
            if len(tokens) != 3:
                raise ParseError("list properties are not supported", line=lineno)
            ptype, name = tokens[1], tokens[2]
            if name not in _PLY_PROPERTIES:
                raise ParseError(f"unknown property {name!r}", line=lineno)
            if ptype not in _PLY_FLOAT_TYPES | _PLY_INT_TYPES:
                raise ParseError(f"unsupported property type {ptype!r}", line=lineno)
            props.append((name, ptype))
        elif tokens[0] == "end_header":
            if not saw_format:
                raise ParseError("missing format line", line=lineno)
            if count is None:
                raise ParseError("missing vertex element", line=lineno)
            if not props:
                raise ParseError("vertex element has no properties", line=lineno)
            return props, count, i
        else:
            raise ParseError(f"unexpected header line {tokens[0]!r}", line=lineno)
    raise ParseError("header never terminated with end_header", line=len(lines))


def _columns_to_cloud(names, columns, types=None):
    """Assemble a PointCloud from named 1-D columns, validating groups."""
    have = dict(zip(names, columns))
    for axis in ("x", "y", "z"):
        if axis not in have:
            raise ParseError(f"missing required property {axis!r}")
    positions = np.column_stack([have["x"], have["y"], have["z"]])

    def group(keys, label):
        present = [k for k in keys if k in have]
        if not present:
            return None
        if len(present) != len(keys):
            missing = sorted(set(keys) - set(present))
            raise ParseError(f"incomplete {label} channels, missing {missing}")
        return np.column_stack([have[k] for k in keys])

    normals = group(("nx", "ny", "nz"), "normal")
    rgb = group(("red", "green", "blue"), "color")
    if rgb is not None and types is not None:
        # integer-typed colors arrive as 0..255; float colors are direct
        scaled = []
        for i, key in enumerate(("red", "green", "blue")):
            if types[key] in _PLY_INT_TYPES:
                scaled.append(rgb[:, i] / 255.0)
            else:
                scaled.append(rgb[:, i])
        rgb = np.column_stack(scaled)
    height = have.get("height")
    labels = have.get("label")
    if labels is not None and not np.array_equal(labels, np.round(labels)):
        raise ParseError("label column contains non-integers")
    known = {"x", "y", "z", "nx", "ny", "nz", "red", "green", "blue",
             "height", "label"}
    extras = {k: v for k, v in have.items() if k not in known}
    try:
        return PointCloud(positions, normals=normals, rgb=rgb, height=height,
                          labels=None if labels is None else labels.astype(np.int64),
                          extras=extras)
    except (InvalidInput, ShapeError) as exc:
        raise ParseError(str(exc)) from exc


def _parse_rows(lines, start, count, width, path_hint):
    """Parse `count` whitespace rows of `width` columns starting at `start`."""
    rows = []
    lineno = start
    for offset in range(start, len(lines)):
        if len(rows) == count:
            lineno = offset
            break
        text = lines[offset].strip()
        if not text:
            if rows:
                raise ParseError("blank line inside data section", line=offset + 1)
            continue
        tokens = text.split()
        if len(tokens) != width:
            raise ParseError(
                f"expected {width} columns, found {len(tokens)}", line=offset + 1
            )
        rows.append(tokens)
        lineno = offset + 1
    if len(rows) != count:
        raise ParseError(
            f"{path_hint}: expected {count} data rows, found {len(rows)}",
            line=len(lines),
        )
    for offset in range(lineno, len(lines)):
        if lines[offset].strip():
            raise ParseError("trailing content after data rows", line=offset + 1)
    if not rows:
        return np.zeros((0, width))
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        for i, row in enumerate(rows):
            for tok in row:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(
                        f"bad numeric literal {tok!r}", line=start + i + 1
                    ) from None
        raise


def load_ply(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    props, count, data_start = _parse_ply_header(lines)
    names = [name for name, _ in props]
    if len(set(names)) != len(names):
        raise ParseError("duplicate property name in header")
    table = _parse_rows(lines, data_start, count, len(props), str(path))
    types = {name: ptype for name, ptype in props}
    for j, (name, ptype) in enumerate(props):
        if ptype in _PLY_INT_TYPES and count:
            if not np.array_equal(table[:, j], np.round(table[:, j])):
                raise ParseError(f"non-integer value in integer property {name!r}")
    return _columns_to_cloud(names, [table[:, j] for j in range(len(props))], types)


# --------------------------------------------------------------- XYZ text

def save_xyz(cloud, path):
    """Headered whitespace table; first line names the columns."""
    cols = [(name, values, kind) for name, values, kind in _cloud_to_columns(cloud)]
    for name in sorted(cloud.extras):
        cols.append((name, cloud.extras[name], "f"))
    header = "# " + " ".join(name for name, _, _ in cols)
    rendered = []
    for _, values, kind in cols:
        if kind == "i":
            rendered.append([str(int(v)) for v in values])
        else:
            # colors stay in [0, 1] here; the text format is float-native
            rendered.append([_fmt(v) for v in values])
    lines = [header] + [" ".join(row) for row in zip(*rendered)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_xyz(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.strip():
            header_idx = i
            break
    if header_idx is None:
        raise ParseError(f"{path}: empty file", line=1)
    header = lines[header_idx].strip()
    if header.startswith("#"):
        header = header[1:]
    names = header.split()
    if not names:
        raise ParseError("empty header line", line=header_idx + 1)

    def _is_number(tok):
        try:
            float(tok)
        except ValueError:
            return False
        return True

    if all(_is_number(tok) for tok in names):
        raise ParseError(
            "first line must name the columns, not contain data",
            line=header_idx + 1,
        )
    if len(set(names)) != len(names):
        raise ParseError("duplicate column name in header", line=header_idx + 1)
    body = [l for l in lines[header_idx + 1:]]
    count = sum(1 for l in body if l.strip())
    table = _parse_rows(body, 0, count, len(names), str(path))
    if "label" in names:
        j = names.index("label")
        if count and not np.array_equal(table[:, j], np.round(table[:, j])):
            raise ParseError("non-integer value in label column")
    return _columns_to_cloud(names, [table[:, j] for j in range(len(names))])


def _format_of(path, format=None):
    if format is not None:
        return format
    text = str(path).lower()
    if text.endswith(".ply"):
        return "ply_ascii"
    if text.endswith(".xyz") or text.endswith(".txt"):
        return "xyz_text"
    raise UnsupportedError(f"cannot infer format from {path!r}")


def load_cloud(path, format=None):
    fmt = _format_of(path, format)
    if fmt == "ply_ascii":
        return load_ply(path)
    if fmt == "xyz_text":
        return load_xyz(path)
    raise UnsupportedError(f"unknown format {fmt!r}")


def save_cloud(cloud, path, format=None):
    fmt = _format_of(path, format)
    if fmt == "ply_ascii":
        save_ply(cloud, path)
    elif fmt == "xyz_text":
        save_xyz(cloud, path)
    else:
        raise UnsupportedError(f"unknown format {fmt!r}")


# ----------------------------------------------------------------- metrics

@dataclass(frozen=True)
class IoUReport:
    """Per-class intersection-over-union plus the unweighted average.

    Classes whose union is empty carry no information and are excluded
    from both the table and the average.
    """

    per_class: dict[int, float]
    average: float
    intersections: dict[int, int]
    unions: dict[int, int]

    def csv_rows(self):
        rows = [f"{c},{self.per_class[c]!r}" for c in sorted(self.per_class)]
        rows.append(f"average,{self.average!r}")
        return rows

    def table(self):
        lines = ["class  iou"]
        for c in sorted(self.per_class):
            lines.append(f"{c:>5}  {self.per_class[c]:.4f}")
        lines.append(f"  avg  {self.average:.4f}")
        return "\n".join(lines)


def compute_iou(pred, gt, num_classes=None, ignore_label=None):
    """IoU per class over two label vectors.

    Ground-truth rows equal to ignore_label are dropped before counting,
    predictions included. Raises EmptyEvaluation when nothing remains.
    """
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape[0] != gt.shape[0]:
        raise ShapeError(
            f"prediction has {pred.shape[0]} labels, ground truth has {gt.shape[0]}"
        )
    if ignore_label is not None:
        keep = gt != ignore_label
        pred, gt = pred[keep], gt[keep]
    if pred.shape[0] == 0:
        raise EmptyEvaluation("no evaluable points")
    if num_classes is None:
        classes = np.union1d(np.unique(pred), np.unique(gt))
    else:
        classes = np.arange(num_classes)
    per_class, inter_of, union_of = {}, {}, {}
    for c in classes:
        p = pred == c
        g = gt == c
        inter = int(np.count_nonzero(p & g))
        union = int(np.count_nonzero(p | g))
        if union == 0:
            continue
        per_class[int(c)] = inter / union
        inter_of[int(c)] = inter
        union_of[int(c)] = union
    if not per_class:
        raise EmptyEvaluation("no class has a nonempty union")
    average = sum(per_class.values()) / len(per_class)
    return IoUReport(per_class, average, inter_of, union_of)


@dataclass(frozen=True)
class ShapeNetScores:
    class_average: float
    instance_average: float
    per_category: dict[str, float]
    warnings: tuple[str, ...]


def shapenet_miou(predictions, ground_truths, categories, ignore_label=None):
    """Category-grouped mean IoU over a list of objects.

    Each object's mIoU is the plain average from compute_iou. Objects are
    averaged within their category; class_average is the mean over
    categories and instance_average the mean over all scored objects.
    """
    if not (len(predictions) == len(ground_truths) == len(categories)):
        raise ShapeError(
            "predictions, ground truths, and categories must align: "
            f"{len(predictions)}/{len(ground_truths)}/{len(categories)}"
        )
    if not predictions:
        raise EmptyEvaluation("no objects to evaluate")
    by_category, warnings, instance_scores = {}, [], []
    for i, (pred, gt, cat) in enumerate(zip(predictions, ground_truths, categories)):
        try:
            report = compute_iou(pred, gt, ignore_label=ignore_label)
        except EmptyEvaluation:
            warnings.append(f"object {i} ({cat}): nothing to evaluate, skipped")
            continue
        by_category.setdefault(cat, []).append(report.average)
        instance_scores.append(report.average)
    if not instance_scores:
        raise EmptyEvaluation("every object was skipped")
    per_category = {cat: float(np.mean(vals)) for cat, vals in sorted(by_category.items())}
    class_average = float(np.mean(list(per_category.values())))
    instance_average = float(np.mean(instance_scores))
    return ShapeNetScores(class_average, instance_average, per_category, tuple(warnings))


# ------------------------------------------------------------------ splits

def split_dataset(num_items, fractions, seed):
    """Deterministic disjoint index split with cumulative rounding."""
    if num_items <= 0:
        raise EmptyInput("cannot split an empty dataset")
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0 for f in fractions):
        raise InvalidInput("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidInput(f"fractions sum to {sum(fractions)!r}, expected 1")
    perm = np.random.default_rng(seed).permutation(num_items)
    bounds = np.rint(np.cumsum(fractions) * num_items).astype(np.int64)
    bounds[-1] = num_items
    out, start = [], 0
    for b in bounds:
        out.append(perm[start:b].copy())
        start = b
    return out


# --------------------------------------------------------- synthetic data

def synthetic_two_blob_dataset(num_clouds, points_per_cloud, seed=0,
                               separation=3.0, sigma=0.35, jitter=0.1):
    """Toy segmentation set: two Gaussian clusters labeled by cluster.

    Every cloud gets its own uniform offset in [-jitter, jitter]^3 so the
    clouds are not identical; rows are shuffled so labels are interleaved.
    """
    if num_clouds <= 0 or points_per_cloud < 2:
        raise InvalidInput("need at least one cloud of at least two points")
    rng = np.random.default_rng(seed)
    half = separation / 2.0
    clouds = []
    for _ in range(num_clouds):
        n0 = points_per_cloud // 2
        n1 = points_per_cloud - n0
        a = rng.normal(loc=(-half, 0.0, 0.0), scale=sigma, size=(n0, 3))
        b = rng.normal(loc=(half, 0.0, 0.0), scale=sigma, size=(n1, 3))
        pts = np.vstack([a, b]) + rng.uniform(-jitter, jitter, size=3)
        labels = np.concatenate([np.zeros(n0, np.int64), np.ones(n1, np.int64)])
        order = rng.permutation(points_per_cloud)
        clouds.append(PointCloud(pts[order], labels=labels[order]))
    return clouds

"""Point-cloud containers, ASCII file formats, and segmentation metrics.

A :class:`PointCloud` carries mandatory XYZ positions plus optional named
channels (normals, rgb, height, labels) and free-form extra scalar columns.
One table, ``_COLUMNS``, names those channels and the file columns that hold
them; the PLY vocabulary, row subsets, feature matrices and both codecs read
it, and any other column is an extra.
Two text formats are supported: ASCII PLY restricted to a fixed property
vocabulary, and a headered whitespace table ("xyz text"). They share one
codec: one writer, and one body parser whose errors carry the file's path
and line number.
The parser reads a plain table through np.loadtxt and falls back to
splitting every line with str.split, which accepts what float() does and
finds the faulty line, whenever loadtxt refuses the table.
Floats are written with shortest round-trip precision so save/load is
lossless for anything the format can represent. The writer turns 4096 rows
at a time into Python numbers and formats each block with one `%` format.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from .config import _AXIS_INDEX
from .errors import (
    ConfigError,
    EmptyEvaluation,
    InvalidInput,
    ParseError,
    ShapeError,
    UnsupportedError,
)


# Each named PointCloud channel and the file columns holding it, in file
# order. Any other column is an extra.
_COLUMNS = {"positions": ("x", "y", "z"), "normals": ("nx", "ny", "nz"),
            "rgb": ("red", "green", "blue"), "height": ("height",), "labels": ("label",)}
# channel_matrix's name for each named channel it reads; labels are no feature
_FEATURES = {"xyz" if name == "positions" else name: name
             for name in _COLUMNS if name != "labels"}

# PLY property vocabulary. Anything else in a header is rejected.
_PLY_FLOAT_TYPES = frozenset({"float", "float32", "double", "float64"})
_PLY_INT_TYPES = frozenset(
    {"char", "uchar", "int8", "uint8", "short", "ushort", "int16", "uint16",
     "int", "uint", "int32", "uint32"}
)
_PLY_PROPERTIES = frozenset(col for cols in _COLUMNS.values() for col in cols)


def _is_integral(values):
    """True when every value is an integer that int64 holds (so not NaN or inf)."""
    return bool(np.all(np.abs(values) < 2.0**63)) and np.array_equal(values, np.round(values))


def _as_float_matrix(arr, name, cols):
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] != cols:
        raise ShapeError(f"{name} must have shape (n, {cols}), got {out.shape}")
    return out


@dataclass
class PointCloud:
    """n points with optional per-point channels.

    Invariants enforced at construction: every channel has n rows, rgb lies
    in [0, 1], labels are integers that int64 holds. Arrays are stored as
    float64 / int64.
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
            if not np.all((self.rgb >= 0.0) & (self.rgb <= 1.0)):  # refuses NaN too
                raise InvalidInput("rgb values must lie in [0, 1]")
        if self.height is not None:
            self.height = np.asarray(self.height, dtype=np.float64).reshape(-1)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu" and not _is_integral(labels):
                raise InvalidInput("labels must be integers within the int64 range")
            self.labels = labels.astype(np.int64).reshape(-1)
        for key, value in list(self.extras.items()):
            self.extras[key] = np.asarray(value, dtype=np.float64).reshape(-1)
        for name, arr in [*self._channels(), *self.extras.items()]:
            if arr.shape[0] != n:
                raise ShapeError(
                    f"channel {name!r} has {arr.shape[0]} rows, expected {n}"
                )

    def _channels(self):
        """(name, array) of each named channel present, in table order."""
        for name in _COLUMNS:
            arr = getattr(self, name)
            if arr is not None:
                yield name, arr

    @property
    def num_points(self):
        return self.positions.shape[0]

    def take(self, indices):
        """Row subset (or reorder) across every channel."""
        idx = np.asarray(indices)
        return self.replace(**{name: arr[idx] for name, arr in self._channels()},
                            extras={k: v[idx] for k, v in self.extras.items()})

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
            field_name = _FEATURES.get(name)
            arr = self.extras.get(name) if field_name is None else getattr(self, field_name)
            if arr is not None:
                cols.append(arr if arr.ndim == 2 else arr[:, None])
            elif name == "height":
                up = self.positions[:, _AXIS_INDEX[gravity_axis]]
                base = up.min() if up.size else 0.0
                cols.append((up - base)[:, None])
            elif name == "labels":
                raise ConfigError("labels are not a feature channel")
            elif field_name is None:
                raise ConfigError(f"unknown channel {name!r}")
            else:
                raise ConfigError(f"channel {name!r} requested but absent")
        if not cols:
            raise ConfigError("no channels requested")
        return np.hstack(cols)

    def with_channels(self, names, matrix):
        """Copy with the named channels set from matrix's columns.

        The inverse of channel_matrix: names are read the same way, each
        takes as many columns as channel_matrix gives it, and a name outside
        the vocabulary becomes (or replaces) an extra.
        """
        named, extras, col = {}, dict(self.extras), 0
        for name in names:
            field_name = _FEATURES.get(name)
            width = 1 if field_name is None else len(_COLUMNS[field_name])
            if field_name is None:
                extras[name] = matrix[:, col]
            else:
                named[field_name] = matrix[:, col:col + width]
            col += width
        if "rgb" in named:
            # colours blended or projected from [0, 1] can round a hair past it
            named["rgb"] = np.clip(named["rgb"], 0.0, 1.0)
        return self.replace(**named, extras=extras)


# ------------------------------------------------------------ text tables

# Rows that _write_table converts to text at a time.
_WRITE_ROWS = 4096

# Property type that save_ply declares for each column; every other is double.
_PLY_WRITE_TYPES = {**dict.fromkeys(_COLUMNS["rgb"], "uchar"),
                    **dict.fromkeys(_COLUMNS["labels"], "int")}


def _cloud_to_columns(cloud, ply):
    """Ordered (name, values) pairs holding exactly what is written.

    PLY quantizes colors to 0..255; xyz text keeps them in [0, 1] and
    appends the extras in name order.
    """
    cols = []
    for name, arr in cloud._channels():
        if ply and name == "rgb":
            arr = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
        cols += zip(_COLUMNS[name], arr.reshape(-1, len(_COLUMNS[name])).T)
    if not ply:
        cols += sorted(cloud.extras.items())
    return cols


def _write_table(path, header_lines, columns):
    """Write the header lines, then the (name, values) columns as rows."""
    num_rows = len(columns[0][1])  # positions come first
    k = len(columns)
    row = " ".join(["%r"] * k) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header_lines) + "\n")
        # a block of rows at a time, so neither the text nor the Python
        # numbers of the whole table are held at once. tolist gives Python
        # floats and ints, laid out row-major for one % format per block;
        # %r of a float is its repr, the shortest string that round-trips
        for start in range(0, num_rows, _WRITE_ROWS):
            m = min(_WRITE_ROWS, num_rows - start)
            cells = [None] * (m * k)
            for j, (_, values) in enumerate(columns):
                cells[j::k] = values[start:start + m].tolist()
            fh.write(row * m % tuple(cells))


def _read_lines(path):
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return fh.read().splitlines()


@contextlib.contextmanager
def _naming(path):
    """Lead the message of any ParseError raised inside with the file's path."""
    try:
        yield
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _is_number(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _load_fast(lines, start, count, width):
    """The (count, width) table from lines[start] on through np.loadtxt, or None.

    Blank lines before the first row are skipped; count=None takes every
    line up to the last non-blank one. None means "not a plain table": it
    is empty, trailing content follows it, loadtxt refuses a token, or the
    shape differs (loadtxt drops blank lines, so one inside the data loses
    a row). loadtxt accepts a subset of what float() does (not "1_0" or
    non-ASCII digits), bit-equal on what it accepts.
    """
    first, end = start, len(lines)
    while first < end and not lines[first].strip():
        first += 1
    if count is None:
        while end > first and not lines[end - 1].strip():
            end -= 1
        count = end - first
    else:
        end = first + count
        if end > len(lines) or any(map(str.strip, lines[end:])):
            return None
    if not count:  # loadtxt warns on empty input
        return None
    try:
        table = np.loadtxt(lines[first:end], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (count, width) else None


def _parse_table(lines, start, count, width):
    """Parse the data rows from lines[start] on into a (count, width) array.

    Blank lines before the first row are skipped; count=None takes every
    non-blank line as a row. A plain table parses through _load_fast; any
    other falls back to splitting every line, and the first structural
    fault in file order is reported with its file line number.
    """
    table = _load_fast(lines, start, count, width)
    if table is not None:
        return table
    rows = list(map(str.split, lines))
    sizes = np.fromiter(map(len, rows), np.int64, len(rows))
    filled = start + np.flatnonzero(sizes[start:])
    first = int(filled[0]) if filled.size else len(rows)
    if count is None:
        count = filled.size
    end = first + count
    bad = first + np.flatnonzero(sizes[first:end] != width)
    if bad.size:
        i = int(bad[0])
        if not sizes[i]:
            raise ParseError("blank line inside data section", line=i + 1)
        raise ParseError(f"expected {width} columns, found {sizes[i]}", line=i + 1)
    if end > len(rows):
        raise ParseError(f"expected {count} data rows, found "
                         f"{len(rows) - first}", line=len(rows))
    extra = end + np.flatnonzero(sizes[end:])
    if extra.size:
        raise ParseError("trailing content after data rows", line=int(extra[0]) + 1)
    body = rows[first:end]
    try:
        return np.array(body, dtype=np.float64).reshape(count, width)
    except ValueError:
        for line, row in enumerate(body, first + 1):
            for tok in row:
                if not _is_number(tok):
                    raise ParseError(f"bad numeric literal {tok!r}", line=line) from None
        raise


def _columns_to_cloud(names, lines, start, count, types=None, header_line=None):
    """Parse the rows under a header naming `names` into a PointCloud.

    `types` maps each name to its PLY property type. None means xyz text.
    Faults are reported in this order: duplicate names, rows, integer PLY
    properties other than label, missing or incomplete channel groups, then
    PointCloud's checks (labels and colours).
    """
    ply = types is not None
    if len(set(names)) != len(names):
        noun = "property" if ply else "column"
        raise ParseError(f"duplicate {noun} name in header", line=header_line)
    table = _parse_table(lines, start, count, len(names))
    have = dict(zip(names, table.T))
    for name in names:
        if not ply or types[name] not in _PLY_INT_TYPES:
            continue
        if name not in _COLUMNS["labels"] and not _is_integral(have[name]):
            raise ParseError(f"non-integer or out-of-range value in integer property {name!r}")
        if name in _COLUMNS["rgb"]:
            have[name] = have[name] / 255.0  # integer colors arrive as 0..255
    channels = {}
    for name, keys in _COLUMNS.items():
        missing = [k for k in keys if k not in have]
        if name == "positions" and missing:
            raise ParseError(f"missing required property {missing[0]!r}")
        if len(missing) == len(keys):
            continue
        if missing:
            noun = {"normals": "normal", "rgb": "color"}[name]
            raise ParseError(f"incomplete {noun} channels, missing {sorted(missing)}")
        # a single column passes through as the view it is
        channels[name] = (np.column_stack([have[k] for k in keys]) if len(keys) > 1
                          else have[keys[0]])
    extras = {k: v for k, v in have.items() if k not in _PLY_PROPERTIES}
    try:
        # PointCloud refuses a non-integer label and a colour outside [0, 1]
        return PointCloud(**channels, extras=extras)
    except (InvalidInput, ShapeError) as exc:
        raise ParseError(str(exc)) from exc


# --------------------------------------------------------------------- PLY

def save_ply(cloud, path):
    """Write ASCII PLY. Colors quantize to 0..255; extras are not storable."""
    if cloud.extras:
        raise UnsupportedError(
            "PLY cannot store extra channels: " + ", ".join(sorted(cloud.extras))
        )
    cols = _cloud_to_columns(cloud, ply=True)
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.num_points}"]
    header += [f"property {_PLY_WRITE_TYPES.get(name, 'double')} {name}"
               for name, _ in cols]
    _write_table(path, header + ["end_header"], cols)


def _parse_ply_header(lines):
    """Returns (property list, vertex count, index of first data line)."""
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file: missing 'ply' magic", line=1)
    props = []
    count = None
    saw_format = False
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split()
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
            return props, count, lineno  # lineno indexes the first data line
        else:
            raise ParseError(f"unexpected header line {tokens[0]!r}", line=lineno)
    raise ParseError("header never terminated with end_header", line=len(lines))


def load_ply(path):
    lines = _read_lines(path)
    with _naming(path):
        props, count, data_start = _parse_ply_header(lines)
        names = [name for name, _ in props]
        return _columns_to_cloud(names, lines, data_start, count, dict(props))


# --------------------------------------------------------------- XYZ text

def save_xyz(cloud, path):
    """Headered whitespace table; first line names the columns."""
    cols = _cloud_to_columns(cloud, ply=False)
    header = "# " + " ".join(name for name, _ in cols)
    _write_table(path, [header], cols)


def load_xyz(path):
    lines = _read_lines(path)
    with _naming(path):
        header_idx = next((i for i, line in enumerate(lines) if line.strip()), None)
        if header_idx is None:
            raise ParseError("empty file", line=1)
        names = lines[header_idx].strip().removeprefix("#").split()
        if not names:
            raise ParseError("empty header line", line=header_idx + 1)
        if all(map(_is_number, names)):
            raise ParseError(
                "first line must name the columns, not contain data",
                line=header_idx + 1,
            )
        return _columns_to_cloud(names, lines, header_idx + 1, None,
                                 header_line=header_idx + 1)


# (load, save) per lower-case file suffix
_CODECS = {".ply": (load_ply, save_ply), ".xyz": (load_xyz, save_xyz),
          ".txt": (load_xyz, save_xyz)}


def _codec(path):
    """(load, save) of the format the path's suffix names."""
    codec = _CODECS.get(os.path.splitext(path)[1].lower())
    if codec is None:
        raise UnsupportedError(f"cannot infer format from {path!r}")
    return codec


def load_cloud(path):
    return _codec(path)[0](path)


def save_cloud(cloud, path):
    _codec(path)[1](cloud, path)


# ----------------------------------------------------------------- metrics

@dataclass(frozen=True)
class IoUReport:
    """Per-class intersection-over-union plus the unweighted average.

    Every class that occurs in the prediction or the ground truth has a
    nonempty union, so each one is in the table and the average.
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


def compute_iou(pred, gt, ignore_label=None):
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
    per_class, inter_of, union_of = {}, {}, {}
    for c in np.union1d(np.unique(pred), np.unique(gt)):
        p = pred == c
        g = gt == c
        inter = int(np.count_nonzero(p & g))
        union = int(np.count_nonzero(p | g))
        per_class[int(c)] = inter / union
        inter_of[int(c)] = inter
        union_of[int(c)] = union
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


# --------------------------------------------------------- synthetic data

def synthetic_two_blob_dataset(num_clouds, points_per_cloud, seed=0):
    """Toy segmentation set: two Gaussian clusters labeled by cluster.

    The clusters have standard deviation 0.35 and centres 3 apart on x.
    Every cloud gets its own uniform offset in [-0.1, 0.1]^3 so the clouds
    are not identical; rows are shuffled so labels are interleaved.
    """
    if num_clouds <= 0 or points_per_cloud < 2:
        raise InvalidInput("need at least one cloud of at least two points")
    rng = np.random.default_rng(seed)
    clouds = []
    for _ in range(num_clouds):
        n0 = points_per_cloud // 2
        n1 = points_per_cloud - n0
        a = rng.normal(loc=(-1.5, 0.0, 0.0), scale=0.35, size=(n0, 3))
        b = rng.normal(loc=(1.5, 0.0, 0.0), scale=0.35, size=(n1, 3))
        pts = np.vstack([a, b]) + rng.uniform(-0.1, 0.1, size=3)
        labels = np.concatenate([np.zeros(n0, np.int64), np.ones(n1, np.int64)])
        order = rng.permutation(points_per_cloud)
        clouds.append(PointCloud(pts[order], labels=labels[order]))
    return clouds

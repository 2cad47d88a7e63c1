"""The benchmark's three workloads: input generation, op command lines and
output checks.

Inputs are written by the benchmark's own PLY and checkpoint writers, from
NumPy generators seeded by the workload seed, so the bytes a run feeds the
program depend only on this file and the seed, never on the program under
test. Outputs are read back with the benchmark's own PLY reader.

Every workload has one fixed warm-up input that does not depend on the seed.
The warm-up op runs on it at every set-up, and its output is checked against
reference values recorded in reference.json. Timed ops get input number
0, 1, 2, ... of the seed, and traced ops inputs of a stream of their own, so
no op sees an input an earlier op saw.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Stream tags keep the warm-up input, the timed and traced inputs and the
# held-out set on disjoint generator streams whatever the seed.
_WARMUP, _TIMED, _HELD_OUT, _MODEL, _TRACED = 0, 1, 2, 3, 4


def rng_for(stream, workload, seed=0, index=0):
    return np.random.default_rng((stream, workload, seed, index))


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def digest_files(paths, work):
    """sha256 over the names and bytes of an input's files, with the run's
    work directory, which config files name, written as <work>."""
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes().replace(str(work).encode(), b"<work>"))
    return h.hexdigest()


# ------------------------------------------------------------------ PLY


def write_ply(path, columns):
    """ASCII PLY with one vertex element; columns is [(name, type, values)].

    Doubles are written with 17 significant digits, so they read back
    bit for bit.
    """
    n = len(columns[0][2])
    head = ["ply", "format ascii 1.0", f"element vertex {n}"]
    head += [f"property {ptype} {name}" for name, ptype, _ in columns]
    head.append("end_header")
    fmt = " ".join("%.17g" if ptype == "double" else "%d" for _, ptype, _ in columns)
    table = np.column_stack([np.asarray(v, dtype=np.float64) for _, _, v in columns])
    body = "\n".join(fmt % tuple(row) for row in table.tolist())
    Path(path).write_text("\n".join(head) + "\n" + body + "\n", encoding="ascii")


def read_ply(path):
    """{property: float64 column} and {property: type} of an ASCII PLY."""
    text = Path(path).read_text(encoding="ascii")
    header, sep, body = text.partition("end_header\n")
    if not sep:
        raise ValueError(f"{path}: no end_header")
    lines = header.splitlines()
    if not lines or lines[0] != "ply" or "format ascii 1.0" not in lines:
        raise ValueError(f"{path}: not an ASCII PLY file")
    count, props = None, []
    for line in lines:
        tok = line.split()
        if tok[:2] == ["element", "vertex"]:
            count = int(tok[2])
        elif tok and tok[0] == "property":
            props.append((tok[2], tok[1]))
    values = np.array(body.split(), dtype=np.float64)
    if count is None or values.size != count * len(props):
        raise ValueError(f"{path}: expected {count} rows of {len(props)} values")
    table = values.reshape(count, len(props))
    return ({name: table[:, j] for j, (name, _) in enumerate(props)},
            dict(props))


def rgb_of(columns, types):
    """rgb in [0, 1] the way the program reads it: integer colors / 255."""
    rgb = np.column_stack([columns[k] for k in ("red", "green", "blue")])
    if types["red"] in ("float", "float32", "double", "float64"):
        return rgb
    return rgb / 255.0


def _quantize(rgb):
    return np.clip(np.rint(rgb * 255.0), 0, 255)


# ------------------------------------------------------- SPLT checkpoint


def write_checkpoint(path, arch, layers, lam, feature_channels, lattice_channels,
                     num_classes):
    """Version-1 SPLT inference checkpoint (f32 tensors), as the program's
    checkpoint module documents it. layers is a list of {key: array}, one
    per network layer, in layer order.
    """
    def pstr(s):
        raw = s.encode()
        return struct.pack("<I", len(raw)) + raw

    out = b"SPLT" + struct.pack("<I", 1) + pstr(arch)
    out += struct.pack("<I", len(lam)) + np.asarray(lam, "<f8").tobytes()
    out += pstr(",".join(feature_channels)) + pstr(",".join(lattice_channels))
    out += struct.pack("<I", num_classes) + struct.pack("<B", 1)
    items = [(f"{i:03d}.{k}", t[k]) for i, t in enumerate(layers) for k in sorted(t)]
    out += struct.pack("<I", len(items))
    for name, arr in items:
        wire = np.ascontiguousarray(arr, dtype="<f4")
        out += pstr(name) + struct.pack("<BB", 0, wire.ndim)
        out += struct.pack(f"<{wire.ndim}I", *wire.shape) + wire.tobytes()
    Path(path).write_bytes(out)


def init_layers(arch, input_dim, taps, rng):
    """Parameters in the program's layer layout for an arch of B and C tokens:
    each B is BCL + batch norm + ReLU, the B outputs are concatenated before
    the first C, each C but the last is 1x1 + batch norm + ReLU, and a softmax
    ends the network. Weights are uniform with variance 2 / fan_in.
    """
    tokens = arch.split("-")
    layers, widths, cur = [], [], input_dim
    concat_done = False
    for pos, tok in enumerate(tokens):
        kind, width = tok[0], int(tok[1:])
        final = pos == len(tokens) - 1
        if kind == "C" and not concat_done:
            layers.append({})
            cur = sum(widths)
            concat_done = True
        fan_in = taps * cur if kind == "B" else cur
        bound = np.sqrt(6.0 / fan_in)
        shape = (taps, cur, width) if kind == "B" else (cur, width)
        layers.append({"weight": rng.uniform(-bound, bound, size=shape),
                       "bias": np.zeros(width)})
        cur = width
        if not final:
            layers.append({"gamma": np.ones(cur), "beta": np.zeros(cur),
                           "running_mean": np.zeros(cur), "running_var": np.ones(cur)})
            layers.append({})
        if kind == "B":
            widths.append(cur)
    layers.append({})
    return layers


# ------------------------------------------------------------- workloads


class Op:
    """One CLI call: its command line, where it writes, and its input."""

    def __init__(self, label, argv, out, inputs, work):
        self.label = label
        self.argv = argv
        self.out = Path(out)
        self.inputs = [Path(p) for p in inputs]
        self.work = work

    def digest(self):
        return digest_files(self.inputs, self.work)


class FacadePredict:
    """`latseg predict` of a fresh facade scene with a fixed 7-class model.

    The scene is the criterion-11 facade (a noisy vertical plane with rgb and
    normals) with its plane side shrunk to sqrt(n / 100000): the point
    density, and with it vertices per point at every level, matches the
    100k-point criterion-11 scene, while one op takes about half a second.
    """

    name = "facade_predict"
    key = 1
    arch = "B64-B128-B128-B128-B64-C64-C7"
    classes = 7
    points = points_per_op = 8_000

    def prepare(self, work, bn_stats=None):
        """Write the model. Its weights are random; its batch-norm running
        statistics are those of the warm-up scene (recorded in reference.json),
        so that labels vary from point to point instead of all taking the
        class that the activations' common mode favours.
        """
        self.work = Path(work)
        self.checkpoint = self.work / "facade.splt"
        if bn_stats is None:
            bn_stats = load_reference()[self.name]["bn_stats"]
        layers = init_layers(self.arch, 7, 15, rng_for(_MODEL, self.key))
        for i, (mean, var) in bn_stats.items():
            layers[int(i)]["running_mean"] = decode_floats(mean)
            layers[int(i)]["running_var"] = decode_floats(var)
        write_checkpoint(self.checkpoint, self.arch, layers, [32.0] * 3,
                         ("rgb", "normals", "height"), ("xyz",), self.classes)

    def calibrate(self, work):
        """Batch-norm input statistics of the warm-up scene, layer by layer,
        from a training-mode forward pass of the program under src/."""
        from latseg import data, network
        from latseg.checkpoint import load_checkpoint

        self.prepare(work, bn_stats={})
        scene = warmup_input(self)
        spec, params, feats, latts = load_checkpoint(self.checkpoint)
        cloud = data.load_cloud(scene)
        _, tape = network.forward(spec, params, cloud.channel_matrix(feats),
                                  cloud.channel_matrix(latts), training=True)
        return {str(i): [encode_floats(tape.outputs[i - 1].mean(axis=0)),
                         encode_floats(tape.outputs[i - 1].var(axis=0))]
                for i, t in enumerate(params) if "running_mean" in t}

    def _scene(self, rng, path):
        n = self.points
        side = np.sqrt(n / 100_000)
        y = rng.uniform(0, side, n)
        z = rng.uniform(0, side, n)
        x = 0.5 + rng.normal(0, 0.01, n)
        normals = np.tile([1.0, 0.0, 0.0], (n, 1)) + rng.normal(0, 0.05, (n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        rgb = _quantize(rng.uniform(0, 1, (n, 3)))
        write_ply(path, [("x", "double", x), ("y", "double", y), ("z", "double", z),
                         ("nx", "double", normals[:, 0]),
                         ("ny", "double", normals[:, 1]),
                         ("nz", "double", normals[:, 2]),
                         ("red", "uchar", rgb[:, 0]), ("green", "uchar", rgb[:, 1]),
                         ("blue", "uchar", rgb[:, 2])])

    def make_input(self, label, rng):
        scene = self.work / f"{label}.scene.ply"
        self._scene(rng, scene)
        return scene

    def op(self, label, scene):
        out = self.work / f"{label}.out.ply"
        argv = ["predict", str(scene), "--checkpoint", str(self.checkpoint),
                "--out", str(out)]
        return Op(label, argv, out, [scene, self.checkpoint], self.work)

    def output_files(self, op):
        return [op.out]

    def check(self, op, reference=None):
        cols, _ = read_ply(op.out)
        src, _ = read_ply(op.inputs[0])
        if "label" not in cols:
            return "output has no label column"
        labels = cols["label"]
        if labels.size != self.points:
            return f"{labels.size} labeled points, expected {self.points}"
        for axis in "xyz":
            if not np.array_equal(cols[axis], src[axis]):
                return f"output {axis} differs from the input"
        if not np.array_equal(labels, np.round(labels)) or labels.min() < 0 \
                or labels.max() >= self.classes:
            return f"labels outside [0, {self.classes})"
        if reference is not None:
            want = decode_labels(reference["labels"])
            agree = float(np.mean(labels.astype(np.int64) == want))
            if agree < 0.999:
                return f"only {agree:.5f} of labels agree with the reference"
        return None

    def record(self, op):
        cols, _ = read_ply(op.out)
        return {"labels": encode_labels(cols["label"].astype(np.uint8))}


class SparseFilter:
    """`latseg filter` of rgb and a constant height between two fresh uniform
    clouds of n points in a cube of side n^(1/3), at lambda 1.

    At unit density the lattice has about 1.8 vertices per point whatever
    n is, so the vertex index dominates.
    """

    name = "sparse_filter"
    key = 2
    height = 0.25
    points = points_per_op = 20_000

    def prepare(self, work):
        self.work = Path(work)

    def make_input(self, label, rng):
        n = self.points
        side = n ** (1 / 3)
        src_xyz = rng.uniform(0, side, (n, 3))
        rgb = _quantize(rng.uniform(0, 1, (n, 3)))
        dst_xyz = rng.uniform(0, side, (n, 3))
        src = self.work / f"{label}.src.ply"
        dst = self.work / f"{label}.dst.ply"
        write_ply(src, [("x", "double", src_xyz[:, 0]), ("y", "double", src_xyz[:, 1]),
                        ("z", "double", src_xyz[:, 2]),
                        ("red", "uchar", rgb[:, 0]), ("green", "uchar", rgb[:, 1]),
                        ("blue", "uchar", rgb[:, 2]),
                        ("height", "double", np.full(n, self.height))])
        write_ply(dst, [("x", "double", dst_xyz[:, 0]), ("y", "double", dst_xyz[:, 1]),
                        ("z", "double", dst_xyz[:, 2])])
        return src, dst

    def op(self, label, pair):
        src, dst = pair
        out = self.work / f"{label}.out.ply"
        argv = ["filter", str(src), str(dst), "--out", str(out),
                "--channels", "rgb,height", "--lambda", "1"]
        return Op(label, argv, out, [src, dst], self.work)

    def output_files(self, op):
        return [op.out]

    def _supported(self, op):
        cols, types = read_ply(op.out)
        dst, _ = read_ply(op.inputs[1])
        if "height" not in cols or "red" not in cols:
            return None, "output lacks height or rgb"
        h = cols["height"]
        if h.size != self.points:
            return None, f"{h.size} output points, expected {self.points}"
        for axis in "xyz":
            if not np.array_equal(cols[axis], dst[axis]):
                return None, f"output {axis} differs from the destination"
        supported = np.abs(h - self.height) <= 1e-12
        if not np.all(supported | (h == 0.0)):
            return None, "height is neither 0.25 nor exactly 0 somewhere"
        rgb = rgb_of(cols, types)
        if rgb.min() < 0.0 or rgb.max() > 1.0:
            return None, "rgb outside [0, 1]"
        if np.any(rgb[~supported] != 0.0):
            return None, "rgb is not 0 where the destination has no support"
        return int(supported.sum()), None

    def check(self, op, reference=None):
        supported, err = self._supported(op)
        if err is None and reference is not None and supported != reference["supported"]:
            err = f"{supported} supported points, reference {reference['supported']}"
        return err

    def record(self, op):
        supported, err = self._supported(op)
        if err:
            raise RuntimeError(err)
        return {"supported": supported}


class BlobTrain:
    """`latseg train` of B16-B16-B16-C16-C2 at lambda 2 and learning rate
    1e-3 on a fresh two-blob dataset (the criterion-9 task, scaled down):
    16 clouds of 256 points for 40 iterations, so each cloud is visited 2.5
    times and 60% of lattice builds repeat an earlier one.
    """

    name = "blob_train"
    key = 3
    arch = "B16-B16-B16-C16-C2"
    cloud_points = 256
    held_out_clouds = 40
    clouds = 16
    iterations = clouds * 5 // 2
    points_per_op = iterations * cloud_points

    def prepare(self, work):
        self.work = Path(work)
        self.held_out = self._blobs(rng_for(_HELD_OUT, self.key), self.held_out_clouds)
        self._held_out_descs = None

    def _blobs(self, rng, count):
        """Two Gaussian clusters labeled by cluster, per-cloud offset, rows
        shuffled; the program's synthetic_two_blob_dataset recipe with its
        default separation 3, sigma 0.35 and jitter 0.1."""
        n0 = self.cloud_points // 2
        n1 = self.cloud_points - n0
        clouds = []
        for _ in range(count):
            a = rng.normal(loc=(-1.5, 0.0, 0.0), scale=0.35, size=(n0, 3))
            b = rng.normal(loc=(1.5, 0.0, 0.0), scale=0.35, size=(n1, 3))
            pts = np.vstack([a, b]) + rng.uniform(-0.1, 0.1, size=3)
            labels = np.concatenate([np.zeros(n0), np.ones(n1)])
            order = rng.permutation(self.cloud_points)
            clouds.append((pts[order], labels[order]))
        return clouds

    def make_input(self, label, rng):
        data = self.work / f"{label}.data"
        data.mkdir()
        files = []
        for i, (pts, labels) in enumerate(self._blobs(rng, self.clouds)):
            f = data / f"cloud{i:04d}.ply"
            write_ply(f, [("x", "double", pts[:, 0]), ("y", "double", pts[:, 1]),
                          ("z", "double", pts[:, 2]), ("label", "int", labels)])
            files.append(f)
        cfg = self.work / f"{label}.cfg"
        cfg.write_text(
            f"arch = {self.arch}\nlambda0 = 2\ndata_dir = {data}\n"
            f"learning_rate = 0.001\nmax_iterations = {self.iterations}\n"
            f"log_every = 10\nseed = 7\n", encoding="ascii")
        return cfg, files

    def op(self, label, made):
        cfg, files = made
        out = self.work / f"{label}.out"
        return Op(label, ["train", "--config", str(cfg), "--out", str(out)], out,
                  [cfg, *files], self.work)

    def output_files(self, op):
        return [op.out / "model.splt", op.out / "state.splt"]

    def check(self, op, reference=None):
        from latseg import network
        from latseg.checkpoint import load_checkpoint

        metrics = (op.out / "metrics.csv").read_text().splitlines()
        if len(metrics) < 2 or not metrics[0].startswith("iteration,"):
            return "metrics.csv has no rows"
        if not (op.out / "state.splt").is_file():
            return "no state.splt"
        spec, params, feats, latts = load_checkpoint(op.out / "model.splt")
        if feats != ("xyz",) or latts != ("xyz",):
            return f"model channels {feats}/{latts}, expected xyz/xyz"
        if self._held_out_descs is None:
            # Every op trains the same architecture at the same scale, so the
            # held-out lattices are built once per run.
            self._held_out_descs = [network.prepare_descriptors(spec, pts)
                                    for pts, _ in self.held_out]

        def accuracy(clouds, descs):
            correct = total = 0
            for (pts, labels), desc in zip(clouds, descs):
                probs, _ = network.forward(spec, params, pts, pts, descriptors=desc)
                correct += int((network.predict(probs) == labels).sum())
                total += labels.size
            return correct / total

        train_set = []
        for f in op.inputs[1:]:
            cols, _ = read_ply(f)
            train_set.append((np.column_stack([cols["x"], cols["y"], cols["z"]]),
                              cols["label"]))
        train_acc = accuracy(train_set, [None] * len(train_set))
        held_acc = accuracy(self.held_out, self._held_out_descs)
        if train_acc < 0.99 or held_acc < 0.95:
            return (f"accuracy train {train_acc:.4f} (bar 0.99), "
                    f"held-out {held_acc:.4f} (bar 0.95)")
        return None

    def record(self, op):
        return {}


WORKLOADS = {w.name: w for w in (FacadePredict, BlobTrain, SparseFilter)}


def warmup_input(workload):
    return workload.make_input("warmup", rng_for(_WARMUP, workload.key))


def timed_input(workload, seed, index):
    return workload.make_input(f"op{index}", rng_for(_TIMED, workload.key, seed, index))


def traced_input(workload, seed, index):
    """Input of traced op `index`: the same in every run of a seed, however
    many timed ops ran before it."""
    return workload.make_input(f"traced{index}",
                               rng_for(_TRACED, workload.key, seed, index))


def encode_labels(labels):
    return base64.b64encode(zlib.compress(np.asarray(labels, np.uint8).tobytes(), 9)).decode()


def encode_floats(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def decode_floats(text):
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def decode_labels(text):
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), np.uint8).astype(np.int64)

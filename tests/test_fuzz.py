"""Seeded fuzz of every file reader.

Each reader gets a few hundred mutated copies of a valid file (a byte
replaced, inserted or deleted, one to three times). Whatever the bytes, a
reader may only raise a LatSegError subclass; a raw ValueError or
UnicodeDecodeError is a bug.

The text-table fast path (np.loadtxt) is fuzzed against the split parser's
float() on random tokens: whatever loadtxt accepts must read the same.
"""

import random

import numpy as np
import pytest

from latseg import checkpoint, config, data, network
from latseg.errors import LatSegError
from latseg.lattice import LatticeConfig

MUTATIONS = 300

CONFIG_TEXT = """\
arch              = B8-C2
lambda0           = 2            # scalar or x,y,z triple
feature_channels  = xyz,rgb
lattice_channels  = xyz
data_dir          = clouds/
output_dir        = run1/
learning_rate     = 0.001
max_iterations    = 50
sample_size       = none
gravity_axis      = y
rotate            = false
scale_low         = 0.9
ignore_label      = none
checkpoint        =
"""


def _cloud(n=6):
    rng = np.random.default_rng(0)
    return data.PointCloud(
        positions=rng.normal(size=(n, 3)),
        normals=rng.normal(size=(n, 3)),
        rgb=rng.integers(0, 256, size=(n, 3)) / 255.0,
        height=rng.uniform(size=n),
        labels=rng.integers(0, 4, size=n),
        extras={"score": rng.normal(size=n)},
    )


def _framing(raw, train_state):
    """Offsets of every checkpoint byte outside the tensor payloads.

    Payload bytes only change values, so mutating them tests nothing.
    """
    r = checkpoint._Reader(raw, "valid")
    checkpoint._read_header(r)
    if train_state:
        r.u64(), r.u64()
    r.u32()
    offsets = list(range(r.pos))
    while r.pos < len(raw):
        start = r.pos
        _, arr = checkpoint._read_tensor(r)
        offsets += range(start, r.pos - arr.nbytes)
    return offsets


def _valid_file(kind, path):
    """Write a valid file of `kind`; return (reader, mutable byte offsets)."""
    if kind in ("ply", "xyz"):
        cloud = _cloud()
        if kind == "ply":
            cloud.extras.clear()
        getattr(data, f"save_{kind}")(cloud, path)
        return getattr(data, f"load_{kind}"), None
    if kind == "config":
        path.write_text(CONFIG_TEXT)
        return config.load_run_config, None
    spec = network.parse_arch("B8-C2", LatticeConfig(3, 2.0), 2)
    params = network.init_parameters(spec, 3, np.random.default_rng(1))
    if kind == "checkpoint":
        checkpoint.save_checkpoint(path, spec, params)
        reader = checkpoint.load_checkpoint
    else:
        zeros = network.trainable_views(np.zeros_like(network.trainable_vector(params)), params)
        checkpoint.save_train_state(path, spec, params, zeros, zeros, 3, 3)
        reader = checkpoint.load_train_state
    return reader, _framing(path.read_bytes(), kind == "train_state")


def _mutate(raw, offsets, rng):
    out = bytearray(raw)
    for _ in range(rng.randint(1, 3)):
        at = rng.choice(offsets) if offsets else rng.randrange(len(raw))
        at = min(at, len(out) - 1)
        op = rng.randrange(3)
        if op == 0:
            out[at] = rng.randrange(256)
        elif op == 1:
            out.insert(at, rng.randrange(256))
        else:
            del out[at]
    return bytes(out)


@pytest.mark.parametrize("kind", ["ply", "xyz", "config", "checkpoint", "train_state"])
def test_mutated_files_raise_only_latseg_errors(kind, tmp_path):
    path = tmp_path / {"ply": "c.ply", "xyz": "c.xyz", "config": "run.cfg"}.get(kind, "m.splt")
    reader, offsets = _valid_file(kind, path)
    raw = path.read_bytes()
    reader(path)  # the unmutated file loads
    rng = random.Random(f"fuzz-{kind}")
    escaped, refused = [], 0
    for i in range(MUTATIONS):
        path.write_bytes(_mutate(raw, offsets, rng))
        try:
            reader(path)
        except LatSegError:
            refused += 1
        except Exception as exc:  # noqa: BLE001 - anything else is the bug
            escaped.append(f"mutation {i}: {type(exc).__name__}: {exc}")
    assert not escaped, f"{len(escaped)} of {MUTATIONS} escaped:\n" + "\n".join(escaped[:5])
    assert refused > MUTATIONS // 10


# str.split whitespace beyond space and tab; loadtxt must split on it too
WHITESPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
NAMED = ("nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Inf", "infinity", "-INFINITY",
         "-0.0", "-0", "4.9e-324", "2.2250738585072014e-308", "1e-320", "1e400", "-1e400")
STRAY = ("_", "x", "a", "d", "e", "E", ".", "+", "-", "\u0661", "\uff15", "\u07c1")


def _digits(rng, most):
    return "".join(rng.choice("0123456789") for _ in range(rng.randint(0, most)))


def _token(rng):
    if rng.random() < 0.2:
        return rng.choice(NAMED)
    tok = rng.choice(("", "", "+", "-")) + _digits(rng, 5)
    if rng.random() < 0.5:
        tok += "." + _digits(rng, 5)
    if rng.random() < 0.4:
        tok += rng.choice("eE") + rng.choice(("", "+", "-")) + _digits(rng, 3)
    if rng.random() < 0.25:
        at = rng.randint(0, len(tok))
        tok = tok[:at] + rng.choice(STRAY) + tok[at:]
    return tok or "0"


def _gap(rng, least):
    return "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(least, 2)))


def test_loadtxt_accepts_only_what_float_reads_alike():
    rng = random.Random("fuzz-loadtxt")
    accepted = refused = 0
    for _ in range(3000):
        tokens = [_token(rng) for _ in range(rng.randint(1, 4))]
        line = _gap(rng, 0) + "".join(t + _gap(rng, 1) for t in tokens).rstrip(WHITESPACE)
        try:
            row = np.loadtxt([line], dtype=np.float64, comments=None, ndmin=2)[0]
        except ValueError:
            refused += 1
            continue
        accepted += 1
        assert line.split() == tokens, repr(line)
        assert row.size == len(tokens), repr(line)
        want = np.array([float(t) for t in tokens])
        assert np.array_equal(row.view(np.int64), want.view(np.int64)), repr(line)
    assert accepted > 1000 and refused > 300

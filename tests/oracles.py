"""Oracles shared by the tests and by bench/stages.py.

Not a test module: pytest collects only `test_*.py`, and its default
`prepend` import mode puts `tests/` on `sys.path`, so every test file can
`from oracles import ...`.
"""

import tracemalloc

import numpy as np

from latseg import bcl
from latseg import network as net
from latseg.lattice import _locate_many, elevate_many


def fd_grad(objective, arr, h=1e-5):
    """d objective / d arr by central differences, entry by entry; arr is
    perturbed in place and restored after each probe."""
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        fp = objective()
        flat[j] = orig - h
        fm = objective()
        flat[j] = orig
        out[j] = (fp - fm) / (2 * h)
    return out.reshape(arr.shape)


def rel_err(a, b):
    """Largest elementwise relative error. The 1e-6 floor keeps structurally
    zero gradients (a conv bias under batch norm) from amplifying
    finite-difference noise."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def facade(n, rng, side=1.0):
    """(lattice points, 7 features) of the criterion-11 facade: a noisy
    vertical plane x = 0.5 spanning [0, side]^2 in y and z, with rgb, normals
    and height. side = sqrt(n / 1e5) keeps the criterion's point density.
    Draws y, z, the x noise, the normal noise and rgb, in that order."""
    y = rng.uniform(0, side, n)
    z = rng.uniform(0, side, n)
    pts = np.column_stack([0.5 + rng.normal(0, 0.01, n), y, z])
    normals = np.tile([1.0, 0.0, 0.0], (n, 1)) + rng.normal(0, 0.05, (n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    feats = np.hstack([rng.uniform(0, 1, (n, 3)), normals, (y - y.min())[:, None]])
    return pts, feats


def brute_force_one_ring(d):
    """All sum-zero vectors whose coordinates are congruent mod d+1 and
    spread by at most d+1, as a set of tuples."""
    d1 = d + 1
    found = set()
    for r in range(d1):
        grids = np.meshgrid(*([(r - d1, r, r + d1)] * d1), indexing="ij")
        rows = np.stack([g.ravel() for g in grids], axis=1)
        keep = (rows.sum(axis=1) == 0) & (rows.max(axis=1) - rows.min(axis=1) <= d1)
        found.update(tuple(int(x) for x in row) for row in rows[keep])
    return found


def traced_peak(fn):
    """(fn(), the peak of the bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def write_table_rowwise(path, header_lines, columns):
    """data._write_table formed one row at a time: str of each Python number
    and a join per row."""
    cells = [map(str, values.tolist()) for _, values in columns]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(header_lines) + "\n")
        fh.writelines(" ".join(row) + "\n" for row in zip(*cells))


def simplex_corner_keys(rem0, rank):
    """(n, d+1, d+1) full keys of located points' simplex corners, materialised
    in one tensor: keys[i, r] = rem0[i] + canon[r, rank[i]], where canon[r, k]
    is r for ranks k < d+1-r and r-(d+1) for the others."""
    d1 = rank.shape[1]
    canon = np.empty((d1, d1), dtype=np.int64)
    for r in range(d1):
        canon[r, : d1 - r] = r
        canon[r, d1 - r :] = r - d1
    return rem0[:, None, :] + np.transpose(canon[:, rank], (1, 0, 2))


def locate_by_sort(elevated):
    """(rem0, rank, bary) of (n, d+1) elevated points as _locate_many returns
    them, each row's coordinates ranked by a stable argsort of its
    differentials scattered back with put_along_axis."""
    n, d1 = elevated.shape
    d = d1 - 1
    down = np.floor(elevated / d1) * d1
    up = down + d1
    rem0 = np.where((up - elevated) < (elevated - down), up, down).astype(np.int64)
    order = np.argsort(rem0 - elevated, axis=1, kind="stable")
    rank = np.empty((n, d1), dtype=np.int16)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(d1), (n, d1)), axis=1)
    rank += (rem0.sum(axis=1) // d1)[:, None]
    shift = d1 * ((rank < 0).astype(np.int64) - (rank > d))
    rank += shift
    rem0 += shift
    frac = elevated - rem0
    frac /= d1
    ranked = np.empty((n, d1), dtype=np.float64)
    np.put_along_axis(ranked, d - rank, frac, axis=1)
    bary = np.empty((n, d1), dtype=np.float64)
    np.subtract(ranked[:, 1:], ranked[:, :d], out=bary[:, 1:])
    np.add(ranked[:, 0], 1.0 - ranked[:, d], out=bary[:, 0])
    return rem0, rank, bary


def vertex_keys(features, config):
    """(V, d+1) full keys of the vertices a cloud's simplices touch, sorted
    by row, so row g is the key of the vertex a lattice numbers g."""
    rem0, rank, _ = _locate_many(elevate_many(features, config))
    return np.unique(simplex_corner_keys(rem0, rank).reshape(-1, config.dim + 1), axis=0)


def splat_plan_arrays(point_vertices, num_vertices, block=128):
    """(order, local, vertices, starts) of a lattice's splat plan, formed
    with np.unique over (block, vertex) pair codes: order sorts the points
    stably by their remainder-0 corner, and each block of that order gets
    its ascending distinct vertices and every corner's row among them."""
    n = point_vertices.shape[0]
    order = np.argsort(point_vertices[:, 0], kind="stable").astype(np.int32)
    blocks = np.arange(n) // block
    pairs = (blocks[:, None] * num_vertices + point_vertices[order]).ravel()
    uniq, inverse = np.unique(pairs, return_inverse=True)
    starts = np.searchsorted(uniq, np.arange(blocks[-1] + 2) * num_vertices)
    local = (inverse.reshape(point_vertices.shape) - starts[blocks][:, None]).astype(np.int32)
    return order, local, uniq % num_vertices, starts


def splat_forward(values, desc, bank):
    """splat, then bcl_forward, as network.forward runs a BCL: (out, splatted)."""
    splatted = bcl.splat(values, desc.lattice)
    return bcl.bcl_forward(splatted, desc, bank), splatted


def batch_norm_train(x, p):
    """(y, xhat, inv, running) of a training batch norm in the textbook
    formulation, with x.mean and x.var: running is p's running (mean, var)
    blended with the batch's."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv = 1.0 / np.sqrt(var + net.BN_EPS)
    xhat = (x - mean) * inv
    running = (net.BN_MOMENTUM * p["running_mean"] + (1.0 - net.BN_MOMENTUM) * mean,
               net.BN_MOMENTUM * p["running_var"] + (1.0 - net.BN_MOMENTUM) * var)
    return p["gamma"] * xhat + p["beta"], xhat, inv, running


def batch_norm_train_backward(g, xhat, inv, gamma):
    """(input cotangent, gamma and beta gradients) of batch_norm_train at
    cotangent g, as the textbook writes them."""
    grads = {"gamma": np.sum(g * xhat, axis=0), "beta": g.sum(axis=0)}
    gx = g * gamma
    gxm = gx.mean(axis=0)
    gxxm = np.mean(gx * xhat, axis=0)
    return inv * (gx - gxm - xhat * gxxm), grads


def _head_rows(spec, params):
    """(head index, {concat source: its rows of the head weight})."""
    head = next(i for i, layer in enumerate(spec.layers)
                if isinstance(layer, net.ConcatSpec)) + 1
    sources = spec.layers[head - 1].sources
    widths = [params[s - 2]["weight"].shape[-1] for s in sources]
    bounds = np.cumsum([0, *widths])
    return head, {s: params[head]["weight"][a:b]
                  for s, a, b in zip(sources, bounds, bounds[1:])}


def whole_cloud_inference(spec, params, features, lattice_features):
    """Inference probabilities computed layer by layer on whole (n, C)
    arrays, with each batch norm folded into x * scale + shift: a BCL
    multiplies its filtered vertex features by the next batch norm's scale
    and slices with its barycentric weights divided by the denominators,
    so that batch norm only adds its shift; any other batch norm
    multiplies and adds in place. ReLU runs in place, and the head's sum is
    built as each concat block appears, in block order."""
    descs = iter(net.prepare_descriptors(spec, lattice_features))
    head, rows = _head_rows(spec, params)
    head_sum = None
    x = features
    for i, layer in enumerate(spec.layers):
        p = params[i]
        if isinstance(layer, net.Conv1x1Spec):
            x = head_sum if i == head else x @ p["weight"]
            x += p["bias"]
        elif isinstance(layer, net.BCLSpec):
            desc = next(descs)
            lat = desc.lattice
            bn = params[i + 1]
            filtered = bcl.convolve(bcl.splat(x, lat), lat, bcl.FilterBank(p["weight"], p["bias"]))
            filtered *= bn["gamma"] / np.sqrt(bn["running_var"] + net.BN_EPS)
            x = bcl.slice(filtered, lat.point_vertices, lat.point_bary / desc.denominator)
        elif isinstance(layer, net.BatchNormSpec):
            scale = p["gamma"] / np.sqrt(p["running_var"] + net.BN_EPS)
            if not isinstance(spec.layers[i - 1], net.BCLSpec):
                x *= scale
            x += p["beta"] - p["running_mean"] * scale
        elif isinstance(layer, net.ReLUSpec):
            np.maximum(x, 0.0, out=x)
            if i in rows:
                if head_sum is None:
                    head_sum = x @ rows[i]
                else:
                    head_sum += x @ rows[i]
        elif isinstance(layer, net.SoftmaxSpec):
            x = net.softmax(x)
    return x


def unfolded_inference(spec, params, features, lattice_features):
    """Inference probabilities as the layers define them, on whole (n, C)
    arrays: splat then bcl_forward per BCL (slice, then divide by the
    denominators), batch norm with the running statistics in four passes
    (subtract the mean, multiply by the inverse deviation and by gamma, add
    beta) and ReLU in place, and the head's sum built as each concat block
    appears, in block order."""
    descs = iter(net.prepare_descriptors(spec, lattice_features))
    head, rows = _head_rows(spec, params)
    head_sum = None
    x = features
    for i, layer in enumerate(spec.layers):
        p = params[i]
        if isinstance(layer, net.Conv1x1Spec):
            x = head_sum if i == head else x @ p["weight"]
            x += p["bias"]
        elif isinstance(layer, net.BCLSpec):
            desc = next(descs)
            bank = bcl.FilterBank(p["weight"], p["bias"])
            x = bcl.bcl_forward(bcl.splat(x, desc.lattice), desc, bank)
        elif isinstance(layer, net.BatchNormSpec):
            x -= p["running_mean"]
            x *= 1.0 / np.sqrt(p["running_var"] + net.BN_EPS)
            x *= p["gamma"]
            x += p["beta"]
        elif isinstance(layer, net.ReLUSpec):
            np.maximum(x, 0.0, out=x)
            if i in rows:
                if head_sum is None:
                    head_sum = x @ rows[i]
                else:
                    head_sum += x @ rows[i]
        elif isinstance(layer, net.SoftmaxSpec):
            x = net.softmax(x)
    return x

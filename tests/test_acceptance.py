"""Acceptance gate: twelve end-to-end criteria, one test (and one printed
pass line) per criterion, each with its tolerance and runtime bound.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion lines.
"""

import time

import numpy as np

from latseg import bcl, network, train
from latseg.checkpoint import load_checkpoint, save_checkpoint
from latseg.data import (
    PointCloud,
    compute_iou,
    load_cloud,
    save_cloud,
    shapenet_miou,
    synthetic_two_blob_dataset,
)
from latseg.lattice import (
    MISSING,
    LatticeConfig,
    build_lattice,
    elevate_many,
    neighbor_offsets,
)

from oracles import brute_force_one_ring, facade, fd_grad, rel_err, splat_forward, vertex_keys


def _passed(num, elapsed, detail):
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s) {detail}")


# --------------------------------------------------------------------- 1


def dense_reference(values, feats, cfg, bank):
    """Literal slice @ conv @ splat matrix product, one channel at a time,
    divided by the ones-pass slice @ blur @ splat @ 1 with the default profile."""
    lat = build_lattice(feats, cfg)
    idx, bary = lat.embed(feats)
    n, num_v = feats.shape[0], lat.num_vertices
    splat_mat = np.zeros((num_v, n))
    for i in range(n):
        for r in range(cfg.dim + 1):
            splat_mat[idx[i, r], i] += bary[i, r]
    taps = [np.zeros((num_v, num_v)) for _ in range(bank.taps)]
    for k in range(bank.taps):
        for v in range(num_v):
            a = lat.adjacency[v, k]
            if a != MISSING:
                taps[k][v, a] = 1.0
    out = np.zeros((n, bank.c_out))
    for co in range(bank.c_out):
        for ci in range(bank.c_in):
            conv_mat = sum(bank.weights[k, ci, co] * taps[k] for k in range(bank.taps))
            out[:, co] += splat_mat.T @ conv_mat @ splat_mat @ values[:, ci]
    profile = bcl.default_blur_profile(bank.taps)
    blur_mat = sum(profile[k] * taps[k] for k in range(bank.taps))
    ones_pass = splat_mat.T @ blur_mat @ splat_mat @ np.ones(n)
    return out / np.maximum(ones_pass, 1e-12)[:, None]


def test_criterion_01_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 33))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        cfg = LatticeConfig(d, float(rng.uniform(0.5, 2.0)))
        feats = rng.normal(size=(n, d))
        values = rng.normal(size=(n, c_in))
        taps = 2 ** (d + 1) - 1
        bank = bcl.FilterBank(rng.normal(size=(taps, c_in, c_out)) * 0.5,
                              np.zeros(c_out))
        got, _ = splat_forward(values, bcl.make_descriptor(feats, cfg), bank)
        want = dense_reference(values, feats, cfg, bank)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-9, (trial, worst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(1, elapsed, f"50 dense-oracle instances, max abs err {worst:.2e} <= 1e-9")


# --------------------------------------------------------------------- 2


def test_criterion_02_splat_slice_adjointness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 40))
        c = int(rng.integers(1, 5))
        cfg = LatticeConfig(d, float(rng.uniform(0.5, 2.0)))
        feats = rng.normal(size=(n, d))
        lat = build_lattice(feats, cfg)
        idx, bary = lat.embed(feats)
        u = rng.normal(size=(n, c))
        v = rng.normal(size=(lat.num_vertices, c))
        lhs = float(np.vdot(bcl.slice(v, idx, bary), u))
        rhs = float(np.vdot(v, bcl.splat(u, lat)))
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, rel)
        assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, elapsed, f"100 adjointness instances, max rel err {worst:.2e} <= 1e-12")


# --------------------------------------------------------------------- 3


def test_criterion_03_barycentric_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for d in range(1, 7):
        cfg = LatticeConfig(d, 1.0)
        feats = rng.normal(size=(10_000, d)) * 3.0
        lat = build_lattice(feats, cfg)
        idx, bary = lat.embed(feats)
        assert (idx != MISSING).all()
        assert bary.min() >= -1e-12
        assert np.max(np.abs(bary.sum(axis=1) - 1.0)) <= 1e-9
        keys = vertex_keys(feats, cfg)[idx]  # (n, d+1, d+1)
        recon = np.einsum("nr,nrk->nk", bary, keys.astype(np.float64))
        assert np.max(np.abs(recon - elevate_many(feats, cfg))) <= 1e-9
        # each simplex has exactly one vertex of each remainder class
        rems = np.sort(keys[:, :, 0] % (d + 1), axis=1)
        assert np.array_equal(rems, np.broadcast_to(np.arange(d + 1), rems.shape))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _passed(3, elapsed, "10^4 points per d in 1..6: weights, sums, "
                        "reconstruction, remainder classes")


# --------------------------------------------------------------------- 4


def test_criterion_04_one_ring_counts():
    t0 = time.perf_counter()
    for d in range(1, 7):
        ring = neighbor_offsets(d)
        assert ring.shape[0] == 2 ** (d + 1) - 1
        got = {tuple(int(x) for x in row) for row in ring}
        assert got == brute_force_one_ring(d), d
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(4, elapsed, "one-ring offsets equal brute force, count 2^(d+1)-1, d=1..6")


# --------------------------------------------------------------------- 5


def test_criterion_05_gradient_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    # (a) one normalized BCL
    n, d, c_in, c_out = 10, 2, 2, 3
    cfg = LatticeConfig(d, 1.0)
    feats = rng.normal(size=(n, d))
    values = rng.normal(size=(n, c_in))
    taps = 2 ** (d + 1) - 1
    weights = rng.normal(size=(taps, c_in, c_out)) * 0.5
    bias = rng.normal(size=c_out) * 0.1
    probe = rng.normal(size=(n, c_out))
    desc = bcl.make_descriptor(feats, cfg)

    def bcl_objective():
        out, _ = splat_forward(values, desc, bcl.FilterBank(weights, bias))
        return float(np.sum(probe * out))

    bank = bcl.FilterBank(weights, bias)
    _, splatted = splat_forward(values, desc, bank)
    grad_input, grad_weights, grad_bias = bcl.bcl_backward(desc, bank, splatted, probe)
    worst = rel_err(fd_grad(bcl_objective, weights), grad_weights)
    worst = max(worst, rel_err(fd_grad(bcl_objective, bias), grad_bias))
    worst = max(worst, rel_err(fd_grad(bcl_objective, values), grad_input))
    assert worst < 1e-4

    # (b) full two-BCL network on 12 points
    spec = network.parse_arch("C3-B4-B4-C4-C2", LatticeConfig(3, 2.0))
    params = network.init_parameters(spec, 3, rng)
    pts = rng.normal(size=(12, 3))
    net_in = rng.normal(size=(12, 3))
    net_probe = rng.normal(size=(12, 2))
    descs = network.prepare_descriptors(spec, pts)

    def net_objective():
        p, _ = network.forward(spec, params, net_in, pts, training=True,
                               descriptors=descs)
        return float(np.sum(net_probe * p))

    _, tape = network.forward(spec, params, net_in, pts, training=True,
                              descriptors=descs)
    grads, grad_in = network.backward(tape, params, net_probe)
    for li, key, arr in network.named_parameters(params):
        worst = max(worst, rel_err(fd_grad(net_objective, arr), grads[li][key]))
        assert worst < 1e-4, (li, key, worst)
    worst = max(worst, rel_err(fd_grad(net_objective, net_in), grad_in))
    assert worst < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(5, elapsed, f"BCL and T=2 network central differences, "
                        f"max rel err {worst:.2e} < 1e-4")


# --------------------------------------------------------------------- 6


def test_criterion_06_constant_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(8, 40))
        c = int(rng.integers(1, 4))
        cfg = LatticeConfig(d, float(rng.uniform(0.5, 2.0)))
        feats = rng.normal(size=(n, d))
        const = rng.normal(size=c)
        values = np.tile(const, (n, 1))
        taps = 2 ** (d + 1) - 1

        # normalized splat-then-slice onto the same cloud
        out = bcl.project(values, feats, feats, cfg)
        worst = max(worst, float(np.max(np.abs(out - values))))

        # random mixing kernel shaped like the blur profile: every constant
        # input lands on the constant (const @ mix) at all supported outputs
        mix = rng.normal(size=(c, c))
        profile = bcl.default_blur_profile(taps)
        bank = bcl.FilterBank(profile[:, None, None] * mix, np.zeros(c))
        out2, _ = splat_forward(values, bcl.make_descriptor(feats, cfg), bank)
        expected = np.tile(const @ mix, (n, 1))
        worst = max(worst, float(np.max(np.abs(out2 - expected))))
        assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(6, elapsed, f"normalized constants preserved, max abs err "
                        f"{worst:.2e} <= 1e-6")


# --------------------------------------------------------------------- 7


def test_criterion_07_permutation_equivariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    n, d, c = 40, 3, 3
    cfg = LatticeConfig(d, 1.5)
    feats = rng.normal(size=(n, d))
    values = rng.normal(size=(n, c))
    taps = 2 ** (d + 1) - 1
    bank = bcl.FilterBank(rng.normal(size=(taps, c, c)) * 0.3, rng.normal(size=c))
    perm = rng.permutation(n)
    base, _ = splat_forward(values, bcl.make_descriptor(feats, cfg), bank)
    shuffled, _ = splat_forward(values[perm], bcl.make_descriptor(feats[perm], cfg),
                                bank)
    bcl_err = float(np.max(np.abs(shuffled - base[perm])))
    assert bcl_err <= 1e-6

    spec = network.parse_arch("B6-B6-C6-C3", LatticeConfig(3, 2.0))
    params = network.init_parameters(spec, 3, rng)
    pts = rng.normal(size=(n, 3))
    out_base, _ = network.forward(spec, params, pts, pts)
    out_perm, _ = network.forward(spec, params, pts[perm], pts[perm])
    net_err = float(np.max(np.abs(out_perm - out_base[perm])))
    assert net_err <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(7, elapsed, f"BCL err {bcl_err:.2e}, network err {net_err:.2e} <= 1e-6")


# --------------------------------------------------------------------- 8


def test_criterion_08_scale_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(20):
        n = int(rng.integers(50, 400))
        cloud = rng.normal(size=(n, 3)) * rng.uniform(0.5, 4.0)
        lam = float(rng.uniform(0.5, 8.0))
        counts = []
        for level in range(4):
            lat = build_lattice(cloud, LatticeConfig(3, lam * 0.5 ** level))
            counts.append(lat.num_vertices)
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts

    spec = network.parse_arch("B4-B4-B4-B4-C2", LatticeConfig(3, 8.0))
    pts = rng.normal(size=(300, 3))
    descs = network.prepare_descriptors(spec, pts)
    schedule = [d.lattice.num_vertices for d in descs]
    assert all(a >= b for a, b in zip(schedule, schedule[1:])), schedule
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(8, elapsed, "halving the scale never increased the vertex count "
                        "on 20 clouds + 4-level schedule")


# --------------------------------------------------------------------- 9


def test_criterion_09_end_to_end_learning():
    t0 = time.perf_counter()
    dataset = synthetic_two_blob_dataset(200, 256, seed=42)
    held_out = synthetic_two_blob_dataset(40, 256, seed=4242)
    spec = network.parse_arch("B16-B16-B16-C16-C2", LatticeConfig(3, 2.0))
    cfg = train.TrainConfig(learning_rate=1e-3, max_iterations=500, seed=7,
                            log_every=100)
    result = train.train_loop(spec, dataset, cfg)
    assert result.iterations <= 500
    _, train_acc = train.evaluate(spec, result.params, dataset)
    _, test_acc = train.evaluate(spec, result.params, held_out)
    elapsed = time.perf_counter() - t0
    assert train_acc >= 0.99, train_acc
    assert test_acc >= 0.95, test_acc
    assert elapsed < 300.0
    _passed(9, elapsed, f"two-blob T=3: train acc {train_acc:.4f} >= 0.99, "
                        f"held-out {test_acc:.4f} >= 0.95 in 500 iterations")


# -------------------------------------------------------------------- 10


def test_criterion_10_metric_correctness():
    t0 = time.perf_counter()
    report = compute_iou(pred=[0, 1, 1, 1], gt=[0, 0, 1, 1])
    assert report.per_class[0] == 0.5
    assert report.per_class[1] == 2 / 3
    assert abs(report.average - 7 / 12) < 1e-15

    gt = np.array([0, 1, 2, 2, 1])
    perfect = compute_iou(gt, gt)
    assert perfect.average == 1.0
    assert all(v == 1.0 for v in perfect.per_class.values())

    def two_class_object(n_cc):
        gt = np.array([0] * n_cc + [0, 1] + [1] * n_cc)
        pred = np.array([0] * n_cc + [1, 0] + [1] * n_cc)
        return pred, gt

    obj_a = two_class_object(8)   # mIoU 0.8
    obj_b = two_class_object(3)   # mIoU 0.6
    scores = shapenet_miou(
        [obj_a[0], obj_b[0], obj_b[0]],
        [obj_a[1], obj_b[1], obj_b[1]],
        ["A", "B", "B"],
    )
    assert abs(scores.class_average - 0.7) < 1e-12
    assert abs(scores.instance_average - (0.8 + 0.6 + 0.6) / 3) < 1e-12
    top = shapenet_miou([gt], [gt], ["solo"])
    assert top.class_average == 1.0 and top.instance_average == 1.0
    elapsed = time.perf_counter() - t0
    _passed(10, elapsed, "hand-computed IoU cases reproduced exactly "
                         "(average 7/12; shapenet 0.7 / 0.6667)")


# -------------------------------------------------------------------- 11


def test_criterion_11_throughput_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)

    # facade-like 100k-point cloud: a noisy vertical plane in the unit cube
    n = 100_000
    pts, feats = facade(n, rng)

    spec = network.parse_arch("B64-B128-B128-B128-B64-C64-C7",
                              LatticeConfig(3, 32.0))
    params = network.init_parameters(spec, 7, rng)
    t_inf = time.perf_counter()
    probs, _ = network.forward(spec, params, feats, pts)
    infer_seconds = time.perf_counter() - t_inf
    assert probs.shape == (n, 7)
    assert infer_seconds < 60.0, infer_seconds

    # lattice construction scaling: fixed density, three decades of n
    sizes = [10_000, 100_000, 1_000_000]
    times = []
    for m in sizes:
        side = m ** (1 / 3)
        cloud = rng.uniform(0, side, (m, 3))
        t_build = time.perf_counter()
        build_lattice(cloud, LatticeConfig(3, 1.0))
        times.append(time.perf_counter() - t_build)
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    assert exponent < 1.2, (times, exponent)
    elapsed = time.perf_counter() - t0
    _passed(11, elapsed, f"100k-point inference {infer_seconds:.1f}s < 60s; "
                         f"build exponent {exponent:.2f} < 1.2")


# -------------------------------------------------------------------- 12


def test_criterion_12_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(121)

    spec = network.parse_arch("B4-B6-C5-C3", LatticeConfig(3, (2.0, 2.0, 1.0)))
    params = network.init_parameters(spec, 4, rng)
    first = tmp_path / "a.splt"
    second = tmp_path / "b.splt"
    save_checkpoint(first, spec, params, ("rgb", "height"), ("xyz",))
    spec2, params2, feats, latts = load_checkpoint(first)
    save_checkpoint(second, spec2, params2, feats, latts)
    assert first.read_bytes() == second.read_bytes()
    spec3, params3, _, _ = load_checkpoint(second)
    for (i, k, a), (_, _, b) in zip(network.named_parameters(params2),
                                    network.named_parameters(params3)):
        assert np.array_equal(a, b), (i, k)

    n = 64
    norms = rng.normal(size=(n, 3))
    norms /= np.linalg.norm(norms, axis=1, keepdims=True)
    cloud = PointCloud(
        positions=rng.normal(size=(n, 3)) * 4,
        normals=norms,
        rgb=rng.integers(0, 256, size=(n, 3)) / 255.0,
        height=rng.uniform(0, 5, size=n),
        labels=rng.integers(0, 7, size=n),
    )
    for suffix in ("ply", "xyz"):
        path = tmp_path / f"cloud.{suffix}"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.normals, cloud.normals)
        assert np.array_equal(back.rgb, cloud.rgb)
        assert np.array_equal(back.height, cloud.height)
        assert np.array_equal(back.labels, cloud.labels)
    elapsed = time.perf_counter() - t0
    _passed(12, elapsed, "checkpoint save/load bitwise; PLY and XYZ "
                         "round-trips preserve every channel")

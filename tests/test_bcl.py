"""Bilateral convolution layer tests.

Dense-matrix oracles: explicit splat/slice/tap matrices multiplied straight
through, so the sparse path is checked against an independent construction.
Gradient oracle: central finite differences at h = 1e-5 (`oracles.fd_grad`),
scored by a relative error with a 1e-8 floor.
"""

import numpy as np
import pytest

from latseg import bcl
from latseg.errors import InvalidInput, ShapeError
from latseg.lattice import MISSING, LatticeConfig, build_lattice

from oracles import fd_grad, splat_forward, traced_peak, vertex_keys


def dense_splat_matrix(lat):
    m = np.zeros((lat.num_vertices, lat.num_points))
    for i in range(lat.num_points):
        for r in range(lat.config.dim + 1):
            m[lat.point_vertices[i, r], i] += lat.point_bary[i, r]
    return m


def dense_slice_matrix(indices, bary, num_vertices):
    m = np.zeros((indices.shape[0], num_vertices))
    for i in range(indices.shape[0]):
        for r in range(indices.shape[1]):
            if indices[i, r] != MISSING:
                m[i, indices[i, r]] += bary[i, r]
    return m


def dense_tap_matrix(lat, k):
    m = np.zeros((lat.num_vertices, lat.num_vertices))
    for v in range(lat.num_vertices):
        u = lat.adjacency[v, k]
        if u != MISSING:
            m[v, u] = 1.0
    return m


def dense_denominator(lat, indices, bary):
    """Dense ones-pass: slice . blur . splat . 1 with the default profile, floored."""
    profile = bcl.default_blur_profile(lat.adjacency.shape[1])
    blur_mat = sum(p * dense_tap_matrix(lat, t) for t, p in enumerate(profile))
    s_slice = dense_slice_matrix(indices, bary, lat.num_vertices)
    ones = np.ones((lat.num_points, 1))
    return np.maximum(s_slice @ blur_mat @ dense_splat_matrix(lat) @ ones, 1e-12)


def dense_bcl(values, lat, indices, bary, bank):
    """Independent dense evaluation of splat -> convolve -> slice, unnormalized."""
    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(indices, bary, lat.num_vertices)
    splatted = s_splat @ values
    filtered = np.tile(bank.bias, (lat.num_vertices, 1))
    for k in range(bank.taps):
        filtered += (dense_tap_matrix(lat, k) @ splatted) @ bank.weights[k]
    return s_slice @ filtered


def identity_bank(taps, channels):
    """Kernel that copies the zero-offset tap: convolve becomes the identity."""
    w = np.zeros((taps, channels, channels))
    w[0] = np.eye(channels)
    return bcl.FilterBank(w, np.zeros(channels))


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def random_instance(rng, n=10, d=2, c=3, scale=2.0):
    pts = rng.normal(size=(n, d))
    lat = build_lattice(pts, LatticeConfig(d, scale))
    values = rng.normal(size=(n, c))
    return pts, lat, values


# ------------------------------------------------------------ splat / slice


def test_splat_mass_conservation():
    rng = np.random.default_rng(0)
    pts, lat, _ = random_instance(rng, n=40, d=3, c=1)
    vals = np.full((40, 1), 2.75)
    out = bcl.splat(vals, lat)
    assert abs(out.sum() - 40 * 2.75) < 1e-9


def test_splat_point_at_vertex_gets_full_weight():
    lat = build_lattice(np.zeros((1, 3)), LatticeConfig(3, 1.0))
    out = bcl.splat(np.array([[1.0]]), lat)
    np.testing.assert_allclose(out[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_splat_dense_oracle():
    rng = np.random.default_rng(1)
    pts, lat, values = random_instance(rng, n=12, d=2, c=3)
    np.testing.assert_allclose(bcl.splat(values, lat), dense_splat_matrix(lat) @ values, atol=1e-12)


def test_slice_constant_vertex_field():
    rng = np.random.default_rng(2)
    pts, lat, _ = random_instance(rng, n=20, d=3, c=1)
    vals = np.full((lat.num_vertices, 2), 3.25)
    out = bcl.slice(vals, lat.point_vertices, lat.point_bary)
    np.testing.assert_allclose(out, 3.25, atol=1e-9)


def test_slice_after_splat_single_point():
    lat = build_lattice(np.array([[0.37, -0.52, 0.81]]), LatticeConfig(3, 1.0))
    out = bcl.slice(bcl.splat(np.array([[5.0]]), lat), lat.point_vertices, lat.point_bary)
    expected = 5.0 * np.sum(lat.point_bary[0] ** 2)
    assert abs(out[0, 0] - expected) < 1e-12
    assert out[0, 0] <= 5.0 + 1e-12


@pytest.mark.parametrize("channels", [1, 5])
def test_slice_chunk_boundaries_match_one_einsum(channels):
    # two full row chunks plus one row, some output points far off the lattice
    rng = np.random.default_rng(21)
    lat = build_lattice(rng.normal(size=(300, 3)), LatticeConfig(3, 1.5))
    m = 2 * bcl._SLICE_ROWS + 1
    out_pts = rng.normal(size=(m, 3)) * rng.choice([1.0, 3.0], size=(m, 1))
    idx, bary = lat.embed(out_pts)
    assert (idx == MISSING).any() and not (idx == MISSING).all()
    values = rng.normal(size=(lat.num_vertices, channels))
    padded = np.vstack([values, np.zeros((1, channels))])
    expected = np.einsum("mk,mkc->mc", bary, padded[idx])
    out = bcl.slice(values, idx, bary)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


def test_splat_slice_adjoint():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        lat = build_lattice(pts, LatticeConfig(d, float(rng.uniform(0.5, 4.0))))
        c = int(rng.integers(1, 4))
        u = rng.normal(size=(n, c))
        v = rng.normal(size=(lat.num_vertices, c))
        lhs = np.sum(bcl.splat(u, lat) * v)
        rhs = np.sum(u * bcl.splat_adjoint(v, lat))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_slice_adjoint_dense():
    rng = np.random.default_rng(4)
    pts, lat, _ = random_instance(rng, n=15, d=2, c=2)
    out_pts = rng.normal(size=(9, 2))
    idx, bary = lat.embed(out_pts)
    g = rng.normal(size=(9, 2))
    dense = dense_slice_matrix(idx, bary, lat.num_vertices).T @ g
    np.testing.assert_allclose(bcl.slice_adjoint(g, idx, bary, lat.num_vertices), dense, atol=1e-12)


def test_splat_shape_errors():
    rng = np.random.default_rng(5)
    pts, lat, values = random_instance(rng)
    with pytest.raises(ShapeError):
        bcl.splat(values[:-1], lat)
    with pytest.raises(ShapeError):
        bcl.slice(np.zeros((lat.num_vertices, 2)), lat.point_vertices, lat.point_bary[:, :-1])


def test_slice_adjoint_shape_errors():
    rng = np.random.default_rng(31)
    pts, lat, _ = random_instance(rng, n=50, d=3, c=1)
    idx, bary = lat.embed(rng.normal(size=(50, 3)))
    with pytest.raises(ShapeError):
        bcl.slice_adjoint(np.zeros((49, 2)), idx, bary, lat.num_vertices)
    with pytest.raises(ShapeError):
        bcl.slice_adjoint(np.zeros(50), idx, bary, lat.num_vertices)
    with pytest.raises(ShapeError):
        bcl.slice_adjoint(np.zeros((50, 2)), idx, bary[:, :-1], lat.num_vertices)


# -------------------------------------------------------------- block splat

# Two full splat blocks and a partial one.
BLOCKS_N = 2 * 128 + 37


@pytest.mark.parametrize("d", [1, 3, 6])
def test_block_splat_dense_oracle_and_adjoint(d):
    rng = np.random.default_rng(40 + d)
    pts, lat, values = random_instance(rng, n=BLOCKS_N, d=d, c=3, scale=1.5)
    assert lat.splat_plan.starts.size == 4
    splatted = bcl._block_splat(values, lat)
    np.testing.assert_allclose(splatted, dense_splat_matrix(lat) @ values, atol=1e-12)
    scattered = bcl._scatter(values, lat.point_vertices, lat.point_bary, lat.num_vertices)
    np.testing.assert_allclose(scattered, splatted, atol=1e-12)
    v = rng.normal(size=(lat.num_vertices, 3))
    lhs = np.sum(splatted * v)
    rhs = np.sum(values * bcl.splat_adjoint(v, lat))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_splat_zero_channels():
    rng = np.random.default_rng(44)
    pts, lat, _ = random_instance(rng, n=BLOCKS_N, d=3)
    empty = np.zeros((BLOCKS_N, 0))
    assert bcl.splat(empty, lat).shape == (lat.num_vertices, 0)
    assert bcl._block_splat(empty, lat).shape == (lat.num_vertices, 0)


def test_splat_picks_the_block_plan_by_channels_and_occupancy():
    rng = np.random.default_rng(47)
    pts = rng.normal(size=(BLOCKS_N, 3))
    wide = rng.normal(size=(BLOCKS_N, bcl._PLAN_MIN_CHANNELS))
    dense = build_lattice(pts, LatticeConfig(3, 0.5))
    assert dense.occupancy_ratio() <= bcl._PLAN_MAX_OCCUPANCY
    bcl.splat(wide[:, :-1], dense)
    assert "splat_plan" not in vars(dense)
    bcl.splat(wide, dense)
    assert "splat_plan" in vars(dense)
    sparse = build_lattice(pts, LatticeConfig(3, 4.0))
    assert sparse.occupancy_ratio() > bcl._PLAN_MAX_OCCUPANCY
    bcl.splat(wide, sparse)
    assert "splat_plan" not in vars(sparse)


class _PulledRows:
    """A row source over an array that records the points of every pull."""

    def __init__(self, values):
        self.values = values
        self.shape = values.shape
        self.pulls = []

    def __getitem__(self, points):
        self.pulls.append(np.arange(self.shape[0])[points])
        return self.values[points].copy()


@pytest.mark.parametrize("channels, n, pulls", [
    (3, BLOCKS_N, [BLOCKS_N]),  # scattered: every row at once
    (bcl._PLAN_MIN_CHANNELS, BLOCKS_N, [128, 128, 37]),  # one pull per plan block
    (bcl._PLAN_MIN_CHANNELS, 257, [128, 129]),  # a one-point last block joins the one before
])
def test_splat_of_a_row_source_pulls_each_point_once(channels, n, pulls):
    rng = np.random.default_rng(48)
    pts, lat, values = random_instance(rng, n=n, d=3, c=channels, scale=0.5)
    source = _PulledRows(values)
    assert bcl.splat(source, lat).tobytes() == bcl.splat(values, lat).tobytes()
    assert [pull.size for pull in source.pulls] == pulls
    assert np.array_equal(np.sort(np.concatenate(source.pulls)), np.arange(n))


def test_slice_of_own_points_copies_no_vertex_table():
    # only an embedding with MISSING corners needs the zero-padded table
    rng = np.random.default_rng(49)
    pts, lat, _ = random_instance(rng, n=BLOCKS_N, d=3, c=1, scale=0.5)
    values = rng.normal(size=(lat.num_vertices, 4096))
    rows = np.s_[:2]
    out, peak = traced_peak(
        lambda: bcl.slice(values, lat.point_vertices[rows], lat.point_bary[rows]))
    assert peak < values.nbytes // 4
    assert out.tobytes() == bcl.slice(np.vstack([values, np.zeros((1, 4096))]),
                                      lat.point_vertices[rows], lat.point_bary[rows]).tobytes()


def test_splat_bitwise_repeatable():
    rng = np.random.default_rng(45)
    pts, lat, values = random_instance(rng, n=BLOCKS_N, d=3, c=16, scale=0.5)
    first = bcl.splat(values, lat)
    assert "splat_plan" in vars(lat)
    assert bcl.splat(values, lat).tobytes() == first.tobytes()
    again = build_lattice(pts, lat.config)
    assert bcl.splat(values, again).tobytes() == first.tobytes()


def test_bcl_backward_blocks_match_dense_transpose():
    # sliced back onto its own points, the backward splats its cotangent
    rng = np.random.default_rng(46)
    pts = rng.normal(size=(BLOCKS_N, 3))
    desc = bcl.make_descriptor(pts, LatticeConfig(3, 0.5))
    lat = desc.lattice
    c_out = bcl._PLAN_MIN_CHANNELS
    bank = bcl.FilterBank(rng.normal(size=(lat.adjacency.shape[1], 2, c_out)),
                          rng.normal(size=c_out))
    values = rng.normal(size=(BLOCKS_N, 2))
    _, splatted = splat_forward(values, desc, bank)
    assert "splat_plan" not in vars(lat)
    g = rng.normal(size=(BLOCKS_N, c_out))
    grad_input, _, _ = bcl.bcl_backward(desc, bank, splatted, g)
    assert "splat_plan" in vars(lat)
    s_splat = dense_splat_matrix(lat)
    g_filtered = s_splat @ (g / desc.denominator)
    g_splat = sum(dense_tap_matrix(lat, k).T @ g_filtered @ bank.weights[k].T
                  for k in range(bank.taps))
    np.testing.assert_allclose(grad_input, s_splat.T @ g_splat, atol=1e-10)


# ----------------------------------------------------------------- convolve


def test_convolve_identity_kernel():
    rng = np.random.default_rng(6)
    pts, lat, _ = random_instance(rng, n=25, d=3, c=4)
    vals = rng.normal(size=(lat.num_vertices, 4))
    bank = identity_bank(lat.adjacency.shape[1], 4)
    np.testing.assert_allclose(bcl.convolve(vals, lat, bank), vals, atol=1e-12)


def test_convolve_bias_only():
    rng = np.random.default_rng(7)
    pts, lat, _ = random_instance(rng, n=10, d=2, c=2)
    k = lat.adjacency.shape[1]
    bank = bcl.FilterBank(np.zeros((k, 2, 3)), np.array([1.0, -2.0, 0.5]))
    out = bcl.convolve(np.zeros((lat.num_vertices, 2)), lat, bank)
    np.testing.assert_allclose(out, np.tile([1.0, -2.0, 0.5], (lat.num_vertices, 1)))


def test_convolve_dense_oracle():
    rng = np.random.default_rng(8)
    pts, lat, _ = random_instance(rng, n=14, d=2, c=3)
    k = lat.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 3, 2)), rng.normal(size=2))
    vals = rng.normal(size=(lat.num_vertices, 3))
    dense = np.tile(bank.bias, (lat.num_vertices, 1))
    for tap in range(k):
        dense += (dense_tap_matrix(lat, tap) @ vals) @ bank.weights[tap]
    np.testing.assert_allclose(bcl.convolve(vals, lat, bank), dense, atol=1e-10)


def assert_rel_close(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 3, 6])
@pytest.mark.parametrize("c_in, c_out", [(1, 1), (3, 5)])
def test_convolve_and_gradients_dense_oracle(d, c_in, c_out):
    # (1, 1) is the shape of the normalization ones-pass
    rng = np.random.default_rng(60 + 10 * d + c_in)
    pts, lat, _ = random_instance(rng, n=40, d=d)
    assert (lat.adjacency == MISSING).any()
    k = lat.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, c_in, c_out)), rng.normal(size=c_out))
    vals = rng.normal(size=(lat.num_vertices, c_in))
    grad_out = rng.normal(size=(lat.num_vertices, c_out))
    tap_matrices = [dense_tap_matrix(lat, tap) for tap in range(k)]

    want = bank.bias + sum(t @ vals @ w for t, w in zip(tap_matrices, bank.weights))
    assert_rel_close(bcl.convolve(vals, lat, bank), want)
    g_vals, g_w, g_b = bcl.convolve_backward(vals, lat, bank, grad_out)
    assert_rel_close(g_vals, sum(t.T @ grad_out @ w.T for t, w in zip(tap_matrices, bank.weights)))
    assert_rel_close(g_w, np.stack([(t @ vals).T @ grad_out for t in tap_matrices]))
    assert_rel_close(g_b, grad_out.sum(axis=0))


def test_convolve_and_backward_bitwise_repeatable():
    rng = np.random.default_rng(65)
    pts, lat, _ = random_instance(rng, n=200, d=3, scale=1.0)
    k = lat.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 16, 8)), rng.normal(size=8))
    vals = rng.normal(size=(lat.num_vertices, 16))
    grad_out = rng.normal(size=(lat.num_vertices, 8))
    assert bcl.convolve(vals, lat, bank).tobytes() == bcl.convolve(vals, lat, bank).tobytes()
    first = bcl.convolve_backward(vals, lat, bank, grad_out)
    second = bcl.convolve_backward(vals, lat, bank, grad_out)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_convolve_backward_dense_and_fd():
    rng = np.random.default_rng(9)
    pts, lat, _ = random_instance(rng, n=8, d=2, c=2)
    k = lat.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 2, 3)), rng.normal(size=3))
    vals = rng.normal(size=(lat.num_vertices, 2))
    probe = rng.normal(size=(lat.num_vertices, 3))

    g_vals, g_w, g_b = bcl.convolve_backward(vals, lat, bank, probe)

    def objective():
        return np.sum(probe * bcl.convolve(vals, lat, bank))

    assert rel_err(fd_grad(objective, vals), g_vals) < 1e-6
    assert rel_err(fd_grad(objective, bank.weights), g_w) < 1e-6
    assert rel_err(fd_grad(objective, bank.bias), g_b) < 1e-6


def test_convolve_tap_mismatch():
    rng = np.random.default_rng(10)
    pts, lat, _ = random_instance(rng, n=6, d=2, c=2)
    bank = bcl.FilterBank(np.zeros((3, 2, 2)), np.zeros(2))  # wrong K for d=2
    with pytest.raises(ShapeError):
        bcl.convolve(np.zeros((lat.num_vertices, 2)), lat, bank)


@pytest.mark.parametrize("case", ["extra_row", "wide_grad", "narrow_values", "flat_grad"])
def test_convolve_backward_shape_errors(case):
    rng = np.random.default_rng(11)
    pts, lat, _ = random_instance(rng, n=6, d=2, c=2)
    v = lat.num_vertices
    bank = bcl.FilterBank(np.zeros((lat.adjacency.shape[1], 2, 3)), np.zeros(3))
    saved, grad_out = np.zeros((v, 2)), np.zeros((v, 3))
    if case == "extra_row":
        grad_out = np.zeros((v + 1, 3))
    elif case == "wide_grad":
        grad_out = np.zeros((v, 4))
    elif case == "narrow_values":
        saved = np.zeros((v, 1))
    else:
        grad_out = np.zeros(v)
    with pytest.raises(ShapeError):
        bcl.convolve_backward(saved, lat, bank, grad_out)


# -------------------------------------------------------------- normalize


def test_normalize_matched_kernel_preserves_constants():
    # a kernel whose channel sums follow the default blur profile => exact quotient
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = int(rng.integers(4, 30))
        pts = rng.normal(size=(n, 3))
        desc = bcl.make_descriptor(pts, LatticeConfig(3, float(rng.uniform(0.5, 4.0))))
        profile = bcl.default_blur_profile(desc.lattice.adjacency.shape[1])
        mix = rng.normal(size=(2, 2))
        bank = bcl.FilterBank(profile[:, None, None] * mix, np.zeros(2))
        const = rng.normal(size=2)
        out, _ = splat_forward(np.tile(const, (n, 1)), desc, bank)
        np.testing.assert_allclose(out, np.tile(const @ mix, (n, 1)), atol=1e-6)


def test_normalize_dense_oracle():
    rng = np.random.default_rng(12)
    pts, lat, values = random_instance(rng, n=10, d=2, c=2)
    desc = bcl.make_descriptor(pts, lat.config)
    k = lat.adjacency.shape[1]
    profile = rng.uniform(0.2, 1.0, size=k)
    bank = bcl.FilterBank(profile[:, None, None] * np.eye(2)[None], np.zeros(2))
    out, _ = splat_forward(values, desc, bank)

    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(lat.point_vertices, lat.point_bary, lat.num_vertices)
    blur_mat = sum(profile[t] * dense_tap_matrix(lat, t) for t in range(k))
    num = s_slice @ blur_mat @ s_splat @ values
    den = dense_denominator(lat, lat.point_vertices, lat.point_bary)
    np.testing.assert_allclose(out, num / den, rtol=1e-9, atol=1e-12)


# ------------------------------------------------------- bcl forward/backward


def test_bcl_forward_identity_is_normalized_splat_slice():
    rng = np.random.default_rng(13)
    pts, lat, values = random_instance(rng, n=18, d=3, c=2)
    desc = bcl.make_descriptor(pts, lat.config)
    bank = identity_bank(desc.lattice.adjacency.shape[1], 2)
    out, _ = splat_forward(values, desc, bank)
    lat = desc.lattice
    ref = bcl.slice(bcl.splat(values, lat), lat.point_vertices, lat.point_bary)
    np.testing.assert_allclose(out, ref / desc.denominator, atol=1e-12)


def test_bcl_forward_dense_oracle_per_channel():
    rng = np.random.default_rng(15)
    for trial in range(10):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        cfg = LatticeConfig(d, float(rng.uniform(0.5, 4.0)))
        desc = bcl.make_descriptor(pts, cfg)
        k = desc.lattice.adjacency.shape[1]
        c = int(rng.integers(1, 4))
        bank = bcl.FilterBank(rng.normal(size=(k, c, c)), rng.normal(size=c))
        values = rng.normal(size=(n, c))
        out, _ = splat_forward(values, desc, bank)
        lat = desc.lattice
        embedding = (lat, lat.point_vertices, lat.point_bary)
        ref = dense_bcl(values, *embedding, bank) / dense_denominator(*embedding)
        assert np.max(np.abs(out - ref)) < 1e-9


def test_bcl_linear_in_features():
    rng = np.random.default_rng(16)
    pts, lat, _ = random_instance(rng, n=12, d=2, c=3)
    desc = bcl.make_descriptor(pts, lat.config)
    k = desc.lattice.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 3, 2)), np.zeros(2))
    a, b = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
    out_a, _ = splat_forward(a, desc, bank)
    out_b, _ = splat_forward(b, desc, bank)
    out_ab, _ = splat_forward(3.0 * a - 0.5 * b, desc, bank)
    np.testing.assert_allclose(out_ab, 3.0 * out_a - 0.5 * out_b, atol=1e-10)


def test_bcl_backward_identity_net_matches_dense_transpose():
    rng = np.random.default_rng(17)
    pts, lat, values = random_instance(rng, n=9, d=2, c=1)
    desc = bcl.make_descriptor(pts, lat.config)
    bank = identity_bank(desc.lattice.adjacency.shape[1], 1)
    _, splatted = splat_forward(values, desc, bank)
    g = rng.normal(size=(9, 1))
    grad_input, _, _ = bcl.bcl_backward(desc, bank, splatted, g)
    lat = desc.lattice
    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(lat.point_vertices, lat.point_bary, lat.num_vertices)
    den = dense_denominator(lat, lat.point_vertices, lat.point_bary)
    np.testing.assert_allclose(grad_input, s_splat.T @ (s_slice.T @ (g / den)), atol=1e-10)


def test_bcl_backward_zero_grad():
    rng = np.random.default_rng(18)
    pts, lat, values = random_instance(rng)
    desc = bcl.make_descriptor(pts, lat.config)
    bank = bcl.FilterBank(
        rng.normal(size=(desc.lattice.adjacency.shape[1], 3, 2)), rng.normal(size=2)
    )
    _, splatted = splat_forward(values, desc, bank)
    grad_input, grad_weights, grad_bias = bcl.bcl_backward(desc, bank, splatted, np.zeros((10, 2)))
    assert not grad_input.any()
    assert not grad_weights.any()
    assert not grad_bias.any()


def test_bcl_backward_shape_errors():
    rng = np.random.default_rng(47)
    pts, lat, values = random_instance(rng)
    desc = bcl.make_descriptor(pts, lat.config)
    bank = bcl.FilterBank(rng.normal(size=(desc.lattice.adjacency.shape[1], 3, 2)),
                          rng.normal(size=2))
    _, splatted = splat_forward(values, desc, bank)
    for bad in (np.zeros((10, 2, 1)), np.zeros((9, 2)), np.zeros((10, 3)), np.zeros(10)):
        with pytest.raises(ShapeError):
            bcl.bcl_backward(desc, bank, splatted, bad)


def test_bcl_backward_finite_differences():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(7, 2))
    cfg = LatticeConfig(2, 1.5)
    desc = bcl.make_descriptor(pts, cfg)
    k = desc.lattice.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 2, 3)), rng.normal(size=3))
    values = rng.normal(size=(7, 2))
    probe = rng.normal(size=(7, 3))

    _, splatted = splat_forward(values, desc, bank)
    grad_input, grad_weights, grad_bias = bcl.bcl_backward(desc, bank, splatted, probe)

    def objective():
        return np.sum(probe * splat_forward(values, desc, bank)[0])

    assert rel_err(fd_grad(objective, values), grad_input) < 1e-4
    assert rel_err(fd_grad(objective, bank.weights), grad_weights) < 1e-4
    assert rel_err(fd_grad(objective, bank.bias), grad_bias) < 1e-4


def test_bcl_permutation_equivariance():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(30, 3))
    values = rng.normal(size=(30, 2))
    cfg = LatticeConfig(3, 2.0)
    k = 2 ** 4 - 1
    bank = bcl.FilterBank(rng.normal(size=(k, 2, 2)), rng.normal(size=2))
    perm = rng.permutation(30)
    out, _ = splat_forward(values, bcl.make_descriptor(pts, cfg), bank)
    out_p, _ = splat_forward(values[perm], bcl.make_descriptor(pts[perm], cfg), bank)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-6)


# ------------------------------------------------------------------ project


def test_project_constant_preserved_on_same_cloud():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(40, 3))
    vals = np.tile([7.5, -2.25], (40, 1))
    out = bcl.project(vals, pts, pts, LatticeConfig(3, 2.0))
    np.testing.assert_allclose(out, vals, atol=1e-6)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_project_refuses_nonfinite_values(bad):
    # the first two points share vertices, so the bad value would reach both
    pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [5.0, 5.0, 5.0]])
    with pytest.raises(InvalidInput, match="finite"):
        bcl.project(np.array([[bad], [1.0], [2.0]]), pts, pts, LatticeConfig(3, 1.0))


def test_project_far_destination_is_zero():
    rng = np.random.default_rng(23)
    pts = rng.normal(size=(10, 3)) * 0.1
    out = bcl.project(np.ones((10, 2)), pts, np.full((4, 3), 1e5), LatticeConfig(3, 1.0))
    np.testing.assert_array_equal(out, np.zeros((4, 2)))


def test_project_dense_oracle():
    rng = np.random.default_rng(24)
    src = rng.normal(size=(12, 2))
    dst = rng.normal(size=(8, 2))
    vals = rng.normal(size=(12, 3))
    cfg = LatticeConfig(2, 1.0)
    out = bcl.project(vals, src, dst, cfg)
    lat = build_lattice(src, cfg)
    idx, bary = lat.embed(dst)
    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(idx, bary, lat.num_vertices)
    num = s_slice @ s_splat @ vals
    den = s_slice @ s_splat @ np.ones((12, 1))
    np.testing.assert_allclose(out, num / np.maximum(den, 1e-12), atol=1e-9)


def test_project_smoothing_residual_decreases_with_scale():
    rng = np.random.default_rng(25)
    pts = rng.normal(size=(60, 3))
    vals = rng.normal(size=(60, 2))
    residuals = []
    for lam in (1.0, 4.0, 16.0, 64.0):
        out = bcl.project(vals, pts, pts, LatticeConfig(3, lam))
        residuals.append(np.mean(np.abs(out - vals)))
    assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals


# ------------------------------------------------------- lazy adjacency


def test_project_never_builds_the_adjacency(monkeypatch):
    built = []
    original = bcl.build_lattice

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bcl, "build_lattice", recording)
    rng = np.random.default_rng(26)
    bcl.project(rng.normal(size=(50, 2)), rng.normal(size=(50, 3)),
                rng.normal(size=(30, 3)), LatticeConfig(3, 2.0))
    assert len(built) == 1
    assert "adjacency" not in vars(built[0])
    assert "splat_plan" not in vars(built[0])


def test_ones_pass_never_builds_a_splat_plan():
    rng = np.random.default_rng(28)
    desc = bcl.make_descriptor(rng.normal(size=(80, 3)), LatticeConfig(3, 2.0))
    assert desc.denominator.shape == (80, 1)
    assert "splat_plan" not in vars(desc.lattice)


def test_default_blur_descriptor_holds_a_read_only_adjacency():
    rng = np.random.default_rng(27)
    feats, cfg = rng.normal(size=(80, 3)), LatticeConfig(3, 2.0)
    lat = bcl.make_descriptor(feats, cfg).lattice
    assert "adjacency" in vars(lat)  # the ones-pass blur read it
    keys = vertex_keys(feats, cfg)
    ref = {tuple(k): i for i, k in enumerate(keys.tolist())}
    want = [[ref.get(tuple(k), MISSING) for k in (key + lat.offsets).tolist()]
            for key in keys]
    np.testing.assert_array_equal(lat.adjacency, want)
    assert not lat.adjacency.flags.writeable
    assert lat.adjacency is lat.adjacency  # resolved once


def test_prepared_descriptor_bytes_count_the_adjacency():
    # the training descriptor cache budgets with nbytes, so the pinned byte
    # counts include each lattice's adjacency
    from latseg import network
    from latseg.train import _DescriptorCache

    rng = np.random.default_rng(23)
    spec = network.parse_arch("B8-B8-B8-C2", LatticeConfig(3, 4.0))
    feats = rng.normal(size=(300, 3))
    descs = _DescriptorCache(spec, [0], lambda i: feats).get(0, feats)
    assert [d.nbytes for d in descs] == [178584, 121144, 60648]
    for d in descs:
        assert "adjacency" in vars(d.lattice)

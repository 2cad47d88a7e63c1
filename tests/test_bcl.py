"""Bilateral convolution layer tests.

Dense-matrix oracles: explicit splat/slice/tap matrices multiplied straight
through, so the sparse path is checked against an independent construction.
Gradient oracle: central finite differences at h = 1e-5.
"""

import numpy as np
import pytest

from latseg import bcl
from latseg.errors import InvalidInput, ShapeError
from latseg.lattice import MISSING, LatticeConfig, build_lattice

H = 1e-5


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


def dense_bcl(values, lat, indices, bary, bank):
    """Independent dense evaluation of splat -> convolve -> slice."""
    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(indices, bary, lat.num_vertices)
    splatted = s_splat @ values
    filtered = np.tile(bank.bias, (lat.num_vertices, 1))
    for k in range(bank.taps):
        filtered += (dense_tap_matrix(lat, k) @ splatted) @ bank.weights[k]
    return s_slice @ filtered


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def fd_grad(fn, x, h=H):
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = fn()
        flat_x[i] = orig - h
        fm = fn()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


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


# ----------------------------------------------------------------- convolve


def test_convolve_identity_kernel():
    rng = np.random.default_rng(6)
    pts, lat, _ = random_instance(rng, n=25, d=3, c=4)
    vals = rng.normal(size=(lat.num_vertices, 4))
    bank = bcl.identity_bank(lat.adjacency.shape[1], 4)
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


# -------------------------------------------------------------- normalize


def test_normalize_matched_kernel_preserves_constants():
    # ones-pass blur proportional to the convolution profile => exact quotient
    rng = np.random.default_rng(11)
    for trial in range(5):
        n = int(rng.integers(4, 30))
        pts = rng.normal(size=(n, 3))
        lat = build_lattice(pts, LatticeConfig(3, float(rng.uniform(0.5, 4.0))))
        k = lat.adjacency.shape[1]
        profile = rng.uniform(0.1, 1.0, size=k)
        mix = rng.normal(size=(2, 2))
        weights = profile[:, None, None] * mix  # channel sums prop. to profile
        bank = bcl.FilterBank(weights, np.zeros(2))
        const = rng.normal(size=2)
        values = np.tile(const, (n, 1))
        raw = bcl.slice(
            bcl.convolve(bcl.splat(values, lat), lat, bank),
            lat.point_vertices,
            lat.point_bary,
        )
        desc = bcl.make_descriptor(pts, None, lat.config, blur=profile / profile.sum())
        out = raw / desc.denominator
        expected = (const @ mix) * profile.sum()
        np.testing.assert_allclose(out, np.tile(expected, (n, 1)), atol=1e-6)


def test_normalize_dense_oracle():
    rng = np.random.default_rng(12)
    pts, lat, values = random_instance(rng, n=10, d=2, c=2)
    k = lat.adjacency.shape[1]
    profile = rng.uniform(0.2, 1.0, size=k)
    bank = bcl.FilterBank(profile[:, None, None] * np.eye(2)[None], np.zeros(2))
    raw = bcl.slice(
        bcl.convolve(bcl.splat(values, lat), lat, bank), lat.point_vertices, lat.point_bary
    )
    out = raw / bcl.make_descriptor(pts, None, lat.config, blur=profile).denominator

    s_splat = dense_splat_matrix(lat)
    s_slice = dense_slice_matrix(lat.point_vertices, lat.point_bary, lat.num_vertices)
    blur_mat = sum(profile[t] * dense_tap_matrix(lat, t) for t in range(k))
    num = s_slice @ blur_mat @ s_splat @ values
    den = s_slice @ blur_mat @ s_splat @ np.ones((lat.num_points, 1))
    np.testing.assert_allclose(out, num / np.maximum(den, 1e-12), rtol=1e-9, atol=1e-12)


def test_normalize_zero_support_outputs_zero():
    pts = np.zeros((4, 3)) + 0.2
    lat = build_lattice(pts, LatticeConfig(3, 1.0))
    far = np.full((2, 3), 1e4)
    idx, bary = lat.embed(far)
    raw = bcl.slice(bcl.splat(np.ones((4, 1)), lat), idx, bary)
    out = raw / bcl.make_descriptor(pts, far, lat.config, blur=None).denominator
    np.testing.assert_array_equal(out, np.zeros((2, 1)))


# ------------------------------------------------------- bcl forward/backward


def test_bcl_forward_identity_unnormalized_is_splat_slice():
    rng = np.random.default_rng(13)
    pts, lat, values = random_instance(rng, n=18, d=3, c=2)
    desc = bcl.make_descriptor(pts, None, lat.config, normalize=False)
    bank = bcl.identity_bank(desc.lattice.adjacency.shape[1], 2)
    out, _ = bcl.bcl_forward(values, desc, bank)
    ref = bcl.slice(bcl.splat(values, desc.lattice), desc.out_indices, desc.out_bary)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_bcl_forward_identity_matched_blur_preserves_constants():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(25, 3))
    cfg = LatticeConfig(3, 2.0)
    k = 2 ** 4 - 1
    blur = np.zeros(k)
    blur[0] = 1.0  # matches the identity kernel's tap profile
    desc = bcl.make_descriptor(pts, None, cfg, normalize=True, blur=blur)
    bank = bcl.identity_bank(k, 3)
    const = np.array([2.0, -1.0, 0.25])
    out, _ = bcl.bcl_forward(np.tile(const, (25, 1)), desc, bank)
    np.testing.assert_allclose(out, np.tile(const, (25, 1)), atol=1e-6)


def test_bcl_forward_dense_oracle_per_channel():
    rng = np.random.default_rng(15)
    for trial in range(10):
        n = int(rng.integers(2, 20))
        d = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, d))
        cfg = LatticeConfig(d, float(rng.uniform(0.5, 4.0)))
        m = int(rng.integers(1, 15))
        out_pts = rng.normal(size=(m, d))
        desc = bcl.make_descriptor(pts, out_pts, cfg, normalize=False)
        k = desc.lattice.adjacency.shape[1]
        c = int(rng.integers(1, 4))
        bank = bcl.FilterBank(rng.normal(size=(k, c, c)), rng.normal(size=c))
        values = rng.normal(size=(n, c))
        out, _ = bcl.bcl_forward(values, desc, bank)
        ref = dense_bcl(values, desc.lattice, desc.out_indices, desc.out_bary, bank)
        assert np.max(np.abs(out - ref)) < 1e-9


def test_bcl_linear_in_features():
    rng = np.random.default_rng(16)
    pts, lat, _ = random_instance(rng, n=12, d=2, c=3)
    desc = bcl.make_descriptor(pts, None, lat.config, normalize=True)
    k = desc.lattice.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 3, 2)), np.zeros(2))
    a, b = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
    out_a, _ = bcl.bcl_forward(a, desc, bank)
    out_b, _ = bcl.bcl_forward(b, desc, bank)
    out_ab, _ = bcl.bcl_forward(3.0 * a - 0.5 * b, desc, bank)
    np.testing.assert_allclose(out_ab, 3.0 * out_a - 0.5 * out_b, atol=1e-10)


def test_bcl_backward_identity_net_matches_dense_transpose():
    rng = np.random.default_rng(17)
    pts, lat, values = random_instance(rng, n=9, d=2, c=1)
    desc = bcl.make_descriptor(pts, None, lat.config, normalize=False)
    bank = bcl.identity_bank(desc.lattice.adjacency.shape[1], 1)
    _, splatted = bcl.bcl_forward(values, desc, bank)
    g = rng.normal(size=(9, 1))
    grad_input, _, _ = bcl.bcl_backward(desc, bank, splatted, g)
    s_splat = dense_splat_matrix(desc.lattice)
    s_slice = dense_slice_matrix(desc.out_indices, desc.out_bary, desc.lattice.num_vertices)
    np.testing.assert_allclose(grad_input, s_splat.T @ (s_slice.T @ g), atol=1e-10)


def test_bcl_backward_zero_grad():
    rng = np.random.default_rng(18)
    pts, lat, values = random_instance(rng)
    desc = bcl.make_descriptor(pts, None, lat.config, normalize=True)
    bank = bcl.FilterBank(
        rng.normal(size=(desc.lattice.adjacency.shape[1], 3, 2)), rng.normal(size=2)
    )
    _, splatted = bcl.bcl_forward(values, desc, bank)
    grad_input, grad_weights, grad_bias = bcl.bcl_backward(desc, bank, splatted, np.zeros((10, 2)))
    assert not grad_input.any()
    assert not grad_weights.any()
    assert not grad_bias.any()


@pytest.mark.parametrize("normalized", [False, True])
def test_bcl_backward_finite_differences(normalized):
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(7, 2))
    out_pts = np.concatenate([pts[:4], rng.normal(size=(3, 2))])
    cfg = LatticeConfig(2, 1.5)
    desc = bcl.make_descriptor(pts, out_pts, cfg, normalize=normalized)
    k = desc.lattice.adjacency.shape[1]
    bank = bcl.FilterBank(rng.normal(size=(k, 2, 3)), rng.normal(size=3))
    values = rng.normal(size=(7, 2))
    probe = rng.normal(size=(desc.num_out, 3))

    _, splatted = bcl.bcl_forward(values, desc, bank)
    grad_input, grad_weights, grad_bias = bcl.bcl_backward(desc, bank, splatted, probe)

    def objective():
        return np.sum(probe * bcl.bcl_forward(values, desc, bank)[0])

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
    for normalized in (False, True):
        out = bcl.bcl_apply(values, pts, None, cfg, bank, normalize=normalized)
        out_p = bcl.bcl_apply(values[perm], pts[perm], None, cfg, bank, normalize=normalized)
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
    made = []
    make_descriptor = bcl.make_descriptor

    def recording(*args, **kwargs):
        made.append(make_descriptor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(bcl, "make_descriptor", recording)
    rng = np.random.default_rng(26)
    bcl.project(rng.normal(size=(50, 2)), rng.normal(size=(50, 3)),
                rng.normal(size=(30, 3)), LatticeConfig(3, 2.0))
    assert len(made) == 1
    assert "adjacency" not in vars(made[0].lattice)


def test_default_blur_descriptor_holds_a_read_only_adjacency():
    rng = np.random.default_rng(27)
    lat = bcl.make_descriptor(rng.normal(size=(80, 3)), None, LatticeConfig(3, 2.0)).lattice
    assert "adjacency" in vars(lat)  # the ones-pass blur read it
    off = lat.offsets.offsets
    keys = lat.vertex_keys[:, None, :] + off[None]
    want = lat.lookup(keys.reshape(-1, off.shape[1])).reshape(lat.num_vertices, -1)
    np.testing.assert_array_equal(lat.adjacency, want)
    assert not lat.adjacency.flags.writeable
    assert lat.adjacency is lat.adjacency  # resolved once


def test_prepared_descriptor_bytes_count_the_adjacency():
    # the training descriptor cache budgets with nbytes, so the pinned byte
    # counts include each lattice's adjacency
    from latseg import network

    rng = np.random.default_rng(23)
    spec = network.parse_arch("B8-B8-B8-C2", LatticeConfig(3, 4.0))
    descs = network.prepare_descriptors(spec, rng.normal(size=(300, 3)))
    assert [d.nbytes for d in descs] == [199112, 131112, 59912]
    for d in descs:
        assert "adjacency" in vars(d.lattice)

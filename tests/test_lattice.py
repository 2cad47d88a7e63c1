"""Lattice construction tests.

Oracles used here:
  * brute-force enumeration of one-ring offsets over all sum-zero congruent
    integer vectors with coordinate spread <= d+1 (`oracles.brute_force_one_ring`)
  * a plain dict as the reference associative map for vertex-index lookups,
    on clouds that exercise both index encodings (int64 codes and byte rows)
  * barycentric reconstruction: sum_r bary[r] * vertex_key[r] == elevated
"""

import math

import numpy as np
import pytest

from latseg.errors import EmptyInput, InvalidInput
from latseg.lattice import (
    _MAX_COORD,
    MISSING,
    LatticeConfig,
    _locate_many,
    _VertexIndex,
    build_lattice,
    elevate_many,
    neighbor_offsets,
)

from oracles import brute_force_one_ring


# ---------------------------------------------------------------- elevation


def test_elevate_zero_is_origin():
    cfg = LatticeConfig(3, 1.0)
    assert np.array_equal(elevate_many(np.zeros((1, 3)), cfg)[0], np.zeros(4))


def test_elevate_1d_shape_and_sign():
    cfg = LatticeConfig(1, 2.5)
    e = elevate_many(np.array([[0.75]]), cfg)[0]
    # 1-d elevation lands on the [+1, -1] axis with magnitude prop. to t * scale
    assert e[0] > 0 and e[1] == -e[0]
    e2 = elevate_many(np.array([[1.5]]), cfg)[0]
    assert np.allclose(e2, 2 * e, atol=1e-12)


def test_elevate_sum_zero_and_linear():
    rng = np.random.default_rng(7)
    cfg = LatticeConfig(3, np.array([8.0, 2.0, 0.5]))
    a = rng.normal(size=(500, 3)) * 10
    b = rng.normal(size=(500, 3)) * 10
    ea, eb = elevate_many(a, cfg), elevate_many(b, cfg)
    assert np.max(np.abs(ea.sum(axis=1))) < 1e-9 * max(1.0, np.abs(ea).max())
    eab = elevate_many(2.0 * a - 3.0 * b, cfg)
    np.testing.assert_allclose(eab, 2.0 * ea - 3.0 * eb, atol=1e-9)


def test_elevate_scale_folds_into_features():
    cfg1 = LatticeConfig(2, np.array([4.0, 0.25]))
    cfg2 = LatticeConfig(2, 1.0)
    f = np.array([[0.3, -1.7]])
    np.testing.assert_allclose(
        elevate_many(f, cfg1), elevate_many(f * np.array([4.0, 0.25]), cfg2), atol=1e-12
    )


def test_elevate_rejects_bad_input():
    cfg = LatticeConfig(2, 1.0)
    with pytest.raises(InvalidInput):
        elevate_many(np.array([[np.nan, 0.0]]), cfg)
    with pytest.raises(InvalidInput):
        elevate_many(np.zeros((4, 3)), cfg)
    with pytest.raises(InvalidInput):
        LatticeConfig(2, -1.0)
    with pytest.raises(InvalidInput):
        LatticeConfig(0, 1.0)


# ------------------------------------------------------------------ locate


def test_locate_at_remainder0_vertex():
    keys, bary = _locate_many(np.zeros((1, 4)))
    np.testing.assert_allclose(bary[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(keys[0, 0], np.zeros(4, dtype=np.int64))
    # a nonzero remainder-0 point
    p = np.array([4.0, -4.0, 0.0, 0.0]) * 3
    keys, bary = _locate_many(p[None, :])
    np.testing.assert_allclose(bary[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(keys[0, 0], p.astype(np.int64))


def test_locate_centroid_equal_weights():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5):
        cfg = LatticeConfig(d, 1.0)
        seed = elevate_many(rng.normal(size=(1, d)), cfg)
        keys, _ = _locate_many(seed)
        centroid = keys[0].mean(axis=0)
        _, bary = _locate_many(centroid[None, :])
        np.testing.assert_allclose(bary[0], np.full(d + 1, 1 / (d + 1)), atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_locate_reconstruction_and_classes(d):
    rng = np.random.default_rng(100 + d)
    cfg = LatticeConfig(d, float(rng.uniform(0.5, 8.0)))
    elev = elevate_many(rng.normal(size=(800, d)) * 5, cfg)
    rows = np.arange(0, 800, 37)
    all_keys, all_bary = _locate_many(elev[rows])
    for row, vertex_keys, bary in zip(rows, all_keys, all_bary):
        scale = max(1.0, np.abs(elev[row]).max())
        # exactly one vertex per remainder class, rows in class order
        for r in range(d + 1):
            key = vertex_keys[r]
            assert key[0] % (d + 1) == r
            assert key.sum() == 0
            assert np.all(key % (d + 1) == key[0] % (d + 1))
        assert abs(bary.sum() - 1.0) < 1e-9
        assert bary.min() >= -1e-12
        recon = bary @ vertex_keys
        assert np.max(np.abs(recon - elev[row])) < 1e-9 * scale


def test_locate_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        _locate_many(np.array([[np.inf, -np.inf, 0.0]]))


# ---------------------------------------------------------------- offsets


def test_neighbor_offsets_d1_exact_order():
    off = neighbor_offsets(1)
    np.testing.assert_array_equal(off, [[0, 0], [1, -1], [-1, 1]])
    # memoized and shared by every lattice of this dimension
    assert not off.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_neighbor_offsets_match_brute_force(d):
    off = neighbor_offsets(d)
    assert off.shape == (2 ** (d + 1) - 1, d + 1)
    assert np.array_equal(off[0], np.zeros(d + 1, dtype=np.int64))
    assert np.all(off.sum(axis=1) == 0)
    for row in off:
        assert np.all(row % (d + 1) == row[0] % (d + 1))
    got = {tuple(int(x) for x in row) for row in off}
    assert len(got) == off.shape[0]
    assert got == brute_force_one_ring(d)


def test_neighbor_offsets_extent_unsupported():
    with pytest.raises(InvalidInput):
        neighbor_offsets(0)


# ----------------------------------------------------------- build_lattice


def test_build_single_point_d3():
    lat = build_lattice(np.array([[0.21, -0.73, 0.04]]), LatticeConfig(3, 1.0))
    assert lat.num_vertices == 4
    assert lat.adjacency.shape == (4, 15)
    np.testing.assert_array_equal(lat.adjacency[:, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(lat.point_vertices[0], [2, 3, 0, 1])
    assert abs(lat.point_bary.sum() - 1.0) < 1e-12
    # the 4 corners of one simplex are mutual one-ring neighbors
    for v in range(4):
        neigh = set(lat.adjacency[v][lat.adjacency[v] != MISSING].tolist())
        assert neigh == {0, 1, 2, 3}


def test_build_duplicate_points_share_vertices():
    pts = np.tile(np.array([[0.4, 0.6, -0.1]]), (10, 1))
    lat = build_lattice(pts, LatticeConfig(3, 2.0))
    assert lat.num_vertices == 4
    assert np.all(lat.point_vertices == lat.point_vertices[0])
    np.testing.assert_allclose(lat.point_bary, np.tile(lat.point_bary[0], (10, 1)))


def test_build_deterministic():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(300, 3))
    cfg = LatticeConfig(3, 4.0)
    a, b = build_lattice(pts, cfg), build_lattice(pts, cfg)
    np.testing.assert_array_equal(a.point_vertices, b.point_vertices)
    np.testing.assert_array_equal(a.vertex_keys, b.vertex_keys)
    np.testing.assert_array_equal(a.adjacency, b.adjacency)
    np.testing.assert_array_equal(a.point_bary, b.point_bary)


def encoding_of(lat):
    """'int64' or 'bytes': how the lattice's vertex index encodes its rows."""
    return "bytes" if lat._index.codes.dtype.kind == "V" else "int64"


def byte_encoded_clouds():
    """Clouds whose padded key box overflows int64, so rows are byte-encoded."""
    rng = np.random.default_rng(17)
    far = np.concatenate([rng.normal(size=(30, 3)), rng.normal(size=(30, 3)) + 1e12])
    return [
        (far, LatticeConfig(3, 2.0)),
        (rng.normal(size=(12, 9)) * 30, LatticeConfig(9, 4.0)),
    ]


def clouds_for_both_encodings(int64_points, int64_config):
    clouds = [(int64_points, int64_config)] + byte_encoded_clouds()
    for (pts, cfg), expected in zip(clouds, ["int64", "bytes", "bytes"]):
        lat = build_lattice(pts, cfg)
        assert encoding_of(lat) == expected
        yield pts, lat


def test_build_vertex_keys_valid_and_sorted():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-2, 2, size=(50, 2))
    for _, lat in clouds_for_both_encodings(pts, LatticeConfig(2, 3.0)):
        keys = lat.vertex_keys
        d1 = lat.config.dim + 1
        assert np.all(keys.sum(axis=1) == 0)
        assert np.all(keys % d1 == (keys[:, :1] % d1))
        # dense ids are key ranks: key rows strictly increase lexicographically
        rows = keys.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert np.array_equal(np.unique(lat.point_vertices), np.arange(lat.num_vertices))


def test_vertex_numbering_ignores_point_order():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(80, 3))
    for pts, lat in clouds_for_both_encodings(pts, LatticeConfig(3, 2.0)):
        perm = rng.permutation(len(pts))
        shuffled = build_lattice(pts[perm], lat.config)
        np.testing.assert_array_equal(shuffled.vertex_keys, lat.vertex_keys)
        np.testing.assert_array_equal(shuffled.adjacency, lat.adjacency)
        np.testing.assert_array_equal(shuffled.point_vertices, lat.point_vertices[perm])


def test_embed_source_cloud_matches_build():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(64, 3))
    for pts, lat in clouds_for_both_encodings(pts, LatticeConfig(3, 2.0)):
        idx, bary = lat.embed(pts)
        np.testing.assert_array_equal(idx, lat.point_vertices)
        np.testing.assert_array_equal(bary, lat.point_bary)


def test_embed_faraway_points_all_missing():
    lat = build_lattice(np.zeros((5, 3)) + 0.1, LatticeConfig(3, 1.0))
    assert encoding_of(lat) == "int64"
    idx, _ = lat.embed(np.full((3, 3), 1e5))
    assert np.all(idx == MISSING)
    for pts, cfg in byte_encoded_clouds():
        lat = build_lattice(pts, cfg)
        assert encoding_of(lat) == "bytes"
        away = np.concatenate([np.full((2, cfg.dim), 5e11), np.full((2, cfg.dim), -1e12)])
        idx, _ = lat.embed(away)
        assert np.all(idx == MISSING)


def test_adjacency_matches_direct_lookup():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(40, 3)) * 0.7
    for _, lat in clouds_for_both_encodings(pts, LatticeConfig(3, 2.0)):
        off = lat.offsets
        ref = {tuple(k): i for i, k in enumerate(lat.vertex_keys.tolist())}
        for v in range(lat.num_vertices):
            for c in range(off.shape[0]):
                neighbor = tuple((lat.vertex_keys[v] + off[c]).tolist())
                assert lat.adjacency[v, c] == ref.get(neighbor, MISSING)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_one_ring_closed_under_negation(d):
    # convolve_backward gathers its cotangent through the reflected taps
    rng = np.random.default_rng(80 + d)
    lat = build_lattice(rng.normal(size=(60, d)), LatticeConfig(d, 2.0))
    adj = lat.adjacency
    k_taps = adj.shape[1]
    assert (adj == MISSING).any()
    np.testing.assert_array_equal(lat.offsets[-np.arange(k_taps) % k_taps],
                                  -lat.offsets)
    for k in range(1, k_taps):
        reached = np.flatnonzero(adj[:, k] != MISSING)
        np.testing.assert_array_equal(adj[adj[reached, k], -k % k_taps], reached)


def random_lattice_vectors(rng, count, d1, spread):
    """Sum-zero integer vectors with all coordinates congruent mod d1."""
    r = rng.integers(0, d1, size=(count, 1))
    vec = rng.integers(-spread, spread, size=(count, d1)) * d1 + r
    vec[:, -1] -= vec.sum(axis=1)
    return vec


def test_lookup_against_dict_oracle():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(200, 3)) * 2
    for _, lat in clouds_for_both_encodings(pts, LatticeConfig(3, 3.0)):
        ref = {tuple(k): i for i, k in enumerate(lat.vertex_keys.tolist())}
        # every occupied key resolves to its dense index
        got = lat.lookup(lat.vertex_keys)
        np.testing.assert_array_equal(got, np.arange(lat.num_vertices))
        # random well-formed keys that are not occupied must come back MISSING
        d1 = lat.config.dim + 1
        probes = random_lattice_vectors(rng, 4000, d1, 40)
        assert np.all(probes.sum(axis=1) == 0)
        absent = np.array([p for p in probes if tuple(p.tolist()) not in ref])
        assert len(absent) >= 2000
        np.testing.assert_array_equal(lat.lookup(absent), np.full(len(absent), MISSING))
        # keys near occupied ones, and keys far outside the occupied box
        near = lat.vertex_keys[rng.integers(0, lat.num_vertices, size=2000)]
        near = near + random_lattice_vectors(rng, 2000, d1, 2)
        huge = random_lattice_vectors(rng, 50, d1, 2**40) * 2**20
        for keys in (near, huge):
            expected = [ref.get(tuple(k), MISSING) for k in keys.tolist()]
            np.testing.assert_array_equal(lat.lookup(keys), expected)


@pytest.mark.parametrize(
    "spans, kind",
    [((142123242012031, 64897), "i"), ((2**32, 2**31), "V")],
    ids=["cells_2^63-1_int64", "cells_2^63_bytes"],
)
def test_vertex_index_at_the_int64_limit(spans, kind):
    # Padded spans are the material ranges plus 2(d+1) + 1 cells; these two
    # boxes hold exactly 2^63 - 1 and 2^63 cells.
    rng = np.random.default_rng(18)
    d = 2
    extent = np.array(spans, dtype=np.int64) - 2 * (d + 1) - 1
    corners = np.array([[0, 0], extent, [0, extent[1]], [extent[0], 0]])
    inner = rng.integers(0, extent + 1, size=(300, d))
    near = corners[rng.integers(0, 4, size=300)] + rng.integers(-3, 4, size=(300, d))
    material = np.concatenate([corners, inner, near, inner[:50]]) - 2**40
    material = np.clip(material, material[:4].min(axis=0), material[:4].max(axis=0))
    index, row_dense = _VertexIndex.of_rows(material)
    assert math.prod(int(x) for x in index._hi - index._lo + 1) == math.prod(spans)
    assert index.codes.dtype.kind == kind

    ref = {row: rank for rank, row in enumerate(sorted(set(map(tuple, material.tolist()))))}
    assert [ref[tuple(r)] for r in material.tolist()] == row_dense.tolist()
    rows = np.empty((index.codes.size, d), dtype=np.int64)
    rows[row_dense] = material
    np.testing.assert_array_equal(rows, np.array(list(ref), dtype=np.int64))

    probes = np.concatenate([
        material + rng.integers(-1, 2, size=material.shape),
        material[:4] + np.array([[-(2**50), 0], [0, 2**50], [2**62, -(2**62)], [-5, 5]]),
    ])
    expected = [ref.get(tuple(p), MISSING) for p in probes.tolist()]
    np.testing.assert_array_equal(index.find(index.encode(probes)), expected)

    # shifted() moves the rows in their sorted (dense index) order
    sorted_rows = np.array(list(ref), dtype=np.int64)
    for offset in ([0, 0], [d, -d], [-d - 1, d + 1], [1, 0]):
        expected = [ref.get(tuple(r), MISSING) for r in (sorted_rows + offset).tolist()]
        np.testing.assert_array_equal(index.find(index.shifted(np.array(offset))), expected)


def test_build_near_max_coord_matches_oracle():
    cfg = LatticeConfig(3, 1.0)
    unit = np.array([[1.0, -0.5, 0.25]])
    c = 0.9 * _MAX_COORD / np.abs(elevate_many(unit, cfg)).max()
    rng = np.random.default_rng(19)
    pts = np.concatenate([unit * c, -unit * c]).repeat(20, axis=0)
    pts = pts + rng.integers(-64, 64, size=pts.shape)
    lat = build_lattice(pts, cfg)
    assert encoding_of(lat) == "bytes"
    assert np.abs(lat.vertex_keys).max() > _MAX_COORD / 2
    idx, bary = lat.embed(pts)
    np.testing.assert_array_equal(idx, lat.point_vertices)
    np.testing.assert_array_equal(bary, lat.point_bary)
    ref = {tuple(k): i for i, k in enumerate(lat.vertex_keys.tolist())}
    assert len(ref) == lat.num_vertices
    for v in range(lat.num_vertices):
        for c, off in enumerate(lat.offsets):
            neighbor = tuple((lat.vertex_keys[v] + off).tolist())
            assert lat.adjacency[v, c] == ref.get(neighbor, MISSING)
    with pytest.raises(InvalidInput):
        build_lattice(pts * 2, cfg)


def test_scale_halving_never_increases_vertex_count():
    rng = np.random.default_rng(16)
    for trial in range(10):
        n = int(rng.integers(20, 200))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0)
        scale = float(rng.uniform(2.0, 16.0))
        counts = []
        for level in range(4):
            lat = build_lattice(pts, LatticeConfig(3, scale / 2**level))
            counts.append(lat.num_vertices)
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts


def test_build_rejects_empty_and_invalid():
    cfg = LatticeConfig(3, 1.0)
    with pytest.raises(EmptyInput):
        build_lattice(np.zeros((0, 3)), cfg)
    with pytest.raises(InvalidInput):
        build_lattice(np.array([[np.nan, 0, 0]]), cfg)
    with pytest.raises(InvalidInput):
        build_lattice(np.zeros((4, 2)), cfg)


def test_lattice_arrays_immutable():
    lat = build_lattice(np.array([[0.5, 0.5, 0.5]]), LatticeConfig(3, 1.0))
    with pytest.raises(ValueError):
        lat.adjacency[0, 0] = 5
    with pytest.raises(ValueError):
        lat.point_bary[0, 0] = 5.0


def test_nbytes_counts_each_buffer_once():
    # a view (point_vertices reshapes the dense-index array) counts as its base
    rng = np.random.default_rng(21)
    lat = build_lattice(rng.normal(size=(256, 3)) * 2, LatticeConfig(3, 1.0))
    holders = [lat, lat._index]
    for planned in (False, True):
        if planned:
            holders.append(lat.splat_plan)
        buffers = {}
        for arr in [v for holder in holders for v in vars(holder).values()]:
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                buffers[id(arr)] = arr.nbytes
        assert lat.nbytes == sum(buffers.values())


@pytest.mark.parametrize("n", [1, 128, 2 * 128 + 37])
def test_splat_plan_blocks_cover_every_corner(n):
    rng = np.random.default_rng(22)
    lat = build_lattice(rng.normal(size=(n, 3)) * 2, LatticeConfig(3, 1.0))
    plan = lat.splat_plan
    np.testing.assert_array_equal(
        plan.order, np.argsort(lat.point_vertices[:, 0], kind="stable"))
    seen = []
    for points, local, vertices in plan.blocks():
        assert points.size <= 128 and (np.diff(vertices) > 0).all()
        np.testing.assert_array_equal(vertices[local], lat.point_vertices[points])
        seen.append(points)
    np.testing.assert_array_equal(np.concatenate(seen), plan.order)
    assert plan.local.dtype == np.int32
    assert lat.splat_plan is plan  # built once

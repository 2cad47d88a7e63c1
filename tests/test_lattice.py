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
    _COUNT_SPAN,
    _MAX_COORD,
    _SPLAT_BLOCK,
    MISSING,
    LatticeConfig,
    SplatPlan,
    _corner,
    _locate_many,
    _ranks,
    _VertexIndex,
    build_lattice,
    elevate_many,
    neighbor_offsets,
)

from oracles import (
    brute_force_one_ring,
    facade,
    locate_by_sort,
    simplex_corner_keys,
    splat_plan_arrays,
    traced_peak,
    vertex_keys,
)


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
    rem0, rank, bary = _locate_many(np.zeros((1, 4)))
    np.testing.assert_allclose(bary[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(_corner(rem0, rank, 0)[0], np.zeros(4, dtype=np.int64))
    # a nonzero remainder-0 point
    p = np.array([4.0, -4.0, 0.0, 0.0]) * 3
    rem0, rank, bary = _locate_many(p[None, :])
    np.testing.assert_allclose(bary[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(_corner(rem0, rank, 0)[0], p.astype(np.int64))


def test_locate_centroid_equal_weights():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5):
        cfg = LatticeConfig(d, 1.0)
        seed = elevate_many(rng.normal(size=(1, d)), cfg)
        rem0, rank, _ = _locate_many(seed)
        centroid = np.stack([_corner(rem0, rank, r)[0] for r in range(d + 1)]).mean(axis=0)
        *_, bary = _locate_many(centroid[None, :])
        np.testing.assert_allclose(bary[0], np.full(d + 1, 1 / (d + 1)), atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_locate_reconstruction_and_classes(d):
    rng = np.random.default_rng(100 + d)
    cfg = LatticeConfig(d, float(rng.uniform(0.5, 8.0)))
    elev = elevate_many(rng.normal(size=(800, d)) * 5, cfg)
    rows = np.arange(0, 800, 37)
    rem0, rank, all_bary = _locate_many(elev[rows])
    all_keys = np.stack([_corner(rem0, rank, r) for r in range(d + 1)], axis=1)
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


@pytest.mark.parametrize("d", [1, 2, 3, 6, 9])
def test_locate_ranks_ties_as_the_stable_sort(d):
    # rows with exactly equal differentials: an integer grid in the
    # hyperplane, lattice vertices, midpoints of simplex edges, and repeats
    rng = np.random.default_rng(40 + d)
    d1 = d + 1
    grid = rng.integers(-2 * d1, 2 * d1, size=(300, d1))
    grid[:, d] = -grid[:, :d].sum(axis=1)
    general = elevate_many(rng.normal(size=(200, d)) * 3, LatticeConfig(d, 1.0))
    rem0, rank, _ = _locate_many(general)
    vertices = np.concatenate([_corner(rem0, rank, r) for r in range(d1)])
    midpoints = (_corner(rem0, rank, 0) + _corner(rem0, rank, d)) / 2
    elevated = np.concatenate([grid, vertices, midpoints, general])
    elevated = np.concatenate([elevated, elevated[::7]])
    want = locate_by_sort(elevated)
    lag = np.sort(want[0] - elevated, axis=1)
    assert (lag[:, 1:] == lag[:, :-1]).any(axis=1).sum() >= 100
    for name, got, ref in zip(("rem0", "rank", "bary"), _locate_many(elevated), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), name


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
    for pts, lat in clouds_for_both_encodings(pts, LatticeConfig(2, 3.0)):
        keys = vertex_keys(pts, lat.config)
        d1 = lat.config.dim + 1
        assert keys.shape == (lat.num_vertices, d1)
        assert np.all(keys.sum(axis=1) == 0)
        assert np.all(keys % d1 == (keys[:, :1] % d1))
        # dense ids are key ranks: the index codes strictly increase
        codes = lat._index.codes.tolist()
        assert all(a < b for a, b in zip(codes, codes[1:]))
        assert np.array_equal(np.unique(lat.point_vertices), np.arange(lat.num_vertices))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_build_and_embed_match_the_materialised_corner_oracle(d):
    # The lattice forms no (n, d+1, d+1) key tensor; the oracle does, and
    # numbers vertices by np.unique over its rows.
    rng = np.random.default_rng(40 + d)
    pts = rng.normal(size=(200, d)) * 3
    for pts, lat in clouds_for_both_encodings(pts, LatticeConfig(d, 2.0)):
        d1 = lat.config.dim + 1
        rem0, rank, bary = _locate_many(elevate_many(pts, lat.config))
        keys = simplex_corner_keys(rem0, rank).reshape(-1, d1)
        ref = {tuple(k): i for i, k in enumerate(vertex_keys(pts, lat.config).tolist())}
        dense = np.array([ref[tuple(k)] for k in keys.tolist()], dtype=np.int64)
        assert lat.point_vertices.tobytes() == dense.reshape(-1, d1).tobytes()
        assert lat.point_bary.tobytes() == bary.tobytes()

        other = np.concatenate([pts + rng.normal(size=pts.shape), pts[:5] + 1e6])
        rem0, rank, bary = _locate_many(elevate_many(other, lat.config))
        expected = [ref.get(tuple(k), MISSING)
                    for k in simplex_corner_keys(rem0, rank).reshape(-1, d1).tolist()]
        idx, embed_bary = lat.embed(other)
        assert idx.tobytes() == np.array(expected, dtype=np.int64).reshape(-1, d1).tobytes()
        assert embed_bary.tobytes() == bary.tobytes()


def test_build_and_embed_memory_per_point():
    # forming every corner's key took 704 B/point for each; the build
    # peaked at 243 B/point with an int64 rank, and embed at 200 before it
    # sorted each remainder class's codes for the search
    rng = np.random.default_rng(22)
    n = 20_000
    side = n ** (1 / 3)
    pts, other = rng.uniform(0, side, size=(2, n, 3))
    cfg = LatticeConfig(3, 1.0)
    lat, peak = traced_peak(lambda: build_lattice(pts, cfg))
    assert peak <= 230 * n, peak / n
    _, peak = traced_peak(lambda: lat.embed(other))
    assert peak <= 220 * n, peak / n
    # a union of 16 parts built and split, as training builds its clouds
    parts, peak = traced_peak(lambda: build_lattice(pts, cfg).split([n // 16] * 16))
    assert len(parts) == 16
    assert peak <= 230 * n, peak / n


def test_lattice_retains_no_key_table():
    # a (V, d+1) int64 table of vertex keys held 136 B/point on this cloud
    rng = np.random.default_rng(24)
    n = 20_000
    lat = build_lattice(rng.uniform(0, n ** (1 / 3), size=(n, 3)), LatticeConfig(3, 1.0))
    assert lat.nbytes <= 96 * n, lat.nbytes / n


def test_vertex_numbering_ignores_point_order():
    rng = np.random.default_rng(16)
    pts = rng.normal(size=(80, 3))
    for pts, lat in clouds_for_both_encodings(pts, LatticeConfig(3, 2.0)):
        perm = rng.permutation(len(pts))
        shuffled = build_lattice(pts[perm], lat.config)
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


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_adjacency_matches_direct_lookup(d):
    # adjacency fills each remainder class's columns with one search, so
    # every class boundary of the offset table is crossed here
    rng = np.random.default_rng(14)
    clouds = [(rng.normal(size=(40, d)) * 0.7, "int64")]
    if d > 1:  # keys stay below 2^53, so a 1-d box always has int64 codes
        far = rng.normal(size=(60, d))
        far[30:] += 1e12
        clouds.append((far, "bytes"))
    for pts, encoding in clouds:
        lat = build_lattice(pts, LatticeConfig(d, 2.0))
        assert encoding_of(lat) == encoding
        off = lat.offsets
        keys = vertex_keys(pts, lat.config)
        ref = {tuple(k): i for i, k in enumerate(keys.tolist())}
        for v in range(lat.num_vertices):
            for c in range(off.shape[0]):
                neighbor = tuple((keys[v] + off[c]).tolist())
                assert lat.adjacency[v, c] == ref.get(neighbor, MISSING)


def test_adjacency_memory_is_bounded_by_its_result():
    # one search per remainder class holds its class's shifted codes, search
    # positions and matches: about 2.25x the result with it at d = 3. One
    # search per column peaked at 1.21x, one over all K columns at 3.1x
    rng = np.random.default_rng(23)
    n = 20_000
    lat = build_lattice(rng.uniform(0, n ** (1 / 3), size=(n, 3)), LatticeConfig(3, 1.0))
    adjacency, peak = traced_peak(lambda: lat.adjacency)
    assert peak <= 2.5 * adjacency.nbytes, peak / adjacency.nbytes


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
    index = _VertexIndex(material.min(axis=0), material.max(axis=0))
    index.codes, row_dense = _ranks(index.encode(material), np.int64)
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
        np.testing.assert_array_equal(index.find(index.shifted(np.array([offset])))[0], expected)


def codes_of(case, rng):
    """(codes, counted): a code array for _ranks, and whether its span puts
    it on the counting side of _COUNT_SPAN."""
    m = 1200
    if case == "bytes":
        codes = rng.integers(-50, 50, size=(300, 4))
        return np.ascontiguousarray(codes, dtype=">u8").view(np.dtype((np.void, 8)))[:, :3], False
    if case == "one code":
        return np.full((7, 3), -12345, dtype=np.int64), True
    if case == "int64":  # negative codes among them
        return rng.integers(-50, 50, size=(300, 4)), True
    if case == "wide":
        return rng.integers(-(2**62), 2**62, size=(m // 4, 4)), False
    # a span of exactly _COUNT_SPAN * m, or one more
    span = _COUNT_SPAN * m + (case == "just above")
    codes = rng.integers(0, span, size=m) - 2**40
    codes[:2] = -(2**40), span - 1 - 2**40
    return codes.reshape(m // 4, 4), case == "at threshold"


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("case", ["int64", "bytes", "one code", "at threshold",
                                  "just above", "wide"])
def test_ranks_are_the_unique_inverse(case, dtype):
    # the vertex index ranks into int64 dense indices, SplatPlan into int32
    # rows; both sides of the counting threshold give np.unique's answer
    codes, counted = codes_of(case, np.random.default_rng(27))
    if codes.dtype == np.int64:
        span = int(codes.max()) - int(codes.min()) + 1
        assert (span <= _COUNT_SPAN * codes.size) == counted
    want_distinct, want_inverse = np.unique(codes, return_inverse=True)
    distinct, ranks = _ranks(codes.copy(), dtype)
    assert ranks.dtype == dtype and ranks.shape == codes.shape
    assert distinct.tobytes() == want_distinct.tobytes()
    np.testing.assert_array_equal(ranks, want_inverse.reshape(codes.shape))


def test_build_near_max_coord_matches_oracle():
    cfg = LatticeConfig(3, 1.0)
    unit = np.array([[1.0, -0.5, 0.25]])
    c = 0.9 * _MAX_COORD / np.abs(elevate_many(unit, cfg)).max()
    rng = np.random.default_rng(19)
    pts = np.concatenate([unit * c, -unit * c]).repeat(20, axis=0)
    pts = pts + rng.integers(-64, 64, size=pts.shape)
    lat = build_lattice(pts, cfg)
    assert encoding_of(lat) == "bytes"
    keys = vertex_keys(pts, cfg)
    assert np.abs(keys).max() > _MAX_COORD / 2
    idx, bary = lat.embed(pts)
    np.testing.assert_array_equal(idx, lat.point_vertices)
    np.testing.assert_array_equal(bary, lat.point_bary)
    ref = {tuple(k): i for i, k in enumerate(keys.tolist())}
    assert len(ref) == lat.num_vertices
    for v in range(lat.num_vertices):
        for c, off in enumerate(lat.offsets):
            neighbor = tuple((keys[v] + off).tolist())
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


@pytest.mark.parametrize("cloud", ["facade", "uniform"])
@pytest.mark.parametrize("n", [1, 128, 129, 2000, 20_000])
def test_splat_plan_arrays_are_the_unique_formulation(cloud, n):
    rng = np.random.default_rng(n)
    if cloud == "facade":
        pts, _ = facade(n, rng, side=np.sqrt(max(n, 100) / 100_000))
        cfg = LatticeConfig(3, 32.0)
    else:
        pts = rng.uniform(0, n ** (1 / 3), size=(n, 3))
        cfg = LatticeConfig(3, 1.0)
    lat = build_lattice(pts, cfg)
    plan = lat.splat_plan
    got = (plan.order, plan.local, plan.vertices, plan.starts)
    want = splat_plan_arrays(lat.point_vertices, lat.num_vertices, _SPLAT_BLOCK)
    for name, a, b in zip(("order", "local", "vertices", "starts"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_splat_plan_build_memory_per_point():
    # np.unique over int64 (block, vertex) pair codes, with its sorted copy,
    # permutation and inverse, peaked at 210 B/point over the inputs
    rng = np.random.default_rng(26)
    n = 20_000
    pts, _ = facade(n, rng, side=np.sqrt(n / 100_000))
    lat = build_lattice(pts, LatticeConfig(3, 32.0))
    _, peak = traced_peak(lambda: SplatPlan(lat.point_vertices, lat.num_vertices))
    assert peak <= 160 * n, peak / n


# ---------------------------------------------------------- splitting a union


def assert_same_lattice(got, want, foreign):
    """got equals want byte for byte in everything a lattice's users read."""
    assert (got.num_points, got.num_vertices) == (want.num_points, want.num_vertices)
    got_plan, want_plan = got.splat_plan, want.splat_plan
    pairs = [(got.point_vertices, want.point_vertices), (got.point_bary, want.point_bary),
             (got.adjacency, want.adjacency), *zip(got.embed(foreign), want.embed(foreign))]
    pairs += [(getattr(got_plan, name), getattr(want_plan, name))
              for name in ("order", "local", "vertices", "starts")]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert got_plan.weight_size == want_plan.weight_size


def owned_arrays(lat):
    return [a for holder in (lat, lat._index, lat.splat_plan)
            for a in vars(holder).values() if isinstance(a, np.ndarray)]


def assert_split_matches_own_builds(parts, cfg, foreign):
    union = build_lattice(np.concatenate(parts), cfg)
    union_arrays = owned_arrays(union)
    split = union.split([len(p) for p in parts])
    assert len(split) == len(parts)
    for part, lat in zip(parts, split):
        assert_same_lattice(lat, build_lattice(part, cfg), foreign)
        for a in owned_arrays(lat):
            assert not any(np.shares_memory(a, b) for b in union_arrays)
    return union, split


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_split_union_equals_each_part_built_alone(d):
    rng = np.random.default_rng(40 + d)
    parts = [
        rng.normal(size=(60, d)),
        rng.normal(size=(1, d)),  # one point
        np.repeat(rng.normal(size=(3, d)), 4, axis=0),  # duplicated points
        rng.normal(size=(25, d)) + 1e3,  # far from the others
        rng.normal(size=(2 * _SPLAT_BLOCK + 5, d)) * 3,  # three plan blocks
        rng.normal(size=(40, d)),  # overlaps the first part
    ]
    foreign = np.concatenate([rng.normal(size=(50, d)) * 2, rng.normal(size=(5, d)) + 1e3])
    assert_split_matches_own_builds(parts, LatticeConfig(d, 2.0), foreign)


def test_split_of_a_byte_encoded_union_equals_int64_parts():
    # each part alone has int64 codes; their union's box overflows int64
    rng = np.random.default_rng(47)
    cfg = LatticeConfig(3, 2.0)
    parts = [rng.normal(size=(30, 3)), rng.normal(size=(20, 3)) + 4e11, rng.normal(size=(1, 3))]
    foreign = np.concatenate([rng.normal(size=(40, 3)), rng.normal(size=(10, 3)) + 4e11])
    union, split = assert_split_matches_own_builds(parts, cfg, foreign)
    assert encoding_of(union) == "bytes"
    assert [encoding_of(build_lattice(p, cfg)) for p in parts] == ["int64"] * 3


def test_split_into_one_part_is_the_lattice_itself():
    lat = build_lattice(np.random.default_rng(48).normal(size=(30, 3)), LatticeConfig(3, 2.0))
    (part,) = lat.split([30])
    assert part is lat


def test_split_rejects_empty_parts_and_miscounts():
    lat = build_lattice(np.random.default_rng(49).normal(size=(30, 3)), LatticeConfig(3, 2.0))
    with pytest.raises(EmptyInput, match="empty cloud"):
        lat.split([10, 0, 20])
    with pytest.raises(InvalidInput):
        lat.split([10, 10])
    with pytest.raises(InvalidInput):
        lat.split([-1, 31])

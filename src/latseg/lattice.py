"""Sparse permutohedral lattice construction.

The permutohedral lattice tiles the sum-zero hyperplane of R^(d+1) with
congruent simplices. Lattice points are integer vectors whose coordinates sum
to zero and are all congruent modulo d+1; the shared residue (the "remainder"
class, 0..d) colors the vertices so that every simplex has exactly one vertex
of each color.

A d-dimensional feature vector is first *elevated* into the hyperplane by a
linear map (scaled per dimension, then rotated by the standard recurrence).
*locate* finds the enclosing simplex of an elevated point by greedy rounding
to the nearest remainder-0 point, repairing the hyperplane constraint on the
coordinates with the largest rounding error, and ranking the residual
differentials; the same differentials give the barycentric weights of the
point with respect to the d+1 simplex vertices.

build_lattice runs this for a whole cloud, deduplicates the touched vertices
and stores the per-point embeddings. The one-ring adjacency of every vertex
is resolved on its first read, so a lattice that is only splatted and sliced
never pays for it; so is the block plan that bcl.splat runs (SplatPlan).
One sorted index over the first d key coordinates (the last is implied by
the sum-zero constraint) serves the deduplication, every adjacency column,
embed and lookup. Its rows are shifted into the vertices'
bounding box padded by d+1 on every side and encoded either as int64
mixed-radix codes, when the padded box has at most 2^63 - 1 cells, or else
as big-endian uint64 rows compared as raw bytes. Both encodings sort like
the rows themselves (lexicographically) and keep that order under a
constant shift, so moving every vertex by one one-ring offset yields an
already sorted query array: an adjacency column is one searchsorted. A
vertex's dense index is the rank of its code, so vertices are numbered in
key order whatever the order of the points. Foreign queries are clipped
into the box first; a clipped row lies in the padding, where no vertex is.

Everything here is deterministic: identical inputs produce identical dense
indices, embeddings and adjacency, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidInput

# Dense-index sentinel for "no vertex here" (absent one-ring neighbor,
# out-point simplex corner that no input point touched).
MISSING = -1

# Elevated coordinates beyond this cannot be rounded to int64 lattice keys
# without risking overflow in the repair step.
_MAX_COORD = 2.0**52

_INT64_MAX = int(np.iinfo(np.int64).max)

# Points per splat block. On 8k- and 100k-point facades, blocks of 128, 256
# and 512 points splatted within 15% of each other and 64 was 1.2-1.5x
# slower; the smallest of the good sizes keeps the weight buffer smallest.
_SPLAT_BLOCK = 128


@dataclass(frozen=True)
class LatticeConfig:
    """Lattice dimensionality and per-dimension positive scale.

    scale may be given as a scalar (isotropic) or a length-dim vector. Larger
    scale means smaller lattice cells, i.e. a finer lattice.
    """

    dim: int
    scale: np.ndarray

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise InvalidInput(f"lattice dim must be a positive int, got {self.dim!r}")
        scale = np.asarray(self.scale, dtype=np.float64)
        if scale.ndim == 0:
            scale = np.full(self.dim, float(scale))
        if scale.shape != (self.dim,):
            raise InvalidInput(
                f"scale must be scalar or length-{self.dim}, got shape {scale.shape}"
            )
        if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
            raise InvalidInput("scale entries must be finite and > 0")
        scale = scale.copy()
        scale.setflags(write=False)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "scale", scale)


def _canonical_scale(config: LatticeConfig) -> np.ndarray:
    # Per-dimension elevation factor (d+1)/sqrt((i+1)(i+2)), folded together
    # with the user scale so elevation is a single multiply + recurrence.
    i = np.arange(config.dim, dtype=np.float64)
    return config.scale * (config.dim + 1) / np.sqrt((i + 1.0) * (i + 2.0))


def elevate_many(features: np.ndarray, config: LatticeConfig) -> np.ndarray:
    """Elevate (n, d) feature rows into the sum-zero hyperplane, (n, d+1)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != config.dim:
        raise InvalidInput(
            f"expected features of shape (n, {config.dim}), got {feats.shape}"
        )
    if not np.all(np.isfinite(feats)):
        raise InvalidInput("features must be finite")
    n, d = feats.shape
    out = np.empty((n, d + 1), dtype=np.float64)
    running = np.zeros(n, dtype=np.float64)
    # A huge feature times a fine scale may overflow to inf, and opposite
    # infinities meet as NaN; _locate_many refuses both.
    with np.errstate(over="ignore", invalid="ignore"):
        cf = feats * _canonical_scale(config)
        for i in range(d, 0, -1):
            out[:, i] = running - i * cf[:, i - 1]
            running = running + cf[:, i - 1]
    out[:, 0] = running
    return out


def _canonical_simplex(d: int) -> np.ndarray:
    # canon[r, j]: coordinate delta from the remainder-0 corner to the
    # remainder-r corner, indexed by differential rank j.
    d1 = d + 1
    canon = np.empty((d1, d1), dtype=np.int64)
    for r in range(d1):
        canon[r, : d1 - r] = r
        canon[r, d1 - r :] = r - d1
    return canon


def _locate_many(elevated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex vertices and barycentric weights for (n, d+1) elevated points.

    Returns (keys, bary): keys is (n, d+1, d+1) int64 with keys[i, r] the
    remainder-r vertex of point i's simplex; bary is (n, d+1) row-aligned.
    """
    n, d1 = elevated.shape
    d = d1 - 1
    if not (np.abs(elevated) <= _MAX_COORD).all():
        raise InvalidInput("elevated coordinates too large for integer lattice keys")

    # Greedy per-coordinate rounding to the nearest multiple of d+1. Ties go
    # down, which still yields an enclosing simplex.
    v = elevated / d1
    down = np.floor(v) * d1
    up = down + d1
    rem0 = np.where((up - elevated) < (elevated - down), up, down).astype(np.int64)

    # Rank coordinates by descending differential; ties broken by lower index.
    diff = elevated - rem0
    order = np.argsort(-diff, axis=1, kind="stable")
    rank = np.empty((n, d1), dtype=np.int64)
    np.put_along_axis(rank, order, np.broadcast_to(np.arange(d1), (n, d1)), axis=1)

    # Rounding may have left the hyperplane; shift the worst-ranked
    # coordinates by d+1 to repair the sum while keeping ranks a permutation.
    excess = rem0.sum(axis=1) // d1
    rank += excess[:, None]
    low = rank < 0
    high = rank > d
    rank += d1 * low - d1 * high
    rem0 += d1 * (low.astype(np.int64) - high.astype(np.int64))

    # Barycentric weights from the repaired differentials.
    frac = (elevated - rem0) / d1
    b = np.zeros((n, d1 + 1), dtype=np.float64)
    idx = d - rank  # permutation of 0..d per row
    np.put_along_axis(b[:, :d1], idx, frac, axis=1)
    sub = np.zeros_like(b)
    np.put_along_axis(sub[:, 1:], idx, frac, axis=1)
    b -= sub
    b[:, 0] += 1.0 + b[:, d1]
    bary = np.ascontiguousarray(b[:, :d1])

    canon = _canonical_simplex(d)
    keys = rem0[:, None, :] + np.transpose(canon[:, rank], (1, 0, 2))
    return keys, bary


@functools.lru_cache(maxsize=None)
def neighbor_offsets(dim: int) -> np.ndarray:
    """One-ring key offsets for dimension `dim`, memoized and read-only.

    (K, d+1) int64 with K = 2^(d+1) - 1. Row 0 is the zero offset; the rest
    are grouped by remainder class r = 1..d and, within a class, ordered by
    the bitmask of the positions carrying the value r-(d+1) (coordinate 0 is
    the most significant bit).
    """
    if dim < 1:
        raise InvalidInput(f"dim must be >= 1, got {dim}")
    d1 = dim + 1
    rows = [np.zeros(d1, dtype=np.int64)]
    for r in range(1, d1):
        combos = sorted(
            itertools.combinations(range(d1), r),
            key=lambda s: sum(1 << (dim - i) for i in s),
        )
        for s in combos:
            row = np.full(d1, r, dtype=np.int64)
            row[list(s)] = r - d1
            rows.append(row)
    offsets = np.stack(rows)
    offsets.setflags(write=False)
    return offsets


class _VertexIndex:
    """Sorted, deduplicated codes of (N, d) key material rows.

    codes[g] is the code of the g-th smallest distinct row, whose dense index
    is g.
    """

    @classmethod
    def of_rows(cls, material: np.ndarray) -> tuple[_VertexIndex, np.ndarray]:
        """(index, row_dense) for the rows of material.

        row_dense[i] is row i's dense index. Only build_lattice reads it, so
        the index does not keep it.
        """
        index = cls(material)
        codes = index._encode(material - index._lo)
        index.codes, row_dense = np.unique(codes, return_inverse=True)
        return index, row_dense

    def __init__(self, material: np.ndarray):
        # The box around material, padded by one ring; of_rows fills the codes.
        d = material.shape[1]
        self._lo = material.min(axis=0) - (d + 1)
        self._hi = material.max(axis=0) + (d + 1)
        spans = [int(s) for s in self._hi - self._lo + 1]
        self._strides = None
        if math.prod(spans) <= _INT64_MAX:
            # Big-endian mixed radix: coordinate 0 is the most significant.
            strides = [math.prod(spans[j + 1 :]) for j in range(d)]
            self._strides = np.array(strides, dtype=np.int64)

    def _encode(self, shifted: np.ndarray) -> np.ndarray:
        # shifted: rows minus the box corner, each entry in [0, span).
        if self._strides is not None:
            return shifted @ self._strides
        rows = np.ascontiguousarray(shifted, dtype=">u8")
        return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel()

    def encode(self, material: np.ndarray) -> np.ndarray:
        """Codes of arbitrary rows, clipped into the padded box first."""
        return self._encode(np.clip(material, self._lo, self._hi) - self._lo)

    def shifted(self, offset: np.ndarray) -> np.ndarray:
        """Codes of every indexed row moved by offset, still sorted."""
        if self._strides is not None:
            return self.codes + offset @ self._strides
        rows = self.codes.view(">u8").reshape(self.codes.size, -1)
        return self._encode(rows.astype(np.int64) + offset)

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Dense indices of codes; MISSING where no vertex has that code."""
        pos = np.minimum(np.searchsorted(self.codes, codes), self.codes.size - 1)
        return np.where(self.codes[pos] == codes, pos, MISSING)


class SplatPlan:
    """The points of a lattice cut into blocks for splat, one GEMM per block.

    The points are sorted stably by the dense index of their remainder-0
    corner, and the sorted order is cut into blocks of _SPLAT_BLOCK points.
    Dense indices are key ranks, so a block's points lie in nearby simplices
    that share corners: on facade clouds a block of 128 points touches 8 to
    31 vertices on average, not 128 (d+1).

      order      (n,) int32 point indices in block order
      local      (n, d+1) int32; local[i, r] is the row, among its block's
                 vertices, of point order[i]'s remainder-r corner
      vertices   each block's distinct dense vertex indices, ascending, one
                 block after another
      starts     (blocks + 1,) block b's vertices are vertices[starts[b]:starts[b+1]]
      weight_size  the largest (vertices x points) weight matrix of a block
    """

    def __init__(self, point_vertices: np.ndarray, num_vertices: int):
        n, d1 = point_vertices.shape
        self.order = np.argsort(point_vertices[:, 0], kind="stable").astype(np.int32)
        block = np.arange(n) // _SPLAT_BLOCK
        num_blocks = int(block[-1]) + 1
        # One sort of (block, vertex) pairs dedups every block at once.
        pairs = (block[:, None] * num_vertices + point_vertices[self.order]).ravel()
        uniq, inverse = np.unique(pairs, return_inverse=True)
        self.vertices = uniq % num_vertices
        self.starts = np.searchsorted(uniq, np.arange(num_blocks + 1) * num_vertices)
        local = inverse.reshape(n, d1) - self.starts[block][:, None]
        self.local = local.astype(np.int32)
        widths = np.minimum(n - np.arange(num_blocks) * _SPLAT_BLOCK, _SPLAT_BLOCK)
        self.weight_size = int(np.max(np.diff(self.starts) * widths))
        for arr in (self.order, self.local, self.vertices, self.starts):
            arr.setflags(write=False)

    def blocks(self):
        """(points, local, vertices) of each block, in order."""
        for b, start in enumerate(range(0, self.order.size, _SPLAT_BLOCK)):
            rows = np.s_[start:start + _SPLAT_BLOCK]
            yield (self.order[rows], self.local[rows],
                   self.vertices[self.starts[b]:self.starts[b + 1]])


class SparseLattice:
    """A lattice restricted to the vertices touched by one point cloud.

    Attributes (all read-only):
      config           the LatticeConfig used to build it
      num_points       n, rows of the source cloud
      num_vertices     V, distinct touched vertices
      point_vertices   (n, d+1) int64 dense vertex index per point, column r
                       holding the remainder-r corner of the point's simplex
      point_bary       (n, d+1) float64 barycentric weights, column-aligned
      vertex_keys      (V, d+1) int64 lattice key of each dense index
      adjacency        (V, K) int64 dense index of each one-ring neighbor,
                       MISSING where unoccupied; column 0 is the identity.
                       Resolved on first read and kept from then on
      splat_plan       the SplatPlan of the points, built on first read and
                       kept from then on
      offsets          (K, d+1) one-ring key offsets the adjacency columns follow
    """

    def __init__(self, config, point_vertices, point_bary, vertex_keys, index):
        self.config = config
        self.num_points = point_vertices.shape[0]
        self.num_vertices = vertex_keys.shape[0]
        self.point_vertices = point_vertices
        self.point_bary = point_bary
        self.vertex_keys = vertex_keys
        self._index = index
        for arr in (self.point_vertices, self.point_bary, self.vertex_keys):
            arr.setflags(write=False)

    @property
    def offsets(self) -> np.ndarray:
        # a property, not an attribute: the memoized table is shared by every
        # lattice of this dimension, so nbytes does not count it
        return neighbor_offsets(self.config.dim)

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        index, d = self._index, self.config.dim
        adjacency = np.empty((self.num_vertices, self.offsets.shape[0]), dtype=np.int64)
        for col, off in enumerate(self.offsets):
            adjacency[:, col] = index.find(index.shifted(off[:d]))
        adjacency.setflags(write=False)
        return adjacency

    @functools.cached_property
    def splat_plan(self) -> SplatPlan:
        return SplatPlan(self.point_vertices, self.num_vertices)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Dense indices of (q, d+1) full lattice keys; MISSING where absent."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 2 or keys.shape[1] != self.config.dim + 1:
            raise InvalidInput(
                f"expected keys of shape (q, {self.config.dim + 1}), got {keys.shape}"
            )
        return self._index.find(self._index.encode(keys[:, : self.config.dim]))

    def embed(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Embed another cloud against this lattice's vertex set.

        Returns (indices, bary) of shapes (m, d+1): dense vertex indices
        (MISSING where the simplex corner is unoccupied) and barycentric
        weights. Feeding back the source cloud reproduces point_vertices /
        point_bary exactly.
        """
        elev = elevate_many(features, self.config)
        keys, bary = _locate_many(elev)
        m, d1, _ = keys.shape
        flat = keys.reshape(m * d1, d1)[:, : self.config.dim]
        idx = self._index.find(self._index.encode(flat)).reshape(m, d1)
        return idx, bary

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays held by the lattice and its vertex index, the
        adjacency and the splat plan once they have been read."""
        holders = [self, self._index]
        if "splat_plan" in vars(self):
            holders.append(self.splat_plan)
        arrays = [a for holder in holders for a in vars(holder).values()]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    # Occupancy diagnostics used by the stats CLI; bcl.splat reads the ratio.
    def occupancy_ratio(self) -> float:
        return self.num_vertices / (self.num_points * (self.config.dim + 1))

    def adjacency_fill(self) -> float:
        return float(np.mean(self.adjacency != MISSING))


def build_lattice(features: np.ndarray, config: LatticeConfig) -> SparseLattice:
    """Build the sparse lattice touched by a cloud of (n, d) feature rows."""
    elev = elevate_many(features, config)
    if elev.shape[0] == 0:
        raise EmptyInput("cannot build a lattice from an empty cloud")
    keys, bary = _locate_many(elev)
    n, d1, _ = keys.shape

    # Dense indices are key ranks, so they do not depend on the point order.
    flat_keys = keys.reshape(n * d1, d1)
    index, row_dense = _VertexIndex.of_rows(flat_keys[:, : config.dim])
    # All rows of one vertex hold its key, so one scatter fills vertex_keys.
    vertex_keys = np.empty((index.codes.size, d1), dtype=np.int64)
    vertex_keys[row_dense] = flat_keys
    return SparseLattice(
        config=config,
        point_vertices=row_dense.reshape(n, d1),
        point_bary=bary,
        vertex_keys=vertex_keys,
        index=index,
    )

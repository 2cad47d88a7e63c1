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
point with respect to the d+1 simplex vertices. A located point is
(rem0, rank, bary): its remainder-0 corner, the rank of each coordinate's
differential and its weights. Its remainder-r corner is rem0 moved by r on
the coordinates ranked below d+1-r and by r-(d+1) on the others, so no
(n, d+1, d+1) tensor of corner keys is ever formed.

build_lattice runs this for a whole cloud, deduplicates the touched vertices
and stores the per-point embeddings. The one-ring adjacency of every vertex
is resolved on its first read, so a lattice that is only splatted and sliced
never pays for it; so is the block plan that bcl.splat runs (SplatPlan).
One sorted index over the first d key coordinates (the last is implied by
the sum-zero constraint) serves the deduplication, every adjacency column
and embed. Its rows are shifted into the vertices' bounding box padded by
d+1 on every side and encoded either as int64 mixed-radix codes, when the
padded box has at most 2^63 - 1 cells, or else as big-endian uint64 rows
compared as raw bytes. Over r, coordinate j of a point's corners spans
rem0_j - rank_j ... rem0_j - rank_j + d, which gives the box. Either
encoding forms the corner codes one remainder class at a time, and one
helper, _ranks, ranks codes: it numbers the vertices and dedups SplatPlan's
(block, vertex) pairs. It counts int64 codes that span few values, as a
facade's do, over a presence table, and sorts the others (byte rows, and
sparse clouds whose codes span many times their count). Both encodings
sort like the rows themselves (lexicographically) and keep that order
under a constant shift, so moving every vertex by one one-ring offset
yields an already sorted query array: the adjacency columns of one
remainder class, a stack of such arrays, are one searchsorted. A vertex's
dense index is the rank of its code, so vertices are numbered in key order
whatever the order of the points. Foreign queries are clipped into the box
first; a clipped row lies in the padding, where no vertex is.

SparseLattice.split turns the lattice of a union of clouds into the lattice
each cloud would build on its own, bit for bit, so that many small clouds
pay for one build. Elevation and locate work row by row, so a cloud's
points get the same corners and weights in the union. Union dense indices
are key ranks too, so ranking the union indices of one cloud's corners
numbers its vertices in key order, as its own build does. Its index keeps
the union's box, whose codes order rows as the cloud's own box would, and
whose padding holds no vertex of the cloud either, so adjacency, embed and
the splat plan answer as they would for the cloud's own build.

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

# _ranks counts int64 codes whose span is at most this many times their
# count, and sorts the others. On random codes counting ran 1.2-1.4x faster
# than the sort at a span of 4x the count and 3-6x slower at 16-39x. Facade
# corner codes span 0.4-3.8x their count at the finest level (8k to 1M
# points) and less above it; the splat plan's (block, vertex) pairs span
# V/512x for V vertices (1.2x at an 8k facade's finest level, 12-15x from
# 100k points up); uniform clouds at lambda 1 span about 39x and stay sorted.
# The table holds a byte and an int32 per spanned value, at most 20 bytes per
# code.
_COUNT_SPAN = 4


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


def _locate_many(elevated: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enclosing simplices and barycentric weights of (n, d+1) elevated points.

    Returns (rem0, rank, bary), each (n, d+1) and row-aligned: rem0 (int64)
    is the point's remainder-0 corner, rank (int16 for d below 16383) ranks
    its coordinates by descending differential (a permutation of 0..d per
    row, ties toward the lower index, found by comparing each pair of
    coordinates once), and bary holds the weights of the remainder-0..d
    corners. The remainder-r corner is _corner(rem0, rank, r).
    """
    n, d1 = elevated.shape
    d = d1 - 1
    if not (np.abs(elevated) <= _MAX_COORD).all():
        raise InvalidInput("elevated coordinates too large for integer lattice keys")

    # Greedy per-coordinate rounding to the nearest multiple of d+1. Ties go
    # down, which still yields an enclosing simplex.
    down = np.floor(elevated / d1) * d1
    up = down + d1
    rem0 = np.where((up - elevated) < (elevated - down), up, down).astype(np.int64)
    del down, up

    # Rank coordinates by descending differential, ties toward the lower
    # index: coordinate j's rank is its position in the stable ascending order
    # of rem0 - elevated. Each pair j < k is compared once; j goes first when
    # its value is not above k's. Rows hold one coordinate of every point, so
    # each comparison runs over contiguous memory. Ranks and their repair
    # below stay within -d1 .. 2d, which int16 holds below d = 16383.
    lag = np.empty((d1, n))
    np.subtract(rem0.T, elevated.T, out=lag)
    rank = np.empty((d1, n), dtype=np.int16 if d1 < 2**14 else np.int64)
    rank[:] = np.arange(d, -1, -1)[:, None]  # ranks if every j went after every k > j
    for j in range(d):
        before = lag[j] <= lag[j + 1:]
        rank[j + 1:] += before
        rank[j] -= before.sum(axis=0, dtype=rank.dtype)
    del lag
    rank = np.ascontiguousarray(rank.T)

    # Rounding may have left the hyperplane; shift the worst-ranked
    # coordinates by d+1 to repair the sum while keeping ranks a permutation.
    rank += (rem0.sum(axis=1) // d1)[:, None]
    shift = d1 * ((rank < 0).astype(np.int64) - (rank > d))
    rank += shift
    rem0 += shift
    del shift

    # Barycentric weights from the repaired differentials: with ranked[:, k]
    # the differential ranked d-k, weight k >= 1 is ranked[k] - ranked[k-1]
    # and weight 0 is ranked[0] + 1 - ranked[d].
    frac = elevated - rem0
    frac /= d1
    ranked = np.empty((n, d1), dtype=np.float64)
    np.put_along_axis(ranked, d - rank, frac, axis=1)
    del frac
    bary = np.empty((n, d1), dtype=np.float64)
    np.subtract(ranked[:, 1:], ranked[:, :d], out=bary[:, 1:])
    np.add(ranked[:, 0], 1.0 - ranked[:, d], out=bary[:, 0])
    return rem0, rank, bary


def _corner(rem0: np.ndarray, rank: np.ndarray, r: int) -> np.ndarray:
    """(n, d+1) remainder-r corners of located points.

    The remainder-r corner moves the remainder-0 corner by r on the
    coordinates ranked below d+1-r and by r-(d+1) on the others.
    """
    d1 = rank.shape[1]
    return rem0 + (r - d1 * (rank >= d1 - r))


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


def _ranks(codes: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, ranks): the sorted distinct codes, and the rank of each code
    among them as dtype, in codes' shape.

    int64 codes whose span max - min + 1 is at most _COUNT_SPAN times their
    count (and below 2^31, so that int32 holds the ranks) are counted: a
    presence table over the span, its cumsum, and each code's entry of it. Other codes (byte rows, wide spans) are sorted, and
    the unsorted codes are dropped once sorted, so a caller that passes them
    as a temporary does not hold them. Both paths give the same arrays.
    """
    if codes.dtype == np.int64 and codes.size:
        lo = int(codes.min())
        span = int(codes.max()) - lo + 1
        if span <= min(_COUNT_SPAN * codes.size, 2**31 - 1):
            codes = codes - lo
            seen = np.zeros(span, dtype=bool)
            seen[codes] = True
            distinct = np.flatnonzero(seen)
            distinct += lo
            table = np.cumsum(seen, dtype=np.int32)
            del seen
            table -= 1
            return distinct, table[codes].astype(dtype, copy=False)
    shape = codes.shape
    perm = np.argsort(codes, axis=None)
    codes = codes.reshape(-1)[perm]
    first = np.concatenate(([True], codes[1:] != codes[:-1]))
    distinct = codes[first]
    del codes
    in_order = np.cumsum(first, dtype=dtype)
    del first
    in_order -= 1
    ranks = np.empty(shape, dtype=dtype)
    ranks.reshape(-1)[perm] = in_order
    return distinct, ranks


class _VertexIndex:
    """Sorted, deduplicated codes of (N, d) key material rows.

    codes[g] is the code of the g-th smallest distinct row, whose dense index
    is g.
    """

    @classmethod
    def of_simplices(cls, rem0: np.ndarray,
                     rank: np.ndarray) -> tuple[_VertexIndex, np.ndarray]:
        """(index, point_dense) for the corners of located points.

        point_dense[i, r] is the dense index of point i's remainder-r corner.
        Only build_lattice reads it, so the index does not keep it. Over r,
        coordinate j of a point's corners spans rem0_j - rank_j ...
        rem0_j - rank_j + d, which gives the box; the codes are formed one
        remainder class at a time.
        """
        d = rank.shape[1] - 1
        low = (rem0 - rank)[:, :d]
        index = cls(low.min(axis=0), low.max(axis=0) + d)
        del low
        index.codes, point_dense = _ranks(
            np.stack([index._encode(_corner(rem0, rank, r)[:, :d] - index._lo)
                      for r in range(d + 1)], axis=1), np.int64)
        return index, point_dense

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        # The box lo..hi of the material, padded by one ring; codes are the
        # distinct codes that _ranks returns.
        d = lo.size
        self._lo = lo - (d + 1)
        self._hi = hi + (d + 1)
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
        return rows.view(np.dtype((np.void, rows.shape[-1] * 8)))[..., 0]

    def subset(self, vertices: np.ndarray) -> _VertexIndex:
        """The index of some of the vertices, by ascending dense index, in this
        index's box; it owns copies of everything it holds."""
        sub = object.__new__(_VertexIndex)
        sub._lo, sub._hi = self._lo.copy(), self._hi.copy()
        sub._strides = None if self._strides is None else self._strides.copy()
        sub.codes = self.codes[vertices]
        return sub

    def encode(self, material: np.ndarray) -> np.ndarray:
        """Codes of arbitrary rows, clipped into the padded box first."""
        return self._encode(np.clip(material, self._lo, self._hi) - self._lo)

    def shifted(self, offsets: np.ndarray) -> np.ndarray:
        """(k, V) codes of every indexed row moved by each of the (k, d)
        offsets; each row of codes is sorted."""
        if self._strides is not None:
            return self.codes + (offsets @ self._strides)[:, None]
        rows = self.codes.view(">u8").reshape(self.codes.size, -1)
        return self._encode(rows.astype(np.int64) + offsets[:, None, :])

    def find(self, codes: np.ndarray) -> np.ndarray:
        """Dense indices of codes, an array of any shape; MISSING where no
        vertex has that code.

        Fastest on sorted runs of codes, which each row of shifted's codes
        is; embed sorts its own."""
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
        n = point_vertices.shape[0]
        self.order = np.argsort(point_vertices[:, 0], kind="stable").astype(np.int32)
        block = np.arange(n) // _SPLAT_BLOCK
        num_blocks = int(block[-1]) + 1
        # One ranking of (block, vertex) pair codes dedups every block at once.
        # They span V/512 times their count, so _ranks counts them up to
        # V = 512 * _COUNT_SPAN vertices and sorts them beyond.
        uniq, self.local = _ranks(point_vertices[self.order] + (block * num_vertices)[:, None],
                                  np.int32)
        self.vertices = uniq % num_vertices
        self.starts = np.searchsorted(uniq, np.arange(num_blocks + 1) * num_vertices)
        self.local -= self.starts[block][:, None]
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

    Besides the per-point arrays below, it holds its private sorted vertex
    index, one code per vertex, which adjacency and embed search.

    Attributes (all read-only):
      config           the LatticeConfig used to build it
      num_points       n, rows of the source cloud
      num_vertices     V, distinct touched vertices
      point_vertices   (n, d+1) int64 dense vertex index per point, column r
                       holding the remainder-r corner of the point's simplex
      point_bary       (n, d+1) float64 barycentric weights, column-aligned
      adjacency        (V, K) int64 dense index of each one-ring neighbor,
                       MISSING where unoccupied; column 0 is the identity.
                       Resolved on first read and kept from then on
      splat_plan       the SplatPlan of the points, built on first read and
                       kept from then on
      offsets          (K, d+1) one-ring key offsets the adjacency columns follow
    """

    def __init__(self, config, point_vertices, point_bary, index):
        self.config = config
        self.num_points = point_vertices.shape[0]
        self.num_vertices = index.codes.size
        self.point_vertices = point_vertices
        self.point_bary = point_bary
        self._index = index
        for arr in (self.point_vertices, self.point_bary):
            arr.setflags(write=False)

    @property
    def offsets(self) -> np.ndarray:
        # a property, not an attribute: the memoized table is shared by every
        # lattice of this dimension, so nbytes does not count it
        return neighbor_offsets(self.config.dim)

    @functools.cached_property
    def adjacency(self) -> np.ndarray:
        # One search per remainder class r, whose C(d+1, r) columns are
        # contiguous in offsets. One search over all K columns runs faster
        # still, but peaks at 3.1x the result at d = 3, against 2.25x.
        index, d = self._index, self.config.dim
        adjacency = np.empty((self.num_vertices, self.offsets.shape[0]), dtype=np.int64)
        start = 0
        for r in range(d + 1):
            cols = np.s_[start:start + math.comb(d + 1, r)]
            adjacency[:, cols] = index.find(index.shifted(self.offsets[cols, :d])).T
            start = cols.stop
        adjacency.setflags(write=False)
        return adjacency

    @functools.cached_property
    def splat_plan(self) -> SplatPlan:
        return SplatPlan(self.point_vertices, self.num_vertices)

    def embed(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Embed another cloud against this lattice's vertex set.

        Returns (indices, bary) of shapes (m, d+1): dense vertex indices
        (MISSING where the simplex corner is unoccupied) and barycentric
        weights. Feeding back the source cloud reproduces point_vertices /
        point_bary exactly. Each remainder class's corner codes are searched
        in sorted order and the results scattered back, since the binary
        searches run several times faster on sorted queries.
        """
        rem0, rank, bary = _locate_many(elevate_many(features, self.config))
        d = self.config.dim
        idx = np.empty(rank.shape, dtype=np.int64)
        for r in range(d + 1):
            codes = self._index.encode(_corner(rem0, rank, r)[:, :d])
            order = np.argsort(codes)
            idx[order, r] = self._index.find(codes[order])
        return idx, bary

    def split(self, counts) -> list[SparseLattice]:
        """The lattices that consecutive parts of this lattice's cloud, of
        counts[c] points each, would build on their own, equal byte for byte.

        Ranking a part's own dense indices renumbers its vertices in key
        order, as its own build would. Each part owns its arrays and keeps
        this lattice's box; its adjacency and splat plan are resolved on their
        first read, as for any lattice. One part is this lattice itself.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if (counts < 0).any():
            raise InvalidInput(f"cannot split a lattice into parts of {counts.tolist()} points")
        if counts.sum() != self.num_points:
            raise InvalidInput(f"parts of {counts.sum()} points split a lattice "
                               f"of {self.num_points}")
        if (counts == 0).any():
            raise EmptyInput("cannot build a lattice from an empty cloud")
        if counts.size == 1:
            return [self]
        ends = np.cumsum(counts)
        parts = []
        for start, stop in zip((ends - counts).tolist(), ends.tolist()):
            vertices, point_vertices = _ranks(self.point_vertices[start:stop], np.int64)
            parts.append(SparseLattice(self.config, point_vertices,
                                       self.point_bary[start:stop].copy(),
                                       self._index.subset(vertices)))
        return parts

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
    rem0, rank, bary = _locate_many(elev)
    del elev

    # Dense indices are key ranks, so they do not depend on the point order.
    index, point_vertices = _VertexIndex.of_simplices(rem0, rank)
    return SparseLattice(
        config=config,
        point_vertices=point_vertices,
        point_bary=bary,
        index=index,
    )

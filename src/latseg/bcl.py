"""Bilateral convolution layers on a sparse permutohedral lattice.

A BCL transports point features onto the lattice vertices (splat), filters
them with a learnable kernel over each vertex's one-ring (convolve), and
reads them back at the points it splatted (slice):

    out = slice(convolve(splat(F)))

Splat scatter-adds each point's features to its d+1 simplex corners weighted
by barycentric coordinates; slice is the transposed gather. Carrying
features to another cloud is project's job: it embeds the destination
points against the vertex set the source cloud touched, and simplex corners
nobody touched contribute zero.

Two kernels scatter, and splat picks between them from what it is given.
_block_splat runs the lattice's splat plan: the points in blocks of 128,
sorted by their remainder-0 corner, and one small dense GEMM per block,
W_b @ values[p_b]. It takes the rows values[p_b] from whatever splat was
given: an array, or a row source that computes the rows of the points it
is asked for (network's inference streams a BCL's input this way, so that
input never exists whole; _scatter pulls all of its rows at once).
_scatter runs one bincount per channel. The plan wins
where many channels meet a lattice whose points share their corners, as
in the network: the splat forward of a wide layer, and the backward, where
slice's adjoint is a splat. The per-channel scatter wins on few channels or
a vertex-heavy lattice: the normalization ones-pass (one channel), project
of a handful of channels, the first layer of a network (its input
channels). splat builds the plan only when it runs it. slice_adjoint, the
transpose of slice for any embedding, always scatters; no BCL calls it.

Every BCL is normalized: its sliced values are divided point-wise by an
all-ones signal pushed through splat -> convolve with the default blur
profile (single-channel, bias-free, over the one-ring) -> slice. project
divides by splat -> slice of all-ones, with no blur. Denominators depend
only on the lattice geometry, never on features or learnable weights, and
are floored at 1e-12 (so project's destinations with no lattice support
get 0; a BCL's own points always have support). make_descriptors builds
the descriptors of several clouds from one lattice over their union, split
into each cloud's own lattice (SparseLattice.split), so they equal
make_descriptor's byte for byte; training builds its clouds this way.

All forward ops are linear in the features, and the backward pass is exact:
splat and slice are mutual adjoints, and convolve (im2col) and its weight and
input gradients are one GEMM each. Accumulation orders are fixed (_block_splat:
blocks in remainder-0 rank order, a GEMM inside each block; _scatter:
ascending point index; convolve: one GEMM over the K·C_in gathered taps;
reductions: ascending dense vertex index), and splat's choice depends only on
the lattice and the channel count, so results are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ShapeError
from .lattice import _SPLAT_BLOCK, MISSING, LatticeConfig, SparseLattice, build_lattice

# Floor for normalization denominators; keeps unsupported outputs at exactly 0.
NORM_EPS = 1e-12

# Output rows per slice gather; bounds its (rows, d+1, C) temporary (1 MiB at
# d = 3, C = 128). 256 rows ran as fast as 1024 and faster than one gather.
_SLICE_ROWS = 256

# splat runs the block plan for at least _PLAN_MIN_CHANNELS channels on a
# lattice with at most _PLAN_MAX_OCCUPANCY vertices per point corner. Timed
# with one BLAS thread and the plan built: at 16 channels the plan splat was
# 1.4-2.2x faster than _scatter on 8k facade, 256-point blob and uniform
# cube lattices of occupancy up to 0.2, and at 7 channels or fewer 0.1-0.9x
# as fast (mostly under 0.7x). On a 20k-point uniform cube at occupancy 0.45
# (the filter shape) it was 0.7x at 16 channels and 1.2x at 32, and the plan
# takes 8.7 ms to build there.
_PLAN_MIN_CHANNELS = 16
_PLAN_MAX_OCCUPANCY = 0.25


@dataclass
class FilterBank:
    """Learnable one-ring kernel: weights (K, C_in, C_out) plus bias (C_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise ShapeError(f"weights must be (K, C_in, C_out), got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[2],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match C_out {self.weights.shape[2]}"
            )

    @property
    def taps(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def c_out(self) -> int:
        return self.weights.shape[2]


def default_blur_profile(taps: int) -> np.ndarray:
    """Fixed normalization blur: 1 at the zero offset, 0.5 elsewhere, sum 1."""
    prof = np.full(taps, 0.5)
    prof[0] = 1.0
    return prof / prof.sum()


def _zero_padded(values: np.ndarray) -> np.ndarray:
    """values with one zero row appended, so indexing with MISSING (-1) reads 0."""
    padded = np.empty((values.shape[0] + 1, values.shape[1]))
    padded[:-1] = values
    padded[-1] = 0.0
    return padded


def _scatter(
    values: np.ndarray, indices: np.ndarray, bary: np.ndarray, num_bins: int
) -> np.ndarray:
    """Barycentric scatter-add of (m, C) point values onto (num_bins, C) rows.

    Every index must lie in [0, num_bins).
    """
    d1 = indices.shape[1]
    rows = indices.reshape(-1)
    w = bary.reshape(-1)
    out = np.empty((num_bins, values.shape[1]))
    for c in range(values.shape[1]):
        contrib = w * np.repeat(values[:, c], d1)
        out[:, c] = np.bincount(rows, weights=contrib, minlength=num_bins)
    return out


def _pulls(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges of size rows covering n rows. A lone
    last row joins the range before it: NumPy hands a one-row product to
    GEMV, whose rounding differs from GEMM's, so a row of a larger cloud
    multiplied on its own would not reproduce the whole-cloud product."""
    stops = [*range(size, n - 1, size), n]
    return list(zip([0, *stops[:-1]], stops))


def _block_splat(values, lat: SparseLattice) -> np.ndarray:
    """Scatter-add (n, C) point values to (V, C) vertex rows through the
    lattice's splat plan: per block, fill its dense (u_b, B) weight matrix
    W_b and add W_b @ values[p_b] to the block's vertex rows. The rows are
    asked for one block at a time, a one-point last block with the block
    before it (see _pulls)."""
    plan = lat.splat_plan
    out = np.zeros((lat.num_vertices, values.shape[1]))
    buffer = np.empty(plan.weight_size)
    blocks = plan.blocks()
    for start, stop in _pulls(lat.num_points, _SPLAT_BLOCK):
        rows = values[plan.order[start:stop]]
        for at in range(0, stop - start, _SPLAT_BLOCK):
            points, local, vertices = next(blocks)
            weights = buffer[: vertices.size * points.size].reshape(vertices.size, points.size)
            weights.fill(0.0)
            # A point's d+1 corners are distinct vertices: no slot is written twice.
            weights[local, np.arange(points.size)[:, None]] = lat.point_bary[points]
            out[vertices] += weights @ rows[at:at + _SPLAT_BLOCK]
        del rows  # a row source's pull is freed before it makes the next
    return out


def splat(values, lat: SparseLattice) -> np.ndarray:
    """Scatter-add (n, C) point features to (V, C) vertex features, through
    the block plan or channel by channel (see _PLAN_MIN_CHANNELS).

    values is an array or a row source: an object with an (n, C) shape
    whose values[points] is a fresh float64 array of those points' rows.
    """
    if not hasattr(values, "shape"):
        values = np.asarray(values, dtype=np.float64)
    if len(values.shape) != 2 or values.shape[0] != lat.num_points:
        raise ShapeError(
            f"expected ({lat.num_points}, C) features, got {values.shape}"
        )
    if (values.shape[1] >= _PLAN_MIN_CHANNELS
            and lat.occupancy_ratio() <= _PLAN_MAX_OCCUPANCY):
        return _block_splat(values, lat)
    return _scatter(values[:], lat.point_vertices, lat.point_bary, lat.num_vertices)


def slice(values: np.ndarray, indices: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Barycentric gather of (V, C) vertex features to (m, C) point features.

    indices/bary are an embedding as produced by SparseLattice.embed; MISSING
    corners contribute zero. Only an embedding with MISSING corners pays for
    a zero-padded copy of values.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"expected (V, C) vertex features, got {values.shape}")
    if indices.shape != bary.shape:
        raise ShapeError("embedding indices and weights must have the same shape")
    # MISSING is the only negative index
    return _gather(_zero_padded(values) if indices.min(initial=0) < 0 else values,
                   indices, bary)


def _gather(table: np.ndarray, indices: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """(m, C) barycentric sums of table's rows at indices, none of them
    MISSING; _SLICE_ROWS points at a time."""
    out = np.empty((indices.shape[0], table.shape[1]))
    for start in range(0, indices.shape[0], _SLICE_ROWS):
        rows = np.s_[start:start + _SLICE_ROWS]
        np.einsum("mk,mkc->mc", bary[rows], table[indices[rows]], out=out[rows])
    return out


def splat_adjoint(vertex_grad: np.ndarray, lat: SparseLattice) -> np.ndarray:
    """Pull a (V, C) cotangent back to points; the transpose of splat."""
    return slice(vertex_grad, lat.point_vertices, lat.point_bary)


def slice_adjoint(
    point_grad: np.ndarray, indices: np.ndarray, bary: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Push an (m, C) cotangent onto vertices; the transpose of slice.

    MISSING corners land in an extra bin V that is cut off, so they drop out.
    """
    point_grad = np.asarray(point_grad, dtype=np.float64)
    if indices.shape != bary.shape:
        raise ShapeError("embedding indices and weights must have the same shape")
    if point_grad.ndim != 2 or point_grad.shape[0] != indices.shape[0]:
        raise ShapeError(
            f"expected ({indices.shape[0]}, C) cotangent, got {point_grad.shape}"
        )
    rows = np.where(indices == MISSING, num_vertices, indices)
    return _scatter(point_grad, rows, bary, num_vertices + 1)[:num_vertices]


def _taps(values: np.ndarray, lat: SparseLattice, bank: FilterBank) -> np.ndarray:
    """Shape-checked (V, C_in) vertex features gathered over the one-ring, (V, K·C_in)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != lat.num_vertices:
        raise ShapeError(f"expected ({lat.num_vertices}, C) vertex features, got {values.shape}")
    k_taps = lat.adjacency.shape[1]
    if bank.taps != k_taps:
        raise ShapeError(f"filter has {bank.taps} taps, lattice one-ring has {k_taps}")
    if bank.c_in != values.shape[1]:
        raise ShapeError(f"filter expects C_in={bank.c_in}, features have {values.shape[1]}")
    return np.take(_zero_padded(values), lat.adjacency, axis=0).reshape(lat.num_vertices, -1)


def convolve(values: np.ndarray, lat: SparseLattice, bank: FilterBank) -> np.ndarray:
    """Sparse one-ring convolution over the vertex set.

    out[v, co] = bias[co] + sum_k sum_ci weights[k, ci, co] * values[adj[v, k], ci]
    with absent neighbors contributing zero.
    """
    out = _taps(values, lat, bank) @ bank.weights.reshape(-1, bank.c_out)
    out += bank.bias
    return out


def convolve_backward(
    saved_values: np.ndarray, lat: SparseLattice, bank: FilterBank, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of convolve w.r.t. (values, weights, bias); one GEMM each for the first two.

    The one-ring is closed under negation: when tap k of u reaches v, tap
    -k mod K of v reaches u. So the input gradient gathers grad_out through
    the reflected taps, the transpose of the forward gather.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (lat.num_vertices, bank.c_out):
        raise ShapeError(f"grad_out {grad_out.shape} is not ({lat.num_vertices}, {bank.c_out})")
    # The taps die before the second gather: with both (V, K·C) gathers alive,
    # each call faulted in ~300 fresh pages and ran 3x slower (V = 341, C = 16).
    grad_weights = (_taps(saved_values, lat, bank).T @ grad_out).reshape(bank.weights.shape)
    reflected = lat.adjacency[:, -np.arange(bank.taps) % bank.taps]
    grad_taps = np.take(_zero_padded(grad_out), reflected, axis=0).reshape(lat.num_vertices, -1)
    grad_values = grad_taps @ bank.weights.transpose(0, 2, 1).reshape(-1, bank.c_in)
    return grad_values, grad_weights, grad_out.sum(axis=0)


@dataclass
class BCLDescriptor:
    """Reusable geometry of one BCL: the lattice of a cloud and the (n, 1)
    normalization denominator of its points, already floored.

    Both depend only on the geometry. Build once per (cloud, scale); apply
    to any number of feature matrices / filter banks.
    """

    lattice: SparseLattice
    denominator: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the lattice's arrays and of the denominator."""
        return self.lattice.nbytes + self.denominator.nbytes


def make_descriptors(clouds: list, config: LatticeConfig) -> list[BCLDescriptor]:
    """make_descriptor of each cloud, from one lattice built over their union
    and split into the lattice of each cloud (SparseLattice.split)."""
    union = clouds[0] if len(clouds) == 1 else np.concatenate(clouds)
    descriptors = []
    for lat in build_lattice(union, config).split([len(c) for c in clouds]):
        profile = default_blur_profile(lat.adjacency.shape[1])
        mass = convolve(splat(np.ones((lat.num_points, 1)), lat), lat,
                        FilterBank(profile[:, None, None], np.zeros(1)))
        descriptors.append(BCLDescriptor(lat, np.maximum(splat_adjoint(mass, lat), NORM_EPS)))
    return descriptors


def make_descriptor(features: np.ndarray, config: LatticeConfig) -> BCLDescriptor:
    """Build the cloud's lattice and run the ones-pass through the default
    blur profile, sliced back onto the cloud's points."""
    return make_descriptors([features], config)[0]


def bcl_forward(splatted: np.ndarray, desc: BCLDescriptor, bank: FilterBank) -> np.ndarray:
    """convolve -> slice -> normalize of splat(values, desc.lattice).

    It starts from the splatted vertex features, which bcl_backward reads too.
    """
    filtered = convolve(splatted, desc.lattice, bank)
    out = splat_adjoint(filtered, desc.lattice)
    out /= desc.denominator
    return out


def bcl_backward(
    desc: BCLDescriptor, bank: FilterBank, splatted: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of splat then bcl_forward w.r.t. (input features,
    weights, bias), given the splatted vertex features.

    The normalization denominator is geometry-only, so it enters as a
    constant per-point factor, and the forward sliced with splat's adjoint,
    so the cotangent goes back through a splat.
    """
    lat = desc.lattice
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (lat.num_points, bank.c_out):
        raise ShapeError(
            f"grad_out has shape {grad_out.shape}, expected ({lat.num_points}, {bank.c_out})"
        )
    g_filtered = splat(grad_out / desc.denominator, lat)
    g_splat, g_w, g_b = convolve_backward(splatted, lat, bank, g_filtered)
    return splat_adjoint(g_splat, lat), g_w, g_b


def project(
    values: np.ndarray,
    features_src: np.ndarray,
    features_dst: np.ndarray,
    config: LatticeConfig,
) -> np.ndarray:
    """Transport point features between clouds: normalized splat-then-slice.

    No convolution is involved, and the ones-pass uses no blur either, so the
    numerator and denominator run through identical geometry: constants are
    reproduced up to rounding wherever the destination has lattice support,
    and unsupported destinations get 0. Non-finite values raise InvalidInput,
    as they would spread to every destination sharing a vertex.
    """
    if not np.all(np.isfinite(values)):
        raise InvalidInput("values to project must be finite")
    lat = build_lattice(features_src, config)
    idx, bary = lat.embed(features_dst)
    denom = np.maximum(slice(splat(np.ones((lat.num_points, 1)), lat), idx, bary), NORM_EPS)
    return slice(splat(values, lat), idx, bary) / denom

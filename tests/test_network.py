"""Network assembly, gradients, and checkpoint tests."""

import struct
import weakref

import numpy as np
import pytest

from latseg import bcl
from latseg import network as net
from latseg.checkpoint import (
    _Reader,
    _read_header,
    _read_tensor,
    load_checkpoint,
    load_train_state,
    save_checkpoint,
    save_train_state,
)
from latseg.errors import ConfigError, InvalidInput, ParseError, ShapeError, StateError
from latseg.lattice import LatticeConfig

from oracles import (
    batch_norm_train,
    batch_norm_train_backward,
    facade,
    fd_grad,
    rel_err,
    traced_peak,
    unfolded_inference,
    whole_cloud_inference,
)


def small_net(seed=0, arch="C3-B4-B4-C4-C2", lam=2.0, input_dim=3):
    spec = net.parse_arch(arch, LatticeConfig(3, lam))
    rng = np.random.default_rng(seed)
    params = net.init_parameters(spec, input_dim, rng)
    return spec, params


# -------------------------------------------------------------- parse_arch


def test_parse_arch_structure():
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    assert spec.num_bcl == 5
    assert spec.num_classes == 7
    bcls = [l for l in spec.layers if isinstance(l, net.BCLSpec)]
    assert [b.width for b in bcls] == [64, 128, 128, 128, 64]
    # scale halves per BCL: 32, 16, 8, 4, 2
    np.testing.assert_allclose(
        [spec.bcl_config(b.level).scale[0] for b in bcls], [32, 16, 8, 4, 2]
    )
    concats = [l for l in spec.layers if isinstance(l, net.ConcatSpec)]
    assert len(concats) == 1
    # concat sits right before the first trailing conv
    ci = spec.layers.index(concats[0])
    assert isinstance(spec.layers[ci + 1], net.Conv1x1Spec)
    assert spec.layers[ci + 1].width == 64
    assert isinstance(spec.layers[-2], net.Conv1x1Spec)
    assert isinstance(spec.layers[-1], net.SoftmaxSpec)


def test_parse_arch_cx_resolution():
    spec = net.parse_arch("C32-B64-B128-B256-B256-B256-C128-Cx", LatticeConfig(3, 64.0), 4)
    assert spec.num_classes == 4
    assert spec.arch.endswith("-C4")
    assert spec.num_bcl == 5


def test_parse_arch_stores_resolved_arch():
    spec = net.parse_arch("B4-Cx", LatticeConfig(3, 2.0), 3)
    assert spec.arch == "B4-C3"
    assert spec.arch == "B4-C3"


def test_parse_arch_block_ordering():
    spec = net.parse_arch("C8-B4-C2", LatticeConfig(3, 1.0))
    kinds = [type(l).__name__ for l in spec.layers]
    assert kinds == [
        "Conv1x1Spec", "BatchNormSpec", "ReLUSpec",
        "BCLSpec", "BatchNormSpec", "ReLUSpec",
        "ConcatSpec", "Conv1x1Spec", "SoftmaxSpec",
    ]


def test_parse_arch_errors():
    cfg = LatticeConfig(3, 1.0)
    with pytest.raises(ParseError):
        net.parse_arch("C4-C2", cfg)  # no BCL
    with pytest.raises(ParseError):
        net.parse_arch("B4-B8", cfg)  # no final conv
    with pytest.raises(ParseError):
        net.parse_arch("B4-Q7-C2", cfg)  # bad token
    for text in ("B4-C2\n", "B4\n-C2", "B\u0664-C2"):  # newline, Arabic-Indic 4
        with pytest.raises(ParseError):
            net.parse_arch(text, cfg)
    with pytest.raises(ParseError):
        net.parse_arch("Bx-C2", cfg)  # x outside final C
    with pytest.raises(ParseError):
        net.parse_arch("B4-Cx", cfg)  # x without num_classes
    with pytest.raises(ParseError):
        net.parse_arch("B4-C3", cfg, num_classes=5)  # contradiction


@pytest.mark.parametrize("arch, token", [("B0-C2", "'B0' at position 0"),
                                         ("C0-B4-C2", "'C0' at position 0"),
                                         ("B4-B00-C2", "'B00' at position 1"),
                                         ("B4-C0", "'C0' at position 1")])
def test_parse_arch_refuses_zero_width(arch, token):
    with pytest.raises(ParseError, match=f"token {token}: width must be at least 1"):
        net.parse_arch(arch, LatticeConfig(3, 1.0))


def test_init_concat_width():
    spec, params = small_net(arch="B4-B6-C5-C2")
    # penultimate conv consumes the concatenation of both BCL widths
    concat_idx = next(i for i, l in enumerate(spec.layers) if isinstance(l, net.ConcatSpec))
    conv = params[concat_idx + 1]
    assert conv["weight"].shape == (10, 5)
    # BCL weights are (K, C_in, C_out) with K = 2^(d+1) - 1
    first_bcl = next(i for i, l in enumerate(spec.layers) if isinstance(l, net.BCLSpec))
    assert params[first_bcl]["weight"].shape == (15, 3, 4)


def test_init_variance():
    spec = net.parse_arch("B64-C4", LatticeConfig(3, 1.0))
    params = net.init_parameters(spec, 32, np.random.default_rng(0))
    w = params[0]["weight"]  # (15, 32, 64), fan_in = 15 * 32
    assert abs(w.mean()) < 0.005
    assert abs(w.var() - 2.0 / (15 * 32)) < 0.0005
    assert not params[0]["bias"].any()


# ----------------------------------------------------------------- forward


def test_forward_probabilities():
    spec, params = small_net()
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    probs, tape = net.forward(spec, params, pts, pts)
    assert probs.shape == (20, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0)
    assert not tape.training


def test_forward_inference_deterministic():
    spec, params = small_net(seed=5)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(15, 3))
    a, _ = net.forward(spec, params, pts, pts)
    b, _ = net.forward(spec, params, pts, pts)
    np.testing.assert_array_equal(a, b)


def _facade_inference():
    """(n, peak traced bytes, probs, tape, features, points, their copies)
    of an inference forward over a facade-like cloud at the criterion-11
    point density."""
    rng = np.random.default_rng(17)
    n = 2000
    pts, feats = facade(n, rng, side=np.sqrt(n / 100_000))
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    params = net.init_parameters(spec, 7, rng)
    descs = net.prepare_descriptors(spec, pts)
    feats_before, pts_before = feats.copy(), pts.copy()

    (probs, tape), peak = traced_peak(
        lambda: net.forward(spec, params, feats, pts, descriptors=descs))
    return n, peak, probs, tape, (feats, feats_before), (pts, pts_before)


def test_forward_inference_memory_is_bounded_by_the_concat():
    n, peak, probs, tape, (feats, feats_before), (pts, pts_before) = _facade_inference()
    # the 512-wide concat alone is 4096 B/point; keeping every layer's
    # output as well measured 18.7 KB/point
    assert peak <= 6000 * n, peak / n
    assert all(out is None for out in tape.outputs)
    assert feats.tobytes() == feats_before.tobytes()
    assert pts.tobytes() == pts_before.tobytes()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0)


def test_forward_inference_memory_holds_no_concat():
    # each block meets the head weight as it appears, so no (n, 512) concat
    # exists and a BCL's input is gone before slice allocates its output
    n, peak, *_ = _facade_inference()
    # with the concat built this cloud peaked at 5741 B/point
    assert peak <= 2600 * n, peak / n


def test_forward_inference_memory_holds_no_point_sized_activation():
    # each BCL pulls its input rows one splat-plan block at a time, so
    # only the (n, 64) head sum is point-sized; the whole-cloud layers
    # peaked at 2157 B/point on this cloud
    n, peak, *_ = _facade_inference()
    assert peak <= 1024 * n, peak / n


def test_forward_inference_building_its_lattices_peaks_under_1kb_per_point():
    # each lattice is built when the stream reaches it and freed after the
    # next BCL's splat; with all five descriptors built before the first
    # layer and kept to the softmax this cloud peaked at 1213 B/point
    rng = np.random.default_rng(19)
    n = 8000
    pts, feats = facade(n, rng, side=np.sqrt(n / 100_000))
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    params = net.init_parameters(spec, 7, rng)
    _, peak = traced_peak(lambda: net.forward(spec, params, feats, pts))
    assert peak <= 1024 * n, peak / n


def test_inference_holds_at_most_two_descriptors(monkeypatch):
    refs = []
    alive = []  # per build, the earlier descriptors still alive
    make_descriptor = bcl.make_descriptor

    def recording(features, config):
        alive.append([t for t, ref in enumerate(refs) if ref() is not None])
        desc = make_descriptor(features, config)
        refs.append(weakref.ref(desc))
        return desc

    monkeypatch.setattr(bcl, "make_descriptor", recording)
    rng = np.random.default_rng(23)
    pts, feats = facade(2000, rng, side=np.sqrt(2000 / 100_000))
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    net.forward(spec, net.init_parameters(spec, 7, rng), feats, pts)
    # descriptor t - 1 is alive while descriptor t is built: its BCL's rows
    # feed BCL t's splat. Descriptor t - 2 is gone by then
    assert alive == [[], [0], [1], [2], [3]]
    assert all(ref() is None for ref in refs)


def _with_random_statistics(params, rng):
    for tensors in params:
        for key in ("bias", "gamma", "beta", "running_mean"):
            if key in tensors:
                tensors[key] = rng.normal(size=tensors[key].shape)
        if "running_var" in tensors:
            tensors["running_var"] = rng.uniform(0.5, 2.0, size=tensors["running_var"].shape)
    return params


_STREAM_CASES = [
    ("B64-B128-B128-B128-B64-C64-C7", 2000),  # the facade arch
    ("C8-B16-C8-B16-C4-C2", 2000),  # 1x1s before and between the BCLs
    ("B8-B8-C2", 2000),  # every BCL input scattered
    ("C16-B32-B16-C8-C3", 1),
    ("C16-B32-B16-C8-C3", 130),  # one full splat block and a partial one
    ("B64-B128-B128-B128-B64-C64-C7", 130),
    ("B64-B128-B128-B128-B64-C64-C7", 129),  # a one-point last splat block
    ("B64-B128-B128-B128-B64-C64-C7", 257),  # a one-row last head chunk
]


def _stream_case(arch, n):
    """(spec, params with random statistics, features, points) of a
    facade-like cloud of n points."""
    rng = np.random.default_rng(n + len(arch))
    pts, feats = facade(n, rng, side=np.sqrt(max(n, 100) / 100_000))
    spec = net.parse_arch(arch, LatticeConfig(3, 32.0))
    params = _with_random_statistics(net.init_parameters(spec, 7, rng), rng)
    return spec, params, feats, pts


@pytest.mark.parametrize("arch, n", _STREAM_CASES)
def test_streamed_inference_is_bytewise_the_whole_cloud_oracle(arch, n):
    spec, params, feats, pts = _stream_case(arch, n)
    probs, _ = net.forward(spec, params, feats, pts)
    want = whole_cloud_inference(spec, params, feats, pts)
    assert probs.tobytes() == want.tobytes()


def _crowded_case():
    """(spec, params, features, points, descriptors) where 16 channels meet
    a lattice of occupancy above 0.25."""
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 20.0, size=(1500, 3))
    spec = net.parse_arch("B16-B16-C4-C3", LatticeConfig(3, 1.0))
    params = _with_random_statistics(net.init_parameters(spec, 16, rng), rng)
    descs = net.prepare_descriptors(spec, pts)
    return spec, params, rng.normal(size=(1500, 16)), pts, descs


def test_streamed_inference_is_bytewise_the_oracle_on_a_crowded_lattice():
    # the second BCL's input is scattered, pulled all at once
    spec, params, feats, pts, descs = _crowded_case()
    assert descs[1].lattice.occupancy_ratio() > bcl._PLAN_MAX_OCCUPANCY
    probs, _ = net.forward(spec, params, feats, pts, descriptors=descs)
    assert ["splat_plan" in vars(d.lattice) for d in descs] == [False, False]
    assert probs.tobytes() == whole_cloud_inference(spec, params, feats, pts).tobytes()


def _assert_close_to_unfolded(probs, want):
    # folding batch norm into a scale and a shift, and the denominators
    # into the slice weights, reorders the rounding only
    np.testing.assert_allclose(probs, want, atol=1e-13, rtol=0)
    np.testing.assert_array_equal(net.predict(probs), net.predict(want))


@pytest.mark.parametrize("arch, n", _STREAM_CASES)
def test_folded_inference_is_close_to_the_unfolded_layers(arch, n):
    spec, params, feats, pts = _stream_case(arch, n)
    probs, _ = net.forward(spec, params, feats, pts)
    _assert_close_to_unfolded(probs, unfolded_inference(spec, params, feats, pts))


def test_folded_inference_is_close_to_the_unfolded_layers_on_a_crowded_lattice():
    spec, params, feats, pts, descs = _crowded_case()
    probs, _ = net.forward(spec, params, feats, pts, descriptors=descs)
    _assert_close_to_unfolded(probs, unfolded_inference(spec, params, feats, pts))


def test_streamed_inference_is_close_to_the_oracle_on_a_narrow_head():
    # Probabilities are bytewise the oracle's only where the BLAS gives a
    # block of rows the bits of the whole product. With 2 to 4 output
    # columns and several thousand rows it does not: at one OpenBLAS 0.3.31
    # thread this cloud's probabilities differ from the oracle's by up to
    # 6.1e-16 in 25320 of its 30000 rows; the head has 3 output columns
    rng = np.random.default_rng(30_000 + len("B16-B32-C3"))
    n = 30_000
    pts, feats = facade(n, rng, side=np.sqrt(n / 100_000))
    spec = net.parse_arch("B16-B32-C3", LatticeConfig(3, 32.0))
    params = _with_random_statistics(net.init_parameters(spec, 7, rng), rng)
    probs, _ = net.forward(spec, params, feats, pts)
    want = whole_cloud_inference(spec, params, feats, pts)
    np.testing.assert_allclose(probs, want, atol=1e-15, rtol=0)


@pytest.mark.parametrize("c_in", [7, 16, 64, 128])
@pytest.mark.parametrize("c_out", [7, 16, 64])
def test_row_subset_gemm_is_bitwise_the_full_gemm(c_in, c_out):
    # the streamed forward multiplies a block's rows where the whole-cloud
    # layers multiplied every row: x[p] @ W must be (x @ W)[p] bit for bit.
    # The BLAS gives this for the shapes tested here (600 rows, 7 or more
    # output columns), not in general: with 2 to 4 output columns over
    # thousands of rows a full product can round differently from its row
    # blocks. One row is left out: NumPy hands it to GEMV, which rounds
    # differently, so the forward never pulls one row of a larger cloud on
    # its own (bcl._pulls)
    rng = np.random.default_rng(c_in * 100 + c_out)
    x = rng.normal(size=(600, c_in))
    w = rng.normal(size=(c_in, c_out))
    full = x @ w
    for m in (2, 3, 7, 8, 31, 64, 100, 127, 128, 129, 200, 255, 256):
        start = int(rng.integers(0, x.shape[0] - m + 1))
        rows = np.s_[start:start + m]
        assert (x[rows] @ w).tobytes() == full[rows].tobytes(), m
        points = rng.choice(x.shape[0], size=m, replace=False)
        assert (x[points] @ w).tobytes() == full[points].tobytes(), m


def test_inference_builds_no_splat_plan_for_the_input_layer():
    # 7 input channels are scattered, and inference runs no backward; the
    # 16-channel splat of the second BCL runs the block plan
    rng = np.random.default_rng(29)
    pts = rng.uniform(0, 0.3, size=(600, 3))
    spec, params = small_net(arch="B16-B16-C2", lam=8.0, input_dim=7)
    descs = net.prepare_descriptors(spec, pts)
    net.forward(spec, params, rng.normal(size=(600, 7)), pts, descriptors=descs)
    assert ["splat_plan" in vars(d.lattice) for d in descs] == [False, True]


def test_forward_duplicate_points_identical_rows():
    spec, params = small_net(seed=7)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 3))
    pts[4] = pts[9] = pts[0]
    probs, _ = net.forward(spec, params, pts, pts)
    np.testing.assert_allclose(probs[4], probs[0], atol=1e-6)
    np.testing.assert_allclose(probs[9], probs[0], atol=1e-6)


def test_forward_permutation_equivariance():
    spec, params = small_net(seed=9)
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(24, 3))
    perm = rng.permutation(24)
    base, _ = net.forward(spec, params, pts, pts)
    shuffled, _ = net.forward(spec, params, pts[perm], pts[perm])
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-6)


def test_forward_channel_mismatch():
    spec, params = small_net(input_dim=3)
    with pytest.raises(ConfigError):
        net.forward(spec, params, np.zeros((5, 4)), np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        net.forward(spec, params, np.zeros((5, 3)), np.zeros((5, 2)))


@pytest.mark.parametrize("extra_rows", [-1, 1])
def test_forward_refuses_a_head_weight_that_does_not_fit_the_concat(extra_rows):
    # the head reads its weight in row blocks, one per BCL block, so a weight
    # with rows to spare would otherwise go unnoticed
    spec, params = small_net(arch="B4-B4-C2")
    head = next(i for i, l in enumerate(spec.layers) if isinstance(l, net.ConcatSpec)) + 1
    params[head]["weight"] = np.zeros((8 + extra_rows, 2))
    pts = np.random.default_rng(6).normal(size=(20, 3))
    with pytest.raises(ConfigError, match="the concat has 8"):
        net.forward(spec, params, pts, pts)


def test_forward_rejects_nonfinite_features():
    spec, params = small_net(input_dim=3)
    pts = np.random.default_rng(6).normal(size=(20, 3))
    for bad in (np.nan, np.inf):
        features = pts.copy()
        features[7, 1] = bad
        with pytest.raises(InvalidInput):
            net.forward(spec, params, features, pts)


def test_descriptor_scales_non_increasing_vertices():
    spec, params = small_net(arch="B4-B4-B4-C2", lam=4.0)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(100, 3))
    descs = net.prepare_descriptors(spec, pts)
    counts = [d.lattice.num_vertices for d in descs]
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts


# ---------------------------------------------------------------- backward


def test_backward_zero_cotangent_gives_zero_grads():
    spec, params = small_net()
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(12, 3))
    probs, tape = net.forward(spec, params, pts, pts, training=True)
    grads, gin = net.backward(tape, params, np.zeros_like(probs))
    for _, _, g in net.named_parameters(grads):
        assert not g.any()
    assert not gin.any()


@pytest.mark.parametrize("arch", ["C3-B4-B4-C4-C2", "C5-C4-B6-B6-B3-C7-C5-C3", "B8-C2"])
def test_backward_reads_only_saved_state(arch):
    # outputs are for the concat and for callers; backward needs only saved
    spec, params = small_net(seed=3, arch=arch)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(24, 3))
    probs, tape = net.forward(spec, params, pts, pts, training=True)
    cotangent = rng.normal(size=probs.shape)
    grads, gin = net.backward(tape, params, cotangent)
    tape.outputs[:] = [None] * len(tape.outputs)
    grads2, gin2 = net.backward(tape, params, cotangent)
    assert gin2.tobytes() == gin.tobytes()
    for (_, _, a), (_, _, b) in zip(net.named_parameters(grads), net.named_parameters(grads2)):
        assert a.tobytes() == b.tobytes()


def _tape_arrays(items):
    """Every array a tape list holds, a BCL's descriptor and bank included."""
    for item in items:
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, tuple):
            yield from _tape_arrays(item)
        elif isinstance(item, bcl.BCLDescriptor):
            yield item.denominator
        elif isinstance(item, bcl.FilterBank):
            yield from (item.weights, item.bias)


@pytest.mark.parametrize("arch", ["C3-B4-B4-C4-C2", "C5-C4-B6-B6-B3-C7-C5-C3", "B8-C2"])
def test_backward_leaves_its_inputs_alone(arch):
    # the ReLU and batch-norm steps of backward work in place, on arrays the
    # walk made itself
    spec, params = small_net(seed=4, arch=arch)
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(24, 3))
    probs, tape = net.forward(spec, params, pts, pts, training=True)
    cotangent = rng.normal(size=probs.shape)

    def snapshot():
        return ([a.tobytes() for a in _tape_arrays(tape.saved)],
                [a.tobytes() for a in _tape_arrays(tape.outputs)], cotangent.tobytes())

    before = snapshot()
    assert len(before[0]) > len(spec.layers)
    grads, gin = net.backward(tape, params, cotangent)
    grads2, gin2 = net.backward(tape, params, cotangent)
    assert gin2.tobytes() == gin.tobytes()
    for (_, _, a), (_, _, b) in zip(net.named_parameters(grads), net.named_parameters(grads2)):
        assert a.tobytes() == b.tobytes()
    assert snapshot() == before


def _batch_norm_case(shape, seed):
    """(x, batch-norm params, cotangent); shape (300, 4) gets a constant
    column and a 1e8 offset."""
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = rng.normal(size=shape) * rng.uniform(0.1, 10.0, size=c)
    if shape == (300, 4):
        x += 1e8
        x[:, 2] = 1e8 + 0.5
    p = {"gamma": rng.normal(size=c), "beta": rng.normal(size=c),
         "running_mean": rng.normal(size=c), "running_var": rng.uniform(0.5, 2.0, size=c)}
    return x, p, rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(1, 8), (2, 8), (257, 16), (300, 4)],
                         ids=["1x8", "2x8", "257x16", "300x4_constant_offset"])
def test_training_batch_norm_is_bytewise_the_textbook_formulation(shape):
    # two passes with owned buffers run the sums, divisions and products of
    # x.mean, x.var and inv * (gx - gxm - xhat * gxxm), in their order
    x, p, g = _batch_norm_case(shape, seed=shape[0])
    x_before, g_before = x.tobytes(), g.tobytes()
    got = net._batch_norm_forward(x, p)
    want = batch_norm_train(x, p)
    for a, b in zip((*got[:3], *got[3]), (*want[:3], *want[3])):
        assert a.tobytes() == b.tobytes()
    xhat, inv = want[1], want[2]
    gx, grads = net._batch_norm_backward(g, xhat, inv, p["gamma"])
    want_gx, want_grads = batch_norm_train_backward(g, xhat, inv, p["gamma"])
    assert gx.tobytes() == want_gx.tobytes()
    for key in ("gamma", "beta"):
        assert grads[key].tobytes() == want_grads[key].tobytes()
    assert (x.tobytes(), g.tobytes()) == (x_before, g_before)


def test_backward_requires_training_tape():
    spec, params = small_net()
    pts = np.random.default_rng(7).normal(size=(8, 3))
    probs, tape = net.forward(spec, params, pts, pts, training=False)
    with pytest.raises(StateError):
        net.backward(tape, params, np.zeros_like(probs))


@pytest.mark.parametrize("arch, net_seed, data_seed", [
    ("C3-B4-B4-C4-C2", 11, 8),
    # the head is the last 1x1: its block cotangents go straight to the BCLs
    ("B4-B4-C2", 12, 10),
], ids=["C3-B4-B4-C4-C2", "B4-B4-C2"])
def test_backward_finite_differences_full_net(arch, net_seed, data_seed):
    # every trainable tensor plus the input features, against central FD
    spec, params = small_net(seed=net_seed, arch=arch)
    rng = np.random.default_rng(data_seed)
    pts = rng.normal(size=(12, 3))
    feats = rng.normal(size=(12, 3))
    probe = rng.normal(size=(12, 2))
    descs = net.prepare_descriptors(spec, pts)

    def objective():
        p, _ = net.forward(spec, params, feats, pts, training=True, descriptors=descs)
        return np.sum(probe * p)

    _, tape = net.forward(spec, params, feats, pts, training=True, descriptors=descs)
    grads, grad_in = net.backward(tape, params, probe)
    for li, key, arr in net.named_parameters(params):
        assert rel_err(fd_grad(objective, arr), grads[li][key]) < 1e-4, (li, key)
    assert rel_err(fd_grad(objective, feats), grad_in) < 1e-4


def _concat_reference(spec, params, feats, pts, training):
    """The network with its concat built: every layer as forward runs it, but
    the first 1x1 after the concat multiplies the stacked BCL blocks."""
    descs = iter(net.prepare_descriptors(spec, pts))
    outputs = []
    x = feats
    for i, layer in enumerate(spec.layers):
        p = params[i]
        if isinstance(layer, net.Conv1x1Spec):
            x = x @ p["weight"] + p["bias"]
        elif isinstance(layer, net.BCLSpec):
            desc = next(descs)
            bank = bcl.FilterBank(p["weight"], p["bias"])
            x = bcl.bcl_forward(bcl.splat(x, desc.lattice), desc, bank)
        elif isinstance(layer, net.BatchNormSpec):
            mean, var = (x.mean(axis=0), x.var(axis=0)) if training else (
                p["running_mean"], p["running_var"])
            x = p["gamma"] * (x - mean) / np.sqrt(var + net.BN_EPS) + p["beta"]
        elif isinstance(layer, net.ReLUSpec):
            x = np.maximum(x, 0.0)
        elif isinstance(layer, net.ConcatSpec):
            x = np.hstack([outputs[s] for s in layer.sources])
        elif isinstance(layer, net.SoftmaxSpec):
            x = net.softmax(x)
        outputs.append(x)
    return x


@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("arch", ["C3-B4-B4-C4-C2", "B4-B4-C2"])
def test_forward_head_matches_the_built_concat(arch, training):
    # B4-B4-C2: the concat feeds the final layer
    spec, params = small_net(seed=23, arch=arch)
    rng = np.random.default_rng(24)
    for tensors in params:
        for key in ("bias", "gamma", "beta", "running_mean"):
            if key in tensors:
                tensors[key] = rng.normal(size=tensors[key].shape)
        if "running_var" in tensors:
            tensors["running_var"] = rng.uniform(0.5, 2.0, size=tensors["running_var"].shape)
    pts = rng.normal(size=(40, 3))
    feats = rng.normal(size=(40, 3))
    probs, _ = net.forward(spec, params, feats, pts, training=training)
    want = _concat_reference(spec, params, feats, pts, training)
    assert np.max(np.abs(probs - want) / np.abs(want)) < 1e-12


def test_batchnorm_train_inference_consistency():
    # with running stats converged onto a fixed batch the two modes agree
    spec, params = small_net(seed=13)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(50, 3))
    descs = net.prepare_descriptors(spec, pts)
    for _ in range(400):
        _, tape = net.forward(spec, params, pts, pts, training=True, descriptors=descs)
        net.commit_running_stats(tape, params)
    train_out, _ = net.forward(spec, params, pts, pts, training=True, descriptors=descs)
    infer_out, _ = net.forward(spec, params, pts, pts, training=False, descriptors=descs)
    assert np.max(np.abs(train_out - infer_out)) < 1e-3


def test_inference_forward_leaves_the_parameters_untouched():
    # the batch norms are folded into fresh arrays, never into the
    # parameters: a second forward reads what the first one did
    spec, params, feats, pts = _stream_case("C8-B16-C8-B16-C4-C2", 300)
    before = [{k: v.tobytes() for k, v in t.items()} for t in params]
    first, _ = net.forward(spec, params, feats, pts)
    second, _ = net.forward(spec, params, feats, pts)
    assert [{k: v.tobytes() for k, v in t.items()} for t in params] == before
    assert first.tobytes() == second.tobytes()


def test_probing_forward_leaves_no_trace():
    spec, params = small_net(seed=15)
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(10, 3))
    before = [{k: v.copy() for k, v in t.items()} for t in params]
    net.forward(spec, params, pts, pts, training=True)  # no commit
    for p, q in zip(before, params):
        for k in p:
            np.testing.assert_array_equal(p[k], q[k])


# ------------------------------------------------------- softmax / predict


def test_softmax_scale_invariance_of_predict():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(30, 5))
    base = net.predict(net.softmax(logits))
    scaled = net.predict(net.softmax(logits * 3.7))
    np.testing.assert_array_equal(base, scaled)


def test_predict_tie_breaks_low():
    probs = np.array([[0.4, 0.4, 0.2], [0.1, 0.45, 0.45]])
    np.testing.assert_array_equal(net.predict(probs), [0, 1])


def test_softmax_grad_jacobian():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(4, 3))
    g = rng.normal(size=(4, 3))
    p = net.softmax(z)
    analytic = net.softmax_grad(g, p)
    fd = fd_grad(lambda: np.sum(g * net.softmax(z)), z, h=1e-6)
    np.testing.assert_allclose(fd, analytic, atol=1e-6)


# -------------------------------------------------------------- checkpoint


def test_checkpoint_roundtrip(tmp_path):
    spec, params = small_net(seed=17, arch="B4-B6-C5-C3")
    path = tmp_path / "model.splt"
    save_checkpoint(path, spec, params, ("rgb", "height"), ("xyz",))
    spec2, params2, feats, latts = load_checkpoint(path)
    assert spec2.arch == spec.arch
    assert feats == ("rgb", "height") and latts == ("xyz",)
    np.testing.assert_allclose(spec2.lattice.scale, spec.lattice.scale)

    # file -> load -> save reproduces the file bit for bit
    path2 = tmp_path / "model2.splt"
    save_checkpoint(path2, spec2, params2, feats, latts)
    assert path.read_bytes() == path2.read_bytes()

    # load -> save -> load is a fixed point on the tensors
    spec3, params3, _, _ = load_checkpoint(path2)
    for (i, k, a), (_, _, b) in zip(net.named_parameters(params2), net.named_parameters(params3)):
        np.testing.assert_array_equal(a, b)

    # loaded params drive the network
    pts = np.random.default_rng(13).normal(size=(6, 3))
    probs, _ = net.forward(spec2, params2, pts, pts)
    assert probs.shape == (6, 3)


def test_checkpoint_load_holds_the_file_once(tmp_path):
    # the payloads are read as views of the file's bytes: a copy of every
    # payload on top of the file and the float64 parameters took 2.02 times
    # the file's size over the parameters on this model
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    params = net.init_parameters(spec, 7, np.random.default_rng(3))
    path = tmp_path / "model.splt"
    save_checkpoint(path, spec, params)
    (_, loaded, _, _), peak = traced_peak(lambda: load_checkpoint(path))
    for (_, _, a), (_, _, b) in zip(net.named_parameters(params), net.named_parameters(loaded)):
        assert b.flags.writeable and b.tobytes() == a.astype(np.float32).astype(b.dtype).tobytes()
    kept = sum(a.nbytes for tensors in loaded for a in tensors.values())
    assert peak - kept <= 1.25 * path.stat().st_size, (peak - kept) / path.stat().st_size


def test_train_state_save_holds_the_file_once(tmp_path):
    # growing one bytes object per tensor copied the file so far each time,
    # and took 2.00 times the file's size on this model
    spec = net.parse_arch("B64-B128-B128-B128-B64-C64-C7", LatticeConfig(3, 32.0))
    params = net.init_parameters(spec, 7, np.random.default_rng(3))
    moments = net.trainable_views(np.full_like(net.trainable_vector(params), 0.5), params)
    path = tmp_path / "state.splt"
    _, peak = traced_peak(lambda: save_train_state(path, spec, params, moments, moments, 3, 4))
    assert peak <= 1.25 * path.stat().st_size, peak / path.stat().st_size
    _, loaded, m, _, step, iteration, _, _ = load_train_state(path)
    assert (step, iteration) == (3, 4)
    for (_, _, a), (_, _, b) in zip(net.named_parameters(params), net.named_parameters(loaded)):
        assert a.tobytes() == b.tobytes()
    assert all(np.all(a == 0.5) for _, _, a in net.named_parameters(m))


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk.splt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        load_checkpoint(p)


def _norm_flag_offset(arch, dim, feats, latts):
    # magic, version, arch, dim, lambda0, feature and lattice channel names
    # and the class count precede the normalization flag
    return 4 + 4 + (4 + len(arch)) + 4 + 8 * dim + (4 + len(feats)) + (4 + len(latts)) + 4


def test_checkpoint_malformed_header_raises_parse_error(tmp_path):
    spec, params = small_net(arch="B4-C2")
    good = tmp_path / "model.splt"
    save_checkpoint(good, spec, params, ("xyz",), ("xyz",))
    raw = good.read_bytes()
    norm_at = _norm_flag_offset("B4-C2", 3, "xyz", "xyz")
    assert raw[norm_at] == 1
    # a non-utf-8 byte in the architecture string, then flag values other than 1
    for offset, value in ((12, 0xFF), (norm_at, 0), (norm_at, 2)):
        bad = bytearray(raw)
        bad[offset] = value
        path = tmp_path / "bad.splt"
        path.write_bytes(bytes(bad))
        with pytest.raises(ParseError):
            load_checkpoint(path)


def test_train_state_tensor_name_without_dot_raises_parse_error(tmp_path):
    spec, params = small_net(arch="B4-C2")
    zeros = net.trainable_views(np.zeros_like(net.trainable_vector(params)), params)
    path = tmp_path / "state.splt"
    save_train_state(path, spec, params, zeros, zeros, 0, 0)
    raw = path.read_bytes()
    assert raw.count(b"param.000.bias") == 1
    path.write_bytes(raw.replace(b"param.000.bias", b"param-000-bias"))
    with pytest.raises(ParseError):
        load_train_state(path)



def test_checkpoint_zero_width_architecture_raises_parse_error(tmp_path):
    spec, params = small_net(arch="B4-C2")
    path = tmp_path / "model.splt"
    save_checkpoint(path, spec, params)
    raw = path.read_bytes()
    assert raw.count(b"B4-C2") == 1
    path.write_bytes(raw.replace(b"B4-C2", b"B0-C2"))
    with pytest.raises(ParseError, match="model.splt: invalid architecture.*'B0'"):
        load_checkpoint(path)


@pytest.mark.parametrize("train_state", [False, True])
def test_checkpoint_refuses_trailing_bytes_and_repeated_tensors(tmp_path, train_state):
    spec, params = small_net(arch="B4-C2")
    path = tmp_path / "model.splt"
    if train_state:
        zeros = net.trainable_views(np.zeros_like(net.trainable_vector(params)), params)
        save_train_state(path, spec, params, zeros, zeros, 0, 0)
        load = load_train_state
    else:
        save_checkpoint(path, spec, params)
        load = load_checkpoint
    raw = path.read_bytes()
    r = _Reader(raw, "")
    _read_header(r)
    if train_state:
        r.u64(), r.u64()
    count_at = r.pos
    count = r.u32()
    _read_tensor(r)
    first = raw[count_at + 4:r.pos]
    # the first tensor record again at the end, counted
    repeated = raw[:count_at] + struct.pack("<I", count + 1) + raw[count_at + 4:] + first
    for bad, message in ((raw + b"\n", "trailing bytes"), (repeated, "appears twice")):
        path.write_bytes(bad)
        with pytest.raises(ParseError, match=message) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("train_state", [False, True])
def test_checkpoint_refuses_nonfinite_tensors(tmp_path, train_state, bad):
    spec, params = small_net(arch="B4-C2")
    params[0]["weight"][0, 1, 2] = bad
    path = tmp_path / "model.splt"
    if train_state:
        zeros = net.trainable_views(np.zeros_like(net.trainable_vector(params)), params)
        save_train_state(path, spec, params, zeros, zeros, 0, 0)
        load = load_train_state
    else:
        save_checkpoint(path, spec, params)
        load = load_checkpoint
    with pytest.raises(ParseError, match="'000.weight' holds a non-finite value"):
        load(path)


@pytest.mark.parametrize("scale", [1 + 2**-24, 1e10], ids=["just-past", "far-past"])
def test_save_checkpoint_refuses_finite_values_beyond_float32(tmp_path, scale):
    spec, params = small_net(arch="B4-C2")
    path = tmp_path / "model.splt"
    save_checkpoint(path, spec, params)
    before = path.read_bytes()
    f32_max = float(np.finfo(np.float32).max)
    params[0]["weight"][0, 1, 2] = -f32_max * scale
    with pytest.raises(InvalidInput, match="'000.weight'"):
        save_checkpoint(path, spec, params)
    assert path.read_bytes() == before
    # a value that rounds to the largest float32 is still finite on the wire
    params[0]["weight"][0, 1, 2] = -f32_max * (1 + 2**-26)
    save_checkpoint(path, spec, params)
    assert load_checkpoint(path)[1][0]["weight"][0, 1, 2] == -f32_max


def _mutations(params):
    """Copies of params with one tensor dropped, one added, one reshaped,
    and layer 0's weight dropped."""
    dropped = [dict(t) for t in params]
    del dropped[1]["gamma"]
    added = [dict(t) for t in params]
    added[2]["extra"] = np.zeros(3)
    reshaped = [dict(t) for t in params]
    w = reshaped[3]["weight"]
    reshaped[3]["weight"] = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    no_first = [dict(t) for t in params]
    del no_first[0]["weight"]
    return [dropped, added, reshaped, no_first]


def test_checkpoint_tensors_checked_against_architecture(tmp_path):
    spec, params = small_net(arch="B4-B6-C5-C3", input_dim=5)
    path = tmp_path / "model.splt"
    # the input width is read from layer 0's weight, so any width loads
    save_checkpoint(path, spec, params)
    _, loaded, _, _ = load_checkpoint(path)
    assert [t.keys() for t in loaded] == [t.keys() for t in params]
    for bad in _mutations(params):
        save_checkpoint(path, spec, bad)
        with pytest.raises(ParseError, match="architecture needs|layer 0"):
            load_checkpoint(path)


def test_train_state_tensors_checked_against_architecture(tmp_path):
    spec, params = small_net(arch="B4-B6-C5-C3", input_dim=5)
    zeros = net.trainable_views(np.zeros_like(net.trainable_vector(params)), params)
    path = tmp_path / "state.splt"
    save_train_state(path, spec, params, zeros, zeros, 0, 0)
    load_train_state(path)
    for bad_params, bad_moments in zip(_mutations(params), _mutations(zeros)):
        for groups in ((bad_params, zeros, zeros), (params, bad_moments, zeros),
                       (params, zeros, bad_moments)):
            save_train_state(path, spec, *groups, 0, 0)
            with pytest.raises(ParseError, match="architecture needs|layer 0"):
                load_train_state(path)

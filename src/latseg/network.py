"""Multi-scale lattice segmentation network.

An architecture string like "C32-B64-B128-B256-C128-Cx" describes a stack of
1x1 point convolutions (C<width>) and bilateral convolution layers
(B<width>). The t-th BCL (t = 0, 1, ...) filters on a lattice built from the
cloud's lattice features at scale lambda0 / 2^t, so receptive fields double
at every BCL. Every BCL is normalized (bcl.make_descriptor's default
one-ring blur). After the last BCL, the responses of all BCLs are
concatenated and fed to the remaining 1x1 convolutions; a trailing "Cx"
takes its width from num_classes. Every parameterized layer except the
final convolution is followed by batch normalization (over the point
dimension) and ReLU, and class probabilities come from a row-wise softmax.

forward() returns probabilities plus a tape. The concat is never built:
it is linear, so concat @ W is the sum over BCL blocks of y_t @ W[rows_t].
As each block's ReLU output y_t appears, the first 1x1 after the concat
(the head) adds its product with the block's row range of the head weight
(a view) into one (n, C_head) sum, and the head itself only adds its bias.
In training mode the tape's saved state is all that backward() reads for
exact parameter and input gradients (a BCL saves its descriptor, filter
bank and splatted vertex features, the head saves the blocks), and its
outputs keep every layer's activation for callers; the concat has none of
its own, so its entry is None. trainable_vector() and
trainable_views() turn per-layer tensors, such as backward()'s gradients,
into one flat vector and back: the layout train_loop optimizes in. Batch
norm uses batch statistics and stages running-statistic updates on the
tape, which commit_running_stats() folds into the parameters (so probing
forwards, e.g. finite differences, leave no trace).

Inference mode uses the stored running statistics, keeps neither backward
state nor outputs, and streams the layers up to the head. Once per
forward, each batch norm is folded into its per-channel affine map
x * scale + shift (fresh arrays; the parameters are only read). Each
BCL's splat pulls its input rows one splat-plan block at a time, and they
are computed from the previous BCL's filtered (V, C) vertex features,
which were multiplied by the next batch norm's scale: sliced at the
block's points with their barycentric weights divided by their
denominators (slice is linear in both, so this is the normalized, scaled
output), then the shift, ReLU and any 1x1 between the two BCLs, in
place; a batch norm after a 1x1 multiplies and adds. A concat block adds
its rows times its rows of the head weight into the head's sum as they
pass. After the last BCL, its rows are pulled in chunks of
bcl._SLICE_ROWS to finish that sum, and the layers after the head run on
the whole (n, C_head) array, which replaces the sum at the first 1x1
after the head. Unless descriptors are passed in, each BCL's lattice is
built when the stream reaches that BCL, and it is freed once the next
BCL's splat has pulled its rows (the last one after the head's sum is
done), so at most two lattices are alive.
So the head's sum is the only point-sized activation before the head: for
B64-B128-B128-B128-B64-C64-C7 that is 64 floats, 512 B, per point, plus
at most two levels' lattices and one block's rows in flight (whole-cloud
layers took 128 + 2 x 64 floats, about 2 KB, and every level's lattice).
Training keeps whole-cloud layers, as batch norm needs its statistics over
every row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import bcl
from .errors import ConfigError, InvalidInput, ParseError, ShapeError, StateError
from .lattice import LatticeConfig

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch


@dataclass(frozen=True)
class Conv1x1Spec:
    width: int


@dataclass(frozen=True)
class BCLSpec:
    width: int
    level: int  # lattice scale is lambda0 / 2**level


@dataclass(frozen=True)
class BatchNormSpec:
    pass


@dataclass(frozen=True)
class ReLUSpec:
    pass


@dataclass(frozen=True)
class ConcatSpec:
    sources: tuple[int, ...]  # layer indices of the BCL block outputs


@dataclass(frozen=True)
class SoftmaxSpec:
    pass


@dataclass(frozen=True)
class NetworkSpec:
    arch: str  # as parsed, with a trailing "Cx" resolved to the class count
    layers: tuple
    lattice: LatticeConfig  # base config; BCL level t divides scale by 2^t
    num_classes: int
    num_bcl: int

    def bcl_config(self, level: int) -> LatticeConfig:
        return LatticeConfig(self.lattice.dim, self.lattice.scale * 0.5**level)


_TOKEN = re.compile(r"([CB])([0-9]+|x)")


def parse_arch(text: str, lattice: LatticeConfig, num_classes: int | None = None) -> NetworkSpec:
    """Parse an architecture string into a NetworkSpec.

    Requires at least one B token and a final C token; "x" is only legal as
    the final C width and resolves to num_classes. Every width is at least 1;
    a literal final width must agree with num_classes when both are given.
    """
    tokens = text.split("-")
    parsed = []
    for pos, tok in enumerate(tokens):
        m = _TOKEN.fullmatch(tok)
        if m is None:
            raise ParseError(f"bad architecture token {tok!r} at position {pos} in {text!r}")
        kind, width = m.group(1), m.group(2)
        if width == "x" and (kind != "C" or pos != len(tokens) - 1):
            raise ParseError(f"token {tok!r} at position {pos}: 'x' is only legal as the final C width")
        width = width if width == "x" else int(width)
        if width == 0:
            raise ParseError(f"token {tok!r} at position {pos}: width must be at least 1")
        parsed.append((pos, kind, width))
    if not any(kind == "B" for _, kind, _ in parsed):
        raise ParseError(f"architecture {text!r} has no B layer")
    if parsed[-1][1] != "C":
        raise ParseError(f"architecture {text!r} must end with a C layer")

    final_width = parsed[-1][2]
    if final_width == "x":
        if num_classes is None:
            raise ParseError("architecture ends in 'Cx' but num_classes was not given")
        final_width = int(num_classes)
        text = text[:-1] + str(final_width)
    elif num_classes is not None and num_classes != final_width:
        raise ParseError(
            f"final layer width {final_width} disagrees with num_classes {num_classes}"
        )
    if final_width < 1:
        raise ParseError("output layer needs at least one class")

    last_b = max(pos for pos, kind, _ in parsed if kind == "B")
    layers: list = []
    bcl_outputs: list[int] = []
    level = 0
    for pos, kind, width in parsed:
        if kind == "B":
            layers.append(BCLSpec(width=width, level=level))
            layers.append(BatchNormSpec())
            layers.append(ReLUSpec())
            bcl_outputs.append(len(layers) - 1)
            level += 1
            if pos == last_b:
                layers.append(ConcatSpec(sources=tuple(bcl_outputs)))
        elif pos == len(parsed) - 1:
            layers.append(Conv1x1Spec(width=final_width))
        else:
            layers.append(Conv1x1Spec(width=width))
            layers.append(BatchNormSpec())
            layers.append(ReLUSpec())
    layers.append(SoftmaxSpec())

    return NetworkSpec(
        arch=text,
        layers=tuple(layers),
        lattice=lattice,
        num_classes=final_width,
        num_bcl=level,
    )


def _layer_widths(spec: NetworkSpec, input_dim: int) -> list[int]:
    """Output width of every layer given the input feature width."""
    widths: list[int] = []
    cur = input_dim
    for layer in spec.layers:
        if isinstance(layer, (Conv1x1Spec, BCLSpec)):
            cur = layer.width
        elif isinstance(layer, ConcatSpec):
            cur = sum(widths[s] for s in layer.sources)
        widths.append(cur)
    return widths


def _head_index(spec: NetworkSpec) -> int:
    """Index of the head: the 1x1 that parse_arch puts right after the concat."""
    return next(i for i, layer in enumerate(spec.layers) if isinstance(layer, ConcatSpec)) + 1


def _row_blocks(weight: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    """Consecutive row ranges of weight (views), one per width."""
    bounds = np.cumsum([0, *widths])
    return [weight[a:b] for a, b in zip(bounds, bounds[1:])]


_BN_INIT = {"gamma": np.ones, "beta": np.zeros, "running_mean": np.zeros, "running_var": np.ones}


def parameter_shapes(spec: NetworkSpec, input_dim: int) -> list[dict]:
    """Per layer, the {key: shape} of every tensor init_parameters gives."""
    if input_dim < 1:
        raise InvalidInput(f"input_dim must be >= 1, got {input_dim}")
    taps = 2 ** (spec.lattice.dim + 1) - 1
    shapes: list[dict] = []
    widths = _layer_widths(spec, input_dim)
    for layer, cur, width in zip(spec.layers, [input_dim, *widths], widths):
        if isinstance(layer, Conv1x1Spec):
            shapes.append({"weight": (cur, width), "bias": (width,)})
        elif isinstance(layer, BCLSpec):
            shapes.append({"weight": (taps, cur, width), "bias": (width,)})
        elif isinstance(layer, BatchNormSpec):
            shapes.append({key: (cur,) for key in _BN_INIT})
        else:
            shapes.append({})
    return shapes


def init_parameters(spec: NetworkSpec, input_dim: int, rng: np.random.Generator) -> list[dict]:
    """Fresh parameters: zero-mean uniform weights with variance 2 / fan_in.

    fan_in is C_in for 1x1 convolutions and K * C_in for BCLs. Biases start
    at zero, batch-norm gains at one.
    """
    params: list[dict] = []
    for shapes in parameter_shapes(spec, input_dim):
        tensors = {}
        for key, shape in shapes.items():
            if key == "weight":
                bound = np.sqrt(6.0 / math.prod(shape[:-1]))
                tensors[key] = rng.uniform(-bound, bound, size=shape)
            else:
                tensors[key] = _BN_INIT.get(key, np.zeros)(shape)
        params.append(tensors)
    return params


# Keys that the optimizer updates; running stats are excluded.
_TRAINABLE = ("weight", "bias", "gamma", "beta")


def named_parameters(params: list[dict]):
    """Yield (layer_index, key, array) for every trainable tensor, in order."""
    for i, tensors in enumerate(params):
        for key in _TRAINABLE:
            if key in tensors:
                yield i, key, tensors[key]


def trainable_vector(params: list[dict]) -> np.ndarray:
    """A copy of every trainable tensor, raveled and joined in named_parameters order."""
    return np.concatenate([a.ravel() for _, _, a in named_parameters(params)])


def trainable_views(vector: np.ndarray, params: list[dict]) -> list[dict]:
    """Per layer, {key: view of vector} shaped like the trainable tensors of
    params; the inverse of trainable_vector."""
    views: list[dict] = [{} for _ in params]
    start = 0
    for i, key, a in named_parameters(params):
        views[i][key] = vector[start:start + a.size].reshape(a.shape)
        start += a.size
    return views


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_grad(grad_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Cotangent at the logits given one at the probabilities."""
    inner = np.sum(grad_probs * probs, axis=1, keepdims=True)
    return probs * (grad_probs - inner)


def _descriptors(spec: NetworkSpec, lattice_features: np.ndarray):
    """Yield the cloud's descriptor of each BCL, in layer order, each built
    when it is asked for."""
    for layer in spec.layers:
        if isinstance(layer, BCLSpec):
            yield bcl.make_descriptor(lattice_features, spec.bcl_config(layer.level))


def prepare_descriptors(spec: NetworkSpec, lattice_features: np.ndarray) -> list[bcl.BCLDescriptor]:
    """Build the per-BCL lattices and descriptors for one cloud.

    One descriptor per BCL layer, in layer order. Reusable across any number
    of forward/backward passes on the same cloud, at the price of holding
    every level's lattice at once: a forward given none builds each lattice
    when its BCL is reached instead, and an inference forward then holds at
    most two. Splat plans are not built here: a lattice builds its plan on
    its first block splat.
    """
    return list(_descriptors(spec, lattice_features))


def prepare_descriptor_lists(spec: NetworkSpec, clouds: list) -> list[list[bcl.BCLDescriptor]]:
    """prepare_descriptors of each cloud, equal to it byte for byte, from one
    lattice build per BCL over the union of the clouds (bcl.make_descriptors)."""
    levels = [bcl.make_descriptors(clouds, spec.bcl_config(layer.level))
              for layer in spec.layers if isinstance(layer, BCLSpec)]
    return [list(descriptors) for descriptors in zip(*levels)]


@dataclass
class Tape:
    """Per-forward record: backward reads only saved; outputs are kept for callers.

    saved[i] is what layer i's backward step reads, e.g. a BCL's
    (desc, bank, splatted) or the head's tuple of concat blocks. outputs[i]
    is layer i's output, None at the concat. Both lists are all None in
    inference mode.
    """

    spec: NetworkSpec
    training: bool
    saved: list  # per-layer backward state
    outputs: list  # per-layer output arrays
    pending_running: dict = field(default_factory=dict)  # bn layer idx -> (mean, var)


def forward(
    spec: NetworkSpec,
    params: list[dict],
    features: np.ndarray,
    lattice_features: np.ndarray,
    training: bool = False,
    descriptors: list | None = None,
) -> tuple[np.ndarray, Tape]:
    """Run the network on one cloud; returns (probabilities, tape).

    features: (n, d_f) input channels. lattice_features: (n, d_l) channels the
    lattices are built from. Pass descriptors from prepare_descriptors to
    reuse lattices across calls on the same cloud; without them each BCL's
    lattice is built when the forward reaches it.
    """
    features = np.asarray(features, dtype=np.float64)
    lattice_features = np.asarray(lattice_features, dtype=np.float64)
    if features.ndim != 2:
        raise ShapeError(f"features must be 2-d, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise InvalidInput("features must be finite")
    if lattice_features.shape != (features.shape[0], spec.lattice.dim):
        raise ShapeError(
            f"lattice features must be ({features.shape[0]}, {spec.lattice.dim}), "
            f"got {lattice_features.shape}"
        )
    if len(params) != len(spec.layers):
        raise ConfigError("parameter list does not match the architecture")
    # parse_arch puts a C or B layer first, so its weight fixes the input width
    expected = params[0]["weight"].shape[-2]
    if features.shape[1] != expected:
        raise ConfigError(
            f"network expects {expected} input channels, features have {features.shape[1]}"
        )

    if descriptors is None:
        descriptors = _descriptors(spec, lattice_features)
    elif len(descriptors) != spec.num_bcl:
        raise ConfigError(f"expected {spec.num_bcl} descriptors, got {len(descriptors)}")

    tape = Tape(
        spec=spec,
        training=training,
        saved=[None] * len(spec.layers),
        outputs=[None] * len(spec.layers),
    )
    widths = _layer_widths(spec, features.shape[1])
    head = _head_index(spec)
    sources = spec.layers[head - 1].sources
    block_widths = [widths[s] for s in sources]
    head_weight = params[head]["weight"]
    if head_weight.shape[0] != sum(block_widths):
        raise ConfigError(f"layer {head} expects {head_weight.shape[0]} input channels, "
                          f"the concat has {sum(block_widths)}")
    rows = dict(zip(sources, _row_blocks(head_weight, block_widths)))
    if training:
        return _train_forward(spec, params, features, iter(descriptors), rows, tape), tape
    return _stream_forward(spec, params, features, iter(descriptors), rows), tape


def _train_forward(spec, params, x, descriptor_iter, rows, tape) -> np.ndarray:
    """Whole-cloud layers, each saving what backward reads and its output."""
    head = _head_index(spec)
    head_sum = None  # sum over the blocks so far of block @ its rows
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, Conv1x1Spec):
            if i == head:  # every block has been multiplied in
                tape.saved[i] = tuple(tape.outputs[s] for s in rows)
                x = head_sum
            else:
                tape.saved[i] = x
                x = x @ params[i]["weight"]
            x += params[i]["bias"]
        elif isinstance(layer, BCLSpec):
            desc = next(descriptor_iter)
            splatted = bcl.splat(x, desc.lattice)
            bank = bcl.FilterBank(params[i]["weight"], params[i]["bias"])
            x = bcl.bcl_forward(splatted, desc, bank)
            tape.saved[i] = (desc, bank, splatted)
        elif isinstance(layer, BatchNormSpec):
            x, xhat, inv, tape.pending_running[i] = _batch_norm_forward(x, params[i])
            tape.saved[i] = (xhat, inv)
        elif isinstance(layer, ReLUSpec):
            tape.saved[i] = x > 0
            x = np.maximum(x, 0.0)  # the tape keeps x as the batch norm's output
            if i in rows:
                if head_sum is None:
                    head_sum = x @ rows[i]
                else:
                    head_sum += x @ rows[i]
        elif isinstance(layer, ConcatSpec):
            x = None  # its blocks are in head_sum already
        elif isinstance(layer, SoftmaxSpec):
            x = softmax(x)
            tape.saved[i] = x
        tape.outputs[i] = x
    return x


# The training batch norm, in two passes over owned buffers. The forward runs
# the sums and divisions of x.mean and x.var (add.reduce, then a division by
# the count) and backward the operations of inv * (gx - gxm - xhat * gxxm) in
# their order, so both equal the textbook formulation in tests/oracles.py bit
# for bit. Reusing the gamma and beta sums for gxm and gxxm changes rounding.
def _batch_norm_forward(x: np.ndarray, p: dict):
    """(y, xhat, inv, running) of a training batch norm of x's rows with p's
    gamma and beta; running is p's running (mean, var) blended with the
    batch's. x is not changed."""
    n = x.shape[0]
    mean = np.add.reduce(x, axis=0) / n
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=0) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    y = xhat * p["gamma"]
    y += p["beta"]
    running = (BN_MOMENTUM * p["running_mean"] + (1.0 - BN_MOMENTUM) * mean,
               BN_MOMENTUM * p["running_var"] + (1.0 - BN_MOMENTUM) * var)
    return y, xhat, inv, running


def _batch_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                         gamma: np.ndarray):
    """(input cotangent, gamma and beta gradients) of a training batch norm
    at cotangent g; g is not changed."""
    n = g.shape[0]
    t = g * xhat
    grads = {"gamma": np.add.reduce(t, axis=0), "beta": np.add.reduce(g, axis=0)}
    gx = g * gamma
    gxm = np.add.reduce(gx, axis=0) / n
    np.multiply(gx, xhat, out=t)
    gxxm = np.add.reduce(t, axis=0) / n
    # inv * (gx - gxm - xhat * gxxm)
    gx -= gxm
    np.multiply(xhat, gxxm, out=t)
    gx -= t
    gx *= inv
    return gx, grads


def _folded(layer, p: dict):
    """A layer's inference parameters: a batch norm's running statistics
    folded into (scale, shift), the per-channel affine map x * scale + shift
    it applies; any other layer's as they are."""
    if not isinstance(layer, BatchNormSpec):
        return p
    scale = p["gamma"] / np.sqrt(p["running_var"] + BN_EPS)
    return scale, p["beta"] - p["running_mean"] * scale


def _pointwise(layer, p, scaled: bool = False):
    """Inference of a 1x1, batch norm or ReLU layer as step(x, points): it
    overwrites x, a fresh array of the points' rows, where it can, and
    returns the layer's output rows. p is the layer's _folded parameters.
    A batch norm multiplies by its scale and adds its shift, or only adds
    the shift where its input is already scaled (a BCL's filtered vertex
    features were multiplied by the scale before they were sliced)."""
    if isinstance(layer, Conv1x1Spec):
        def step(x, points):
            x = x @ p["weight"]
            x += p["bias"]
            return x
    elif isinstance(layer, BatchNormSpec):
        scale, shift = p

        def step(x, points):
            if not scaled:
                x *= scale
            x += shift
            return x
    else:
        def step(x, points):
            return np.maximum(x, 0.0, out=x)
    return step


class _Rows:
    """One activation of an inference forward as a row source: the rows of
    any points (an index array or a slice), computed when asked for. They are
    the base's rows of those points (the input features, or a BCL's scaled
    filtered vertex features sliced at them and normalized) passed through
    the queued steps. A step may add the rows into the head's sum, so each
    point's rows must be asked for exactly once."""

    def __init__(self, base, width: int, num_points: int):
        self.base = base
        self.shape = (num_points, width)
        self.steps: list = []

    def then(self, step, width: int) -> None:
        self.steps.append(step)
        self.shape = (self.shape[0], width)

    def __getitem__(self, points) -> np.ndarray:
        x = self.base(points)
        for step in self.steps:
            x = step(x, points)
        return x


def _sliced(filtered: np.ndarray, desc: bcl.BCLDescriptor):
    """A BCL's normalized output rows at given points, from its filtered
    (V, C) vertex features: slice is linear in its weights, so it slices
    with the barycentric weights divided by the points' denominators. They
    are divided for all points at the first pull, which comes after the next
    BCL's lattice is built, so the quotient does not raise that build's peak.
    The points are the lattice's own, whose corners are never MISSING, so
    their rows are gathered without slice's check."""
    lat = desc.lattice
    bary = None

    def base(points):
        nonlocal bary
        if bary is None:
            bary = lat.point_bary / desc.denominator
        return bcl._gather(filtered, lat.point_vertices[points], bary[points])
    return base


def _add_to_head(head_sum: np.ndarray, weight: np.ndarray, assign: bool):
    """The step of a concat block: head_sum[points] gets rows @ its rows of
    the head weight (the first block assigns), and the rows pass on."""
    def step(x, points):
        if assign:
            head_sum[points] = x @ weight
        else:
            head_sum[points] += x @ weight
        return x
    return step


def _stream_forward(spec, params, features, descriptor_iter, rows) -> np.ndarray:
    """Inference, streamed: no (n, C) activation exists before the head's sum.

    Each BCL's splat pulls its input rows from the previous activation's row
    source one splat-plan block at a time, so the rows of one block are
    sliced from the previous BCL's filtered vertex features (normalized and
    scaled by its batch norm in the same pass), run through the pointwise
    layers between the two BCLs and added into the head's sum before the
    splat reads them. After the last BCL, its rows are pulled in
    _SLICE_ROWS chunks to finish the head's sum; the layers after the head
    run on the whole (n, C_head) array.
    """
    n = features.shape[0]
    head = _head_index(spec)
    widths = _layer_widths(spec, features.shape[1])
    params = [_folded(layer, p) for layer, p in zip(spec.layers, params)]
    head_sum = np.empty((n, widths[head]))
    first = next(iter(rows))
    x = _Rows(features.__getitem__, features.shape[1], n)
    for i, layer in enumerate(spec.layers[:head]):
        if isinstance(layer, BCLSpec):
            desc = next(descriptor_iter)
            splatted = bcl.splat(x, desc.lattice)
            del x  # the previous BCL's rows, and with them its descriptor
            bank = bcl.FilterBank(params[i]["weight"], params[i]["bias"])
            filtered = bcl.convolve(splatted, desc.lattice, bank)
            filtered *= params[i + 1][0]  # parse_arch puts a batch norm after every BCL
            x = _Rows(_sliced(filtered, desc), layer.width, n)
        elif not isinstance(layer, ConcatSpec):
            scaled = isinstance(spec.layers[i - 1], BCLSpec)
            x.then(_pointwise(layer, params[i], scaled), widths[i])
        if i in rows:
            x.then(_add_to_head(head_sum, rows[i], assign=i == first), widths[i])
    for start, stop in bcl._pulls(n, bcl._SLICE_ROWS):
        x[start:stop]  # pulled for what it adds to the head's sum
    del desc, x  # the last BCL's descriptor, and the rows that hold it

    x, head_sum = head_sum, None  # the sum dies at the first 1x1 after the head
    x += params[head]["bias"]
    for i, layer in enumerate(spec.layers[head + 1:-1], start=head + 1):
        x = _pointwise(layer, params[i])(x, None)
    return softmax(x)


def backward(
    tape: Tape, params: list[dict], grad_probs: np.ndarray
) -> tuple[list[dict], np.ndarray]:
    """Exact gradients for every trainable tensor plus the input features.

    grad_probs is the cotangent at the probabilities. The walk runs from the
    softmax down to layer 0 with one running cotangent. At the head, concat
    block t gets g @ W_t.T, where W_t is its row range of the head weight:
    the last block's carries on as g, and every other block's joins it when
    the walk reaches that block. Reads only tape.saved. Raises StateError on
    an inference tape.
    """
    if not tape.training:
        raise StateError("backward requires a tape recorded in training mode")
    grad_probs = np.asarray(grad_probs, dtype=np.float64)
    probs = tape.saved[-1]
    if grad_probs.shape != probs.shape:
        raise ShapeError(
            f"grad_probs shape {grad_probs.shape} != probabilities shape {probs.shape}"
        )

    grads: list[dict] = [{} for _ in params]
    g = grad_probs
    head = _head_index(tape.spec)
    into: dict[int, np.ndarray] = {}  # concat source layer -> its cotangent from the head
    for i, layer in reversed(list(enumerate(tape.spec.layers))):
        if i in into:
            g = into.pop(i) + g
        if isinstance(layer, Conv1x1Spec):
            weight = params[i]["weight"]
            if i == head:
                blocks = tape.saved[i]
                grads[i] = {"weight": np.concatenate([y.T @ g for y in blocks]),
                            "bias": g.sum(axis=0)}
                # the last block is layer i - 2, right below the concat
                *parts, g = [g @ w.T for w in _row_blocks(weight, [y.shape[1] for y in blocks])]
                into.update(zip(tape.spec.layers[i - 1].sources, parts))
            else:
                x = tape.saved[i]
                grads[i] = {"weight": x.T @ g, "bias": g.sum(axis=0)}
                g = g @ weight.T
        elif isinstance(layer, BCLSpec):
            g, weight, bias = bcl.bcl_backward(*tape.saved[i], g)
            grads[i] = {"weight": weight, "bias": bias}
        elif isinstance(layer, BatchNormSpec):
            g, grads[i] = _batch_norm_backward(g, *tape.saved[i], params[i]["gamma"])
        elif isinstance(layer, ReLUSpec):
            # g is the walk's own array here, never grad_probs or a tape
            # array: the layer above a ReLU is a BCL, a 1x1 or the concat,
            # so a BCL's backward, g @ W.T, the head's split or a concat
            # join made it
            g *= tape.saved[i]
        elif isinstance(layer, SoftmaxSpec):
            g = softmax_grad(g, tape.saved[i])
    return grads, g


def commit_running_stats(tape: Tape, params: list[dict]) -> None:
    """Fold the tape's staged batch-norm running-stat updates into params."""
    for i, (mean, var) in tape.pending_running.items():
        params[i]["running_mean"][...] = mean
        params[i]["running_var"][...] = var
    tape.pending_running.clear()


def predict(probabilities: np.ndarray) -> np.ndarray:
    """Per-point class labels; ties resolve to the lowest class index."""
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 2:
        raise ShapeError(f"probabilities must be 2-d, got shape {probabilities.shape}")
    return np.argmax(probabilities, axis=1).astype(np.int64)

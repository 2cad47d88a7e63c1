"""Cross-entropy training: Adam, geometric augmentation, resumable loops.

Every random draw in the loop comes from a stream seeded by a pure function
of (base seed, stream tag, iteration, batch slot). Nothing carries hidden
RNG state between iterations, so a run resumed from a saved state at
iteration k replays iterations k, k+1, ... exactly as the original run
would have executed them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import network
from .checkpoint import load_train_state, save_checkpoint, save_train_state
from .config import _AXIS_INDEX, TrainConfig  # train.TrainConfig is public
from .errors import (
    ConfigError,
    DegenerateBatch,
    EmptyInput,
    InvalidInput,
    NonFiniteGradient,
    ShapeError,
)

PROB_FLOOR = 1e-12

# Bytes of descriptor arrays one train_loop may keep for reuse.
_DESCRIPTOR_CACHE_BYTES = 256 << 20

# Points of the clouds whose lattices one union build serves. Building and
# splitting unions of 256-point two-blob clouds at lambda 2 cost 378 us per
# cloud alone, 262-282 us in unions of 4k to 64k points and 357 us at 256k
# (medians, one BLAS thread), where sorting the union starts to dominate.
_UNION_POINTS = 1 << 16

# stream tags for SeedSequence spawn keys
_STREAM_ORDER = 0
_STREAM_CROP = 1
_STREAM_AUGMENT = 2
_STREAM_INIT = 3


def _stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# -------------------------------------------------------------------- loss


def cross_entropy_loss(probabilities, labels, ignore_label=None):
    """Mean negative log probability of the true class.

    Probabilities are floored at 1e-12 inside the log; rows whose label
    equals ignore_label contribute nothing, including to the gradient.
    Returns (loss, gradient w.r.t. probabilities).
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be 2-D, got shape {probs.shape}")
    n, c = probs.shape
    if labels.shape[0] != n:
        raise ShapeError(f"{labels.shape[0]} labels for {n} probability rows")
    if ignore_label is None:
        mask = np.ones(n, dtype=bool)
    else:
        mask = labels != ignore_label
    live = labels[mask]
    if live.size and (live.min() < 0 or live.max() >= c):
        raise InvalidInput(f"labels must lie in [0, {c}) or equal the ignore label")
    m = int(mask.sum())
    if m == 0:
        raise DegenerateBatch("every point in the batch is ignored")
    rows = np.nonzero(mask)[0]
    picked = probs[rows, live]
    floored = np.maximum(picked, PROB_FLOOR)
    loss = float(-np.log(floored).mean())
    grad = np.zeros_like(probs)
    # below the floor the loss is flat, so those entries keep gradient zero
    active = picked >= PROB_FLOOR
    grad[rows[active], live[active]] = -1.0 / (m * picked[active])
    return loss, grad


# -------------------------------------------------------------------- adam


@dataclass
class OptimizerState:
    """Adam's first and second moments, two vectors laid out like the
    parameter vector (network.trainable_vector order), and the step count."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0


def adam_step(theta, grad, state, config):
    """One bias-corrected Adam update of the parameter vector theta, in place.

    The whole step is refused (nothing mutated, counter untouched) if any
    gradient entry is not finite.
    """
    if not np.isfinite(grad).all():
        raise NonFiniteGradient("gradient is not finite")
    t = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * np.square(grad)
    theta -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    state.step = t


# ------------------------------------------------------------ augmentation


def _gravity_rotation(axis_index, angle):
    c, s = np.cos(angle), np.sin(angle)
    i, j = [k for k in range(3) if k != axis_index]
    rot = np.eye(3)
    rot[i, i] = c
    rot[i, j] = -s
    rot[j, i] = s
    rot[j, j] = c
    return rot


def _random_rotation(rng):
    # uniform over SO(3) via a normalized random quaternion
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _augments(config):
    """Whether `augment` changes a cloud under `config`."""
    return config.rotate or config.translate or config.scale or config.color_jitter


def augment(cloud, config, rng):
    """Random rotation, translation, isotropic scale, and color jitter.

    Applied in that fixed order; normals rotate with positions but are
    untouched by translation and scale; labels never change. With every
    switch off the input cloud is returned as is.
    """
    if config.color_jitter and cloud.rgb is None:
        raise ConfigError("color_jitter requested but the cloud has no rgb channel")
    if not _augments(config):
        return cloud
    positions = cloud.positions
    normals = cloud.normals
    rgb = cloud.rgb
    if config.rotate:
        if config.rotate_full_sphere:
            rot = _random_rotation(rng)
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            rot = _gravity_rotation(_AXIS_INDEX[config.gravity_axis], angle)
        positions = positions @ rot.T
        if normals is not None:
            normals = normals @ rot.T
    if config.translate:
        mag = config.translate_magnitude
        positions = positions + rng.uniform(-mag, mag, size=3)
    if config.scale:
        positions = positions * rng.uniform(config.scale_low, config.scale_high)
    if config.color_jitter:
        mag = config.color_jitter_magnitude
        rgb = np.clip(rgb + rng.uniform(-mag, mag, size=rgb.shape), 0.0, 1.0)
    return cloud.replace(positions=positions, normals=normals, rgb=rgb)


# -------------------------------------------------------------------- loop


@dataclass
class TrainResult:
    params: list[dict]
    optimizer: OptimizerState
    iterations: int
    history: list[tuple] = field(default_factory=list)


def _correct_total(probs, labels, ignore_label):
    """(correct, total) predictions over the points not labeled ignore_label."""
    keep = np.ones(labels.shape[0], bool) if ignore_label is None else labels != ignore_label
    return int((network.predict(probs)[keep] == labels[keep]).sum()), int(keep.sum())


def _permutation(config, epoch, num_clouds):
    """The order in which epoch visits the clouds."""
    return _stream(config.seed, _STREAM_ORDER, epoch).permutation(num_clouds)


def _visits(config, num_clouds, start_iteration):
    """The dataset index of every sample from start_iteration on, in visit
    order: epoch e visits the clouds in _permutation(config, e, num_clouds)."""
    sample, stop = start_iteration * config.batch_size, config.max_iterations * config.batch_size
    while sample < stop:
        epoch, pos = divmod(sample, num_clouds)
        end = min(num_clouds, pos + stop - sample)
        yield from _permutation(config, epoch, num_clouds)[pos:end].tolist()
        sample += end - pos


class _DescriptorCache:
    """Descriptor lists by dataset index, for every visit of a run.

    order lists the clouds whose lattices no visit changes, in first-visit
    order, and lattice_features(index) gives a listed cloud's matrix. While
    the kept lists' arrays (splat plans built here too) hold fewer than
    _DESCRIPTOR_CACHE_BYTES, the first visit of the next unbuilt listed cloud
    builds it with the clouds listed after it, up to _UNION_POINTS points, one
    union per BCL level (network.prepare_descriptor_lists), and keeps every
    list, never evicted. A visit that finds nothing kept builds its cloud
    alone and keeps nothing.
    """

    def __init__(self, spec, order, lattice_features):
        self.spec = spec
        self.order = order
        self.lattice_features = lattice_features
        self.built = 0  # order[:built] have been built
        self.lists = {}
        self.nbytes = 0

    def get(self, index, lattice_features):
        """A visit's descriptors: kept, or built now from lattice_features."""
        if (self.built < len(self.order) and self.order[self.built] == index
                and self.nbytes < _DESCRIPTOR_CACHE_BYTES):
            self._build_union()
        if index in self.lists:
            return self.lists[index]
        return network.prepare_descriptors(self.spec, lattice_features)

    def _build_union(self):
        start, clouds, points = self.built, [], 0
        while self.built < len(self.order):
            features = self.lattice_features(self.order[self.built])
            if clouds and points + features.shape[0] > _UNION_POINTS:
                break
            clouds.append(features)
            points += features.shape[0]
            self.built += 1
        lists = network.prepare_descriptor_lists(self.spec, clouds)
        for index, descriptors in zip(self.order[start:self.built], lists):
            for desc in descriptors:
                _ = desc.lattice.splat_plan
            self.lists[index] = descriptors
            self.nbytes += sum(d.nbytes for d in descriptors)


def evaluate(spec, params, dataset, feature_channels=("xyz",),
             lattice_channels=("xyz",), ignore_label=None, gravity_axis="y"):
    """(mean loss, pooled accuracy) of inference-mode predictions."""
    if not dataset:
        raise EmptyInput("nothing to evaluate")
    losses, correct, total = [], 0, 0
    for cloud in dataset:
        features = cloud.channel_matrix(feature_channels, gravity_axis)
        lattice_feats = cloud.channel_matrix(lattice_channels, gravity_axis)
        probs, _ = network.forward(spec, params, features, lattice_feats)
        loss, _ = cross_entropy_loss(probs, cloud.labels, ignore_label)
        losses.append(loss)
        c, t = _correct_total(probs, cloud.labels, ignore_label)
        correct += c
        total += t
    return float(np.mean(losses)), correct / max(total, 1)


def _resume_fields(spec, feature_channels, lattice_channels):
    """What a saved training state must share with the run resuming it."""
    return {
        "architecture": spec.arch,
        "lattice dim": spec.lattice.dim,
        "lattice scale": spec.lattice.scale.tolist(),
        "num_classes": spec.num_classes,
        "feature channels": tuple(feature_channels),
        "lattice channels": tuple(lattice_channels),
    }


def train_loop(spec, dataset, config, *,
               feature_channels=("xyz",),
               lattice_channels=("xyz",),
               params=None,
               resume_from=None,
               metrics_path=None,
               checkpoint_path=None,
               state_path=None):
    """Run (or resume) optimization; returns a TrainResult.

    One iteration = one optimizer step over batch_size clouds processed in
    slot order with averaged gradients. Cloud order walks a per-epoch
    permutation. The metrics file is append-only CSV with the header
    iteration,loss,accuracy,wall_seconds. A fresh run starts at iteration 0
    from params, or from parameters drawn from config.seed if params is None.
    params is never written to, running statistics included: the loop
    trains a copy whose trainable tensors are views of one float64 vector,
    which adam_step updates, and returns it as TrainResult.params.
    resume_from continues a saved training state instead (passing params too
    raises ConfigError); the state must match this run's architecture,
    lattice dim and scale, class count, and feature and lattice channels, or
    ConfigError names the first mismatch.

    A cloud's BCL descriptors are built once and reused on later visits
    when no visit can change its lattice features: rotate, translate and
    scale are off, color_jitter is off or rgb is not a lattice channel,
    and the cloud has at most sample_size points. Such clouds are built
    only if the run visits them, in the order of their first visits, as
    unions of up to _UNION_POINTS points: one lattice per BCL level over
    the union, split into each cloud's own (SparseLattice.split), so a
    cloud's first visit may build the clouds visited after it, and an
    error in any of them (an empty cloud, non-finite lattice features)
    surfaces then. A union starts only while the kept descriptors hold
    fewer than _DESCRIPTOR_CACHE_BYTES of arrays, and every descriptor list
    it builds is kept, never evicted, so at most that budget plus one
    union's lists are kept; a cloud left unbuilt is built alone on every
    visit. Reuse never changes results, and a resumed run starts with
    nothing kept.
    """
    if not dataset:
        raise EmptyInput("training dataset is empty")
    for i, cloud in enumerate(dataset):
        if cloud.labels is None:
            raise ConfigError(f"dataset cloud {i} has no labels")
    if resume_from is not None:
        if params is not None:
            raise ConfigError("train_loop takes params or resume_from, not both")
        saved, params, m1, m2, step, start_iteration, feats, latts = load_train_state(resume_from)
        was = _resume_fields(saved, feats, latts)
        for name, now in _resume_fields(spec, feature_channels, lattice_channels).items():
            if was[name] != now:
                raise ConfigError(f"{resume_from}: cannot resume: the saved state has "
                                  f"{name} {was[name]!r}, this run has {now!r}")
        opt_state = OptimizerState(network.trainable_vector(m1),
                                   network.trainable_vector(m2), step)
    else:
        if params is None:
            features0 = dataset[0].channel_matrix(feature_channels, config.gravity_axis)
            params = network.init_parameters(
                spec, features0.shape[1], _stream(config.seed, _STREAM_INIT)
            )
        size = sum(a.size for _, _, a in network.named_parameters(params))
        opt_state = OptimizerState(np.zeros(size), np.zeros(size))
        start_iteration = 0
    theta = network.trainable_vector(params)
    params = [{key: views[key] if key in views else a.copy() for key, a in tensors.items()}
              for tensors, views in zip(params, network.trainable_views(theta, params))]

    # A visit changes a cloud's lattice features only by cropping it or by
    # augmenting a lattice channel.
    fixed_lattices = not (config.rotate or config.translate or config.scale
                          or (config.color_jitter and "rgb" in lattice_channels))
    num_clouds = len(dataset)
    cropped = [config.sample_size is not None and cloud.num_points > config.sample_size
               for cloud in dataset]
    unseen = {i for i in range(num_clouds) if fixed_lattices and not cropped[i]}
    first_visits = []
    for index in _visits(config, num_clouds, start_iteration):
        if not unseen:
            break
        if index in unseen:
            unseen.remove(index)
            first_visits.append(index)
    cache = _DescriptorCache(
        spec, first_visits,
        lambda i: dataset[i].channel_matrix(lattice_channels, config.gravity_axis))

    visits = _visits(config, num_clouds, start_iteration)
    history = []
    start_time = time.perf_counter()

    metrics_fh = None
    if metrics_path is not None:
        metrics_fh = open(metrics_path, "a", encoding="ascii")
        if metrics_fh.tell() == 0:
            metrics_fh.write("iteration,loss,accuracy,wall_seconds\n")

    def _save_artifacts(iteration):
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, spec, params,
                            feature_channels, lattice_channels)
        if state_path is not None:
            save_train_state(state_path, spec, params,
                             network.trainable_views(opt_state.first_moment, params),
                             network.trainable_views(opt_state.second_moment, params),
                             opt_state.step, iteration,
                             feature_channels, lattice_channels)

    iteration = start_iteration
    try:
        while iteration < config.max_iterations:
            grad = np.zeros(theta.size)
            loss_sum, correct, total = 0.0, 0, 0
            for slot in range(config.batch_size):
                index = next(visits)
                cloud = dataset[index]
                if cropped[index]:
                    crop_rng = _stream(config.seed, _STREAM_CROP, iteration, slot)
                    cloud = cloud.take(
                        crop_rng.choice(cloud.num_points, config.sample_size, replace=False)
                    )
                # streams are keyed by (iteration, slot): skipping one shifts none
                if _augments(config):
                    cloud = augment(
                        cloud, config, _stream(config.seed, _STREAM_AUGMENT, iteration, slot)
                    )
                features = cloud.channel_matrix(feature_channels, config.gravity_axis)
                lattice_feats = cloud.channel_matrix(lattice_channels, config.gravity_axis)
                probs, tape = network.forward(
                    spec, params, features, lattice_feats, training=True,
                    descriptors=cache.get(index, lattice_feats),
                )
                loss, grad_probs = cross_entropy_loss(
                    probs, cloud.labels, config.ignore_label
                )
                grad += network.trainable_vector(network.backward(tape, params, grad_probs)[0])
                network.commit_running_stats(tape, params)
                # free this slot's tape before the next slot's forward
                del tape, grad_probs
                loss_sum += loss
                c, t = _correct_total(probs, cloud.labels, config.ignore_label)
                correct += c
                total += t
            grad /= config.batch_size
            try:
                adam_step(theta, grad, opt_state, config)
            except NonFiniteGradient as exc:
                i, key = next((i, key) for i, key, g in network.named_parameters(
                    network.trainable_views(grad, params)) if not np.isfinite(g).all())
                raise NonFiniteGradient(f"iteration {iteration}: gradient for layer {i} "
                                        f"{key!r} is not finite") from exc

            done = iteration + 1
            if done % config.log_every == 0 or done == config.max_iterations:
                row = (iteration, loss_sum / config.batch_size,
                       correct / max(total, 1),
                       time.perf_counter() - start_time)
                history.append(row)
                if metrics_fh is not None:
                    metrics_fh.write(
                        f"{row[0]},{row[1]!r},{row[2]!r},{row[3]!r}\n"
                    )
                    metrics_fh.flush()
            iteration = done
            if iteration == config.max_iterations:
                break
            if config.checkpoint_every and iteration % config.checkpoint_every == 0:
                _save_artifacts(iteration)
        _save_artifacts(iteration)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return TrainResult(params, opt_state, iteration, history)

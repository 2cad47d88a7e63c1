"""Loss, optimizer, augmentation, and training-loop tests."""

import csv
import math

import numpy as np
import pytest

from latseg import network, train
from latseg.checkpoint import load_checkpoint, load_train_state
from latseg.data import PointCloud, synthetic_two_blob_dataset
from latseg.errors import (
    ConfigError,
    DegenerateBatch,
    EmptyInput,
    InvalidInput,
    NonFiniteGradient,
    ShapeError,
)
from latseg.lattice import LatticeConfig


def copy_params(params):
    return [{k: v.copy() for k, v in t.items()} for t in params]


def params_equal(a, b):
    return all(
        np.array_equal(x[k], y[k]) for x, y in zip(a, b) for k in x
    )


# ------------------------------------------------------------------- loss


def test_cross_entropy_perfect_prediction():
    probs = np.eye(3)[[0, 2, 1, 1]]
    loss, grad = train.cross_entropy_loss(probs, [0, 2, 1, 1])
    assert loss <= 1e-10
    # gradient still points along the picked entries
    assert grad.shape == probs.shape


def test_cross_entropy_uniform():
    c = 4
    probs = np.full((6, c), 1.0 / c)
    loss, _ = train.cross_entropy_loss(probs, np.zeros(6, np.int64))
    assert abs(loss - math.log(c)) < 1e-12


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(0)
    probs = network.softmax(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 3, size=5)
    _, grad = train.cross_entropy_loss(probs, labels)
    h = 1e-6
    for i in range(5):
        for j in range(3):
            p = probs.copy()
            p[i, j] += h
            fp, _ = train.cross_entropy_loss(p, labels)
            p[i, j] -= 2 * h
            fm, _ = train.cross_entropy_loss(p, labels)
            fd = (fp - fm) / (2 * h)
            denom = max(abs(fd), abs(grad[i, j]), 1e-6)
            assert abs(fd - grad[i, j]) / denom < 1e-6


def test_cross_entropy_ignore_label():
    probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    loss, grad = train.cross_entropy_loss(probs, [0, 9, 1], ignore_label=9)
    expected = -(math.log(0.9) + math.log(0.5)) / 2
    assert abs(loss - expected) < 1e-12
    assert not grad[1].any()
    assert grad[0, 0] == -1.0 / (2 * 0.9)
    with pytest.raises(DegenerateBatch):
        train.cross_entropy_loss(probs, [9, 9, 9], ignore_label=9)


def test_cross_entropy_floor_flattens_gradient():
    probs = np.array([[0.0, 1.0]])
    loss, grad = train.cross_entropy_loss(probs, [0])
    assert abs(loss - (-math.log(1e-12))) < 1e-9
    assert not grad.any()


def test_cross_entropy_rejects():
    with pytest.raises(ShapeError):
        train.cross_entropy_loss(np.ones((2, 2)), [0])
    with pytest.raises(InvalidInput):
        train.cross_entropy_loss(np.ones((2, 2)) / 2, [0, 5])


# ------------------------------------------------------------------- adam


def toy_problem(seed=0, size=12):
    theta = np.random.default_rng(seed).normal(size=size)
    return theta, train.OptimizerState(np.zeros(size), np.zeros(size))


def test_adam_zero_gradient_is_identity():
    theta, state = toy_problem()
    before = theta.copy()
    train.adam_step(theta, np.zeros(12), state, train.TrainConfig())
    assert np.array_equal(theta, before)
    assert state.step == 1


def test_adam_first_step_closed_form():
    theta, state = toy_problem(seed=1)
    g = np.random.default_rng(2).normal(size=12)
    cfg = train.TrainConfig(learning_rate=0.01)
    before = theta.copy()
    train.adam_step(theta, g, state, cfg)
    expected = before - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(theta, expected, atol=1e-12)


def test_adam_descends_quadratic():
    # target far enough that no coordinate converges (and starts ringing)
    # within the horizon; every step then strictly reduces the loss
    target = np.array([20.0, -10.0, 5.0])
    theta, state = np.zeros(3), train.OptimizerState(np.zeros(3), np.zeros(3))
    cfg = train.TrainConfig(learning_rate=0.01)
    losses = []
    for _ in range(100):
        losses.append(0.5 * float(np.sum((theta - target) ** 2)))
        train.adam_step(theta, theta - target, state, cfg)
    assert all(b < a for a, b in zip(losses[5:], losses[6:]))
    assert losses[-1] < losses[0]


def test_adam_lr_zero_leaves_params_bitwise():
    theta, state = toy_problem(seed=3)
    before = theta.copy()
    cfg = train.TrainConfig(learning_rate=0.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        train.adam_step(theta, rng.normal(size=12), state, cfg)
    assert np.array_equal(theta, before)
    assert state.step == 5


def test_adam_refuses_nonfinite_without_mutating():
    theta, state = toy_problem(seed=5)
    train.adam_step(theta, np.ones(12), state, train.TrainConfig())
    before = theta.copy()
    m_before = state.first_moment.copy()
    v_before = state.second_moment.copy()
    bad = np.ones(12)
    bad[7] = np.nan
    with pytest.raises(NonFiniteGradient):
        train.adam_step(theta, bad, state, train.TrainConfig())
    assert np.array_equal(theta, before)
    assert np.array_equal(state.first_moment, m_before)
    assert np.array_equal(state.second_moment, v_before)
    assert state.step == 1


def per_tensor_zeros(params):
    return [{k: np.zeros_like(v) for k, v in tensors.items()
             if k in ("weight", "bias", "gamma", "beta")} for tensors in params]


def per_tensor_adam_step(params, grads, first, second, t, config):
    """Reference: Adam as one loop over the tensors of per-layer dicts."""
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, key, g in network.named_parameters(grads):
        m = first[i][key]
        v = second[i][key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        params[i][key] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_adam_step_matches_per_tensor_reference():
    spec = network.parse_arch("B4-B6-C5-C3", LatticeConfig(3, 2.0))
    params = network.init_parameters(spec, 5, np.random.default_rng(0))
    first, second = per_tensor_zeros(params), per_tensor_zeros(params)
    theta = network.trainable_vector(params)
    state = train.OptimizerState(np.zeros(theta.size), np.zeros(theta.size))
    cfg = train.TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(1)
    for t in range(1, 6):
        grads = [{k: rng.normal(scale=10.0 ** rng.integers(-4, 2), size=v.shape)
                  for k, v in tensors.items()} for tensors in per_tensor_zeros(params)]
        per_tensor_adam_step(params, grads, first, second, t, cfg)
        train.adam_step(theta, network.trainable_vector(grads), state, cfg)
    assert state.step == 5
    assert theta.tobytes() == network.trainable_vector(params).tobytes()
    assert state.first_moment.tobytes() == network.trainable_vector(first).tobytes()
    assert state.second_moment.tobytes() == network.trainable_vector(second).tobytes()


# ----------------------------------------------------------- train config


def test_train_config_validation():
    with pytest.raises(InvalidInput):
        train.TrainConfig(learning_rate=-1e-4)
    with pytest.raises(InvalidInput):
        train.TrainConfig(adam_beta1=1.0)
    with pytest.raises(InvalidInput):
        train.TrainConfig(batch_size=0)
    with pytest.raises(InvalidInput):
        train.TrainConfig(gravity_axis="w")
    with pytest.raises(InvalidInput):
        train.TrainConfig(scale_low=0.0)
    for name, value in [("learning_rate", math.nan), ("adam_epsilon", math.inf),
                        ("translate_magnitude", math.inf),
                        ("color_jitter_magnitude", math.nan), ("scale_high", math.inf)]:
        with pytest.raises(InvalidInput, match=name):
            train.TrainConfig(**{name: value})
    train.TrainConfig(learning_rate=0.0)  # zero is allowed


# ------------------------------------------------------------ augmentation


def labeled_cloud(n=24, seed=0):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(
        rng.normal(size=(n, 3)),
        normals=normals,
        rgb=rng.uniform(size=(n, 3)),
        labels=rng.integers(0, 3, size=n),
    )


def pairwise(points):
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def test_augment_all_off_is_identity():
    cloud = labeled_cloud()
    cfg = train.TrainConfig()
    assert train.augment(cloud, cfg, np.random.default_rng(0)) is cloud


def test_augment_rotation_is_isometry():
    cloud = labeled_cloud(seed=1)
    cfg = train.TrainConfig(rotate=True)
    out = train.augment(cloud, cfg, np.random.default_rng(1))
    np.testing.assert_allclose(pairwise(out.positions), pairwise(cloud.positions),
                               atol=1e-9)
    # gravity axis coordinates never move under a gravity-axis rotation
    np.testing.assert_array_equal(out.positions[:, 1], cloud.positions[:, 1])
    # normals rotate rigidly with positions
    np.testing.assert_allclose(
        np.einsum("ij,ij->i", out.normals, out.positions),
        np.einsum("ij,ij->i", cloud.normals, cloud.positions),
        atol=1e-9,
    )
    np.testing.assert_array_equal(out.labels, cloud.labels)


def test_augment_full_sphere_rotation():
    cloud = labeled_cloud(seed=2)
    cfg = train.TrainConfig(rotate=True, rotate_full_sphere=True)
    out = train.augment(cloud, cfg, np.random.default_rng(2))
    np.testing.assert_allclose(pairwise(out.positions), pairwise(cloud.positions),
                               atol=1e-9)
    np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0, atol=1e-9)
    assert np.abs(out.positions[:, 1] - cloud.positions[:, 1]).max() > 1e-3


def test_augment_translation_is_constant_shift():
    cloud = labeled_cloud(seed=3)
    cfg = train.TrainConfig(translate=True)
    out = train.augment(cloud, cfg, np.random.default_rng(3))
    delta = out.positions - cloud.positions
    np.testing.assert_allclose(delta, np.broadcast_to(delta[0], delta.shape),
                               atol=1e-15)
    assert np.abs(delta[0]).max() <= 0.1
    np.testing.assert_array_equal(out.normals, cloud.normals)


def test_augment_scale_bounds():
    cloud = labeled_cloud(seed=4)
    cfg = train.TrainConfig(scale=True)
    out = train.augment(cloud, cfg, np.random.default_rng(4))
    ratio = out.positions / cloud.positions
    assert np.allclose(ratio, ratio.flat[0])
    assert 0.9 <= ratio.flat[0] <= 1.1


def test_augment_color_jitter():
    cloud = labeled_cloud(seed=5)
    cfg = train.TrainConfig(color_jitter=True)
    out = train.augment(cloud, cfg, np.random.default_rng(5))
    assert np.abs(out.rgb - cloud.rgb).max() <= 0.05 + 1e-12
    assert out.rgb.min() >= 0.0 and out.rgb.max() <= 1.0
    np.testing.assert_array_equal(out.positions, cloud.positions)
    bare = PointCloud(cloud.positions.copy())
    with pytest.raises(ConfigError):
        train.augment(bare, cfg, np.random.default_rng(6))


def test_augment_deterministic():
    cloud = labeled_cloud(seed=6)
    cfg = train.TrainConfig(rotate=True, translate=True, scale=True, color_jitter=True)
    a = train.augment(cloud, cfg, np.random.default_rng(7))
    b = train.augment(cloud, cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.rgb, b.rgb)


# ------------------------------------------------------------------- loop


def blob_setup(arch="B8-C2", lam=2.0, clouds=6, pts=48, seed=0):
    spec = network.parse_arch(arch, LatticeConfig(3, lam))
    dataset = synthetic_two_blob_dataset(clouds, pts, seed=seed)
    return spec, dataset


def test_train_loop_learns_two_blobs():
    spec, dataset = blob_setup()
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=40, seed=1)
    result = train.train_loop(spec, dataset, cfg)
    first_loss = result.history[0][1]
    last_loss = result.history[-1][1]
    assert last_loss < first_loss
    assert result.history[-1][2] >= 0.9
    assert result.iterations == 40


def test_train_loop_lr_zero_is_frozen():
    spec, dataset = blob_setup(clouds=2, pts=24)
    cfg = train.TrainConfig(learning_rate=0.0, max_iterations=3, seed=2)
    init = network.init_parameters(spec, 3, np.random.default_rng(0))
    before = copy_params(init)
    result = train.train_loop(spec, dataset, cfg, params=init)
    for (_, k, a), (_, _, b) in zip(
        network.named_parameters(result.params), network.named_parameters(before)
    ):
        np.testing.assert_array_equal(a, b)


def test_train_loop_leaves_given_params_untouched():
    spec, dataset = blob_setup(clouds=2, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=3, seed=2)
    init = network.init_parameters(spec, 3, np.random.default_rng(0))
    before = copy_params(init)
    result = train.train_loop(spec, dataset, cfg, params=init)
    assert [t.keys() for t in init] == [t.keys() for t in before]
    for got, want in zip(init, before):
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key
    # the trained values, running statistics included, come back only here
    for layer, key in ((0, "weight"), (1, "running_mean"), (1, "running_var")):
        assert not np.array_equal(result.params[layer][key], before[layer][key])
    trainable = [a for _, _, a in network.named_parameters(result.params)]
    theta = trainable[0].base
    assert theta.ndim == 1 and theta.size == sum(a.size for a in trainable)
    assert all(a.base is theta for a in trainable)


def test_train_loop_deterministic():
    spec, dataset = blob_setup(clouds=3, pts=24)
    cfg = train.TrainConfig(
        learning_rate=0.01, max_iterations=5, seed=3,
        rotate=True, translate=True, scale=True, sample_size=20,
    )
    a = train.train_loop(spec, dataset, cfg)
    b = train.train_loop(spec, dataset, cfg)
    # wall clock aside, the logged sequence is bitwise reproducible
    assert [r[:3] for r in a.history] == [r[:3] for r in b.history]


def test_train_loop_resume_matches_straight_run(tmp_path):
    spec, dataset = blob_setup(clouds=4, pts=32)
    cfg6 = train.TrainConfig(learning_rate=0.01, max_iterations=6, seed=4,
                             rotate=True, sample_size=24)
    straight = train.train_loop(spec, dataset, cfg6)

    state_path = tmp_path / "state.splt"
    cfg3 = train.TrainConfig(learning_rate=0.01, max_iterations=3, seed=4,
                             rotate=True, sample_size=24)
    train.train_loop(spec, dataset, cfg3, state_path=state_path)
    resumed = train.train_loop(spec, dataset, cfg6, resume_from=state_path)

    assert resumed.iterations == 6
    straight_tail = [(it, loss, acc) for it, loss, acc, _ in straight.history[3:]]
    resumed_tail = [(it, loss, acc) for it, loss, acc, _ in resumed.history]
    assert len(resumed_tail) == 3
    for (ia, la, aa), (ib, lb, ab) in zip(straight_tail, resumed_tail):
        assert ia == ib and aa == ab
        assert abs(la - lb) < 1e-6
    for (_, _, a), (_, _, b) in zip(
        network.named_parameters(straight.params),
        network.named_parameters(resumed.params),
    ):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_train_loop_writes_metrics_and_checkpoint(tmp_path):
    spec, dataset = blob_setup(clouds=2, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=4, seed=5)
    metrics = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.splt"
    state = tmp_path / "state.splt"
    train.train_loop(spec, dataset, cfg, metrics_path=metrics,
                     checkpoint_path=ckpt, state_path=state)
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "loss", "accuracy", "wall_seconds"]
    assert len(rows) == 5
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    for r in rows[1:]:
        assert float(r[1]) > 0 and 0 <= float(r[2]) <= 1 and float(r[3]) >= 0

    spec2, params2, feats, latts = load_checkpoint(ckpt)
    assert spec2.arch == spec.arch
    assert feats == ("xyz",)
    _, _, _, _, step, iteration, _, _ = load_train_state(state)
    assert step == 4 and iteration == 4


def test_train_loop_metrics_append_on_resume(tmp_path):
    spec, dataset = blob_setup(clouds=2, pts=24)
    metrics = tmp_path / "m.csv"
    state = tmp_path / "s.splt"
    cfg2 = train.TrainConfig(learning_rate=0.01, max_iterations=2, seed=6)
    train.train_loop(spec, dataset, cfg2, metrics_path=metrics, state_path=state)
    cfg4 = train.TrainConfig(learning_rate=0.01, max_iterations=4, seed=6)
    train.train_loop(spec, dataset, cfg4, metrics_path=metrics, resume_from=state)
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # one header, four data rows
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_train_loop_nonfinite_reports_iteration():
    spec, dataset = blob_setup(clouds=2, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=3, seed=8)
    params = network.init_parameters(spec, 3, np.random.default_rng(1))
    params[0]["weight"][0, 0, 0] = np.nan
    with pytest.raises(NonFiniteGradient) as err:
        train.train_loop(spec, dataset, cfg, params=params)
    assert "iteration 0: gradient for layer 0 'weight' is not finite" in str(err.value)


def test_train_loop_requires_labels():
    spec, dataset = blob_setup(clouds=1, pts=24)
    stripped = [dataset[0].replace(labels=None)]
    with pytest.raises(ConfigError):
        train.train_loop(spec, stripped, train.TrainConfig(max_iterations=1))


def test_train_loop_resume_refuses_other_lattice_scale(tmp_path):
    spec, dataset = blob_setup(arch="B4-C2", lam=2.0, clouds=2, pts=24)
    state = tmp_path / "s.splt"
    cfg2 = train.TrainConfig(learning_rate=0.01, max_iterations=2, seed=6)
    train.train_loop(spec, dataset, cfg2, state_path=state)
    other, _ = blob_setup(arch="B4-C2", lam=8.0)
    cfg4 = train.TrainConfig(learning_rate=0.01, max_iterations=4, seed=6)
    with pytest.raises(ConfigError, match="lattice scale"):
        train.train_loop(other, dataset, cfg4, resume_from=state)


def test_train_loop_resume_refuses_other_channels_of_equal_width(tmp_path):
    spec, dataset = blob_setup(arch="B4-C2", clouds=2, pts=24)
    state = tmp_path / "s.splt"
    cfg2 = train.TrainConfig(learning_rate=0.01, max_iterations=2, seed=6)
    train.train_loop(spec, dataset, cfg2, state_path=state)
    cfg4 = train.TrainConfig(learning_rate=0.01, max_iterations=4, seed=6)
    with pytest.raises(ConfigError, match="feature channels"):
        train.train_loop(spec, dataset, cfg4, resume_from=state,
                         feature_channels=("height", "height", "height"))


def test_train_loop_refuses_params_with_resume_from(tmp_path):
    spec, dataset = blob_setup(arch="B4-C2", clouds=2, pts=24)
    state = tmp_path / "s.splt"
    cfg2 = train.TrainConfig(learning_rate=0.01, max_iterations=2, seed=6)
    train.train_loop(spec, dataset, cfg2, state_path=state)
    params = network.init_parameters(spec, 3, np.random.default_rng(0))
    cfg4 = train.TrainConfig(learning_rate=0.01, max_iterations=4, seed=6)
    with pytest.raises(ConfigError, match="resume_from"):
        train.train_loop(spec, dataset, cfg4, params=params, resume_from=state)


def test_train_loop_resume_past_max_iterations_keeps_its_count(tmp_path):
    spec, dataset = blob_setup(arch="B4-C2", clouds=2, pts=24)
    paths = {"metrics_path": tmp_path / "m.csv", "checkpoint_path": tmp_path / "model.splt",
             "state_path": tmp_path / "s.splt"}
    cfg10 = train.TrainConfig(learning_rate=0.01, max_iterations=10, seed=6)
    train.train_loop(spec, dataset, cfg10, **paths)
    before = {name: path.read_bytes() for name, path in paths.items()}
    cfg5 = train.TrainConfig(learning_rate=0.01, max_iterations=5, seed=6)
    result = train.train_loop(spec, dataset, cfg5, resume_from=paths["state_path"], **paths)
    assert result.iterations == 10
    assert result.history == []
    assert {name: path.read_bytes() for name, path in paths.items()} == before
    _, _, _, _, step, iteration, _, _ = load_train_state(paths["state_path"])
    assert step == 10 and iteration == 10


def test_train_loop_saves_each_checkpointed_count_once(tmp_path, monkeypatch):
    saved = []
    real_save = train.save_train_state

    def counting_save(path, *args):
        saved.append(args[5])  # the iteration count
        real_save(path, *args)

    monkeypatch.setattr(train, "save_train_state", counting_save)
    spec, dataset = blob_setup(arch="B4-C2", clouds=2, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=12, seed=6,
                            checkpoint_every=4)
    train.train_loop(spec, dataset, cfg, state_path=tmp_path / "s.splt")
    assert saved == [4, 8, 12]


# ------------------------------------------------------- descriptor reuse


@pytest.fixture
def descriptor_builds(monkeypatch):
    """Row counts of the clouds whose descriptors were built, whether alone
    (network.prepare_descriptors) or in a union (prepare_descriptor_lists)."""
    rows = []
    one, several = network.prepare_descriptors, network.prepare_descriptor_lists

    def counting_one(spec, lattice_features):
        rows.append(len(lattice_features))
        return one(spec, lattice_features)

    def counting_several(spec, clouds):
        rows.extend(len(c) for c in clouds)
        return several(spec, clouds)

    monkeypatch.setattr(network, "prepare_descriptors", counting_one)
    monkeypatch.setattr(network, "prepare_descriptor_lists", counting_several)
    return rows


def test_train_loop_builds_fixed_lattices_once(descriptor_builds, monkeypatch):
    spec, dataset = blob_setup(arch="B4-B4-C2", clouds=16, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=40, seed=9)
    cached = train.train_loop(spec, dataset, cfg)
    assert len(descriptor_builds) == 16

    descriptor_builds.clear()
    monkeypatch.setattr(train, "_DESCRIPTOR_CACHE_BYTES", 0)
    rebuilt = train.train_loop(spec, dataset, cfg)
    assert len(descriptor_builds) == 40
    assert params_equal(cached.params, rebuilt.params)
    assert [r[:3] for r in cached.history] == [r[:3] for r in rebuilt.history]


def test_train_loop_rebuilds_augmented_lattices(descriptor_builds):
    spec, dataset = blob_setup(arch="B4-C2", clouds=16, pts=24)
    for switch in ("rotate", "translate", "scale"):
        descriptor_builds.clear()
        cfg = train.TrainConfig(learning_rate=0.01, max_iterations=40, seed=9,
                                **{switch: True})
        train.train_loop(spec, dataset, cfg)
        assert len(descriptor_builds) == 40, switch


def test_train_loop_rebuilds_cropped_clouds_only(descriptor_builds):
    spec, dataset = blob_setup(arch="B4-C2", clouds=4, pts=32)
    big = synthetic_two_blob_dataset(1, 64, seed=5)[0]
    dataset[2] = big
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=20, seed=9,
                            sample_size=40)
    train.train_loop(spec, dataset, cfg)
    # every cloud is visited 5 times; only the 64-point one is cropped
    assert sorted(descriptor_builds) == [32] * 3 + [40] * 5


def test_train_loop_builds_only_the_clouds_it_visits(descriptor_builds):
    # cloud i has 20 + i points, so a build's row count names its cloud
    spec = network.parse_arch("B4-B4-C2", LatticeConfig(3, 2.0))
    dataset = [synthetic_two_blob_dataset(1, 20 + i, seed=i)[0] for i in range(16)]
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=5, seed=9)
    train.train_loop(spec, dataset, cfg)
    visited = train._permutation(cfg, 0, 16)[:5]
    assert sorted(descriptor_builds) == sorted(20 + i for i in visited)


def test_train_loop_union_size_changes_no_bit(descriptor_builds, monkeypatch):
    spec, dataset = blob_setup(arch="B4-B4-C2", clouds=16, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=40, seed=9, log_every=5)
    whole = train.train_loop(spec, dataset, cfg)
    monkeypatch.setattr(train, "_UNION_POINTS", 50)  # two clouds per union
    pairs = train.train_loop(spec, dataset, cfg)
    assert len(descriptor_builds) == 32
    assert params_equal(whole.params, pairs.params)
    assert [r[:3] for r in whole.history] == [r[:3] for r in pairs.history]


def test_train_loop_reports_bad_clouds_before_training(tmp_path):
    spec, dataset = blob_setup(arch="B4-C2", clouds=4, pts=24)
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=8, seed=9)
    empty = list(dataset)
    empty[2] = PointCloud(positions=np.zeros((0, 3)), labels=np.zeros(0, np.int64))
    metrics = tmp_path / "empty.csv"
    with pytest.raises(EmptyInput, match="^cannot build a lattice from an empty cloud$"):
        train.train_loop(spec, empty, cfg, metrics_path=metrics)
    # the union of all four clouds is built at the first visit, before any
    # iteration is logged
    assert metrics.read_text() == "iteration,loss,accuracy,wall_seconds\n"

    rng = np.random.default_rng(5)
    colored = [c.replace(rgb=rng.uniform(0, 1, size=(c.num_points, 3))) for c in dataset]
    positions = colored[2].positions.copy()
    positions[3, 0] = np.nan
    colored[2] = colored[2].replace(positions=positions)
    with pytest.raises(InvalidInput):
        train.train_loop(spec, colored, cfg, feature_channels=("rgb",))


def test_train_loop_color_jitter_reuses_unless_rgb_is_a_lattice_channel(descriptor_builds):
    rng = np.random.default_rng(3)
    _, dataset = blob_setup(clouds=4, pts=24)
    dataset = [c.replace(rgb=rng.uniform(0, 1, size=(c.num_points, 3))) for c in dataset]
    cfg = train.TrainConfig(learning_rate=0.01, max_iterations=12, seed=9,
                            color_jitter=True)
    spec = network.parse_arch("B4-C2", LatticeConfig(3, 2.0))
    train.train_loop(spec, dataset, cfg, feature_channels=("xyz", "rgb"))
    assert len(descriptor_builds) == 4

    descriptor_builds.clear()
    spec6 = network.parse_arch("B4-C2", LatticeConfig(6, 2.0))
    train.train_loop(spec6, dataset, cfg, feature_channels=("xyz", "rgb"),
                     lattice_channels=("xyz", "rgb"))
    assert len(descriptor_builds) == 12

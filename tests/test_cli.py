"""End-to-end command-line tests; every command runs in process."""

import struct

import numpy as np
import pytest

from latseg import cli
from latseg.data import PointCloud, save_cloud, synthetic_two_blob_dataset


@pytest.fixture(scope="module")
def blob_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("blobs")
    for i, cloud in enumerate(synthetic_two_blob_dataset(3, 48, seed=11)):
        save_cloud(cloud, root / f"cloud{i}.ply")
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, blob_dir):
    """Train a toy model once; several tests read the artifacts."""
    out = tmp_path_factory.mktemp("run")
    config = tmp_path_factory.mktemp("cfg") / "train.cfg"
    config.write_text(
        "arch = B8-C2\n"
        "lambda0 = 2\n"
        f"data_dir = {blob_dir}\n"
        f"output_dir = {out}\n"
        "learning_rate = 0.02\n"
        "max_iterations = 120\n"
        "seed = 3\n"
        "log_every = 10\n"
    )
    code = cli.main(["train", "--config", str(config)])
    assert code == 0
    return out


def test_train_missing_config_exit_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    code = cli.main(["train", "--config", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_train_negative_lambda_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("arch = B4-C2\nlambda0 = -1\n")
    code = cli.main(["train", "--config", str(cfg)])
    assert code == 2
    assert "lambda0" in capsys.readouterr().err


def test_train_nan_learning_rate_exit_2(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("arch = B4-C2\nlearning_rate = nan\n")
    code = cli.main(["train", "--config", str(cfg)])
    assert code == 2
    assert "learning_rate must be finite" in capsys.readouterr().err


def test_train_refuses_patience_exit_2(blob_dir, tmp_path, capsys):
    # latseg train takes no validation set, so patience could never stop it
    cfg = tmp_path / "patient.cfg"
    cfg.write_text(f"arch = B4-C2\ndata_dir = {blob_dir}\nlearning_rate = 0\n"
                   "max_iterations = 30\npatience = 1\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "patience" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("arch = B4-C2\nwarp_speed = 9\n")
    code = cli.main(["train", "--config", str(cfg)])
    assert code == 2
    assert "warp_speed" in capsys.readouterr().err


def test_train_config_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("arch = B4-C2\n# caf\u00e9\n".encode("latin-1"))
    code = cli.main(["train", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("arch", ["B0-C2", "C0-B4-C2"])
def test_train_zero_width_exit_2(arch, blob_dir, tmp_path, capsys):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"arch = {arch}\ndata_dir = {blob_dir}\nmax_iterations = 2\n")
    code = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "'" + arch.split("-")[0] + "'" in err and "width must be at least 1" in err
    assert "Traceback" not in err


def test_train_seed_flag_overrides_config_seed(blob_dir, tmp_path, capsys):
    def run(name, seed_line="", flag=()):
        config = tmp_path / f"{name}.cfg"
        config.write_text(f"arch = B8-C2\nlambda0 = 2\ndata_dir = {blob_dir}\n"
                          f"learning_rate = 0.02\nmax_iterations = 6\n{seed_line}\n")
        out = tmp_path / name
        assert cli.main(["train", "--config", str(config), "--out", str(out), *flag]) == 0
        return (out / "model.splt").read_bytes()

    by_flag = run("by_flag", "seed = 1", ("--seed", "9"))
    capsys.readouterr()
    assert by_flag == run("by_key", "seed = 9")
    assert by_flag != run("by_default")


@pytest.mark.parametrize("argv", [["predict", "c.ply", "--checkpoint", "m.splt", "--out", "p.xyz"],
                                  ["eval", "p.ply", "g.ply"],
                                  ["filter", "a.ply", "b.ply", "--out", "o.ply"],
                                  ["lattice-stats", "c.ply"]])
def test_seed_is_train_only(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args([*argv, "--seed", "3"])
    assert info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_train_writes_artifacts(trained):
    assert (trained / "model.splt").is_file()
    assert (trained / "state.splt").is_file()
    lines = (trained / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iteration,loss,accuracy,wall_seconds"
    assert len(lines) == 13  # header + every 10th of 120 plus the final


def test_train_resumes_from_config_checkpoint_key(blob_dir, tmp_path, capsys):
    def run(name, iterations, checkpoint_line="", flag=()):
        config = tmp_path / f"{name}.cfg"
        config.write_text(
            "arch = B8-C2\n"
            "lambda0 = 2\n"
            f"data_dir = {blob_dir}\n"
            f"output_dir = {tmp_path / name}\n"
            "learning_rate = 0.02\n"
            f"max_iterations = {iterations}\n"
            "seed = 3\n"
            f"{checkpoint_line}\n"
        )
        assert cli.main(["train", "--config", str(config), *flag]) == 0
        return tmp_path / name

    first = run("first", 4, "checkpoint =   # none yet")
    state = first / "state.splt"
    by_key = run("by_key", 8, f"checkpoint = {state}  # resume")
    by_flag = run("by_flag", 8, flag=("--checkpoint", str(state)))
    flag_wins = run("flag_wins", 8, f"checkpoint = {tmp_path / 'absent.splt'}",
                    ("--checkpoint", str(state)))
    straight = run("straight", 8)
    capsys.readouterr()
    model = (by_flag / "model.splt").read_bytes()
    assert (by_key / "model.splt").read_bytes() == model
    assert (flag_wins / "model.splt").read_bytes() == model
    assert (straight / "model.splt").read_bytes() == model
    # a resumed run logs only the iterations after the checkpoint
    resumed_rows = (by_key / "metrics.csv").read_text().splitlines()
    assert len(resumed_rows) == 1 + 4
    assert len((straight / "metrics.csv").read_text().splitlines()) == 1 + 8


def test_predict_nonfinite_features_exit_1(tmp_path, capsys):
    from latseg import network
    from latseg.checkpoint import save_checkpoint
    from latseg.lattice import LatticeConfig

    spec = network.parse_arch("B4-C2", LatticeConfig(3, 2.0))
    params = network.init_parameters(spec, 3, np.random.default_rng(0))
    model = tmp_path / "model.splt"
    save_checkpoint(model, spec, params, feature_channels=("normals",))
    rng = np.random.default_rng(1)
    normals = rng.normal(size=(20, 3))
    normals[4, 2] = np.nan
    cloud_path = tmp_path / "scene.ply"
    save_cloud(PointCloud(rng.normal(size=(20, 3)), normals=normals), cloud_path)

    code = cli.main(["predict", str(cloud_path), "--checkpoint", str(model),
                     "--out", str(tmp_path / "out.ply")])
    err = capsys.readouterr().err
    assert code == 1
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "out.ply").exists()


def test_predict_roundtrip_and_determinism(trained, blob_dir, tmp_path, capsys):
    cloud_path = sorted(blob_dir.iterdir())[0]
    out1 = tmp_path / "pred1.ply"
    out2 = tmp_path / "pred2.ply"
    for out in (out1, out2):
        code = cli.main([
            "predict", str(cloud_path),
            "--checkpoint", str(trained / "model.splt"),
            "--out", str(out),
        ])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    from latseg.data import load_cloud

    original = load_cloud(cloud_path)
    predicted = load_cloud(out1)
    assert predicted.num_points == original.num_points
    # overfit toy model labels its own training data almost perfectly
    accuracy = float(np.mean(predicted.labels == original.labels))
    assert accuracy >= 0.99


def test_predict_probability_channels(trained, blob_dir, tmp_path):
    cloud_path = sorted(blob_dir.iterdir())[0]
    out = tmp_path / "probs.xyz"
    code = cli.main([
        "predict", str(cloud_path),
        "--checkpoint", str(trained / "model.splt"),
        "--out", str(out), "--probs",
    ])
    assert code == 0
    from latseg.data import load_cloud

    cloud = load_cloud(out)
    total = cloud.extras["prob0"] + cloud.extras["prob1"]
    np.testing.assert_allclose(total, 1.0, atol=1e-5)


def test_predict_and_eval_close_the_loop(trained, blob_dir, tmp_path, capsys):
    cloud_path = sorted(blob_dir.iterdir())[1]
    pred_path = tmp_path / "pred.ply"
    assert cli.main([
        "predict", str(cloud_path),
        "--checkpoint", str(trained / "model.splt"),
        "--out", str(pred_path),
    ]) == 0
    capsys.readouterr()
    assert cli.main(["eval", str(pred_path), str(cloud_path)]) == 0
    out = capsys.readouterr().out
    avg = float(out.rsplit("average iou:", 1)[1])
    assert avg >= 0.95


def test_eval_hand_case(tmp_path, capsys):
    pred = PointCloud(np.zeros((4, 3)), labels=[0, 1, 1, 1])
    gt = PointCloud(np.zeros((4, 3)), labels=[0, 0, 1, 1])
    pred_path = tmp_path / "pred.xyz"
    gt_path = tmp_path / "gt.xyz"
    save_cloud(pred, pred_path)
    save_cloud(gt, gt_path)
    assert cli.main(["eval", str(pred_path), str(gt_path)]) == 0
    assert "average iou: 0.5833" in capsys.readouterr().out


def test_eval_identical_files(tmp_path, capsys):
    cloud = PointCloud(np.zeros((5, 3)), labels=[0, 1, 2, 1, 0])
    path = tmp_path / "c.xyz"
    save_cloud(cloud, path)
    assert cli.main(["eval", str(path), str(path)]) == 0
    assert "average iou: 1.0000" in capsys.readouterr().out


def test_eval_mismatched_counts(tmp_path, capsys):
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    save_cloud(PointCloud(np.zeros((3, 3)), labels=[0, 1, 0]), a)
    save_cloud(PointCloud(np.zeros((4, 3)), labels=[0, 1, 0, 1]), b)
    code = cli.main(["eval", str(a), str(b)])
    assert code == 1
    err = capsys.readouterr().err
    assert "3" in err and "4" in err


def test_eval_shapenet_mode(tmp_path, capsys):
    pred_dir = tmp_path / "pred" / "chair"
    gt_dir = tmp_path / "gt" / "chair"
    pred_dir.mkdir(parents=True)
    gt_dir.mkdir(parents=True)
    cloud = PointCloud(np.zeros((4, 3)), labels=[0, 1, 0, 1])
    save_cloud(cloud, pred_dir / "o1.xyz")
    save_cloud(cloud, gt_dir / "o1.xyz")
    assert cli.main([
        "eval", str(tmp_path / "pred"), str(tmp_path / "gt"),
        "--mode", "shapenet_miou",
    ]) == 0
    out = capsys.readouterr().out
    assert "chair: 1.0000" in out
    assert "class average miou: 1.0000" in out
    assert "instance average miou: 1.0000" in out


def test_eval_shapenet_file_category_ignores_directories(tmp_path, capsys):
    path = tmp_path / "objects" / "chair_1.xyz"
    path.parent.mkdir()
    save_cloud(PointCloud(np.zeros((4, 3)), labels=[0, 1, 0, 1]), path)
    assert cli.main(["eval", str(path.resolve()), str(path),
                     "--mode", "shapenet_miou"]) == 0
    assert "chair: 1.0000" in capsys.readouterr().out.splitlines()


def test_filter_constant_channel(tmp_path, capsys):
    rng = np.random.default_rng(12)
    # 0.2 is exactly 51/255, so the uchar color round trip adds no error
    cloud = PointCloud(rng.normal(size=(40, 3)),
                       rgb=np.full((40, 3), 51 / 255))
    src = tmp_path / "src.ply"
    save_cloud(cloud, src)
    out = tmp_path / "out.ply"
    assert cli.main(["filter", str(src), str(src), "--out", str(out),
                     "--lambda", "4"]) == 0
    capsys.readouterr()
    from latseg.data import load_cloud

    result = load_cloud(out)
    np.testing.assert_allclose(result.rgb, 51 / 255, atol=1e-6)
    np.testing.assert_array_equal(result.positions, load_cloud(src).positions)


def test_filter_disjoint_clouds_give_zero(tmp_path, capsys):
    rng = np.random.default_rng(13)
    src = PointCloud(rng.normal(size=(20, 3)), rgb=rng.uniform(size=(20, 3)))
    dst = PointCloud(rng.normal(size=(15, 3)) + 1e6)
    src_path = tmp_path / "s.ply"
    dst_path = tmp_path / "d.ply"
    save_cloud(src, src_path)
    save_cloud(dst, dst_path)
    out = tmp_path / "o.ply"
    assert cli.main(["filter", str(src_path), str(dst_path),
                     "--out", str(out), "--lambda", "1"]) == 0
    capsys.readouterr()
    from latseg.data import load_cloud

    np.testing.assert_array_equal(load_cloud(out).rgb, 0.0)


def test_filter_residual_shrinks_as_lambda_grows(tmp_path, capsys):
    # finer lattice (larger lambda) means less vertex sharing, so the
    # smoothed colors drift less from the originals
    rng = np.random.default_rng(14)
    cloud = PointCloud(rng.normal(size=(60, 3)), rgb=rng.uniform(size=(60, 3)))
    src = tmp_path / "src.xyz"
    save_cloud(cloud, src)
    from latseg.data import load_cloud

    residuals = []
    for lam in (1, 4, 16, 64):
        out = tmp_path / f"out_{lam}.xyz"
        assert cli.main(["filter", str(src), str(src), "--out", str(out),
                         "--lambda", str(lam)]) == 0
        residuals.append(float(np.mean(np.abs(load_cloud(out).rgb - cloud.rgb))))
    capsys.readouterr()
    assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals


def test_filter_missing_channel_exit_2(tmp_path, capsys):
    bare = PointCloud(np.zeros((3, 3)))
    path = tmp_path / "bare.ply"
    save_cloud(bare, path)
    code = cli.main(["filter", str(path), str(path),
                     "--out", str(tmp_path / "o.ply")])
    assert code == 2
    assert "rgb" in capsys.readouterr().err


def test_filter_nonfinite_value_exit_1(tmp_path, capsys):
    cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [5.0, 5.0, 5.0]]),
                       height=[np.inf, 1.0, 2.0])
    path = tmp_path / "inf.ply"
    save_cloud(cloud, path)
    out = tmp_path / "o.xyz"
    code = cli.main(["filter", str(path), str(path), "--out", str(out),
                     "--channels", "height"])
    err = capsys.readouterr().err
    assert code == 1
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


_PLY_XYZ_HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                   "property float y\nproperty float z\nend_header\n")


@pytest.mark.parametrize("name, text, message", [
    ("d.ply", _PLY_XYZ_HEADER + "0 0 0\n1 1\n", "line 9: expected 3 columns, found 2"),
    ("d.ply", _PLY_XYZ_HEADER + "0 0 0\n", "line 8: expected 2 data rows, found 1"),
    ("d.xyz", "\n", "line 1: empty file"),
], ids=["ply-width", "ply-short", "xyz-empty"])
def test_filter_malformed_destination_exit_2_names_it(tmp_path, capsys, name, text,
                                                      message):
    src = tmp_path / "s.ply"
    save_cloud(PointCloud(np.zeros((2, 3)), height=[1.0, 2.0]), src)
    dst = tmp_path / name
    dst.write_text(text)
    code = cli.main(["filter", str(src), str(dst), "--out", str(tmp_path / "o.xyz"),
                     "--channels", "height"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {dst}: {message}\n"


def test_lattice_stats_single_point(tmp_path, capsys):
    path = tmp_path / "pt.xyz"
    save_cloud(PointCloud([[0.3, 0.4, 0.5]]), path)
    assert cli.main(["lattice-stats", str(path),
                     "--lambda", "8,4,2,1", "--threads", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["lambda", "vertices", "occupancy", "adjacency_fill"]
    vertex_counts = [int(l.split()[1]) for l in lines[1:]]
    assert vertex_counts == [4, 4, 4, 4]  # single point always hits a simplex


def test_lattice_stats_vertex_monotonicity(tmp_path, capsys):
    rng = np.random.default_rng(14)
    path = tmp_path / "c.xyz"
    save_cloud(PointCloud(rng.normal(size=(200, 3)) * 3), path)
    assert cli.main(["lattice-stats", str(path), "--lambda", "16,8,4,2,1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    counts = [int(l.split()[1]) for l in lines]
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts


def test_lattice_stats_failing_scale_prints_nothing(tmp_path, capsys):
    path = tmp_path / "cube.xyz"
    save_cloud(PointCloud(np.random.default_rng(17).uniform(size=(300, 3))), path)
    # opposite infinities in the elevation make NaN, which must fail the same way
    big = tmp_path / "big.xyz"
    big.write_text("# x y z red green blue\n1e300 -1e300 0 0.5 0.5 0.5\n0 0 0 0.1 0.2 0.3\n")
    for cloud, lam in ((path, "1,1e20"), (big, "1e10")):
        assert cli.main(["lattice-stats", str(cloud), "--lambda", lam]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large" in captured.err
        assert "Warning" not in captured.err


def _lambda_argv(command, lam, blob_dir, tmp_path):
    """argv running command at lattice scale lam, and the path it writes."""
    out = tmp_path / "out"
    if command in ("train", "train-config"):
        cfg = tmp_path / "train.cfg"
        lam_line = f"lambda0 = {lam}\n" if command == "train-config" else ""
        cfg.write_text(f"arch = B4-C2\n{lam_line}data_dir = {blob_dir}\n"
                       "max_iterations = 2\n")
        flag = [f"--lambda={lam}"] if command == "train" else []
        return ["train", "--config", str(cfg), "--out", str(out), *flag], out
    cloud = tmp_path / "c.ply"
    save_cloud(PointCloud(np.random.default_rng(15).normal(size=(30, 3)),
                          rgb=np.full((30, 3), 0.2)), cloud)
    if command == "filter":
        return ["filter", str(cloud), str(cloud), "--out", str(out),
                f"--lambda={lam}"], out
    return ["lattice-stats", str(cloud), f"--lambda={lam}"], out


@pytest.mark.parametrize("command, lam", [
    *((c, v) for c in ("train", "filter", "lattice-stats")
      for v in ("abc", "0", "-1", ",", "")),
    ("train", "1,2"),
    ("filter", "1,2"),
])
def test_malformed_lambda_exit_2(command, lam, blob_dir, tmp_path, capsys):
    argv, out = _lambda_argv(command, lam, blob_dir, tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --lambda")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf", "1e999", "2,nan,2"])
@pytest.mark.parametrize("command", ["train", "train-config", "filter", "lattice-stats"])
def test_nonfinite_lambda_exit_2(command, lam, blob_dir, tmp_path, capsys):
    argv, out = _lambda_argv(command, lam, blob_dir, tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_filter_scalar_lambda_equals_its_triple(tmp_path, capsys):
    rng = np.random.default_rng(16)
    src = tmp_path / "src.ply"
    save_cloud(PointCloud(rng.normal(size=(50, 3)), rgb=rng.uniform(size=(50, 3))), src)
    for lam in ("2", "2,2,2"):
        assert cli.main(["filter", str(src), str(src), "--out",
                         str(tmp_path / f"{lam}.ply"), "--lambda", lam]) == 0
    capsys.readouterr()
    assert (tmp_path / "2.ply").read_bytes() == (tmp_path / "2,2,2.ply").read_bytes()


def test_lattice_stats_infinite_label_exit_2(tmp_path, capsys):
    path = tmp_path / "inf.xyz"
    path.write_text("# x y z label\n0 0 0 inf\n")
    assert cli.main(["lattice-stats", str(path)]) == 2
    assert "label" in capsys.readouterr().err


def test_lattice_stats_empty_file_nonzero(tmp_path, capsys):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    code = cli.main(["lattice-stats", str(path)])
    assert code != 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["filter", "predict", "train"])
def test_file_system_error_exit_2(command, trained, blob_dir, tmp_path, capsys):
    cloud = sorted(blob_dir.iterdir())[0]
    if command == "train":
        out = tmp_path / "taken"
        out.write_text("")
        config = tmp_path / "train.cfg"
        config.write_text(f"arch = B4-C2\ndata_dir = {blob_dir}\nmax_iterations = 1\n")
        argv = ["train", "--config", str(config), "--out", str(out)]
    else:
        out = tmp_path / "a_directory.ply"
        out.mkdir()
        argv = {"filter": ["filter", str(cloud), str(cloud), "--channels", "height"],
                "predict": ["predict", str(cloud), "--checkpoint",
                            str(trained / "model.splt")]}[command]
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_rejects_bad_thread_count(capsys):
    code = cli.main(["lattice-stats", "whatever.xyz", "--threads", "0"])
    assert code == 2
    capsys.readouterr()


def test_predict_malformed_checkpoint_exit_2(trained, blob_dir, tmp_path, capsys):
    raw = (trained / "model.splt").read_bytes()
    # magic, version and length come before the architecture string; then
    # dim, three scales, "xyz" twice with lengths and the class count come
    # before the normalization flag
    assert raw[12:17] == b"B8-C2"
    norm_at = 17 + 4 + 3 * 8 + 2 * (4 + 3) + 4
    assert raw[norm_at] == 1
    for offset, value in ((12, 0xFF), (norm_at, 0)):
        bad = bytearray(raw)
        bad[offset] = value
        (tmp_path / "bad.splt").write_bytes(bytes(bad))
        code = cli.main(["predict", str(blob_dir / "cloud0.ply"), "--checkpoint",
                         str(tmp_path / "bad.splt"), "--out", str(tmp_path / "o.ply")])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.splt" in err and "Traceback" not in err
    assert not (tmp_path / "o.ply").exists()


@pytest.mark.parametrize("dims", [(2**31, 2**31, 4), (0, 2**31, 2**31, 4), (1,) * 65])
def test_predict_impossible_tensor_shape_exit_2(trained, blob_dir, tmp_path, capsys, dims):
    raw = (trained / "model.splt").read_bytes()
    # the first tensor record: its name, then dtype f32, ndim and the dims
    at = raw.index(b"000.bias") + len(b"000.bias")
    bad = raw[:at] + bytes([0, len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)
    (tmp_path / "bad.splt").write_bytes(bad + bytes(4))
    code = cli.main(["predict", str(blob_dir / "cloud0.ply"), "--checkpoint",
                     str(tmp_path / "bad.splt"), "--out", str(tmp_path / "o.ply")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.splt" in err and "Traceback" not in err


def test_predict_checkpoint_tensor_mismatch_exit_2(trained, blob_dir, tmp_path, capsys):
    from latseg.checkpoint import load_checkpoint, save_checkpoint

    spec, params, feats, latts = load_checkpoint(trained / "model.splt")
    del params[1]["beta"]
    save_checkpoint(tmp_path / "bad.splt", spec, params, feats, latts)
    code = cli.main(["predict", str(blob_dir / "cloud0.ply"), "--checkpoint",
                     str(tmp_path / "bad.splt"), "--out", str(tmp_path / "o.ply")])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.splt" in err and "Traceback" not in err
    assert not (tmp_path / "o.ply").exists()


def test_train_resume_with_other_lambda_exit_2(trained, blob_dir, tmp_path, capsys):
    config = tmp_path / "train.cfg"
    config.write_text(
        "arch = B8-C2\n"
        "lambda0 = 2\n"
        f"data_dir = {blob_dir}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "max_iterations = 130\n"
        "seed = 3\n"
    )
    code = cli.main(["train", "--config", str(config), "--checkpoint",
                     str(trained / "state.splt"), "--lambda", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert "lattice scale" in err
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_predict_unknown_out_suffix_exit_2_before_forward(trained, blob_dir, tmp_path,
                                                          capsys, monkeypatch):
    from latseg import checkpoint, data, network

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the suffixes were checked")

    foo = tmp_path / "c0.foo"
    foo.write_bytes((blob_dir / "cloud0.ply").read_bytes())
    monkeypatch.setattr(network, "forward", refuse)
    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    monkeypatch.setattr(data, "load_cloud", refuse)
    # an unknown --out suffix, then an unknown input suffix
    for cloud, out, named in ((blob_dir / "cloud0.ply", tmp_path / "pred.foo", "pred.foo"),
                              (foo, tmp_path / "p.ply", "c0.foo")):
        code = cli.main(["predict", str(cloud), "--checkpoint",
                         str(trained / "model.splt"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err
        assert not out.exists()


def test_predict_probs_to_ply_exit_2_before_forward(trained, blob_dir, tmp_path,
                                                   capsys, monkeypatch):
    from latseg import checkpoint, data, network

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before --probs was checked against --out")

    monkeypatch.setattr(network, "forward", refuse)
    monkeypatch.setattr(checkpoint, "load_checkpoint", refuse)
    monkeypatch.setattr(data, "load_cloud", refuse)
    out = tmp_path / "p.PLY"
    code = cli.main(["predict", str(blob_dir / "cloud0.ply"), "--checkpoint",
                     str(trained / "model.splt"), "--out", str(out), "--probs"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--probs" in err and "PLY" in err and "Traceback" not in err
    assert not out.exists()


def test_filter_unknown_out_suffix_exit_2_before_projection(blob_dir, tmp_path,
                                                            capsys, monkeypatch):
    from latseg import bcl, data

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the suffixes were checked")

    monkeypatch.setattr(bcl, "project", refuse)
    monkeypatch.setattr(data, "load_cloud", refuse)
    cloud = blob_dir / "cloud0.ply"
    foo = tmp_path / "c0.foo"
    foo.write_bytes(cloud.read_bytes())
    # an unknown --out suffix, then an unknown source and destination suffix
    for src, dst, out, named in ((cloud, cloud, tmp_path / "moved.foo", "moved.foo"),
                                 (foo, cloud, tmp_path / "p.ply", "c0.foo"),
                                 (cloud, foo, tmp_path / "p.ply", "c0.foo")):
        code = cli.main(["filter", str(src), str(dst), "--channels", "height",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err and "Traceback" not in err
        assert not out.exists()


def test_filter_extras_to_ply_exit_2_before_projection(blob_dir, tmp_path,
                                                       capsys, monkeypatch):
    from latseg import bcl, data

    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the channels were checked against --out")

    monkeypatch.setattr(bcl, "project", refuse)
    monkeypatch.setattr(data, "load_cloud", refuse)
    cloud = blob_dir / "cloud0.ply"
    out = tmp_path / "o.PLY"
    code = cli.main(["filter", str(cloud), str(cloud), "--channels", "rgb,myextra",
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "PLY cannot store extra channels: myextra;" in err and "Traceback" not in err
    assert not out.exists()


def test_filter_labels_channel_exit_2(blob_dir, tmp_path, capsys):
    cloud = blob_dir / "cloud0.ply"
    out = tmp_path / "o.ply"
    code = cli.main(["filter", str(cloud), str(cloud), "--channels", "labels",
                     "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: labels are not a feature channel\n"
    assert not out.exists()


def test_eval_unknown_input_suffix_exit_2(blob_dir, tmp_path, capsys, monkeypatch):
    from latseg import data

    def refuse(*args, **kwargs):
        raise AssertionError("a cloud loaded before the suffixes were checked")

    monkeypatch.setattr(data, "load_cloud", refuse)
    cloud = blob_dir / "cloud0.ply"
    foo = tmp_path / "c0.foo"
    foo.write_bytes(cloud.read_bytes())
    for pred, gt in ((foo, cloud), (cloud, foo)):
        code = cli.main(["eval", str(pred), str(gt)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"'{foo}'" in err  # the path as given, not a PosixPath repr
        assert "PosixPath" not in err and "Traceback" not in err


def test_lattice_stats_unknown_input_suffix_exit_2(blob_dir, tmp_path, capsys, monkeypatch):
    from latseg import data

    def refuse(*args, **kwargs):
        raise AssertionError("the cloud loaded before its suffix was checked")

    monkeypatch.setattr(data, "load_cloud", refuse)
    foo = tmp_path / "c0.foo"
    foo.write_bytes((blob_dir / "cloud0.ply").read_bytes())
    code = cli.main(["lattice-stats", str(foo)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"'{foo}'" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""

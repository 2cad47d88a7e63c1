"""Point-cloud container, file format, and metric tests."""

import warnings

import numpy as np
import pytest

from latseg import data
from latseg.errors import (
    ConfigError,
    EmptyEvaluation,
    InvalidInput,
    ParseError,
    ShapeError,
    UnsupportedError,
)

from oracles import traced_peak, write_table_rowwise


def random_cloud(n=100, seed=0, with_labels=True):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return data.PointCloud(
        positions=rng.normal(size=(n, 3)) * 5,
        normals=normals,
        rgb=rng.integers(0, 256, size=(n, 3)) / 255.0,
        height=rng.uniform(0, 10, size=n),
        labels=rng.integers(0, 7, size=n) if with_labels else None,
    )


# -------------------------------------------------------------- PointCloud


def test_cloud_validation():
    with pytest.raises(ShapeError):
        data.PointCloud(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        data.PointCloud(np.zeros((4, 3)), labels=np.zeros(3, np.int64))
    with pytest.raises(InvalidInput):
        data.PointCloud(np.zeros((2, 3)), rgb=np.full((2, 3), 1.5))
    with pytest.raises(InvalidInput):
        data.PointCloud(np.zeros((2, 3)), labels=np.array([0.5, 1.0]))


@pytest.mark.parametrize("channel, value", [
    ("rgb", np.array([[np.nan, 0.5, 0.5]])),
    ("labels", np.array([np.inf])),
    ("labels", np.array([np.nan])),
    ("labels", np.array([1e19])),
], ids=["rgb-nan", "label-inf", "label-nan", "label-beyond-int64"])
def test_cloud_refuses_nan_colour_and_label_outside_int64(channel, value):
    with pytest.raises(InvalidInput):
        data.PointCloud(np.zeros((1, 3)), **{channel: value})


_PLY_HEAD = "ply\nformat ascii 1.0\nelement vertex 1\n"
_PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("name, text", [
    ("l.xyz", "# x y z label\n0 0 0 inf\n"),
    ("c.xyz", "# x y z red green blue\n0 0 0 nan 0.5 0.5\n"),
    ("l.ply", _PLY_HEAD + _PLY_XYZ + "property int label\nend_header\n0 0 0 inf\n"),
    ("fl.ply", _PLY_HEAD + _PLY_XYZ + "property float label\nend_header\n0 0 0 -inf\n"),
    ("c.ply", _PLY_HEAD + _PLY_XYZ + "property float red\nproperty float green\n"
     "property float blue\nend_header\n0 0 0 nan 0.5 0.5\n"),
    ("u.ply", _PLY_HEAD + _PLY_XYZ + "property uchar red\nproperty uchar green\n"
     "property uchar blue\nend_header\n0 0 0 inf 0 0\n"),
], ids=["xyz-label-inf", "xyz-red-nan", "ply-int-label-inf", "ply-float-label-inf",
        "ply-float-red-nan", "ply-uchar-red-inf"])
def test_loaders_refuse_nonfinite_colour_and_label(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError):
        data.load_cloud(p)


def test_take_subsets_every_channel():
    cloud = random_cloud(10)
    sub = cloud.take([3, 1, 7])
    assert sub.num_points == 3
    np.testing.assert_array_equal(sub.positions, cloud.positions[[3, 1, 7]])
    np.testing.assert_array_equal(sub.labels, cloud.labels[[3, 1, 7]])
    np.testing.assert_array_equal(sub.rgb, cloud.rgb[[3, 1, 7]])


def test_channel_matrix_composition():
    cloud = random_cloud(6)
    mat = cloud.channel_matrix(("rgb", "normals", "height"))
    assert mat.shape == (6, 7)
    np.testing.assert_array_equal(mat[:, :3], cloud.rgb)
    np.testing.assert_array_equal(mat[:, 6], cloud.height)


def test_channel_matrix_synthesizes_height():
    pts = np.array([[0.0, 2.0, 0.0], [0.0, 5.0, 0.0], [1.0, 3.0, 1.0]])
    cloud = data.PointCloud(pts)
    h = cloud.channel_matrix(("height",))
    np.testing.assert_allclose(h[:, 0], [0.0, 3.0, 1.0])
    # gravity axis is configurable
    hz = cloud.channel_matrix(("height",), gravity_axis="z")
    np.testing.assert_allclose(hz[:, 0], [0.0, 0.0, 1.0])


def test_channel_matrix_missing_channels():
    cloud = data.PointCloud(np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        cloud.channel_matrix(("normals",))
    with pytest.raises(ConfigError):
        cloud.channel_matrix(("rgb",))
    with pytest.raises(ConfigError):
        cloud.channel_matrix(("bogus",))


def test_channel_matrix_names_labels_as_no_feature():
    cloud = data.PointCloud(np.zeros((3, 3)), labels=[0, 1, 0])
    with pytest.raises(ConfigError, match="^labels are not a feature channel$"):
        cloud.channel_matrix(("xyz", "labels"))


def test_channel_matrix_extras():
    cloud = data.PointCloud(np.zeros((3, 3)), extras={"curv": [1.0, 2.0, 3.0]})
    mat = cloud.channel_matrix(("xyz", "curv"))
    np.testing.assert_array_equal(mat[:, 3], [1, 2, 3])


def test_with_channels_inverts_channel_matrix():
    rng = np.random.default_rng(4)
    cloud = data.PointCloud(rng.normal(size=(5, 3)), normals=rng.normal(size=(5, 3)),
                            rgb=rng.uniform(size=(5, 3)), height=rng.uniform(size=5),
                            extras={"curv": rng.normal(size=5)})
    names = ("height", "curv", "rgb", "normals")
    mat = cloud.channel_matrix(names)
    assert mat.shape == (5, 8)
    np.testing.assert_array_equal(mat[:, 1], cloud.extras["curv"])
    back = data.PointCloud(cloud.positions).with_channels(names, mat)
    for name in ("positions", "normals", "rgb", "height"):
        np.testing.assert_array_equal(getattr(back, name), getattr(cloud, name))
    assert back.labels is None and back.extras.keys() == {"curv"}
    np.testing.assert_array_equal(back.extras["curv"], cloud.extras["curv"])
    np.testing.assert_array_equal(back.channel_matrix(names), mat)
    # a colour one ulp above 1 is clipped, not refused
    mat[0, 2] = np.nextafter(1.0, 2.0)
    assert data.PointCloud(cloud.positions).with_channels(names, mat).rgb[0, 0] == 1.0


# --------------------------------------------------------------------- PLY


def test_ply_single_point_minimal(tmp_path):
    p = tmp_path / "pt.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1.5 -2.0 0.25\n"
    )
    cloud = data.load_ply(p)
    assert cloud.num_points == 1
    np.testing.assert_array_equal(cloud.positions, [[1.5, -2.0, 0.25]])
    assert cloud.normals is None and cloud.rgb is None
    assert cloud.height is None and cloud.labels is None


def test_ply_roundtrip_all_channels(tmp_path):
    cloud = random_cloud(100, seed=3)
    p = tmp_path / "full.ply"
    data.save_ply(cloud, p)
    back = data.load_ply(p)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    np.testing.assert_array_equal(back.normals, cloud.normals)
    np.testing.assert_array_equal(back.height, cloud.height)
    np.testing.assert_array_equal(back.labels, cloud.labels)
    # rgb was built from 0..255 so the uchar round trip is exact
    np.testing.assert_array_equal(back.rgb, cloud.rgb)


def test_ply_save_load_save_identical_bytes(tmp_path):
    cloud = random_cloud(40, seed=4)
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    data.save_ply(cloud, a)
    data.save_ply(data.load_ply(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_ply_label_range(tmp_path):
    cloud = random_cloud(50, seed=5)
    p = tmp_path / "lab.ply"
    data.save_ply(cloud, p)
    back = data.load_ply(p)
    assert back.labels.dtype == np.int64
    assert set(np.unique(back.labels)) <= set(range(7))


def test_ply_uchar_color_scaling(tmp_path):
    p = tmp_path / "c.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 0 128 255\n1 1 1 255 0 51\n"
    )
    cloud = data.load_ply(p)
    np.testing.assert_allclose(
        cloud.rgb, [[0, 128 / 255, 1.0], [1.0, 0, 0.2]]
    )


def test_ply_float_color_direct(tmp_path):
    p = tmp_path / "cf.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float red\nproperty float green\nproperty float blue\n"
        "end_header\n0 0 0 0.25 0.5 1.0\n"
    )
    np.testing.assert_array_equal(data.load_ply(p).rgb, [[0.25, 0.5, 1.0]])


def test_ply_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1 1\n"
    )
    with pytest.raises(ParseError) as err:
        data.load_ply(p)
    assert err.value.line == 9
    assert "line 9" in str(err.value)


def test_ply_unknown_property_rejected(tmp_path):
    p = tmp_path / "u.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 0\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nend_header\n"
    )
    with pytest.raises(ParseError) as err:
        data.load_ply(p)
    assert "intensity" in str(err.value)


def test_ply_header_validation(tmp_path):
    p = tmp_path / "h.ply"
    p.write_text("solid\n0 0 0\n")
    with pytest.raises(ParseError):
        data.load_ply(p)
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\nend_header\n0 0 0\n")
    with pytest.raises(ParseError):
        data.load_ply(p)  # no properties
    p.write_text(
        "ply\nformat binary_little_endian 1.0\nelement vertex 0\n"
        "property float x\nend_header\n"
    )
    with pytest.raises(ParseError):
        data.load_ply(p)


def test_ply_trailing_garbage(tmp_path):
    p = tmp_path / "t.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n9 9 9\n"
    )
    with pytest.raises(ParseError):
        data.load_ply(p)


def test_ply_incomplete_normals(tmp_path):
    p = tmp_path / "n.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nend_header\n0 0 0 1\n"
    )
    with pytest.raises(ParseError) as err:
        data.load_ply(p)
    assert "ny" in str(err.value)


def test_ply_cannot_store_extras(tmp_path):
    cloud = data.PointCloud(np.zeros((2, 3)), extras={"p0": [0.5, 0.5]})
    with pytest.raises(UnsupportedError):
        data.save_ply(cloud, tmp_path / "x.ply")


# Saved bytes, fixed: writing row by row must not change one of them.
_SAVED = [
    ("full.ply",
     b"ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\nproperty double y\n"
     b"property double z\nproperty double nx\nproperty double ny\nproperty double nz\n"
     b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
     b"property double height\nproperty int label\nend_header\n"
     b"0.1 -2.5 1e-300 0.0 0.6 0.8 0 128 255 0.25 3\n"
     b"0.3333333333333333 2.0 -0.0 1.0 0.0 0.0 1 128 64 7.0 -1\n"),
    ("full.xyz",
     b"# x y z nx ny nz red green blue height label\n"
     b"0.1 -2.5 1e-300 0.0 0.6 0.8 0.0 0.5019607843137255 1.0 0.25 3\n"
     b"0.3333333333333333 2.0 -0.0 1.0 0.0 0.0 0.00392156862745098 0.5 0.25 7.0 -1\n"),
    ("extra.xyz", b"# x y z w\n1.5 0.0 20000000000.0 0.75\n"),
    ("empty.ply",
     b"ply\nformat ascii 1.0\nelement vertex 0\nproperty double x\nproperty double y\n"
     b"property double z\nproperty uchar red\nproperty uchar green\nproperty uchar blue\n"
     b"end_header\n"),
    ("empty.xyz", b"# x y z red green blue\n"),
]


@pytest.mark.parametrize("name, expected", _SAVED, ids=[name for name, _ in _SAVED])
def test_saved_bytes_are_fixed(tmp_path, name, expected):
    clouds = {
        "full": data.PointCloud(positions=[[0.1, -2.5, 1e-300], [1 / 3, 2.0, -0.0]],
                                normals=[[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]],
                                rgb=[[0.0, 128 / 255, 1.0], [1 / 255, 0.5, 0.25]],
                                height=[0.25, 7.0], labels=[3, -1]),
        "extra": data.PointCloud(positions=[[1.5, 0.0, 2e10]], extras={"w": np.array([0.75])}),
        "empty": data.PointCloud(positions=np.zeros((0, 3)), rgb=np.zeros((0, 3))),
    }
    p = tmp_path / name
    data.save_cloud(clouds[p.stem], p)
    assert p.read_bytes() == expected


def test_save_cloud_memory_per_point(tmp_path):
    # joining every line into one string held the table's text twice:
    # 458 B/point on this cloud
    rng = np.random.default_rng(23)
    n = 20_000
    cloud = data.PointCloud(positions=rng.uniform(0, 27, size=(n, 3)),
                            rgb=rng.uniform(0, 1, size=(n, 3)), height=np.full(n, 0.25))
    _, peak = traced_peak(lambda: data.save_cloud(cloud, tmp_path / "out.ply"))
    assert peak <= 250 * n, peak / n


def test_save_cloud_converts_a_block_of_rows_at_a_time(tmp_path):
    # converting every column to Python numbers before the first row
    # peaked at 177 B/point on this cloud, and a join per row with int64
    # colours at 81
    rng = np.random.default_rng(23)
    n = 20_000
    cloud = data.PointCloud(positions=rng.uniform(0, 27, size=(n, 3)),
                            rgb=rng.uniform(0, 1, size=(n, 3)), height=np.full(n, 0.25))
    _, peak = traced_peak(lambda: data.save_cloud(cloud, tmp_path / "out.ply"))
    assert peak <= 75 * n, peak / n


# Floats whose shortest round-trip text is easy to get wrong.
_AWKWARD = [-0.0, 5e-324, 1e-300, 1e16, 1e22, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9001])
def test_saved_bytes_match_the_row_by_row_writer(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)

    def column(*width):
        values = rng.normal(size=(n, *width)) * 10.0 ** rng.integers(-5, 6, size=(n, *width))
        values.reshape(-1)[:len(_AWKWARD)] = _AWKWARD[:values.size]
        return values

    rgb = rng.integers(0, 256, size=(n, 3)) / 255.0
    rgb.reshape(-1)[:2] = [0.0, 1.0][:rgb.size]
    cloud = data.PointCloud(positions=column(3), normals=column(3), rgb=rgb,
                            height=column(), labels=rng.integers(-3, 9, size=n))
    extras = {"a": column(), "w": rng.uniform(size=n)}
    for name, saved in [("c.ply", cloud),
                        ("c.xyz", cloud.replace(extras=extras))]:
        data.save_cloud(saved, tmp_path / name)
        with monkeypatch.context() as patch:
            patch.setattr(data, "_write_table", write_table_rowwise)
            data.save_cloud(saved, tmp_path / f"oracle-{name}")
        assert (tmp_path / name).read_bytes() == (tmp_path / f"oracle-{name}").read_bytes()


# --------------------------------------------------------------------- XYZ


def test_xyz_roundtrip_with_extras(tmp_path):
    cloud = random_cloud(30, seed=6)
    cloud.extras["score"] = np.random.default_rng(7).uniform(size=30)
    p = tmp_path / "c.xyz"
    data.save_xyz(cloud, p)
    back = data.load_xyz(p)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    np.testing.assert_array_equal(back.normals, cloud.normals)
    np.testing.assert_array_equal(back.rgb, cloud.rgb)
    np.testing.assert_array_equal(back.height, cloud.height)
    np.testing.assert_array_equal(back.labels, cloud.labels)
    np.testing.assert_array_equal(back.extras["score"], cloud.extras["score"])


def test_xyz_header_required(tmp_path):
    p = tmp_path / "nohdr.xyz"
    p.write_text("0.0 1.0 2.0\n3.0 4.0 5.0\n")
    with pytest.raises(ParseError):
        data.load_xyz(p)


def test_xyz_header_without_hash(tmp_path):
    p = tmp_path / "hdr.xyz"
    p.write_text("x y z label\n0 0 0 2\n1 1 1 3\n")
    cloud = data.load_xyz(p)
    np.testing.assert_array_equal(cloud.labels, [2, 3])


def test_xyz_bad_token_line_number(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("# x y z\n0 0 0\n0 oops 0\n")
    with pytest.raises(ParseError) as err:
        data.load_xyz(p)
    assert "oops" in str(err.value)


@pytest.mark.parametrize("name, text, line, fragment", [
    ("bad.xyz", "# x y z\n0 0 0\n0 oops 0\n", 3, "oops"),
    ("gap.xyz", "\n# x y z\n0 0 0\n\n1 1 1\n", 4, "blank line"),
    ("wide.xyz", "# x y z\n0 0 0\n1 1 1 1\n", 3, "found 4"),
    ("bad.ply", "ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n\n0 0 0\n0 oops 0\n", 10, "oops"),
], ids=["xyz-literal", "xyz-blank", "xyz-width", "ply-literal-after-blank"])
def test_row_errors_report_file_line_numbers(tmp_path, name, text, line, fragment):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        data.load_cloud(p)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_format_inference(tmp_path):
    cloud = random_cloud(5, seed=8)
    ply = tmp_path / "a.ply"
    xyz = tmp_path / "a.xyz"
    data.save_cloud(cloud, ply)
    data.save_cloud(cloud, xyz)
    np.testing.assert_array_equal(data.load_cloud(ply).positions, cloud.positions)
    np.testing.assert_array_equal(data.load_cloud(xyz).positions, cloud.positions)
    with pytest.raises(UnsupportedError):
        data.save_cloud(cloud, tmp_path / "a.obj")


def _valid_tables(tmp_path):
    """Valid PLY and xyz files in every spelling the fast path must read."""
    rng = np.random.default_rng(12)
    cloud = random_cloud(60, seed=12)
    # decades of magnitude, negative zero, a subnormal, a nan and infinities
    cloud.positions *= 10.0 ** rng.integers(-12, 13, size=(60, 1))
    cloud.height[:5] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -7.0]
    cloud.extras["score"] = rng.normal(size=60)
    cloud.extras["score"][:3] = [np.nan, np.inf, -np.inf]
    cloud.labels -= 3  # negative labels too
    data.save_ply(cloud.replace(extras={}), tmp_path / "short.ply")
    data.save_xyz(cloud, tmp_path / "short.xyz")

    # %.17g floats, float colours and an integer label
    names = ["x", "y", "z", "nx", "ny", "nz", "red", "green", "blue", "height", "label"]
    table = np.column_stack([cloud.positions, cloud.normals, cloud.rgb, cloud.height,
                             cloud.labels])
    rows = [" ".join("%.17g" % v for v in row[:-1]) + " %d" % row[-1] for row in table]
    header = ["ply", "format ascii 1.0", "element vertex 60"]
    header += [f"property {'int' if n == 'label' else 'double'} {n}" for n in names]
    (tmp_path / "g17.ply").write_text("\n".join(header + ["end_header"] + rows) + "\n")
    (tmp_path / "g17.xyz").write_text("# " + " ".join(names) + "\n" + "\n".join(rows) + "\n")

    # blank lines before the first row and after the last
    for name, header_end in (("short.ply", "end_header\n"), ("short.xyz", "\n")):
        head, body = (tmp_path / name).read_text().split(header_end, 1)
        (tmp_path / f"blank-{name}").write_text(head + header_end + "\n \t\n" + body + "\t\n\n")
    return sorted(tmp_path.iterdir())


def _cloud_bytes(cloud):
    channels = [*cloud._channels(), *cloud.extras.items()]
    return {name: (arr.dtype.str, arr.shape, arr.tobytes()) for name, arr in channels}


def test_fast_and_split_parsers_load_identical_clouds(tmp_path, monkeypatch):
    paths = _valid_tables(tmp_path)
    fast_hits = []
    load_fast = data._load_fast

    def counting(*args):
        table = load_fast(*args)
        fast_hits.append(table is not None)
        return table

    monkeypatch.setattr(data, "_load_fast", counting)
    fast = [_cloud_bytes(data.load_cloud(p)) for p in paths]
    assert fast_hits == [True] * len(paths)  # every file took the fast path
    monkeypatch.setattr(data, "_load_fast", lambda *args: None)
    split = [_cloud_bytes(data.load_cloud(p)) for p in paths]
    for path, a, b in zip(paths, fast, split):
        assert a == b, path.name


@pytest.mark.parametrize("name, text", [
    ("empty.ply", "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
     "property float y\nproperty float z\nend_header\n"),
    ("empty.xyz", "# x y z label\n\n"),
], ids=["ply-vertex-0", "xyz-header-only"])
def test_empty_tables_load_without_warning(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cloud = data.load_cloud(p)
    assert cloud.num_points == 0


# --------------------------------------------------------------------- IoU


def test_iou_perfect_prediction():
    gt = np.array([0, 1, 2, 2, 1, 0])
    report = data.compute_iou(gt, gt)
    assert report.per_class == {0: 1.0, 1: 1.0, 2: 1.0}
    assert report.average == 1.0


def test_iou_hand_case():
    report = data.compute_iou(pred=[0, 1, 1, 1], gt=[0, 0, 1, 1])
    assert abs(report.per_class[0] - 0.5) < 1e-15
    assert abs(report.per_class[1] - 2 / 3) < 1e-15
    assert abs(report.average - 7 / 12) < 1e-15
    assert report.intersections == {0: 1, 1: 2}
    assert report.unions == {0: 2, 1: 3}


def test_iou_ignore_label():
    gt = np.array([0, 0, 255, 255])
    pred = np.array([0, 1, 0, 1])
    report = data.compute_iou(pred, gt, ignore_label=255)
    # only the first two rows count: class 0 inter 1 / union 2, class 1 0/1
    assert report.per_class == {0: 0.5, 1: 0.0}
    with pytest.raises(EmptyEvaluation):
        data.compute_iou(pred, np.full(4, 255), ignore_label=255)


def test_iou_length_mismatch():
    with pytest.raises(ShapeError):
        data.compute_iou([0, 1], [0, 1, 2])


def test_iou_relabel_invariance():
    rng = np.random.default_rng(9)
    gt = rng.integers(0, 4, size=200)
    pred = rng.integers(0, 4, size=200)
    base = data.compute_iou(pred, gt)
    perm = np.array([2, 3, 0, 1])
    permuted = data.compute_iou(perm[pred], perm[gt])
    for c in base.per_class:
        assert permuted.per_class[perm[c]] == base.per_class[c]
    assert abs(permuted.average - base.average) < 1e-15
    assert 0.0 <= base.average <= 1.0


# ---------------------------------------------------------------- shapenet


def test_shapenet_single_perfect_object():
    scores = data.shapenet_miou([[0, 1]], [[0, 1]], ["chair"])
    assert scores.class_average == 1.0
    assert scores.instance_average == 1.0
    assert scores.per_category == {"chair": 1.0}


def test_shapenet_hand_case():
    # category A holds one object at mIoU 0.8, category B two at 0.6.
    # with one disagreement each way, IoU_c = n_cc / (n_cc + 2) per class:
    # n_cc = 8 gives 0.8, n_cc = 3 gives 0.6.
    def two_class_object(n_cc):
        gt = np.array([0] * n_cc + [0, 1] + [1] * n_cc)
        pred = np.array([0] * n_cc + [1, 0] + [1] * n_cc)
        return pred, gt

    obj_a = two_class_object(8)
    obj_b = two_class_object(3)
    assert abs(data.compute_iou(*obj_a).average - 0.8) < 1e-12
    assert abs(data.compute_iou(*obj_b).average - 0.6) < 1e-12
    scores = data.shapenet_miou(
        [obj_a[0], obj_b[0], obj_b[0]],
        [obj_a[1], obj_b[1], obj_b[1]],
        ["A", "B", "B"],
    )
    assert abs(scores.class_average - 0.7) < 1e-12
    assert abs(scores.instance_average - (0.8 + 0.6 + 0.6) / 3) < 1e-12


def test_shapenet_skips_empty_objects_with_warning():
    scores = data.shapenet_miou(
        [[0, 1], [1, 1]], [[0, 1], [9, 9]], ["a", "b"], ignore_label=9
    )
    assert scores.per_category == {"a": 1.0}
    assert len(scores.warnings) == 1 and "object 1" in scores.warnings[0]
    with pytest.raises(EmptyEvaluation):
        data.shapenet_miou([[1]], [[9]], ["a"], ignore_label=9)


# -------------------------------------------------------------- synthetic


def test_two_blob_dataset_shape_and_labels():
    clouds = data.synthetic_two_blob_dataset(4, 64, seed=0)
    assert len(clouds) == 4
    for cloud in clouds:
        assert cloud.num_points == 64
        counts = np.bincount(cloud.labels, minlength=2)
        assert counts[0] == 32 and counts[1] == 32
        # clusters live on opposite sides of the x axis
        left = cloud.positions[cloud.labels == 0, 0].mean()
        right = cloud.positions[cloud.labels == 1, 0].mean()
        assert right - left > 2.0


def test_two_blob_deterministic():
    a = data.synthetic_two_blob_dataset(2, 32, seed=5)
    b = data.synthetic_two_blob_dataset(2, 32, seed=5)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.positions, y.positions)
        np.testing.assert_array_equal(x.labels, y.labels)

"""Config file parsing and RunConfig validation tests."""

import math
from dataclasses import fields
from pathlib import Path

import pytest

from latseg.config import _SCHEMA, RunConfig, TrainConfig, load_run_config, parse_config_text
from latseg.errors import ConfigError, ParseError


def test_parse_basic_types():
    values = parse_config_text(
        "# a comment\n"
        "\n"
        "arch = B64-C7\n"
        "lambda0 = 32\n"
        "learning_rate = 1e-4\n"
        "batch_size = 4\n"
        "rotate = true\n"
        "translate = off\n"
        "feature_channels = rgb, normals, height\n"
        "sample_size = none\n"
    )
    assert values["arch"] == "B64-C7"
    assert values["lambda0"] == (32.0,)
    assert values["learning_rate"] == 1e-4
    assert values["batch_size"] == 4
    assert values["rotate"] is True
    assert values["translate"] is False
    assert values["feature_channels"] == ("rgb", "normals", "height")
    assert values["sample_size"] is None


def test_parse_lambda_triple():
    assert parse_config_text("lambda0 = 32, 32, 16\n")["lambda0"] == (32.0, 32.0, 16.0)
    with pytest.raises(ParseError):
        parse_config_text("lambda0 = 1, 2\n")


def test_parse_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config_text("arch = B4-C2\nlerning_rate = 0.1\n")
    assert "lerning_rate" in str(err.value)


def test_parse_duplicate_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert "duplicate" in str(err.value)


def test_parse_missing_equals_line_number():
    with pytest.raises(ParseError) as err:
        parse_config_text("seed = 1\njust words\n")
    assert err.value.line == 2


def test_parse_bad_number_names_key():
    with pytest.raises(ParseError) as err:
        parse_config_text("learning_rate = fast\n")
    assert "learning_rate" in str(err.value)


def test_run_config_rejects_nonpositive_lambda():
    with pytest.raises(ConfigError) as err:
        RunConfig(lambda0=(-1.0,))
    assert "lambda0" in str(err.value)
    with pytest.raises(ConfigError):
        RunConfig(lambda0=(1.0, 0.0, 1.0))


def test_run_config_lattice_scale():
    cfg = RunConfig(lambda0=(2.0,))
    assert cfg.lattice_scale(3) == [2.0, 2.0, 2.0]
    triple = RunConfig(lambda0=(1.0, 2.0, 3.0))
    assert triple.lattice_scale(3) == [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError):
        triple.lattice_scale(4)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "1, nan, 1"])
def test_lambda0_text_must_be_finite(text):
    with pytest.raises(ParseError, match="finite"):
        parse_config_text(f"lambda0 = {text}\n")


@pytest.mark.parametrize("lam", [(math.nan,), (math.inf,), (1.0, math.inf, 1.0)])
def test_run_config_refuses_nonfinite_lambda0(lam):
    with pytest.raises(ConfigError, match="lambda0"):
        RunConfig(lambda0=lam)


def test_run_config_train_config_bridge():
    cfg = RunConfig(learning_rate=0.01, batch_size=2, rotate=True)
    assert isinstance(cfg, TrainConfig)
    assert cfg.learning_rate == 0.01
    assert cfg.batch_size == 2
    assert cfg.rotate is True
    # invalid train values surface as ConfigError, not InvalidInput
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)


def test_load_run_config_missing_file(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError) as err:
        load_run_config(missing)
    assert str(missing) in str(err.value)


def test_load_run_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("arch = B8-C2\nlambda0 = 2\nseed = 7\nmax_iterations = 3\n")
    cfg = load_run_config(path)
    assert cfg.arch == "B8-C2"
    assert cfg.seed == 7
    assert cfg.max_iterations == 3
    # untouched keys keep their defaults
    assert cfg.learning_rate == 1e-4
    assert cfg.feature_channels == ("xyz",)


def test_parse_inline_comments_and_empty_optional_values():
    values = parse_config_text(
        "seed = 7  # trailing comment\n"
        "data_dir = run#1/\t# a # inside a value is kept\n"
        "checkpoint = # resume path\n"
        "output_dir =\n"
        "num_classes = none\n"
        "sample_size = 3 #\n"
    )
    assert values["seed"] == 7
    assert values["data_dir"] == "run#1/"
    assert values["checkpoint"] is None
    assert values["output_dir"] is None
    assert values["num_classes"] is None
    assert values["sample_size"] == 3
    assert parse_config_text("num_classes = 4 # two blobs\n")["num_classes"] == 4
    # keys without a None default still need a value
    with pytest.raises(ParseError) as err:
        parse_config_text("seed = 1\nlearning_rate =   # forgot it\n")
    assert err.value.line == 2


@pytest.mark.parametrize("word", ["none", "None", "NONE"])
def test_none_unsets_every_optional_key(word):
    optional = [f.name for f in fields(RunConfig) if f.default is None]
    values = parse_config_text("".join(f"{key} = {word}\n" for key in optional))
    assert values == dict.fromkeys(optional)
    # a key with a non-None default takes `none` as its literal text
    with pytest.raises(ConfigError, match="gravity_axis"):
        RunConfig(**parse_config_text(f"gravity_axis = {word}\n"))


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("A config file is", 1)[1]
    block = after.split("```\n", 2)[1]
    values = parse_config_text(block, source="README.md")
    assert values["arch"] == "B16-B16-B16-C16-C2"
    assert values["lambda0"] == (2.0,)
    assert values["checkpoint_every"] == 100
    assert values["num_classes"] is None
    assert values["checkpoint"] is None
    cfg = RunConfig(**values)
    assert cfg.sample_size is None
    assert set(values) == set(_SCHEMA)


def test_load_run_config_rejects_invalid_train_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("arch = B8-C2\nbatch_size = 0\n")
    with pytest.raises(ConfigError) as err:
        load_run_config(path)
    assert "batch_size" in str(err.value)


def test_schema_has_one_parser_per_run_config_field():
    assert set(_SCHEMA) == {f.name for f in fields(RunConfig)}

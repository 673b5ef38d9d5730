import dataclasses
import json
import re
from pathlib import Path

import pytest
import yaml

from scenmine import config
from scenmine.types import LatState

README = Path(__file__).resolve().parent.parent / "README.md"


def load(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return config.load_config(str(path))


def test_yaml_exponent_string_loads_as_a_float(tmp_path):
    assert yaml.safe_load("learning_rate: 1e-3") == {"learning_rate": "1e-3"}
    assert load(tmp_path, "train:\n  learning_rate: 1e-3\n").train.learning_rate == 0.001


@pytest.mark.parametrize("text, section, key, value", [
    ("train:\n  epochs: 2.0\n", "train", "epochs", 2),
    ("train:\n  hidden: [12, 8]\n", "train", "hidden", (12, 8)),
    ("detect:\n  up_pairs: [[0.5, 10]]\n", "detect", "up_pairs", ((0.5, 10),)),
    ("extract:\n  class_filter: [[keep_lane, lane_change]]\n", "extract", "class_filter",
     frozenset({(LatState.KEEP_LANE, LatState.LANE_CHANGE)})),
    ("extract:\n  neighbor_radius: 50\n", "extract", "neighbor_radius", 50.0),
])
def test_values_convert_by_field_annotation(tmp_path, text, section, key, value):
    got = getattr(getattr(load(tmp_path, text), section), key)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("text, where", [
    ("train:\n  epochs: 2.5\n", "train.epochs"),
    ("train:\n  hidden: [12.9]\n", "train.hidden[0]"),
    ("synth:\n  n_trajectories: true\n", "synth.n_trajectories"),
    ("synth:\n  n_trajectories: '12'\n", "synth.n_trajectories"),
    ("train:\n  learning_rate: yes\n", "train.learning_rate"),
    ("train:\n  learning_rate: .inf\n", "train.learning_rate"),
    ("detect:\n  up_pairs: [[.nan, 10]]\n", "detect.up_pairs[0][0]"),
    ("detect:\n  up_pairs: [[0.5, 10, 3]]\n", "detect.up_pairs[0]"),
    ("cluster:\n  linkage: 3\n", "cluster.linkage"),
    ("workdir: [a]\n", "workdir"),
])
def test_rejected_value_names_its_key(tmp_path, text, where):
    with pytest.raises(config.ConfigError, match=f"^{re.escape(where)} must "):
        load(tmp_path, text)


@pytest.mark.parametrize("text", ["train:\n  seed: 3\n", "dgsfm:\n  dt: 0.1\n", "split:\n  train_fraction: 0.85\n",
                                  "synth:\n  n_augment: 50\n", "extract:\n  n_slots: 9\n"])
def test_deleted_and_program_supplied_fields_are_unknown_keys(tmp_path, text):
    with pytest.raises(config.ConfigError, match="unknown config key"):
        load(tmp_path, text)


def _keys_and_defaults(cfg):
    """Every config key of ``cfg`` with its value, sections as mappings."""
    return {key: _keys_and_defaults(value) if dataclasses.is_dataclass(value) else value
            for key, value in ((k, getattr(cfg, k)) for k in config.keys(type(cfg)))}


def test_every_default_round_trips_through_the_conversion_rule(tmp_path):
    data = _keys_and_defaults(config.Config())
    assert load(tmp_path, json.dumps(data)) == config.Config()
    assert sum(len(v) if isinstance(v, dict) else 1 for v in data.values()) == 43


def test_readme_example_config_states_the_defaults(tmp_path):
    example = README.read_text().split("```yaml\n", 1)[1].split("```", 1)[0]
    loaded = load(tmp_path, example)
    defaults = config.Config()
    for key, value in yaml.safe_load(example).items():
        if isinstance(value, dict):
            for name in value:
                assert getattr(getattr(loaded, key), name) == getattr(getattr(defaults, key), name), \
                    f"{key}.{name}"
        else:
            assert getattr(loaded, key) == getattr(defaults, key), key
    assert loaded == defaults

"""Structured pipeline configuration: a YAML file with one section per
stage, validated against the known key set; CLI flags override file keys.
All stage randomness derives from one top-level seed via fixed offsets.
"""
from __future__ import annotations

import copy
from typing import Any

import yaml


class ConfigError(Exception):
    """Unknown key or invalid value in the pipeline configuration."""


# Per-stage seed = seed + offset. Documented here; do not reorder.
STAGE_SEED_OFFSETS = {
    "synth": 1,
    "augment": 2,
    "split": 3,
    "train": 4,
    "cluster": 5,
    "gradcheck": 6,
}

DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "workdir": "out",
    "synth": {
        "kind": "trajectories",  # or "archetypes"
        "n_trajectories": 40,
        "noise_sigma_accel": 0.05,
        "dt": 0.04,
        "n_per_class": 200,
        "n_augment": 50,
    },
    "detect": {
        "up_pairs": [[0.2, 100], [0.3, 50], [0.4, 25]],
        "tau_down": 0.1,
        "n_down": 25,
        "tau_extreme": 2.5,
        "tau_lc": 2.0,
        "min_segment": 3,
        "eval_window": 50,
        "ema_window_sizes": [30, 60, 90],
        "ema_alpha": 0.05,
    },
    "dgsfm": {
        "amplitude": 1.0,
        "sigma": 10.0,
        "forward_stretch": 2.0,
        "rear_compress": 0.5,
        "lateral_scale": 0.6,
        "tau_sum": 0.5,
        "n_dg": 25,
        "softmax_temperature": 1.0,
    },
    "extract": {
        "pre_frames": 50,
        "post_frames": 75,
        "tensor_offset": -25,
        "neighbor_radius": 100.0,
        "class_filter": None,  # e.g. [["keep_lane", "lane_change"]]
    },
    "augment": {
        "n_augment": 10,
        "min_gap": 80.0,
    },
    "split": {
        "train_fraction": 0.85,
    },
    "train": {
        "lambda_cl": 1.0,
        "lambda_int": 1.0,
        "learning_rate": 1e-3,
        "batch_size": 32,
        "epochs": 60,
        "commitment_weight": 0.25,
        "dead_code_threshold": 1e-3,
        "usage_decay": 0.99,
        "revival_noise": 0.01,
        "hidden": [128, 128],
        "latent_dim": 32,
        "codebook_size": 16,
    },
    "cluster": {
        "backends": ["codebook", "kmeans", "hierarchical"],
        "linkage": "ward",
        "max_iter": 300,
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be a section")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULTS)
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    cfg = _merge(DEFAULTS, data)
    if isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    return cfg


def stage_seed(cfg: dict, stage: str) -> int:
    return int(cfg["seed"]) + STAGE_SEED_OFFSETS[stage]

"""Desk-scale scenario corpus with controlled interaction archetypes.

Builds a dataset of three behaviorally distinct archetypes (sustained
acceleration, sustained braking, lane change; each with one close, relevant
neighbor) plus per-sample nuisance variation from distant vehicles whose
positions vary widely but whose interaction relevance is negligible. The
corpus exercises the clustering experiment: raw-feature clustering splits on
the nuisance vehicles, knowledge-guided clustering should not.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from . import dgsfm, extraction, ingest
from .types import (
    T_OBS,
    ChangePoint,
    CompositeLabel,
    Dataset,
    LatState,
    LongState,
    Trajectory,
    read_csv,
    record_entry,
    write_csv,
)

ANCHOR_INDEX = 25  # tensor covers [t_c - 25, t_c + 74]
N_NUISANCE = 2  # distant vehicles per record, in slots 2 and up
N_DONOR_FRAMES = 400  # frames of the augmentation donor

ARCHETYPE_LABELS = {
    "accelerate": (
        CompositeLabel(LongState.ZERO, LatState.KEEP_LANE),
        CompositeLabel(LongState.ACCELERATE, LatState.KEEP_LANE),
    ),
    "decelerate": (
        CompositeLabel(LongState.ZERO, LatState.KEEP_LANE),
        CompositeLabel(LongState.DECELERATE, LatState.KEEP_LANE),
    ),
    "lane_change": (
        CompositeLabel(LongState.ZERO, LatState.KEEP_LANE),
        CompositeLabel(LongState.ZERO, LatState.LANE_CHANGE),
    ),
}


def _ego_kinematics(kind: str, rng: np.random.Generator, dt: float):
    """Ego features with the maneuver starting at the anchor index."""
    v0 = 25.0 + rng.normal(0.0, 0.5)
    ax = np.zeros(T_OBS)
    vy = np.zeros(T_OBS)
    ay = np.zeros(T_OBS)
    if kind == "accelerate":
        ax[ANCHOR_INDEX:] = 0.8
    elif kind == "decelerate":
        ax[ANCHOR_INDEX:] = -0.8
    elif kind == "lane_change":
        duration = 60
        profile, dprofile = ingest._lane_change_profile(duration, dt, 1)
        vy[ANCHOR_INDEX : ANCHOR_INDEX + duration] = profile
        ay[ANCHOR_INDEX : ANCHOR_INDEX + duration] = dprofile
    else:
        raise ValueError(f"unknown archetype {kind!r}")
    x, vx = ingest._integrate(ax, v0, dt)
    y = np.concatenate([[0.0], np.cumsum(vy[:-1] * dt)])
    return x, y, vx, vy, ax, ay


def build_archetype_corpus(n_per_class: int, seed: int, dgsfm_cfg: dgsfm.DgsfmConfig) -> Dataset:
    """``n_per_class`` records of each archetype, their motion integrated
    and their interactions scored at the frame time ``dgsfm_cfg.dt``."""
    dt = dgsfm_cfg.dt
    rng = np.random.default_rng(seed)
    kinds = [kind for kind in ARCHETYPE_LABELS for _ in range(n_per_class)]
    dataset = Dataset.empty([
        record_entry(f"arch-{kind}", vehicle_id, ChangePoint(ANCHOR_INDEX, *ARCHETYPE_LABELS[kind]))
        for vehicle_id, kind in enumerate(kinds, start=1)
    ])
    for i, kind in enumerate(kinds):
        x, y, vx, vy, ax, ay = _ego_kinematics(kind, rng, dt)

        values, mask = dataset.tensor[i], dataset.mask[i]
        # Positions are stored relative to the ego at the anchor frame.
        origin = x[ANCHOR_INDEX]
        values[0] = np.stack([x - origin, y, vx, vy, ax, ay])
        mask[0] = True

        # Close, relevant neighbor: a lead vehicle ~25 m ahead.
        gap = 25.0 + rng.normal(0.0, 2.0)
        lead_v = vx[0] + rng.normal(0.0, 1.0)
        lead_x = x[0] + gap + lead_v * dt * np.arange(T_OBS)
        lead_y = np.zeros(T_OBS) + rng.normal(0.0, 0.3)
        values[1] = np.stack(
            [
                lead_x - origin,
                lead_y,
                np.full(T_OBS, lead_v),
                np.zeros(T_OBS),
                np.zeros(T_OBS),
                np.zeros(T_OBS),
            ]
        )
        mask[1] = True

        # Nuisance: distant constant-velocity vehicles with high
        # sample-to-sample position variance and negligible relevance.
        for slot in range(2, 2 + N_NUISANCE):
            sign = -1.0 if rng.random() < 0.5 else 1.0
            offset = sign * rng.uniform(90.0, 160.0)
            lane_y = rng.choice((-3.75, 0.0, 3.75))
            nv = rng.uniform(20.0, 30.0)
            nx = x[0] + offset + nv * dt * np.arange(T_OBS)
            values[slot] = np.stack(
                [
                    nx - origin,
                    np.full(T_OBS, lane_y),
                    np.full(T_OBS, nv),
                    np.zeros(T_OBS),
                    np.zeros(T_OBS),
                    np.zeros(T_OBS),
                ]
            )
            mask[slot] = True

        positions = np.stack([values[:, 0, :] + origin, values[:, 1, :]], axis=-1)
        velocities = np.stack([values[:, 2, :], values[:, 3, :]], axis=-1)
        dataset.interaction[i] = dgsfm.interaction_scores(
            positions[0], velocities[0], positions[1:], velocities[1:], mask[1:], dgsfm_cfg
        )
    return dataset


def make_donor(seed: int, dt: float) -> Trajectory:
    """Constant-velocity, constant-lane donor trajectory for augmentation."""
    script = ingest.SyntheticScript(
        maneuvers=(ingest.Maneuver("cruise", 0, N_DONOR_FRAMES),),
        noise_sigma_accel=0.0,
        initial_vx=23.0,
        vehicle_id=90000 + seed,
    )
    trajs, _ = ingest.generate_synthetic([script], dt, seed, recording_id="donor")
    return trajs[0]


def augment_corpus(
    dataset: Dataset,
    dt: float,
    n_augment: int,
    min_gap: float,
    seed: int,
) -> tuple[Dataset, list[tuple[str, str]]]:
    """Inserts an irrelevant distant vehicle, a donor drawn at the dataset's
    frame time ``dt``, into n_augment records that
    ``extraction.augmentable`` admits, chosen deterministically across the
    dataset; returns (the augmented records, (parent, child) id pairs).
    A child's entry is its parent's with the id ``<parent id>:aug`` and the
    parent as its augmentation parent.
    """
    candidates = np.flatnonzero(extraction.augmentable(dataset.mask))
    rng = np.random.default_rng(seed)
    n_augment = min(n_augment, len(candidates))
    parents = candidates[np.sort(rng.choice(len(candidates), size=n_augment, replace=False))].tolist()
    donor = make_donor(seed=seed, dt=dt)
    entries = [dataset.entries[p] for p in parents]
    children = Dataset.empty([{**e, "record_id": e["record_id"] + ":aug", "augmentation_parent": e["record_id"]}
                              for e in entries])
    for i, parent in enumerate(parents):
        child = extraction.augment_irrelevant(*(block[parent] for block in dataset.blocks), donor,
                                              min_gap=min_gap, seed=seed + i)
        for block, row in zip(children.blocks, child):
            block[i] = row
    return children, [(e["record_id"], e["record_id"] + ":aug") for e in entries]


PAIR_COLUMNS = ("parent_id", "child_id")


def write_pairs(pairs: Sequence[tuple[str, str]], path) -> None:
    write_csv(path, PAIR_COLUMNS, pairs)


def read_pairs(path) -> list[tuple[str, str]]:
    return read_csv(path, PAIR_COLUMNS, lambda parent, child: (parent, child))

"""Scenario extraction: windowing around change points, neighbor slot
assignment, padding, pseudo-class labeling, and augmentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from . import dgsfm
from .types import N_SLOTS, T_OBS, ChangePoint, Dataset, LatState, Trajectory, record_entry


class AugmentationError(Exception):
    """No free slot or no qualifying donor segment."""


@dataclass(frozen=True)
class ExtractionConfig:
    pre_frames: int = 50
    post_frames: int = 75
    tensor_offset: int = -25  # tensor start relative to t_c
    neighbor_radius: float = 100.0  # m, max anchor distance for slot candidates
    # optional set of (before-lateral, after-lateral) pairs to keep; None or
    # an empty set keeps every class
    class_filter: Optional[frozenset[tuple[LatState, LatState]]] = None

    def __post_init__(self):
        if self.pre_frames + self.post_frames + 1 < T_OBS:
            raise ValueError(f"extraction window must cover at least {T_OBS} frames")
        if not (-self.pre_frames <= self.tensor_offset
                and self.tensor_offset + T_OBS - 1 <= self.post_frames):
            raise ValueError("tensor window must lie inside the extraction window")
        if not self.neighbor_radius > 0:
            raise ValueError(f"neighbor_radius must be positive, got {self.neighbor_radius}")


def extract(
    trajectories: Sequence[Trajectory],
    change_points: dict[int, list[ChangePoint]],
    cfg: ExtractionConfig,
    dgsfm_cfg: dgsfm.DgsfmConfig,
) -> tuple[Dataset, SimpleNamespace]:
    """One record per change point with full ego window coverage. Slots
    1..N-1 hold the nearest other vehicles at the anchor (ascending
    distance); partially present vehicles are masked per frame; remaining
    slots are zero-padded pseudo-vehicles. Also returns the counts whose
    ``vars`` are the ``extract_summary.json`` object.
    """
    summary = SimpleNamespace(extracted=0, skipped_window=0, filtered_class=0, per_class_counts={})
    picked = []
    for ego in trajectories:
        for cp in change_points.get(ego.vehicle_id, []):
            if not ego.covers(cp.t_c - cfg.pre_frames, cp.t_c + cfg.post_frames):
                summary.skipped_window += 1
            elif cfg.class_filter and (cp.label_before.lateral, cp.label_after.lateral) not in cfg.class_filter:
                summary.filtered_class += 1
            else:
                class_key = str(cp.label_after.to_index())
                summary.per_class_counts[class_key] = summary.per_class_counts.get(class_key, 0) + 1
                picked.append((ego, cp))
    summary.extracted = len(picked)

    dataset = Dataset.empty([record_entry(ego.recording_id, ego.vehicle_id, cp) for ego, cp in picked])
    for i, (ego, cp) in enumerate(picked):
        t_c = cp.t_c
        t0 = t_c + cfg.tensor_offset
        window = range(t0, t0 + T_OBS)
        anchor_x, anchor_y = ego.features[:2, t_c - ego.first_frame]

        # Rank other vehicles by distance at the anchor; vehicles not
        # sampled at t_c use their sample closest to the anchor.
        candidates = []
        for other in trajectories:
            if other.vehicle_id == ego.vehicle_id or other.recording_id != ego.recording_id:
                continue
            if other.last_frame < window.start or other.first_frame > window.stop - 1:
                continue
            ref = min(max(t_c, other.first_frame), other.last_frame) - other.first_frame
            dist = math.hypot(other.features[0, ref] - anchor_x, other.features[1, ref] - anchor_y)
            if dist <= cfg.neighbor_radius:
                candidates.append((dist, other.vehicle_id, other))
        candidates.sort(key=lambda c: (c[0], c[1]))
        neighbors = [c[2] for c in candidates[: N_SLOTS - 1]]

        values, mask = dataset.tensor[i], dataset.mask[i]
        positions = np.zeros((N_SLOTS, T_OBS, 2))
        velocities = np.zeros((N_SLOTS, T_OBS, 2))

        def fill(slot: int, traj: Trajectory) -> None:
            lo = max(window.start, traj.first_frame)
            hi = min(window.stop - 1, traj.last_frame)
            feats = traj.features[:, lo - traj.first_frame:hi - traj.first_frame + 1]
            sl = slice(lo - window.start, hi - window.start + 1)
            values[slot, :, sl] = feats
            values[slot, 0, sl] -= anchor_x
            values[slot, 1, sl] -= anchor_y
            mask[slot, sl] = True
            positions[slot, sl] = feats[:2].T
            velocities[slot, sl] = feats[2:4].T

        fill(0, ego)
        for slot, nb in enumerate(neighbors, start=1):
            fill(slot, nb)

        dataset.interaction[i] = dgsfm.interaction_scores(
            positions[0],
            velocities[0],
            positions[1:],
            velocities[1:],
            mask[1:],
            dgsfm_cfg,
        )
    return dataset, summary


def _donor_segment_starts(donor: Trajectory, length: int, max_abs_ay: float = 0.1) -> list[int]:
    """Starts of the ``length``-frame windows in which |ay| < max_abs_ay and
    the lane is the donor's first lane at every frame."""
    if length > len(donor):
        return []
    lane = donor.lane_id
    ok = (np.abs(donor.ay) < max_abs_ay) & (lane == lane[0])
    count = np.concatenate([[0], np.cumsum(ok)])  # count[s] = ok[:s].sum()
    return np.flatnonzero(count[length:] - count[:len(count) - length] == length).tolist()


def augmentable(mask: np.ndarray) -> np.ndarray:
    """Whether each record of presence masks ``mask`` (..., N, T) can take
    an irrelevant vehicle: some neighbor slot is free at every frame, and
    some neighbor is present at every frame, so that the inserted vehicle's
    zero interaction row leaves each frame's neighbor entries summing to 1."""
    neighbors = mask[..., 1:, :]
    return ~neighbors.any(axis=-1).all(axis=-1) & neighbors.any(axis=-2).all(axis=-1)


def augment_irrelevant(
    tensor: np.ndarray,
    mask: np.ndarray,
    interaction: np.ndarray,
    donor: Trajectory,
    min_gap: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (tensor, mask, interaction) rows of one record with a
    constant-velocity donor vehicle inserted into its first free slot,
    translated beyond min_gap from the ego at every frame, with its
    interaction row fixed to 0. Everything else is copied unchanged.
    """
    if not augmentable(mask):
        raise AugmentationError(
            "record needs a free neighbor slot and a present neighbor at every frame; otherwise "
            "a zero-interaction row would break the framewise normalization invariant"
        )
    starts = _donor_segment_starts(donor, T_OBS)
    if not starts:
        raise AugmentationError(
            f"donor {donor.vehicle_id} has no steady {T_OBS}-frame segment"
        )
    rng = np.random.default_rng(seed)
    start = starts[int(rng.integers(len(starts)))]
    slot = 1 + int(np.flatnonzero(~mask[1:].any(axis=1))[0])

    values = tensor.copy()
    values[slot] = donor.features[:, start:start + T_OBS]
    # Shift the donor ahead of the ego along x so the gap clears min_gap at
    # every frame (y offset 0: distance is dominated by x).
    x_offset = float(np.max(values[0, 0] - values[slot, 0])) + min_gap + 1.0
    y_offset = float(-values[slot, 1, 0])

    new_mask = mask.copy()
    values[slot, 0, :] += x_offset
    values[slot, 1, :] += y_offset
    new_mask[slot, :] = True

    new_interaction = interaction.copy()
    new_interaction[slot, :] = 0.0
    return values, new_mask, new_interaction

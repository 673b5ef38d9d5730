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
from .types import FEATURE_NAMES, N_SLOTS, T_OBS, ChangePoint, Dataset, LatState, Trajectory, record_entry


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


def _slice_columns(traj: Trajectory, start_frame: int, length: int) -> dict[str, np.ndarray]:
    offset = start_frame - traj.first_frame
    return {name: getattr(traj, name)[offset : offset + length] for name in FEATURE_NAMES}


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
    entries, rows = [], []
    summary = SimpleNamespace(extracted=0, skipped_window=0, filtered_class=0, per_class_counts={})

    for ego in trajectories:
        for cp in change_points.get(ego.vehicle_id, []):
            t_c = cp.t_c
            if not ego.covers(t_c - cfg.pre_frames, t_c + cfg.post_frames):
                summary.skipped_window += 1
                continue
            if cfg.class_filter and (
                cp.label_before.lateral,
                cp.label_after.lateral,
            ) not in cfg.class_filter:
                summary.filtered_class += 1
                continue

            t0 = t_c + cfg.tensor_offset
            window = range(t0, t0 + T_OBS)
            anchor_x = ego.x[t_c - ego.first_frame]
            anchor_y = ego.y[t_c - ego.first_frame]

            # Rank other vehicles by distance at the anchor; vehicles not
            # sampled at t_c use their sample closest to the anchor.
            candidates = []
            for other in trajectories:
                if other.vehicle_id == ego.vehicle_id or other.recording_id != ego.recording_id:
                    continue
                if other.last_frame < window.start or other.first_frame > window.stop - 1:
                    continue
                ref = min(max(t_c, other.first_frame), other.last_frame) - other.first_frame
                dist = math.hypot(other.x[ref] - anchor_x, other.y[ref] - anchor_y)
                if dist <= cfg.neighbor_radius:
                    candidates.append((dist, other.vehicle_id, other))
            candidates.sort(key=lambda c: (c[0], c[1]))
            neighbors = [c[2] for c in candidates[: N_SLOTS - 1]]

            values = np.zeros((N_SLOTS, len(FEATURE_NAMES), T_OBS))
            mask = np.zeros((N_SLOTS, T_OBS), dtype=bool)
            positions = np.zeros((N_SLOTS, T_OBS, 2))
            velocities = np.zeros((N_SLOTS, T_OBS, 2))

            def fill(slot: int, traj: Trajectory) -> None:
                lo = max(window.start, traj.first_frame)
                hi = min(window.stop - 1, traj.last_frame)
                cols = _slice_columns(traj, lo, hi - lo + 1)
                sl = slice(lo - window.start, hi - window.start + 1)
                for f, name in enumerate(FEATURE_NAMES):
                    values[slot, f, sl] = cols[name]
                values[slot, 0, sl] -= anchor_x
                values[slot, 1, sl] -= anchor_y
                mask[slot, sl] = True
                positions[slot, sl, 0] = cols["x"]
                positions[slot, sl, 1] = cols["y"]
                velocities[slot, sl, 0] = cols["vx"]
                velocities[slot, sl, 1] = cols["vy"]

            fill(0, ego)
            for slot, nb in enumerate(neighbors, start=1):
                fill(slot, nb)

            interaction = dgsfm.interaction_scores(
                positions[0],
                velocities[0],
                positions[1:],
                velocities[1:],
                mask[1:],
                dgsfm_cfg,
            )
            class_key = str(cp.label_after.to_index())
            summary.per_class_counts[class_key] = summary.per_class_counts.get(class_key, 0) + 1
            entries.append(record_entry(ego.recording_id, ego.vehicle_id, cp))
            rows.append((values, mask, interaction))

    summary.extracted = len(entries)
    return Dataset.stack(entries, rows), summary


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

    cols = _slice_columns(donor, donor.first_frame + start, T_OBS)
    ego_x = tensor[0, 0, :]
    # Shift the donor ahead of the ego along x so the gap clears min_gap at
    # every frame (y offset 0: distance is dominated by x).
    x_offset = float(np.max(ego_x - cols["x"])) + min_gap + 1.0
    y_offset = float(-cols["y"][0])

    values = tensor.copy()
    new_mask = mask.copy()
    for f, name in enumerate(FEATURE_NAMES):
        values[slot, f, :] = cols[name]
    values[slot, 0, :] += x_offset
    values[slot, 1, :] += y_offset
    new_mask[slot, :] = True

    new_interaction = interaction.copy()
    new_interaction[slot, :] = 0.0
    return values, new_mask, new_interaction

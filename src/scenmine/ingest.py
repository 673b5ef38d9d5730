"""Ingestion: highD-layout CSV parsing, direction normalization, and
synthetic trajectory generation with scripted ground-truth behavior changes.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .types import (
    ChangePoint,
    CompositeLabel,
    LatState,
    LongState,
    TrackPoint,
    Trajectory,
)

LANE_WIDTH_M = 3.75  # standard German highway lane

REQUIRED_COLUMNS = (
    "frame",
    "id",
    "x",
    "y",
    "xVelocity",
    "yVelocity",
    "xAcceleration",
    "yAcceleration",
    "laneId",
)


class ParseError(Exception):
    """Malformed CSV content (bad row or missing mandatory column)."""


class IntegrityError(Exception):
    """Structurally valid CSV that violates trajectory invariants or does not
    match the recording metadata (e.g. an unknown lane id)."""


class ScriptError(Exception):
    """Invalid synthetic maneuver script."""


@dataclass(frozen=True)
class RecordingMeta:
    recording_id: str
    frame_rate: float
    lanes_per_direction: int
    lane_directions: dict[int, int] = field(default_factory=dict)  # lane_id -> +1 / -1

    def __post_init__(self):
        if self.frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        if self.lanes_per_direction < 1:
            raise ValueError("lanes_per_direction must be >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate


def parse_tracks(stream: TextIO | io.IOBase, meta: RecordingMeta) -> list[Trajectory]:
    """Parses a highD-layout tracks CSV into one Trajectory per vehicle id.

    Extra columns are ignored; missing mandatory columns are rejected.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise ParseError("empty tracks file")
    missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ParseError(f"missing mandatory columns: {', '.join(missing)}")

    rows_by_vehicle: dict[int, list[TrackPoint]] = {}
    for line_no, row in enumerate(reader, start=2):
        try:
            vid = int(row["id"])
            point = TrackPoint(
                frame_index=int(row["frame"]),
                x=float(row["x"]),
                y=float(row["y"]),
                vx=float(row["xVelocity"]),
                vy=float(row["yVelocity"]),
                ax=float(row["xAcceleration"]),
                ay=float(row["yAcceleration"]),
                lane_id=int(row["laneId"]),
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise ParseError(f"line {line_no}: malformed row ({exc})") from exc
        rows_by_vehicle.setdefault(vid, []).append(point)

    trajectories = []
    for vid in sorted(rows_by_vehicle):
        points = sorted(rows_by_vehicle[vid], key=lambda p: p.frame_index)
        for a, b in zip(points, points[1:]):
            if b.frame_index != a.frame_index + 1:
                raise IntegrityError(
                    f"vehicle {vid}: gap in frame sequence between "
                    f"{a.frame_index} and {b.frame_index}"
                )
        trajectories.append(
            Trajectory(
                vehicle_id=vid,
                recording_id=meta.recording_id,
                points=tuple(points),
                dt=meta.dt,
            )
        )
    return trajectories


def normalize_direction(traj: Trajectory, meta: RecordingMeta) -> Trajectory:
    """Flips -x traffic so every trajectory drives in +x with consistent left."""
    lane = traj.points[0].lane_id
    direction = meta.lane_directions.get(lane)
    if direction is None:
        raise IntegrityError(f"vehicle {traj.vehicle_id}: unknown lane id {lane}")
    if direction > 0:
        return traj
    flipped = tuple(
        TrackPoint(
            frame_index=p.frame_index,
            x=-p.x,
            y=-p.y,
            vx=-p.vx,
            vy=-p.vy,
            ax=-p.ax,
            ay=-p.ay,
            lane_id=p.lane_id,
        )
        for p in traj.points
    )
    return Trajectory(traj.vehicle_id, traj.recording_id, flipped, traj.dt)


def filter_three_lane(
    recordings: Sequence[tuple[RecordingMeta, list[Trajectory]]],
) -> list[tuple[RecordingMeta, list[Trajectory]]]:
    return [(meta, trajs) for meta, trajs in recordings if meta.lanes_per_direction == 3]


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

MANEUVER_KINDS = ("cruise", "accelerate", "decelerate", "lane_change", "extreme_brake")


@dataclass(frozen=True)
class Maneuver:
    kind: str
    start_frame: int
    duration: int
    accel: float = 0.0        # m/s^2, for accelerate/decelerate/extreme_brake
    lane_direction: int = 1   # +1 = left, -1 = right, for lane_change

    def __post_init__(self):
        if self.kind not in MANEUVER_KINDS:
            raise ScriptError(f"unknown maneuver kind {self.kind!r}")
        if self.duration < 1 or self.start_frame < 0:
            raise ScriptError("maneuver needs start_frame >= 0 and duration >= 1")

    @property
    def end_frame(self) -> int:  # exclusive
        return self.start_frame + self.duration


@dataclass(frozen=True)
class SyntheticScript:
    maneuvers: tuple[Maneuver, ...]
    noise_sigma_accel: float = 0.05
    initial_x: float = 0.0
    initial_y: float = 0.0
    initial_vx: float = 25.0
    initial_lane: int = 2
    vehicle_id: Optional[int] = None

    def __post_init__(self):
        prev_end = 0
        for m in self.maneuvers:
            if m.start_frame < prev_end:
                raise ScriptError(
                    f"maneuvers overlap or out of order at frame {m.start_frame}"
                )
            prev_end = m.end_frame

    @property
    def n_frames(self) -> int:
        return self.maneuvers[-1].end_frame if self.maneuvers else 0


_LONG_OF_KIND = {
    "cruise": LongState.ZERO,
    "accelerate": LongState.ACCELERATE,
    "decelerate": LongState.DECELERATE,
    "extreme_brake": LongState.EXTREME_DECELERATE,
    "lane_change": LongState.ZERO,
}


def _lane_change_profile(duration: int, dt: float, direction: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-sine vy pulse whose discrete integral is exactly one lane width."""
    phase = np.pi * (np.arange(duration) + 0.5) / duration
    shape = np.sin(phase)
    amp = LANE_WIDTH_M / (dt * shape.sum())
    vy = direction * amp * shape
    ay = direction * amp * (np.pi / (duration * dt)) * np.cos(phase)
    return vy, ay


def generate_synthetic(
    scripts: Sequence[SyntheticScript],
    dt: float,
    seed: int,
    recording_id: str = "synthetic",
) -> tuple[list[Trajectory], list[list[ChangePoint]]]:
    """Integrates scripted maneuvers into trajectories with ground truth.

    Returns the trajectories and, per trajectory, the scripted ChangePoints
    (composite-label boundaries of the script timeline). Identical
    (scripts, dt, seed) produce bitwise-identical output.
    """
    rng = np.random.default_rng(seed)
    trajectories: list[Trajectory] = []
    truths: list[list[ChangePoint]] = []

    for idx, script in enumerate(scripts):
        n = script.n_frames
        if n == 0:
            raise ScriptError("script contains no maneuvers")
        ax_base = np.zeros(n)
        vy = np.zeros(n)
        ay = np.zeros(n)
        long_labels = [LongState.ZERO] * n
        lat_labels = [LatState.KEEP_LANE] * n
        for m in script.maneuvers:
            sl = slice(m.start_frame, m.end_frame)
            if m.kind in ("accelerate", "decelerate", "extreme_brake"):
                sign = 1.0 if m.kind == "accelerate" else -1.0
                ax_base[sl] = sign * abs(m.accel)
            elif m.kind == "lane_change":
                vy[sl], ay[sl] = _lane_change_profile(m.duration, dt, m.lane_direction)
                for t in range(m.start_frame, m.end_frame):
                    lat_labels[t] = LatState.LANE_CHANGE
            for t in range(m.start_frame, m.end_frame):
                long_labels[t] = _LONG_OF_KIND[m.kind]

        ax = ax_base + rng.normal(0.0, script.noise_sigma_accel, size=n)
        vx = np.empty(n)
        x = np.empty(n)
        y = np.empty(n)
        vx[0] = script.initial_vx
        x[0] = script.initial_x
        y[0] = script.initial_y
        for t in range(n - 1):
            vx[t + 1] = vx[t] + ax[t] * dt
            x[t + 1] = x[t] + vx[t] * dt + 0.5 * ax[t] * dt * dt
            y[t + 1] = y[t] + vy[t] * dt

        vid = script.vehicle_id if script.vehicle_id is not None else idx + 1
        lane = script.initial_lane
        points = tuple(
            TrackPoint(
                frame_index=t,
                x=float(x[t]),
                y=float(y[t]),
                vx=float(vx[t]),
                vy=float(vy[t]),
                ax=float(ax[t]),
                ay=float(ay[t]),
                lane_id=lane,
            )
            for t in range(n)
        )
        trajectories.append(Trajectory(vid, recording_id, points, dt))

        changes: list[ChangePoint] = []
        for t in range(1, n):
            before = CompositeLabel(long_labels[t - 1], lat_labels[t - 1])
            after = CompositeLabel(long_labels[t], lat_labels[t])
            if before != after:
                changes.append(ChangePoint(t_c=t, label_before=before, label_after=after))
        truths.append(changes)

    return trajectories, truths


# ---------------------------------------------------------------------------
# Trajectory persistence (highD-layout CSV + meta JSON)
# ---------------------------------------------------------------------------

def write_tracks_csv(trajectories: Sequence[Trajectory], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for traj in trajectories:
            for p in traj.points:
                writer.writerow(
                    [
                        p.frame_index,
                        traj.vehicle_id,
                        repr(p.x),
                        repr(p.y),
                        repr(p.vx),
                        repr(p.vy),
                        repr(p.ax),
                        repr(p.ay),
                        p.lane_id,
                    ]
                )


def write_meta_json(meta: RecordingMeta, path) -> None:
    payload = {
        "recording_id": meta.recording_id,
        "frame_rate": meta.frame_rate,
        "lanes_per_direction": meta.lanes_per_direction,
        "lane_directions": {str(k): v for k, v in meta.lane_directions.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_meta_json(path) -> RecordingMeta:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return RecordingMeta(
        recording_id=obj["recording_id"],
        frame_rate=float(obj["frame_rate"]),
        lanes_per_direction=int(obj["lanes_per_direction"]),
        lane_directions={int(k): int(v) for k, v in obj["lane_directions"].items()},
    )


def read_tracks_csv(path, meta: RecordingMeta) -> list[Trajectory]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return parse_tracks(fh, meta)

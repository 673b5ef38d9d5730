"""Ingestion: highD-layout CSV parsing, direction normalization, and
synthetic trajectory generation with scripted ground-truth behavior changes.
"""
from __future__ import annotations

import csv
import io
import math
import operator
import re
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, TextIO

import numpy as np

from .types import (
    FEATURE_NAMES,
    ChangePoint,
    CompositeLabel,
    DatasetFormatError,
    LatState,
    LongState,
    Trajectory,
    integral,
    read_blocks,
    read_json,
    write_blocks,
    write_json,
)

LANE_WIDTH_M = 3.75  # standard German highway lane
TRACKS_FORMAT_VERSION = "scenmine-tracks-v1"  # tracks.bin, the memo of a tracks.csv
# tracks.csv holds each feature in fixed decimals: micrometres (per second,
# per second squared), finer than any drone measurement. highD publishes two.
TRACKS_DECIMALS = 6
_FLOAT_TEXT = f"%.{TRACKS_DECIMALS}f"
_FEATURE_FIELDS = ",".join([_FLOAT_TEXT] * len(FEATURE_NAMES))

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
        if not (0.0 < self.frame_rate < float("inf") and math.isfinite(1.0 / self.frame_rate)):
            raise ValueError(f"frame_rate must be positive and finite with a finite reciprocal, "
                             f"got {self.frame_rate}")
        if self.lanes_per_direction < 1:
            raise ValueError("lanes_per_direction must be >= 1")
        if any(d not in (1, -1) for d in self.lane_directions.values()):
            raise ValueError(f"lane directions must be +1 or -1, got {self.lane_directions}")

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate


# A tracks.csv row as read: int64 ids and the FEATURE_NAMES columns as one float64 subarray.
_ROW = np.dtype([("frame", np.int64), ("id", np.int64),
                 ("features", np.float64, (len(FEATURE_NAMES),)), ("laneId", np.int64)])


def parse_tracks(stream: TextIO | io.IOBase, meta: RecordingMeta) -> list[Trajectory]:
    """Parses a highD-layout tracks CSV into one Trajectory per vehicle id.

    Extra columns are ignored; missing mandatory columns are rejected. Fields
    are ASCII decimal numbers, optionally quoted; blank lines are skipped.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ParseError("empty tracks file")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"missing mandatory columns: {', '.join(missing)}")
    at = {name: i for i, name in enumerate(header)}
    lines = stream.read().split("\n")
    if all(line in ("", "\r") for line in lines):  # no rows, only blank lines
        return []
    unread = iter(lines)  # np.loadtxt takes one line at a time from an iterator
    try:
        with warnings.catch_warnings():  # older numpy reads a bad int via float, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(unread, dtype=_ROW, delimiter=",", comments=None, quotechar='"',
                              usecols=[at[c] for c in REQUIRED_COLUMNS], ndmin=1)
    except (ValueError, DeprecationWarning) as exc:  # so the last line taken holds the bad row
        line_no = reader.line_num + len(lines) - operator.length_hint(unread)
        raise ParseError(f"line {line_no}: malformed row ({exc})") from exc
    rows = rows[np.lexsort((rows["frame"], rows["id"]))]  # stable: by vehicle, then frame
    vids, frames = rows["id"], rows["frame"]
    # One contiguous copy each, which the trajectories slice.
    feats, lanes = np.ascontiguousarray(rows["features"].T), np.ascontiguousarray(rows["laneId"])

    same_vehicle = vids[1:] == vids[:-1]
    gaps = np.flatnonzero(same_vehicle & (frames[1:] != frames[:-1] + 1))
    if gaps.size:
        i = gaps[0]
        if frames[i] == frames[i + 1]:
            raise IntegrityError(f"vehicle {vids[i]}: repeated frame {frames[i]}")
        raise IntegrityError(
            f"vehicle {vids[i]}: gap in frame sequence between "
            f"{frames[i]} and {frames[i + 1]}"
        )
    non_finite = np.argwhere(~np.isfinite(feats.T))  # (row, feature) pairs
    if non_finite.size:
        i, f = non_finite[0]
        raise IntegrityError(
            f"vehicle {vids[i]}: non-finite {FEATURE_NAMES[f]} at frame {frames[i]}"
        )
    negative = np.flatnonzero(frames < 0)
    if negative.size:
        i = negative[0]
        raise IntegrityError(f"vehicle {vids[i]}: negative frame index {frames[i]}")

    starts = np.concatenate([[0], np.flatnonzero(~same_vehicle) + 1])
    ends = np.append(starts[1:], len(vids))
    return [
        Trajectory(
            vehicle_id=int(vids[lo]),
            recording_id=meta.recording_id,
            dt=meta.dt,
            first_frame=int(frames[lo]),
            features=feats[:, lo:hi],
            lane_id=lanes[lo:hi],
        )
        for lo, hi in zip(starts.tolist(), ends.tolist())
    ]


def normalize_direction(traj: Trajectory, meta: RecordingMeta) -> Trajectory:
    """Flips -x traffic so every trajectory drives in +x with consistent left."""
    lane = int(traj.lane_id[0])
    direction = meta.lane_directions.get(lane)
    if direction is None:
        raise IntegrityError(f"vehicle {traj.vehicle_id}: unknown lane id {lane}")
    if direction > 0:
        return traj
    return replace(traj, features=-traj.features)


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


def _integrate(ax: np.ndarray, v0: float, dt: float, x0: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity of the explicit steps v[t+1] = v[t] + ax[t]*dt and
    x[t+1] = x[t] + v[t]*dt + 0.5*ax[t]*dt*dt, as sequential running sums
    (x takes its two adds per step from one interleaved array)."""
    v = np.add.accumulate(np.concatenate([[v0], ax[:-1] * dt]))
    steps = np.empty(2 * len(ax) - 1)
    steps[0] = x0
    steps[1::2] = v[:-1] * dt
    steps[2::2] = 0.5 * ax[:-1] * dt * dt
    return np.add.accumulate(steps)[::2], v


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
        labels = np.full(n, CompositeLabel(LongState.ZERO, LatState.KEEP_LANE).to_index())
        for m in script.maneuvers:
            sl = slice(m.start_frame, m.end_frame)
            lateral = LatState.KEEP_LANE
            if m.kind in ("accelerate", "decelerate", "extreme_brake"):
                sign = 1.0 if m.kind == "accelerate" else -1.0
                ax_base[sl] = sign * abs(m.accel)
            elif m.kind == "lane_change":
                vy[sl], ay[sl] = _lane_change_profile(m.duration, dt, m.lane_direction)
                lateral = LatState.LANE_CHANGE
            labels[sl] = CompositeLabel(_LONG_OF_KIND[m.kind], lateral).to_index()

        ax = ax_base + rng.normal(0.0, script.noise_sigma_accel, size=n)
        x, vx = _integrate(ax, script.initial_vx, dt, script.initial_x)
        y = np.add.accumulate(np.concatenate([[script.initial_y], vy[:-1] * dt]))

        vid = script.vehicle_id if script.vehicle_id is not None else idx + 1
        trajectories.append(
            Trajectory(vid, recording_id, dt, 0, np.stack([x, y, vx, vy, ax, ay]),
                       lane_id=np.full(n, script.initial_lane))
        )

        boundaries = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        changes = [ChangePoint(t_c=t, label_before=CompositeLabel.from_index(int(labels[t - 1])),
                               label_after=CompositeLabel.from_index(int(labels[t])))
                   for t in boundaries]
        truths.append(changes)

    return trajectories, truths


# ---------------------------------------------------------------------------
# Trajectory persistence (highD-layout CSV + meta JSON)
# ---------------------------------------------------------------------------

def _round_to_text(features: np.ndarray) -> np.ndarray:
    """``features`` rounded to TRACKS_DECIMALS decimals, as values whose
    text at that many decimals reads back as the same bits. Below 2**31 in
    magnitude ``np.round`` gives the double nearest a decimal of that many
    places, well inside half a unit of its last place; it overflows to inf
    past ~1e302, so larger values go through the text itself."""
    with np.errstate(over="ignore"):
        out = np.round(features, TRACKS_DECIMALS)
    large = np.abs(features) >= 2**31
    if large.any():
        out[large] = [float(_FLOAT_TEXT % v) for v in features[large].tolist()]
    return out


def _rows_by_template(traj: Trajectory) -> bytes:
    """The tracks.csv rows of ``traj``, each formatted by one ``%`` template:
    the reference for ``_rows_as_block`` and the only path for the values it
    does not take."""
    row = f"%d,{traj.vehicle_id},{_FEATURE_FIELDS},%d\r\n"
    frames = range(traj.first_frame, traj.last_frame + 1)
    return "".join(map(row.__mod__, zip(frames, *traj.features.tolist(), traj.lane_id.tolist()))).encode()


def _digits_into(out: np.ndarray, values: np.ndarray, fixed: int) -> np.ndarray:
    """Writes the decimal digits of the non-negative int64 ``values`` as
    ASCII into the last axis of the uint8 ``out``, right-aligned, with NUL
    for each leading zero left of the last ``fixed`` digits. Returns what
    is left of ``values`` above that many digits."""
    width = out.shape[-1]
    for j in range(width - 1, -1, -1):
        rest = values // 10
        digit = values - rest * 10 + ord("0")
        if width - j > fixed:
            digit[values == 0] = 0
        out[..., j] = digit
        values = rest
    return values


def _rows_as_block(traj: Trajectory) -> Optional[bytes]:
    """The bytes ``_rows_by_template`` gives for ``traj``, whose features
    ``_round_to_text`` returned, built as one uint8 character matrix of a
    row per frame and with NUL for the leading zeros that
    ``bytes.translate`` then drops. None if a feature is non-finite or
    |v| >= 2**31, a lane id is negative or a frame passes int64.

    Such a feature v is the double nearest a decimal k/1e6 with k below
    2**31 * 1e6, so v * 1e6 is within 0.12 + 0.125 of k and
    ``rint(|v| * 1e6)`` is k: ``%.6f`` of v is its sign, then k with a
    point before its last six digits."""
    n = len(traj)
    features = traj.features.T
    magnitude = np.abs(features)
    if not (magnitude < 2**31).all() or traj.lane_id.min() < 0 or traj.last_frame >= 2**63:
        return None
    micro = np.rint(magnitude * 10**TRACKS_DECIMALS).astype(np.int64)
    int_width = len(str(int(micro.max()) // 10**TRACKS_DECIMALS))
    field = int_width + TRACKS_DECIMALS + 3  # sign, integer digits, point, decimals, comma
    frame_width = len(str(traj.last_frame))
    lane_width = len(str(int(traj.lane_id.max())))
    vid = f",{traj.vehicle_id},".encode()
    start = frame_width + len(vid)
    stop = start + len(FEATURE_NAMES) * field
    block = np.empty((n, stop + lane_width + 2), np.uint8)
    _digits_into(block[:, :frame_width], traj.first_frame + np.arange(n, dtype=np.int64), 1)
    block[:, frame_width:start] = np.frombuffer(vid, np.uint8)
    fields = block[:, start:stop].reshape(n, len(FEATURE_NAMES), field)
    fields[..., 0] = np.signbit(features) * np.uint8(ord("-"))
    integer = _digits_into(fields[..., int_width + 2:-1], micro, TRACKS_DECIMALS)
    _digits_into(fields[..., 1:int_width + 1], integer, 1)
    fields[..., int_width + 1] = ord(".")
    fields[..., -1] = ord(",")
    _digits_into(block[:, stop:-2], traj.lane_id, 1)
    block[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return block.tobytes().translate(None, b"\0")


def write_tracks_csv(trajectories: Sequence[Trajectory], path) -> list[Trajectory]:
    """Writes the trajectories as a highD-layout CSV: one row per frame,
    features at TRACKS_DECIMALS fixed decimals, CRLF line ends. Returns them
    with their features rounded to the values the file reads back as, bit
    for bit, so rounding them again changes nothing."""
    rounded = [replace(t, features=_round_to_text(t.features)) for t in trajectories]
    with open(path, "wb") as fh:
        fh.write(",".join(REQUIRED_COLUMNS).encode() + b"\r\n")
        for traj in rounded:
            block = _rows_as_block(traj)
            fh.write(_rows_by_template(traj) if block is None else block)
    return rounded


def write_tracks_bin(trajectories: Sequence[Trajectory], digest: str, path) -> None:
    """Writes the trajectories as the memo of the tracks.csv with SHA-256
    ``digest``: one ``[vehicle_id, first_frame, n_rows]`` header entry each,
    a ``(6, N)`` feature block and an ``(N,)`` lane block. Writes nothing
    unless parsing that file gives back these trajectories, in order of
    strictly increasing vehicle id. A non-finite feature, which parsing
    rejects, raises DatasetFormatError."""
    vids = [t.vehicle_id for t in trajectories]
    if vids == sorted(set(vids)):
        feats = np.concatenate([t.features for t in trajectories] + [np.empty((len(FEATURE_NAMES), 0))], axis=1)
        lanes = np.concatenate([t.lane_id for t in trajectories] + [np.empty(0, np.int64)])
        entries = [[t.vehicle_id, t.first_frame, len(t)] for t in trajectories]
        write_blocks(path, {"format": TRACKS_FORMAT_VERSION, "sha256": digest, "trajectories": entries},
                     [("features", feats), ("lanes", lanes)], DatasetFormatError)


class _Stale(Exception):
    """A memo of another tracks.csv."""


def read_tracks_bin(path, digest: str, meta: RecordingMeta) -> Optional[list[Trajectory]]:
    """The trajectories of a ``write_tracks_bin`` memo, or None if it is the
    memo of a tracks.csv other than the one with SHA-256 ``digest``. Besides
    the damage ``read_blocks`` finds, an entry other than three integers, a
    negative first frame or no rows raise DatasetFormatError."""
    def layout(header):
        if header["sha256"] != digest:
            raise _Stale
        entries = header["trajectories"]
        for entry in entries:
            if len(entry) != 3 or not all(type(v) is int for v in entry) or entry[1] < 0 or entry[2] < 1:
                raise ValueError(f"trajectory entry {entry!r}")
        n = sum(entry[2] for entry in entries)
        return entries, [("features", (len(FEATURE_NAMES), n), np.float64), ("lanes", (n,), np.int64)]

    try:
        entries, (feats, lanes) = read_blocks(path, TRACKS_FORMAT_VERSION, "tracks memo", layout, DatasetFormatError)
    except _Stale:
        return None
    ends = np.cumsum([n for _, _, n in entries], dtype=np.int64).tolist()
    return [Trajectory(vid, meta.recording_id, meta.dt, first, feats[:, end - n:end], lanes[end - n:end])
            for (vid, first, n), end in zip(entries, ends)]


def write_meta_json(meta: RecordingMeta, path) -> None:
    payload = {
        "recording_id": meta.recording_id,
        "frame_rate": meta.frame_rate,
        "lanes_per_direction": meta.lanes_per_direction,
        "lane_directions": {str(k): v for k, v in meta.lane_directions.items()},
    }
    write_json(payload, path)


def read_meta_json(path) -> RecordingMeta:
    """Reads a file written by ``write_meta_json``; any other content raises
    ParseError."""
    obj = read_json(path, ParseError)
    try:
        if not isinstance(obj.get("recording_id"), str):
            raise ValueError("recording_id must be a string")
        if isinstance(obj["frame_rate"], bool) or not isinstance(obj["frame_rate"], (int, float)):
            raise ValueError(f"frame_rate must be a number, got {obj['frame_rate']!r}")
        if not all(re.fullmatch(r" *[+-]?[0-9]+ *", key) for key in obj["lane_directions"]):
            raise ValueError("lane keys must be ASCII decimal integers")
        return RecordingMeta(
            recording_id=obj["recording_id"],
            frame_rate=float(obj["frame_rate"]),
            lanes_per_direction=integral(obj["lanes_per_direction"]),
            lane_directions={int(k): integral(v) for k, v in obj["lane_directions"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed recording metadata ({exc!r})") from exc


def read_tracks_csv(path, meta: RecordingMeta, data: Optional[bytes] = None) -> list[Trajectory]:
    """Parses the tracks CSV at ``path``, whose bytes are ``data`` if already read."""
    try:
        raw = open(path, "rb") if data is None else io.BytesIO(data)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
            return parse_tracks(fh, meta)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a UTF-8 CSV file ({exc})") from exc

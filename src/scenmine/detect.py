"""Ego behavior-change detection: adaptive threshold rules, the EMA-energy
baseline, and detector scoring against ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from typing import Optional, Sequence

import numpy as np

from .types import (
    ChangePoint,
    CompositeLabel,
    LatState,
    LongState,
    Trajectory,
    read_csv,
    write_csv,
)

DEFAULT_UP_PAIRS = ((0.2, 100), (0.3, 50), (0.4, 25))


@dataclass(frozen=True)
class DetectorConfig:
    up_pairs: tuple[tuple[float, int], ...] = DEFAULT_UP_PAIRS
    tau_down: float = 0.1       # m/s^2, hysteresis below the smallest tau_up
    n_down: int = 25            # frames
    tau_extreme: float = 2.5    # m/s^2
    tau_lc: float = 2.0         # m, > half lane width
    min_segment: int = 3        # frames; shorter segments are absorbed
    eval_window: int = 50       # frames; match window when scoring against truth
    ema_window_sizes: tuple[int, ...] = (30, 60, 90)  # frames; EMA-energy baseline
    ema_alpha: float = 0.05

    def __post_init__(self):
        if not self.up_pairs:
            raise ValueError("at least one (tau_up, n_up) pair is required")
        for tau, n in self.up_pairs:
            if tau <= 0 or n < 1:
                raise ValueError("up_pairs require tau_up > 0 and n_up >= 1")
        if self.tau_down <= 0 or self.tau_lc <= 0 or self.n_down < 1:
            raise ValueError("thresholds must be positive")
        if self.tau_extreme <= max(tau for tau, _ in self.up_pairs):
            raise ValueError("tau_extreme must exceed every tau_up")
        if self.min_segment < 1:
            raise ValueError("min_segment must be >= 1")
        if self.eval_window < 0:
            raise ValueError(f"eval_window must be >= 0, got {self.eval_window}")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {self.ema_alpha}")
        if not self.ema_window_sizes or min(self.ema_window_sizes) < 1:
            raise ValueError(
                f"ema_window_sizes must be positive frame counts, got {list(self.ema_window_sizes)}")


@dataclass(frozen=True)
class Segment:
    start_frame: int  # inclusive
    end_frame: int    # inclusive
    label: object     # CompositeLabel / LongState / LatState depending on stage

    def __post_init__(self):
        if self.start_frame > self.end_frame:
            raise ValueError("segment start must not exceed end")

    @property
    def length(self) -> int:
        return self.end_frame - self.start_frame + 1


@dataclass(frozen=True)
class DetectionMatch:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp > 0 else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn > 0 else 0.0


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True as (start, end_inclusive)."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def _segments(values: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of equal values as (start, end_inclusive), covering the array."""
    starts = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()] if len(values) else []
    return list(zip(starts, [s - 1 for s in starts[1:]] + [len(values) - 1]))


def detect_longitudinal(traj: Trajectory, cfg: DetectorConfig) -> list[LongState]:
    """Per-frame longitudinal state from adaptive threshold-duration rules.

    State machine: start in ZERO; leave ZERO at the first frame of any run
    where some (tau_up, n_up) pair is satisfied; return to ZERO at the start
    of a run of n_down frames with |ax| < tau_down; |ax| > tau_extreme
    switches to the extreme state immediately. The machine steps only at
    those event frames and holds its state in between.
    """
    ax = traj.ax
    n = len(ax)

    pos_onsets: set[int] = set()
    neg_onsets: set[int] = set()
    for tau, n_up in cfg.up_pairs:
        for s, e in _runs(ax > tau):
            if e - s + 1 >= n_up:
                pos_onsets.add(s)
        for s, e in _runs(ax < -tau):
            if e - s + 1 >= n_up:
                neg_onsets.add(s)
    zero_onsets = {
        s for s, e in _runs(np.abs(ax) < cfg.tau_down) if e - s + 1 >= cfg.n_down
    }
    extreme_acc = ax > cfg.tau_extreme
    extreme_dec = ax < -cfg.tau_extreme
    extreme = set(np.flatnonzero(extreme_acc | extreme_dec).tolist())

    states: list[LongState] = []
    cur = LongState.ZERO
    for t in sorted(pos_onsets | neg_onsets | zero_onsets | extreme):
        states += [cur] * (t - len(states))
        if extreme_acc[t]:
            cur = LongState.EXTREME_ACCELERATE
        elif extreme_dec[t]:
            cur = LongState.EXTREME_DECELERATE
        elif cur is LongState.ZERO:
            if t in pos_onsets:
                cur = LongState.ACCELERATE
            elif t in neg_onsets:
                cur = LongState.DECELERATE
        elif t in zero_onsets:
            cur = LongState.ZERO
        states.append(cur)
    states += [cur] * (n - len(states))
    return states


def detect_lateral(traj: Trajectory, cfg: DetectorConfig) -> list[Segment]:
    """Partitions the trajectory into maximal constant-sign(vy) intervals and
    labels each LANE_CHANGE iff its accumulated |sum(vy * dt)| exceeds tau_LC.
    """
    vy = traj.vy
    segments: list[Segment] = []
    for s, e in _segments(np.sign(vy)):
        displacement = float(np.sum(vy[s : e + 1]) * traj.dt)
        label = LatState.LANE_CHANGE if abs(displacement) > cfg.tau_lc else LatState.KEEP_LANE
        segments.append(Segment(traj.first_frame + s, traj.first_frame + e, label))
    return segments


# Per-frame label codes whose sum is the CompositeLabel index.
_LONG_CODE = {state: CompositeLabel(state, LatState.KEEP_LANE).to_index() for state in LongState}
_LAT_CODE = {state: CompositeLabel(LongState.ZERO, state).to_index() for state in LatState}


def _merge_equal_neighbors(segments: list[Segment]) -> list[Segment]:
    out: list[Segment] = []
    for seg in segments:
        if out and out[-1].label == seg.label:
            out[-1] = Segment(out[-1].start_frame, seg.end_frame, seg.label)
        else:
            out.append(seg)
    return out


def postprocess(
    longitudinal: Sequence[LongState],
    lateral: Sequence[Segment],
    cfg: DetectorConfig,
    first_frame: int = 0,
) -> tuple[list[Segment], list[ChangePoint]]:
    """Combines per-frame longitudinal states with lateral segments into
    composite-label segments and emits a ChangePoint at every boundary.

    Short segments (< min_segment frames) are absorbed into the preceding
    segment; consecutive lane-change segments are merged into one, keeping
    the longitudinal state of the longer constituent.
    """
    n = len(longitudinal)
    codes = np.zeros(n, np.int64)
    end = 0
    for state, run in groupby(longitudinal):
        start, end = end, end + len(list(run))
        codes[start:end] = _LONG_CODE[state]
    lat_codes = np.zeros(n, np.int64)
    for seg in lateral:
        lo, hi = seg.start_frame - first_frame, seg.end_frame - first_frame + 1
        if lo < 0 or hi > n:
            raise ValueError("lateral segments must cover the longitudinal frame range")
        lat_codes[lo:hi] = _LAT_CODE[seg.label]
    codes += lat_codes  # the CompositeLabel index of each frame

    # Frame-wise composite labels -> maximal same-label segments.
    segments = [
        Segment(s + first_frame, e + first_frame, CompositeLabel.from_index(int(codes[s])))
        for s, e in _segments(codes)
    ]

    # Absorb short segments into their predecessor (the first segment, having
    # no predecessor, is absorbed into its successor), then re-merge.
    changed = True
    while changed:
        changed = False
        for i, seg in enumerate(segments):
            if seg.length < cfg.min_segment and len(segments) > 1:
                if i > 0:
                    segments[i - 1] = Segment(
                        segments[i - 1].start_frame, seg.end_frame, segments[i - 1].label
                    )
                else:
                    segments[1] = Segment(seg.start_frame, segments[1].end_frame, segments[1].label)
                del segments[i]
                segments = _merge_equal_neighbors(segments)
                changed = True
                break

    # Merge consecutive lane-change segments, keeping the longitudinal state
    # of the longer constituent.
    merged: list[Segment] = []
    for seg in segments:
        if (
            merged
            and merged[-1].label.lateral is LatState.LANE_CHANGE
            and seg.label.lateral is LatState.LANE_CHANGE
        ):
            prev = merged[-1]
            keep = prev.label if prev.length >= seg.length else seg.label
            merged[-1] = Segment(prev.start_frame, seg.end_frame, keep)
        else:
            merged.append(seg)
    segments = _merge_equal_neighbors(merged)

    change_points = [
        ChangePoint(t_c=b.start_frame, label_before=a.label, label_after=b.label)
        for a, b in zip(segments, segments[1:])
    ]
    return segments, change_points


def detect_rule_based(traj: Trajectory, cfg: DetectorConfig) -> list[ChangePoint]:
    """Full rule-based pipeline: longitudinal + lateral + post-processing."""
    longitudinal = detect_longitudinal(traj, cfg)
    lateral = detect_lateral(traj, cfg)
    _, change_points = postprocess(longitudinal, lateral, cfg, first_frame=traj.first_frame)
    return change_points


# ---------------------------------------------------------------------------
# EMA-energy baseline
# ---------------------------------------------------------------------------

def _ema(signal: np.ndarray, alpha: float) -> np.ndarray:
    """out[0] = signal[0], out[t] = alpha * signal[t] + (1 - alpha) * out[t - 1],
    stepped over Python floats (the same float64 roundings as numpy scalars)."""
    beta = 1 - alpha

    def step(prev: float, v: float) -> float:
        return alpha * v + beta * prev

    return np.fromiter(accumulate(signal.tolist(), step), np.float64, len(signal))


def detect_ema(
    traj: Trajectory,
    window_sizes: Sequence[int] = DetectorConfig.ema_window_sizes,
    ema_alpha: float = DetectorConfig.ema_alpha,
    peak_threshold: Optional[float] = None,
) -> list[int]:
    """Residual-energy change detector: events at strict local maxima of the
    scaled window energy of (signal - EMA), per channel (ax, vy).

    Returns at least one event per trajectory (the global energy maximum if
    no local maximum passes the threshold). peak_threshold defaults to
    3x the median window energy of each energy series.
    """
    n = len(traj)
    if min(window_sizes) > n:
        raise ValueError("window sizes must not exceed the trajectory length")

    candidates: list[tuple[float, int]] = []  # (energy, local index)
    best_global: tuple[float, int] | None = None
    for channel in ("ax", "vy"):
        signal = getattr(traj, channel)
        residual = signal - _ema(signal, ema_alpha)
        sq = residual * residual
        for w in window_sizes:
            half = w // 2
            kernel = np.ones(2 * half + 1)
            energy = np.convolve(sq, kernel, mode="same") / w
            threshold = (
                peak_threshold if peak_threshold is not None else 3.0 * float(np.median(energy))
            )
            peak = int(np.argmax(energy))
            if best_global is None or energy[peak] > best_global[0]:
                best_global = (float(energy[peak]), peak)
            head = energy[:n]  # a window longer than n makes energy longer than n
            mid = head[1:-1]
            peaks = np.flatnonzero((mid > head[:-2]) & (mid > head[2:]) & (mid > threshold)) + 1
            candidates.extend(zip(head[peaks].tolist(), peaks.tolist()))

    min_distance = min(window_sizes)
    kept: list[int] = []
    for _, t in sorted(candidates, key=lambda c: (-c[0], c[1])):
        if all(abs(t - k) >= min_distance for k in kept):
            kept.append(t)
    if not kept:
        kept = [best_global[1]]
    return sorted(traj.first_frame + t for t in kept)


# ---------------------------------------------------------------------------
# Detector scoring
# ---------------------------------------------------------------------------

def evaluate_detection(
    predicted: Sequence[tuple[int, Optional[CompositeLabel]]],
    truth: Sequence[tuple[int, CompositeLabel]],
    window: int = DetectorConfig.eval_window,
) -> DetectionMatch:
    """Greedy one-to-one temporal matching of predictions to truth windows.

    A prediction inside an unmatched truth window (|frame - center| <=
    window/2) whose label matches, or that has no label (None), is a TP;
    other predictions are FP; unmatched truths are FN.
    """
    half = window / 2.0
    truths = sorted(truth, key=lambda t: t[0])
    matched = [False] * len(truths)
    tp = fp = 0
    for frame, label in sorted(predicted, key=lambda p: (p[0], 0 if p[1] is None else p[1].to_index())):
        hit = None
        for i, (center, true_label) in enumerate(truths):
            if matched[i] or abs(frame - center) > half:
                continue
            if label is not None and label != true_label:
                continue
            hit = i
            break
        if hit is None:
            fp += 1
        else:
            matched[hit] = True
            tp += 1
    fn = matched.count(False)
    return DetectionMatch(tp=tp, fp=fp, fn=fn)


# ---------------------------------------------------------------------------
# Ground-truth annotation and change-point files (CSV)
# ---------------------------------------------------------------------------

ANNOTATION_COLUMNS = ("recording_id", "vehicle_id", "window_center_frame", "composite_label")
CHANGE_POINT_COLUMNS = ("recording_id", "vehicle_id", "t_c", "label_before", "label_after")


def write_annotations(
    rows: Sequence[tuple[str, int, int, CompositeLabel]], path
) -> None:
    write_csv(path, ANNOTATION_COLUMNS, (
        (recording_id, vehicle_id, center, label.to_string())
        for recording_id, vehicle_id, center, label in rows
    ))


def read_annotations(path) -> list[tuple[str, int, int, CompositeLabel]]:
    return read_csv(path, ANNOTATION_COLUMNS, lambda recording_id, vehicle_id, center, label: (
        recording_id, int(vehicle_id), int(center), CompositeLabel.from_string(label),
    ))


def write_change_points(
    rows: Sequence[tuple[str, int, ChangePoint]], path
) -> None:
    write_csv(path, CHANGE_POINT_COLUMNS, (
        (recording_id, vehicle_id, cp.t_c, cp.label_before.to_string(), cp.label_after.to_string())
        for recording_id, vehicle_id, cp in rows
    ))


def read_change_points(path) -> list[tuple[str, int, ChangePoint]]:
    return read_csv(path, CHANGE_POINT_COLUMNS, lambda recording_id, vehicle_id, t_c, before, after: (
        recording_id,
        int(vehicle_id),
        ChangePoint(int(t_c), CompositeLabel.from_string(before), CompositeLabel.from_string(after)),
    ))

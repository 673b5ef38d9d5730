"""Shared data model: trajectories, scenarios, labels, interaction matrices.

All scenario-level objects are immutable value objects; numpy arrays are
frozen (writeable=False) at construction so records can be shared between
workers without copying.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

# Fixed scenario geometry.
N_SLOTS = 9          # vehicle slots per scenario, slot 0 = ego
N_FEATURES = 6       # (x, y, vx, vy, ax, ay)
T_OBS = 100          # frames per scenario (4 s at 25 Hz)
N_CLASSES = 10       # composite ego-behavior classes
DEFAULT_DT = 0.04    # 25 Hz recordings

FEATURE_NAMES = ("x", "y", "vx", "vy", "ax", "ay")

DATASET_FORMAT_VERSION = "scenmine-dataset-v1"


class LongState(Enum):
    """Longitudinal behavior state of the ego."""

    ZERO = "zero"
    ACCELERATE = "accelerate"
    DECELERATE = "decelerate"
    EXTREME_ACCELERATE = "extreme_accelerate"
    EXTREME_DECELERATE = "extreme_decelerate"


class LatState(Enum):
    """Lateral behavior state of the ego."""

    KEEP_LANE = "keep_lane"
    LANE_CHANGE = "lane_change"


_LONG_ORDER = tuple(LongState)
_LAT_ORDER = tuple(LatState)


@dataclass(frozen=True)
class CompositeLabel:
    """Joint (longitudinal, lateral) ego behavior label; 10 distinct values."""

    longitudinal: LongState
    lateral: LatState

    def to_index(self) -> int:
        return _LONG_ORDER.index(self.longitudinal) * len(_LAT_ORDER) + _LAT_ORDER.index(self.lateral)

    @staticmethod
    def from_index(index: int) -> "CompositeLabel":
        if not 0 <= index < N_CLASSES:
            raise ValueError(f"composite label index out of range: {index}")
        lon, lat = divmod(index, len(_LAT_ORDER))
        return CompositeLabel(_LONG_ORDER[lon], _LAT_ORDER[lat])

    def to_string(self) -> str:
        return f"{self.longitudinal.value}/{self.lateral.value}"

    @staticmethod
    def from_string(text: str) -> "CompositeLabel":
        lon_s, _, lat_s = text.partition("/")
        return CompositeLabel(LongState(lon_s), LatState(lat_s))


@dataclass(frozen=True)
class ChangePoint:
    """A composite-label transition of an ego trajectory at frame ``t_c``."""

    t_c: int
    label_before: CompositeLabel
    label_after: CompositeLabel

    def __post_init__(self):
        if self.label_before == self.label_after:
            raise ValueError("change point requires label_before != label_after")


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Gap-free, constant-dt trajectory of one vehicle as frozen columns.

    Sample i is frame ``first_frame + i``. The feature columns are float64,
    ``lane_id`` is int64; all are read-only and of equal length.
    """

    vehicle_id: int
    recording_id: str
    dt: float
    first_frame: int
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    lane_id: np.ndarray

    def __post_init__(self):
        for name in FEATURE_NAMES:
            object.__setattr__(self, name, _frozen(getattr(self, name), np.float64))
        object.__setattr__(self, "lane_id", _frozen(self.lane_id, np.int64))
        lengths = {getattr(self, name).shape for name in FEATURE_NAMES + ("lane_id",)}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise ValueError(f"vehicle {self.vehicle_id}: columns must be 1-d and of equal length")
        if len(self) < 1:
            raise ValueError("trajectory must contain at least one point")
        if self.first_frame < 0:
            raise ValueError("frame indices must be non-negative")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def last_frame(self) -> int:
        return self.first_frame + len(self) - 1

    def covers(self, start_frame: int, end_frame: int) -> bool:
        """True if every frame in [start_frame, end_frame] is sampled."""
        return self.first_frame <= start_frame and self.last_frame >= end_frame


@dataclass(frozen=True)
class ScenarioTensor:
    """Fixed-shape N x F x T feature tensor with a per-slot presence mask."""

    values: np.ndarray        # (N_SLOTS, N_FEATURES, T_OBS)
    presence_mask: np.ndarray  # (N_SLOTS, T_OBS), bool

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        object.__setattr__(self, "presence_mask", _frozen(self.presence_mask, bool))
        if self.values.shape != (N_SLOTS, N_FEATURES, T_OBS):
            raise ValueError(f"tensor shape {self.values.shape} != ({N_SLOTS}, {N_FEATURES}, {T_OBS})")
        if self.presence_mask.shape != (N_SLOTS, T_OBS):
            raise ValueError(f"mask shape {self.presence_mask.shape} != ({N_SLOTS}, {T_OBS})")


@dataclass(frozen=True)
class PseudoClassLabel:
    """One-hot vector over the composite behavior classes."""

    one_hot: np.ndarray  # (N_CLASSES,)

    def __post_init__(self):
        object.__setattr__(self, "one_hot", _frozen(self.one_hot, np.float64))
        if self.one_hot.shape != (N_CLASSES,):
            raise ValueError(f"pseudo-class shape {self.one_hot.shape} != ({N_CLASSES},)")

    @staticmethod
    def from_index(index: int) -> "PseudoClassLabel":
        vec = np.zeros(N_CLASSES)
        vec[index] = 1.0
        return PseudoClassLabel(vec)

    @property
    def index(self) -> int:
        return int(np.argmax(self.one_hot))


@dataclass(frozen=True)
class InteractionMatrix:
    """Per-slot, per-frame relevance scores in [0, 1]; ego row fixed to 1."""

    values: np.ndarray  # (N_SLOTS, T_OBS)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        if self.values.shape != (N_SLOTS, T_OBS):
            raise ValueError(f"interaction shape {self.values.shape} != ({N_SLOTS}, {T_OBS})")


@dataclass(frozen=True)
class ScenarioRecord:
    """A complete extracted scenario: tensor, label, interaction, provenance."""

    tensor: ScenarioTensor
    pseudo_class: PseudoClassLabel
    interaction: InteractionMatrix
    anchor: ChangePoint
    recording_id: str
    vehicle_id: int
    record_id: str
    augmentation_parent: Optional[str] = None

    @staticmethod
    def make_record_id(recording_id: str, vehicle_id: int, t_c: int) -> str:
        return f"{recording_id}:{vehicle_id}:{t_c}"


_SUM_TOL = 1e-9


def validate_record(record: ScenarioRecord) -> list[str]:
    """Collects every invariant violation of a ScenarioRecord.

    Returns an empty list iff the record is valid; violations are data,
    not errors.
    """
    violations: list[str] = []
    vals = record.tensor.values
    mask = record.tensor.presence_mask
    inter = record.interaction.values

    if not np.all(np.isfinite(vals)):
        violations.append("tensor contains non-finite values")
    if not np.all(mask[0]):
        violations.append("ego slot (0) must be present at every frame")
    absent = ~mask  # (N, T)
    if np.any(vals[absent[:, None, :].repeat(N_FEATURES, axis=1)] != 0.0):
        violations.append("pseudo-vehicle slots must carry all-zero features")

    one_hot = record.pseudo_class.one_hot
    if not (np.count_nonzero(one_hot == 1.0) == 1 and np.count_nonzero(one_hot) == 1):
        violations.append("pseudo-class must be exactly one-hot")

    if np.any(inter < 0.0) or np.any(inter > 1.0):
        violations.append("interaction entries must lie in [0, 1]")
    if not np.all(inter[0] == 1.0):
        violations.append("interaction ego row must equal 1 at every frame")
    if np.any(inter[1:][~mask[1:]] != 0.0):
        violations.append("interaction rows of absent slots must equal 0")
    neighbor_present = mask[1:]  # (N-1, T)
    any_neighbor = neighbor_present.any(axis=0)
    sums = (inter[1:] * neighbor_present).sum(axis=0)
    if np.any(np.abs(sums[any_neighbor] - 1.0) > _SUM_TOL):
        violations.append("present-neighbor interaction entries must sum to 1 per frame")

    if record.anchor.label_before == record.anchor.label_after:
        violations.append("anchor labels before and after the change must differ")

    return violations


# ---------------------------------------------------------------------------
# Dataset file format: one JSON header line, then one JSON record per line.
# ---------------------------------------------------------------------------

class DatasetFormatError(Exception):
    """Raised for unreadable or unsupported dataset files."""


def _record_to_json(record: ScenarioRecord) -> str:
    payload = {
        "record_id": record.record_id,
        "recording_id": record.recording_id,
        "vehicle_id": record.vehicle_id,
        "anchor": {
            "t_c": record.anchor.t_c,
            "before": record.anchor.label_before.to_string(),
            "after": record.anchor.label_after.to_string(),
        },
        "pseudo_class": record.pseudo_class.index,
        "tensor": record.tensor.values.ravel().tolist(),
        "interaction": record.interaction.values.ravel().tolist(),
        "presence_mask": record.tensor.presence_mask.ravel().astype(int).tolist(),
        "augmentation_parent": record.augmentation_parent,
    }
    return json.dumps(payload, separators=(",", ":"))


def _record_from_json(line: str) -> ScenarioRecord:
    obj = json.loads(line)
    tensor = ScenarioTensor(
        np.array(obj["tensor"], dtype=np.float64).reshape(N_SLOTS, N_FEATURES, T_OBS),
        np.array(obj["presence_mask"], dtype=bool).reshape(N_SLOTS, T_OBS),
    )
    anchor = ChangePoint(
        t_c=int(obj["anchor"]["t_c"]),
        label_before=CompositeLabel.from_string(obj["anchor"]["before"]),
        label_after=CompositeLabel.from_string(obj["anchor"]["after"]),
    )
    return ScenarioRecord(
        tensor=tensor,
        pseudo_class=PseudoClassLabel.from_index(int(obj["pseudo_class"])),
        interaction=InteractionMatrix(
            np.array(obj["interaction"], dtype=np.float64).reshape(N_SLOTS, T_OBS)
        ),
        anchor=anchor,
        recording_id=obj["recording_id"],
        vehicle_id=int(obj["vehicle_id"]),
        record_id=obj["record_id"],
        augmentation_parent=obj.get("augmentation_parent"),
    )


def write_dataset(records: Sequence[ScenarioRecord], path, dt: float = DEFAULT_DT) -> None:
    header = {
        "format": DATASET_FORMAT_VERSION,
        "n_slots": N_SLOTS,
        "n_features": N_FEATURES,
        "t_obs": T_OBS,
        "n_classes": N_CLASSES,
        "dt": dt,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in records:
            fh.write(_record_to_json(record) + "\n")


def read_dataset(path) -> tuple[list[ScenarioRecord], float]:
    """Reads a dataset file; any unreadable, truncated or inconsistent line
    raises DatasetFormatError naming the file and line."""
    line_no = 1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise DatasetFormatError(f"{path}: empty dataset file")
            header = json.loads(header_line)
            version = header.get("format") if isinstance(header, dict) else None
            if version != DATASET_FORMAT_VERSION:
                raise DatasetFormatError(f"{path}: unsupported dataset format {version!r}")
            dt = float(header["dt"])
            records = []
            for line_no, line in enumerate(fh, start=2):
                if line.strip():
                    records.append(_record_from_json(line))
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise DatasetFormatError(f"{path}: line {line_no}: malformed dataset ({exc!r})") from exc
    return records, dt

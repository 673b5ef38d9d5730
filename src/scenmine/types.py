"""Shared data model: trajectories, scenarios, labels, interaction matrices.

All scenario-level objects are immutable value objects; numpy arrays are
frozen (writeable=False) at construction so records can be shared between
workers without copying.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

# Fixed scenario geometry.
N_SLOTS = 9          # vehicle slots per scenario, slot 0 = ego
N_FEATURES = 6       # (x, y, vx, vy, ax, ay)
T_OBS = 100          # frames per scenario (4 s at 25 Hz)
N_CLASSES = 10       # composite ego-behavior classes
DEFAULT_DT = 0.04    # 25 Hz recordings

FEATURE_NAMES = ("x", "y", "vx", "vy", "ax", "ay")

DATASET_FORMAT_VERSION = "scenmine-dataset-v2"


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


def integral(value) -> int:
    """``value`` as an int if it is an integer or an integral number; a
    boolean, a non-number or a fraction raise ValueError, an infinity
    OverflowError. The one rule for integers read from outside input."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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
# Binary container of datasets, checkpoints and tracks memos: one JSON header
# line, then raw blocks (floats as <f8, integers as <i8, flags as 0/1 bytes).
# ---------------------------------------------------------------------------

def write_blocks(path, header: dict, blocks: Sequence[tuple[str, np.ndarray]]) -> None:
    """Writes ``header`` plus an ``"arrays"`` list of ``[name, shape]`` as one
    compact, key-sorted JSON line, then the bytes of each block in order."""
    full = {**header, "arrays": [[name, list(arr.shape)] for name, arr in blocks]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(full, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype={"b": bool, "i": "<i8"}.get(arr.dtype.kind, "<f8")).data)


def read_blocks(path, fmt: str, kind: str, layout, error: type[Exception]):
    """Reads a file of ``write_blocks`` in format ``fmt`` and returns the
    ``result`` of ``layout(header) -> (result, blocks)`` once the ``(name,
    array)`` list ``blocks`` is filled from the file. Any damage (see the
    checks below, and a KeyError, TypeError or ValueError of ``layout``)
    raises ``error`` naming ``path``."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise error(f"{path}: unreadable {kind} header") from exc
        if not isinstance(header, dict):
            raise error(f"{path}: {kind} header is not a mapping")
        if header.get("format") != fmt:
            raise error(f"{path}: unsupported {kind} format {header.get('format')!r}")
        try:
            result, blocks = layout(header)
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}: invalid {kind} header ({exc!r})") from exc
        if header.get("arrays") != [[name, list(arr.shape)] for name, arr in blocks]:
            raise error(f"{path}: array list does not match the {kind} header")
        for name, arr in blocks:
            raw = arr.reshape(-1).view(np.uint8)
            if fh.readinto(raw) != raw.size:
                raise error(f"{path}: truncated in array {name}")
            if arr.dtype == bool:
                if np.any(raw > 1):
                    raise error(f"{path}: byte other than 0 or 1 in array {name}")
            elif not np.isfinite(arr).all():
                raise error(f"{path}: non-finite value in array {name}")
        if fh.read(1):
            raise error(f"{path}: trailing bytes after the last array")
    return result


class DatasetFormatError(Exception):
    """Raised for unreadable or unsupported stage artifacts: datasets, tracks
    memos and the small CSV and JSON files between stages."""


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], lineterminator: str = "\r\n") -> None:
    """Writes the header ``columns``, then ``rows``, with ``csv.writer``
    (fields quoted where needed, each line ended by ``lineterminator``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv(path, columns: Sequence[str], convert) -> list:
    """``convert(*fields)`` of each non-blank row of the UTF-8 CSV file at
    ``path``, ``fields`` being the row's values of ``columns``, which the
    header names in any order among other columns. A missing column, a row
    with more or fewer fields than the header, a ValueError or TypeError of
    ``convert``, undecodable bytes or a ``csv.Error`` raise DatasetFormatError
    naming the path and the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # decoded whole, so that a bad byte's line is known
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, [])
        at = [header.index(name) for name in columns]  # a missing column raises ValueError
        out = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields under a header of {len(header)}")
            out.append(convert(*(row[i] for i in at)))
        return out
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # the physical line of the bad byte
        raise DatasetFormatError(f"{path}: malformed row (line {line}: {exc})") from exc
    except (ValueError, TypeError, csv.Error) as exc:
        raise DatasetFormatError(f"{path}: malformed row (line {reader.line_num}: {exc})") from exc


def write_json(obj: dict, path) -> None:
    """Writes ``obj`` as indented, key-sorted JSON and a newline; a NaN or
    infinity raises ValueError instead of being written as a bare constant."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path, error: type[Exception]) -> dict:
    """The JSON object in the file at ``path``. Bytes that are not UTF-8,
    invalid JSON, the constants NaN and Infinity or a top level that is not
    an object raise ``error`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_no_constant)
    except ValueError as exc:  # includes UnicodeDecodeError and JSONDecodeError
        raise error(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(obj, dict):
        raise error(f"{path}: not a JSON object")
    return obj


# The header entry of one record: key -> accepted JSON types.
_RECORD_FIELDS = {"record_id": str, "recording_id": str, "vehicle_id": int, "t_c": int, "before": str,
                  "after": str, "pseudo_class": int, "augmentation_parent": (str, type(None))}


def _record_fields(entry: dict) -> dict:
    """The ScenarioRecord arguments but the arrays of one header entry."""
    for key, kind in _RECORD_FIELDS.items():
        if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            raise TypeError(f"record field {key}={entry[key]!r}")
    if not 0 <= entry["pseudo_class"] < N_CLASSES:
        raise ValueError(f"pseudo_class {entry['pseudo_class']} outside [0, {N_CLASSES})")
    before, after = (CompositeLabel.from_string(entry[key]) for key in ("before", "after"))
    return {
        **{key: entry[key] for key in ("record_id", "recording_id", "vehicle_id", "augmentation_parent")},
        "pseudo_class": PseudoClassLabel.from_index(entry["pseudo_class"]),
        "anchor": ChangePoint(entry["t_c"], before, after),
    }


def write_dataset(records: Sequence[ScenarioRecord], path, dt: float = DEFAULT_DT) -> None:
    """Writes the records' metadata into the header and their tensors, masks
    and interaction matrices as three blocks."""
    n = len(records)
    write_blocks(path, {
        "format": DATASET_FORMAT_VERSION,
        "dt": dt,
        "n_records": n,
        "records": [
            {"record_id": r.record_id, "recording_id": r.recording_id, "vehicle_id": r.vehicle_id,
             "t_c": r.anchor.t_c, "before": r.anchor.label_before.to_string(),
             "after": r.anchor.label_after.to_string(), "pseudo_class": r.pseudo_class.index,
             "augmentation_parent": r.augmentation_parent}
            for r in records
        ],
    }, [
        ("tensor", np.array([r.tensor.values for r in records]).reshape(n, N_SLOTS, N_FEATURES, T_OBS)),
        ("mask", np.array([r.tensor.presence_mask for r in records], dtype=bool).reshape(n, N_SLOTS, T_OBS)),
        ("interaction", np.array([r.interaction.values for r in records]).reshape(n, N_SLOTS, T_OBS)),
    ])


def read_dataset(path) -> tuple[list[ScenarioRecord], float]:
    """Reads a file of ``write_dataset``; the records' arrays are read-only
    views into its blocks. Besides the damage ``read_blocks`` finds, a
    ``dt`` that is not positive and finite, a malformed record entry, a
    pseudo-class outside [0, N_CLASSES), equal anchor labels or a repeated
    record id raise DatasetFormatError naming the file."""
    def layout(header):
        dt, entries, n = float(header["dt"]), header["records"], header["n_records"]
        if not 0.0 < dt < np.inf:
            raise ValueError(f"dt {dt} is not positive and finite")
        if not isinstance(entries, list) or n != len(entries):
            raise ValueError(f"n_records {n!r} does not count the record entries")
        blocks = [
            ("tensor", np.empty((n, N_SLOTS, N_FEATURES, T_OBS))),
            ("mask", np.empty((n, N_SLOTS, T_OBS), dtype=bool)),
            ("interaction", np.empty((n, N_SLOTS, T_OBS))),
        ]
        fields = [_record_fields(e) for e in entries]
        ids = [f["record_id"] for f in fields]
        if len(set(ids)) != n:
            raise ValueError(f"record_id {next(i for i in ids if ids.count(i) > 1)!r} is repeated")
        return (dt, fields, blocks), blocks

    dt, fields, blocks = read_blocks(path, DATASET_FORMAT_VERSION, "dataset", layout, DatasetFormatError)
    tensors, masks, interactions = (arr for _, arr in blocks)
    for arr in tensors, masks, interactions:
        arr.setflags(write=False)
    return [
        ScenarioRecord(ScenarioTensor(tensors[i], masks[i]), interaction=InteractionMatrix(interactions[i]), **f)
        for i, f in enumerate(fields)
    ], dt

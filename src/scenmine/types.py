"""Shared data model and artifact containers: trajectories as frozen
(F, n) feature blocks, behavior labels and change points, and a dataset as
the header entries and (M, N, F, T), (M, N, T) and (M, N, T) blocks its
file holds.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

# Fixed scenario geometry.
N_SLOTS = 9          # vehicle slots per scenario, slot 0 = ego
N_FEATURES = 6       # (x, y, vx, vy, ax, ay)
T_OBS = 100          # frames per scenario (4 s at 25 Hz)
N_CLASSES = 10       # composite ego-behavior classes

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


def _frozen(arr, dtype) -> np.ndarray:
    """``arr`` as a read-only array of ``dtype``: a view where it already
    is one, so slices of one block stay slices of it."""
    out = np.asarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Gap-free, constant-dt trajectory of one vehicle.

    Sample i is frame ``first_frame + i``. ``features`` is its motion as
    ``tracks.bin`` and a record's slot hold it: a read-only float64
    ``(len(FEATURE_NAMES), n)`` block, one row per feature, which
    ``traj.x`` ... ``traj.ay`` read as row views. ``lane_id`` is the
    read-only int64 lane of each of the n samples.
    """

    vehicle_id: int
    recording_id: str
    dt: float
    first_frame: int
    features: np.ndarray
    lane_id: np.ndarray

    x, y, vx, vy, ax, ay = (property(lambda self, f=f: self.features[f]) for f in range(len(FEATURE_NAMES)))

    def __post_init__(self):
        object.__setattr__(self, "features", _frozen(self.features, np.float64))
        object.__setattr__(self, "lane_id", _frozen(self.lane_id, np.int64))
        if self.lane_id.ndim != 1 or self.features.shape != (len(FEATURE_NAMES), len(self.lane_id)):
            raise ValueError(f"vehicle {self.vehicle_id}: features of shape {self.features.shape} do not "
                             f"match lane ids of shape {self.lane_id.shape}")
        if len(self) < 1:
            raise ValueError("trajectory must contain at least one point")
        if self.first_frame < 0:
            raise ValueError("frame indices must be non-negative")

    def __len__(self) -> int:
        return len(self.lane_id)

    @property
    def last_frame(self) -> int:
        return self.first_frame + len(self) - 1

    def covers(self, start_frame: int, end_frame: int) -> bool:
        """True if every frame in [start_frame, end_frame] is sampled."""
        return self.first_frame <= start_frame and self.last_frame >= end_frame


@dataclass(frozen=True, eq=False)
class Dataset:
    """The records of a dataset as its file holds them: one header entry
    per record (see ``record_entry``) and three blocks, the (M, N, F, T)
    tensors, (M, N, T) presence masks and (M, N, T) interaction matrices."""

    entries: list[dict]
    tensor: np.ndarray
    mask: np.ndarray
    interaction: np.ndarray

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def empty(entries: Sequence[dict]) -> "Dataset":
        """The records ``entries`` with zero-filled blocks, for the caller
        to write each record's rows into."""
        return Dataset(list(entries), *(np.zeros(shape, dtype) for _, shape, dtype in _dataset_shapes(len(entries))))

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.tensor, self.mask, self.interaction

    def one_hot(self) -> np.ndarray:
        """The (M, N_CLASSES) one-hot rows of the records' pseudo-classes."""
        return np.eye(N_CLASSES)[[e["pseudo_class"] for e in self.entries]].reshape(len(self), N_CLASSES)


_SUM_TOL = 1e-9


def validate_arrays(tensors: np.ndarray, masks: np.ndarray, interactions: np.ndarray) -> list[list[str]]:
    """Every invariant violation of each of M records, given as the (M, N, F,
    T) tensors, (M, N, T) presence masks and (M, N, T) interaction matrices
    of a dataset's blocks, checked in one batched pass. Record i is valid iff
    list i is empty; violations are data, not errors."""
    absent = ~masks
    neighbors = masks[:, 1:]
    sums = (interactions[:, 1:] * neighbors).sum(axis=1)  # (M, T)
    checks = (
        (~np.isfinite(tensors).all(axis=(1, 2, 3)), "tensor contains non-finite values"),
        (~masks[:, 0].all(axis=1), "ego slot (0) must be present at every frame"),
        (((tensors != 0.0) & absent[:, :, None, :]).any(axis=(1, 2, 3)),
         "pseudo-vehicle slots must carry all-zero features"),
        (((interactions < 0.0) | (interactions > 1.0)).any(axis=(1, 2)), "interaction entries must lie in [0, 1]"),
        ((interactions[:, 0] != 1.0).any(axis=1), "interaction ego row must equal 1 at every frame"),
        (((interactions[:, 1:] != 0.0) & absent[:, 1:]).any(axis=(1, 2)),
         "interaction rows of absent slots must equal 0"),
        (((np.abs(sums - 1.0) > _SUM_TOL) & neighbors.any(axis=1)).any(axis=1),
         "present-neighbor interaction entries must sum to 1 per frame"),
    )
    flags = np.stack([bad for bad, _ in checks], axis=1).tolist()
    return [[message for (_, message), bad in zip(checks, row) if bad] for row in flags]


# ---------------------------------------------------------------------------
# Binary container of datasets, checkpoints and tracks memos: one JSON header
# line, then raw blocks (floats little-endian at their own width, <f8 or
# <f4, integers as <i8, flags as 0/1 bytes).
# ---------------------------------------------------------------------------

def _finite(arr: np.ndarray) -> bool:
    """True if ``arr`` holds no NaN or infinity. Its min and max carry any
    NaN through, so no temporary of ``arr``'s size is made."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _disk_dtype(dtype) -> np.dtype:
    """The little-endian dtype ``write_blocks`` writes an array of ``dtype``
    as: flags as bytes, integers as ``<i8``, floats at their own width."""
    dtype = np.dtype(dtype)
    return np.dtype({"b": bool, "i": "<i8"}.get(dtype.kind, dtype.newbyteorder("<")))


def write_blocks(path, header: dict, blocks: Sequence[tuple[str, np.ndarray | Sequence[np.ndarray]]],
                 error: type[Exception]) -> None:
    """Writes ``header`` plus an ``"arrays"`` list of ``[name, shape]`` as one
    compact, key-sorted JSON line, then the bytes of each block in order, a
    float block at its array's width. A block may be given as a sequence of
    parts of one dtype and one shape past the first axis: they are written
    back to back, and the list names the shape of their concatenation.
    Parts that differ, or a NaN or infinity in a float block, raise
    ``error`` naming ``path`` before the file is opened."""
    blocks = [(name, [arr] if isinstance(arr, np.ndarray) else list(arr)) for name, arr in blocks]
    arrays = []
    for name, parts in blocks:
        if len({(part.dtype, part.shape[1:]) for part in parts}) != 1:
            raise error(f"{path}: the parts of array {name} differ in dtype or in shape past the first axis")
        if parts[0].dtype.kind == "f" and not all(_finite(part) for part in parts):
            raise error(f"{path}: non-finite value in array {name}")
        shape = parts[0].shape if len(parts) == 1 else (sum(len(part) for part in parts), *parts[0].shape[1:])
        arrays.append([name, list(shape)])
    with open(path, "wb") as fh:
        fh.write(json.dumps({**header, "arrays": arrays}, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, parts in blocks:
            for part in parts:
                fh.write(np.ascontiguousarray(part, dtype=_disk_dtype(part.dtype)).data)


def _read_header(fh, path, fmt: str, kind: str, layout, error: type[Exception]):
    """``layout(header) -> (result, shapes)`` of the header line that ``fh``
    reads from a ``write_blocks`` file in format ``fmt``, ``shapes`` being
    the ``(name, shape, dtype)`` of each block in order; the header's array
    list must name them. Any damage (see the checks below, and a KeyError,
    TypeError, ValueError, OverflowError or MemoryError that ``layout``
    raises on the header's values) raises ``error`` naming ``path``. An
    array list that names more values than the bytes left in the file, each
    value being at least one byte, is refused before ``layout`` is called."""
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except ValueError as exc:  # includes UnicodeDecodeError
        raise error(f"{path}: unreadable {kind} header") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: {kind} header is not a mapping")
    if header.get("format") != fmt:
        raise error(f"{path}: unsupported {kind} format {header.get('format')!r}")
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    try:  # counts the shapes of integers only: the match below refuses any other list
        values = sum(math.prod(shape) for _, shape in header.get("arrays") if all(type(n) is int for n in shape))
    except (TypeError, ValueError):
        values = 0
    if values > left:
        raise error(f"{path}: {kind} header names {values} array values, more than the {left} bytes after it")
    try:
        result, shapes = layout(header)
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise error(f"{path}: invalid {kind} header ({exc!r})") from exc
    if header.get("arrays") != [[name, list(shape)] for name, shape, _ in shapes]:
        raise error(f"{path}: array list does not match the {kind} header")
    return result, shapes


def read_blocks(path, fmt: str, kind: str, layout, error: type[Exception]):
    """``(result, arrays)``: the ``result`` of ``_read_header`` and its
    blocks, each allocated here at the dtype ``write_blocks`` wrote it as
    and filled from the file. A shape that cannot be allocated (a
    ValueError, TypeError or MemoryError of ``np.empty``) is an invalid
    header; a short block, a non-finite float, a flag byte other than 0 or
    1 or bytes after the last block raise ``error`` naming ``path`` too."""
    with open(path, "rb") as fh:
        result, shapes = _read_header(fh, path, fmt, kind, layout, error)
        try:
            arrays = [np.empty(shape, _disk_dtype(dtype)) for _, shape, dtype in shapes]
        except (TypeError, ValueError, MemoryError) as exc:
            raise error(f"{path}: invalid {kind} header ({exc!r})") from exc
        for (name, _, _), arr in zip(shapes, arrays):
            raw = arr.reshape(-1).view(np.uint8)
            if fh.readinto(raw) != raw.size:
                raise error(f"{path}: truncated in array {name}")
            if arr.dtype == bool:
                if np.any(raw > 1):
                    raise error(f"{path}: byte other than 0 or 1 in array {name}")
            elif not _finite(arr):
                raise error(f"{path}: non-finite value in array {name}")
        if fh.read(1):
            raise error(f"{path}: trailing bytes after the last array")
    return result, arrays


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
DATASET_BLOCKS = ("tensor", "mask", "interaction")


def _dataset_shapes(n: int) -> list[tuple[str, tuple[int, ...], type]]:
    """The ``(name, shape, dtype)`` of each block of ``n`` records."""
    cells = (n, N_SLOTS, T_OBS)
    return list(zip(DATASET_BLOCKS, ((n, N_SLOTS, N_FEATURES, T_OBS), cells, cells), (np.float64, bool, np.float64)))


def record_entry(recording_id: str, vehicle_id: int, anchor: ChangePoint) -> dict:
    """The header entry of the record of vehicle ``vehicle_id`` of
    recording ``recording_id`` at the change point ``anchor``: its id is
    ``recording:vehicle:t_c``, its pseudo-class the label after the change,
    and it has no augmentation parent."""
    return {"record_id": f"{recording_id}:{vehicle_id}:{anchor.t_c}", "recording_id": recording_id,
            "vehicle_id": vehicle_id, "t_c": anchor.t_c, "before": anchor.label_before.to_string(),
            "after": anchor.label_after.to_string(), "pseudo_class": anchor.label_after.to_index(),
            "augmentation_parent": None}


def _record_fields(entry: dict) -> dict:
    """The keys of ``_RECORD_FIELDS`` of one header entry, once each holds
    its type, ``pseudo_class`` is a class index and ``before`` and
    ``after`` are two different composite labels."""
    for key, kind in _RECORD_FIELDS.items():
        if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
            raise TypeError(f"record field {key}={entry[key]!r}")
    if not 0 <= entry["pseudo_class"] < N_CLASSES:
        raise ValueError(f"pseudo_class {entry['pseudo_class']} outside [0, {N_CLASSES})")
    if CompositeLabel.from_string(entry["before"]) == CompositeLabel.from_string(entry["after"]):
        raise ValueError(f"record {entry['record_id']!r}: before and after are the same label")
    return {key: entry[key] for key in _RECORD_FIELDS}


def write_dataset(dataset: Dataset, path, dt: float) -> None:
    """Writes the records' entries into the header and their blocks after it;
    each block may be a sequence of parts (see ``write_blocks``)."""
    write_blocks(path, {"format": DATASET_FORMAT_VERSION, "dt": dt, "n_records": len(dataset),
                        "records": dataset.entries},
                 list(zip(DATASET_BLOCKS, dataset.blocks)), DatasetFormatError)


def _dataset_layout(header):
    """``((entries, dt), shapes)`` of a dataset header: its record entries
    (see ``_record_fields``), its ``dt`` and the ``_dataset_shapes`` of its
    records. A ``dt`` that is not positive and finite, a malformed record
    entry or a repeated record id raise ValueError, KeyError or TypeError."""
    dt, entries, n = float(header["dt"]), header["records"], header["n_records"]
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt {dt} is not positive and finite")
    if not isinstance(entries, list) or n != len(entries):
        raise ValueError(f"n_records {n!r} does not count the record entries")
    entries = [_record_fields(e) for e in entries]
    ids = [e["record_id"] for e in entries]
    if len(set(ids)) != n:
        raise ValueError(f"record_id {next(i for i in ids if ids.count(i) > 1)!r} is repeated")
    return (entries, dt), _dataset_shapes(len(entries))


def read_dataset_header(path) -> tuple[list[dict], float]:
    """The record entries and ``dt`` of a file of ``write_dataset``, read
    from its header alone, which allocates no block. Any damage to the
    header (see ``_read_header`` and ``_dataset_layout``) raises
    DatasetFormatError naming the file."""
    with open(path, "rb") as fh:
        (entries, dt), _ = _read_header(fh, path, DATASET_FORMAT_VERSION, "dataset", _dataset_layout,
                                        DatasetFormatError)
    return entries, dt


def read_dataset_arrays(path) -> tuple[Dataset, float]:
    """The dataset of a file of ``write_dataset``, its blocks read-only, and
    its ``dt``; damage that ``read_blocks`` finds raises DatasetFormatError."""
    (entries, dt), blocks = read_blocks(path, DATASET_FORMAT_VERSION, "dataset", _dataset_layout,
                                        DatasetFormatError)
    for arr in blocks:
        arr.setflags(write=False)
    return Dataset(entries, *blocks), dt


def read_dataset(path) -> tuple[list[tuple], float]:
    """The ``(tensor, mask, interaction)`` row of each record of a file of
    ``write_dataset``, and its ``dt``. With ``validate_record``, perfbench's
    output check, until perfbench reads with ``read_dataset_arrays`` and
    checks with ``validate_arrays`` (ROADMAP item 3)."""
    dataset, dt = read_dataset_arrays(path)
    return list(zip(*dataset.blocks)), dt


def validate_record(row: tuple) -> list[str]:
    """``validate_arrays`` of one row of ``read_dataset``: perfbench's
    output check, as ``read_dataset`` says."""
    return validate_arrays(*(arr[None] for arr in row))[0]

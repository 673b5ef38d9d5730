"""Fuzzing of the artifact readers. The binary container readers
``read_dataset_arrays``, ``load_checkpoint`` and ``ingest.read_tracks_bin`` fed
arbitrary bytes, or a valid file that is truncated, has one byte flipped,
has bytes appended or has one float replaced, raise only their declared
error or return a result that still holds the reader's guarantees. So do
the readers of the small CSV and JSON artifacts (``read_annotations``,
``read_change_points``, ``read_pairs``, the assignments reader and the
detection and clustering JSON readers) fed arbitrary bytes after a valid
first line, or a valid file that is truncated, has one byte flipped or has
one number replaced by a value out of range or of another type."""
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scenmine import cli, clustering, corpus, cvqvae, detect, dgsfm, ingest
from scenmine.types import (
    FEATURE_NAMES,
    N_CLASSES,
    N_FEATURES,
    N_SLOTS,
    T_OBS,
    ChangePoint,
    CompositeLabel,
    DatasetFormatError,
    read_dataset_arrays,
    write_csv,
    write_dataset,
    write_json,
)

from conftest import item_size, make_traj, take

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _valid_dataset(result) -> None:
    dataset, dt = result
    assert 0.0 < dt < np.inf
    n = len(dataset)
    assert dataset.tensor.shape == (n, N_SLOTS, N_FEATURES, T_OBS)
    assert dataset.mask.shape == dataset.interaction.shape == (n, N_SLOTS, T_OBS)
    assert dataset.mask.dtype == bool
    assert set(dataset.mask.view(np.uint8).ravel().tolist()) <= {0, 1}
    assert np.isfinite(dataset.tensor).all() and np.isfinite(dataset.interaction).all()
    for entry in dataset.entries:
        assert 0 <= entry["pseudo_class"] < N_CLASSES
        assert CompositeLabel.from_string(entry["before"]) != CompositeLabel.from_string(entry["after"])


def _valid_checkpoint(params) -> None:
    layout = cvqvae.init_params(
        cvqvae.TrainConfig(hidden=params.hidden, latent_dim=params.latent_dim,
                           codebook_size=params.codebook_size),
        None, params.n_slots, params.n_features, params.t_obs, params.n_classes,
    )
    for (name, arr), (_, want) in zip(cvqvae._checkpoint_arrays(params), cvqvae._checkpoint_arrays(layout)):
        assert arr.shape == want.shape and arr.dtype == want.dtype, name
        assert np.isfinite(arr).all(), name


def _dataset_bytes() -> bytes:
    dataset = corpus.build_archetype_corpus(1, 2, dgsfm.DgsfmConfig())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.jsonl"
        write_dataset(take(dataset, slice(2)), path, dt=0.04)
        return path.read_bytes()


def _checkpoint_bytes() -> bytes:
    cfg = cvqvae.TrainConfig(hidden=(4,), latent_dim=3, codebook_size=3)
    params = cvqvae.init_params(cfg, np.random.default_rng(0), n_slots=2, n_features=2, t_obs=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        cvqvae.save_checkpoint(params, path)
        return path.read_bytes()


MEMO_DIGEST = "0" * 64
MEMO_META = ingest.RecordingMeta("fuzz", 25.0, 3, {lane: 1 for lane in range(1, 7)})


def _memo_bytes() -> bytes:
    trajs = [make_traj(n=3, vehicle_id=1), make_traj(n=2, vehicle_id=4, first_frame=7, lane_id=5)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tracks.bin"
        ingest.write_tracks_bin(trajs, MEMO_DIGEST, path)
        return path.read_bytes()


def _valid_memo(trajs) -> None:
    """None (the memo of another tracks.csv) or valid trajectories."""
    for t in trajs or []:
        assert len(t) >= 1 and t.first_frame >= 0 and t.dt == MEMO_META.dt
        assert t.lane_id.dtype == np.int64 and len(t.lane_id) == len(t)
        assert all(np.isfinite(getattr(t, name)).all() for name in FEATURE_NAMES)


READERS = {
    "dataset": (_dataset_bytes(), read_dataset_arrays, DatasetFormatError, _valid_dataset),
    "checkpoint": (_checkpoint_bytes(), cvqvae.load_checkpoint, cvqvae.ContractError, _valid_checkpoint),
    "tracks_memo": (_memo_bytes(), lambda path: ingest.read_tracks_bin(path, MEMO_DIGEST, MEMO_META),
                    DatasetFormatError, _valid_memo),
}


def _file_bytes(write) -> bytes:
    """The bytes ``write(path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid"
        write(path)
        return path.read_bytes()


ZERO_KL = CompositeLabel.from_string("zero/keep_lane")
ACC_KL = CompositeLabel.from_string("accelerate/keep_lane")
ASSIGNED = ("fuzz:1:40", "fuzz,2:9:7", "fuzz:1:40:aug")


def _valid_annotations(rows) -> None:
    for recording_id, vehicle_id, center, label in rows:
        assert isinstance(recording_id, str) and type(vehicle_id) is int
        assert type(center) is int and isinstance(label, CompositeLabel)


def _valid_change_points(rows) -> None:
    for recording_id, vehicle_id, cp in rows:
        assert isinstance(recording_id, str) and type(vehicle_id) is int
        assert isinstance(cp, ChangePoint) and type(cp.t_c) is int and cp.label_before != cp.label_after


def _valid_pairs(rows) -> None:
    assert all(isinstance(parent, str) and isinstance(child, str) for parent, child in rows)


def _valid_assignments(by_backend) -> None:
    assert by_backend and set(by_backend) <= set(clustering.BACKENDS)
    for labels in by_backend.values():
        assert set(labels) == set(ASSIGNED)
        assert all(type(label) is int and 0 <= label < len(ASSIGNED) for label in labels.values())


def _valid_detection(match) -> None:
    assert all(type(n) is int and n >= 0 for n in (match.tp, match.fp, match.fn))


def _valid_clustering(by_backend) -> None:
    assert by_backend and set(by_backend) <= set(clustering.BACKENDS)
    for entry in by_backend.values():
        assert 0 <= entry["purity_entropy"] < math.inf and 0 <= entry["augmentation_accuracy"] <= 1


# kind -> (valid file, reader, declared error, check of a result), like READERS.
TEXT_READERS = {
    "truth": (_file_bytes(lambda path: detect.write_annotations(
        [("fuzz", 1, 40, ACC_KL), ("fuzz,2", 9, 7, ZERO_KL)], path)),
        detect.read_annotations, DatasetFormatError, _valid_annotations),
    "changepoints": (_file_bytes(lambda path: detect.write_change_points(
        [("fuzz", 1, ChangePoint(40, ZERO_KL, ACC_KL)), ("fuzz,2", 9, ChangePoint(7, ACC_KL, ZERO_KL))], path)),
        detect.read_change_points, DatasetFormatError, _valid_change_points),
    "pairs": (_file_bytes(lambda path: corpus.write_pairs([(ASSIGNED[0], ASSIGNED[2])], path)),
              corpus.read_pairs, DatasetFormatError, _valid_pairs),
    "assignments": (_file_bytes(lambda path: write_csv(  # as `scenmine cluster` writes it
        path, cli.ASSIGNMENT_COLUMNS,
        [(rid, backend, i) for backend in ("codebook", "kmeans") for i, rid in enumerate(ASSIGNED)],
        lineterminator="\n")),
        lambda path: cli._assignment_labels(path, set(ASSIGNED)), DatasetFormatError, _valid_assignments),
    "detection": (_file_bytes(lambda path: write_json(
        {"method": "rule", "tp": 3, "fp": 1, "fn": 0, "precision": 0.75, "recall": 1.0}, path)),
        lambda path: cli._detection_match(path, "rule"), DatasetFormatError, _valid_detection),
    "clustering": (_file_bytes(lambda path: write_json(
        {"codebook": {"purity_entropy": 0.5, "augmentation_accuracy": 1.0},
         "kmeans": {"purity_entropy": 0.0, "augmentation_accuracy": 0.25}}, path)),
        cli._clustering_metrics, DatasetFormatError, _valid_clustering),
}
ALL_READERS = {**READERS, **TEXT_READERS}


def _regions(valid: bytes) -> list[tuple[int, int, int]]:
    """(start, end, item size) of the header line and of each block."""
    start = valid.index(b"\n") + 1
    regions = [(0, start, 1)]
    header = json.loads(valid[:start])
    for name, shape in header["arrays"]:
        size = item_size(header, name)
        end = start + int(np.prod(shape)) * size
        if end > start:
            regions.append((start, end, size))
        start = end
    return regions


@st.composite
def damaged_text(draw, valid: bytes) -> bytes:
    """``valid`` truncated at a random offset, with one byte changed, or with
    one number replaced by a value out of range or of another type."""
    kind = draw(st.sampled_from(["truncate", "flip", "number"]))
    if kind == "number":
        number = draw(st.sampled_from(list(re.finditer(rb"-?[0-9][0-9.e+-]*", valid))))
        value = draw(st.sampled_from([b"-1", b"2", b"0.5", b"1e999", b"true", b'"3"', b"x", b""]))
        return valid[:number.start()] + value + valid[number.end():]
    at = draw(st.integers(0, len(valid) - 1))
    if kind == "truncate":
        return valid[:at]
    return valid[:at] + bytes([valid[at] ^ draw(st.integers(1, 255))]) + valid[at + 1:]


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` truncated at a random offset, with one byte changed, with
    bytes appended, or with one float of a block replaced by any float
    (NaN and inf included). Offsets are drawn within a random region, the
    header or one block, so that short regions are hit as often as long
    ones."""
    kind = draw(st.sampled_from(["truncate", "flip", "append", "float"]))
    if kind == "append":
        return valid + draw(st.binary(min_size=1, max_size=16))
    start, end, size = draw(st.sampled_from(_regions(valid)))
    if kind == "float" and size > 1:
        at = start + size * draw(st.integers(0, (end - start) // size - 1))
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(width=8 * size))
        return valid[:at] + struct.pack({4: "<f", 8: "<d"}[size], value) + valid[at + size:]
    at = draw(st.integers(start, end - 1))
    if kind == "truncate":
        return valid[:at]
    return valid[:at] + bytes([valid[at] ^ draw(st.integers(1, 255))]) + valid[at + 1:]


def _read(kind: str, blob: bytes) -> None:
    _, reader, error, check = ALL_READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed"
        path.write_bytes(blob)
        try:
            result = reader(path)
        except error as exc:
            assert str(path) in str(exc)
            return
    check(result)


@pytest.mark.parametrize("kind", sorted(ALL_READERS))
def test_valid_file_reads_back(kind):
    valid, reader, _, check = ALL_READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid"
        path.write_bytes(valid)
        check(reader(path))


@pytest.mark.parametrize("kind", sorted(ALL_READERS))
@FUZZ
@given(data=st.data())
def test_arbitrary_bytes_raise_only_the_declared_error(kind, data):
    valid = ALL_READERS[kind][0]
    prefix = data.draw(st.sampled_from([b"", valid[: valid.index(b"\n") + 1]]))
    _read(kind, prefix + data.draw(st.binary(max_size=256)))


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_damaged_file_raises_only_the_declared_error(kind, data):
    _read(kind, data.draw(damaged(READERS[kind][0])))


@pytest.mark.parametrize("kind", sorted(TEXT_READERS))
@FUZZ
@given(data=st.data())
def test_damaged_text_file_raises_only_the_declared_error(kind, data):
    _read(kind, data.draw(damaged_text(TEXT_READERS[kind][0])))

"""Fuzzing of the recording readers: ``read_tracks_csv`` and
``read_meta_json`` fed arbitrary bytes, or a valid file that is truncated,
has one byte flipped or has bytes appended, raise only ParseError or
IntegrityError or return a result that still holds the reader's
guarantees."""
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scenmine import ingest
from scenmine.types import FEATURE_NAMES

from conftest import make_traj

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

META = ingest.RecordingMeta(
    recording_id="fuzz",
    frame_rate=25.0,
    lanes_per_direction=3,
    lane_directions={lane: (-1 if lane <= 3 else 1) for lane in range(1, 7)},
)


def _valid_tracks(trajs) -> None:
    assert len({t.vehicle_id for t in trajs}) == len(trajs)
    for t in trajs:
        assert len(t) >= 1 and t.first_frame >= 0 and t.dt == META.dt
        assert t.recording_id == META.recording_id
        for name in FEATURE_NAMES:
            assert np.isfinite(getattr(t, name)).all(), name
        assert t.lane_id.dtype == np.int64 and len(t.lane_id) == len(t)


def _valid_meta(meta) -> None:
    assert isinstance(meta.recording_id, str)
    assert 0.0 < meta.frame_rate < np.inf and meta.lanes_per_direction >= 1
    assert all(isinstance(k, int) and isinstance(v, int) for k, v in meta.lane_directions.items())


def _file_bytes(write, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid"
        write(value, path)
        return path.read_bytes()


READERS = {
    "tracks": (
        _file_bytes(ingest.write_tracks_csv, [make_traj(n=6, vehicle_id=1, lane_id=2),
                                              make_traj(n=4, vehicle_id=9, first_frame=3, lane_id=5)]),
        lambda path: ingest.read_tracks_csv(path, META),
        _valid_tracks,
    ),
    "meta": (_file_bytes(ingest.write_meta_json, META), ingest.read_meta_json, _valid_meta),
}


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` truncated at a random offset, with one byte changed or with
    bytes appended."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "append":
        return valid + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(0, len(valid) - 1))
    if kind == "truncate":
        return valid[:at]
    return valid[:at] + bytes([valid[at] ^ draw(st.integers(1, 255))]) + valid[at + 1:]


_SCRATCH = tempfile.TemporaryDirectory()  # one file reused by every example; removed at exit


def _read(kind: str, blob: bytes) -> None:
    _, reader, check = READERS[kind]
    path = Path(_SCRATCH.name) / "fuzzed"
    path.write_bytes(blob)
    try:
        result = reader(path)
    except (ingest.ParseError, ingest.IntegrityError):
        return
    check(result)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_file_reads_back(kind):
    _read(kind, READERS[kind][0])


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_arbitrary_bytes_raise_only_parse_or_integrity_errors(kind, data):
    valid = READERS[kind][0]
    prefix = data.draw(st.sampled_from([b"", valid[: valid.index(b"\n") + 1]]))
    _read(kind, prefix + data.draw(st.binary(max_size=256)))


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_damaged_file_raises_only_parse_or_integrity_errors(kind, data):
    _read(kind, data.draw(damaged(READERS[kind][0])))

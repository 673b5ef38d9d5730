"""Fuzzing of the recording readers, and differential tests of the
``tracks.csv`` reader and writer.

``read_tracks_csv`` and ``read_meta_json`` fed arbitrary bytes, or a valid
file that is truncated, has one byte flipped or has bytes appended, raise
only their documented errors or return a result that still holds the
reader's guarantees. (``test_container_fuzz`` fuzzes the change-point and
annotation readers.) ``parse_tracks`` and ``write_tracks_csv`` agree bit for bit
with the ``csv`` module implementations they replaced (``conftest``), and
the trajectories ``cli._load_tracks`` reads from a ``tracks.bin`` memo with
those it parses."""
import io
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scenmine import cli, ingest
from scenmine.types import FEATURE_NAMES, DatasetFormatError

from conftest import assert_same_trajectories, encode_tracks_v1, load_from_memo, make_traj, parse_tracks_v1

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


INGEST_ERRORS = (ingest.ParseError, ingest.IntegrityError)

# kind -> (valid file, reader, check of a result, errors the reader may raise)
READERS = {
    "tracks": (
        _file_bytes(ingest.write_tracks_csv, [make_traj(n=6, vehicle_id=1, lane_id=2),
                                              make_traj(n=4, vehicle_id=9, first_frame=3, lane_id=5)]),
        lambda path: ingest.read_tracks_csv(path, META),
        _valid_tracks,
        INGEST_ERRORS,
    ),
    "meta": (_file_bytes(ingest.write_meta_json, META), ingest.read_meta_json, _valid_meta, INGEST_ERRORS),
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
    _, reader, check, errors = READERS[kind]
    path = Path(_SCRATCH.name) / "fuzzed"
    path.write_bytes(blob)
    try:
        result = reader(path)
    except errors:
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


# --------------------------- tracks.csv differential ---------------------------

INT_FORMS = ("{}",) * 6 + ("+{}", "00{}", " {} ")
FLOAT_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.25e}".format),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: str(Decimal(x))),  # exact: long
    st.sampled_from(["0", "-0.0", "0.0", "1e308", "-1e308", "1.7976931348623157e308", "5e-324",
                     "-4.9e-324", "2.2250738585072014e-308", "1e-400", ".5", "5.", "+1.5", " 2.5 ", "7"]),
)
# Damage to one field of one row: (columns it applies to, replacement texts).
DAMAGE = {
    "non-finite": (ingest.REQUIRED_COLUMNS[2:8], ["nan", "-inf", "inf", "Infinity", "NaN", "1e400"]),
    "frame": (("frame",), ["-1", "-3", "0", "1", "2", "500"]),
    "overflow": (("frame", "id", "laneId"), [str(2**63), str(-2**63 - 1), "99999999999999999999"]),
    "token": (ingest.REQUIRED_COLUMNS, ["", "x", "1.5", "1e3", "0x10", "--1", '"1,5"', "1 2", "\x00"]),
}
# Input the reader rejects where the csv module took it (ParseError).
DIVERGENT = ["1_0", "2_5.0", "٣", "５.5", "1٠"]


@st.composite
def tracks_text(draw) -> tuple[str, bool]:
    """A tracks.csv text and whether it holds an underscored or non-ASCII
    digit number: permuted and extra columns, quoted fields, blank lines,
    LF and CRLF line ends, ids up to 2**63 - 1, subnormals, signed zeros,
    long decimal strings and, sometimes, one damaged field or short row."""
    extras = draw(st.lists(st.sampled_from(["width", "height", "class"]), unique=True, max_size=2))
    columns = draw(st.permutations(ingest.REQUIRED_COLUMNS + tuple(extras)))
    vids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=3, unique=True))
    rows = []
    for vid in vids:
        first, n, lane = draw(st.integers(0, 1000)), draw(st.integers(1, 4)), draw(st.integers(-3, 9))
        for frame in range(first, first + n):
            ints = {"frame": frame, "id": vid, "laneId": lane}
            rows.append({c: draw(st.sampled_from(INT_FORMS)).format(ints[c]) if c in ints
                         else draw(FLOAT_TEXTS) if c in ingest.REQUIRED_COLUMNS
                         else draw(st.sampled_from(["4.5", "Car", "", "a b"])) for c in columns})
    rows = [[row[c] for c in columns] for row in draw(st.permutations(rows))]
    divergent = False
    damage = draw(st.sampled_from([None] * 4 + sorted(DAMAGE) + ["short", "divergent"]))
    row = draw(st.sampled_from(rows))
    if damage == "short":
        del row[draw(st.integers(0, len(row) - 1)):]
    elif damage == "divergent":
        row[columns.index(draw(st.sampled_from(ingest.REQUIRED_COLUMNS)))] = draw(st.sampled_from(DIVERGENT))
        divergent = True
    elif damage is not None:
        names, texts = DAMAGE[damage]
        row[columns.index(draw(st.sampled_from(names)))] = draw(st.sampled_from(texts))
    lines = [",".join(f'"{f}"' if '"' not in f and draw(st.booleans()) else f for f in fields)
             for fields in [list(columns)] + rows]
    blanks = draw(st.lists(st.integers(1, len(lines)), max_size=3))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, "")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return (text if draw(st.booleans()) else text.rstrip("\r\n")), divergent


def _outcome(parse, text: str):
    try:
        return parse(io.StringIO(text, newline=""), META)
    except (ingest.ParseError, ingest.IntegrityError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tracks_text())
def test_parse_tracks_equals_csv_module_oracle(case):
    text, divergent = case
    got = _outcome(ingest.parse_tracks, text)
    if divergent:
        assert got is ingest.ParseError
        return
    want = _outcome(parse_tracks_v1, text)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.vehicle_id, a.recording_id, a.dt, a.first_frame) == (
            b.vehicle_id, b.recording_id, b.dt, b.first_frame)
        for name in FEATURE_NAMES + ("lane_id",):
            assert np.array_equal(getattr(a, name).view(np.int64), getattr(b, name).view(np.int64)), name


@st.composite
def trajectories(draw, floats=st.floats(width=64)) -> list:
    """Up to three trajectories of unique vehicle ids in any order; by default
    with NaN, infinities, signed zeros and subnormals among the values."""
    out = []
    for vid in draw(st.lists(st.integers(-2**63, 2**63 - 1), max_size=3, unique=True)):
        n = draw(st.integers(1, 5))
        features = [draw(st.lists(floats, min_size=n, max_size=n)) for _ in FEATURE_NAMES]
        out.append(ingest.Trajectory(
            vehicle_id=vid, recording_id="fuzz", dt=META.dt, first_frame=draw(st.integers(0, 10**6)),
            lane_id=draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)), features=features))
    return out


@FUZZ
@given(trajs=trajectories())
def test_write_tracks_csv_bytes_equal_csv_module_oracle(trajs):
    path = Path(_SCRATCH.name) / "written.csv"
    written = ingest.write_tracks_csv(trajs, path)
    assert path.read_bytes() == encode_tracks_v1(written)


# Values the character-block writer takes after rounding, |v| < 2**31: any
# such double, ±0.0 and ±5e-7 (which round to a signed zero), decimals that
# carry into the integer part (k + 0.9999995) and values just under 2**31.
BLOCK_VALUES = st.one_of(
    st.floats(-(2.0**31 - 1), 2.0**31 - 1),
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 4.9e-7, -4.9e-7, 0.9999995, -0.9999995]),
    st.integers(-10**9, 10**9).map(lambda k: k + 0.9999995),
    st.floats(2.0**31 - 2, 2.0**31 - 1), st.floats(-(2.0**31 - 1), -(2.0**31 - 2)),
)


@st.composite
def block_trajectories(draw) -> list:
    """Up to four trajectories that ``write_tracks_csv`` writes as character
    blocks: values of BLOCK_VALUES, lane ids of one to three digits and
    frames that often cross a power of ten."""
    out = []
    for vid in draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 6))
        if n > 1 and draw(st.booleans()):
            first = 10**draw(st.integers(1, 12)) - draw(st.integers(1, n - 1))
        else:
            first = draw(st.integers(0, 10**6))
        features = [draw(st.lists(BLOCK_VALUES, min_size=n, max_size=n)) for _ in FEATURE_NAMES]
        out.append(ingest.Trajectory(
            vehicle_id=vid, recording_id="fuzz", dt=META.dt, first_frame=first,
            lane_id=draw(st.lists(st.integers(0, 999), min_size=n, max_size=n)), features=features))
    return out


@FUZZ
@given(trajs=block_trajectories())
def test_block_writer_bytes_equal_csv_module_oracle(trajs):
    path = Path(_SCRATCH.name) / "written.csv"
    written = ingest.write_tracks_csv(trajs, path)
    assert all(ingest._rows_as_block(t) is not None for t in written)
    assert path.read_bytes() == encode_tracks_v1(written)


def test_block_and_template_rows_share_one_file_in_order(tmp_path):
    # Trajectories with a NaN, a value of 2**40, a negative lane id or a
    # frame past int64 are written by the row template, between the
    # character blocks of the rest.
    nan = make_traj(ax=[0.0, np.nan, 0.5], vehicle_id=4)
    large = make_traj(n=3, vehicle_id=6, x0=2.0**40)
    negative_lane = make_traj(n=2, vehicle_id=8, lane_id=-3)
    late = make_traj(n=2, vehicle_id=10, first_frame=2**63 - 1)
    trajs = [make_traj(n=12, vehicle_id=1, first_frame=95), nan, make_traj(ax=[-0.0, -0.0, 4e-7], vehicle_id=5),
             large, make_traj(n=4, vehicle_id=7, lane_id=123), negative_lane, make_traj(n=1, vehicle_id=9), late]
    written = ingest.write_tracks_csv(trajs, tmp_path / "tracks.csv")
    assert [ingest._rows_as_block(t) is None for t in written] == [False, True, False, True, False, True, False, True]
    assert (tmp_path / "tracks.csv").read_bytes() == encode_tracks_v1(written)


FINITE = st.floats(width=64, allow_nan=False, allow_infinity=False)


# Any finite double, plus the magnitudes where rounding to six decimals is
# delicate: 2**30 to 2**34, where a double's spacing passes 1e-6, and values
# half a unit of the sixth decimal off it.
ROUNDING = st.one_of(FINITE, st.floats(2.0**30, 2.0**34), st.floats(-2.0**34, -2.0**30),
                     st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6))


@FUZZ
@given(trajs=trajectories(ROUNDING))
def test_write_tracks_csv_returns_what_the_file_reads_back(trajs):
    # Every value, ±0.0, subnormals and ±1.8e308 among them, is rounded to a
    # value that its six-decimal text parses back to bit for bit, within half
    # a unit of the sixth decimal (and of the last bit). Rounding is
    # idempotent: writing the result again writes the same bytes.
    trajs = sorted(trajs, key=lambda t: t.vehicle_id)
    path = Path(_SCRATCH.name) / "written.csv"
    written = ingest.write_tracks_csv(trajs, path)
    assert_same_trajectories(ingest.read_tracks_csv(path, META), written)
    for before, after in zip(trajs, written):
        assert after.vehicle_id == before.vehicle_id and np.array_equal(after.lane_id, before.lane_id)
        with np.errstate(over="ignore"):  # the spacing of ±1.8e308 is inf
            bound = 5e-7 + 2 * np.spacing(np.abs(before.features))
        assert np.all(np.abs(after.features - before.features) <= bound)
    data = path.read_bytes()
    assert_same_trajectories(ingest.write_tracks_csv(written, path), written)
    assert path.read_bytes() == data


# --------------------------- tracks.bin differential ---------------------------


def _load(load):
    try:
        return load()
    except (ingest.ParseError, ingest.IntegrityError) as exc:
        return type(exc)


@FUZZ
@given(trajs=st.one_of(trajectories(), trajectories(FINITE)), ordered=st.booleans())
def test_tracks_memo_equals_parse(trajs, ordered):
    if ordered:
        trajs = sorted(trajs, key=lambda t: t.vehicle_id)
    vids = [t.vehicle_id for t in trajs]
    finite = all(np.isfinite(getattr(t, name)).all() for t in trajs for name in FEATURE_NAMES)
    memo = vids == sorted(vids) and finite
    with tempfile.TemporaryDirectory() as tmp:
        wd = Path(tmp)
        ingest.write_meta_json(META, wd / "meta.json")
        if vids == sorted(vids) and not finite:  # the memo writer refuses what parsing rejects
            with pytest.raises(DatasetFormatError, match="non-finite value"):
                cli._write_tracks(trajs, wd)
        else:
            cli._write_tracks(trajs, wd)
        assert (wd / "tracks.bin").exists() == memo
        want = _load(lambda: ingest.read_tracks_csv(wd / "tracks.csv", META))
        got = _load(lambda: load_from_memo(wd) if memo else cli._load_tracks(wd)[1])
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert_same_trajectories(got, want)

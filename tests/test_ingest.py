import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scenmine import ingest
from scenmine.types import DatasetFormatError, LatState, LongState

from conftest import assert_same_trajectories, make_traj

HEADER = "frame,id,x,y,xVelocity,yVelocity,xAcceleration,yAcceleration,laneId\n"


def meta(lanes=3, directions=None):
    return ingest.RecordingMeta(
        recording_id="r1",
        frame_rate=25.0,
        lanes_per_direction=lanes,
        lane_directions=directions or {lane: 1 for lane in range(1, 7)},
    )


def row(frame, vid, x=0.0, vx=25.0, lane=2):
    return f"{frame},{vid},{x},0.0,{vx},0.0,0.0,0.0,{lane}\n"


def test_parse_three_rows_one_vehicle():
    stream = io.StringIO(HEADER + row(1, 7) + row(2, 7) + row(3, 7))
    trajs = ingest.parse_tracks(stream, meta())
    assert len(trajs) == 1
    assert len(trajs[0]) == 3
    assert trajs[0].vehicle_id == 7


def test_parse_frame_gap_is_integrity_error():
    stream = io.StringIO(HEADER + row(1, 7) + row(3, 7))
    with pytest.raises(ingest.IntegrityError, match="7"):
        ingest.parse_tracks(stream, meta())


def test_parse_repeated_frame_is_named():
    stream = io.StringIO(HEADER + row(1, 7) + row(1, 8) + row(2, 8) + row(2, 8, x=1.0) + row(3, 8))
    with pytest.raises(ingest.IntegrityError, match="^vehicle 8: repeated frame 2$"):
        ingest.parse_tracks(stream, meta())


def test_parse_interleaved_vehicles():
    lines = [row(1, 1), row(1, 2), row(2, 2), row(2, 1), row(3, 1), row(3, 2)]
    trajs = ingest.parse_tracks(io.StringIO(HEADER + "".join(lines)), meta())
    assert sorted(t.vehicle_id for t in trajs) == [1, 2]
    for traj in trajs:
        frames = list(range(traj.first_frame, traj.last_frame + 1))
        assert frames == sorted(frames) == [1, 2, 3]


@pytest.mark.parametrize("column, value, name", [(2, "nan", "x"), (5, "inf", "vy"), (7, "-inf", "ay")])
def test_parse_non_finite_is_integrity_error(column, value, name):
    fields = row(2, 7).rstrip("\n").split(",")
    fields[column] = value
    stream = io.StringIO(HEADER + row(1, 7) + ",".join(fields) + "\n")
    with pytest.raises(ingest.IntegrityError, match=f"vehicle 7: non-finite {name} at frame 2"):
        ingest.parse_tracks(stream, meta())


def test_parse_negative_frame_is_integrity_error():
    stream = io.StringIO(HEADER + row(-1, 7) + row(0, 7))
    with pytest.raises(ingest.IntegrityError, match="vehicle 7: negative frame"):
        ingest.parse_tracks(stream, meta())


def test_trajectory_columns_are_frozen_and_checked():
    traj = make_traj(n=5, first_frame=3)
    assert (traj.first_frame, traj.last_frame, len(traj)) == (3, 7, 5)
    assert traj.x.dtype == np.float64 and traj.lane_id.dtype == np.int64
    with pytest.raises(ValueError):
        traj.vx[0] = 0.0
    with pytest.raises(ValueError, match="do not match"):
        replace(traj, features=np.zeros((6, 4)))
    with pytest.raises(ValueError, match="do not match"):
        replace(traj, features=np.zeros((5, 5)))
    with pytest.raises(ValueError, match="do not match"):
        replace(traj, lane_id=np.zeros((1, 5)))
    with pytest.raises(ValueError, match="at least one"):
        replace(traj, features=np.zeros((6, 0)), lane_id=np.zeros(0))
    with pytest.raises(ValueError, match="non-negative"):
        replace(traj, first_frame=-1)


def test_parse_missing_column_rejected():
    stream = io.StringIO("frame,id,x,y\n1,1,0,0\n")
    with pytest.raises(ingest.ParseError):
        ingest.parse_tracks(stream, meta())


def test_parse_malformed_row_names_line():
    stream = io.StringIO(HEADER + row(1, 7) + "2,7,not_a_number,0,0,0,0,0,2\n")
    with pytest.raises(ingest.ParseError, match="line 3"):
        ingest.parse_tracks(stream, meta())


@pytest.mark.parametrize("body, line", [
    (row(1, 7) + "\n\r\n" + "2,7,not_a_number,0,0,0,0,0,2\n", 5),
    ("\n" + row(1, 7) + "\n2,7,0,0,0\n" + row(3, 7), 5),
    ("\r\n\r\n\r\n3_0,7,0,0,0,0,0,0,2\r\n", 5),
    (row(1, 7) * 3 + "\n" + row(4, 7) + row(5, 7) + "\n" + "6,7,0,0,0,0,0,0,2.5", 9),
], ids=["blank-lines", "short-row", "crlf-underscore", "last-line-fraction"])
def test_parse_malformed_row_after_blank_lines_names_file_line(body, line):
    with pytest.raises(ingest.ParseError, match=f"^line {line}: malformed row"):
        ingest.parse_tracks(io.StringIO(HEADER + body), meta())


@pytest.mark.parametrize("field", ["2.5", "1e3", str(2**63)])
def test_parse_integer_read_via_float_is_parse_error(monkeypatch, field):
    """Older numpy reads an integer field that fails to parse as a float,
    casts it and only warns (DeprecationWarning); the row is still malformed."""
    loadtxt = np.loadtxt

    def loadtxt_with_float_fallback(lines, **kwargs):
        taken = []
        for text in lines:
            taken.append(text.replace(field, "2"))
            if text != taken[-1]:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
        return loadtxt(taken, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_float_fallback)
    body = row(1, 7) + "\n" + f"2,7,0.0,0.0,0.0,0.0,0.0,0.0,{field}\n" + row(3, 7)
    with pytest.raises(ingest.ParseError, match="^line 4: malformed row"):
        ingest.parse_tracks(io.StringIO(HEADER + body), meta())


def test_parse_extra_columns_ignored():
    header = HEADER.strip() + ",width,height\n"
    stream = io.StringIO(header + "1,7,0,0,25,0,0,0,2,4.5,1.8\n")
    trajs = ingest.parse_tracks(stream, meta())
    assert len(trajs) == 1


def one_sample(x, y, vx, vy, ax, ay, lane):
    """A one-frame trajectory of vehicle 1 in recording r1."""
    return make_traj(n=1, recording_id="r1", x0=x, y0=y, vx0=vx, vy=[vy], ax=[ax],
                     ay=[ay], lane_id=lane)


def test_normalize_identity_for_forward_lane():
    traj = one_sample(100.0, 5.0, 25.0, 0.2, 0.1, 0.0, 2)
    assert ingest.normalize_direction(traj, meta()) == traj


def test_normalize_flips_signed_quantities():
    traj = one_sample(100.0, 5.0, -25.0, 0.2, -1.0, 0.3, 5)
    p = ingest.normalize_direction(traj, meta(directions={5: -1}))
    assert (p.x[0], p.vx[0], p.ax[0]) == (-100.0, 25.0, 1.0)
    assert (p.y[0], p.vy[0], p.ay[0]) == (-5.0, -0.2, -0.3)


def test_normalize_unknown_lane_is_integrity_error():
    traj = one_sample(0.0, 0.0, 25.0, 0.0, 0.0, 0.0, 9)
    with pytest.raises(ingest.IntegrityError):
        ingest.normalize_direction(traj, meta(directions={2: 1}))


def test_normalized_mean_vx_nonnegative_over_mixed_corpus():
    rng = np.random.default_rng(5)
    directions = {lane: (1 if lane <= 3 else -1) for lane in range(1, 7)}
    m = meta(directions=directions)
    for i in range(50):
        lane = int(rng.integers(1, 7))
        sign = directions[lane]
        script = ingest.SyntheticScript(
            maneuvers=(ingest.Maneuver("cruise", 0, 100),),
            initial_vx=sign * float(rng.uniform(20, 30)),
            initial_lane=lane,
            vehicle_id=i,
        )
        traj = ingest.generate_synthetic([script], 0.04, seed=i)[0][0]
        out = ingest.normalize_direction(traj, m)
        assert np.mean(out.vx) >= 0


def cruise_script(**kwargs):
    return ingest.SyntheticScript(
        maneuvers=(ingest.Maneuver("cruise", 0, 400),), **kwargs
    )


def test_synthetic_cruise_has_no_change_points():
    _, truths = ingest.generate_synthetic(
        [cruise_script(noise_sigma_accel=0.0)], 0.04, seed=0
    )
    assert truths == [[]]


def test_synthetic_accelerate_emits_one_change_point():
    script = ingest.SyntheticScript(
        maneuvers=(
            ingest.Maneuver("cruise", 0, 200),
            ingest.Maneuver("accelerate", 200, 200, accel=0.5),
        ),
        noise_sigma_accel=0.0,
    )
    _, truths = ingest.generate_synthetic([script], 0.04, seed=0)
    (cps,) = truths
    assert len(cps) == 1
    assert cps[0].t_c == 200
    assert cps[0].label_after.longitudinal == LongState.ACCELERATE
    assert cps[0].label_after.lateral == LatState.KEEP_LANE


def test_lane_change_pulse_integrates_to_lane_width():
    script = ingest.SyntheticScript(
        maneuvers=(ingest.Maneuver("lane_change", 0, 100, lane_direction=1),),
        noise_sigma_accel=0.0,
    )
    trajs, _ = ingest.generate_synthetic([script], 0.04, seed=0)
    vy = trajs[0].vy
    assert abs(np.sum(vy) * 0.04 - ingest.LANE_WIDTH_M) < 1e-6


def test_synthetic_determinism_bitwise():
    scripts = [cruise_script(noise_sigma_accel=0.1)]
    a, _ = ingest.generate_synthetic(scripts, 0.04, seed=42)
    b, _ = ingest.generate_synthetic(scripts, 0.04, seed=42)
    assert_same_trajectories(a, b)


def test_synthetic_kinematic_consistency_midpoint():
    script = ingest.SyntheticScript(
        maneuvers=(
            ingest.Maneuver("cruise", 0, 100),
            ingest.Maneuver("decelerate", 100, 100, accel=1.0),
        ),
        noise_sigma_accel=0.1,
    )
    trajs, _ = ingest.generate_synthetic([script], 0.04, seed=1)
    traj = trajs[0]
    dt = 0.04
    dx = np.diff(traj.x) / dt
    tol = 0.5 * np.abs(traj.ax[:-1]) * dt + 1e-9
    assert np.all(np.abs(dx - traj.vx[:-1]) <= tol)


def test_overlapping_maneuvers_rejected():
    with pytest.raises(ingest.ScriptError):
        ingest.SyntheticScript(
            maneuvers=(
                ingest.Maneuver("cruise", 0, 100),
                ingest.Maneuver("accelerate", 50, 100, accel=0.5),
            )
        )


def test_tracks_csv_round_trip(tmp_path):
    scripts = [cruise_script(noise_sigma_accel=0.1, vehicle_id=3)]
    trajs, _ = ingest.generate_synthetic(scripts, 0.04, seed=9, recording_id="r1")
    path = tmp_path / "tracks.csv"
    ingest.write_tracks_csv(trajs, path)
    loaded = ingest.read_tracks_csv(path, meta())
    assert_same_trajectories(loaded, trajs)


def test_tracks_memo_refuses_a_non_finite_feature(tmp_path):
    trajs = [make_traj(n=3, vehicle_id=1), make_traj(ax=[0.0, np.inf, 0.0], vehicle_id=2)]
    path = tmp_path / "tracks.bin"
    with pytest.raises(DatasetFormatError, match="non-finite value in array features"):
        ingest.write_tracks_bin(trajs, "0" * 64, path)
    assert not path.exists()


def test_tracks_readers_hand_out_contiguous_rows_of_one_block(tmp_path):
    scripts = [cruise_script(noise_sigma_accel=0.1, vehicle_id=vid) for vid in (3, 5, 8)]
    trajs, _ = ingest.generate_synthetic(scripts, 0.04, seed=9, recording_id="r1")
    ingest.write_tracks_csv(trajs, tmp_path / "tracks.csv")
    ingest.write_tracks_bin(trajs, "0" * 64, tmp_path / "tracks.bin")
    parsed = ingest.read_tracks_csv(tmp_path / "tracks.csv", meta())
    memo = ingest.read_tracks_bin(tmp_path / "tracks.bin", "0" * 64, meta())
    assert_same_trajectories(memo, parsed)
    # A memo read slices the block it read, copying nothing.
    block = memo[0].features.base
    assert block.shape == (6, sum(map(len, memo)))
    assert all(np.shares_memory(t.features, block) for t in memo)
    for traj in parsed + memo:
        assert all(row.flags.c_contiguous for row in traj.features) and traj.lane_id.flags.c_contiguous
        assert np.shares_memory(traj.ay, traj.features)  # a named row is a view


@pytest.mark.parametrize("value, lanes", [(3, 3), (3.0, 3), (3.7, None), (True, None), ("3", None)])
def test_meta_json_lane_count_must_be_integral(tmp_path, value, lanes):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"recording_id": "r1", "frame_rate": 25.0, "lanes_per_direction": value,
                                "lane_directions": {"1": 1}}))
    if lanes is None:
        with pytest.raises(ingest.ParseError):
            ingest.read_meta_json(path)
    else:
        assert ingest.read_meta_json(path).lanes_per_direction == lanes


@pytest.mark.parametrize("direction", [0, 2, -1.5, True, "1"])
def test_meta_json_direction_must_be_plus_or_minus_one(tmp_path, direction):
    path = tmp_path / "meta.json"
    path.write_text(json.dumps({"recording_id": "r1", "frame_rate": 25.0, "lanes_per_direction": 3,
                                "lane_directions": {"1": 1, "4": direction}}))
    with pytest.raises(ingest.ParseError):
        ingest.read_meta_json(path)


def test_meta_json_round_trip(tmp_path):
    m = meta(directions={1: 1, 4: -1})
    path = tmp_path / "meta.json"
    ingest.write_meta_json(m, path)
    assert ingest.read_meta_json(path) == m

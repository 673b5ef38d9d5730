import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenmine import detect, ingest
from scenmine.types import ChangePoint, CompositeLabel, DatasetFormatError, LatState, LongState

from conftest import make_traj

ZERO_KL = CompositeLabel(LongState.ZERO, LatState.KEEP_LANE)
ACC_KL = CompositeLabel(LongState.ACCELERATE, LatState.KEEP_LANE)
DT = 0.04


def cfg(**kwargs):
    return detect.DetectorConfig(**kwargs)


def longitudinal(traj, c=None):
    """``detect_longitudinal``'s per-frame indices as ``LongState`` members."""
    return [tuple(LongState)[i] for i in detect.detect_longitudinal(traj, c or cfg())]


def per_frame(*runs):
    """Per-frame enum indices (``LongState`` or ``LatState`` member order)
    of the (state, frames) runs."""
    return np.array([tuple(type(state)).index(state) for state, k in runs for _ in range(k)], np.int64)


def test_the_index_arithmetic_is_the_composite_label_index():
    for lon in LongState:
        for lat in LatState:
            label = CompositeLabel(lon, lat)
            assert (per_frame((lon, 1)) * len(LatState) + per_frame((lat, 1))).tolist() == [label.to_index()]
            segments, _ = detect.postprocess(per_frame((lon, 1)), per_frame((lat, 1)), cfg())
            assert [s.label for s in segments] == [label]


def test_detectors_return_one_int64_index_per_frame():
    rng = np.random.default_rng(0)
    traj = make_traj(ax=rng.normal(0.0, 3.0, size=300), vy=rng.normal(0.0, 0.5, size=300))
    for states, order in ((detect.detect_longitudinal(traj, cfg()), LongState),
                          (detect.detect_lateral(traj, cfg()), LatState)):
        assert states.dtype == np.int64 and states.shape == (300,)
        assert set(states.tolist()) <= set(range(len(order)))


# --------------------------- longitudinal ---------------------------------

def test_zero_accel_all_zero_state():
    states = longitudinal(make_traj(ax=np.zeros(300)))
    assert all(s == LongState.ZERO for s in states)


def test_step_accel_enters_and_leaves_accelerate():
    # 0.35 m/s^2 for 60 frames satisfies pair (0.3, 50): Accelerate from the
    # run's first frame; afterwards |ax| = 0 < tau_down for n_down frames
    # returns the state to Zero at the start of that quiet run.
    ax = np.concatenate([np.zeros(100), np.full(60, 0.35), np.zeros(100)])
    states = longitudinal(make_traj(ax=ax))
    assert states[99] == LongState.ZERO
    assert states[100] == LongState.ACCELERATE
    assert states[159] == LongState.ACCELERATE
    assert states[160] == LongState.ZERO
    assert states[-1] == LongState.ZERO


def test_single_frame_extreme_spike():
    ax = np.zeros(200)
    ax[50] = 3.0
    states = longitudinal(make_traj(ax=ax))
    assert states[50] == LongState.EXTREME_ACCELERATE


def test_extreme_brake_negative_sign():
    ax = np.zeros(200)
    ax[50:60] = -3.0
    states = longitudinal(make_traj(ax=ax))
    assert states[50] == LongState.EXTREME_DECELERATE


@given(scale=st.floats(min_value=1.0, max_value=3.0), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_monotone_threshold_property(scale, seed):
    """Raising every tau_up never increases the number of onsets."""
    rng = np.random.default_rng(seed)
    ax = rng.normal(0.0, 0.4, size=400)
    base = cfg()
    raised = cfg(up_pairs=tuple((t * scale, n) for t, n in base.up_pairs))

    def onsets(c):
        states = longitudinal(make_traj(ax=ax), c)
        return sum(
            1
            for a, b in zip(states, states[1:])
            if a != b and b in (LongState.ACCELERATE, LongState.DECELERATE)
        )

    assert onsets(raised) <= onsets(base)


@given(seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_sign_symmetry(seed):
    rng = np.random.default_rng(seed)
    ax = rng.normal(0.0, 0.8, size=300)
    flip = {
        LongState.ACCELERATE: LongState.DECELERATE,
        LongState.DECELERATE: LongState.ACCELERATE,
        LongState.EXTREME_ACCELERATE: LongState.EXTREME_DECELERATE,
        LongState.EXTREME_DECELERATE: LongState.EXTREME_ACCELERATE,
        LongState.ZERO: LongState.ZERO,
    }
    pos = longitudinal(make_traj(ax=ax))
    neg = longitudinal(make_traj(ax=-ax))
    assert [flip[s] for s in pos] == neg


# ----------------------------- lateral -------------------------------------

def test_zero_vy_single_keep_lane_segment():
    lateral = detect.detect_lateral(make_traj(vy=np.zeros(200)), cfg())
    assert lateral.tolist() == per_frame((LatState.KEEP_LANE, 200)).tolist()


def test_sustained_vy_is_lane_change():
    # 0.5 m/s over 200 frames at dt 0.04 -> 4.0 m > tau_lc = 2.0
    lateral = detect.detect_lateral(make_traj(vy=np.full(200, 0.5)), cfg())
    assert lateral.tolist() == per_frame((LatState.LANE_CHANGE, 200)).tolist()


def test_oscillating_vy_stays_keep_lane():
    # +-0.2 m/s in 10-frame half-periods: per interval |dy| = 0.08 m
    vy = np.tile(np.concatenate([np.full(10, 0.2), np.full(10, -0.2)]), 10)
    lateral = detect.detect_lateral(make_traj(vy=vy), cfg())
    assert lateral.tolist() == per_frame((LatState.KEEP_LANE, 200)).tolist()


@given(split=st.integers(1, 199), seed=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_lateral_displacement_additivity(split, seed):
    # A constant-sign vy run whose two parts each move less than tau_lc but
    # whose whole moves more: detect_lateral sums the displacement of the
    # whole run, so the run is a lane change and neither part alone is.
    rng = np.random.default_rng(seed)
    vy = rng.uniform(0.05, 0.5, size=200) * rng.choice([-1.0, 1.0])
    parts = sorted([abs(np.sum(vy[:split])) * DT, abs(np.sum(vy[split:])) * DT])
    vy *= cfg().tau_lc / (parts[1] + parts[0] / 2)  # the larger part lands below tau_lc, the sum above
    whole = detect.detect_lateral(make_traj(vy=vy), cfg())
    assert whole.tolist() == per_frame((LatState.LANE_CHANGE, 200)).tolist()
    for part in (vy[:split], vy[split:]):
        alone = detect.detect_lateral(make_traj(vy=part), cfg())
        assert alone.tolist() == per_frame((LatState.KEEP_LANE, len(part))).tolist()


# --------------------------- postprocess -----------------------------------

def test_uniform_segment_no_change_points():
    segments, cps = detect.postprocess(per_frame((LongState.ZERO, 200)), per_frame((LatState.KEEP_LANE, 200)),
                                       cfg())
    assert len(segments) == 1
    assert cps == []


def test_single_boundary_change_point_at_frame_100():
    lon = per_frame((LongState.ZERO, 100), (LongState.ACCELERATE, 100))
    _, cps = detect.postprocess(lon, per_frame((LatState.KEEP_LANE, 200)), cfg())
    assert len(cps) == 1
    assert cps[0].t_c == 100
    assert cps[0].label_before == ZERO_KL
    assert cps[0].label_after == ACC_KL


def test_short_spurious_segment_absorbed():
    lon = per_frame((LongState.ZERO, 100), (LongState.ACCELERATE, 2), (LongState.ZERO, 100))
    segments, cps = detect.postprocess(lon, per_frame((LatState.KEEP_LANE, 202)), cfg())
    assert len(segments) == 1
    assert cps == []


def test_leading_short_segments_carry_their_start_into_the_next():
    # Runs of 1, 1 and 2 frames: the third starts at frame 0 and, at 4
    # frames, is kept; the 1-frame run after it extends it.
    lon = per_frame((LongState.ACCELERATE, 1), (LongState.DECELERATE, 1), (LongState.ZERO, 2),
                    (LongState.ACCELERATE, 1), (LongState.DECELERATE, 10))
    segments, cps = detect.postprocess(lon, per_frame((LatState.KEEP_LANE, 15)), cfg(), first_frame=5)
    assert [(s.start_frame, s.end_frame, s.label.longitudinal) for s in segments] == [
        (5, 9, LongState.ZERO), (10, 19, LongState.DECELERATE)]
    assert [cp.t_c for cp in cps] == [10]


def test_consecutive_lane_changes_merged_keeping_longer_state():
    lon = per_frame((LongState.ACCELERATE, 60), (LongState.ZERO, 40))
    segments, _ = detect.postprocess(lon, per_frame((LatState.LANE_CHANGE, 100)), cfg())
    lc = [s for s in segments if s.label.lateral == LatState.LANE_CHANGE]
    assert len(lc) == 1
    assert lc[0].label.longitudinal == LongState.ACCELERATE  # longer constituent


@given(seed=st.integers(0, 60))
@settings(max_examples=30, deadline=None)
def test_boundary_consistency(seed):
    """Emitted ChangePoints are exactly the composite boundaries of the
    final segments."""
    rng = np.random.default_rng(seed)
    ax = rng.normal(0.0, 0.6, size=400)
    vy = rng.normal(0.0, 0.3, size=400)
    traj = make_traj(ax=ax, vy=vy)
    segments, cps = detect.postprocess(detect.detect_longitudinal(traj, cfg()), detect.detect_lateral(traj, cfg()),
                                       cfg())
    boundaries = [b.start_frame for a, b in zip(segments, segments[1:])]
    assert [cp.t_c for cp in cps] == boundaries
    for cp, (a, b) in zip(cps, zip(segments, segments[1:])):
        assert cp.label_before == a.label
        assert cp.label_after == b.label
        assert a.label != b.label


# ------------------------------- EMA ----------------------------------------

def test_ema_cruise_forced_single_event():
    traj = make_traj(ax=np.zeros(400))
    events = detect.detect_ema(traj)
    assert len(events) == 1


def test_ema_step_event_near_onset():
    ax = np.concatenate([np.zeros(300), np.full(200, 1.0)])
    events = detect.detect_ema(make_traj(ax=ax))
    assert any(abs(e - 300) <= 45 for e in events)


def test_ema_two_steps_two_events():
    ax = np.concatenate(
        [np.zeros(300), np.full(100, 1.0), np.zeros(300), np.full(100, -1.0), np.zeros(100)]
    )
    events = detect.detect_ema(make_traj(ax=ax))
    assert len(events) >= 2


# ---------------------------- evaluation ------------------------------------

def test_evaluate_table_rows():
    for tp, fp, fn, prec, rec in [
        (109, 38, 10, 0.741, 0.916),
        (29, 119, 90, 0.196, 0.244),
        (86, 199, 33, 0.302, 0.723),
    ]:
        m = detect.DetectionMatch(tp, fp, fn)
        assert abs(m.precision - prec) < 0.001
        assert abs(m.recall - rec) < 0.001


def test_evaluate_no_predictions():
    truth = [(i * 100, ZERO_KL) for i in range(5)]
    m = detect.evaluate_detection([], truth)
    assert (m.tp, m.fp, m.fn) == (0, 0, 5)
    assert m.recall == 0.0


def test_evaluate_label_mismatch_is_fp():
    m = detect.evaluate_detection([(100, ACC_KL)], [(100, ZERO_KL)])
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)


def test_evaluate_window_boundary():
    m = detect.evaluate_detection([(125, ZERO_KL)], [(100, ZERO_KL)], window=50)
    assert m.tp == 1
    m = detect.evaluate_detection([(126, ZERO_KL)], [(100, ZERO_KL)], window=50)
    assert m.tp == 0


def test_evaluate_one_to_one_matching():
    # Two predictions inside one truth window: one TP, one FP.
    m = detect.evaluate_detection([(95, ZERO_KL), (105, ZERO_KL)], [(100, ZERO_KL)])
    assert (m.tp, m.fp, m.fn) == (1, 1, 0)


def test_evaluate_unlabeled_predictions():
    m = detect.evaluate_detection([(100, None)], [(100, ZERO_KL)])
    assert (m.tp, m.fp, m.fn) == (1, 0, 0)


# -------------------- rule detector on noise-free scripts -------------------

def test_rule_detector_matches_scripted_onsets_noise_free():
    scripts = [
        ingest.SyntheticScript(
            maneuvers=(
                ingest.Maneuver("cruise", 0, 300),
                ingest.Maneuver("lane_change", 300, 100, lane_direction=1),
                ingest.Maneuver("cruise", 400, 300),
            ),
            noise_sigma_accel=0.0,
            vehicle_id=1,
        ),
        ingest.SyntheticScript(
            maneuvers=(
                ingest.Maneuver("cruise", 0, 250),
                ingest.Maneuver("accelerate", 250, 450, accel=0.6),
            ),
            noise_sigma_accel=0.0,
            vehicle_id=2,
        ),
    ]
    trajs, truths = ingest.generate_synthetic(scripts, DT, seed=0)
    for traj, truth in zip(trajs, truths):
        cps = detect.detect_rule_based(traj, cfg())
        predicted = [(cp.t_c, cp.label_after) for cp in cps]
        m = detect.evaluate_detection(
            predicted, [(cp.t_c, cp.label_after) for cp in truth], window=50
        )
        assert m.fn == 0
        for cp in truth:
            assert any(abs(p - cp.t_c) <= 50 and lbl == cp.label_after for p, lbl in predicted)


def test_annotation_csv_round_trip(tmp_path):
    rows = [("r1", 3, 120, ACC_KL), ("r1", 4, 300, ZERO_KL)]
    path = tmp_path / "ann.csv"
    detect.write_annotations(rows, path)
    assert detect.read_annotations(path) == rows


def test_change_point_csv_round_trip(tmp_path):
    cp = ChangePoint(t_c=55, label_before=ZERO_KL, label_after=ACC_KL)
    path = tmp_path / "cps.csv"
    detect.write_change_points([("r1", 9, cp)], path)
    assert detect.read_change_points(path) == [("r1", 9, cp)]


@pytest.mark.parametrize("text", [
    "recording_id,vehicle_id,tc,label_before,label_after\nr1,9,55,zero/keep_lane,accelerate/keep_lane\n",
    "recording_id,vehicle_id,t_c,label_before,label_after\nr1,9,5.5,zero/keep_lane,accelerate/keep_lane\n",
    "recording_id,vehicle_id,t_c,label_before,label_after\nr1,x,55,zero/keep_lane,accelerate/keep_lane\n",
    "recording_id,vehicle_id,t_c,label_before,label_after\nr1,9,55,zero/swerve,accelerate/keep_lane\n",
    "recording_id,vehicle_id,t_c,label_before,label_after\nr1,9,55\n",
])
def test_damaged_change_point_csv_is_format_error(tmp_path, text):
    path = tmp_path / "cps.csv"
    path.write_text(text)
    with pytest.raises(DatasetFormatError, match="cps.csv: malformed row"):
        detect.read_change_points(path)


@pytest.mark.parametrize("kwargs", [{"ema_alpha": 0.0}, {"ema_alpha": 5.0}, {"ema_alpha": float("nan")},
                                    {"eval_window": -5}])
def test_detector_config_rejects_out_of_range_ema_alpha_and_window(kwargs):
    with pytest.raises(ValueError):
        cfg(**kwargs)
    assert cfg(ema_alpha=1.0, eval_window=0).ema_alpha == 1.0

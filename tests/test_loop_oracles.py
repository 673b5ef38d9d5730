"""The loops the program used before its faster kernels, kept as oracles.

The per-frame Python loops of the data layer (run finding, the rule
detector, the EMA baseline, trajectory integration, the synthetic ground
truth and the donor scan): every comparison is exact, equal lists and
segments, floats equal bit for bit (so -0.0 and 0.0 differ).

The primal training loop, whose first encoder layer steps at the full live
width of the inputs: ``cvqvae.train_arrays`` steps that layer in the row
space of the training inputs instead, which is the same SGD up to float32
rounding, and the same arithmetic bit for bit when the records are at least
as many as the input cells."""
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenmine import corpus, cvqvae, detect, extraction, ingest
from scenmine.detect import DetectorConfig, Segment
from scenmine.types import ChangePoint, CompositeLabel, LatState, LongState, Trajectory

from conftest import arrays, make_traj

# ---------------------------------------------------------------------------
# The loops
# ---------------------------------------------------------------------------


def runs_loop(mask):
    out = []
    n = len(mask)
    t = 0
    while t < n:
        if mask[t]:
            s = t
            while t + 1 < n and mask[t + 1]:
                t += 1
            out.append((s, t))
        t += 1
    return out


def detect_longitudinal_loop(traj, cfg):
    ax = traj.ax
    pos_onsets, neg_onsets = set(), set()
    for tau, n_up in cfg.up_pairs:
        for s, e in runs_loop(ax > tau):
            if e - s + 1 >= n_up:
                pos_onsets.add(s)
        for s, e in runs_loop(ax < -tau):
            if e - s + 1 >= n_up:
                neg_onsets.add(s)
    zero_onsets = {s for s, e in runs_loop(np.abs(ax) < cfg.tau_down) if e - s + 1 >= cfg.n_down}
    states = []
    cur = LongState.ZERO
    for t in range(len(ax)):
        if ax[t] > cfg.tau_extreme:
            cur = LongState.EXTREME_ACCELERATE
        elif ax[t] < -cfg.tau_extreme:
            cur = LongState.EXTREME_DECELERATE
        elif cur is LongState.ZERO:
            if t in pos_onsets:
                cur = LongState.ACCELERATE
            elif t in neg_onsets:
                cur = LongState.DECELERATE
        else:
            if t in zero_onsets:
                cur = LongState.ZERO
        states.append(cur)
    return states


def detect_lateral_loop(traj, cfg):
    vy = traj.vy
    signs = np.sign(vy)
    segments = []
    t = 0
    n = len(vy)
    while t < n:
        s = t
        while t + 1 < n and signs[t + 1] == signs[s]:
            t += 1
        displacement = float(np.sum(vy[s : t + 1]) * traj.dt)
        label = LatState.LANE_CHANGE if abs(displacement) > cfg.tau_lc else LatState.KEEP_LANE
        segments.append(Segment(traj.first_frame + s, traj.first_frame + t, label))
        t += 1
    return segments


def merge_equal_neighbors_loop(segments):
    out = []
    for seg in segments:
        if out and out[-1].label == seg.label:
            out[-1] = Segment(out[-1].start_frame, seg.end_frame, seg.label)
        else:
            out.append(seg)
    return out


def postprocess_loop(longitudinal, lateral, cfg, first_frame=0):
    n = len(longitudinal)
    lat_per_frame = [LatState.KEEP_LANE] * n
    for seg in lateral:
        for t in range(seg.start_frame - first_frame, seg.end_frame - first_frame + 1):
            if not 0 <= t < n:
                raise ValueError("lateral segments must cover the longitudinal frame range")
            lat_per_frame[t] = seg.label

    segments = []
    t = 0
    while t < n:
        s = t
        label = CompositeLabel(longitudinal[s], lat_per_frame[s])
        while t + 1 < n and CompositeLabel(longitudinal[t + 1], lat_per_frame[t + 1]) == label:
            t += 1
        segments.append(Segment(s + first_frame, t + first_frame, label))
        t += 1

    changed = True
    while changed:
        changed = False
        for i, seg in enumerate(segments):
            if seg.length < cfg.min_segment and len(segments) > 1:
                if i > 0:
                    segments[i - 1] = Segment(segments[i - 1].start_frame, seg.end_frame, segments[i - 1].label)
                else:
                    segments[1] = Segment(seg.start_frame, segments[1].end_frame, segments[1].label)
                del segments[i]
                segments = merge_equal_neighbors_loop(segments)
                changed = True
                break

    merged = []
    for seg in segments:
        if merged and merged[-1].label.lateral is LatState.LANE_CHANGE and seg.label.lateral is LatState.LANE_CHANGE:
            prev = merged[-1]
            keep = prev.label if prev.length >= seg.length else seg.label
            merged[-1] = Segment(prev.start_frame, seg.end_frame, keep)
        else:
            merged.append(seg)
    segments = merge_equal_neighbors_loop(merged)
    change_points = [
        ChangePoint(t_c=b.start_frame, label_before=a.label, label_after=b.label)
        for a, b in zip(segments, segments[1:])
    ]
    return segments, change_points


def ema_loop(signal, alpha):
    out = np.empty_like(signal)
    out[0] = signal[0]
    for t in range(1, len(signal)):
        out[t] = alpha * signal[t] + (1 - alpha) * out[t - 1]
    return out


def detect_ema_loop(traj, window_sizes, ema_alpha, peak_threshold=None):
    n = len(traj)
    if min(window_sizes) > n:
        raise ValueError("window sizes must not exceed the trajectory length")
    candidates = []
    best_global = None
    for channel in ("ax", "vy"):
        signal = getattr(traj, channel)
        residual = signal - ema_loop(signal, ema_alpha)
        sq = residual * residual
        for w in window_sizes:
            half = w // 2
            energy = np.convolve(sq, np.ones(2 * half + 1), mode="same") / w
            threshold = peak_threshold if peak_threshold is not None else 3.0 * float(np.median(energy))
            peak = int(np.argmax(energy))
            if best_global is None or energy[peak] > best_global[0]:
                best_global = (float(energy[peak]), peak)
            interior = np.arange(1, n - 1)
            local_max = (energy[interior] > energy[interior - 1]) & (energy[interior] > energy[interior + 1])
            for t in interior[local_max]:
                if energy[t] > threshold:
                    candidates.append((float(energy[t]), int(t)))
    min_distance = min(window_sizes)
    kept = []
    for _, t in sorted(candidates, key=lambda c: (-c[0], c[1])):
        if all(abs(t - k) >= min_distance for k in kept):
            kept.append(t)
    if not kept:
        kept = [best_global[1]]
    return sorted(traj.first_frame + t for t in kept)


def integrate_loop(ax, vy, dt, vx0, x0, y0):
    """x, y, vx of ``generate_synthetic``'s step loop (``corpus`` ran the x
    and vx part of it from x0 = 0)."""
    n = len(ax)
    vx, x, y = np.empty(n), np.empty(n), np.empty(n)
    vx[0], x[0], y[0] = vx0, x0, y0
    for t in range(n - 1):
        vx[t + 1] = vx[t] + ax[t] * dt
        x[t + 1] = x[t] + vx[t] * dt + 0.5 * ax[t] * dt * dt
        y[t + 1] = y[t] + vy[t] * dt
    return x, y, vx


LONG_OF_KIND = {
    "cruise": LongState.ZERO,
    "accelerate": LongState.ACCELERATE,
    "decelerate": LongState.DECELERATE,
    "extreme_brake": LongState.EXTREME_DECELERATE,
    "lane_change": LongState.ZERO,
}


def truth_loop(script):
    n = script.n_frames
    long_labels = [LongState.ZERO] * n
    lat_labels = [LatState.KEEP_LANE] * n
    for m in script.maneuvers:
        for t in range(m.start_frame, m.end_frame):
            long_labels[t] = LONG_OF_KIND[m.kind]
            if m.kind == "lane_change":
                lat_labels[t] = LatState.LANE_CHANGE
    changes = []
    for t in range(1, n):
        before = CompositeLabel(long_labels[t - 1], lat_labels[t - 1])
        after = CompositeLabel(long_labels[t], lat_labels[t])
        if before != after:
            changes.append(ChangePoint(t_c=t, label_before=before, label_after=after))
    return changes


def donor_segment_starts_loop(donor, length, max_abs_ay=0.1):
    lane = donor.lane_id
    ok = (np.abs(donor.ay) < max_abs_ay) & (lane == lane[0])
    starts = []
    for s in range(len(donor) - length + 1):
        if ok[s : s + length].all() and (lane[s : s + length] == lane[s]).all():
            starts.append(s)
    return starts


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

SMALL_CFG = DetectorConfig(up_pairs=((0.2, 4), (0.3, 2), (0.4, 1)), n_down=3, tau_lc=0.05)
CFGS = (DetectorConfig(), SMALL_CFG)
# Every threshold of both configs exactly, extreme spikes of both signs, signed zeros.
TIES = (0.0, -0.0, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3, 0.4, -0.4, 2.5, -2.5, 3.0, -3.0, 0.05, -0.05)


def signals(values, max_run=40, max_size=300):
    """Float arrays either drawn frame by frame or as runs of one value."""
    per_frame = st.lists(values, min_size=1, max_size=max_size)
    runs = st.lists(st.tuples(values, st.integers(1, max_run)), min_size=1, max_size=12).map(
        lambda rs: [v for v, k in rs for _ in range(k)])
    return st.one_of(per_frame, runs).map(lambda xs: np.array(xs, dtype=np.float64))


accels = signals(st.one_of(st.sampled_from(TIES), st.floats(-4.0, 4.0)), max_run=120)
# Alternating extreme spikes: every frame beyond +-tau_extreme or on it.
spikes = st.lists(st.sampled_from((3.0, -3.0, 2.5, -2.5)), min_size=1, max_size=60).map(np.array)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError:
        return "ValueError", None


# ---------------------------------------------------------------------------
# Rule detector
# ---------------------------------------------------------------------------

@given(mask=st.lists(st.booleans(), max_size=80))
@settings(max_examples=200, deadline=None)
def test_runs_match_loop(mask):
    mask = np.array(mask, dtype=bool)
    assert detect._runs(mask) == runs_loop(mask)


@given(ax=st.one_of(accels, spikes), cfg=st.sampled_from(CFGS))
@settings(max_examples=200, deadline=None)
def test_detect_longitudinal_matches_loop(ax, cfg):
    traj = make_traj(ax=ax)
    assert detect.detect_longitudinal(traj, cfg) == detect_longitudinal_loop(traj, cfg)


@given(vy=signals(st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5, 2.0, -2.0)), st.floats(-3.0, 3.0))),
       cfg=st.sampled_from(CFGS), first_frame=st.integers(0, 5), dt=st.sampled_from((0.04, 1.0)))
@settings(max_examples=200, deadline=None)
def test_detect_lateral_matches_loop(vy, cfg, first_frame, dt):
    traj = make_traj(vy=vy, first_frame=first_frame, dt=dt)
    assert detect.detect_lateral(traj, cfg) == detect_lateral_loop(traj, cfg)


@st.composite
def postprocess_inputs(draw):
    """Longitudinal runs, and lateral segments that may overlap, leave frames
    uncovered, touch either edge of the range or reach one frame past it."""
    longitudinal = draw(st.lists(st.tuples(st.sampled_from(tuple(LongState)), st.integers(1, 12)),
                                 min_size=1, max_size=10).map(lambda rs: [s for s, k in rs for _ in range(k)]))
    n = len(longitudinal)
    first_frame = draw(st.integers(0, 3))
    bounds = st.integers(-1, n)
    lateral = []
    for lo, hi in draw(st.lists(st.tuples(bounds, bounds), max_size=8)):
        lo, hi = min(lo, hi), max(lo, hi)
        lateral.append(Segment(first_frame + lo, first_frame + hi, draw(st.sampled_from(tuple(LatState)))))
    return longitudinal, lateral, first_frame


@given(inputs=postprocess_inputs(), min_segment=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_postprocess_matches_loop(inputs, min_segment):
    longitudinal, lateral, first_frame = inputs
    cfg = DetectorConfig(min_segment=min_segment)
    assert outcome(detect.postprocess, longitudinal, lateral, cfg, first_frame) == outcome(
        postprocess_loop, longitudinal, lateral, cfg, first_frame)


@given(ax=accels, vy=signals(st.sampled_from((0.0, -0.0, 1.0, -1.0, 3.0))), cfg=st.sampled_from(CFGS))
@settings(max_examples=100, deadline=None)
def test_detect_rule_based_matches_loop(ax, vy, cfg):
    n = min(len(ax), len(vy))
    traj = make_traj(ax=ax[:n], vy=vy[:n], first_frame=7)
    want = postprocess_loop(detect_longitudinal_loop(traj, cfg), detect_lateral_loop(traj, cfg), cfg, 7)[1]
    assert detect.detect_rule_based(traj, cfg) == want


@pytest.mark.parametrize("n", [1, 2])
def test_short_trajectories_match_loop(n):
    for values in itertools.product(TIES, repeat=n):
        traj = make_traj(ax=np.array(values), vy=np.array(values[::-1]), ay=np.array(values))
        for cfg in CFGS:
            assert detect.detect_longitudinal(traj, cfg) == detect_longitudinal_loop(traj, cfg)
            assert detect.detect_lateral(traj, cfg) == detect_lateral_loop(traj, cfg)
            assert detect.detect_rule_based(traj, cfg) == postprocess_loop(
                detect_longitudinal_loop(traj, cfg), detect_lateral_loop(traj, cfg), cfg)[1]
        assert same_bits(detect._ema(traj.ax, 0.05), ema_loop(traj.ax, 0.05))
        assert detect.detect_ema(traj, (1, n)) == detect_ema_loop(traj, (1, n), 0.05)
        for length in range(1, n + 2):
            assert extraction._donor_segment_starts(traj, length) == donor_segment_starts_loop(traj, length)


# ---------------------------------------------------------------------------
# EMA baseline
# ---------------------------------------------------------------------------

finite = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e3, 1e3))


@given(signal=signals(finite), alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
@settings(max_examples=200, deadline=None)
def test_ema_matches_loop_bit_for_bit(signal, alpha):
    assert same_bits(detect._ema(signal, alpha), ema_loop(signal, alpha))


# Small-integer signals at alpha 0.5 give peak energies that equal the sampled thresholds.
@given(ax=signals(st.one_of(st.sampled_from((0.0, 2.0, -2.0, 4.0)), finite), max_size=150),
       windows=st.lists(st.integers(1, 40), min_size=1, max_size=3),
       alpha=st.one_of(st.just(0.5), st.floats(0.01, 1.0)),
       threshold=st.one_of(st.none(), st.sampled_from((0.25, 1.0, 4.0)), st.floats(0.0, 50.0)))
@settings(max_examples=100, deadline=None)
def test_detect_ema_matches_loop(ax, windows, alpha, threshold):
    traj = make_traj(ax=ax, vy=ax[::-1], first_frame=3)
    assert outcome(detect.detect_ema, traj, windows, alpha, threshold) == outcome(
        detect_ema_loop, traj, windows, alpha, threshold)


SPIKES = np.zeros(20)
SPIKES[2], SPIKES[12] = 4.0, 8.0


@pytest.mark.parametrize("ax, windows, threshold", [
    (SPIKES, (1,), 4.0),  # the peak at frame 2 has energy 4.0 exactly, equal to the threshold
    # A 24-frame window over 16 frames makes np.convolve(..., "same") return 25 energies.
    (np.array([0.0, -2.00001, 4.0, 0, 0, 0, 4.0, 0, 0, 0, 0, 0, 2.0, 0, 0, 0]), (1, 24), 0.0),
])
def test_detect_ema_edge_cases_match_loop(ax, windows, threshold):
    traj = make_traj(ax=ax, vy=ax[::-1], first_frame=3)
    assert detect.detect_ema(traj, windows, 0.5, threshold) == detect_ema_loop(traj, windows, 0.5, threshold)


# ---------------------------------------------------------------------------
# Integration and synthetic ground truth
# ---------------------------------------------------------------------------

@given(ax=signals(st.one_of(st.sampled_from((0.0, -0.0, 0.8, -0.8)), st.floats(-8.0, 8.0))),
       v0=st.one_of(st.sampled_from((0.0, -0.0, 25.0)), st.floats(-40.0, 40.0)),
       x0=st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e4, 1e4)),
       dt=st.one_of(st.sampled_from((0.04, 0.1, 1.0)), st.floats(1e-3, 1.0)))
@settings(max_examples=200, deadline=None)
def test_integrate_matches_loop_bit_for_bit(ax, v0, x0, dt):
    x, _, vx = integrate_loop(ax, np.zeros(len(ax)), dt, v0, x0, 0.0)
    got_x, got_vx = ingest._integrate(ax, v0, dt, x0)
    assert same_bits(got_x, x) and same_bits(got_vx, vx)


@st.composite
def synthetic_scripts(draw):
    maneuvers, start = [], 0
    for _ in range(draw(st.integers(1, 6))):
        start += draw(st.integers(0, 8))
        duration = draw(st.integers(1, 40))
        maneuvers.append(ingest.Maneuver(
            draw(st.sampled_from(ingest.MANEUVER_KINDS)), start, duration,
            accel=draw(st.sampled_from((0.0, 0.3, 0.8, 4.0))), lane_direction=draw(st.sampled_from((1, -1)))))
        start += duration
    return ingest.SyntheticScript(
        tuple(maneuvers), noise_sigma_accel=draw(st.sampled_from((0.0, 0.05))),
        initial_x=draw(st.sampled_from((0.0, -0.0, 12.5))), initial_y=draw(st.sampled_from((0.0, -0.0, 3.75))),
        initial_vx=draw(st.sampled_from((0.0, 25.0, 31.3))))


@given(scripts=st.lists(synthetic_scripts(), min_size=1, max_size=3), dt=st.sampled_from((0.04, 0.1)),
       seed=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_generate_synthetic_matches_loop(scripts, dt, seed):
    trajs, truths = ingest.generate_synthetic(scripts, dt, seed)
    for traj, truth, script in zip(trajs, truths, scripts):
        x, y, vx = integrate_loop(traj.ax, traj.vy, dt, script.initial_vx, script.initial_x, script.initial_y)
        assert same_bits(traj.x, x) and same_bits(traj.y, y) and same_bits(traj.vx, vx)
        assert truth == truth_loop(script)


# ---------------------------------------------------------------------------
# Donor scan
# ---------------------------------------------------------------------------

@given(ay=signals(st.sampled_from((0.0, -0.0, 0.05, -0.05, 0.1, -0.1, 0.2)), max_run=30, max_size=120),
       lanes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 60)), min_size=1, max_size=4),
       length=st.integers(1, 130), max_abs_ay=st.sampled_from((0.1, 0.05, 1.0)))
@settings(max_examples=200, deadline=None)
def test_donor_segment_starts_match_loop(ay, lanes, length, max_abs_ay):
    lane = np.resize(np.repeat(*zip(*lanes)), len(ay))
    donor = Trajectory(1, "d", 0.04, 0, *np.zeros((4, len(ay))), np.zeros(len(ay)), ay, lane_id=lane)
    assert extraction._donor_segment_starts(donor, length, max_abs_ay) == donor_segment_starts_loop(
        donor, length, max_abs_ay)


# ---------------------------------------------------------------------------
# Training: the primal loop
# ---------------------------------------------------------------------------


def train_arrays_primal(inputs, masks, class_targets, interaction_targets, cfg):
    """``cvqvae.train_arrays`` with the first encoder layer stepped at the
    full live width: each batch feeds its standardized inputs to that layer's
    float32 copy, and every trained weight is copied back as it is."""
    n_samples, n_slots, n_features, t_obs = inputs.shape
    rng = np.random.default_rng(cfg.seed)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(cfg, rng, n_slots=n_slots, n_features=n_features, t_obs=t_obs,
                                feature_shift=shift, feature_scale=scale)
    n_live = cvqvae.live_slots(masks)
    live = cvqvae._live(params, n_live)
    step = cvqvae._cast(live, np.float32)
    registry = cvqvae._param_arrays(step)
    run = {key: None if arr is None else arr.astype(np.float32) for key, arr in cvqvae._batch(
        inputs[:, :n_live], masks[:, :n_live], class_targets,
        None if interaction_targets is None else interaction_targets[:, :n_live], shift, scale,
    ).items()}
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_samples)
        sums = dict.fromkeys(cvqvae.LOSS_TERMS, 0.0)
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = {key: None if arr is None else arr[idx] for key, arr in run.items()}
            fwd = cvqvae._forward(batch["x_flat"], step)
            terms = cvqvae._per_term_losses(fwd, batch, cfg, step)
            grads = cvqvae._backward(fwd, batch, cfg, step, terms["residual"])
            for name, arr in registry:
                arr -= np.multiply(cfg.learning_rate, grads[name], out=grads[name])
            for key in sums:
                sums[key] += float(terms[key].sum())
        means = {key: sums[key] / n_samples for key in cvqvae.LOSS_TERMS}
        history.append({**means, "total": means["recon"] + means["codebook_term"] + means["commit_term"]
                        + cfg.lambda_cl * means["cl"] + cfg.lambda_int * means["inter"]})
    for (_, arr), (_, trained) in zip(cvqvae._param_arrays(live), registry):
        arr[...] = trained
    return params, history


def small_layout_arrays(n=40, seed=4):
    """``n`` records of a 1-slot, 2-feature, 10-frame layout (20 input
    cells), each with a few absent frames."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 1, 2, 10))
    masks = rng.random((n, 1, 10)) < 0.8
    masks[:, 0, 0] = True
    cls = np.eye(10)[rng.integers(0, 10, size=n)]
    inter = rng.random((n, 1, 10))
    return inputs, masks, cls, inter


def archetype_arrays(n_per_class=10):
    """The archetype corpus: 3 * ``n_per_class`` records, 4 live slots, so
    far fewer records than the 2400 live input cells."""
    return arrays(corpus.build_archetype_corpus(n_per_class=n_per_class, seed=9))


def recording_codes(monkeypatch):
    """The list that every code assignment of ``cvqvae._forward`` is
    appended to from now on."""
    codes = []
    quantize = cvqvae._quantize_batch

    def recorded(z, codebook):
        q = quantize(z, codebook)
        codes.append(q.copy())
        return q

    monkeypatch.setattr(cvqvae, "_quantize_batch", recorded)
    return codes


def test_training_with_as_many_records_as_cells_equals_the_primal_loop_bit_for_bit():
    args = small_layout_arrays()
    assert args[0].shape[0] >= args[0][0].size  # N >= K: the basis is the identity
    cfg = cvqvae.TrainConfig(hidden=(8,), latent_dim=4, codebook_size=4, epochs=5, batch_size=16,
                             learning_rate=0.05, seed=2)
    want, want_history = train_arrays_primal(*args, cfg)
    got, got_history = cvqvae.train_arrays(*args, cfg)
    assert got_history == want_history
    for (name, a), (_, b) in zip(cvqvae._checkpoint_arrays(got), cvqvae._checkpoint_arrays(want)):
        assert a.tobytes() == b.tobytes(), name


def test_row_space_training_matches_the_primal_loop(monkeypatch):
    args = archetype_arrays()
    cfg = cvqvae.TrainConfig(epochs=10, batch_size=8, seed=3)  # the default model, lambda = 1
    codes = recording_codes(monkeypatch)
    want, want_history = train_arrays_primal(*args, cfg)
    want_codes = codes[:]
    codes.clear()
    got, got_history = cvqvae.train_arrays(*args, cfg)
    assert len(codes) == len(want_codes) == 10 * 4  # 30 records in batches of 8
    for i, (a, b) in enumerate(zip(codes, want_codes)):
        assert np.array_equal(a, b), f"batch {i}"
    # Scale-relative: an elementwise rtol fails on entries near zero.
    for (name, a), (_, b) in zip(cvqvae._param_arrays(got), cvqvae._param_arrays(want)):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5 * np.abs(b).max(), err_msg=name)
    for a, b in zip(got_history, want_history):
        for key in ("recon", "codebook_term", "commit_term", "cl", "inter", "total"):
            assert a[key] == pytest.approx(b[key], rel=1e-6), key


@pytest.mark.parametrize("arrays", [small_layout_arrays, archetype_arrays])
def test_learning_rate_zero_leaves_the_drawn_weights(arrays):
    inputs, masks, cls, inter = arrays()
    cfg = cvqvae.TrainConfig(hidden=(16,), latent_dim=4, codebook_size=4, epochs=2, batch_size=8,
                             learning_rate=0.0, seed=5)
    params, _ = cvqvae.train_arrays(inputs, masks, cls, inter, cfg)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    drawn = cvqvae.init_params(cfg, np.random.default_rng(cfg.seed), n_slots=inputs.shape[1],
                               n_features=inputs.shape[2], t_obs=inputs.shape[3],
                               feature_shift=shift, feature_scale=scale)
    for (name, a), (_, b) in zip(cvqvae._checkpoint_arrays(params), cvqvae._checkpoint_arrays(drawn)):
        assert a.tobytes() == b.tobytes(), name


def test_columns_of_never_present_cells_keep_their_drawn_weights():
    inputs, masks, cls, inter = archetype_arrays()
    masks = masks.copy()
    # In no record: slot 0's first 10 frames, whose cells 0-9 are among the
    # first 30 rows of the QR factor, where it need not be 0 for these
    # rank-13 inputs, and slot 1's first 30 frames.
    masks[:, 0, :10] = False
    masks[:, 1, :30] = False
    cfg = cvqvae.TrainConfig(hidden=(32,), latent_dim=8, codebook_size=4, epochs=3, batch_size=8, seed=5)
    params, _ = cvqvae.train_arrays(inputs, masks, cls, inter, cfg)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    drawn = cvqvae.init_params(cfg, np.random.default_rng(cfg.seed), feature_shift=shift, feature_scale=scale)
    never = ~np.broadcast_to(masks.any(axis=0)[:, None, :], inputs.shape[1:]).reshape(-1)
    assert never[4 * 600:].all()  # the slots past n_live
    assert never[:10].all() and never[:600].sum() == 6 * 10 and never[600:1200].sum() == 6 * 30
    w, w0 = params.enc_w[0], drawn.enc_w[0]
    assert w[:, never].tobytes() == w0[:, never].tobytes()
    assert not np.array_equal(w[:, ~never], w0[:, ~never])  # the present cells' columns moved


def test_row_space_step_is_the_primal_step_in_coordinates():
    inputs, masks, cls, inter = archetype_arrays()
    n_live = cvqvae.live_slots(masks)
    cfg = cvqvae.TrainConfig(seed=3)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(cfg, np.random.default_rng(3), feature_shift=shift, feature_scale=scale)
    live = cvqvae._live(cvqvae._cast(params, np.float64), n_live)  # both steps in float64
    run = cvqvae._batch(inputs[:, :n_live], masks[:, :n_live], cls, inter[:, :n_live], shift, scale)
    basis = cvqvae._row_basis(run["x_flat"])
    assert basis.shape == (n_live * 600, len(inputs))
    np.testing.assert_allclose(basis.T @ basis, np.eye(len(inputs)), atol=1e-12)
    batch = {key: arr[:16] for key, arr in run.items()}
    primal = cvqvae._backward(cvqvae._forward(batch["x_flat"], live), batch, cfg, live)["enc_w[0]"]
    rowspace = replace(live, enc_w=[live.enc_w[0] @ basis, *live.enc_w[1:]])
    fwd = cvqvae._forward(batch["x_flat"] @ basis, rowspace)
    coords = cvqvae._backward(fwd, batch, cfg, rowspace)["enc_w[0]"]
    assert np.linalg.norm(coords) == pytest.approx(np.linalg.norm(primal), rel=1e-5)
    np.testing.assert_allclose(coords @ basis.T, primal, rtol=1e-5, atol=1e-9 * np.abs(primal).max())

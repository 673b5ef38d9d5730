import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scenmine import dgsfm


def egg(**kwargs):
    return dgsfm.DgsfmConfig(**kwargs)


def test_v_egg_identity_at_origin():
    for a in (1.0, 2.5):
        assert dgsfm.v_egg((0, 0), (0, 0), (20, 0), egg(amplitude=a)) == a


def test_v_egg_hand_computed_values():
    params = egg(amplitude=1, sigma=10, forward_stretch=2, rear_compress=0.5, lateral_scale=1)
    ahead = dgsfm.v_egg((20, 0), (0, 0), (20, 0), params)
    behind = dgsfm.v_egg((-20, 0), (0, 0), (20, 0), params)
    assert abs(ahead - math.exp(-1)) < 1e-12  # rho = 20 / (2 * 10)
    assert abs(behind - math.exp(-4)) < 1e-12  # rho = 20 / (0.5 * 10)


def test_v_egg_forward_exceeds_rear_on_grid():
    params = egg()
    for d in np.linspace(0.5, 60, 40):
        fwd = dgsfm.v_egg((d, 0), (0, 0), (25, 0), params)
        rear = dgsfm.v_egg((-d, 0), (0, 0), (25, 0), params)
        assert fwd > rear


def test_v_egg_decreasing_along_ray():
    params = egg()
    for angle in np.linspace(0, 2 * np.pi, 9):
        ray = np.array([np.cos(angle), np.sin(angle)])
        vals = [dgsfm.v_egg(d * ray, (0, 0), (25, 0), params) for d in np.linspace(1, 80, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_v_egg_heading_rotation():
    # A neighbor ahead along a +y heading scores like one ahead along +x.
    params = egg()
    along_x = dgsfm.v_egg((15, 0), (0, 0), (20, 0), params)
    along_y = dgsfm.v_egg((0, 15), (0, 0), (0, 20), params)
    assert abs(along_x - along_y) < 1e-12


def test_v_egg_slow_vehicle_falls_back_to_road_heading():
    params = egg()
    stopped = dgsfm.v_egg((15, 0), (0, 0), (0.0, 0.0), params)
    moving = dgsfm.v_egg((15, 0), (0, 0), (20.0, 0.0), params)
    assert abs(stopped - moving) < 1e-12


def test_beta_b_zero_for_equal_velocities():
    cfg = dgsfm.DgsfmConfig()
    _, beta_b = dgsfm.beta_components(
        np.array([0.0, 0.0]), np.array([22.0, 0.3]),
        np.array([30.0, 3.0]), np.array([22.0, 0.3]), cfg,
    )
    assert abs(beta_b) < 1e-12


def test_beta_a_identity_at_zero_separation():
    cfg = dgsfm.DgsfmConfig()
    beta_a, _ = dgsfm.beta_components(
        np.array([5.0, 1.0]), np.array([20.0, 0.0]),
        np.array([5.0, 1.0]), np.array([15.0, 0.0]), cfg,
    )
    assert beta_a == cfg.amplitude


def test_beta_components_closing_gap_arithmetic():
    # r_i=(0,0) v_i=(20,0); r_j=(30,0) v_j=(15,0); N_DG=25, dt=0.04:
    # r_i*=(20,0), r_j*=(45,0); beta_b = V(r_i*; r_j*, v_j) - V(r_i; r_j, v_j).
    cfg = dgsfm.DgsfmConfig()
    beta_a, beta_b = dgsfm.beta_components(
        np.array([0.0, 0.0]), np.array([20.0, 0.0]),
        np.array([30.0, 0.0]), np.array([15.0, 0.0]), cfg,
    )
    expected_a = dgsfm.v_egg((30, 0), (0, 0), (20, 0), cfg)
    expected_b = dgsfm.v_egg((20, 0), (45, 0), (15, 0), cfg) - dgsfm.v_egg(
        (0, 0), (30, 0), (15, 0), cfg
    )
    assert abs(beta_a - expected_a) < 1e-12
    assert abs(beta_b - expected_b) < 1e-12
    assert beta_b > 0  # ego closes in: intrusion into j's rear field grows


def scores(presence, positions=None, seed=0):
    rng = np.random.default_rng(seed)
    n, t = presence.shape
    ego_pos = np.cumsum(rng.normal(1.0, 0.01, size=(100, 2)), axis=0)
    ego_vel = rng.normal(20.0, 0.1, size=(100, 2))
    nb_pos = positions if positions is not None else rng.normal(30.0, 5.0, size=(n, 100, 2))
    nb_vel = rng.normal(20.0, 1.0, size=(n, 100, 2))
    return dgsfm.interaction_scores(
        ego_pos, ego_vel, nb_pos, nb_vel, presence, dgsfm.DgsfmConfig()
    )


def test_single_neighbor_row_is_one():
    presence = np.zeros((8, 100), dtype=bool)
    presence[2, :] = True
    mat = scores(presence)
    assert np.allclose(mat[3, :], 1.0)  # slot offset: row 0 is ego


def test_absent_frames_are_zero():
    presence = np.zeros((8, 100), dtype=bool)
    mat = scores(presence)
    assert np.all(mat[1:, :] == 0.0)
    assert np.all(mat[0, :] == 1.0)


def test_equal_beta_neighbors_split_evenly():
    presence = np.zeros((8, 100), dtype=bool)
    presence[0, :] = presence[1, :] = True
    positions = np.zeros((8, 100, 2))
    positions[0, :, :] = [30.0, 0.0]
    positions[1, :, :] = [30.0, 0.0]
    rng = np.random.default_rng(1)
    ego_pos = np.zeros((100, 2))
    ego_vel = np.tile([20.0, 0.0], (100, 1))
    nb_vel = np.tile([20.0, 0.0], (8, 100, 1)).reshape(8, 100, 2)
    mat = dgsfm.interaction_scores(
        ego_pos, ego_vel, positions, nb_vel, presence, dgsfm.DgsfmConfig()
    )
    assert np.allclose(mat[1, :], 0.5)
    assert np.allclose(mat[2, :], 0.5)


@given(seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_framewise_normalization(seed):
    rng = np.random.default_rng(seed)
    presence = rng.random((8, 100)) < 0.6
    mat = scores(presence, seed=seed)
    for t in range(100):
        present = presence[:, t]
        if present.any():
            assert abs(mat[1:, t][present].sum() - 1.0) < 1e-9
        assert np.all(mat[1:, t][~present] == 0.0)


@given(offset=st.floats(min_value=-1e4, max_value=1e4), seed=st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_translation_invariance(offset, seed):
    rng = np.random.default_rng(seed)
    presence = rng.random((8, 100)) < 0.6
    ego_pos = np.cumsum(rng.normal(1.0, 0.01, size=(100, 2)), axis=0)
    ego_vel = rng.normal(20.0, 0.1, size=(100, 2))
    nb_pos = rng.normal(30.0, 5.0, size=(8, 100, 2))
    nb_vel = rng.normal(20.0, 1.0, size=(8, 100, 2))
    cfgd = dgsfm.DgsfmConfig()
    base = dgsfm.interaction_scores(ego_pos, ego_vel, nb_pos, nb_vel, presence, cfgd)
    shifted = dgsfm.interaction_scores(
        ego_pos + offset, ego_vel, nb_pos + offset, nb_vel, presence, cfgd
    )
    assert np.allclose(base, shifted, atol=1e-12)


def test_softmax_monotonicity():
    """Raising one neighbor's beta strictly raises its share and lowers all
    others'. Verified by moving one neighbor closer to the ego."""
    presence = np.ones((8, 100), dtype=bool)
    rng = np.random.default_rng(3)
    ego_pos = np.zeros((100, 2))
    ego_vel = np.tile([20.0, 0.0], (100, 1))
    nb_pos = rng.uniform(20, 60, size=(8, 100, 2))
    nb_vel = np.tile([20.0, 0.0], (8, 100, 1)).reshape(8, 100, 2)
    cfgd = dgsfm.DgsfmConfig()
    base = dgsfm.interaction_scores(ego_pos, ego_vel, nb_pos, nb_vel, presence, cfgd)
    closer = nb_pos.copy()
    closer[4] *= 0.5  # strictly higher beta for neighbor 4 at every frame
    bumped = dgsfm.interaction_scores(ego_pos, ego_vel, closer, nb_vel, presence, cfgd)
    assert np.all(bumped[5, :] > base[5, :])
    others = [i for i in range(1, 9) if i != 5]
    assert np.all(bumped[others, :] < base[others, :])


def test_param_validation():
    with pytest.raises(ValueError):
        egg(sigma=-1.0)
    with pytest.raises(ValueError):
        egg(forward_stretch=0.5, rear_compress=0.9)
    with pytest.raises(ValueError):
        dgsfm.DgsfmConfig(tau_sum=1.5)


# Scalar reference: the per-frame, per-neighbour loop the broadcast kernel
# replaced. It must agree bit for bit, so tests compare with array_equal.
def _reference_heading(v):
    speed = float(np.hypot(v[0], v[1]))
    if speed < dgsfm.MIN_HEADING_SPEED:
        return np.array([1.0, 0.0])
    return np.asarray(v, dtype=float) / speed


def _reference_v_egg(r_other, r_self, v_self, params):
    h = _reference_heading(np.asarray(v_self, dtype=float))
    d = np.asarray(r_other, dtype=float) - np.asarray(r_self, dtype=float)
    d_long = d[0] * h[0] + d[1] * h[1]
    d_lat = -d[0] * h[1] + d[1] * h[0]
    s = params.forward_stretch * params.sigma if d_long >= 0 else params.rear_compress * params.sigma
    rho = np.hypot(d_long / s, d_lat / (params.lateral_scale * params.sigma))
    return float(params.amplitude * np.exp(-rho))


def _reference_scores(ego_pos, ego_vel, nb_pos, nb_vel, presence, cfg):
    values = np.zeros((9, 100))
    values[0, :] = 1.0
    horizon = cfg.n_dg * cfg.dt
    for t in range(100):
        present = np.flatnonzero(presence[:, t])
        if present.size == 0:
            continue
        betas = np.empty(present.size)
        for k, j in enumerate(present):
            beta_a = _reference_v_egg(nb_pos[j, t], ego_pos[t], ego_vel[t], cfg)
            ego_star = ego_pos[t] + horizon * ego_vel[t]
            nb_star = nb_pos[j, t] + horizon * nb_vel[j, t]
            beta_b = _reference_v_egg(ego_star, nb_star, nb_vel[j, t], cfg) - _reference_v_egg(
                ego_pos[t], nb_pos[j, t], nb_vel[j, t], cfg
            )
            betas[k] = cfg.tau_sum * beta_a + (1.0 - cfg.tau_sum) * beta_b
        scaled = betas / cfg.softmax_temperature
        scaled -= scaled.max()
        weights = np.exp(scaled)
        values[1 + present, t] = weights / weights.sum()
    return values


def _oracle_inputs(seed, p_present):
    """Random scene whose frames mix full, empty and partial presence, slow
    ego and neighbour frames, and neighbours at d_long == 0 exactly."""
    rng = np.random.default_rng(seed)
    presence = rng.random((8, 100)) < p_present
    presence[:, 0:5] = True    # all 8 present
    presence[:, 5:10] = False  # none present
    ego_pos = np.cumsum(rng.normal(1.0, 0.5, size=(100, 2)), axis=0)
    ego_vel = rng.normal(20.0, 5.0, size=(100, 2))
    ego_vel[10:15] = rng.normal(0.0, 0.03, size=(5, 2))  # below MIN_HEADING_SPEED
    ego_vel[15:20] = [0.0, 0.0]
    nb_pos = ego_pos + rng.normal(0.0, 30.0, size=(8, 100, 2))
    nb_vel = rng.normal(20.0, 8.0, size=(8, 100, 2))
    nb_vel[:, 20:25] = rng.normal(0.0, 0.03, size=(8, 5, 2))
    nb_vel[2, 25:30] = [0.0, 0.0]
    # d_long == 0: the neighbour on the ego's position, or straight beside
    # an ego heading along +x.
    ego_vel[30:40] = [22.0, 0.0]
    nb_pos[0, 30:40] = ego_pos[30:40]
    nb_pos[1, 30:40] = ego_pos[30:40] + [0.0, 3.75]
    nb_pos[3, 30:40] = ego_pos[30:40] - [0.0, 3.75]
    nb_pos[:, 40:45] = ego_pos[40:45]  # all 8 on the ego
    nb_pos = np.where(presence[..., None], nb_pos, 0.0)
    nb_vel = np.where(presence[..., None], nb_vel, 0.0)
    return ego_pos, ego_vel, nb_pos, nb_vel, presence


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("p_present", [0.05, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("tau_sum, temperature", [(0.5, 1.0), (0.0, 0.2), (1.0, 3.0)])
def test_scores_bit_identical_to_scalar_reference(seed, p_present, tau_sum, temperature):
    inputs = _oracle_inputs(seed, p_present)
    cfg = dgsfm.DgsfmConfig(tau_sum=tau_sum, softmax_temperature=temperature)
    got = dgsfm.interaction_scores(*inputs, cfg)
    assert np.array_equal(got, _reference_scores(*inputs, cfg))


def test_v_egg_and_beta_broadcast_match_scalar_calls():
    rng = np.random.default_rng(7)
    r_other = rng.normal(0.0, 20.0, size=(3, 4, 2))
    r_self = rng.normal(0.0, 20.0, size=(4, 2))
    v_self = rng.normal(10.0, 10.0, size=(4, 2))
    v_self[0] = 0.0
    params = egg()
    grid = dgsfm.v_egg(r_other, r_self, v_self, params)
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert grid[i, j] == _reference_v_egg(r_other[i, j], r_self[j], v_self[j], params)

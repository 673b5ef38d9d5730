import numpy as np
import pytest

from scenmine.types import FEATURE_NAMES, Trajectory


def make_traj(
    ax=None,
    vy=None,
    n=None,
    vehicle_id=1,
    recording_id="test",
    dt=0.04,
    first_frame=0,
    vx0=25.0,
    x0=0.0,
    y0=0.0,
    lane_id=2,
    ay=None,
):
    """Trajectory with prescribed per-frame ax and vy; x, vx, y integrated."""
    if n is None:
        n = len(ax) if ax is not None else len(vy)
    ax = np.zeros(n) if ax is None else np.asarray(ax, dtype=float)
    vy = np.zeros(n) if vy is None else np.asarray(vy, dtype=float)
    ay = np.zeros(n) if ay is None else np.asarray(ay, dtype=float)
    vx = vx0 + np.concatenate([[0.0], np.cumsum(ax[:-1]) * dt])
    x = x0 + np.concatenate([[0.0], np.cumsum(vx[:-1]) * dt])
    y = y0 + np.concatenate([[0.0], np.cumsum(vy[:-1]) * dt])
    return Trajectory(
        vehicle_id=vehicle_id,
        recording_id=recording_id,
        dt=dt,
        first_frame=first_frame,
        x=x,
        y=y,
        vx=vx,
        vy=vy,
        ax=ax,
        ay=ay,
        lane_id=np.full(n, lane_id),
    )


def assert_same_trajectories(a, b):
    """Exact equality of two trajectory lists: ids, dt, frames and columns."""
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert (ta.vehicle_id, ta.recording_id, ta.dt, ta.first_frame) == (
            tb.vehicle_id, tb.recording_id, tb.dt, tb.first_frame)
        for name in FEATURE_NAMES + ("lane_id",):
            assert np.array_equal(getattr(ta, name), getattr(tb, name)), name


@pytest.fixture
def rng():
    return np.random.default_rng(0)

"""Directed-gradient social force interaction scores.

An egg-shaped repulsive potential, stretched forward along the mover's
heading, yields per-frame, per-neighbor relevance scores that are softmax
normalized over the present neighbors and assembled into an interaction
matrix (ego row fixed to 1, absent slots 0).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .types import N_SLOTS, T_OBS

MIN_HEADING_SPEED = 0.1  # m/s; below this the heading falls back to +x


@dataclass(frozen=True)
class DgsfmConfig:
    amplitude: float = 1.0       # A of the egg potential
    sigma: float = 10.0          # m, base range
    forward_stretch: float = 2.0  # gamma_f >= 1
    rear_compress: float = 0.5    # gamma_b in (0, 1]
    lateral_scale: float = 0.6    # gamma_l > 0
    tau_sum: float = 0.5
    n_dg: int = 25               # extrapolation steps (1 s at 25 Hz)
    dt: float = field(default=0.04, metadata={"supplied": True})  # s, the recording's frame time
    softmax_temperature: float = 1.0

    def __post_init__(self):
        if min(self.amplitude, self.sigma, self.forward_stretch, self.rear_compress, self.lateral_scale) <= 0:
            raise ValueError("all egg-potential parameters must be positive")
        if not (self.forward_stretch >= 1.0 >= self.rear_compress):
            raise ValueError("requires forward_stretch >= 1 >= rear_compress")
        if not 0.0 <= self.tau_sum <= 1.0:
            raise ValueError("tau_sum must lie in [0, 1]")
        if self.n_dg < 1:
            raise ValueError("n_dg must be >= 1")
        if self.softmax_temperature <= 0:
            raise ValueError("softmax_temperature must be positive")


def _heading(v: np.ndarray) -> np.ndarray:
    """Unit heading of each ``(..., 2)`` velocity; +x below MIN_HEADING_SPEED."""
    v = np.asarray(v, dtype=float)
    speed = np.hypot(v[..., 0], v[..., 1])[..., None]
    slow = speed < MIN_HEADING_SPEED
    return np.where(slow, [1.0, 0.0], v / np.where(slow, 1.0, speed))


def v_egg(
    r_other: np.ndarray,
    r_self: np.ndarray,
    v_self: np.ndarray,
    cfg: DgsfmConfig,
) -> np.ndarray:
    """Anisotropic exponential repulsion of ``r_other`` inside the field of
    ``r_self`` heading along ``v_self``; range stretched forward, compressed
    to the rear, and scaled laterally. Broadcasts over leading ``(..., 2)``
    axes; a single ``(2,)`` triple gives a scalar."""
    h = _heading(v_self)
    d = np.asarray(r_other, dtype=float) - np.asarray(r_self, dtype=float)
    d_long = d[..., 0] * h[..., 0] + d[..., 1] * h[..., 1]
    d_lat = -d[..., 0] * h[..., 1] + d[..., 1] * h[..., 0]
    s = np.where(d_long >= 0, cfg.forward_stretch * cfg.sigma, cfg.rear_compress * cfg.sigma)
    rho = np.hypot(d_long / s, d_lat / (cfg.lateral_scale * cfg.sigma))
    return cfg.amplitude * np.exp(-rho)


def beta_components(
    ego_pos: np.ndarray,
    ego_vel: np.ndarray,
    nb_pos: np.ndarray,
    nb_vel: np.ndarray,
    cfg: DgsfmConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Intrusion depth into the ego's directional field (beta_a) and the
    short-horizon change of the ego's intrusion into the neighbor's field
    (beta_b; may be negative). Broadcasts like ``v_egg``."""
    beta_a = v_egg(nb_pos, ego_pos, ego_vel, cfg)
    horizon = cfg.n_dg * cfg.dt
    ego_star = np.asarray(ego_pos, dtype=float) + horizon * np.asarray(ego_vel, dtype=float)
    nb_star = np.asarray(nb_pos, dtype=float) + horizon * np.asarray(nb_vel, dtype=float)
    beta_b = v_egg(ego_star, nb_star, nb_vel, cfg) - v_egg(ego_pos, nb_pos, nb_vel, cfg)
    return beta_a, beta_b


def interaction_scores(
    ego_pos: np.ndarray,       # (T, 2)
    ego_vel: np.ndarray,       # (T, 2)
    neighbor_pos: np.ndarray,  # (N-1, T, 2)
    neighbor_vel: np.ndarray,  # (N-1, T, 2)
    presence: np.ndarray,      # (N-1, T), bool
    cfg: DgsfmConfig,
) -> np.ndarray:
    """The (N, T) framewise softmax-normalized interaction matrix over
    present neighbors; ego row 1, absent slots 0."""
    n_frames = ego_pos.shape[0]
    n_neighbors = neighbor_pos.shape[0]
    if n_neighbors != N_SLOTS - 1 or n_frames != T_OBS:
        raise ValueError(
            f"expected ({N_SLOTS - 1}, {T_OBS}) neighbor slots/frames, "
            f"got ({n_neighbors}, {n_frames})"
        )
    presence = np.asarray(presence, dtype=bool)
    beta_a, beta_b = beta_components(ego_pos, ego_vel, neighbor_pos, neighbor_vel, cfg)
    betas = cfg.tau_sum * beta_a + (1.0 - cfg.tau_sum) * beta_b
    scaled = np.where(presence, betas / cfg.softmax_temperature, -np.inf)
    any_present = presence.any(axis=0)
    scaled -= np.where(any_present, scaled.max(axis=0), 0.0)
    weights = np.exp(scaled)  # exp(-inf) is 0 in absent slots
    # Sum in the order numpy's 1-d sum uses over the present slots alone:
    # eight-way pairwise when all 8 are present, one after another otherwise
    # (an absent slot adds an exact 0.0).
    pairs = weights[0::2] + weights[1::2]
    total = np.where(
        presence.all(axis=0),
        (pairs[0] + pairs[1]) + (pairs[2] + pairs[3]),
        weights.sum(axis=0),
    )
    values = np.ones((N_SLOTS, T_OBS))
    values[1:] = weights / np.where(any_present, total, 1.0)
    return values

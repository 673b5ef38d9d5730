"""Knowledge-guided clustered vector-quantized autoencoder.

Feed-forward encoder/decoder with a finite codebook, straight-through
gradient estimation, auxiliary pseudo-class and interaction heads, plain SGD
training with dead-code revival, and finite-difference gradient checking.
All gradients are hand-derived; numpy only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .types import (
    N_CLASSES,
    N_FEATURES,
    N_SLOTS,
    T_OBS,
    ScenarioRecord,
)

CHECKPOINT_FORMAT_VERSION = "scenmine-checkpoint-v1"

# Keys of ``_per_term_losses``, in ``LossBreakdown`` field order.
LOSS_TERMS = ("recon", "codebook_term", "commit_term", "cl", "inter")


class TrainingError(Exception):
    """Raised when training diverges (non-finite loss)."""


class ContractError(Exception):
    """Shape mismatch between data and model."""


@dataclass(frozen=True)
class TrainConfig:
    lambda_cl: float = 1.0
    lambda_int: float = 1.0
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 300
    seed: int = 0
    commitment_weight: float = 0.25
    dead_code_threshold: float = 1e-3
    usage_decay: float = 0.99
    revival_noise: float = 0.01
    hidden: tuple[int, ...] = (256, 256)
    latent_dim: int = 64
    codebook_size: int = 64

    def __post_init__(self):
        if self.lambda_cl < 0 or self.lambda_int < 0:
            raise ValueError("loss weights must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.latent_dim < 1 or self.codebook_size < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("latent_dim, codebook_size and every hidden width must be at least 1")


@dataclass(frozen=True)
class LossBreakdown:
    recon: float
    codebook_term: float
    commit_term: float
    cl: float
    inter: float
    total: float

    @staticmethod
    def combine(recon, codebook_term, commit_term, cl, inter, lambda_cl, lambda_int):
        total = recon + codebook_term + commit_term + lambda_cl * cl + lambda_int * inter
        return LossBreakdown(recon, codebook_term, commit_term, cl, inter, total)


@dataclass
class ModelParams:
    """All weights of the model plus input standardization and code usage.

    Arrays are mutable during training and must be treated as read-only
    afterwards. ``codebook_update`` documents the chosen update rule for the
    checkpoint.
    """

    n_slots: int
    n_features: int
    t_obs: int
    n_classes: int
    hidden: tuple[int, ...]
    latent_dim: int
    codebook_size: int
    enc_w: list[np.ndarray]
    enc_b: list[np.ndarray]
    dec_w: list[np.ndarray]
    dec_b: list[np.ndarray]
    codebook: np.ndarray       # (Q, d)
    cl_w: np.ndarray           # (S, d)
    cl_b: np.ndarray
    int_w: np.ndarray          # (n_slots * t_obs, d)
    int_b: np.ndarray
    feature_shift: np.ndarray  # (n_features,)
    feature_scale: np.ndarray  # (n_features,)
    usage: np.ndarray          # (Q,), exponential moving usage per code
    codebook_update: str = "sgd-gradient"

    @property
    def input_dim(self) -> int:
        return self.n_slots * self.n_features * self.t_obs


def init_params(
    cfg: TrainConfig,
    rng: Optional[np.random.Generator],
    n_slots: int = N_SLOTS,
    n_features: int = N_FEATURES,
    t_obs: int = T_OBS,
    n_classes: int = N_CLASSES,
    feature_shift: Optional[np.ndarray] = None,
    feature_scale: Optional[np.ndarray] = None,
) -> ModelParams:
    """Random initial weights; with ``rng=None`` every weight is zero, for a
    caller that only needs the layout (a checkpoint load fills it)."""
    input_dim = n_slots * n_features * t_obs
    enc_sizes = [input_dim, *cfg.hidden, cfg.latent_dim]
    dec_sizes = [cfg.latent_dim, *reversed(cfg.hidden), input_dim]

    def draw(n_out, n_in, std):
        if rng is None:
            return np.zeros((n_out, n_in))
        return rng.normal(0.0, std, size=(n_out, n_in))

    def layer(n_out, n_in):
        return draw(n_out, n_in, 1.0 / np.sqrt(n_in))

    return ModelParams(
        n_slots=n_slots,
        n_features=n_features,
        t_obs=t_obs,
        n_classes=n_classes,
        hidden=tuple(cfg.hidden),
        latent_dim=cfg.latent_dim,
        codebook_size=cfg.codebook_size,
        enc_w=[layer(b, a) for a, b in zip(enc_sizes, enc_sizes[1:])],
        enc_b=[np.zeros(b) for b in enc_sizes[1:]],
        dec_w=[layer(b, a) for a, b in zip(dec_sizes, dec_sizes[1:])],
        dec_b=[np.zeros(b) for b in dec_sizes[1:]],
        codebook=draw(cfg.codebook_size, cfg.latent_dim, 0.1),
        cl_w=layer(n_classes, cfg.latent_dim),
        cl_b=np.zeros(n_classes),
        int_w=layer(n_slots * t_obs, cfg.latent_dim),
        int_b=np.zeros(n_slots * t_obs),
        feature_shift=(
            feature_shift if feature_shift is not None else np.zeros(n_features)
        ).astype(float),
        feature_scale=(
            feature_scale if feature_scale is not None else np.ones(n_features)
        ).astype(float),
        usage=np.full(cfg.codebook_size, 1.0 / cfg.codebook_size),
    )


def _param_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The trainable arrays in their fixed order, by the names that
    ``_backward`` keys its gradients with and checkpoints store."""
    named = [
        (f"{kind}[{i}]", arr)
        for kind in ("enc_w", "enc_b", "dec_w", "dec_b")
        for i, arr in enumerate(getattr(params, kind))
    ]
    for name in ("codebook", "cl_w", "cl_b", "int_w", "int_b"):
        named.append((name, getattr(params, name)))
    return named


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def _standardize(inputs: np.ndarray, masks: np.ndarray, params: ModelParams) -> np.ndarray:
    """(B, N, F, T) -> standardized, absent cells forced to zero."""
    shift = params.feature_shift[None, None, :, None]
    scale = params.feature_scale[None, None, :, None]
    return ((inputs - shift) / scale) * masks[:, :, None, :].astype(float)


def _mlp_forward(
    h: np.ndarray, ws: Sequence[np.ndarray], bs: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine layers with tanh between them (none after the last). Returns the
    output and the cache of layer activations, the input first."""
    cache = [h]
    last = len(ws) - 1
    for i, (w, b) in enumerate(zip(ws, bs)):
        h = h @ w.T + b
        if i < last:
            h = np.tanh(h)
        cache.append(h)
    return h, cache


def _mlp_backward(
    g: np.ndarray,
    cache: list[np.ndarray],
    ws: Sequence[np.ndarray],
    prefix: str,
    grads: dict[str, np.ndarray],
    input_grad: bool,
) -> Optional[np.ndarray]:
    """Backprop of ``_mlp_forward`` from the output gradient ``g``. Stores the
    layer gradients in ``grads`` under the registry names of ``prefix`` and
    returns the input gradient if ``input_grad`` is set."""
    for i in range(len(ws) - 1, -1, -1):
        grads[f"{prefix}_w[{i}]"] = g.T @ cache[i]
        grads[f"{prefix}_b[{i}]"] = g.sum(axis=0)
        if i == 0 and not input_grad:
            return None
        g = g @ ws[i]
        if i > 0:
            g = g * (1.0 - cache[i] * cache[i])
    return g


def _quantize_batch(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(z * z, axis=1, keepdims=True)
        - 2.0 * z @ codebook.T
        + np.sum(codebook * codebook, axis=1)
    )
    return np.argmin(d2, axis=1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


# ---------------------------------------------------------------------------
# Single-record operations (public surface)
# ---------------------------------------------------------------------------

def _check_shape(tensor_values: np.ndarray, params: ModelParams) -> None:
    expected = (params.n_slots, params.n_features, params.t_obs)
    if tensor_values.shape != expected:
        raise ContractError(f"input shape {tensor_values.shape} != {expected}")


def encode(tensor_values: np.ndarray, mask: np.ndarray, params: ModelParams) -> np.ndarray:
    """Deterministic encoder map to the continuous latent in R^d."""
    _check_shape(tensor_values, params)
    x = _standardize(tensor_values[None], mask[None], params)
    z, _ = _mlp_forward(x.reshape(1, -1), params.enc_w, params.enc_b)
    return z[0]


def quantize(z: np.ndarray, codebook: np.ndarray) -> tuple[int, np.ndarray]:
    """Nearest codebook entry by squared Euclidean distance; ties break to
    the lowest index."""
    if codebook.size == 0:
        raise ValueError("codebook must be non-empty")
    q = int(_quantize_batch(np.asarray(z, dtype=float)[None], codebook)[0])
    return q, codebook[q].copy()


def decode(z_q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Reconstruction of the (standardized) scenario tensor from a latent."""
    x_hat, _ = _mlp_forward(np.asarray(z_q, dtype=float)[None], params.dec_w, params.dec_b)
    return x_hat[0].reshape(params.n_slots, params.n_features, params.t_obs)


def classify(z_q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pseudo-class probabilities from the discretized latent."""
    return _softmax(params.cl_w @ np.asarray(z_q, dtype=float) + params.cl_b)


def predict_interaction(z_q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Predicted interaction matrix in [0,1]^{N x T}."""
    u = params.int_w @ np.asarray(z_q, dtype=float) + params.int_b
    return _sigmoid(u).reshape(params.n_slots, params.t_obs)


# ---------------------------------------------------------------------------
# Batched loss and gradients
# ---------------------------------------------------------------------------

def _decode_heads(z_q: np.ndarray, params: ModelParams) -> dict:
    """Decoder and both heads, all fed the (quantized) latent."""
    x_hat, dec_cache = _mlp_forward(z_q, params.dec_w, params.dec_b)
    return {
        "dec_cache": dec_cache,
        "x_hat": x_hat,
        "probs": _softmax(z_q @ params.cl_w.T + params.cl_b),
        "t_hat": _sigmoid(z_q @ params.int_w.T + params.int_b),
    }


def _forward(inputs: np.ndarray, masks: np.ndarray, params: ModelParams) -> dict:
    x = _standardize(inputs, masks, params)
    x_flat = x.reshape(x.shape[0], -1)
    z, enc_cache = _mlp_forward(x_flat, params.enc_w, params.enc_b)
    q = _quantize_batch(z, params.codebook)
    z_q = params.codebook[q]
    return {
        "x_flat": x_flat,
        "enc_cache": enc_cache,
        "z": z,
        "q": q,
        "z_q": z_q,
        **_decode_heads(z_q, params),
    }


def _per_term_losses(
    fwd: dict,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    cfg: TrainConfig,
    params: ModelParams,
    *,
    z_sg: Optional[np.ndarray] = None,
    z_q_sg: Optional[np.ndarray] = None,
) -> dict[str, np.ndarray]:
    """Per-sample loss terms. Reconstruction and interaction errors are mean
    squared error over present cells only; codebook and commitment terms are
    means over the latent dimension. ``z_sg``/``z_q_sg`` are the stop-gradient
    operands of the codebook and commitment terms; they default to ``z`` and
    ``z_q``, which is what training uses."""
    b = fwd["z"].shape[0]
    cell_mask = np.repeat(masks[:, :, None, :], params.n_features, axis=2).reshape(b, -1)
    cell_counts = np.maximum(cell_mask.sum(axis=1), 1.0)
    diff = (fwd["x_hat"] - fwd["x_flat"]) * cell_mask
    recon = (diff * diff).sum(axis=1) / cell_counts

    codebook_gap = (fwd["z"] if z_sg is None else z_sg) - fwd["z_q"]
    codebook_term = np.mean(codebook_gap * codebook_gap, axis=1)
    commit_gap = fwd["z"] - (fwd["z_q"] if z_q_sg is None else z_q_sg)
    commit_term = cfg.commitment_weight * np.mean(commit_gap * commit_gap, axis=1)

    if class_targets is not None:
        cl = -np.sum(class_targets * np.log(np.maximum(fwd["probs"], 1e-300)), axis=1)
    else:
        cl = np.zeros(b)

    if interaction_targets is not None:
        slot_mask = masks.reshape(b, -1).astype(float)
        slot_counts = np.maximum(slot_mask.sum(axis=1), 1.0)
        idiff = (fwd["t_hat"] - interaction_targets.reshape(b, -1)) * slot_mask
        inter = (idiff * idiff).sum(axis=1) / slot_counts
    else:
        inter = np.zeros(b)

    return dict(zip(LOSS_TERMS, (recon, codebook_term, commit_term, cl, inter)))


def _total(terms: dict[str, np.ndarray], cfg: TrainConfig) -> np.ndarray:
    """Per-sample weighted total of ``_per_term_losses``."""
    return (
        terms["recon"]
        + terms["codebook_term"]
        + terms["commit_term"]
        + cfg.lambda_cl * terms["cl"]
        + cfg.lambda_int * terms["inter"]
    )


def _backward(
    fwd: dict,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    cfg: TrainConfig,
    params: ModelParams,
) -> dict[str, np.ndarray]:
    """Gradients of the batch-mean total loss, keyed by the names of
    ``_param_arrays``. The quantization gap gradient is passed straight
    through from the decoder (and head) inputs onto the encoder output; the
    codebook receives only the vector-quantization term.
    """
    b = fwd["z"].shape[0]
    grads: dict[str, np.ndarray] = {}

    cell_mask = np.repeat(masks[:, :, None, :], params.n_features, axis=2).reshape(b, -1)
    cell_counts = np.maximum(cell_mask.sum(axis=1), 1.0)
    g_xhat = 2.0 * cell_mask * (fwd["x_hat"] - fwd["x_flat"]) / cell_counts[:, None] / b
    g_zq = _mlp_backward(g_xhat, fwd["dec_cache"], params.dec_w, "dec", grads, input_grad=True)

    # Heads (inputs are z_q; gradients reach the encoder via straight-through).
    if class_targets is not None and cfg.lambda_cl > 0:
        g_logits = cfg.lambda_cl * (fwd["probs"] - class_targets) / b
        grads["cl_w"] = g_logits.T @ fwd["z_q"]
        grads["cl_b"] = g_logits.sum(axis=0)
        g_zq = g_zq + g_logits @ params.cl_w
    else:
        grads["cl_w"], grads["cl_b"] = np.zeros_like(params.cl_w), np.zeros_like(params.cl_b)
    if interaction_targets is not None and cfg.lambda_int > 0:
        slot_mask = masks.reshape(b, -1).astype(float)
        slot_counts = np.maximum(slot_mask.sum(axis=1), 1.0)
        t_hat = fwd["t_hat"]
        g_u = (
            cfg.lambda_int
            * 2.0
            * slot_mask
            * (t_hat - interaction_targets.reshape(b, -1))
            / slot_counts[:, None]
            / b
            * t_hat
            * (1.0 - t_hat)
        )
        grads["int_w"] = g_u.T @ fwd["z_q"]
        grads["int_b"] = g_u.sum(axis=0)
        g_zq = g_zq + g_u @ params.int_w
    else:
        grads["int_w"], grads["int_b"] = np.zeros_like(params.int_w), np.zeros_like(params.int_b)

    # Codebook: vector-quantization term only.
    gap = fwd["z_q"] - fwd["z"]
    code_grad = 2.0 * gap / params.latent_dim / b
    grads["codebook"] = np.zeros_like(params.codebook)
    np.add.at(grads["codebook"], fwd["q"], code_grad)

    # Encoder: straight-through decoder/head gradient plus commitment term.
    g_z = g_zq + cfg.commitment_weight * 2.0 * (fwd["z"] - fwd["z_q"]) / params.latent_dim / b
    _mlp_backward(g_z, fwd["enc_cache"], params.enc_w, "enc", grads, input_grad=False)
    return grads


def loss(record: ScenarioRecord, params: ModelParams, cfg: TrainConfig) -> LossBreakdown:
    """Full loss decomposition for one record."""
    inputs, masks, cls, inter = _record_arrays([record])
    fwd = _forward(inputs, masks, params)
    terms = _per_term_losses(fwd, masks, cls, inter, cfg, params)
    return LossBreakdown.combine(
        *(float(terms[key][0]) for key in LOSS_TERMS), cfg.lambda_cl, cfg.lambda_int
    )


def _record_arrays(records: Sequence[ScenarioRecord]):
    inputs = np.stack([r.tensor.values for r in records])
    masks = np.stack([r.tensor.presence_mask for r in records])
    cls = np.stack([r.pseudo_class.one_hot for r in records])
    inter = np.stack([r.interaction.values for r in records])
    return inputs, masks, cls, inter


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def fit_standardization(inputs: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean/std over present cells; std floored at 1e-6."""
    n_features = inputs.shape[2]
    shift = np.zeros(n_features)
    scale = np.ones(n_features)
    cell_mask = masks[:, :, None, :]
    for f in range(n_features):
        vals = inputs[:, :, f, :][cell_mask[:, :, 0, :]]
        if vals.size:
            shift[f] = vals.mean()
            scale[f] = max(float(vals.std()), 1e-6)
    return shift, scale


def train_arrays(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    cfg: TrainConfig,
    n_classes: int = N_CLASSES,
) -> tuple[ModelParams, list[LossBreakdown]]:
    """Mini-batch SGD over raw arrays. See ``train`` for the record API."""
    if inputs.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    n_samples, n_slots, n_features, t_obs = inputs.shape
    rng = np.random.default_rng(cfg.seed)
    shift, scale = fit_standardization(inputs, masks)
    params = init_params(
        cfg,
        rng,
        n_slots=n_slots,
        n_features=n_features,
        t_obs=t_obs,
        n_classes=n_classes,
        feature_shift=shift,
        feature_scale=scale,
    )

    registry = _param_arrays(params)
    history: list[LossBreakdown] = []
    recent_z = np.zeros((0, cfg.latent_dim))
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        for batch_no, start in enumerate(range(0, n_samples, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch_masks = masks[idx]
            batch_targets = (
                None if class_targets is None else class_targets[idx],
                None if interaction_targets is None else interaction_targets[idx],
            )
            fwd = _forward(inputs[idx], batch_masks, params)
            terms = _per_term_losses(fwd, batch_masks, *batch_targets, cfg, params)
            batch_total = _total(terms, cfg).mean()
            if not np.isfinite(batch_total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            grads = _backward(fwd, batch_masks, *batch_targets, cfg, params)
            for name, arr in registry:
                arr -= cfg.learning_rate * grads[name]

            counts = np.bincount(fwd["q"], minlength=cfg.codebook_size) / len(idx)
            params.usage = cfg.usage_decay * params.usage + (1.0 - cfg.usage_decay) * counts
            recent_z = fwd["z"]
            for key in sums:
                sums[key] += float(terms[key].sum())

        # Dead-code revival from recent encoder outputs.
        dead = np.flatnonzero(params.usage < cfg.dead_code_threshold)
        if dead.size and recent_z.shape[0]:
            for q in dead:
                pick = recent_z[int(rng.integers(recent_z.shape[0]))]
                params.codebook[q] = pick + rng.normal(0.0, cfg.revival_noise, cfg.latent_dim)
                params.usage[q] = 1.0 / cfg.codebook_size
        history.append(
            LossBreakdown.combine(
                *(sums[key] / n_samples for key in LOSS_TERMS), cfg.lambda_cl, cfg.lambda_int
            )
        )
    return params, history


def train(
    dataset: Sequence[ScenarioRecord], cfg: TrainConfig
) -> tuple[ModelParams, list[LossBreakdown]]:
    """Trains on ScenarioRecords; deterministic for a fixed seed."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    inputs, masks, cls, inter = _record_arrays(dataset)
    return train_arrays(inputs, masks, cls, inter, cfg)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def _frozen_total(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    params: ModelParams,
    cfg: TrainConfig,
    q0: np.ndarray,
    z0: np.ndarray,
    gap0: np.ndarray,
) -> float:
    """Total loss with the quantization index frozen and the quantization gap
    treated as a constant, exactly the function whose gradient the
    straight-through estimator computes."""
    x = _standardize(inputs, masks, params)
    x_flat = x.reshape(x.shape[0], -1)
    z, _ = _mlp_forward(x_flat, params.enc_w, params.enc_b)
    fwd = {"x_flat": x_flat, "z": z, "z_q": params.codebook[q0], **_decode_heads(z + gap0, params)}
    terms = _per_term_losses(
        fwd, masks, class_targets, interaction_targets, cfg, params, z_sg=z0, z_q_sg=z0 + gap0
    )
    return float(_total(terms, cfg).mean())


def grad_check_arrays(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    params: ModelParams,
    cfg: TrainConfig,
    epsilon: float = 1e-5,
    n_checks: int = 120,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random parameter subset; the quantization index is
    frozen at its base-point value for the numeric path."""
    fwd = _forward(inputs, masks, params)
    grads = _backward(fwd, masks, class_targets, interaction_targets, cfg, params)
    q0 = fwd["q"].copy()
    z0 = fwd["z"].copy()
    gap0 = fwd["z_q"] - fwd["z"]

    named = _param_arrays(params)
    sizes = np.array([arr.size for _, arr in named])
    total_size = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total_size, size=min(n_checks, total_size), replace=False)
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    max_err = 0.0
    for flat_idx in picks:
        arr_i = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name, arr = named[arr_i]
        local = int(flat_idx - offsets[arr_i])
        multi = np.unravel_index(local, arr.shape)
        orig = arr[multi]
        arr[multi] = orig + epsilon
        up = _frozen_total(inputs, masks, class_targets, interaction_targets, params, cfg, q0, z0, gap0)
        arr[multi] = orig - epsilon
        down = _frozen_total(inputs, masks, class_targets, interaction_targets, params, cfg, q0, z0, gap0)
        arr[multi] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = float(grads[name][multi])
        err = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err


def grad_check(
    record: ScenarioRecord,
    params: ModelParams,
    cfg: TrainConfig,
    epsilon: float = 1e-5,
    n_checks: int = 120,
    seed: int = 0,
) -> float:
    inputs, masks, cls, inter = _record_arrays([record])
    return grad_check_arrays(inputs, masks, cls, inter, params, cfg, epsilon, n_checks, seed)


# ---------------------------------------------------------------------------
# Checkpoint persistence (versioned header + raw float64 arrays)
# ---------------------------------------------------------------------------

def _checkpoint_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    return _param_arrays(params) + [
        ("feature_shift", params.feature_shift),
        ("feature_scale", params.feature_scale),
        ("usage", params.usage),
    ]


def save_checkpoint(params: ModelParams, path) -> None:
    named = _checkpoint_arrays(params)
    header = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "n_slots": params.n_slots,
        "n_features": params.n_features,
        "t_obs": params.t_obs,
        "n_classes": params.n_classes,
        "hidden": list(params.hidden),
        "latent_dim": params.latent_dim,
        "codebook_size": params.codebook_size,
        "codebook_update": params.codebook_update,
        "arrays": [[name, list(arr.shape)] for name, arr in named],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Reads a checkpoint written by ``save_checkpoint``. A header that does
    not describe this model layout, a short array block, a NaN or inf value
    or trailing bytes raise ContractError."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # includes UnicodeDecodeError
            raise ContractError(f"{path}: unreadable checkpoint header") from exc
        if not isinstance(header, dict):
            raise ContractError(f"{path}: checkpoint header is not a mapping")
        if header.get("format") != CHECKPOINT_FORMAT_VERSION:
            raise ContractError(f"{path}: unsupported checkpoint format {header.get('format')!r}")
        try:
            cfg = TrainConfig(
                hidden=tuple(header["hidden"]),
                latent_dim=header["latent_dim"],
                codebook_size=header["codebook_size"],
            )
            params = init_params(
                cfg,
                None,
                n_slots=header["n_slots"],
                n_features=header["n_features"],
                t_obs=header["t_obs"],
                n_classes=header["n_classes"],
            )
            params.codebook_update = str(header["codebook_update"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"{path}: invalid checkpoint header ({exc!r})") from exc
        named = _checkpoint_arrays(params)
        if header.get("arrays") != [[name, list(arr.shape)] for name, arr in named]:
            raise ContractError(f"{path}: array list does not match the model in the header")
        for name, arr in named:
            blob = fh.read(arr.size * 8)
            if len(blob) != arr.size * 8:
                raise ContractError(f"{path}: truncated in array {name}")
            arr[...] = np.frombuffer(blob, dtype="<f8").reshape(arr.shape)
            if not np.isfinite(arr).all():
                raise ContractError(f"{path}: non-finite value in array {name}")
        if fh.read(1):
            raise ContractError(f"{path}: trailing bytes after the last array")
    return params


def write_loss_history(history: Sequence[LossBreakdown], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,recon,codebook,commit,cl,int,total\n")
        for epoch, lb in enumerate(history):
            fh.write(
                f"{epoch},{lb.recon!r},{lb.codebook_term!r},{lb.commit_term!r},"
                f"{lb.cl!r},{lb.inter!r},{lb.total!r}\n"
            )

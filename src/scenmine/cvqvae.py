"""Knowledge-guided clustered vector-quantized autoencoder.

Feed-forward encoder/decoder with a finite codebook, straight-through
gradient estimation, auxiliary pseudo-class and interaction heads, plain SGD
training, and finite-difference gradient checking. All gradients are
hand-derived; numpy only. The weights are float32 from the draw on:
training steps them in place and checkpoints store them as they are. The
input standardization is float64, and ``encode`` and the gradient check
compute in float64 on float64 casts of the weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .types import (
    N_CLASSES,
    N_FEATURES,
    N_SLOTS,
    T_OBS,
    read_blocks,
    write_blocks,
    write_csv,
)

CHECKPOINT_FORMAT_VERSION = "scenmine-checkpoint-v3"

# Loss keys of ``_per_term_losses``, in loss-history column order.
LOSS_TERMS = ("recon", "codebook_term", "commit_term", "cl", "inter")
# The trainable arrays of ``ModelParams``: lists of per-layer arrays, then
# single arrays.
_LAYER_KINDS = ("enc_w", "enc_b", "dec_w", "dec_b")
_SINGLE_NAMES = ("codebook", "cl_w", "cl_b", "int_w", "int_b")
# The float64 values that ``init_params`` draws at a time.
_DRAW_VALUES = 1 << 16


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
    epochs: int = 60
    seed: int = field(default=0, metadata={"supplied": True})  # the train stage seed
    commitment_weight: float = 0.25
    hidden: tuple[int, ...] = (128, 128)
    latent_dim: int = 32
    codebook_size: int = 16

    def __post_init__(self):
        if self.lambda_cl < 0 or self.lambda_int < 0 or self.commitment_weight < 0:
            raise ValueError("loss weights lambda_cl, lambda_int and commitment_weight must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.latent_dim < 1 or self.codebook_size < 1 or any(h < 1 for h in self.hidden):
            raise ValueError("latent_dim, codebook_size and every hidden width must be at least 1")
        if not 0.0 <= self.learning_rate:  # 0 freezes the weights
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")


@dataclass
class ModelParams:
    """All weights of the model plus input standardization. The trainable
    arrays (see ``_param_arrays``) are float32, the standardization float64.

    Arrays are mutable during training and must be treated as read-only
    afterwards.
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
    """Random initial float32 weights; with ``rng=None`` every weight is
    zero, for a caller that only needs the layout (a checkpoint load fills
    it). Each weight is a float64 normal draw rounded to float32. A layer is
    drawn a chunk of rows at a time straight into its float32 array: the
    draws fill it in row-major order, so the values are those of one draw of
    the whole layer."""
    input_dim = n_slots * n_features * t_obs
    enc_sizes = [input_dim, *cfg.hidden, cfg.latent_dim]
    dec_sizes = [cfg.latent_dim, *reversed(cfg.hidden), input_dim]

    def draw(n_out, n_in, std):
        out = np.zeros((n_out, n_in), np.float32)
        if rng is not None:
            rows = max(1, _DRAW_VALUES // max(1, n_in))
            for start in range(0, n_out, rows):
                chunk = out[start:start + rows]
                chunk[...] = rng.normal(0.0, std, size=chunk.shape)
        return out

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
        enc_b=[np.zeros(b, np.float32) for b in enc_sizes[1:]],
        dec_w=[layer(b, a) for a, b in zip(dec_sizes, dec_sizes[1:])],
        dec_b=[np.zeros(b, np.float32) for b in dec_sizes[1:]],
        codebook=draw(cfg.codebook_size, cfg.latent_dim, 0.1),
        cl_w=layer(n_classes, cfg.latent_dim),
        cl_b=np.zeros(n_classes, np.float32),
        int_w=layer(n_slots * t_obs, cfg.latent_dim),
        int_b=np.zeros(n_slots * t_obs, np.float32),
        feature_shift=(
            feature_shift if feature_shift is not None else np.zeros(n_features)
        ).astype(float),
        feature_scale=(
            feature_scale if feature_scale is not None else np.ones(n_features)
        ).astype(float),
    )


def _live(params: ModelParams, n_live: int) -> ModelParams:
    """``params`` cut to the first ``n_live`` slots by zero-copy views: the
    input columns of the first encoder layer and the output rows of the last
    decoder layer and of the interaction head. Every other array is shared."""
    cells, frames = n_live * params.n_features * params.t_obs, n_live * params.t_obs
    return replace(
        params,
        n_slots=n_live,
        enc_w=[params.enc_w[0][:, :cells], *params.enc_w[1:]],
        dec_w=[*params.dec_w[:-1], params.dec_w[-1][:cells]],
        dec_b=[*params.dec_b[:-1], params.dec_b[-1][:cells]],
        int_w=params.int_w[:frames],
        int_b=params.int_b[:frames],
    )


def live_slots(masks: np.ndarray) -> int:
    """The live slot width of a batch, which a training run steps on and
    ``encode`` reads: 1 plus the last slot present in any record of the
    (B, N, T) ``masks``."""
    return int(max(np.flatnonzero(masks.any(axis=(0, 2))), default=0)) + 1


def _cast(params: ModelParams, dtype) -> ModelParams:
    """A copy of ``params`` whose trainable arrays are cast to ``dtype``;
    the standardization is shared."""
    return replace(
        params,
        **{kind: [arr.astype(dtype) for arr in getattr(params, kind)] for kind in _LAYER_KINDS},
        **{name: getattr(params, name).astype(dtype) for name in _SINGLE_NAMES},
    )


def _param_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The trainable arrays in their fixed order, by the names that
    ``_backward`` keys its gradients with and checkpoints store."""
    named = [
        (f"{kind}[{i}]", arr)
        for kind in _LAYER_KINDS
        for i, arr in enumerate(getattr(params, kind))
    ]
    for name in _SINGLE_NAMES:
        named.append((name, getattr(params, name)))
    return named


# ---------------------------------------------------------------------------
# Forward pieces
# ---------------------------------------------------------------------------

def _standardize(inputs: np.ndarray, masks: np.ndarray, shift: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(B, N, F, T) -> standardized by the per-feature ``shift`` and
    ``scale``, absent cells forced to zero. One (B, N, F, T) array is
    allocated; the division and the masking are done in place in it."""
    x = inputs - shift[None, None, :, None]
    x /= scale[None, None, :, None]
    x *= masks[:, :, None, :].astype(float)
    return x


def _mlp_forward(
    h: np.ndarray, ws: Sequence[np.ndarray], bs: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Affine layers with tanh between them (none after the last). Returns the
    output and the cache of layer activations, the input first."""
    cache = [h]
    last = len(ws) - 1
    for i, (w, b) in enumerate(zip(ws, bs)):
        h = h @ w.T
        h += b
        if i < last:
            np.tanh(h, out=h)
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
    returns the input gradient if ``input_grad`` is set. The cache is only
    read."""
    for i in range(len(ws) - 1, -1, -1):
        grads[f"{prefix}_w[{i}]"] = g.T @ cache[i]
        grads[f"{prefix}_b[{i}]"] = g.sum(axis=0)
        if i == 0 and not input_grad:
            return None
        g = g @ ws[i]
        if i > 0:
            g *= 1.0 - cache[i] * cache[i]
    return g


def _quantize_batch(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """The index of the code nearest to each row of ``z``, ties to the
    lowest; the distances are taken in ``z``'s dtype."""
    codebook = codebook.astype(z.dtype, copy=False)
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
    """1 / (1 + exp(-u)) for u >= 0 and exp(u) / (1 + exp(u)) below, so exp
    never overflows."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# Encoder (public surface)
# ---------------------------------------------------------------------------

def encode(inputs: np.ndarray, masks: np.ndarray, params: ModelParams) -> np.ndarray:
    """Deterministic encoder map of a (B, N, F, T) batch with its (B, N, T)
    presence masks to (B, d) continuous float64 latents. Records whose
    (N, F, T) is not the model's raise ContractError.

    Every cell of a slot absent from the whole batch standardizes to 0, so
    the first layer reads only the batch's live slot prefix (``_live``);
    the latents equal the full-width ones up to rounding. The layers are
    float64 BLAS products: float32 weights are cast to float64 for the call
    (numpy's float64 @ float32 is another product), float64 ones are used
    as they are. A float32 bias adds exactly."""
    expected = (params.n_slots, params.n_features, params.t_obs)
    if inputs.shape[1:] != expected:
        raise ContractError(f"record shape {inputs.shape[1:]} != the model's {expected}")
    width = live_slots(masks)
    x = _standardize(inputs[:, :width], masks[:, :width], params.feature_shift, params.feature_scale)
    ws = [w.astype(np.float64, copy=False) for w in _live(params, width).enc_w]
    z, _ = _mlp_forward(x.reshape(len(x), ws[0].shape[1]), ws, params.enc_b)
    return z


# ---------------------------------------------------------------------------
# Batched loss and gradients
# ---------------------------------------------------------------------------

def _batch(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    shift: np.ndarray,
    scale: np.ndarray,
) -> dict[str, Optional[np.ndarray]]:
    """One float row per record of everything a step reads: the flat input
    standardized by ``shift`` and ``scale``, the present-slot mask as 0/1,
    the present-cell and present-slot counts floored at 1, and the flat
    targets (None when absent). Each row depends on its record only, so training builds this
    once per run and gathers the rows of each batch."""
    b = inputs.shape[0]
    slot_mask = masks.reshape(b, -1).astype(float)
    return {
        "x_flat": _standardize(inputs, masks, shift, scale).reshape(b, -1),
        "cell_counts": np.maximum(inputs.shape[2] * slot_mask.sum(axis=1), 1.0),
        "slot_mask": slot_mask,
        "slot_counts": np.maximum(slot_mask.sum(axis=1), 1.0),
        "class_targets": None if class_targets is None else np.asarray(class_targets, dtype=float),
        "interaction_targets": (
            None if interaction_targets is None
            else np.asarray(interaction_targets, dtype=float).reshape(b, -1)
        ),
    }


def _decode_heads(z_q: np.ndarray, params: ModelParams) -> dict:
    """Decoder and both heads, all fed the (quantized) latent."""
    x_hat, dec_cache = _mlp_forward(z_q, params.dec_w, params.dec_b)
    return {
        "dec_cache": dec_cache,
        "x_hat": x_hat,
        "probs": _softmax(z_q @ params.cl_w.T + params.cl_b),
        "t_hat": _sigmoid(z_q @ params.int_w.T + params.int_b),
    }


def _forward(x_flat: np.ndarray, params: ModelParams) -> dict:
    """Encoder, quantization, decoder and heads for the ``x_flat`` of a
    ``_batch``."""
    z, enc_cache = _mlp_forward(x_flat, params.enc_w, params.enc_b)
    q = _quantize_batch(z, params.codebook)
    z_q = params.codebook[q]
    return {
        "enc_cache": enc_cache,
        "z": z,
        "q": q,
        "z_q": z_q,
        **_decode_heads(z_q, params),
    }


def _masked_residual(fwd: dict, batch: dict, params: ModelParams) -> np.ndarray:
    """x_hat - x_flat with absent cells multiplied by 0: every feature of a
    slot and frame takes that slot and frame's 0/1 mask."""
    diff = fwd["x_hat"] - batch["x_flat"]
    cells = diff.reshape(-1, params.n_slots, params.n_features, params.t_obs)  # a view
    cells *= batch["slot_mask"].reshape(-1, params.n_slots, 1, params.t_obs)
    return diff


def _per_term_losses(
    fwd: dict,
    batch: dict,
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
    ``z_q``, which is what training uses. Besides the ``LOSS_TERMS`` the dict
    holds the ``"residual"`` of ``_masked_residual``, which ``_backward``
    can reuse."""
    b, dtype = fwd["z"].shape[0], fwd["z"].dtype  # every term takes the step's dtype
    class_targets, interaction_targets = batch["class_targets"], batch["interaction_targets"]
    diff = _masked_residual(fwd, batch, params)
    recon = (diff * diff).sum(axis=1) / batch["cell_counts"]

    codebook_gap = (fwd["z"] if z_sg is None else z_sg) - fwd["z_q"]
    codebook_term = np.mean(codebook_gap * codebook_gap, axis=1)
    commit_gap = fwd["z"] - (fwd["z_q"] if z_q_sg is None else z_q_sg)
    commit_term = cfg.commitment_weight * np.mean(commit_gap * commit_gap, axis=1)

    if class_targets is not None:
        # An underflowed probability is floored at the dtype's smallest
        # normal number, so its log stays finite in float32 too.
        cl = -np.sum(class_targets * np.log(np.maximum(fwd["probs"], np.finfo(dtype).tiny)), axis=1)
    else:
        cl = np.zeros(b, dtype)

    if interaction_targets is not None:
        idiff = (fwd["t_hat"] - interaction_targets) * batch["slot_mask"]
        inter = (idiff * idiff).sum(axis=1) / batch["slot_counts"]
    else:
        inter = np.zeros(b, dtype)

    return {**dict(zip(LOSS_TERMS, (recon, codebook_term, commit_term, cl, inter))), "residual": diff}


def _total(terms: dict[str, np.ndarray], cfg: TrainConfig) -> np.ndarray:
    """Weighted total of the ``LOSS_TERMS`` of ``_per_term_losses``, per
    sample, or of their epoch means."""
    return (
        terms["recon"]
        + terms["codebook_term"]
        + terms["commit_term"]
        + cfg.lambda_cl * terms["cl"]
        + cfg.lambda_int * terms["inter"]
    )


def _backward(
    fwd: dict, batch: dict, cfg: TrainConfig, params: ModelParams, residual=None
) -> dict[str, np.ndarray]:
    """Gradients of the batch-mean total loss, keyed by the names of
    ``_param_arrays``. The quantization gap gradient is passed straight
    through from the decoder (and head) inputs onto the encoder output; the
    codebook receives only the vector-quantization term. ``fwd`` is only
    read. ``residual`` is the ``"residual"`` of ``_per_term_losses`` for
    the same ``fwd`` and ``batch``, if the caller has it; it is scaled in
    place into the reconstruction gradient.
    """
    b = fwd["z"].shape[0]
    grads: dict[str, np.ndarray] = {}
    class_targets, interaction_targets = batch["class_targets"], batch["interaction_targets"]

    # (d * mask) * 2.0 is 2.0 * mask * d bit for bit, since the mask is 0 or 1.
    g_xhat = _masked_residual(fwd, batch, params) if residual is None else residual
    g_xhat *= 2.0
    g_xhat /= batch["cell_counts"][:, None]
    g_xhat /= b
    g_zq = _mlp_backward(g_xhat, fwd["dec_cache"], params.dec_w, "dec", grads, True)

    # Heads (inputs are z_q; gradients reach the encoder via straight-through).
    if class_targets is not None and cfg.lambda_cl > 0:
        g_logits = cfg.lambda_cl * (fwd["probs"] - class_targets) / b
        grads["cl_w"] = g_logits.T @ fwd["z_q"]
        grads["cl_b"] = g_logits.sum(axis=0)
        g_zq = g_zq + g_logits @ params.cl_w
    else:
        grads["cl_w"], grads["cl_b"] = np.zeros_like(params.cl_w), np.zeros_like(params.cl_b)
    if interaction_targets is not None and cfg.lambda_int > 0:
        t_hat = fwd["t_hat"]
        g_u = (
            cfg.lambda_int
            * 2.0
            * batch["slot_mask"]
            * (t_hat - interaction_targets)
            / batch["slot_counts"][:, None]
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
    _mlp_backward(g_z, fwd["enc_cache"], params.enc_w, "enc", grads, False)
    return grads


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


def _row_basis(x: np.ndarray) -> np.ndarray:
    """A (K, R) basis V of the row space of the (N, K) ``x`` with
    ``x @ V @ V.T == x``: the reduced QR factor of ``x.T`` when N < K
    (R = N), else the identity (R = K). The rows of cells that are 0 in
    every row of ``x`` are 0."""
    n, k = x.shape
    if n >= k:
        return np.eye(k)
    basis = np.linalg.qr(x.T)[0]
    # The row space has no part on such a cell, but the factor's columns past
    # the rank of ``x`` may; zeroed, the identity above still holds and the
    # cell's first-layer weights stay exactly as drawn.
    basis[~x.any(axis=0)] = 0.0
    return basis


def train_arrays(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    cfg: TrainConfig,
    n_classes: int = N_CLASSES,
) -> tuple[ModelParams, list[dict[str, float]]]:
    """Mini-batch SGD over the (B, N, F, T) ``inputs`` with their (B, N, T)
    presence masks, (B, S) one-hot class targets and (B, N, T) interaction
    targets (either target may be None); deterministic for a fixed
    ``cfg.seed``. Every step runs in float32, in place on the live slot
    prefix of the float32 params (see ``_live``).

    SGD moves the first encoder layer W only by sums of ``g.T @ x_b`` over
    batches of the standardized inputs, so W - W0 stays in their row space.
    With V its basis from ``_row_basis``, the step feeds the coordinates
    c = x V to M = W0 V, which takes the steps of W V, and writes
    W0 + (M - M0) V.T back, added in float64 and rounded to float32 once.
    With fewer records N than live input cells K this layer steps N
    columns wide instead of K."""
    if inputs.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    _, n_slots, n_features, t_obs = inputs.shape
    shift, scale = fit_standardization(inputs, masks)
    # A slot after the last one present in any record gets exactly zero
    # gradient, so the step runs on the live prefix and leaves it as drawn.
    n_live = live_slots(masks)
    run = _batch(
        inputs[:, :n_live], masks[:, :n_live], class_targets,
        None if interaction_targets is None else interaction_targets[:, :n_live], shift, scale,
    )
    basis = _row_basis(run["x_flat"])
    run["coords"] = run["x_flat"] @ basis
    run = {key: None if arr is None else arr.astype(np.float32) for key, arr in run.items()}

    rng = np.random.default_rng(cfg.seed)
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
    live = _live(params, n_live)
    w0 = live.enc_w[0]
    m0 = (w0.astype(np.float64) @ basis).astype(np.float32)  # the float64 BLAS product, rounded
    step = replace(live, enc_w=[m0.copy(), *live.enc_w[1:]])
    history = _sgd(step, run, cfg, rng)
    w0[...] = w0 + np.subtract(step.enc_w[0], m0, dtype=float) @ basis.T
    return params, history


def _sgd(step: ModelParams, run: dict, cfg: TrainConfig, rng: np.random.Generator) -> list[dict[str, float]]:
    """``cfg.epochs`` epochs of mini-batch SGD, in place, on the float32
    ``step`` fed the rows of ``run`` in an order that ``rng`` draws each
    epoch. Returns each epoch's mean ``LOSS_TERMS`` and their ``total``."""
    n_samples = len(run["x_flat"])
    registry = _param_arrays(step)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        sums = dict.fromkeys(LOSS_TERMS, 0.0)
        for batch_no, start in enumerate(range(0, n_samples, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            batch = {key: None if arr is None else arr[idx] for key, arr in run.items()}
            fwd = _forward(batch["coords"], step)
            terms = _per_term_losses(fwd, batch, cfg, step)
            batch_total = _total(terms, cfg).mean()
            if not np.isfinite(batch_total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            grads = _backward(fwd, batch, cfg, step, terms["residual"])
            for name, arr in registry:  # in place: arr -= lr * grad
                arr -= np.multiply(cfg.learning_rate, grads[name], out=grads[name])
            for key in sums:
                sums[key] += float(terms[key].sum())
        means = {key: total / n_samples for key, total in sums.items()}
        history.append({**means, "total": _total(means, cfg)})
    return history


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def _frozen_total(
    batch: dict,
    params: ModelParams,
    cfg: TrainConfig,
    q0: np.ndarray,
    z0: np.ndarray,
    gap0: np.ndarray,
) -> float:
    """Total loss with the quantization index frozen and the quantization gap
    treated as a constant, exactly the function whose gradient the
    straight-through estimator computes."""
    z, _ = _mlp_forward(batch["x_flat"], params.enc_w, params.enc_b)
    fwd = {"z": z, "z_q": params.codebook[q0], **_decode_heads(z + gap0, params)}
    terms = _per_term_losses(fwd, batch, cfg, params, z_sg=z0, z_q_sg=z0 + gap0)
    return float(_total(terms, cfg).mean())


def grad_check_arrays(
    inputs: np.ndarray,
    masks: np.ndarray,
    class_targets: Optional[np.ndarray],
    interaction_targets: Optional[np.ndarray],
    params: ModelParams,
    cfg: TrainConfig,
    epsilon: float = 1e-3,
    n_checks: int = 120,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences over a random parameter subset; the quantization index is
    frozen at its base-point value for the numeric path. Both paths run in
    float64, on a float64 copy of ``params``. Below the default ``epsilon``
    the differences of a loss of ~3 lose digits to rounding."""
    params = _cast(params, np.float64)
    batch = _batch(inputs, masks, class_targets, interaction_targets, params.feature_shift, params.feature_scale)
    fwd = _forward(batch["x_flat"], params)
    grads = _backward(fwd, batch, cfg, params)
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
        up = _frozen_total(batch, params, cfg, q0, z0, gap0)
        arr[multi] = orig - epsilon
        down = _frozen_total(batch, params, cfg, q0, z0, gap0)
        arr[multi] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = float(grads[name][multi])
        err = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        max_err = max(max_err, err)
    return max_err


# ---------------------------------------------------------------------------
# Checkpoint persistence (versioned header, float32 weights, float64
# standardization)
# ---------------------------------------------------------------------------

def _checkpoint_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """The blocks of a checkpoint in order: each trainable array, then the
    standardization."""
    return _param_arrays(params) + [
        ("feature_shift", params.feature_shift),
        ("feature_scale", params.feature_scale),
    ]


def save_checkpoint(params: ModelParams, path) -> None:
    """Writes the arrays of ``_checkpoint_arrays`` as they are held: the
    float32 weights as ``<f4`` blocks, the standardization as ``<f8``. A
    NaN or inf raises ContractError."""
    write_blocks(path, {
        "format": CHECKPOINT_FORMAT_VERSION,
        "n_slots": params.n_slots,
        "n_features": params.n_features,
        "t_obs": params.t_obs,
        "n_classes": params.n_classes,
        "hidden": list(params.hidden),
        "latent_dim": params.latent_dim,
        "codebook_size": params.codebook_size,
    }, _checkpoint_arrays(params), ContractError)


def load_checkpoint(path) -> ModelParams:
    """Reads a checkpoint written by ``save_checkpoint``: each ``<f4``
    block straight into its float32 weight array, the ``<f8``
    standardization into float64. A header that does not describe this
    model layout, a short array block, a NaN or inf value or trailing bytes
    raise ContractError."""
    def layout(header):
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
        return params, _checkpoint_arrays(params)

    return read_blocks(path, CHECKPOINT_FORMAT_VERSION, "checkpoint", layout, ContractError)


LOSS_COLUMNS = ("epoch", "recon", "codebook", "commit", "cl", "int", "total")


def write_loss_history(history: Sequence[dict[str, float]], path) -> None:
    write_csv(path, LOSS_COLUMNS, (
        (epoch, *(losses[key] for key in (*LOSS_TERMS, "total"))) for epoch, losses in enumerate(history)
    ), lineterminator="\n")

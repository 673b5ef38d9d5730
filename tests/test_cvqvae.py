import hashlib
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from scenmine import corpus, cvqvae, dgsfm

from conftest import arrays, concat, encode_dataset, grad_check, quantize, take, train_arrays, train_dataset


def tiny_cfg(**kwargs):
    defaults = dict(hidden=(6, 6), latent_dim=4, codebook_size=4, seed=0)
    defaults.update(kwargs)
    return cvqvae.TrainConfig(**defaults)


def tiny_params(cfg=None, n_slots=2, n_features=3, t_obs=5, n_classes=10, seed=0):
    cfg = cfg or tiny_cfg()
    return cvqvae.init_params(
        cfg,
        np.random.default_rng(seed),
        n_slots=n_slots,
        n_features=n_features,
        t_obs=t_obs,
        n_classes=n_classes,
    )


def wide(params):
    """A float64 copy of ``params``, for reference math in float64: numpy's
    float64 @ float32 product is not the float64 BLAS product."""
    return cvqvae._cast(params, np.float64)


def input_dim(params):
    """The width of the model's flattened input."""
    return params.n_slots * params.n_features * params.t_obs


def zeroed(params):
    for w in params.enc_w + params.dec_w:
        w[:] = 0.0
    for b in params.enc_b + params.dec_b:
        b[:] = 0.0
    params.cl_w[:] = 0.0
    params.cl_b[:] = 0.0
    params.int_w[:] = 0.0
    params.int_b[:] = 0.0
    return params


# ------------------------------ encode --------------------------------------

def test_encode_zero_weights_zero_latent():
    params = zeroed(tiny_params())
    x = np.ones((1, 2, 3, 5))
    mask = np.ones((1, 2, 5), dtype=bool)
    assert np.all(cvqvae.encode(x, mask, params) == 0.0)


def test_encode_deterministic(rng):
    params = tiny_params()
    x = rng.normal(size=(1, 2, 3, 5))
    mask = np.ones((1, 2, 5), dtype=bool)
    a = cvqvae.encode(x, mask, params)
    assert np.array_equal(a, cvqvae.encode(x, mask, params))


def test_encode_shape_mismatch_is_contract_error():
    params = tiny_params()
    with pytest.raises(cvqvae.ContractError):
        cvqvae.encode(np.zeros((1, 3, 3, 5)), np.ones((1, 3, 5), dtype=bool), params)


def test_single_layer_identity_encoder():
    # With no hidden layers and identity weights, the latent is the flattened
    # standardized input prefix.
    cfg = tiny_cfg(hidden=(), latent_dim=4)
    params = tiny_params(cfg, n_slots=1, n_features=1, t_obs=4)
    params.enc_w[0][:] = np.eye(4)
    params.enc_b[0][:] = 0.0
    x = np.arange(4.0).reshape(1, 1, 1, 4)
    mask = np.ones((1, 1, 4), dtype=bool)
    assert np.allclose(cvqvae.encode(x, mask, params), x.reshape(1, -1))


# ------------------------------ quantize ------------------------------------

def test_quantize_nearest():
    codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
    q, z_q = quantize(np.array([0.1, 0.2]), codebook)
    assert q == 0
    assert np.array_equal(z_q, codebook[0])


def test_quantize_tie_breaks_to_lowest_index():
    codebook = np.full((8, 2), 50.0)
    codebook[3] = [1.0, 0.0]
    codebook[7] = [-1.0, 0.0]
    q, _ = quantize(np.array([0.0, 0.5]), codebook)
    assert q == 3


def test_quantize_matches_brute_force(rng):
    codebook = rng.normal(size=(64, 8))
    for _ in range(200):
        z = rng.normal(size=8)
        q, _ = quantize(z, codebook)
        oracle = int(np.argmin(np.sum((codebook - z) ** 2, axis=1)))
        assert q == oracle


def test_quantize_idempotent(rng):
    codebook = rng.normal(size=(16, 4))
    for q in range(16):
        q2, _ = quantize(codebook[q], codebook)
        assert q2 == q


def test_quantize_empty_codebook():
    with pytest.raises(ValueError):
        cvqvae._quantize_batch(np.zeros((1, 2)), np.zeros((0, 2)))


# ------------------------------- decode -------------------------------------

def decode(z_q, params):
    """The (standardized) scenario tensor that the decoder reconstructs from
    the single latent ``z_q``."""
    x_hat, _ = cvqvae._mlp_forward(np.asarray(z_q, dtype=float)[None], params.dec_w, params.dec_b)
    return x_hat[0].reshape(params.n_slots, params.n_features, params.t_obs)


def test_decode_zero_weights_zero_tensor():
    params = zeroed(tiny_params())
    out = decode(np.ones(4), params)
    assert out.shape == (2, 3, 5)
    assert np.all(out == 0.0)


def test_decode_deterministic(rng):
    params = tiny_params()
    z = rng.normal(size=4)
    assert np.array_equal(decode(z, params), decode(z, params))


def test_single_layer_linear_decoder_matches_matrix_product(rng):
    cfg = tiny_cfg(hidden=(), latent_dim=4)
    params = tiny_params(cfg, n_slots=1, n_features=1, t_obs=4)
    z = rng.normal(size=4)
    expected = params.dec_w[0] @ z + params.dec_b[0]
    assert np.allclose(decode(z, params).ravel(), expected)


# ------------------------------- heads --------------------------------------

def heads(z_q, params):
    """Pseudo-class probabilities and the (N, T) interaction matrix that
    ``cvqvae._decode_heads`` predicts from the single latent ``z_q``."""
    fwd = cvqvae._decode_heads(np.asarray(z_q, dtype=float)[None], params)
    return fwd["probs"][0], fwd["t_hat"][0].reshape(params.n_slots, params.t_obs)


def test_classify_zero_head_uniform():
    params = zeroed(tiny_params())
    p = heads(np.ones(4), params)[0]
    assert np.allclose(p, 0.1)


def test_classify_dominant_logit():
    params = zeroed(tiny_params())
    params.cl_b[0] = 10.0
    p = heads(np.zeros(4), params)[0]
    expected = math.exp(10.0) / (math.exp(10.0) + 9.0)
    assert abs(p[0] - expected) < 1e-12
    assert p[0] > 0.999


def test_classify_sums_to_one(rng):
    params = tiny_params()
    p = heads(rng.normal(size=4), params)[0]
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-9


def test_predict_interaction_zero_head_half():
    params = zeroed(tiny_params())
    t_hat = heads(np.zeros(4), params)[1]
    assert t_hat.shape == (2, 5)
    assert np.all(t_hat == 0.5)


def test_predict_interaction_range_and_value(rng):
    params = tiny_params()
    t_hat = heads(rng.normal(size=4), params)[1]
    assert np.all((t_hat > 0) & (t_hat < 1))
    params = zeroed(params)
    params.int_b[0] = 4.0
    t_hat = heads(np.zeros(4), params)[1]
    assert abs(t_hat.ravel()[0] - 1.0 / (1.0 + math.exp(-4.0))) < 1e-12


def reference_sigmoid(u):
    """The boolean-mask scatter that ``cvqvae._sigmoid`` replaced."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


SIGMOID_EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.0, -1.0, 36.0, -36.0,
                 709.0, -745.0, 800.0, -800.0, np.inf, -np.inf]


def test_sigmoid_bit_identical_to_masked_reference():
    rng = np.random.default_rng(8)
    grid = np.concatenate([SIGMOID_EDGES, np.linspace(-60.0, 60.0, 2401), rng.normal(0.0, 8.0, 3001)])
    cases = [grid, grid.reshape(-1, 7), np.zeros(0), np.zeros((0, 900)),
             *(np.array([v]) for v in SIGMOID_EDGES)]
    # float32 is the dtype that training feeds it.
    for u in cases + [u.astype(np.float32) for u in cases]:
        got, want = cvqvae._sigmoid(u), reference_sigmoid(u)
        assert got.dtype == want.dtype == u.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


# -------------------------------- loss --------------------------------------

def batch_forward(inputs, masks, cls, inter, params):
    batch = cvqvae._batch(inputs, masks, cls, inter, params.feature_shift, params.feature_scale)
    return batch, cvqvae._forward(batch["x_flat"], params)


def forward_terms(inputs, masks, cls, inter, params, cfg):
    batch, fwd = batch_forward(inputs, masks, cls, inter, params)
    return fwd, cvqvae._per_term_losses(fwd, batch, cfg, params)


def loss(record, params, cfg):
    """Full loss decomposition for the one-record dataset ``record``."""
    _, terms = forward_terms(*arrays(record), params, cfg)
    losses = {key: float(terms[key][0]) for key in cvqvae.LOSS_TERMS}
    return {**losses, "total": float(cvqvae._total(terms, cfg)[0])}


def test_loss_zero_for_perfect_model():
    cfg = tiny_cfg(lambda_cl=0.0, lambda_int=0.0)
    params = zeroed(tiny_params(cfg))
    params.codebook[:] = np.arange(16).reshape(4, 4)  # distinct rows
    params.codebook[0] = 0.0
    inputs = np.zeros((1, 2, 3, 5))
    masks = np.ones((1, 2, 5), dtype=bool)
    _, terms = forward_terms(inputs, masks, None, None, params, cfg)
    total = terms["recon"] + terms["codebook_term"] + terms["commit_term"]
    assert total[0] == 0.0


def test_loss_cross_entropy_log2_for_half_confidence():
    cfg = tiny_cfg()
    params = zeroed(tiny_params(cfg))
    params.cl_b[:] = -50.0
    params.cl_b[0] = 0.0
    params.cl_b[1] = 0.0  # p0 = p1 = 0.5 up to e-50 tails
    inputs = np.zeros((1, 2, 3, 5))
    masks = np.ones((1, 2, 5), dtype=bool)
    cls = np.zeros((1, 10))
    cls[0, 0] = 1.0
    _, terms = forward_terms(inputs, masks, cls, None, params, cfg)
    assert abs(terms["cl"][0] - math.log(2.0)) < 1e-9


def test_loss_interaction_zero_when_targets_match():
    cfg = tiny_cfg()
    params = zeroed(tiny_params(cfg))  # t_hat = 0.5 everywhere
    inputs = np.zeros((1, 2, 3, 5))
    masks = np.ones((1, 2, 5), dtype=bool)
    inter = np.full((1, 2, 5), 0.5)
    _, terms = forward_terms(inputs, masks, None, inter, params, cfg)
    assert terms["inter"][0] == 0.0


def test_loss_decomposition_identity():
    records = corpus.build_archetype_corpus(1, 5, dgsfm.DgsfmConfig())
    cfg = cvqvae.TrainConfig(hidden=(8, 8), latent_dim=4, codebook_size=4)
    inputs, masks, _, _ = arrays(records)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = wide(cvqvae.init_params(
        cfg, np.random.default_rng(1), feature_shift=shift, feature_scale=scale
    ))
    for i in range(len(records)):
        lb = loss(take(records, [i]), params, cfg)
        expected = (
            lb["recon"]
            + lb["codebook_term"]
            + lb["commit_term"]
            + cfg.lambda_cl * lb["cl"]
            + cfg.lambda_int * lb["inter"]
        )
        assert abs(lb["total"] - expected) < 1e-9


def test_lambda_zero_reproduces_plain_objective(rng):
    cfg0 = tiny_cfg(lambda_cl=0.0, lambda_int=0.0)
    params = tiny_params(cfg0)
    inputs = rng.normal(size=(4, 2, 3, 5))
    masks = np.ones((4, 2, 5), dtype=bool)
    cls = np.eye(10)[rng.integers(0, 10, size=4)]
    inter = rng.random((4, 2, 5))
    batch, fwd = batch_forward(inputs, masks, cls, inter, params)
    with_targets = cvqvae._backward(fwd, batch, cfg0, params)
    plain = cvqvae._batch(inputs, masks, None, None, params.feature_shift, params.feature_scale)
    without = cvqvae._backward(fwd, plain, cfg0, params)
    for i in range(len(params.enc_w)):
        assert np.array_equal(with_targets[f"enc_w[{i}]"], without[f"enc_w[{i}]"])
        assert np.array_equal(with_targets[f"dec_w[{i}]"], without[f"dec_w[{i}]"])
    assert np.array_equal(with_targets["codebook"], without["codebook"])
    assert np.all(with_targets["cl_w"] == 0.0)
    assert np.all(with_targets["int_w"] == 0.0)
    terms = cvqvae._per_term_losses(fwd, batch, cfg0, params)
    total_with = (
        terms["recon"]
        + terms["codebook_term"]
        + terms["commit_term"]
        + cfg0.lambda_cl * terms["cl"]
        + cfg0.lambda_int * terms["inter"]
    )
    plain = terms["recon"] + terms["codebook_term"] + terms["commit_term"]
    assert np.array_equal(total_with, plain)


def test_negative_loss_weights_rejected():
    with pytest.raises(ValueError):
        cvqvae.TrainConfig(lambda_cl=-1.0)


# ------------------------------ training ------------------------------------

def toy_dataset(rng, n=30, centers=3):
    """Three far-apart archetype blobs in a (1, 1, 4) input space."""
    inputs = np.zeros((n, 1, 1, 4))
    labels = np.zeros(n, dtype=int)
    for i in range(n):
        c = i % centers
        labels[i] = c
        inputs[i, 0, 0, :] = 100.0 * c + rng.normal(0.0, 0.1, size=4)
    masks = np.ones((n, 1, 4), dtype=bool)
    return inputs, masks, labels


def test_train_zero_learning_rate_keeps_weights():
    rng = np.random.default_rng(2)
    inputs, masks, _ = toy_dataset(rng)
    cfg = tiny_cfg(learning_rate=0.0, epochs=1, hidden=(6,), latent_dim=3, codebook_size=3)
    params, _ = train_arrays(inputs, masks, None, None, cfg)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    reference = cvqvae.init_params(
        cfg,
        np.random.default_rng(cfg.seed),
        n_slots=1,
        n_features=1,
        t_obs=4,
        feature_shift=shift,
        feature_scale=scale,
    )
    for a, b in zip(params.enc_w, reference.enc_w):
        assert np.array_equal(a, b)
    for a, b in zip(params.dec_w, reference.dec_w):
        assert np.array_equal(a, b)
    assert np.array_equal(params.cl_w, reference.cl_w)
    assert np.array_equal(params.int_w, reference.int_w)


def test_train_separates_archetypes():
    rng = np.random.default_rng(7)
    inputs, masks, labels = toy_dataset(rng, n=60)
    cfg = tiny_cfg(epochs=250, hidden=(8,), latent_dim=3, codebook_size=3, learning_rate=0.05)
    params, _ = train_arrays(inputs, masks, None, None, cfg)
    codes = cvqvae._quantize_batch(cvqvae.encode(inputs, masks, params), params.codebook)
    # Each archetype maps to one code and codes are distinct across archetypes.
    mapping = {}
    for label, code in zip(labels, codes):
        mapping.setdefault(label, set()).add(code)
    assert all(len(v) == 1 for v in mapping.values())
    assert len({next(iter(v)) for v in mapping.values()}) == 3


def test_train_loss_non_increasing_within_tolerance():
    rng = np.random.default_rng(3)
    inputs, masks, _ = toy_dataset(rng, n=10)
    cfg = tiny_cfg(epochs=50, hidden=(8,), latent_dim=3, codebook_size=3, learning_rate=0.01)
    _, history = train_arrays(inputs, masks, None, None, cfg)
    for prev, cur in zip(history, history[1:]):
        assert cur["total"] <= prev["total"] * 1.05


def test_train_deterministic_for_seed():
    records = corpus.build_archetype_corpus(2, 6, dgsfm.DgsfmConfig())
    cfg = tiny_cfg(epochs=3)
    a, ha = train_dataset(records, cfg)
    b, hb = train_dataset(records, cfg)
    assert ha == hb
    assert np.array_equal(a.codebook, b.codebook)
    for wa, wb in zip(a.enc_w, b.enc_w):
        assert np.array_equal(wa, wb)


def test_train_divergence_raises():
    rng = np.random.default_rng(4)
    inputs, masks, _ = toy_dataset(rng)
    cfg = tiny_cfg(epochs=200, learning_rate=1e9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(cvqvae.TrainingError, match="epoch"):
            train_arrays(inputs, masks, None, None, cfg)


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        train_arrays(np.empty((0, 2, 3, 5)), np.empty((0, 2, 5), dtype=bool), None, None, tiny_cfg())


# -------------------------- live slot prefix ---------------------------------

# The archetype corpus fills slots 0-3 only; its augmented records reach slot 4.
N_LIVE = 4


def lead(like):
    """The index of the leading block of an array with ``like``'s shape."""
    return tuple(slice(0, n) for n in like.shape)


def outside(arr, like):
    """A copy of ``arr`` with its leading ``like``-shaped block zeroed."""
    rest = arr.copy()
    rest[lead(like)] = 0.0
    return rest


def test_live_prefix_step_matches_full_width_step():
    records = take(corpus.build_archetype_corpus(11, 9, dgsfm.DgsfmConfig()), slice(32))
    inputs, masks, cls, inter = arrays(records)
    assert masks[:, N_LIVE - 1].any() and not masks[:, N_LIVE:].any()
    cfg = cvqvae.TrainConfig(seed=3)  # the default model and batch, lambda = 1
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = wide(cvqvae.init_params(cfg, np.random.default_rng(3), feature_shift=shift, feature_scale=scale))
    full_batch, full_fwd = batch_forward(inputs, masks, cls, inter, params)
    full = cvqvae._backward(full_fwd, full_batch, cfg, params)

    live = cvqvae._live(params, N_LIVE)
    assert live.codebook is params.codebook and live.enc_w[1] is params.enc_w[1]
    batch, fwd = batch_forward(inputs[:, :N_LIVE], masks[:, :N_LIVE], cls, inter[:, :N_LIVE], live)
    sliced = cvqvae._backward(fwd, batch, cfg, live)

    assert np.array_equal(fwd["q"], full_fwd["q"])
    whole = dict(cvqvae._param_arrays(params))
    for name, arr in cvqvae._param_arrays(live):
        assert np.shares_memory(arr, whole[name])
        g_full = full[name]
        # Scale-relative: an elementwise rtol fails on entries near zero.
        np.testing.assert_allclose(sliced[name], g_full[lead(arr)], rtol=1e-12, atol=1e-12 * np.abs(g_full).max())
        assert np.all(outside(g_full, arr) == 0.0), name


def test_training_leaves_weights_outside_the_live_prefix_as_drawn():
    records = corpus.build_archetype_corpus(2, 9, dgsfm.DgsfmConfig())
    cfg = cvqvae.TrainConfig(epochs=2, batch_size=4, seed=5)
    params, _ = train_dataset(records, cfg)
    inputs, masks, _, _ = arrays(records)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    initial = cvqvae.init_params(cfg, np.random.default_rng(cfg.seed), feature_shift=shift, feature_scale=scale)
    assert input_dim(params) == input_dim(initial)  # the checkpoint keeps the full width
    trained, drawn = dict(cvqvae._param_arrays(params)), dict(cvqvae._param_arrays(initial))
    for name, arr in cvqvae._param_arrays(cvqvae._live(initial, N_LIVE)):
        assert trained[name].shape == drawn[name].shape
        assert np.array_equal(outside(trained[name], arr), outside(drawn[name], arr)), name

    def moved_slots(after, before, per_slot):
        """The slots whose block of ``per_slot`` leading-axis entries changed."""
        blocks = [slice(s * per_slot, (s + 1) * per_slot) for s in range(initial.n_slots)]
        return [s for s, rows in enumerate(blocks) if not np.array_equal(after[rows], before[rows])]

    cells = initial.n_features * initial.t_obs
    assert moved_slots(params.enc_w[0].T, initial.enc_w[0].T, cells) == list(range(N_LIVE))
    assert moved_slots(params.dec_w[-1], initial.dec_w[-1], cells) == list(range(N_LIVE))
    assert moved_slots(params.int_w, initial.int_w, initial.t_obs) == list(range(N_LIVE))


def test_record_beyond_the_live_prefix_encodes_at_full_width():
    base = corpus.build_archetype_corpus(2, 9, dgsfm.DgsfmConfig())
    augmented, _ = corpus.augment_corpus(base, 0.04, n_augment=20, min_gap=80.0, seed=12)
    record = take(augmented, [next(i for i in range(len(augmented)) if augmented.mask[i, N_LIVE:].any())])
    params, _ = train_dataset(base, cvqvae.TrainConfig(epochs=1, seed=5))
    values, mask = record.tensor, record.mask
    z = cvqvae.encode(values, mask, params)
    cut = mask.copy()
    cut[:, N_LIVE:] = False
    assert not np.array_equal(z, cvqvae.encode(values, cut, params))  # the untrained columns are read
    # epsilon as in criterion 4: below it the differences lose digits to rounding.
    assert grad_check(record, params, cvqvae.TrainConfig(), epsilon=1e-3, n_checks=150, seed=1) < 1e-4


# ------------------------------ float32 step ---------------------------------

def float32_step(inputs, masks, cls, inter, params, cfg):
    """One training step as ``cvqvae.train_rows`` takes it: the float64 batch
    cast to float32 and a float32 copy of ``params``."""
    step = cvqvae._cast(params, np.float32)
    batch = {key: None if arr is None else arr.astype(np.float32)
             for key, arr in cvqvae._batch(inputs, masks, cls, inter, params.feature_shift,
                                           params.feature_scale).items()}
    fwd = cvqvae._forward(batch["x_flat"], step)
    terms = cvqvae._per_term_losses(fwd, batch, cfg, step)
    grads = cvqvae._backward(fwd, batch, cfg, step, terms["residual"])
    return fwd, terms, grads


def default_live_batch():
    """A default batch of 32 archetype records at the live width, with
    default weights (float32-exact as drawn) on the live prefix."""
    records = take(corpus.build_archetype_corpus(11, 9, dgsfm.DgsfmConfig()), slice(32))
    inputs, masks, cls, inter = arrays(records)
    cfg = cvqvae.TrainConfig(seed=3)  # the default model, lambda = 1
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(cfg, np.random.default_rng(3), feature_shift=shift, feature_scale=scale)
    live = cvqvae._live(params, N_LIVE)
    return (inputs[:, :N_LIVE], masks[:, :N_LIVE], cls, inter[:, :N_LIVE], live), cfg


def test_drawn_weights_are_float32_exact():
    # Each weight array is the float32 rounding of one float64 normal draw,
    # though init_params draws a layer a chunk of rows at a time.
    cfg = tiny_cfg(hidden=(7000,), latent_dim=3)  # 7000 x 30 values: the first layer is drawn in 4 chunks
    params = tiny_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    for name, arr in cvqvae._param_arrays(params):
        assert arr.dtype == np.float32 and arr.flags.c_contiguous, name
        if name.endswith("_b") or "_b[" in name:
            assert not arr.any(), name
            continue
        std = 0.1 if name == "codebook" else 1.0 / np.sqrt(arr.shape[1])
        assert arr.tobytes() == rng.normal(0.0, std, size=arr.shape).astype(np.float32).tobytes(), name


def test_float32_step_matches_float64_step():
    args, cfg = default_live_batch()
    *arrays, live = args
    reference = wide(live)
    batch, fwd = batch_forward(*arrays, reference)
    want = cvqvae._backward(fwd, batch, cfg, reference)
    fwd32, _, got = float32_step(*args, cfg)
    assert np.array_equal(fwd32["q"], fwd["q"])
    # float32 keeps ~7 digits: each gradient is within ~4e-7 of its largest
    # entry here, and sums over up to 2400 products may lose a few more.
    for name, g in want.items():
        assert got[name].dtype == np.float32, name
        np.testing.assert_allclose(got[name], g, rtol=1e-4, atol=1e-5 * np.abs(g).max(), err_msg=name)


def test_float32_step_stays_float32():
    # A stray float64 scalar or array would promote a term to float64 under
    # NEP 50, and under value-based casting only where its value is large.
    args, cfg = default_live_batch()
    fwd, terms, grads = float32_step(*args, cfg)
    arrays = {f"fwd {key}": value for key, value in fwd.items() if key != "q"}
    for key in ("enc_cache", "dec_cache"):
        arrays.update((f"fwd {key}[{i}]", arr) for i, arr in enumerate(arrays.pop(f"fwd {key}")))
    arrays.update((f"term {key}", value) for key, value in terms.items())
    arrays.update((f"grad {key}", value) for key, value in grads.items())
    assert {name: arr.dtype for name, arr in arrays.items() if arr.dtype != np.float32} == {}
    assert fwd["q"].dtype.kind == "i"


def test_float32_class_loss_of_an_underflowed_probability_is_finite():
    cfg = tiny_cfg()
    params = zeroed(tiny_params(cfg))
    params.cl_b[3] = -200.0  # exp(-200) is 0 in float32
    cls = np.eye(10)[[3]]
    fwd, terms, _ = float32_step(np.zeros((1, 2, 3, 5)), np.ones((1, 2, 5), dtype=bool), cls, None, params, cfg)
    assert fwd["probs"][0, 3] == 0.0
    assert terms["cl"].dtype == np.float32
    assert terms["cl"][0] == -np.log(np.finfo(np.float32).tiny)


# --------------------------- float32 weights ---------------------------------

@pytest.fixture(scope="module")
def trained_and_augmented():
    """A default model trained on archetype records, and those records with
    their augmentations, some of which reach past the live slots."""
    base = corpus.build_archetype_corpus(2, 9, dgsfm.DgsfmConfig())
    augmented, _ = corpus.augment_corpus(base, 0.04, n_augment=20, min_gap=80.0, seed=12)
    params, _ = train_dataset(base, cvqvae.TrainConfig(epochs=2, seed=5))
    return params, concat(base, augmented)


def test_encode_runs_in_float32_and_casts_only_the_latents(trained_and_augmented):
    params, records = trained_and_augmented
    masks = records.mask
    assert not masks[:, 1:].all() and masks[:, N_LIVE:].any()  # absent slots, and slots past the live prefix
    assert {arr.dtype for _, arr in cvqvae._param_arrays(params)} == {np.dtype(np.float32)}
    z = encode_dataset(records, params)
    assert z.dtype == np.float64
    assert np.array_equal(z.astype(np.float32), z)  # float32 values: the last layer ran in float32
    # The float64 model, as the gradient check computes, agrees to float32's ~7 digits.
    wide_z = encode_dataset(records, wide(params))
    assert not np.array_equal(z, wide_z)
    np.testing.assert_allclose(z, wide_z, rtol=1e-5, atol=1e-5 * np.abs(wide_z).max())


def test_quantize_by_a_float32_codebook_equals_its_float64_cast(trained_and_augmented):
    params, records = trained_and_augmented
    codebook = params.codebook
    wide_codes = codebook.astype(np.float64)
    # Latents of records, the codes themselves and the midpoints of code pairs (exact ties).
    z = np.concatenate([encode_dataset(records, params), wide_codes, (wide_codes[:-1] + wide_codes[1:]) / 2])
    assert z.dtype == np.float64 and codebook.dtype == np.float32
    assert np.array_equal(cvqvae._quantize_batch(z, codebook), cvqvae._quantize_batch(z, wide_codes))


# ---------------------------- live-width encode -------------------------------

def full_width_encode(inputs, masks, params):
    """The encoder over all ``params.n_slots`` slots, every layer a product
    of the whole weight in its own dtype."""
    x = cvqvae._standardize(inputs, masks, params.feature_shift, params.feature_scale)
    z, _ = cvqvae._mlp_forward(x.reshape(len(x), -1).astype(params.enc_w[0].dtype), params.enc_w, params.enc_b)
    return z


def whole(records):
    """The tensors and masks of ``records``: base ones fill slots 0-3, some
    augmented ones slot 4 too."""
    return records.tensor, records.mask


def ego_only(records):
    """The tensors and masks of ``records`` with every neighbour slot absent."""
    masks = records.mask.copy()
    masks[:, 1:] = False
    return records.tensor, masks


# A batch of records of two widths, and one of width 1.
BATCHES = pytest.mark.parametrize("batch, width", [(whole, N_LIVE + 1), (ego_only, 1)], ids=["mixed", "ego_only"])


@BATCHES
def test_encode_at_the_live_width_ignores_columns_past_it(trained_and_augmented, batch, width):
    params, records = trained_and_augmented
    inputs, masks = batch(records)
    assert cvqvae.live_slots(masks) == width
    poisoned = replace(params, enc_w=[params.enc_w[0].copy(), *params.enc_w[1:]])
    poisoned.enc_w[0][:, width * params.n_features * params.t_obs:] = np.nan
    z = cvqvae.encode(inputs, masks, poisoned)
    assert np.isfinite(z).all()
    assert np.array_equal(z, cvqvae.encode(inputs, masks, params))


@BATCHES
def test_encode_at_the_live_width_matches_the_full_width_product(trained_and_augmented, batch, width):
    params, records = trained_and_augmented
    inputs, masks = batch(records)
    assert cvqvae.live_slots(masks) == width
    # The trained float32 model keeps ~7 digits, its float64 cast ~16.
    for model, tol in ((params, 1e-5), (wide(params), 1e-12)):
        np.testing.assert_allclose(cvqvae.encode(inputs, masks, model), full_width_encode(inputs, masks, model),
                                   rtol=tol, atol=tol)


def test_encode_at_the_live_width_of_zero_records(trained_and_augmented):
    params, records = trained_and_augmented
    z = cvqvae.encode(records.tensor[:0], records.mask[:0], params)
    assert z.shape == (0, params.latent_dim) and z.dtype == np.float64


# ---------------------------- gradient check --------------------------------

def test_grad_check_linear_toy_model(rng):
    cfg = tiny_cfg(hidden=(), latent_dim=3, codebook_size=3)
    params = tiny_params(cfg, n_slots=1, n_features=2, t_obs=4)
    inputs = rng.normal(size=(2, 1, 2, 4))
    masks = np.ones((2, 1, 4), dtype=bool)
    cls = np.eye(10)[[1, 4]]
    inter = rng.random((2, 1, 4))
    err = cvqvae.grad_check_arrays(inputs, masks, cls, inter, params, cfg, epsilon=1e-5, n_checks=150)
    assert err < 1e-6


def test_grad_check_nonlinear_model(rng):
    cfg = tiny_cfg(hidden=(8, 8), latent_dim=8, codebook_size=4)
    params = tiny_params(cfg, n_slots=2, n_features=3, t_obs=5)
    inputs = rng.normal(size=(3, 2, 3, 5))
    masks = rng.random((3, 2, 5)) < 0.8
    masks[:, 0, :] = True
    cls = np.eye(10)[[0, 3, 9]]
    inter = rng.random((3, 2, 5))
    err = cvqvae.grad_check_arrays(inputs, masks, cls, inter, params, cfg, epsilon=1e-4, n_checks=150)
    assert err < 1e-4


def test_grad_check_zero_loss_config():
    cfg = tiny_cfg(lambda_cl=0.0, lambda_int=0.0)
    params = zeroed(tiny_params(cfg))
    params.codebook[:] = np.arange(16).reshape(4, 4)
    params.codebook[0] = 0.0
    inputs = np.zeros((1, 2, 3, 5))
    masks = np.ones((1, 2, 5), dtype=bool)
    batch, fwd = batch_forward(inputs, masks, None, None, params)
    grads = cvqvae._backward(fwd, batch, cfg, params)
    for key in ("codebook", "cl_w", "int_w"):
        assert np.all(grads[key] == 0.0)
    for i in range(len(params.enc_w)):
        assert np.all(grads[f"enc_w[{i}]"] == 0.0)
        assert np.all(grads[f"dec_w[{i}]"] == 0.0)


def test_grad_check_detects_corrupted_gradient(rng):
    cfg = tiny_cfg(hidden=(), latent_dim=3, codebook_size=3)
    params = wide(tiny_params(cfg, n_slots=1, n_features=2, t_obs=4))
    inputs = rng.normal(size=(1, 1, 2, 4))
    masks = np.ones((1, 1, 4), dtype=bool)
    batch, fwd = batch_forward(inputs, masks, None, None, params)
    grads = cvqvae._backward(fwd, batch, cfg, params)
    q0, z0 = fwd["q"].copy(), fwd["z"].copy()
    gap0 = fwd["z_q"] - fwd["z"]
    eps = 1e-5
    arr = params.dec_w[0]
    orig = arr[0, 0]
    arr[0, 0] = orig + eps
    up = cvqvae._frozen_total(batch, params, cfg, q0, z0, gap0)
    arr[0, 0] = orig - eps
    down = cvqvae._frozen_total(batch, params, cfg, q0, z0, gap0)
    arr[0, 0] = orig
    numeric = (up - down) / (2 * eps)
    corrupted = 2.0 * grads["dec_w[0]"][0, 0]
    err = abs(corrupted - numeric) / max(abs(numeric), 1e-8)
    assert abs(err - 1.0) < 0.01


# --------------------------- checkpoint IO -----------------------------------

def test_checkpoint_round_trip(tmp_path):
    records = corpus.build_archetype_corpus(1, 9, dgsfm.DgsfmConfig())
    cfg = tiny_cfg(epochs=2)
    params, _ = train_dataset(records, cfg)
    path = tmp_path / "model.ckpt"
    cvqvae.save_checkpoint(params, path)
    loaded = cvqvae.load_checkpoint(path)
    assert loaded.hidden == params.hidden
    assert np.array_equal(loaded.codebook, params.codebook)
    assert np.array_equal(loaded.feature_shift, params.feature_shift)
    for a, b in zip(loaded.enc_w, params.enc_w):
        assert np.array_equal(a, b)
    second = tmp_path / "again.ckpt"
    cvqvae.save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_weights_are_f4_blocks(tmp_path):
    params = tiny_params()
    rng = np.random.default_rng(2)
    for _, arr in cvqvae._param_arrays(params):  # biases too
        arr[...] = rng.normal(size=arr.shape)
    params.feature_shift[:] = rng.normal(size=params.n_features)  # not float32-exact
    path = tmp_path / "model.ckpt"
    cvqvae.save_checkpoint(params, path)
    blob = path.read_bytes()
    weights = sum(arr.size for _, arr in cvqvae._param_arrays(params))
    assert len(blob) == blob.index(b"\n") + 1 + 4 * weights + 8 * 2 * params.n_features
    loaded = cvqvae.load_checkpoint(path)
    for (name, a), (_, b) in zip(cvqvae._checkpoint_arrays(loaded), cvqvae._checkpoint_arrays(params)):
        dtype = np.float64 if name.startswith("feature_") else np.float32
        assert a.dtype == b.dtype == dtype and a.flags.c_contiguous, name
        assert a.tobytes() == b.tobytes(), name
    again = tmp_path / "again.ckpt"
    cvqvae.save_checkpoint(loaded, again)
    assert again.read_bytes() == blob


def test_loss_history_csv(tmp_path):
    records = corpus.build_archetype_corpus(1, 9, dgsfm.DgsfmConfig())
    _, history = train_dataset(records, tiny_cfg(epochs=3))
    path = tmp_path / "loss.csv"
    cvqvae.write_loss_history(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,")
    assert len(lines) == 4


@pytest.mark.parametrize("key", ["epochs", "batch_size"])
def test_nonpositive_epochs_or_batch_size_rejected(key):
    with pytest.raises(ValueError):
        cvqvae.TrainConfig(**{key: 0})


@pytest.mark.parametrize("sizes", [{"latent_dim": 0}, {"codebook_size": 0}, {"hidden": (8, 0)},
                                   {"codebook_size": -2}])
def test_model_sizes_below_one_rejected(sizes):
    with pytest.raises(ValueError, match="at least 1"):
        cvqvae.TrainConfig(**sizes)


# A non-finite value of a config key is rejected when the config is loaded.
@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1e-3), ("learning_rate", np.nan), ("commitment_weight", -0.25),
])
def test_out_of_range_training_settings_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        cvqvae.TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [("learning_rate", 0.0), ("commitment_weight", 0.0)])
def test_boundary_training_settings_accepted(field, value):
    assert getattr(cvqvae.TrainConfig(**{field: value}), field) == value


@pytest.mark.parametrize("name, value", [("enc_w[0]", np.nan), ("codebook", np.inf),
                                         ("feature_scale", -np.inf)])
def test_checkpoint_non_finite_array_is_contract_error(tmp_path, name, value):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    cvqvae.save_checkpoint(params, path)
    # The writer refuses the value, so it is put into the file's bytes: the
    # weights are <f4 blocks, the standardization <f8.
    blob = bytearray(path.read_bytes())
    at = blob.index(b"\n") + 1
    for block, arr in cvqvae._checkpoint_arrays(params):
        fmt = "<d" if block.startswith("feature_") else "<f"
        if block == name:
            struct.pack_into(fmt, blob, at + struct.calcsize(fmt), value)  # flat[1]
            break
        at += arr.size * struct.calcsize(fmt)
    path.write_bytes(bytes(blob))
    with pytest.raises(cvqvae.ContractError, match=re.escape(f"array {name}")):
        cvqvae.load_checkpoint(path)


@pytest.mark.parametrize("name, value", [("enc_w[0]", np.nan), ("codebook", np.inf),
                                         ("feature_scale", -np.inf)])
def test_save_checkpoint_refuses_a_non_finite_array(tmp_path, name, value):
    params = tiny_params()
    dict(cvqvae._checkpoint_arrays(params))[name].flat[1] = value
    path = tmp_path / "model.ckpt"
    with pytest.raises(cvqvae.ContractError, match=re.escape(f"{path}: non-finite value in array {name}")):
        cvqvae.save_checkpoint(params, path)
    assert not path.exists()


# SHA-256 of the checkpoint and loss-history bytes of a fixed-seed run,
# recorded before the encoder and decoder shared one MLP routine. Any drift
# in the training numerics changes them. Keyed by lambda_cl = lambda_int.
# The loss history at weight 1 was re-recorded when training moved to the
# live slot prefix: the squared residual is summed over 4 of 9 slots, and
# numpy's pairwise sum of a shorter row rounds differently. The checkpoints
# did not move. All four re-recorded when the training step moved to
# float32: the weights are drawn float32-exact and every step rounds in
# float32. The checkpoints re-recorded when they lost the code-usage block
# and the ``codebook_update`` header key (format v2). All four re-recorded
# when the first encoder layer moved to the row space of the 3 training
# records (its sums round differently) and the checkpoint weights to <f4
# blocks (format v3).
GOLDEN_DIGESTS = {
    0.0: (
        "a55f0bf05ffd3a7dc79b63a35324f9f7812dd00b4a4e17104665b15494e4b010",
        "e8f9d9e5be2c88b988610ebfcf4965f6a8557e45301bf24db5096934b3e7c91f",
    ),
    1.0: (
        "7ad42405d85271de33a197783ddb55c4badc59d1eb0315c2c6101caad9a933b4",
        "a1621fefd0a724ba5a1c1b254d36633e42eb4801f144de650efb4a2cb4856232",
    ),
}


@pytest.mark.parametrize("weight", sorted(GOLDEN_DIGESTS))
def test_training_bytes_match_golden_digests(tmp_path, weight):
    records = corpus.build_archetype_corpus(1, 9, dgsfm.DgsfmConfig())
    params, history = train_dataset(
        records, tiny_cfg(epochs=3, lambda_cl=weight, lambda_int=weight)
    )
    cvqvae.save_checkpoint(params, tmp_path / "model.ckpt")
    cvqvae.write_loss_history(history, tmp_path / "loss.csv")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.ckpt", "loss.csv")
    )
    assert digests == GOLDEN_DIGESTS[weight]


# SHA-256 of the checkpoint and loss-history bytes of a run with three
# batches per epoch (4, 4 and a ragged 1 of 9 records): they pin a last
# batch smaller than the others. Recorded before the training step reused
# its activation and gradient memory across batches; neither that reuse nor
# its removal moved them. Both loss histories re-recorded with the live
# slot prefix, all four with the float32 step, as above, all four when
# dead-code revival, which these runs once set off, was removed, and all
# four with the row-space first layer and format v3, as above.
GOLDEN_RAGGED_DIGESTS = {
    0.0: (
        "502722e36c7155959f8696b7644bdf15d620018196168840570bf3d910f549c1",
        "3f49ab0d73b10f27df9efd1a777304733594371c91b09919871a9631d167423c",
    ),
    1.0: (
        "49e5a06f9200b251abfc217e97c6ca28f89a8dfcec80a49a5913a797b0cabb75",
        "c2fc0685708529ac297c6fadc3a73643f0344836a42034fae986fa14939589a9",
    ),
}


def ragged_run(weight):
    records = corpus.build_archetype_corpus(3, 9, dgsfm.DgsfmConfig())
    cfg = tiny_cfg(epochs=4, batch_size=4, lambda_cl=weight, lambda_int=weight)
    return train_dataset(records, cfg)


@pytest.mark.parametrize("weight", sorted(GOLDEN_RAGGED_DIGESTS))
def test_ragged_batches_match_golden_digests(tmp_path, weight):
    params, history = ragged_run(weight)
    cvqvae.save_checkpoint(params, tmp_path / "model.ckpt")
    cvqvae.write_loss_history(history, tmp_path / "loss.csv")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.ckpt", "loss.csv")
    )
    assert digests == GOLDEN_RAGGED_DIGESTS[weight]

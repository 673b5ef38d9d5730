import hashlib
import math
import re

import numpy as np
import pytest

from scenmine import corpus, cvqvae


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
    x = np.ones((2, 3, 5))
    mask = np.ones((2, 5), dtype=bool)
    assert np.all(cvqvae.encode(x, mask, params) == 0.0)


def test_encode_deterministic(rng):
    params = tiny_params()
    x = rng.normal(size=(2, 3, 5))
    mask = np.ones((2, 5), dtype=bool)
    a = cvqvae.encode(x, mask, params)
    assert np.array_equal(a, cvqvae.encode(x, mask, params))


def test_encode_shape_mismatch_is_contract_error():
    params = tiny_params()
    with pytest.raises(cvqvae.ContractError):
        cvqvae.encode(np.zeros((3, 3, 5)), np.ones((3, 5), dtype=bool), params)


def test_single_layer_identity_encoder():
    # With no hidden layers and identity weights, the latent is the flattened
    # standardized input prefix.
    cfg = tiny_cfg(hidden=(), latent_dim=4)
    params = tiny_params(cfg, n_slots=1, n_features=1, t_obs=4)
    params.enc_w[0][:] = np.eye(4)
    params.enc_b[0][:] = 0.0
    x = np.arange(4.0).reshape(1, 1, 4)
    mask = np.ones((1, 4), dtype=bool)
    assert np.allclose(cvqvae.encode(x, mask, params), x.ravel())


# ------------------------------ quantize ------------------------------------

def test_quantize_nearest():
    codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
    q, z_q = cvqvae.quantize(np.array([0.1, 0.2]), codebook)
    assert q == 0
    assert np.array_equal(z_q, codebook[0])


def test_quantize_tie_breaks_to_lowest_index():
    codebook = np.full((8, 2), 50.0)
    codebook[3] = [1.0, 0.0]
    codebook[7] = [-1.0, 0.0]
    q, _ = cvqvae.quantize(np.array([0.0, 0.5]), codebook)
    assert q == 3


def test_quantize_matches_brute_force(rng):
    codebook = rng.normal(size=(64, 8))
    for _ in range(200):
        z = rng.normal(size=8)
        q, _ = cvqvae.quantize(z, codebook)
        oracle = int(np.argmin(np.sum((codebook - z) ** 2, axis=1)))
        assert q == oracle


def test_quantize_idempotent(rng):
    codebook = rng.normal(size=(16, 4))
    for q in range(16):
        q2, _ = cvqvae.quantize(codebook[q], codebook)
        assert q2 == q


def test_quantize_empty_codebook():
    with pytest.raises(ValueError):
        cvqvae.quantize(np.zeros(2), np.zeros((0, 2)))


# ------------------------------- decode -------------------------------------

def test_decode_zero_weights_zero_tensor():
    params = zeroed(tiny_params())
    out = cvqvae.decode(np.ones(4), params)
    assert out.shape == (2, 3, 5)
    assert np.all(out == 0.0)


def test_decode_deterministic(rng):
    params = tiny_params()
    z = rng.normal(size=4)
    assert np.array_equal(cvqvae.decode(z, params), cvqvae.decode(z, params))


def test_single_layer_linear_decoder_matches_matrix_product(rng):
    cfg = tiny_cfg(hidden=(), latent_dim=4)
    params = tiny_params(cfg, n_slots=1, n_features=1, t_obs=4)
    z = rng.normal(size=4)
    expected = params.dec_w[0] @ z + params.dec_b[0]
    assert np.allclose(cvqvae.decode(z, params).ravel(), expected)


# ------------------------------- heads --------------------------------------

def test_classify_zero_head_uniform():
    params = zeroed(tiny_params())
    p = cvqvae.classify(np.ones(4), params)
    assert np.allclose(p, 0.1)


def test_classify_dominant_logit():
    params = zeroed(tiny_params())
    params.cl_b[0] = 10.0
    p = cvqvae.classify(np.zeros(4), params)
    expected = math.exp(10.0) / (math.exp(10.0) + 9.0)
    assert abs(p[0] - expected) < 1e-12
    assert p[0] > 0.999


def test_classify_sums_to_one(rng):
    params = tiny_params()
    p = cvqvae.classify(rng.normal(size=4), params)
    assert np.all(p > 0)
    assert abs(p.sum() - 1.0) < 1e-9


def test_predict_interaction_zero_head_half():
    params = zeroed(tiny_params())
    t_hat = cvqvae.predict_interaction(np.zeros(4), params)
    assert t_hat.shape == (2, 5)
    assert np.all(t_hat == 0.5)


def test_predict_interaction_range_and_value(rng):
    params = tiny_params()
    t_hat = cvqvae.predict_interaction(rng.normal(size=4), params)
    assert np.all((t_hat > 0) & (t_hat < 1))
    params = zeroed(params)
    params.int_b[0] = 4.0
    t_hat = cvqvae.predict_interaction(np.zeros(4), params)
    assert abs(t_hat.ravel()[0] - 1.0 / (1.0 + math.exp(-4.0))) < 1e-12


# -------------------------------- loss --------------------------------------

def forward_terms(inputs, masks, cls, inter, params, cfg):
    fwd = cvqvae._forward(inputs, masks, params)
    return fwd, cvqvae._per_term_losses(fwd, masks, cls, inter, cfg, params)


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
    records = corpus.build_archetype_corpus(n_per_class=1, seed=5)
    cfg = cvqvae.TrainConfig(hidden=(8, 8), latent_dim=4, codebook_size=4)
    inputs, masks, _, _ = cvqvae._record_arrays(records)
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(
        cfg, np.random.default_rng(1), feature_shift=shift, feature_scale=scale
    )
    for record in records:
        lb = cvqvae.loss(record, params, cfg)
        expected = (
            lb.recon
            + lb.codebook_term
            + lb.commit_term
            + cfg.lambda_cl * lb.cl
            + cfg.lambda_int * lb.inter
        )
        assert abs(lb.total - expected) < 1e-9


def test_lambda_zero_reproduces_plain_objective(rng):
    cfg0 = tiny_cfg(lambda_cl=0.0, lambda_int=0.0)
    params = tiny_params(cfg0)
    inputs = rng.normal(size=(4, 2, 3, 5))
    masks = np.ones((4, 2, 5), dtype=bool)
    cls = np.eye(10)[rng.integers(0, 10, size=4)]
    inter = rng.random((4, 2, 5))
    fwd = cvqvae._forward(inputs, masks, params)
    with_targets = cvqvae._backward(fwd, masks, cls, inter, cfg0, params)
    without = cvqvae._backward(fwd, masks, None, None, cfg0, params)
    for i in range(len(params.enc_w)):
        assert np.array_equal(with_targets[f"enc_w[{i}]"], without[f"enc_w[{i}]"])
        assert np.array_equal(with_targets[f"dec_w[{i}]"], without[f"dec_w[{i}]"])
    assert np.array_equal(with_targets["codebook"], without["codebook"])
    assert np.all(with_targets["cl_w"] == 0.0)
    assert np.all(with_targets["int_w"] == 0.0)
    terms = cvqvae._per_term_losses(fwd, masks, cls, inter, cfg0, params)
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
    params, _ = cvqvae.train_arrays(inputs, masks, None, None, cfg)
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
    params, _ = cvqvae.train_arrays(inputs, masks, None, None, cfg)
    x = cvqvae._standardize(inputs, masks, params)
    z, _ = cvqvae._mlp_forward(x.reshape(x.shape[0], -1), params.enc_w, params.enc_b)
    codes = cvqvae._quantize_batch(z, params.codebook)
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
    _, history = cvqvae.train_arrays(inputs, masks, None, None, cfg)
    for prev, cur in zip(history, history[1:]):
        assert cur.total <= prev.total * 1.05


def test_train_deterministic_for_seed():
    records = corpus.build_archetype_corpus(n_per_class=2, seed=6)
    cfg = tiny_cfg(epochs=3)
    a, ha = cvqvae.train(records, cfg)
    b, hb = cvqvae.train(records, cfg)
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
            cvqvae.train_arrays(inputs, masks, None, None, cfg)


def test_train_usage_positive_with_revival():
    rng = np.random.default_rng(5)
    inputs, masks, _ = toy_dataset(rng, n=80)
    cfg = tiny_cfg(epochs=40, hidden=(8,), latent_dim=3, codebook_size=8, learning_rate=0.01)
    params, _ = cvqvae.train_arrays(inputs, masks, None, None, cfg)
    assert np.all(params.usage > 0)


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError):
        cvqvae.train([], tiny_cfg())


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
    fwd = cvqvae._forward(inputs, masks, params)
    grads = cvqvae._backward(fwd, masks, None, None, cfg, params)
    for key in ("codebook", "cl_w", "int_w"):
        assert np.all(grads[key] == 0.0)
    for i in range(len(params.enc_w)):
        assert np.all(grads[f"enc_w[{i}]"] == 0.0)
        assert np.all(grads[f"dec_w[{i}]"] == 0.0)


def test_grad_check_detects_corrupted_gradient(rng):
    cfg = tiny_cfg(hidden=(), latent_dim=3, codebook_size=3)
    params = tiny_params(cfg, n_slots=1, n_features=2, t_obs=4)
    inputs = rng.normal(size=(1, 1, 2, 4))
    masks = np.ones((1, 1, 4), dtype=bool)
    fwd = cvqvae._forward(inputs, masks, params)
    grads = cvqvae._backward(fwd, masks, None, None, cfg, params)
    q0, z0 = fwd["q"].copy(), fwd["z"].copy()
    gap0 = fwd["z_q"] - fwd["z"]
    eps = 1e-5
    arr = params.dec_w[0]
    orig = arr[0, 0]
    arr[0, 0] = orig + eps
    up = cvqvae._frozen_total(inputs, masks, None, None, params, cfg, q0, z0, gap0)
    arr[0, 0] = orig - eps
    down = cvqvae._frozen_total(inputs, masks, None, None, params, cfg, q0, z0, gap0)
    arr[0, 0] = orig
    numeric = (up - down) / (2 * eps)
    corrupted = 2.0 * grads["dec_w[0]"][0, 0]
    err = abs(corrupted - numeric) / max(abs(numeric), 1e-8)
    assert abs(err - 1.0) < 0.01


# --------------------------- checkpoint IO -----------------------------------

def test_checkpoint_round_trip(tmp_path):
    records = corpus.build_archetype_corpus(n_per_class=1, seed=9)
    cfg = tiny_cfg(epochs=2)
    params, _ = cvqvae.train(records, cfg)
    path = tmp_path / "model.ckpt"
    cvqvae.save_checkpoint(params, path)
    loaded = cvqvae.load_checkpoint(path)
    assert loaded.hidden == params.hidden
    assert loaded.codebook_update == params.codebook_update
    assert np.array_equal(loaded.codebook, params.codebook)
    assert np.array_equal(loaded.feature_shift, params.feature_shift)
    assert np.array_equal(loaded.usage, params.usage)
    for a, b in zip(loaded.enc_w, params.enc_w):
        assert np.array_equal(a, b)
    second = tmp_path / "again.ckpt"
    cvqvae.save_checkpoint(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_loss_history_csv(tmp_path):
    records = corpus.build_archetype_corpus(n_per_class=1, seed=9)
    _, history = cvqvae.train(records, tiny_cfg(epochs=3))
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


@pytest.mark.parametrize("name, value", [("enc_w[0]", np.nan), ("codebook", np.inf), ("usage", -np.inf)])
def test_checkpoint_non_finite_array_is_contract_error(tmp_path, name, value):
    params = tiny_params()
    dict(cvqvae._checkpoint_arrays(params))[name].flat[1] = value
    path = tmp_path / "model.ckpt"
    cvqvae.save_checkpoint(params, path)
    with pytest.raises(cvqvae.ContractError, match=re.escape(f"array {name}")):
        cvqvae.load_checkpoint(path)


# SHA-256 of the checkpoint and loss-history bytes of a fixed-seed run,
# recorded before the encoder and decoder shared one MLP routine. Any drift
# in the training numerics changes them. Keyed by lambda_cl = lambda_int.
GOLDEN_DIGESTS = {
    0.0: (
        "906822d9609ee89f10700dab3b52289b14d7be241173e49a1dd6c3e3e77be4a4",
        "ab08f6fea8e5dab4988ad0381bebc62b30f503758e5d76d6793559b9a497c80c",
    ),
    1.0: (
        "67984902b67f47288fad450d6295342b8c72116e82d79b4601eff1258e74a777",
        "e2b1fdfb777a149977db40c4faea7950a51b4f1f11fa7440569e3c062c5f061e",
    ),
}


@pytest.mark.parametrize("weight", sorted(GOLDEN_DIGESTS))
def test_training_bytes_match_golden_digests(tmp_path, weight):
    records = corpus.build_archetype_corpus(n_per_class=1, seed=9)
    params, history = cvqvae.train(
        records, tiny_cfg(epochs=3, lambda_cl=weight, lambda_int=weight)
    )
    cvqvae.save_checkpoint(params, tmp_path / "model.ckpt")
    cvqvae.write_loss_history(history, tmp_path / "loss.csv")
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model.ckpt", "loss.csv")
    )
    assert digests == GOLDEN_DIGESTS[weight]

"""End-to-end acceptance checks, one test per criterion. Each test prints a
single PASS line with its measured values when its assertions hold."""
import itertools
import math
import time

import numpy as np

from scenmine import cli, clustering, corpus, cvqvae, detect, dgsfm, ingest, metrics

from conftest import encode_dataset, grad_check, quantize, take, train_dataset


def report(name, detail):
    print(f"PASS {name}: {detail}")


# 1 -------------------------------------------------------------------------

def test_criterion_1_metric_arithmetic_identity():
    expectations = [
        ((109, 38, 10), 0.741, 0.916),
        ((29, 119, 90), 0.196, 0.244),
        ((86, 199, 33), 0.302, 0.723),
    ]
    for (tp, fp, fn), precision, recall in expectations:
        truth = [(1000 * i, None) for i in range(tp + fn)]
        predicted = [(1000 * i, None) for i in range(tp)]
        predicted += [(1000 * (tp + fn + j) + 500, None) for j in range(fp)]
        m = detect.evaluate_detection(predicted, truth, window=50)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
        assert abs(m.precision - precision) <= 0.001
        assert abs(m.recall - recall) <= 0.001
    report("criterion 1", "all three detection table rows reproduced within 0.001")


# 2 -------------------------------------------------------------------------

def _detection_corpus(n=100, noise=0.05, seed=21):
    """Scripted maneuvers whose longitudinal phases persist to the end of the
    trajectory, so every scripted boundary is recoverable under noise."""
    rng = np.random.default_rng(seed)
    scripts = []
    for i in range(n):
        kind = ("lane_change", "accelerate", "decelerate", "extreme_brake")[i % 4]
        start = int(rng.integers(200, 400))
        if kind == "lane_change":
            maneuvers = (
                ingest.Maneuver("cruise", 0, start),
                ingest.Maneuver("lane_change", start, 100, lane_direction=1 if i % 8 < 4 else -1),
                ingest.Maneuver("cruise", start + 100, 300),
            )
        elif kind == "extreme_brake":
            maneuvers = (
                ingest.Maneuver("cruise", 0, start),
                ingest.Maneuver("extreme_brake", start, 400, accel=3.0),
            )
        else:
            maneuvers = (
                ingest.Maneuver("cruise", 0, start),
                ingest.Maneuver(kind, start, 400, accel=float(rng.uniform(0.4, 1.0))),
            )
        scripts.append(
            ingest.SyntheticScript(maneuvers=maneuvers, noise_sigma_accel=noise, vehicle_id=i)
        )
    return ingest.generate_synthetic(scripts, 0.04, seed)


def test_criterion_2_synthetic_detection_quality():
    t0 = time.monotonic()
    trajs, truths = _detection_corpus()
    cfg = detect.DetectorConfig()
    rule_tp = rule_fp = rule_fn = 0
    ema_tp = ema_fp = ema_fn = 0
    for traj, truth in zip(trajs, truths):
        labeled_truth = [(cp.t_c, cp.label_after) for cp in truth]
        cps = detect.detect_rule_based(traj, cfg)
        m = detect.evaluate_detection(
            [(cp.t_c, cp.label_after) for cp in cps], labeled_truth, window=50
        )
        rule_tp, rule_fp, rule_fn = rule_tp + m.tp, rule_fp + m.fp, rule_fn + m.fn
        events = detect.detect_ema(traj)
        assert len(events) >= 1  # by-design property of the baseline
        m = detect.evaluate_detection(
            [(e, None) for e in events], labeled_truth, window=50
        )
        ema_tp, ema_fp, ema_fn = ema_tp + m.tp, ema_fp + m.fp, ema_fn + m.fn
    rule = detect.DetectionMatch(rule_tp, rule_fp, rule_fn)
    ema = detect.DetectionMatch(ema_tp, ema_fp, ema_fn)
    elapsed = time.monotonic() - t0
    assert rule.precision >= 0.90
    assert rule.recall >= 0.90
    assert ema.precision < rule.precision
    assert elapsed <= 30.0
    report(
        "criterion 2",
        f"rule P={rule.precision:.3f} R={rule.recall:.3f}, "
        f"ema P={ema.precision:.3f} R={ema.recall:.3f}, {elapsed:.1f}s",
    )


# 3 -------------------------------------------------------------------------

def test_criterion_3_entropy_bounds():
    _, h_pure = metrics.cluster_entropy(np.array([0, 0, 1, 1]), [2, 2, 5, 5])
    assert h_pure == 0.0
    _, h_mixed = metrics.cluster_entropy(np.zeros(10, dtype=int), list(range(10)))
    assert abs(h_mixed - math.log2(10)) <= 1e-9
    report("criterion 3", f"pure H=0, uniform H={h_mixed:.12f} = log2(10) within 1e-9")


# 4 -------------------------------------------------------------------------

def test_criterion_4_gradient_correctness():
    t0 = time.monotonic()
    record = take(corpus.build_archetype_corpus(n_per_class=1, seed=6), slice(1))
    cfg = cvqvae.TrainConfig(hidden=(16, 16), latent_dim=8, codebook_size=4, seed=6)
    shift, scale = cvqvae.fit_standardization(record.tensor, record.mask)
    params = cvqvae.init_params(
        cfg, np.random.default_rng(6), feature_shift=shift, feature_scale=scale
    )
    err = grad_check(record, params, cfg, epsilon=1e-3, n_checks=150, seed=6)
    elapsed = time.monotonic() - t0
    assert err < 1e-4
    assert elapsed <= 10.0
    report("criterion 4", f"max relative gradient error {err:.3e} < 1e-4, {elapsed:.1f}s")


# 5 -------------------------------------------------------------------------

def test_criterion_5_quantization_oracle():
    rng = np.random.default_rng(30)
    codebook = rng.normal(size=(64, 8))
    for _ in range(1000):
        z = rng.normal(size=8)
        q, z_q = quantize(z, codebook)
        d2 = np.sum((codebook - z) ** 2, axis=1)
        assert q == int(np.argmin(d2))
        assert np.array_equal(z_q, codebook[q])
    # Constructed exact ties break to the lowest index.
    tied = np.zeros((64, 8))
    tied[10] = 1.0
    tied[40] = -1.0
    q, _ = quantize(np.zeros(8), tied)
    assert q == 0  # all-zero rows 0..9 tie at distance 0
    q, _ = quantize(np.full(8, 10.0), np.vstack([tied[10:11]] * 64))
    assert q == 0
    report("criterion 5", "1000 random latents + tie-breaks match exhaustive scan")


# 6 -------------------------------------------------------------------------

def test_criterion_6_directional_knowledge_guidance():
    t0 = time.monotonic()
    base = corpus.build_archetype_corpus(n_per_class=200, seed=11)
    augmented, pairs = corpus.augment_corpus(base, 0.04, n_augment=50, seed=12)
    ids = [e["record_id"] for e in base.entries + augmented.entries]

    def labels_of(backend, params):
        """The ``cluster`` stage's labels: record id -> label."""
        labels = clustering.assign(
            backend,
            encode_dataset(base, params),
            encode_dataset(augmented, params),
            params.codebook,
            clustering.ClusterConfig(),
            seed=20,
        )
        return dict(zip(ids, labels.tolist()))

    def run(lambda_cl, lambda_int):
        cfg = cvqvae.TrainConfig(
            lambda_cl=lambda_cl,
            lambda_int=lambda_int,
            epochs=60,
            seed=20,
            hidden=(128, 128),
            latent_dim=32,
            codebook_size=16,
        )
        params, _ = train_dataset(base, cfg)
        labels = labels_of("codebook", params)
        _, h_avg = metrics.cluster_entropy(
            np.array([labels[e["record_id"]] for e in base.entries]), [e["pseudo_class"] for e in base.entries]
        )
        accuracy = metrics.augmentation_accuracy(labels, pairs)
        return params, h_avg, accuracy

    params_no_dk, h_no_dk, acc_no_dk = run(0.0, 0.0)
    params_dk, h_dk, acc_dk = run(1.0, 1.0)

    assert acc_dk - acc_no_dk >= 0.2
    assert h_dk < h_no_dk

    acc_km = metrics.augmentation_accuracy(labels_of("kmeans", params_dk), pairs)
    soft = acc_dk >= acc_km
    if not soft:
        print(f"WARNING: codebook accuracy {acc_dk:.3f} < k-means accuracy {acc_km:.3f}")

    elapsed = time.monotonic() - t0
    assert elapsed <= 600.0
    report(
        "criterion 6",
        f"accuracy no-DK={acc_no_dk:.3f} DK={acc_dk:.3f} (gap {acc_dk - acc_no_dk:.3f} >= 0.2), "
        f"H_avg no-DK={h_no_dk:.3f} DK={h_dk:.3f}, k-means acc={acc_km:.3f}, {elapsed:.0f}s",
    )


# 7 -------------------------------------------------------------------------

def test_criterion_7_interaction_matrix_invariants():
    rng = np.random.default_rng(14)
    cfg = dgsfm.DgsfmConfig()
    for _ in range(100):
        presence = rng.random((8, 100)) < rng.uniform(0.2, 0.9)
        ego_pos = np.cumsum(rng.normal(1.0, 0.05, size=(100, 2)), axis=0)
        ego_vel = rng.normal(25.0, 0.5, size=(100, 2))
        nb_pos = ego_pos[None] + rng.normal(0.0, 40.0, size=(8, 100, 2))
        nb_vel = rng.normal(25.0, 2.0, size=(8, 100, 2))
        mat = dgsfm.interaction_scores(ego_pos, ego_vel, nb_pos, nb_vel, presence, cfg)
        assert np.all(mat[0] == 1.0)
        for t in range(100):
            present = presence[:, t]
            assert np.all(mat[1:, t][~present] == 0.0)
            if present.any():
                assert abs(mat[1:, t][present].sum() - 1.0) <= 1e-9
    for _ in range(100):
        d = rng.uniform(1.0, 80.0, size=2)
        ego = np.zeros(2)
        vel = np.array([25.0, 0.0])
        ahead, _ = dgsfm.beta_components(ego, vel, np.abs(d), vel * 0.9, cfg)
        behind, _ = dgsfm.beta_components(ego, vel, -np.abs(d), vel * 0.9, cfg)
        assert ahead > behind
    report("criterion 7", "100 scenarios pass row/normalization invariants; forward > rear")


# 8 -------------------------------------------------------------------------

def test_criterion_8_dgsfm_identities():
    rng = np.random.default_rng(15)
    cfg = dgsfm.DgsfmConfig()
    for _ in range(50):
        r_i = rng.normal(0.0, 50.0, size=2)
        r_j = rng.normal(0.0, 50.0, size=2)
        v = rng.normal(20.0, 5.0, size=2)
        _, beta_b = dgsfm.beta_components(r_i, v, r_j, v, cfg)
        assert abs(beta_b) <= 1e-12
        assert dgsfm.v_egg(r_i, r_i, v, cfg) == cfg.amplitude
    report("criterion 8", "beta_B = 0 for equal velocities; V(r, r, v) = A")


# 9 -------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(
        "seed: 5\n"
        "synth:\n  n_trajectories: 10\n"
        "augment:\n  n_augment: 5\n"
        "train:\n  epochs: 5\n  hidden: [32, 32]\n  latent_dim: 8\n  codebook_size: 6\n"
    )
    wd1, wd2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["--config", str(config), "--workdir", str(wd1), "pipeline"]) == 0
    assert cli.main(["--config", str(config), "--workdir", str(wd2), "pipeline"]) == 0
    artifacts = ["dataset.jsonl", "dataset_augmented.jsonl", "no_dk.ckpt", "dk.ckpt", "report.json"]
    for name in artifacts:
        assert (wd1 / name).read_bytes() == (wd2 / name).read_bytes(), name
    report("criterion 9", f"{len(artifacts)} pipeline artifacts byte-identical across reruns")


# 10 ------------------------------------------------------------------------

def test_criterion_10_clustering_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(10, 51))
        k = int(rng.integers(2, 6))
        latents = rng.normal(size=(n, 4))
        _, merges = clustering.hierarchical(latents, k)
        clusters = [[i] for i in range(n)]
        expected = []
        while len(clusters) > k:
            costs = {
                (a, b): clustering._linkage_cost(latents, clusters[a], clusters[b], "ward")
                for a, b in itertools.combinations(range(len(clusters)), 2)
            }
            floor = min(costs.values())
            a, b = min(p for p, c in costs.items() if c <= floor + 1e-15)
            expected.append((a, b))
            clusters[a] = clusters[a] + clusters[b]
            del clusters[b]
        assert merges == expected

        labels, centroids = clustering.kmeans(latents, k, seed=int(rng.integers(1000)))
        assert np.array_equal(clustering._nearest(latents, centroids), labels)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    report("criterion 10", f"20 instances match naive agglomeration oracle, {elapsed:.1f}s")

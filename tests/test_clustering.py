import hashlib
import functools
import itertools

import numpy as np
import pytest

from scenmine import cli, clustering, corpus, cvqvae, dgsfm

from conftest import encode_dataset, quantize, take, train_dataset


def naive_ward_oracle(latents, k, linkage="ward"):
    """O(n^3) agglomeration oracle: recompute every pairwise linkage cost at
    each step, merge the globally cheapest pair, ties to the lowest active
    (i, j) positions. Merges are (i, j) positions into the active list."""
    clusters = [[i] for i in range(len(latents))]
    merges = []
    while len(clusters) > k:
        costs = {
            (a, b): clustering._linkage_cost(latents, clusters[a], clusters[b], linkage)
            for a, b in itertools.combinations(range(len(clusters)), 2)
        }
        floor = min(costs.values())
        a, b = min(p for p, c in costs.items() if c <= floor + 1e-15)
        merges.append((a, b))
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return merges, clusters


def co_membership(labels):
    labels = np.asarray(labels)
    return labels[:, None] == labels[None, :]


# ------------------------------ codebook -------------------------------------

@pytest.fixture(scope="module")
def trained():
    records = corpus.build_archetype_corpus(4, 11, dgsfm.DgsfmConfig())
    cfg = cvqvae.TrainConfig(hidden=(16, 16), latent_dim=6, codebook_size=4, epochs=5, seed=1)
    params, _ = train_dataset(records, cfg)
    return records, params


def codebook_labels(records, params):
    latents = encode_dataset(records, params)
    return clustering.assign("codebook", latents, latents[:0], params.codebook,
                             clustering.ClusterConfig(), seed=0)


def test_assign_codebook_matches_brute_force(trained):
    records, params = trained
    labels = codebook_labels(records, params)
    latents = encode_dataset(records, params)
    for label, z in zip(labels, latents):
        oracle = int(np.argmin(np.sum((params.codebook - z) ** 2, axis=1)))
        assert label == oracle


def test_assign_codebook_identical_records_identical_labels(trained):
    records, params = trained
    labels = codebook_labels(take(records, [0, 0, 1]), params)
    assert labels[0] == labels[1]


def test_assign_codebook_exact_code_returns_its_index(trained):
    _, params = trained
    for q in range(params.codebook_size):
        idx, _ = quantize(params.codebook[q], params.codebook)
        assert idx == q


# ------------------------------- k-means --------------------------------------

def kmeans_inertia(latents, labels, centroids):
    """Sum of squared distances from each latent to its centroid."""
    return float(np.sum((latents - centroids[labels]) ** 2))


def test_kmeans_k_equals_n_singletons(rng):
    latents = rng.normal(size=(6, 3)) * 10
    labels, centroids = clustering.kmeans(latents, k=6, seed=0)
    assert sorted(labels) == list(range(6))
    assert kmeans_inertia(latents, labels, centroids) == 0.0


def test_kmeans_separated_blobs(rng):
    blob_a = rng.normal(0.0, 0.5, size=(20, 2))
    blob_b = rng.normal(50.0, 0.5, size=(20, 2))
    latents = np.vstack([blob_a, blob_b])
    labels, _ = clustering.kmeans(latents, k=2, seed=3)
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]


def test_kmeans_terminates_at_fixed_point(rng):
    latents = rng.normal(size=(40, 4))
    labels, centroids = clustering.kmeans(latents, k=5, seed=7)
    reassigned = clustering._nearest(latents, centroids)
    assert np.array_equal(reassigned, labels)


def test_kmeans_inertia_non_increasing_over_iterations(rng):
    latents = rng.normal(size=(60, 3))
    inertias = []
    for iters in range(1, 8):
        labels, centroids = clustering.kmeans(latents, k=4, seed=2, max_iter=iters)
        inertias.append(kmeans_inertia(latents, labels, centroids))
    for prev, cur in zip(inertias, inertias[1:]):
        assert cur <= prev + 1e-9


def test_kmeans_too_few_latents(rng):
    with pytest.raises(ValueError):
        clustering.kmeans(rng.normal(size=(3, 2)), k=5, seed=0)


# ----------------------------- hierarchical -----------------------------------

def test_hierarchical_n_equals_k_singletons(rng):
    latents = rng.normal(size=(5, 2))
    labels, _ = clustering.hierarchical(latents, k=5)
    assert sorted(labels) == list(range(5))


def test_hierarchical_collinear_points_merge_closest():
    latents = np.array([[0.0], [1.0], [10.0]])
    labels, merges = clustering.hierarchical(latents, k=2)
    assert merges[0] == (0, 1)
    assert labels[0] == labels[1] != labels[2]


@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_matches_naive_oracle(linkage, rng):
    for trial in range(5):
        n = int(rng.integers(8, 20))
        k = int(rng.integers(2, 5))
        latents = rng.normal(size=(n, 3))
        _, merges = clustering.hierarchical(latents, k, linkage=linkage)
        expected, _ = naive_ward_oracle(latents, k, linkage=linkage)
        assert merges == expected


def test_hierarchical_too_few_latents(rng):
    with pytest.raises(ValueError):
        clustering.hierarchical(rng.normal(size=(3, 2)), k=4)


@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_cost_matrix_matches_linkage_cost_after_every_merge(linkage, rng):
    for trial in range(3):
        n = int(rng.integers(10, 18))
        latents = rng.normal(size=(n, 5))
        if trial == 2:
            latents = np.round(latents)
        members = [[i] for i in range(n)]
        steps = 0
        for _, cost in clustering._merge_steps(latents, 1, linkage, members):
            steps += 1
            live = [s for s in range(n) if members[s]]
            expected = np.full((n, n), np.inf)
            for a, b in itertools.combinations(live, 2):
                expected[a, b] = clustering._linkage_cost(latents, members[a], members[b], linkage)
            assert np.array_equal(cost, expected)
        assert steps == n - 1


@pytest.mark.parametrize("linkage", ["average", "complete"])
def test_cost_matrix_matches_linkage_cost_on_large_blocks(linkage):
    # 40 points merged to one cluster: late distance blocks hold hundreds of
    # entries, past the unrolled and recursive stages of a pairwise sum.
    latents = np.random.default_rng(21).normal(size=(40, 8))
    members = [[i] for i in range(40)]
    for _, cost in clustering._merge_steps(latents, 1, linkage, members):
        live = [s for s in range(40) if members[s]]
        for a, b in itertools.combinations(live, 2):
            assert cost[a, b] == clustering._linkage_cost(latents, members[a], members[b], linkage)
    assert max(len(m) for m in members) == 40


@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_tie_heavy_matches_naive_oracle(linkage, rng):
    for trial in range(4):
        n = int(rng.integers(8, 16))
        latents = np.round(rng.normal(size=(n, 2)) * 1.5)
        latents[rng.integers(n, size=n // 3)] = latents[0]  # duplicated points
        for k in range(1, 5):
            _, merges = clustering.hierarchical(latents, k, linkage=linkage)
            expected, _ = naive_ward_oracle(latents, k, linkage=linkage)
            assert merges == expected


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_overflowed_costs_merge_lowest_pair(linkage):
    latents = np.array([[0.0], [1e200], [-1e200], [3e200]])
    _, merges = clustering.hierarchical(latents, 1, linkage=linkage)
    expected, _ = naive_ward_oracle(latents, 1, linkage=linkage)
    assert merges == expected


def test_hierarchical_600_latents_ward(rng):
    latents = rng.normal(size=(600, 32))
    base, merges = clustering.hierarchical(latents, 16)
    assert len(merges) == 584
    assert sorted(set(base.tolist())) == list(range(16))
    perm = rng.permutation(600)
    restored = np.empty(600, dtype=np.int64)
    restored[perm] = clustering.hierarchical(latents[perm], 16)[0]
    assert np.array_equal(co_membership(base), co_membership(restored))


@pytest.mark.parametrize("backend", ["kmeans", "hierarchical"])
def test_non_finite_latents_or_bad_k_rejected(backend, rng):
    run = functools.partial(clustering.kmeans, seed=0) if backend == "kmeans" else clustering.hierarchical
    latents = rng.normal(size=(6, 3))
    for bad in (np.nan, np.inf):
        damaged = latents.copy()
        damaged[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            run(damaged, 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be"):
            run(latents, k)


# ------------------------- permutation invariance -----------------------------

def test_hierarchical_partition_permutation_invariant(rng):
    latents = rng.normal(size=(25, 3))
    perm = rng.permutation(25)
    base = clustering.hierarchical(latents, k=4)[0]
    shuffled = clustering.hierarchical(latents[perm], k=4)[0]
    restored = np.empty(25, dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(co_membership(base), co_membership(restored))


def test_codebook_partition_permutation_invariant(trained):
    records, params = trained
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(records))
    base = codebook_labels(records, params)
    shuffled = codebook_labels(take(records, perm.tolist()), params)
    restored = np.empty(len(records), dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(base, restored)


def test_kmeans_partition_stable_on_separated_data(rng):
    blob_a = rng.normal(0.0, 0.3, size=(15, 2))
    blob_b = rng.normal(40.0, 0.3, size=(15, 2))
    latents = np.vstack([blob_a, blob_b])
    perm = rng.permutation(30)
    base = clustering.kmeans(latents, k=2, seed=5)[0]
    shuffled = clustering.kmeans(latents[perm], k=2, seed=5)[0]
    restored = np.empty(30, dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(co_membership(base), co_membership(restored))


# -------------------------- base and held-out rows ----------------------------

def brute_nearest(z, centers):
    d2 = [float(np.sum((z - c) ** 2)) for c in centers]
    return d2.index(min(d2))


@pytest.mark.parametrize("backend, linkage", [
    ("codebook", "ward"), ("kmeans", "ward"),
    *(("hierarchical", linkage) for linkage in clustering.LINKAGES),
])
def test_assign_labels_base_by_fit_and_held_out_by_nearest_center(backend, linkage, rng):
    base = rng.normal(size=(30, 4))
    held_out = np.vstack([rng.normal(size=(9, 4)), base[3]])  # the last row is a base row
    codebook = rng.normal(size=(5, 4))
    cfg = clustering.ClusterConfig(linkage=linkage, max_iter=50)
    labels = clustering.assign(backend, base, held_out, codebook, cfg, seed=4)
    if backend == "codebook":
        centers, center_labels = codebook, np.arange(5)
        base_labels = [brute_nearest(z, codebook) for z in base]
    elif backend == "kmeans":
        base_labels, centers = clustering.kmeans(base, 5, seed=4, max_iter=50)
        center_labels = np.arange(5)
    else:
        base_labels, _ = clustering.hierarchical(base, 5, linkage=linkage)
        centers, center_labels = base, base_labels
    assert labels.tolist()[:30] == list(base_labels)
    assert labels.tolist()[30:] == [center_labels[brute_nearest(z, centers)] for z in held_out]
    assert labels[-1] == labels[3]


def test_assign_without_held_out_rows(rng):
    base = rng.normal(size=(12, 3))
    cfg = clustering.ClusterConfig()
    for backend in clustering.BACKENDS:
        labels = clustering.assign(backend, base, base[:0], base[:3], cfg, seed=0)
        assert labels.shape == (12,) and set(labels.tolist()) <= {0, 1, 2}


def test_assign_unknown_backend_rejected(rng):
    base = rng.normal(size=(6, 2))
    with pytest.raises(ValueError, match="unknown backend"):
        clustering.assign("dbscan", base, base[:1], base[:2], clustering.ClusterConfig(), seed=0)


# ------------------------- golden clustering output ---------------------------

GOLDEN_CONFIG = """\
seed: 13
synth:
  n_trajectories: 16
augment:
  n_augment: 4
train:
  epochs: 4
  hidden: [24, 24]
  latent_dim: 8
  codebook_size: 6
"""

# SHA-256 of the cluster and report artifacts of a fixed-seed pipeline run
# (20 base records, so hierarchical makes 14 ward merges), recorded before
# hierarchical merging moved to a cached cost matrix.
GOLDEN_CLUSTER_DIGESTS = {
    "assignments_no_dk.csv": "0fbfd58c093be4ee0f543915e5f587a4ef8ad3f0f95cde8400e7f9bd6b8e2d2c",
    "assignments_dk.csv": "87dd5aa45a7e4be97b664d50674eb09d2d1ee8b0f549ef0c618cb2b46f2aac57",
    "report.json": "17cc896c3c14ecac87a9935b718ae992e67c824930a05458a9ee1d7782d7ce13",
}


def test_cluster_and_report_bytes_match_golden_digests(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(GOLDEN_CONFIG)
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "pipeline"]) == 0
    digests = {name: hashlib.sha256((wd / name).read_bytes()).hexdigest()
               for name in GOLDEN_CLUSTER_DIGESTS}
    assert digests == GOLDEN_CLUSTER_DIGESTS


# SHA-256 of the cluster, evaluate and report artifacts of a small archetype
# pipeline with all three backends. Its base records fill slots 0-3 and
# every augmented record puts its donor in slot 4, so ``cluster`` encodes
# batches of two widths.
ARCHETYPE_PIPELINE_CONFIG = """\
synth:
  kind: archetypes
  n_per_class: 10
augment:
  n_augment: 10
train:
  epochs: 3
"""
GOLDEN_ARCHETYPE_CLUSTER_DIGESTS = {
    "assignments_no_dk.csv": "753b8cb870f3f60700a1be70a2d422b8ea6b0897b7e1e6b9651abe4d66fea24a",
    "assignments_dk.csv": "3e5eb1aacf44b0c99c928166abbc0c3698bd4e072aa65268f86a1adee6c6dffa",
    "clustering_no_dk.json": "bf37ad50205a7a75483298ad70115dcd3897e237852760430b3d4c501177d5af",
    "clustering_dk.json": "e3d5f358cd590c16569405c3f36ecc6295b3a1ec882a26b78e88d1c5a1881e67",
    "report.json": "009d33de9f5853b90d40c758ddef91ec2494ea0d8f6a5f44b75637e31c8d8778",
}


def test_archetype_pipeline_cluster_bytes_match_golden_digests(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(ARCHETYPE_PIPELINE_CONFIG)
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "pipeline"]) == 0
    digests = {name: hashlib.sha256((wd / name).read_bytes()).hexdigest()
               for name in GOLDEN_ARCHETYPE_CLUSTER_DIGESTS}
    assert digests == GOLDEN_ARCHETYPE_CLUSTER_DIGESTS

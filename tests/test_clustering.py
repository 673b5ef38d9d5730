import hashlib
import itertools

import numpy as np
import pytest

from scenmine import cli, clustering, corpus, cvqvae


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
    records = corpus.build_archetype_corpus(n_per_class=4, seed=11)
    cfg = cvqvae.TrainConfig(hidden=(16, 16), latent_dim=6, codebook_size=4, epochs=5, seed=1)
    params, _ = cvqvae.train(records, cfg)
    return records, params


def test_assign_codebook_matches_brute_force(trained):
    records, params = trained
    assignment = clustering.assign_codebook(records, params)
    latents = clustering.encode_latents(records, params)
    for label, z in zip(assignment.labels, latents):
        oracle = int(np.argmin(np.sum((params.codebook - z) ** 2, axis=1)))
        assert label == oracle


def test_assign_codebook_identical_records_identical_labels(trained):
    records, params = trained
    double = [records[0], records[0], records[1]]
    assignment = clustering.assign_codebook(double, params)
    assert assignment.labels[0] == assignment.labels[1]


def test_assign_codebook_exact_code_returns_its_index(trained):
    _, params = trained
    for q in range(params.codebook_size):
        idx, _ = cvqvae.quantize(params.codebook[q], params.codebook)
        assert idx == q


# ------------------------------- k-means --------------------------------------

def test_kmeans_k_equals_n_singletons(rng):
    latents = rng.normal(size=(6, 3)) * 10
    assignment, centroids = clustering.kmeans(latents, k=6, seed=0)
    assert sorted(assignment.labels) == list(range(6))
    assert clustering.kmeans_inertia(latents, assignment.labels, centroids) == 0.0


def test_kmeans_separated_blobs(rng):
    blob_a = rng.normal(0.0, 0.5, size=(20, 2))
    blob_b = rng.normal(50.0, 0.5, size=(20, 2))
    latents = np.vstack([blob_a, blob_b])
    assignment, _ = clustering.kmeans(latents, k=2, seed=3)
    labels = assignment.labels
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:])) == 1
    assert labels[0] != labels[20]


def test_kmeans_terminates_at_fixed_point(rng):
    latents = rng.normal(size=(40, 4))
    assignment, centroids = clustering.kmeans(latents, k=5, seed=7)
    reassigned = clustering._nearest(latents, centroids)
    assert np.array_equal(reassigned, assignment.labels)


def test_kmeans_inertia_non_increasing_over_iterations(rng):
    latents = rng.normal(size=(60, 3))
    inertias = []
    for iters in range(1, 8):
        assignment, centroids = clustering.kmeans(latents, k=4, seed=2, max_iter=iters)
        inertias.append(clustering.kmeans_inertia(latents, assignment.labels, centroids))
    for prev, cur in zip(inertias, inertias[1:]):
        assert cur <= prev + 1e-9


def test_kmeans_too_few_latents(rng):
    with pytest.raises(ValueError):
        clustering.kmeans(rng.normal(size=(3, 2)), k=5, seed=0)


# ----------------------------- hierarchical -----------------------------------

def test_hierarchical_n_equals_k_singletons(rng):
    latents = rng.normal(size=(5, 2))
    assignment = clustering.hierarchical(latents, k=5)
    assert sorted(assignment.labels) == list(range(5))


def test_hierarchical_collinear_points_merge_closest():
    latents = np.array([[0.0], [1.0], [10.0]])
    assignment, merges = clustering.hierarchical_with_merges(latents, k=2)
    assert merges[0] == (0, 1)
    assert assignment.labels[0] == assignment.labels[1] != assignment.labels[2]


@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_matches_naive_oracle(linkage, rng):
    for trial in range(5):
        n = int(rng.integers(8, 20))
        k = int(rng.integers(2, 5))
        latents = rng.normal(size=(n, 3))
        _, merges = clustering.hierarchical_with_merges(latents, k, linkage=linkage)
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


@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_tie_heavy_matches_naive_oracle(linkage, rng):
    for trial in range(4):
        n = int(rng.integers(8, 16))
        latents = np.round(rng.normal(size=(n, 2)) * 1.5)
        latents[rng.integers(n, size=n // 3)] = latents[0]  # duplicated points
        for k in range(1, 5):
            _, merges = clustering.hierarchical_with_merges(latents, k, linkage=linkage)
            expected, _ = naive_ward_oracle(latents, k, linkage=linkage)
            assert merges == expected


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("linkage", ["ward", "average", "complete"])
def test_hierarchical_overflowed_costs_merge_lowest_pair(linkage):
    latents = np.array([[0.0], [1e200], [-1e200], [3e200]])
    _, merges = clustering.hierarchical_with_merges(latents, 1, linkage=linkage)
    expected, _ = naive_ward_oracle(latents, 1, linkage=linkage)
    assert merges == expected


def test_hierarchical_600_latents_ward(rng):
    latents = rng.normal(size=(600, 32))
    base, merges = clustering.hierarchical_with_merges(latents, 16)
    assert len(merges) == 584
    assert sorted(set(base.labels.tolist())) == list(range(16))
    perm = rng.permutation(600)
    restored = np.empty(600, dtype=np.int64)
    restored[perm] = clustering.hierarchical(latents[perm], 16).labels
    assert np.array_equal(co_membership(base.labels), co_membership(restored))


@pytest.mark.parametrize("backend", ["kmeans", "hierarchical"])
def test_non_finite_latents_or_bad_k_rejected(backend, rng):
    run = clustering.kmeans if backend == "kmeans" else clustering.hierarchical
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
    base = clustering.hierarchical(latents, k=4).labels
    shuffled = clustering.hierarchical(latents[perm], k=4).labels
    restored = np.empty(25, dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(co_membership(base), co_membership(restored))


def test_codebook_partition_permutation_invariant(trained):
    records, params = trained
    rng = np.random.default_rng(1)
    perm = rng.permutation(len(records))
    base = clustering.assign_codebook(records, params).labels
    shuffled = clustering.assign_codebook([records[i] for i in perm], params).labels
    restored = np.empty(len(records), dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(base, restored)


def test_kmeans_partition_stable_on_separated_data(rng):
    blob_a = rng.normal(0.0, 0.3, size=(15, 2))
    blob_b = rng.normal(40.0, 0.3, size=(15, 2))
    latents = np.vstack([blob_a, blob_b])
    perm = rng.permutation(30)
    base = clustering.kmeans(latents, k=2, seed=5)[0].labels
    shuffled = clustering.kmeans(latents[perm], k=2, seed=5)[0].labels
    restored = np.empty(30, dtype=int)
    restored[perm] = shuffled
    assert np.array_equal(co_membership(base), co_membership(restored))


# ------------------------------- inference ------------------------------------

def test_assign_to_centroids(rng):
    centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
    points = np.array([[1.0, 1.0], [9.0, 9.0]])
    assert list(clustering.assign_to_centroids(points, centroids)) == [0, 1]


def test_assign_to_nearest_member(rng):
    train = np.array([[0.0], [1.0], [10.0]])
    labels = np.array([0, 0, 1])
    out = clustering.assign_to_nearest_member(np.array([[0.4], [9.0]]), train, labels)
    assert list(out) == [0, 1]


def test_assignment_label_bounds():
    with pytest.raises(ValueError):
        clustering.ClusterAssignment(backend="kmeans", labels=np.array([0, 5]), k=3)
    with pytest.raises(ValueError):
        clustering.ClusterAssignment(backend="nope", labels=np.array([0]), k=1)


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

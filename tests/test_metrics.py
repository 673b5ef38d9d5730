import itertools
import json
import math

import numpy as np
import pytest

from scenmine import metrics
from scenmine.detect import DetectionMatch


# ------------------------------ entropy --------------------------------------

def test_entropy_pure_clusters_zero():
    per_cluster, h_avg = metrics.cluster_entropy(
        np.array([0, 0, 1, 1, 2]), [3, 3, 7, 7, 1]
    )
    assert all(h == 0.0 for h in per_cluster.values())
    assert h_avg == 0.0


def test_entropy_uniform_ten_classes_is_log2_10():
    per_cluster, h_avg = metrics.cluster_entropy(
        np.array([0] * 10), list(range(10))
    )
    assert abs(per_cluster[0] - math.log2(10)) < 1e-9
    assert abs(h_avg - math.log2(10)) < 1e-9


def test_entropy_half_half_is_one_bit():
    _, h_avg = metrics.cluster_entropy(np.array([0, 0, 0, 0]), [1, 1, 2, 2])
    assert abs(h_avg - 1.0) < 1e-12


def test_entropy_unweighted_mean_over_nonempty():
    # Cluster 0 pure (H=0), cluster 1 half-half (H=1); sizes differ.
    _, h_avg = metrics.cluster_entropy(
        np.array([0, 0, 0, 0, 0, 0, 1, 1]), [4, 4, 4, 4, 4, 4, 0, 1]
    )
    assert abs(h_avg - 0.5) < 1e-12


def test_entropy_empty_assignment_is_error():
    with pytest.raises(ValueError):
        metrics.cluster_entropy(np.array([]), [])


def test_entropy_length_mismatch_is_error():
    with pytest.raises(ValueError):
        metrics.cluster_entropy(np.array([0, 1]), [0])


def test_entropy_bounds_random_partitions(rng):
    for _ in range(30):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 5, size=n)
        classes = rng.integers(0, 10, size=n)
        per_cluster, h_avg = metrics.cluster_entropy(np.array(labels), list(classes))
        for h in per_cluster.values():
            assert -1e-12 <= h <= math.log2(10) + 1e-12
        assert -1e-12 <= h_avg <= math.log2(10) + 1e-12


def test_entropy_merge_concavity(rng):
    """Merging two clusters never yields entropy below the minimum of the
    two (checked brute-force on random partitions)."""
    for _ in range(20):
        a = list(rng.integers(0, 4, size=int(rng.integers(2, 15))))
        b = list(rng.integers(0, 4, size=int(rng.integers(2, 15))))
        h_a = metrics.cluster_entropy(np.array([0] * len(a)), a)[1]
        h_b = metrics.cluster_entropy(np.array([0] * len(b)), b)[1]
        h_ab = metrics.cluster_entropy(np.array([0] * (len(a) + len(b))), a + b)[1]
        assert h_ab >= min(h_a, h_b) - 1e-12


# ------------------------- augmentation accuracy -----------------------------

def test_accuracy_all_matched():
    labels = {"p1": 0, "c1": 0, "p2": 3, "c2": 3}
    assert metrics.augmentation_accuracy(labels, [("p1", "c1"), ("p2", "c2")]) == 1.0


def test_accuracy_none_matched():
    labels = {"p1": 0, "c1": 1, "p2": 3, "c2": 4}
    assert metrics.augmentation_accuracy(labels, [("p1", "c1"), ("p2", "c2")]) == 0.0


def test_accuracy_two_of_eight():
    labels = {}
    pairs = []
    for i in range(8):
        labels[f"p{i}"] = 1
        labels[f"c{i}"] = 1 if i < 2 else 2
        pairs.append((f"p{i}", f"c{i}"))
    assert metrics.augmentation_accuracy(labels, pairs) == 0.25


def test_accuracy_missing_record_is_error():
    with pytest.raises(ValueError):
        metrics.augmentation_accuracy({"p1": 0}, [("p1", "c1")])


def test_accuracy_invariant_under_relabeling(rng):
    labels = {f"p{i}": int(rng.integers(0, 4)) for i in range(10)}
    labels.update({f"c{i}": int(rng.integers(0, 4)) for i in range(10)})
    pairs = [(f"p{i}", f"c{i}") for i in range(10)]
    base = metrics.augmentation_accuracy(labels, pairs)
    for perm in itertools.permutations(range(4)):
        remapped = {k: perm[v] for k, v in labels.items()}
        assert metrics.augmentation_accuracy(remapped, pairs) == base


# -------------------------------- report -------------------------------------

def test_report_round_trips_table_values():
    report = metrics.build_report([("rule", DetectionMatch(109, 38, 10))])
    row = report["detection"][0]
    assert row["tp"] == 109 and row["fp"] == 38 and row["fn"] == 10
    assert abs(row["precision"] - 0.741) < 0.001
    assert abs(row["recall"] - 0.916) < 0.001


def test_report_detection_only_when_no_clustering():
    report = metrics.build_report([("rule", DetectionMatch(1, 0, 0))], {})
    assert "detection" in report
    assert "clustering" not in report or not report.get("clustering")


def clustering_metrics(**backends):
    """The ``{"no_dk": ..., "dk": ...}`` clustering files of ``backend=(no-DK
    purity, no-DK accuracy, DK purity, DK accuracy)``."""
    return {tag: {backend: {"purity_entropy": values[i], "augmentation_accuracy": values[i + 1]}
                  for backend, values in backends.items()}
            for tag, i in (("no_dk", 0), ("dk", 2))}


def test_report_orders_no_dk_before_dk():
    report = metrics.build_report([], clustering_metrics(codebook=(1.5, 0.4, 0.5, 0.9), kmeans=(1.2, 0.5, 0.8, 0.7)))
    text = metrics.render_text(report)
    header = next(line for line in text.splitlines() if "noDK" in line)
    assert header.index("noDK") < header.index("DK")


def test_report_marks_best_per_column():
    report = metrics.build_report([], clustering_metrics(codebook=(1.5, 0.4, 0.5, 0.9), kmeans=(1.2, 0.5, 0.8, 0.7)))
    by_backend = {r["backend"]: r["best"] for r in report["clustering"]}
    # Purity: lower is better; accuracy: higher is better.
    assert by_backend["codebook"] == ["dk_accuracy", "dk_purity"]
    assert by_backend["kmeans"] == ["no_dk_accuracy", "no_dk_purity"]


def test_write_report_json_and_text(tmp_path):
    report = metrics.build_report([("rule", DetectionMatch(10, 2, 1))])
    json_path = tmp_path / "report.json"
    text_path = tmp_path / "report.txt"
    metrics.write_report(report, json_path, text_path)
    loaded = json.loads(json_path.read_text())
    assert loaded == report
    assert "Prec" in text_path.read_text()

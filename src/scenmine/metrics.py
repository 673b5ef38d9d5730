"""Cluster purity entropy, augmentation-consistency accuracy, and report
rendering in the detection / clustering table layouts.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .clustering import ClusterAssignment
from .detect import DetectionMatch
from .types import N_CLASSES, write_json


def cluster_entropy(
    assignment: ClusterAssignment, class_indices: Sequence[int]
) -> tuple[dict[int, float], float]:
    """Shannon entropy (bits) of the empirical pseudo-class composition of
    each non-empty cluster, and their unweighted mean."""
    labels = assignment.labels
    if labels.size == 0:
        raise ValueError("assignment must be non-empty")
    if labels.size != len(class_indices):
        raise ValueError("assignment and labels must cover the same records")
    class_arr = np.asarray(class_indices)
    per_cluster: dict[int, float] = {}
    for q in np.unique(labels):
        counts = np.bincount(class_arr[labels == q], minlength=N_CLASSES).astype(float)
        p = counts / counts.sum()
        nz = p[p > 0]
        per_cluster[int(q)] = float(-(nz * np.log2(nz)).sum())
    h_avg = float(np.mean(list(per_cluster.values())))
    return per_cluster, h_avg


def augmentation_accuracy(
    assignment_labels: dict[str, int], pairs: Sequence[tuple[str, str]]
) -> float:
    """Fraction of (parent, augmented-child) pairs assigned the same cluster."""
    if not pairs:
        raise ValueError("at least one augmented pair is required")
    matched = 0
    for parent_id, child_id in pairs:
        if parent_id not in assignment_labels or child_id not in assignment_labels:
            raise ValueError(f"pair ({parent_id}, {child_id}) missing from assignment")
        matched += assignment_labels[parent_id] == assignment_labels[child_id]
    return matched / len(pairs)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusteringRow:
    backend: str
    no_dk_purity: float
    no_dk_accuracy: float
    dk_purity: float
    dk_accuracy: float


def build_report(
    detection: Sequence[tuple[str, DetectionMatch]],
    clustering: Sequence[ClusteringRow] = (),
) -> dict:
    """Machine-readable report with the detection table (Precision, Recall,
    TP, FP, FN; best per column marked) and the no-DK/DK clustering table."""
    report: dict = {}
    if detection:
        rows = [
            {
                "method": name,
                "precision": match.precision,
                "recall": match.recall,
                "tp": match.tp,
                "fp": match.fp,
                "fn": match.fn,
            }
            for name, match in detection
        ]
        best = {
            "precision": max(r["precision"] for r in rows),
            "recall": max(r["recall"] for r in rows),
        }
        for r in rows:
            r["best"] = sorted(k for k in ("precision", "recall") if r[k] == best[k])
        report["detection"] = rows
    if clustering:
        rows = [
            {
                "backend": row.backend,
                "no_dk": {"purity": row.no_dk_purity, "accuracy": row.no_dk_accuracy},
                "dk": {"purity": row.dk_purity, "accuracy": row.dk_accuracy},
            }
            for row in clustering
        ]
        best_marks = {
            ("no_dk", "purity"): min(r["no_dk"]["purity"] for r in rows),
            ("no_dk", "accuracy"): max(r["no_dk"]["accuracy"] for r in rows),
            ("dk", "purity"): min(r["dk"]["purity"] for r in rows),
            ("dk", "accuracy"): max(r["dk"]["accuracy"] for r in rows),
        }
        for r in rows:
            r["best"] = sorted(
                f"{col}_{metric}"
                for (col, metric), val in best_marks.items()
                if r[col][metric] == val
            )
        report["clustering"] = rows
    return report


def _fmt(value: float, best: bool) -> str:
    text = f"{value:.3f}"
    return f"*{text}*" if best else f" {text} "

def render_text(report: dict) -> str:
    lines: list[str] = []
    if "detection" in report:
        lines.append("Behavior-change detection (best values marked *)")
        lines.append(f"{'Method':<14} {'Prec.':>8} {'Recall':>8} {'TP':>5} {'FP':>5} {'FN':>5}")
        for r in report["detection"]:
            lines.append(
                f"{r['method']:<14} "
                f"{_fmt(r['precision'], 'precision' in r['best']):>8} "
                f"{_fmt(r['recall'], 'recall' in r['best']):>8} "
                f"{r['tp']:>5} {r['fp']:>5} {r['fn']:>5}"
            )
        lines.append("")
    if "clustering" in report:
        lines.append("Clustering: purity (v, lower better) and augmentation accuracy (^)")
        lines.append(
            f"{'Backend':<14} {'noDK pur.v':>11} {'noDK acc.^':>11} {'DK pur.v':>11} {'DK acc.^':>11}"
        )
        for r in report["clustering"]:
            lines.append(
                f"{r['backend']:<14} "
                f"{_fmt(r['no_dk']['purity'], 'no_dk_purity' in r['best']):>11} "
                f"{_fmt(r['no_dk']['accuracy'], 'no_dk_accuracy' in r['best']):>11} "
                f"{_fmt(r['dk']['purity'], 'dk_purity' in r['best']):>11} "
                f"{_fmt(r['dk']['accuracy'], 'dk_accuracy' in r['best']):>11}"
            )
        lines.append("")
    return "\n".join(lines)


def write_report(report: dict, json_path, text_path) -> None:
    write_json(report, json_path)
    Path(text_path).write_text(render_text(report), encoding="utf-8")

"""The three benchmark workloads: config overrides, the stage calls made
through ``scenmine.cli.main`` in pipeline order, and the external recording
that ``recording_ingest`` ingests.

Each stage call belongs to one group; a group's wall time is one end-to-end
metric (``dataset_s``, ``train_s``, ``cluster_s``). The ``dataset`` group is
every stage before training; its finer per-stage times (``synth_s``,
``ingest_s``, ``detect_s``, ``extract_s``, ``augment_s``) are reported
alongside.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The stages after the data layer, shared by every workload.
_MODEL_STAGES = (
    ("dataset", "augment", ["augment"]),
    ("train", "train", ["train", "--lambda-cl", "0.0", "--lambda-int", "0.0", "--tag", "no_dk"]),
    ("train", "train", ["train", "--tag", "dk"]),
    ("cluster", "cluster", ["cluster", "--tag", "no_dk"]),
    ("cluster", "evaluate", ["evaluate", "--tag", "no_dk"]),
    ("cluster", "cluster", ["cluster", "--tag", "dk"]),
    ("cluster", "evaluate", ["evaluate", "--tag", "dk"]),
    ("cluster", "report", ["report"]),
)

_DETECT_EXTRACT = (
    ("dataset", "detect", ["detect", "--method", "rule"]),
    ("dataset", "detect", ["detect", "--method", "ema"]),
    ("dataset", "extract", ["extract"]),
)

@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    stages: tuple  # (group, stage, argv) triples

    @property
    def recording(self) -> bool:
        """True when the workload ingests an external recording made in set-up."""
        return any(stage == "ingest" for _, stage, _ in self.stages)

    def artifacts(self, argv: list[str]) -> list[str]:
        """Files a stage call must leave in the workdir."""
        opt = dict(zip(argv[1::2], argv[2::2]))
        tag = opt.get("--tag", "model")
        method = opt.get("--method", "rule")
        if argv[0] == "synth":
            if self.config.get("synth", {}).get("kind") == "archetypes":
                return ["dataset.jsonl"]
            return ["tracks.csv", "meta.json", "truth.csv"]
        return {
            "ingest": ["tracks.csv", "meta.json"],
            "detect": [f"detection_{method}.json"]
            + (["changepoints.csv"] if method == "rule" else []),
            "extract": ["dataset.jsonl", "extract_summary.json"],
            "augment": ["dataset_augmented.jsonl", "pairs.csv"],
            "train": [f"{tag}.ckpt", f"{tag}_loss.csv"],
            "cluster": [f"assignments_{tag}.csv"],
            "evaluate": [f"clustering_{tag}.json"],
            "report": ["report.json", "report.txt"],
        }[argv[0]]


WORKLOADS = {
    w.name: w
    for w in (
        # What `scenmine pipeline` does for a user; the only hierarchical run.
        Workload(
            name="default_pipeline",
            config={},
            stages=(("dataset", "synth", ["synth"]),) + _DETECT_EXTRACT + _MODEL_STAGES,
        ),
        # Training, DGSFM and JSONL I/O dominate; the control for ingest,
        # detect, extract and hierarchical, which it never runs.
        Workload(
            name="archetype_corpus",
            config={
                "synth": {"kind": "archetypes", "n_per_class": 30},
                "augment": {"n_augment": 50},
                "train": {"epochs": 20},
                "cluster": {"backends": ["codebook", "kmeans"]},
            },
            stages=(("dataset", "synth", ["synth"]),) + _MODEL_STAGES,
        ),
        # CSV parsing, direction flips, detect and extract dominate.
        Workload(
            name="recording_ingest",
            config={
                "train": {"epochs": 10},
                "cluster": {"backends": ["codebook", "kmeans"]},
            },
            stages=(("dataset", "ingest", ["ingest", "--tracks", "{rec}/tracks.csv",
                                            "--meta", "{rec}/meta.json"]),)
            + _DETECT_EXTRACT + _MODEL_STAGES,
        ),
    )
}


def write_config(workload: Workload, path: Path) -> None:
    """Writes the workload's config overrides; JSON is valid YAML."""
    path.write_text(json.dumps(workload.config, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# External recording for recording_ingest
# ---------------------------------------------------------------------------

RECORDING_VEHICLES = 60
# highD layout: lanes 1-3 carry -x traffic, lanes 4-6 carry +x traffic.
LANE_DIRECTIONS = {1: -1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1}


def _recording_scripts(n: int, seed: int):
    from scenmine import ingest

    rng = np.random.default_rng(seed)
    scripts = []
    for i in range(n):
        kind = ("lane_change", "accelerate", "decelerate", "extreme_brake")[i % 4]
        start = int(rng.integers(200, 400))
        if kind == "lane_change":
            maneuvers = (
                ingest.Maneuver("cruise", 0, start),
                ingest.Maneuver("lane_change", start, 100,
                                lane_direction=1 if i % 8 < 4 else -1),
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
            ingest.SyntheticScript(
                maneuvers=maneuvers,
                noise_sigma_accel=0.05,
                initial_x=40.0 * i,
                initial_y=3.75 * (i % 6),
                initial_lane=1 + (i % 6),
                vehicle_id=i + 1,
            )
        )
    return scripts


def make_recording(seed: int, out: Path) -> None:
    """Writes tracks.csv, meta.json and truth.csv of one highD-layout
    recording. Vehicles are generated driving +x; those on lanes 1-3 are
    then flipped to -x with ``normalize_direction``, which is its own
    inverse, so ``scenmine ingest`` must flip them back."""
    from scenmine import detect, ingest

    recording_id = f"highd-{seed}"
    meta = ingest.RecordingMeta(
        recording_id=recording_id,
        frame_rate=25.0,
        lanes_per_direction=3,
        lane_directions=dict(LANE_DIRECTIONS),
    )
    trajs, truths = ingest.generate_synthetic(
        _recording_scripts(RECORDING_VEHICLES, seed), meta.dt, seed, recording_id=recording_id
    )
    raw = [ingest.normalize_direction(t, meta) for t in trajs]
    out.mkdir(parents=True, exist_ok=True)
    ingest.write_tracks_csv(raw, out / "tracks.csv")
    ingest.write_meta_json(meta, out / "meta.json")
    detect.write_annotations(
        [(recording_id, t.vehicle_id, cp.t_c, cp.label_after)
         for t, cps in zip(trajs, truths) for cp in cps],
        out / "truth.csv",
    )

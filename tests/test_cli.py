import hashlib
import json
import math
import shutil
import struct

import pytest

from conftest import make_traj
from scenmine import cli, detect, ingest
from scenmine.types import CompositeLabel, LatState, LongState

SMALL_CONFIG = """\
seed: 13
synth:
  n_trajectories: 8
augment:
  n_augment: 4
train:
  epochs: 4
  hidden: [24, 24]
  latent_dim: 8
  codebook_size: 6
"""


def write_config(tmp_path, extra=""):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_CONFIG + extra)
    return path


def test_unknown_config_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("bogus_section: 1\n")
    code = cli.main(["--config", str(path), "--workdir", str(tmp_path / "wd"), "synth"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_artifact_exit_code(tmp_path, capsys):
    code = cli.main(["--workdir", str(tmp_path / "empty"), "extract"])
    assert code == 3
    assert "missing input artifact" in capsys.readouterr().err


def test_detect_writes_detection_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    args = ["--config", str(cfg), "--workdir", str(wd)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["detect"]) == 0
    report = json.loads((wd / "detection_rule.json").read_text())
    assert set(report) >= {"tp", "fp", "fn", "precision", "recall"}
    assert report["precision"] > 0.5


def test_class_filter_can_empty_extraction(tmp_path, capsys):
    # Corpus with only longitudinal maneuvers, filtered to KL -> LC changes.
    cfg = tmp_path / "config.yaml"
    cfg.write_text(
        SMALL_CONFIG
        + "extract:\n  class_filter: [[keep_lane, lane_change]]\n"
    )
    wd = tmp_path / "wd"
    args = ["--config", str(cfg), "--workdir", str(wd)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["detect"]) == 0
    assert cli.main(args + ["extract"]) == 0
    out = capsys.readouterr().out
    summary = json.loads((wd / "extract_summary.json").read_text())
    if summary["extracted"] == 0:
        assert "zero records" in out


def test_pipeline_composition_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    wd1, wd2 = tmp_path / "one", tmp_path / "two"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd1), "pipeline"]) == 0
    assert cli.main(["--config", str(cfg), "--workdir", str(wd2), "pipeline"]) == 0
    for name in (
        "dataset.jsonl",
        "dataset_augmented.jsonl",
        "dk.ckpt",
        "no_dk.ckpt",
        "assignments_dk.csv",
        "report.json",
        "report.txt",
    ):
        assert (wd1 / name).read_bytes() == (wd2 / name).read_bytes(), name


def test_pipeline_equals_stage_composition(tmp_path):
    cfg = write_config(tmp_path)
    wd1, wd2 = tmp_path / "pipe", tmp_path / "stages"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd1), "pipeline"]) == 0
    args = ["--config", str(cfg), "--workdir", str(wd2)]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["detect", "--method", "rule"]) == 0
    assert cli.main(args + ["detect", "--method", "ema"]) == 0
    assert cli.main(args + ["extract"]) == 0
    assert cli.main(args + ["augment"]) == 0
    assert cli.main(args + ["train", "--lambda-cl", "0", "--lambda-int", "0", "--tag", "no_dk"]) == 0
    assert cli.main(args + ["train", "--tag", "dk"]) == 0
    for tag in ("no_dk", "dk"):
        assert cli.main(args + ["cluster", "--tag", tag]) == 0
        assert cli.main(args + ["evaluate", "--tag", tag]) == 0
    assert cli.main(args + ["report"]) == 0
    for name in ("dataset.jsonl", "dk.ckpt", "report.json"):
        assert (wd1 / name).read_bytes() == (wd2 / name).read_bytes(), name


def test_report_has_no_dk_and_dk_sections(tmp_path):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "pipeline"]) == 0
    report = json.loads((wd / "report.json").read_text())
    assert {"no_dk", "dk"} <= set(report["clustering"][0])
    backends = {r["backend"] for r in report["clustering"]}
    assert backends == {"codebook", "kmeans", "hierarchical"}


def test_gradcheck_subcommand(tmp_path):
    assert cli.main(["--workdir", str(tmp_path / "wd"), "gradcheck"]) == 0


def test_ingest_subcommand_round_trip(tmp_path):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    args = ["--config", str(cfg), "--workdir", str(wd)]
    assert cli.main(args + ["synth"]) == 0
    wd2 = tmp_path / "wd2"
    assert (
        cli.main(
            ["--config", str(cfg), "--workdir", str(wd2), "ingest",
             "--tracks", str(wd / "tracks.csv"), "--meta", str(wd / "meta.json")]
        )
        == 0
    )
    assert (wd2 / "tracks.csv").read_bytes() == (wd / "tracks.csv").read_bytes()


def test_short_recording_detects_nothing_and_train_refuses_empty_dataset(tmp_path, capsys):
    # One vehicle, 10 frames: shorter than every EMA window (30, 60, 90).
    meta = ingest.RecordingMeta(
        recording_id="short",
        frame_rate=25.0,
        lanes_per_direction=3,
        lane_directions={lane: 1 for lane in range(1, 7)},
    )
    rec = tmp_path / "recording"
    rec.mkdir()
    ingest.write_tracks_csv([make_traj(n=10, vehicle_id=7, recording_id="short")], rec / "tracks.csv")
    ingest.write_meta_json(meta, rec / "meta.json")
    wd = tmp_path / "wd"
    args = ["--workdir", str(wd)]
    assert cli.main(args + ["ingest", "--tracks", str(rec / "tracks.csv"),
                            "--meta", str(rec / "meta.json")]) == 0
    detect.write_annotations(
        [("short", 7, 5, CompositeLabel(LongState.ACCELERATE, LatState.KEEP_LANE))], wd / "truth.csv"
    )
    capsys.readouterr()
    assert cli.main(args + ["detect", "--method", "ema"]) == 0
    out = capsys.readouterr().out
    assert "[detect] method=ema events=0 skipped_short=1" in out
    report = json.loads((wd / "detection_ema.json").read_text())
    assert (report["tp"], report["fp"], report["fn"]) == (0, 0, 1)

    for command in (["detect"], ["extract"], ["augment"]):
        assert cli.main(args + command) == 0
    assert "records=0" in capsys.readouterr().out
    assert cli.main(args + ["train"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("stage error:") and captured.err.count("\n") == 1
    assert "dataset.jsonl holds 0 records" in captured.err
    assert not (wd / "model.ckpt").exists()


# --------------------------- bad input table ---------------------------------

ARCHETYPE_CONFIG = """\
synth:
  kind: archetypes
  n_per_class: 2
train:
  epochs: 1
  hidden: [8]
  latent_dim: 4
  codebook_size: 4
"""


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory):
    """A workdir holding tracks.csv, meta.json and changepoints.csv of a small
    trajectory corpus, plus an archetype dataset.jsonl and a valid model.ckpt."""
    root = tmp_path_factory.mktemp("trained")
    wd = root / "wd"
    tracks_cfg = root / "tracks.yaml"
    tracks_cfg.write_text("synth:\n  n_trajectories: 4\n")
    for command in (["synth"], ["detect"]):
        assert cli.main(["--config", str(tracks_cfg), "--workdir", str(wd)] + command) == 0
    cfg = root / "config.yaml"
    cfg.write_text(ARCHETYPE_CONFIG)
    for command in (["synth"], ["train"], ["cluster"]):
        assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == 0
    return wd


def _header_end(blob: bytes) -> int:
    return blob.index(b"\n") + 1


def _set_field(line: int, column: int, value: bytes):
    """Rewrite that replaces one comma-separated field of one line."""
    def rewrite(blob: bytes) -> bytes:
        lines = blob.split(b"\n")
        fields = lines[line].split(b",")
        fields[column] = value
        lines[line] = b",".join(fields)
        return b"\n".join(lines)
    return rewrite


INGEST = ["ingest", "--tracks", "tracks.csv", "--meta", "meta.json"]
CKPT = "model.ckpt"
DATASET = "dataset.jsonl"

# (config text, command, (artifact, rewrite) or None, exit code, stderr prefix).
# Each row runs in a copy of the trained workdir (also the working directory)
# after rewriting the named artifact in place.
BAD_INPUTS = [
    pytest.param("train:\n  epochs: 0\n", ["train"], None, 2, "config error", id="epochs-zero"),
    pytest.param("train:\n  batch_size: 0\n", ["train"], None, 2, "config error", id="batch-size-zero"),
    pytest.param("train:\n  hidden: 8\n", ["train"], None, 2, "config error", id="hidden-not-list"),
    pytest.param("train:\n  learning_rate: fast\n", ["train"], None, 2, "config error", id="rate-not-number"),
    pytest.param("train:\n  codebook_size: 0\n", ["train"], None, 2, "config error", id="codebook-size-zero"),
    pytest.param("train:\n  latent_dim: 0\n", ["train"], None, 2, "config error", id="latent-dim-zero"),
    pytest.param("cluster:\n  linkage: single\n", ["cluster"], None, 2, "config error", id="linkage-unknown"),
    pytest.param("cluster:\n  max_iter: 0\n", ["cluster"], None, 2, "config error", id="max-iter-zero"),
    pytest.param("cluster:\n  linkage: single\n", ["pipeline"], None, 2, "config error",
                 id="pipeline-linkage-unknown"),
    pytest.param("cluster:\n  backends: [codebook, dbscan]\n", ["cluster"], None, 2, "config error",
                 id="backend-unknown"),
    pytest.param("cluster:\n  backends: []\n", ["cluster"], None, 2, "config error", id="backends-empty"),
    pytest.param("seed: abc\n", ["synth"], None, 2, "config error", id="seed-not-int"),
    pytest.param("seed: 1.5\n", ["synth"], None, 2, "config error", id="seed-float"),
    pytest.param("detect:\n  tau_extreme: 0.1\n", ["detect"], None, 2, "config error", id="tau-extreme-low"),
    pytest.param("detect:\n  ema_alpha: abc\n", ["detect", "--method", "ema"], None, 2, "config error",
                 id="ema-alpha-not-number"),
    pytest.param("detect:\n  ema_window_sizes: []\n", ["detect", "--method", "ema"], None, 2, "config error",
                 id="ema-windows-empty"),
    pytest.param("detect:\n  ema_window_sizes: [0, 30]\n", ["detect", "--method", "ema"], None, 2,
                 "config error", id="ema-window-zero"),
    pytest.param("dgsfm:\n  tau_sum: 1.5\n", ["extract"], None, 2, "config error", id="tau-sum-high"),
    pytest.param("extract:\n  tensor_offset: 60\n", ["extract"], None, 2, "config error",
                 id="tensor-offset-outside"),
    pytest.param("extract:\n  class_filter: [[keep_lane, swerve]]\n", ["extract"], None, 2,
                 "config error", id="class-filter-unknown-state"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(1, 2, b"nan")), 4, "input error", id="tracks-nan"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(5, 6, b"-inf")), 4, "input error", id="tracks-inf"),
    pytest.param("", ["train"], (DATASET, lambda b: b[:-100]), 3, "stage error", id="dataset-truncated"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b"v1", b"v0", 1)), 3, "stage error",
                 id="dataset-format"),
    pytest.param("", ["train"], (DATASET, lambda b: b[:_header_end(b)] + b"\xff" + b[_header_end(b):]), 3,
                 "stage error", id="dataset-undecodable"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b'"pseudo_class":', b'"class":', 1)), 3,
                 "stage error", id="dataset-missing-key"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b'"interaction":[', b'"interaction":[0.0,', 1)),
                 3, "stage error", id="dataset-array-length"),
    pytest.param("", ["train"], (DATASET, lambda b: b[:_header_end(b)]), 3, "stage error",
                 id="dataset-empty"),
    pytest.param("", ["cluster"], (DATASET, lambda b: b"".join(b.splitlines(keepends=True)[:4])), 3,
                 "stage error", id="cluster-too-few-records"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b[:-8]), 3, "stage error", id="ckpt-truncated"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b[:_header_end(b)]), 3, "stage error", id="ckpt-header-only"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b + b"\0"), 3, "stage error", id="ckpt-trailing-byte"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b"\xff\xfe\n" + b), 3, "stage error", id="ckpt-garbage-header"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b"[]\n" + b), 3, "stage error", id="ckpt-header-not-mapping"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b.replace(b"v1", b"v0", 1)), 3, "stage error", id="ckpt-format"),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b.replace(b'"latent_dim":4', b'"latent_dim":5', 1)), 3,
        "stage error", id="ckpt-layout-mismatch",
    ),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b.replace(b'"codebook_size":4', b'"codebook_size":0', 1)), 3,
        "stage error", id="ckpt-codebook-zero",
    ),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b[:_header_end(b)] + struct.pack("<d", math.nan) + b[_header_end(b) + 8:]),
        3, "stage error", id="ckpt-nan-weight",
    ),
]


@pytest.mark.parametrize("config_text, command, rewrite, code, prefix", BAD_INPUTS)
def test_bad_input_exit_code(
    trained_workdir, tmp_path, capsys, monkeypatch, config_text, command, rewrite, code, prefix
):
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    if rewrite is not None:
        name, change = rewrite
        (wd / name).write_bytes(change((wd / name).read_bytes()))
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config_text)
    monkeypatch.chdir(wd)
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == code
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(prefix + ":")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err + captured.out


# --------------------------- golden data path --------------------------------

# SHA-256 of the data-path artifacts of a fixed-seed run, recorded before the
# trajectory model became columnar. Any drift in synthesis, CSV formatting,
# detection, extraction or augmentation changes them.
GOLDEN_DATA_DIGESTS = {
    "tracks.csv": "b728cef4b732e15b2a1605253c18cb1ed77d36b896706474947b3bb89dced136",
    "changepoints.csv": "6524c6fc417a433fb2712bfdf473e84ab7b9ea2d4551888838979ef5f63f4a09",
    "dataset.jsonl": "4a549cbf67a0906fd7f122fb6acdd64802fca001a132dfa6a7a64f79a01d9894",
    "dataset_augmented.jsonl": "7e23a1d22338fefacd10a1baa44967328b202d2ab506c0ea11713976498d4298",
}
GOLDEN_INGEST_DIGESTS = {
    "recording/tracks.csv": "d3c9b22fa2e9aca4449cc1edbe39b307a23674c8cb754e5ef976d438c49eea83",
    "ingested/tracks.csv": "09c59ffce3ba54dcbeb4862bc1ef7c2819d0787765dd1c2c11364d7c09d2558d",
}


def _digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def test_data_path_bytes_match_golden_digests(tmp_path):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    args = ["--config", str(cfg), "--workdir", str(wd)]
    for command in (["synth"], ["detect"], ["extract"], ["augment"]):
        assert cli.main(args + command) == 0
    assert _digests(wd, GOLDEN_DATA_DIGESTS) == GOLDEN_DATA_DIGESTS


def test_ingest_of_reversed_lanes_matches_golden_digests(tmp_path):
    # Lanes 1-3 drive in -x: generated +x, flipped by normalize_direction,
    # and flipped back by `scenmine ingest`.
    meta = ingest.RecordingMeta(
        recording_id="rev",
        frame_rate=25.0,
        lanes_per_direction=3,
        lane_directions={lane: (-1 if lane <= 3 else 1) for lane in range(1, 7)},
    )
    scripts = [
        ingest.SyntheticScript(
            maneuvers=(
                ingest.Maneuver("cruise", 0, 120),
                ingest.Maneuver("lane_change", 120, 100, lane_direction=1 - 2 * (i % 2)),
                ingest.Maneuver("decelerate", 220, 80, accel=0.5),
            ),
            initial_x=40.0 * i,
            initial_y=3.75 * i,
            initial_lane=1 + i,
            vehicle_id=i + 1,
        )
        for i in range(6)
    ]
    trajs, _ = ingest.generate_synthetic(scripts, meta.dt, seed=4, recording_id="rev")
    rec = tmp_path / "recording"
    rec.mkdir()
    ingest.write_tracks_csv([ingest.normalize_direction(t, meta) for t in trajs], rec / "tracks.csv")
    ingest.write_meta_json(meta, rec / "meta.json")
    code = cli.main(["--workdir", str(tmp_path / "ingested"), "ingest",
                     "--tracks", str(rec / "tracks.csv"), "--meta", str(rec / "meta.json")])
    assert code == 0
    assert _digests(tmp_path, GOLDEN_INGEST_DIGESTS) == GOLDEN_INGEST_DIGESTS

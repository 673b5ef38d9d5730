import hashlib
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_same_trajectories,
    block_offset,
    edit_header,
    encode_dataset_v1,
    load_from_memo,
    make_traj,
    overwrite_value,
    parse_workdir,
    take,
)
from scenmine import cli, cvqvae, detect, ingest
from scenmine.types import (CompositeLabel, Dataset, LatState, LongState, read_dataset_arrays,
                            read_dataset_header, write_blocks, write_dataset)

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


# The stdout of `scenmine pipeline` at the built-in defaults: every stage's
# counts and 12-hex artifact hashes, final_loss and live_slots included.
# Recorded with BLAS on one thread: a threaded GEMM of the default model sums
# in another order, which moves the checkpoint bytes (and nothing else).
GOLDEN_PIPELINE_OUTPUT = """\
[synth] kind=trajectories n=40 events=50 seed=1 tracks=850fe9d240ea
[detect] method=rule events=50 changepoints=1a63e83f36e6
[evaluate-detection] method=rule precision=1.000 recall=1.000 report=f84aa7b3f8cb
[detect] method=ema events=92 skipped_short=0
[evaluate-detection] method=ema precision=0.435 recall=0.800 report=7d45fab565c4
[extract] records=50 skipped=0 filtered=0 dataset=abb2edcedd54
[augment] pairs=10 seed=2 dataset=c1468e212078
[train] tag=no_dk records=50 live_slots=5 epochs=60 seed=4 lambda_cl=0.0 lambda_int=0.0 final_loss=1.099153 checkpoint=849373d4425f
[train] tag=dk records=50 live_slots=5 epochs=60 seed=4 lambda_cl=1.0 lambda_int=1.0 final_loss=3.820140 checkpoint=0368f3a6c8db
[cluster] tag=no_dk rows=180 seed=5 assignments=4016855f4088
[evaluate-clustering] tag=no_dk backends=3 report=e4c5d78bc669
[cluster] tag=dk rows=180 seed=5 assignments=c22e830d1681
[evaluate-clustering] tag=dk backends=3 report=88982eb4e02c
[report] detection_rows=2 clustering_rows=3 report=5e9079c081ec
"""
# SHA-256 of the two outputs of that run that no printed hash covers (the
# loss CSVs are pinned in test_cvqvae.py, report.json by the [report] line).
GOLDEN_PIPELINE_DIGESTS = {
    "extract_summary.json": "82a444bc1eb39681e69134129f2e844ed0b307142c46d2971e3da4150a33fd74",
    "report.txt": "e78dfd9ec1d94cef7ec3548fdab6be429b2140ddbf9ff6289a607961cb721387",
}


def _default_pipeline(workdir: Path, threads: str) -> str:
    """The stdout of `scenmine pipeline` at the defaults into ``workdir``,
    run in a subprocess with BLAS on ``threads`` threads, once the run has
    written the files of ``GOLDEN_PIPELINE_DIGESTS`` as pinned."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
    run = subprocess.run([sys.executable, "-m", "scenmine.cli", "--workdir", str(workdir), "pipeline"],
                         env=env, capture_output=True, text=True)
    assert (run.returncode, run.stderr) == (0, "")
    assert {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in GOLDEN_PIPELINE_DIGESTS} == GOLDEN_PIPELINE_DIGESTS
    return run.stdout


def test_default_pipeline_prints_golden_lines(tmp_path):
    assert _default_pipeline(tmp_path / "wd", "1") == GOLDEN_PIPELINE_OUTPUT


def test_default_pipeline_at_two_blas_threads_moves_only_the_checkpoints(tmp_path):
    # Training's threaded GEMMs sum in another order; encode, the clustering
    # and every other stage print the golden lines.
    def unpinned(stdout):
        return re.sub(r"checkpoint=[0-9a-f]{12}", "checkpoint=?", stdout)

    stdout = _default_pipeline(tmp_path / "wd", "2")
    assert stdout.count("checkpoint=") == 2
    assert unpinned(stdout) == unpinned(GOLDEN_PIPELINE_OUTPUT)


def test_report_has_no_dk_and_dk_sections(tmp_path):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "pipeline"]) == 0
    report = json.loads((wd / "report.json").read_text())
    assert {"no_dk", "dk"} <= set(report["clustering"][0])
    backends = {r["backend"] for r in report["clustering"]}
    assert backends == {"codebook", "kmeans", "hierarchical"}


def test_gradcheck_subcommand(tmp_path, capsys):
    # The check runs in float64 on a float64 copy of the float32 weights.
    assert cli.main(["--workdir", str(tmp_path / "wd"), "gradcheck"]) == 0
    assert capsys.readouterr().out == "[gradcheck] max_rel_error=4.454e-06 seed=6\n"


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


@pytest.mark.parametrize("lanes", [2, 3, 4])
def test_ingest_keeps_only_a_recording_with_three_lanes_per_direction(tmp_path, capsys, lanes):
    meta = ingest.RecordingMeta("rec", 25.0, lanes, {lane: 1 for lane in range(1, 2 * lanes + 1)})
    trajs = [make_traj(n=10, vehicle_id=i, recording_id="rec") for i in (1, 2)]
    ingest.write_tracks_csv(trajs, tmp_path / "tracks.csv")
    ingest.write_meta_json(meta, tmp_path / "meta.json")
    assert cli.main(["--workdir", str(tmp_path / "wd"), "ingest", "--tracks", str(tmp_path / "tracks.csv"),
                     "--meta", str(tmp_path / "meta.json")]) == 0
    kept = int(lanes == 3)
    assert f"[ingest] recordings_kept={kept} trajectories={2 * kept} " in capsys.readouterr().out


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
    """A workdir holding tracks.csv, meta.json, changepoints.csv and
    detection_rule.json of a small trajectory corpus, plus an archetype
    dataset.jsonl, its augmentation and pairs.csv, and for each of the tags
    model, no_dk and dk a valid checkpoint, assignments and clustering
    metrics; then report.json."""
    root = tmp_path_factory.mktemp("trained")
    wd = root / "wd"
    tracks_cfg = root / "tracks.yaml"
    tracks_cfg.write_text("synth:\n  n_trajectories: 4\n")
    for command in (["synth"], ["detect"]):
        assert cli.main(["--config", str(tracks_cfg), "--workdir", str(wd)] + command) == 0
    cfg = root / "config.yaml"
    cfg.write_text(ARCHETYPE_CONFIG)
    tagged = [[stage, "--tag", tag] for tag in ("model", "no_dk", "dk")
              for stage in ("train", "cluster", "evaluate")]
    for command in (["synth"], ["augment"], *tagged, ["report"]):
        assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == 0
    return wd


def _header_end(blob: bytes) -> int:
    return blob.index(b"\n") + 1


def _keep_backends(*backends: str):
    """Rewrite of a clustering metrics file that keeps only ``backends``."""
    return lambda b: json.dumps({k: v for k, v in json.loads(b).items() if k in backends}).encode()


def _set_field(line: int, column: int, value: bytes):
    """Rewrite that replaces one comma-separated field of one line."""
    def rewrite(blob: bytes) -> bytes:
        lines = blob.split(b"\n")
        fields = lines[line].split(b",")
        fields[column] = value
        lines[line] = b",".join(fields)
        return b"\n".join(lines)
    return rewrite


def _through_records(write):
    """Rewrite of a dataset file through its records: ``write(dataset, dt,
    path)`` writes the new file."""
    def rewrite(blob: bytes) -> bytes:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / DATASET
            path.write_bytes(blob)
            write(*read_dataset_arrays(path), path)
            return path.read_bytes()
    return rewrite


def _other_layout_checkpoint() -> bytes:
    """A valid checkpoint of a model of 2 slots, 3 features and 5 frames."""
    params = cvqvae.init_params(cvqvae.TrainConfig(hidden=(8,), latent_dim=4, codebook_size=4),
                                np.random.default_rng(0), n_slots=2, n_features=3, t_obs=5)
    with tempfile.TemporaryDirectory() as tmp:
        cvqvae.save_checkpoint(params, Path(tmp) / CKPT)
        return (Path(tmp) / CKPT).read_bytes()


def _v2_checkpoint(blob: bytes) -> bytes:
    """The same model as a checkpoint of format v2, which stored every array
    as <f8."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / CKPT
        path.write_bytes(blob)
        params = cvqvae.load_checkpoint(path)
        header = json.loads(blob[:_header_end(blob)])
        del header["arrays"]
        write_blocks(path, {**header, "format": "scenmine-checkpoint-v2"},
                     cvqvae._checkpoint_arrays(cvqvae._cast(params, np.float64)), cvqvae.ContractError)
        return path.read_bytes()


def _checkpoint_describing(**layout):
    """Rewrite of a checkpoint whose header describes the model ``layout``
    sets (header keys such as ``n_slots`` or ``hidden``), with the array
    list of that model; the blocks stay as they are."""
    def change(h):
        h.update(layout)
        frames, d, classes = h["n_slots"] * h["t_obs"], h["latent_dim"], h["n_classes"]
        enc = [frames * h["n_features"], *h["hidden"], d]
        h["arrays"] = [
            *(entry for kind, sizes in (("enc", enc), ("dec", enc[::-1])) for entry in (
                *([f"{kind}_w[{i}]", [b, a]] for i, (a, b) in enumerate(zip(sizes, sizes[1:]))),
                *([f"{kind}_b[{i}]", [b]] for i, b in enumerate(sizes[1:])))),
            ["codebook", [h["codebook_size"], d]], ["cl_w", [classes, d]], ["cl_b", [classes]],
            ["int_w", [frames, d]], ["int_b", [frames]],
            ["feature_shift", [h["n_features"]]], ["feature_scale", [h["n_features"]]],
        ]
    return edit_header(change)


def _keep_records(n: int):
    """Rewrite to a valid dataset file of the first ``n`` records."""
    return _through_records(lambda dataset, dt, path: write_dataset(take(dataset, slice(n)), path, dt=dt))


INGEST = ["ingest", "--tracks", "tracks.csv", "--meta", "meta.json"]
CKPT = "model.ckpt"
MEMO = "tracks.bin"
DATASET = "dataset.jsonl"
AUGMENTED = "dataset_augmented.jsonl"
ASSIGNMENTS = "assignments_model.csv"
PAIRS = "pairs.csv"
DETECTION = "detection_rule.json"
CLUSTERING = "clustering_dk.json"

# Damage of dataset.jsonl that ``read_dataset_arrays`` accepts and
# ``validate_arrays`` flags in the first record.
INVALID_RECORD = {
    "ego-absent": overwrite_value("mask", b"\x00"),
    "ego-interaction-not-1": overwrite_value("interaction", struct.pack("<d", 0.5)),
}

# Damage of a checkpoint in the blocks after the encoder and codebook,
# which ``cluster`` does not use but still checks, and the end of its message.
CLUSTER_DAMAGED_CHECKPOINT = {
    "ckpt-nan-in-decoder": (overwrite_value("dec_w[1]", struct.pack("<f", math.nan), index=5),
                            "non-finite value in array dec_w[1]"),
    "ckpt-nan-in-int-head": (overwrite_value("int_w", struct.pack("<f", math.nan), index=7),
                             "non-finite value in array int_w"),
    "ckpt-truncated-in-int-head": (lambda b: b[:block_offset(b, "int_b") + 6], "truncated in array int_b"),
    # half a value into feature_scale: every block before it was read in full
    "ckpt-truncated-in-last-block": (lambda b: b[:block_offset(b, "feature_scale") + 4],
                                     "truncated in array feature_scale"),
}

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
    # A model beyond any address space: numpy refuses it before allocating.
    pytest.param("train:\n  latent_dim: 1000000000000\n", ["train"], None, 5, "run error",
                 id="latent-dim-beyond-memory"),
    pytest.param("train:\n  learning_rate: -0.001\n", ["train"], None, 2, "config error", id="rate-negative"),
    pytest.param("train:\n  commitment_weight: -1\n", ["train"], None, 2, "config error",
                 id="commitment-weight-negative"),
    pytest.param("extract:\n  neighbor_radius: -1\n", ["extract"], None, 2, "config error",
                 id="neighbor-radius-negative"),
    # A non-finite float where the section's own checks would let it through.
    *(pytest.param(f"{section}:\n  {key}: {value}\n", [command], None, 2, "config error",
                   id=f"{section}-{key}-{value[1:]}".replace("_", "-"))
      for section, command, key, value in (
          ("detect", "detect", "tau_down", ".nan"),
          ("detect", "detect", "tau_extreme", ".inf"),
          ("detect", "detect", "tau_lc", ".nan"),
          ("dgsfm", "extract", "amplitude", ".inf"),
          ("dgsfm", "extract", "sigma", ".nan"),
          ("dgsfm", "extract", "lateral_scale", ".inf"),
          ("dgsfm", "extract", "softmax_temperature", ".nan"),
          ("dgsfm", "extract", "forward_stretch", ".inf"),
          ("extract", "extract", "neighbor_radius", ".nan"),
          ("train", "train", "lambda_cl", ".inf"),
          ("train", "train", "lambda_int", ".nan"),
          ("train", "train", "commitment_weight", ".inf"),
      )),
    pytest.param("cluster:\n  linkage: single\n", ["cluster"], None, 2, "config error", id="linkage-unknown"),
    pytest.param("cluster:\n  max_iter: 0\n", ["cluster"], None, 2, "config error", id="max-iter-zero"),
    pytest.param("cluster:\n  linkage: single\n", ["pipeline"], None, 2, "config error",
                 id="pipeline-linkage-unknown"),
    pytest.param("cluster:\n  backends: [codebook, dbscan]\n", ["cluster"], None, 2, "config error",
                 id="backend-unknown"),
    pytest.param("cluster:\n  backends: []\n", ["cluster"], None, 2, "config error", id="backends-empty"),
    pytest.param("cluster:\n  backends: [kmeans, kmeans]\n", ["cluster"], None, 2, "config error",
                 id="backends-repeated"),
    pytest.param("seed: abc\n", ["synth"], None, 2, "config error", id="seed-not-int"),
    pytest.param("seed: -3\n", ["synth"], None, 2, "config error", id="seed-negative"),
    pytest.param("", ["--seed", "-10", "synth"], None, 2, "config error", id="seed-flag-negative"),
    pytest.param("", ["--seed", "-1", "synth"], None, 2, "config error", id="seed-flag-minus-one"),
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
    pytest.param("synth:\n  n_trajectories: abc\n", ["synth"], None, 2, "config error",
                 id="synth-count-not-int"),
    pytest.param("synth:\n  n_trajectories: -2\n", ["synth"], None, 2, "config error",
                 id="synth-count-negative"),
    pytest.param("synth:\n  dt: 0\n", ["synth"], None, 2, "config error", id="synth-dt-zero"),
    pytest.param("augment:\n  n_augment: abc\n", ["augment"], None, 2, "config error",
                 id="augment-count-not-int"),
    pytest.param("augment:\n  min_gap: -5\n", ["augment"], None, 2, "config error",
                 id="augment-gap-negative"),
    pytest.param("split:\n  train_fraction: 0.85\n", ["pipeline"], None, 2, "config error", id="split-section"),
    pytest.param("synth:\n  n_augment: 50\n", ["synth"], None, 2, "config error", id="synth-n-augment"),
    pytest.param("train:\n  seed: 3\n", ["train"], None, 2, "config error", id="train-seed-key"),
    pytest.param("dgsfm:\n  dt: 0.1\n", ["extract"], None, 2, "config error", id="dgsfm-dt-key"),
    pytest.param("train:\n  epochs: 2.5\n", ["train"], None, 2, "config error", id="int-not-integral"),
    pytest.param("synth:\n  n_trajectories: true\n", ["synth"], None, 2, "config error", id="int-bool"),
    pytest.param("train:\n  learning_rate: yes\n", ["train"], None, 2, "config error", id="float-bool"),
    pytest.param("", ["train", "--lambda-cl", "-1"], None, 2, "config error", id="lambda-flag-negative"),
    pytest.param("", ["train", "--lambda-cl", "nan"], None, 2, "config error", id="lambda-cl-flag-nan"),
    pytest.param("", ["train", "--lambda-int", "inf"], None, 2, "config error", id="lambda-int-flag-inf"),
    pytest.param("", INGEST, ("meta.json", lambda b: b"{}"), 4, "input error", id="meta-missing-key"),
    pytest.param("", INGEST, ("meta.json", lambda b: b"[1]"), 4, "input error", id="meta-not-mapping"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"frame_rate": 25.0', b'"frame_rate": "fast"')),
                 4, "input error", id="meta-bad-number"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"frame_rate": 25.0', b'"frame_rate": true')),
                 4, "input error", id="meta-frame-rate-bool"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"frame_rate": 25.0', b'"frame_rate": "25"')),
                 4, "input error", id="meta-frame-rate-string"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"frame_rate": 25.0', b'"frame_rate": 1e-320')),
                 4, "input error", id="meta-frame-rate-subnormal"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"1":', b'"a":')), 4, "input error",
                 id="meta-lane-key"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(1, 2, b"\xff")), 4, "input error", id="tracks-not-utf8"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(1, 1, str(2**63).encode())), 4, "input error",
                 id="tracks-id-overflow"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(1, 2, b"nan")), 4, "input error", id="tracks-nan"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(5, 6, b"-inf")), 4, "input error", id="tracks-inf"),
    pytest.param("", INGEST, ("tracks.csv", _set_field(1, 2, b"1_0")), 4, "input error",
                 id="tracks-underscore-number"),
    # A workdir tracks.csv edited after synth is parsed again, not read from tracks.bin.
    *(pytest.param("", [stage], ("tracks.csv", edit), 4, "input error", id=f"workdir-tracks-{name}-{stage}")
      for name, edit in (("nan", _set_field(1, 2, b"nan")), ("frame-gap", _set_field(2, 0, b"5")),
                         ("malformed", _set_field(1, 2, b"x")))
      for stage in ("detect", "extract")),
    pytest.param("", ["detect"], (MEMO, lambda b: b[:-8]), 3, "stage error", id="tracks-memo-truncated"),
    pytest.param("", ["extract"], (MEMO, lambda b: b + b"\0"), 3, "stage error", id="tracks-memo-trailing-byte"),
    pytest.param("", ["extract"], (MEMO, lambda b: b"{tracks\n" + b[_header_end(b):]), 3, "stage error",
                 id="tracks-memo-header-not-json"),
    pytest.param("", ["detect"], (MEMO, overwrite_value("features", struct.pack("<d", math.nan), 5)), 3,
                 "stage error", id="tracks-memo-nan-value"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"1":', '"\u0663":'.encode())), 4, "input error",
                 id="meta-lane-key-non-ascii"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"1":', b'" 1_0 ":')), 4, "input error",
                 id="meta-lane-key-underscore"),
    pytest.param("detect:\n  ema_alpha: 5\n", ["detect", "--method", "ema"], None, 2, "config error",
                 id="ema-alpha-high"),
    pytest.param("detect:\n  ema_alpha: 0\n", ["detect", "--method", "ema"], None, 2, "config error",
                 id="ema-alpha-zero"),
    pytest.param("detect:\n  eval_window: -5\n", ["detect"], None, 2, "config error", id="eval-window-negative"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"lanes_per_direction": 3', b'"lanes_per_direction": 3.7')),
                 4, "input error", id="meta-lanes-fraction"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"lanes_per_direction": 3', b'"lanes_per_direction": true')),
                 4, "input error", id="meta-lanes-bool"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"1": 1', b'"1": 0')), 4, "input error",
                 id="meta-direction-zero"),
    pytest.param("", INGEST, ("meta.json", lambda b: b.replace(b'"1": 1', b'"1": true')), 4, "input error",
                 id="meta-direction-bool"),
    pytest.param("", ["extract"], ("changepoints.csv", _set_field(1, 2, b"2.5")), 3, "stage error",
                 id="changepoints-t-c-not-int"),
    pytest.param("", ["extract"], ("changepoints.csv", lambda b: b.replace(b"t_c", b"tc", 1)), 3, "stage error",
                 id="changepoints-missing-column"),
    pytest.param("", ["extract"], ("changepoints.csv", _set_field(1, 3, b"zero/swerve")), 3, "stage error",
                 id="changepoints-unknown-label"),
    pytest.param("", ["detect"], ("truth.csv", _set_field(1, 1, b"x")), 3, "stage error",
                 id="truth-vehicle-not-int"),
    pytest.param("", ["detect"], ("truth.csv", lambda b: b.replace(b"composite_label", b"label", 1)), 3,
                 "stage error", id="truth-missing-column"),
    pytest.param("", ["detect"], ("truth.csv", _set_field(1, 3, b"zero/swerve\r")), 3, "stage error",
                 id="truth-unknown-label"),
    pytest.param("", ["train"], (DATASET, lambda b: b[:-100]), 3, "stage error", id="dataset-truncated"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b"v2", b"v0", 1)), 3, "stage error",
                 id="dataset-format"),
    pytest.param("", ["train"], (DATASET, lambda b: b[:_header_end(b) - 1] + b"\xff" + b[_header_end(b) - 1:]), 3,
                 "stage error", id="dataset-undecodable"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b'"pseudo_class":', b'"class":', 1)), 3,
                 "stage error", id="dataset-missing-key"),
    pytest.param("", ["train"], (DATASET, lambda b: b.replace(b'["interaction",[', b'["interaction",[1,', 1)),
                 3, "stage error", id="dataset-array-length"),
    pytest.param("", ["train"], (DATASET, overwrite_value("tensor", struct.pack("<d", math.nan))), 3,
                 "stage error", id="dataset-nan-value"),
    pytest.param("", ["train"], (DATASET, overwrite_value("mask", b"\x02")), 3, "stage error",
                 id="dataset-mask-byte"),
    pytest.param("", ["train"], (DATASET, _through_records(
        lambda dataset, dt, path: path.write_bytes(encode_dataset_v1(dataset, dt)))), 3,
                 "stage error", id="dataset-v1-file"),
    pytest.param("", ["train"], (DATASET, _keep_records(0)), 3, "stage error", id="dataset-empty"),
    pytest.param("", ["train"], (DATASET, _through_records(
        lambda dataset, dt, path: write_dataset(take(dataset, [*range(len(dataset)), 0]), path, dt=dt))), 3,
                 "stage error", id="dataset-repeated-id"),
    # A dataset file that is valid as a file but whose first record breaks an invariant.
    *(pytest.param("", ["train"], (DATASET, damage), 3, "stage error", id=f"dataset-{name}")
      for name, damage in INVALID_RECORD.items()),
    pytest.param("", ["cluster"], (AUGMENTED, _through_records(
        lambda dataset, dt, path: write_dataset(take(dataset, [0, *range(len(dataset))]), path, dt=dt))), 3,
                 "stage error", id="augmented-repeated-id"),
    pytest.param("", ["cluster"], (DATASET, _keep_records(3)), 3, "stage error",
                 id="cluster-too-few-records"),
    # An augmented file that is not dataset.jsonl's records followed by their augmentations.
    pytest.param("", ["cluster"], (DATASET, _keep_records(4)), 3, "stage error",
                 id="augmented-stale-after-dataset-cut"),
    pytest.param("", ["cluster"], (AUGMENTED, _through_records(
        lambda dataset, dt, path: write_dataset(take(dataset, slice(1, None)), path, dt=dt))), 3,
                 "stage error", id="augmented-first-record-dropped"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b[:-8]), 3, "stage error", id="ckpt-truncated"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b[:_header_end(b)]), 3, "stage error", id="ckpt-header-only"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b + b"\0"), 3, "stage error", id="ckpt-trailing-byte"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b"\xff\xfe\n" + b), 3, "stage error", id="ckpt-garbage-header"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b"[]\n" + b), 3, "stage error", id="ckpt-header-not-mapping"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b.replace(b"v3", b"v0", 1)), 3, "stage error", id="ckpt-format"),
    pytest.param("", ["cluster"], (CKPT, _v2_checkpoint), 3, "stage error", id="ckpt-v2-file"),
    pytest.param("", ["cluster"], (CKPT, lambda b: b[:_header_end(b) + 6]), 3, "stage error",
                 id="ckpt-truncated-in-f4-block"),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b.replace(b'"latent_dim":4', b'"latent_dim":5', 1)), 3,
        "stage error", id="ckpt-layout-mismatch",
    ),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b.replace(b'"codebook_size":4', b'"codebook_size":0', 1)), 3,
        "stage error", id="ckpt-codebook-zero",
    ),
    pytest.param(
        "", ["cluster"], (CKPT, lambda b: b[:_header_end(b)] + struct.pack("<f", math.nan) + b[_header_end(b) + 4:]),
        3, "stage error", id="ckpt-nan-weight",
    ),
    pytest.param("", ["cluster"], (CKPT, lambda b: _other_layout_checkpoint()), 3, "stage error",
                 id="ckpt-other-layout"),
    # Headers that describe far more data than the file holds.
    pytest.param("", ["cluster"], (CKPT, _checkpoint_describing(n_slots=10_000_000)), 3, "stage error",
                 id="ckpt-header-huge-n-slots"),
    pytest.param("", ["cluster"], (CKPT, _checkpoint_describing(hidden=[1_000_000, 1_000_000])), 3,
                 "stage error", id="ckpt-header-huge-hidden"),
    # Headers of no model whose array lists name what they describe.
    pytest.param("", ["cluster"], (CKPT, _checkpoint_describing(n_slots=-1)), 3, "stage error",
                 id="ckpt-header-negative-n-slots"),
    pytest.param("", ["cluster"], (CKPT, _checkpoint_describing(n_features=2.5)), 3, "stage error",
                 id="ckpt-header-fractional-n-features"),
    # A layout whose arithmetic overflows: "x" * 10**20 is an OverflowError.
    pytest.param("", ["cluster"], (CKPT, edit_header(lambda h: h.update(n_slots="x", n_features=10**20))), 3,
                 "stage error", id="ckpt-header-overflowing-n-features"),
    pytest.param("", ["detect"], (MEMO, edit_header(lambda h: h["trajectories"][0].__setitem__(2, 10**11))),
                 3, "stage error", id="tracks-memo-huge-n-rows"),
    pytest.param(None, ["synth"], None, 2, "config error", id="config-file-missing"),
    pytest.param("train:\n  hidden: [8,\n", ["train"], None, 2, "config error", id="config-yaml-syntax"),
    pytest.param(b"train:\n  epochs: \xff\n", ["train"], None, 2, "config error", id="config-not-utf8"),
    # The second --workdir wins: a regular file in the (current) workdir.
    pytest.param("", ["--workdir", "meta.json", "synth"], None, 3, "stage error", id="workdir-is-file"),
    pytest.param("augment:\n  n_augment: 0\n", ["augment"], None, 2, "config error", id="augment-count-zero"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, lambda b: re.sub(rb",[0-9]+\n", b"\n", b, count=1)), 3,
                 "stage error", id="assignments-short-row"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, _set_field(1, 2, b"x")), 3, "stage error",
                 id="assignments-label-not-int"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, _set_field(1, 2, b"-1")), 3, "stage error",
                 id="assignments-label-negative"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, _set_field(1, 2, str(10**30).encode())), 3, "stage error",
                 id="assignments-label-huge"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, lambda b: b""), 3, "stage error", id="assignments-empty"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, _set_field(1, 0, b"\xff")), 3, "stage error",
                 id="assignments-not-utf8"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, lambda b: b[:_header_end(b)]), 3, "stage error",
                 id="assignments-header-only"),
    pytest.param("", ["evaluate"], (ASSIGNMENTS, _set_field(1, 0, b"ghost")), 3, "stage error",
                 id="assignments-unknown-record"),
    pytest.param("", ["evaluate"], (PAIRS, lambda b: b.replace(b"child_id", b"child", 1)), 3, "stage error",
                 id="pairs-wrong-header"),
    pytest.param("", ["evaluate"], (PAIRS, lambda b: b""), 3, "stage error", id="pairs-empty"),
    pytest.param("", ["evaluate"], (PAIRS, lambda b: b[:_header_end(b)]), 3, "stage error", id="pairs-header-only"),
    pytest.param("", ["evaluate"], (PAIRS, _set_field(1, 1, b"ghost:aug\r")), 3, "stage error",
                 id="pairs-child-not-assigned"),
    pytest.param("", ["report"], (DETECTION, lambda b: b"[" + b + b"]"), 3, "stage error", id="detection-list"),
    pytest.param("", ["report"], (DETECTION, lambda b: re.sub(rb'"tp": (\d+)', rb'"tp": "\1"', b)), 3,
                 "stage error", id="detection-tp-string"),
    pytest.param("", ["report"], (DETECTION, lambda b: b.replace(b'"tp"', b'"hits"')), 3, "stage error",
                 id="detection-missing-tp"),
    pytest.param("", ["report"], (DETECTION, lambda b: b[:-3]), 3, "stage error", id="detection-not-json"),
    pytest.param("", ["report"], (DETECTION, lambda b: b.replace(b'"rule"', b'"ema"')), 3, "stage error",
                 id="detection-other-method"),
    pytest.param("", ["report"], (CLUSTERING, lambda b: b"\xff" + b), 3, "stage error", id="clustering-not-utf8"),
    pytest.param("", ["report"], (CLUSTERING, lambda b: b.replace(b'"augmentation_accuracy"', b'"accuracy"')), 3,
                 "stage error", id="clustering-missing-metric"),
    pytest.param("", ["report"], (CLUSTERING, lambda b: b"{}\n"), 3, "stage error", id="clustering-empty-object"),
    pytest.param("", ["report"], (CLUSTERING, lambda b: b"[]\n"), 3, "stage error", id="clustering-list"),
    pytest.param("", ["report"], (CLUSTERING, lambda b: b.replace(b'"purity_entropy": ', b'"purity_entropy": NaN, "was": ', 1)),
                 3, "stage error", id="clustering-nan"),
    pytest.param("", ["report"], (CLUSTERING, _keep_backends("codebook")), 3, "stage error",
                 id="clustering-backends-differ"),
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
    if config_text is not None:  # None: no config file
        cfg.write_bytes(config_text if isinstance(config_text, bytes) else config_text.encode())
    monkeypatch.chdir(wd)
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == code
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(prefix + ":")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err + captured.out


@pytest.mark.parametrize("damage", INVALID_RECORD.values(), ids=INVALID_RECORD.keys())
def test_train_counts_the_invalid_records(trained_workdir, tmp_path, capsys, damage):
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / DATASET).write_bytes(damage((wd / DATASET).read_bytes()))
    capsys.readouterr()
    assert cli.main(["--workdir", str(wd), "train"]) == 3
    assert capsys.readouterr().err == f"stage error: 1 invalid records in {wd / DATASET}\n"


@pytest.mark.parametrize("layout", [{"n_slots": 10_000_000}, {"hidden": [1_000_000, 1_000_000]}])
def test_checkpoint_header_larger_than_the_file_is_refused_before_layout(trained_workdir, tmp_path, capsys, layout):
    blob = (trained_workdir / CKPT).read_bytes()
    assert _checkpoint_describing()(blob) == blob  # the array list of the unchanged layout is the file's
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / CKPT).write_bytes(_checkpoint_describing(**layout)(blob))
    capsys.readouterr()
    assert cli.main(["--workdir", str(wd), "cluster"]) == 3
    assert re.fullmatch(r"stage error: invalid checkpoint: \S+model\.ckpt: checkpoint header names [0-9]+ array "
                        r"values, more than the [0-9]+ bytes after it\n", capsys.readouterr().err)


@pytest.mark.parametrize("layout", [{"n_slots": -1}, {"n_features": 2.5}],
                         ids=["negative-n-slots", "fractional-n-features"])
def test_checkpoint_header_of_no_model_is_an_invalid_header(trained_workdir, tmp_path, capsys, layout):
    # Its blocks cannot be allocated: the ValueError or TypeError of the
    # allocation is the header's error, not a traceback.
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / CKPT).write_bytes(_checkpoint_describing(**layout)((wd / CKPT).read_bytes()))
    capsys.readouterr()
    assert cli.main(["--workdir", str(wd), "cluster"]) == 3
    assert re.fullmatch(r"stage error: invalid checkpoint: \S+model\.ckpt: invalid checkpoint header "
                        r"\((ValueError|TypeError)\(.+\)\)\n", capsys.readouterr().err)


@pytest.mark.parametrize("damage, message", CLUSTER_DAMAGED_CHECKPOINT.values(),
                         ids=CLUSTER_DAMAGED_CHECKPOINT.keys())
def test_cluster_names_the_damaged_checkpoint_block(trained_workdir, tmp_path, capsys, damage, message):
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / CKPT).write_bytes(damage((wd / CKPT).read_bytes()))
    capsys.readouterr()
    assert cli.main(["--workdir", str(wd), "cluster"]) == 3
    assert capsys.readouterr().err == f"stage error: invalid checkpoint: {wd / CKPT}: {message}\n"


def test_report_names_the_backends_one_clustering_file_lacks(trained_workdir, tmp_path, capsys):
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / "clustering_no_dk.json").write_bytes(_keep_backends("codebook")((wd / CLUSTERING).read_bytes()))
    capsys.readouterr()
    assert cli.main(["--workdir", str(wd), "report"]) == 3
    assert "clustering_no_dk.json lacks hierarchical, kmeans" in capsys.readouterr().err


def test_recording_id_with_comma_goes_through_cluster_and_evaluate(trained_workdir, tmp_path):
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    dataset, dt = read_dataset_arrays(wd / DATASET)
    entries = [{**e, "recording_id": "syn,thetic", "record_id": f"syn,thetic:{e['vehicle_id']}:{e['t_c']}"}
               for e in dataset.entries]
    write_dataset(Dataset(entries, *dataset.blocks), wd / DATASET, dt=dt)
    for command in (["augment"], ["cluster"], ["evaluate"]):
        assert cli.main(["--workdir", str(wd)] + command) == 0
    assert (wd / ASSIGNMENTS).read_text().split("\n")[1].startswith('"syn,thetic:1:25",codebook,')
    assert set(json.loads((wd / "clustering_model.json").read_text())) == {"codebook", "kmeans", "hierarchical"}


def test_cluster_without_an_augmented_dataset_labels_the_base_records(trained_workdir, tmp_path):
    # Its held-out batch holds no record.
    wd = tmp_path / "wd"
    shutil.copytree(trained_workdir, wd)
    (wd / AUGMENTED).unlink()
    assert cli.main(["--workdir", str(wd), "cluster"]) == 0
    full = (trained_workdir / ASSIGNMENTS).read_text().splitlines()
    base = [line for line in full if ":aug," not in line]
    assert len(base) < len(full) and (wd / ASSIGNMENTS).read_text().splitlines() == base


# --------------------------- memory of augment and cluster ------------------

@pytest.fixture(scope="module")
def archetype_workdir(tmp_path_factory):
    """The config and workdir of 9 archetype records, 3 augmentations and
    a trained model.ckpt, each stage having run once, so that no first
    call's import or cache is left for a later run to allocate."""
    root = tmp_path_factory.mktemp("archetypes")
    cfg = root / "config.yaml"
    cfg.write_text(ARCHETYPE_CONFIG.replace("n_per_class: 2", "n_per_class: 3") + "augment:\n  n_augment: 3\n")
    for command in (["synth"], ["augment"], ["train"], ["cluster"]):
        assert cli.main(["--config", str(cfg), "--workdir", str(root / "wd")] + command) == 0
    return cfg, root / "wd"


def test_augment_peaks_below_the_bytes_of_the_two_datasets(archetype_workdir, tmp_path):
    # It holds the records read once and their augmentations once: the
    # two are written back to back, not copied into one block first.
    cfg, source = archetype_workdir
    wd = tmp_path / "wd"
    shutil.copytree(source, wd)
    tracemalloc.start()
    try:
        assert cli.main(["--config", str(cfg), "--workdir", str(wd), "augment"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (wd / AUGMENTED).read_bytes() == (source / AUGMENTED).read_bytes()
    assert peak <= (wd / DATASET).stat().st_size + (wd / AUGMENTED).stat().st_size


def test_cluster_encodes_without_the_decoder_the_heads_or_the_interaction_block(archetype_workdir, tmp_path,
                                                                                monkeypatch):
    cfg, source = archetype_workdir
    wd = tmp_path / "wd"
    shutil.copytree(source, wd)
    load, read, encode = cvqvae.load_checkpoint, cli.read_dataset_arrays, cvqvae.encode
    unread, held, latents = [], [], []

    def load_checkpoint(path):
        params = load(path)
        unread.extend(weakref.ref(arr) for arr in (*params.dec_w, *params.dec_b, params.cl_w, params.cl_b,
                                                   params.int_w, params.int_b))
        return params

    def read_dataset_arrays(path):
        dataset, dt = read(path)
        unread.append(weakref.ref(dataset.interaction))
        return dataset, dt

    def encode_watched(inputs, masks, params):
        held.append(sum(ref() is not None for ref in unread))
        latents.append(encode(inputs, masks, params))
        return latents[-1]

    monkeypatch.setattr(cvqvae, "load_checkpoint", load_checkpoint)
    monkeypatch.setattr(cli, "read_dataset_arrays", read_dataset_arrays)
    monkeypatch.setattr(cvqvae, "encode", encode_watched)
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "cluster"]) == 0
    assert held == [0, 0] and len(unread) == 2 * len(load(wd / CKPT).dec_w) + 5
    params, (dataset, _) = load(wd / CKPT), read(wd / AUGMENTED)
    n = len(read_dataset_header(wd / DATASET)[0])
    for got, part in zip(latents, (slice(n), slice(n, None))):
        assert np.array_equal(got, encode(dataset.tensor[part], dataset.mask[part], params))
    assert (wd / ASSIGNMENTS).read_bytes() == (source / ASSIGNMENTS).read_bytes()


def test_non_finite_config_float_fails_before_a_stage_writes(tmp_path, capsys):
    # synth does not read the dgsfm section.
    cfg = tmp_path / "config.yaml"
    cfg.write_text("dgsfm:\n  sigma: .nan\n")
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(cfg), "--workdir", str(wd), "synth"]) == 2
    assert capsys.readouterr().err == "config error: dgsfm.sigma must be a finite number, got nan\n"
    assert not wd.exists()


def test_train_line_reports_live_slots(tmp_path, capsys):
    # The default data; the number of epochs does not change the live width.
    cfg = tmp_path / "config.yaml"
    cfg.write_text("train:\n  epochs: 1\n")
    args = ["--config", str(cfg), "--workdir", str(tmp_path / "wd")]
    for command in (["synth"], ["detect"], ["extract"]):
        assert cli.main(args + command) == 0
    capsys.readouterr()
    assert cli.main(args + ["train"]) == 0
    assert " records=50 live_slots=5 " in capsys.readouterr().out


# --------------------------- golden data path --------------------------------

# SHA-256 of the data-path artifacts of a fixed-seed run, with tracks.csv at
# six fixed decimals. Any drift in synthesis, CSV formatting,
# detection, extraction or augmentation changes them. The two datasets are
# digested as the JSON-lines bytes of ``scenmine-dataset-v1``, which
# ``encode_dataset_v1`` re-creates from the datasets read back from the
# binary files, so their values are pinned bit for bit across the format
# change.
GOLDEN_DATA_DIGESTS = {
    "tracks.csv": "a80e6a8592c6afa07df0b01a90fd173875acae01bddc593b68fd6123f7edae5f",
    "changepoints.csv": "6524c6fc417a433fb2712bfdf473e84ab7b9ea2d4551888838979ef5f63f4a09",
    "dataset.jsonl": "445ef39b7b7de86fe01fdc99cc32538217c4722e02d6d975288943fcd9d9ace0",
    "dataset_augmented.jsonl": "66257bf5f256f0415cd16a246f90b48c98cf265ea643d5094311187ba5936210",
}
# SHA-256 of the same run's dataset files as written (``scenmine-dataset-v2``).
GOLDEN_DATASET_V2_DIGESTS = {
    "dataset.jsonl": "9ccb8023e7ac74ae04a4ebc8c244fb898a9ad3814037636c577847e6ac0a064b",
    "dataset_augmented.jsonl": "b12c3189938f1bad412b647f36f122844015b5f5924a52d74616656125dd8f99",
}
GOLDEN_INGEST_DIGESTS = {
    "recording/tracks.csv": "49929e251ae732abed9e29bebd9085f1c06b29cb60e4ddbcbc5129f6fe3793a5",
    "ingested/tracks.csv": "29e5caf983e079ca77011fd8412684ee52cd64d6659558d7a25a557edb96affe",
}


def _digests(root, names):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in names}


def test_data_path_bytes_match_golden_digests(tmp_path):
    cfg = write_config(tmp_path)
    wd = tmp_path / "wd"
    args = ["--config", str(cfg), "--workdir", str(wd)]
    for command in (["synth"], ["detect"], ["extract"], ["augment"]):
        assert cli.main(args + command) == 0
    assert _digests(wd, GOLDEN_DATASET_V2_DIGESTS) == GOLDEN_DATASET_V2_DIGESTS
    v1 = tmp_path / "v1"
    v1.mkdir()
    for name in GOLDEN_DATASET_V2_DIGESTS:
        (v1 / name).write_bytes(encode_dataset_v1(*read_dataset_arrays(wd / name)))
    for name in ("tracks.csv", "changepoints.csv"):
        shutil.copyfile(wd / name, v1 / name)
    assert _digests(v1, GOLDEN_DATA_DIGESTS) == GOLDEN_DATA_DIGESTS


def _reversed_lane_recording(root: Path) -> Path:
    """Writes recording/tracks.csv and recording/meta.json under ``root``: six
    vehicles, lanes 1-3 drive in -x (generated +x, flipped by
    normalize_direction, and flipped back by `scenmine ingest`)."""
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
    rec = root / "recording"
    rec.mkdir()
    ingest.write_tracks_csv([ingest.normalize_direction(t, meta) for t in trajs], rec / "tracks.csv")
    ingest.write_meta_json(meta, rec / "meta.json")
    return rec


def test_ingest_of_reversed_lanes_matches_golden_digests(tmp_path):
    rec = _reversed_lane_recording(tmp_path)
    code = cli.main(["--workdir", str(tmp_path / "ingested"), "ingest",
                     "--tracks", str(rec / "tracks.csv"), "--meta", str(rec / "meta.json")])
    assert code == 0
    assert _digests(tmp_path, GOLDEN_INGEST_DIGESTS) == GOLDEN_INGEST_DIGESTS


# SHA-256 of the files that `synth` of the archetype corpus and `augment`
# write at the default seed, and of those that `detect`, `extract` and
# `augment` write from the reversed-lane recording.
GOLDEN_ARCHETYPE_DIGESTS = {
    "dataset.jsonl": "2d28ed2cdb9682476223d0bc2d8b5d2ea5b22a8fef55866c17ac049736aae5cd",
    "dataset_augmented.jsonl": "3ddece4092cab99402023e45efeb2efe0786dcedd5b3d7e21c2c4f056346adc6",
    "pairs.csv": "adfef0c8a0e5f8f4db625177039f258f9f382d5d74d9fd68f93303b28c3d1fa0",
}
GOLDEN_INGEST_DATASET_DIGESTS = {
    "dataset.jsonl": "fdafc21bd61c54b3ac93329a644c94f54f41486e87686aa89a63b3049386e8b2",
    "dataset_augmented.jsonl": "73f0ad7fcbd0eeef03a35f34ab3f24dabd1a69a336845d3181ce4b145cd600a3",
    "pairs.csv": "06606c1215efe1b5dd3920df068fe758f90332910523edbb1e4828f2fdfc18f2",
}


def test_archetype_synth_and_augment_match_golden_digests(tmp_path):
    cfg = tmp_path / "config.yaml"
    cfg.write_text("synth:\n  kind: archetypes\n  n_per_class: 30\naugment:\n  n_augment: 50\n")
    wd = tmp_path / "wd"
    for command in (["synth"], ["augment"]):
        assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == 0
    assert _digests(wd, GOLDEN_ARCHETYPE_DIGESTS) == GOLDEN_ARCHETYPE_DIGESTS


def test_extract_and_augment_of_reversed_lanes_match_golden_digests(tmp_path):
    rec = _reversed_lane_recording(tmp_path)
    wd = tmp_path / "ingested"
    ingest_command = ["ingest", "--tracks", str(rec / "tracks.csv"), "--meta", str(rec / "meta.json")]
    for command in (ingest_command, ["detect"], ["extract"], ["augment"]):
        assert cli.main(["--workdir", str(wd)] + command) == 0
    assert _digests(wd, GOLDEN_INGEST_DATASET_DIGESTS) == GOLDEN_INGEST_DATASET_DIGESTS


# --------------------------- tracks.bin memo ----------------------------------

def test_tracks_memo_of_synth_equals_parse(tmp_path):
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(write_config(tmp_path)), "--workdir", str(wd), "synth"]) == 0
    assert_same_trajectories(load_from_memo(wd), parse_workdir(wd))


def test_tracks_memo_of_reversed_lane_ingest_equals_parse(tmp_path):
    rec = _reversed_lane_recording(tmp_path)
    wd = tmp_path / "ingested"
    assert cli.main(["--workdir", str(wd), "ingest", "--tracks", str(rec / "tracks.csv"),
                     "--meta", str(rec / "meta.json")]) == 0
    assert_same_trajectories(load_from_memo(wd), parse_workdir(wd))


def test_ingest_of_synth_tracks_rewrites_the_same_bytes(tmp_path, capsys):
    # tracks.csv holds the values its text parses back to, so `ingest` of
    # synth's file under synth's all-+x meta.json writes the same bytes. So
    # does `ingest` of a copy with every lane driving -x, which it flips back.
    wd = tmp_path / "wd"
    assert cli.main(["--workdir", str(wd), "synth"]) == 0
    tracks = re.search(r" tracks=([0-9a-f]{12})\n", capsys.readouterr().out).group(1)
    meta = ingest.read_meta_json(wd / "meta.json")
    assert set(meta.lane_directions.values()) == {1}
    reversed_meta = replace(meta, lane_directions=dict.fromkeys(meta.lane_directions, -1))
    rev = tmp_path / "reversed"
    rev.mkdir()
    ingest.write_tracks_csv([ingest.normalize_direction(t, reversed_meta) for t in parse_workdir(wd)],
                            rev / "tracks.csv")
    ingest.write_meta_json(reversed_meta, rev / "meta.json")
    assert (rev / "tracks.csv").read_bytes() != (wd / "tracks.csv").read_bytes()
    for source in (wd, rev):
        out = tmp_path / f"ingested-{source.name}"
        assert cli.main(["--workdir", str(out), "ingest", "--tracks", str(source / "tracks.csv"),
                         "--meta", str(source / "meta.json")]) == 0
        assert capsys.readouterr().out.endswith(f" trajectories=40 tracks={tracks}\n")
        assert (out / "tracks.csv").read_bytes() == (wd / "tracks.csv").read_bytes()


def test_detect_and_extract_artifacts_do_not_depend_on_the_memo(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    with_memo, without = tmp_path / "memo", tmp_path / "parse"
    assert cli.main(["--config", str(cfg), "--workdir", str(with_memo), "synth"]) == 0
    shutil.copytree(with_memo, without)
    (without / "tracks.bin").unlink()
    parse, parses, outputs = ingest.parse_tracks, [], []
    monkeypatch.setattr(ingest, "parse_tracks", lambda *args: parses.append(1) or parse(*args))
    for wd in (with_memo, without):
        capsys.readouterr()
        parses.clear()
        for command in (["detect"], ["detect", "--method", "ema"], ["extract"]):
            assert cli.main(["--config", str(cfg), "--workdir", str(wd)] + command) == 0
        outputs.append((capsys.readouterr().out, len(parses)))
    assert outputs[0] == (outputs[1][0], 0) and outputs[1][1] == 3
    for name in ("changepoints.csv", "detection_rule.json", "detection_ema.json", "dataset.jsonl",
                 "extract_summary.json"):
        assert (with_memo / name).read_bytes() == (without / name).read_bytes(), name


def test_edited_tracks_csv_is_parsed_again(tmp_path):
    wd = tmp_path / "wd"
    assert cli.main(["--config", str(write_config(tmp_path)), "--workdir", str(wd), "synth"]) == 0
    memo = (wd / "tracks.bin").read_bytes()
    (wd / "tracks.csv").write_bytes(_set_field(1, 2, b"1.5")((wd / "tracks.csv").read_bytes()))
    _, trajs = cli._load_tracks(wd)
    assert trajs[0].x[0] == 1.5 and (wd / "tracks.bin").read_bytes() == memo
    assert_same_trajectories(trajs, parse_workdir(wd))


@pytest.mark.parametrize("vehicle_ids", [(5, 2), (3, 3)], ids=["decreasing", "repeated"])
def test_no_memo_unless_the_parse_gives_the_written_trajectories(tmp_path, vehicle_ids):
    # The parse sorts vehicles by id and joins rows of one id into one trajectory.
    first, second = vehicle_ids
    trajs = [make_traj(n=4, vehicle_id=first, recording_id="rec"),
             make_traj(n=3, vehicle_id=second, recording_id="rec", first_frame=4, lane_id=3)]
    meta = ingest.RecordingMeta("rec", 25.0, 3, {lane: 1 for lane in range(1, 7)})
    ingest.write_meta_json(meta, tmp_path / "meta.json")
    cli._write_tracks(trajs, tmp_path)
    assert not (tmp_path / "tracks.bin").exists()
    _, loaded = cli._load_tracks(tmp_path)
    assert [(t.vehicle_id, len(t)) for t in loaded] != [(t.vehicle_id, len(t)) for t in trajs]
    assert_same_trajectories(loaded, parse_workdir(tmp_path))

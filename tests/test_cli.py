import json

import pytest

from scenmine import cli

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
    """A workdir holding dataset.jsonl and a valid model.ckpt."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "config.yaml"
    cfg.write_text(ARCHETYPE_CONFIG)
    args = ["--config", str(cfg), "--workdir", str(root / "wd")]
    assert cli.main(args + ["synth"]) == 0
    assert cli.main(args + ["train"]) == 0
    assert cli.main(args + ["cluster"]) == 0
    return root / "wd"


def _header_end(blob: bytes) -> int:
    return blob.index(b"\n") + 1


# (config text, command, checkpoint rewrite or None, exit code, stderr prefix).
# Checkpoint rows rewrite the valid model.ckpt into <id>.ckpt and cluster it.
BAD_INPUTS = [
    pytest.param("train:\n  epochs: 0\n", ["train"], None, 2, "config error", id="epochs-zero"),
    pytest.param("train:\n  batch_size: 0\n", ["train"], None, 2, "config error", id="batch-size-zero"),
    pytest.param("train:\n  hidden: 8\n", ["train"], None, 2, "config error", id="hidden-not-list"),
    pytest.param("train:\n  learning_rate: fast\n", ["train"], None, 2, "config error", id="rate-not-number"),
    pytest.param("seed: abc\n", ["synth"], None, 2, "config error", id="seed-not-int"),
    pytest.param("seed: 1.5\n", ["synth"], None, 2, "config error", id="seed-float"),
    pytest.param("", ["cluster"], lambda b: b[:-8], 3, "stage error", id="ckpt-truncated"),
    pytest.param("", ["cluster"], lambda b: b[:_header_end(b)], 3, "stage error", id="ckpt-header-only"),
    pytest.param("", ["cluster"], lambda b: b + b"\0", 3, "stage error", id="ckpt-trailing-byte"),
    pytest.param("", ["cluster"], lambda b: b"\xff\xfe\n" + b, 3, "stage error", id="ckpt-garbage-header"),
    pytest.param("", ["cluster"], lambda b: b"[]\n" + b, 3, "stage error", id="ckpt-header-not-mapping"),
    pytest.param("", ["cluster"], lambda b: b.replace(b"v1", b"v0", 1), 3, "stage error", id="ckpt-format"),
    pytest.param(
        "", ["cluster"], lambda b: b.replace(b'"latent_dim":4', b'"latent_dim":5', 1), 3,
        "stage error", id="ckpt-layout-mismatch",
    ),
]


@pytest.mark.parametrize("config_text, command, rewrite, code, prefix", BAD_INPUTS)
def test_bad_input_exit_code(
    trained_workdir, tmp_path, capsys, request, config_text, command, rewrite, code, prefix
):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config_text)
    args = ["--config", str(cfg), "--workdir", str(trained_workdir)] + command
    if rewrite is not None:
        tag = request.node.callspec.id
        blob = (trained_workdir / "model.ckpt").read_bytes()
        (trained_workdir / f"{tag}.ckpt").write_bytes(rewrite(blob))
        args += ["--tag", tag]
    capsys.readouterr()
    assert cli.main(args) == code
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(prefix + ":")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err + captured.out

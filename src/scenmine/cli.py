"""Command-line pipeline: synth -> detect -> extract -> augment -> train ->
cluster -> evaluate -> report, with per-stage artifacts on disk and one
deterministic summary line per stage.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import clustering, config, corpus, cvqvae, detect, dgsfm, extraction, ingest, metrics
from .config import Config
from .types import (Dataset, DatasetFormatError, read_csv, read_dataset_arrays, read_dataset_header, read_json,
                    validate_arrays, write_csv, write_dataset, write_json)


class StageError(Exception):
    """Missing input artifact or failed stage precondition."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def _log(stage: str, **fields) -> None:
    parts = " ".join(f"{k}={v}" for k, v in fields.items())
    print(f"[{stage}] {parts}")


def _require(path: Path) -> Path:
    if not path.exists():
        raise StageError(f"missing input artifact: {path}")
    return path


def _make_scripts(n: int, noise: float, seed: int) -> list[ingest.SyntheticScript]:
    """Deterministic mixed-maneuver scripts, staggered in space and lane so
    co-recorded vehicles do not overlap."""
    rng = np.random.default_rng(seed)
    scripts = []
    for i in range(n):
        kind = ("lane_change", "accelerate", "decelerate", "extreme_brake")[i % 4]
        start = int(rng.integers(200, 400))
        if kind == "lane_change":
            direction = 1 if i % 8 < 4 else -1
            maneuvers = (
                ingest.Maneuver("cruise", 0, start),
                ingest.Maneuver("lane_change", start, 100, lane_direction=direction),
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
                noise_sigma_accel=noise,
                initial_x=60.0 * i,
                initial_y=3.75 * (i % 3),
                initial_lane=2 + (i % 3),
                vehicle_id=i + 1,
            )
        )
    return scripts


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_synth(cfg: Config, workdir: Path) -> None:
    s = cfg.synth
    seed = config.stage_seed(cfg, "synth")
    dt = s.dt
    if s.kind == "trajectories":
        scripts = _make_scripts(s.n_trajectories, s.noise_sigma_accel, seed)
        trajs, truths = ingest.generate_synthetic(scripts, dt, seed, recording_id="synthetic")
        tracks = _write_tracks(trajs, workdir)
        meta = ingest.RecordingMeta(
            recording_id="synthetic",
            frame_rate=1.0 / dt,
            lanes_per_direction=3,
            lane_directions={lane: 1 for lane in range(1, 7)},
        )
        ingest.write_meta_json(meta, workdir / "meta.json")
        truth_rows = [
            ("synthetic", traj.vehicle_id, cp.t_c, cp.label_after)
            for traj, cps in zip(trajs, truths)
            for cp in cps
        ]
        detect.write_annotations(truth_rows, workdir / "truth.csv")
        _log(
            "synth",
            kind="trajectories",
            n=len(trajs),
            events=len(truth_rows),
            seed=seed,
            tracks=tracks,
        )
    else:  # archetypes
        dataset = corpus.build_archetype_corpus(s.n_per_class, seed, config.override(cfg, "dgsfm", dt=dt))
        write_dataset(dataset, workdir / "dataset.jsonl", dt=dt)
        _log("synth", kind="archetypes", n=len(dataset), seed=seed,
             dataset=_sha256(workdir / "dataset.jsonl"))


def cmd_ingest(cfg: Config, workdir: Path, tracks: str, meta: str) -> None:
    recording = ingest.read_meta_json(_require(Path(meta)))
    trajs = ingest.read_tracks_csv(_require(Path(tracks)), recording)
    kept = recording.lanes_per_direction == 3
    normalized = [ingest.normalize_direction(t, recording) for t in trajs] if kept else []
    tracks = _write_tracks(normalized, workdir)
    ingest.write_meta_json(recording, workdir / "meta.json")
    _log("ingest", recordings_kept=int(kept), trajectories=len(normalized), tracks=tracks)


def _write_tracks(trajs: list, workdir: Path) -> str:
    """Writes tracks.csv and its memo tracks.bin, which holds the trajectories
    as the file reads back; returns tracks.csv's 12-hex hash."""
    written = ingest.write_tracks_csv(trajs, workdir / "tracks.csv")
    digest = hashlib.sha256((workdir / "tracks.csv").read_bytes()).hexdigest()
    ingest.write_tracks_bin(written, digest, workdir / "tracks.bin")
    return digest[:12]


def _load_tracks(workdir: Path) -> tuple[ingest.RecordingMeta, list]:
    """The recording's trajectories: from tracks.bin if it is the memo of
    tracks.csv's bytes as they are now, else parsed from those bytes."""
    meta = ingest.read_meta_json(_require(workdir / "meta.json"))
    data = _require(workdir / "tracks.csv").read_bytes()
    memo = workdir / "tracks.bin"
    trajs = ingest.read_tracks_bin(memo, hashlib.sha256(data).hexdigest(), meta) if memo.exists() else None
    return meta, ingest.read_tracks_csv(workdir / "tracks.csv", meta, data) if trajs is None else trajs


def cmd_detect(cfg: Config, workdir: Path, method: str = "rule") -> None:
    det_cfg = cfg.detect
    meta, trajs = _load_tracks(workdir)
    rows = []
    predictions: dict[int, list] = {}
    skipped_short = 0
    for traj in trajs:
        if method == "rule":
            cps = detect.detect_rule_based(traj, det_cfg)
            predictions[traj.vehicle_id] = [(cp.t_c, cp.label_after) for cp in cps]
            rows.extend((traj.recording_id, traj.vehicle_id, cp) for cp in cps)
        else:  # ema
            if len(traj) < min(det_cfg.ema_window_sizes):
                # Shorter than every EMA window: no energy series, no events.
                skipped_short += 1
                frames = []
            else:
                frames = detect.detect_ema(traj, window_sizes=det_cfg.ema_window_sizes,
                                           ema_alpha=det_cfg.ema_alpha)
            predictions[traj.vehicle_id] = [(f, None) for f in frames]
    if method == "rule":
        detect.write_change_points(rows, workdir / "changepoints.csv")
        _log("detect", method=method, events=len(rows),
             changepoints=_sha256(workdir / "changepoints.csv"))
    else:
        n = sum(len(v) for v in predictions.values())
        _log("detect", method=method, events=n, skipped_short=skipped_short)

    truth_path = workdir / "truth.csv"
    if truth_path.exists():
        truth = detect.read_annotations(truth_path)
        by_vehicle: dict[int, list] = {}
        for _, vid, center, label in truth:
            by_vehicle.setdefault(vid, []).append((center, label))
        tp = fp = fn = 0
        for traj in trajs:
            m = detect.evaluate_detection(
                predictions.get(traj.vehicle_id, []),
                by_vehicle.get(traj.vehicle_id, []),
                window=det_cfg.eval_window,
            )
            tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
        match = detect.DetectionMatch(tp, fp, fn)
        out = workdir / f"detection_{method}.json"
        write_json({"method": method, "tp": tp, "fp": fp, "fn": fn,
                    "precision": match.precision, "recall": match.recall}, out)
        _log("evaluate-detection", method=method, precision=f"{match.precision:.3f}",
             recall=f"{match.recall:.3f}", report=_sha256(out))


def _detection_match(path: Path, method: str) -> detect.DetectionMatch:
    """The counts of a ``detection_<method>.json``; a file of another method
    or a count that is not a non-negative integer raises DatasetFormatError."""
    obj = read_json(path, DatasetFormatError)
    counts = [obj.get(key) for key in ("tp", "fp", "fn")]
    if obj.get("method") != method or not all(type(n) is int and n >= 0 for n in counts):
        raise DatasetFormatError(f"{path}: not the non-negative tp/fp/fn counts of method {method!r}")
    return detect.DetectionMatch(*counts)


def cmd_extract(cfg: Config, workdir: Path) -> None:
    meta, trajs = _load_tracks(workdir)
    cps = detect.read_change_points(_require(workdir / "changepoints.csv"))
    by_vehicle: dict[int, list] = {}
    for _, vid, cp in cps:
        by_vehicle.setdefault(vid, []).append(cp)
    dataset, summary = extraction.extract(
        trajs, by_vehicle, cfg.extract, config.override(cfg, "dgsfm", dt=meta.dt)
    )
    write_dataset(dataset, workdir / "dataset.jsonl", dt=meta.dt)
    write_json(vars(summary), workdir / "extract_summary.json")
    if not len(dataset):
        print("[extract] WARNING: zero records extracted (class filter or window coverage)")
    _log("extract", records=summary.extracted, skipped=summary.skipped_window,
         filtered=summary.filtered_class, dataset=_sha256(workdir / "dataset.jsonl"))


def cmd_augment(cfg: Config, workdir: Path) -> None:
    dataset, dt = read_dataset_arrays(_require(workdir / "dataset.jsonl"))
    seed = config.stage_seed(cfg, "augment")
    children, pairs = corpus.augment_corpus(dataset, dt, cfg.augment.n_augment, cfg.augment.min_gap, seed)
    both = Dataset(dataset.entries + children.entries, *zip(dataset.blocks, children.blocks))
    write_dataset(both, workdir / "dataset_augmented.jsonl", dt=dt)  # each block as its two parts
    corpus.write_pairs(pairs, workdir / "pairs.csv")
    _log("augment", pairs=len(pairs), seed=seed,
         dataset=_sha256(workdir / "dataset_augmented.jsonl"))


def cmd_train(cfg: Config, workdir: Path, lambda_cl=None, lambda_int=None, tag: str = "model") -> None:
    seed = config.stage_seed(cfg, "train")
    flags = {"lambda_cl": lambda_cl, "lambda_int": lambda_int}
    tcfg = config.override(cfg, "train", seed=seed,
                           **{name: value for name, value in flags.items() if value is not None})
    path = _require(workdir / "dataset.jsonl")
    dataset, _ = read_dataset_arrays(path)
    if not len(dataset):
        raise StageError(f"{path} holds 0 records; nothing to train on")
    invalid = sum(1 for violations in validate_arrays(*dataset.blocks) if violations)
    if invalid:
        raise StageError(f"{invalid} invalid records in {path}")
    rows = cvqvae.training_rows(dataset.tensor, dataset.mask, dataset.one_hot(), dataset.interaction)
    records = len(dataset)
    del dataset  # the float64 blocks: the steps read the float32 rows only
    params, history = cvqvae.train_rows(rows, tcfg)
    cvqvae.save_checkpoint(params, workdir / f"{tag}.ckpt")
    cvqvae.write_loss_history(history, workdir / f"{tag}_loss.csv")
    _log("train", tag=tag, records=records, live_slots=rows.n_live, epochs=tcfg.epochs,
         seed=seed, lambda_cl=tcfg.lambda_cl, lambda_int=tcfg.lambda_int,
         final_loss=f"{history[-1]['total']:.6f}",
         checkpoint=_sha256(workdir / f"{tag}.ckpt"))


def cmd_cluster(cfg: Config, workdir: Path, tag: str = "model") -> None:
    path, aug_path = _require(workdir / "dataset.jsonl"), workdir / "dataset_augmented.jsonl"
    if aug_path.exists():  # the base records again, then the held-out ones
        base, _ = read_dataset_header(path)
        dataset, _ = read_dataset_arrays(aug_path)
    else:
        dataset, _ = read_dataset_arrays(path)
        base = dataset.entries
    entries, tensor, mask = dataset.entries, dataset.tensor, dataset.mask
    del dataset  # and with it the interaction block, which cluster does not read
    n = len(base)
    try:
        params = cvqvae.load_checkpoint(_require(workdir / f"{tag}.ckpt"))
    except cvqvae.ContractError as exc:
        raise StageError(f"invalid checkpoint: {exc}") from exc
    # Loaded whole so that every block is checked; encode and assign read
    # the encoder, the standardization and the codebook only.
    del params.dec_w, params.dec_b, params.cl_w, params.cl_b, params.int_w, params.int_b
    if n < params.codebook_size:
        raise StageError(f"dataset.jsonl holds {n} base records, fewer than "
                         f"the checkpoint's codebook_size {params.codebook_size}")
    base_ids = {f["record_id"] for f in base}
    if entries[:n] != base or any(e["augmentation_parent"] not in base_ids for e in entries[n:]):
        raise StageError(f"{aug_path} is not the records of dataset.jsonl followed by their "
                         "augmentations; re-run augment")
    try:
        base_latents = cvqvae.encode(tensor[:n], mask[:n], params)
        held_out_latents = cvqvae.encode(tensor[n:], mask[n:], params)
    except cvqvae.ContractError as exc:
        raise StageError(f"invalid checkpoint: {exc}") from exc
    seed = config.stage_seed(cfg, "cluster")
    ids = [e["record_id"] for e in entries]
    rows = [(rid, backend, int(label)) for backend in cfg.cluster.backends
            for rid, label in zip(ids, clustering.assign(backend, base_latents, held_out_latents,
                                                          params.codebook, cfg.cluster, seed))]

    out = workdir / f"assignments_{tag}.csv"
    write_csv(out, ASSIGNMENT_COLUMNS, rows, lineterminator="\n")
    _log("cluster", tag=tag, rows=len(rows), seed=seed, assignments=_sha256(out))


ASSIGNMENT_COLUMNS = ("record_id", "backend", "label")


def _assignment_labels(path: Path, record_ids: set) -> dict[str, dict[str, int]]:
    """Backend -> record id -> label of an ``assignments_<tag>.csv``. Besides
    the damage ``read_csv`` finds, no rows, a backend not in
    ``clustering.BACKENDS``, a backend that does not assign each of
    ``record_ids`` exactly once, or a label outside [0, len(record_ids))
    raise DatasetFormatError. (Every backend has at most as many clusters
    as base records.)"""
    rows = read_csv(path, ASSIGNMENT_COLUMNS, lambda record_id, backend, label: (record_id, backend, int(label)))
    out: dict[str, dict[str, int]] = {}
    for record_id, backend, label in rows:
        out.setdefault(backend, {})[record_id] = label
    if (not out or not out.keys() <= set(clustering.BACKENDS) or len(rows) != len(out) * len(record_ids)
            or any(labels.keys() != record_ids for labels in out.values())
            or not all(0 <= label < len(record_ids) for _, _, label in rows)):
        raise DatasetFormatError(f"{path}: not one label in [0, {len(record_ids)}) per backend for each "
                                 "record of dataset.jsonl and each child of pairs.csv")
    return out


def cmd_evaluate_clustering(cfg: Config, workdir: Path, tag: str = "model") -> None:
    fields, _ = read_dataset_header(_require(workdir / "dataset.jsonl"))
    pairs_path = _require(workdir / "pairs.csv")
    pairs = corpus.read_pairs(pairs_path)
    class_of = {f["record_id"]: f["pseudo_class"] for f in fields}
    if not pairs or any(parent not in class_of for parent, _ in pairs):
        raise DatasetFormatError(f"{pairs_path}: no pair, or a parent that is not a record of dataset.jsonl")
    assignments = _assignment_labels(_require(workdir / f"assignments_{tag}.csv"),
                                     class_of.keys() | {child for _, child in pairs})
    result = {}
    for backend, labels in sorted(assignments.items()):
        base = np.array([labels[rid] for rid in class_of])
        _, h_avg = metrics.cluster_entropy(base, list(class_of.values()))
        acc = metrics.augmentation_accuracy(labels, pairs)
        result[backend] = {"purity_entropy": h_avg, "augmentation_accuracy": acc}
    out = workdir / f"clustering_{tag}.json"
    write_json(result, out)
    _log("evaluate-clustering", tag=tag, backends=len(result), report=_sha256(out))


def _clustering_metrics(path: Path) -> dict[str, dict]:
    """The backend -> metrics object of a ``clustering_<tag>.json``. No
    backend, one not in ``clustering.BACKENDS``, or one without a finite
    ``purity_entropy`` >= 0 and an ``augmentation_accuracy`` in [0, 1]
    raise DatasetFormatError."""
    obj = read_json(path, DatasetFormatError)
    for backend, entry in obj.items():
        purity, accuracy = (entry.get(key) if isinstance(entry, dict) else None
                            for key in ("purity_entropy", "augmentation_accuracy"))
        if not (backend in clustering.BACKENDS and {type(purity), type(accuracy)} <= {int, float}
                and 0 <= purity < math.inf and 0 <= accuracy <= 1):
            raise DatasetFormatError(f"{path}: backend {backend!r} needs a finite purity_entropy >= 0 "
                                     "and an augmentation_accuracy in [0, 1]")
    if not obj:
        raise DatasetFormatError(f"{path}: no backend")
    return obj


def cmd_report(cfg: Config, workdir: Path) -> None:
    detection_rows = []
    for method in ("rule", "ema"):
        path = workdir / f"detection_{method}.json"
        if path.exists():
            detection_rows.append((method, _detection_match(path, method)))
    clustering = {}
    no_dk = workdir / "clustering_no_dk.json"
    dk = workdir / "clustering_dk.json"
    if no_dk.exists() and dk.exists():
        nd, d = _clustering_metrics(no_dk), _clustering_metrics(dk)
        missing = [f"{path.name} lacks {', '.join(sorted(other.keys() - held.keys()))}"
                   for path, held, other in ((no_dk, nd, d), (dk, d, nd)) if other.keys() - held.keys()]
        if missing:
            raise DatasetFormatError(f"the clustering files hold different backends: {'; '.join(missing)}")
        clustering = {"no_dk": nd, "dk": d}
    report = metrics.build_report(detection_rows, clustering)
    metrics.write_report(report, workdir / "report.json", workdir / "report.txt")
    _log("report", detection_rows=len(detection_rows),
         clustering_rows=len(report.get("clustering", ())), report=_sha256(workdir / "report.json"))


def cmd_gradcheck(cfg: Config, workdir: Path) -> int:
    seed = config.stage_seed(cfg, "gradcheck")
    dataset = corpus.build_archetype_corpus(1, seed, dgsfm.DgsfmConfig())
    tcfg = cvqvae.TrainConfig(hidden=(16, 16), latent_dim=8, codebook_size=4, seed=seed)
    inputs, masks, cls, inter = dataset.tensor[:1], dataset.mask[:1], dataset.one_hot()[:1], dataset.interaction[:1]
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(
        tcfg, np.random.default_rng(seed), feature_shift=shift, feature_scale=scale
    )
    err = cvqvae.grad_check_arrays(inputs, masks, cls, inter, params, tcfg, n_checks=150, seed=seed)
    _log("gradcheck", max_rel_error=f"{err:.3e}", seed=seed)
    return 0 if err < 1e-4 else 1


def cmd_pipeline(cfg: Config, workdir: Path) -> None:
    cmd_synth(cfg, workdir)
    if cfg.synth.kind == "trajectories":
        cmd_detect(cfg, workdir, method="rule")
        cmd_detect(cfg, workdir, method="ema")
        cmd_extract(cfg, workdir)
    cmd_augment(cfg, workdir)
    cmd_train(cfg, workdir, lambda_cl=0.0, lambda_int=0.0, tag="no_dk")
    cmd_train(cfg, workdir, tag="dk")
    for tag in ("no_dk", "dk"):
        cmd_cluster(cfg, workdir, tag=tag)
        cmd_evaluate_clustering(cfg, workdir, tag=tag)
    cmd_report(cfg, workdir)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_TAG = ("--tag", {"default": "model"})

# Subcommand -> (stage call, its options); each option's value is passed to
# the call as the keyword argparse derives from the flag.
COMMANDS = {
    "synth": (cmd_synth,),
    "ingest": (cmd_ingest, ("--tracks", {"required": True}), ("--meta", {"required": True})),
    "detect": (cmd_detect, ("--method", {"choices": ("rule", "ema"), "default": "rule"})),
    "extract": (cmd_extract,),
    "augment": (cmd_augment,),
    "train": (cmd_train, ("--lambda-cl", {"type": float}), ("--lambda-int", {"type": float}), _TAG),
    "cluster": (cmd_cluster, _TAG),
    "evaluate": (cmd_evaluate_clustering, _TAG),
    "report": (cmd_report,),
    "gradcheck": (cmd_gradcheck,),
    "pipeline": (cmd_pipeline,),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scenmine", description=__doc__)
    parser.add_argument("--config", help="YAML config file (defaults built in)")
    parser.add_argument("--workdir", help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, help="top-level seed (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, *options) in COMMANDS.items():
        command = sub.add_parser(name)
        for flag, spec in options:
            command.add_argument(flag, **spec)

    options = vars(parser.parse_args(argv))
    run = COMMANDS[options.pop("command")][0]
    config_path, workdir, seed = options.pop("config"), options.pop("workdir"), options.pop("seed")
    try:
        cfg = config.load_config(config_path)
        try:
            cfg = dataclasses.replace(cfg, workdir=cfg.workdir if workdir is None else workdir,
                                      seed=cfg.seed if seed is None else seed)
        except ValueError as exc:
            raise config.ConfigError(str(exc)) from exc
        workdir = Path(cfg.workdir)
        try:
            workdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StageError(f"cannot use workdir {workdir}: {exc.strerror}") from exc
        return run(cfg, workdir, **options) or 0
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StageError, FileNotFoundError, DatasetFormatError) as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 3
    except (ingest.ParseError, ingest.IntegrityError, ingest.ScriptError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (cvqvae.TrainingError, cvqvae.ContractError, extraction.AugmentationError, MemoryError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

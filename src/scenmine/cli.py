"""Command-line pipeline: synth -> detect -> extract -> augment -> train ->
cluster -> evaluate -> report, with per-stage artifacts on disk and one
deterministic summary line per stage.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import clustering, config, corpus, cvqvae, detect, dgsfm, extraction, ingest, metrics
from .types import (
    DatasetFormatError,
    LatState,
    read_dataset,
    validate_record,
    write_dataset,
)


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


def _section_config(cfg: dict, section: str, build):
    """Builds a stage's config object from ``cfg[section]``; a value the
    object or its conversion rejects is a ConfigError (exit 2)."""
    try:
        return build(cfg[section])
    except (TypeError, ValueError) as exc:
        raise config.ConfigError(f"invalid {section} section: {exc}") from exc


def _detector_config(cfg: dict) -> detect.DetectorConfig:
    return _section_config(cfg, "detect", lambda d: detect.DetectorConfig(
        up_pairs=tuple((float(t), int(n)) for t, n in d["up_pairs"]),
        tau_down=float(d["tau_down"]),
        n_down=int(d["n_down"]),
        tau_extreme=float(d["tau_extreme"]),
        tau_lc=float(d["tau_lc"]),
        min_segment=int(d["min_segment"]),
    ))


def _dgsfm_config(cfg: dict, dt: float) -> dgsfm.DgsfmConfig:
    return _section_config(cfg, "dgsfm", lambda g: dgsfm.DgsfmConfig(
        egg=dgsfm.EggPotentialParams(
            amplitude=float(g["amplitude"]),
            sigma=float(g["sigma"]),
            forward_stretch=float(g["forward_stretch"]),
            rear_compress=float(g["rear_compress"]),
            lateral_scale=float(g["lateral_scale"]),
        ),
        tau_sum=float(g["tau_sum"]),
        n_dg=int(g["n_dg"]),
        dt=dt,
        softmax_temperature=float(g["softmax_temperature"]),
    ))


def _extraction_config(cfg: dict) -> extraction.ExtractionConfig:
    return _section_config(cfg, "extract", lambda e: extraction.ExtractionConfig(
        pre_frames=int(e["pre_frames"]),
        post_frames=int(e["post_frames"]),
        tensor_offset=int(e["tensor_offset"]),
        neighbor_radius=float(e["neighbor_radius"]),
        class_filter=frozenset(
            (LatState(a), LatState(b)) for a, b in e["class_filter"]
        ) if e["class_filter"] else None,
    ))


def _train_config(cfg: dict, seed: int, lambda_cl=None, lambda_int=None) -> cvqvae.TrainConfig:
    return _section_config(cfg, "train", lambda t: cvqvae.TrainConfig(
        lambda_cl=float(t["lambda_cl"] if lambda_cl is None else lambda_cl),
        lambda_int=float(t["lambda_int"] if lambda_int is None else lambda_int),
        learning_rate=float(t["learning_rate"]),
        batch_size=int(t["batch_size"]),
        epochs=int(t["epochs"]),
        seed=seed,
        commitment_weight=float(t["commitment_weight"]),
        dead_code_threshold=float(t["dead_code_threshold"]),
        usage_decay=float(t["usage_decay"]),
        revival_noise=float(t["revival_noise"]),
        hidden=tuple(int(h) for h in t["hidden"]),
        latent_dim=int(t["latent_dim"]),
        codebook_size=int(t["codebook_size"]),
    ))


def _cluster_config(cfg: dict) -> tuple[tuple[str, ...], str, int]:
    """(backends, linkage, max_iter) of the cluster section."""
    def build(c):
        backends = tuple(c["backends"])
        unknown = [b for b in backends if b not in clustering.BACKENDS]
        if unknown or not backends:
            raise ValueError(f"backends {list(backends)} must be some of {list(clustering.BACKENDS)}")
        if c["linkage"] not in clustering.LINKAGES:
            raise ValueError(f"unknown linkage {c['linkage']!r}; expected one of {list(clustering.LINKAGES)}")
        max_iter = int(c["max_iter"])
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {max_iter}")
        return backends, c["linkage"], max_iter
    return _section_config(cfg, "cluster", build)


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

def cmd_synth(cfg: dict, workdir: Path) -> None:
    s = cfg["synth"]
    seed = config.stage_seed(cfg, "synth")
    dt = float(s["dt"])
    if s["kind"] == "trajectories":
        scripts = _make_scripts(int(s["n_trajectories"]), float(s["noise_sigma_accel"]), seed)
        trajs, truths = ingest.generate_synthetic(scripts, dt, seed, recording_id="synthetic")
        ingest.write_tracks_csv(trajs, workdir / "tracks.csv")
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
            tracks=_sha256(workdir / "tracks.csv"),
        )
    elif s["kind"] == "archetypes":
        records = corpus.build_archetype_corpus(
            n_per_class=int(s["n_per_class"]), seed=seed, dt=dt,
            dgsfm_cfg=_dgsfm_config(cfg, dt),
        )
        write_dataset(records, workdir / "dataset.jsonl", dt=dt)
        _log("synth", kind="archetypes", n=len(records), seed=seed,
             dataset=_sha256(workdir / "dataset.jsonl"))
    else:
        raise config.ConfigError(f"unknown synth kind {s['kind']!r}")


def cmd_ingest(cfg: dict, workdir: Path, tracks: str, meta_path: str) -> None:
    meta = ingest.read_meta_json(_require(Path(meta_path)))
    trajs = ingest.read_tracks_csv(_require(Path(tracks)), meta)
    kept = ingest.filter_three_lane([(meta, trajs)])
    normalized: list = []
    for m, ts in kept:
        normalized.extend(ingest.normalize_direction(t, m) for t in ts)
    ingest.write_tracks_csv(normalized, workdir / "tracks.csv")
    ingest.write_meta_json(meta, workdir / "meta.json")
    _log("ingest", recordings_kept=len(kept), trajectories=len(normalized),
         tracks=_sha256(workdir / "tracks.csv"))


def _load_tracks(workdir: Path) -> tuple[ingest.RecordingMeta, list]:
    meta = ingest.read_meta_json(_require(workdir / "meta.json"))
    trajs = ingest.read_tracks_csv(_require(workdir / "tracks.csv"), meta)
    return meta, trajs


def _ema_windows(values) -> tuple[int, ...]:
    windows = tuple(int(w) for w in values)
    if not windows or min(windows) < 1:
        raise ValueError(f"ema_window_sizes must be positive frame counts, got {list(windows)}")
    return windows


def cmd_detect(cfg: dict, workdir: Path, method: str = "rule") -> None:
    det_cfg = _detector_config(cfg)
    ema_windows, ema_alpha, eval_window = _section_config(cfg, "detect", lambda d: (
        _ema_windows(d["ema_window_sizes"]),
        float(d["ema_alpha"]),
        int(d["eval_window"]),
    ))
    meta, trajs = _load_tracks(workdir)
    rows = []
    predictions: dict[int, list] = {}
    skipped_short = 0
    for traj in trajs:
        if method == "rule":
            cps = detect.detect_rule_based(traj, det_cfg)
            predictions[traj.vehicle_id] = [(cp.t_c, cp.label_after) for cp in cps]
            rows.extend((traj.recording_id, traj.vehicle_id, cp) for cp in cps)
        elif method == "ema":
            if len(traj) < min(ema_windows):
                # Shorter than every EMA window: no energy series, no events.
                skipped_short += 1
                frames = []
            else:
                frames = detect.detect_ema(traj, window_sizes=ema_windows, ema_alpha=ema_alpha)
            predictions[traj.vehicle_id] = [(f, None) for f in frames]
        else:
            raise config.ConfigError(f"unknown detect method {method!r}")
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
                window=eval_window,
                match_labels=(method == "rule"),
            )
            tp, fp, fn = tp + m.tp, fp + m.fp, fn + m.fn
        match = detect.DetectionMatch(tp, fp, fn)
        out = workdir / f"detection_{method}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(
                {"method": method, "tp": tp, "fp": fp, "fn": fn,
                 "precision": match.precision, "recall": match.recall},
                fh, indent=2, sort_keys=True)
            fh.write("\n")
        _log("evaluate-detection", method=method, precision=f"{match.precision:.3f}",
             recall=f"{match.recall:.3f}", report=_sha256(out))


def cmd_extract(cfg: dict, workdir: Path) -> None:
    ext_cfg = _extraction_config(cfg)
    meta, trajs = _load_tracks(workdir)
    cps = detect.read_change_points(_require(workdir / "changepoints.csv"))
    by_vehicle: dict[int, list] = {}
    for _, vid, cp in cps:
        by_vehicle.setdefault(vid, []).append(cp)
    records, summary = extraction.extract(
        trajs, by_vehicle, ext_cfg, _dgsfm_config(cfg, meta.dt)
    )
    write_dataset(records, workdir / "dataset.jsonl", dt=meta.dt)
    with open(workdir / "extract_summary.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "extracted": summary.extracted,
                "skipped_window": summary.skipped_window,
                "filtered_class": summary.filtered_class,
                "per_class_counts": {str(k): v for k, v in summary.per_class_counts.items()},
            },
            fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not records:
        print("[extract] WARNING: zero records extracted (class filter or window coverage)")
    _log("extract", records=summary.extracted, skipped=summary.skipped_window,
         filtered=summary.filtered_class, dataset=_sha256(workdir / "dataset.jsonl"))


def cmd_augment(cfg: dict, workdir: Path) -> None:
    records, dt = read_dataset(_require(workdir / "dataset.jsonl"))
    seed = config.stage_seed(cfg, "augment")
    a = cfg["augment"]
    n_augment = min(int(a["n_augment"]), len(records))
    augmented, pairs = corpus.augment_corpus(
        records, n_augment=n_augment, min_gap=float(a["min_gap"]), seed=seed
    )
    write_dataset(list(records) + augmented, workdir / "dataset_augmented.jsonl", dt=dt)
    corpus.write_pairs(pairs, workdir / "pairs.csv")
    _log("augment", pairs=len(pairs), seed=seed,
         dataset=_sha256(workdir / "dataset_augmented.jsonl"))


def cmd_train(cfg: dict, workdir: Path, lambda_cl=None, lambda_int=None, tag: str = "model") -> None:
    seed = config.stage_seed(cfg, "train")
    tcfg = _train_config(cfg, seed, lambda_cl, lambda_int)
    path = workdir / "dataset.jsonl"
    records, _ = read_dataset(_require(path))
    if not records:
        raise StageError(f"{path} holds 0 records; nothing to train on")
    invalid = sum(1 for r in records if validate_record(r))
    if invalid:
        raise StageError(f"{invalid} invalid records in {path}")
    params, history = cvqvae.train(records, tcfg)
    cvqvae.save_checkpoint(params, workdir / f"{tag}.ckpt")
    cvqvae.write_loss_history(history, workdir / f"{tag}_loss.csv")
    _log("train", tag=tag, records=len(records), epochs=tcfg.epochs, seed=seed,
         lambda_cl=tcfg.lambda_cl, lambda_int=tcfg.lambda_int,
         final_loss=f"{history[-1].total:.6f}",
         checkpoint=_sha256(workdir / f"{tag}.ckpt"))


def cmd_cluster(cfg: dict, workdir: Path, tag: str = "model") -> None:
    backends, linkage, max_iter = _cluster_config(cfg)
    records, _ = read_dataset(_require(workdir / "dataset.jsonl"))
    aug_path = workdir / "dataset_augmented.jsonl"
    all_records = read_dataset(aug_path)[0] if aug_path.exists() else records
    try:
        params = cvqvae.load_checkpoint(_require(workdir / f"{tag}.ckpt"))
    except cvqvae.ContractError as exc:
        raise StageError(f"invalid checkpoint: {exc}") from exc
    k = params.codebook_size
    if len(records) < k:
        raise StageError(f"dataset.jsonl holds {len(records)} base records, fewer than "
                         f"the checkpoint's codebook_size {k}")
    seed = config.stage_seed(cfg, "cluster")
    base_ids = {r.record_id for r in records}
    train_latents = clustering.encode_latents(records, params)
    extra = [r for r in all_records if r.record_id not in base_ids]
    extra_latents = clustering.encode_latents(extra, params) if extra else np.zeros((0, params.latent_dim))

    rows: list[tuple[str, str, int]] = []
    for backend in backends:
        if backend == "codebook":
            assign = clustering.assign_codebook(records + extra, params)
            labels = dict(zip(assign.record_ids, assign.labels))
        elif backend == "kmeans":
            assign, centroids = clustering.kmeans(
                train_latents, k, seed=seed, max_iter=max_iter,
                record_ids=tuple(r.record_id for r in records))
            labels = dict(zip(assign.record_ids, assign.labels))
            if extra:
                for r, lbl in zip(extra, clustering.assign_to_centroids(extra_latents, centroids)):
                    labels[r.record_id] = lbl
        else:  # hierarchical
            assign = clustering.hierarchical(
                train_latents, k, linkage=linkage,
                record_ids=tuple(r.record_id for r in records))
            labels = dict(zip(assign.record_ids, assign.labels))
            if extra:
                extra_labels = clustering.assign_to_nearest_member(
                    extra_latents, train_latents, assign.labels)
                for r, lbl in zip(extra, extra_labels):
                    labels[r.record_id] = lbl
        rows.extend((rid, backend, int(lbl)) for rid, lbl in labels.items())

    out = workdir / f"assignments_{tag}.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("record_id,backend,label\n")
        for rid, backend, lbl in rows:
            fh.write(f"{rid},{backend},{lbl}\n")
    _log("cluster", tag=tag, rows=len(rows), seed=seed, assignments=_sha256(out))


def _read_assignments(path: Path) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            rid, backend, lbl = line.strip().split(",")
            out.setdefault(backend, {})[rid] = int(lbl)
    return out


def cmd_evaluate_clustering(cfg: dict, workdir: Path, tag: str = "model") -> None:
    records, _ = read_dataset(_require(workdir / "dataset.jsonl"))
    pairs = corpus.read_pairs(_require(workdir / "pairs.csv"))
    assignments = _read_assignments(_require(workdir / f"assignments_{tag}.csv"))
    class_of = {r.record_id: r.pseudo_class.index for r in records}
    result = {}
    for backend, labels in sorted(assignments.items()):
        base = [(rid, lbl) for rid, lbl in labels.items() if rid in class_of]
        arr = clustering.ClusterAssignment(
            backend=backend,
            labels=np.array([lbl for _, lbl in base]),
            k=max(lbl for _, lbl in base) + 1,
            record_ids=tuple(rid for rid, _ in base),
        )
        _, h_avg = metrics.cluster_entropy(arr, [class_of[rid] for rid, _ in base])
        acc = metrics.augmentation_accuracy(labels, pairs)
        result[backend] = {"purity_entropy": h_avg, "augmentation_accuracy": acc}
    out = workdir / f"clustering_{tag}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _log("evaluate-clustering", tag=tag, backends=len(result), report=_sha256(out))


def cmd_report(cfg: dict, workdir: Path) -> None:
    detection_rows = []
    for method in ("rule", "ema"):
        path = workdir / f"detection_{method}.json"
        if path.exists():
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            detection_rows.append(
                (obj["method"], detect.DetectionMatch(obj["tp"], obj["fp"], obj["fn"]))
            )
    clustering_rows = []
    no_dk = workdir / "clustering_no_dk.json"
    dk = workdir / "clustering_dk.json"
    if no_dk.exists() and dk.exists():
        with open(no_dk, "r", encoding="utf-8") as fh:
            nd = json.load(fh)
        with open(dk, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        for backend in sorted(set(nd) & set(d)):
            clustering_rows.append(
                metrics.ClusteringRow(
                    backend=backend,
                    no_dk_purity=nd[backend]["purity_entropy"],
                    no_dk_accuracy=nd[backend]["augmentation_accuracy"],
                    dk_purity=d[backend]["purity_entropy"],
                    dk_accuracy=d[backend]["augmentation_accuracy"],
                )
            )
    report = metrics.build_report(detection_rows, clustering_rows)
    metrics.write_report(report, workdir / "report.json", workdir / "report.txt")
    _log("report", detection_rows=len(detection_rows),
         clustering_rows=len(clustering_rows), report=_sha256(workdir / "report.json"))


def cmd_gradcheck(cfg: dict, workdir: Path) -> int:
    seed = config.stage_seed(cfg, "gradcheck")
    records = corpus.build_archetype_corpus(n_per_class=1, seed=seed)
    tcfg = cvqvae.TrainConfig(hidden=(16, 16), latent_dim=8, codebook_size=4, seed=seed)
    inputs, masks, _, _ = cvqvae._record_arrays(records[:1])
    shift, scale = cvqvae.fit_standardization(inputs, masks)
    params = cvqvae.init_params(
        tcfg, np.random.default_rng(seed), feature_shift=shift, feature_scale=scale
    )
    err = cvqvae.grad_check(records[0], params, tcfg, epsilon=1e-3, n_checks=150, seed=seed)
    _log("gradcheck", max_rel_error=f"{err:.3e}", seed=seed)
    return 0 if err < 1e-4 else 1


def cmd_pipeline(cfg: dict, workdir: Path) -> None:
    _cluster_config(cfg)  # a bad cluster section fails before any training
    cmd_synth(cfg, workdir)
    if cfg["synth"]["kind"] == "trajectories":
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

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scenmine", description=__doc__)
    parser.add_argument("--config", help="YAML config file (defaults built in)")
    parser.add_argument("--workdir", help="artifact directory (overrides config)")
    parser.add_argument("--seed", type=int, help="top-level seed (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth")
    p_ingest = sub.add_parser("ingest")
    p_ingest.add_argument("--tracks", required=True)
    p_ingest.add_argument("--meta", required=True)
    p_detect = sub.add_parser("detect")
    p_detect.add_argument("--method", choices=("rule", "ema"), default="rule")
    sub.add_parser("extract")
    sub.add_parser("augment")
    p_train = sub.add_parser("train")
    p_train.add_argument("--lambda-cl", type=float, default=None)
    p_train.add_argument("--lambda-int", type=float, default=None)
    p_train.add_argument("--tag", default="model")
    p_cluster = sub.add_parser("cluster")
    p_cluster.add_argument("--tag", default="model")
    p_eval = sub.add_parser("evaluate")
    p_eval.add_argument("--tag", default="model")
    sub.add_parser("report")
    sub.add_parser("gradcheck")
    sub.add_parser("pipeline")

    args = parser.parse_args(argv)
    try:
        cfg = config.load_config(args.config)
        if args.workdir is not None:
            cfg["workdir"] = args.workdir
        if args.seed is not None:
            cfg["seed"] = args.seed
        workdir = Path(cfg["workdir"])
        workdir.mkdir(parents=True, exist_ok=True)

        if args.command == "synth":
            cmd_synth(cfg, workdir)
        elif args.command == "ingest":
            cmd_ingest(cfg, workdir, args.tracks, args.meta)
        elif args.command == "detect":
            cmd_detect(cfg, workdir, method=args.method)
        elif args.command == "extract":
            cmd_extract(cfg, workdir)
        elif args.command == "augment":
            cmd_augment(cfg, workdir)
        elif args.command == "train":
            cmd_train(cfg, workdir, args.lambda_cl, args.lambda_int, tag=args.tag)
        elif args.command == "cluster":
            cmd_cluster(cfg, workdir, tag=args.tag)
        elif args.command == "evaluate":
            cmd_evaluate_clustering(cfg, workdir, tag=args.tag)
        elif args.command == "report":
            cmd_report(cfg, workdir)
        elif args.command == "gradcheck":
            return cmd_gradcheck(cfg, workdir)
        elif args.command == "pipeline":
            cmd_pipeline(cfg, workdir)
        return 0
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StageError, FileNotFoundError, DatasetFormatError) as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 3
    except (ingest.ParseError, ingest.IntegrityError, ingest.ScriptError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (cvqvae.TrainingError, cvqvae.ContractError, detect.StateError,
            extraction.AugmentationError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())

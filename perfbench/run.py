"""scenmine benchmark: runs one workload through ``scenmine.cli.main``, one
stage call at a time, and prints its metrics. See perfbench/README.md.

    python3 perfbench/run.py --workload default_pipeline --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout. The stage calls of a run are made
by one fresh Python process (one caller, closed loop), pass after pass. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import REF_CALIBRATION_S  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_SPAWNS = 10       # set-up-only spawns per run: half before measuring, half after
RUN_LIMIT_S = 170.0     # every run must end within 180 s
WORK_DIR = ".perfbench_work"
BLAS1_BATCH = 32        # train.batch_size of every workload (the config default)
BLAS1_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# name -> unit, in print order. All are present and non-zero on every workload.
END_TO_END = {
    "pipeline_s": "s", "scenarios_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "dataset_s": "s", "train_s": "s", "cluster_s": "s",
}
# Finer stage times, printed but not gated: most exist only on the workloads
# that run the stage, and augment_s is too short on default_pipeline to be
# steady on a shared machine.
STAGE_TIMES = ("synth_s", "ingest_s", "detect_s", "extract_s", "augment_s")


class BenchError(Exception):
    """A worker process failed, or the run reached its time limit."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, trace: bool) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.base = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.config = self.base / "config.yaml"
        write_config(self.workload, self.config)
        # Every worker runs BLAS on one thread, like the calibration kernel: on
        # two shared vCPUs a second BLAS thread times the other vCPU's
        # neighbours as much as the program.
        self.env = {**os.environ, **BLAS1_ENV}
        self.setup_s: list[float] = []      # scaled to the reference calibration
        self.setup_wall_s: list[float] = []

    def spawn(self, mode: str, *extra: str, config: Path | None = None) -> None:
        """Runs one worker process to completion and records its set-up time."""
        cmd = [sys.executable, str(WORKER), mode, "--root", str(self.root),
               "--config", str(config or self.config), "--seed", str(self.seed), *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit reached before worker {mode}")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} exceeded the run time limit") from exc
        if proc.returncode != 0 or not proc.stdout.startswith("ready "):
            raise BenchError(
                f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        _, ready, calibration = proc.stdout.split(maxsplit=3)[:3]
        wall = float(ready) - t_spawn
        self.setup_wall_s.append(wall)
        self.setup_s.append(wall * REF_CALIBRATION_S / float(calibration))

    def stages(self, tag: str, seconds: float = 0.0, trace: bool = False) -> dict:
        """Runs the stage calls in one process: passes for ``seconds``, or
        one traced pass."""
        rep = self.base / tag
        work = rep / "work"
        work.mkdir(parents=True)
        extra = ["--workload", self.workload.name, "--workdir", str(work),
                 "--out", str(rep / "result.json")]
        if self.workload.recording:
            shutil.copyfile(self.base / "recording" / "truth.csv", work / "truth.csv")
            extra += ["--recording", str(self.base / "recording")]
        extra += ["--trace"] if trace else ["--seconds", repr(seconds)]
        self.spawn("stages", *extra)
        return json.loads((rep / "result.json").read_text())

    def setups(self, n: int) -> None:
        for _ in range(n):
            self.spawn("setup")

    def cleanup(self, tag: str) -> None:
        shutil.rmtree(self.base / tag / "work", ignore_errors=True)


def run_metrics(result: dict) -> dict[str, float]:
    """End-to-end and stage metrics of the measured passes; a call's time is
    the median over its passes."""
    groups: dict[str, float] = {}
    for call in result["calls"]:
        # A set: a stage named like its group (train, cluster) counts once.
        for key in {f"{call['group']}_s", f"{call['stage']}_s"}:
            groups[key] = groups.get(key, 0.0) + call["seconds"]
    out = {
        "pipeline_s": result["pipeline_s"],
        "scenarios_per_s": result["records"] / result["pipeline_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for key in ("dataset_s", "train_s", "cluster_s") + STAGE_TIMES:
        if key in groups:
            out[key] = groups[key]
    return out


def hash_list(result: dict) -> list:
    return [h for call in result["calls"] for h in call["hashes"]]


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def check_hash_record(root: Path, key: str, digest: str, hashes: list, notes: list) -> bool:
    """Compares artifact hashes with earlier runs of the same workload and
    seed in this checkout. Same source: they must match. Other source: the
    change is reported, not failed."""
    path = root / WORK_DIR / "hashes.json"
    record = json.loads(path.read_text()) if path.is_file() else {}
    seen = record.setdefault(key, {})
    for other, old in seen.items():
        if other != digest and old != hashes:
            changed = sorted({f"{a[0]}.{a[1]}" for a, b in zip(old, hashes) if a != b})
            notes.append(f"artifact hashes changed vs source {other}: {', '.join(changed)}")
    ok = seen.setdefault(digest, hashes) == hashes
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return ok


def cross_checks(measured: dict, extra: dict, record_ok: bool) -> list[tuple[str, bool]]:
    """Checks that compare whole runs, as (description, passed). Each counts
    as one attempted call."""
    hashes = hash_list(measured)
    checks = []
    if "traced" in extra:
        checks.append(("artifact hashes of the traced pass equal the untraced passes",
                       hash_list(extra["traced"]) == hashes))
    parity = extra.get("parity")
    if parity is not None:
        checks.append(("`scenmine pipeline` prints the hashes of the stage-by-stage run",
                       parity["rc"] == 0 and parity["hashes"] == hashes))
    checks.append(("artifact hashes equal earlier runs of the same source", record_ok))
    return checks


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the untraced passes and the extra results of a traced run.
    A traced run measures untraced passes for half the time, for the
    tracing overhead and the checks."""
    runner.setups(SETUP_SPAWNS // 2)
    if runner.workload.recording:
        runner.spawn("recording", "--workdir", str(runner.base / "recording"))
    measured = runner.stages("measure", seconds / 2 if trace else seconds)
    runner.cleanup("measure")
    runner.setups(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    extra = traced_extras(runner) if trace else {}
    shutil.rmtree(runner.base / "recording", ignore_errors=True)
    return measured, extra


def traced_extras(runner: Runner) -> dict:
    """The traced pass, the BLAS-1 training run and, on
    default_pipeline, the `scenmine pipeline` parity run."""
    extra = {"traced": runner.stages("traced", trace=True), "blas1": {"batch_ms": 0.0, "env": {}}}
    dataset = runner.base / "traced" / "work" / "dataset.jsonl"
    if dataset.is_file():  # a failed pipeline leaves nothing to train on
        blas1 = runner.base / "blas1"
        blas1.mkdir()
        shutil.copyfile(dataset, blas1 / "dataset.jsonl")
        # Enough epochs for ~40 batches, so model set-up is a small share of each.
        batches_per_epoch = max(1, -(-extra["traced"]["records"] // BLAS1_BATCH))
        cfg = dict(runner.workload.config)
        cfg["train"] = {**cfg.get("train", {}), "epochs": max(2, -(-40 // batches_per_epoch))}
        (blas1 / "config.yaml").write_text(json.dumps(cfg))
        runner.spawn("blas1", "--workdir", str(blas1), "--out", str(blas1 / "result.json"),
                     config=blas1 / "config.yaml")
        extra["blas1"] = json.loads((blas1 / "result.json").read_text())
        for name in ("dataset.jsonl", "blas1.ckpt"):
            (blas1 / name).unlink(missing_ok=True)
    runner.cleanup("traced")
    if runner.workload.name == "default_pipeline":
        parity = runner.base / "parity"
        parity.mkdir()
        runner.spawn("pipeline", "--workdir", str(parity / "work"),
                     "--out", str(parity / "result.json"))
        extra["parity"] = json.loads((parity / "result.json").read_text())
        shutil.rmtree(parity / "work", ignore_errors=True)
    return extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "scenmine" / "cli.py").is_file():
        print(f"perfbench: {root} is not a scenmine source checkout (no src/scenmine/cli.py)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, bool(args.trace))
    try:
        measured, extra = measure(runner, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    notes: list[str] = []
    runs = [measured] + ([extra["traced"]] if "traced" in extra else [])
    calls = [c for r in runs for c in r["calls"]]
    for c in calls:
        if c["errors"]:
            notes.append(f"FAILED {' '.join(c['argv'])}: {'; '.join(c['errors'])}")
    digest = src_digest(root)
    hashes = hash_list(measured)
    record_ok = check_hash_record(root, f"{args.workload}/seed{args.seed}", digest, hashes, notes)
    checks = cross_checks(measured, extra, record_ok)
    notes.extend(f"FAILED {name}" for name, ok in checks if not ok)
    # Every pass of a call is one attempted stage call; each error fails one.
    attempted = sum(len(c["runs"]) for c in calls) + len(checks)
    failed = (sum(min(len(c["errors"]), len(c["runs"])) for c in calls)
              + sum(1 for _, ok in checks if not ok))

    values = run_metrics(measured)
    values["setup_s"] = statistics.median(runner.setup_s)

    env = dict(measured["env"], commit=git_commit(root), src_sha256=digest)
    print(f"perfbench {args.workload} seed={args.seed} passes={measured['passes']} "
          f"attempted={attempted} setup_samples={len(runner.setup_s)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wall pipeline_s={measured['wall_s']:.6g} s (unscaled) "
          f"calibration={measured['calibration_ms']:.4g} ms (reference "
          f"{REF_CALIBRATION_S * 1e3:.4g} ms), setup_s="
          f"{statistics.median(runner.setup_wall_s):.6g} s (unscaled)")
    print("hashes " + " ".join(f"{t}.{k}={h}" for t, k, h in hashes))
    if measured["precision"] is not None:
        print(f"detect rule precision={measured['precision']:.4f} "
              f"recall={measured['recall']:.4f}")
    for k in list(END_TO_END) + [k for k in STAGE_TIMES if k in values]:
        print(f"metric {k} {values[k]:.6g} {END_TO_END.get(k, 's')}")
    print(f"metric error_rate {failed / attempted:.6g} ratio")
    for note in notes:
        print(note)

    if args.trace:
        traced = extra["traced"]
        layers = dict(traced["layers"])
        layers["cvqvae.batch_ms.blas1"] = (extra["blas1"]["batch_ms"], "ms")
        layers["detect.rule.precision"] = (measured["precision"] or 0.0, "ratio")
        layers["detect.rule.recall"] = (measured["recall"] or 0.0, "ratio")
        traced_pipeline = traced["pipeline_s"]
        layers["trace.pipeline_s"] = (traced_pipeline, "s")
        # The traced pass is the first of its process, so it is set against
        # the first untraced pass.
        layers["trace.overhead_s"] = (traced_pipeline - measured["first_pass_s"], "s")
        layers["trace.spans"] = (traced["spans"], "count")
        layers["trace.absent_targets"] = (len(traced["absent"]), "count")
        layers["error_rate"] = (failed / attempted, "ratio")
        print("blas1 env " + json.dumps(extra["blas1"]["env"], sort_keys=True))
        if traced["absent"]:
            print("absent (no longer defined by the program): " + ", ".join(traced["absent"]))
        print(f"spans written to {runner.base / 'traced' / 'spans.jsonl'}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

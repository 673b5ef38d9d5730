"""One benchmark process. ``run.py`` starts a fresh one for each job:

    worker.py setup     --root R --config C
    worker.py recording --root R --seed N --workdir D
    worker.py stages    --root R --workload W --seed N --config C --workdir D --out F
                        (--seconds S | --trace)
    worker.py pipeline  --root R --seed N --config C --workdir D --out F
    worker.py blas1     --root R --seed N --config C --workdir D --out F

Every mode first imports ``scenmine.cli`` from ``R/src`` and loads the
config, then prints the monotonic clock and one calibration time, so the
parent can time set-up as process spawn -> program ready, scaled like the
stage times. ``stages`` calls ``scenmine.cli.main`` for each stage in
pipeline order, pass after pass for S seconds (one pass when traced), then
checks the outputs untimed.
"""
from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

LOG_RE = re.compile(r"^\[([^\]]+)\]")
HASH_RE = re.compile(r"(\w+)=([0-9a-f]{12})\b")
MAX_PASSES = 50   # untraced, passes over all stage calls stop here at the latest
# What _calibrate() takes on the reference machine (2-vCPU x86_64 VM, Python
# 3.11). Stage times are scaled to it: a call that took t while the kernel
# took c around it counts as t * REF_CALIBRATION_S / c.
REF_CALIBRATION_S = 0.030
CALIBRATION_WINDOW = 3  # c is the mean of this many kernel runs before the call and after it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program(root: Path, config_path: str):
    src = str(root / "src")
    sys.path.insert(0, src)
    from scenmine import cli, config

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"scenmine imported from {cli.__file__}, not from {src}")
    config.load_config(config_path)
    return cli


def _hash_lines(text: str) -> list[list[str]]:
    """[tag, key, hash] for every 12-hex hash a stage printed."""
    out = []
    for line in text.splitlines():
        tag = LOG_RE.match(line)
        if tag:
            out.extend([tag.group(1), k, h] for k, h in HASH_RE.findall(line))
    return out


def _cpu_s() -> float:
    """User+sys CPU time of this process, all threads included."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _calibrate() -> float:
    """Seconds of a fixed pure-Python and numpy kernel that does not touch
    BLAS, so it reads the machine's speed and not the program's state."""
    import numpy as np

    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(120_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    x = np.linspace(0.0, 1.0, 4096)
    for _ in range(500):
        x = np.sqrt(x * x + 0.5) - np.tanh(x) * 0.25
    return time.perf_counter() - t0


def _call_cli(cli, argv: list[str], tracer=None, name: str = "") -> tuple[object, str]:
    """Runs one CLI call; returns (exit code or error text, captured stdout)."""
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = tracer.span(name, cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing stage is a failed call, not a benchmark crash
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def _report_schema_errors(path: Path) -> list[str]:
    """Checks report.json against the schema documented in the README."""
    report = json.loads(path.read_text())
    errors = []
    num = (int, float)
    for row in report.get("detection", []):
        if not (isinstance(row.get("method"), str)
                and all(isinstance(row.get(k), num) for k in ("precision", "recall"))
                and all(isinstance(row.get(k), int) for k in ("tp", "fp", "fn"))
                and isinstance(row.get("best"), list)):
            errors.append(f"bad detection row {row}")
    for row in report.get("clustering", []):
        if not (isinstance(row.get("backend"), str)
                and all(isinstance(row.get(t, {}).get(k), num)
                        for t in ("no_dk", "dk") for k in ("purity", "accuracy"))
                and isinstance(row.get("best"), list)):
            errors.append(f"bad clustering row {row}")
    if not report.get("clustering"):
        errors.append("report has no clustering table")
    if set(report) - {"detection", "clustering"}:
        errors.append(f"unexpected report keys {sorted(report)}")
    return errors


def check_outputs(workload, calls: list[dict], workdir: Path) -> dict:
    """Untimed correctness checks; marks failing calls and returns counts."""
    from scenmine.types import read_dataset, validate_record

    def fail(argv_head: list[str], reason: str) -> None:
        for call in reversed(calls):
            if call["argv"][:len(argv_head)] == argv_head:
                call["errors"].append(reason)
                return

    for call in calls:
        if call["rc"] != 0:
            call["errors"].append(f"exit {call['rc']}")
        missing = [a for a in workload.artifacts(call["argv"]) if not (workdir / a).is_file()]
        if missing:
            call["errors"].append(f"missing artifacts {missing}")

    out = {"records": 0, "precision": None, "recall": None}
    data_stage = "extract" if any(c["stage"] == "extract" for c in calls) else "synth"
    for name, stage in (("dataset.jsonl", [data_stage]), ("dataset_augmented.jsonl", ["augment"])):
        path = workdir / name
        if not path.is_file():
            continue
        try:
            records, _ = read_dataset(path)
        except Exception as exc:  # any read failure is a failed stage, reported, not raised
            fail(stage, f"unreadable {name}: {exc}")
            continue
        bad = sum(1 for r in records if validate_record(r))
        if bad:
            fail(stage, f"{bad} invalid records in {name}")
        if name == "dataset.jsonl":
            out["records"] = len(records)
    if (workdir / "report.json").is_file():
        try:
            errors = _report_schema_errors(workdir / "report.json")
        except (ValueError, AttributeError) as exc:
            errors = [f"unreadable report.json: {exc}"]
        for err in errors:
            fail(["report"], err)
    if (workdir / "truth.csv").is_file() and (workdir / "detection_rule.json").is_file():
        try:
            det = json.loads((workdir / "detection_rule.json").read_text())
            out["precision"], out["recall"] = float(det["precision"]), float(det["recall"])
        except (ValueError, KeyError, TypeError) as exc:
            fail(["detect", "--method", "rule"], f"unreadable detection_rule.json: {exc}")
        else:
            if not (out["precision"] >= 0.90 and out["recall"] >= 0.90):
                fail(["detect", "--method", "rule"], f"rule detector P={out['precision']:.3f} "
                     f"R={out['recall']:.3f} < 0.90")
    return out


def run_stages(cli, args) -> dict:
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    common = ["--config", args.config, "--workdir", str(workdir), "--seed", str(args.seed)]
    calls = [{"group": group, "stage": stage, "argv": [a.format(rec=args.recording) for a in argv],
              "rc": 0, "runs": [], "errors": []} for group, stage, argv in workload.stages]
    # Each pass makes every call once, in pipeline order. Untraced, passes
    # repeat until the next one would end after --seconds, so every call gets
    # one sample per pass, spread over the whole measuring time. Re-runs see
    # the same inputs and must print the same hashes. The calibration kernel
    # runs before the first call and after each one; a call's time is scaled
    # by the kernel's mean time over the few runs around it, which takes out
    # the shared machine's speed at that moment.
    calibration = [_calibrate()]
    t_start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for call in calls:
            c0, t0 = _cpu_s(), time.perf_counter()
            rc, text = _call_cli(cli, common + call["argv"], tracer, f"cli.{call['stage']}")
            call["runs"].append((time.perf_counter() - t0, _cpu_s() - c0, len(calibration) - 1))
            calibration.append(_calibrate())
            hashes = _hash_lines(text)
            call.setdefault("hashes", hashes)
            if rc != 0:
                call["rc"] = rc
            if hashes != call["hashes"]:
                call["errors"].append("a re-run printed different artifact hashes")
        passes += 1
        now = time.perf_counter()
        if tracer or any(c["rc"] != 0 for c in calls) or passes >= MAX_PASSES:
            break
        if now - t_start + (now - t_pass) > args.seconds:
            break
    n = CALIBRATION_WINDOW
    for call in calls:
        # run i of the kernel came just before the call, run i + 1 just after
        call["runs"] = [(wall, cpu, REF_CALIBRATION_S / statistics.mean(
            calibration[max(0, i + 1 - n):i + 1 + n])) for wall, cpu, i in call["runs"]]
        call["wall_s"] = statistics.median(w for w, _, _ in call["runs"])
        call["seconds"] = statistics.median(w * k for w, _, k in call["runs"])
        call["cpu_s"] = statistics.median(c * k for _, c, k in call["runs"])
    result = {
        "pipeline_s": sum(c["seconds"] for c in calls),
        "wall_s": sum(c["wall_s"] for c in calls),
        "first_pass_s": sum(w * k for c in calls for w, _, k in c["runs"][:1]),
        "cpu_s": sum(c["cpu_s"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "calibration_ms": statistics.median(calibration) * 1e3,
        "calibration_s": calibration,
    }
    if tracer:
        tracer.uninstall()
        tracer.dump(Path(args.out).with_name("spans.jsonl"))
        result["layers"] = layer_metrics(tracer.spans)
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
    result.update(check_outputs(workload, calls, workdir))
    result["calls"] = calls
    result["env"] = environment()
    return result


def run_pipeline(cli, args) -> dict:
    common = ["--config", args.config, "--workdir", args.workdir, "--seed", str(args.seed)]
    rc, text = _call_cli(cli, common + ["pipeline"])
    return {"rc": rc, "hashes": _hash_lines(text)}


def run_blas1(cli, args) -> dict:
    """One traced training run of a few epochs on the workload's dataset."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    common = ["--config", args.config, "--workdir", args.workdir, "--seed", str(args.seed)]
    rc, _ = _call_cli(cli, common + ["train", "--tag", "blas1"], tracer, "cli.train")
    tracer.uninstall()
    batch_ms = layer_metrics(tracer.spans)["cvqvae.train_arrays.ms_per_batch"][0]
    return {"rc": rc, "batch_ms": batch_ms, "env": environment()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "recording", "stages", "pipeline", "blas1"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--config")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--recording", default="")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli = _import_program(Path(args.root), args.config)
    ready = time.monotonic()
    print(f"ready {ready!r} {_calibrate()!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "recording":
        from workloads import make_recording

        make_recording(args.seed, Path(args.workdir))
        return 0
    run = {"stages": run_stages, "pipeline": run_pipeline, "blas1": run_blas1}[args.mode]
    Path(args.out).write_text(json.dumps(run(cli, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing: wraps functions of the ``scenmine`` modules by
replacing module (and class) attributes, with no edit to the program.

Spans are kept in memory as ``(name, parent, t0, t1, counts)`` and written
to a side file when the run ends. Every alias of a wrapped function in a
loaded ``scenmine`` module (``cli.read_dataset`` is ``types.read_dataset``)
is replaced too, so calls through either name are seen. A target that the
program no longer defines is recorded as absent, not raised.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Optional


def _nbytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_trajectory(args, kwargs, result):
    traj = args[0]
    return {"track": f"{traj.recording_id}:{traj.vehicle_id}"}


def _count_rows(args, kwargs, result):
    return {"rows": sum(len(t) for t in result), "trajectories": len(result)}


def _count_written(args, kwargs, result):
    return {"bytes": _nbytes(args[1] if len(args) > 1 else kwargs.get("path"))}


def _count_read(args, kwargs, result):
    return {"bytes": _nbytes(args[0] if args else kwargs.get("path"))}


def _count_len(args, kwargs, result):
    return {"items": len(result)}


def _count_extract(args, kwargs, result):
    change_points = args[1] if len(args) > 1 else kwargs["change_points"]
    records, summary = result
    return {
        "offered": sum(len(v) for v in change_points.values()),
        "records": len(records),
        "skipped_window": summary.skipped_window,
        "filtered_class": summary.filtered_class,
    }


def _count_merges(args, kwargs, result):
    return {"merges": len(result[1])}


def _count_codes(args, kwargs, result):
    return {"active": len(set(result.labels.tolist())), "k": int(result.k)}


def _count_batch(args, kwargs, result):
    return {"batch": int(args[0].shape[0])}


# (module, attribute path, counter). Attribute paths with a dot name a
# method on a class. Counters turn a call's arguments and result into the
# counts kept with its span.
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("ingest", "parse_tracks", _count_rows),
    ("ingest", "write_tracks_csv", _count_written),
    ("ingest", "normalize_direction", None),
    ("ingest", "generate_synthetic", None),
    ("detect", "detect_rule_based", _count_len),
    ("detect", "detect_ema", _count_len),
    ("types", "Trajectory.arrays", _count_trajectory),
    ("types", "read_dataset", _count_read),
    ("types", "write_dataset", _count_written),
    ("types", "validate_record", None),
    ("extraction", "extract", _count_extract),
    ("extraction", "augment_irrelevant", None),
    ("dgsfm", "interaction_scores", None),
    ("corpus", "build_archetype_corpus", None),
    ("corpus", "augment_corpus", None),
    ("cvqvae", "train_arrays", None),
    ("cvqvae", "_forward", _count_batch),
    ("cvqvae", "_per_term_losses", None),
    ("cvqvae", "_backward", None),
    ("cvqvae", "save_checkpoint", _count_written),
    ("cvqvae", "load_checkpoint", None),
    ("clustering", "encode_latents", None),
    ("clustering", "assign_codebook", _count_codes),
    ("clustering", "kmeans", None),
    ("clustering", "_nearest", None),
    ("clustering", "hierarchical", None),
    ("clustering", "hierarchical_with_merges", _count_merges),
    ("clustering", "_linkage_cost", None),
    ("metrics", "cluster_entropy", None),
    ("metrics", "augmentation_accuracy", None),
    ("cli", "_sha256", _count_read),
    ("config", "load_config", None),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Calls ``fn`` inside a span named ``name``."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = [name, parent, t0, t1, None]
            if counter is not None:
                spans[sid][4] = counter(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        for module_name, path, counter in targets:
            name = f"{module_name}.{path}"
            module = sys.modules.get(f"scenmine.{module_name}")
            owner, _, attr = path.rpartition(".")
            owner = getattr(module, owner, None) if owner else module
            fn = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, counter)
            self._set(owner, attr, wrapper)
            if owner is module:
                for alias_mod in [m for n, m in sys.modules.items() if n.startswith("scenmine.")]:
                    for key, value in list(vars(alias_mod).items()):
                        if value is fn:
                            self._set(alias_mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for sid, (name, parent, t0, t1, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "t0": t0, "t1": t1, "counts": counts}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced run
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CLI_STAGES = ("synth", "ingest", "detect", "extract", "augment", "train", "cluster",
              "evaluate", "report")


def _percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, -(-int(p * 10) * len(sorted_values) // 1000))  # ceil(p% of n)
    return sorted_values[rank - 1]


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return _percentile(ordered, p)
    return ordered[-1] if ordered else 0.0


class _Spans:
    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        self.by_name: dict[str, list[int]] = {}
        for sid, (name, parent, *_rest) in enumerate(spans):
            self.by_name.setdefault(name, []).append(sid)
            if parent is not None:
                self.children.setdefault(parent, []).append(sid)

    def ms(self, sid: int) -> float:
        return (self.spans[sid][3] - self.spans[sid][2]) * 1e3

    def durations(self, name: str) -> list[float]:
        return [self.ms(s) for s in self.by_name.get(name, [])]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_ms(self, name: str) -> float:
        return sum(self.ms(s) - sum(self.ms(c) for c in self.children.get(s, ()))
                   for s in self.by_name.get(name, []))

    def count(self, name: str, key: str) -> float:
        return sum((self.spans[s][4] or {}).get(key, 0) for s in self.by_name.get(name, []))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def child_calls(self, name: str, child: str) -> list[int]:
        return [sum(1 for c in self.children.get(s, ()) if self.spans[c][0] == child)
                for s in self.by_name.get(name, [])]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    return _percentile(ordered, 50.0) if ordered else 0.0


def layer_metrics(spans: list) -> dict[str, tuple[float, str]]:
    """Every per-layer metric derivable from the spans, as name -> (value,
    unit). A layer that did no work on this workload reads 0."""
    s = _Spans(spans)
    out: dict[str, tuple[float, str]] = {}

    def timing(name: str, *kinds: str) -> None:
        d = s.durations(name)
        for kind in kinds:
            if kind == "ms":
                out[f"{name}.ms"] = (sum(d), "ms")
            elif kind == "p50_ms":
                out[f"{name}.p50_ms"] = (_median(d), "ms")
            elif kind == "tail_ms":
                out[f"{name}.tail_ms"] = (tail(d), "ms")
            elif kind == "n":
                out[f"{name}.n"] = (len(d), "count")
            elif kind == "calls":
                out[f"{name}.calls"] = (len(d), "count")
            elif kind == "self_ms":
                out[f"{name}.self_ms"] = (s.self_ms(name), "ms")

    timing("ingest.parse_tracks", "ms", "calls")
    out["ingest.parse_tracks.rows_per_s"] = (
        _ratio(s.count("ingest.parse_tracks", "rows"), s.total("ingest.parse_tracks") / 1e3), "1/s")
    timing("ingest.write_tracks_csv", "ms")
    out["ingest.write_tracks_csv.bytes"] = (s.count("ingest.write_tracks_csv", "bytes"), "bytes")
    timing("ingest.normalize_direction", "ms")
    timing("ingest.generate_synthetic", "ms")

    timing("detect.detect_rule_based", "p50_ms", "tail_ms", "n")
    timing("detect.detect_ema", "p50_ms", "tail_ms", "n")
    out["detect.changepoints"] = (s.count("detect.detect_rule_based", "items"), "count")

    name = "types.Trajectory.arrays"
    timing(name, "calls", "ms")
    tracks = {s.spans[i][4]["track"] for i in s.by_name.get(name, []) if s.spans[i][4]}
    out[f"{name}.calls_per_trajectory"] = (_ratio(s.calls(name), len(tracks)), "count")
    timing("types.read_dataset", "ms", "calls")
    out["types.read_dataset.mb_per_s"] = (
        _ratio(s.count("types.read_dataset", "bytes") / 1e6, s.total("types.read_dataset") / 1e3),
        "MB/s")
    timing("types.write_dataset", "ms")
    out["types.write_dataset.mb_per_s"] = (
        _ratio(s.count("types.write_dataset", "bytes") / 1e6, s.total("types.write_dataset") / 1e3),
        "MB/s")
    timing("types.validate_record", "ms")

    timing("extraction.extract", "self_ms")
    out["extraction.extract.yield"] = (
        _ratio(s.count("extraction.extract", "records"), s.count("extraction.extract", "offered")),
        "ratio")
    out["extraction.skipped_window"] = (s.count("extraction.extract", "skipped_window"), "count")
    out["extraction.filtered_class"] = (s.count("extraction.extract", "filtered_class"), "count")
    timing("extraction.augment_irrelevant", "p50_ms")

    timing("dgsfm.interaction_scores", "p50_ms", "tail_ms", "n", "ms")
    timing("corpus.build_archetype_corpus", "self_ms")
    timing("corpus.augment_corpus", "self_ms")

    timing("cvqvae.train_arrays", "ms", "self_ms")
    batches = sum(s.child_calls("cvqvae.train_arrays", "cvqvae._forward"))
    out["cvqvae.train_arrays.batches"] = (batches, "count")
    out["cvqvae.train_arrays.ms_per_batch"] = (
        _ratio(s.total("cvqvae.train_arrays"), batches), "ms")
    timing("cvqvae._forward", "p50_ms", "tail_ms")
    timing("cvqvae._per_term_losses", "p50_ms")
    timing("cvqvae._backward", "p50_ms", "tail_ms")
    timing("cvqvae.save_checkpoint", "ms")
    out["cvqvae.save_checkpoint.bytes"] = (s.count("cvqvae.save_checkpoint", "bytes"), "bytes")
    timing("cvqvae.load_checkpoint", "ms")

    timing("clustering.encode_latents", "ms")
    timing("clustering.kmeans", "ms")
    iters = [n - 1 for n in s.child_calls("clustering.kmeans", "clustering._nearest")]
    out["clustering.kmeans.iterations"] = (_ratio(sum(iters), len(iters)), "count")
    timing("clustering.hierarchical", "ms")
    merges = s.count("clustering.hierarchical_with_merges", "merges")
    out["clustering.hierarchical.merges"] = (merges, "count")
    timing("clustering._linkage_cost", "calls")
    out["clustering._linkage_cost.calls_per_merge"] = (
        _ratio(s.calls("clustering._linkage_cost"), merges), "count")
    codes = [(s.spans[i][4]["active"], s.spans[i][4]["k"])
             for i in s.by_name.get("clustering.assign_codebook", []) if s.spans[i][4]]
    out["clustering.codebook.active_codes_ratio"] = (
        _ratio(sum(a / k for a, k in codes), len(codes)), "ratio")

    timing("metrics.cluster_entropy", "ms")
    timing("metrics.augmentation_accuracy", "ms")

    timing("cli._sha256", "ms")
    out["cli._sha256.bytes"] = (s.count("cli._sha256", "bytes"), "bytes")
    for stage in CLI_STAGES:
        timing(f"cli.{stage}", "self_ms")
    timing("config.load_config", "ms")
    return out


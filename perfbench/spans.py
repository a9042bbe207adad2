"""In-memory spans around calls into the package, and the per-layer metrics.

A span records a name, start, end, parent span and op id, plus counts
taken at the same boundary. Spans stay in memory while the benchmark
runs and are written out once at the end. A span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

CLASS_LABELS = ("KeepEdge", "NoisyEdge", "Disordered", "NoisySmooth", "KeepSmooth", "RescuedCandidate")
STREAM_MODULES = (
    "sorter",
    "type1_edge_detector",
    "type2_edge_detector",
    "disorder_analyzer",
    "noisy_pixel_checker",
    "similarity_checker",
    "average_filter",
    "type1_edge_preserve_filter",
    "type2_edge_preserve_filter",
)
OP_SPAN = "cli.op"
PASSES = (1, 2)

# name -> unit of every per-layer metric, in report order. Counts are per
# input cycle (every distinct input of the workload replayed once), times
# are medians over all calls of the traced run, rates are totals over it.
LAYER_UNITS = {
    "pipeline.pass1.ms": "ms",
    "pipeline.pass2.ms": "ms",
    "pipeline.pass.mpx_per_s": "Mpx/s",
    "pipeline.pass.calls": "count",
    "pipeline.pass.peak_mib_per_mpx": "MiB/Mpx",
    **{f"pipeline.pass{k}.count.{label}": "px" for k in PASSES for label in CLASS_LABELS},
    **{f"pipeline.pass{k}.changed_px": "px" for k in PASSES},
    "pipeline.pass2.changed_ratio": "ratio",
    "pipeline.median3.ms": "ms",
    "pipeline.median5.ms": "ms",
    "pipeline.write_class_stats_csv.ms": "ms",
    "stream.denoise.ms": "ms",
    "stream.us_per_px": "us/px",
    **{f"stream.{name}.calls": "count" for name in STREAM_MODULES},
    "pgm.read_pgm.ms": "ms",
    "pgm.read_pgm.mb_per_s": "MB/s",
    "pgm.read_pgm.calls": "count",
    "pgm.write_pgm.ms": "ms",
    "pgm.write_pgm.calls": "count",
    "noise.inject.ms": "ms",
    "noise.inject.mpx_per_s": "Mpx/s",
    "noise.inject.calls": "count",
    "image.psnr.ms": "ms",
    "image.psnr.calls": "count",
    "cli.self.ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records one span per call at a layer boundary, tagged with the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._deferred: list = []
        self.op: int | None = None

    def defer(self, fn) -> None:
        """Queue bookkeeping (such as counting changed pixels) to run after the op."""
        self._deferred.append(fn)

    def run_deferred(self) -> None:
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    @contextmanager
    def span(self, name: str, **counts):
        rec = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "counts": counts,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> list[float]:
        """Duration of each span from ``first`` on, minus the union of its children's intervals."""
        spans = self.spans[first:]
        children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        result = []
        for i, s in enumerate(spans, start=first):
            covered, reach = 0.0, s["start"]
            for child in sorted(children.get(i, ()), key=lambda c: c["start"]):
                lo, hi = max(child["start"], reach), min(child["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(s["end"] - s["start"] - covered)
        return result

    def write(self, path: Path) -> None:
        records = [dict(s, id=i, self=t) for i, (s, t) in enumerate(zip(self.spans, self.self_times()))]
        path.write_text(json.dumps(records) + "\n")


def self_sum_errors(tracer: Tracer, first: int, tolerance_s: float = 1e-6) -> list[str]:
    """Check that the self times of the op whose span is ``first`` add up to the op's time."""
    op = tracer.spans[first]
    duration = op["end"] - op["start"]
    total = sum(tracer.self_times(first))
    if abs(total - duration) <= tolerance_s:
        return []
    return [f"self times sum to {total:.9f} s, the op took {duration:.9f} s"]


def layer_metrics(tracer: Tracer, cycle_len: int, untraced_s: list, traced_s: list, pass_peak_mib_per_mpx: float) -> dict:
    """Per-layer metrics from the spans of a traced run; unexercised layers read 0."""
    selfs = tracer.self_times()
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for s, t in zip(tracer.spans, selfs):
        by_name.setdefault(s["name"], []).append((s, t))

    def durations(name):
        return [s["end"] - s["start"] for s, _ in by_name.get(name, ())]

    def median_ms(name):
        d = durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def in_cycle(name):
        return [s for s, _ in by_name.get(name, ()) if s["op"] < cycle_len]

    def cycle_sum(name, key):
        return sum(s["counts"].get(key, 0) for s in in_cycle(name))

    def rate(name, key, scale):
        d = durations(name)
        total = sum(s["counts"][key] for s, _ in by_name.get(name, ()))
        return total / sum(d) / scale if d else 0.0

    pass_names = [n for n in by_name if n.startswith("pipeline.pass")]
    pass_spans = [s for n in pass_names for s, _ in by_name[n]]
    pass_time = sum(s["end"] - s["start"] for s in pass_spans)
    m = {
        "pipeline.pass1.ms": median_ms("pipeline.pass1"),
        "pipeline.pass2.ms": median_ms("pipeline.pass2"),
        "pipeline.pass.mpx_per_s": sum(s["counts"]["px"] for s in pass_spans) / pass_time / 1e6 if pass_spans else 0.0,
        "pipeline.pass.calls": sum(len(in_cycle(n)) for n in pass_names),
        "pipeline.pass.peak_mib_per_mpx": pass_peak_mib_per_mpx,
    }
    for k in PASSES:
        for label in CLASS_LABELS:
            m[f"pipeline.pass{k}.count.{label}"] = cycle_sum(f"pipeline.pass{k}", label)
        m[f"pipeline.pass{k}.changed_px"] = cycle_sum(f"pipeline.pass{k}", "changed_px")
    pass2_px = cycle_sum("pipeline.pass2", "px")
    m["pipeline.pass2.changed_ratio"] = m["pipeline.pass2.changed_px"] / pass2_px if pass2_px else 0.0
    m["pipeline.median3.ms"] = median_ms("pipeline.median3")
    m["pipeline.median5.ms"] = median_ms("pipeline.median5")
    m["pipeline.write_class_stats_csv.ms"] = median_ms("pipeline.write_class_stats_csv")
    m["stream.denoise.ms"] = median_ms("stream.denoise")
    m["stream.us_per_px"] = 1.0 / rate("stream.denoise", "pass_px", 1e6) if durations("stream.denoise") else 0.0
    for name in STREAM_MODULES:
        m[f"stream.{name}.calls"] = cycle_sum("stream.denoise", name)
    m["pgm.read_pgm.ms"] = median_ms("pgm.read_pgm")
    m["pgm.read_pgm.mb_per_s"] = rate("pgm.read_pgm", "bytes", 1e6)
    m["pgm.read_pgm.calls"] = len(in_cycle("pgm.read_pgm"))
    m["pgm.write_pgm.ms"] = median_ms("pgm.write_pgm")
    m["pgm.write_pgm.calls"] = len(in_cycle("pgm.write_pgm"))
    m["noise.inject.ms"] = median_ms("noise.inject")
    m["noise.inject.mpx_per_s"] = rate("noise.inject", "px", 1e6)
    m["noise.inject.calls"] = len(in_cycle("noise.inject"))
    m["image.psnr.ms"] = median_ms("image.psnr")
    m["image.psnr.calls"] = len(in_cycle("image.psnr"))
    m["cli.self.ms"] = statistics.median(t for s, t in by_name[OP_SPAN]) * 1e3
    m["trace.overhead_pct"] = (statistics.median(traced_s) / statistics.median(untraced_s) - 1.0) * 100.0
    assert m.keys() == LAYER_UNITS.keys()
    return m

"""Seeded, closed-loop benchmark of the ``mrdenoise`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload denoise-1024-light --seed 1 --seconds 10 --trace 0

One client runs one op at a time; an op is one in-process call to
``mrdenoise.cli.main(argv)`` on inputs the benchmark wrote from ``--seed``,
so interpreter start-up is not timed. Every op's files pass a correctness
gate (see ``gate.py``). With ``--trace 0`` the end-to-end metrics are
measured; with ``--trace 1`` untraced CLI ops alternate with traced replays
of the same ops, which give the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Machine facts, sample counts and the spans go to
``.perfbench_work/results/``. ``--tiny`` shrinks every input for the
self-test. The package is imported from ``src/`` of the checkout; the run
exits with code 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from spans import LAYER_UNITS, OP_SPAN, Tracer, layer_metrics, self_sum_errors
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
MIB = 1024 * 1024

E2E_UNITS = {
    "op_over_yardstick": "x",
    "peak_mib_per_mpx": "MiB/Mpx",
    "psnr_db": "dB",
    "success_rate": "ratio",
    "setup_s": "s",
}


def load_package():
    """Import (or re-import) the package from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "mrdenoise" or m.startswith("mrdenoise.")]:
        del sys.modules[name]
    modules = {
        name: importlib.import_module(f"mrdenoise.{name}")
        for name in ("cli", "pipeline", "pgm", "noise", "image", "stream")
    }
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"mrdenoise was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


class Tally:
    """Attempted and failed ops, with the first few reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: " + "; ".join(problems[:5]))


def run_cli(cli, argv: list[str]) -> list[str]:
    """One op: ``cli.main(argv)`` with its console output captured.

    Returns the problems the op reported itself (a nonzero exit or an
    exception), which count as a failure of the op.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            return [f"raised {traceback.format_exc(limit=3)!r}"]
    return [] if rc == 0 else [f"exit code {rc}: {sink.getvalue().strip()[-300:]!r}"]


def set_up(wl, tally: Tally, repeats: int):
    """Import, write the inputs, and run one warm-up op, ``repeats`` times."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        mr = load_package()
        wl.make_inputs()
        problems = run_cli(mr.cli, wl.cycle()[0].argv)
        times.append(perf_counter() - start)
        tally.record("warm-up op", problems)
    return mr, times


def timed_ops(mr, wl, tally: Tally, seconds: float):
    """Closed loop over the input cycle for ``seconds``, and at least one cycle.

    The workload's yardstick runs before every op and after the last one.
    Returns the op times and the yardstick times, one more than the ops.
    """
    cycle = wl.cycle()
    work = wl.make_yardstick()
    work()  # warm-up, untimed

    def yardstick_s() -> float:
        start = perf_counter()
        work()
        return perf_counter() - start

    durations, yardsticks = [], [yardstick_s()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(durations) < len(cycle):
        op = cycle[len(durations) % len(cycle)]
        start = perf_counter()
        problems = run_cli(mr.cli, op.argv)
        durations.append(perf_counter() - start)
        yardsticks.append(yardstick_s())
        tally.record(f"op {len(durations)}", problems or wl.check(op))
    return durations, yardsticks


def over_yardstick(durations: list[float], yardsticks: list[float]) -> float:
    """Median over ops of op time / mean time of the two yardstick runs around it."""
    return statistics.median(d / ((a + b) / 2) for d, a, b in zip(durations, yardsticks, yardsticks[1:]))


def peak_op(mr, wl, tally: Tally) -> float:
    """Peak traced allocation of one untimed op, in MiB per output megapixel."""
    op = wl.cycle()[0]
    gc.collect()  # the same collector state before every measured op
    tracemalloc.start()
    try:
        problems = run_cli(mr.cli, op.argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.record("peak-memory op", problems or wl.check(op))
    return peak / MIB / op.mpx


def traced_run(mr, wl, tally: Tally, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced CLI ops with traced replays; return per-layer metrics."""
    cycle = wl.cycle()
    tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < len(cycle):
        i = len(traced)
        op = cycle[i % len(cycle)]
        start = perf_counter()
        problems = run_cli(mr.cli, op.argv)
        untraced.append(perf_counter() - start)
        tally.record(f"op {i}", problems or wl.check(op))

        tracer.op = i
        first = len(tracer.spans)
        start = perf_counter()
        try:
            with tracer.span(OP_SPAN):
                wl.replay(mr, op, tracer)
        except Exception:
            replay_problems = [f"replay raised {traceback.format_exc(limit=3)!r}"]
        else:
            replay_problems = wl.replay_mismatches(op)
        traced.append(perf_counter() - start)
        tracer.run_deferred()
        tally.record(f"replay {i}", replay_problems + self_sum_errors(tracer, first))
    tracer.write(spans_path)
    return layer_metrics(tracer, len(cycle), untraced, traced, pass_peak(mr, wl))


def pass_peak(mr, wl) -> float:
    """Peak traced allocation of one frame pass (pass 1 of the first input), MiB/Mpx."""
    noisy = wl.pass_input()
    if noisy is None:
        return 0.0
    one_pass = mr.pipeline.PipelineConfig(iterations=1)
    gc.collect()
    tracemalloc.start()
    try:
        mr.pipeline.denoise_with_stats(noisy, one_pass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MIB / (noisy.size / 1e6)


def machine_facts(wl) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    h, w = wl.plane_shape()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "llc": caches.get("L3", caches.get("L2", "unknown")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": wl.name,
        "input_bytes": wl.input_bytes(),
        "int32_plane_bytes_computed": h * w * 4,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed (default %(default)s, the golden seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrdenoise" / "cli.py").is_file():
        print(f"error: no mrdenoise package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = WORK / run_id
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    tally = Tally()
    try:
        repeats = 1 if args.trace or args.tiny else SETUP_REPEATS
        mr, setup_times = set_up(wl, tally, repeats)
        try:
            wl.expect(mr)
        except Exception:
            wl.broken = f"computing the reference raised {traceback.format_exc(limit=3)!r}"
        if args.trace:
            metrics = traced_run(mr, wl, tally, args.seconds, results / f"{run_id}.spans.json")
            units = LAYER_UNITS
        else:
            durations, yardsticks = timed_ops(mr, wl, tally, args.seconds)
            peak = peak_op(mr, wl, tally)
            metrics = {
                "op_over_yardstick": over_yardstick(durations, yardsticks),
                "peak_mib_per_mpx": peak,
                "psnr_db": wl.psnr_db(),
                "success_rate": (tally.attempted - tally.failed) / tally.attempted,
                "setup_s": statistics.median(setup_times),
            }
            units = E2E_UNITS
        facts = machine_facts(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Plain wall times, reported but not bounded: they carry the host's drift.
    wall = {}
    if not args.trace:
        op_ms_p50 = statistics.median(durations) * 1e3
        wall = {
            "mpx_per_s": (wl.cycle()[0].mpx / op_ms_p50 * 1e3, "Mpx/s"),
            "op_ms_p50": (op_ms_p50, "ms"),
            "op_ms_min": (min(durations) * 1e3, "ms"),
            "yardstick_ms_p50": (statistics.median(yardsticks) * 1e3, "ms"),
        }
    report = {
        "machine": facts,
        "seed": args.seed,
        "trace": args.trace,
        "op_ms": [d * 1e3 for d in durations] if not args.trace else None,
        "yardstick_ms": [y * 1e3 for y in yardsticks] if not args.trace else None,
        "wall": {name: {"value": value, "unit": unit} for name, (value, unit) in wall.items()},
        "setup_samples": len(setup_times),
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.reasons,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (results / f"{run_id}.json").write_text(json.dumps(report, indent=1) + "\n")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>16.6f} {unit}")
    for name, (value, unit) in wall.items():
        print(f"{name:40s} {value:>16.6f} {unit}  (wall, n={len(durations)})")
    print(f"{'error_rate':40s} {report['error_rate']:>16.6f} ratio  ({tally.failed}/{tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

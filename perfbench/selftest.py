"""Self-test of the benchmark, on tiny inputs. Run from the checkout root:

    python3 perfbench/selftest.py

It checks that every workload runs once in both modes and prints every
metric named in BENCHMARK.json with its unit; that a byte flipped in a copy
of any output is caught by the correctness gate and raises the error rate;
and that the benchmark refuses to run, printing no result, where the
package's sources are missing. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
TIMEOUT_S = 300


def bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_metrics(spec: dict, problems: list[str]) -> None:
    for name in sorted(WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"], run.ROOT)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: gate failed on tiny inputs: {proc.stderr[-500:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")


def check_flipped_bytes(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    mr = run.load_package()
    for name, cls in sorted(WORKLOADS.items()):
        workdir = run.WORK / f"selftest-{name}"
        wl = cls(1, True, workdir)
        try:
            wl.make_inputs()
            wl.expect(mr)
            op = wl.cycle()[0]
            for label, path in op.outputs.items():
                tally = run.Tally()
                tally.record("op", run.run_cli(mr.cli, op.argv) or wl.check(op))
                data = bytearray(path.read_bytes())
                # a raster byte of an image, the first field of a report's first row
                pos = len(data) // 2 if label.endswith(".pgm") else data.index(b"\n") + 1
                data[pos] ^= 0x01
                flipped = workdir / f"flipped-{path.name}"
                flipped.write_bytes(bytes(data))
                tally.record("flipped copy", wl.check(replace(op, outputs={label: flipped})))
                if (tally.attempted, tally.failed) != (2, 1):
                    problems.append(f"{name} {label}: flipped byte gave {tally.failed}/{tally.attempted} failed ops")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_package(problems: list[str]) -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(["--workload", sorted(WORKLOADS)[0], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"without src/ the run exited {proc.returncode} and printed {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAIL workloads in BENCHMARK.json differ from the benchmark's", file=sys.stderr)
        return 1
    problems: list[str] = []
    check_metrics(spec, problems)
    check_flipped_bytes(problems)
    check_refuses_without_package(problems)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

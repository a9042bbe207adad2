"""The benchmark's workloads: inputs, CLI ops, traced replays and expected outputs.

Each workload writes its inputs from the seed with the frozen generators
in ``phantom.py``, defines a cycle of CLI ops (one per distinct input),
replays an op through the package's public functions in the order
``cli.py`` calls them, and checks every output an op writes.
"""

from __future__ import annotations

import csv
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import gate
import phantom
import yardstick
from spans import CLASS_LABELS, STREAM_MODULES, Tracer


@dataclass
class Op:
    argv: list[str]
    outputs: dict[str, Path]  # label -> file the CLI writes
    key: int  # index of the op within the workload's input cycle
    mpx: float  # output megapixels credited to the op


def stats_csv_rows(class_stats: list[dict]) -> bytes:
    """The class rows of a ``--stats`` file, formatted by the benchmark itself."""
    lines = ["iteration,class,count"]
    for i, counts in enumerate(class_stats, start=1):
        by_label = {c.label: n for c, n in counts.items()}
        lines += [f"{i},{label},{by_label[label]}" for label in CLASS_LABELS]
    return ("\n".join(lines) + "\n").encode()


def stats_csv_module_rows(module_stats: list[dict]) -> bytes:
    """The ``stream.<module>`` rows the stream engine appends to a ``--stats`` file."""
    lines = [f"{i},stream.{name},{m[name]}" for i, m in enumerate(module_stats, start=1) for name in STREAM_MODULES]
    return "".join(line + "\n" for line in lines).encode()


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.in_dir = workdir / "inputs"
        self.cli_dir = workdir / "cli"
        self.replay_dir = workdir / "replay"
        self.golden = gate.load_golden(self.name) if seed == gate.GOLDEN_SEED and not tiny else None
        self.failures: dict[int, list[str]] = {}  # per op key, from checking the references
        self.broken = ""  # why no reference could be computed, if none could

    def make_inputs(self) -> None:
        for d in (self.in_dir, self.cli_dir, self.replay_dir):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        self._write_inputs()

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.in_dir.rglob("*.pgm"))

    def check(self, op: Op) -> list[str]:
        """Reasons the files of ``op`` are wrong; empty when they pass the gate."""
        if self.broken:
            return [self.broken]
        problems = list(self.failures.get(op.key, ()))
        for label, path in op.outputs.items():
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"{label}: {exc}")
                continue
            problems += self._check_output(op, label, data)
            if self.golden is not None:
                problems += gate.golden_mismatches(self.golden, label, self._normalize(label, data))
        return problems

    def replay_mismatches(self, op: Op) -> list[str]:
        """Replay files that differ from the files the CLI op wrote."""
        problems = []
        for label, path in op.outputs.items():
            replayed = self.replay_dir / path.name
            try:
                same = self._normalize(label, replayed.read_bytes()) == self._normalize(label, path.read_bytes())
            except OSError as exc:
                problems.append(f"replay {label}: {exc}")
                continue
            if not same:
                problems.append(f"replay {label}: differs from the CLI output")
        return problems

    def _check_golden_inputs(self) -> list[str]:
        if self.golden is None:
            return []
        problems = []
        for path in sorted(self.in_dir.rglob("*.pgm")):
            label = path.relative_to(self.in_dir).as_posix()
            problems += gate.golden_mismatches(self.golden, label, path.read_bytes())
        return problems

    def _normalize(self, label: str, data: bytes) -> bytes:
        return data

    def plane_shape(self) -> tuple[int, int]:
        """Shape of one padded kernel plane for this workload's frames."""
        return self.size + 4, self.size + 4

    def pass_input(self) -> np.ndarray | None:
        """Input of the first frame pass the workload's ops run, if they run one."""
        return None

    def make_yardstick(self):
        """The fixed work timed next to each op (see ``yardstick.py``)."""
        raise NotImplementedError


class DenoiseWorkload(Workload):
    """``mrdenoise denoise`` over a cycle of noisy phantoms, one op per input."""

    size = 0
    tiny_size = 0
    inputs = 0
    ascii_format = False
    engine_args: list[str] = []

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.size = self.tiny_size if tiny else self.size
        self.clean: list[np.ndarray] = []
        self.noisy: list[np.ndarray] = []
        self.expected: list[dict[str, bytes]] = []
        self.psnrs: list[float] = []

    def _noise(self, j: int, clean: np.ndarray, seed: int) -> np.ndarray:
        raise NotImplementedError

    def _write_inputs(self) -> None:
        self.clean, self.noisy = [], []
        for j in range(self.inputs):
            clean = phantom.synthetic_mr_slice(1000 * self.seed + j + 1, size=self.size)
            noisy = self._noise(j, clean, 1000 * self.seed + 500 + j)
            (self.in_dir / f"in{j}.pgm").write_bytes(phantom.pgm_bytes(noisy, self.ascii_format))
            self.clean.append(clean)
            self.noisy.append(noisy)

    def cycle(self) -> list[Op]:
        ops = []
        for j in range(self.inputs):
            out, stats = self.cli_dir / f"out{j}.pgm", self.cli_dir / f"stats{j}.csv"
            argv = ["denoise", str(self.in_dir / f"in{j}.pgm"), str(out), *self.engine_args, "--stats", str(stats)]
            ops.append(Op(argv, {out.name: out, stats.name: stats}, j, self.size * self.size / 1e6))
        return ops

    def expect(self, mr) -> None:
        cfg = mr.pipeline.PipelineConfig()
        self.expected, self.psnrs = [], []
        input_problems = self._check_golden_inputs()
        for j, (clean, noisy) in enumerate(zip(self.clean, self.noisy)):
            rng = np.random.Generator(np.random.PCG64([self.seed, j]))
            pass_inputs, out, stats, failures = gate.reference_denoise(mr, noisy, cfg, rng)
            self.failures[j] = input_problems + failures + self._extra_reference_checks(mr, noisy, out)
            csv_rows = stats_csv_rows(stats) + self._module_rows(mr, pass_inputs, cfg)
            self.expected.append({".pgm": phantom.pgm_bytes(out), ".csv": csv_rows})
            self.psnrs.append(gate.psnr(clean, out))

    def _extra_reference_checks(self, mr, noisy, out) -> list[str]:
        return []

    def _module_rows(self, mr, pass_inputs, cfg) -> bytes:
        return b""

    def _check_output(self, op: Op, label: str, data: bytes) -> list[str]:
        if data == self.expected[op.key][Path(label).suffix]:
            return []
        return [f"{label}: differs from the reference"]

    def replay(self, mr, op: Op, tracer: Tracer) -> None:
        """What ``mrdenoise denoise`` does for ``op``, one span per package call."""
        src = self.in_dir / f"in{op.key}.pgm"
        out_path = self.replay_dir / f"out{op.key}.pgm"
        stats_path = self.replay_dir / f"stats{op.key}.csv"
        cfg = mr.pipeline.PipelineConfig()
        with tracer.span("pgm.read_pgm", bytes=src.stat().st_size):
            noisy = mr.pgm.read_pgm(src)
        out, class_stats, module_stats = self._replay_denoise(mr, noisy, cfg, tracer)
        with tracer.span("pgm.write_pgm"):
            mr.pgm.write_pgm(out_path, out)
        with tracer.span("pipeline.write_class_stats_csv"):
            mr.pipeline.write_class_stats_csv(stats_path, class_stats, module_stats)

    def _replay_denoise(self, mr, noisy, cfg, tracer):
        passes = replay_passes(mr, noisy, cfg, tracer)
        return passes[-1][1], [counts for counts, _ in passes], None

    def psnr_db(self) -> float:
        return float(np.mean(self.psnrs)) if self.psnrs else 0.0

    def pass_input(self):
        return None if self.engine_args else self.noisy[0]


def replay_passes(mr, noisy, cfg, tracer: Tracer) -> list[tuple[dict, np.ndarray]]:
    """The frame pipeline one pass at a time: ``(class_counts, output)`` per pass."""
    results, current = [], noisy
    for k, (_, one_pass) in enumerate(gate.pass_schedule(cfg), start=1):
        with tracer.span(f"pipeline.pass{k}", px=current.size) as counts:
            out, (class_counts,) = mr.pipeline.denoise_with_stats(current, one_pass)
        tracer.defer(lambda counts=counts, before=current, after=out, cc=class_counts: counts.update(
            {c.label: n for c, n in cc.items()}, changed_px=int(np.count_nonzero(before != after))
        ))
        results.append((class_counts, out))
        current = out
    return results


class DenoiseLight(DenoiseWorkload):
    name = "denoise-1024-light"
    size = 1024
    tiny_size = 64
    inputs = 2

    def _noise(self, j, clean, seed):
        if j % 2 == 0:
            return phantom.rvin(clean, 0.05, seed)
        return phantom.fvin(clean, 0.025, 0.025, 0, seed)

    def make_yardstick(self):
        return yardstick.frame_yardstick(self.size - yardstick.TRIM, 2)


class StreamP2(DenoiseWorkload):
    name = "stream-128-p2"
    size = 128
    tiny_size = 16
    inputs = 2
    ascii_format = True
    engine_args = ["--engine", "stream"]

    def _noise(self, j, clean, seed):
        return phantom.rvin(clean, 0.20, seed)

    def make_yardstick(self):
        return yardstick.scalar_yardstick(2 * self.size, self.size)

    def _extra_reference_checks(self, mr, noisy, out) -> list[str]:
        same = np.array_equal(mr.pipeline.denoise(noisy), out)
        return [] if same else ["frame denoise differs from the pass-by-pass reference"]

    def _module_rows(self, mr, pass_inputs, cfg) -> bytes:
        module_stats = [
            gate.oracle_module_counts(mr.pipeline, before, cfg, gate_active, STREAM_MODULES)
            for before, (gate_active, _) in zip(pass_inputs, gate.pass_schedule(cfg))
        ]
        return stats_csv_module_rows(module_stats)

    def _replay_denoise(self, mr, noisy, cfg, tracer):
        with tracer.span("stream.denoise", px=noisy.size, pass_px=noisy.size * cfg.iterations) as counts:
            out, class_stats, module_stats = mr.stream.stream_denoise_with_stats(noisy, cfg)
        tracer.defer(lambda: counts.update(
            {name: sum(m[name] for m in module_stats) for name in STREAM_MODULES}
        ))
        return out, class_stats, module_stats


class EvalHeavy(Workload):
    name = "eval-256-heavy"
    densities = (0.2, 0.3, 0.4)
    methods = ("proposed", "median3", "median5")
    header = "image,kind,density,method,psnr_db\n"

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.size = 32 if tiny else 256
        self.images = 1 if tiny else 3
        self.corpus = self.in_dir / "corpus"
        self.clean: list[np.ndarray] = []
        self.expected_rows = b""
        self.proposed_psnrs: list[float] = []

    def _write_inputs(self) -> None:
        self.corpus.mkdir()
        self.clean = []
        for j in range(self.images):
            clean = phantom.synthetic_mr_slice(1000 * self.seed + j + 1, size=self.size)
            (self.corpus / f"img{j}.pgm").write_bytes(phantom.pgm_bytes(clean))
            self.clean.append(clean)

    def cycle(self) -> list[Op]:
        report = self.cli_dir / "report.csv"
        argv = [
            "eval", str(self.corpus), "--out", str(report),
            "--densities", ",".join(f"{d:g}" for d in self.densities),
            "--methods", ",".join(self.methods),
            "--seed", str(self.seed),
        ]
        mpx = self.images * self.size * self.size * len(self.densities) * len(self.methods) / 1e6
        return [Op(argv, {report.name: report}, 0, mpx)]

    def expect(self, mr) -> None:
        cfg = mr.pipeline.PipelineConfig()
        rows, failures, self.proposed_psnrs = [self.header], [], []
        for j, clean in enumerate(self.clean):
            for d_idx, density in enumerate(self.densities):
                noisy = phantom.rvin(clean, density, self.seed + 10007 * j + d_idx)
                rng = np.random.Generator(np.random.PCG64([self.seed, j, d_idx]))
                _, proposed, _, bad = gate.reference_denoise(mr, noisy, cfg, rng)
                failures += [f"img{j} density {density:g}: {b}" for b in bad]
                outputs = {"proposed": proposed, "median3": gate.median(noisy, 3), "median5": gate.median(noisy, 5)}
                for method in self.methods:
                    quality = gate.psnr(clean, outputs[method])
                    rows.append(f"img{j},rvin,{density:g},{method},{quality:.6f}\n")
                    if method == "proposed":
                        self.proposed_psnrs.append(quality)
        self.expected_rows = "".join(rows).encode()
        self.failures[0] = failures + self._check_golden_inputs()

    def _normalize(self, label, data):
        return gate.strip_time_column(data)

    def _check_output(self, op, label, data) -> list[str]:
        problems = []
        if gate.strip_time_column(data) != self.expected_rows:
            problems.append(f"{label}: rows differ from the reference")
        times = [line.rsplit(",", 1)[-1] for line in data.decode().splitlines()[1:]]
        if not all(t.replace(".", "", 1).isdigit() for t in times):
            problems.append(f"{label}: time_ms column is not a list of nonnegative numbers")
        return problems

    def replay(self, mr, op: Op, tracer: Tracer) -> None:
        """What ``mrdenoise eval`` does for ``op``, one span per package call."""
        cfg = mr.pipeline.PipelineConfig()
        rows = []
        for img_idx, path in enumerate(sorted(self.corpus.glob("*.pgm"))):
            with tracer.span("pgm.read_pgm", bytes=path.stat().st_size):
                clean = mr.pgm.read_pgm(path)
            for d_idx, density in enumerate(self.densities):
                spec = mr.noise.NoiseSpec.rvin(density, seed=self.seed + 10007 * img_idx + d_idx)
                with tracer.span("noise.inject", px=clean.size):
                    noisy, _ = mr.noise.inject_rvin(clean, spec)
                for method in self.methods:
                    start = perf_counter()
                    if method == "proposed":
                        restored = replay_passes(mr, noisy, cfg, tracer)[-1][1]
                    else:
                        k = int(method[-1])
                        with tracer.span(f"pipeline.{method}"):
                            restored = mr.pipeline.median_filter(noisy, k)
                    elapsed_ms = (perf_counter() - start) * 1000.0
                    with tracer.span("image.psnr"):
                        quality = mr.image.psnr(clean, restored)
                    rows.append((path.stem, "rvin", f"{density:g}", method, f"{quality:.6f}", f"{elapsed_ms:.3f}"))
        with open(self.replay_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("image", "kind", "density", "method", "psnr_db", "time_ms"))
            writer.writerows(rows)

    def psnr_db(self) -> float:
        return float(np.mean(self.proposed_psnrs)) if self.proposed_psnrs else 0.0

    def pass_input(self):
        return phantom.rvin(self.clean[0], self.densities[0], self.seed)

    def make_yardstick(self):
        return yardstick.frame_yardstick(self.size - yardstick.TRIM, 2 * self.images, with_medians=True)


WORKLOADS = {w.name: w for w in (DenoiseLight, EvalHeavy, StreamP2)}

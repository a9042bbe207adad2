"""Correctness gate: scalar-oracle sampling, independent baselines, golden hashes.

Nothing here trusts the code under test to check itself. Denoised pixels
are compared with the package's scalar specification (``classify`` +
``restore_pixel``) on the padded input of each pass; median baselines,
PSNR and the noise models are recomputed with code of the benchmark's own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0
ORACLE_SAMPLES = 150  # uniform samples per pass; as many again among changed pixels


def pass_schedule(cfg):
    """``(gate_active, one_pass_cfg)`` per pass, mirroring the package's schedule.

    ``denoise_with_stats`` run with ``one_pass_cfg`` performs exactly that
    pass and returns its class counts, which ``denoise_iteration`` does not.
    """
    schedule = []
    for k in range(cfg.iterations):
        first = k == 0
        gate_active = not (first and cfg.iteration1_skips_similarity_gate)
        one_pass = dataclasses.replace(
            cfg,
            iterations=1,
            iteration1_skips_similarity_gate=not gate_active,
            iteration1_skips_noisy_pixel_check=first and cfg.iteration1_skips_noisy_pixel_check,
        )
        schedule.append((gate_active, one_pass))
    return schedule


def sample_coords(rng: np.random.Generator, before: np.ndarray, after: np.ndarray) -> list:
    """Corners, uniform pixels, and pixels the pass changed (where restoring happened)."""
    h, w = before.shape
    coords = {(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)}
    coords.update(zip(rng.integers(0, h, ORACLE_SAMPLES).tolist(), rng.integers(0, w, ORACLE_SAMPLES).tolist()))
    changed = np.flatnonzero(before != after)
    if changed.size:
        picks = rng.choice(changed, size=min(ORACLE_SAMPLES, changed.size), replace=False)
        coords.update((int(i) // w, int(i) % w) for i in picks)
    return sorted(coords)


def oracle_mismatches(pipeline, before, after, cfg, gate_active: bool, coords) -> list:
    """Sampled pixels of one pass that disagree with the scalar specification."""
    padded = np.pad(before, 2, mode="edge")
    bad = []
    for r, c in coords:
        cls = pipeline.classify(padded, r + 2, c + 2, cfg, gate_active=gate_active)
        w5 = padded[r : r + 5, c : c + 5].ravel().tolist()
        w3 = w5[6:9] + w5[11:14] + w5[16:19]
        want = pipeline.restore_pixel(cls, w3, w5, sorted(w3))
        if int(after[r, c]) != want:
            bad.append((r, c, int(after[r, c]), want))
    return bad


def oracle_module_counts(pipeline, before, cfg, gate_active: bool, names) -> dict[str, int]:
    """Per-stage invocation counts of one pass, from the scalar specification on every pixel."""
    counters = dict.fromkeys(names, 0)
    padded = np.pad(before, 2, mode="edge").tolist()
    h, w = before.shape
    for r in range(h):
        rows = padded[r : r + 5]
        for c in range(w):
            w5 = [v for row in rows for v in row[c : c + 5]]
            w3 = w5[6:9] + w5[11:14] + w5[16:19]
            f = sorted(w3)
            counters["sorter"] += 1
            cls = pipeline.classify_window(
                w3, w5, f, cfg.thresholds, gate_active=gate_active,
                weights_inside_abs=cfg.eq4_literal_weights, counters=counters,
            )
            pipeline.restore_pixel(cls, w3, w5, f, counters)
    return counters


def reference_denoise(mr, noisy: np.ndarray, cfg, rng: np.random.Generator):
    """Denoise pass by pass and check sampled pixels of every pass against the oracle.

    Returns ``(pass_inputs, output, class_counts_per_pass, failures)``.
    """
    inputs, stats, failures = [], [], []
    current = noisy
    for k, (gate_active, one_pass) in enumerate(pass_schedule(cfg), start=1):
        out, (counts,) = mr.pipeline.denoise_with_stats(current, one_pass)
        coords = sample_coords(rng, current, out)
        bad = oracle_mismatches(mr.pipeline, current, out, cfg, gate_active, coords)
        if bad:
            failures.append(
                f"pass {k}: {len(bad)}/{len(coords)} sampled pixels differ from the scalar "
                f"oracle; first (row, col, got, want) = {bad[0]}"
            )
        inputs.append(current)
        stats.append(counts)
        current = out
    return inputs, current, stats, failures


def median(img: np.ndarray, k: int) -> np.ndarray:
    """Exact k x k median over a replication-padded frame, by a full sort."""
    h, w = img.shape
    padded = np.pad(img, k // 2, mode="edge")
    stack = np.stack([padded[dr : dr + h, dc : dc + w] for dr in range(k) for dc in range(k)])
    return np.sort(stack, axis=0)[(k * k) // 2]


def psnr(clean: np.ndarray, out: np.ndarray) -> float:
    """PSNR in dB with peak 255; the mean squared error is summed exactly."""
    diff = clean.astype(np.int64) - out.astype(np.int64)
    err = int(np.sum(diff * diff)) / clean.size
    return math.inf if err == 0 else 10.0 * math.log10(255 * 255 / err)


def strip_time_column(data: bytes) -> bytes:
    """An eval report without its wall-time column, the only non-deterministic field."""
    lines = data.decode().splitlines()
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(workload: str) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())[workload]


def golden_mismatches(golden: dict[str, str], label: str, data: bytes) -> list[str]:
    want = golden.get(label)
    got = sha256(data)
    if want is None:
        return [f"{label}: no golden hash recorded"]
    return [] if got == want else [f"{label}: sha256 {got} differs from golden {want}"]

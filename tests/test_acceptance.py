"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
from conftest import axis_step, make_rng, median_oracle, random_image, slanted_step, make_corpus

from mrdenoise import (
    NoiseSpec,
    PipelineConfig,
    PixelClass,
    Thresholds,
    denoise,
    denoise_with_stats,
    directional_distances,
    disorder,
    inject_rvin,
    median_filter,
    noisy_pixel,
    psnr,
    similarity,
    stream_denoise,
    type1_edge,
    type1_edge_preserve,
    type2_edge,
    type2_edge_preserve,
    average_restore,
)
from mrdenoise.pipeline import _drive, classify


def _report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def _mean_psnr(corpus, density, method, base_seed):
    total = 0.0
    for i, img in enumerate(corpus):
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(density, seed=base_seed + i))
        total += psnr(img, method(noisy))
    return total / len(corpus)


def test_trend_anchor_10_percent():
    """Mean PSNR(proposed) exceeds median3 by >= 1.0 dB at 10% noise, < 30 s."""
    start = time.perf_counter()
    corpus = make_corpus(5, 256)
    proposed = _mean_psnr(corpus, 0.10, denoise, base_seed=101)
    median3 = _mean_psnr(corpus, 0.10, lambda im: median_filter(im, 3), base_seed=101)
    elapsed = time.perf_counter() - start
    assert proposed > median3 + 1.0, (proposed, median3)
    assert elapsed < 30.0
    _report(
        "trend-anchor-10pct",
        f"proposed {proposed:.2f} dB vs median3 {median3:.2f} dB in {elapsed:.1f}s",
    )


def test_trend_anchor_40_percent():
    """Mean PSNR(proposed) exceeds median3 at 40% noise."""
    corpus = make_corpus(5, 256)
    proposed = _mean_psnr(corpus, 0.40, denoise, base_seed=202)
    median3 = _mean_psnr(corpus, 0.40, lambda im: median_filter(im, 3), base_seed=202)
    assert proposed > median3, (proposed, median3)
    _report(
        "trend-anchor-40pct",
        f"proposed {proposed:.2f} dB vs median3 {median3:.2f} dB",
    )


def test_median_filter_oracle_equivalence():
    """median_filter(k=3,5) equals a brute-force window-sort oracle exactly."""
    g = make_rng(7500)
    images = [random_image(1000 + seed, 32, 32) for seed in range(50)]
    # tie-heavy images over alphabets of 2 to 5 distinct values
    for size in (2, 3, 4, 5):
        for _ in range(5):
            alphabet = g.choice(256, size, replace=False).astype(np.uint8)
            images.append(alphabet[g.integers(0, size, (24, 24))])
    images.append(random_image(1100, 17, 40))  # non-square
    cases = [(img, k) for img in images for k in (3, 5)]
    # the smallest frames each window size accepts
    cases += [(random_image(1200 + h, h, w), 3) for h, w in ((3, 3), (3, 7), (7, 3))]
    cases.append((random_image(1205, 5, 5), 5))
    for img, k in cases:
        assert np.array_equal(median_filter(img, k), median_oracle(img, k)), (img.shape, k)
    _report("median-oracle", f"{len(cases)} image/kernel combinations exact")


def test_stream_frame_equivalence():
    """stream_denoise is byte-identical to denoise over 100 varied images."""
    g = make_rng(7000)
    cases = [(5, 5), (5, 7), (128, 96)]
    while len(cases) < 100:
        cases.append((int(g.integers(5, 65)), int(g.integers(5, 65))))
    for idx, (h, w) in enumerate(cases):
        img = g.integers(0, 256, (h, w), dtype=np.uint8)
        density = float(g.uniform(0.0, 0.5))
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(density, seed=idx))
        cfg = PipelineConfig(
            thresholds=Thresholds(
                t1=int(g.integers(0, 50)),
                t2=int(g.integers(0, 400)),
                t3=int(g.integers(0, 70)),
                t4=int(g.integers(0, 25)),
                t5=int(g.integers(0, 9)),
            ),
            iterations=int(g.integers(1, 3)),
            iteration1_skips_similarity_gate=bool(g.integers(0, 2)),
            eq4_literal_weights=bool(g.integers(0, 2)),
        )
        frame = denoise(noisy, cfg)
        stream = stream_denoise(noisy, cfg)
        assert np.array_equal(frame, stream), f"case {idx}: {h}x{w} {cfg}"
    _report("stream-frame-equivalence", "100 images, sizes 5x5 through 128x96")


def test_detector_unit_examples():
    """Worked detector/restorer examples, including the half-unit distances."""
    # sorted-gap edge test
    assert not type1_edge([100] * 9, 20)
    assert type1_edge([0, 0, 0, 0, 0, 255, 255, 255, 255], 20)
    assert not type1_edge([10, 11, 12, 13, 14, 15, 16, 17, 18], 20)
    # directional distances in half units (H, V, D, AD): uniform, step
    # edge, corrupted center, exact halves
    flat = directional_distances([60] * 25)
    assert flat == (0, 0, 0, 0)
    assert min(flat) == 0 and flat.index(min(flat)) == 0  # horizontal
    step = []
    for _ in range(5):
        step += [0, 0, 200, 200, 200]
    dd = directional_distances(step)
    assert dd[0] == 600  # 300 in intensity units
    assert min(dd) == 0 and dd.index(min(dd)) == 1  # vertical
    impulse = [50] * 25
    impulse[12] = 255
    dd2 = directional_distances(impulse)
    assert dd2 == (1230, 1230, 1230, 1230)  # 615 in intensity units
    # noisy-edge test
    assert not type2_edge([80] * 25, 150)
    assert not type2_edge(step, 150)
    assert type2_edge(impulse, 150)
    # disorder test
    assert not disorder(50, sorted([10, 20, 30, 40, 50, 60, 70, 80, 90]), 30)
    assert disorder(255, [0, 5, 10, 10, 10, 10, 40, 200, 255], 30)
    assert not disorder(50, [1, 2, 3, 30, 45, 60, 70, 80, 90], 30)
    # extremum-proximity test
    assert noisy_pixel(100, [100] * 9, 10)
    assert not noisy_pixel(128, [0, 10, 20, 100, 128, 150, 200, 250, 255], 10)
    assert noisy_pixel(250, [10, 20, 30, 100, 128, 150, 200, 250, 255], 10)
    # similarity test
    assert similarity([50] * 9, 10, 6)
    assert not similarity([50, 50, 50, 50, 200, 50, 50, 50, 50], 10, 6)
    assert not similarity([95, 96, 104, 105, 100, 108, 130, 140, 150], 10, 6)
    # restorers
    assert average_restore([0, 0, 0, 7, 7, 7, 9, 9, 9]) == 7
    assert average_restore([0, 0, 0, 10, 12, 14, 20, 20, 20]) == 12
    assert average_restore([0, 0, 0, 10, 11, 11, 20, 20, 20]) == 11
    assert type1_edge_preserve([40] * 9) == 40
    assert type1_edge_preserve([0, 100, 0, 0, 55, 30, 20, 100, 25]) == 100
    assert type1_edge_preserve([30, 20, 40, 10, 99, 10, 40, 20, 30]) == 10
    assert type2_edge_preserve(impulse) == 50
    uniform_center = [80] * 25
    uniform_center[12] = 255
    assert type2_edge_preserve(uniform_center) == 80
    corrupted_step = list(step)
    corrupted_step[12] = 255
    assert type2_edge_preserve(corrupted_step) == 200
    _report("detector-unit-suite", "all worked examples exact, halves included")


def test_invariant_threshold_monotonicity():
    """Raising a threshold never flips a classifier toward its positive side."""
    g = make_rng(8000)
    for _ in range(1000):
        w5 = g.integers(0, 256, 25).tolist()
        w3 = [w5[i] for i in (6, 7, 8, 11, 12, 13, 16, 17, 18)]
        f = sorted(w3)
        lo = int(g.integers(0, 200))
        hi = lo + int(g.integers(0, 200))
        if type1_edge(f, hi):
            assert type1_edge(f, lo)
        if type2_edge(w5, hi):
            assert type2_edge(w5, lo)
        if disorder(w3[4], f, hi):
            assert disorder(w3[4], f, lo)
        t5_lo = int(g.integers(0, 9))
        t5_hi = int(g.integers(t5_lo, 9))
        if similarity(w3, 10, t5_hi):
            assert similarity(w3, 10, t5_lo)
    _report("invariant-monotonicity", "1000 random windows, 4 classifiers")


def test_invariant_brightness_shift():
    """Adding a constant to a window leaves every classifier unchanged."""
    g = make_rng(8100)
    for _ in range(1000):
        c = int(g.integers(0, 101))
        w5 = g.integers(0, 256 - c, 25).tolist()
        s5 = [v + c for v in w5]
        w3 = [w5[i] for i in (6, 7, 8, 11, 12, 13, 16, 17, 18)]
        s3 = [v + c for v in w3]
        f, fs = sorted(w3), sorted(s3)
        assert type1_edge(f, 20) == type1_edge(fs, 20)
        assert type2_edge(w5, 150) == type2_edge(s5, 150)
        assert disorder(w3[4], f, 30) == disorder(s3[4], fs, 30)
        assert noisy_pixel(w3[4], f, 10) == noisy_pixel(s3[4], fs, 10)
        assert similarity(w3, 10, 6) == similarity(s3, 10, 6)
        assert directional_distances(s5) == directional_distances(w5)
    _report("invariant-brightness-shift", "1000 random windows, all classifiers")


def test_invariant_output_range_containment():
    """Restorer outputs stay within their window range; images stay uint8."""
    g = make_rng(8200)
    for _ in range(1000):
        w5 = g.integers(0, 256, 25).tolist()
        w3 = [w5[i] for i in (6, 7, 8, 11, 12, 13, 16, 17, 18)]
        f = sorted(w3)
        assert f[0] <= average_restore(f) <= f[8]
        assert min(w3) <= type1_edge_preserve(w3) <= max(w3)
        assert min(w5) <= type2_edge_preserve(w5) <= max(w5)
    for seed in range(20):
        img = random_image(8300 + seed, 16, 13)
        out = denoise(img)
        assert out.dtype == np.uint8 and out.shape == img.shape
    _report("invariant-output-range", "1000 windows + 20 full images")


def test_invariant_locality_radius():
    """A single-pixel change only moves outputs within radius 2*iterations+2."""
    g = make_rng(8400)
    cfg = PipelineConfig()
    radius = 2 * cfg.iterations + 2
    for trial in range(1000):
        h = int(g.integers(8, 20))
        w = int(g.integers(8, 20))
        img = g.integers(0, 256, (h, w), dtype=np.uint8)
        r = int(g.integers(0, h))
        c = int(g.integers(0, w))
        other = img.copy()
        other[r, c] = (int(other[r, c]) + 128) % 256
        diff = denoise(img, cfg) != denoise(other, cfg)
        rows, cols = np.nonzero(diff)
        if rows.size:
            assert np.abs(rows - r).max() <= radius, trial
            assert np.abs(cols - c).max() <= radius, trial
    _report("invariant-locality", f"1000 perturbations confined to radius {radius}")


def test_invariant_chunking_determinism():
    """Identical results for any row chunking of the input, plus rerun determinism."""
    g = make_rng(8500)
    cfg = PipelineConfig()
    for trial in range(1000):
        h = int(g.integers(5, 24))
        w = int(g.integers(5, 24))
        img = g.integers(0, 256, (h, w), dtype=np.uint8)
        base = denoise(img, cfg)
        cuts = np.sort(g.choice(np.arange(1, h), size=int(g.integers(1, h)), replace=False))
        out = np.concatenate(list(_drive(np.split(img, cuts), cfg, [])))
        assert np.array_equal(out, base), trial
        if trial % 10 == 0:
            assert np.array_equal(denoise(img, cfg), base)
    _report("invariant-chunking-determinism", "1000 images, 2 to h row chunks each")


def test_clean_input_stability():
    """Noise-free inputs survive: uniform exactly, step edges fully traced."""
    # uniform image is a fixed point
    uniform = np.full((32, 32), 120, np.uint8)
    assert np.array_equal(denoise(uniform), uniform)

    # an axis-aligned step edge is value-identical under pure defaults
    step = axis_step(32)
    assert np.array_equal(denoise(step), step)

    # full-trace check: on a slanted clean step edge every pixel entering
    # the edge path classifies KeepEdge (t2/t5 chosen for the geometry: a
    # straight edge offers a gap-visible center at most 4 similar
    # neighbors and a minimum directional distance of 240)
    slanted = slanted_step(32)
    cfg = PipelineConfig(thresholds=Thresholds(t2=250, t5=4))
    out, stats = denoise_with_stats(slanted, cfg)
    assert np.array_equal(out, slanted)
    padded = np.pad(slanted, 2, mode="edge")
    keep_edge = 0
    for r in range(32):
        for c in range(32):
            cls = classify(padded, r + 2, c + 2, cfg)
            assert cls is not PixelClass.NOISY_EDGE, (r, c)
            assert cls is not PixelClass.DISORDERED, (r, c)
            keep_edge += cls is PixelClass.KEEP_EDGE
    assert keep_edge > 0
    for counts in stats:
        assert counts[PixelClass.NOISY_EDGE] == 0
        assert sum(counts.values()) == slanted.size
    _report(
        "clean-input-stability",
        f"uniform + step identities, {keep_edge} edge pixels all KeepEdge",
    )


def test_runtime_budget_single_image():
    """A 256x256 two-pass denoise finishes in under a second single-threaded."""
    img = make_corpus(1, 256)[0]
    noisy, _ = inject_rvin(img, NoiseSpec.rvin(0.2, seed=1))
    denoise(noisy)  # warm-up outside the timed region
    start = time.perf_counter()
    denoise(noisy)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("runtime-budget", f"256x256 two-pass denoise in {elapsed * 1000:.0f} ms")

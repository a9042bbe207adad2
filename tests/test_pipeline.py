import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import axis_step, make_rng, random_image, scalar_pass, synthetic_mr_slice
from test_golden_grid import noisy_pgm

from mrdenoise import (
    MODULE_NAMES,
    NoiseSpec,
    PipelineConfig,
    PixelClass,
    Thresholds,
    denoise,
    denoise_with_stats,
    inject_rvin,
    median_filter,
    psnr,
    restore_pixel,
    write_class_stats_csv,
)
from mrdenoise import pipeline
from mrdenoise.detect import (
    FAR_PIXELS,
    NEAR_PIXELS,
    directional_distances,
    disorder,
    noisy_pixel,
    similarity,
    type1_edge,
    type2_edge,
)
from mrdenoise.pipeline import (
    _BAND_PX,
    _MEDIAN9,
    _MEDIAN25,
    _SORTER,
    _SORTER_RANKS,
    MAX_ITERATIONS,
    _drive,
    _iterate_block,
    _select,
    _tables,
    classify,
    classify_window,
)
from mrdenoise.restore import _PAIRS, type1_edge_preserve, type2_edge_preserve


def padded(img):
    return np.pad(img, 2, mode="edge")


def one_pass(gate_active: bool = True) -> PipelineConfig:
    """A single pass with or without the candidate similarity gate."""
    return PipelineConfig(iterations=1, iteration1_skips_similarity_gate=not gate_active)


def drive_one_chunk(img, cfg):
    """Output and per-pass class counts of the pass driver fed *img* as one chunk."""
    stats = ([],)
    out = np.concatenate(list(_drive([img], cfg, stats)))
    return out, stats[0]


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.iterations == 2
        assert cfg.iteration1_skips_similarity_gate
        assert not cfg.iteration1_skips_noisy_pixel_check
        assert not cfg.eq4_literal_weights

    def test_invalid_iterations(self):
        # the cap must leave room for the getrecursionlimit() + 100 deep-pass tests
        assert MAX_ITERATIONS > sys.getrecursionlimit() + 100
        for iterations in (0, MAX_ITERATIONS + 1, 10**20):
            with pytest.raises(ValueError, match="iterations"):
                PipelineConfig(iterations=iterations)

    def test_fractional_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            PipelineConfig(iterations=2.5)


class TestClassify:
    def test_uniform_interior_is_rescued(self):
        img = np.full((7, 7), 50, np.uint8)
        assert classify(padded(img), 5, 5) is PixelClass.RESCUED_CANDIDATE

    def test_clean_edge_keep_path(self):
        # a window visible to the sorted-gap test (4 low / 5 high) whose
        # vertical line is uniform; t5=4 because the high side of a straight
        # edge can offer at most 4 similar neighbors to a gap-visible center
        w5 = np.full((5, 5), 200, np.uint8)
        for idx in (6, 8, 11, 16):
            w5[divmod(idx, 5)] = 0
        cfg = PipelineConfig(thresholds=Thresholds(t5=4))
        assert classify(w5, 2, 2, cfg) is PixelClass.KEEP_EDGE

    def test_noisy_edge_when_no_direction_aligned(self):
        # gap-visible window like the keep-path one, but with a vertical
        # near pixel knocked out so every direction distance exceeds t2
        w5 = np.full((5, 5), 200, np.uint8)
        for idx in (6, 7, 8, 11, 16):
            w5[divmod(idx, 5)] = 0
        cfg = PipelineConfig(thresholds=Thresholds(t5=4))
        assert classify(w5, 2, 2, cfg) is PixelClass.NOISY_EDGE

    def test_isolated_impulse_is_disordered(self):
        img = np.full((7, 7), 10, np.uint8)
        img[3, 3] = 255
        assert classify(padded(img), 5, 5) is PixelClass.DISORDERED

    def test_gate_inactive_sends_candidates_to_noisy_smooth(self):
        img = np.full((7, 7), 50, np.uint8)
        assert classify(padded(img), 5, 5, gate_active=False) is PixelClass.NOISY_SMOOTH

    def test_candidate_failing_similarity_is_noisy_smooth(self):
        img = np.full((7, 7), 50, np.uint8)
        img[2:5, 2:5] = [[50, 70, 90], [60, 55, 75], [80, 95, 65]]
        # center 55 is within t4 of the window minimum 50 -> candidate;
        # neighbors within 10 of 55: 50, 60, 65 -> 3 < 6 -> not rescued
        assert classify(padded(img), 5, 5) is PixelClass.NOISY_SMOOTH

    def test_out_of_bounds_rejected(self):
        img = np.full((7, 7), 50, np.uint8)
        with pytest.raises(ValueError):
            classify(img, 1, 3)


class TestRestorePixel:
    def test_kept_classes_return_center(self):
        w3 = [1, 2, 3, 4, 42, 6, 7, 8, 9]
        w5 = [0] * 25
        f = sorted(w3)
        for cls in (PixelClass.KEEP_EDGE, PixelClass.KEEP_SMOOTH, PixelClass.RESCUED_CANDIDATE):
            assert restore_pixel(cls, w3, w5, f) == 42

    def test_noisy_smooth_uses_median_rank_average(self):
        # window whose middle sorted values are exactly (10, 12, 14)
        w3 = [10, 12, 14, 1, 2, 3, 250, 251, 252]
        f = sorted(w3)
        assert (f[3], f[4], f[5]) == (10, 12, 14)
        assert restore_pixel(PixelClass.NOISY_SMOOTH, w3, [0] * 25, f) == 12

    def test_noisy_edge_uses_directional_median(self):
        w5 = []
        for _ in range(5):
            w5 += [0, 0, 200, 200, 200]
        w5[12] = 255
        w3 = [w5[i] for i in (6, 7, 8, 11, 12, 13, 16, 17, 18)]
        assert restore_pixel(PixelClass.NOISY_EDGE, w3, w5, sorted(w3)) == 200

    def test_disordered_uses_pair_average(self):
        w3 = [10, 10, 10, 10, 255, 10, 10, 10, 10]
        assert restore_pixel(PixelClass.DISORDERED, w3, [0] * 25, sorted(w3)) == 10


# the scalar predicate behind each bit of the kernel's code, lowest first
PREDICATE_BITS = ("type1_edge", "type2_edge", "similarity", "disorder", "noisy_pixel")


# each schedule step's tables, frozen: digit k of the classes is the PixelClass
# of code k, and digit k of a module's string its runs on code k. Both the
# scalar spec and the tables walk one tree, so only these literals check
# its branches on their own
FROZEN_TABLES = {
    (True, False): (
        "41414041212120213131505121212021",
        {
            "sorter": "11111111111111111111111111111111",
            "type1_edge_detector": "11111111111111111111111111111111",
            "type2_edge_detector": "01010101010101010101010101010101",
            "disorder_analyzer": "10101010101010101010101010101010",
            "noisy_pixel_checker": "10101010000000001010101000000000",
            "similarity_checker": "01000100010001001110111001000100",
            "average_filter": "00000000000000001010000000000000",
            "type1_edge_preserve_filter": "00000000101010100000000010101010",
            "type2_edge_preserve_filter": "01010001010100010101000101010001",
        },
    ),
    (True, True): (
        "41414041212120214141404121212021",
        {
            "sorter": "11111111111111111111111111111111",
            "type1_edge_detector": "11111111111111111111111111111111",
            "type2_edge_detector": "01010101010101010101010101010101",
            "disorder_analyzer": "10101010101010101010101010101010",
            "noisy_pixel_checker": "00000000000000000000000000000000",
            "similarity_checker": "01000100010001000100010001000100",
            "average_filter": "00000000000000000000000000000000",
            "type1_edge_preserve_filter": "00000000101010100000000010101010",
            "type2_edge_preserve_filter": "01010001010100010101000101010001",
        },
    ),
    (False, False): (
        "41414041212120213131303121212021",
        {
            "sorter": "11111111111111111111111111111111",
            "type1_edge_detector": "11111111111111111111111111111111",
            "type2_edge_detector": "01010101010101010101010101010101",
            "disorder_analyzer": "10101010101010101010101010101010",
            "noisy_pixel_checker": "10101010000000001010101000000000",
            "similarity_checker": "01000100010001000100010001000100",
            "average_filter": "00000000000000001010101000000000",
            "type1_edge_preserve_filter": "00000000101010100000000010101010",
            "type2_edge_preserve_filter": "01010001010100010101000101010001",
        },
    ),
    (False, True): (
        "41414041212120214141404121212021",
        {
            "sorter": "11111111111111111111111111111111",
            "type1_edge_detector": "11111111111111111111111111111111",
            "type2_edge_detector": "01010101010101010101010101010101",
            "disorder_analyzer": "10101010101010101010101010101010",
            "noisy_pixel_checker": "00000000000000000000000000000000",
            "similarity_checker": "01000100010001000100010001000100",
            "average_filter": "00000000000000000000000000000000",
            "type1_edge_preserve_filter": "00000000101010100000000010101010",
            "type2_edge_preserve_filter": "01010001010100010101000101010001",
        },
    ),
}


class TestTruthTable:
    @pytest.mark.parametrize("gate_active", [True, False])
    @pytest.mark.parametrize("skip_npc", [False, True])
    def test_tables_match_scalar_spec(self, monkeypatch, gate_active, skip_npc):
        # each predicate answers with one bit of the code, so the scalar
        # specification walks the code's path through the decision tree
        classes, runs = _tables(gate_active, skip_npc)
        w3, w5 = [0] * 9, [0] * 25
        for code in range(32):
            for bit, name in enumerate(PREDICATE_BITS):
                answer = bool(code >> bit & 1)
                monkeypatch.setattr(pipeline, name, lambda *args, answer=answer, **kwargs: answer)
            counters = dict.fromkeys(MODULE_NAMES, 0)
            counters["sorter"] += 1
            cls = classify_window(
                w3,
                w5,
                sorted(w3),
                Thresholds(),
                gate_active=gate_active,
                skip_noisy_pixel_check=skip_npc,
                counters=counters,
            )
            restore_pixel(cls, w3, w5, sorted(w3), counters)
            assert cls == classes[code], code
            assert list(counters.values()) == runs[code].tolist(), code

    @pytest.mark.parametrize(("gate_active", "skip_npc"), list(FROZEN_TABLES))
    def test_tables_frozen(self, gate_active, skip_npc):
        classes, runs = _tables(gate_active, skip_npc)
        want_classes, want_runs = FROZEN_TABLES[gate_active, skip_npc]
        assert "".join(map(str, classes.tolist())) == want_classes
        assert list(want_runs) == list(MODULE_NAMES)
        for m, column in enumerate(want_runs.values()):
            assert "".join(map(str, runs[:, m].tolist())) == column, MODULE_NAMES[m]

    @pytest.mark.parametrize("eq4_literal", [False, True])
    def test_code_bits_are_scalar_predicates(self, eq4_literal):
        g = make_rng(4500)
        for trial in range(20):
            img = random_image(4500 + trial, 9, 11)
            th = Thresholds(
                t1=int(g.integers(0, 60)),
                t2=int(g.integers(0, 300)),
                t3=int(g.integers(0, 60)),
                t4=int(g.integers(0, 30)),
                t5=int(g.integers(0, 9)),
            )
            block = padded(img)
            _, (code,) = _iterate_block(block[None], th, _tables(True, False)[0], eq4_literal)
            for (r, c), value in np.ndenumerate(code):
                w5 = block[r : r + 5, c : c + 5].ravel().tolist()
                w3 = [w5[i] for i in pipeline._W3]
                f = sorted(w3)
                edge = type1_edge(f, th.t1)
                bits = (
                    edge,
                    # a don't-care off edges: the kernel computes it on edges only
                    type2_edge(w5, th.t2, weights_inside_abs=eq4_literal) if edge else value >> 1 & 1,
                    similarity(w3, th.t4, th.t5),
                    disorder(w3[4], f, th.t3),
                    noisy_pixel(w3[4], f, th.t4),
                )
                assert value == sum(b << i for i, b in enumerate(bits)), (trial, r, c)


# thresholds at and around the uint8 range, where the kernel's clamps act
EXTREMES = (0, 127, 128, 255, 256, 10**6)


class TestThresholdExtremes:
    """The uint8 front half against the scalar specification, pixel by pixel,
    with t1..t4 at every combination of ``EXTREMES``."""

    @staticmethod
    def image(seed: int) -> np.ndarray:
        # 0 and 255 beside mid values, alone and in runs
        g = make_rng(seed)
        img = g.choice(np.array([0, 1, 127, 128, 254, 255], np.uint8), (9, 11))
        mid = g.random(img.shape) < 0.3
        img[mid] = g.integers(2, 254, np.count_nonzero(mid))
        img[:3, :3] = 0
        img[1, 1] = 255
        return img

    # numpy integers pass Thresholds' checks too; under numpy 2 (NEP 50) one
    # kept as np.int64 would widen the kernel's uint8 bounds to int64 planes
    @pytest.mark.parametrize("integer", [int, np.int64])
    @pytest.mark.parametrize("eq4_literal", [False, True])
    def test_kernel_matches_scalar_spec(self, eq4_literal, integer):
        blocks, windows = [], []
        for seed in (4700, 4701):
            block = padded(self.image(seed))
            blocks.append(block)
            w5s = [block[r : r + 5, c : c + 5].ravel().tolist() for r, c in np.ndindex(9, 11)]
            windows.append([(w5, [w5[i] for i in pipeline._W3]) for w5 in w5s])
        seen = dict.fromkeys(PixelClass, 0)
        for n, (t1, t2, t3, t4) in enumerate(itertools.product(EXTREMES, repeat=4)):
            th = Thresholds(*map(integer, (t1, t2, t3, t4, n % 9)))
            gate_active = n % 4 < 2
            classes, runs = _tables(gate_active, False)
            block, pixels = blocks[n % 2], windows[n % 2]
            out, (code,) = _iterate_block(block[None], th, classes, eq4_literal)
            counters = dict.fromkeys(MODULE_NAMES, 0)
            for (w5, w3), cls, value in zip(pixels, classes[code].ravel(), out.ravel()):
                f = sorted(w3)
                counters["sorter"] += 1
                expected = classify_window(
                    w3,
                    w5,
                    f,
                    th,
                    gate_active=gate_active,
                    weights_inside_abs=eq4_literal,
                    counters=counters,
                )
                assert cls == expected, (th, w5)
                assert value == restore_pixel(expected, w3, w5, f, counters), (th, w5)
                seen[expected] += 1
            assert list(counters.values()) == runs[code.ravel()].sum(axis=0).tolist(), th
        assert all(seen.values()), seen


# thresholds at and just past the bounds of the lemma, t5 >= 5 and t1 >= t4,
# under which no edge pixel is similar: the defaults, both bounds met exactly,
# t5 one lower, t1 one lower, and the golden grid's KeepEdge cells
LEMMA_EDGES = (
    Thresholds(),
    Thresholds(t1=10, t5=5),
    Thresholds(t5=4),
    Thresholds(t1=9, t5=5),
    Thresholds(t1=5),
    Thresholds(t1=10, t4=20),
)


class TestPrunedKernel:
    """A kernel call that skips the stages whose code bits no class reads, as
    ``_schedule`` decides them, gives every pixel the class and the output of
    the exact kernel, in every schedule step."""

    @staticmethod
    def check(block, th, eq4_literal) -> int:
        """Compare the pruned and the exact kernel on *block* in the gate-off
        first pass, a gate-active pass and a first pass without the candidate
        check; returns how many codes the pruning changed."""
        changed = 0
        cfgs = (
            PipelineConfig(th, iterations=2, eq4_literal_weights=eq4_literal),
            PipelineConfig(th, iterations=1, iteration1_skips_noisy_pixel_check=True, eq4_literal_weights=eq4_literal),
        )
        for classes, _, reads in itertools.chain.from_iterable(map(pipeline._schedule, cfgs)):
            out, code = _iterate_block(block, th, classes, eq4_literal, reads)
            exact_out, exact_code = _iterate_block(block, th, classes, eq4_literal)
            assert np.array_equal(classes[code], classes[exact_code]), (th, reads)
            assert np.array_equal(out, exact_out), (th, reads)
            changed += np.count_nonzero(code != exact_code)
        return changed

    @pytest.mark.parametrize("n", range(len(LEMMA_EDGES)))
    def test_schedule_prunes_under_the_lemma_only(self, n):
        # under the lemma (the first two) the gate-off first pass reads neither
        # the noisy-edge nor the similar bit, and a gate-active pass reads the
        # similar bit only off edges; past either bound every pass reads every bit
        reads = [0b11001, 0b11101] if n < 2 else [0b11111] * 2
        assert [bits for *_, bits in pipeline._schedule(PipelineConfig(LEMMA_EDGES[n]))] == reads

    @pytest.mark.parametrize("eq4_literal", [False, True])
    def test_threshold_extremes_inputs(self, eq4_literal):
        blocks = [padded(TestThresholdExtremes.image(seed))[None] for seed in (4700, 4701)]
        grid = [Thresholds(*t, n % 9) for n, t in enumerate(itertools.product(EXTREMES, repeat=4))]
        changed = sum(self.check(blocks[n % 2], th, eq4_literal) for n, th in enumerate(grid + list(LEMMA_EDGES)))
        assert changed

    @pytest.mark.parametrize("eq4_literal", [False, True])
    @pytest.mark.parametrize("kind", ["rvin", "fvin"])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.4])
    def test_golden_grid_phantoms(self, kind, p, eq4_literal):
        # the golden grid's 256-pixel inputs, as one block and through the
        # driver, whose class counts come from pruned calls
        img = np.frombuffer(noisy_pgm(256, kind, p)[-256 * 256 :], np.uint8).reshape(256, 256)
        changed = 0
        for th in LEMMA_EDGES:
            changed += self.check(padded(img)[None], th, eq4_literal)
            cfg = PipelineConfig(th, eq4_literal_weights=eq4_literal)
            out, stats = denoise_with_stats(img, cfg)
            exact_out, exact_stats, _ = pipeline._run(img, cfg, counts=2)
            assert np.array_equal(out, exact_out) and stats == exact_stats, th
        assert changed


class TestCodeDtype:
    def test_every_stack_reads_back_its_blocks(self, monkeypatch):
        # a 5-wide image streamed a row at a time gives 5 x 9 blocks, the
        # smallest, so the largest stack is _BAND_PX // 45 of them. Pass k takes
        # its first full block 3 * k + 2 steps in, so once that many passes
        # hold a block at once every stack size up to it has run
        most, sizes = _BAND_PX // 45, set()
        kernel = pipeline._iterate_block

        def reading_back(padded, *rest):
            out, code = kernel(padded, *rest)
            n = len(padded)
            # block j's codes offset by 32 * j, in the smallest dtype that holds 32 * n - 1
            assert np.array_equal(code.reshape(n, -1) >> 5, np.broadcast_to(np.arange(n)[:, None], (n, code[0].size))), n
            assert code.dtype == (np.uint8 if n <= 8 else np.uint16), n
            sizes.add(n)
            return out, code

        monkeypatch.setattr(pipeline, "_iterate_block", reading_back)
        img = random_image(4900, 3 * most + 3, 5)
        for _ in _drive((row[None] for row in img), PipelineConfig(iterations=most + 1)):
            if most in sizes:
                break
        assert sizes == set(range(1, most + 1))


class TestSorter:
    """The pruned network returns the ranks the kernel reads: F0, F3, F4, F5, F8."""

    @staticmethod
    def check(planes):
        before = planes.copy()
        ranks = _select(list(planes), _SORTER, _SORTER_RANKS)
        expected = [sorted(col) for col in planes.reshape(9, -1).T.tolist()]
        for rank, plane in zip(_SORTER_RANKS, ranks):
            assert plane.ravel().tolist() == [col[rank] for col in expected], rank
        assert np.array_equal(planes, before)  # the window views are never written

    def test_all_zero_one_inputs(self):
        # the 0-1 principle: a comparator network that gets every 0-1 input
        # right gets every input right
        bits = (np.arange(512) >> np.arange(9)[:, None]) & 1
        self.check(bits.astype(np.int16))

    def test_tie_heavy_planes(self):
        g = make_rng(4500)
        for _ in range(20):
            alphabet = g.integers(0, 256, int(g.integers(1, 5)))
            self.check(alphabet[g.integers(0, len(alphabet), (9, 13, 17))].astype(np.int16))


def zero_one_ranks(table, n: int, ranks) -> None:
    """Check that *table* leaves rank r of every 0-1 input on wire r, for each r in *ranks*.

    The 0-1 principle: a comparator network that selects a rank of every
    0-1 input selects it of every input. The 2**n inputs are bit-sliced into
    uint64 words: lane l of word w is input 64 * w + l, whose bit b is wire
    b, so min and max are AND and OR of whole words. Rank r of an input is 1
    exactly when at least n - r of its bits are 1.
    """
    lanes = np.arange(64, dtype=np.uint64)
    lane_bits = [((lanes >> np.uint64(b)) & np.uint64(1)) for b in range(6)]
    low_wires = [np.bitwise_or.reduce(bit << lanes) for bit in lane_bits]
    lane_ones = sum(lane_bits).astype(np.int64)
    # at_least[k]: the lanes with at least k ones among their six low bits
    at_least = np.array([np.bitwise_or.reduce(np.uint64(1) << lanes[lane_ones >= k]) for k in range(8)])
    all_ones = ~np.uint64(0)
    chunk = 2**14  # words per pass, 128 KiB a wire
    for start in range(0, 2 ** (n - 6), chunk):
        words = np.arange(start, min(start + chunk, 2 ** (n - 6)), dtype=np.uint64)
        high_bits = [(words >> np.uint64(b)) & np.uint64(1) for b in range(n - 6)]
        f = [np.full(words.shape, m) for m in low_wires] + [bit * all_ones for bit in high_bits]
        for i, j, half in table:
            lo, hi = f[i] & f[j], f[i] | f[j]
            if half != "max":
                f[i] = lo
            if half != "min":
                f[j] = hi
        word_ones = sum(high_bits).astype(np.int64)
        for r in ranks:
            expected = at_least[np.clip(n - r - word_ones, 0, 7)]
            assert np.array_equal(f[r], expected), (n, r, start)


class TestNetworkTables:
    """The pruned tables select their ranks, at the comparator and call counts
    their comments give."""

    @pytest.mark.parametrize(
        "table, n, ranks, comparators, calls",
        [
            (_SORTER, 9, _SORTER_RANKS, 24, 44),
            (_MEDIAN9, 9, (4,), 20, 32),
            (_MEDIAN25, 25, (12,), 113, 202),
        ],
        ids=["sorter", "median9", "median25"],
    )
    def test_every_zero_one_input(self, table, n, ranks, comparators, calls):
        assert len(table) == comparators
        assert sum(1 if half else 2 for _, _, half in table) == calls
        zero_one_ranks(table, n, ranks)


def _first_min(pairs):
    """Per column, the value paired with the smallest key; the first minimum wins ties.

    The compare-and-select chain of the scalar edge-preserve filters (a
    strictly smaller key replaces the best so far), kept as the oracle for
    the kernel's packed keys.
    """
    pairs = iter(pairs)
    best_key, best = next(pairs)
    for key, value in pairs:
        take = key < best_key
        best_key = np.where(take, key, best_key)
        best = np.where(take, value, best)
    return best


# positions, in the 3x3 and 5x5 windows, of the pair filter's eight taps and
# the line filter's sixteen, in the order the kernel gathers them
PAIR_POSITIONS = np.ravel(_PAIRS)
LINE_POSITIONS = np.ravel([near + far for near, far in zip(NEAR_PIXELS, FAR_PIXELS)])


def tied_columns(g, width: int, key) -> np.ndarray:
    """(4 * width, n) int16 columns of four directions of *width* taps each,
    in which each set of two, three or four directions shares the smallest
    ``key(taps)``: the tied directions are translates of one shape, which
    keep its key but not its value, so only the direction order breaks the
    tie right."""
    cols = []
    for size in (2, 3, 4):
        for tied in itertools.combinations(range(4), size):
            for _ in range(40):
                shape = g.integers(0, 61, width)
                shape -= shape.min()
                col = []
                for d in range(4):
                    taps = shape + g.integers(0, 256 - shape.max())
                    while d not in tied and key(taps) <= key(shape):
                        taps = g.integers(0, 256, width)
                    col += taps.tolist()
                cols.append(col)
    return np.array(cols, np.int16).T


def corner_columns(taps: int) -> np.ndarray:
    """Every column of *taps* values from {0, 255}."""
    return ((np.arange(2**taps) >> np.arange(taps)[:, None]) & 1).astype(np.int16) * 255


class TestPackedFilters:
    """The kernel's packed-key filters against the first-minimum chain they
    replace and against the scalar filters, on random columns, on columns
    whose smallest keys tie in every arrangement of directions, and on
    every column of 0s and 255s."""

    @staticmethod
    def columns(kind: str, taps: int) -> np.ndarray:
        g = make_rng(5000 + taps)
        if kind == "random":
            return g.integers(0, 256, (taps, 20000)).astype(np.int16)
        if kind == "ties":
            # a pair's key is its difference, a line's its spread
            if taps == 8:
                return tied_columns(g, 2, lambda t: abs(t[0] - t[1]))
            return tied_columns(g, 4, lambda t: np.abs(4 * t - t.sum()).sum())
        return corner_columns(taps)

    @pytest.mark.parametrize("kind", ["random", "ties", "corners"])
    def test_pair_filter(self, kind):
        cols = self.columns(kind, 8)
        packed = pipeline._pair_restore(cols)
        a, b = cols[0::2], cols[1::2]
        assert np.array_equal(packed, _first_min(zip(np.abs(a - b), (a + b + 1) // 2)))
        w3 = np.zeros((9, cols.shape[1]), np.int16)
        w3[PAIR_POSITIONS] = cols
        assert packed.tolist() == [type1_edge_preserve(w) for w in w3.T.tolist()]

    @pytest.mark.parametrize("kind", ["random", "ties", "corners"])
    def test_line_filter(self, kind):
        cols = self.columns(kind, 16)
        # the edge stage's first tap row is the center, which the filter ignores
        center = make_rng(5100).integers(0, 256, (1, cols.shape[1])).astype(np.int16)
        _, packed = pipeline._edge_stage(np.concatenate([center, cols]), False, 0)
        lines = cols.reshape(4, 4, -1)
        s = lines.sum(axis=1)
        spread = np.abs(4 * lines - s[:, None]).sum(axis=1)
        value = (s - lines.min(axis=1) - lines.max(axis=1) + 1) // 2
        assert np.array_equal(packed, _first_min(zip(spread, value)))
        w5 = np.zeros((25, cols.shape[1]), np.int16)
        w5[LINE_POSITIONS] = cols
        assert packed.tolist() == [type2_edge_preserve(w) for w in w5.T.tolist()]


def disorder_medians() -> list[tuple[int, int, int, int]]:
    """``(c, f3, f4, f5)`` with the center c a window value: d below f3 (and,
    mirrored, above f5) with the medians packed or spread, or at f3, f4 or f5
    of medians d apart, for every d in 0..255, at both ends of the uint8 range."""
    below, inside = set(), set()
    for d in range(256):
        for lo in {0, 255 - d}:
            for s in (0, 1, 64):
                f4 = min(lo + d + s, 255)
                below.add((lo, lo + d, f4, min(f4 + s, 255)))
            for f4 in (lo, lo + d // 2, lo + d):
                inside |= {(c, lo, f4, lo + d) for c in (lo, f4, lo + d)}
    above = {(255 - c, 255 - f5, 255 - f4, 255 - f3) for c, f3, f4, f5 in below}
    return sorted(below | above | inside)


class TestFullDomain:
    """Narrowed uint8 forms of the kernel against their scalar tests over
    their whole domain, read back from ``_iterate_block``'s code plane."""

    def test_similarity_range_form(self):
        # rows of the 256 centers c, each between two rows of one value p:
        # a center's window holds six p's and two centers, so with t5 = 6 bit
        # 2 is set exactly when |p - c| <= t4. t1 = t3 = 255 leave no edge or
        # disordered pixel, so no sparse stage runs
        v = np.arange(256, dtype=np.uint8)
        img = np.repeat(v[:, None, None], 3, axis=1).repeat(256, axis=2)
        img[:, 1] = v
        block = padded(img.reshape(768, 256))[None]
        classes = _tables(True, False)[0]
        distance = np.abs(v[:, None].astype(np.int16) - v)  # rows p, columns c
        for t4 in range(300):
            _, (code,) = _iterate_block(block, Thresholds(t1=255, t3=255, t4=t4, t5=6), classes, False)
            assert np.array_equal(code[1::3] >> 2 & 1, distance <= t4), t4

    def test_disorder_two_sided_form(self):
        windows = []
        for c, f3, f4, f5 in disorder_medians():
            # three values at or below f3 and three at or above f5, the center
            # among them, so that f3, f4 and f5 sort to ranks 3, 4 and 5
            values = [min(c, f3)] * 3 + [f3, f4, f5] + [max(c, f5)] * 3
            values.remove(c)
            windows.append(values[:4] + [c] + values[4:])
        # each window in three columns of its own, its center in row 1;
        # t1 = 255 leaves no edge pixel, so only the pair filter's gather runs
        img = np.array(windows, np.uint8).reshape(-1, 3, 3).transpose(1, 0, 2).reshape(3, -1)
        block = padded(img)[None]
        classes, ranked = _tables(True, False)[0], [sorted(w) for w in windows]
        for t3 in range(300):
            _, (code,) = _iterate_block(block, Thresholds(t1=255, t3=t3), classes, False)
            want = [disorder(w[4], f, t3) for w, f in zip(windows, ranked)]
            assert (code[1, 1::3] >> 3 & 1).tolist() == want, t3


def line_extremes(img, eq4_literal: bool) -> tuple[int, int]:
    """The largest directional distance and line spread over the 5x5 windows of *img*."""
    padded = np.pad(img, 2, mode="edge").tolist()
    d_max = spread_max = 0
    for r in range(img.shape[0]):
        for c in range(img.shape[1]):
            w5 = [v for row in padded[r : r + 5] for v in row[c : c + 5]]
            d_max = max(d_max, *directional_distances(w5, weights_inside_abs=eq4_literal))
            for near, far in zip(NEAR_PIXELS, FAR_PIXELS):
                line = [w5[i] for i in near + far]
                spread_max = max(spread_max, sum(abs(4 * v - sum(line)) for v in line))
    return d_max, spread_max


class TestDenoiseIteration:
    def test_uniform_identity(self):
        img = np.full((12, 9), 123, np.uint8)
        for gate in (True, False):
            assert np.array_equal(denoise(img, one_pass(gate)), img)

    def test_single_impulse_removed(self):
        img = np.full((16, 16), 10, np.uint8)
        img[8, 8] = 255
        out = denoise(img, one_pass())
        assert out[8, 8] == 10
        expected = img.copy()
        expected[8, 8] = 10
        assert np.array_equal(out, expected)

    def test_clean_step_edge_is_fixed_point(self):
        img = axis_step()
        once = denoise(img, one_pass())
        assert np.array_equal(once, img)
        assert np.array_equal(denoise(once, one_pass()), img)

    def test_undersized_rejected(self):
        with pytest.raises(ValueError):
            denoise(np.zeros((4, 8), np.uint8), one_pass())


class TestDenoise:
    def test_single_iteration_equals_gateless_pass(self):
        img = random_image(31, 24, 18)
        cfg = PipelineConfig(iterations=1)
        assert np.array_equal(denoise(img, cfg), scalar_pass(img, cfg, gate_active=False))

    def test_no_bypass_first_iteration_runs_full_gate(self):
        img = random_image(32, 24, 18)
        cfg = PipelineConfig(iterations=1, iteration1_skips_similarity_gate=False)
        assert np.array_equal(denoise(img, cfg), scalar_pass(img, cfg, gate_active=True))

    def test_skip_candidate_path_config(self):
        img = random_image(33, 24, 18)
        cfg = PipelineConfig(iterations=1, iteration1_skips_noisy_pixel_check=True)
        expected = scalar_pass(img, cfg, gate_active=False, skip_npc=True)
        assert np.array_equal(denoise(img, cfg), expected)
        # with the candidate path disabled, smooth pixels all survive
        uniform = np.full((10, 10), 55, np.uint8)
        assert np.array_equal(denoise(uniform, cfg), uniform)

    def test_tie_heavy_images_match_scalar_oracle(self):
        # few distinct values make the edge-preserve filters' candidate
        # keys tie often, so the first-minimum rule decides many pixels
        g = make_rng(4400)
        seen = dict.fromkeys(PixelClass, 0)
        for trial in range(40):
            alphabet = g.integers(0, 256, int(g.integers(2, 6)))
            h, w = (int(v) for v in g.integers(5, 17, 2))
            img = alphabet[g.integers(0, len(alphabet), (h, w))].astype(np.uint8)
            thresholds = Thresholds(
                t1=int(g.integers(0, 60)),
                t2=int(g.integers(0, 400)),
                t3=int(g.integers(0, 70)),
                t4=int(g.integers(0, 25)),
                t5=int(g.integers(0, 9)),
            )
            for skip_gate in (False, True):
                for skip_npc in (False, True):
                    for eq4_literal in (False, True):
                        cfg = PipelineConfig(
                            thresholds=thresholds,
                            iterations=1,
                            iteration1_skips_similarity_gate=skip_gate,
                            iteration1_skips_noisy_pixel_check=skip_npc,
                            eq4_literal_weights=eq4_literal,
                        )
                        out, (counts,) = denoise_with_stats(img, cfg)
                        expected = scalar_pass(img, cfg, not skip_gate, skip_npc)
                        assert np.array_equal(out, expected), f"trial {trial}: {cfg}"
                        for cls, n in counts.items():
                            seen[cls] += n
        assert seen[PixelClass.NOISY_EDGE] > 0
        assert seen[PixelClass.DISORDERED] > 0

    @pytest.mark.parametrize("eq4_literal", [False, True])
    @pytest.mark.parametrize("t2", [0, 509, 764, 1020, 2040])
    def test_black_white_images_match_scalar_oracle(self, t2, eq4_literal):
        # images of only 0 and 255 drive the directional distance and line
        # spread, computed on gathered int16 taps, to their written bounds
        # (2040 each; 1530 for the distance without eq4-literal). The
        # kernel computes the distance on edge pixels only, and compares it
        # with 2 * t2 there, where it is at most 1020
        # (1530 with eq4-literal): t2 = 509 and 764 sit just below those.
        # t5 = 3 makes such edges similar, so that test decides their class.
        g = make_rng(4600)
        for density in (0.3, 0.5, 0.7):
            img = np.where(g.random((23, 29)) < density, 255, 0).astype(np.uint8)
            img[:5, :5] = 0
            img[2, 2] = 255  # a lone 255 center: every direction at its maximum
            assert line_extremes(img, eq4_literal) == (2040 if eq4_literal else 1530, 2040)
            for skip_gate in (False, True):
                cfg = PipelineConfig(
                    thresholds=Thresholds(t2=t2, t5=3),
                    iterations=1,
                    iteration1_skips_similarity_gate=skip_gate,
                    eq4_literal_weights=eq4_literal,
                )
                expected = scalar_pass(img, cfg, gate_active=not skip_gate)
                assert np.array_equal(denoise(img, cfg), expected), (density, skip_gate)

    def test_noisy_uniform_image_improves(self):
        img = np.full((256, 256), 100, np.uint8)
        noisy, _ = inject_rvin(img, NoiseSpec.rvin(0.10, seed=5))
        out = denoise(noisy)
        assert psnr(img, out) > psnr(img, noisy)

    def test_clean_phantom_near_identity(self):
        img = synthetic_mr_slice(1)
        assert psnr(img, denoise(img)) >= 40.0

    def test_determinism(self):
        img = random_image(34, 40, 30)
        assert np.array_equal(denoise(img), denoise(img))

    def test_output_shape_and_dtype(self):
        img = random_image(35, 21, 37)
        out = denoise(img)
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_row_chunkings_agree(self):
        img = random_image(36, 45, 33)
        cfg = PipelineConfig(iterations=3)
        base, stats = denoise_with_stats(img, cfg)
        for rows in (1, 2, 3, 7, 43, 44, 45):
            counts = ([],)
            chunks = (img[r : r + rows] for r in range(0, img.shape[0], rows))
            out = np.concatenate(list(_drive(chunks, cfg, counts)))
            assert np.array_equal(out, base), rows
            assert counts[0] == stats

    def test_bands_match_one_chunk(self):
        # the frame engine cuts the image into bands of _BAND_PX // width
        # rows; heights leave a last band of 1 and of 2 rows, and a width
        # above _BAND_PX gives one-row bands
        cfg = PipelineConfig(iterations=3)
        band = 16
        cases = [(2 * band + 1, _BAND_PX // band), (2 * band + 2, _BAND_PX // band), (7, _BAND_PX + 3)]
        for seed, (h, w) in enumerate(cases, start=60):
            img, _ = inject_rvin(random_image(seed, h, w), NoiseSpec.rvin(0.3, seed=seed))
            out, stats = denoise_with_stats(img, cfg)
            expected, expected_stats = drive_one_chunk(img, cfg)
            assert np.array_equal(out, expected), (h, w)
            assert stats == expected_stats, (h, w)

    def test_band_without_restore_pixels(self):
        # three bands of a uniform field; only the middle one holds an
        # impulse, so the other kernel calls have no Disordered or
        # NoisyEdge pixel to restore
        img = np.full((24, _BAND_PX // 8), 100, np.uint8)
        img[12, 40] = 255
        out, (counts,) = denoise_with_stats(img, one_pass())
        assert counts[PixelClass.DISORDERED] == 1 and counts[PixelClass.NOISY_EDGE] == 0
        assert np.array_equal(out, np.full_like(img, 100))
        assert np.array_equal(out, drive_one_chunk(img, one_pass())[0])

    def test_restore_class_covering_the_band(self):
        img = random_image(101, 9, 11)
        cfg = PipelineConfig(thresholds=Thresholds(t1=0, t2=0), iterations=1)
        out, (counts,) = denoise_with_stats(img, cfg)
        assert counts[PixelClass.NOISY_EDGE] == img.size
        assert np.array_equal(out, scalar_pass(img, cfg, gate_active=False))

    @pytest.mark.parametrize("iterations", [1, 2, 3, 10])
    def test_kernel_calls_linear_in_passes(self, monkeypatch, iterations):
        # one block per pass per chunk, plus one end-of-input block per pass;
        # a kernel call may stack the blocks of several passes
        blocks = 0
        kernel = pipeline._iterate_block

        def counting(padded, *rest):
            nonlocal blocks
            blocks += len(padded)
            return kernel(padded, *rest)

        monkeypatch.setattr(pipeline, "_iterate_block", counting)
        img = random_image(58, 96, 20)
        cfg = PipelineConfig(iterations=iterations)
        for rows in (96, 32):
            blocks = 0
            list(_drive((img[r : r + rows] for r in range(0, 96, rows)), cfg, []))
            assert blocks == iterations * (96 // rows + 1), rows

    def test_locality_radius(self):
        cfg = PipelineConfig()
        img = random_image(37, 26, 22)
        base = denoise(img, cfg)
        flipped = img.copy()
        flipped[13, 11] ^= 0x55
        out = denoise(flipped, cfg)
        radius = 2 * cfg.iterations + 2
        rows, cols = np.nonzero(out != base)
        if rows.size:
            assert np.abs(rows - 13).max() <= radius
            assert np.abs(cols - 11).max() <= radius

    def test_identical_neighborhood_never_modified_with_gate(self):
        g = make_rng(38)
        for _ in range(50):
            img = g.integers(0, 256, (14, 14), dtype=np.uint8)
            img[5:8, 5:8] = 77  # center pixel equals all 8 neighbors
            th = Thresholds(
                t1=int(g.integers(0, 60)),
                t2=int(g.integers(0, 400)),
                t3=int(g.integers(0, 80)),
                t4=int(g.integers(0, 30)),
                t5=int(g.integers(0, 9)),
            )
            cfg = PipelineConfig(thresholds=th, iterations=1, iteration1_skips_similarity_gate=False)
            assert denoise(img, cfg)[6, 6] == 77


class TestMemory:
    @staticmethod
    def check_pass_peak(img) -> dict:
        """Check that one pass on a 256x256 frame holds at most 6 int32 planes
        of the 2-pixel-padded 260x260 frame at once (about 1.5 MiB); returns
        the pass's class counts."""
        cfg = PipelineConfig(iterations=1)
        denoise_with_stats(img, cfg)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            _, (counts,) = denoise_with_stats(img, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plane = 260 * 260 * np.dtype(np.int32).itemsize
        assert peak <= 6 * plane, f"peak {peak / plane:.1f} planes"
        return counts

    def test_pass_peak_within_plane_budget(self):
        # about 2.38 planes on uint8 blocks
        self.check_pass_peak(inject_rvin(synthetic_mr_slice(3), NoiseSpec.rvin(0.20, seed=7))[0])

    def test_edge_heavy_pass_peak_within_plane_budget(self):
        # on a uniform random frame the fused edge stage runs on most pixels:
        # the directional distance and the line filter on every edge. Its
        # bounded slices hold the pass to about 4.13 planes, where gathering
        # each stage's taps for all its pixels at once took 16.6
        counts = self.check_pass_peak(random_image(4800, 256, 256))
        assert counts[PixelClass.NOISY_EDGE] > 256 * 256 // 2

    def test_banded_frame_peak_within_four_images(self):
        # the frame engine holds one band's planes at a time, so a two-pass
        # run on 1024x1024 needs little beyond the output image
        noisy, _ = inject_rvin(synthetic_mr_slice(5, size=1024), NoiseSpec.rvin(0.05, seed=9))
        denoise(noisy[:64])  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            denoise(noisy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} images"


    def test_median_result_owns_its_pixels(self):
        img = synthetic_mr_slice(3, size=64)
        for k in (3, 5):
            assert median_filter(img, k).base is None

    # both sizes walk row bands, so on 1024x1024 they hold the padded frame,
    # the output and one band's planes: about 2.3 images for k = 3 and 2.8
    # for k = 5, where whole-frame planes need 11 and 26
    @pytest.mark.parametrize("k", [3, 5])
    def test_median_peak_within_image_budget(self, k):
        noisy, _ = inject_rvin(synthetic_mr_slice(5, size=1024), NoiseSpec.rvin(0.40, seed=7))
        median_filter(noisy[:64], k)  # warm up lazy imports and caches
        tracemalloc.start()
        try:
            median_filter(noisy, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * noisy.nbytes, f"peak {peak / noisy.nbytes:.2f} images"


class TestStats:
    def test_counts_are_exhaustive(self):
        img = random_image(39, 30, 20)
        out, stats = denoise_with_stats(img)
        assert len(stats) == 2
        for counts in stats:
            assert sum(counts.values()) == img.size
            assert all(v >= 0 for v in counts.values())
        assert np.array_equal(out, denoise(img))

    def test_csv_schema(self, tmp_path):
        img = random_image(40, 16, 16)
        _, stats = denoise_with_stats(img)
        path = tmp_path / "stats.csv"
        write_class_stats_csv(path, stats)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,class,count"
        assert len(lines) == 1 + 2 * len(PixelClass)
        assert lines[1].startswith("1,KeepEdge,")
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 2 * img.size


class TestMedianFilter:
    def test_uniform_unchanged(self):
        img = np.full((9, 9), 77, np.uint8)
        for k in (3, 5):
            assert np.array_equal(median_filter(img, k), img)

    def test_single_impulse_removed(self):
        img = np.full((9, 9), 20, np.uint8)
        img[4, 4] = 255
        out = median_filter(img, 3)
        assert out[4, 4] == 20

    @pytest.mark.parametrize("k", [2, 1, 0, -3, 4, 7, 9])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError, match="window size"):
            median_filter(np.zeros((9, 9), np.uint8), k)

    def test_undersized_image(self):
        with pytest.raises(ValueError):
            median_filter(np.zeros((4, 8), np.uint8), 5)

    @pytest.mark.parametrize("k", [3, 5])
    def test_band_boundaries(self, k):
        # bands of _BAND_PX // width rows: heights leave a last band of 1 and
        # of 2 rows, and a width above _BAND_PX gives one-row bands
        band = 32
        cases = [(2 * band + 1, _BAND_PX // band), (2 * band + 2, _BAND_PX // band), (k, _BAND_PX + 3)]
        for seed, (h, w) in enumerate(cases, start=70):
            img = random_image(seed, h, w)
            windows = np.lib.stride_tricks.sliding_window_view(np.pad(img, k // 2, mode="edge"), (k, k))
            expected = np.sort(windows.reshape(h, w, k * k), axis=-1)[..., k * k // 2]
            assert np.array_equal(median_filter(img, k), expected), (h, w)

import contextlib
import gc
import io
import os
import resource
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import random_image, synthetic_mr_slice, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from perfbench.phantom import pgm_bytes
from test_pgm import mutated_pgm

from mrdenoise import (
    NoiseSpec,
    PgmFormatError,
    PipelineConfig,
    Thresholds,
    denoise,
    inject_rvin,
    mask_to_gray,
    median_filter,
    psnr,
    read_pgm,
    write_pgm,
)
from mrdenoise import cli, pgm, pipeline
from mrdenoise.pipeline import MAX_ITERATIONS


def run_child(
    *argv, file_size: int | None = None, memory: int | None = None, cwd: Path | None = None
) -> subprocess.CompletedProcess:
    """``python *argv`` in a child process, in *cwd* if given, that imports the
    same package copy as the tests, its files limited to *file_size* bytes and
    its address space to *memory* bytes, and killed after a minute.

    The child writes no bytecode cache: CPython does not retry a short write
    of a ``.pyc``, so under the file size limit it would leave a truncated
    one that every later child fails to import."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONDONTWRITEBYTECODE": "1",
    }

    def limit():
        for which, value in ((resource.RLIMIT_FSIZE, file_size), (resource.RLIMIT_AS, memory)):
            if value is not None:
                resource.setrlimit(which, (value, value))

    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60, cwd=cwd,
    )


def run_cli(*argv) -> int:
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage failures
        return exc.code if isinstance(exc.code, int) else 2


@pytest.fixture
def sample(tmp_path):
    img = random_image(70, 32, 24)
    path = tmp_path / "in.pgm"
    write_pgm(path, img)
    return img, path


@pytest.fixture
def phantom(tmp_path):
    """A 32 x 32 phantom at 20 % RVIN, smooth areas and edges: --no-iter1-bypass,
    --iterations, --t1 0 and --t5 4 each change its output."""
    path = tmp_path / "phantom.pgm"
    write_pgm(path, inject_rvin(synthetic_mr_slice(3, size=32), NoiseSpec.rvin(0.2, seed=7))[0])
    return path


class TestInject:
    def test_deterministic_rerun(self, tmp_path, sample):
        _, inp = sample
        args = ("inject", inp, tmp_path / "n.pgm", tmp_path / "m.pgm",
                "--kind", "rvin", "--p", "0.1", "--seed", "1")
        assert run_cli(*args) == 0
        first = (tmp_path / "n.pgm").read_bytes(), (tmp_path / "m.pgm").read_bytes()
        assert run_cli(*args) == 0
        second = (tmp_path / "n.pgm").read_bytes(), (tmp_path / "m.pgm").read_bytes()
        assert first == second

    def test_matches_library(self, tmp_path, sample):
        img, inp = sample
        assert run_cli("inject", inp, tmp_path / "n.pgm", tmp_path / "m.pgm",
                       "--kind", "rvin", "--p", "0.25", "--seed", "9") == 0
        noisy, mask = inject_rvin(img, NoiseSpec.rvin(0.25, seed=9))
        assert np.array_equal(read_pgm(tmp_path / "n.pgm"), noisy)
        assert np.array_equal(read_pgm(tmp_path / "m.pgm"), mask_to_gray(mask))

    def test_zero_probability_output_identical(self, tmp_path, sample):
        _, inp = sample
        out = tmp_path / "n.pgm"
        assert run_cli("inject", inp, out, tmp_path / "m.pgm", "--p", "0") == 0
        assert out.read_bytes() == inp.read_bytes()

    def test_fvin(self, tmp_path, sample):
        img, inp = sample
        assert run_cli("inject", inp, tmp_path / "n.pgm", tmp_path / "m.pgm",
                       "--kind", "fvin", "--p1", "0.1", "--p2", "0.1", "--m", "5",
                       "--seed", "3") == 0
        noisy = read_pgm(tmp_path / "n.pgm")
        mask = read_pgm(tmp_path / "m.pgm") == 255
        replaced = noisy[mask].astype(int)
        assert (((replaced <= 5)) | (replaced >= 250)).all()

    def test_prints_realized_fraction(self, tmp_path, sample, capsys):
        _, inp = sample
        run_cli("inject", inp, tmp_path / "n.pgm", tmp_path / "m.pgm", "--p", "0.5")
        out = capsys.readouterr().out
        assert "fraction" in out

    def test_invalid_probability_usage_error(self, tmp_path, sample):
        _, inp = sample
        assert run_cli("inject", inp, tmp_path / "n.pgm", tmp_path / "m.pgm",
                       "--p", "1.5") == 2

    def test_negative_seed_usage_error(self, tmp_path, sample, capsys):
        _, inp = sample
        noisy = tmp_path / "n.pgm"
        assert run_cli("inject", inp, noisy, tmp_path / "m.pgm", "--p", "0.1",
                       "--seed", "-5") == 2
        assert "seed must be nonnegative, got -5" in capsys.readouterr().err
        assert not noisy.exists()

    def test_missing_output_directory_writes_nothing(self, tmp_path, sample, capsys):
        _, inp = sample
        noisy = tmp_path / "n.pgm"
        assert run_cli("inject", inp, noisy, tmp_path / "missing" / "m.pgm", "--p", "0.1") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not noisy.exists()

    @pytest.mark.parametrize("which", [0, 1], ids=["output", "mask"])
    def test_output_naming_a_directory_writes_nothing(self, tmp_path, sample, capsys, which):
        # a directory is found only as its output is opened, which may be
        # after the other is written: neither is renamed over its path
        _, inp = sample
        outputs = [tmp_path / "n.pgm", tmp_path / "m.pgm"]
        for out in outputs:
            out.write_bytes(b"old")
        outputs[which] = tmp_path / "dir"
        outputs[which].mkdir()
        before = sorted(os.listdir(tmp_path))
        assert run_cli("inject", inp, *outputs, "--p", "0.1") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == before and not os.listdir(outputs[which])
        assert outputs[1 - which].read_bytes() == b"old"

    def test_missing_input_io_error(self, tmp_path):
        assert run_cli("inject", tmp_path / "ghost.pgm", tmp_path / "n.pgm",
                       tmp_path / "m.pgm", "--p", "0.1") == 1

    def test_malformed_input_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        assert run_cli("inject", bad, tmp_path / "n.pgm", tmp_path / "m.pgm",
                       "--p", "0.1") == 1


ENGINES = ["frame", "stream"]


class TestDenoise:
    def test_default_flags_equal_explicit(self, tmp_path, sample):
        _, inp = sample
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run_cli("denoise", inp, a) == 0
        assert run_cli("denoise", inp, b, "--t1", "20", "--t2", "150", "--t3", "30",
                       "--t4", "10", "--t5", "6", "--iterations", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            (),
            ("--eq4-literal",),
            ("--t1", "0"),
            ("--t1", "0", "--eq4-literal"),
            ("--no-iter1-bypass",),
            ("--iterations", "3"),
            ("--iterations", "12"),
            ("--t5", "4"),
        ],
        ids=["default", "eq4-literal", "t1-0", "t1-0-eq4-literal", "no-iter1-bypass", "iterations-3",
             "iterations-12", "t5-4"],
    )
    def test_engines_agree_byte_for_byte(self, tmp_path, phantom, flags):
        # the same image and the same class rows of --stats: at t1 = 0 nearly
        # every pixel is an edge, through both forms of the directional
        # distance, and twelve passes join up to twelve blocks in a stream call
        got = []
        for engine in ENGINES:
            out, stats = tmp_path / f"{engine}.pgm", tmp_path / f"{engine}.csv"
            assert run_cli("denoise", phantom, out, "--engine", engine, "--stats", stats, *flags) == 0
            rows = [row for row in stats.read_text(encoding="utf-8").splitlines() if ",stream." not in row]
            got.append((out.read_bytes(), rows))
        assert got[0] == got[1]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "flags, t5, same",
        [
            (("--t2", "0"), "6", True),
            (("--t2", "5000"), "6", True),
            (("--eq4-literal",), "6", True),
            (("--t2", "0"), "4", False),
            (("--eq4-literal",), "4", False),
        ],
        ids=["t2-0", "t2-5000", "eq4-literal", "t2-0-t5-4", "eq4-literal-t5-4"],
    )
    def test_t2_and_eq4_literal_act_only_below_the_lemma(self, tmp_path, phantom, engine, flags, t5, same):
        # while t5 >= 5 and t1 >= t4, as at the defaults, no edge pixel is
        # similar, so the directional distance changes no output (README);
        # at t5 = 4 it does
        base, out = tmp_path / "base.pgm", tmp_path / "out.pgm"
        assert run_cli("denoise", phantom, base, "--engine", engine, "--t5", t5) == 0
        assert run_cli("denoise", phantom, out, "--engine", engine, "--t5", t5, *flags) == 0
        assert (out.read_bytes() == base.read_bytes()) == same

    def test_stream_pass_count_beyond_recursion_limit(self, tmp_path):
        inp = tmp_path / "s5.pgm"
        write_pgm(inp, random_image(91, 5, 5))
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--engine", "stream",
                       "--iterations", sys.getrecursionlimit() + 100) == 0

    def test_matches_library(self, tmp_path, sample):
        img, inp = sample
        out = tmp_path / "out.pgm"
        assert run_cli("denoise", inp, out) == 0
        assert np.array_equal(read_pgm(out), denoise(img))

    def test_clean_uniform_identity(self, tmp_path):
        img = np.full((16, 16), 90, np.uint8)
        inp = tmp_path / "u.pgm"
        write_pgm(inp, img)
        out = tmp_path / "out.pgm"
        assert run_cli("denoise", inp, out) == 0
        assert out.read_bytes() == inp.read_bytes()

    def test_stats_csv(self, tmp_path, sample):
        _, inp = sample
        stats = tmp_path / "stats.csv"
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--stats", stats) == 0
        lines = stats.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,class,count"
        assert len(lines) == 1 + 2 * 6

    def test_stats_csv_stream_includes_modules(self, tmp_path, sample):
        _, inp = sample
        stats = tmp_path / "stats.csv"
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--engine", "stream",
                       "--stats", stats) == 0
        lines = stats.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 6 + 2 * 9
        assert any(line.split(",")[1].startswith("stream.") for line in lines[1:])

    def test_eq4_literal_changes_result(self, tmp_path, phantom):
        # at t5 = 4, below the lemma's bound, where the distance form acts
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", phantom, out, "--eq4-literal", "--t5", "4") == 0
        cfg = PipelineConfig(Thresholds(t5=4), eq4_literal_weights=True)
        assert np.array_equal(read_pgm(out), denoise(read_pgm(phantom), cfg))

    def test_no_iter1_bypass_flag(self, tmp_path, phantom):
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", phantom, out, "--no-iter1-bypass") == 0
        cfg = PipelineConfig(iteration1_skips_similarity_gate=False)
        assert np.array_equal(read_pgm(out), denoise(read_pgm(phantom), cfg))

    def test_hostile_ascii_header_io_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n100000000 100000000\n255\n1 2 3\n")
        assert run_cli("denoise", bad, tmp_path / "o.pgm") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_undersized_image_usage_error(self, tmp_path):
        inp = tmp_path / "small.pgm"
        write_pgm(inp, np.zeros((4, 4), np.uint8))
        assert run_cli("denoise", inp, tmp_path / "o.pgm") == 2

    def test_invalid_iterations_usage_error(self, tmp_path, sample):
        _, inp = sample
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--iterations", "0") == 2

    def test_unknown_flag_usage_error(self, tmp_path, sample):
        _, inp = sample
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--bogus") == 2

    @pytest.mark.parametrize("iterations", [MAX_ITERATIONS + 1, 10**20])
    def test_iterations_above_cap_usage_error(self, tmp_path, sample, capsys, iterations):
        _, inp = sample
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--iterations", iterations) == 2
        assert "iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_stats_directory_writes_nothing(self, tmp_path, sample, capsys):
        _, inp = sample
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--stats", tmp_path / "missing" / "x.csv") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def fifo_feeder(fifo: Path, head: bytes, block: bytes = b"", blocks: int = 0):
    """A started thread that writes *head* and then *blocks* copies of *block*
    into *fifo*, and the list it appends to after each block it got out."""
    written = []

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(head)
            for _ in range(blocks):
                fh.write(block)
                written.append(1)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer, written


class TestFileToFile:
    """``denoise`` reads its input in bands, writes each row as it leaves the
    passes, and writes nothing when it fails."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_in_place_matches_a_fresh_output(self, tmp_path, sample, engine):
        _, inp = sample
        fresh = tmp_path / "fresh.pgm"
        assert run_cli("denoise", inp, fresh, "--engine", engine) == 0
        assert run_cli("denoise", inp, inp, "--engine", engine) == 0
        assert inp.read_bytes() == fresh.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["fresh.pgm", "in.pgm"]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("via", ["link_to_link", "file_to_link"])
    def test_in_place_through_a_symlink(self, tmp_path, engine, via):
        # 64 x 64 outruns the header's first read, so an output opened
        # straight over the input would cut the raster still to be read
        inp, link, fresh = tmp_path / "in.pgm", tmp_path / "link.pgm", tmp_path / "fresh.pgm"
        write_pgm(inp, random_image(74, 64, 64))
        link.symlink_to(inp.name)
        assert run_cli("denoise", inp, fresh, "--engine", engine) == 0
        src = link if via == "link_to_link" else inp
        assert run_cli("denoise", src, link, "--engine", engine) == 0
        assert inp.read_bytes() == fresh.read_bytes()
        assert link.is_symlink() and os.readlink(link) == inp.name
        assert sorted(os.listdir(tmp_path)) == ["fresh.pgm", "in.pgm", "link.pgm"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_bad_raster_keeps_a_symlinked_output(self, tmp_path, capsys, engine):
        text = pgm_bytes(random_image(75, 64, 64), ascii_format=True)
        inp, out, link = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "link.pgm"
        inp.write_bytes(text[:-1] + b" 1x\n")
        out.write_bytes(b"old")
        link.symlink_to(out.name)
        assert run_cli("denoise", inp, link, "--engine", engine) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"old"
        assert link.is_symlink() and os.readlink(link) == out.name
        assert sorted(os.listdir(tmp_path)) == ["in.pgm", "link.pgm", "out.pgm"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_output_mode_is_that_of_a_plain_open(self, tmp_path, sample, engine):
        _, inp = sample
        fresh, kept, ref = tmp_path / "fresh.pgm", tmp_path / "kept.pgm", tmp_path / "ref.pgm"
        kept.write_bytes(b"old")
        kept.chmod(0o604)
        old = os.umask(0o027)
        try:
            with open(ref, "wb"):
                pass
            assert run_cli("denoise", inp, fresh, "--engine", engine) == 0
            assert run_cli("denoise", inp, kept, "--engine", engine) == 0
        finally:
            os.umask(old)
        # a new file gets 0o666 less the umask, an existing one keeps its mode
        assert stat.S_IMODE(fresh.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode) == 0o640
        assert stat.S_IMODE(kept.stat().st_mode) == 0o604
        assert kept.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="only root may give a file away")
    def test_replaced_output_keeps_its_owner(self, tmp_path, sample):
        _, inp = sample
        out = tmp_path / "out.pgm"
        out.write_bytes(b"old")
        os.chown(out, 1234, 5678)
        assert run_cli("denoise", inp, out) == 0
        assert (out.stat().st_uid, out.stat().st_gid) == (1234, 5678)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fifo_output_is_written_straight(self, tmp_path, sample, engine):
        img, inp = sample
        fifo = tmp_path / "out.pgm"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert run_cli("denoise", inp, fifo, "--engine", engine) == 0
        finally:
            reader.join(timeout=30)
        expected = tmp_path / "expected.pgm"
        write_pgm(expected, denoise(img))
        assert got == [expected.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("fault", ["truncated", "bad_last_row"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_bad_raster_writes_nothing(self, tmp_path, capsys, engine, fault, existing):
        # 600 rows of 64 are two frame bands, so both engines have written
        # rows when the fault at the end of the raster is found
        text = pgm_bytes(random_image(72, 600, 64), ascii_format=True)
        last_row = text.rindex(b"\n", 0, len(text) - 1) + 1
        inp = tmp_path / "in.pgm"
        inp.write_bytes(text[:last_row] if fault == "truncated" else text[:-1] + b" 1x\n")
        out = tmp_path / "out.pgm"
        if existing:
            out.write_bytes(b"old")
        before = sorted(os.listdir(tmp_path))
        assert run_cli("denoise", inp, out, "--engine", engine) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == before
        assert not existing or out.read_bytes() == b"old"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unwritable_stats_leaves_the_output(self, tmp_path, sample, engine):
        # --stats names a directory: only its parent is checked up front, so
        # the error comes after the image, whose file must stay as it was
        _, inp = sample
        out = tmp_path / "out.pgm"
        out.write_bytes(b"old")
        (tmp_path / "stats").mkdir()
        before = sorted(os.listdir(tmp_path))
        assert run_cli("denoise", inp, out, "--engine", engine, "--stats", tmp_path / "stats") == 1
        assert sorted(os.listdir(tmp_path)) == before
        assert out.read_bytes() == b"old"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "head, block, blocks",
        [
            (b"P5 1099511627776 5 255\n" + bytes(10), b"", 0),
            (b"P5\n64 64\n255\n", bytes(65536), 256),
            (b"P2\n64 64\n255\n", b"7 " * 32768, 256),
            (b"P5 " + b"9" * 4300 + b" 10 255\n", b"", 0),
            (b"", bytes(65536), 256),
        ],
        ids=["huge_width", "endless_p5", "endless_p2", "count_past_maxsize", "endless_nul"],
    )
    def test_hostile_pipe_exits_1(self, tmp_path, capsys, engine, head, block, blocks):
        # a pipe's bands grow only as bytes arrive, and the raster is
        # refused at its first byte or sample too many: no MemoryError, and
        # the writer is cut off long before its last block
        fifo = tmp_path / "in.pgm"
        os.mkfifo(fifo)
        writer, written = fifo_feeder(fifo, head, block, blocks)
        try:
            assert run_cli("denoise", fifo, tmp_path / "out.pgm", "--engine", engine) == 1
        finally:
            writer.join(timeout=30)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not writer.is_alive()
        assert len(written) <= blocks // 64
        assert os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undersized_pipe_exits_2_from_its_header(self, tmp_path, capsys, engine):
        # 3 columns are refused before any raster byte is read, however many follow
        fifo = tmp_path / "in.pgm"
        os.mkfifo(fifo)
        writer, written = fifo_feeder(fifo, b"P5 3 99999999999999 255\n", bytes(65536), 256)
        try:
            assert run_cli("denoise", fifo, tmp_path / "out.pgm", "--engine", engine) == 2
        finally:
            writer.join(timeout=30)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not writer.is_alive()
        assert len(written) <= 4
        assert os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    def test_raster_count_past_maxsize_exits_1(self, tmp_path, capsys, magic):
        # 4300 nines by 10: each number passes int()'s digit limit, but their
        # product, which no file holds, has 4301 digits
        inp = tmp_path / "in.pgm"
        inp.write_bytes(magic + b" " + b"9" * 4300 + b" 10 255\n")
        assert run_cli("denoise", inp, tmp_path / "out.pgm") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid PGM dimensions") and err.count("\n") == 1
        # the numbers are printed cut to 16 digits, like any header token
        assert len(err) <= 80, f"{len(err)} bytes"
        assert os.listdir(tmp_path) == ["in.pgm"]

    def test_long_maxval_exits_1_on_one_short_line(self, tmp_path, capsys):
        inp = tmp_path / "in.pgm"
        inp.write_bytes(b"P5 5 5 " + b"9" * 4300 + b"\n" + bytes(25))
        assert run_cli("denoise", inp, tmp_path / "out.pgm") == 1
        err = capsys.readouterr().err
        assert err == f"error: unsupported maxval {'9' * 16} (only 255 accepted)\n"
        assert os.listdir(tmp_path) == ["in.pgm"]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("stats", [False, True], ids=["image", "stats"])
    def test_past_the_file_size_limit_writes_nothing(self, tmp_path, engine, stats):
        # a write past RLIMIT_FSIZE fails with EFBIG (Python ignores SIGXFSZ),
        # but the write that reaches the limit writes part of its bytes and
        # returns their count. Image: the limit falls one byte short, in its
        # last write. Stats: 200 passes of an 8 x 8 image write some 20 KB of
        # rows against a limit of 2048 bytes. Either way the command exits 1
        # and leaves both files as they were
        inp, out, csv_path = tmp_path / "in.pgm", tmp_path / "out.pgm", tmp_path / "stats.csv"
        write_pgm(inp, random_image(95, 8, 8))
        out.write_bytes(b"old image")
        csv_path.write_bytes(b"old stats")
        before = sorted(os.listdir(tmp_path))
        argv = ["-m", "mrdenoise", "denoise", inp, out, "--engine", engine]
        if stats:
            proc = run_child(*argv, "--iterations", 200, "--stats", csv_path, file_size=2048)
        else:
            proc = run_child(*argv, file_size=len(inp.read_bytes()) - 1)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert (out.read_bytes(), csv_path.read_bytes()) == (b"old image", b"old stats")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "write",
        [
            "write_pgm(path, np.zeros((64, 64), np.uint8))",
            "write_class_stats_csv(path, [{}] * 200, [{'sorter': 1}] * 200)",
        ],
        ids=["write_pgm", "write_class_stats_csv"],
    )
    def test_failed_library_write_leaves_target(self, tmp_path, write):
        # the library writers go through _replacing, as the CLI's outputs do:
        # past a file size limit of 2048 bytes each raises EFBIG and leaves
        # its target byte-identical, with no temporary file behind
        path = tmp_path / "target"
        path.write_bytes(b"old bytes\n" * 300)
        code = (
            "import errno, sys; import numpy as np; from mrdenoise import write_pgm, write_class_stats_csv\n"
            f"path = sys.argv[1]\ntry:\n    {write}\nexcept OSError as exc:\n    sys.exit(exc.errno != errno.EFBIG)\n"
            "sys.exit('no error')"
        )
        proc = run_child("-c", code, path, file_size=2048)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == b"old bytes\n" * 300
        assert os.listdir(tmp_path) == ["target"]

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_pgm(path, np.zeros((8, 8), np.uint8)),
            lambda path: pipeline.write_class_stats_csv(path, [{}]),
        ],
        ids=["write_pgm", "write_class_stats_csv"],
    )
    def test_library_write_into_missing_directory_names_its_path(self, tmp_path, write):
        # the temporary file beside the target cannot be made, and the error
        # names the path the caller gave, not the temporary one
        path = tmp_path / "missing" / "out"
        with pytest.raises(FileNotFoundError) as excinfo:
            write(path)
        assert excinfo.value.filename == str(path)
        assert str(excinfo.value) == f"[Errno 2] No such file or directory: '{path}'"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("ascii_format", [False, True], ids=["P5", "P2"])
    def test_peak_does_not_grow_with_height(self, tmp_path, engine, ascii_format):
        # a band or a row is in flight at a time, so 64 x 20 000 peaks within
        # 10 % of 64 x 2 500; holding the frame, the peak grows with the height.
        # The stream engine's time goes with its row count, one kernel call a
        # row, so it gets 256 x 800 against 256 x 100, which still doubles a
        # frame-holding peak
        width, heights = (64, (2500, 20000)) if engine == "frame" else (256, (100, 800))
        inp, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_pgm(inp, random_image(73, 16, 64))
        assert run_cli("denoise", inp, out, "--engine", engine) == 0  # caches warm

        def run():
            assert run_cli("denoise", inp, out, "--engine", engine, "--stats", tmp_path / "s.csv") == 0

        peaks = []
        for height in heights:
            inp.write_bytes(pgm_bytes(random_image(height, height, width), ascii_format))
            gc.collect()
            peaks.append(traced_peak(run))
        assert peaks[1] <= 1.1 * peaks[0], f"peaks {peaks} bytes"


@st.composite
def small_pgm(draw):
    """A random 4x4 to 9x12 image as a P5 or P2 file; 4 rows or columns is undersized."""
    img = random_image(draw(st.integers(0, 2**16)), draw(st.integers(4, 9)), draw(st.integers(4, 12)))
    return pgm_bytes(img, draw(st.booleans()))


def raster_shape(data: bytes, fifo: bool) -> tuple[int, int] | None:
    """The shape ``pgm._raster`` takes from *data* in a regular file, or in a
    pipe, which has no size to check; None where it refuses the input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probe.pgm"
        if fifo:
            os.mkfifo(path)
            writer, _ = fifo_feeder(path, data)
        else:
            path.write_bytes(data)
        try:
            with open(path, "rb", buffering=0) as fh:
                return pgm._raster(fh)[0]
        except PgmFormatError:
            return None
        finally:
            if fifo:
                writer.join(timeout=10)


class TestMutatedInput:
    """``denoise`` of any input exits 0 with the library's image exactly when
    ``read_pgm`` takes the input, 2 when the header passes and declares an
    undersized image, and otherwise 1; on failure it prints one ``error:``
    line and leaves its output directory as it was."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_pgm(small_pgm()), st.booleans(), st.booleans(), st.integers(1, 8), st.integers(1, 64))
    def test_denoises_like_the_library_or_writes_nothing(self, data, fifo, existing, chunk, band_px):
        with tempfile.TemporaryDirectory() as tmp:
            ref = Path(tmp) / "ref.pgm"
            ref.write_bytes(data)
            shape = raster_shape(data, fifo)
            if shape is None:
                expected = 1
            elif min(shape) < 5:
                expected = 2  # refused from the header, whatever the raster holds
            else:
                try:
                    write_pgm(ref, denoise(read_pgm(ref)))
                    expected = 0
                except PgmFormatError:
                    expected = 1
            want = ref.read_bytes()
            ref.unlink()
            inp, out = Path(tmp) / "in.pgm", Path(tmp) / "out.pgm"
            for engine in ENGINES:
                if fifo:
                    os.mkfifo(inp)
                    writer, _ = fifo_feeder(inp, data)
                else:
                    inp.write_bytes(data)
                if existing:
                    out.write_bytes(b"old")
                before = sorted(os.listdir(tmp))
                err = io.StringIO()
                # reads of a few bytes and bands of a few rows cut the raster everywhere
                with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
                    mp.setattr(pgm, "_CHUNK", chunk)
                    mp.setattr(pipeline, "_BAND_PX", band_px)
                    code = run_cli("denoise", inp, out, "--engine", engine)
                if fifo:
                    writer.join(timeout=10)
                    assert not writer.is_alive()
                err = err.getvalue()
                if expected == 0:
                    assert (code, err) == (0, "")
                    assert out.read_bytes() == want
                    assert sorted(os.listdir(tmp)) == sorted({*before, "out.pgm"})
                else:
                    assert code == expected, err
                    assert err.startswith("error: ") and err.count("\n") == 1, err
                    assert sorted(os.listdir(tmp)) == before
                    assert not existing or out.read_bytes() == b"old"
                inp.unlink()
                out.unlink(missing_ok=True)


class TestConfigFile:
    def test_comments_blank_lines_and_upper_case_keys(self, tmp_path, sample):
        img, inp = sample
        config = tmp_path / "th.cfg"
        config.write_text("# thresholds\n\nT1 = 12  # edge gap\n  t4=3\n\n", encoding="utf-8")
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--config", config) == 0
        cfg = PipelineConfig(thresholds=Thresholds(t1=12, t4=3))
        assert np.array_equal(read_pgm(out), denoise(img, cfg))

    def test_flag_overrides_file(self, tmp_path, sample):
        img, inp = sample
        config = tmp_path / "th.cfg"
        config.write_text("t1=12\nt2=90\n", encoding="utf-8")
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--config", config, "--t1", "35") == 0
        cfg = PipelineConfig(thresholds=Thresholds(t1=35, t2=90))
        assert np.array_equal(read_pgm(out), denoise(img, cfg))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t1=5\nt9=3\n", "line 2: unknown threshold 't9'"),
            ("t2=5\n# again\nT2=6\n", "line 3: duplicate threshold 't2'"),
            ("t1=5\nt3 7\n", "line 2: expected key=value, got 't3 7'"),
            ("t4=ten\n", "line 1: invalid integer for t4: 'ten'"),
            ("t5=9\n", "t5 counts 3x3 neighbors and cannot exceed 8"),
            ("t3=-1\n", "t3 must be nonnegative"),
        ],
        ids=["unknown-key", "duplicate-key", "missing-equals", "non-integer", "t5-9", "negative"],
    )
    def test_invalid_file_usage_error(self, tmp_path, sample, capsys, text, message):
        _, inp = sample
        config = tmp_path / "th.cfg"
        config.write_text(text, encoding="utf-8")
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--config", config) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o.pgm").exists()

    def test_endless_file_usage_error(self, tmp_path, sample):
        # a device or an endless pipe is refused past 64 KiB, never read
        # whole: under a 600 MB address space limit it exits 2, with no
        # traceback and no output (read whole, it raised MemoryError)
        _, inp = sample
        out = tmp_path / "o.pgm"
        proc = run_child("-m", "mrdenoise", "denoise", inp, out, "--config", "/dev/zero", memory=600_000_000)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: threshold file is longer than 65536 bytes\n"
        assert not out.exists()

    def test_missing_file_io_error(self, tmp_path, sample, capsys):
        _, inp = sample
        missing = tmp_path / "absent.cfg"
        assert run_cli("denoise", inp, tmp_path / "o.pgm", "--config", missing) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.cfg" in err


class TestEval:
    def make_corpus(self, tmp_path, count=2, size=24):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i in range(count):
            write_pgm(corpus / f"img{i}.pgm", random_image(80 + i, size, size))
        return corpus

    def test_single_cell_single_row(self, tmp_path):
        corpus = self.make_corpus(tmp_path, count=1)
        out = tmp_path / "report.csv"
        assert run_cli("eval", corpus, "--out", out, "--densities", "0.1",
                       "--methods", "median3") == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "image,kind,density,method,psnr_db,time_ms"
        assert len(lines) == 2
        assert lines[1].startswith("img0,rvin,0.1,median3,")

    def test_row_count_and_values(self, tmp_path):
        corpus = self.make_corpus(tmp_path, count=2)
        out = tmp_path / "report.csv"
        assert run_cli("eval", corpus, "--out", out, "--densities", "0.1,0.3",
                       "--seed", "5") == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 2 * 3
        # recompute one cell independently
        clean = read_pgm(corpus / "img0.pgm")
        noisy, _ = inject_rvin(clean, NoiseSpec.rvin(0.1, seed=5))
        expected = psnr(clean, median_filter(noisy, 3))
        row = next(l for l in lines if l.startswith("img0,rvin,0.1,median3,"))
        assert float(row.split(",")[4]) == pytest.approx(expected, abs=1e-6)

    def test_deterministic_modulo_timing(self, tmp_path):
        corpus = self.make_corpus(tmp_path, count=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("eval", corpus, "--out", out, "--densities", "0.2",
                           "--methods", "proposed,median3", "--seed", "7") == 0
        strip = lambda p: [",".join(l.split(",")[:5]) for l in p.read_text().splitlines()]
        assert strip(a) == strip(b)

    def test_prints_table(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, count=1)
        run_cli("eval", corpus, "--out", tmp_path / "r.csv", "--densities", "0.1",
                "--methods", "median3,median5")
        out = capsys.readouterr().out
        assert "median3" in out and "10.0%" in out

    def test_empty_corpus_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("eval", empty, "--out", tmp_path / "r.csv") == 2

    def test_missing_corpus_io_error(self, tmp_path):
        assert run_cli("eval", tmp_path / "nowhere", "--out", tmp_path / "r.csv") == 1

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        corpus = self.make_corpus(tmp_path, count=1)
        out = tmp_path / "r.csv"
        assert run_cli("eval", corpus, "--out", out, "--densities", "0.1",
                       "--methods", "median3", "--seed", "-7") == 2
        assert "seed must be nonnegative, got -7" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_checked_before_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.pgm").write_bytes(b"P5\n4 4\n255\nxx")
        assert run_cli("eval", corpus, "--out", tmp_path / "r.csv", "--seed", "-7") == 2
        assert "seed must be nonnegative, got -7" in capsys.readouterr().err

    def test_missing_out_directory_before_any_work(self, tmp_path, capsys, monkeypatch):
        corpus = self.make_corpus(tmp_path, count=1)
        reads = []
        monkeypatch.setattr(cli, "read_pgm", lambda path: reads.append(path) or read_pgm(path))
        assert run_cli("eval", corpus, "--out", tmp_path / "missing" / "r.csv",
                       "--densities", "0.1", "--methods", "median3") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert reads == []

    def test_out_naming_a_directory_before_any_cell(self, tmp_path, capsys, monkeypatch):
        corpus = self.make_corpus(tmp_path, count=1)
        out = tmp_path / "r"
        out.mkdir()
        cells = []
        monkeypatch.setitem(cli.METHODS, "median3", lambda noisy, cfg: cells.append(1) or median_filter(noisy, 3))
        before = sorted(os.listdir(tmp_path))
        assert run_cli("eval", corpus, "--out", out, "--densities", "0.1", "--methods", "median3") == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert cells == [] and sorted(os.listdir(tmp_path)) == before and not os.listdir(out)

    @pytest.mark.parametrize(
        ("z", "code"), [(b"P5\n8 8\n255\nxx", 1), (pgm_bytes(random_image(81, 4, 4), False), 2)], ids=["malformed", "4x4"]
    )
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, z, code):
        # the second image is malformed or too small for median5, so rows of the
        # first have been made; the one error line names the image that failed
        corpus = self.make_corpus(tmp_path, count=1)
        (corpus / "z.pgm").write_bytes(z)
        out = tmp_path / "r.csv"
        out.write_bytes(b"old")
        before = sorted(os.listdir(tmp_path))
        assert run_cli("eval", corpus, "--out", out, "--densities", "0.1", "--methods", "median5") == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {corpus / 'z.pgm'}: "), err
        assert sorted(os.listdir(tmp_path)) == before and out.read_bytes() == b"old"

    def test_bad_density_usage_error(self, tmp_path):
        corpus = self.make_corpus(tmp_path, count=1)
        assert run_cli("eval", corpus, "--out", tmp_path / "r.csv",
                       "--densities", "1.5") == 2
        assert run_cli("eval", corpus, "--out", tmp_path / "r.csv",
                       "--methods", "magic") == 2


class TestUsageErrors:
    """Usage errors found in code print one ``error:`` line and exit 2."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("inject", "{in}", "{o}", "{m}", "--p", "1.5"), "p must lie in [0, 1], got 1.5"),
            (("inject", "{in}", "{o}", "{m}", "--kind", "fvin", "--p1", "nan", "--p2", "0.1"),
             "p1 and p2 must be nonnegative with p1 + p2 <= 1"),
            (("denoise", "{in}", "{o}", "--iterations", "0"), "iterations must be 1 to"),
            (("denoise", "{in}", "{o}", "--t5", "9"), "t5 counts 3x3 neighbors and cannot exceed 8"),
            (("eval", "{c}", "--out", "{o}", "--densities", "1.5"), "density 1.5 outside [0, 1]"),
            (("eval", "{c}", "--out", "{o}", "--densities", ",,"), "density list is empty"),
            (("eval", "{c}", "--out", "{o}", "--densities", "0.1,x"), "invalid density list: '0.1,x'"),
            (("eval", "{c}", "--out", "{o}", "--methods", "magic"),
             "unknown method 'magic' (choose from proposed, median3, median5)"),
            (("eval", "{c}", "--out", "{o}", "--methods", " , "), "method list is empty"),
            (("eval", "{e}", "--out", "{o}"), "no .pgm images found in {e}"),
            (("eval", "{c}", "--out", "{o}", "--densities", "0.1,0.2,0.10"), "density 0.1 given twice"),
            (("eval", "{c}", "--out", "{o}", "--methods", "median3,proposed,median3"),
             "method 'median3' given twice"),
            (("inject", "{in}", "{o}", "{m}", "--kind", "fvin", "--p", "0.3"),
             "fvin noise does not use p (it uses p1, p2, m)"),
            (("inject", "{in}", "{o}", "{m}", "--p", "0.1", "--p1", "0.1"), "rvin noise does not use p1 (it uses p)"),
            (("inject", "{in}", "{o}", "{m}", "--kind", "rvin", "--p2", "0.2"), "rvin noise does not use p2 (it uses p)"),
            (("inject", "{in}", "{o}", "{m}", "--p", "0.1", "--m", "5"), "rvin noise does not use m (it uses p)"),
        ],
    )
    def test_one_error_line_without_usage(self, tmp_path, sample, capsys, args, message):
        _, inp = sample
        corpus, empty = tmp_path / "corpus", tmp_path / "empty"
        corpus.mkdir()
        empty.mkdir()
        write_pgm(corpus / "a.pgm", random_image(71, 16, 16))
        paths = {"in": inp, "o": tmp_path / "o.pgm", "m": tmp_path / "m.pgm", "c": corpus, "e": empty}
        assert run_cli(*(a.format_map(paths) for a in args)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format_map(paths)}")
        assert err.count("\n") == 1 and "usage:" not in err
        assert not paths["o"].exists() and not paths["m"].exists()

    @pytest.mark.parametrize(
        "args",
        [("denoise", "{in}", "{o}", "--stats", "{o}"), ("inject", "{in}", "{o}", "{link}", "--p", "0.1")],
        ids=["denoise_stats", "inject_mask_via_symlink"],
    )
    def test_two_outputs_naming_one_file(self, tmp_path, sample, capsys, args):
        # only the output written last would stay
        _, inp = sample
        out, link = tmp_path / "o.pgm", tmp_path / "link.pgm"
        out.write_bytes(b"old")
        link.symlink_to(out.name)
        before = sorted(os.listdir(tmp_path))
        paths = {"in": inp, "o": out, "link": link}
        assert run_cli(*(a.format_map(paths) for a in args)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outputs ") and err.count("\n") == 1, err
        assert sorted(os.listdir(tmp_path)) == before
        assert out.read_bytes() == b"old"

    def test_argparse_errors_keep_usage(self, tmp_path, sample, capsys):
        _, inp = sample
        assert run_cli("inject", inp, tmp_path / "o.pgm", tmp_path / "m.pgm", "--kind", "speckle") == 2
        assert capsys.readouterr().err.startswith("usage: mrdenoise inject")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        img = random_image(90, 12, 12)
        inp = tmp_path / "in.pgm"
        write_pgm(inp, img)
        out = tmp_path / "out.pgm"
        proc = run_child("-m", "mrdenoise", "denoise", inp, out, "--iterations", 1)
        assert proc.returncode == 0, proc.stderr
        from mrdenoise import PipelineConfig

        assert np.array_equal(read_pgm(out), denoise(img, PipelineConfig(iterations=1)))

    @pytest.mark.parametrize(
        "argv",
        [("inject", "big.pgm", "o.pgm", "m.pgm", "--p", "0.1"), ("eval", ".", "--out", "r.csv", "--methods", "median3")],
        ids=["inject", "eval"],
    )
    def test_out_of_memory_exits_1(self, tmp_path, argv):
        # an 8000 x 8000 image (a sparse file) is read, but its noise draw of
        # two doubles a pixel, 977 MiB, cannot be allocated under a 600 MB
        # address space limit: one error line, no traceback and no output
        with open(tmp_path / "big.pgm", "wb") as fh:
            fh.write(b"P5 8000 8000 255\n")
            fh.truncate(fh.tell() + 8000 * 8000)
        proc = run_child("-m", "mrdenoise", *argv, memory=600_000_000, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        if argv[0] == "eval":
            assert "big.pgm" in proc.stderr, proc.stderr
        assert os.listdir(tmp_path) == ["big.pgm"]

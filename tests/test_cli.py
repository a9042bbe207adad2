import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_image

from mrdenoise import (
    NoiseSpec,
    PipelineConfig,
    Thresholds,
    denoise,
    inject_rvin,
    median_filter,
    psnr,
    read_mask,
    read_pgm,
    write_pgm,
)
from mrdenoise import cli
from mrdenoise.pipeline import MAX_ITERATIONS


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
        assert np.array_equal(read_mask(tmp_path / "m.pgm"), mask)

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
        mask = read_mask(tmp_path / "m.pgm")
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

    def test_missing_input_io_error(self, tmp_path):
        assert run_cli("inject", tmp_path / "ghost.pgm", tmp_path / "n.pgm",
                       tmp_path / "m.pgm", "--p", "0.1") == 1

    def test_malformed_input_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        assert run_cli("inject", bad, tmp_path / "n.pgm", tmp_path / "m.pgm",
                       "--p", "0.1") == 1


class TestDenoise:
    def test_default_flags_equal_explicit(self, tmp_path, sample):
        _, inp = sample
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run_cli("denoise", inp, a) == 0
        assert run_cli("denoise", inp, b, "--t1", "20", "--t2", "150", "--t3", "30",
                       "--t4", "10", "--t5", "6", "--iterations", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_engines_agree_byte_for_byte(self, tmp_path, sample):
        _, inp = sample
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run_cli("denoise", inp, a, "--engine", "frame") == 0
        assert run_cli("denoise", inp, b, "--engine", "stream") == 0
        assert a.read_bytes() == b.read_bytes()

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

    def test_eq4_literal_changes_result(self, tmp_path, sample):
        img, inp = sample
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--eq4-literal") == 0
        from mrdenoise import PipelineConfig

        assert np.array_equal(read_pgm(out), denoise(img, PipelineConfig(eq4_literal_weights=True)))

    def test_no_iter1_bypass_flag(self, tmp_path, sample):
        img, inp = sample
        out = tmp_path / "o.pgm"
        assert run_cli("denoise", inp, out, "--no-iter1-bypass") == 0
        from mrdenoise import PipelineConfig

        cfg = PipelineConfig(iteration1_skips_similarity_gate=False)
        assert np.array_equal(read_pgm(out), denoise(img, cfg))

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

    def test_bad_density_usage_error(self, tmp_path):
        corpus = self.make_corpus(tmp_path, count=1)
        assert run_cli("eval", corpus, "--out", tmp_path / "r.csv",
                       "--densities", "1.5") == 2
        assert run_cli("eval", corpus, "--out", tmp_path / "r.csv",
                       "--methods", "magic") == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        img = random_image(90, 12, 12)
        inp = tmp_path / "in.pgm"
        write_pgm(inp, img)
        out = tmp_path / "out.pgm"
        # the child process imports the same package copy as this test
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mrdenoise", "denoise", str(inp), str(out),
             "--iterations", "1"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        from mrdenoise import PipelineConfig

        assert np.array_equal(read_pgm(out), denoise(img, PipelineConfig(iterations=1)))

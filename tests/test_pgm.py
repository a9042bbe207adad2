import contextlib
import os
import sys
import threading
from itertools import islice

import numpy as np
import pytest
from conftest import random_image, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from perfbench.phantom import pgm_bytes, rvin, synthetic_mr_slice

from mrdenoise import PgmFormatError, mask_to_gray, pgm, read_pgm, write_pgm
from mrdenoise.pgm import _TOKEN

_WHITESPACE = b" \t\n\r\x0b\x0c"


class OracleScanner:
    """The per-byte header tokenizer the regex replaced, kept as its reference."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def next_token(self) -> bytes:
        data, n = self.data, len(self.data)
        i = self.pos
        while i < n:
            c = data[i : i + 1]
            if c in _WHITESPACE:
                i += 1
            elif c == b"#":
                while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                    i += 1
            else:
                break
        if i >= n:
            raise PgmFormatError("unexpected end of file in PGM header")
        j = i
        while j < n and data[j : j + 1] not in _WHITESPACE:
            j += 1
        self.pos = j
        return data[i:j]


def oracle_number(token: bytes) -> int:
    """A header number or P2 sample as an integer.

    The reader's rule, written out here so that the oracle shares no code
    with the reader it checks: ASCII digits, no more of them than ``int()``
    converts, or than CPython's default of 4300 where it has no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    if not token.isdigit() or len(token) > limit:
        raise PgmFormatError(f"bad number {token[:16]!r}")
    return int(token)


def oracle_header_int(tokens) -> tuple[int, int]:
    """The next header token as an integer, and the offset just past it."""
    m = next(tokens, None)
    if m is None:
        raise PgmFormatError("unexpected end of file in PGM header")
    return oracle_number(m[1]), m.end()


def oracle_read(data: bytes) -> np.ndarray:
    """The whole-file reader the chunked one replaced, kept as its reference.

    It tokenizes the whole file with ``_TOKEN`` and takes each sample
    through :func:`oracle_number`, which must make at most 255.
    """
    tokens = (m for m in _TOKEN.finditer(data) if m[1] is not None)
    first = next(tokens, None)
    if (first[1] if first else b"") not in (b"P5", b"P2"):
        raise PgmFormatError("magic")
    width, _ = oracle_header_int(tokens)
    height, _ = oracle_header_int(tokens)
    if width < 1 or height < 1:
        raise PgmFormatError("dimensions")
    maxval, pos = oracle_header_int(tokens)
    if maxval != 255:
        raise PgmFormatError("maxval")
    count = width * height
    if first[1] == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE or len(data) - pos - 1 != count:
            raise PgmFormatError("raster")
        return np.frombuffer(data, np.uint8, count, offset=pos + 1).reshape(height, width)
    values = [oracle_number(m[1]) for m in islice(tokens, count)]
    if max(values, default=0) > 255:
        raise PgmFormatError("sample over 255")
    if len(values) < count or next(tokens, None) is not None:
        raise PgmFormatError("count")
    return np.array(values, np.uint8).reshape(height, width)


def assert_reads_like_oracle(path, data: bytes, chunk: int) -> None:
    """``read_pgm`` with *chunk*-byte reads returns the oracle's array, or both raise."""
    path.write_bytes(data)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pgm, "_CHUNK", chunk)
        for read in (oracle_read, lambda _: read_pgm(path)):
            try:
                results.append(read(data))
            except PgmFormatError:
                results.append(None)
    expected, got = results
    if expected is None or got is None:
        assert expected is got, f"oracle {expected!r}, read_pgm {got!r} on {data!r}"
    else:
        assert got.dtype == np.uint8 and got.shape == expected.shape
        assert np.array_equal(got, expected), data


# bytes that matter to the tokenizer, plus a few that do not
_PGM_BYTES = st.sampled_from(list(_WHITESPACE + b"#0123456789P25-+_x\xff"))
_BASES = [
    b"P5\n3 2\n255\n" + bytes([0, 9, 10, 32, 35, 255]),
    b"P2\n3 2\n255\n0 9 10\n32 35 255\n",
    b"P2 # c\n# line\n2 1\n255 # x\n1 #2\n 3\n",
]


@st.composite
def mutated_pgm(draw, bases=st.sampled_from(_BASES)):
    """Up to four single-byte inserts, deletes or replacements of a file *bases* draws."""
    data = bytearray(draw(bases))
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            data.insert(pos, draw(_PGM_BYTES))
        elif data:
            pos = min(pos, len(data) - 1)
            if op == "delete":
                del data[pos]
            else:
                data[pos] = draw(_PGM_BYTES)
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.pgm"


class TestRoundtrip:
    def test_binary_roundtrip(self, tmp_path):
        img = random_image(1, 13, 17)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_ascii_roundtrip(self, tmp_path):
        img = random_image(2, 9, 7)
        path = tmp_path / "img.pgm"
        path.write_bytes(pgm_bytes(img, ascii_format=True))
        assert np.array_equal(read_pgm(path), img)

    def test_all_byte_values_survive_binary(self, tmp_path):
        # raster bytes that look like whitespace or '#' must pass through
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "bytes.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_write_is_deterministic(self, tmp_path):
        img = random_image(3, 6, 6)
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, img)
        write_pgm(b, img)
        assert a.read_bytes() == b.read_bytes()

    def test_binary_header_layout(self, tmp_path):
        img = np.array([[0, 10], [20, 255]], np.uint8)
        path = tmp_path / "h.pgm"
        write_pgm(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 10, 20, 255])

    def test_non_contiguous_binary_roundtrip(self, tmp_path):
        img = random_image(4, 12, 10)
        path = tmp_path / "t.pgm"
        write_pgm(path, img[::-1, ::2].T)
        assert np.array_equal(read_pgm(path), img[::-1, ::2].T)

    @pytest.mark.parametrize("ascii_format", [False], ids=["P5"])
    def test_bytes_equal_frozen_encoder(self, tmp_path, ascii_format):
        # the benchmark's independent encoder pins every byte written
        img = random_image(5, 23, 37)
        path = tmp_path / "f.pgm"
        for view in (img, img[::2, ::-3]):
            write_pgm(path, view)
            assert path.read_bytes() == pgm_bytes(view, ascii_format)


@contextlib.contextmanager
def no_int_digit_limit():
    """int() converts numbers of any length inside the block, as under PYTHONINTMAXSTRDIGITS=0."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestBinaryMemory:
    """P5 I/O moves the raster without staging copies."""

    def test_write_stages_no_copy(self, tmp_path):
        img = random_image(5, 512, 512)
        path = tmp_path / "w.pgm"
        peak = traced_peak(lambda: write_pgm(path, img))
        assert peak <= 0.5 * img.nbytes, f"peak {peak / img.nbytes:.2f} images"

    def test_read_copies_raster_once(self, tmp_path):
        img = random_image(6, 512, 512)
        path = tmp_path / "r.pgm"
        write_pgm(path, img)
        # the returned image and the first chunk read, no copy of the file
        peak = traced_peak(lambda: read_pgm(path))
        assert peak <= 1.5 * img.nbytes, f"peak {peak / img.nbytes:.2f} images"


class TestAsciiMemory:
    """A P2 read holds the image and one chunk's scan, never the whole file."""

    def test_read_holds_no_copy_of_file(self, tmp_path):
        img = random_image(6, 512, 512)
        path = tmp_path / "r.pgm"
        path.write_bytes(pgm_bytes(img, ascii_format=True))
        # the file is about 3.6 images long
        peak = traced_peak(lambda: read_pgm(path))
        assert peak <= 1.5 * img.nbytes + 16 * 1024, f"peak {peak / img.nbytes:.2f} images"

    def test_stream_sized_read_peak(self, tmp_path):
        # a 128x128 RVIN 20 % phantom, the benchmark's stream-128-p2 input size;
        # the whole-file reader peaked at 76-78 KB on it
        img = rvin(synthetic_mr_slice(3, 128), 0.2, 3)
        path = tmp_path / "s.pgm"
        path.write_bytes(pgm_bytes(img, ascii_format=True))
        peak = traced_peak(lambda: read_pgm(path))
        assert peak <= 76_000, f"peak {peak} bytes"


class TestReader:
    def test_header_comments_skipped(self, tmp_path):
        payload = b"P5\n# a comment\n2 # inline\n2\n# more\n255\n" + bytes([1, 2, 3, 4])
        path = tmp_path / "c.pgm"
        path.write_bytes(payload)
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    def test_ascii_arbitrary_whitespace(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1\t2\n 3     4\n")
        assert read_pgm(path).tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "payload",
        [
            b"P6\n2 2\n255\n" + bytes(12),          # wrong magic
            b"P5\n2 2\n65535\n" + bytes(8),          # unsupported maxval
            b"P5\n2 2\n255\n" + bytes(3),            # truncated raster
            b"P5\n2 2\n255\n" + bytes(5),            # trailing raster byte
            b"P5\n0 2\n255\n",                       # zero width
            b"P5\n2 two\n255\n" + bytes(4),          # non-numeric height
            b"P2\n2 2\n255\n1 2 3\n",                # too few ascii values
            b"P2\n2 2\n255\n1 2 3 4 5\n",            # too many ascii values
            b"P2\n2 2\n255\n1 2 3 999\n",            # ascii value out of range
            b"P5",                                   # truncated header
            b"P5 5 5 255",                           # no whitespace after the maxval
            b"P2\n100000000 100000000\n255\n1 2 3\n",  # header larger than the file
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(PgmFormatError):
            read_pgm(path)

    @pytest.mark.parametrize("field", ["width", "height", "maxval", "sample"])
    @pytest.mark.parametrize("spell", [b"+%s", b"-%s", b"0_%s"], ids=["plus", "minus", "underscore"])
    def test_number_not_all_digits_rejected(self, tmp_path, field, spell):
        # int() takes a sign and underscores; a PGM number is ASCII digits only
        fields = {"width": b"2", "height": b"1", "maxval": b"255", "sample": b"7"}
        fields[field] = spell % fields[field]
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P2 " + b" ".join(fields.values()) + b" 3\n")
        with pytest.raises(PgmFormatError):
            read_pgm(path)

    @pytest.mark.parametrize("fifo", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("magic", [b"P5", b"P2"])
    @pytest.mark.parametrize(
        "width, height, message",
        [
            (b"9" * 4300, b"10", "invalid PGM dimensions"),
            (b"%d" % 2**62, b"2", "invalid PGM dimensions"),
            (b"%d" % sys.maxsize, b"1", "expected|needs"),
        ],
        ids=["4301_digits", "maxsize_plus_1", "maxsize"],
    )
    def test_raster_count_bounded_by_maxsize(self, tmp_path, magic, fifo, width, height, message):
        # no file or array holds more than sys.maxsize samples, so a header
        # claiming more is refused as such, and every count an error prints
        # fits int()'s digit limit; at sys.maxsize the raster is refused
        path = tmp_path / "d.pgm"
        data = magic + b" " + width + b" " + height + b" 255\n0\n"
        if fifo:
            os.mkfifo(path)

            def write():
                with contextlib.suppress(BrokenPipeError):
                    path.write_bytes(data)

            writer = threading.Thread(target=write)
            writer.start()
        else:
            path.write_bytes(data)
        try:
            with pytest.raises(PgmFormatError, match=message):
                read_pgm(path)
        finally:
            if fifo:
                writer.join(timeout=30)

    @pytest.mark.parametrize("ascii_format", [False, True], ids=["P5", "P2"])
    def test_reads_from_a_pipe(self, tmp_path, ascii_format):
        # a pipe has no size to bound the raster by; its band grows as bytes arrive
        img = random_image(8, 9, 11)
        fifo = tmp_path / "p.pgm"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(pgm_bytes(img, ascii_format),))
        writer.start()
        try:
            assert np.array_equal(read_pgm(fifo), img)
        finally:
            writer.join()

    @pytest.mark.parametrize("prefix", [b"", b"P5\n"], ids=["magic", "width"])
    def test_refuses_a_bad_pipe_before_reading_it_whole(self, tmp_path, prefix):
        # NUL bytes never end a token; the writer offers 256 times what a
        # 64 KiB pipe buffer holds, and read_pgm must close the pipe long
        # before that, once the token in hand cannot be a magic or a number
        fifo = tmp_path / "z.pgm"
        os.mkfifo(fifo)
        blocks, written = 256, []

        def write():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(prefix)
                for _ in range(blocks):
                    fh.write(bytes(65536))
                    written.append(1)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            with pytest.raises(PgmFormatError, match="magic" if not prefix else "width"):
                read_pgm(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert len(written) < blocks

    @pytest.mark.parametrize(
        "prefix, fill, end, field",
        [
            (b"", b" ", b"", "magic"),
            (b"#", b"\0", b"", "magic"),
            (b"P5 ", b"1", b"x", "width"),
            (b"P2 1 1 255 ", b"0", b"x", "more than 4300 digits"),
        ],
        ids=["whitespace", "comment", "digits", "sample"],
    )
    def test_holds_no_more_of_an_endless_header_or_sample_than_one_read(self, tmp_path, prefix, fill, end, field):
        # a pipe of only whitespace, one comment whose line never ends, or
        # one header number or P2 sample whose digits never end never
        # completes a token; read_pgm keeps only what a cut token or an open
        # comment needs, not every byte until the pipe ends. int() converts a
        # number of any length here, as on a Python without a digit limit;
        # the digits end in a byte no number takes, so a reader that held
        # them all fails on that byte, not on the digit bound, after 16 MiB
        fifo = tmp_path / "h.pgm"
        os.mkfifo(fifo)
        block = fill * 65536

        def write():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(prefix)
                for _ in range(256):  # 16 MiB
                    fh.write(block)
                fh.write(end)

        def read():
            with no_int_digit_limit(), pytest.raises(PgmFormatError, match=field):
                read_pgm(fifo)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            peak = traced_peak(read)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert peak < 2**20, f"peak {peak} bytes"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_pgm(tmp_path / "absent.pgm")


class TestTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_PGM_BYTES, max_size=40).map(bytes))
    def test_matches_oracle_scanner(self, data):
        sc = OracleScanner(data)
        expected = []
        while True:
            try:
                tok = sc.next_token()
            except PgmFormatError:
                break
            expected.append((tok, sc.pos))
        got = [(m[1], m.end()) for m in _TOKEN.finditer(data) if m[1] is not None]
        assert got == expected

    def test_hash_inside_token_is_not_a_comment(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P2\n1 1\n255\n12#3\n")
        with pytest.raises(PgmFormatError):
            read_pgm(path)

    @settings(max_examples=300, deadline=None)
    @given(mutated_pgm(), st.integers(1, 8))
    def test_mutated_files_parse_or_raise_format_error(self, fuzz_path, data, chunk):
        # any other exception fails; headers and P5 rasters are cut at
        # every chunk size too
        assert_reads_like_oracle(fuzz_path, data, chunk)


# P2 samples in the spellings that decide acceptance: plain, zero-padded,
# out of range, not digits, and a ``#`` inside or right after a token
_SAMPLES = st.one_of(
    st.integers(0, 255).map(b"%d".__mod__),
    st.sampled_from(
        [b"0003", b"0255", b"000", b"0" * 9, b"0" * 7 + b"42", b"256", b"999", b"0999",
         b"1000", b"00256", b"12#3", b"0#c", b"+5", b"-0", b"x", b"#"]
    ),
)
# separators, comments among them; a comment needs whitespace before it
_SEPARATORS = st.sampled_from(
    [b" ", b"\n", b"\r\n", b"\r", b"\t", b"\x0b\x0c", b"  \n ", b" # c\n", b"\n#0 1\r\n",
     b"\r\n# 12#3 x\r", b"#\n"]
)


@st.composite
def ascii_pgm(draw):
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # too few, exact or too many samples
    n = width * height + draw(st.sampled_from([-1, 0, 0, 0, 1]))
    tokens = [b"P2", b"%d" % width, b"%d" % height, b"255", *draw(st.lists(_SAMPLES, min_size=n, max_size=n))]
    data = b"".join(tok + draw(_SEPARATORS) for tok in tokens)
    # the last sample may end the file
    return data.rstrip(_WHITESPACE) if draw(st.booleans()) else data


_ASCII_CASES = [
    b"P2\n3 2\n255\n0 9 10\n32 35 255\n",
    b"P2 2 2 255 1 # x\n2 #y\r\n3\r\n4",
    b"P2\r\n2 2\r\n255\r\n0003 0255\r\n000000 0\r\n",
    b"P2 1 1 255 " + b"0" * 40 + b"7\n",
    b"P2 1 1 255 256\n",
    b"P2 1 1 255 999\n",
    b"P2 1 1 255 1000\n",
    b"P2 1 1 255 0000256\n",
    b"P2 1 1 255 12#3\n",
    b"P2 1 1 255 0#c\n",
    b"P2 2 1 255 0 #c\n7",
    b"P2 2 1 255 7",
    b"P2 2 1 255 7 8 9",
    b"P2 2 1 255 7 8 #9\n",
    b"P2 2 1 255 7 8 #9\r9",
    b"P2 2 1 255 7 8\x0c#9",
    b"P2 1 1 255\n#c\n\n5 # only comments follow\n# and more\n",
]


class TestChunkedAscii:
    """The chunked P2 parser accepts and returns exactly what the whole-file oracle does."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 4096])
    @pytest.mark.parametrize("data", _ASCII_CASES)
    def test_cases_match_oracle(self, fuzz_path, data, chunk):
        assert_reads_like_oracle(fuzz_path, data, chunk)

    @settings(max_examples=400, deadline=None)
    @given(ascii_pgm(), st.integers(1, 8))
    def test_generated_files_match_oracle(self, fuzz_path, data, chunk):
        assert_reads_like_oracle(fuzz_path, data, chunk)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize(
        "zeros, unlimited",
        [(-1, False), (0, False), (-1, True), (0, True)],
        ids=["at_limit", "over_limit", "at_no_limit", "over_no_limit"],
    )
    def test_zero_padding_up_to_int_digit_limit(self, fuzz_path, chunk, zeros, unlimited):
        # int() refuses a number longer than Python's digit limit, zero
        # padding included; with no limit set, 4300 digits stand in for it
        limit = 4300 if unlimited else getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        data = b"P2 1 1 255 " + b"0" * (limit + zeros) + b"7\n"
        with no_int_digit_limit() if unlimited else contextlib.nullcontext():
            assert_reads_like_oracle(fuzz_path, data, chunk)

    def test_fills_each_chunk_in_raster_order(self, tmp_path):
        img = random_image(7, 40, 50)
        path = tmp_path / "a.pgm"
        path.write_bytes(pgm_bytes(img, ascii_format=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pgm, "_CHUNK", 13)
            assert np.array_equal(read_pgm(path), img)


class TestBands:
    """The raster in bands of any height joins into the image ``read_pgm`` returns."""

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("ascii_format", [False, True], ids=["P5", "P2"])
    @pytest.mark.parametrize("rows", [1, 3, 7, 11, 40])
    def test_bands_join_into_the_image(self, tmp_path, ascii_format, pipe, rows):
        img = random_image(9, 11, 13)
        path = tmp_path / "b.pgm"
        data = pgm_bytes(img, ascii_format)
        if pipe:
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(data,))
            writer.start()
        else:
            path.write_bytes(data)
        # a chunk of 5 bytes cuts samples and bands at every offset
        with pytest.MonkeyPatch.context() as mp, open(path, "rb", buffering=0) as fh:
            mp.setattr(pgm, "_CHUNK", 5)
            shape, bands = pgm._raster(fh)
            got = list(bands(rows))
        if pipe:
            writer.join()
        assert shape == img.shape
        assert [len(b) for b in got] == [min(rows, 11 - top) for top in range(0, 11, rows)]
        assert all(b.dtype == np.uint8 for b in got)
        assert np.array_equal(np.concatenate(got), img)

    @pytest.mark.parametrize("ascii_format", [False, True], ids=["P5", "P2"])
    def test_refuses_a_pipe_raster_that_runs_on(self, tmp_path, ascii_format):
        # a pipe has no size to check the header against: the band that
        # should end the raster finds the next byte or sample and stops
        img = random_image(10, 6, 5)
        path = tmp_path / "r.pgm"
        os.mkfifo(path)
        extra = b"7 " if ascii_format else b"\0"
        writer = threading.Thread(target=path.write_bytes, args=(pgm_bytes(img, ascii_format) + extra,))
        writer.start()
        try:
            with pytest.raises(PgmFormatError, match="found more"):
                read_pgm(path)
        finally:
            writer.join()


class TestMaskSerialization:
    def test_roundtrip(self, tmp_path):
        mask = random_image(4, 11, 8) > 128
        path = tmp_path / "mask.pgm"
        write_pgm(path, mask_to_gray(mask))
        assert np.array_equal(read_pgm(path) == 255, mask)

    def test_rendered_values(self):
        mask = np.array([[True, False]])
        assert mask_to_gray(mask).tolist() == [[255, 0]]

    def test_nonbool_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_to_gray(np.zeros((2, 2), np.uint8))

import tracemalloc

import numpy as np
import pytest
from conftest import random_image
from hypothesis import given, settings
from hypothesis import strategies as st
from perfbench.phantom import pgm_bytes

from mrdenoise import PgmFormatError, gray_to_mask, mask_to_gray, read_mask, read_pgm, write_mask, write_pgm
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


# bytes that matter to the tokenizer, plus a few that do not
_PGM_BYTES = st.sampled_from(list(_WHITESPACE + b"#0123456789P25-+_x\xff"))
_BASES = [
    b"P5\n3 2\n255\n" + bytes([0, 9, 10, 32, 35, 255]),
    b"P2\n3 2\n255\n0 9 10\n32 35 255\n",
    b"P2 # c\n# line\n2 1\n255 # x\n1 #2\n 3\n",
]


@st.composite
def mutated_pgm(draw):
    data = bytearray(draw(st.sampled_from(_BASES)))
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
        write_pgm(path, img, ascii_format=True)
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

    @pytest.mark.parametrize("ascii_format", [False, True], ids=["P5", "P2"])
    def test_bytes_equal_frozen_encoder(self, tmp_path, ascii_format):
        # the benchmark's independent encoder pins every byte of both formats
        img = random_image(5, 23, 37)
        path = tmp_path / "f.pgm"
        for view in (img, img[::2, ::-3]):
            write_pgm(path, view, ascii_format=ascii_format)
            assert path.read_bytes() == pgm_bytes(view, ascii_format)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # the file bytes and the returned image, nothing in between
        peak = traced_peak(lambda: read_pgm(path))
        assert peak <= 2.5 * img.nbytes, f"peak {peak / img.nbytes:.2f} images"


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
    @given(mutated_pgm())
    def test_mutated_files_parse_or_raise_format_error(self, fuzz_path, data):
        fuzz_path.write_bytes(data)
        try:
            img = read_pgm(fuzz_path)
        except PgmFormatError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2 and img.size >= 1


class TestMaskSerialization:
    def test_roundtrip(self, tmp_path):
        mask = random_image(4, 11, 8) > 128
        path = tmp_path / "mask.pgm"
        write_mask(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_rendered_values(self):
        mask = np.array([[True, False]])
        assert mask_to_gray(mask).tolist() == [[255, 0]]

    def test_nonbinary_gray_rejected(self):
        with pytest.raises(ValueError):
            gray_to_mask(np.array([[0, 128, 255]], np.uint8))

    def test_nonbool_mask_rejected(self):
        with pytest.raises(ValueError):
            mask_to_gray(np.zeros((2, 2), np.uint8))

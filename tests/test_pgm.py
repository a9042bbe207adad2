import numpy as np
import pytest
from conftest import random_image

from mrdenoise import PgmFormatError, gray_to_mask, mask_to_gray, read_mask, read_pgm, write_mask, write_pgm


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

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_pgm(tmp_path / "absent.pgm")


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

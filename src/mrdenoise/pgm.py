"""Bit-exact PGM image I/O: binary ``P5`` and ASCII ``P2``, maxval 255."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .image import PEAK, as_gray

__all__ = ["PgmFormatError", "read_pgm", "write_pgm"]

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmFormatError(ValueError):
    """Raised for malformed or unsupported PGM content."""


class _Scanner:
    """Header tokenizer: whitespace-separated tokens, ``#`` starts a comment."""

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

    def next_int(self, what: str) -> int:
        tok = self.next_token()
        try:
            return int(tok)
        except ValueError:
            raise PgmFormatError(f"invalid {what} in PGM header: {tok!r}") from None


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a P5 or P2 PGM file into a uint8 image array.

    Only maxval 255 is accepted; anything else is a format error.
    """
    data = Path(path).read_bytes()
    sc = _Scanner(data)
    magic = sc.next_token()
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported PGM magic {magic!r} (expected P5 or P2)")
    width = sc.next_int("width")
    height = sc.next_int("height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    maxval = sc.next_int("maxval")
    if maxval != PEAK:
        raise PgmFormatError(f"unsupported maxval {maxval} (only {PEAK} accepted)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if sc.pos >= len(data) or data[sc.pos : sc.pos + 1] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace after maxval")
        raster = data[sc.pos + 1 :]
        if len(raster) != count:
            raise PgmFormatError(
                f"expected {count} raster bytes, found {len(raster)}"
            )
        img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        return img.copy()

    # every ASCII value takes at least one digit and one separator, so a
    # header claiming more pixels than the file can hold is rejected
    # before anything is allocated
    room = (len(data) - sc.pos + 1) // 2
    if count > room:
        raise PgmFormatError(
            f"{width}x{height} raster needs {count} values, file holds at most {room}"
        )
    values = np.empty(count, dtype=np.uint8)
    for k in range(count):
        v = sc.next_int("pixel value")
        if not 0 <= v <= PEAK:
            raise PgmFormatError(f"pixel value {v} out of range [0, {PEAK}]")
        values[k] = v
    # nothing but whitespace/comments may follow the raster
    try:
        sc.next_token()
    except PgmFormatError:
        return values.reshape(height, width)
    raise PgmFormatError("trailing data after PGM raster")


def write_pgm(path: str | os.PathLike, img, *, ascii_format: bool = False) -> None:
    """Write *img* as a PGM file: binary P5 by default, ASCII P2 on request.

    Output bytes depend only on the pixel data, so equal images always
    produce byte-identical files.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if ascii_format:
        lines = [b"P2", f"{w} {h}".encode(), b"255"]
        for row in arr:
            lines.append(" ".join(str(int(v)) for v in row).encode())
        payload = b"\n".join(lines) + b"\n"
    else:
        payload = f"P5\n{w} {h}\n255\n".encode() + arr.tobytes()
    Path(path).write_bytes(payload)

"""Bit-exact PGM image I/O: binary ``P5`` and ASCII ``P2``, maxval 255."""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from itertools import islice
from pathlib import Path

import numpy as np

from .image import PEAK, as_gray

__all__ = ["PgmFormatError", "read_pgm", "write_pgm"]

_WHITESPACE = b" \t\n\r\x0b\x0c"
# a token is a run of non-whitespace bytes; a ``#`` where a token would
# start opens a comment up to the end of the line, so ``12#3`` is one token
_TOKEN = re.compile(rb"#[^\n\r]*|([^ \t\n\r\x0b\x0c]+)")


class PgmFormatError(ValueError):
    """Raised for malformed or unsupported PGM content."""


def _header_int(tokens: Iterator[re.Match], what: str) -> tuple[int, int]:
    """The next header token as an integer, and the offset just past it."""
    m = next(tokens, None)
    if m is None:
        raise PgmFormatError("unexpected end of file in PGM header")
    # int() alone would also take a sign or an underscore, which PGM forbids
    if m[1].isdigit():
        try:
            return int(m[1]), m.end()
        except ValueError:  # more digits than int() converts
            pass
    raise PgmFormatError(f"invalid {what} in PGM header: {m[1]!r}")


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a P5 or P2 PGM file into a uint8 image array.

    Only maxval 255 is accepted; anything else is a format error.
    """
    data = Path(path).read_bytes()
    tokens = (m for m in _TOKEN.finditer(data) if m[1] is not None)
    first = next(tokens, None)
    magic = first[1] if first else b""
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported PGM magic {magic!r} (expected P5 or P2)")
    width, _ = _header_int(tokens, "width")
    height, _ = _header_int(tokens, "height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    maxval, pos = _header_int(tokens, "maxval")
    if maxval != PEAK:
        raise PgmFormatError(f"unsupported maxval {maxval} (only {PEAK} accepted)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace after maxval")
        found = len(data) - pos - 1
        if found != count:
            raise PgmFormatError(f"expected {count} raster bytes, found {found}")
        # view the raster inside the file bytes, then copy it out once
        img = np.frombuffer(data, np.uint8, count, offset=pos + 1)
        return img.reshape(height, width).copy()

    # every ASCII value takes at least one digit and one separator, so a
    # header claiming more pixels than the file can hold is rejected
    # before anything is allocated
    room = (len(data) - pos + 1) // 2
    if count > room:
        raise PgmFormatError(
            f"{width}x{height} raster needs {count} values, file holds at most {room}"
        )
    # a token that is not all ASCII digits is dropped, so the count falls
    # short (int() alone would take a sign or an underscore)
    samples = filter(bytes.isdigit, (m[1] for m in islice(tokens, count)))
    try:
        # bytearray rejects any value outside [0, 255]
        values = bytearray(map(int, samples))
    except ValueError as exc:
        raise PgmFormatError(f"bad PGM pixel value: {exc}") from None
    if len(values) < count:
        raise PgmFormatError(f"expected {count} decimal pixel values, found {len(values)}")
    # nothing but whitespace/comments may follow the raster
    if next(tokens, None) is not None:
        raise PgmFormatError("trailing data after PGM raster")
    return np.frombuffer(values, dtype=np.uint8).reshape(height, width)


def write_pgm(path: str | os.PathLike, img, *, ascii_format: bool = False) -> None:
    """Write *img* as a PGM file: binary P5 by default, ASCII P2 on request.

    Output bytes depend only on the pixel data, so equal images always
    produce byte-identical files.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if ascii_format:
        # one tolist() call yields Python ints, so no numpy scalar is formatted
        rows = (" ".join(map(str, row)) for row in arr.tolist())
        Path(path).write_bytes(f"P2\n{w} {h}\n255\n".encode() + "\n".join(rows).encode() + b"\n")
    else:
        # the raster goes out from the array's own buffer, uncopied
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode())
            fh.write(np.ascontiguousarray(arr).data)

"""Bit-exact PGM image I/O: binary ``P5`` and ASCII ``P2``, maxval 255.

Neither format holds the whole file: the header is parsed from the first
bytes read, a P5 raster is read straight into the returned array, and a P2
raster is parsed by a numpy scan over chunks of ``_CHUNK`` bytes. A pipe is
read whole once its header passes; one that cannot pass is refused unread.
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from collections.abc import Iterator
from itertools import islice

import numpy as np

from .image import PEAK, as_gray

__all__ = ["PgmFormatError", "read_pgm", "write_pgm"]

_WHITESPACE = b" \t\n\r\x0b\x0c"
# a token is a run of non-whitespace bytes; a ``#`` where a token would
# start opens a comment up to the end of the line, so ``12#3`` is one token
_TOKEN = re.compile(rb"#[^\n\r]*|([^ \t\n\r\x0b\x0c]+)")
# the same comments alone: a ``#`` after whitespace or at the start. A ``#``
# this finds inside a comment runs to that comment's end, so blanking every
# match blanks exactly the comments
_COMMENT = re.compile(rb"(?<![^ \t\n\r\x0b\x0c])#[^\n\r]*")
# P2 raster bytes: 0 whitespace, 1 ASCII digit, 2 anything else
_KIND = bytes(0 if b in _WHITESPACE else 1 if 48 <= b <= 57 else 2 for b in range(256))
# each ASCII digit's value, and 0 for any other byte
_DIGIT = bytes(b - 48 if 48 <= b <= 57 else 0 for b in range(256))
# P2 raster bytes read per numpy scan. Each scan costs some 20 us of calls
# and about 12 bytes of temporaries per chunk byte. read_pgm of a 128x128
# P2 phantom (56 KB; 2-CPU Xeon, numpy 2.4.6) took 2.1 / 1.5 / 1.1 / 0.9 ms
# at 1 / 2 / 4 / 8 KiB, peaking at 32 / 44 / 68 / 119 KB traced; reading
# the whole file took 9-18 ms and 78 KB. 2 KiB keeps most of the speed at
# about half that peak, below what the stream engine then needs
_CHUNK = 2048


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
    raise PgmFormatError(f"invalid {what} in PGM header: {m[1][:16]!r}")


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a P5 or P2 PGM file into a uint8 image array.

    Only maxval 255 is accepted; anything else is a format error.
    """
    # unbuffered: the reads below are chunk-sized, and a P5 raster goes
    # straight into the image
    with open(path, "rb", buffering=0) as fh:
        st = os.fstat(fh.fileno())
        return _read(fh, st.st_size if stat.S_ISREG(st.st_mode) else None)


def _hopeless(tokens: list[re.Match]) -> bool:
    """Whether header tokens, the last maybe cut short, can no longer pass: a
    magic that does not start ``P5`` or ``P2``, or a number not all digits."""
    magic, *numbers = [m[1] for m in tokens] or [b""]
    return not (b"P5".startswith(magic) or b"P2".startswith(magic)) or not all(map(bytes.isdigit, numbers))


def _read(fh: io.RawIOBase, size: int | None) -> np.ndarray:
    """Parse the PGM file open in *fh*, of *size* bytes, or of unknown size (None)."""
    head = b""
    while True:
        more = fh.read(max(_CHUNK, len(head)))
        head += more
        tokens = list(islice((m for m in _TOKEN.finditer(head) if m[1] is not None), 4))
        # a match that reaches the end of the bytes in hand may grow on the next
        # read; a header that can no longer pass is refused without reading on
        if not more or (len(tokens) == 4 and tokens[3].end() < len(head)) or _hopeless(tokens):
            break
    tokens = iter(tokens)
    first = next(tokens, None)
    magic = first[1] if first else b""
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported PGM magic {magic[:16]!r} (expected P5 or P2)")
    width, _ = _header_int(tokens, "width")
    height, _ = _header_int(tokens, "height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    maxval, pos = _header_int(tokens, "maxval")
    if maxval != PEAK:
        raise PgmFormatError(f"unsupported maxval {maxval} (only {PEAK} accepted)")
    if size is None:
        # a pipe has no size to bound the raster by, so the rest is read whole
        data = fh.read()
        fh, size = io.BytesIO(data), len(head) + len(data)

    count = width * height
    rest = head[pos:]
    del head
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not rest or rest[0] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace after maxval")
        found = size - pos - 1
        if found != count:
            raise PgmFormatError(f"expected {count} raster bytes, found {found}")
        # the raster bytes in hand, then the rest read straight into the image
        img = np.empty(count, np.uint8)
        got = min(len(rest) - 1, count)
        img[:got] = np.frombuffer(rest, np.uint8, got, offset=1)
        while got < count and (k := fh.readinto(memoryview(img)[got:])):
            got += k
        if got != count or len(rest) - 1 > count or fh.read(1):
            raise PgmFormatError(f"expected {count} raster bytes, the file changed while being read")
        return img.reshape(height, width)

    # every ASCII value takes at least one digit and one separator, so a
    # header claiming more pixels than the file can hold is rejected
    # before anything is allocated
    room = (size - pos + 1) // 2
    if count > room:
        raise PgmFormatError(
            f"{width}x{height} raster needs {count} values, file holds at most {room}"
        )
    img = np.empty(count, np.uint8)
    _read_ascii(fh, rest, img)
    return img.reshape(height, width)


def _read_ascii(fh: io.RawIOBase, chunk: bytes, out: np.ndarray) -> None:
    """Fill *out* in raster order from the P2 samples in *chunk* and the rest of *fh*.

    Each step scans the bytes carried from the step before and the next
    chunk. A comment or token that the chunk cuts carries over: an open
    comment as ``#``, a digit run as its last three digits (any digit
    before them is a zero, or the run is already an error), with
    ``dropped`` counting the zeros left out.
    """
    # int() refuses a longer number, zero padding included (0: no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    pending, n, dropped = b"", 0, 0
    while True:
        # the scan starts between tokens, so a carried ``#`` opens a comment
        # while a carried ``0`` keeps ``0#c`` one token
        buf = b"  " + pending + chunk
        pending, partial = b"", False
        if chunk:
            # a comment opened after the last line end may go on in the next chunk
            m = b"#" in buf and _COMMENT.search(buf, max(buf.rfind(b"\n"), buf.rfind(b"\r")) + 1)
            if m:
                buf, pending = buf[: m.start()], b"#"
            else:
                partial = not buf[-1:].isspace()
        n, dropped = _scan(buf + b" ", out, n, dropped, partial, limit)
        if partial:
            pending = buf[-3:].split()[-1]
        if not chunk:
            break
        chunk = fh.read(_CHUNK)
    if n < out.size:
        raise PgmFormatError(f"expected {out.size} decimal pixel values, found {n}")


def _scan(body: bytes, out: np.ndarray, n: int, dropped: int, partial: bool, limit: int) -> tuple[int, int]:
    """Store the samples of *body* in ``out[n:]``; return the new fill and the next ``dropped``.

    *body* starts with two whitespace bytes and ends with one, and *dropped*
    zeros precede its first digit run. A *partial* last run goes on in the
    next chunk: it is checked, since no later digit can mend it, but not
    stored. A sample is valid exactly when ``int()`` takes it and gives at
    most 255.
    """
    if b"#" in body:
        body = _COMMENT.sub(b" ", body)
    kinds = body.translate(_KIND)
    if b"\x02" in kinds:
        i = kinds.index(b"\x02")
        bad = body[i : i + 1]
        raise PgmFormatError(f"bad PGM pixel value: byte {bad!r} is not a decimal digit")
    digit = np.frombuffer(kinds, np.uint8)
    value = np.frombuffer(body.translate(_DIGIT), np.uint8)
    if b"\x01" * 4 in kinds:
        # a run of four digits or more: where each run starts and ends
        bounds = np.flatnonzero(digit[1:] != digit[:-1])
        length = bounds[1::2] - bounds[::2]
        length[0] += dropped
        # a nonzero digit with three digits after it makes 1000 or more
        if (value[:-3].astype(bool) & digit[1:-2] & digit[2:-1] & digit[3:]).any():
            raise PgmFormatError("bad PGM pixel value: 1000 or more")
        if 0 < limit < length.max():
            raise PgmFormatError(f"bad PGM pixel value: more than {limit} digits")
        dropped = max(int(length[-1]) - 3, 0) if partial else 0
    else:
        dropped = 0
    # at each byte, the number its last three digits make: the hundreds
    # count only when the tens are a digit too, else they belong to the run before
    sample = (value[:-3] * digit[1:-2]).astype(np.uint16)
    sample *= 100
    sample += value[1:-2] * 10
    sample += value[2:-1]
    # the samples sit at the last digit of each run
    sample = sample[digit[2:-1] > digit[3:]]
    whole = sample.size - partial
    if n + whole > out.size:
        raise PgmFormatError("trailing data after PGM raster")
    if sample.size and sample.max() > PEAK:
        raise PgmFormatError(f"bad PGM pixel value: {sample.max()} is over {PEAK}")
    out[n : n + whole] = sample[:whole]
    return n + whole, dropped


def write_pgm(path: str | os.PathLike, img, *, ascii_format: bool = False) -> None:
    """Write *img* as a PGM file: binary P5 by default, ASCII P2 on request.

    Output bytes depend only on the pixel data, so equal images always
    produce byte-identical files.
    """
    arr = as_gray(img)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P{2 if ascii_format else 5}\n{w} {h}\n255\n".encode())
        if ascii_format:
            # a row at a time; tolist() yields Python ints, so no numpy scalar is formatted
            for row in arr:
                fh.write(" ".join(map(str, row.tolist())).encode() + b"\n")
        else:
            # the raster goes out from the array's own buffer, uncopied
            fh.write(np.ascontiguousarray(arr).data)

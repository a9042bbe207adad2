"""Bit-exact PGM image I/O: binary ``P5`` and ASCII ``P2``, maxval 255.

One reader serves every caller and never holds the whole file. It parses
and checks the header from the first bytes read, then reads the raster in
bands of rows straight from the open file: :func:`read_pgm` asks for one
band of all rows, ``mrdenoise denoise`` for cache-sized bands or single
rows. A P5 band is read into with ``readinto``; a P2 band fills from a
numpy scan over chunks of ``_CHUNK`` bytes. A pipe has no size to check
the header against, so its bands grow only as its bytes arrive, its
header holds only the token in hand, and a header that cannot pass is
refused unread.
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from collections.abc import Callable, Iterable, Iterator

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
# P2 raster bytes read per numpy scan, and P5 bytes per read of a pipe.
# Each scan costs some 20 us of calls and about 12 bytes of temporaries per
# chunk byte. read_pgm of a 128x128 P2 phantom (56 KB; 2-CPU Xeon, numpy
# 2.4.6) took 2.1 / 1.5 / 1.1 / 0.9 ms at 1 / 2 / 4 / 8 KiB, peaking at
# 32 / 44 / 68 / 119 KB traced; reading the whole file took 9-18 ms and
# 78 KB. 2 KiB keeps most of the speed at about half that peak, below what
# the stream engine then needs
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
        (height, _), bands = _raster(fh)
        (img,) = bands(height)
        return img


def _hopeless(tokens: list[re.Match]) -> bool:
    """Whether header tokens, the last maybe cut short, can no longer pass: a
    magic that does not start ``P5`` or ``P2``, or a number not all digits or
    longer than ``int()`` converts."""
    magic, *numbers = [m[1] for m in tokens] or [b""]
    limit = _digit_limit()
    return not (b"P5".startswith(magic) or b"P2".startswith(magic)) or not all(
        n.isdigit() and not 0 < limit < len(n) for n in numbers
    )


def _digit_limit() -> int:
    """The most digits ``int()`` converts, zero padding included (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _header(fh: io.RawIOBase) -> tuple[list[re.Match], int, bytes]:
    """The header tokens of the file open in *fh*, the file offset just past
    the last, and the bytes read beyond it.

    There are four tokens unless the file ends first or the tokens in hand,
    the last maybe cut short, can no longer pass; the offset and the bytes
    are then of no use. Between reads only a token the read cut short is
    kept, and an open comment only as its ``#``, so a pipe of whitespace or
    of one endless comment holds one read's bytes.
    """
    head, base, tokens = b"", 0, []
    while True:
        more = fh.read(max(_CHUNK, len(head)))
        head += more
        cut = None  # a match that reaches the end of the bytes in hand may grow
        for m in _TOKEN.finditer(head):
            if more and m.end() == len(head):
                cut = m
                break
            if m[1] is not None:
                tokens.append(m)
                if len(tokens) == 4:
                    return tokens, base + m.end(), head[m.end() :]
        word = [cut] if cut and cut[1] is not None else []
        if not more or _hopeless(tokens + word):
            return tokens + word, 0, b""
        keep = cut[0] if word else b"#" if cut else b""
        base += len(head) - len(keep)
        head = keep


def _raster(fh: io.RawIOBase) -> tuple[tuple[int, int], Callable[[int], Iterator[np.ndarray]]]:
    """Parse and check the header of the PGM file open in *fh*.

    Returns the image's ``(height, width)`` and a function that reads its
    raster in bands of a given number of rows, checking the rest of the file
    as it goes. A regular file's size is checked against the header here:
    a P5 file must hold the exact raster, a P2 file room for every sample.
    """
    st = os.fstat(fh.fileno())
    size = st.st_size if stat.S_ISREG(st.st_mode) else None
    tokens, pos, rest = _header(fh)
    tokens = iter(tokens)
    first = next(tokens, None)
    magic = first[1] if first else b""
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported PGM magic {magic[:16]!r} (expected P5 or P2)")
    width, _ = _header_int(tokens, "width")
    height, _ = _header_int(tokens, "height")
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid PGM dimensions {width}x{height}")
    maxval, _ = _header_int(tokens, "maxval")
    if maxval != PEAK:
        raise PgmFormatError(f"unsupported maxval {maxval} (only {PEAK} accepted)")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not rest or rest[0] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace after maxval")
        if size is not None and (found := size - pos - 1) != count:
            raise PgmFormatError(f"expected {count} raster bytes, found {found}")
        return (height, width), lambda rows: _binary(fh, rest[1:], height, width, size is not None, rows)
    # every ASCII value takes at least one digit and one separator, so a
    # header claiming more pixels than the file can hold is rejected
    # before anything is allocated
    if size is not None and count > (room := (size - pos + 1) // 2):
        raise PgmFormatError(
            f"{width}x{height} raster needs {count} values, file holds at most {room}"
        )
    return (height, width), lambda rows: _ascii(fh, rest, height, width, rows)


def _binary(fh: io.RawIOBase, rest: bytes, height: int, width: int, sized: bool, rows: int) -> Iterator[np.ndarray]:
    """The P5 raster in bands of *rows* rows: the bytes in hand, *rest*, then *fh*.

    A file whose size was checked is read straight into each band. On a pipe
    a band grows only as its bytes arrive, so no header can make it allocate
    more than the pipe has sent.
    """
    count = height * width
    for top in range(0, height, rows):
        need = min(rows, height - top) * width
        if sized:
            band = np.empty(need, np.uint8)
            got = min(len(rest), need)
            band[:got] = np.frombuffer(rest, np.uint8, got)
            while got < need and (k := fh.readinto(memoryview(band)[got:])):
                got += k
        else:
            band = bytearray(rest[:need])
            while len(band) < need and (more := fh.read(min(need - len(band), _CHUNK))):
                band += more
            got = len(band)
        rest = rest[need:]
        if got < need:
            found = "the file changed while being read" if sized else f"found {top * width + got}"
            raise PgmFormatError(f"expected {count} raster bytes, {found}")
        yield np.frombuffer(band, np.uint8).reshape(-1, width)
    if rest or fh.read(1):
        found = "the file changed while being read" if sized else "found more"
        raise PgmFormatError(f"expected {count} raster bytes, {found}")


def _ascii(fh: io.RawIOBase, chunk: bytes, height: int, width: int, rows: int) -> Iterator[np.ndarray]:
    """The P2 raster in bands of *rows* rows, from the samples in *chunk* and the rest of *fh*.

    Each step scans the bytes carried from the step before and the next
    chunk. A comment or token that the chunk cuts carries over: an open
    comment as ``#``, a digit run as its last three digits (any digit
    before them is a zero, or the run is already an error), with
    ``dropped`` counting the zeros left out. A band grows as its samples
    arrive and leaves once full; the last leaves at the end of the file.
    """
    limit = _digit_limit()
    count, n, band_px = height * width, 0, rows * width
    pending, dropped, band = b"", 0, bytearray()
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
        sample, dropped = _scan(buf + b" ", count - n, dropped, partial, limit)
        n += len(sample)
        while len(sample):
            take = band_px - len(band)
            band += memoryview(sample[:take])
            sample = sample[take:]
            if len(band) == band_px:
                yield np.frombuffer(band, np.uint8).reshape(rows, width)
                band = bytearray()
        if partial:
            pending = buf[-3:].split()[-1]
        if not chunk:
            break
        chunk = fh.read(_CHUNK)
    if n < count:
        raise PgmFormatError(f"expected {count} decimal pixel values, found {n}")
    if band:
        yield np.frombuffer(band, np.uint8).reshape(-1, width)


def _scan(body: bytes, room: int, dropped: int, partial: bool, limit: int) -> tuple[np.ndarray, int]:
    """The whole samples of *body*, at most *room* of them, as uint8, and the next ``dropped``.

    *body* starts with two whitespace bytes and ends with one, and *dropped*
    zeros precede its first digit run. A *partial* last run goes on in the
    next chunk: it is checked, since no later digit can mend it, but not
    returned. A sample is valid exactly when ``int()`` takes it and gives at
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
    if whole > room:
        raise PgmFormatError("trailing data after PGM raster")
    if sample.size and sample.max() > PEAK:
        raise PgmFormatError(f"bad PGM pixel value: {sample.max()} is over {PEAK}")
    return sample[:whole].astype(np.uint8), dropped


def write_pgm(path: str | os.PathLike, img, *, ascii_format: bool = False) -> None:
    """Write *img* as a PGM file: binary P5 by default, ASCII P2 on request.

    Output bytes depend only on the pixel data, so equal images always
    produce byte-identical files.
    """
    arr = as_gray(img)
    with open(path, "wb") as fh:
        _write(fh, arr.shape, [arr], ascii_format)


def _write(fh: io.IOBase, shape: tuple[int, int], chunks: Iterable[np.ndarray], ascii_format: bool = False) -> None:
    """Write a PGM of *shape* to *fh*, its raster from *chunks* of rows as they come."""
    h, w = shape
    fh.write(f"P{2 if ascii_format else 5}\n{w} {h}\n255\n".encode())
    for chunk in chunks:
        if ascii_format:
            # a row at a time; tolist() yields Python ints, so no numpy scalar is formatted
            for row in chunk:
                fh.write(" ".join(map(str, row.tolist())).encode() + b"\n")
        else:
            # the raster goes out from the array's own buffer, uncopied
            fh.write(np.ascontiguousarray(chunk).data)

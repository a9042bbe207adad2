"""Bit-exact PGM image I/O, maxval 255: ``P5`` and ``P2`` read, ``P5`` written.

One reader serves every caller and never holds the whole file. It checks
each header field as its token arrives, then reads the raster in chunks of
``_CHUNK`` bytes into bands of rows: :func:`read_pgm` asks for one band of
all rows, ``mrdenoise denoise`` for cache-sized bands or single rows. A P5
chunk is raster bytes as read; a P2 chunk goes through a numpy digit scan.
One band filler counts the samples of both formats, and one digit bound
holds every header number and P2 sample. A band grows only as its samples
arrive and the reader holds only the token in hand, so a pipe, which has no
size to check the header against, never makes it hold more than it has
sent, and a header that cannot pass is refused unread. Every file the
package writes opens through :func:`_replacing`, so an error leaves it as it was.
"""

from __future__ import annotations

import io
import os
import re
import stat
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from itertools import chain

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
# raster bytes per read, of either format; a P2 chunk is one numpy scan.
# Each scan costs some 20 us of calls and about 12 bytes of temporaries per
# chunk byte. read_pgm of a 128x128 P2 phantom (56 KB; 2-CPU Xeon, numpy
# 2.4.6) took 2.1 / 1.5 / 1.1 / 0.9 ms at 1 / 2 / 4 / 8 KiB, peaking at
# 32 / 44 / 68 / 119 KB traced; reading the whole file took 9-18 ms and
# 78 KB. 2 KiB keeps most of the speed at about half that peak, below what
# the stream engine then needs
_CHUNK = 2048


class PgmFormatError(ValueError):
    """Raised for malformed or unsupported PGM content."""


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a P5 or P2 PGM file into a uint8 image array.

    Only maxval 255 is accepted; anything else is a format error.
    """
    # unbuffered: every read below asks for a whole chunk, which a buffer
    # would only copy once more
    with open(path, "rb", buffering=0) as fh:
        (height, _), bands = _raster(fh)
        (img,) = bands(height)
        return img


def _max_digits() -> int:
    """The most digits of a PGM number, zero padding included: ``int()``'s
    limit, or CPython's default of 4300 where it has none, so that a piped
    number is never held however long it grows."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


# the header's fields in file order
_FIELDS = ("magic", "width", "height", "maxval")


def _field(fields: list, token: bytes, whole: bool = True) -> None:
    """Check *token* as the header field after *fields*, and append its value if *whole*.

    A token that a read cut short may still grow, so it raises only once no
    byte after it could make it pass. The dimensions are checked with the
    height, and the maxval must be 255.
    """
    what = _FIELDS[len(fields)]
    if what == "magic":
        if not (token in (b"P5", b"P2") if whole else b"P5".startswith(token) or b"P2".startswith(token)):
            raise PgmFormatError(f"unsupported PGM magic {token[:16]!r} (expected P5 or P2)")
    # int() alone would also take a sign or an underscore, which PGM forbids
    elif not token.isdigit() or len(token) > _max_digits():
        raise PgmFormatError(f"invalid {what} in PGM header: {token[:16]!r}")
    if not whole:
        return
    value = token if what == "magic" else int(token)
    # no file or array holds more samples than sys.maxsize, and every count
    # an error message prints then stays within int()'s digit limit
    if what == "height" and (fields[1] < 1 or value < 1 or fields[1] * value > sys.maxsize):
        raise PgmFormatError(f"invalid PGM dimensions {str(fields[1])[:16]}x{str(value)[:16]}")
    if what == "maxval" and value != PEAK:
        raise PgmFormatError(f"unsupported maxval {str(value)[:16]} (only {PEAK} accepted)")
    fields.append(value)


def _header(fh: io.RawIOBase) -> tuple[bytes, int, int, bytes]:
    """The magic, width and height of the PGM file open in *fh*, and the
    bytes read beyond its maxval.

    Each field is checked as its token completes, and a token a read cut
    short as soon as it can no longer pass, so the first bad field raises.
    Between reads only a cut token is kept, and an open comment only as its
    ``#``, so a pipe of whitespace, of one endless comment or of one endless
    number holds about one read's bytes.
    """
    head, fields = b"", []
    while True:
        more = fh.read(max(_CHUNK, len(head)))
        head += more
        cut = None  # a match that reaches the end of the bytes in hand may grow
        for m in _TOKEN.finditer(head):
            if more and m.end() == len(head):
                cut = m
                break
            if m[1] is not None:
                _field(fields, m[1])
                if len(fields) == len(_FIELDS):
                    magic, width, height, _ = fields
                    return magic, width, height, head[m.end() :]
        if not more:
            if not fields:  # an empty file, or one of whitespace and comments
                _field(fields, b"")
            raise PgmFormatError("unexpected end of file in PGM header")
        head = b"#" if cut else b""
        if cut and cut[1] is not None:
            _field(fields, cut[1], whole=False)
            head = cut[0]


def _raster(fh: io.RawIOBase) -> tuple[tuple[int, int], Callable[[int], Iterator[np.ndarray]]]:
    """Parse and check the header of the PGM file open in *fh*.

    Returns the image's ``(height, width)`` and a function that reads its
    raster in bands of a given number of rows, checking the rest of the file
    as it goes. A regular file's size is checked against the header here:
    a P5 file must hold the exact raster, a P2 file room for every sample.
    """
    st = os.fstat(fh.fileno())
    magic, width, height, rest = _header(fh)
    # the bytes after the maxval; a pipe has no size
    left = st.st_size - fh.tell() + len(rest) if stat.S_ISREG(st.st_mode) else None
    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not rest or rest[0] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace after maxval")
        if left is not None and (found := left - 1) != count:
            raise PgmFormatError(f"expected {count} raster bytes, found {found}")
        samples, what = chain((rest[1:],), iter(lambda: fh.read(_CHUNK), b"")), "raster bytes"
    else:
        # every ASCII value takes at least one digit and one separator, so a
        # header claiming more pixels than the file can hold is rejected
        # before anything is allocated
        if left is not None and count > (room := (left + 1) // 2):
            raise PgmFormatError(
                f"{width}x{height} raster needs {count} values, file holds at most {room}"
            )
        samples, what = _ascii(fh, rest), "decimal pixel values"
    return (height, width), lambda rows: _bands(samples, count, width, rows, what)


def _bands(samples: Iterable, count: int, width: int, rows: int, what: str) -> Iterator[np.ndarray]:
    """The raster in bands of *rows* rows, filled from the chunks of uint8
    *samples* as they arrive; the last band leaves when the chunks end.

    A band grows only as its samples arrive, so no header can make it
    allocate more than the input has sent. The raster must hold exactly
    *count* samples, which an error calls *what*.
    """
    band_px, band, n = rows * width, bytearray(), 0
    for chunk in samples:
        n += len(chunk)
        if n > count:
            raise PgmFormatError(f"expected {count} {what}, found more")
        view = memoryview(chunk)
        while view:
            take = band_px - len(band)
            band += view[:take]
            view = view[take:]
            if len(band) == band_px:
                yield np.frombuffer(band, np.uint8).reshape(rows, width)
                band = bytearray()
    if n < count:
        raise PgmFormatError(f"expected {count} {what}, found {n}")
    if band:
        yield np.frombuffer(band, np.uint8).reshape(-1, width)


def _ascii(fh: io.RawIOBase, chunk: bytes) -> Iterator[np.ndarray]:
    """The samples of a P2 raster, a chunk at a time: those in *chunk*, then the rest of *fh*.

    Each step scans the bytes carried from the step before and the next
    chunk. A comment or token that the chunk cuts carries over: an open
    comment as ``#``, a digit run whole. The run is scanned again with the
    next chunk, a cost that :func:`_max_digits`, which the scan holds it
    to, bounds. :func:`_bands` counts the samples.
    """
    pending = b""
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
        yield _scan(buf + b" ", partial)
        if partial:
            pending = buf.rsplit(None, 1)[-1]
        if not chunk:
            return
        chunk = fh.read(_CHUNK)


def _scan(body: bytes, partial: bool) -> np.ndarray:
    """The whole samples of *body* as uint8.

    *body* starts with two whitespace bytes and ends with one. A *partial*
    last run goes on in the next chunk: it is checked, since no later digit
    can mend it, but not returned. A sample is valid exactly when it has at
    most :func:`_max_digits` digits and makes at most 255.
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
        # a nonzero digit with three digits after it makes 1000 or more
        if (value[:-3].astype(bool) & digit[1:-2] & digit[2:-1] & digit[3:]).any():
            raise PgmFormatError("bad PGM pixel value: 1000 or more")
        if (bounds[1::2] - bounds[::2]).max() > (limit := _max_digits()):
            raise PgmFormatError(f"bad PGM pixel value: more than {limit} digits")
    # at each byte, the number its last three digits make: the hundreds
    # count only when the tens are a digit too, else they belong to the run before
    sample = (value[:-3] * digit[1:-2]).astype(np.uint16)
    sample *= 100
    sample += value[1:-2] * 10
    sample += value[2:-1]
    # the samples sit at the last digit of each run
    sample = sample[digit[2:-1] > digit[3:]]
    if sample.size and sample.max() > PEAK:
        raise PgmFormatError(f"bad PGM pixel value: {sample.max()} is over {PEAK}")
    return sample[: sample.size - partial].astype(np.uint8)


def write_pgm(path: str | os.PathLike, img) -> None:
    """Write *img* as a binary P5 PGM file; an error leaves *path* as it was.

    Output bytes depend only on the pixel data, so equal images always
    produce byte-identical files.
    """
    arr = as_gray(img)
    with _replacing(path) as fh:
        _write(fh, arr.shape, [arr])


def _write(fh: io.IOBase, shape: tuple[int, int], chunks: Iterable[np.ndarray]) -> None:
    """Write a P5 PGM of *shape* to *fh*, its raster from *chunks* of rows as they come."""
    h, w = shape
    fh.write(f"P5\n{w} {h}\n255\n".encode())
    for chunk in chunks:
        # the raster goes out from the array's own buffer, uncopied
        fh.write(np.ascontiguousarray(chunk).data)


class _WholeWrites(io.FileIO):
    """An unbuffered file that writes all it is given or raises. A raw write
    may write part of its bytes and return their count, as at the file size
    limit; the rest is written again, and that write raises."""

    def write(self, data) -> int:
        view = rest = memoryview(data).cast("B")
        while rest:
            rest = rest[super().write(rest) :]
        return len(view)


@contextmanager
def _replacing(path: str | os.PathLike):
    """Open *path* for writing so that an error leaves it as it was.

    A missing or regular file, reached through any symlinks, is written to a
    temporary file beside it, renamed over it on success and removed on any
    error, so an input that is that same file reads as it was until the
    rename. The temporary file gets what ``open(path, "wb")`` would keep:
    an existing file's mode and, where the user may set them, its owner and
    group, else 0o666 less the umask. Any other file, such as a FIFO or a
    terminal, is written straight and never replaced.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "wb") as fh:
            yield fh
        return
    # beside the file a symlink names, so the rename replaces that file and
    # not the link; the short name fits wherever the output's own does
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".mrdenoise-{os.urandom(4).hex()}.tmp")
    # O_EXCL makes a new file; the kernel takes the umask off 0o666. Unbuffered,
    # as a buffer would only copy each header, chunk or row once more
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # named for the caller's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    with _WholeWrites(fd, "w") as fh:
        try:
            if st is not None:
                with suppress(PermissionError):
                    os.fchown(fh.fileno(), st.st_uid, st.st_gid)
                os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            yield fh
            fh.close()
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise

"""Window-level classifiers that separate edges, noise, and smooth texture.

All classifiers are pure functions of a single 3x3 or 5x5 neighborhood and
a threshold set, so they can be unit-tested in isolation and invoked from
either the frame pipeline or the streaming engine. Windows are flat
sequences of integers in row-major order (9 values with index 4 the
center, or 25 values with index 12 the center).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .image import _require_int

__all__ = [
    "Thresholds",
    "load_thresholds",
    "type1_edge",
    "directional_distances",
    "type2_edge",
    "disorder",
    "noisy_pixel",
    "similarity",
]


# Flat 5x5 indices (center is 12) of each direction's pixels, in H, V, D,
# AD (horizontal, vertical, diagonal, anti-diagonal) order. Near pixels
# touch the center; far pixels sit at distance two and carry half weight.
NEAR_PIXELS = ((11, 13), (7, 17), (6, 18), (8, 16))
FAR_PIXELS = ((10, 14), (2, 22), (0, 24), (4, 20))

# a threshold file's five lines need far fewer bytes; a device or pipe is refused
_CONFIG_BYTES = 1 << 16


@dataclass(frozen=True)
class Thresholds:
    """The five detection thresholds; defaults are the recommended settings.

    t1 gates the sorted-gap edge test, t2 bounds the minimum directional
    distance separating clean from noisy edges, t3 is the disorder margin
    around the window medians, t4 is the intensity tolerance used by the
    extremum-proximity and similarity tests, and t5 is the minimum number
    of similar neighbors (out of 8) needed to keep a pixel.
    """

    t1: int = 20
    t2: int = 150
    t3: int = 30
    t4: int = 10
    t5: int = 6

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            # stored as a Python int: a numpy integer would carry its dtype into
            # the kernel's uint8 arithmetic and, under numpy 2, widen it
            value = _require_int(name, getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, value)
        if self.t5 > 8:
            raise ValueError("t5 counts 3x3 neighbors and cannot exceed 8")


def load_thresholds(path: str | os.PathLike) -> Thresholds:
    """Read thresholds from a plain-text ``key=value`` file.

    Keys are t1..t5 (each optional, defaults fill the rest); ``#`` starts
    a comment; blank lines are ignored. A file over 64 KiB is refused.
    """
    with open(path, "rb") as fh:
        data = fh.read(_CONFIG_BYTES + 1)
    if len(data) > _CONFIG_BYTES:
        raise ValueError(f"threshold file is longer than {_CONFIG_BYTES} bytes")
    names = {f.name for f in fields(Thresholds)}
    values: dict[str, int] = {}
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {raw.strip()!r}")
        if key not in names:
            raise ValueError(f"line {lineno}: unknown threshold {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate threshold {key!r}")
        try:
            values[key] = int(value.strip())
        except ValueError:
            raise ValueError(
                f"line {lineno}: invalid integer for {key}: {value.strip()!r}"
            ) from None
    return Thresholds(**values)


def type1_edge(f, t1: int) -> bool:
    """Sorted-gap edge test on the sorted 3x3 values F1..F9.

    True (edge) when the gap below or above the median, F5-F4 or F6-F5,
    strictly exceeds t1.
    """
    return int(f[4]) - int(f[3]) > t1 or int(f[5]) - int(f[4]) > t1


def directional_distances(w5, *, weights_inside_abs: bool = False) -> tuple[int, int, int, int]:
    """Weighted absolute-difference distance along each direction line.

    For each direction the two near pixels contribute |center - pixel|
    with weight 1 and the two far pixels with weight 1/2. The four
    distances come back in H, V, D, AD order and in exact half units
    (twice the true distance), so the half weights stay integers. With
    ``weights_inside_abs`` the half weight is applied to the pixel before
    the difference (|center - pixel/2|), an alternate form kept for
    fidelity experiments; note it is nonzero even on uniform windows.
    """
    c = int(w5[12])
    k = 2 if weights_inside_abs else 1
    return tuple(
        2 * (abs(c - int(w5[n1])) + abs(c - int(w5[n2])))
        + abs(k * c - int(w5[f1]))
        + abs(k * c - int(w5[f2]))
        for (n1, n2), (f1, f2) in zip(NEAR_PIXELS, FAR_PIXELS)
    )


def type2_edge(w5, t2: int, *, weights_inside_abs: bool = False) -> bool:
    """Noisy-edge test on a 5x5 window.

    True (noisy edge) when even the best-aligned direction keeps a
    distance strictly above t2; a small minimum distance means the center
    sits on a clean edge line.
    """
    return min(directional_distances(w5, weights_inside_abs=weights_inside_abs)) > 2 * t2


def disorder(p5: int, f, t3: int) -> bool:
    """Disorder test: the center differs from all three median-ranked values.

    True (disordered) when |F6 - P5|, |P5 - F4| and |P5 - F5| all strictly
    exceed t3.
    """
    c = int(p5)
    return (
        abs(int(f[5]) - c) > t3
        and abs(c - int(f[3])) > t3
        and abs(c - int(f[4])) > t3
    )


def noisy_pixel(p5: int, f, t4: int) -> bool:
    """Extremum-proximity test for impulse candidates in smooth areas.

    True (candidate) when the center sits within t4 of the window maximum
    or minimum: F9 - P5 < t4 or P5 - F1 < t4.
    """
    c = int(p5)
    return int(f[8]) - c < t4 or c - int(f[0]) < t4


def similarity(w3, t4: int, t5: int) -> bool:
    """Neighbor-similarity test on a 3x3 window.

    Counts the neighbors within t4 of the center (inclusive); True
    (similar) when at least t5 of the 8 qualify.
    """
    c = int(w3[4])
    count = 0
    for i in (0, 1, 2, 3, 5, 6, 7, 8):
        if abs(int(w3[i]) - c) <= t4:
            count += 1
    return count >= t5

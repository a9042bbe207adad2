"""The benchmark's yardsticks: fixed work timed next to every op.

On a shared host the speed of the same code drifts: other tenants share its
cores and its last-level cache, so the same op can take from 1x to 1.7x as
long from one minute to the next (see README.md). Each workload therefore
pairs every timed op with one run of a yardstick, a kernel that does the
same kind of work as the op, on inputs fixed here and never taken from
``--seed``, and reports op time over yardstick time. A slow phase of the
host stretches both; a change to the package moves only the op. Nothing
here calls the package.

- ``frame_yardstick``: a vectorized 3x3 detect-and-replace pass over padded
  int32 planes, like the frame kernel, plus 3x3 and 5x5 medians for ``eval``.
- ``scalar_yardstick``: a per-pixel pure-Python 3x3 window loop and a
  token parser, like the stream engine and the ASCII P2 reader.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

YARDSTICK_SEED = 20070101  # fixed: the yardstick does the same work in every run
# Frame yardsticks use planes this much narrower than the op's frames. A
# power-of-two width puts the rows of a stacked window at power-of-two
# strides, and a sort across them then runs up to 1.7x slower depending on
# where the pages land; the yardstick is meant to measure the host, not that.
TRIM = 6


def _planes(count: int, size: int) -> list[np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(YARDSTICK_SEED))
    return [np.pad(rng.integers(0, 256, (size, size), dtype=np.int32), 2, mode="edge") for _ in range(count)]


def frame_pass(plane: np.ndarray) -> int:
    """One 3x3 detect-and-replace pass over a plane padded by 2; pixels changed."""
    h, w = plane.shape[0] - 4, plane.shape[1] - 4
    v3 = [plane[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] for dy in range(3) for dx in range(3)]
    s = np.sort(np.stack(v3), axis=0)
    med, center = s[4], v3[4]
    mean = (s[3] + s[4] + s[5] + 1) // 3
    noisy = np.abs(center - med) > (s[7] - s[1]) // 2 + 8
    edge = np.abs(v3[3] - v3[5]) > np.abs(v3[1] - v3[7])
    out = np.where(noisy, np.where(edge, med, mean), center)
    return int(np.count_nonzero(out != center))


def median(plane: np.ndarray, k: int) -> int:
    """A k x k median (k <= 5) over a plane padded by 2, by a full sort; its first value."""
    h, w = plane.shape[0] - 4, plane.shape[1] - 4
    o = 2 - k // 2
    stack = np.stack([plane[o + dy:o + dy + h, o + dx:o + dx + w] for dy in range(k) for dx in range(k)])
    return int(np.sort(stack, axis=0)[k * k // 2, 0, 0])


def frame_yardstick(size: int, count: int, with_medians: bool = False) -> Callable[[], int]:
    planes = _planes(count, size)

    def work() -> int:
        total = 0
        for plane in planes:
            total += frame_pass(plane)
            if with_medians:
                total += median(plane, 3) + median(plane, 5)
        return total

    return work


def window_loop(rows: list[list[int]]) -> int:
    """Per-pixel 3x3 windows in pure Python: sort, test, count; pixels flagged."""
    counts: dict[str, int] = {}
    for y in range(1, len(rows) - 1):
        a, b, c = rows[y - 1], rows[y], rows[y + 1]
        for x in range(1, len(b) - 1):
            s = sorted((a[x - 1], a[x], a[x + 1], b[x - 1], b[x], b[x + 1], c[x - 1], c[x], c[x + 1]))
            key = "noisy" if abs(b[x] - s[4]) > (s[7] - s[1]) // 2 + 8 else "keep"
            counts[key] = counts.get(key, 0) + 1
    return counts.get("noisy", 0)


def scalar_yardstick(size: int, parse_size: int) -> Callable[[], int]:
    rng = np.random.Generator(np.random.PCG64(YARDSTICK_SEED))
    rows = rng.integers(0, 256, (size, size)).tolist()
    text = " ".join(map(str, rng.integers(0, 256, parse_size * parse_size).tolist()))

    def work() -> int:
        return window_loop(rows) + sum(int(t) for t in text.split())

    return work

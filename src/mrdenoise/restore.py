"""The three pixel restoration filters.

Each filter returns a plain int computed with exact integer arithmetic;
halves round up. Results always lie within the range of the window that
produced them.
"""

from __future__ import annotations

from .detect import FAR_PIXELS, NEAR_PIXELS

__all__ = ["average_restore", "type1_edge_preserve", "type2_edge_preserve"]

# Center-symmetric 3x3 pairs in fixed order: horizontal, vertical,
# diagonal, anti-diagonal (flat indices, center is 4).
_PAIRS = ((3, 5), (1, 7), (0, 8), (2, 6))


def average_restore(f) -> int:
    """Mean of the three median-ranked sorted values F4, F5, F6, rounded half-up."""
    s = int(f[3]) + int(f[4]) + int(f[5])
    return (s + 1) // 3


def type1_edge_preserve(w3) -> int:
    """Average of the most alike center-symmetric pair in a 3x3 window.

    The pair with the smallest absolute difference (first wins ties, in
    H, V, D, AD order) is assumed to straddle the local edge direction;
    its rounded mean replaces the center.
    """
    best_diff = None
    best_sum = 0
    for a, b in _PAIRS:
        va, vb = int(w3[a]), int(w3[b])
        diff = abs(va - vb)
        if best_diff is None or diff < best_diff:
            best_diff = diff
            best_sum = va + vb
    return (best_sum + 1) // 2


def type2_edge_preserve(w5) -> int:
    """Median of the flattest direction line in a 5x5 window.

    For each direction the four non-center pixels are scored by their
    summed absolute deviation from the line mean (kept in exact
    quarter-unit fixed point); the center is excluded since it is the
    pixel under repair. The lowest-spread direction wins (first on ties,
    H, V, D, AD order) and the median of its four pixels, rounded half-up,
    is returned.
    """
    best_spread = None
    best_line = (0, 0, 0, 0)
    best_sum = 0
    for (n1, n2), (f1, f2) in zip(NEAR_PIXELS, FAR_PIXELS):
        line = (int(w5[n1]), int(w5[n2]), int(w5[f1]), int(w5[f2]))
        s = line[0] + line[1] + line[2] + line[3]
        spread = sum(abs(4 * v - s) for v in line)
        if best_spread is None or spread < best_spread:
            best_spread = spread
            best_line = line
            best_sum = s
    return (best_sum - min(best_line) - max(best_line) + 1) // 2

"""Pure-Python reference values the benchmark checks the library against.

Nothing here imports numpy or gradenorm: norms use ``math.hypot`` and
``math.fsum``, binomials ``math.comb``. Vectors are lists of levels,
each level a list of floats.
"""

from __future__ import annotations

import math

# The r = 5 proof in the source paper, as right-hand orbit k -> the
# left-hand coefficients binom(e_i, s) it absorbs, largest first.
PUBLISHED_R5_GROUPS = {
    1: [10, 8, 6],
    2: [45, 28, 4],
    3: [120, 56, 15],
    4: [210],
    5: [252, 70, 20, 6, 2],
}

REL_TOL = 1e-12


def exponent(r: int, level: int) -> int:
    """e_i = 2(r - i + 1) for a 1-based level."""
    return 2 * (r - level + 1)


def grouping(r: int, lines: list[tuple[int, int, int]]) -> dict[int, list[int]]:
    """Coefficients of certificate lines (i, s, k) grouped by target k."""
    groups: dict[int, list[int]] = {}
    for level, split, target in lines:
        groups.setdefault(target, []).append(math.comb(exponent(r, level), split))
    return {k: sorted(v, reverse=True) for k, v in groups.items()}


def norm(levels: list[list[float]]) -> float:
    """(sum_i |v_i|^{e_i})^{1/2r}; the Euclidean norm itself for r = 1."""
    r = len(levels)
    mags = [math.hypot(*c) for c in levels]
    if r == 1:
        return mags[0]
    total = math.fsum(m ** exponent(r, i) for i, m in enumerate(mags, start=1))
    return total ** (1.0 / (2 * r))


def add(x: list[list[float]], y: list[list[float]]) -> list[list[float]]:
    return [[a + b for a, b in zip(cx, cy)] for cx, cy in zip(x, y)]


def dilate(t: float, x: list[list[float]]) -> list[list[float]]:
    """Level i scaled by t^i."""
    return [[v * t**i for v in c] for i, c in enumerate(x, start=1)]


def close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * scale


def levels_close(got: list[list[float]], want: list[list[float]]) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(close(a, b, abs(b)) for a, b in zip(g, w))
        for g, w in zip(got, want)
    )

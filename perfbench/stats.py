"""Order statistics for per-call samples."""

from __future__ import annotations

# A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count): the (n - TAIL_BEYOND)-th
    smallest sample, so exactly TAIL_BEYOND samples lie above its rank, at
    percentile 100 * (n - TAIL_BEYOND) / n. None when n <= TAIL_BEYOND.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n

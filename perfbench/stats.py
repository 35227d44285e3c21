"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

# A tail percentile is only meaningful with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(samples: list[float], q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the q-th percentile's interpolation point."""
    pos = (n - 1) * q / 100.0
    return n - 1 - math.floor(pos)


def tail_supported(n: int, q: float) -> bool:
    """True when at least MIN_TAIL_SAMPLES of n samples lie beyond the q-th percentile."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def median(samples: list[float]) -> float:
    return percentile(samples, 50.0)


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted

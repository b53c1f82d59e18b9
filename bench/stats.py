"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import numpy as np

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def summary(values) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    out = {"median": median(arr), "n": int(arr.size)}
    for p in TAIL_PERCENTILES:
        if arr.size * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(arr, p))
            break
    return out

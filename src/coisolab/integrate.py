"""Fixed-step RK4 with a step-doubling error monitor.

The vector fields flowed here are smooth and bounded on the compact pieces
we sample, so no adaptive machinery: a fixed step plus a per-step comparison
against two half steps.  The full step and the first half step start from
the same point and share their first stage, so a step costs 11 right-hand
side evaluations.  A step whose doubling estimate exceeds the bound is
rejected by raising, telling the caller to shrink h.  The path is one array,
filled row by row.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ERR_TOL = 1e-6   # largest accepted step-doubling error estimate


class StepSizeError(RuntimeError):
    """Local step-doubling error estimate exceeded the bound."""


def _rk4_step(rhs, y, h, k1):
    k2 = rhs(y + (h / 2.0) * k1)
    k3 = rhs(y + (h / 2.0) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def split_duration(duration: float, h: float) -> tuple[int, float]:
    """Number of full steps of h in |duration| and the shorter tail step
    that covers the rest (0.0 when the full steps reach the end)."""
    remaining = abs(duration)
    n_full = int(math.floor(remaining / h + 1e-12))
    tail = remaining - n_full * h
    if tail <= 1e-14 * max(1.0, remaining):
        tail = 0.0
    return n_full, tail


def check_span(duration: float, h: float):
    """Refuse a step that is not finite and positive, and a duration whose
    step count is not finite or does not fit an index."""
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be finite and positive, got {h!r}")
    if not abs(duration) / h <= sys.maxsize:   # false for NaN too
        raise ValueError(f"duration {duration!r} does not split into at most "
                         f"{sys.maxsize} steps of {h!r}")


def rk4_flow(rhs, y0, duration: float, h: float) -> np.ndarray:
    """Integrate y' = rhs(y) for the signed duration, returning the full
    sample path (n_steps+1, dim) including the start point.

    The span is checked (``check_span``) and the path allocated before the
    first step: one too large to hold raises MemoryError or ValueError before
    rhs is called."""
    check_span(duration, h)
    n_full, tail = split_duration(duration, h)
    path = np.empty((n_full + (tail > 0) + 1, *np.shape(y0)))
    y = path[0] = np.array(y0, dtype=float)
    for i in range(1, len(path)):
        hs = math.copysign(tail if i > n_full else h, duration)
        k1 = rhs(y)
        full = _rk4_step(rhs, y, hs, k1)
        mid = _rk4_step(rhs, y, hs / 2.0, k1)
        half = _rk4_step(rhs, mid, hs / 2.0, rhs(mid))
        err = float(np.max(np.abs(full - half)))
        if not err <= ERR_TOL:   # NaN fails this test too
            raise StepSizeError(
                f"local error {err:.3e} exceeds {ERR_TOL:.1e}; reduce h={h:g}")
        y = path[i] = half
    return path

"""Fixed-step RK4 with a step-doubling error monitor.

The vector fields flowed here are smooth and bounded on the compact pieces
we sample, so no adaptive machinery: a fixed step plus a per-step comparison
against two half steps.  The full step and the first half step start from
the same point and share their first stage, so a step costs 11 right-hand
side evaluations.  A step whose doubling estimate exceeds the bound is
rejected by raising, telling the caller to shrink h.
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


def rk4_flow(rhs, y0, duration: float, h: float) -> np.ndarray:
    """Integrate y' = rhs(y) for the signed duration, returning the full
    sample path (n_steps+1, dim) including the start point.

    Each macro step is advanced with two half steps; the discrepancy against
    the single full step is the local error estimate."""
    # refused before any step: the step count must be finite and fit an index
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be finite and positive, got {h!r}")
    if not abs(duration) / h <= sys.maxsize:   # false for NaN too
        raise ValueError(f"duration {duration!r} does not split into at most "
                         f"{sys.maxsize} steps of {h!r}")
    y = np.array(y0, dtype=float)
    sign = 1.0 if duration > 0 else -1.0
    n_full, tail = split_duration(duration, h)
    steps = [h] * n_full
    if tail:
        steps.append(tail)
    path = [y.copy()]
    for dt in steps:
        hs = sign * dt
        k1 = rhs(y)
        full = _rk4_step(rhs, y, hs, k1)
        mid = _rk4_step(rhs, y, hs / 2.0, k1)
        half = _rk4_step(rhs, mid, hs / 2.0, rhs(mid))
        err = float(np.max(np.abs(full - half)))
        if not err <= ERR_TOL:   # NaN fails this test too
            raise StepSizeError(
                f"local error {err:.3e} exceeds {ERR_TOL:.1e}; reduce h={h:g}")
        y = half
        path.append(y.copy())
    return np.array(path)

"""Fixed-step RK4 with a step-doubling error monitor.

The vector fields flowed here are smooth and bounded on the compact pieces
we sample, so no adaptive machinery: a fixed step plus a per-step comparison
against two half steps.  The full step and the first half step start from
the same point, share their first stage and are otherwise independent, so
their remaining stages run as one two-row stack: a step costs 8 right-hand
side calls, 3 of them on two rows.  The second half step follows the first.
The coefficients h, h/2 and h/6 of both are built once per step size, the
full steps' and then the tail's, not once per step.
A step whose doubling estimate exceeds the bound is rejected by raising,
telling the caller to shrink h.  The path is one array, filled row by row.

A right-hand side maps a stack of states ``(..., *shape(y0))`` to their
derivatives, state by state: the stages above call it on ``(2, *shape(y0))``.
A start ``y0`` may itself be a stack, such as ``(k, dim)`` for k start
points.  Each row then follows its own path, with the bits of its path
started alone wherever rhs gives each row the bits of its own call
(``fields.stacked_evaluator`` does); a step is rejected when any row's
estimate exceeds the bound.  A frame of constant fields, such as the
family (t sin x1, 0)'s span{d4 - t d2, d5}, costs its stages no exp or
matmul: ``stacked_evaluator`` folds it to its values.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ERR_TOL = 1e-6   # largest accepted step-doubling error estimate


class StepSizeError(RuntimeError):
    """Local step-doubling error estimate exceeded the bound."""


def _coefficients(h):
    # h is a step, or a column of steps broadcast over a stack of states
    return h, h / 2.0, h / 6.0


def _rk4_step(rhs, y, k1, h, half, sixth):
    # h, h / 2 and h / 6 as _coefficients builds them
    k2 = rhs(y + half * k1)
    k3 = rhs(y + half * k2)
    k4 = rhs(y + h * k3)
    return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    sample path (n_steps+1, *shape(y0)) including the start point.  rhs maps
    a stack of states (..., *shape(y0)) to their derivatives.

    The span is checked (``check_span``) and the path allocated before the
    first step: one too large to hold raises MemoryError or ValueError before
    rhs is called."""
    check_span(duration, h)
    n_full, tail = split_duration(duration, h)
    path = np.empty((n_full + (tail > 0) + 1, *np.shape(y0)))
    y = path[0] = np.array(y0, dtype=float)
    column = (2,) + (1,) * y.ndim   # the shape of a step per stack row
    i = 0
    # the coefficients are built once per step size: the full steps', the tail's
    for size, count in ((h, n_full), (tail, int(tail > 0))):
        hs = math.copysign(size, duration)
        # row 0 takes the full step, row 1 the first half step
        both = _coefficients(np.array([hs, hs / 2.0]).reshape(column))
        second = _coefficients(hs / 2.0)
        for _ in range(count):
            full, mid = _rk4_step(rhs, y, rhs(y), *both)
            half = _rk4_step(rhs, mid, rhs(mid), *second)
            # 0.0 for a stack of no starts
            err = np.maximum.reduce(abs(full - half), axis=None, initial=0.0)
            if not err <= ERR_TOL:   # NaN fails this test too
                raise StepSizeError(
                    f"local error {err:.3e} exceeds {ERR_TOL:.1e}; reduce h={h:g}")
            i += 1
            y = path[i] = half
    return path

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
estimate exceeds the bound.

A right-hand side that returns one vector v at every state of its path is
not stepped: every stage of every step is v, so every step adds one
increment twice, and the path is a running sum (``np.add.accumulate`` adds
in order, with the loop's rounding).  ``fields.stacked_evaluator`` marks
such a function with a true ``constant`` attribute: a vector field whose
modes read only axes its own components leave still, such as the frame of
the family (t sin x1, 0), span{d4 - t d2, d5}, whose constants read no
axis, and minus the Reeb field (0, sin x1, cos x1, 0, 0, 0, 0), the
contact field of a constant Hamiltonian.  rk4_flow calls it once, on the
start, and sums at most CHUNK coordinates of the path at a time.  Every
other right-hand side takes the stepping loop above.
"""

from __future__ import annotations

import math
import sys

import numpy as np

ERR_TOL = 1e-6   # largest accepted step-doubling error estimate
CHUNK = 1 << 12  # path coordinates a constant right-hand side's sum holds at once


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


def _check_error(err, h: float):
    if not err <= ERR_TOL:   # NaN fails this test too
        raise StepSizeError(f"local error {err:.3e} exceeds {ERR_TOL:.1e}; reduce h={h:g}")


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
    rhs is called.  An rhs with a true ``constant`` attribute, one that
    returns the start's vector at every state of its path, is called once,
    on the start, when there is a step at all: its path is a running sum
    (``_sum_path``) with the loop's bits and errors."""
    check_span(duration, h)
    n_full, tail = split_duration(duration, h)
    path = np.empty((n_full + (tail > 0) + 1, *np.shape(y0)))
    y = path[0] = np.array(y0, dtype=float)
    if getattr(rhs, "constant", False):
        if len(path) > 1:
            _sum_path(path, rhs(y), duration, h, n_full, tail)
        return path
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
            _check_error(err, h)
            i += 1
            y = path[i] = half
    return path


def _sum_path(path, v, duration: float, h: float, n_full: int, tail: float):
    """Fill path[1:] from path[0] for an rhs that returns v at every state.

    Every stage of the loop is v, so with S = ((v + 2 v) + 2 v) + v, summed
    in the loop's order, a full step adds (hs/6) S and each half step adds
    dh = ((hs/2)/6) S: y[n+1] = (y[n] + dh) + dh.  A chunk of m steps is the
    running sum of y[n] and 2m copies of dh, every other row kept.  The
    chunk's step-doubling estimates are formed at once, and the first one
    that fails raises the loop's error."""
    s = v + 2.0 * v + 2.0 * v + v
    steps = max(1, CHUNK // max(1, path[0].size))   # steps a chunk sums
    run = np.empty((2 * min(steps, len(path) - 1) + 1, *path.shape[1:]))
    coords = tuple(range(1, path.ndim))   # a step's coordinates
    end = 0
    for size, count in ((h, n_full), (tail, int(tail > 0))):
        hs = math.copysign(size, duration)
        full, dh = (hs / 6.0) * s, ((hs / 2.0) / 6.0) * s
        first, end = end, end + count
        for i in range(first, end, steps):
            m = min(steps, end - i)
            chunk = run[:2 * m + 1]
            chunk[0] = path[i]
            chunk[1:] = dh
            np.add.accumulate(chunk, axis=0, out=chunk)
            path[i + 1:i + m + 1] = chunk[2::2]
            err = np.maximum.reduce(abs(path[i:i + m] + full - path[i + 1:i + m + 1]),
                                    axis=coords, initial=0.0)
            # the first estimate that fails, or err[0] when none does
            _check_error(err[np.argmin(err <= ERR_TOL)], h)

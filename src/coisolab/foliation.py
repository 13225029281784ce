"""Characteristic distribution of a coisotropic graph: spanning frame,
involutivity diagnostics, leaf tracing, and topological classification of
leaves for the linear family (t*sin x1, 0).

For a section s = (f, g) the rank-2 characteristic distribution of its graph
is spanned by

    V1 = X(f) d1 - df/dx1 X + d4 - f Y
    V2 = X(g) d1 - dg/dx1 X + d5 - g Y

(unit d4 / d5 components: the normal form used throughout).  For the family
s_t the frame degenerates to span{d4 - t d2, d5}, whose leaves are 2-tori
when t is rational and cylinders otherwise; the rational/irrational
dichotomy is decided at floating-point resolution by continued fractions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import integrate
from .coisotropy import Section, xy_frame
from .fields import ShapeError, VectorField, require_exact, stacked_evaluator, wrap_torus

MAX_CF_TERMS = 64     # partial quotients computed at most
CLOSURE_TOL = 1e-6    # lattice distance at which a traced leaf counts as closed


@dataclass(frozen=True)
class CharFrame:
    """Spanning frame of the characteristic distribution (normal form:
    v1 has unit d4 component, v2 has unit d5 component)."""

    v1: VectorField
    v2: VectorField


@dataclass(frozen=True)
class LeafTrace:
    lifted: np.ndarray      # unwrapped lift in R^5, the one held copy

    @property
    def points(self) -> np.ndarray:   # wrapped to T^5, a new array per access
        return wrap_torus(self.lifted, 5)


@dataclass
class LeafClass:
    kind: str               # "torus" | "cylinder" | "unknown"
    periods: tuple | None = None
    evidence: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"verdict": self.kind,
                "periods": list(self.periods) if self.periods else None,
                "evidence": self.evidence}


def characteristic_frame(s: Section) -> CharFrame:
    """Assemble the frame from the section by exact spectral algebra, from
    the section's first jets (``Section.jets``)."""
    sp = s.space
    X, Y = xy_frame(sp)
    (_, df, Xf, _), (_, dg, Xg, _) = s.jets
    e1 = VectorField.basis(sp, 0)
    e4 = VectorField.basis(sp, 3)
    e5 = VectorField.basis(sp, 4)
    v1 = e1 * Xf - X * df + e4 - Y * s.f
    v2 = e1 * Xg - X * dg + e5 - Y * s.g
    return CharFrame(v1, v2)


def involutivity_defect(frame: CharFrame, p) -> float:
    """Distance of [V1, V2](p) from span{V1(p), V2(p)}: the residual norm of
    the least-squares fit.  Zero (to roundoff) wherever the distribution is
    integrable; generically positive when the underlying section fails the
    coisotropicity equation."""
    br = frame.v1.bracket(frame.v2)
    b = br.evaluate_at(p)
    A = np.column_stack([frame.v1.evaluate_at(p), frame.v2.evaluate_at(p)])
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    return float(np.linalg.norm(A @ coef - b))


def trace_leaf(frame: CharFrame, start, duration: float, h: float = 1e-3) -> LeafTrace:
    """Integrate V1 from start, recording the lifted samples (the lift makes
    closure detection robust against dense windings).  A stack of starts
    (k, 5) traces k leaves as one state.  A frame that lost mass to
    truncation is refused: its leaf would be the box's."""
    require_exact("characteristic frame", frame.v1, frame.v2)
    rhs = stacked_evaluator(frame.v1.components)
    lifted = integrate.rk4_flow(rhs, np.asarray(start, dtype=float), duration, h)
    return LeafTrace(lifted)


def continued_fraction_convergents(t: float, max_denominator: int = 10 ** 6):
    """Partial quotients and convergents p/q of t, stopped once q exceeds
    max_denominator (or the expansion terminates at float resolution)."""
    _require_cap(max_denominator)
    quotients, convergents = [], []
    p_m2, p_m1 = 0, 1
    q_m2, q_m1 = 1, 0
    x = float(t)
    for _ in range(MAX_CF_TERMS):
        a = math.floor(x)
        p = a * p_m1 + p_m2
        q = a * q_m1 + q_m2
        if q > max_denominator:
            break
        quotients.append(a)
        convergents.append((p, q))
        p_m2, p_m1 = p_m1, p
        q_m2, q_m1 = q_m1, q
        frac = x - a
        if frac < 1e-18:
            break
        x = 1.0 / frac
    return quotients, convergents


def classify_leaf_linear(t: float, tol: float = 1e-9,
                         max_denominator: int = 10 ** 6) -> LeafClass:
    """Leaf topology for the frame span{d4 - t d2, d5}.

    The x5 circle always closes, so the verdict is torus versus cylinder: a
    leaf is a 2-torus iff t is rational, with x4-period 2*pi*q for t = p/q in
    lowest terms.  Floating input forces a resolution boundary: t counts as
    rational when a continued-fraction convergent approximates it to within
    tol/q^2 (closeness measured on the natural q^2 scale, so that doubles of
    small rationals are accepted while the convergents every irrational has
    below the denominator cap are not).  A tol outside (0, inf) is refused:
    0 would call a rational a cylinder, inf an irrational a torus.  So is a
    max_denominator that is not an integer >= 1 (a bool included)."""
    if not math.isfinite(t):
        raise ValueError(f"non-finite parameter {t}")
    _require_tol(tol)
    _require_cap(max_denominator)
    quotients, convergents = continued_fraction_convergents(t, max_denominator)
    best = None
    for p, q in convergents:
        err = abs(t - p / q)
        if best is None or err < best[2]:
            best = (p, q, err)
        if err < tol / (q * q):
            evidence = {"convergent": [p, q], "error": err,
                        "partial_quotients": quotients,
                        "tol": tol, "max_denominator": max_denominator}
            return LeafClass("torus", periods=(2.0 * math.pi * q, 2.0 * math.pi),
                             evidence=evidence)
    evidence = {"partial_quotients": quotients,
                "best_convergent": list(best[:2]) if best else None,
                "best_error": best[2] if best else None,
                "tol": tol, "max_denominator": max_denominator}
    return LeafClass("cylinder", evidence=evidence)


def _require_tol(tol: float):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol={tol} outside (0, inf)")


# a cap of 0 admits no convergent and 2.5 is no denominator; True is not a number
def _require_cap(max_denominator: int):
    if (isinstance(max_denominator, bool) or not isinstance(max_denominator, numbers.Integral)
            or max_denominator < 1):
        raise ValueError(f"max_denominator={max_denominator!r} is not an integer >= 1")


def integrality_scan(t_values, tol: float = 1e-9,
                     max_denominator: int = 10 ** 6) -> dict:
    """Classify the family over a parameter list and flag the instability:
    the undeformed t = 0 leaf space is a torus fibration while parameters
    arbitrarily close to 0 produce cylinder (non-torus) leaves.  A tol
    outside (0, inf) or a max_denominator that is not an integer >= 1 is
    refused before any parameter is classified."""
    _require_tol(tol)
    _require_cap(max_denominator)
    results = []
    for t in t_values:
        verdict = classify_leaf_linear(float(t), tol, max_denominator)
        results.append({"t": float(t), **verdict.to_json_dict()})
    torus_count = sum(1 for r in results if r["verdict"] == "torus")
    cylinder = [r["t"] for r in results if r["verdict"] == "cylinder"]
    report = {
        "results": results,
        "torus_count": torus_count,
        "cylinder_count": len(results) - torus_count,
    }
    if results:
        report["smallest_cylinder_t"] = min((abs(t) for t in cylinder), default=None)
        report["note"] = ("integrality is unstable: t = 0 closes into 2-tori, "
                          "yet every neighborhood of 0 contains parameters "
                          "whose leaves are cylinders")
    return report


def classify_section_leaf(s: Section, start, duration: float,
                          h: float = 1e-3) -> tuple[LeafClass, LeafTrace]:
    """Trace-based evidence for a general section's leaf.

    No general decision procedure exists here; the verdict stays "unknown"
    unless the trace exhibits a lattice closure (lifted displacement in
    2*pi*Z^5), in which case the evidence records it.  The evidence is
    that of one leaf, so a start that is not one point of T^5 is refused
    before anything is integrated."""
    if np.shape(start) != (5,):
        raise ShapeError(f"start of shape {np.shape(start)}; one point of T^5 is (5,)")
    frame = characteristic_frame(s)
    trace = trace_leaf(frame, start, duration, h)
    disp = trace.lifted - trace.lifted[0]
    lattice = disp / (2.0 * math.pi)
    dist = np.max(np.abs(lattice - np.round(lattice)), axis=1)
    dist[0] = np.inf  # ignore the start point itself
    moved = np.max(np.abs(disp), axis=1) > 0.1
    hits = np.where((dist < CLOSURE_TOL) & moved)[0]
    evidence = {"closure_hits": [int(i) for i in hits[:8]],
                "min_lattice_distance": float(np.min(dist[moved])) if moved.any() else None}
    return LeafClass("unknown", evidence=evidence), trace

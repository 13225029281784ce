"""Coisotropic sections of T^5 x R^2 -> T^5: residual PDE, linearization,
the fiber-integral obstruction, and a constrained Gauss-Newton prolongation
solver.

A candidate deformation of the zero section is a pair s = (f, g) of scalar
fields on T^5.  Its graph is coisotropic for the ambient contact structure
iff the first-order quadratic PDE

    df/dx1 * X(g) - dg/dx1 * X(f) = dg/dx4 - df/dx5 + g*Y(f) - f*Y(g)

holds, where X = cos x1 d/dx2 - sin x1 d/dx3 and Y = sin x1 d/dx2
+ cos x1 d/dx3.  ``residual`` returns LHS - RHS of this equation; only its
zero set matters.  Averaging the equation over the (x4, x5) torus kills the
two plain derivative terms and leaves the obstruction functional computed by
``kuranishi``: it must vanish for s to extend an infinitesimal deformation
to a genuine one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (PRUNE_TOL, Field, ShapeError, Space, VectorField,
                     canonical_rep)

BASE_TORUS_DIM = 5
FIBER_AXES = (3, 4)  # x4, x5


class PreconditionError(ValueError):
    """Solver input violates a stated precondition."""


def base_space(trunc_order: int = 8) -> Space:
    return Space(BASE_TORUS_DIM, 0, trunc_order, 0)


def xy_frame(space: Space):
    """The rotating horizontal frame (X, Y) on any space with >= 3 torus
    axes: X = cos x1 d2 - sin x1 d3, Y = sin x1 d2 + cos x1 d3."""
    if space.torus_dim < 3:
        raise ShapeError("frame needs at least three torus axes")
    z = Field.zero(space)
    c, s = Field.cos(space, 0), Field.sin(space, 0)
    comps_x = [z] * space.dim
    comps_y = [z] * space.dim
    comps_x[1], comps_x[2] = c, -s
    comps_y[1], comps_y[2] = s, c
    return VectorField(comps_x), VectorField(comps_y)


@dataclass(frozen=True)
class Section:
    """Deformation candidate s = f d_F x4 + g d_F x5 over T^5."""

    f: Field
    g: Field

    def __post_init__(self):
        for h in (self.f, self.g):
            if h.space.torus_dim != BASE_TORUS_DIM or h.space.fiber_dim != 0:
                raise ShapeError("section components must be scalar fields on T^5")
        if self.f.space != self.g.space:
            raise ShapeError("section components live over different spaces")

    @property
    def space(self) -> Space:
        return self.f.space

    def to_json_dict(self) -> dict:
        return {"f": self.f.to_json_dict(), "g": self.g.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Section":
        return cls(Field.from_json_dict(data["f"]), Field.from_json_dict(data["g"]))


def family_section(t: float, trunc_order: int = 8) -> Section:
    """The exactly coisotropic family (t*sin x1, 0)."""
    sp = base_space(trunc_order)
    return Section(Field.sin(sp, 0) * t, Field.zero(sp))


def _jet(h: Field, X: VectorField, Y: VectorField):
    """The first jet (h, dh/dx1, X h, Y h) that the quadratic part reads."""
    return h, h.partial(0), X(h), Y(h)


def _quadratic_form(jet_f, jet_g) -> Field:
    """Quadratic part of the PDE from the first jets of f and g."""
    f, df, Xf, Yf = jet_f
    g, dg, Xg, Yg = jet_g
    return df * Xg - dg * Xf - g * Yf + f * Yg


def _quadratic_part(u: Section, X: VectorField, Y: VectorField) -> Field:
    return _quadratic_form(_jet(u.f, X, Y), _jet(u.g, X, Y))


def residual(s: Section) -> Field:
    """Coisotropicity defect of the graph of s; zero iff coisotropic at the
    working truncation.  Truncation loss is carried on the result."""
    X, Y = xy_frame(s.space)
    return (_quadratic_part(s, X, Y)
            - s.g.partial(FIBER_AXES[0]) + s.f.partial(FIBER_AXES[1]))


def linearized_residual(s: Section) -> Field:
    """Derivative of the residual at the zero section, dg/dx4 - df/dx5 (the
    cocycle condition for infinitesimal deformations)."""
    return s.g.partial(FIBER_AXES[0]) - s.f.partial(FIBER_AXES[1])


def kuranishi(s: Section) -> Field:
    """Obstruction functional: the quadratic terms of the PDE averaged over
    the (x4, x5) torus, returned as a field on T^3.  Non-vanishing on an
    infinitesimal deformation forbids its prolongation."""
    X, Y = xy_frame(s.space)
    return (_quadratic_part(s, X, Y).integrate_torus(FIBER_AXES)
            .drop_torus_axes(FIBER_AXES))


def residual_from_jet(x1: float, f_val: float, g_val: float,
                      df: np.ndarray, dg: np.ndarray) -> float:
    """Pointwise residual from first-jet data (values and the five base
    partials of f and g at one point).  Used by sample-based flow checks."""
    c, s = math.cos(x1), math.sin(x1)
    Xf, Xg = c * df[1] - s * df[2], c * dg[1] - s * dg[2]
    Yf, Yg = s * df[1] + c * df[2], s * dg[1] + c * dg[2]
    return (df[0] * Xg - dg[0] * Xf - dg[3] + df[4]
            - g_val * Yf + f_val * Yg)


# ---------------------------------------------------------------------------
# Prolongation solver
# ---------------------------------------------------------------------------

DAMPING = 0.0          # initial Levenberg parameter
STALL_WINDOW = 5       # iterations over which a stall is judged
STALL_REL = 1e-3       # relative decrease below which the norm has stalled
MAX_DENSE = 3e8        # entries of the largest dense Jacobian the solver assembles
# Jacobian columns drop quadratic-part coefficients below this; the solver's
# iterates depend on it to the last bit
COLUMN_PRUNE = 2.0 * PRUNE_TOL


@dataclass
class ProlongOptions:
    tol: float = 1e-9
    max_iters: int = 200
    solver_radius: int | tuple = 1  # frequency radius of the unknowns (int or per-axis)


@dataclass
class SolverReport:
    status: str                    # "converged" | "obstructed" | "max_iters"
    iterations: int
    residual_norm_history: list
    truncation_loss: float
    final_section: Section
    diagnostic: str

    def to_json_dict(self) -> dict:
        return {"status": self.status,
                "iterations": self.iterations,
                "residual_norm_history": list(self.residual_norm_history),
                "truncation_loss": self.truncation_loss,
                "final_section": self.final_section.to_json_dict(),
                "diagnostic": self.diagnostic}


class _RealCoords:
    """Real coordinates of a real field's coefficients on a fiber-free space.

    Each canonical representative k of a pair {k, -k} owns a slot, keyed by
    its packed mode key: (re, im) for k != 0, the real part alone for k = 0.
    Canonical keys are those at or above the key of k = 0.  Weights carry
    the Parseval multiplicity, so the weighted Euclidean norm is the
    coefficient norm.  Modes get slots in the order they are first seen."""

    def __init__(self, space: Space, keys=()):
        self.space, self.zero = space, space.zero_key
        self.slots = {}
        self.weights = []
        for key in keys:
            self.slot(key)

    def slot(self, key) -> int:
        s = self.slots.get(key)
        if s is None:
            s = self.slots[key] = len(self.weights)
            self.weights.extend((2.0, 2.0) if key != self.zero else (1.0,))
        return s

    def add(self, out, h: Field):
        """Add the coordinates of h into the vector out."""
        for key, c in h.packed.items():
            if key >= self.zero:
                s = self.slot(key)
                out[s] += c.real
                if key != self.zero:
                    out[s + 1] += c.imag

    def modes(self, v) -> dict:
        """The nonzero coefficients {(k, m): c} held in the vector v."""
        out = {}
        for key, s in self.slots.items():
            c = complex(v[s], v[s + 1] if key != self.zero else 0.0)
            if c:
                out[self.space.unpack(key)] = c
        return out


def prolong(direction: Section, eps: float, opts: ProlongOptions | None = None) -> SolverReport:
    """Try to extend an infinitesimal deformation to a genuine coisotropic
    section of size eps, in the direction's truncation box.

    Gauss-Newton on the Fourier coefficients of (f, g) minimizes the L2 norm
    of the residual, subject to the one-dimensional affine constraint that
    the orthogonal projection of (f, g) onto the span of the direction's
    coefficient vector equals eps; the constraint is eliminated by working
    in the orthogonal complement.  Verdicts: ``converged`` when the residual
    norm drops below tol; ``obstructed`` when the norm stalls (relative
    decrease below STALL_REL over STALL_WINDOW iterations) while still above
    100*tol; ``max_iters`` otherwise.  A system larger than MAX_DENSE
    entries is refused before any assembly."""
    opts = opts or ProlongOptions()
    if not 0.0 < eps <= 0.5:
        raise PreconditionError(f"eps={eps} outside (0, 0.5]")
    lin = linearized_residual(direction)
    if lin.l2_norm() > 1e-10:
        raise PreconditionError(
            "direction is not an infinitesimal deformation "
            f"(linearized residual norm {lin.l2_norm():.3e} > 1e-10)")

    sp = direction.space
    radii = _solver_radii(direction, opts.solver_radius, sp.trunc_order)
    # a real field on a symmetric box of T modes has T real coordinates; the
    # residual and every Jacobian column stay in the box of radius 2 r (and
    # 2 r1 + 1 on x1, from the frame's cos x1 and sin x1), cut at the
    # truncation order
    n = 2 * math.prod(2 * r + 1 for r in radii)
    row_cap = math.prod(2 * min(2 * r + (a == 0), sp.trunc_order) + 1
                        for a, r in enumerate(radii))
    if row_cap * n > MAX_DENSE:
        raise PreconditionError(
            f"solver system of up to {row_cap}x{n} too large for dense assembly; "
            "reduce solver_radius (per-axis radii are accepted)")
    box = _RealCoords(sp, (sp.pack(k, ()) for k in itertools.product(
        *(range(-r, r + 1) for r in radii)) if canonical_rep(k)))
    nb = len(box.weights)
    X, Y = xy_frame(sp)

    def section_of(v):
        return Section(Field.from_modes(sp, box.modes(v[:nb])),
                       Field.from_modes(sp, box.modes(v[nb:])))

    u = np.zeros(n)
    box.add(u[:nb], direction.f)
    box.add(u[nb:], direction.g)
    w = np.array(box.weights * 2)
    uu = float(np.dot(w * u, u))
    if uu == 0.0:
        raise PreconditionError("zero direction")

    def project_complement(z):
        return z - (np.dot(w * z, u) / uu) * u

    proj = np.eye(n) - np.outer(u, w * u) / uu
    x = eps * u
    s = section_of(x)
    r_field = residual(s)
    norm = r_field.l2_norm()
    history = [norm]
    lam = DAMPING
    status, diagnostic = "max_iters", ""
    iters_done = 0

    for it in range(opts.max_iters):
        if norm < opts.tol:
            status = "converged"
            break
        if len(history) > STALL_WINDOW and norm > 100.0 * opts.tol:
            prev = history[-1 - STALL_WINDOW]
            if prev > 0 and (prev - norm) / prev < STALL_REL:
                status = "obstructed"
                diagnostic = (f"stalled: residual norm fell by {(prev - norm) / prev:.3e} "
                              f"(relative) over the last {STALL_WINDOW} iterations, "
                              f"below STALL_REL = {STALL_REL:g}")
                break

        A, rows = _jacobian(box, s, X, Y, row_cap)
        rvec = np.zeros(row_cap)
        rows.add(rvec, r_field)
        m = len(rows.weights)
        sw = np.sqrt(rows.weights)
        AP = (A[:m] * sw[:, None]) @ proj
        rvec = rvec[:m] * sw

        improved = False
        for _attempt in range(12):
            if lam > 0:
                stacked = np.vstack([AP, math.sqrt(lam) * np.eye(n)])
                target = np.concatenate([-rvec, np.zeros(n)])
            else:
                stacked, target = AP, -rvec
            delta, *_ = np.linalg.lstsq(stacked, target, rcond=None)
            delta = project_complement(delta)
            x_new = eps * u + project_complement(x + delta - eps * u)
            s_new = section_of(x_new)
            r_new = residual(s_new)
            norm_new = r_new.l2_norm()
            if norm_new < norm or norm_new < opts.tol:
                x, s, r_field, norm = x_new, s_new, r_new, norm_new
                lam = lam / 10.0 if lam > 1e-12 else 0.0
                improved = True
                break
            lam = max(lam * 10.0, 1e-8)
        iters_done = it + 1
        history.append(norm)
        if not improved:
            if norm > 100.0 * opts.tol:
                status = "obstructed"
                diagnostic = "no descent direction found (damping exhausted)"
            else:
                diagnostic = ("stalled near the tolerance without a usable "
                              "Gauss-Newton direction")
            break

    if status == "max_iters" and norm < opts.tol:
        status = "converged"
    return SolverReport(status=status, iterations=iters_done,
                        residual_norm_history=history,
                        truncation_loss=r_field.trunc_loss,
                        final_section=s, diagnostic=diagnostic)


def _solver_radii(direction: Section, radius, trunc_order: int):
    radii = [radius] * BASE_TORUS_DIM if isinstance(radius, int) else list(radius)
    if len(radii) != BASE_TORUS_DIM:
        raise PreconditionError("solver_radius needs one entry per torus axis")
    for h in (direction.f, direction.g):
        for key in h.packed:
            for a, ka in enumerate(h.space.unpack(key)[0]):
                radii[a] = max(radii[a], abs(ka))
    if max(radii) > trunc_order:
        raise PreconditionError(
            f"solver radii {radii} exceed the truncation order {trunc_order}")
    return radii


def _jacobian(box: _RealCoords, s: Section, X: VectorField, Y: VectorField, row_cap: int):
    """Gauss-Newton Jacobian of the residual at s: a dense (row_cap, n)
    matrix with one column per real unknown (f block, then g block, each in
    box order) and the coordinates of its rows.

    The column of delta = (phi, 0) is the residual's derivative
    dQ(s)[delta] + dphi/dx5, where Q is the quadratic part, bilinear in
    (f, g): dQ(s)[(phi, 0)] = Q(phi, g).  Likewise Q(f, psi) - dpsi/dx4
    for (0, psi)."""
    sp = s.space
    jet_f, jet_g = _jet(s.f, X, Y), _jet(s.g, X, Y)
    rows = _RealCoords(sp)
    A = np.zeros((row_cap, 2 * len(box.weights)))
    dofs = [(block, sp.unpack(key), c) for block in (0, 1) for key in box.slots
            for c in ((1.0, 1j) if key != box.zero else (1.0,))]
    for j, (block, mode, c) in enumerate(dofs):
        h = Field.from_modes(sp, {mode: c})
        if block == 0:
            quad = _quadratic_form(_jet(h, X, Y), jet_g)
            lin = h.partial(FIBER_AXES[1])
        else:
            quad = _quadratic_form(jet_f, _jet(h, X, Y))
            lin = -h.partial(FIBER_AXES[0])
        rows.add(A[:, j], quad.drop_below(COLUMN_PRUNE) + lin)
    return A, rows

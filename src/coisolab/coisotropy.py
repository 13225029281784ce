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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fields import (PRUNE_TOL, CoordLayout, Field, ShapeError, Space, VectorField,
                     box_keys, in_sorted, real_coords)

BASE_TORUS_DIM = 5
FIBER_AXES = (3, 4)  # x4, x5


class PreconditionError(ValueError):
    """Solver input violates a stated precondition."""


def base_space(trunc_order: int = 8) -> Space:
    return Space(BASE_TORUS_DIM, 0, trunc_order, 0)


@functools.cache
def xy_frame(space: Space):
    """The rotating horizontal frame (X, Y) on any space with >= 3 torus
    axes: X = cos x1 d2 - sin x1 d3, Y = sin x1 d2 + cos x1 d3.  Built once
    per space and shared by every caller, so its fields are read-only."""
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

    @functools.cached_property
    def jets(self):
        """The first jets (h, dh/dx1, X h, Y h) of f and of g, built on first
        use and kept: the section and its fields are immutable, so
        ``residual``, ``kuranishi``, ``_jacobian`` and
        ``foliation.characteristic_frame`` share one build."""
        X, Y = xy_frame(self.space)
        return _jet(self.f, X, Y), _jet(self.g, X, Y)

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


def _quadratic_part(u: Section) -> Field:
    return _quadratic_form(*u.jets)


def residual(s: Section) -> Field:
    """Coisotropicity defect of the graph of s; zero iff coisotropic at the
    working truncation.  Truncation loss is carried on the result."""
    return (_quadratic_part(s)
            - s.g.partial(FIBER_AXES[0]) + s.f.partial(FIBER_AXES[1]))


def linearized_residual(s: Section) -> Field:
    """Derivative of the residual at the zero section, dg/dx4 - df/dx5 (the
    cocycle condition for infinitesimal deformations)."""
    return s.g.partial(FIBER_AXES[0]) - s.f.partial(FIBER_AXES[1])


def kuranishi(s: Section) -> Field:
    """Obstruction functional: the quadratic terms of the PDE averaged over
    the (x4, x5) torus, returned as a field on T^3.  Non-vanishing on an
    infinitesimal deformation forbids its prolongation."""
    return (_quadratic_part(s).integrate_torus(FIBER_AXES)
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

STALL_WINDOW = 5       # iterations over which a stall is judged
STALL_REL = 1e-3       # relative decrease below which the norm has stalled
# real unknowns of the solver box: every iterate, step and direction vector is
# this long, and box_keys builds half as many keys
MAX_UNKNOWNS = 4e6
# real rows x columns of the residual's sector, the dense matrix of its SVD;
# the closure that finds it checks this as it grows, before any assembly
MAX_SECTOR = 1e7
# Jacobian columns drop quadratic-part coefficients below this; the solver's
# iterates depend on it to the last bit
COLUMN_PRUNE = 2.0 * PRUNE_TOL
# a trial iterate x is judged only inside the tube
# max|x - eps u| <= TUBE eps max|u| around the start eps u, in real coordinates
TUBE = 10.0


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


def prolong(direction: Section, eps: float, opts: ProlongOptions | None = None) -> SolverReport:
    """Try to extend an infinitesimal deformation to a genuine coisotropic
    section of size eps, in the direction's truncation box.

    Gauss-Newton on the Fourier coefficients of (f, g) minimizes the L2 norm of
    the residual, subject to the one-dimensional affine constraint that the
    orthogonal projection of (f, g) onto the span of the direction's
    coefficient vector equals eps; the constraint is eliminated by working in
    the orthogonal complement.  The unknowns, the direction and the residual
    rows are real coordinates on ascending canonical key arrays, the unknowns'
    from ``box_keys``.  A solve builds the box's layout
    (``fields.real_coords``) once, and every attempt writes its iterate through
    it.  What an iteration builds from key arrays alone is built once per
    distinct key set in a solve: the solve's ``_Structure`` keeps the sector's
    closure (keyed on the iterate's keys) and ``_jacobian``'s column modes and
    entry pattern, and rebuilds each only when its keys change.  Each iterate
    is evaluated once: a section builds its first jets on first use
    (``Section.jets``), so ``residual`` and the next ``_jacobian`` share them.
    A trial x outside the tube max|x - eps u| <= TUBE eps max|u| is rejected
    without a section or a residual.  The Jacobian is assembled in closed form
    from the jets of single exponentials (``_jacobian``), with no Field product
    per column, as sparse triplets; its rows come in sorted key order.
    Restricting it to the complement changes only the direction's columns, so
    the projected Jacobian stays sparse.  Only the residual's sector, the rows
    and columns that a chain of entries joins to a nonzero residual row, gets a
    step.  So each iteration assembles only the columns of a key-space closure
    that contains the sector (``_sector_keys``), maps them back to the box's
    real slots, and takes one thin SVD of the sector (``_sector_steps``); that
    one factorization serves the undamped step (rank cutoff eps_mach n s_max)
    and every damped retry.  Every other unknown's step is exactly 0.  The
    verdict is decided once, after the loop, from the history's last norm:
    ``converged`` below tol; else ``obstructed`` if the loop stopped on the
    stall window (relative decrease below STALL_REL over STALL_WINDOW
    iterations) or on damping exhaustion (12 rejected attempts, or none when
    the sector is empty and every lam steps by 0) and the norm is above
    100*tol; else ``max_iters``.  A tol outside [0, inf), a max_iters that is
    no integer >= 0, inexact boxes (``_solver_radii``), keys beyond int64 and
    boxes of more than MAX_UNKNOWNS real unknowns are refused before any work
    on the box; a sector closure that grows past MAX_SECTOR is refused before
    its assembly."""
    opts = opts or ProlongOptions()
    if not 0.0 < eps <= 0.5:
        raise PreconditionError(f"eps={eps} outside (0, 0.5]")
    if not 0.0 <= opts.tol < math.inf:
        raise PreconditionError(f"tol={opts.tol} outside [0, inf)")
    try:
        max_iters = operator.index(opts.max_iters)
    except TypeError:
        raise PreconditionError(f"max_iters must be an integer, got {opts.max_iters!r}") from None
    if max_iters < 0:
        raise PreconditionError(f"max_iters={max_iters} is negative")
    sp = direction.space
    # 2 zero_key is the key of (2N, ..., 2N), the largest sum of two in-box modes
    if 2 * sp.zero_key > np.iinfo(np.int64).max:
        raise PreconditionError(f"truncation order {sp.trunc_order} overflows int64 mode keys")
    lin = linearized_residual(direction)
    if lin.l2_norm() > 1e-10:
        raise PreconditionError(
            "direction is not an infinitesimal deformation "
            f"(linearized residual norm {lin.l2_norm():.3e} > 1e-10)")

    radii = _solver_radii(direction, opts.solver_radius, sp)
    # a real field on a symmetric box of T modes has T real coordinates
    n = 2 * math.prod(2 * r + 1 for r in radii)
    if n > MAX_UNKNOWNS:
        raise PreconditionError(f"solver box of {n} unknowns exceeds MAX_UNKNOWNS = "
                                f"{MAX_UNKNOWNS:g}; reduce solver_radius "
                                "(per-axis radii are accepted)")
    box, nb = real_coords(sp, box_keys(sp, radii)), n // 2

    def section_of(v):
        return Section(Field.from_coords(box, v[:nb]), Field.from_coords(box, v[nb:]))

    u = np.concatenate([direction.f.coords(box), direction.g.coords(box)])
    w = np.tile(box.weight, 2)
    uu = float(np.dot(w * u, u))
    if uu == 0.0:
        raise PreconditionError("zero direction")
    supp = np.flatnonzero(u)
    on_supp = u != 0
    supp_keys = np.intersect1d(box.keys, [*direction.f.packed, *direction.g.packed])

    def project_complement(z):
        return z - (np.dot(w * z, u) / uu) * u

    def sector_columns(own):
        """The closure's layout, and the box's real slot of each of its
        columns, f block then g block."""
        cols = real_coords(sp, _sector_keys(sp, box.keys, own, supp_keys))
        shift = np.repeat(box.slot[np.searchsorted(box.keys, cols.keys)] - cols.slot,
                          cols.held.sum(axis=1))
        to_box = np.arange(len(cols.weight)) + shift
        return cols, np.concatenate([to_box, to_box + nb])

    structure = _Structure()
    x = start = eps * u
    tube = TUBE * eps * np.abs(u).max()
    s = section_of(x)
    r_field = residual(s)
    norm = r_field.l2_norm()
    history, lam, diagnostic = [norm], 0.0, ""

    # the loop only iterates; a diagnostic records that it stopped on the stall
    # window or on damping exhaustion
    for _ in range(max_iters):
        if norm < opts.tol:
            break
        if len(history) > STALL_WINDOW and norm > 100.0 * opts.tol:
            prev = history[-1 - STALL_WINDOW]
            if prev > 0 and (prev - norm) / prev < STALL_REL:
                diagnostic = (f"stalled: residual norm fell by {(prev - norm) / prev:.3e} "
                              f"(relative) over the last {STALL_WINDOW} iterations, "
                              f"below STALL_REL = {STALL_REL:g}")
                break

        # the closure is a function of the iterate's key set alone
        own = np.unique(np.fromiter([*s.f.packed, *s.g.packed], np.int64))
        cols, to_box = structure.get("closure", (own,), lambda: sector_columns(own))
        rows, ri, ci, v = _jacobian(cols, s, structure)
        # _jacobian's columns are the real slots of cols; map them to the box's
        ci = to_box[ci]
        sw = np.sqrt(rows.weight)
        v = v * sw[ri]
        # restrict to the constraint's complement, AP (I - u (w u)^T / uu):
        # only the columns of u's support change, on one dense slab
        on_u = on_supp[ci]
        slab = np.zeros((len(sw), len(supp)))
        slab[ri[on_u], np.searchsorted(supp, ci[on_u])] = v[on_u]
        slab -= np.outer(slab @ u[supp], (w * u / uu)[supp])
        si, sj = np.nonzero(slab)
        ri, ci, v = (np.concatenate([a[~on_u], b])
                     for a, b in ((ri, si), (ci, supp[sj]), (v, slab[si, sj])))
        # every attempt of an iteration has the same AP: one factorization
        # serves them all
        rvec = r_field.coords(rows) * sw
        step = _sector_steps(ri, ci, v, rvec, n)
        # an empty sector, no entry in a nonzero residual row, steps by 0 at
        # every lam: it takes no trial
        for _ in range(12 if rvec[ri].any() else 0):
            delta = project_complement(step(lam))
            x_new = start + project_complement(x + delta - start)
            # a trial outside the tube is rejected without a section or a residual
            if np.abs(x_new - start).max() <= tube:
                s_new = section_of(x_new)
                r_new = residual(s_new)
                norm_new = r_new.l2_norm()
                if norm_new < norm:
                    x, s, r_field, norm = x_new, s_new, r_new, norm_new
                    lam = lam / 10.0 if lam > 1e-12 else 0.0
                    break
            lam = max(lam * 10.0, 1e-8)
        else:
            diagnostic = ("no descent direction found (damping exhausted)"
                          if norm > 100.0 * opts.tol else
                          "stalled near the tolerance without a usable Gauss-Newton direction")
        history.append(norm)
        if diagnostic:
            break

    # norm is history[-1]
    status = ("converged" if norm < opts.tol else
              "obstructed" if diagnostic and norm > 100.0 * opts.tol else "max_iters")
    return SolverReport(status=status, iterations=len(history) - 1,
                        residual_norm_history=history,
                        truncation_loss=r_field.trunc_loss,
                        final_section=s, diagnostic=diagnostic)


def _solver_radii(direction: Section, radius, sp: Space):
    """``radius`` per axis, grown to the direction's support, in an exact box: the
    residual and Jacobian reach 2 r1 + 1 on x1 and 2 r on the other axes, all <= N."""
    try:
        radii = [operator.index(r) for r in
                 (radius if np.iterable(radius) else [radius] * BASE_TORUS_DIM)]
    except TypeError:
        raise PreconditionError(f"solver_radius must be integers, got {radius!r}") from None
    if len(radii) != BASE_TORUS_DIM:
        raise PreconditionError("solver_radius needs one entry per torus axis")
    if min(radii) < 0:
        raise PreconditionError(f"solver radii {radii} have a negative entry")
    support = np.fromiter([*direction.f.packed, *direction.g.packed], np.int64)
    radii = list(map(max, radii, abs(sp.digits(support)).max(axis=0, initial=0).tolist()))
    if 2 * radii[0] + 1 > sp.trunc_order or 2 * max(radii[1:]) > sp.trunc_order:
        raise PreconditionError(f"solver radii {radii} exceed the truncation order "
                                f"{sp.trunc_order} (an exact box needs 2 r1 + 1 <= N, 2 r <= N)")
    return radii


def _sector_keys(sp: Space, box, own, support):
    """The keys of ``box`` whose columns ``prolong`` assembles: a closure in
    key space, found before any assembly, that contains the residual's sector.

    A column q can hold entries only on the canonical keys among +-q + o and
    on q itself (its linear part), o an offset of ``_exponential_columns``:
    the keys ``own`` of the iterate shifted by +-e1, a set closed under mates.
    So a row r can meet only the box's columns among +-r + o, and r.  Every
    residual term lands on some a + o, a in ``own``, so the closure starts
    from the columns of the iterate's canonical keys and of ``support``, the
    direction's, which the constraint projection couples through A u, and
    alternates the two reaches until neither grows.  It is refused when its
    real rows x columns, or the key sums of a reach, pass MAX_SECTOR."""
    zero, e1 = sp.zero_key, sp.weights[0]
    offsets = np.unique(np.concatenate([own - zero - e1, own - zero + e1]))

    def reach(keys):   # either way: rows to columns, columns to rows
        both = np.concatenate([keys, sp.mate(keys)])
        return np.concatenate([(both[:, None] + offsets).ravel(), keys])

    def real(keys):
        return 2 * len(keys) - (keys[:1] == zero).sum()

    rows = cols = new_rows = np.zeros(0, np.int64)
    new_cols = np.union1d(own[own >= zero], support)
    while new_rows.size or new_cols.size:
        rows, cols = np.union1d(rows, new_rows), np.union1d(cols, new_cols)
        sums = 2 * (len(new_rows) + len(new_cols)) * len(offsets)
        if max(real(rows) * real(cols), sums) > MAX_SECTOR:
            raise PreconditionError(
                f"solver sector grows past MAX_SECTOR = {MAX_SECTOR:g}: {real(rows)}x"
                f"{real(cols)} real rows x columns so far, {sums} key sums to grow it; "
                "reduce solver_radius (per-axis radii are accepted)")
        reached_cols, reached_rows = reach(new_rows), reach(new_cols)
        new_cols = np.unique(reached_cols[in_sorted(reached_cols, box)
                                          & ~in_sorted(reached_cols, cols)])
        new_rows = np.unique(reached_rows[(reached_rows >= zero)
                                          & ~in_sorted(reached_rows, rows)])
    return cols


def _sector_steps(ri, ci, v, rvec, n: int):
    """The Gauss-Newton steps for AP d ~ -rvec as a function of the Levenberg
    parameter lam, AP the len(rvec) x n matrix with entries v at (ri, ci),
    from one thin SVD of the residual's sector: the rows and columns that a
    chain of entries joins to a row where rvec is nonzero.  Every other
    column meets only rows where rvec is 0, so its step is exactly 0.

    At lam = 0 the step is the minimum-norm least-squares solution with a
    singular value at or below eps_mach n s_max counted as zero, n the box's
    unknowns and s_max the sector's largest: a numerical rank threshold of
    the problem, which no count of assembled rows enters.  At lam > 0 it is
    argmin ||AP d + rvec||^2 + lam ||d||^2 = -V diag(s / (s^2 + lam)) U^T
    rvec, and no singular value is cut: near-null ones of order 1e-12 ||AP||
    still carry weight s / lam at lam = 1e-8."""
    in_row, in_col = rvec != 0, np.zeros(n, bool)
    while True:
        in_col[ci[in_row[ri]]] = True
        grown = np.zeros_like(in_row)
        grown[ri[in_col[ci]]] = True
        if np.array_equal(grown, in_row):
            break
        in_row = grown
    rows, cols = np.flatnonzero(in_row), np.flatnonzero(in_col)
    if not cols.size:
        return lambda lam: np.zeros(n)
    entries = in_col[ci]
    B = np.zeros((len(rows), len(cols)))
    B[np.searchsorted(rows, ri[entries]), np.searchsorted(cols, ci[entries])] = v[entries]
    U, sv, Vt = np.linalg.svd(B, full_matrices=False)
    c = U.T @ rvec[rows]
    cutoff = np.finfo(float).eps * n * sv[0]

    def step(lam):
        if lam > 0:
            gain = sv / (sv * sv + lam)
        else:
            gain = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
        delta = np.zeros(n)
        delta[cols] = -(Vt.T @ (gain * c))
        return delta
    return step


class _Structure:
    """What a solve's iterations share while their key sets repeat: per
    piece, the last build and the key arrays it came from.  ``get`` rebuilds
    a piece only when one of its key arrays differs, entry for entry, from
    the last build's, so each piece holds one key set at a time.  A piece is
    a function of its key arrays alone, so a reused one is the build they
    would give again.  ``prolong`` keeps three, each a build whose reuse
    measurably shortens a solve: "closure" (``_sector_keys``' search and the
    columns' layout, keyed on the iterate's keys), "columns"
    (``_column_modes``) and "entries" (``_entry_pattern``, with the rows'
    layout)."""

    def __init__(self):
        self._built = {}

    def get(self, piece, keys: tuple, build):
        """build(), or the last build of ``piece`` if it came from ``keys``."""
        last = self._built.get(piece)
        if last is None or not all(map(np.array_equal, keys, last[0])):
            last = self._built[piece] = keys, build()
        return last[1]


def _exponential_columns(jet, factors):
    """Q(E_p, h) for every frequency p of ``_column_modes``, in closed form
    from the first jet (h, h1, Xh, Yh) of h:

        E_p (i p1 Xh + Yh) - E_{p+e1} (xp h1 + yp h) - E_{p-e1} (xm h1 + ym h)

    with X E_p = xp E_{p+e1} + xm E_{p-e1}, Y E_p = yp E_{p+e1} + ym E_{p-e1},
    xp = (i/2)(p2 + i p3), xm = (i/2)(p2 - i p3), yp = (p2 + i p3)/2 and
    ym = (-p2 + i p3)/2; ``factors`` are (i p1, xp, xm, yp, ym) per p.
    Returns (offsets, values): E_p times the jet's part at offsets[j] lands
    on the key of p plus offsets[j], with coefficient values[p, j]; in an
    exact box (``_solver_radii``) all these modes lie in it."""
    h, h1, Xh, Yh = jet
    parts = (Xh, Yh, h1, h)
    offsets, at = _jet_offsets(parts, h.space)
    cx, cy, c1, c0 = (np.fromiter(f.packed.values(), complex, len(f.packed)) for f in parts)
    dense = np.zeros((6, len(offsets)), complex)
    dense.ravel()[at] = np.concatenate([cx, cy, c1, c0, c1, c0])
    xh, yh, h1p, hp, h1m, hm = dense
    ip1, xp, xm, yp, ym = factors
    values = ((ip1 * xh - (xp * h1p + xm * h1m)) - (yp * hp + ym * hm)) + yh
    return offsets, values


def _jet_offsets(parts, sp: Space):
    """The offsets of a jet's parts Xh, Yh, h1 E_e1, h E_e1, h1 E_-e1 and
    h E_-e1, from the keys of the fields (Xh, Yh, h1, h): their merged keys
    less the zero key, and each part's coefficients' flat positions in a 6 x
    offsets array, part by part.  Plain Python: a jet at a small box has a
    few dozen keys, too few to pay numpy's per-call overhead."""
    e1 = sp.weights[0]
    kx, ky, k1, k0 = (list(f.packed) for f in parts)
    shifted = (kx, ky, [k + e1 for k in k1], [k + e1 for k in k0],
               [k - e1 for k in k1], [k - e1 for k in k0])
    merged = sorted(set().union(*shifted))
    index = {k: i for i, k in enumerate(merged)}
    at = [part * len(merged) + index[k] for part, keys in enumerate(shifted) for k in keys]
    return np.array(merged, np.int64) - sp.zero_key, np.array(at, np.intp)


def _column_modes(cols: CoordLayout):
    """What ``_jacobian`` reads of its columns' keys alone: every mode p of
    the symmetric box, as the key of q or -q for a canonical q and the index
    of q, the factors (i p1, xp, xm, yp, ym) of each p
    (``_exponential_columns``), and per block the linear part's row keys,
    columns and triplet parts."""
    box, zero, nq = cols.keys, cols.space.zero_key, len(cols.keys)
    pkeys = np.concatenate([box, cols.mate[box != zero]])
    pq = np.concatenate([np.arange(nq), np.flatnonzero(box != zero)])
    modes = cols.space.digits(pkeys)
    p1, p2, p3 = (modes[:, a, None].astype(float) for a in range(3))
    factors = (1j * p1, 0.5j * (p2 + 1j * p3), 0.5j * (p2 - 1j * p3),
               0.5 * (p2 + 1j * p3), 0.5 * (-p2 + 1j * p3))
    linear = []
    for block in (0, 1):
        # dphi/dx5 or -dpsi/dx4 is i q5 or -i q4 on the row of q
        q_axis = modes[:nq, FIBER_AXES[1 - block]]
        has = np.flatnonzero(q_axis)
        part = np.zeros((3, len(has)), complex)
        part[2] = 1j * (1 - 2 * block) * q_axis[has]
        linear.append((box[has], block * nq + has, part))
    return pkeys, pq, factors, linear


def _entry_pattern(cols: CoordLayout, pkeys, pq, linear, offsets):
    """Where ``_jacobian``'s triplets go, from the columns and each block's
    jet offsets: per block the flat indices (p, offset) of its quadratic
    triplets, every one whose row key is canonical, and their c = i
    factors; then the layout (``real_coords``) of every row key a triplet
    lands on, each triplet's (row, slot pair) entry, the entry count, and
    per entry whether it is E_0's column, whether its row has an imaginary
    part, and its real row slot and its real column slot for c = 1."""
    box, zero, nq = cols.keys, cols.space.zero_key, len(cols.keys)
    flats, rotate, row_keys, column = [], [], [], []
    for block, offs in enumerate(offsets):
        flats.append(np.flatnonzero(pkeys[:, None] + offs >= zero))
        ip, io = np.divmod(flats[-1], len(offs))
        # c = 1 takes E_q + E_-q, c = i takes i E_q - i E_-q
        rotate.append(np.where(ip < nq, 1j, -1j))
        lin_rows, lin_cols, _ = linear[block]
        row_keys += [pkeys[ip] + offs[io], lin_rows]
        column += [block * nq + pq[ip], lin_cols]
    # one entry per row and slot pair; rows by rank, since a key times the
    # column count can overflow int64 at high truncation orders
    row_keys, rank = np.unique(np.concatenate(row_keys), return_inverse=True)
    uniq, inv = np.unique(rank * (2 * nq) + np.concatenate(column), return_inverse=True)
    rank, (block, qi) = uniq // (2 * nq), divmod(uniq % (2 * nq), nq)
    rows = real_coords(cols.space, row_keys)
    return (flats, rotate, rows, inv, len(uniq), box[qi] == zero, row_keys[rank] != zero,
            rows.slot[rank], block * len(cols.weight) + cols.slot[qi])


def _jacobian(cols: CoordLayout, s: Section, structure: _Structure | None = None):
    """Gauss-Newton Jacobian of the residual at s: the layout
    (``real_coords``) of its rows, every canonical key a triplet lands on in
    ascending order, and its nonzero real entries (row, column, value) on
    the real slots of the rows and of ``cols``.  A row may hold no entry:
    the rows depend on keys alone.  Columns are the real unknowns on the
    keys of the layout ``cols``, a whole solver box or any part of one, the
    f block then the g block:
    c E_k + conj(c) E_-k for c = 1, i on the slot pair of a key k != 0, and
    E_0 on the slot of k = 0.

    With Q the quadratic part, bilinear in (f, g), the column of (phi, 0)
    is Q(phi, g) + dphi/dx5 and that of (0, psi) is Q(f, psi) - dpsi/dx4 =
    -Q(psi, f) - dpsi/dx4.  ``_exponential_columns`` gives each Q(E_p, h)
    in closed form, as (row key, column, value) triplets on the canonical
    rows; duplicates are summed, each column's quadratic part loses its
    entries below COLUMN_PRUNE, and the linear part is added after that.
    Every triplet on a canonical row is summed, exact zeros too: a sum
    starts at +0.0 and so is never -0.0, and adding +-0.0 to it leaves
    every bit, so the triplets' places depend on keys alone.  The
    iterate's jets are the section's own (``Section.jets``).

    What depends on key arrays alone comes from ``structure``: the pieces
    "columns" (``_column_modes``: the columns' modes, factors and linear
    part, keyed on their keys) and "entries" (``_entry_pattern``: every
    triplet's place and the rows' layout, keyed on the columns' keys and
    both jets' offsets).  ``prolong`` passes its solve's, so an iteration
    whose key arrays repeat the last one's rebuilds neither; without one,
    both are built.  The jets' offsets and every value are computed afresh,
    in the same order, either way."""
    structure = _Structure() if structure is None else structure
    box = cols.keys
    pkeys, pq, factors, linear = structure.get("columns", (box,), lambda: _column_modes(cols))
    offsets, values = zip(*(_exponential_columns(jet, factors) for jet in reversed(s.jets)))
    flats, rotate, rows, inv, entries, e0, has_im, row_slot, col_slot = structure.get(
        "entries", (box, *offsets), lambda: _entry_pattern(cols, pkeys, pq, linear, offsets))
    # per triplet: the quadratic part of the c = 1 and c = i columns, and
    # the linear part of the c = 1 column
    parts = []
    for block, (vals, flat, c_i, (_, _, lin)) in enumerate(zip(values, flats, rotate, linear)):
        v = (1 - 2 * block) * vals.ravel()[flat]
        parts += [np.stack([v, c_i * v, np.zeros_like(v)]), lin]
    *quad, lin = (np.bincount(inv, x.real, entries) + 1j * np.bincount(inv, x.imag, entries)
                  for x in np.concatenate(parts, axis=1))
    for total, c in zip(quad, (1.0, 1j)):
        total[np.abs(total) < COLUMN_PRUNE] = 0.0
        total += c * lin
    quad = np.stack(quad)
    quad[1, e0] = 0.0   # E_0 has no c = i column
    # v[part, c, j]: the real (part 0) or imaginary (part 1) part of entry j
    # of the c = 1 (c = 0) or c = i (c = 1) column, on real row slot + part
    # and real column slot + c; the row of k = 0 has no imaginary part
    v = np.stack([quad.real, np.where(has_im, quad.imag, 0.0)])
    part, c, j = np.nonzero(v)
    return rows, row_slot[j] + part, col_slot[j] + c, v[part, c, j]

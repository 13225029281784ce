"""The explicit contact structure on M = T^5 x R^2.

The contact form is

    theta = sin x1 dx2 + cos x1 dx3 + y4 dx4 + y5 dx5

with kernel the contact distribution; its symplectic counterpart in the
derivation calculus is the closed, non-degenerate pair varpi = (d theta,
theta).  Derivations of the trivialized line bundle over M have 8 pointwise
components (7 tangent + 1 scalar), and varpi-flat is the 8x8 matrix sending
(xi, a) to (iota_xi d theta + a theta, -theta(xi)).

Hamiltonian derivations invert varpi-flat on first jets.  For this structure
the inverse has trigonometric-polynomial entries, so Hamiltonian derivations
of spectral sections are again exact spectral data (``hamiltonian_field``).
The flows are driven by that spectral data, built without truncation
(``contact_vector_field``) and compiled once per flow into a stacked
evaluator.  The pointwise linear-solve route (``flat_matrix`` and
``hamiltonian_derivation``) stays here as the independent cross-check that
``verify`` and the tests compare with the spectral route; the pointwise
Jacobi bracket built on it is ``verify.jacobi_bracket``.  None of these
pointwise oracles is exported from the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate
from .dercalc import AtiyahForm, Derivation, Form
from .fields import (Field, ShapeError, Space, VectorField, require_exact,
                     stacked_evaluator, wrap_torus)

M_TORUS_DIM = 5
M_FIBER_DIM = 2
M_POLY_DEG = 2     # fiber degree cap of contact_space: theta is linear in y
NONDEG_SAMPLES = 100   # seeded points where varpi-flat is checked non-degenerate
# coordinate axes on M: x1..x5 are 0..4, y4 is 5, y5 is 6


class NondegeneracyError(RuntimeError):
    """The symplectic pairing degenerated where it must not."""


@dataclass(frozen=True)
class PointDerivation:
    """A derivation of the line bundle at a single point."""

    xi: np.ndarray   # 7 tangent components
    a: float         # scalar part


@dataclass(frozen=True)
class ContactData:
    space: Space
    theta: Form          # degree-1, the contact form
    varpi: AtiyahForm    # degree-2 pair (d theta, theta)


def contact_space(trunc_order: int = 8) -> Space:
    return Space(M_TORUS_DIM, M_FIBER_DIM, trunc_order, M_POLY_DEG)


def standard_contact(trunc_order: int = 8, verify: bool = True) -> ContactData:
    """Build the contact structure and verify its defining invariants:
    iota_1 varpi = (theta, 0), d varpi = 0 coefficientwise, and pointwise
    non-degeneracy of varpi-flat at seeded random points."""
    sp = contact_space(trunc_order)
    theta = Form(sp, 1, {
        (1,): Field.sin(sp, 0),
        (2,): Field.cos(sp, 0),
        (3,): Field.fiber_coordinate(sp, 0),
        (4,): Field.fiber_coordinate(sp, 1),
    })
    varpi = AtiyahForm(theta.d(), theta)
    cd = ContactData(sp, theta, varpi)
    if verify:
        hooked = varpi.contract(Derivation.identity(sp))
        if (hooked.alpha - theta).max_abs() > 0 or hooked.beta.max_abs() > 0:
            raise NondegeneracyError("iota_1 varpi != (theta, 0)")
        if not varpi.d().is_zero():
            raise NondegeneracyError("varpi is not closed")
        rng = np.random.default_rng(0)
        for p in _sample_points(rng, sp, NONDEG_SAMPLES):
            det = float(np.linalg.det(flat_matrix(cd.theta, cd.varpi.alpha, p)))
            if abs(det) <= 1e-8:
                raise NondegeneracyError(f"varpi-flat degenerate at {p} (det={det:.3e})")
    return cd


def _sample_points(rng, space: Space, n: int):
    x = rng.uniform(0.0, 2.0 * np.pi, size=(n, space.torus_dim))
    y = rng.uniform(-1.0, 1.0, size=(n, space.fiber_dim))
    return np.hstack([x, y])


def flat_matrix(theta: Form, dtheta: Form, p) -> np.ndarray:
    """(dim+1)x(dim+1) matrix of the pairing-flat map at p for any contact
    pair: (xi, a) -> (iota_xi dtheta + a*theta, -theta(xi))."""
    dim = theta.space.dim
    D = np.zeros((dim, dim))
    for (i, j), f in dtheta.comps.items():
        v = f.evaluate(p)
        D[i, j] = v
        D[j, i] = -v
    th = np.zeros(dim)
    for (i,), f in theta.comps.items():
        th[i] = f.evaluate(p)
    M = np.zeros((dim + 1, dim + 1))
    M[:dim, :dim] = D.T
    M[:dim, dim] = th
    M[dim, :dim] = -th
    return M


def hamiltonian_derivation(cd: ContactData, lam: Field, p) -> PointDerivation:
    """Solve varpi-flat(Delta) = (d lam, lam) at the point p."""
    p = np.asarray(p, dtype=float)
    dim = cd.space.dim
    rhs = np.empty(dim + 1)
    for i in range(dim):
        rhs[i] = lam.partial(i).evaluate(p)
    rhs[dim] = lam.evaluate(p)
    M = flat_matrix(cd.theta, cd.varpi.alpha, p)
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NondegeneracyError(f"varpi-flat singular at {p}") from exc
    res = float(np.max(np.abs(M @ sol - rhs)))
    if res > 1e-9 * max(1.0, float(np.max(np.abs(rhs)))):
        raise NondegeneracyError(f"ill-conditioned solve at {p} (residual {res:.3e})")
    return PointDerivation(xi=sol[:dim], a=float(sol[dim]))


def hamiltonian_field(cd: ContactData, lam: Field) -> Derivation:
    """Exact spectral Hamiltonian derivation of lam.

    The component fields below are the unique solution of
    iota_xi d theta + a theta = d lam, -theta(xi) = lam; the pointwise
    linear-solve route must agree with them at every point (tested).
    Raises ShapeError if a product leaves cd's box (any component or the
    scalar carries truncation loss); ``contact_vector_field`` builds in a
    box large enough to avoid that."""
    if lam.space != cd.space:
        raise ShapeError("section space mismatch")
    return _hamiltonian(lam)


def _hamiltonian(lam: Field) -> Derivation:
    """The Hamiltonian derivation of lam in lam's box, refused if truncated."""
    sp = lam.space
    c, s = Field.cos(sp, 0), Field.sin(sp, 0)
    y4, y5 = Field.fiber_coordinate(sp, 0), Field.fiber_coordinate(sp, 1)
    l = [lam.partial(i) for i in range(sp.dim)]
    a = s * l[1] + c * l[2]
    radial = -lam + y4 * l[5] + y5 * l[6]
    xi = [
        c * l[1] - s * l[2],
        s * radial - c * l[0],
        c * radial + s * l[0],
        -l[5],
        -l[6],
        l[3] - a * y4,
        l[4] - a * y5,
    ]
    require_exact("Hamiltonian derivation", *xi, a)
    return Derivation(VectorField(xi), a)


def contact_vector_field(cd: ContactData, lam: Field) -> VectorField:
    """The contact vector field of lam (symbol of its Hamiltonian
    derivation), exact: built over a box one frequency and one fiber degree
    larger than lam's, which holds every product with cos x1, sin x1, y4
    and y5.  Raises ShapeError rather than return truncated components."""
    sp = lam.space
    if (sp.torus_dim, sp.fiber_dim) != (cd.space.torus_dim, cd.space.fiber_dim):
        raise ShapeError(f"Hamiltonian lives over T^{sp.torus_dim} x R^{sp.fiber_dim}, "
                         f"expected T^{cd.space.torus_dim} x R^{cd.space.fiber_dim}")
    roomy = Space(sp.torus_dim, sp.fiber_dim, sp.trunc_order + 1, sp.poly_deg + 1)
    return _hamiltonian(lam.promote(roomy)).symbol


def jacobi_bracket_field(cd: ContactData, lam: Field, mu: Field) -> Field:
    """{lam, mu} as an exact spectral field (Hamiltonian derivation applied
    to mu); the spectral route behind nested-bracket identity checks."""
    return hamiltonian_field(cd, lam).apply(mu)


def flow_contact(cd: ContactData, lam: Field, p, duration: float,
                 h: float = 1e-3) -> np.ndarray:
    """RK4 trajectory of the contact vector field of lam from p.

    The exact spectral field is compiled once into a stacked evaluator.
    The field of a Hamiltonian of x1 alone, a constant one included, moves
    neither x1 nor any other axis it reads, so its path is summed, not
    stepped (``fields.stacked_evaluator`` marks it constant).  Returns the
    sampled path with torus coordinates wrapped to [0, 2*pi); a stack of
    start points (k, dim) gives a path (n_steps+1, k, dim)."""
    rhs = stacked_evaluator(contact_vector_field(cd, lam).components)
    path = integrate.rk4_flow(rhs, np.asarray(p, dtype=float), duration, h)
    return wrap_torus(path, cd.space.torus_dim)


def flow_with_frame(cd: ContactData, lam: Field, p, frame, duration: float,
                    h: float = 1e-3):
    """Transport a point and a set of tangent vectors along the contact flow.

    Integrates the variational equation dot(v) = DXi(x) v next to the base
    trajectory, with the Jacobian DXi of the contact vector field assembled
    exactly from its spectral components; the field and its Jacobian are
    compiled into one stacked evaluator.  Returns (end point wrapped,
    transported frame columns).  A point that is not (dim,), or a frame that
    is not (dim, k), k tangent vectors as columns, is refused before anything
    is built or integrated."""
    dim = cd.space.dim
    p = np.asarray(p, dtype=float)
    if p.shape != (dim,):
        raise ShapeError(f"point of shape {p.shape}; a point is ({dim},)")
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[0] != dim:
        raise ShapeError(f"frame of shape {frame.shape}; k tangent vectors "
                         f"as columns are ({dim}, k)")
    vf = contact_vector_field(cd, lam)
    field_and_jacobian = stacked_evaluator(
        list(vf.components) + [comp.partial(j) for comp in vf.components
                               for j in range(dim)])
    n_vec = frame.shape[1]
    width = dim + dim * n_vec

    def rhs(state):   # a state or a stack of them, as rk4_flow requires
        if state.shape[-1:] != (width,):
            raise ShapeError(f"state of shape {state.shape} for width {width}")
        stack = state.shape[:-1]
        vals = field_and_jacobian(state[..., :dim])
        J = vals[..., dim:].reshape(*stack, dim, dim)
        V = state[..., dim:].reshape(*stack, dim, n_vec)
        return np.concatenate([vals[..., :dim], (J @ V).reshape(*stack, dim * n_vec)],
                              axis=-1)

    y0 = np.concatenate([p, frame.ravel()])
    path = integrate.rk4_flow(rhs, y0, duration, h)
    end = path[-1]
    return (wrap_torus(end[:dim], cd.space.torus_dim),
            end[dim:].reshape(dim, n_vec))

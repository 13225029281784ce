"""Randomized identity suites: Cartan calculus, Jacobi bracket, contact
structure, and reduction checks, reported in a uniform machine-readable
shape.

Random inputs are trigonometric polynomials with unit frequency radius so
that, at the default truncation, every composite expression stays inside
the truncation box: each identity is then exact up to floating-point
roundoff and the suites assert defects orders of magnitude below the
stated tolerances.  Evidence that lost mass to truncation (a smaller box)
is refused with ShapeError instead of being reported as a failed identity.
"""

from __future__ import annotations

import numpy as np

from . import contact as ct
from .dercalc import (AtiyahForm, Derivation, Form, is_basic,
                      pullback_reduction)
from .fields import Field, ShapeError, Space, VectorField

IDENTITY_TOL = 1e-9
POINT_TOL = 1e-6
CARTAN_TORUS_DIM = 3      # the Cartan suite draws its random forms on T^3


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def rand_field(rng, space: Space, n_modes: int = 2, max_freq: int = 1,
               fiber_deg: int = 0) -> Field:
    mf = min(max_freq, space.trunc_order)
    modes = {}
    for _ in range(n_modes):
        k = tuple(int(a) for a in rng.integers(-mf, mf + 1, size=space.torus_dim))
        m = (0,) * space.fiber_dim
        if fiber_deg and space.fiber_dim:
            deg = int(rng.integers(0, fiber_deg + 1))
            if deg:
                picks = rng.integers(0, space.fiber_dim, size=deg)
                m = tuple(int(np.sum(picks == i)) for i in range(space.fiber_dim))
        c = complex(rng.normal(), rng.normal()) * 0.5
        if not any(k):
            c = complex(c.real, 0.0)
        modes[(k, m)] = modes.get((k, m), 0.0) + c
    return Field.from_modes(space, modes)


def rand_vector_field(rng, space: Space, **kw) -> VectorField:
    return VectorField([rand_field(rng, space, **kw) for _ in range(space.dim)])


def rand_derivation(rng, space: Space, **kw) -> Derivation:
    return Derivation(rand_vector_field(rng, space, **kw),
                      rand_field(rng, space, **kw))


def rand_form(rng, space: Space, degree: int, **kw) -> Form:
    if degree == 0:
        return Form.scalar(rand_field(rng, space, **kw))
    comps = {}
    for _ in range(2):
        idx = tuple(sorted(rng.choice(space.dim, size=degree, replace=False)))
        f = rand_field(rng, space, **kw)
        comps[idx] = comps[idx] + f if idx in comps else f
    return Form(space, degree, comps)


def rand_atiyah(rng, space: Space, degree: int, **kw) -> AtiyahForm:
    alpha = rand_form(rng, space, degree, **kw)
    beta = rand_form(rng, space, degree - 1, **kw) if degree > 0 else None
    return AtiyahForm(alpha, beta)


# ---------------------------------------------------------------------------
# intrinsic (defining-formula) routes used to cross-validate the splitting
# ---------------------------------------------------------------------------

def d_via_definition(eta: AtiyahForm, boxes) -> Field:
    """Koszul formula for the differential, evaluated on degree+1
    derivations: the independent route against the (d alpha, alpha - d beta)
    splitting."""
    boxes = list(boxes)
    k = eta.degree
    assert len(boxes) == k + 1
    total = Field.zero(eta.space)
    for i, b in enumerate(boxes):
        rest = boxes[:i] + boxes[i + 1:]
        total = total + b.apply(eta.evaluate_on(rest)) * ((-1) ** i)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            rest = [boxes[i].commutator(boxes[j])] + \
                [boxes[m] for m in range(k + 1) if m not in (i, j)]
            total = total + eta.evaluate_on(rest) * ((-1) ** (i + j))
    return total


def lie_via_definition(eta: AtiyahForm, box: Derivation, deltas) -> Field:
    deltas = list(deltas)
    assert len(deltas) == eta.degree
    total = box.apply(eta.evaluate_on(deltas))
    for i in range(len(deltas)):
        shifted = deltas[:i] + [box.commutator(deltas[i])] + deltas[i + 1:]
        total = total - eta.evaluate_on(shifted)
    return total


def wedge_1forms(a: Form, b: Form) -> Form:
    """Wedge of two 1-forms (all this module needs)."""
    comps = {}
    for (i,), fa in a.comps.items():
        for (j,), fb in b.comps.items():
            if i == j:
                continue
            idx, sign = ((i, j), 1) if i < j else ((j, i), -1)
            term = (fa * fb) * sign
            comps[idx] = comps[idx] + term if idx in comps else term
    return Form(a.space, 2, comps)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _accumulator(spec):
    """The one defect path of the suites: ``bump(name, defect, *evidence)``
    keeps each check's running maximum in ``defects``.  ``defect`` is a float
    computed from spectral ``evidence``, or a spectral object (its max_abs).
    Lossy evidence is refused: its defect would measure the box."""
    defects = {name: 0.0 for name, _, _ in spec}

    def bump(name, defect, *evidence):
        if not isinstance(defect, float):
            evidence += (defect,)
            defect = defect.max_abs()
        loss = sum(e.trunc_loss for e in evidence)
        if loss:
            raise ShapeError(f"check {name}: evidence lost mass {loss:.3e} "
                             "to truncation")
        defects[name] = max(defects[name], defect)

    return defects, bump


def _entry(name, defect, n, seed, tol):
    return {"check": name, "max_defect": float(defect), "samples": int(n),
            "seed": int(seed), "pass": bool(defect <= tol)}


def _finish(suite, spec, defects, n, seed):
    """The suite report; ``spec`` lists (check, samples, tolerance)."""
    checks = [_entry(name, defects[name], k, seed, tol) for name, k, tol in spec]
    report = {"suite": suite, "seed": int(seed), "samples": int(n),
              "checks": checks, "pass": all(c["pass"] for c in checks)}
    if n == 0:
        report["warning"] = "no instances requested: vacuous pass"
    return report


def cartan_suite(seed: int = 0, n: int = 50, trunc_order: int = 8) -> dict:
    """All seven graded-commutator identities of the calculus plus the
    contracting homotopy, on random forms of each degree, plus the
    cross-validation of the differential and the Lie derivative against
    their defining formulas, and exactness of the commutator Jacobi
    identity."""
    rng = np.random.default_rng(seed)
    space = Space(CARTAN_TORUS_DIM, 0, trunc_order, 0)
    one = Derivation.identity(space)
    spec = [(name, n, IDENTITY_TOL) for name in (
        "cartan_magic", "iota_lie", "lie_lie", "d_squared", "d_lie",
        "iota_iota", "homotopy", "d_defining_formula",
        "lie_defining_formula", "commutator_jacobi")]
    defects, bump = _accumulator(spec)

    # the defining-formula cross-checks cost combinatorially more than the
    # graded-commutator identities, so they run on a subsample of instances
    cross_stride = max(1, n // 10)

    for it in range(n):
        cross = it % cross_stride == 0
        for deg in (0, 1, 2, 3):
            eta = rand_atiyah(rng, space, deg)
            box = rand_derivation(rng, space)
            delta = rand_derivation(rng, space)

            # [d, iota_box] = Lie_box, probed against the defining formula
            # (the Cartan composite is how lie() is implemented, so the
            # meaningful comparison is with the intrinsic route)
            magic = eta.d().contract(box) + eta.contract(box).d()
            probes = [rand_derivation(rng, space, n_modes=1) for _ in range(deg)]
            rhs = lie_via_definition(eta, box, probes)
            bump("cartan_magic", magic.evaluate_on(probes) - rhs)
            bump("lie_defining_formula", eta.lie(box).evaluate_on(probes) - rhs)

            # [iota_box, Lie_delta] = iota_[box, delta]
            if deg > 0:
                got = eta.lie(delta).contract(box) - eta.contract(box).lie(delta)
                want = eta.contract(box.commutator(delta))
                bump("iota_lie", got - want)

            # [Lie, Lie] = Lie of the commutator
            # (note eta.lie(delta).lie(box) applies delta first, then box)
            got = eta.lie(delta).lie(box) - eta.lie(box).lie(delta)
            want = eta.lie(box.commutator(delta))
            bump("lie_lie", got - want)

            # d^2 = 0
            bump("d_squared", eta.d().d())

            # [d, Lie_box] = 0
            bump("d_lie", eta.lie(box).d() - eta.d().lie(box))

            # iota^2 anticommutes to zero
            if deg >= 2:
                bump("iota_iota",
                     eta.contract(delta).contract(box) + eta.contract(box).contract(delta))

            # [d, iota_1] = id
            bump("homotopy", eta.d().contract(one) + eta.contract(one).d() - eta)

            # splitting differential against the Koszul formula
            if cross:
                boxes = [rand_derivation(rng, space, n_modes=1) for _ in range(deg + 1)]
                split = eta.d().evaluate_on(boxes)
                bump("d_defining_formula", split - d_via_definition(eta, boxes))

            # commutator Jacobi identity, exact on coefficients
            gamma = rand_derivation(rng, space)
            terms = [(box.commutator(delta)).commutator(gamma),
                     (delta.commutator(gamma)).commutator(box),
                     (gamma.commutator(box)).commutator(delta)]
            bump("commutator_jacobi", terms[0].symbol + terms[1].symbol + terms[2].symbol)
            bump("commutator_jacobi", terms[0].scalar + terms[1].scalar + terms[2].scalar)

    return _finish("cartan", spec, defects, n, seed)


def jacobi_suite(seed: int = 0, n: int = 30, trunc_order: int = 8) -> dict:
    """Bracket laws of the non-degenerate Jacobi structure: antisymmetry,
    the Jacobi identity (spectral nested brackets, sampled pointwise), the
    bi-derivation law, and agreement of the pointwise-solve bracket with the
    spectral one."""
    rng = np.random.default_rng(seed)
    cd = ct.standard_contact(trunc_order=trunc_order, verify=False)
    sp = cd.space
    spec = [("bracket_antisymmetry", n, 1e-9),
            ("bracket_jacobi_identity", n, POINT_TOL),
            ("bracket_biderivation", n, 1e-8),
            ("bracket_pointwise_vs_spectral", n, 1e-9)]
    defects, bump = _accumulator(spec)
    for _ in range(n):
        lam = rand_field(rng, sp, n_modes=2)
        mu = rand_field(rng, sp, n_modes=2)
        nu = rand_field(rng, sp, n_modes=2)
        p = ct._sample_points(rng, sp, 1)[0]

        bump("bracket_antisymmetry", ct.jacobi_bracket_field(cd, lam, lam))

        cyc = (ct.jacobi_bracket_field(cd, lam, ct.jacobi_bracket_field(cd, mu, nu))
               + ct.jacobi_bracket_field(cd, mu, ct.jacobi_bracket_field(cd, nu, lam))
               + ct.jacobi_bracket_field(cd, nu, ct.jacobi_bracket_field(cd, lam, mu)))
        bump("bracket_jacobi_identity", abs(cyc.evaluate(p)), cyc)

        ham = ct.hamiltonian_field(cd, lam)
        sym = ham.symbol
        lhs = ham.apply(mu * nu)
        rhs = sym.apply(mu) * nu + mu * sym.apply(nu) + ham.scalar * mu * nu
        bump("bracket_biderivation", abs((lhs - rhs).evaluate(p)), lhs, rhs)

        bracket = ct.jacobi_bracket_field(cd, lam, mu)
        bump("bracket_pointwise_vs_spectral",
             abs(ct.jacobi_bracket(cd, lam, mu, p) - bracket.evaluate(p)), bracket)

    return _finish("jacobi", spec, defects, n, seed)


def contact_suite(seed: int = 0, n: int = 30, trunc_order: int = 8) -> dict:
    """Structure invariants of the explicit contact data: closedness of
    varpi, pointwise non-degeneracy, the Reeb normalization, agreement of
    the spectral Hamiltonian derivation with the pointwise solve, tangency
    of contact vector fields to the contact distribution, and the Lie
    algebra morphism law."""
    rng = np.random.default_rng(seed)
    cd = ct.standard_contact(trunc_order=trunc_order, verify=False)
    sp = cd.space
    # non-degeneracy is reported as 1 / min |det varpi-flat|
    spec = [("varpi_closed", 1, 0.0),
            ("varpi_nondegenerate", ct.NONDEG_SAMPLES, 1e8),
            ("reeb_normalization", 1, 1e-12),
            ("hamiltonian_flat_relation", n, 1e-10),
            ("hamiltonian_pointwise_vs_spectral", n, 1e-9),
            ("contact_field_tangency", n, POINT_TOL),
            ("lie_algebra_morphism", n, POINT_TOL)]
    defects, bump = _accumulator(spec)

    bump("varpi_closed", cd.varpi.d())

    for p in ct._sample_points(rng, sp, ct.NONDEG_SAMPLES):
        det = abs(float(np.linalg.det(ct.omega_flat_matrix(cd, p))))
        bump("varpi_nondegenerate", 1.0 / det, cd.varpi)

    # Reeb: the Hamiltonian derivation of the unit section is minus the
    # rotating frame field, with zero scalar part.
    one = Field.constant(sp, 1.0)
    ham1 = ct.hamiltonian_field(cd, one)
    y_field = VectorField([Field.zero(sp), Field.sin(sp, 0), Field.cos(sp, 0)]
                          + [Field.zero(sp)] * 4)
    bump("reeb_normalization", ham1.symbol + y_field)
    bump("reeb_normalization", ham1.scalar)

    for _ in range(n):
        lam = rand_field(rng, sp, n_modes=2)
        mu = rand_field(rng, sp, n_modes=2)
        p = ct._sample_points(rng, sp, 1)[0]

        # every Hamiltonian of the instance first: a box too small for them
        # is reported as their truncation, before any check reads them
        ham = ct.hamiltonian_field(cd, lam)
        br = ct.jacobi_bracket_field(cd, lam, mu)
        lhs_vf = ct.hamiltonian_field(cd, br).symbol
        rhs_vf = ham.symbol.bracket(ct.hamiltonian_field(cd, mu).symbol)

        # spectral solution satisfies the defining linear relation exactly
        lhs = cd.varpi.contract(ham)
        rhs = AtiyahForm.of_section(lam).d()
        bump("hamiltonian_flat_relation", lhs - rhs)

        pd = ct.hamiltonian_derivation(cd, lam, p)
        bump("hamiltonian_pointwise_vs_spectral",
             float(np.max(np.abs(pd.xi - ham.symbol.evaluate_at(p)))), ham.symbol)
        bump("hamiltonian_pointwise_vs_spectral",
             abs(pd.a - ham.scalar.evaluate(p)), ham.scalar)

        # contact vector fields preserve the distribution: (L_X theta) ^ theta = 0
        x_vf = ham.symbol
        lie_theta = Form.scalar(cd.theta.contract(x_vf).component(())).d() \
            + cd.theta.d().contract(x_vf)
        bump("contact_field_tangency", wedge_1forms(lie_theta, cd.theta))

        # sigma  is a Lie algebra morphism onto contact vector fields
        bump("lie_algebra_morphism",
             float(np.max(np.abs(lhs_vf.evaluate_at(p) - rhs_vf.evaluate_at(p)))),
             lhs_vf, rhs_vf)

    return _finish("contact", spec, defects, n, seed)


def reduction_suite(seed: int = 0, n: int = 50, trunc_order: int = 8) -> dict:
    """Contact reduction of the zero section S = T^5 onto B = T^3: the
    presymplectic pair on S is the pullback of the symplectic pair on B, it
    is basic for the projection, and the reduced pair is non-degenerate at
    max(n, 1) sampled points of B."""
    sp_s, sp_b = Space(5, 0, trunc_order, 0), Space(3, 0, trunc_order, 0)
    theta_s, theta_b = (Form(sp, 1, {(1,): Field.sin(sp, 0), (2,): Field.cos(sp, 0)})
                        for sp in (sp_s, sp_b))
    varpi_s = AtiyahForm(theta_s.d(), theta_s)
    varpi_b = AtiyahForm(theta_b.d(), theta_b)
    samples = max(n, 1)
    # non-degeneracy is reported as 1 / min |det varpi_B-flat|
    spec = [("reduction_pullback_equality", 1, 0.0),
            ("reduction_basic_form", 1, 1e-10),
            ("reduced_nondegeneracy", samples, 2.0)]
    defects, bump = _accumulator(spec)

    bump("reduction_pullback_equality", varpi_s - pullback_reduction(varpi_b, sp_s))
    bump("reduction_basic_form", is_basic(varpi_s, fiber_axes=(3, 4))[1], varpi_s)

    rng = np.random.default_rng(seed)
    for p in ct._sample_points(rng, sp_b, samples):
        det = abs(float(np.linalg.det(ct.flat_matrix(theta_b, varpi_b.alpha, p))))
        bump("reduced_nondegeneracy", 1.0 / det, varpi_b)

    return _finish("reduction", spec, defects, n, seed)


SUITES = {
    "cartan": cartan_suite,
    "jacobi": jacobi_suite,
    "contact": contact_suite,
    "reduction": reduction_suite,
}


def run_suites(which: str, seed: int = 0, n: int = 50, trunc_order: int = 8) -> dict:
    names = list(SUITES) if which == "all" else [which]
    reports = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite '{name}'")
        reports.append(SUITES[name](seed=seed, n=n, trunc_order=trunc_order))
    return {"suites": reports, "seed": seed, "samples": n,
            "pass": all(r["pass"] for r in reports)}

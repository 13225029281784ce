"""Contact structure: flat-map examples, Hamiltonian derivations, bracket
laws, flows, reduction, and the sample-based coisotropy-preservation probe."""

import math

import numpy as np
import pytest

import coisolab.contact as ct
from coisolab import integrate
from coisolab.coisotropy import family_section, residual_from_jet
from coisolab.dercalc import AtiyahForm, Derivation
from coisolab.fields import Field, ShapeError, VectorField, stacked_evaluator
from coisolab.verify import jacobi_bracket, rand_field, reduction_suite

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def cd():
    return ct.standard_contact(trunc_order=8)


def reeb_field(sp):
    comps = [Field.zero(sp)] * sp.dim
    comps[1], comps[2] = Field.sin(sp, 0), Field.cos(sp, 0)
    return VectorField(comps)


def varpi_flat(cd, p):
    """The 8x8 matrix of varpi-flat at p, acting on stacked (xi, a)."""
    return ct.flat_matrix(cd.theta, cd.varpi.alpha, p)


def rand_m_points(rng, sp, n):
    return np.hstack([rng.uniform(0, TWO_PI, (n, sp.torus_dim)),
                      rng.uniform(-1, 1, (n, sp.fiber_dim))])


# -- construction and flat matrix ------------------------------------------------

def test_standard_contact_invariants(cd):
    hooked = cd.varpi.contract(Derivation.identity(cd.space))
    assert (hooked.alpha - cd.theta).max_abs() == 0.0
    assert cd.varpi.d().is_zero()


def test_flat_matrix_identity_column(cd):
    rng = np.random.default_rng(1)
    for p in rand_m_points(rng, cd.space, 5):
        M = varpi_flat(cd, p)
        out = M @ np.concatenate([np.zeros(7), [1.0]])
        theta_p = np.array([cd.theta.component((i,)).evaluate(p) if (i,) in cd.theta.comps
                            else 0.0 for i in range(7)])
        assert np.allclose(out[:7], theta_p, atol=1e-13)
        assert out[7] == 0.0


def test_flat_matrix_reeb_column(cd):
    rng = np.random.default_rng(2)
    Y = reeb_field(cd.space)
    for p in rand_m_points(rng, cd.space, 5):
        M = varpi_flat(cd, p)
        out = M @ np.concatenate([Y.evaluate_at(p), [0.0]])
        assert np.max(np.abs(out[:7])) < 1e-13
        assert out[7] == pytest.approx(-1.0, abs=1e-13)


def test_flat_matrix_pairing_antisymmetry(cd):
    rng = np.random.default_rng(3)
    for p in rand_m_points(rng, cd.space, 5):
        M = varpi_flat(cd, p)
        v = rng.normal(size=8)
        # <M v, v> in the (covector.xi + scalar*a) pairing
        assert abs(np.dot((M @ v)[:7], v[:7]) + (M @ v)[7] * v[7]) < 1e-11


def test_flat_matrix_nondegenerate_everywhere_sampled(cd):
    rng = np.random.default_rng(4)
    dets = [abs(np.linalg.det(varpi_flat(cd, p)))
            for p in rand_m_points(rng, cd.space, 100)]
    assert min(dets) > 1e-8


# -- hamiltonian derivations ---------------------------------------------------------

def test_hamiltonian_of_unit_is_minus_reeb(cd):
    rng = np.random.default_rng(5)
    one = Field.constant(cd.space, 1.0)
    Y = reeb_field(cd.space)
    for p in rand_m_points(rng, cd.space, 10):
        delta = ct.hamiltonian_derivation(cd, one, p)
        assert np.allclose(delta.xi, -Y.evaluate_at(p), atol=1e-12)
        assert delta.a == pytest.approx(0.0, abs=1e-12)


def test_hamiltonian_of_zero(cd):
    delta = ct.hamiltonian_derivation(cd, Field.zero(cd.space), np.zeros(7))
    assert np.max(np.abs(delta.xi)) == 0.0 and delta.a == 0.0


def test_hamiltonian_field_solves_flat_relation(cd):
    rng = np.random.default_rng(6)
    for _ in range(5):
        lam = rand_field(rng, cd.space, n_modes=2)
        ham = ct.hamiltonian_field(cd, lam)
        lhs = cd.varpi.contract(ham)
        rhs = AtiyahForm.of_section(lam).d()
        assert (lhs - rhs).max_abs() < 1e-13


def test_hamiltonian_pointwise_vs_spectral(cd):
    rng = np.random.default_rng(7)
    lam = rand_field(rng, cd.space, n_modes=3)
    ham = ct.hamiltonian_field(cd, lam)
    for p in rand_m_points(rng, cd.space, 10):
        pd = ct.hamiltonian_derivation(cd, lam, p)
        assert np.allclose(pd.xi, ham.symbol.evaluate_at(p), atol=1e-11)
        assert pd.a == pytest.approx(ham.scalar.evaluate(p), abs=1e-11)


def test_contact_field_preserves_distribution_fd_oracle(cd):
    """(L_X theta ^ theta)(p) = 0 for X the contact field of a section,
    with the Lie derivative estimated from the flow itself (central
    differences in time, transported bases by spatial differences)."""
    rng = np.random.default_rng(8)
    lam = rand_field(rng, cd.space, n_modes=2)
    tau, dx, h = 5e-4, 1e-5, 2.5e-4

    def theta_at(p):
        return np.array([cd.theta.component((i,)).evaluate(p) if (i,) in cd.theta.comps
                         else 0.0 for i in range(7)])

    def pullback_theta(p, t):
        # row i: theta(psi_t(p)) composed with D(psi_t) e_i
        rows = np.empty(7)
        end = ct.flow_contact(cd, lam, p, t, h=h)[-1]
        th_end = theta_at(end)
        for i in range(7):
            e = np.zeros(7)
            e[i] = dx
            plus = ct.flow_contact(cd, lam, p + e, t, h=h)[-1]
            minus = ct.flow_contact(cd, lam, p - e, t, h=h)[-1]
            dpsi_col = (plus - minus) / (2 * dx)
            rows[i] = float(np.dot(th_end, dpsi_col))
        return rows

    for p in rand_m_points(rng, cd.space, 3):
        lie = (pullback_theta(p, tau) - pullback_theta(p, -tau)) / (2 * tau)
        th = theta_at(p)
        wedge = np.abs(np.outer(lie, th) - np.outer(th, lie))
        assert wedge.max() < 1e-6


# -- jacobi bracket ---------------------------------------------------------------------

def test_bracket_of_units_vanishes(cd):
    one = Field.constant(cd.space, 1.0)
    rng = np.random.default_rng(9)
    for p in rand_m_points(rng, cd.space, 5):
        assert jacobi_bracket(cd, one, one, p) == pytest.approx(0.0, abs=1e-13)


def test_bracket_antisymmetry_pointwise(cd):
    rng = np.random.default_rng(10)
    lam = rand_field(rng, cd.space, n_modes=3)
    for p in rand_m_points(rng, cd.space, 5):
        assert jacobi_bracket(cd, lam, lam, p) == pytest.approx(0.0, abs=1e-11)


def test_bracket_jacobi_identity_spectral(cd):
    rng = np.random.default_rng(11)
    br = ct.jacobi_bracket_field
    for _ in range(5):
        lam, mu, nu = (rand_field(rng, cd.space, n_modes=2) for _ in range(3))
        cyc = (br(cd, lam, br(cd, mu, nu)) + br(cd, mu, br(cd, nu, lam))
               + br(cd, nu, br(cd, lam, mu)))
        for p in rand_m_points(rng, cd.space, 3):
            assert abs(cyc.evaluate(p)) < 1e-6


def test_bracket_biderivation(cd):
    rng = np.random.default_rng(12)
    lam, mu, nu = (rand_field(rng, cd.space, n_modes=2) for _ in range(3))
    ham = ct.hamiltonian_field(cd, lam)
    lhs = ham.apply(mu * nu)
    rhs = ham.symbol.apply(mu) * nu + mu * ham.symbol.apply(nu) + ham.scalar * mu * nu
    for p in rand_m_points(rng, cd.space, 5):
        assert lhs.evaluate(p) == pytest.approx(rhs.evaluate(p), abs=1e-8)


def test_lie_morphism(cd):
    rng = np.random.default_rng(13)
    for _ in range(3):
        lam, mu = (rand_field(rng, cd.space, n_modes=2) for _ in range(2))
        lhs = ct.hamiltonian_field(cd, ct.jacobi_bracket_field(cd, lam, mu)).symbol
        rhs = ct.hamiltonian_field(cd, lam).symbol.bracket(
            ct.hamiltonian_field(cd, mu).symbol)
        for p in rand_m_points(rng, cd.space, 3):
            assert np.max(np.abs(lhs.evaluate_at(p) - rhs.evaluate_at(p))) < 1e-6


# -- flows ------------------------------------------------------------------------------

def test_flow_of_zero_hamiltonian(cd):
    p = np.array([0.3, 1.0, 2.0, 3.0, 4.0, 0.2, -0.1])
    path = ct.flow_contact(cd, Field.zero(cd.space), p, 0.05, h=1e-2)
    assert np.allclose(path, path[0], atol=1e-14)


def test_flow_of_unit_closed_form(cd):
    rng = np.random.default_rng(14)
    one = Field.constant(cd.space, 1.0)
    for p in rand_m_points(rng, cd.space, 3):
        T = 0.8
        end = ct.flow_contact(cd, one, p, T, h=1e-3)[-1]
        want = p.copy()
        want[1] -= T * math.sin(p[0])
        want[2] -= T * math.cos(p[0])
        want[1] %= TWO_PI
        want[2] %= TWO_PI
        assert np.max(np.abs(end - want)) < 1e-8


def test_flow_time_reversibility(cd):
    rng = np.random.default_rng(15)
    lam = rand_field(rng, cd.space, n_modes=2)
    p = rand_m_points(rng, cd.space, 1)[0]
    T = 0.4
    fwd = ct.flow_contact(cd, lam, p, T, h=1e-3)[-1]
    back = ct.flow_contact(cd, lam, fwd, -T, h=1e-3)[-1]
    assert np.max(np.abs(back - p)) < 1e-7


def test_flow_step_rejection():
    from coisolab.integrate import StepSizeError
    cd_small = ct.standard_contact(verify=False)
    lam = Field.sin(cd_small.space, 1) * 50.0   # strongly curved flow
    start = np.array([0.3, 0.7, 0.1, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StepSizeError):
        ct.flow_contact(cd_small, lam, start, 1.0, h=0.5)


def test_flow_matches_pointwise_solve_path(cd):
    rng = np.random.default_rng(17)
    lam = rand_field(rng, cd.space, n_modes=3)
    p = rand_m_points(rng, cd.space, 1)[0]
    T, h = 0.05, 1e-2
    got = ct.flow_contact(cd, lam, p, T, h=h)

    def pointwise(y):   # the oracle, applied row by row to a stack of states
        rows = [ct.hamiltonian_derivation(cd, lam, q).xi for q in y.reshape(-1, y.shape[-1])]
        return np.reshape(rows, y.shape)

    ref = integrate.rk4_flow(pointwise, p, T, h)
    ref[:, :5] %= TWO_PI
    assert np.max(np.abs(got - ref)) < 1e-12


def test_flow_of_many_starts_is_their_single_flows(cd):
    # a (k, dim) start integrates k points as one state, each bit for bit
    rng = np.random.default_rng(19)
    lam = rand_field(rng, cd.space, n_modes=3)
    starts = rand_m_points(rng, cd.space, 4)
    paths = ct.flow_contact(cd, lam, starts, 0.05, h=1e-2)
    assert paths.shape == (6, 4, cd.space.dim)
    for row, p in enumerate(starts):
        assert paths[:, row].tobytes() == ct.flow_contact(cd, lam, p, 0.05, h=1e-2).tobytes()


def test_frame_transport_rhs_takes_stacks(cd, monkeypatch):
    # the variational right-hand side maps a stack of states row by row, with
    # the bits of each state's own call, and refuses a wrong last axis
    rng = np.random.default_rng(20)
    lam = rand_field(rng, cd.space, n_modes=2)
    dim, n_vec = cd.space.dim, 3
    seen = []

    def first_step_only(rhs, y0, duration, h):
        seen.append(rhs)
        return y0[None]

    monkeypatch.setattr(integrate, "rk4_flow", first_step_only)
    ct.flow_with_frame(cd, lam, np.zeros(dim), np.zeros((dim, n_vec)), 0.1)
    rhs, = seen
    width = dim + dim * n_vec
    points = rand_m_points(rng, cd.space, 6)
    states = np.hstack([points, rng.normal(size=(6, dim * n_vec))])
    for stack in (states, states.reshape(2, 3, width)):
        got = rhs(stack)
        assert got.shape == stack.shape
        for state, row in zip(stack.reshape(-1, width), got.reshape(-1, width)):
            assert [float.hex(v) for v in row] == [float.hex(v) for v in rhs(state)]
    with pytest.raises(ShapeError):
        rhs(states[:, :-1])


@pytest.mark.parametrize("shape", [(7,), (7, 2, 1), (5, 2)], ids=["1-d", "3-d", "short"])
def test_frame_transport_refuses_a_frame_not_dim_by_k(cd, monkeypatch, shape):
    # a 1-D frame raised IndexError and a (7, 2, 1) one was flowed: each is
    # refused before the contact field is built or anything is integrated
    def never(*args):
        raise AssertionError("built or integrated before the frame was checked")

    monkeypatch.setattr(ct, "contact_vector_field", never)
    monkeypatch.setattr(integrate, "rk4_flow", never)
    with pytest.raises(ShapeError, match="frame of shape"):
        ct.flow_with_frame(cd, Field.constant(cd.space, 1.0), np.zeros(7), np.zeros(shape), 0.1)


def test_flow_field_exact_at_box_edge(cd):
    """Hamiltonians whose contact field leaves cd's box (a |k1| = N mode, a
    y4^2 term): the flow's right-hand side still matches the pointwise
    solve, and the field built inside cd's box is refused as truncated."""
    sp = cd.space
    edge = Field.from_modes(sp, {((sp.trunc_order, 1, 0, -2, 0), (0, 0)): 0.4 + 0.3j})
    y4_squared = Field.from_modes(sp, {((0, 1, 0, 0, 0), (2, 0)): 0.5})
    rng = np.random.default_rng(18)
    for lam in (edge, y4_squared):
        with pytest.raises(ShapeError):
            ct.hamiltonian_field(cd, lam)
        rhs = stacked_evaluator(ct.contact_vector_field(cd, lam).components)
        for p in rand_m_points(rng, sp, 5):
            want = ct.hamiltonian_derivation(cd, lam, p).xi
            assert np.max(np.abs(rhs(p) - want)) < 1e-10


def test_flow_refuses_truncated_hamiltonian(cd):
    lossy = Field(cd.space, Field.sin(cd.space, 1).coeffs, trunc_loss=0.25)
    with pytest.raises(ShapeError):
        ct.flow_contact(cd, lossy, np.zeros(7), 0.1)


def test_flow_preserves_coisotropicity_at_samples(cd):
    """Transport 30 points of an exactly coisotropic graph (with their
    tangent planes, via the variational equation) and evaluate the residual
    from the transported first jets."""
    rng = np.random.default_rng(16)
    s = family_section(0.7)
    lam = rand_field(rng, cd.space, n_modes=2) * 0.5
    T = 0.1
    fparts = [s.f.partial(i) for i in range(5)]
    gparts = [s.g.partial(i) for i in range(5)]
    worst = 0.0
    for x in rng.uniform(0, TWO_PI, size=(30, 5)):
        p = np.concatenate([x, [s.f.evaluate(x), s.g.evaluate(x)]])
        frame = np.zeros((7, 5))
        frame[:5] = np.eye(5)
        frame[5] = [fp.evaluate(x) for fp in fparts]
        frame[6] = [gp.evaluate(x) for gp in gparts]
        end, moved = ct.flow_with_frame(cd, lam, p, frame, T, h=2.5e-3)
        base, fiber = moved[:5], moved[5:]
        jets = fiber @ np.linalg.inv(base)
        r = residual_from_jet(end[0], end[5], end[6], jets[0], jets[1])
        worst = max(worst, abs(r))
    assert worst < 1e-5


# -- reduction ---------------------------------------------------------------------------

def test_verify_reduction_report():
    report = reduction_suite(seed=0, n=50)
    assert report["pass"]
    by_name = {c["check"]: c for c in report["checks"]}
    assert by_name["reduction_pullback_equality"]["max_defect"] == 0.0
    assert by_name["reduction_basic_form"]["pass"]
    # max_defect is 1 / min |det|, so this is min |det| > 0.5
    assert by_name["reduced_nondegeneracy"]["max_defect"] < 2.0

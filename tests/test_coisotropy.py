"""Coisotropicity PDE, linearization, obstruction functional, and the
prolongation solver."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from coisolab.cli import main
from coisolab.coisotropy import (STALL_REL, STALL_WINDOW, PreconditionError,
                                 ProlongOptions, Section, _jacobian, _RealCoords, base_space,
                                 family_section, kuranishi,
                                 linearized_residual, prolong, residual,
                                 residual_from_jet, xy_frame)
from coisolab.fields import Field, canonical_rep

SP = base_space(8)
TWO_PI = 2 * math.pi

# regression constant: residual floor of the radius-1 obstructed run
# (direction (cos x2, sin x2), eps = 0.1, N = 8), measured at first
# computation; equals eps^2 * ||sin x1||_L2 because the solver stalls at a
# first-order critical point sitting exactly on the obstruction mode
OBSTRUCTED_FLOOR = 0.699736733


def obstructed_direction():
    return Section(Field.cos(SP, 1), Field.sin(SP, 1))


def section_of(f_modes, g_modes):
    return Section(Field.from_modes(SP, f_modes),
                   Field.from_modes(SP, g_modes))


# -- residual --------------------------------------------------------------------

@pytest.mark.parametrize("t", [-1.0, 0.3, 2.0])
def test_family_is_exactly_coisotropic(t):
    assert residual(family_section(t)).is_zero()


def test_constants_are_coisotropic():
    s = Section(Field.constant(SP, 0.4), Field.constant(SP, -0.7))
    assert residual(s).is_zero()


def test_obstructed_direction_residual_is_sin_x1():
    r = residual(obstructed_direction())
    assert (r - Field.sin(SP, 0)).max_abs() < 1e-15
    # cross-check term by term at random points
    rng = np.random.default_rng(0)
    s = obstructed_direction()
    X, Y = xy_frame(SP)
    for x in rng.uniform(0, TWO_PI, size=(20, 5)):
        terms = (s.f.partial(0)(x) * X(s.g)(x) - s.g.partial(0)(x) * X(s.f)(x)
                 - s.g.partial(3)(x) + s.f.partial(4)(x)
                 - s.g(x) * Y(s.f)(x) + s.f(x) * Y(s.g)(x))
        assert r(x) == pytest.approx(terms, abs=1e-12)
        assert r(x) == pytest.approx(math.sin(x[0]), abs=1e-12)


def test_gauge_triviality_base_only_sections():
    # any pair depending on x1 alone is exactly coisotropic
    rng = np.random.default_rng(1)
    for _ in range(5):
        fmodes, gmodes = {}, {}
        for k1 in (1, 2, 3):
            fmodes[((k1, 0, 0, 0, 0), ())] = complex(*rng.normal(size=2))
            gmodes[((k1, 0, 0, 0, 0), ())] = complex(*rng.normal(size=2))
        assert residual(section_of(fmodes, gmodes)).is_zero()


def test_residual_from_jet_matches_field_route():
    rng = np.random.default_rng(2)
    s = section_of({((1, 1, 0, 0, 0), ()): 0.3 + 0.1j},
                   {((0, 1, 0, 1, 0), ()): -0.2 + 0.4j})
    r = residual(s)
    for x in rng.uniform(0, TWO_PI, size=(10, 5)):
        df = np.array([s.f.partial(i)(x) for i in range(5)])
        dg = np.array([s.g.partial(i)(x) for i in range(5)])
        assert residual_from_jet(x[0], s.f(x), s.g(x), df, dg) == \
            pytest.approx(r(x), abs=1e-11)


# -- linearized residual ------------------------------------------------------------

def test_linearized_examples():
    assert linearized_residual(obstructed_direction()).is_zero()
    s = Section(Field.zero(SP), Field.cos(SP, 3))
    assert (linearized_residual(s) + Field.sin(SP, 3)).is_zero()
    s = Section(Field.sin(SP, 4), Field.zero(SP))
    assert (linearized_residual(s) + Field.cos(SP, 4)).is_zero()


def test_linearization_is_residual_derivative():
    # residual(eps*s)/eps -> -linearized_residual(s) as eps -> 0 (the
    # residual is LHS-RHS of the defining equation, the linearization is
    # stated as the x4/x5-derivative combination with the opposite sign)
    rng = np.random.default_rng(3)
    for _ in range(5):
        s = section_of(
            {((0, 1, 0, 1, 0), ()): complex(*rng.normal(size=2))},
            {((1, 0, 0, 0, 1), ()): complex(*rng.normal(size=2))})
        eps = 1e-6
        scaled = Section(s.f * eps, s.g * eps)
        diff = residual(scaled) * (1.0 / eps) + linearized_residual(s)
        assert diff.max_abs() < 1e-5


def test_first_order_consistency_order():
    rng = np.random.default_rng(4)
    slopes = []
    for _ in range(5):
        s = section_of(
            {((0, 1, 0, 1, 0), ()): complex(*rng.normal(size=2)),
             ((1, 1, 0, 0, 0), ()): complex(*rng.normal(size=2))},
            {((1, 0, 1, 0, 1), ()): complex(*rng.normal(size=2))})
        eps = np.array([1e-2, 1e-3, 1e-4])
        errs = []
        for e in eps:
            scaled = Section(s.f * e, s.g * e)
            errs.append((residual(scaled) + linearized_residual(s) * e).l2_norm())
        errs = np.array(errs)
        slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
        slopes.append(slope)
    assert min(slopes) >= 1.9


# -- kuranishi ---------------------------------------------------------------------

def test_kuranishi_obstructed_exact_coefficients():
    k = kuranishi(obstructed_direction())
    assert k.space.torus_dim == 3
    amp = (TWO_PI ** 2) / 2
    expect = {((1, 0, 0), ()): -1j * amp, ((-1, 0, 0), ()): 1j * amp}
    assert set(k.coeffs) == set(expect)
    for key, c in expect.items():
        assert abs(k.coeffs[key] - c) < 1e-10


def test_kuranishi_constants_vanish():
    s = Section(Field.constant(SP, 1.2), Field.constant(SP, -3.0))
    assert kuranishi(s).is_zero()


def test_kuranishi_family_vanishes():
    for t in (0.5, math.sqrt(2)):
        s = family_section(t)
        assert kuranishi(s).is_zero()
        # quadrature oracle: the integrand itself vanishes pointwise
        X, Y = xy_frame(SP)
        integrand = (s.f.partial(0) * X(s.g) - s.g.partial(0) * X(s.f)
                     + s.f * Y(s.g) - s.g * Y(s.f))
        assert integrand.is_zero()


def test_kuranishi_consistency_for_exact_solutions():
    # for an exactly coisotropic section the obstruction functional equals
    # the average of dg/dx4 - df/dx5, which integrates to zero
    rng = np.random.default_rng(5)
    for _ in range(5):
        fmodes = {((int(k), 0, 0, 0, 0), ()): complex(*rng.normal(size=2))
                  for k in rng.integers(1, 4, size=2)}
        s = section_of(fmodes, {})
        assert residual(s).is_zero()
        assert kuranishi(s).is_zero()


# -- prolongation solver ---------------------------------------------------------------

def test_prolong_constant_direction_converges():
    rep = prolong(Section(Field.constant(SP, 1.0), Field.zero(SP)), 0.1)
    assert rep.status == "converged"
    assert rep.iterations <= 1
    assert residual(rep.final_section).l2_norm() < 1e-9


def test_prolong_family_direction_converges_to_family_member():
    rep = prolong(Section(Field.sin(SP, 0), Field.zero(SP)), 0.25)
    assert rep.status == "converged"
    want = family_section(0.25)
    assert (rep.final_section.f - want.f).max_abs() < 1e-12
    assert rep.final_section.g.is_zero()


def test_prolong_unobstructed_nontrivial_direction_iterates(capsys, tmp_path):
    # f = sin(x4+x5), g = sin(x4+x5) + cos(x2): an infinitesimal deformation
    # (dg/dx4 = df/dx5) with zero obstruction whose quadratic residual is
    # nonzero, so Gauss-Newton has to work; it converges quadratically to an
    # exactly coisotropic section
    f = Field.from_modes(SP, {((0, 0, 0, 1, 1), ()): -0.5j})
    u = Section(f, f + Field.cos(SP, 1))
    assert linearized_residual(u).is_zero()
    assert kuranishi(u).is_zero()
    assert not residual(Section(u.f * 0.1, u.g * 0.1)).is_zero()
    rep = prolong(u, 0.1, ProlongOptions(max_iters=100))
    assert rep.status == "converged"
    assert 2 <= rep.iterations <= 10
    assert residual(rep.final_section).l2_norm() < 1e-9
    h = rep.residual_norm_history
    assert h[0] > 0.1 and h[-1] < 1e-9
    # the fourth iterate converges: with the budget spent on it, the
    # post-loop test gives the same report
    assert rep.iterations == 4
    assert prolong(u, 0.1, ProlongOptions(max_iters=4)).to_json_dict() == rep.to_json_dict()
    short = prolong(u, 0.1, ProlongOptions(max_iters=1))
    assert short.status == "max_iters" and short.residual_norm_history == h[:2]
    # the CLI reports a solver that gave up without a verdict as exit 1
    path = tmp_path / "direction.json"
    path.write_text(json.dumps(u.to_json_dict()))
    assert main(["prolong", str(path), "--eps", "0.1", "--max-iters", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "max_iters"


def test_prolong_solves_in_the_direction_box():
    # a direction written at trunc_order 6 is solved at 6, not at a default box
    sp = base_space(6)
    f = Field.from_modes(sp, {((0, 0, 0, 1, 1), ()): -0.5j})
    u = Section(f, f + Field.cos(sp, 1))
    rep = prolong(u, 0.1)
    assert rep.status == "converged" and rep.iterations == 4
    assert rep.final_section.space == u.space


def test_prolong_obstructed_direction_stalls():
    rep = prolong(obstructed_direction(), 0.1)
    assert rep.status == "obstructed"
    floor = rep.residual_norm_history[-1]
    assert floor > 1e-4
    assert floor == pytest.approx(OBSTRUCTED_FLOOR, rel=1e-6)


def test_prolong_stall_window_verdict():
    # with unknowns of radius 2 on x1 the solver keeps descending, ever more
    # slowly, instead of exhausting its damping: the verdict comes from the
    # stall window, at the first iteration whose window condition holds
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(2, 1, 0, 0, 0)))
    assert rep.status == "obstructed" and rep.iterations == 7
    h = rep.residual_norm_history
    assert len(h) == rep.iterations + 1
    assert all(a > b for a, b in zip(h, h[1:]))
    rel = (h[-1 - STALL_WINDOW] - h[-1]) / h[-1 - STALL_WINDOW]
    assert rel < STALL_REL <= (h[-2 - STALL_WINDOW] - h[-2]) / h[-2 - STALL_WINDOW]
    assert h[-1] == pytest.approx(0.16319, rel=1e-4)
    assert f"fell by {rel:.3e}" in rep.diagnostic
    assert f"over the last {STALL_WINDOW} iterations" in rep.diagnostic


def test_prolong_rejects_non_infinitesimal_direction():
    bad = Section(Field.zero(SP), Field.cos(SP, 3))
    with pytest.raises(PreconditionError):
        prolong(bad, 0.1)


def test_prolong_rejects_bad_eps():
    good = Section(Field.constant(SP, 1.0), Field.zero(SP))
    for eps in (0.0, -0.1, 0.7):
        with pytest.raises(PreconditionError):
            prolong(good, eps)


def test_prolong_refuses_oversized_system_before_assembly():
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="too large for dense assembly"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=2))
    assert time.perf_counter() - t0 < 1.0


def test_prolong_refuses_radius_beyond_truncation():
    with pytest.raises(PreconditionError, match="exceed the truncation order"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(9, 0, 0, 0, 0)))


def test_jacobian_columns_are_central_differences():
    # the residual is quadratic, so (R(s + t d) - R(s - t d)) / 2t is its
    # derivative along d up to roundoff
    s = section_of({((0, 1, 0, 0, 0), ()): 0.3 - 0.2j, ((1, 0, 1, 0, 0), ()): 0.1j,
                    ((0, 0, 0, 1, -1), ()): 0.25},
                   {((1, 1, 0, 0, 0), ()): -0.4 + 0.1j, ((0, 0, 0, 0, 0), ()): 0.2,
                    ((0, 0, 1, 0, 1), ()): 0.15})
    box = _RealCoords(SP, (SP.pack(k, ()) for k in itertools.product(range(-1, 2), repeat=5)
                           if canonical_rep(k)))
    row_cap = 7 * 5 ** 4
    X, Y = xy_frame(SP)
    A, rows = _jacobian(box, s, X, Y, row_cap)
    nb = len(box.weights)
    assert A.shape == (row_cap, 2 * nb)
    t = 1e-3
    zero = Field.zero(SP)
    for block, k, part in ((0, (0, 1, 0, 0, 0), 1.0), (0, (1, -1, 0, 1, 0), 1j),
                           (1, (0, 0, 0, 0, 0), 1.0), (1, (1, 0, 0, 0, -1), 1j),
                           (1, (0, 1, 0, 1, 0), 1.0), (0, (0, 0, 1, 1, 1), 1j)):
        h = Field.from_modes(SP, {(k, ()): part * t})
        d = Section(h, zero) if block == 0 else Section(zero, h)
        plus = residual(Section(s.f + d.f, s.g + d.g))
        minus = residual(Section(s.f - d.f, s.g - d.g))
        want = np.zeros(row_cap)
        rows.add(want, (plus - minus) * (0.5 / t))
        col = A[:, block * nb + box.slots[SP.pack(k, ())] + (part == 1j)]
        assert np.max(np.abs(col)) > 0.1
        assert np.max(np.abs(col - want)) < 1e-10


def test_prolong_constraint_respected():
    # the projection of the final section onto the direction stays eps
    rep = prolong(obstructed_direction(), 0.1,
                  ProlongOptions(max_iters=3))
    u = obstructed_direction()
    num = 0.0
    den = 0.0
    for h_final, h_u in ((rep.final_section.f, u.f), (rep.final_section.g, u.g)):
        for key, c in h_u.coeffs.items():
            num += (h_final.coeffs.get(key, 0.0) * c.conjugate()).real
            den += abs(c) ** 2
    assert num / den == pytest.approx(0.1, abs=1e-12)


# -- serialization ----------------------------------------------------------------------

def test_section_json_roundtrip():
    s = section_of({((1, 0, 0, 0, 0), ()): 0.5 - 0.25j},
                   {((0, 2, 0, 0, 0), ()): 1.5j})
    back = Section.from_json_dict(s.to_json_dict())
    assert (back.f - s.f).max_abs() < 1e-15
    assert (back.g - s.g).max_abs() < 1e-15

"""Coisotropicity PDE, linearization, obstruction functional, and the
prolongation solver."""

import dataclasses
import itertools
import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from coisolab import coisotropy, fields
from coisolab.cli import main
from coisolab.coisotropy import (COLUMN_PRUNE, FIBER_AXES, STALL_REL,
                                 STALL_WINDOW, PreconditionError,
                                 ProlongOptions, Section, _jacobian, _jet,
                                 _quadratic_form, _sector_steps, base_space,
                                 family_section, kuranishi,
                                 linearized_residual, prolong, residual,
                                 residual_from_jet, xy_frame)
from coisolab.contact import contact_space
from coisolab.fields import Field, Space, box_keys, real_coords
from coisolab.foliation import characteristic_frame

SP = base_space(8)
TWO_PI = 2 * math.pi
SECTIONS = os.path.join(os.path.dirname(__file__), os.pardir, "sections")

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


def test_prolong_refuses_oversized_system_before_assembly(monkeypatch):
    # radius 2 has 6250 unknowns; the first closure starts from the 2 real
    # rows of eps^2 sin x1 and the 2 real columns of the direction's key, and
    # its second round reaches 8 x 8.  Either bound, set below these, refuses
    # before any Jacobian is assembled
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    for bound, value, match in (
            ("MAX_UNKNOWNS", 6249, "solver box of 6250 unknowns exceeds MAX_UNKNOWNS = 6249"),
            ("MAX_SECTOR", 40, "solver sector grows past MAX_SECTOR = 40: 8x8 real rows x columns")):
        with monkeypatch.context() as patch:
            patch.setattr(coisotropy, bound, value)
            with pytest.raises(PreconditionError, match=match):
                prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=2))


@pytest.mark.parametrize("radii", [2, 3, (3, 4, 4, 4, 4)], ids=["radius2", "radius3", "34444"])
def test_prolong_accepts_every_exact_radius(radii):
    # with only the sector's closure assembled, every exact box at N = 8 is
    # cheap: these reach the (2, 1, 1, 1, 1) floor in 7 iterations, each in
    # well under a second (2 s leaves room for a slow host)
    t0 = time.perf_counter()
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=radii))
    assert time.perf_counter() - t0 < 2.0
    assert (rep.status, rep.iterations) == ("obstructed", 7)
    assert rep.residual_norm_history[-1] == pytest.approx(0.163193976536, rel=1e-10)
    assert rep.truncation_loss == 0.0


def test_prolong_control_direction_converges_at_radius_2():
    rep = prolong(control_direction(), 0.1, ProlongOptions(solver_radius=2))
    assert rep.status == "converged" and rep.iterations <= 10
    assert residual(rep.final_section).l2_norm() < 1e-9


def test_prolong_refuses_radius_beyond_truncation():
    with pytest.raises(PreconditionError, match="exceed the truncation order"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(9, 0, 0, 0, 0)))
    with pytest.raises(PreconditionError, match="one entry per torus axis"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(1, 1)))


@pytest.mark.parametrize("trunc, k, radii", [
    (8, (0, 1, 0, 0, 0), (4, 4, 4, 0, 0)), (8, (0, 1, 0, 0, 0), (8, 8, 0, 0, 0)),
    (8, (4, 0, 0, 0, 0), 1), (8, (0, 0, 0, 5, 5), 1), (2, (0, 1, 0, 0, 0), (2, 1, 1, 1, 1))],
    ids=["444", "88", "own-x1-mode", "own-x45-mode", "trunc2-box"])
def test_prolong_refuses_inexact_box(monkeypatch, trunc, k, radii):
    # the residual and the Jacobian columns reach 2 r1 + 1 on x1 and 2 r on
    # the other axes; a box that would cut them is refused before assembly,
    # also when the direction's own mode grows the radii.  (E_k, E_k) is an
    # infinitesimal deformation when k4 = k5
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    sp = base_space(trunc)
    e_k = Field.from_modes(sp, {(k, ()): 0.5})
    u = Section(e_k, e_k)
    with pytest.raises(PreconditionError, match="exceed the truncation order"):
        prolong(u, 0.1, ProlongOptions(solver_radius=radii))


@pytest.mark.parametrize("radii", [(3, 3, 3, 0, 0), (3, 4, 4, 0, 0), (3, 4, 0, 0, 0)],
                         ids=["333", "344", "34"])
def test_prolong_exact_boxes_share_the_stall(radii):
    # radius 3 is the largest exact x1 radius at N = 8, and 4 the largest on
    # the other axes: each such box stalls at the (2, 1, 1, 1, 1) floor
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=radii))
    assert (rep.status, rep.iterations) == ("obstructed", 7)
    assert rep.residual_norm_history[-1] == pytest.approx(0.163193976536, rel=1e-10)
    assert rep.truncation_loss == 0.0


def test_prolong_rejects_negative_radius_and_max_iters(monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    for radius in (-1, (1, 1, -1, 1, 1)):
        with pytest.raises(PreconditionError, match="negative entry"):
            prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=radius))
    with pytest.raises(PreconditionError, match="max_iters=-2 is negative"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(max_iters=-2))


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_prolong_refuses_a_tol_it_cannot_honour(monkeypatch, tol):
    # -1 used to call an exact zero obstructed, inf to call the radius-1
    # stall converged, and NaN to end in max_iters: each is refused before
    # any work
    def no_work(*args):
        raise AssertionError("started the solve")
    monkeypatch.setattr(coisotropy, "linearized_residual", no_work)
    with pytest.raises(PreconditionError, match=r"tol=.* outside \[0, inf\)"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(tol=tol))


@pytest.mark.parametrize("radius", [np.int64(1), (np.int64(1),) * 5, np.ones(5, dtype=int)],
                         ids=["int64", "int64-tuple", "int-array"])
def test_prolong_accepts_numpy_integer_radius(radius):
    want = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=1))
    got = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=radius))
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("radius", [(1, 1, 1, 1, 1.5), (1, 1, 1, 1, 1.0), 1.0, "1", None],
                         ids=["half-entry", "float-entry", "float", "string", "none"])
def test_prolong_refuses_non_integer_radius(monkeypatch, radius):
    # these used to fail later: "zero direction", a slice TypeError, or
    # "not iterable"
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    with pytest.raises(PreconditionError, match="solver_radius must be integers"):
        prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=radius))


def blocks_of(ri, ci, m, n):
    """The independent blocks of the m x n matrix with entries at (ri, ci):
    the connected components of that pattern, each entry joining its row and
    its column.  One (rows, cols, entries) triple of ascending index arrays
    per block; a row or column without an entry belongs to no block.  The
    whole-box block finder that the sector solve replaced, kept as the
    oracle of ``block_steps``."""
    if not ri.size:
        return []
    # label each column with the least column index known to share its
    # block; shortcut label[label] so long chains settle in few sweeps
    label = np.arange(n)
    while True:
        row_label = np.full(m, n)
        np.minimum.at(row_label, ri, label[ci])
        new = label.copy()
        np.minimum.at(new, ci, row_label[ri])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    groups = []
    for idx, lab in ((np.unique(ri), row_label), (np.unique(ci), label),
                     (np.arange(ri.size), label[ci])):
        idx = idx[np.argsort(lab[idx], kind="stable")]
        groups.append(np.split(idx, np.flatnonzero(np.diff(lab[idx])) + 1))
    return list(zip(*groups))


def block_steps(ri, ci, v, rvec, n):
    """The steps of ``_sector_steps`` by the per-block route it replaced: one
    thin SVD per block of ``blocks_of``, touched by the residual or not, and
    at lam = 0 the cutoff eps_mach max(m, n) s_max with s_max the largest
    singular value over every block."""
    m = len(rvec)
    factors = []
    for rows, cols, entries in blocks_of(ri, ci, m, n):
        B = np.zeros((len(rows), len(cols)))
        B[np.searchsorted(rows, ri[entries]), np.searchsorted(cols, ci[entries])] = v[entries]
        U, sv, Vt = np.linalg.svd(B, full_matrices=False)
        factors.append((cols, sv, U.T @ rvec[rows], Vt))
    s_max = max((sv[0] for _, sv, _, _ in factors), default=0.0)
    cutoff = np.finfo(float).eps * max(m, n) * s_max

    def step(lam):
        delta = np.zeros(n)
        for cols, sv, c, Vt in factors:
            if lam > 0:
                gain = sv / (sv * sv + lam)
            else:
                gain = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
            delta[cols] = -(Vt.T @ (gain * c))
        return delta
    return step


@pytest.mark.parametrize("shapes", [((9, 5, 3), (6, 4, 2), (12, 8, 6)),
                                    ((5, 9, 3), (4, 6, 2), (8, 12, 6))], ids=["tall", "wide"])
def test_block_steps_solve_a_planted_system(shapes):
    # random rank-deficient blocks and one well-conditioned bidiagonal block
    # (a chain, which takes the block finder and the sector closure several
    # sweeps), rows and columns permuted, one all-zero row and one all-zero
    # column
    rng = np.random.default_rng(shapes[0])
    blocks = [rng.normal(size=(bm, rank)) @ rng.normal(size=(rank, bn))
              for bm, bn, rank in shapes]
    blocks.append(np.diag(rng.uniform(2.0, 3.0, size=12))
                  + np.diag(rng.uniform(-1.0, 1.0, size=11), 1))
    m, n = (sum(B.shape[i] for B in blocks) + 1 for i in (0, 1))
    row_perm, col_perm = rng.permutation(m), rng.permutation(n)
    AP = np.zeros((m, n))
    planted, i0, j0 = set(), 0, 0
    for B in blocks:
        rows, cols = row_perm[i0:i0 + B.shape[0]], col_perm[j0:j0 + B.shape[1]]
        AP[np.ix_(rows, cols)] = B
        planted.add((frozenset(rows.tolist()), frozenset(cols.tolist())))
        i0, j0 = i0 + B.shape[0], j0 + B.shape[1]
    chain_rows, chain_cols = rows, cols   # the last block placed
    r = rng.normal(size=m)
    ri, ci = np.nonzero(AP)
    assert {(frozenset(rows.tolist()), frozenset(cols.tolist()))
            for rows, cols, _ in blocks_of(ri, ci, m, n)} == planted
    _, sv, Vt = np.linalg.svd(AP)
    row_space = Vt[:sum(s[2] for s in shapes) + 12]
    # the second right-hand side is zero on the chain's rows, which puts the
    # chain outside the sector: its columns get a step of exactly 0
    r_off_chain = r.copy()
    r_off_chain[chain_rows] = 0.0
    for rhs in (r, r_off_chain):
        step = _sector_steps(ri, ci, AP[ri, ci], rhs, n)
        # lam = 0: lstsq's minimum-norm solution with its default cutoff; the
        # zero column gets a step of exactly 0
        want, *_ = np.linalg.lstsq(AP, -rhs, rcond=None)
        assert np.linalg.norm(step(0.0) - want) < 1e-10 * np.linalg.norm(want)
        assert step(0.0)[col_perm[-1]] == 0.0
        # lam > 0: the stacked damped system agrees in AP's row space.  In its
        # null space the damped minimiser is ill-conditioned: each route is off a
        # 60-digit reference by about eps ||AP|| ||r|| / lam
        for lam in (1e-8, 1e-4, 1.0):
            stacked, *_ = np.linalg.lstsq(np.vstack([AP, math.sqrt(lam) * np.eye(n)]),
                                          np.concatenate([-rhs, np.zeros(n)]), rcond=None)
            diff = step(lam) - stacked
            assert np.linalg.norm(row_space @ diff) < 1e-10 * np.linalg.norm(stacked)
            null_part = diff - row_space.T @ (row_space @ diff)
            assert (np.linalg.norm(null_part)
                    < 10 * np.finfo(float).eps * sv[0] * np.linalg.norm(rhs) / lam)
        for lam in (0.0, 1e-8, 1e-4, 1.0):
            assert np.any(step(lam)[chain_cols]) == (rhs is r)
    # a matrix without a nonzero entry has no block and a zero step
    none = np.zeros(0, np.int64)
    assert blocks_of(none, none, m, n) == []
    assert not np.any(_sector_steps(none, none, np.zeros(0), r, n)(0.0))


def control_direction():
    """f = sin(x4+x5), g = sin(x4+x5) + cos(x2): unobstructed, with a nonzero
    quadratic residual."""
    f = Field.from_modes(SP, {((0, 0, 0, 1, 1), ()): -0.5j})
    return Section(f, f + Field.cos(SP, 1))


@pytest.mark.parametrize("direction, radii", [
    (obstructed_direction, 1), (obstructed_direction, (2, 1, 1, 1, 1)),
    (obstructed_direction, (3, 4, 4, 0, 0)), (control_direction, 1),
    (control_direction, (2, 1, 1, 1, 1))],
    ids=["radius1", "box", "box344", "control-radius1", "control-box"])
def test_sector_steps_match_the_block_route(monkeypatch, direction, radii):
    # on every system prolong builds, the one sector SVD gives the per-block
    # route's steps bit for bit: the residual touches at most one block
    systems = []

    def recorded(*args, _orig=_sector_steps):
        systems.append((args, _orig(*args)))
        return systems[-1][1]
    monkeypatch.setattr(coisotropy, "_sector_steps", recorded)
    rep = prolong(direction(), 0.1, ProlongOptions(solver_radius=radii))
    assert len(systems) == rep.iterations > 0
    for args, step in systems:
        oracle = block_steps(*args)
        for lam in (0.0, 1e-8, 1e-4, 1.0):
            assert np.array_equal(step(lam), oracle(lam))


def st_sin_direction():
    with open(os.path.join(SECTIONS, "st_sin.json")) as fh:
        return Section.from_json_dict(json.load(fh))


def recorded_solve(monkeypatch, direction, opts):
    """prolong's report, and per iteration the keys it assembled, its iterate
    and its steps."""
    calls = []

    def jacobian(cols, s, *structure, _orig=_jacobian):
        calls.append([cols.keys, s])
        return _orig(cols, s, *structure)

    def sector_steps(*args, _orig=_sector_steps):
        calls[-1].append(_orig(*args))
        return calls[-1][-1]
    monkeypatch.setattr(coisotropy, "_jacobian", jacobian)
    monkeypatch.setattr(coisotropy, "_sector_steps", sector_steps)
    return prolong(direction(), 0.1, opts), calls


# tol 0 makes st_sin.json, exactly coisotropic at eps u, build one system
@pytest.mark.parametrize("direction, opts", [
    (obstructed_direction, ProlongOptions()),
    (obstructed_direction, ProlongOptions(solver_radius=(2, 1, 1, 1, 1))),
    (obstructed_direction, ProlongOptions(solver_radius=(3, 4, 4, 0, 0))),
    (control_direction, ProlongOptions()),
    (control_direction, ProlongOptions(solver_radius=(2, 1, 1, 1, 1))),
    (st_sin_direction, ProlongOptions(tol=0.0, max_iters=1))],
    ids=["radius1", "box", "box344", "control-radius1", "control-box", "st-sin"])
def test_sector_assembly_matches_the_whole_box_route(monkeypatch, direction, opts):
    # the whole-box route, _jacobian(box_keys(...)) and _sector_steps on all
    # its rows and columns, is the oracle: on every system prolong builds,
    # assembling only the closure's columns gives its steps bit for bit,
    # although the lam = 0 cutoff counts only the assembled rows
    rep, sector = recorded_solve(monkeypatch, direction, opts)
    sp = direction().space
    box = box_keys(sp, coisotropy._solver_radii(direction(), opts.solver_radius, sp))
    monkeypatch.setattr(coisotropy, "_sector_keys", lambda sp, box, *args: box)
    want, whole = recorded_solve(monkeypatch, direction, opts)
    assert rep.to_json_dict() == want.to_json_dict()
    assert len(sector) == len(whole) == rep.iterations
    for (keys, s, step), (all_keys, s_all, oracle) in zip(sector, whole):
        assert np.array_equal(all_keys, box) and len(keys) < len(box)
        assert np.all(np.isin(keys, box))
        assert (s.f.packed, s.g.packed) == (s_all.f.packed, s_all.g.packed)
        for lam in (0.0, 1e-8, 1e-4, 1.0):
            assert np.array_equal(step(lam), oracle(lam))


def test_jacobian_assembles_only_the_closure(monkeypatch):
    # at (2, 1, 1, 1, 1) the box has 203 canonical keys; each iteration's
    # closure holds the direction's key and the few its sector reaches
    rep, calls = recorded_solve(monkeypatch, obstructed_direction,
                                ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert len(box_keys(SP, (2, 1, 1, 1, 1))) == 203
    assert len(calls) == rep.iterations == 7
    assert all(SP.pack((0, 1, 0, 0, 0), ()) in keys and len(keys) <= 12
               for keys, *_ in calls)
    # the projection couples the support's columns through A u, so the
    # closure holds them even where no residual row reaches them
    support = np.array([SP.pack((0, 1, 0, 0, 0), ()), SP.pack((0, 0, 0, 1, 1), ())])
    keys = coisotropy._sector_keys(SP, box_keys(SP, (2, 1, 1, 1, 1)),
                                   *closure_keys(calls[0][1], Field.zero(SP)), support)
    assert np.all(np.isin(support, keys))


def closure_keys(s, r_field):
    """The key arrays prolong passes to _sector_keys for the iterate s and
    its residual: s's unique keys and the residual's sorted canonical rows."""
    own = np.unique(np.fromiter([*s.f.packed, *s.g.packed], np.int64))
    rows = np.sort(np.fromiter([k for k in r_field.packed if k >= s.space.zero_key], np.int64))
    return own, rows


def counted_calls(monkeypatch, *targets):
    """A dict of call counts, one per (name, owner, attribute), that wrappers
    patched over each attribute keep up to date."""
    calls = dict.fromkeys((name for name, *_ in targets), 0)
    for name, owner, attr in targets:
        def counted(*args, _orig=getattr(owner, attr), _name=name, **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_prolong_factors_once_per_rejected_iteration(monkeypatch):
    calls = counted_calls(monkeypatch, ("lstsq", np.linalg, "lstsq"), ("svd", np.linalg, "svd"),
                          ("factor", coisotropy, "_sector_steps"),
                          ("residual", coisotropy, "residual"))
    # radius 1: no column reaches the residual, so the sector is empty: it
    # takes no SVD and no trial, and the start's residual is the only one
    rep = prolong(obstructed_direction(), 0.1)
    assert (rep.status, rep.iterations) == ("obstructed", 1)
    assert rep.diagnostic == "no descent direction found (damping exhausted)"
    assert calls == {"lstsq": 0, "svd": 0, "factor": 1, "residual": 1}
    # the box solve accepts every first attempt: one factorization, one SVD
    # and one residual per iteration, and the start's residual
    calls.update(lstsq=0, svd=0, factor=0, residual=0)
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert (rep.status, rep.iterations) == ("obstructed", 7)
    assert all(b < a for a, b in zip(rep.residual_norm_history, rep.residual_norm_history[1:]))
    assert calls == {"lstsq": 0, "svd": 7, "factor": 7, "residual": 8}


def shifted_direction():
    """f = 0.2 + cos(x1+x3+x4+x5), g = cos(x1+x3+x4+x5)."""
    c = Field.from_modes(SP, {((1, 0, 1, 1, 1), ()): 0.5, ((-1, 0, -1, -1, -1), ()): 0.5})
    return Section(Field.constant(SP, 0.2) + c, c)


def test_prolong_takes_no_trial_in_an_empty_sector(monkeypatch):
    # with tol 0 the solve reaches a zero residual after 3 accepted attempts;
    # the next iteration's residual has no nonzero row, so its sector is
    # empty and every lam steps by 0: it takes no trial, and the damping
    # diagnostic ends the solve with the start's and 3 accepted residuals
    calls = counted_calls(monkeypatch, ("residual", coisotropy, "residual"),
                          ("section", coisotropy, "Section"))
    rep = prolong(shifted_direction(), 0.1, ProlongOptions(tol=0.0))
    assert (rep.status, rep.iterations) == ("max_iters", 4)
    assert rep.residual_norm_history[-2:] == [0.0, 0.0]
    assert rep.diagnostic == "stalled near the tolerance without a usable Gauss-Newton direction"
    assert calls == {"residual": 4, "section": 4}


@pytest.mark.parametrize("direction, eps, opts", [
    (obstructed_direction, 0.1, ProlongOptions()),
    (obstructed_direction, 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1))),
    (obstructed_direction, 0.1, ProlongOptions(solver_radius=(3, 4, 4, 0, 0))),
    (control_direction, 0.1, ProlongOptions()),
    (control_direction, 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1))),
    (st_sin_direction, 0.25, ProlongOptions()),
    (shifted_direction, 0.1, ProlongOptions(tol=0.0))],
    ids=["radius1", "box", "box344", "control-radius1", "control-box", "st-sin",
         "shifted-tol0"])
def test_prolong_judges_no_trial_twice(monkeypatch, direction, eps, opts):
    # the tube is the only rule that rejects a trial before its residual, so
    # no solve may reach a trial it has already judged
    judged = []

    def recorded(s, _orig=residual):
        judged.append((frozenset(s.f.packed.items()), frozenset(s.g.packed.items())))
        return _orig(s)
    monkeypatch.setattr(coisotropy, "residual", recorded)
    prolong(direction(), eps, opts)
    assert judged and len(set(judged)) == len(judged)


def test_a_section_builds_its_jets_once(monkeypatch):
    built = []

    def jet(h, X, Y, _orig=_jet):
        built.append(h)
        return _orig(h, X, Y)
    monkeypatch.setattr(coisotropy, "_jet", jet)
    # kuranishi, residual and the characteristic frame of one section read
    # one build of its two jets
    s = obstructed_direction()
    for reader in (kuranishi, residual, characteristic_frame):
        reader(s)
    assert [id(h) for h in built] == [id(s.f), id(s.g)]
    # in the box solve each section that reaches residual builds its two
    # jets there, and _jacobian reads those of the accepted iterate
    built.clear()
    evaluated, assembled = [], []

    def counted_residual(s, _orig=residual):
        evaluated.append(s)
        return _orig(s)

    def jacobian(cols, s, *structure, _orig=_jacobian):
        before = len(built)
        out = _orig(cols, s, *structure)
        assert len(built) == before, "_jacobian built a jet"
        assembled.append(s)
        return out
    monkeypatch.setattr(coisotropy, "residual", counted_residual)
    monkeypatch.setattr(coisotropy, "_jacobian", jacobian)
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert len(evaluated) == len({id(s) for s in evaluated}) == rep.iterations + 1 == 8
    assert [id(h) for h in built] == [id(h) for s in evaluated for h in (s.f, s.g)]
    assert len(assembled) == 7
    assert all(any(a is s for s in evaluated) for a in assembled)
    assert rep.final_section is evaluated[-1]


def iterate_key_counts(monkeypatch):
    """A list that a wrapper over _jacobian fills with the number of keys of
    each assembled iterate, f's and g's."""
    counts = []

    def jacobian(cols, s, *structure, _orig=_jacobian):
        counts.append(len(s.f.packed) + len(s.g.packed))
        return _orig(cols, s, *structure)
    monkeypatch.setattr(coisotropy, "_jacobian", jacobian)
    return counts


# tol 0 makes st_sin.json, exactly coisotropic at eps u, build one system;
# the shifted direction's lam = 0 cutoff sits next to a singular value.
# closures: how many the solve builds, one per change of the iterate's key
# set or of its residual's rows
@pytest.mark.parametrize("direction, opts, closures", [
    (obstructed_direction, ProlongOptions(), 1),
    (obstructed_direction, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)), 2),
    (obstructed_direction, ProlongOptions(solver_radius=(3, 4, 4, 0, 0)), 2),
    (control_direction, ProlongOptions(), 1),
    (control_direction, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)), 2),
    (st_sin_direction, ProlongOptions(tol=0.0), 1),
    (shifted_direction, ProlongOptions(solver_radius=(3, 4, 4, 0, 0)), 3)],
    ids=["radius1", "box", "box344", "control-radius1", "control-box", "st-sin",
         "shifted-box344"])
def test_structure_reuse_is_bit_exact(monkeypatch, direction, opts, closures):
    # the oracle is the same solve with every reuse defeated: each piece of
    # structure is rebuilt at every iteration, as if its keys had changed
    def solve(defeated):
        with monkeypatch.context() as patch:
            if defeated:
                patch.setattr(coisotropy, "_same_keys", lambda a, b: False)
            calls = counted_calls(patch, ("closures", coisotropy, "_sector_keys"))
            keys = iterate_key_counts(patch)
            rep = prolong(direction(), 0.1, opts)
        text = json.dumps(rep.to_json_dict())
        return rep, text, [float.hex(x) for x in rep.residual_norm_history], calls, keys

    rep, text, hexes, reused, keys = solve(defeated=False)
    want, want_text, want_hexes, rebuilt, want_keys = solve(defeated=True)
    assert text == want_text and hexes == want_hexes and keys == want_keys
    assert rebuilt["closures"] == want.iterations == len(keys)
    assert reused["closures"] == closures


def test_prolong_rebuilds_structure_when_the_key_set_changes(monkeypatch):
    # obstructed.json at (2, 1, 1, 1, 1): the iterate has 4 keys at the
    # start and 12 from the second iteration on, and the residual's rows stay
    # put after that, so 2 closures, column layouts and row layouts serve 7
    # iterations, where rebuilding at every iteration builds 7 of each
    closures, layouts, builds = [], [], {}

    def get(structure, piece, keys, build, _orig=coisotropy._Structure.get):
        def counted():
            builds[piece] = builds.get(piece, 0) + 1
            return build()
        return _orig(structure, piece, keys, counted)

    def sector_keys(*args, _orig=coisotropy._sector_keys):
        closures.append(_orig(*args))
        return closures[-1]

    def layout(sp, keys, _orig=real_coords):
        layouts.append(keys)
        return _orig(sp, keys)
    keys = iterate_key_counts(monkeypatch)
    monkeypatch.setattr(coisotropy, "_sector_keys", sector_keys)
    monkeypatch.setattr(coisotropy, "real_coords", layout)
    monkeypatch.setattr(coisotropy._Structure, "get", get)
    rep = prolong(obstructed_direction(), 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert (rep.status, rep.iterations) == ("obstructed", 7)
    assert keys == [4] + [12] * 6
    assert len(closures) == 2
    column_layouts = [k for k in layouts if any(k is c for c in closures)]
    assert len(column_layouts) == 2
    # the rest are the box's layout, built once, and the rows'
    assert len(layouts) - len(column_layouts) == 1 + 2
    # the structure holds four pieces, and each is reused: both closures
    # have the same columns, and the entries and rows change with the jets
    assert builds == {"closure": 2, "columns": 1, "entries": 2, "rows": 2}


def same_layout(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(fields.CoordLayout))


def obstructed_n16():
    """obstructed.json at truncation order 16."""
    with open(os.path.join(SECTIONS, "obstructed.json")) as fh:
        data = json.load(fh)
    for h in "fg":
        data[h]["trunc_order"] = 16
    return Section.from_json_dict(data)


def test_reused_structure_equals_a_fresh_build(monkeypatch):
    # at every iteration of a long solve whose key sets change and repeat,
    # the closure prolong assembles is _sector_keys of that iteration's
    # iterate and residual, with its layout, and its Jacobian (the rows'
    # layout and every triplet) is a build from nothing.  Both solves run
    # under STRICT
    for direction, radius, max_iters in (
            (obstructed_n16(), (7, 8, 0, 0, 0), 30),
            (control_direction(), 2, 200)):
        sp = direction.space
        box = box_keys(sp, coisotropy._solver_radii(direction, radius, sp))
        support = np.intersect1d(box, [*direction.f.packed, *direction.g.packed])
        seen = []

        def jacobian(cols, s, *structure, _orig=_jacobian):
            out = _orig(cols, s, *structure)
            seen.append((cols, s, out))
            return out
        monkeypatch.setattr(coisotropy, "_jacobian", jacobian)
        assert fields.STRICT
        rep = prolong(direction, 0.1, ProlongOptions(solver_radius=radius, max_iters=max_iters))
        monkeypatch.undo()
        assert len(seen) == rep.iterations > 1
        assert len({c.keys.tobytes() for c, *_ in seen}) < len(seen)
        for cols, s, (rows, ri, ci, v) in seen:
            fresh = real_coords(sp, coisotropy._sector_keys(
                sp, box, *closure_keys(s, residual(s)), support))
            assert same_layout(cols, fresh)
            fresh_rows, *entries = _jacobian(fresh, s)
            assert same_layout(rows, fresh_rows)
            for got, want in zip((ri, ci, v), entries):
                assert np.array_equal(got, want)


def test_a_trial_outside_the_tube_never_reaches_residual(monkeypatch):
    # in the first 8 iterations of the N = 16 (7, 8, 0, 0, 0) solve, two
    # undamped trials land 2e6 and 109 times eps max|u| away from eps u.
    # With the tube, neither reaches residual, every trial that does lies
    # in the tube, and the solve's history is the same to the last bit:
    # those trials were rejected on their residual norm before.  Without
    # it, STRICT must be off: the first one's products break its Hermitian
    # check
    direction, eps = obstructed_n16(), 0.1
    sp = direction.space
    radius = (7, 8, 0, 0, 0)
    box = real_coords(sp, box_keys(sp, coisotropy._solver_radii(direction, radius, sp)))
    u = np.concatenate([direction.f.coords(box), direction.g.coords(box)])

    def solve(tube):
        distances = []

        def judged(s, _orig=residual):
            x = np.concatenate([s.f.coords(box), s.g.coords(box)])
            distances.append(np.abs(x - eps * u).max() / (eps * np.abs(u).max()))
            return _orig(s)
        with monkeypatch.context() as patch:
            patch.setattr(coisotropy, "TUBE", tube)
            patch.setattr(coisotropy, "residual", judged)
            patch.setattr(fields, "STRICT", tube < math.inf)
            rep = prolong(direction, eps, ProlongOptions(solver_radius=radius, max_iters=8))
        return [float.hex(x) for x in rep.residual_norm_history], distances

    hexes, inside = solve(coisotropy.TUBE)
    want_hexes, every = solve(math.inf)
    assert hexes == want_hexes
    outside = [d for d in every if d > coisotropy.TUBE]
    assert len(outside) == 2 and min(outside) > 100
    assert len(inside) == len(every) - 2
    assert max(inside) <= coisotropy.TUBE


def test_prolong_radius1_first_step_is_exactly_zero(monkeypatch):
    # at eps u the residual eps^2 sin x1 sits in rows that no unknown of the
    # complement reaches, so every step of the one iteration is exactly 0
    steps = []

    def recorded(*args, _orig=coisotropy._sector_steps):
        steps.append(_orig(*args))
        return steps[-1]
    monkeypatch.setattr(coisotropy, "_sector_steps", recorded)
    rep = prolong(obstructed_direction(), 0.1)
    assert (rep.status, rep.iterations) == ("obstructed", 1)
    assert len(steps) == 1
    for lam in (0.0, 1e-8, 1e-4, 1.0):
        assert not np.any(steps[0](lam))


# floors of obstructed.json at solver_radius (2, 1, 1, 1, 1), measured with
# the dense lstsq solve that the block solve replaced
@pytest.mark.parametrize("eps, floor", [(0.05, 0.040798494134), (0.1, 0.163193976536),
                                        (0.2, 0.652775906143), (0.3, 1.46874578882)])
def test_prolong_box_floor_matches_dense_solve(eps, floor):
    rep = prolong(obstructed_direction(), eps, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert (rep.status, rep.iterations) == ("obstructed", 7)
    assert rep.residual_norm_history[-1] == pytest.approx(floor, rel=1e-10)


class DictCoords:
    """Real coordinates of a real field's coefficients on a fiber-free space,
    one dict slot per key: the dict codec that ``fields.real_coords``,
    ``Field.coords`` and ``Field.from_coords`` replaced, kept as their oracle.

    Each canonical representative k of a pair {k, -k} owns a slot, keyed by
    its packed mode key: (re, im) for k != 0, the real part alone for k = 0.
    Canonical keys are those at or above the key of k = 0.  Weights carry
    the Parseval multiplicity, so the weighted Euclidean norm is the
    coefficient norm.  Slots follow the order of the keys given to the
    constructor, and there are no others."""

    def __init__(self, space, keys):
        self.space, self.zero = space, space.zero_key
        self.slots = {}
        self.weights = []
        for key in keys:
            self.slots[key] = len(self.weights)
            self.weights.extend((2.0, 2.0) if key != self.zero else (1.0,))

    def coords(self, h):
        """The coordinate vector of h; modes without a slot are left out."""
        out = np.zeros(len(self.weights))
        for key, c in h.packed.items():
            s = self.slots.get(key)
            if s is not None:
                out[s] += c.real
                if key != self.zero:
                    out[s + 1] += c.imag
        return out

    def modes(self, v):
        """The nonzero coefficients {(k, m): c} held in the vector v."""
        out = {}
        for key, s in self.slots.items():
            c = complex(v[s], v[s + 1] if key != self.zero else 0.0)
            if c:
                out[self.space.unpack(key)] = c
        return out


def dict_box(sp, radii):
    """The oracle's box: the modes |k_a| <= radii[a] whose first nonzero
    frequency is positive, and k = 0, in itertools order."""
    return DictCoords(sp, [sp.pack(k, ()) for k in itertools.product(
        *(range(-r, r + 1) for r in radii)) if next((a > 0 for a in k if a), True)])


# T^5 at trunc 1000 has 2001^5 keys: its grid takes every frequency where a
# digit carries or borrows, the box edges and the neighbours of 0
@pytest.mark.parametrize("sp, freqs", [
    (Space(3, 0, 8, 0), range(-8, 9)),
    (base_space(1000), (-1000, -999, -1, 0, 1, 999, 1000)),
    (contact_space(2), range(-2, 3))], ids=["T3", "T5-trunc1000", "T5xR2"])
def test_digits_and_mate_agree_with_pack(sp, freqs):
    modes = [(k, m) for k in itertools.product(freqs, repeat=sp.torus_dim)
             for m in itertools.product(range(sp.poly_deg + 1), repeat=sp.fiber_dim)
             if sum(m) <= sp.poly_deg]
    keys = np.array([sp.pack(k, m) for k, m in modes])
    assert keys.dtype == np.int64
    assert sp.digits(keys).tolist() == [list(k + m) for k, m in map(sp.unpack, keys.tolist())]
    want = [sp.pack(tuple(-a for a in k), m) for k, m in modes]
    assert sp.mate(keys).tolist() == want
    assert [sp.mate(key) for key in keys.tolist()] == want


def exact_items(h):
    return [(key, c.real.hex(), c.imag.hex()) for key, c in h.packed.items()]


@pytest.mark.parametrize("trunc", [8, 1000])
@pytest.mark.parametrize("radii", [(0,) * 5, (1,) * 5, (2, 1, 1, 1, 1), (3, 4, 0, 0, 0)],
                         ids=["radius0", "radius1", "21111", "34"])
def test_real_coords_codec_matches_dict_oracle(trunc, radii):
    sp = base_space(trunc)
    keys, oracle = box_keys(sp, radii), dict_box(sp, radii)
    assert keys.tolist() == list(oracle.slots)
    layout = real_coords(sp, keys)
    assert layout.slot.tolist() == list(oracle.slots.values())
    assert layout.weight.tolist() == oracle.weights
    # a field with modes off the keys: those coordinates are left out
    wide = Field.from_modes(sp, {((radii[0] + 1, 0, 0, 0, -1), ()): 0.5 - 0.25j})
    rng = np.random.default_rng([trunc, *radii])
    for _ in range(15):
        # signed zeros are skipped and sub-PRUNE_TOL entries pruned after
        # they count towards the bounds, as the dict route has it
        v = rng.normal(size=len(oracle.weights)) * rng.choice([1.0, 0.0, -0.0, 1e-15],
                                                              size=len(oracle.weights))
        got, want = Field.from_coords(layout, v), Field.from_modes(sp, oracle.modes(v))
        assert exact_items(got) == exact_items(want)
        assert (got.bounds, got.trunc_loss) == (want.bounds, want.trunc_loss)
        for h in (got, -got, got + wide):
            assert [x.hex() for x in h.coords(layout)] == [x.hex() for x in oracle.coords(h)]


def test_real_coords_layout_edge_cases():
    sp = base_space(8)
    h = Field.from_modes(sp, {((1, 0, 0, 0, 0), ()): 0.5 - 0.25j})
    # an empty key array: no slots, and every field has no coordinates on it
    empty, oracle = real_coords(sp, np.zeros(0, np.int64)), DictCoords(sp, [])
    assert [a.tolist() for a in (empty.keys, empty.slot, empty.weight)] == [[], [], []]
    assert h.coords(empty).tolist() == oracle.coords(h).tolist() == []
    got = Field.from_coords(empty, np.zeros(0))
    assert exact_items(got) == [] and got.bounds == (0, 0)
    # keys with gaps, without k = 0; the field has modes below the first
    # key (k = 0 and (0, 0, 0, 0, 1)), between keys ((0, 0, 1, 0, 0)),
    # above the last ((2, 0, 0, 0, 0)), on a key, and every mate below them
    keys = np.array([sp.pack(k, ()) for k in
                     ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (1, -1, 0, 0, 0))])
    layout, oracle = real_coords(sp, keys), DictCoords(sp, keys.tolist())
    assert (layout.slot.tolist(), layout.weight.tolist()) == (
        list(oracle.slots.values()), oracle.weights)
    modes = {((0, 0, 0, 0, 0), ()): 0.3, ((0, 0, 0, 0, 1), ()): 0.1 + 0.2j,
             ((0, 0, 1, 0, 0), ()): -0.7j, ((2, 0, 0, 0, 0), ()): 0.4 - 0.1j,
             ((0, 1, 0, 0, 0), ()): 0.25 + 0.5j}
    h = Field.from_modes(sp, modes)
    for h in (h, -h, h - h):
        assert [x.hex() for x in h.coords(layout)] == [x.hex() for x in oracle.coords(h)]
    # the last key's coordinates are zeros, and skipped; an all-zero vector,
    # of either sign, gives the zero field with bounds (0, 0)
    v = np.array([0.3, -1.5, 0.0, 2.0, 0.0, -0.0])
    for v in (v, np.zeros(6), np.full(6, -0.0)):
        got, want = Field.from_coords(layout, v), Field.from_modes(sp, oracle.modes(v))
        assert exact_items(got) == exact_items(want)
        assert (got.bounds, got.trunc_loss) == (want.bounds, want.trunc_loss)
    assert got.bounds == (0, 0) and not got.packed


def test_frame_is_shared_and_stays_as_built():
    # one frame per space, for equal spaces too
    assert xy_frame(base_space()) is xy_frame(Space(5, 0, 8, 0))
    direction = obstructed_direction()
    sp = direction.space
    prolong(direction, 0.1)
    kuranishi(direction)
    characteristic_frame(direction)
    # no caller wrote into the shared fields
    z, c, s = Field.zero(sp), Field.cos(sp, 0), Field.sin(sp, 0)
    for got, want in zip(xy_frame(sp), ((z, c, -s, z, z), (z, s, c, z, z))):
        for g, w in zip(got.components, want, strict=True):
            assert exact_items(g) == exact_items(w)
            assert (g.bounds, g.trunc_loss) == (w.bounds, w.trunc_loss)


def test_jacobian_columns_are_central_differences():
    # the residual is quadratic, so (R(s + t d) - R(s - t d)) / 2t is its
    # derivative along d up to roundoff
    s = section_of({((0, 1, 0, 0, 0), ()): 0.3 - 0.2j, ((1, 0, 1, 0, 0), ()): 0.1j,
                    ((0, 0, 0, 1, -1), ()): 0.25},
                   {((1, 1, 0, 0, 0), ()): -0.4 + 0.1j, ((0, 0, 0, 0, 0), ()): 0.2,
                    ((0, 0, 1, 0, 1), ()): 0.15})
    rows, ri, ci, v = _jacobian(real_coords(SP, box_keys(SP, (1,) * 5)), s)
    box, rows = dict_box(SP, (1,) * 5), DictCoords(SP, rows.keys.tolist())
    nb = len(box.weights)
    assert ri.max() < len(rows.weights) and ci.max() < 2 * nb
    t = 1e-3
    zero = Field.zero(SP)
    for block, k, part in ((0, (0, 1, 0, 0, 0), 1.0), (0, (1, -1, 0, 1, 0), 1j),
                           (1, (0, 0, 0, 0, 0), 1.0), (1, (1, 0, 0, 0, -1), 1j),
                           (1, (0, 1, 0, 1, 0), 1.0), (0, (0, 0, 1, 1, 1), 1j)):
        h = Field.from_modes(SP, {(k, ()): part * t})
        d = Section(h, zero) if block == 0 else Section(zero, h)
        plus = residual(Section(s.f + d.f, s.g + d.g))
        minus = residual(Section(s.f - d.f, s.g - d.g))
        diff = (plus - minus) * (0.5 / t)
        # no mass outside the Jacobian's rows, which coords leaves out
        assert max((abs(c) for key, c in diff.packed.items()
                    if key >= SP.zero_key and key not in rows.slots), default=0.0) < 1e-10
        on = ci == block * nb + box.slots[SP.pack(k, ())] + (part == 1j)
        col = np.zeros(len(rows.weights))
        col[ri[on]] = v[on]
        assert np.max(np.abs(col)) > 0.1
        assert np.max(np.abs(col - rows.coords(diff))) < 1e-10


def drop_below(h, tol):
    """h without its coefficients of modulus below tol."""
    return fields._field(h.space, {k: c for k, c in h.packed.items() if abs(c) >= tol},
                         h.trunc_loss, h.bounds)


def jacobian_by_field_products(box, s, X, Y):
    """The Gauss-Newton Jacobian built one Field column at a time: the jet of
    each real unknown, the quadratic form against the iterate's jet, pruned
    at COLUMN_PRUNE, plus the linear part.  Dense, with a row for every
    canonical mode of a column, in sorted key order.  Oracle of the closed
    form."""
    sp = box.space
    jets = [_jet(Field.from_modes(sp, {sp.unpack(key): c}), X, Y)
            for key in box.slots for c in ((1.0, 1j) if key != box.zero else (1.0,))]
    unknowns = ([(0, jet, jet[0].partial(FIBER_AXES[1])) for jet in jets]
                + [(1, jet, -jet[0].partial(FIBER_AXES[0])) for jet in jets])
    jet_f, jet_g = _jet(s.f, X, Y), _jet(s.g, X, Y)
    columns = [drop_below(_quadratic_form(jet, jet_g) if block == 0 else _quadratic_form(jet_f, jet),
                          COLUMN_PRUNE) + lin for block, jet, lin in unknowns]
    rows = DictCoords(sp, sorted({key for col in columns for key in col.packed
                                   if key >= sp.zero_key}))
    return np.stack([rows.coords(col) for col in columns], axis=1), rows


# at trunc 1000 a packed row key times the column count overflows int64
@pytest.mark.parametrize("trunc, radii, iterations", [
    (8, (1, 1, 1, 1, 1), 0), (8, (2, 1, 1, 1, 1), 2), (1000, (1, 1, 1, 1, 1), 0)],
    ids=["radius1-eps-u", "box-iterate", "trunc1000-wide-keys"])
def test_jacobian_closed_form_matches_field_products(trunc, radii, iterations):
    # every Field the oracle builds is checked: the closed form builds none
    assert fields.STRICT
    sp = base_space(trunc)
    u = Section(Field.cos(sp, 1), Field.sin(sp, 1))
    s = (prolong(u, 0.1, ProlongOptions(solver_radius=radii, max_iters=iterations)).final_section
         if iterations else Section(u.f * 0.1, u.g * 0.1))
    assert iterations == 0 or len(s.f.packed) > len(u.f.packed)
    X, Y = xy_frame(sp)
    rows, ri, ci, v = _jacobian(real_coords(sp, box_keys(sp, radii)), s)
    want, want_rows = jacobian_by_field_products(dict_box(sp, radii), s, X, Y)
    # the same rows, in sorted key order, so the same real row slots
    assert list(zip(rows.keys.tolist(), rows.slot.tolist())) == list(want_rows.slots.items())
    # each entry once, none of them 0
    assert len(set(zip(ri.tolist(), ci.tolist()))) == len(v) and np.all(v != 0)
    A = np.zeros(want.shape)
    A[ri, ci] = v
    assert np.array_equal(A != 0, want != 0)
    assert np.max(np.abs(A - want)) <= 1e-15


def real_slots(coords, keys):
    """The real slots of keys in a DictCoords, in the order of keys."""
    return [coords.slots[k] + i for k in keys for i in range(1 if k == coords.zero else 2)]


@pytest.mark.parametrize("name, eps, radii, iterations", [
    ("obstructed.json", 0.1, 1, 1), ("obstructed.json", 0.1, (2, 1, 1, 1, 1), 3),
    ("st_sin.json", 0.25, 1, 1)], ids=["radius1-eps-u", "box-iterate", "st-sin-one-coordinate"])
def test_projected_system_matches_dense_route(monkeypatch, name, eps, radii, iterations):
    # the dense whole-box route is the oracle: A with one row per real row
    # slot and a column per unknown of the box, AP = A * sw, AP -= outer(AP @
    # u, w u / uu) over all n columns.  Restricted to the rows and columns
    # prolong assembled, np.nonzero(AP) must be the triplets that reach
    # _sector_steps, with bit-identical values, and those rows must have no
    # entry in any other column
    with open(os.path.join(SECTIONS, name)) as fh:
        direction = Section.from_json_dict(json.load(fh))
    sp, seen = direction.space, []

    def jacobian(cols, s, *structure, _orig=coisotropy._jacobian):
        rows, *entries = _orig(cols, s, *structure)
        seen.append([cols.keys, s, rows.keys, *entries])
        return [rows, *entries]

    def sector_steps(*args, _orig=coisotropy._sector_steps):
        seen[-1].append(args)
        return _orig(*args)
    monkeypatch.setattr(coisotropy, "_jacobian", jacobian)
    monkeypatch.setattr(coisotropy, "_sector_steps", sector_steps)
    # tol 0 makes st_sin.json, exactly coisotropic at eps u, assemble once;
    # the box run's last system is the one at its iterate after 2 iterations
    prolong(direction, eps, ProlongOptions(tol=0.0, solver_radius=radii, max_iters=iterations))
    assert len(seen) == iterations
    box_array = box_keys(sp, coisotropy._solver_radii(direction, radii, sp))
    box = DictCoords(sp, box_array.tolist())
    u = np.concatenate([box.coords(direction.f), box.coords(direction.g)])
    w = np.array(box.weights * 2)
    uu = float(np.dot(w * u, u))
    nb = len(box.weights)
    assert np.count_nonzero(u) == (1 if name == "st_sin.json" else 2)
    for keys, s, rows, _, _, _, (pri, pci, pv, rvec, n) in seen:
        assert n == 2 * nb
        all_rows, ri, ci, v = _jacobian(real_coords(sp, box_array), s)
        all_rows = DictCoords(sp, all_rows.keys.tolist())
        A = np.zeros((len(all_rows.weights), n))
        A[ri, ci] = v
        AP = A * np.sqrt(all_rows.weights)[:, None]
        AP -= np.outer(AP @ u, w * u / uu)
        rows = DictCoords(sp, rows.tolist())
        AP = AP[real_slots(all_rows, rows.slots)]
        cols = real_slots(box, keys.tolist())
        cols += [nb + c for c in cols]
        assert not np.any(np.delete(AP, cols, axis=1))
        want = {(i, j): AP[i, j] for i, j in zip(*np.nonzero(AP))}
        got = dict(zip(zip(pri.tolist(), pci.tolist()), pv.tolist()))
        assert len(got) == len(pv) and got == want
        r, want_r = residual(s), []
        for key in rows.slots:
            c = r.packed.get(key, 0j)
            want_r += [c.real] if key == box.zero else [c.real, c.imag]
        assert np.array_equal(rvec, np.array(want_r) * np.sqrt(rows.weights))


def test_prolong_radius1_memory():
    # the dense route held a 4375 x 486 Jacobian and copies of it: 20 MB of
    # traced numpy memory at radius 1, where the triplets need about 1 MB
    assert fields.STRICT
    tracemalloc.start()
    try:
        rep = prolong(obstructed_direction(), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "obstructed"
    assert peak < 8e6


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

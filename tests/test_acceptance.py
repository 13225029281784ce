"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line (visible with -v via the test id, and
explicitly with -s) and enforces the stated runtime bound.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from coisolab import verify
from coisolab.cli import main
from coisolab.coisotropy import (Section, base_space, family_section,
                                 linearized_residual, residual)
from coisolab.fields import Field
from coisolab.foliation import (characteristic_frame, classify_leaf_linear,
                                involutivity_defect, trace_leaf)

SECTIONS = os.path.join(os.path.dirname(__file__), os.pardir, "sections")
TWO_PI = 2 * math.pi
SP = base_space(8)


@pytest.fixture(autouse=True, scope="module")
def release_mode():
    """The stated runtime budgets apply to the shipped configuration, not to
    the per-operation validation the rest of the suite switches on."""
    from coisolab import fields
    saved = fields.STRICT
    fields.STRICT = False
    yield
    fields.STRICT = saved

# regression constant for criterion 3 (first measured value; the stall sits
# on the obstruction mode, eps^2 * ||sin x1||_{L2(T^5)})
OBSTRUCTED_FLOOR = 0.699736733


class Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.bound, \
                f"runtime {self.elapsed:.2f}s exceeds the {self.bound}s budget"


def report(n, name, timer):
    print(f"ACCEPTANCE {n} ({name}): PASS ({timer.elapsed:.2f}s)")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_kuranishi_reproduction(capsys):
    with Timer(1.0) as t:
        code, out = run_cli(capsys, "kuranishi",
                            os.path.join(SECTIONS, "obstructed.json"))
        assert code == 0
        field = Field.from_json_dict(json.loads(out)["field"])
        amp = TWO_PI ** 2 / 2
        expect = {((1, 0, 0), ()): -1j * amp, ((-1, 0, 0), ()): 1j * amp}
        assert set(field.coeffs) == set(expect)
        deviation = max(abs(field.coeffs[k] - c) for k, c in expect.items())
        assert deviation < 1e-10
    report(1, "kuranishi reproduction", t)


def test_criterion_2_exact_family():
    with Timer(1.0) as t:
        for tval in (-1.0, 0.3, 2.0):
            r = residual(family_section(tval))
            assert r.is_zero(), f"family residual not exactly zero at t={tval}"
    report(2, "exact family", t)


def test_criterion_3_obstructedness_probe(capsys, tmp_path):
    with Timer(60.0) as t:
        out_path = tmp_path / "prolong.json"
        code = main(["--out", str(out_path), "--trunc", "8",
                     "prolong", os.path.join(SECTIONS, "obstructed.json"),
                     "--eps", "0.1"])
        capsys.readouterr()
        assert code == 3
        rep = json.loads(out_path.read_text())
        assert rep["status"] == "obstructed"
        floor = rep["residual_norm_history"][-1]
        assert floor > 100 * 1e-9
        assert floor == pytest.approx(OBSTRUCTED_FLOOR, rel=1e-6)
    report(3, "obstructedness probe", t)


def test_criterion_4_unobstructed_control(capsys, tmp_path):
    with Timer(10.0) as t:
        const_path = tmp_path / "const_direction.json"
        const_path.write_text(json.dumps(
            Section(Field.constant(SP, 1.0), Field.zero(SP)).to_json_dict()))
        for path, eps in ((str(const_path), "0.1"),
                          (os.path.join(SECTIONS, "st_sin.json"), "0.25")):
            out_path = tmp_path / "rep.json"
            code = main(["--out", str(out_path), "prolong", path, "--eps", eps])
            capsys.readouterr()
            assert code == 0
            rep = json.loads(out_path.read_text())
            assert rep["status"] == "converged"
            final = Section.from_json_dict(rep["final_section"])
            assert residual(final).l2_norm() < 1e-9
    report(4, "unobstructed control", t)


def test_criterion_5_cartan_suite():
    with Timer(30.0) as t:
        rep = verify.cartan_suite(seed=20260809, n=50)
        assert rep["pass"]
        worst = max(c["max_defect"] for c in rep["checks"])
        assert worst < 1e-9
    report(5, "cartan suite", t)


def test_criterion_6_contact_suite():
    with Timer(60.0) as t:
        rep = verify.contact_suite(seed=20260809, n=30)
        by_name = {c["check"]: c for c in rep["checks"]}
        assert by_name["varpi_closed"]["max_defect"] == 0.0
        assert by_name["varpi_nondegenerate"]["pass"]
        assert by_name["contact_field_tangency"]["max_defect"] < 1e-6
        assert by_name["lie_algebra_morphism"]["max_defect"] < 1e-6
        # Jacobi identity at 30 random point/field triples
        jac = verify.jacobi_suite(seed=20260809, n=30)
        by_name_j = {c["check"]: c for c in jac["checks"]}
        assert by_name_j["bracket_jacobi_identity"]["max_defect"] < 1e-6
        assert rep["pass"] and jac["pass"]
    report(6, "contact suite", t)


def test_criterion_7_reduction():
    with Timer(1.0) as t:
        rep = verify.reduction_suite(seed=0, n=50)
        by_name = {c["check"]: c for c in rep["checks"]}
        assert by_name["reduction_pullback_equality"]["max_defect"] == 0.0
        assert by_name["reduction_basic_form"]["pass"]
        assert by_name["reduction_basic_form"]["max_defect"] == 0.0
        assert rep["pass"]
    report(7, "reduction", t)


def test_criterion_8_leaf_dichotomy():
    with Timer(30.0) as t:
        for q in range(1, 51):
            for p in range(0, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                v = classify_leaf_linear(p / q, tol=1e-9, max_denominator=10 ** 6)
                assert v.kind == "torus" and \
                    v.periods[0] == pytest.approx(TWO_PI * q), (p, q)
        for tval in (math.sqrt(2), math.pi / 4, (1 + math.sqrt(5)) / 2):
            v = classify_leaf_linear(tval, tol=1e-9, max_denominator=10 ** 6)
            assert v.kind == "cylinder", tval
        # trace confirmation: t = 1/2 closes at T = 4*pi
        fr = characteristic_frame(family_section(0.5))
        tr = trace_leaf(fr, np.zeros(5), 2 * TWO_PI, h=1e-2)
        lattice = tr.lifted[-1] / TWO_PI
        assert np.max(np.abs(lattice - np.round(lattice))) < 1e-8
    report(8, "leaf dichotomy", t)


def test_criterion_9_frobenius_link():
    with Timer(30.0) as t:
        rng = np.random.default_rng(20260809)
        exact_sections = [
            family_section(1.0),
            Section(Field.constant(SP, 0.4), Field.constant(SP, -0.7)),
            Section(Field.sin(SP, 0) * 0.3 + Field.cos(SP, 0) * 0.2,
                    Field.sin(SP, 0) * 0.5),
        ]
        for s in exact_sections:
            assert residual(s).is_zero()
            fr = characteristic_frame(s)
            for x in rng.uniform(0, TWO_PI, size=(50, 5)):
                assert involutivity_defect(fr, x) < 1e-8
        # first-order consistency of the linearization, observed order >= 1.9
        for _ in range(3):
            s = Section(
                Field.from_modes(SP, {((0, 1, 0, 1, 0), ()):
                                      complex(*rng.normal(size=2))}),
                Field.from_modes(SP, {((1, 0, 0, 0, 1), ()):
                                      complex(*rng.normal(size=2))}))
            eps = np.array([1e-2, 1e-3, 1e-4])
            errs = [(residual(Section(s.f * e, s.g * e))
                     + linearized_residual(s) * e).l2_norm() for e in eps]
            slope = np.polyfit(np.log(eps), np.log(np.array(errs)), 1)[0]
            assert slope >= 1.9
    report(9, "frobenius link", t)

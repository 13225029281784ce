"""Characteristic frames, leaf traces, and the torus/cylinder dichotomy of
the linear family."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coisolab import foliation, integrate
from coisolab.coisotropy import Section, base_space, family_section, residual
from coisolab.fields import Field, ShapeError
from coisolab.foliation import (characteristic_frame, classify_leaf_linear,
                                classify_section_leaf,
                                continued_fraction_convergents,
                                integrality_scan, involutivity_defect,
                                trace_leaf)

SP = base_space(8)
TWO_PI = 2 * math.pi


# -- frame assembly ------------------------------------------------------------

def test_frame_of_family_is_linear():
    fr = characteristic_frame(family_section(0.5))
    v1 = fr.v1.components
    assert (v1[1] + Field.constant(SP, 0.5)).is_zero()
    assert (v1[3] - Field.constant(SP, 1.0)).is_zero()
    for i in (0, 2, 4):
        assert v1[i].is_zero()
    v2 = fr.v2.components
    assert (v2[4] - Field.constant(SP, 1.0)).is_zero()
    for i in (0, 1, 2, 3):
        assert v2[i].is_zero()


def test_frame_of_zero_section():
    fr = characteristic_frame(Section(Field.zero(SP), Field.zero(SP)))
    assert all(c.is_zero() for i, c in enumerate(fr.v1.components) if i != 3)
    assert (fr.v1.components[3] - Field.constant(SP, 1.0)).is_zero()
    assert (fr.v2.components[4] - Field.constant(SP, 1.0)).is_zero()


def test_frame_general_section_components():
    s = Section(Field.cos(SP, 1), Field.sin(SP, 1))
    fr = characteristic_frame(s)
    rng = np.random.default_rng(0)
    for x in rng.uniform(0, TWO_PI, size=(10, 5)):
        c1, s1 = math.cos(x[0]), math.sin(x[0])
        c2, s2 = math.cos(x[1]), math.sin(x[1])
        # V1 = X(f) d1 - f_x1 X + d4 - f Y with f = cos x2 (f_x1 = 0)
        want = np.array([-c1 * s2, -c2 * s1, -c2 * c1, 1.0, 0.0])
        got = fr.v1.evaluate_at(x)
        assert np.max(np.abs(got - want)) < 1e-12


def test_frame_normal_form_invariant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        modes_f = {}
        for a, b in rng.integers(-2, 3, size=(2, 2)):
            c = complex(*rng.normal(size=2))
            if a == 0 and b == 0:
                c = complex(c.real, 0.0)
            modes_f[((int(a), int(b), 0, 0, 0), ())] = c
        s = Section(Field.from_modes(SP, modes_f),
                    Field.sin(SP, 2))
        fr = characteristic_frame(s)
        assert (fr.v1.components[3] - Field.constant(SP, 1.0)).is_zero()
        assert fr.v1.components[4].is_zero()
        assert (fr.v2.components[4] - Field.constant(SP, 1.0)).is_zero()
        assert fr.v2.components[3].is_zero()


# -- involutivity ----------------------------------------------------------------

def test_involutivity_exact_sections():
    rng = np.random.default_rng(2)
    sections = [
        family_section(0.7),
        Section(Field.zero(SP), Field.zero(SP)),
        Section(Field.sin(SP, 0) * 0.3 + Field.cos(SP, 0) * 0.1,
                Field.sin(SP, 0) * 0.2),
    ]
    for s in sections:
        assert residual(s).is_zero()
        fr = characteristic_frame(s)
        for x in rng.uniform(0, TWO_PI, size=(50, 5)):
            assert involutivity_defect(fr, x) < 1e-8


def test_involutivity_detects_noncoisotropic():
    s = Section(Field.cos(SP, 1), Field.sin(SP, 1))
    assert residual(s).max_abs() > 0.1
    fr = characteristic_frame(s)
    rng = np.random.default_rng(42)
    defects = [involutivity_defect(fr, x)
               for x in rng.uniform(0, TWO_PI, size=(20, 5))]
    assert min(defects) > 1e-3


# -- leaf tracing -----------------------------------------------------------------

def test_trace_unit_x4_flow():
    fr = characteristic_frame(family_section(0.0))
    tr = trace_leaf(fr, np.zeros(5), TWO_PI, h=1e-2)
    assert np.max(np.abs(tr.lifted[-1] - np.array([0, 0, 0, TWO_PI, 0]))) < 1e-12
    wrapped = tr.points[-1]
    circ = np.minimum(wrapped, TWO_PI - wrapped)
    assert np.max(circ) < 1e-9


def test_trace_half_family_closes_at_4pi():
    fr = characteristic_frame(family_section(0.5))
    tr = trace_leaf(fr, np.zeros(5), 2 * TWO_PI, h=1e-2)
    wrapped = tr.points[-1]
    dist = np.minimum(wrapped, TWO_PI - wrapped)
    assert np.max(dist) < 1e-8
    assert tr.lifted[-1][3] == pytest.approx(2 * TWO_PI, abs=1e-10)
    assert tr.lifted[-1][1] == pytest.approx(-TWO_PI, abs=1e-10)


def test_trace_matches_closed_form_line():
    t = math.sqrt(2)
    fr = characteristic_frame(family_section(t))
    start = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    duration = 7.0
    tr = trace_leaf(fr, start, duration, h=1e-2)
    for i, u in enumerate(tr.lifted):
        tau = min(i * 1e-2, duration)
        want = start + tau * np.array([0, -t, 0, 1, 0])
        assert np.max(np.abs(u - want)) < 1e-9 * max(1.0, tau)


def test_irrational_family_never_returns():
    # closed-form scan over candidate return times T = 2*pi*n: the x2 drift
    # -t*T must also be a lattice point, which fails for irrational t
    t = math.sqrt(2)
    for n in range(1, 101):
        drift = (t * n) % 1.0
        dist = min(drift, 1.0 - drift) * TWO_PI
        assert dist > 1e-3


def test_trace_wrapped_is_lift_mod_2pi():
    fr = characteristic_frame(family_section(0.3))
    tr = trace_leaf(fr, np.array([0.1, 5.9, 0.0, 3.0, 1.0]), 9.0, h=1e-2)
    assert np.max(np.abs(np.mod(tr.lifted, TWO_PI) - tr.points)) < 1e-12


def test_held_trace_is_one_copy_of_its_path():
    # a trace holds its lifted path alone, 40 bytes a step; a wrapped copy
    # beside it made 80.  The family's frame is constant, so its path is a
    # running sum, quick under tracemalloc: what is measured is what
    # trace_leaf keeps of it
    steps = 20_000
    fr = characteristic_frame(family_section(0.5))
    tracemalloc.start()
    try:
        tr = trace_leaf(fr, np.zeros(5), steps * 0.05, h=0.05)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tr.lifted.shape == (steps + 1, 5)
    assert held <= 48 * steps


def test_theta_vanishes_on_graph_lifted_frame():
    # the frame lies in the contact distribution along the graph
    rng = np.random.default_rng(3)
    for s in (family_section(0.8),
              Section(Field.cos(SP, 0) * 0.4, Field.sin(SP, 0) * 0.5)):
        assert residual(s).is_zero()
        fr = characteristic_frame(s)
        for x in rng.uniform(0, TWO_PI, size=(10, 5)):
            fx, gx = s.f(x), s.g(x)
            for vf in (fr.v1, fr.v2):
                v = vf.evaluate_at(x)
                theta_on_lift = (math.sin(x[0]) * v[1] + math.cos(x[0]) * v[2]
                                 + fx * v[3] + gx * v[4])
                assert abs(theta_on_lift) < 1e-8


# -- classification -----------------------------------------------------------------

def test_classify_small_rationals_exhaustive():
    for q in range(1, 51):
        for p in range(0, 2 * q + 1):
            if math.gcd(p, q) != 1:
                continue
            verdict = classify_leaf_linear(p / q)
            assert verdict.kind == "torus", (p, q)
            assert verdict.periods[0] == pytest.approx(TWO_PI * q)
            assert verdict.periods[1] == pytest.approx(TWO_PI)


def test_classify_zero():
    v = classify_leaf_linear(0.0)
    assert v.kind == "torus" and v.periods[0] == pytest.approx(TWO_PI)


def test_classify_negative_rational():
    v = classify_leaf_linear(-1 / 3)
    assert v.kind == "torus" and v.periods[0] == pytest.approx(6 * math.pi)


@pytest.mark.parametrize("t", [math.sqrt(2), math.pi / 4, (1 + math.sqrt(5)) / 2])
def test_classify_irrationals_as_cylinders(t):
    v = classify_leaf_linear(t)
    assert v.kind == "cylinder"
    assert v.evidence["best_convergent"] is not None


def test_classify_rejects_non_finite():
    with pytest.raises(ValueError):
        classify_leaf_linear(float("nan"))
    with pytest.raises(ValueError):
        classify_leaf_linear(float("inf"))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
def test_classify_refuses_a_tol_outside_the_positive_reals(monkeypatch, tol):
    # 0 used to call the exact 1/2 a cylinder, inf to call sqrt 2 a torus,
    # and NaN to call everything a cylinder: both entry points refuse before
    # any continued fraction is expanded, the scan also on an empty list
    def no_expansion(*args):
        raise AssertionError("expanded a continued fraction")
    monkeypatch.setattr(foliation, "continued_fraction_convergents", no_expansion)
    for classify in (lambda: classify_leaf_linear(0.5, tol=tol),
                     lambda: classify_leaf_linear(math.sqrt(2), tol=tol),
                     lambda: integrality_scan([0.5, math.sqrt(2)], tol=tol),
                     lambda: integrality_scan([], tol=tol)):
        with pytest.raises(ValueError, match=r"tol=.* outside \(0, inf\)"):
            classify()


@pytest.mark.parametrize("cap", [0, -3, 2.5, 1.0, True, np.True_, "10"],
                         ids=["zero", "negative", "fraction", "float", "true", "numpy-true", "str"])
def test_classify_refuses_a_cap_that_is_no_denominator(monkeypatch, cap):
    # a cap of 0 admits no convergent (1/2 read as a cylinder), 2.5 was taken
    # as it is and True as 1: both entry points refuse before any continued
    # fraction is expanded, the scan also on an empty list
    def no_expansion(*args):
        raise AssertionError("expanded a continued fraction")
    monkeypatch.setattr(foliation, "continued_fraction_convergents", no_expansion)
    for classify in (lambda: classify_leaf_linear(0.5, max_denominator=cap),
                     lambda: integrality_scan([0.5], max_denominator=cap),
                     lambda: integrality_scan([], max_denominator=cap)):
        with pytest.raises(ValueError, match=r"max_denominator=.* is not an integer >= 1"):
            classify()


def test_numpy_integer_cap_is_a_cap():
    assert classify_leaf_linear(0.5, max_denominator=np.int64(2)).kind == "torus"
    assert classify_leaf_linear(0.5, max_denominator=np.int64(1)).kind == "cylinder"


def test_classification_verified_by_trace():
    v = classify_leaf_linear(0.5)
    fr = characteristic_frame(family_section(0.5))
    tr = trace_leaf(fr, np.zeros(5), v.periods[0], h=1e-2)
    lattice = tr.lifted[-1] / TWO_PI
    assert np.max(np.abs(lattice - np.round(lattice))) < 1e-8


def test_convergents_agree_with_fractions_module():
    for t in (0.5, 1 / 3, math.sqrt(2), 0.137):
        _, convs = continued_fraction_convergents(t, 10 ** 6)
        best = Fraction(t).limit_denominator(10 ** 6)
        errs = [abs(t - p / q) for p, q in convs]
        assert min(errs) <= abs(t - float(best)) + 1e-18


# -- integrality scan ------------------------------------------------------------------

def test_integrality_scan_reports_instability():
    report = integrality_scan([0.0, 0.5, math.sqrt(2) * 1e-3])
    kinds = [r["verdict"] for r in report["results"]]
    assert kinds[0] == "torus" and kinds[1] == "torus"
    assert kinds[2] in ("torus", "cylinder")  # float-rationality dependent
    assert "unstable" in report["note"]
    if kinds[2] == "torus":
        assert report["results"][2]["evidence"]["convergent"] is not None


def test_integrality_scan_third():
    report = integrality_scan([1 / 3])
    r = report["results"][0]
    assert r["verdict"] == "torus"
    assert r["periods"][0] == pytest.approx(6 * math.pi)


def test_integrality_scan_empty():
    report = integrality_scan([])
    assert report["results"] == []
    assert report["torus_count"] == 0


# -- general-section traces --------------------------------------------------------------

def test_section_leaf_evidence_is_unknown():
    s = Section(Field.cos(SP, 0) * 0.3, Field.zero(SP))
    verdict, trace = classify_section_leaf(s, np.zeros(5), 6.0, h=1e-2)
    assert verdict.kind == "unknown"
    assert "closure_hits" in verdict.evidence
    assert len(trace.points) == len(trace.lifted)


@pytest.mark.parametrize("start", [np.zeros((2, 5)), np.zeros((1, 5)), np.zeros(4),
                                   np.zeros(7), 0.0])
def test_section_leaf_refuses_all_but_one_start(start, monkeypatch):
    # the closure evidence reduces one path's rows: k starts would be read
    # as one leaf, so they are refused before anything is integrated
    def never(*args):
        raise AssertionError("integrated a refused start")

    monkeypatch.setattr(integrate, "rk4_flow", never)
    s = Section(Field.cos(SP, 0) * 0.3, Field.zero(SP))
    with pytest.raises(ShapeError):
        classify_section_leaf(s, start, 6.0, h=1e-2)


def test_trace_of_many_starts_is_their_single_traces():
    # many-start traces: a (k, 5) start is k leaves, each bit for bit its own
    fr = characteristic_frame(Section(Field.cos(SP, 0) * 0.3, Field.sin(SP, 1) * 0.2))
    starts = np.array([[0.0] * 5, [0.1, 5.9, 0.0, 3.0, 1.0], [2.0, 1.0, 0.5, 0.0, 4.0]])
    many = trace_leaf(fr, starts, 1.0, h=1e-2)
    assert many.lifted.shape == (101, 3, 5)
    for row, start in enumerate(starts):
        assert many.lifted[:, row].tobytes() == trace_leaf(fr, start, 1.0, h=1e-2).lifted.tobytes()


@pytest.mark.parametrize("t", [0.5, 1 / 3, math.sqrt(2) - 1], ids=["1/2", "1/3", "sqrt2-1"])
def test_family_trace_is_the_pointwise_flow(t):
    # the family's frame is constant, span{d4 - t d2, d5}: its folded
    # evaluator gives the trace of Field.evaluate, component by component,
    # bit for bit, for one start and for a stack of three
    frame = characteristic_frame(family_section(t))
    v1 = frame.v1

    def pointwise(states):
        flat = states.reshape(-1, 5)
        return np.array([[c.evaluate(p) for c in v1.components] for p in flat]).reshape(
            states.shape)

    assert all(set(c.packed) <= {SP.zero_key} for c in v1.components)
    starts = np.array([[0.1, -5.9, 0.0, 3.0, 1.0], [-2.0, -1.0, -0.5, -0.25, -4.0],
                       [6.0, 0.3, -0.7, 2.2, 0.0]])
    for start in (starts[1], starts):
        tr = trace_leaf(frame, start, 1.005, h=1e-2)
        want = integrate.rk4_flow(pointwise, start, 1.005, 1e-2)
        assert tr.lifted.tobytes() == want.tobytes()

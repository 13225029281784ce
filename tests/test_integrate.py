"""RK4 with step doubling: right-hand side evaluations per step and the
path against the textbook form of the scheme; the running sum of a constant
right-hand side, and of a field its own flow leaves unchanged, against the
stepping loop."""

import functools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from coisolab import contact as ct
from coisolab import fields, integrate
from coisolab.coisotropy import Section, base_space, family_section
from coisolab.fields import Field, ShapeError, stacked_evaluator
from coisolab.foliation import characteristic_frame
from coisolab.integrate import StepSizeError, rk4_flow, split_duration


def pendulum(y):   # a state (2,) or a stack of them (..., 2)
    return np.stack([y[..., 1], -np.sin(y[..., 0])], axis=-1)


def rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + (h / 2.0) * k1)
    k3 = rhs(y + (h / 2.0) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_eight_rhs_calls_per_step():
    # k1 on the start; k2-k4 of the full step and the first half step as one
    # two-row stack; then the second half step on its own
    shapes = []

    def counted(y):
        shapes.append(y.shape)
        return pendulum(y)

    path = rk4_flow(counted, [0.3, 0.0], 0.35, 0.1)
    assert len(path) == 5   # three full steps and a tail step
    assert shapes == [(2,), (2, 2), (2, 2), (2, 2), (2,), (2,), (2,), (2,)] * 4


@pytest.mark.parametrize("duration", [0.35, -0.35])
def test_many_starts_follow_their_single_paths(duration):
    # a (k, 2) start is k paths, each bit for bit the path of its row alone
    starts = np.array([[0.3, 0.2], [-1.1, 0.05], [2.0, -0.4]])
    paths = rk4_flow(pendulum, starts, duration, 0.1)
    assert paths.shape == (5, 3, 2)
    for row, start in enumerate(starts):
        assert paths[:, row].tobytes() == rk4_flow(pendulum, start, duration, 0.1).tobytes()
    assert rk4_flow(pendulum, starts[:0], duration, 0.1).shape == (5, 0, 2)


def test_zero_duration_is_the_start_point():
    def never(y):
        raise AssertionError("rhs called for a zero duration")

    path = rk4_flow(never, [0.3, 0.2], 0.0, 0.1)
    assert path.shape == (1, 2) and np.array_equal(path, [[0.3, 0.2]])


@pytest.mark.parametrize("duration", [0.35, -0.35])
def test_path_is_step_doubled_rk4(duration):
    """Bit-identical to a full step checked against two fresh half steps."""
    y = np.array([0.3, 0.2])
    want = [y]
    n_full, tail = split_duration(duration, 0.1)
    for dt in [0.1] * n_full + [tail]:
        hs = np.copysign(dt, duration)
        y = rk4_step(pendulum, rk4_step(pendulum, y, hs / 2.0), hs / 2.0)
        want.append(y)
    assert np.array_equal(rk4_flow(pendulum, [0.3, 0.2], duration, 0.1), np.array(want))


@pytest.mark.parametrize("duration, h", [(1.0, 0.0), (1.0, -0.1), (1.0, np.inf), (1.0, np.nan),
                                         (np.inf, 0.1), (np.nan, 0.1), (1e300, 1e-3),
                                         (1e18, 1.0)])
def test_refused_before_any_step(duration, h):
    # 1e18 steps fit an index, but their path exceeds any 64-bit address
    # space: it is refused when the path is allocated, before the first step
    def never(y):
        raise AssertionError("rhs called for a refused step count")

    with pytest.raises(ValueError):
        rk4_flow(never, [0.3, 0.2], duration, h)


def test_nan_error_estimate_is_rejected():
    with pytest.raises(StepSizeError):
        rk4_flow(lambda y: np.full(2, np.nan), [0.3, 0.2], 0.3, 0.1)


# -- a constant right-hand side: the running sum ---------------------------------

def family_rhs(t):
    # the family's frame span{d4 - t d2, d5}: dim constants, marked constant
    return stacked_evaluator(characteristic_frame(family_section(t)).v1.components)


def stepped(ev):
    # the same evaluator behind a plain function: no constant attribute, so
    # rk4_flow steps it
    return lambda y: ev(y)


STARTS = np.array([[0.1, -5.9, 0.0, 3.0, 1.0], [-2.0, -1.0, -0.5, -0.25, -4.0],
                   [6.0, 0.3, -0.7, 2.2, 0.0]])


@pytest.mark.parametrize("chunk", [integrate.CHUNK, 1, 16, 35], ids=["default", "1", "16", "35"])
@pytest.mark.parametrize("start", [STARTS[0], STARTS, STARTS[:0]], ids=["one", "k", "none"])
@pytest.mark.parametrize("duration", [10.005, -10.005, 10.0, 0.004],
                         ids=["tail", "backward-tail", "no-tail", "tail-only"])
def test_constant_path_is_the_stepping_loop(monkeypatch, chunk, start, duration):
    # bit for bit the loop's path, for one start, a (3, 5) stack and a (0, 5)
    # stack, with and without a tail step, in chunks of every size: 35
    # coordinates are 7 steps of one start, 2 of three, and 1000 steps are
    # no multiple of either
    ev = family_rhs(math.sqrt(2) - 1)
    assert ev.constant and not hasattr(stepped(ev), "constant")
    want = rk4_flow(stepped(ev), start, duration, 1e-2)
    monkeypatch.setattr(integrate, "CHUNK", chunk)
    got = rk4_flow(ev, start, duration, 1e-2)
    assert got.shape == want.shape == (len(want), *np.shape(start))
    assert got.tobytes() == want.tobytes()


def test_constant_rhs_is_called_once_on_the_start():
    ev = family_rhs(0.5)
    calls = []

    def counted(y):
        calls.append(np.array(y))
        return ev(y)

    counted.constant = True
    path = rk4_flow(counted, STARTS[1], 0.35, 0.1)
    assert len(path) == 5 and len(calls) == 1
    assert calls[0].tobytes() == STARTS[1].tobytes()
    calls.clear()
    assert rk4_flow(counted, STARTS[1], 0.0, 0.1).tobytes() == STARTS[1].tobytes()
    assert calls == []
    # a list that reads an axis it moves is unmarked and stepped, 8 calls a step
    assert not hasattr(stacked_evaluator([Field.sin(base_space(8), 0)] * 5), "constant")


def test_constant_path_refuses_the_loops_step():
    # at x2 = 1e12 an ulp is 1.2e-4: the full step and the two half steps
    # round apart, and both routes raise the same first failure
    start = np.array([0.0, 1e12, 0.0, 0.0, 0.0])
    ev = family_rhs(0.5)
    message = "local error 1.221e-04 exceeds 1.0e-06; reduce h=0.01"
    for rhs in (ev, stepped(ev)):
        with pytest.raises(StepSizeError) as err:
            rk4_flow(rhs, start, 1.0, 1e-2)
        assert str(err.value) == message


def test_constant_path_guards_a_non_real_constant(monkeypatch):
    # the guard's error, raised by the one call on the start, as by the loop's first
    monkeypatch.setattr(fields, "STRICT", False)
    sp = base_space(8)
    skew = Field(sp, {sp.unpack(sp.zero_key): 2.0 + 0.5j})
    ev = stacked_evaluator([Field.constant(sp, 1.0)] * 4 + [skew])
    message = "non-real evaluation (imag=5.000e-01); field violates Hermitian symmetry"
    for rhs in (ev, stepped(ev)):
        with pytest.raises(ShapeError) as err:
            rk4_flow(rhs, STARTS[0], 1.0, 0.1)
        assert str(err.value) == message
        assert rk4_flow(rhs, STARTS[:0], 1.0, 0.1).shape == (11, 0, 5)   # no row to fail


def test_constant_path_costs_its_path_and_a_chunk():
    # 200,000 steps of one start: the path's 40 bytes a step, and beside it
    # the sum's working arrays, whatever the length: a sum of 2 m + 1 rows
    # and the estimates' two m-row temporaries, m rows at most CHUNK floats
    steps = 200_000
    ev = family_rhs(0.5)
    tracemalloc.start()
    try:
        path = rk4_flow(ev, STARTS[0], steps * 1e-2, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.shape == (steps + 1, 5)
    assert peak <= path.nbytes + 5 * 8 * integrate.CHUNK


# -- a field its own flow leaves unchanged: the same running sum ---------------
#
# a field whose modes read only axes that its own components leave still is
# the same vector at every point of its path, so stacked_evaluator marks it
# constant too

SECTIONS = os.path.join(os.path.dirname(__file__), os.pardir, "sections")


@functools.cache
def contact_data():
    return ct.standard_contact(trunc_order=8)


def contact_rhs(hamiltonian):
    # the contact field of a Hamiltonian built on the contact space
    cd = contact_data()
    return stacked_evaluator(ct.contact_vector_field(cd, hamiltonian(cd.space)).components)


def frame_rhs(section):
    return stacked_evaluator(characteristic_frame(section).v1.components)


def section_file(name):
    with open(os.path.join(SECTIONS, name)) as fh:
        return Section.from_json_dict(json.load(fh))


def x1_harmonics(sp):   # 0.3 sin x1 - 0.7 cos 2x1 + 0.2 sin^3 x1 - 1.5
    s, c = Field.sin(sp, 0), Field.cos(sp, 0)
    return 0.3 * s - 0.7 * (c * c - s * s) + 0.2 * (s * s * s) - 1.5 * Field.constant(sp, 1.0)


def y4_squared(sp):
    y4 = Field.fiber_coordinate(sp, 0)
    return y4 * y4


def x1_section():   # (0.7 sin x1 - 1.3 cos 2x1, 0)
    sp = base_space(8)
    s, c = Field.sin(sp, 0), Field.cos(sp, 0)
    return Section(0.7 * s - 1.3 * (c * c - s * s), Field.zero(sp))


UNCHANGED = {
    # the unit Hamiltonian's field is minus the Reeb field (0, sin x1, cos x1, 0, ...)
    "reeb": lambda: contact_rhs(lambda sp: Field.constant(sp, 1.0)),
    "x1-harmonics": lambda: contact_rhs(x1_harmonics),
    "y4": lambda: contact_rhs(lambda sp: Field.fiber_coordinate(sp, 0)),
    # reads y4, a fiber axis, and moves x2, x3 and x4
    "y4-squared": lambda: contact_rhs(y4_squared),
    "constants.json": lambda: frame_rhs(section_file("constants.json")),
    "x1-section": lambda: frame_rhs(x1_section()),
    # dim constants, which read no axis
    "family": lambda: family_rhs(math.sqrt(2) - 1),
}


@functools.cache
def unchanged_rhs(case):
    return UNCHANGED[case]()


# zeros of both signs and negative coordinates on T^5 x R^2
SIGNED = np.array([[0.3, -0.0, 0.1, 0.0, -2.5, 0.5, -0.5],
                   [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
                   [-2.0, -6.1, 4.4, -0.0, 3.0, -1.5, 0.0],
                   [6.2, 0.0, -0.0, 1.0, -0.0, 0.0, -0.0]])


def signed_starts(case):
    # a frame lives on T^5: its starts are the first five coordinates
    return SIGNED[:, :5] if case in ("constants.json", "x1-section", "family") else SIGNED


@pytest.mark.parametrize("case", list(UNCHANGED))
@pytest.mark.parametrize("which", ["one", "negative-zero", "k", "none"])
@pytest.mark.parametrize("duration", [1.005, -1.005, 1.0, -1.0],
                         ids=["tail", "backward-tail", "no-tail", "backward-no-tail"])
def test_unchanged_field_path_is_the_stepping_loop(monkeypatch, case, which, duration):
    # bit for bit the loop's path, in chunks of 1, 16 and 35 coordinates and
    # the default: the mark changes the route, never a bit
    ev = unchanged_rhs(case)
    assert ev.constant
    starts = signed_starts(case)
    start = {"one": starts[0], "negative-zero": starts[1], "k": starts, "none": starts[:0]}[which]
    want = rk4_flow(stepped(ev), start, duration, 1e-2)
    for chunk in (integrate.CHUNK, 1, 16, 35):
        monkeypatch.setattr(integrate, "CHUNK", chunk)
        got = rk4_flow(ev, start, duration, 1e-2)
        assert got.shape == want.shape == (len(want), *np.shape(start))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(UNCHANGED))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_unchanged_field_refuses_a_non_finite_start_as_the_loop(case, value):
    # on any axis, read or moved, both routes meet NaN and raise the same error
    ev = unchanged_rhs(case)
    for axis in range(signed_starts(case).shape[1]):
        start = signed_starts(case)[0].copy()
        start[axis] = value
        messages = []
        for rhs in (ev, stepped(ev)):
            # numpy warns of 0 * inf in a phase and inf - inf in an estimate: expected here
            with np.errstate(invalid="ignore", over="ignore"), \
                    pytest.raises(StepSizeError) as err:
                rk4_flow(rhs, start, 0.05, 1e-2)
            messages.append(str(err.value))
        assert messages == ["local error nan exceeds 1.0e-06; reduce h=0.01"] * 2


def test_fields_that_read_what_they_move_are_stepped():
    cd = contact_data()
    sp = cd.space
    # the contact field of cos x2 moves x1 and reads it
    assert not hasattr(contact_rhs(lambda sp: Field.cos(sp, 1)), "constant")
    # y4' = y4 moves the fiber axis it reads
    assert not hasattr(stacked_evaluator(
        [Field.zero(sp)] * 5 + [Field.fiber_coordinate(sp, 0), Field.zero(sp)]), "constant")
    # the obstructed section's frame moves x1 and reads it
    assert not hasattr(frame_rhs(section_file("obstructed.json")), "constant")
    # flow_with_frame's list, the field and its Jacobian, is no vector field on
    # its space, even where the field alone is marked
    vf = ct.contact_vector_field(cd, Field.constant(sp, 1.0))
    assert stacked_evaluator(vf.components).constant
    assert not hasattr(stacked_evaluator(list(vf.components) + [
        comp.partial(j) for comp in vf.components for j in range(sp.dim)]), "constant")


def test_reeb_flow_calls_its_rhs_once():
    ev = unchanged_rhs("reeb")
    calls = []

    def counted(y):
        calls.append(np.array(y))
        return ev(y)

    counted.constant = ev.constant
    path = rk4_flow(counted, SIGNED[0], 0.35, 0.1)
    assert len(path) == 5 and len(calls) == 1
    assert calls[0].tobytes() == SIGNED[0].tobytes()
    calls.clear()
    assert rk4_flow(counted, SIGNED[0], 0.0, 0.1).tobytes() == SIGNED[0].tobytes()
    assert calls == []

"""Field algebra: exactness of the spectral operations and their contracts."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coisolab import fields
from coisolab.fields import Field, ShapeError, Space, VectorField, stacked_evaluator
from coisolab.verify import rand_field

T2 = Space(2, 0, 6, 0)
T5 = Space(5, 0, 8, 0)
M = Space(5, 2, 8, 2)
TWO_PI = 2 * math.pi


def rand_points(rng, space, n):
    x = rng.uniform(0, TWO_PI, size=(n, space.torus_dim))
    y = rng.uniform(-1, 1, size=(n, space.fiber_dim))
    return np.hstack([x, y])


# -- hypothesis strategy for small random fields ------------------------------

@st.composite
def small_fields(draw, space=T2, max_modes=3, max_freq=2):
    n = draw(st.integers(1, max_modes))
    modes = {}
    for _ in range(n):
        k = tuple(draw(st.integers(-max_freq, max_freq))
                  for _ in range(space.torus_dim))
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = 0.0 if not any(k) else draw(st.floats(-2, 2, allow_nan=False))
        modes[(k, ())] = modes.get((k, ()), 0) + complex(re, im)
    return Field.from_modes(space, modes)


# -- evaluate ------------------------------------------------------------------

def test_evaluate_sin():
    f = Field.sin(T5, 0)
    assert f.evaluate((math.pi / 2, 0, 0, 0, 0)) == pytest.approx(1.0, abs=1e-14)


def test_evaluate_zero_field():
    z = Field.zero(T5)
    assert z.evaluate((1.0, 2.0, 3.0, 4.0, 5.0)) == 0.0


def test_evaluate_simplification_oracle():
    # sin x1 cos^2 x2 + sin x1 sin^2 x2 == sin x1, pointwise
    s1, c2, s2 = Field.sin(T2, 0), Field.cos(T2, 1), Field.sin(T2, 1)
    combo = s1 * c2 * c2 + s1 * s2 * s2
    rng = np.random.default_rng(11)
    for p in rand_points(rng, T2, 10):
        assert combo.evaluate(p) == pytest.approx(math.sin(p[0]), abs=1e-12)


def test_evaluate_dimension_mismatch():
    with pytest.raises(ShapeError):
        Field.sin(T5, 0).evaluate((0.0, 0.0))


def test_evaluate_fiber_monomials():
    y4 = Field.fiber_coordinate(M, 0)
    f = y4 * y4 * Field.cos(M, 2)
    p = np.array([0.3, 0.1, 1.2, 0.0, 0.0, -0.7, 0.4])
    assert f.evaluate(p) == pytest.approx(0.49 * math.cos(1.2), abs=1e-13)


# -- stacked evaluator -----------------------------------------------------------

@pytest.mark.parametrize("space", [M, T5])
def test_stacked_evaluator_matches_evaluate(space):
    rng = np.random.default_rng(21)
    edge_k = (8, -8, 0, 3, 1)
    edge_m = (1, 1) if space.fiber_dim else ()
    stack = [rand_field(rng, space, n_modes=4, max_freq=3, fiber_deg=2) for _ in range(6)]
    stack += [Field.from_modes(space, {(edge_k, edge_m): 0.3 - 0.2j}),
              Field.zero(space), Field.constant(space, -1.5)]
    ev = stacked_evaluator(stack)
    for p in rand_points(rng, space, 10):
        want = np.array([f.evaluate(p) for f in stack])
        assert np.max(np.abs(ev(p) - want)) < 1e-13
    assert stacked_evaluator([Field.zero(space)])(np.ones(space.dim)).tolist() == [0.0]


def hexes(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


@pytest.mark.parametrize("space", [M, T5])
def test_stacked_evaluator_stack_rows_are_single_calls(space):
    # a stack goes through batched matmul, one gemv a point: each row of its
    # values has the bits of that point's own call
    rng = np.random.default_rng(23)
    stack = [rand_field(rng, space, n_modes=5, max_freq=4, fiber_deg=2) for _ in range(7)]
    ev = stacked_evaluator(stack)
    for shape in [(0,), (1,), (6,), (2, 6)]:
        points = rand_points(rng, space, math.prod(shape)).reshape(*shape, space.dim)
        values = ev(points)
        assert values.shape == (*shape, len(stack))
        for point, row in zip(points.reshape(-1, space.dim), values.reshape(-1, len(stack))):
            assert hexes(row) == hexes(ev(point))
    with pytest.raises(ShapeError):
        ev(np.zeros((2, 3, space.dim + 1)))
    with pytest.raises(ShapeError):
        ev(np.zeros((space.dim, 2)))


def test_stacked_evaluator_rejects_bad_input(monkeypatch):
    p = np.array([0.3, 0.1, 1.2, 0.0, 0.0, -0.7, 0.4])
    with pytest.raises(ShapeError):
        stacked_evaluator([Field.sin(M, 0)])(p[:5])
    with pytest.raises(ShapeError):
        stacked_evaluator([Field.sin(M, 0), Field.sin(T5, 0)])
    monkeypatch.setattr(fields, "STRICT", False)
    lopsided = Field(M, {((1, 0, 0, 0, 0), (0, 0)): 1.0 + 0.0j})   # no conjugate mate
    with pytest.raises(ShapeError):
        lopsided.evaluate(p)
    with pytest.raises(ShapeError):
        stacked_evaluator([Field.sin(M, 0), lopsided])(p)
    # lopsided is exp(i x1), real at x1 = 0: one point of a stack off it raises
    real_rows = np.tile(p, (2, 3, 1))
    real_rows[..., 0] = 0.0
    ev = stacked_evaluator([Field.sin(M, 0), lopsided])
    assert ev(real_rows)[..., 1].tolist() == [[1.0] * 3] * 2
    real_rows[1, 2, 0] = 0.3
    with pytest.raises(ShapeError):
        ev(real_rows)


# -- partial -------------------------------------------------------------------

def test_partial_sin_is_cos():
    d = Field.sin(T5, 0).partial(0) - Field.cos(T5, 0)
    assert d.is_zero()


def test_partial_independent_axis():
    assert Field.cos(T5, 1).partial(3).is_zero()


def test_partial_fiber_axis():
    # d(y4 sin x5)/dy4 = sin x5
    f = Field.fiber_coordinate(M, 0) * Field.sin(M, 4)
    assert (f.partial(5) - Field.sin(M, 4)).is_zero()


@given(small_fields())
@settings(max_examples=60, deadline=None)
def test_partials_commute_exactly(f):
    ab = f.partial(0).partial(1)
    ba = f.partial(1).partial(0)
    assert ab.coeffs == ba.coeffs


# -- multiply ------------------------------------------------------------------

def test_pythagorean_identity():
    s, c = Field.sin(T5, 1), Field.cos(T5, 1)
    assert ((s * s + c * c) - Field.constant(T5, 1.0)).is_zero()


def test_multiply_by_zero():
    assert (Field.cos(T5, 0) * Field.zero(T5)).is_zero()


def test_multiply_pointwise_oracle():
    f, g = Field.cos(T2, 0), Field.cos(T2, 1)
    prod = f * g
    rng = np.random.default_rng(3)
    for p in rand_points(rng, T2, 20):
        assert prod.evaluate(p) == pytest.approx(
            f.evaluate(p) * g.evaluate(p), abs=1e-12)


def test_multiply_truncation_loss_recorded():
    tight = Space(1, 0, 1, 0)
    s = Field.sin(tight, 0)
    prod = s * s  # e^{2ix} modes escape the box
    assert prod.trunc_loss > 0
    # the surviving part is the constant 1/2
    assert (prod - Field.constant(tight, 0.5)).max_abs() < 1e-14


def test_multiply_by_number_zero_keeps_loss():
    f = Field(T5, Field.sin(T5, 0).coeffs, trunc_loss=0.25)
    assert (f * 0).is_zero()
    assert (f * 0).trunc_loss == f.trunc_loss == 0.25


@given(small_fields(), small_fields())
@settings(max_examples=40, deadline=None)
def test_leibniz_rule(f, g):
    prod_rule = f.partial(0) * g + f * g.partial(0)
    direct = (f * g).partial(0)
    if direct.trunc_loss == 0 and prod_rule.trunc_loss == 0:
        assert (direct - prod_rule).max_abs() < 1e-10
    # with loss the rule holds only up to the recorded mass
    else:
        bound = direct.trunc_loss + prod_rule.trunc_loss
        # the derivative scales escaped modes by at most the box corner
        bound *= 4 * T2.trunc_order
        assert (direct - prod_rule).max_abs() <= bound + 1e-10


@given(small_fields(), small_fields())
@settings(max_examples=40, deadline=None)
def test_evaluate_of_product(f, g):
    prod = f * g
    rng = np.random.default_rng(5)
    for p in rand_points(rng, T2, 4):
        expect = f.evaluate(p) * g.evaluate(p)
        assert prod.evaluate(p) == pytest.approx(
            expect, abs=1e-12 * max(1, abs(expect)) + prod.trunc_loss)


# -- integration ----------------------------------------------------------------

def test_integrate_independent_integrand():
    f = Field.sin(T5, 0)
    out = f.integrate_torus({3, 4})
    assert (out - f * TWO_PI ** 2).max_abs() < 1e-12


def test_integrate_full_period_vanishes():
    assert Field.cos(T5, 3).integrate_torus({3, 4}).is_zero()


def test_integrate_trapezoid_oracle():
    f = Field.sin(T5, 0) + Field.cos(T5, 3) * Field.sin(T5, 4)
    out = f.integrate_torus({3, 4})
    # independent oracle: 64x64 trapezoid quadrature over the (x4, x5) torus
    n = 64
    grid = np.arange(n) * TWO_PI / n
    rng = np.random.default_rng(17)
    for p in rand_points(rng, T5, 5):
        total = 0.0
        for a in grid:
            for b in grid:
                q = np.array([p[0], p[1], p[2], a, b])
                total += f.evaluate(q)
        total *= (TWO_PI / n) ** 2
        assert out.evaluate(p) == pytest.approx(total, abs=1e-10)


def test_integrate_fiber_axis_rejected():
    y4 = Field.fiber_coordinate(M, 0)
    with pytest.raises(ShapeError):
        y4.integrate_torus({5})


@given(small_fields())
@settings(max_examples=40, deadline=None)
def test_stokes_on_torus(f):
    # integral of a derivative along an integrated axis is exactly zero
    assert f.partial(0).integrate_torus({0}).is_zero()


def test_drop_torus_axes():
    f = Field.sin(T5, 0)
    small = f.integrate_torus({3, 4}).drop_torus_axes({3, 4})
    assert small.space.torus_dim == 3
    assert small.evaluate((0.4, 0, 0)) == pytest.approx(
        TWO_PI ** 2 * math.sin(0.4), abs=1e-10)
    with pytest.raises(ShapeError):
        Field.cos(T5, 3).drop_torus_axes({3})


# -- vector fields ----------------------------------------------------------------

def xy_frame_t5():
    z = Field.zero(T5)
    X = VectorField([z, Field.cos(T5, 0), -Field.sin(T5, 0), z, z])
    Y = VectorField([z, Field.sin(T5, 0), Field.cos(T5, 0), z, z])
    return X, Y


def test_apply_vector_field_chain_rule():
    X, Y = xy_frame_t5()
    got = X(Field.sin(T5, 1))
    want = Field.cos(T5, 0) * Field.cos(T5, 1)
    assert (got - want).is_zero()
    got = Y(Field.cos(T5, 1))
    want = -(Field.sin(T5, 0) * Field.sin(T5, 1))
    assert (got - want).is_zero()


def test_apply_vector_field_constant():
    X, _ = xy_frame_t5()
    assert X(Field.constant(T5, 3.0)).is_zero()


def test_apply_keeps_loss_of_zero_component():
    # a component that lost all its mass to truncation is zero but not exact
    lossy = Field(T5, None, trunc_loss=0.5)
    one = Field.constant(T5, 1.0)
    z = Field.zero(T5)
    got = VectorField([lossy, one, z, z, z]).apply(Field.sin(T5, 0))
    assert got.is_zero() and got.trunc_loss == 0.5


def test_vector_field_shape_mismatch():
    X, _ = xy_frame_t5()
    with pytest.raises(ShapeError):
        X(Field.sin(T2, 0))


# -- hermitian symmetry / reality ------------------------------------------------

@given(small_fields(), small_fields())
@settings(max_examples=40, deadline=None)
def test_hermitian_preserved_by_ops(f, g):
    # conftest turns STRICT on, so constructing these validates the symmetry;
    # accumulation order may differ between a mode and its mirror, so the
    # match is to machine precision rather than bitwise
    for h in (f + g, f * g, f.partial(0), -f, f - g, f * 2.5):
        for (k, m), c in h.coeffs.items():
            mate = h.coeffs.get((tuple(-a for a in k), m), 0.0)
            assert abs(mate - c.conjugate()) <= 1e-13 * max(1.0, abs(c))


def test_zero_normalization_prunes():
    f = Field.from_modes(T2, {((1, 0), ()): 1e-15})
    assert f.is_zero()
    assert not f.coeffs


# -- serialization ----------------------------------------------------------------

def test_json_roundtrip():
    f = Field.sin(T5, 0) * 2.0 + Field.cos(T5, 2) * Field.sin(T5, 3)
    back = Field.from_json_dict(json.loads(json.dumps(f.to_json_dict())))
    assert back.space == f.space
    assert (back - f).max_abs() < 1e-15


def test_json_stores_one_representative():
    f = Field.sin(T5, 0)
    data = f.to_json_dict()
    assert len(data["terms"]) == 1
    assert len(f.coeffs) == 2


def test_norms():
    f = Field.sin(T5, 0)
    assert f.l2_norm() == pytest.approx(TWO_PI ** 2.5 * math.sqrt(0.5))
    with pytest.raises(ShapeError):
        (Field.fiber_coordinate(M, 0)).l2_norm()


# -- packed kernel against the tuple-key reference ---------------------------------
#
# The reference below is the tuple-keyed implementation the packed kernel
# replaced.  Every operation must reproduce it bit for bit: same keys in the
# same order, the same coefficient bits and the same trunc_loss.

T3_EDGE = Space(3, 0, 2, 0)
M_EDGE = Space(5, 2, 2, 2)   # small boxes, so that products escape them


@st.composite
def box_fields(draw, space):
    """Hermitian fields with modes in a box of random size up to the whole
    truncation box, its edge included."""
    freq, deg = draw(st.integers(0, space.trunc_order)), draw(st.integers(0, space.poly_deg))
    modes = {}
    for _ in range(draw(st.integers(0, 4))):
        k = tuple(draw(st.integers(-freq, freq)) for _ in range(space.torus_dim))
        m, left = [], deg
        for _ in range(space.fiber_dim):
            m.append(draw(st.integers(0, left)))
            left -= m[-1]
        re = draw(st.floats(-2, 2, allow_nan=False))
        im = draw(st.floats(-2, 2, allow_nan=False)) if any(k) else 0.0
        key = (k, tuple(m))
        modes[key] = modes.get(key, 0.0) + complex(re, im)
    return Field.from_modes(space, modes)


def ref(f):
    return dict(f.coeffs.items()), f.trunc_loss


def ref_clean(coeffs):
    return {key: c for key, c in coeffs.items() if not abs(c) < fields.PRUNE_TOL}


def ref_mul_into(dst, sp, ac, bc, scale=1):
    if not ac or not bc:
        return 0.0
    if len(ac) > len(bc):
        ac, bc = bc, ac
    loss = 0.0
    for (k1, m1), c1 in ac.items():
        c1 *= scale
        for (k2, m2), c2 in bc.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            m = tuple(a + b for a, b in zip(m1, m2))
            c = c1 * c2
            if any(abs(p) > sp.trunc_order for p in k) or sum(m) > sp.poly_deg:
                loss += abs(c)
                continue
            dst[(k, m)] = dst.get((k, m), 0.0) + c
    return loss


def ref_mul(sp, a, b):
    out = {}
    loss = ref_mul_into(out, sp, a[0], b[0])
    return ref_clean(out), a[1] + b[1] + loss


def ref_add(a, b, sign=1):
    out = dict(a[0])
    for key, c in b[0].items():
        out[key] = out.get(key, 0.0) + (c if sign == 1 else sign * c)
    return ref_clean(out), a[1] + b[1]


def ref_partial(sp, a, axis):
    out = {}
    for (k, m), c in a[0].items():
        if axis < sp.torus_dim:
            if k[axis]:
                out[(k, m)] = 1j * k[axis] * c
        else:
            fa = axis - sp.torus_dim
            if m[fa]:
                key = (k, tuple(v - 1 if i == fa else v for i, v in enumerate(m)))
                out[key] = out.get(key, 0.0) + m[fa] * c
    return ref_clean(out), a[1]


def bits(coeffs):
    return [(key, c.real.hex(), c.imag.hex()) for key, c in coeffs.items()]


def drop_below(h, tol):
    """h without its coefficients of modulus below tol."""
    return fields._field(h.space, {k: c for k, c in h.packed.items() if abs(c) >= tol},
                         h.trunc_loss, h.bounds)


def assert_same(field, want):
    assert bits(field.coeffs) == bits(want[0])
    assert field.trunc_loss == want[1]


@pytest.mark.parametrize("space", [T3_EDGE, M_EDGE], ids=["T3", "T5xR2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_kernel_matches_tuple_reference(space, data):
    f, g, h = (data.draw(box_fields(space)) for _ in range(3))
    rf, rg, rh = ref(f), ref(g), ref(h)
    fg, rfg = f * g, ref_mul(space, rf, rg)   # lossy, with capped bounds
    assert_same(fg, rfg)
    assert_same(fg * h, ref_mul(space, rfg, rh))
    # results feed further products, so that their propagated bounds matter
    assert_same((fg + h) * g, ref_mul(space, ref_add(rfg, rh), rg))
    rbig = {key: c for key, c in rfg[0].items() if abs(c) >= 0.5}, rfg[1]
    assert_same(drop_below(fg, 0.5) * h, ref_mul(space, rbig, rh))
    assert_same(f - fg, ref_add(rf, (ref_clean({k: -c for k, c in rfg[0].items()}), rfg[1])))
    for axis in range(space.dim):
        assert_same(fg.partial(axis), ref_partial(space, rfg, axis))
        assert_same(fg.partial(axis) * h, ref_mul(space, ref_partial(space, rfg, axis), rh))

    acc, dst = fields.FieldSum(), {}
    acc.add(fg, -1)
    acc.add_product(g, h, -1)
    acc.add_product(h, f)
    for key, c in rfg[0].items():
        dst[key] = dst.get(key, 0.0) + -1 * c
    loss = rfg[1] + rg[1] + rh[1] + ref_mul_into(dst, space, rg[0], rh[0], -1)
    loss += rh[1] + rf[1] + ref_mul_into(dst, space, rh[0], rf[0])
    rsum = ref_clean(dst), loss
    assert_same(acc.field(space), rsum)
    assert_same(acc.field(space) * g, ref_mul(space, rsum, rg))

    axes = (1, 2)
    integrated = fg.integrate_torus(axes)
    want = {key: TWO_PI ** 2 * c for key, c in rfg[0].items()
            if all(key[0][a] == 0 for a in axes)}
    assert_same(integrated, (want, rfg[1]))
    dropped = integrated.drop_torus_axes(axes)
    assert dropped.space == Space(space.torus_dim - 2, space.fiber_dim,
                                  space.trunc_order, space.poly_deg)
    assert_same(dropped, ({((k[0],) + k[3:], m): c for (k, m), c in want.items()}, rfg[1]))
    big = Space(space.torus_dim + 1, space.fiber_dim, space.trunc_order + 1, space.poly_deg + 1)
    assert_same(fg.promote(big), ({(k + (0,), m): c for (k, m), c in rfg[0].items()}, rfg[1]))


@pytest.mark.parametrize("space", [T3_EDGE, M_EDGE], ids=["T3", "T5xR2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_keys_order_and_sum(space, data):
    modes = [mode for f in (data.draw(box_fields(space)) for _ in range(2)) for mode in f.coeffs]
    for mode in modes:
        assert space.unpack(space.pack(*mode)) == mode
    # integer order is lexicographic (k, m) order
    assert sorted(modes, key=lambda mode: space.pack(*mode)) == sorted(modes)
    # two keys sum to the summed mode's key plus the key of the zero mode
    for (k1, m1) in modes:
        for (k2, m2) in modes:
            k = tuple(a + b for a, b in zip(k1, k2))
            m = tuple(a + b for a, b in zip(m1, m2))
            if max(map(abs, k), default=0) <= space.trunc_order and sum(m) <= space.poly_deg:
                assert (space.pack(k1, m1) + space.pack(k2, m2) - space.zero_key
                        == space.pack(k, m))


def test_construction_validates_keys_without_strict(monkeypatch):
    monkeypatch.setattr(fields, "STRICT", False)
    for key in [((3, 0, 0), ()), ((1, 0), ()), ((0,) * 5, (2, 1)), ((0,) * 5, (-1, 0))]:
        space = T3_EDGE if not key[1] else M_EDGE
        with pytest.raises(ShapeError):
            Field(space, {key: 1.0})


def test_strict_check_refuses_planted_violations():
    # _field takes packed keys as given; under STRICT each result is
    # re-checked, so a coefficient without its conjugate mate and a
    # Hermitian pair of keys outside the box are both refused
    assert fields.STRICT
    key = T5.pack((1, 2, 0, 0, 0), ())
    with pytest.raises(ShapeError, match="Hermitian symmetry violated"):
        fields._field(T5, {key: 0.5 + 0.25j}, 0.0, (2, 0))
    # the keys of k1 = +-k decode for k = N + 1 too, each the other's mate
    def pair(k):
        step = k * T5.weights[0]
        return {T5.zero_key + step: 0.5j, T5.zero_key - step: -0.5j}
    n = T5.trunc_order
    assert fields._field(T5, pair(n), 0.0, (n, 0)).packed == pair(n)
    with pytest.raises(ShapeError, match="outside truncation box"):
        fields._field(T5, pair(n + 1), 0.0, (n + 1, 0))


@pytest.mark.parametrize("nudge, refused", [(1e-9, True), (1e-13, False)])
def test_strict_check_tolerance_inside_a_large_field(nudge, refused):
    # the int64 check scans every key at once; one coefficient off its
    # mate's conjugate by more than 1e-12 * max(1, |c|) is still refused
    rng = np.random.default_rng(5)
    f = rand_field(rng, M, n_modes=6, max_freq=2, fiber_deg=2)
    f = f * f
    packed = dict(f.packed)
    key = next(key for key in packed if key != M.mate(key))
    packed[key] += nudge
    if refused:
        with pytest.raises(ShapeError, match="Hermitian symmetry violated"):
            fields._field(M, packed, 0.0, f.bounds)
    else:
        assert fields._field(M, packed, 0.0, f.bounds).packed == packed


def test_strict_check_on_keys_beyond_int64():
    # the keys of this space exceed int64, so the scalar scan checks them
    wide = Space(5, 0, 2000, 0)
    assert wide.zero_key >= 2 ** 63
    assert (Field.sin(wide, 0) * Field.cos(wide, 1)).max_abs() == 0.25
    key = wide.pack((1, 2, 0, 0, 0), ())
    with pytest.raises(ShapeError, match="Hermitian symmetry violated"):
        fields._field(wide, {key: 0.5 + 0.25j}, 0.0, (2, 0))

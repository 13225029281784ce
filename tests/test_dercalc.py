"""Der-complex operators: examples with known closed forms, the contracting
homotopy, and the defining-formula cross-validations."""

import math

import numpy as np
import pytest

from coisolab.dercalc import (AtiyahForm, Derivation, Form, is_basic,
                              pullback_reduction)
from coisolab.fields import Field, ShapeError, Space, VectorField
from coisolab.verify import (d_via_definition, lie_via_definition, rand_atiyah,
                             rand_derivation, rand_field)

T3 = Space(3, 0, 8, 0)
T5 = Space(5, 0, 8, 0)
M = Space(5, 2, 8, 2)


def contact_theta(space=M):
    comps = {(1,): Field.sin(space, 0), (2,): Field.cos(space, 0)}
    if space.fiber_dim == 2:
        comps[(3,)] = Field.fiber_coordinate(space, 0)
        comps[(4,)] = Field.fiber_coordinate(space, 1)
    return Form(space, 1, comps)


def theta_pair(space=M):
    th = contact_theta(space)
    return AtiyahForm(th.d(), th)


def d1(space, axis):
    return Derivation(VectorField.basis(space, axis), Field.zero(space))


# -- commutator -----------------------------------------------------------------

def test_identity_is_central():
    box = d1(T3, 0)
    one = Derivation.identity(T3)
    c = box.commutator(one)
    assert c.symbol.max_abs() == 0 and c.scalar.is_zero()


def test_commutator_scalar_part():
    box = d1(T3, 0)
    mult = Derivation(VectorField.zero(T3), Field.sin(T3, 0))
    c = box.commutator(mult)
    assert c.symbol.max_abs() == 0
    assert (c.scalar - Field.cos(T3, 0)).is_zero()
    # oracle: act both sides on random sections
    rng = np.random.default_rng(2)
    for _ in range(5):
        lam = rand_field(rng, T3)
        p = rng.uniform(0, 2 * math.pi, 3)
        lhs = box.apply(mult.apply(lam)) - mult.apply(box.apply(lam))
        assert lhs.evaluate(p) == pytest.approx(c.apply(lam).evaluate(p), abs=1e-12)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(4)
    box = rand_derivation(rng, T3)
    c = box.commutator(box)
    assert c.symbol.max_abs() < 1e-14 and c.scalar.max_abs() < 1e-14


def test_commutator_base_mismatch():
    with pytest.raises(ShapeError):
        d1(T3, 0).commutator(d1(T5, 0))


# -- apply ------------------------------------------------------------------------

def test_apply_identity():
    lam = Field.sin(T3, 1) * 2.0
    assert (Derivation.identity(T3).apply(lam) - lam).is_zero()


def test_apply_coordinate_derivation():
    got = d1(T3, 0).apply(Field.sin(T3, 0))
    assert (got - Field.cos(T3, 0)).is_zero()


def test_apply_with_scalar_part():
    box = Derivation(VectorField.basis(T3, 1), Field.cos(T3, 0))
    got = box.apply(Field.sin(T3, 1))
    want = Field.cos(T3, 1) + Field.cos(T3, 0) * Field.sin(T3, 1)
    rng = np.random.default_rng(6)
    for p in rng.uniform(0, 2 * math.pi, size=(5, 3)):
        assert got.evaluate(p) == pytest.approx(want.evaluate(p), abs=1e-12)


def test_apply_leibniz():
    rng = np.random.default_rng(8)
    box = rand_derivation(rng, T3)
    f, lam = rand_field(rng, T3), rand_field(rng, T3)
    lhs = box.apply(f * lam)
    rhs = box.symbol.apply(f) * lam + f * box.apply(lam)
    assert (lhs - rhs).max_abs() < 1e-12


# -- differential -----------------------------------------------------------------

def test_d_of_unit_section():
    one = AtiyahForm.of_section(Field.constant(T3, 1.0))
    d = one.d()
    assert d.alpha.is_zero()
    assert (d.beta.component(()) - Field.constant(T3, 1.0)).is_zero()


def test_d_squared_zero_random():
    rng = np.random.default_rng(10)
    for deg in (0, 1, 2):
        eta = rand_atiyah(rng, T3, deg)
        assert eta.d().d().max_abs() == 0.0


def test_d_annihilates_contact_pair():
    assert theta_pair().d().is_zero()


def test_d_cross_validated_against_koszul():
    rng = np.random.default_rng(12)
    for deg in (0, 1, 2):
        for _ in range(5):
            eta = rand_atiyah(rng, T3, deg)
            boxes = [rand_derivation(rng, T3, n_modes=1) for _ in range(deg + 1)]
            split = eta.d().evaluate_on(boxes)
            assert (split - d_via_definition(eta, boxes)).max_abs() < 1e-10


# -- contraction -------------------------------------------------------------------

def test_contract_with_identity():
    eta = theta_pair()
    got = eta.contract(Derivation.identity(M))
    assert (got.alpha - eta.beta).max_abs() == 0.0
    assert got.beta.is_zero()


def test_contract_d4_on_contact_pair():
    got = theta_pair().contract(d1(M, 3))
    # expected (-dy4, -y4)
    want_alpha = Form(M, 1, {(5,): Field.constant(M, -1.0)})
    want_beta = Form.scalar(-Field.fiber_coordinate(M, 0))
    assert (got.alpha - want_alpha).max_abs() == 0.0
    assert (got.beta - want_beta).max_abs() == 0.0
    # oracle: the evaluation contract on random derivation tuples
    rng = np.random.default_rng(14)
    box = d1(M, 3)
    eta = theta_pair()
    for _ in range(5):
        probe = rand_derivation(rng, M)
        p = np.concatenate([rng.uniform(0, 2 * math.pi, 5), rng.uniform(-1, 1, 2)])
        lhs = eta.evaluate_on([box, probe]).evaluate(p)
        rhs = got.evaluate_on([probe]).evaluate(p)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_contract_squares_to_zero():
    rng = np.random.default_rng(16)
    eta = rand_atiyah(rng, T3, 3)
    box = rand_derivation(rng, T3)
    assert eta.contract(box).contract(box).max_abs() < 1e-13


def test_contract_zero_form_is_zero():
    # forms of negative degree are zero, so contracting a section gives zero
    # and the homotopy [d, iota_1] = id holds on sections too
    lam = Field.sin(T3, 0)
    eta = AtiyahForm.of_section(lam)
    got = eta.contract(d1(T3, 0))
    assert got.degree == -1 and got.is_zero() and got.beta.degree == -2
    assert Form.scalar(lam).contract(VectorField.basis(T3, 0)).is_zero()
    one = Derivation.identity(T3)
    h = eta.d().contract(one) + eta.contract(one).d() - eta
    assert h.is_zero()
    with pytest.raises(ShapeError):
        Form(T3, -1, {(): lam})


@pytest.mark.parametrize("alpha, beta", [
    (Form(T3, 2), Form(T3, 2)),            # degree k where k - 1 is due
    (Form(T3, 2), Form(T5, 1)),            # another space
    (Form.scalar(Field.sin(T3, 0)), Form.scalar(Field.sin(T3, 1))),  # a section's is -1
])
def test_atiyah_beta_of_wrong_degree_or_space_rejected(alpha, beta):
    with pytest.raises(ShapeError):
        AtiyahForm(alpha, beta)
    assert AtiyahForm(alpha).beta.degree == alpha.degree - 1


# -- lie derivative -----------------------------------------------------------------

def test_lie_identity_derivation_on_closed_pair():
    eta = theta_pair()
    got = eta.lie(Derivation.identity(M))
    assert (got - eta).max_abs() == 0.0


def test_lie_commutes_with_d():
    rng = np.random.default_rng(18)
    for _ in range(5):
        lam = rand_field(rng, T3)
        box = rand_derivation(rng, T3)
        eta = AtiyahForm.of_section(lam)
        lhs = eta.d().lie(box)
        rhs = AtiyahForm.of_section(box.apply(lam)).d()
        assert (lhs - rhs).max_abs() < 1e-12


def test_lie_vertical_on_base_pair():
    # the reduced-type pair on T^5 is independent of x4, x5
    eta = theta_pair(T5)
    for axis in (3, 4):
        assert eta.lie(d1(T5, axis)).max_abs() == 0.0


def test_lie_matches_defining_formula():
    rng = np.random.default_rng(20)
    for deg in (0, 1, 2):
        eta = rand_atiyah(rng, T3, deg)
        box = rand_derivation(rng, T3)
        probes = [rand_derivation(rng, T3, n_modes=1) for _ in range(deg)]
        lhs = eta.lie(box).evaluate_on(probes)
        assert (lhs - lie_via_definition(eta, box, probes)).max_abs() < 1e-10


# -- contracting homotopy --------------------------------------------------------------

def test_homotopy_identity_all_degrees():
    rng = np.random.default_rng(22)
    one = Derivation.identity(T3)
    for deg in (0, 1, 2, 3):
        for _ in range(8):
            eta = rand_atiyah(rng, T3, deg)
            if deg > 0:
                h = eta.d().contract(one) + eta.contract(one).d()
            else:
                h = eta.d().contract(one)
            assert (h - eta).max_abs() < 1e-10


# -- pullback and basic forms -----------------------------------------------------------

def test_pullback_of_reduced_contact_pair():
    sp_b = Space(3, 0, 8, 0)
    eta_b = theta_pair(sp_b)
    eta_s = theta_pair(T5)
    pulled = pullback_reduction(eta_b, T5)
    assert (pulled - eta_s).max_abs() == 0.0


def test_pullback_of_zero():
    z = AtiyahForm(Form(Space(3, 0, 8, 0), 2))
    assert pullback_reduction(z, T5).is_zero()


def test_pullback_is_dg_morphism():
    rng = np.random.default_rng(24)
    sp_b = Space(3, 0, 8, 0)
    for deg in (0, 1, 2):
        eta = rand_atiyah(rng, sp_b, deg)
        lhs = pullback_reduction(eta, T5).d()
        rhs = pullback_reduction(eta.d(), T5)
        assert (lhs - rhs).max_abs() == 0.0


def test_is_basic_on_reduced_pair():
    ok, defect = is_basic(theta_pair(T5), fiber_axes=(3, 4))
    assert ok and defect == 0.0


def test_is_basic_rejects_dx4_component():
    eta_s = theta_pair(T5)
    spoiled = AtiyahForm(
        eta_s.alpha,
        eta_s.beta + Form(T5, 1, {(3,): Field.sin(T5, 0)}))
    ok, defect = is_basic(spoiled, fiber_axes=(3, 4))
    assert not ok and defect > 0.1


def test_pullbacks_are_basic():
    rng = np.random.default_rng(26)
    sp_b = Space(3, 0, 8, 0)
    for deg in (1, 2):
        eta = rand_atiyah(rng, sp_b, deg)
        ok, defect = is_basic(pullback_reduction(eta, T5), fiber_axes=(3, 4))
        assert ok and defect == 0.0


# -- truncation loss --------------------------------------------------------------------

def lossy_sin(space=T3, loss=0.25):
    return Field(space, Field.sin(space, 0).coeffs, trunc_loss=loss)


def test_cancelling_form_keeps_loss():
    f = lossy_sin()
    F = Form(T3, 1, {(0,): f})
    assert (F - F).is_zero()
    assert (F - F).trunc_loss == (f - f).trunc_loss == 0.5


def test_form_keeps_loss_of_zero_component():
    F = Form(T3, 2, {(0, 1): Field(T3, None, trunc_loss=0.25)})
    assert F.is_zero() and F.trunc_loss == 0.25
    assert F.d().trunc_loss == 0.25


def test_contract_keeps_loss_of_zero_component():
    z = Field.zero(T3)
    V = VectorField([Field(T3, None, trunc_loss=0.5), z, z])
    got = Form(T3, 1, {(0,): Field.sin(T3, 0)}).contract(V)
    assert got.is_zero() and got.trunc_loss == 0.5


# -- subtraction and internally built forms -----------------------------------------

def field_bits(f):
    """A field to the bit: keys in order, each coefficient's parts as
    float.hex (signed zeros included), its loss and its bounds."""
    return ([(key, c.real.hex(), c.imag.hex()) for key, c in f.packed.items()],
            f.trunc_loss.hex(), f.bounds)


def form_bits(form):
    return form.space, form.degree, [(idx, field_bits(f)) for idx, f in form.comps.items()]


def atiyah_bits(eta):
    return form_bits(eta.alpha), form_bits(eta.beta)


def signed_zero_fields(space=T3):
    """Two fields whose coefficients have signed-zero parts, sharing one
    mode pair and each with a pair of its own."""
    k, l, n = ((1, 0, 0), ()), ((-1, 0, 0), ()), ((0, 1, 0), ())
    nl = ((0, -1, 0), ())
    a = Field(space, {k: complex(-0.0, 0.5), l: complex(-0.0, -0.5),
                      n: complex(0.25, 0.0), nl: complex(0.25, -0.0)})
    b = Field(space, {k: complex(0.0, 0.5), l: complex(0.0, -0.5),
                      ((0, 0, 1), ()): complex(-0.0, 0.75), ((0, 0, -1), ()): complex(-0.0, -0.75)},
              trunc_loss=0.125)
    return a, b


@pytest.mark.parametrize("seed", range(4))
def test_fused_subtraction_matches_adding_the_negation(seed):
    # rand_field draws 4 of T^3's 27 unit modes, so operands share some
    # keys and own others
    rng = np.random.default_rng(seed)
    f, g = (rand_field(rng, T3, n_modes=4) for _ in range(2))
    lossy = Field(T3, f.coeffs, trunc_loss=0.25)
    zero = Field.zero(T3)
    pairs = [(f, g), (g, f), (f, f), (lossy, g), (lossy, lossy), (f, zero), (zero, g),
             signed_zero_fields(), signed_zero_fields()[::-1]]
    for a, b in pairs:
        assert field_bits(a - b) == field_bits(a + (-b))
    for deg in range(4):
        x, y = (rand_atiyah(rng, T3, deg) for _ in range(2))
        for a, b in ((x, y), (y, x), (x, x), (x, AtiyahForm(Form(T3, deg)))):
            assert atiyah_bits(a - b) == atiyah_bits(a + (-b))
            assert form_bits(a.alpha - b.alpha) == form_bits(a.alpha + (-b.alpha))


def test_form_subtraction_rejects_mismatch():
    with pytest.raises(ShapeError):
        Form(T3, 1) - Form(T3, 2)
    with pytest.raises(ShapeError):
        Form(T3, 1) - Form(T5, 1)


@pytest.mark.parametrize("seed", range(3))
def test_internal_forms_equal_validated_forms(seed):
    # the operators build their results without re-validating index
    # tuples; Form(...) validates and must keep the very same components
    rng = np.random.default_rng(seed)
    for deg in range(4):
        x, y = (rand_atiyah(rng, T3, deg) for _ in range(2))
        box = rand_derivation(rng, T3)
        a, b = x.alpha, y.alpha
        for form in (a.d(), a.contract(box.symbol), a + b, a - b, a - a, -a,
                     a * 2.5, a * box.scalar, x.d().alpha, x.contract(box).beta,
                     x.lie(box).alpha):
            validated = Form(form.space, form.degree, form.comps)
            assert form_bits(validated) == form_bits(form)

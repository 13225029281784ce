"""Cartan calculus on the derivation algebroid of a trivialized line bundle.

Over a trivialized line bundle L = M x R a derivation is a pair (X, a) of a
vector field and a scalar multiplier, acting on sections (scalar fields) by
X(lam) + a*lam.  Forms valued in L split accordingly: a degree-k Atiyah form
is a pair (alpha, beta) with alpha an ordinary k-form and beta a (k-1)-form,
evaluated on derivations (X_i, a_i) as

    eta(b_1, ..., b_k) = alpha(X_1, ..., X_k)
                         + sum_i (-1)^(i+1) a_i * beta(X_1, ..no X_i.., X_k)

In this splitting the structural operators are

    d(alpha, beta)      = (d alpha, alpha - d beta)
    iota_(X,a)(al, be)  = (iota_X al + a*be, -iota_X be)
    lie_b               = d o iota_b + iota_b o d

Forms of negative degree are zero (no index tuple has negative length), so
a section lam is the Atiyah form (lam, 0), contracting a section gives zero,
and these formulas hold in every degree, sections included.

The differential's shape is pinned down by the contracting-homotopy identity
[d, iota_1] = id for the identity derivation 1 = (0, 1); the test suite
cross-validates it against the intrinsic Koszul formula on random derivation
tuples.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from .fields import Field, FieldSum, ShapeError, Space, VectorField

BASIC_TOL = 1e-10   # largest coefficient is_basic still counts as zero


def _insert_axis(idx: tuple, axis: int):
    """Insert axis into a strictly increasing tuple; returns (tuple, sign)
    with sign = (-1)^position, or (None, 0) if axis already present."""
    if axis in idx:
        return None, 0
    pos = sum(1 for i in idx if i < axis)
    out = idx[:pos] + (axis,) + idx[pos:]
    return out, (-1) ** pos


class Form:
    """Ordinary exterior form with Field coefficients, stored sparsely on
    strictly increasing index tuples; a form of negative degree is zero."""

    __slots__ = ("space", "degree", "comps")

    def __init__(self, space: Space, degree: int, comps: Mapping | None = None):
        cleaned = {}
        if comps:
            for idx, f in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or any(i < 0 or i >= space.dim for i in idx):
                    raise ShapeError(f"bad index tuple {idx} for degree {degree}")
                if list(idx) != sorted(set(idx)):
                    raise ShapeError(f"index tuple {idx} not strictly increasing")
                if f.space != space:
                    raise ShapeError("component space mismatch")
                # a zero component is kept while it carries truncation loss
                if f.packed or f.trunc_loss:
                    cleaned[idx] = f
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    @classmethod
    def scalar(cls, field: Field) -> "Form":
        return cls(field.space, 0, {(): field})

    def component(self, idx) -> Field:
        return self.comps.get(tuple(idx), Field.zero(self.space))

    def is_zero(self) -> bool:
        return not any(f.packed for f in self.comps.values())

    def max_abs(self) -> float:
        return max((f.max_abs() for f in self.comps.values()), default=0.0)

    @property
    def trunc_loss(self) -> float:
        return sum(f.trunc_loss for f in self.comps.values())

    def __add__(self, other: "Form") -> "Form":
        if other.space != self.space or other.degree != self.degree:
            raise ShapeError("form mismatch in addition")
        out = dict(self.comps)
        for idx, f in other.comps.items():
            out[idx] = out[idx] + f if idx in out else f
        return Form(self.space, self.degree, out)

    def __neg__(self) -> "Form":
        return Form(self.space, self.degree, {i: -f for i, f in self.comps.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, factor) -> "Form":
        """Scale by a number or a scalar Field."""
        return Form(self.space, self.degree,
                    {i: f * factor for i, f in self.comps.items()})

    __rmul__ = __mul__

    def d(self) -> "Form":
        """Exterior differential."""
        acc = defaultdict(FieldSum)
        for idx, f in self.comps.items():
            for axis in range(self.space.dim):
                new_idx, sign = _insert_axis(idx, axis)
                if not sign:
                    continue
                term = f.partial(axis)
                if term.packed or term.trunc_loss:
                    acc[new_idx].add(term, sign)
        return Form(self.space, self.degree + 1,
                    {i: s.field(self.space) for i, s in acc.items()})

    def contract(self, vf: VectorField) -> "Form":
        """Interior product iota_V (zero on a 0-form)."""
        if vf.space != self.space:
            raise ShapeError("vector field space mismatch")
        acc = defaultdict(FieldSum)
        for idx, f in self.comps.items():
            for pos, axis in enumerate(idx):
                comp = vf.components[axis]
                if comp.packed or comp.trunc_loss or f.trunc_loss:
                    acc[idx[:pos] + idx[pos + 1:]].add_product(comp, f, (-1) ** pos)
        return Form(self.space, self.degree - 1,
                    {i: s.field(self.space) for i, s in acc.items()})

    def __call__(self, *vfs: VectorField) -> Field:
        """Full evaluation on degree-many vector fields."""
        if len(vfs) != self.degree:
            raise ShapeError(f"degree-{self.degree} form applied to {len(vfs)} fields")
        form = self
        for vf in vfs:
            form = form.contract(vf)
        return form.component(())

    def __repr__(self):
        return f"Form(deg={self.degree}, {len(self.comps)} comps)"


class Derivation:
    """Derivation of the trivialized line bundle: symbol vector field plus a
    scalar multiplier.  Acts on a section lam by symbol(lam) + scalar*lam."""

    __slots__ = ("symbol", "scalar")

    def __init__(self, symbol: VectorField, scalar: Field):
        if symbol.space != scalar.space:
            raise ShapeError("symbol and scalar live over different spaces")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, name, value):
        raise AttributeError("Derivation is immutable")

    @property
    def space(self) -> Space:
        return self.symbol.space

    @classmethod
    def identity(cls, space: Space) -> "Derivation":
        return cls(VectorField.zero(space), Field.constant(space, 1.0))

    def apply(self, lam: Field) -> Field:
        if lam.space != self.space:
            raise ShapeError("section space mismatch")
        return self.symbol.apply(lam) + self.scalar * lam

    __call__ = apply

    def commutator(self, other: "Derivation") -> "Derivation":
        """[(X,a), (Y,b)] = ([X,Y], X(b) - Y(a)); the identity is central."""
        if other.space != self.space:
            raise ShapeError("space mismatch")
        return Derivation(self.symbol.bracket(other.symbol),
                          self.symbol.apply(other.scalar) - other.symbol.apply(self.scalar))

    def __repr__(self):
        return f"Derivation({self.space.torus_dim}+{self.space.fiber_dim}d)"


class AtiyahForm:
    """Degree-k Atiyah form in the trivialization, stored as the pair
    (alpha: k-form, beta: (k-1)-form); beta defaults to zero."""

    __slots__ = ("space", "degree", "alpha", "beta")

    def __init__(self, alpha: Form, beta: Form | None = None):
        space, degree = alpha.space, alpha.degree
        if beta is None:
            beta = Form(space, degree - 1)
        elif beta.space != space or beta.degree != degree - 1:
            raise ShapeError("beta degree/space mismatch")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, name, value):
        raise AttributeError("AtiyahForm is immutable")

    @classmethod
    def of_section(cls, lam: Field) -> "AtiyahForm":
        return cls(Form.scalar(lam))

    def is_zero(self) -> bool:
        return self.alpha.is_zero() and self.beta.is_zero()

    def max_abs(self) -> float:
        return max(self.alpha.max_abs(), self.beta.max_abs())

    @property
    def trunc_loss(self) -> float:
        return self.alpha.trunc_loss + self.beta.trunc_loss

    def __add__(self, other: "AtiyahForm") -> "AtiyahForm":
        return AtiyahForm(self.alpha + other.alpha, self.beta + other.beta)

    def __neg__(self) -> "AtiyahForm":
        return AtiyahForm(-self.alpha, -self.beta)

    def __sub__(self, other: "AtiyahForm") -> "AtiyahForm":
        return self + (-other)

    # -- structural operators ------------------------------------------------

    def d(self) -> "AtiyahForm":
        """Differential (d alpha, alpha - d beta); on a section lam this is
        (d lam, lam), the first jet."""
        return AtiyahForm(self.alpha.d(), self.alpha - self.beta.d())

    def contract(self, box: Derivation) -> "AtiyahForm":
        """iota_(X,a) = (iota_X alpha + a*beta, -iota_X beta)."""
        if box.space != self.space:
            raise ShapeError("derivation space mismatch")
        return AtiyahForm(self.alpha.contract(box.symbol) + self.beta * box.scalar,
                          -self.beta.contract(box.symbol))

    def lie(self, box: Derivation) -> "AtiyahForm":
        """Lie derivative via the Cartan formula d o iota + iota o d."""
        return self.d().contract(box) + self.contract(box).d()

    def evaluate_on(self, boxes) -> Field:
        """Evaluate on degree-many derivations per the splitting contract."""
        boxes = list(boxes)
        if len(boxes) != self.degree:
            raise ShapeError(f"degree-{self.degree} form applied to {len(boxes)} derivations")
        symbols = [b.symbol for b in boxes]
        total = self.alpha(*symbols)
        for i, b in enumerate(boxes):
            rest = symbols[:i] + symbols[i + 1:]
            term = b.scalar * self.beta(*rest)
            total = total + term * ((-1) ** i)
        return total

    def __repr__(self):
        return f"AtiyahForm(deg={self.degree})"


def pullback_reduction(eta: AtiyahForm, target: Space) -> AtiyahForm:
    """Pull back along the bundle projection covering the torus projection
    that forgets trailing angles (frequencies gain trailing zeros).

    This is the trivialized instance of the general pullback of Atiyah forms
    along a regular bundle morphism; it commutes with the differential."""
    def lift(form: Form) -> Form:
        return Form(target, form.degree,
                    {idx: f.promote(target) for idx, f in form.comps.items()})

    return AtiyahForm(lift(eta.alpha), lift(eta.beta))


def is_basic(eta: AtiyahForm, fiber_axes):
    """Basic-form test against the generators (d/dx_a, 0) of the vertical
    derivations: eta is basic iff both iota and lie vanish on each generator.

    Returns (verdict, max coefficient magnitude among the tested forms)."""
    defect = 0.0
    for a in fiber_axes:
        box = Derivation(VectorField.basis(eta.space, a), Field.zero(eta.space))
        defect = max(defect, eta.contract(box).max_abs(), eta.lie(box).max_abs())
    return defect <= BASIC_TOL, defect

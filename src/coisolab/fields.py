"""Sparse spectral scalar fields on T^n x R^k.

A :class:`Field` is a finite Fourier series on the n-torus, optionally
tensored with low-degree polynomials in the non-compact fiber coordinates:

    phi(x, y) = sum over (k, m) of  c[k, m] * exp(i k.x) * y^m

where k is an integer frequency vector with |k_i| <= trunc_order and m is a
monomial multi-index with total degree <= poly_deg.  Coefficients live in a
dict keyed by ``(k, m)`` (two tuples of ints).  Real-valuedness is encoded as
Hermitian symmetry, ``c[-k, m] == conj(c[k, m])``; every operation preserves
it exactly (conjugation commutes with IEEE complex arithmetic), and with
``STRICT`` enabled each result is re-checked.

Differentiation is exact (mode-wise).  Products are exact while the combined
frequencies stay inside the truncation box; escaping modes are dropped and
their absolute mass is accumulated in the result's ``trunc_loss`` so callers
can decide whether a computation remained exact.  A result keeps the loss
of every term it was built from, also of terms that are zero or cancel;
``FieldSum`` is the one accumulator of such sums.

Fields are immutable values: operations return new instances and never
mutate their inputs.  ``stacked_evaluator`` compiles a list of fields into
dense arrays once, for loops that evaluate them at many points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

PRUNE_TOL = 1e-14
EVAL_IMAG_TOL = 1e-12
TWO_PI = 2.0 * math.pi

# When True, every constructed Field re-validates Hermitian symmetry and box
# membership.  The test suite switches this on globally.
STRICT = False


class ShapeError(ValueError):
    """Dimension or box mismatch between operands."""


class UnsupportedAxisError(ValueError):
    """An axis outside the supported range for the requested operation."""


@dataclass(frozen=True)
class Space:
    """Common base data for fields: torus dimension, fiber dimension,
    frequency truncation and fiber polynomial degree cap."""

    torus_dim: int
    fiber_dim: int = 0
    trunc_order: int = 8
    poly_deg: int = 0

    def __post_init__(self):
        if self.torus_dim < 0 or self.fiber_dim < 0:
            raise ShapeError("dimensions must be non-negative")
        if self.trunc_order < 0 or self.poly_deg < 0:
            raise ShapeError("truncation order and polynomial degree must be non-negative")

    @property
    def dim(self) -> int:
        return self.torus_dim + self.fiber_dim


def _neg(k: tuple) -> tuple:
    return tuple(-a for a in k)


def canonical_rep(k: tuple) -> bool:
    """True if k is the stored representative of the pair {k, -k}:
    all zero, or first non-zero component positive."""
    for a in k:
        if a > 0:
            return True
        if a < 0:
            return False
    return True


class Field:
    """Immutable truncated Fourier-polynomial scalar field."""

    __slots__ = ("space", "coeffs", "trunc_loss")

    def __init__(self, space: Space, coeffs: Mapping | None = None,
                 trunc_loss: float = 0.0):
        cleaned = {}
        if coeffs:
            for key, c in coeffs.items():
                if type(c) is not complex:
                    c = complex(c)
                if abs(c) < PRUNE_TOL:
                    continue
                cleaned[key] = c
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "trunc_loss", float(trunc_loss))
        if STRICT:
            self._check()

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def _check(self):
        sp = self.space
        for (k, m), c in self.coeffs.items():
            if len(k) != sp.torus_dim or len(m) != sp.fiber_dim:
                raise ShapeError(f"key {k},{m} does not match space {sp}")
            if any(abs(a) > sp.trunc_order for a in k):
                raise ShapeError(f"frequency {k} outside truncation box")
            if any(a < 0 for a in m) or sum(m) > sp.poly_deg:
                raise ShapeError(f"monomial {m} outside degree cap {sp.poly_deg}")
            mate = self.coeffs.get((_neg(k), m), 0.0)
            if abs(mate - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                raise ShapeError(f"Hermitian symmetry violated at {k},{m}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Field":
        return cls(space)

    @classmethod
    def constant(cls, space: Space, value: float) -> "Field":
        k0 = (0,) * space.torus_dim
        m0 = (0,) * space.fiber_dim
        return cls(space, {(k0, m0): complex(value)})

    @classmethod
    def sin(cls, space: Space, axis: int) -> "Field":
        """sin(x_axis) for a torus axis."""
        return cls.from_modes(space, {_unit_freq(space, axis): -0.5j}, add_conjugates=True)

    @classmethod
    def cos(cls, space: Space, axis: int) -> "Field":
        return cls.from_modes(space, {_unit_freq(space, axis): 0.5}, add_conjugates=True)

    @classmethod
    def fiber_coordinate(cls, space: Space, fiber_axis: int) -> "Field":
        """The linear coordinate y_(fiber_axis) on the fiber factor."""
        if not 0 <= fiber_axis < space.fiber_dim:
            raise UnsupportedAxisError(f"fiber axis {fiber_axis} out of range")
        if space.poly_deg < 1:
            raise ShapeError("space does not admit degree-1 fiber monomials")
        k0 = (0,) * space.torus_dim
        m = tuple(1 if i == fiber_axis else 0 for i in range(space.fiber_dim))
        return cls(space, {(k0, m): 1.0 + 0.0j})

    @classmethod
    def from_modes(cls, space: Space, modes: Mapping, add_conjugates: bool = False) -> "Field":
        """Build from a {(k, m): coeff} map, or {k: coeff} when fiber_dim is 0.

        With ``add_conjugates`` each entry also contributes the conjugate
        coefficient at -k (entries with k = 0 must then be real)."""
        m0 = (0,) * space.fiber_dim
        out: dict = {}
        for key, c in modes.items():
            if space.fiber_dim == 0 and key and not isinstance(key[0], tuple):
                key = (tuple(key), m0)
            k, m = key
            k, m = tuple(k), tuple(m)
            c = complex(c)
            out[(k, m)] = out.get((k, m), 0.0) + c
            if add_conjugates:
                if all(a == 0 for a in k):
                    if abs(c.imag) > PRUNE_TOL:
                        raise ShapeError("zero-frequency coefficient must be real")
                else:
                    nk = _neg(k)
                    out[(nk, m)] = out.get((nk, m), 0.0) + c.conjugate()
        return cls(space, out)

    # -- predicates and norms ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def coeff_norm(self) -> float:
        """Plain l2 norm of the coefficient vector."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def l2_norm(self) -> float:
        """L2(T^n) norm; by Parseval this is (2*pi)^(n/2) times coeff_norm.

        Only defined for purely toroidal fields (fiber polynomials are not
        square-integrable over R^k)."""
        if any(any(m) for (_, m) in self.coeffs):
            raise ShapeError("L2 norm requires a fiber-independent field")
        return TWO_PI ** (self.space.torus_dim / 2.0) * self.coeff_norm()

    # -- arithmetic ---------------------------------------------------------

    def _require_same_space(self, other: "Field"):
        if self.space != other.space:
            raise ShapeError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Field.constant(self.space, other)
        self._require_same_space(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return Field(self.space, out, self.trunc_loss + other.trunc_loss)

    __radd__ = __add__

    def __neg__(self):
        return Field(self.space, {k: -c for k, c in self.coeffs.items()}, self.trunc_loss)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Field) else -float(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Field(self.space, {k: other * c for k, c in self.coeffs.items()},
                         self.trunc_loss)
        self._require_same_space(other)
        out: dict = {}
        loss = _mul_into(out, self, other)
        return Field(self.space, out,
                     self.trunc_loss + other.trunc_loss + loss)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def partial(self, axis: int) -> "Field":
        """Exact partial derivative along a torus or fiber axis."""
        sp = self.space
        if not 0 <= axis < sp.dim:
            raise ShapeError(f"axis {axis} out of range for dim {sp.dim}")
        out: dict = {}
        if axis < sp.torus_dim:
            for (k, m), c in self.coeffs.items():
                if k[axis]:
                    out[(k, m)] = 1j * k[axis] * c
        else:
            fa = axis - sp.torus_dim
            for (k, m), c in self.coeffs.items():
                if m[fa]:
                    lowered = tuple(v - 1 if i == fa else v for i, v in enumerate(m))
                    key = (k, lowered)
                    out[key] = out.get(key, 0.0) + m[fa] * c
        return Field(sp, out, self.trunc_loss)

    def evaluate(self, point) -> float:
        """Pointwise value; the imaginary residue must cancel below 1e-12."""
        sp = self.space
        p = np.asarray(point, dtype=float)
        if p.shape != (sp.dim,):
            raise ShapeError(f"point of length {p.shape} for dim {sp.dim}")
        x, y = p[: sp.torus_dim], p[sp.torus_dim:]
        val = 0.0 + 0.0j
        for (k, m), c in self.coeffs.items():
            term = c * np.exp(1j * float(np.dot(k, x)))
            for ya, ma in zip(y, m):
                if ma:
                    term *= ya ** ma
            val += term
        if abs(val.imag) > max(EVAL_IMAG_TOL, 1e-14 * abs(val.real)):
            raise ShapeError(f"non-real evaluation (imag={val.imag:.3e}); "
                             "field violates Hermitian symmetry")
        return float(val.real)

    __call__ = evaluate

    def integrate_torus(self, axes: Iterable[int]) -> "Field":
        """Integrate over full periods of the given torus axes.

        Returns (2*pi)^#axes times the restriction to modes with k_a = 0 for
        each integrated axis; the result no longer depends on those axes but
        still lives over the same space."""
        axes = sorted(set(axes))
        sp = self.space
        for a in axes:
            if not 0 <= a < sp.torus_dim:
                raise UnsupportedAxisError(f"axis {a} is not a torus axis")
        scale = TWO_PI ** len(axes)
        out = {key: scale * c for key, c in self.coeffs.items()
               if all(key[0][a] == 0 for a in axes)}
        return Field(sp, out, self.trunc_loss)

    def drop_torus_axes(self, axes: Iterable[int]) -> "Field":
        """Forget torus axes the field does not depend on."""
        axes = sorted(set(axes))
        sp = self.space
        for a in axes:
            if not 0 <= a < sp.torus_dim:
                raise UnsupportedAxisError(f"axis {a} is not a torus axis")
        keep = [a for a in range(sp.torus_dim) if a not in axes]
        out = {}
        for (k, m), c in self.coeffs.items():
            if any(k[a] != 0 for a in axes):
                raise ShapeError(f"field depends on dropped axis (mode {k})")
            out[(tuple(k[a] for a in keep), m)] = c
        small = Space(len(keep), sp.fiber_dim, sp.trunc_order, sp.poly_deg)
        return Field(small, out, self.trunc_loss)

    def promote(self, space: Space) -> "Field":
        """Reinterpret over a larger torus or box: existing axes become the
        leading axes of the target, new trailing frequencies are zero."""
        sp = self.space
        if space.torus_dim < sp.torus_dim or space.fiber_dim != sp.fiber_dim:
            raise ShapeError("target space must extend the torus factor only")
        if space.trunc_order < sp.trunc_order or space.poly_deg < sp.poly_deg:
            raise ShapeError("target truncation box too small")
        pad = (0,) * (space.torus_dim - sp.torus_dim)
        out = {(k + pad, m): c for (k, m), c in self.coeffs.items()}
        return Field(space, out, self.trunc_loss)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """One representative per +/-k pair; the reader restores conjugates."""
        terms = []
        for (k, m) in sorted(self.coeffs):
            if not canonical_rep(k):
                continue
            c = self.coeffs[(k, m)]
            terms.append({"k": list(k), "m": list(m),
                          "re": c.real, "im": c.imag})
        sp = self.space
        return {"torus_dim": sp.torus_dim, "fiber_dim": sp.fiber_dim,
                "trunc_order": sp.trunc_order, "poly_deg": sp.poly_deg,
                "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Field":
        sp = Space(int(data["torus_dim"]), int(data["fiber_dim"]),
                   int(data["trunc_order"]), int(data["poly_deg"]))
        modes = {}
        for t in data["terms"]:
            k, m = tuple(int(a) for a in t["k"]), tuple(int(a) for a in t["m"])
            modes[(k, m)] = complex(float(t["re"]), float(t["im"]))
        return cls.from_modes(sp, modes, add_conjugates=True)

    def __repr__(self):
        return f"Field({self.space.torus_dim}+{self.space.fiber_dim}d, {len(self.coeffs)} modes)"


def _unit_freq(space: Space, axis: int):
    if not 0 <= axis < space.torus_dim:
        raise UnsupportedAxisError(f"axis {axis} is not a torus axis")
    k = tuple(1 if i == axis else 0 for i in range(space.torus_dim))
    return (k, (0,) * space.fiber_dim)


def _mul_into(dst: dict, a: "Field", b: "Field", scale=1) -> float:
    """Accumulate the product of two fields into dst; returns the dropped
    out-of-box mass.  Bound checks are skipped entirely when the factors
    cannot escape the box (the overwhelmingly common case)."""
    sp = a.space
    ac, bc = a.coeffs, b.coeffs
    if not ac or not bc:
        return 0.0
    if len(ac) > len(bc):
        ac, bc = bc, ac
    add = operator.add
    get = dst.get
    amax = max(max(map(abs, k)) for (k, _m) in ac)
    bmax = max(max(map(abs, k)) for (k, _m) in bc)
    freq_safe = amax + bmax <= sp.trunc_order
    deg_safe = True
    if sp.fiber_dim:
        adeg = max(sum(m) for (_k, m) in ac)
        bdeg = max(sum(m) for (_k, m) in bc)
        deg_safe = adeg + bdeg <= sp.poly_deg
    loss = 0.0
    if freq_safe and deg_safe:
        if sp.fiber_dim:
            for (k1, m1), c1 in ac.items():
                c1 *= scale
                for (k2, m2), c2 in bc.items():
                    key = (tuple(map(add, k1, k2)), tuple(map(add, m1, m2)))
                    dst[key] = get(key, 0.0) + c1 * c2
        else:
            m0 = ()
            for (k1, _m1), c1 in ac.items():
                c1 *= scale
                for (k2, _m2), c2 in bc.items():
                    key = (tuple(map(add, k1, k2)), m0)
                    dst[key] = get(key, 0.0) + c1 * c2
        return 0.0
    N, d = sp.trunc_order, sp.poly_deg
    for (k1, m1), c1 in ac.items():
        c1 *= scale
        for (k2, m2), c2 in bc.items():
            k = tuple(map(add, k1, k2))
            c = c1 * c2
            if any(abs(p) > N for p in k):
                loss += abs(c)
                continue
            m = tuple(map(add, m1, m2))
            if sum(m) > d:
                loss += abs(c)
                continue
            key = (k, m)
            dst[key] = get(key, 0.0) + c
    return loss


class FieldSum:
    """Signed sum of fields and field products, accumulated into one
    coefficient dict; the sum's ``trunc_loss`` adds up the loss of every
    term, including terms that are zero or that cancel.  Callers that build
    fields term by term go through it, so that only this module writes
    coefficient dicts."""

    __slots__ = ("coeffs", "loss")

    def __init__(self):
        self.coeffs: dict = {}
        self.loss = 0.0

    def add(self, field: Field, sign=1):
        dst, get = self.coeffs, self.coeffs.get
        if sign == 1:
            for key, c in field.coeffs.items():
                dst[key] = get(key, 0.0) + c
        else:
            for key, c in field.coeffs.items():
                dst[key] = get(key, 0.0) + sign * c
        self.loss += field.trunc_loss

    def add_product(self, a: Field, b: Field, sign=1):
        self.loss += a.trunc_loss + b.trunc_loss
        self.loss += _mul_into(self.coeffs, a, b, sign)

    def field(self, space: Space) -> Field:
        return Field(space, self.coeffs, self.loss)


class VectorField:
    """Vector field with one Field component per coordinate direction
    (torus directions first, then fiber directions)."""

    __slots__ = ("space", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ShapeError("vector field needs at least one component")
        space = components[0].space
        if len(components) != space.dim:
            raise ShapeError(f"{len(components)} components for dim {space.dim}")
        for c in components:
            if c.space != space:
                raise ShapeError("component space mismatch")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, space: Space) -> "VectorField":
        z = Field.zero(space)
        return cls([z] * space.dim)

    @classmethod
    def basis(cls, space: Space, axis: int) -> "VectorField":
        comps = [Field.zero(space)] * space.dim
        comps[axis] = Field.constant(space, 1.0)
        return cls(comps)

    def apply(self, phi: Field) -> Field:
        """Directional derivative sum_a V^a d(phi)/dx_a."""
        if phi.space != self.space:
            raise ShapeError("field space mismatch")
        acc = FieldSum()
        for a, comp in enumerate(self.components):
            # a zero component adds nothing, unless a factor carries loss
            if comp.coeffs or comp.trunc_loss or phi.trunc_loss:
                acc.add_product(comp, phi.partial(a))
        return acc.field(self.space)

    __call__ = apply

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [V, W] computed by exact spectral differentiation."""
        if other.space != self.space:
            raise ShapeError("space mismatch")
        return VectorField([self.apply(w) - other.apply(v)
                            for v, w in zip(self.components, other.components)])

    def __add__(self, other):
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorField([-a for a in self.components])

    def __mul__(self, factor):
        return VectorField([c * factor for c in self.components])

    __rmul__ = __mul__

    def evaluate_at(self, point) -> np.ndarray:
        return np.array([c.evaluate(point) for c in self.components])

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    @property
    def trunc_loss(self) -> float:
        return sum(c.trunc_loss for c in self.components)

    def __repr__(self):
        return f"VectorField({self.space.torus_dim}+{self.space.fiber_dim}d)"


def stacked_evaluator(fields):
    """Compile fields over one space into a function point -> values.

    The union of their modes becomes a frequency matrix K (n_modes, torus
    dim), a fiber exponent matrix (n_modes, fiber dim) and a coefficient
    matrix C (n_fields, n_modes), built once; a call returns the real parts
    of C @ (exp(i K x) * prod(y ** m)).  It agrees with ``Field.evaluate``
    field by field up to summation order, with the same point-length check
    and the same non-real guard applied to every row."""
    fields = list(fields)
    if not fields:
        raise ShapeError("nothing to evaluate")
    sp = fields[0].space
    if any(f.space != sp for f in fields):
        raise ShapeError("fields over different spaces")
    keys = sorted(set().union(*(f.coeffs for f in fields)))
    column = {key: j for j, key in enumerate(keys)}
    freqs = np.array([k for k, _ in keys], dtype=float).reshape(len(keys), sp.torus_dim)
    powers = np.array([m for _, m in keys], dtype=float).reshape(len(keys), sp.fiber_dim)
    coeffs = np.zeros((len(fields), len(keys)), dtype=complex)
    for row, f in enumerate(fields):
        for key, c in f.coeffs.items():
            coeffs[row, column[key]] = c
    torus_dim, dim = sp.torus_dim, sp.dim
    polynomial = bool(powers.any())

    def evaluate(point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (dim,):
            raise ShapeError(f"point of length {p.shape} for dim {dim}")
        basis = np.exp(1j * (freqs @ p[:torus_dim]))
        if polynomial:
            basis *= (p[torus_dim:] ** powers).prod(axis=1)
        val = coeffs @ basis
        re, im = val.real, abs(val.imag)
        # the first test is the cheap exit: no row can fail below EVAL_IMAG_TOL
        if (im.max() > EVAL_IMAG_TOL
                and (im > np.maximum(EVAL_IMAG_TOL, 1e-14 * abs(re))).any()):
            raise ShapeError(f"non-real evaluation (imag={im.max():.3e}); "
                             "field violates Hermitian symmetry")
        return re

    return evaluate


def wrap_torus(point, torus_dim: int):
    """Wrap the first torus_dim coordinates to [0, 2*pi)."""
    p = np.array(point, dtype=float)
    p[:torus_dim] = np.mod(p[:torus_dim], TWO_PI)
    return p

"""Sparse spectral scalar fields on T^n x R^k.

A :class:`Field` is a finite Fourier series on the n-torus, optionally
tensored with low-degree polynomials in the non-compact fiber coordinates:

    phi(x, y) = sum over (k, m) of  c[k, m] * exp(i k.x) * y^m

where k is an integer frequency vector with |k_i| <= trunc_order and m is a
monomial multi-index with total degree <= poly_deg.  Real-valuedness is
encoded as Hermitian symmetry, ``c[-k, m] == conj(c[k, m])``; every
operation preserves it exactly (conjugation commutes with IEEE complex
arithmetic), and with ``STRICT`` enabled each result is re-checked.

``Field.packed`` maps one int key per mode to its coefficient, in insertion
order.  ``Space.pack`` builds it from mixed-radix digits ``k_i + 2N`` (torus
axes) then ``m_j`` (fiber axes), axis 0 most significant: integer order is
``(k, m)`` order, and two in-box keys sum to the summed mode's key plus
``Space.zero_key``.  ``Field.coeffs`` is a read-only ``{(k, m): c}`` view,
decoded on access.  On int64 key arrays, ``Space.digits`` decodes and
``Space.mate`` gives the key of ``(-k, m)``; the keys at or above
``zero_key`` are canonical, one of each pair.  ``real_coords`` builds the
layout of a real field's real coordinates on ascending canonical keys once
per key array, and ``Field.coords`` and ``Field.from_coords`` read and write
through it.  Public constructions validate keys and compute ``bounds`` (max
|k_i|, max fiber degree); operations propagate them, so a product tests the
box per term pair only when its bounds allow an escape.

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
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PRUNE_TOL = 1e-14
EVAL_IMAG_TOL = 1e-12
TWO_PI = 2.0 * math.pi

# When True, every constructed Field re-validates Hermitian symmetry and box
# membership.  The test suite switches this on globally.
STRICT = False


class ShapeError(ValueError):
    """Dimension or box mismatch between operands."""


@dataclass(frozen=True)
class Space:
    """Common base data for fields: torus dimension, fiber dimension,
    frequency truncation and fiber polynomial degree cap; also the codec
    of packed mode keys."""

    torus_dim: int
    fiber_dim: int = 0
    trunc_order: int = 8
    poly_deg: int = 0

    def __post_init__(self):
        if self.torus_dim < 0 or self.fiber_dim < 0:
            raise ShapeError("dimensions must be non-negative")
        if self.trunc_order < 0 or self.poly_deg < 0:
            raise ShapeError("truncation order and polynomial degree must be non-negative")
        radix = max(4 * self.trunc_order + 1, 2 * self.poly_deg + 1)
        weights = tuple(radix ** (self.dim - 1 - i) for i in range(self.dim))
        zero_key = 2 * self.trunc_order * sum(weights[:self.torus_dim])
        for name, value in (("radix", radix), ("weights", weights), ("zero_key", zero_key)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.torus_dim + self.fiber_dim

    def pack(self, k, m) -> int:
        """The packed key of the mode (k, m); ShapeError outside the box."""
        if len(k) != self.torus_dim or len(m) != self.fiber_dim:
            raise ShapeError(f"key {k},{m} does not match space {self}")
        if any(abs(a) > self.trunc_order for a in k):
            raise ShapeError(f"frequency {k} outside truncation box")
        if any(a < 0 for a in m) or sum(m) > self.poly_deg:
            raise ShapeError(f"monomial {m} outside degree cap {self.poly_deg}")
        key = 0
        for digit in [a + 2 * self.trunc_order for a in k] + list(m):
            key = key * self.radix + digit
        return key

    def unpack(self, key: int) -> tuple:
        """The mode (k, m) of a packed key."""
        digits = [key // w % self.radix for w in self.weights]
        n, off = self.torus_dim, 2 * self.trunc_order
        return tuple(a - off for a in digits[:n]), tuple(digits[n:])

    def digits(self, keys) -> np.ndarray:
        """The modes of an int64 key array, one row (k, m) per key."""
        off = np.repeat([2 * self.trunc_order, 0], [self.torus_dim, self.fiber_dim])
        return np.asarray(keys)[:, None] // np.array(self.weights, np.int64) % self.radix - off

    def mate(self, keys):
        """The key of (-k, m) for the key of (k, m); an int or an int64 array."""
        return 2 * self.zero_key - keys + 2 * (keys % self.radix ** self.fiber_dim)


@dataclass(frozen=True, eq=False)
class CoordLayout:
    """The real coordinates of a real field on ascending canonical keys
    (``real_coords``), with what reading and writing them needs per key.
    Built once per key array and shared by its readers: read-only."""

    space: Space
    keys: np.ndarray     # the ascending canonical keys
    slot: np.ndarray     # where each key's (re, im) pair starts; re alone for a self-mate
    weight: np.ndarray   # the Parseval weight of each slot
    held: np.ndarray     # per key, which of (re, im) it has a slot for: im iff key != mate
    mate: np.ndarray     # the key of each key's mate
    freq: np.ndarray     # max |k_i| of each key's mode
    deg: np.ndarray      # fiber degree of each key's mode


def real_coords(space: Space, keys) -> CoordLayout:
    """The layout of a real field's real coordinates on ascending canonical
    keys: each key's (re, im) pair of slots, its real part alone if the key
    is its own mate, and the Parseval weight of each slot, so the weighted
    Euclidean norm of the coordinates is the coefficient norm."""
    mate = space.mate(keys)
    pair = keys != mate
    d = space.digits(keys)
    return CoordLayout(space, keys, np.cumsum(1 + pair) - 1 - pair,
                       np.repeat(1.0 + pair, 1 + pair),
                       np.stack([np.ones_like(pair), pair], axis=1), mate,
                       abs(d[:, :space.torus_dim]).max(axis=1, initial=0),
                       d[:, space.torus_dim:].sum(axis=1))


def in_sorted(x, keys):
    """The entries of x that the ascending array keys holds, as a mask."""
    if not len(keys):
        return np.zeros(len(x), bool)
    return keys[np.searchsorted(keys, x) % len(keys)] == x


def box_keys(space: Space, radii) -> np.ndarray:
    """The ascending canonical keys of the modes (k, 0) with |k_a| <= radii[a]."""
    keys = np.array([space.zero_key])
    for w, r in zip(space.weights, radii):
        keys = (keys[:, None] + w * np.arange(-r, r + 1)).ravel()
    return keys[keys >= space.zero_key]


class Field:
    """Immutable truncated Fourier-polynomial scalar field."""

    __slots__ = ("space", "packed", "trunc_loss", "bounds")

    def __init__(self, space: Space, coeffs: Mapping | None = None,
                 trunc_loss: float = 0.0):
        packed, freq, deg = {}, 0, 0
        for (k, m), c in (coeffs or {}).items():
            packed[space.pack(k, m)] = complex(c)
            freq, deg = max(freq, *map(abs, k), 0), max(deg, sum(m))
        self._set(space, packed, trunc_loss, (freq, deg))

    def _set(self, space: Space, packed: dict, trunc_loss: float, bounds: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "space", space)
        # the scan in C finds most fields with nothing to prune; NaN is kept
        if not min(map(abs, packed.values()), default=PRUNE_TOL) >= PRUNE_TOL:
            packed = {key: c for key, c in packed.items() if not abs(c) < PRUNE_TOL}
        setattr_(self, "packed", packed)
        setattr_(self, "trunc_loss", float(trunc_loss))
        setattr_(self, "bounds", bounds)
        if STRICT:
            self._check()

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def _check(self):
        sp, packed = self.space, self.packed
        end = sp.radix ** sp.dim
        # on int64 key arrays when every key of the space fits; a violation,
        # or a space with wider keys, goes to the scalar scan, which reports it
        if packed and end <= 2 ** 63:
            keys = np.fromiter(packed, np.int64, len(packed))
            coef = np.fromiter(packed.values(), complex, len(packed))
            d, mates, order = sp.digits(keys), sp.mate(keys), np.argsort(keys)
            at = order[np.searchsorted(keys, mates, sorter=order) % len(keys)]
            mate_coef = np.where(keys[at] == mates, coef[at], 0.0)
            bad = ((keys < 0) | (keys >= end)
                   | (abs(d[:, :sp.torus_dim]) > sp.trunc_order).any(axis=1)
                   | (d[:, sp.torus_dim:].sum(axis=1) > sp.poly_deg)
                   | (abs(mate_coef - coef.conj()) > 1e-12 * np.maximum(1.0, abs(coef))))
            if not bad.any():
                return
        for (k, m), c in self._modes():
            mate = self.packed.get(sp.pack([-a for a in k], m), 0.0)   # pack checks the box
            if abs(mate - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
                raise ShapeError(f"Hermitian symmetry violated at {k},{m}")

    def _modes(self):
        """((k, m), c) pairs in the order of ``packed``."""
        return zip(map(self.space.unpack, self.packed), self.packed.values())

    @property
    def coeffs(self) -> Mapping:
        """Read-only {(k, m): coefficient} view, in the order of ``packed``."""
        return _Coeffs(self)

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
        return cls.from_modes(space, {_unit_freq(space, axis): -0.5j})

    @classmethod
    def cos(cls, space: Space, axis: int) -> "Field":
        return cls.from_modes(space, {_unit_freq(space, axis): 0.5})

    @classmethod
    def fiber_coordinate(cls, space: Space, fiber_axis: int) -> "Field":
        """The linear coordinate y_(fiber_axis) on the fiber factor."""
        if not 0 <= fiber_axis < space.fiber_dim:
            raise ShapeError(f"fiber axis {fiber_axis} out of range")
        if space.poly_deg < 1:
            raise ShapeError("space does not admit degree-1 fiber monomials")
        k0 = (0,) * space.torus_dim
        m = tuple(1 if i == fiber_axis else 0 for i in range(space.fiber_dim))
        return cls(space, {(k0, m): 1.0 + 0.0j})

    @classmethod
    def from_modes(cls, space: Space, modes: Mapping) -> "Field":
        """The real field of a half spectrum: each {(k, m): coeff} entry
        also contributes the conjugate coefficient at -k (entries with
        k = 0 must be real)."""
        out: dict = {}
        for (k, m), c in modes.items():
            k, m, c = tuple(k), tuple(m), complex(c)
            out[(k, m)] = out.get((k, m), 0.0) + c
            if any(k):
                nk = tuple(-a for a in k)
                out[(nk, m)] = out.get((nk, m), 0.0) + c.conjugate()
            elif abs(c.imag) > PRUNE_TOL:
                raise ShapeError("zero-frequency coefficient must be real")
        return cls(space, out)

    @classmethod
    def from_coords(cls, layout: CoordLayout, v) -> "Field":
        """The real field with coordinates v on a layout (``real_coords``),
        built as ``from_modes`` builds it from the nonzero coefficients:
        each key, then its mate, both at 0.0 + c."""
        pair = layout.held[:, 1]
        re, im = v[layout.slot], np.where(pair, v[layout.slot + pair], 0.0)
        nonzero = (re != 0) | (im != 0)
        at = nonzero[:, None] & layout.held
        c = np.empty(at.shape, complex)
        c.real, c.imag = re[:, None] + 0.0, np.stack([im, -im], axis=1) + 0.0
        bounds = (int(layout.freq[nonzero].max(initial=0)),
                  int(layout.deg[nonzero].max(initial=0)))
        packed = np.stack([layout.keys, layout.mate], axis=1)[at].tolist()
        return _field(layout.space, dict(zip(packed, c[at].tolist())), 0.0, bounds)

    def coords(self, layout: CoordLayout) -> np.ndarray:
        """The coordinates of this real field on a layout (``real_coords``);
        its modes off the layout's keys are left out."""
        keys = layout.keys
        own = np.fromiter(self.packed, np.int64, len(self.packed))
        on = in_sorted(own, keys)
        c = np.zeros(len(keys), complex)
        c[np.searchsorted(keys, own[on])] += np.fromiter(self.packed.values(), complex)[on]
        return np.stack([c.real, c.imag], axis=1)[layout.held]

    # -- predicates and norms ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def max_abs(self) -> float:
        return max((abs(c) for c in self.packed.values()), default=0.0)

    def l2_norm(self) -> float:
        """L2(T^n) norm: (2*pi)^(n/2) times the coefficient l2 norm (Parseval).

        Only defined for purely toroidal fields (fiber polynomials are not
        square-integrable over R^k)."""
        if self.space.fiber_dim and any(any(m) for (_, m), _c in self._modes()):
            raise ShapeError("L2 norm requires a fiber-independent field")
        return TWO_PI ** (self.space.torus_dim / 2.0) * math.sqrt(
            sum(abs(c) ** 2 for c in self.packed.values()))

    # -- arithmetic ---------------------------------------------------------

    def _require_same_space(self, other: "Field"):
        if self.space is not other.space and self.space != other.space:
            raise ShapeError(f"space mismatch: {self.space} vs {other.space}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Field.constant(self.space, other)
        self._require_same_space(other)
        out = dict(self.packed)
        for key, c in other.packed.items():
            out[key] = out.get(key, 0.0) + c
        return _field(self.space, out, self.trunc_loss + other.trunc_loss,
                      tuple(map(max, self.bounds, other.bounds)))

    __radd__ = __add__

    def __neg__(self):
        return _field(self.space, {k: -c for k, c in self.packed.items()},
                      self.trunc_loss, self.bounds)

    def __sub__(self, other):
        if not isinstance(other, Field):
            return self + -float(other)
        # one pass, bit for bit self + (-other): IEEE x - y is x + (-y)
        self._require_same_space(other)
        out = dict(self.packed)
        for key, c in other.packed.items():
            out[key] = out.get(key, 0.0) - c
        return _field(self.space, out, self.trunc_loss + other.trunc_loss,
                      tuple(map(max, self.bounds, other.bounds)))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _field(self.space, {k: other * c for k, c in self.packed.items()},
                          self.trunc_loss, self.bounds)
        self._require_same_space(other)
        out: dict = {}
        loss = _mul_into(out, self, other)
        return _field(self.space, out, self.trunc_loss + other.trunc_loss + loss,
                      _product_bounds(self.space, self.bounds, other.bounds))

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------

    def partial(self, axis: int) -> "Field":
        """Exact partial derivative along a torus or fiber axis."""
        sp = self.space
        if not 0 <= axis < sp.dim:
            raise ShapeError(f"axis {axis} out of range for dim {sp.dim}")
        out: dict = {}
        w, radix = sp.weights[axis], sp.radix
        if axis < sp.torus_dim:
            off = 2 * sp.trunc_order
            for key, c in self.packed.items():
                ka = key // w % radix - off
                if ka:
                    out[key] = 1j * ka * c
        else:
            for key, c in self.packed.items():
                ma = key // w % radix
                if ma:
                    lowered = key - w
                    out[lowered] = out.get(lowered, 0.0) + ma * c
        return _field(sp, out, self.trunc_loss, self.bounds)

    def evaluate(self, point) -> float:
        """Pointwise value; the imaginary residue must cancel below 1e-12."""
        sp = self.space
        p = np.asarray(point, dtype=float)
        if p.shape != (sp.dim,):
            raise ShapeError(f"point of length {p.shape} for dim {sp.dim}")
        x, y = p[: sp.torus_dim], p[sp.torus_dim:]
        val = 0.0 + 0.0j
        for (k, m), c in self._modes():
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

    def _torus_axes(self, axes: Iterable[int]) -> list:
        axes = sorted(set(axes))
        for a in axes:
            if not 0 <= a < self.space.torus_dim:
                raise ShapeError(f"axis {a} is not a torus axis")
        return axes

    def integrate_torus(self, axes: Iterable[int]) -> "Field":
        """Integrate over full periods of the given torus axes.

        Returns (2*pi)^#axes times the restriction to modes with k_a = 0 for
        each integrated axis; the result no longer depends on those axes but
        still lives over the same space."""
        sp = self.space
        weights = [sp.weights[a] for a in self._torus_axes(axes)]
        scale, zero = TWO_PI ** len(weights), 2 * sp.trunc_order
        out = {key: scale * c for key, c in self.packed.items()
               if all(key // w % sp.radix == zero for w in weights)}
        return _field(sp, out, self.trunc_loss, self.bounds)

    def drop_torus_axes(self, axes: Iterable[int]) -> "Field":
        """Forget torus axes the field does not depend on."""
        sp = self.space
        axes = self._torus_axes(axes)
        keep = [a for a in range(sp.torus_dim) if a not in axes]
        small = Space(len(keep), sp.fiber_dim, sp.trunc_order, sp.poly_deg)
        out = {}
        for (k, m), c in self._modes():
            if any(k[a] != 0 for a in axes):
                raise ShapeError(f"field depends on dropped axis (mode {k})")
            out[small.pack(tuple(k[a] for a in keep), m)] = c
        return _field(small, out, self.trunc_loss, self.bounds)

    def promote(self, space: Space) -> "Field":
        """Reinterpret over a larger torus or box: existing axes become the
        leading axes of the target, new trailing frequencies are zero."""
        sp = self.space
        if space.torus_dim < sp.torus_dim or space.fiber_dim != sp.fiber_dim:
            raise ShapeError("target space must extend the torus factor only")
        if space.trunc_order < sp.trunc_order or space.poly_deg < sp.poly_deg:
            raise ShapeError("target truncation box too small")
        pad = (0,) * (space.torus_dim - sp.torus_dim)
        out = {space.pack(k + pad, m): c for (k, m), c in self._modes()}
        return _field(space, out, self.trunc_loss, self.bounds)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """One representative per +/-k pair; the reader restores conjugates."""
        sp = self.space
        canonical = sorted(key for key in self.packed if key >= sp.zero_key)
        terms = [{"k": list(k), "m": list(m), "re": c.real, "im": c.imag}
                 for (k, m), c in zip(map(sp.unpack, canonical), map(self.packed.get, canonical))]
        return {"torus_dim": sp.torus_dim, "fiber_dim": sp.fiber_dim,
                "trunc_order": sp.trunc_order, "poly_deg": sp.poly_deg,
                "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Field":
        sp = Space(*(json_int(data[key], key) for key in
                     ("torus_dim", "fiber_dim", "trunc_order", "poly_deg")))
        modes = {}
        for t in data["terms"]:
            k, m = (tuple(json_int(a, f"{key} entry") for a in t[key]) for key in "km")
            if (k, m) in modes:
                raise ValueError(f"repeated term at k={list(k)}, m={list(m)}")
            modes[(k, m)] = complex(json_float(t["re"], "re"), json_float(t["im"], "im"))
        return cls.from_modes(sp, modes)

    def __repr__(self):
        return f"Field({self.space.torus_dim}+{self.space.fiber_dim}d, {len(self.packed)} modes)"


def _field(space: Space, packed: dict, trunc_loss: float, bounds: tuple) -> Field:
    """A Field that takes over packed (valid keys): pruned, not re-validated."""
    f = object.__new__(Field)
    f._set(space, packed, trunc_loss, bounds)
    return f


class _Coeffs(Mapping):
    """A field's coefficients keyed by (k, m), decoded on access."""

    def __init__(self, field: Field):
        self._field = field

    def __len__(self):
        return len(self._field.packed)

    def __iter__(self):
        return map(self._field.space.unpack, self._field.packed)

    def __getitem__(self, mode):
        try:
            return self._field.packed[self._field.space.pack(*mode)]
        except (TypeError, ValueError):   # not a mode of this space
            raise KeyError(mode) from None


def _product_bounds(sp: Space, a: tuple, b: tuple) -> tuple:
    return min(a[0] + b[0], sp.trunc_order), min(a[1] + b[1], sp.poly_deg)


def _unit_freq(space: Space, axis: int):
    if not 0 <= axis < space.torus_dim:
        raise ShapeError(f"axis {axis} is not a torus axis")
    k = tuple(1 if i == axis else 0 for i in range(space.torus_dim))
    return (k, (0,) * space.fiber_dim)


def _mul_into(dst: dict, a: "Field", b: "Field", scale=1) -> float:
    """Accumulate the product of two fields into dst (a packed-key dict);
    returns the dropped out-of-box mass.  Per-pair box tests run only when
    the factors' bounds allow an escape."""
    sp = a.space
    ac, bc = a.packed, b.packed
    if not ac or not bc:
        return 0.0
    if len(ac) > len(bc):
        ac, bc = bc, ac
    get, zero = dst.get, sp.zero_key
    (fa, da), (fb, db) = a.bounds, b.bounds
    if fa + fb <= sp.trunc_order and da + db <= sp.poly_deg:
        for k1, c1 in ac.items():
            c1 *= scale
            k1 -= zero
            for k2, c2 in bc.items():
                key = k1 + k2
                dst[key] = get(key, 0.0) + c1 * c2
        return 0.0
    loss = 0.0
    for k1, c1 in ac.items():
        c1 *= scale
        k1 -= zero
        for k2, c2 in bc.items():
            key, c = k1 + k2, c1 * c2
            k, m = sp.unpack(key)
            if any(abs(p) > sp.trunc_order for p in k) or sum(m) > sp.poly_deg:
                loss += abs(c)
                continue
            dst[key] = get(key, 0.0) + c
    return loss


def require_exact(what: str, *evidence):
    """Refuse evidence (items with ``trunc_loss``) truncated by the box."""
    loss = sum(e.trunc_loss for e in evidence)
    if loss:
        raise ShapeError(f"{what} lost mass {loss:.3e} to truncation")


class FieldSum:
    """Signed sum of fields and field products, accumulated into one
    packed coefficient dict; the sum's ``trunc_loss`` adds up the loss of
    every term, including terms that are zero or that cancel.  Callers that
    build fields term by term go through it, so that only this module writes
    coefficient dicts."""

    __slots__ = ("packed", "loss", "bounds")

    def __init__(self):
        self.packed, self.loss, self.bounds = {}, 0.0, (0, 0)

    def add(self, field: Field, sign=1):
        dst, get = self.packed, self.packed.get
        if sign == 1:
            for key, c in field.packed.items():
                dst[key] = get(key, 0.0) + c
        else:
            for key, c in field.packed.items():
                dst[key] = get(key, 0.0) + sign * c
        self.loss += field.trunc_loss
        self.bounds = tuple(map(max, self.bounds, field.bounds))

    def add_product(self, a: Field, b: Field, sign=1):
        self.loss += a.trunc_loss + b.trunc_loss
        self.loss += _mul_into(self.packed, a, b, sign)
        self.bounds = tuple(map(max, self.bounds, _product_bounds(a.space, a.bounds, b.bounds)))

    def field(self, space: Space) -> Field:
        return _field(space, dict(self.packed), self.loss, self.bounds)


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
            if comp.packed or comp.trunc_loss or phi.trunc_loss:
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
    dim), an exponent matrix of their distinct fiber monomials m (n_monomials,
    fiber dim) with each mode's row in it, and a coefficient matrix C
    (n_fields, n_modes), built once; a call returns the real parts of
    C @ (exp(i K x) * prod(y ** m)), computing each monomial once.  It agrees
    with ``Field.evaluate`` field by field up to summation order, with the
    same point-length check and the same non-real guard applied to every row.

    A call takes one point (dim,) or a stack of points (..., dim) and returns
    (n_fields,) or (..., n_fields).  A stack goes through batched matmul,
    which calls gemv once per point as one point's product does, so each row
    of a stack's values has the bits of that point's own call.

    Every row of a list with a mode is summed over the point's phases, so a
    non-finite torus coordinate gives NaN rows, also for constants and zeros:
    the zero key's phase 0 * x is then NaN.

    A function carries a true ``constant`` attribute when its values are the
    same at every point of every path they drive, which ``integrate.rk4_flow``
    reads to sum its path instead of stepping it.  It does when the list has
    ``dim`` fields, a vector field on its own space, and every axis a mode
    reads (a nonzero frequency on a torus axis, a nonzero exponent on a fiber
    axis) has a field with no key: such as the contact field of a Hamiltonian
    of x1 alone, minus the Reeb field (0, sin x1, cos x1, 0, 0, 0, 0) for a
    constant one, the frames of constant sections, and a list of ``dim``
    constants, such as the characteristic frame of the family (t sin x1, 0),
    which reads no axis.  Its paths move only unread axes (a read
    axis may only turn -0.0 into 0.0, which no value sees), where a zero
    frequency adds a signed zero to the phase and y ** 0 is 1, so every
    finite point of a path has the start's values bit for bit.  The rule is
    read off the keys once, here."""
    fields = list(fields)
    if not fields:
        raise ShapeError("nothing to evaluate")
    sp = fields[0].space
    if any(f.space != sp for f in fields):
        raise ShapeError("fields over different spaces")
    keys = sorted(set().union(*(f.packed for f in fields)))
    column = {key: j for j, key in enumerate(keys)}
    modes = [sp.unpack(key) for key in keys]
    freqs = np.array([k for k, _ in modes], dtype=float).reshape(len(keys), sp.torus_dim)
    monomials = {}   # fiber exponents -> row, in first-seen order
    monomial_of_mode = np.array([monomials.setdefault(m, len(monomials)) for _, m in modes],
                                dtype=np.intp)
    powers = np.array(list(monomials), dtype=float).reshape(len(monomials), sp.fiber_dim)
    coeffs = np.zeros((len(fields), len(keys)), dtype=complex)
    for row, f in enumerate(fields):
        for key, c in f.packed.items():
            coeffs[row, column[key]] = c
    torus_dim, dim = sp.torus_dim, sp.dim
    polynomial = bool(powers.any())
    # the axes some mode reads: a nonzero frequency or a nonzero exponent
    read = np.flatnonzero(np.concatenate([freqs.any(axis=0), powers.any(axis=0)]))
    constant = len(fields) == dim and not any(fields[j].packed for j in read)

    def evaluate(point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape[-1:] != (dim,):
            raise ShapeError(f"point of length {p.shape} for dim {dim}")
        one = p.ndim == 1
        # a 2-D gemm over the stack would not give gemv's bits
        phase = (freqs @ p[:torus_dim] if one
                 else np.matmul(freqs, p[..., :torus_dim, None])[..., 0])
        basis = np.exp(1j * phase)
        if polynomial:
            basis *= np.multiply.reduce(p[..., None, torus_dim:] ** powers,
                                        axis=-1).take(monomial_of_mode, axis=-1)
        val = coeffs @ basis if one else np.matmul(coeffs, basis[..., None])[..., 0]
        re, im = val.real, abs(val.imag)
        # the first test is the cheap exit: no row can fail below EVAL_IMAG_TOL
        if (np.maximum.reduce(im, axis=None, initial=0.0) > EVAL_IMAG_TOL
                and (im > np.maximum(EVAL_IMAG_TOL, 1e-14 * abs(re))).any()):
            raise ShapeError(f"non-real evaluation (imag={im.max():.3e}); "
                             "field violates Hermitian symmetry")
        return re

    if constant:
        evaluate.constant = True
    return evaluate


# an integer read by json.load; a float or a boolean is refused, not truncated
def json_int(value, name: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


# a finite number read by json.load; a boolean, a string, NaN, an infinity
# or an int beyond the float range is refused, not converted
def json_float(value, name: str) -> float:
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def wrap_torus(point, torus_dim: int):
    """Wrap the torus coordinates of a point, or of each path row, to [0, 2*pi)."""
    p = np.array(point, dtype=float)
    np.mod(p[..., :torus_dim], TWO_PI, out=p[..., :torus_dim])
    return p

"""Spans and counters recorded by the benchmark's own wrappers around the
public functions of each coisolab module.  Nothing inside ``src/`` changes.

A span is one call of a wrapped function: name, start, end, parent span.
Spans live in flat arrays while the run lasts and ``save`` writes them out,
tagged with the run id, when it ends.  A span's self time is its duration
minus the part its child spans cover; children of one call never overlap
(the program is single-threaded), so that part is the sum of their
durations.  Counters are taken from the arguments and results seen at the
wrappers, outside the span they describe.

No wrapped name recurses into itself in coisolab's call graph, so a name's
busy time is the plain sum of its span durations.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from coisolab import (cli, coisotropy, contact, dercalc, fields, foliation,
                      integrate, verify)

PASS = "pass"

# (owner, attribute, span name): methods are patched on their class, module
# functions wherever a coisolab module (or verify.SUITES) holds them.
_METHODS = (
    (fields.Field, "__init__", "fields.construct"),
    (fields.Field, "__add__", "fields.add"),
    (fields.Field, "partial", "fields.partial"),
    (fields.Field, "evaluate", "fields.evaluate"),
    (fields.VectorField, "apply", "fields.apply"),
    (dercalc.Form, "d", "dercalc.form_d"),
    (dercalc.Form, "contract", "dercalc.form_contract"),
    (dercalc.AtiyahForm, "d", "dercalc.atiyah_d"),
    (dercalc.AtiyahForm, "contract", "dercalc.atiyah_contract"),
    (dercalc.AtiyahForm, "lie", "dercalc.lie"),
    (dercalc.AtiyahForm, "evaluate_on", "dercalc.evaluate_on"),
    (dercalc.Derivation, "commutator", "dercalc.commutator"),
)
_FUNCTIONS = (
    (contact, "hamiltonian_field", "contact.hamiltonian_field"),
    (contact, "hamiltonian_derivation", "contact.hamiltonian_derivation"),
    (contact, "flat_matrix", "contact.flat_matrix"),
    (contact, "flow_contact", "contact.flow_contact"),
    (contact, "flow_with_frame", "contact.flow_with_frame"),
    (contact, "standard_contact", "contact.standard_contact"),
    (coisotropy, "prolong", "coisotropy.prolong"),
    (coisotropy, "residual", "coisotropy.residual"),
    (coisotropy, "kuranishi", "coisotropy.kuranishi"),
    (foliation, "characteristic_frame", "foliation.characteristic_frame"),
    (foliation, "trace_leaf", "foliation.trace_leaf"),
    (verify, "cartan_suite", "verify.cartan_suite"),
    (verify, "contact_suite", "verify.contact_suite"),
    (verify, "jacobi_suite", "verify.jacobi_suite"),
    (verify, "reduction_suite", "verify.reduction_suite"),
    (cli, "main", "cli.main"),
)
SUITES = ("verify.cartan_suite", "verify.contact_suite", "verify.jacobi_suite",
          "verify.reduction_suite")
LAYERS = ("fields", "dercalc", "contact", "integrate", "coisotropy",
          "foliation", "verify", "cli")
MODULES = ("__init__", "cli", "coisotropy", "contact", "dercalc", "fields",
           "foliation", "integrate", "verify")


def _stats(kind):
    return [(f"{name}.{stat}", unit) for name, stats in kind
            for stat, unit in stats]


_CALLS, _SELF, _BUSY = ("calls", "count"), ("self_s", "s"), ("busy_s", "s")

# Every per-layer metric the traced run prints, with its unit, in order.
PER_LAYER = (
    _stats([("fields.mul", [_CALLS, _SELF, ("term_pairs", "count"),
                          ("out_modes", "count"), ("trunc_loss", "abs")])])
    + _stats([(f"fields.{f}", [_CALLS, _SELF]) for f in ("add", "partial", "construct")])
    + _stats([("fields.apply", [_CALLS, _SELF, ("term_pairs", "count")]),
            ("fields.evaluate", [_CALLS, _SELF, ("modes", "count")])])
    + _stats([(f"dercalc.{f}", [_CALLS, _BUSY, _SELF])
            for f in ("form_d", "form_contract", "atiyah_d", "atiyah_contract",
                      "lie", "evaluate_on", "commutator")])
    + _stats([(f"contact.{f}", [_CALLS, _SELF])
            for f in ("hamiltonian_field", "hamiltonian_derivation",
                      "flat_matrix", "linalg_solve")])
    + _stats([(f"contact.{f}", [_BUSY])
            for f in ("flow_contact", "flow_with_frame", "standard_contact")])
    + _stats([("integrate.rk4_flow", [_CALLS, _BUSY, _SELF])])
    + [("integrate.steps", "count"), ("integrate.rhs_calls", "count"),
       ("integrate.rhs.busy_s", "s"), ("integrate.rhs_per_step", "ratio")]
    + _stats([(f"coisotropy.{f}", [_CALLS, _BUSY]) for f in ("prolong", "residual", "kuranishi")])
    + [("coisotropy.iterations", "count")]
    + _stats([("coisotropy.lstsq", [_CALLS, _BUSY, ("rows", "count"), ("cols", "count"),
                                  ("bytes", "byte_computed"), ("flops", "flop_computed")])])
    + [("coisotropy.accept_ratio", "ratio"), ("coisotropy.assembly_s", "s")]
    + _stats([(f"foliation.{f}", [_CALLS, _BUSY]) for f in ("characteristic_frame", "trace_leaf")])
    + _stats([(s, [_BUSY]) for s in SUITES])
    + [("verify.checks", "count")]
    + _stats([("cli.main", [_CALLS, _BUSY, _SELF])])
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.unaccounted_s", "s"), ("trace.spans", "count"),
       ("trace.overhead_ratio", "ratio")]
    + [(f"{'init' if m == '__init__' else m}.sloc", "line") for m in MODULES]
)


class Tracer:
    """Span and counter store for one run, plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.pass_counts: list[dict] = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span."""
        nid = self.name_id(name)
        stack, name_of, parent = self.stack, self.name_of, self.parent
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
        traced.__wrapped__ = fn
        return traced

    def run_pass(self, fn):
        """Run ``fn`` under one root span; returns its result.  The pass's
        counters are kept apart from the other passes'."""
        self.counts = defaultdict(float)
        try:
            return self.span(PASS, fn)()
        finally:
            self.pass_counts.append(self.counts)

    # -- installing the wrappers ---------------------------------------------

    def _replace(self, owners, orig, new):
        for owner in owners:
            items = owner if isinstance(owner, dict) else vars(owner)
            for attr, value in list(items.items()):
                if value is orig:
                    self._set(owner, attr, new)
                    self._undo.append((owner, attr, orig))

    @staticmethod
    def _set(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        """Patch every wrapped function; ``uninstall`` restores them."""
        modules = [m for n, m in sys.modules.items()
                   if n == "coisolab" or n.startswith("coisolab.")]
        name_of, stack = self.name_of, self.stack
        apply_id = self.name_id("fields.apply")
        prolong_id = self.name_id("coisotropy.prolong")
        tracer = self

        for cls, attr, name in _METHODS:
            orig = vars(cls)[attr]
            self._replace([cls], orig, self.span(name, orig))
        for module, attr, name in _FUNCTIONS:
            orig = getattr(module, attr)
            self._replace(modules + [verify.SUITES], orig, self.span(name, orig))

        # -- counters: each wrapper below calls the spanned function and
        # counts outside its span

        mul_orig = fields._mul_into
        mul_span = self.span("fields.mul", mul_orig)

        def mul_into(dst, a, b, scale=1):
            before = len(dst)
            loss = mul_span(dst, a, b, scale)
            c = tracer.counts
            pairs = len(a.coeffs) * len(b.coeffs)
            c["fields.mul.term_pairs"] += pairs
            c["fields.mul.out_modes"] += len(dst) - before
            c["fields.mul.trunc_loss"] += loss
            if name_of[stack[-1]] == apply_id:
                c["fields.apply.term_pairs"] += pairs
            return loss
        self._replace([fields, dercalc], mul_orig, mul_into)

        evaluate = fields.Field.evaluate

        def field_evaluate(field, point):
            tracer.counts["fields.evaluate.modes"] += len(field.coeffs)
            return evaluate(field, point)
        self._replace([fields.Field], evaluate, field_evaluate)

        residual = coisotropy.residual

        def counted_residual(s):
            t0 = perf_counter()
            try:
                return residual(s)
            finally:
                if prolong_id in (name_of[i] for i in stack[1:]):
                    tracer.counts["coisotropy.residual.in_prolong_s"] += perf_counter() - t0
        self._replace(modules, residual, counted_residual)

        prolong = coisotropy.prolong

        def counted_prolong(*args, **kwargs):
            rep = prolong(*args, **kwargs)
            tracer.counts["coisotropy.iterations"] += rep.iterations
            return rep
        self._replace(modules, prolong, counted_prolong)

        for name in SUITES:
            suite = getattr(verify, name.split(".")[1])

            def counted_suite(*args, _suite=suite, **kwargs):
                rep = _suite(*args, **kwargs)
                tracer.counts["verify.checks"] += len(rep["checks"])
                return rep
            self._replace(modules + [verify.SUITES], suite, counted_suite)

        rk4_orig = integrate.rk4_flow
        rk4_span = self.span("integrate.rk4_flow", rk4_orig)

        def rk4_flow(rhs, *args, **kwargs):
            path = rk4_span(self.span("integrate.rhs", rhs), *args, **kwargs)
            tracer.counts["integrate.steps"] += len(path) - 1
            return path
        self._replace(modules, rk4_orig, rk4_flow)

        solve_orig = np.linalg.solve
        self._replace([np.linalg], solve_orig, self.span("contact.linalg_solve", solve_orig))

        lstsq_orig = np.linalg.lstsq
        lstsq_span = self.span("coisotropy.lstsq", lstsq_orig)

        def lstsq(a, b, *args, **kwargs):
            out = lstsq_span(a, b, *args, **kwargs)
            m, n = np.shape(a)
            c = tracer.counts
            c["coisotropy.lstsq.rows"] = max(c["coisotropy.lstsq.rows"], m)
            c["coisotropy.lstsq.cols"] = max(c["coisotropy.lstsq.cols"], n)
            # computed from shapes: operands in and solution out, float64;
            # R-SVD least squares costs 2 m n^2 + 11 n^3 flops (Golub & Van
            # Loan, Matrix Computations, comparison of least-squares methods)
            c["coisotropy.lstsq.bytes"] += 8.0 * (m * n + m + n)
            c["coisotropy.lstsq.flops"] += 2.0 * m * n * n + 11.0 * n ** 3
            return out
        self._replace([np.linalg], lstsq_orig, lstsq)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            self._set(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def pass_metrics(self) -> list[dict]:
        """Per-layer metrics of every traced pass, from the spans and the
        counters; checks that the self times add up to the pass time."""
        n = len(self.start)
        name_of = np.array(self.name_of, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_t = dur - covered
        roots = np.flatnonzero(name_of == self.name_id(PASS))
        bounds = list(roots) + [n]
        out = []
        for i, counts in enumerate(self.pass_counts):
            lo, hi = bounds[i], bounds[i + 1]
            k = len(self.names)
            calls = np.bincount(name_of[lo:hi], minlength=k)
            busy = np.bincount(name_of[lo:hi], weights=dur[lo:hi], minlength=k)
            own = np.bincount(name_of[lo:hi], weights=self_t[lo:hi], minlength=k)
            m = {}
            for nid, name in enumerate(self.names):
                if name == PASS:
                    continue
                m[f"{name}.calls"] = int(calls[nid])
                m[f"{name}.busy_s"] = float(busy[nid])
                m[f"{name}.self_s"] = float(own[nid])
            m.update(counts)
            m["integrate.rhs_calls"] = m.get("integrate.rhs.calls", 0)
            steps = m.get("integrate.steps", 0)
            m["integrate.rhs_per_step"] = m["integrate.rhs_calls"] / steps if steps else 0.0
            lstsq_calls = m.get("coisotropy.lstsq.calls", 0)
            m["coisotropy.accept_ratio"] = (m.get("coisotropy.iterations", 0) / lstsq_calls
                                            if lstsq_calls else 0.0)
            m["coisotropy.assembly_s"] = (m.get("coisotropy.prolong.busy_s", 0.0)
                                          - m.get("coisotropy.residual.in_prolong_s", 0.0)
                                          - m.get("coisotropy.lstsq.busy_s", 0.0))
            for layer in LAYERS:
                m[f"{layer}.self_s"] = sum(
                    float(own[nid]) for nid, name in enumerate(self.names)
                    if name.split(".")[0] == layer)
            total = float(dur[lo])
            m["trace.pass_s"] = total
            m["trace.unaccounted_s"] = float(self_t[lo])
            m["trace.spans"] = int(hi - lo)
            accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unaccounted_s"]
            if abs(accounted - total) > 1e-6 * total:
                raise RuntimeError(f"self times add up to {accounted:.6f} s, "
                                   f"not the traced pass time {total:.6f} s")
            out.append(m)
        return out

    def save(self, path: Path):
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name=np.array(self.name_of, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))


def sloc(src: Path) -> dict:
    """Source lines of the package's modules: lines that are neither blank
    nor comments (docstrings count)."""
    out = {}
    for module in MODULES:
        text = (src / f"{module}.py").read_text().splitlines()
        key = "init" if module == "__init__" else module
        out[f"{key}.sloc"] = sum(1 for line in text
                                 if line.strip() and not re.match(r"\s*#", line))
    return out

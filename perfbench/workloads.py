"""Seeded inputs, fixed work lists and output checks of the three workloads.

A workload is a fixed list of units.  A unit is one suite call, one
trajectory, one solve or one CLI call.  Each unit returns ``(output,
problems)``: ``output`` is what the program produced, reduced to JSON-able
data for the pass digest, and ``problems`` names every output check that
failed.  Every check compares against a closed form of the paper or an
invariant the solver promises; none is a regression constant.

All inputs come from the workload seed through ``make_inputs``; the program
receives only those inputs.  ``prepare`` turns them into program objects
(and the files the CLI units read) and is part of the timed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from coisolab import cli, coisotropy, contact, fields, foliation, verify

ROOT = Path(__file__).resolve().parent.parent
SECTIONS = ROOT / "sections"
SECTION_FILES = ("constants.json", "obstructed.json", "st_sin.json", "zero.json")

TWO_PI = 2.0 * math.pi
# ||sin x1||_{L2(T^5)} = (2 pi)^{5/2} / sqrt 2: the stalled prolongation sits
# at eps^2 times this norm.
SIN_NORM = TWO_PI ** 2.5 / math.sqrt(2.0)
KURANISHI_AMP = TWO_PI ** 2 / 2.0

# identities: Cartan n >= 20 keeps the defining-formula cross-checks on a
# subsample (stride n // 10), as in acceptance criterion 5.
CARTAN_N = 20
CONTACT_N = 10
JACOBI_N = 10
REDUCTION_N = 50

# flows: step sizes of the acceptance tests; durations sized so one pass of
# the work list takes a few seconds at the seed commit.
FLOW_H = 1e-3
UNIT_POINTS, UNIT_DURATION = 3, 0.2
ROUND_TRIP_DURATION = 0.2
FRAME_POINTS, FRAME_DURATION, FRAME_H = 3, 0.1, 2.5e-3
LEAF_T, LEAF_DURATION, LEAF_H = 0.5, 2.0 * TWO_PI, 1e-2
CLI_FLOW_DURATION = 0.1

# prolong: the largest box that finishes in seconds; full radius 2 runs for
# minutes before the size guard rejects it.
PROLONG_BOX = (2, 1, 1, 1, 1)
CLI_EPS = 0.1
FAMILY_TS = 3

WORKLOADS = ("identities", "flows", "prolong")


def _seed_int(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _point7(rng) -> list:
    return ([float(v) for v in rng.uniform(0.0, TWO_PI, 5)]
            + [float(v) for v in rng.uniform(-1.0, 1.0, 2)])


def _hamiltonian_terms(rng, n_modes: int = 2) -> list:
    """Canonical-representative terms of a random trigonometric Hamiltonian
    on T^5 x R^2 (the reader adds the conjugates).  Every frequency has all
    five components in {-1, 1}, so the fields a flow evaluates have the same
    number of modes whatever the seed, and so does the work of a pass."""
    terms, seen = [], set()
    while len(terms) < n_modes:
        k = (1,) + tuple(int(a) for a in rng.choice((-1, 1), size=4))
        if k in seen:
            continue
        seen.add(k)
        re, im = (float(v) * 0.5 for v in rng.normal(size=2))
        terms.append({"k": list(k), "m": [0, 0], "re": re, "im": im})
    return terms


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-able inputs of one workload, a pure function of the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "identities":
        return {"suite_seed": _seed_int(rng), "cli_seed": _seed_int(rng)}
    if workload == "flows":
        return {
            "unit_points": [_point7(rng) for _ in range(UNIT_POINTS)],
            "hamiltonian_terms": _hamiltonian_terms(rng),
            "round_trip_point": _point7(rng),
            "transport_terms": _hamiltonian_terms(rng),
            "frame_points": [[float(v) for v in rng.uniform(0.0, TWO_PI, 5)]
                             for _ in range(FRAME_POINTS)],
            "leaf_start": [float(v) for v in rng.uniform(0.0, TWO_PI, 5)],
            "cli_point": _point7(rng),
        }
    if workload == "prolong":
        eps = [float(v) for v in rng.uniform(0.05, 0.3, 4)]
        return {"eps_radius1": eps[0], "eps_box": eps[1],
                "eps_st_sin": eps[2], "eps_constant": eps[3],
                "family_ts": [float(v) for v in rng.uniform(-2.0, 2.0, FAMILY_TS)]}
    raise KeyError(f"unknown workload '{workload}'")


def _field(terms) -> fields.Field:
    sp = contact.contact_space()
    return fields.Field.from_json_dict({
        "torus_dim": sp.torus_dim, "fiber_dim": sp.fiber_dim,
        "trunc_order": sp.trunc_order, "poly_deg": sp.poly_deg, "terms": terms})


def load_sections() -> dict:
    return {name: coisotropy.Section.from_json_dict(
        json.loads((SECTIONS / name).read_text())) for name in SECTION_FILES}


def prepare(workload: str, inputs: dict, cd, sections: dict, workdir: Path) -> list:
    """The workload's units as ``(name, callable)`` pairs.  ``cd`` is the
    verified contact structure and ``workdir`` takes the CLI input files."""
    return {"identities": _identities, "flows": _flows,
            "prolong": _prolong}[workload](inputs, cd, sections, workdir)


def _cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _suite_problems(report: dict) -> list:
    bad = [f"{report['suite']}.{c['check']} defect {c['max_defect']:.3e}"
           for c in report["checks"] if not c["pass"]]
    if not report["pass"] and not bad:
        bad.append(f"{report['suite']} suite did not pass")
    return bad


def _exact_zero(report: dict, check: str) -> list:
    entry = next(c for c in report["checks"] if c["check"] == check)
    return [] if entry["max_defect"] == 0.0 else \
        [f"{check} is {entry['max_defect']!r}, not exactly 0"]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _identities(inputs, cd, sections, workdir):
    seed, cli_seed = inputs["suite_seed"], inputs["cli_seed"]

    def cartan():
        rep = verify.cartan_suite(seed=seed, n=CARTAN_N)
        return rep, _suite_problems(rep)

    def contact_suite():
        rep = verify.contact_suite(seed=seed, n=CONTACT_N)
        return rep, _suite_problems(rep) + _exact_zero(rep, "varpi_closed")

    def jacobi():
        rep = verify.jacobi_suite(seed=seed, n=JACOBI_N)
        return rep, _suite_problems(rep)

    def reduction():
        rep = verify.reduction_suite(seed=seed, n=REDUCTION_N)
        return rep, _suite_problems(rep) + _exact_zero(rep, "reduction_pullback_equality")

    def cli_verify():
        code, out = _cli(["verify", "reduction", "--seed", str(cli_seed),
                          "--n", str(REDUCTION_N)])
        problems = [] if code == cli.EXIT_OK else [f"verify exit code {code}"]
        rep = json.loads(out)["suites"][0]
        problems += _suite_problems(rep) + _exact_zero(rep, "reduction_pullback_equality")
        return {"exit": code, "stdout": out}, problems

    return [("cartan_suite", cartan), ("contact_suite", contact_suite),
            ("jacobi_suite", jacobi), ("reduction_suite", reduction),
            ("cli_verify_reduction", cli_verify)]


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def _torus_gap(a, b) -> float:
    """Largest coordinate distance of two points of T^5 x R^2."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d[:5] = (d[:5] + math.pi) % TWO_PI - math.pi
    return float(np.max(np.abs(d)))


def _unit_flow_closed_form(p, t: float) -> np.ndarray:
    """The unit Hamiltonian flows along minus the Reeb field (0, sin x1,
    cos x1, 0, 0, 0, 0)."""
    q = np.array(p, dtype=float)
    q[1] -= t * math.sin(q[0])
    q[2] -= t * math.cos(q[0])
    return q


def _digest_array(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def _flows(inputs, cd, sections, workdir):
    sp = cd.space
    unit = fields.Field.constant(sp, 1.0)
    ham = _field(inputs["hamiltonian_terms"])
    transport = _field(inputs["transport_terms"])
    unit_path = workdir / "unit_hamiltonian.json"
    unit_path.write_text(json.dumps(unit.to_json_dict()))
    family = coisotropy.family_section(0.7)
    units = []

    for i, p in enumerate(inputs["unit_points"]):
        def unit_flow(p=p):
            path = contact.flow_contact(cd, unit, p, UNIT_DURATION, h=FLOW_H)
            times = np.minimum(np.arange(len(path)) * FLOW_H, UNIT_DURATION)
            gap = max(_torus_gap(q, _unit_flow_closed_form(p, t))
                      for q, t in zip(path, times))
            return _digest_array(path), [] if gap <= 1e-8 else \
                [f"unit flow off its closed form by {gap:.3e}"]
        units.append((f"unit_flow_{i}", unit_flow))

    def round_trip():
        p = inputs["round_trip_point"]
        fwd = contact.flow_contact(cd, ham, p, ROUND_TRIP_DURATION, h=FLOW_H)
        back = contact.flow_contact(cd, ham, fwd[-1], -ROUND_TRIP_DURATION, h=FLOW_H)
        gap = _torus_gap(back[-1], p)
        return [_digest_array(fwd), _digest_array(back)], [] if gap <= 1e-7 else \
            [f"forward-and-back flow misses its start by {gap:.3e}"]
    units.append(("round_trip", round_trip))

    fparts = [family.f.partial(i) for i in range(5)]
    gparts = [family.g.partial(i) for i in range(5)]
    for i, x in enumerate(inputs["frame_points"]):
        def transported(x=x):
            # a graph point of the exactly coisotropic family and its tangent
            # plane, moved by a contact flow: the graph stays coisotropic
            p = np.concatenate([x, [family.f.evaluate(x), family.g.evaluate(x)]])
            frame = np.zeros((7, 5))
            frame[:5] = np.eye(5)
            frame[5] = [fp.evaluate(x) for fp in fparts]
            frame[6] = [gp.evaluate(x) for gp in gparts]
            end, moved = contact.flow_with_frame(cd, transport, p, frame,
                                                 FRAME_DURATION, h=FRAME_H)
            jets = moved[5:] @ np.linalg.inv(moved[:5])
            r = coisotropy.residual_from_jet(end[0], end[5], end[6], jets[0], jets[1])
            return [_digest_array(end), _digest_array(moved)], [] if abs(r) < 1e-5 else \
                [f"transported coisotropicity residual {r:.3e}"]
        units.append((f"frame_transport_{i}", transported))

    def leaf():
        frame = foliation.characteristic_frame(coisotropy.family_section(LEAF_T))
        tr = foliation.trace_leaf(frame, inputs["leaf_start"], LEAF_DURATION, h=LEAF_H)
        lattice = (tr.lifted[-1] - tr.lifted[0]) / TWO_PI
        gap = float(np.max(np.abs(lattice - np.round(lattice))))
        return _digest_array(tr.lifted), [] if gap < 1e-8 else \
            [f"t = 1/2 leaf misses closure at 4 pi by {gap:.3e}"]
    units.append(("trace_leaf", leaf))

    def cli_flow():
        p = inputs["cli_point"]
        code, out = _cli(["flow", str(unit_path), "--point", ",".join(map(repr, p)),
                          "--duration", repr(CLI_FLOW_DURATION), "--step", repr(FLOW_H)])
        problems = [] if code == cli.EXIT_OK else [f"flow exit code {code}"]
        # the t column is not checked: its tail-step value is a known defect
        last = np.array([float(v) for v in out.strip().splitlines()[-1].split(",")[2:]])
        gap = _torus_gap(last, _unit_flow_closed_form(p, CLI_FLOW_DURATION))
        if gap > 1e-8:
            problems.append(f"CLI flow end off its closed form by {gap:.3e}")
        return {"exit": code, "stdout": out}, problems
    units.append(("cli_flow", cli_flow))
    return units


# ---------------------------------------------------------------------------
# prolong
# ---------------------------------------------------------------------------

def _inner(a: coisotropy.Section, b: coisotropy.Section) -> float:
    """Real inner product of coefficient vectors over both components; the
    solver's weighted coordinates realise the same product."""
    total = 0.0
    for fa, fb in ((a.f, b.f), (a.g, b.g)):
        for key, c in fa.coeffs.items():
            total += (c * fb.coeffs.get(key, 0.0).conjugate()).real
    return total


def _solve_invariants(rep, direction, eps) -> list:
    """What every report promises whatever its verdict: the constraint
    holds, the history never increases, the reported floor is the
    from-scratch residual of the final section, and nothing was truncated."""
    problems = []
    h = rep.residual_norm_history
    if any(b > a for a, b in zip(h, h[1:])):
        problems.append("residual history increases")
    final = rep.final_section
    proj = _inner(final, direction) / _inner(direction, direction)
    if abs(proj - eps) > 1e-9 * eps:
        problems.append(f"constraint broken: projection {proj!r} != eps {eps!r}")
    r = coisotropy.residual(final)
    if abs(r.l2_norm() - h[-1]) > 1e-12 * max(1.0, h[-1]):
        problems.append(f"floor {h[-1]!r} != from-scratch residual {r.l2_norm()!r}")
    if rep.truncation_loss != 0.0 or r.trunc_loss != 0.0:
        problems.append(f"trunc_loss {rep.truncation_loss!r} where exactness is claimed")
    return problems


def _prolong(inputs, cd, sections, workdir):
    obstructed = sections["obstructed.json"]
    sp = coisotropy.base_space()
    constant = coisotropy.Section(fields.Field.constant(sp, 1.0), fields.Field.zero(sp))
    units = []

    def kuranishi():
        k = coisotropy.kuranishi(obstructed)
        want = {((1, 0, 0), ()): -1j * KURANISHI_AMP, ((-1, 0, 0), ()): 1j * KURANISHI_AMP}
        problems = [] if k.coeffs == want else \
            [f"Kuranishi coefficients {k.coeffs} are not -+i (2 pi)^2/2"]
        if k.trunc_loss != 0.0:
            problems.append(f"Kuranishi trunc_loss {k.trunc_loss!r}")
        return k.to_json_dict(), problems
    units.append(("kuranishi", kuranishi))

    for i, t in enumerate(inputs["family_ts"]):
        def family(t=t):
            r = coisotropy.residual(coisotropy.family_section(t))
            return r.to_json_dict(), [] if r.is_zero() and r.trunc_loss == 0.0 else \
                [f"family residual at t={t!r} is not exactly zero"]
        units.append((f"family_residual_{i}", family))

    def obstructed_radius1():
        eps = inputs["eps_radius1"]
        rep = coisotropy.prolong(obstructed, eps)
        problems = _solve_invariants(rep, obstructed, eps)
        floor, want = rep.residual_norm_history[-1], eps * eps * SIN_NORM
        if rep.status != "obstructed":
            problems.append(f"radius-1 verdict {rep.status}, not obstructed")
        if abs(floor - want) > 1e-6 * want:
            problems.append(f"floor {floor!r} != eps^2 ||sin x1|| = {want!r}")
        return rep.to_json_dict(), problems
    units.append(("prolong_obstructed_radius1", obstructed_radius1))

    def obstructed_box():
        # the verdict at this box is a solver heuristic, so only invariants
        eps = inputs["eps_box"]
        rep = coisotropy.prolong(obstructed, eps,
                                 coisotropy.ProlongOptions(solver_radius=PROLONG_BOX))
        return rep.to_json_dict(), _solve_invariants(rep, obstructed, eps)
    units.append(("prolong_obstructed_box", obstructed_box))

    for name, direction, key in (("st_sin", sections["st_sin.json"], "eps_st_sin"),
                                 ("constant", constant, "eps_constant")):
        def converging(direction=direction, eps=inputs[key], name=name):
            rep = coisotropy.prolong(direction, eps)
            problems = _solve_invariants(rep, direction, eps)
            if rep.status != "converged":
                problems.append(f"{name} direction verdict {rep.status}, not converged")
            return rep.to_json_dict(), problems
        units.append((f"prolong_{name}", converging))

    def cli_prolong():
        code, out = _cli(["prolong", str(SECTIONS / "obstructed.json"),
                          "--eps", repr(CLI_EPS)])
        problems = [] if code == cli.EXIT_OBSTRUCTED else [f"prolong exit code {code}, not 3"]
        rep = json.loads(out)
        floor, want = rep["residual_norm_history"][-1], CLI_EPS ** 2 * SIN_NORM
        if abs(floor - want) > 1e-6 * want:
            problems.append(f"CLI floor {floor!r} != eps^2 ||sin x1|| = {want!r}")
        return {"exit": code, "stdout": out}, problems
    units.append(("cli_prolong", cli_prolong))
    return units

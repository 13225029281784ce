"""Command-line interface.

Structured results are JSON (sorted keys, so the same flags and inputs give
byte-identical reports); trajectories are CSV.  Exit codes: 0 success or
converged, 1 solver gave up without a verdict, 2 input error (a mistyped or
non-finite number, an output path that cannot be opened, found before any
work, a refused flow, a trajectory too large to allocate, a degenerate contact
pairing, evidence that lost mass to truncation, an inexact or oversized
prolongation box, keys beyond int64), 3 obstructed verdict, 4 verification
failure, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import contact as ct
from . import foliation, integrate, verify
from .coisotropy import (ProlongOptions, Section, family_section, kuranishi,
                         prolong, residual)
from .fields import Field, json_float, require_exact

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_OBSTRUCTED = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141     # 128 + SIGPIPE, as a shell reports a writer killed by it

# the global flags' defaults: the namespace each parse starts from
DEFAULTS = {"seed": 0, "trunc": 8, "tol": 1e-9, "out": None}


def _emit(text: str, stream):
    stream.write(text)
    stream.flush()   # a closed reader shows here, inside main


def _emit_json(payload, stream):
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", stream)


def _load_json(path: str, cls):
    """A Section or Field read from a JSON file, or one input error line."""
    kind = cls.__name__.lower()
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{kind} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    try:
        return cls.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad {kind} payload: {exc}")


def _parse_point(text: str, dim: int) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != dim:
        raise ValueError(f"point needs {dim} coordinates, got {len(parts)}")
    return np.array([json_float(float(p), "point coordinate") for p in parts])


def _parse_radius(text: str):
    """The solver radius of ``prolong --radius``: one integer for every
    torus axis, or five comma-separated integers, one per axis."""
    parts = text.split(",")
    if len(parts) not in (1, 5) or not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
        raise ValueError("radius must be one integer or five comma-separated "
                         f"integers, got {text!r}")
    radii = tuple(int(p) for p in parts)
    return radii if len(radii) == 5 else radii[0]


CSV_CHUNK = 256   # table rows formatted and written at a time


def _emit_csv(header: str, table, stream):
    """A trajectory as CSV: the header, then one line per row of the table,
    the row index followed by every value.  The rows go to the stream
    CSV_CHUNK at a time, so the text is never held whole."""
    stream.write(header + "\n")
    for start in range(0, len(table), CSV_CHUNK):
        rows = enumerate(table[start:start + CSV_CHUNK].tolist(), start)
        stream.write("".join(f"{i},{','.join(map(repr, row))}\n" for i, row in rows))
    stream.flush()   # a closed reader shows here, inside main


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_residual(args, out) -> int:
    s = _load_json(args.section, Section)
    r = residual(s)
    _emit_json({"check": "residual",
                "residual_norm": r.l2_norm(),
                "max_abs": r.max_abs(),
                "truncation_loss": r.trunc_loss}, out)
    return EXIT_OK


def cmd_kuranishi(args, out) -> int:
    s = _load_json(args.section, Section)
    obstruction = kuranishi(s)
    require_exact("Kuranishi obstruction", obstruction)
    nonzero = obstruction.max_abs() > args.tol
    _emit_json({"check": "kuranishi",
                "norm": obstruction.l2_norm(),
                "max_abs": obstruction.max_abs(),
                "nonzero": bool(nonzero),
                "field": obstruction.to_json_dict()}, out)
    return EXIT_OK


def cmd_prolong(args, out) -> int:
    direction = _load_json(args.section, Section)
    opts = ProlongOptions(tol=args.tol, max_iters=args.max_iters,
                          solver_radius=_parse_radius(args.radius))
    report = prolong(direction, args.eps, opts)
    _emit_json(report.to_json_dict(), out)
    return {"converged": EXIT_OK, "obstructed": EXIT_OBSTRUCTED}.get(report.status, EXIT_FAIL)


def cmd_leaves(args, out) -> int:
    if (args.t is None) == (args.section is None):
        raise ValueError("choose exactly one of --t or --section")
    if args.t is not None:
        verdict = foliation.classify_leaf_linear(args.t, tol=args.tol,
                                                 max_denominator=args.max_denominator)
        payload = {"t": args.t, **verdict.to_json_dict()}
        start, duration = _parse_point(args.start, 5), args.duration
        if duration is None:
            duration = verdict.periods[0] if verdict.kind == "torus" else 2.0 * math.pi
        # the verdict is closed-form: a trace is only written, but the trace
        # flags are refused on either route as the integrator refuses them
        integrate.check_span(duration, args.step)
        if args.csv is not None:
            frame = foliation.characteristic_frame(
                family_section(args.t, args.trunc))
            trace = foliation.trace_leaf(frame, start, duration, h=args.step)
    else:
        s = _load_json(args.section, Section)
        verdict, trace = foliation.classify_section_leaf(
            s, _parse_point(args.start, 5),
            2.0 * math.pi if args.duration is None else args.duration,
            h=args.step)
        payload = verdict.to_json_dict()
    _emit_json(payload, out)
    if args.csv is not None:
        _emit_csv("step,x1,x2,x3,x4,x5,u1,u2,u3,u4,u5",
                  np.hstack([trace.points, trace.lifted]), args.csv)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    report = verify.run_suites(args.suite, seed=args.seed, n=args.n,
                               trunc_order=args.trunc)
    if args.n == 0:
        sys.stderr.write("warning: --n 0 requested, suites pass vacuously\n")
    _emit_json(report, out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_flow(args, out) -> int:
    lam = _load_json(args.hamiltonian, Field)
    cd = ct.standard_contact(verify=False)
    p = _parse_point(args.point, cd.space.dim)
    path = ct.flow_contact(cd, lam, p, args.duration, h=args.step)
    # the last row ends the flow, at the duration; adding 0.0 prints the
    # start of a backward flow as 0.0, not -0.0
    t = np.arange(len(path)) * args.step * (1 if args.duration >= 0 else -1)
    t[-1] = args.duration
    _emit_csv("step,t,x1,x2,x3,x4,x5,y4,y5", np.column_stack([t + 0.0, path]), out)
    return EXIT_OK


def cmd_scan(args, out) -> int:
    values = [float(v) for v in args.values]
    report = foliation.integrality_scan(values, tol=args.tol,
                                        max_denominator=args.max_denominator)
    _emit_json(report, out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one line and exit 2, as for any input error
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process on first use
    and shared: each ``parse_args`` call fills a fresh namespace."""
    # global flags live on a parent so they are accepted before or after the
    # subcommand; SUPPRESS defaults keep subparsers from clobbering values
    # parsed at the top level, and main starts each parse from DEFAULTS (a
    # default set on the shared actions would clobber them too)
    common = argparse.ArgumentParser(add_help=False)
    for args, kw in (
        (("--seed",), {"type": int, "help": "PRNG seed"}),
        (("--trunc",), {"type": int, "help": "frequency truncation order of "
                                             "verify and leaves --t"}),
        (("--tol",), {"type": float,
                      "help": "tolerance of the kuranishi verdict, the prolong "
                              "solver and leaf rationality (verify keeps its "
                              "fixed identity tolerances)"}),
        (("--out",), {"help": "write the main report here instead of stdout"}),
    ):
        common.add_argument(*args, default=argparse.SUPPRESS, **kw)

    parser = _Parser(
        prog="coisolab", allow_abbrev=False, parents=[common],
        description="coisotropic-deformation laboratory on T^5 x R^2")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kw)
        p.set_defaults(func=fn)
        return p

    p = add("residual", cmd_residual, help="coisotropicity residual of a section")
    p.add_argument("section")

    p = add("kuranishi", cmd_kuranishi,
            help="prolongability obstruction of a section")
    p.add_argument("section")

    p = add("prolong", cmd_prolong, help="Gauss-Newton prolongation attempt")
    p.add_argument("section", help="direction (infinitesimal deformation) file")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--radius", default="1",
                   help="frequency radius of the solver unknowns: one integer, "
                        "or five comma-separated ones, one per torus axis")

    p = add("leaves", cmd_leaves, help="classify / trace characteristic leaves")
    p.add_argument("--t", type=float, help="parameter of the linear family")
    p.add_argument("--section", help="section file for trace-based evidence")
    p.add_argument("--start", default="0,0,0,0,0")
    p.add_argument("--duration", type=float)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--max-denominator", type=int, default=10 ** 6)
    p.add_argument("--csv", help="trace the leaf and write its CSV here")

    p = add("scan", cmd_scan, help="integrality scan over family parameters")
    p.add_argument("values", nargs="*")
    p.add_argument("--max-denominator", type=int, default=10 ** 6)

    p = add("verify", cmd_verify, help="randomized identity suites")
    p.add_argument("suite", choices=(*verify.SUITES, "all"))
    p.add_argument("--n", type=int, default=50)

    p = add("flow", cmd_flow, help="contact flow trajectory of a Hamiltonian")
    p.add_argument("hamiltonian", help="Field JSON of the Hamiltonian section")
    p.add_argument("--point", required=True, help="7 start coordinates")
    p.add_argument("--duration", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv, argparse.Namespace(**DEFAULTS))
        if not 0 < args.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {args.tol!r}")
        if args.seed < 0:
            raise ValueError(f"seed must be non-negative, got {args.seed!r}")
        with contextlib.ExitStack() as stack:
            # each destination is opened once, before the work: a path that
            # cannot be opened ("" included) is refused before it costs anything
            out = sys.stdout if args.out is None else stack.enter_context(open(args.out, "w"))
            if getattr(args, "csv", None) is not None:
                args.csv = stack.enter_context(open(args.csv, "w"))
            return args.func(args, out)
    except BrokenPipeError:
        # nothing to report; stdout goes to devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError, MemoryError, integrate.StepSizeError,
            ct.NondegeneracyError) as exc:
        # a bare MemoryError() has no message: name the exception instead
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Structured results are JSON (sorted keys, so identical seed and config give
byte-identical reports); trajectories are CSV.  Exit codes: 0 success or
converged, 1 solver gave up without a verdict, 2 input error (including a
mistyped or non-finite number, a flow the integrator refuses, a degenerate
contact pairing, a Hamiltonian field or identity-check evidence truncated by
the box, and a prolongation system above the solver size guard), 3 obstructed
verdict, 4 verification failure, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import contact as ct
from . import foliation, integrate, verify
from .coisotropy import (ProlongOptions, Section, family_section, kuranishi,
                         prolong, residual)
from .fields import Field, json_float, json_int

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_OBSTRUCTED = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141     # 128 + SIGPIPE, as a shell reports a writer killed by it

CONFIG_ENV = "COISOLAB_CONFIG"


@dataclass
class RunConfig:
    trunc_order: int = 8
    tol: float = 1e-9
    seed: int = 0
    out: str | None = None


def _cfg(args) -> RunConfig:
    cfg = RunConfig()
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key '{key}'")
            name = f"config key '{key}'"
            if key == "out" and not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
            setattr(cfg, key, json_float(value, name) if key == "tol"
                    else value if key == "out" else json_int(value, name))
    for key, flag in (("seed", "seed"), ("trunc_order", "trunc"),
                      ("tol", "tol"), ("out", "out")):
        if getattr(args, flag, None) is not None:
            setattr(cfg, key, getattr(args, flag))
    if not 0 < cfg.tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {cfg.tol!r}")
    return cfg


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()   # a closed reader shows here, inside main


def _emit_json(payload, out_path: str | None):
    _emit(json.dumps(payload, sort_keys=True, indent=2), out_path)


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


def _trace_csv(trace: foliation.LeafTrace) -> str:
    lines = ["step,x1,x2,x3,x4,x5,u1,u2,u3,u4,u5"]
    for i, (w, u) in enumerate(zip(trace.points, trace.lifted)):
        vals = [repr(float(v)) for v in list(w) + list(u)]
        lines.append(",".join([str(i)] + vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_residual(args, cfg: RunConfig) -> int:
    s = _load_json(args.section, Section)
    r = residual(s)
    _emit_json({"check": "residual",
                "residual_norm": r.l2_norm(),
                "max_abs": r.max_abs(),
                "truncation_loss": r.trunc_loss}, cfg.out)
    return EXIT_OK


def cmd_kuranishi(args, cfg: RunConfig) -> int:
    s = _load_json(args.section, Section)
    obstruction = kuranishi(s)
    nonzero = obstruction.max_abs() > cfg.tol
    _emit_json({"check": "kuranishi",
                "norm": obstruction.l2_norm(),
                "max_abs": obstruction.max_abs(),
                "nonzero": bool(nonzero),
                "field": obstruction.to_json_dict()}, cfg.out)
    return EXIT_OK


def cmd_prolong(args, cfg: RunConfig) -> int:
    direction = _load_json(args.section, Section)
    opts = ProlongOptions(tol=cfg.tol, max_iters=args.max_iters,
                          solver_radius=args.radius)
    report = prolong(direction, args.eps, opts)
    _emit_json(report.to_json_dict(), cfg.out)
    return {"converged": EXIT_OK, "obstructed": EXIT_OBSTRUCTED}.get(report.status, EXIT_FAIL)


def cmd_leaves(args, cfg: RunConfig) -> int:
    if (args.t is None) == (args.section is None):
        raise ValueError("choose exactly one of --t or --section")
    if args.t is not None:
        verdict = foliation.classify_leaf_linear(args.t, tol=cfg.tol,
                                                 max_denominator=args.max_denominator)
        payload = {"t": args.t, **verdict.to_json_dict()}
        trace = None
        if args.trace:
            frame = foliation.characteristic_frame(
                family_section(args.t, cfg.trunc_order))
            duration = args.duration
            if duration is None and verdict.kind == "torus":
                duration = verdict.periods[0]
            trace = foliation.trace_leaf(frame, _parse_point(args.start, 5),
                                         duration or 2.0 * math.pi, h=args.step)
    else:
        s = _load_json(args.section, Section)
        verdict, trace = foliation.classify_section_leaf(
            s, _parse_point(args.start, 5), args.duration or 2.0 * math.pi,
            h=args.step)
        payload = verdict.to_json_dict()
    _emit_json(payload, cfg.out)
    if trace is not None and args.csv:
        _emit(_trace_csv(trace), args.csv)
    return EXIT_OK


def cmd_verify(args, cfg: RunConfig) -> int:
    report = verify.run_suites(args.suite, seed=cfg.seed, n=args.n,
                               trunc_order=cfg.trunc_order)
    if args.n == 0:
        sys.stderr.write("warning: --n 0 requested, suites pass vacuously\n")
    _emit_json(report, cfg.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_flow(args, cfg: RunConfig) -> int:
    lam = _load_json(args.hamiltonian, Field)
    cd = ct.standard_contact(verify=False)
    p = _parse_point(args.point, cd.space.dim)
    path = ct.flow_contact(cd, lam, p, args.duration, h=args.step)
    n_full, _ = integrate.split_duration(args.duration, args.step)
    sign = 1 if args.duration >= 0 else -1
    lines = ["step,t,x1,x2,x3,x4,x5,y4,y5"]
    for i, q in enumerate(path):
        # a row past the full steps ends the tail step, at the duration;
        # adding 0.0 prints the start of a backward flow as 0.0, not -0.0
        t = (i * args.step * sign if i <= n_full else args.duration) + 0.0
        lines.append(",".join([str(i), repr(float(t))]
                              + [repr(float(v)) for v in q]))
    _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_scan(args, cfg: RunConfig) -> int:
    values = [float(v) for v in args.values]
    report = foliation.integrality_scan(values, tol=cfg.tol,
                                        max_denominator=args.max_denominator)
    _emit_json(report, cfg.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # global flags live on a parent so they are accepted before or after the
    # subcommand; SUPPRESS defaults keep subparsers from clobbering values
    # parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for args, kw in (
        (("--config",), {"help": f"JSON config path (or ${CONFIG_ENV})"}),
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

    parser = argparse.ArgumentParser(
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
    p.add_argument("--radius", type=int, default=1,
                   help="per-axis frequency radius of the solver unknowns")

    p = add("leaves", cmd_leaves, help="classify / trace characteristic leaves")
    p.add_argument("--t", type=float, help="parameter of the linear family")
    p.add_argument("--section", help="section file for trace-based evidence")
    p.add_argument("--start", default="0,0,0,0,0")
    p.add_argument("--duration", type=float)
    p.add_argument("--step", type=float, default=1e-2)
    p.add_argument("--max-denominator", type=int, default=10 ** 6)
    p.add_argument("--trace", action="store_true", help="also integrate a trace")
    p.add_argument("--csv", help="write the trace CSV here")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _cfg(args))
    except BrokenPipeError:
        # nothing to report; stdout goes to devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError, integrate.StepSizeError,
            ct.NondegeneracyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

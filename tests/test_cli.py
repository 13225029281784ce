"""Command-line surface: reports, exit codes, determinism, file handling."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coisolab import cli, coisotropy, contact, fields, foliation, verify
from coisolab.cli import main
from coisolab.coisotropy import ProlongOptions, Section, prolong
from coisolab.contact import contact_space
from coisolab.fields import Field

SECTIONS = os.path.join(os.path.dirname(__file__), os.pardir, "sections")
TWO_PI = 2 * math.pi


def sect(name):
    return os.path.join(SECTIONS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- residual ----------------------------------------------------------------

def test_residual_of_family_member(capsys):
    code, out, _ = run(capsys, "residual", sect("st_sin.json"))
    assert code == 0
    data = json.loads(out)
    assert data["residual_norm"] == 0.0
    assert data["truncation_loss"] == 0.0


def test_residual_of_zero_section(capsys):
    code, out, _ = run(capsys, "residual", sect("zero.json"))
    assert code == 0 and json.loads(out)["residual_norm"] == 0.0


def test_residual_of_obstructed_section(capsys):
    code, out, _ = run(capsys, "residual", sect("obstructed.json"))
    assert code == 0
    norm = json.loads(out)["residual_norm"]
    assert norm == pytest.approx(TWO_PI ** 2.5 / math.sqrt(2), rel=1e-12)


# -- kuranishi ------------------------------------------------------------------

def test_kuranishi_obstructed(capsys):
    code, out, _ = run(capsys, "kuranishi", sect("obstructed.json"))
    assert code == 0
    data = json.loads(out)
    assert data["nonzero"] is True
    field = Field.from_json_dict(data["field"])
    assert field.space.torus_dim == 3
    amp = TWO_PI ** 2 / 2
    assert field.coeffs[((1, 0, 0), ())] == pytest.approx(-1j * amp, abs=1e-10)


def test_kuranishi_lossy_obstruction_exit_two(capsys, tmp_path):
    # f = E_(8,1,0,0,0), g = E_(8,0,1,0,0) at N = 8: the products reach
    # k1 = 16, and the obstruction loses 6.5 of its mass to the box; its
    # nonzero verdict would measure the box, so it is refused
    sp = {"torus_dim": 5, "fiber_dim": 0, "trunc_order": 8, "poly_deg": 0}
    path = tmp_path / "lossy.json"
    path.write_text(json.dumps({c: {**sp, "terms": [{"k": k, "m": [], "re": 0.5, "im": 0.0}]}
                                for c, k in (("f", [8, 1, 0, 0, 0]), ("g", [8, 0, 1, 0, 0]))}))
    code, out, err = run(capsys, "kuranishi", str(path))
    assert code == 2 and out == ""
    assert err == "error: Kuranishi obstruction lost mass 6.500e+00 to truncation\n"


def test_kuranishi_constants(capsys):
    code, out, _ = run(capsys, "kuranishi", sect("constants.json"))
    data = json.loads(out)
    assert code == 0 and data["nonzero"] is False and data["norm"] == 0.0


def test_kuranishi_family(capsys):
    code, out, _ = run(capsys, "kuranishi", sect("st_sin.json"))
    assert code == 0 and json.loads(out)["nonzero"] is False


# -- prolong ----------------------------------------------------------------------

def test_prolong_family_direction_exit_zero(capsys):
    code, out, _ = run(capsys, "prolong", sect("st_sin.json"), "--eps", "0.25")
    assert code == 0
    assert json.loads(out)["status"] == "converged"


def test_prolong_obstructed_exit_three(capsys):
    code, out, _ = run(capsys, "prolong", sect("obstructed.json"), "--eps", "0.1")
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "obstructed"
    assert data["residual_norm_history"][-1] > 1e-4


def test_prolong_invalid_direction_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad_direction.json"
    from coisolab.coisotropy import Section, base_space
    sp = base_space(8)
    bad.write_text(json.dumps(
        Section(Field.zero(sp), Field.cos(sp, 3)).to_json_dict()))
    code, _, err = run(capsys, "prolong", str(bad), "--eps", "0.1")
    assert code == 2
    assert "infinitesimal" in err


def test_prolong_oversized_system_exit_two_before_assembly(capsys, monkeypatch):
    # radius 2 is accepted at the shipped bounds; set below its 6250 unknowns
    # or its first closure, either bound refuses it with one line
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    for bound, value, start in (
            ("MAX_UNKNOWNS", 6249, "error: solver box of 6250 unknowns exceeds MAX_UNKNOWNS"),
            ("MAX_SECTOR", 40, "error: solver sector grows past MAX_SECTOR = 40")):
        with monkeypatch.context() as patch:
            patch.setattr(coisotropy, bound, value)
            code, out, err = run(capsys, "prolong", sect("obstructed.json"), "--radius", "2")
        assert code == 2 and out == ""
        assert err.startswith(start) and err.count("\n") == 1


def test_prolong_per_axis_radius(capsys):
    # five comma-separated radii reach the box the one-integer form cannot
    code, out, err = run(capsys, "prolong", sect("obstructed.json"), "--radius", "2,1,1,1,1")
    assert (code, err) == (3, "")
    with open(sect("obstructed.json")) as fh:
        direction = Section.from_json_dict(json.load(fh))
    want = prolong(direction, 0.1, ProlongOptions(solver_radius=(2, 1, 1, 1, 1)))
    assert json.loads(out) == want.to_json_dict()
    assert want.iterations == 7


@pytest.mark.parametrize("radius, k", [("4,4,4,0,0", None), ("8,8,0,0,0", None),
                                      ("1", [4, 0, 0, 0, 0])],
                         ids=["radii-444", "radii-88", "own-x1-mode"])
def test_prolong_inexact_box_exit_two(capsys, tmp_path, monkeypatch, radius, k):
    # a box whose residual or Jacobian would leave the truncation box is
    # refused before assembly, also when the direction's own mode forces
    # r1 = 4 at N = 8
    def no_assembly(*args):
        raise AssertionError("assembled a Jacobian")
    monkeypatch.setattr(coisotropy, "_jacobian", no_assembly)
    path = sect("obstructed.json")
    if k is not None:
        data = json.loads(Path(path).read_text())
        for c in "fg":
            data[c]["terms"][0]["k"] = k
        path = tmp_path / "direction.json"
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, "prolong", str(path), "--radius", radius)
    assert code == 2 and out == ""
    assert err.startswith("error: solver radii") and err.count("\n") == 1
    assert "exceed the truncation order 8" in err


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 9 GiB")],
                         ids=["bare", "with-message"])
def test_memory_error_exit_two(capsys, monkeypatch, exc):
    # an allocation that fails under main is one input error line, never a
    # traceback or a bare "error:"
    def out_of_memory(*args):
        raise exc
    monkeypatch.setattr(cli, "prolong", out_of_memory)
    code, out, err = run(capsys, "prolong", sect("obstructed.json"))
    assert code == 2 and out == ""
    assert err == f"error: {str(exc) or 'MemoryError'}\n"


def test_prolong_key_overflow_exit_two(capsys, tmp_path, monkeypatch):
    # at trunc_order 1552 the largest packed key, (4 N + 1)^5 - 1, no longer
    # fits int64: the space is refused before any work
    def no_work(*args):
        raise AssertionError("started the solve")
    monkeypatch.setattr(coisotropy, "linearized_residual", no_work)
    data = json.loads(Path(sect("obstructed.json")).read_text())
    for c in "fg":
        data[c]["trunc_order"] = 1552
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "prolong", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: truncation order 1552 overflows int64") and err.count("\n") == 1


# -- leaves / scan ------------------------------------------------------------------

def test_leaves_rational(capsys):
    code, out, _ = run(capsys, "leaves", "--t", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "torus"
    assert data["periods"][0] == pytest.approx(2 * TWO_PI)


def test_leaves_irrational(capsys):
    code, out, _ = run(capsys, "leaves", "--t", repr(math.sqrt(2)))
    assert code == 0
    assert json.loads(out)["verdict"] == "cylinder"


def test_leaves_trace_csv(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "leaves", "--t", "0.5",
                       "--csv", str(csv_path), "--step", "0.01")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2,x3,x4,x5,u1,u2,u3,u4,u5"
    assert len(lines) > 100


def test_leaves_traces_only_into_its_csv(capsys, tmp_path, monkeypatch):
    # the --t verdict is closed-form: a trace is integrated only to be
    # written, once; --trace used to integrate one and drop it
    calls = []
    real_trace = foliation.trace_leaf

    def counted(*a, **kw):
        calls.append(1)
        return real_trace(*a, **kw)

    def refused(*a, **kw):
        raise AssertionError("trace_leaf called without --csv")

    monkeypatch.setattr(foliation, "trace_leaf", refused)
    code, out, _ = run(capsys, "leaves", "--t", "0.5")
    assert code == 0 and json.loads(out)["verdict"] == "torus"
    monkeypatch.setattr(foliation, "trace_leaf", counted)
    code, _, _ = run(capsys, "leaves", "--t", "0.5", "--csv", str(tmp_path / "trace.csv"))
    assert code == 0 and len(calls) == 1
    code, out, err = run(capsys, "leaves", "--t", "0.5", "--trace")
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --trace\n"


@pytest.mark.parametrize("flags", [
    ("--duration", "inf", "--step", "nan"), ("--duration", "inf"), ("--duration", "nan"),
    ("--duration", "1e300"), ("--step", "0"), ("--step", "-0.1"), ("--step", "inf"),
    ("--start", "0,0,0,0,nan"), ("--start", "0,0")],
    ids=["inf-nan", "inf-duration", "nan-duration", "huge-duration", "zero-step",
         "negative-step", "inf-step", "nan-start", "short-start"])
def test_leaves_t_refuses_bad_trace_flags_on_both_routes(capsys, tmp_path, flags):
    # without --csv the trace flags used to be accepted and ignored, so
    # --duration inf --step nan exited 0: both routes refuse them alike
    code, out, err = run(capsys, "leaves", "--t", "0.5", *flags)
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    csv_path = tmp_path / "trace.csv"
    assert run(capsys, "leaves", "--t", "0.5", *flags, "--csv", str(csv_path)) == (2, "", err)
    assert csv_path.read_text() == ""


def test_csv_writer_holds_a_chunk_not_the_text(tmp_path):
    # the writer formats CSV_CHUNK rows at a time: its traced peak is a small
    # part of the text it writes, where joining the whole text held several
    # times the file (3.5 MB for these 5000 rows)
    table = np.random.default_rng(0).normal(size=(5000, 11))
    path = tmp_path / "table.csv"
    with open(path, "w") as fh:
        tracemalloc.start()
        try:
            cli._emit_csv("h", table, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lines = path.read_text().splitlines()
    assert len(lines) == 5001 and lines[5000].startswith("4999,")
    assert lines[1] == "0," + ",".join(map(repr, table[0].tolist()))
    assert peak < path.stat().st_size / 3


def test_leaves_section_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "leaves", "--section", sect("zero.json"),
                       "--duration", "3.0", "--step", "0.01")
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"


@pytest.mark.parametrize("argv", [("--t", "0.5"),
                                  ("--section", sect("st_sin.json"), "--step", "0.1")],
                         ids=["t-trace", "section"])
def test_leaves_zero_duration_traces_the_start_point(capsys, tmp_path, argv):
    # an explicit --duration 0 is honoured: only an absent one takes the
    # default (the torus period or 2 pi)
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "leaves", *argv, "--duration", "0", "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text().strip().splitlines()[1:] == ["0," + ",".join(["0.0"] * 10)]
    if argv[0] == "--section":
        assert json.loads(out)["evidence"]["closure_hits"] == []


@pytest.mark.parametrize("route", ["section", "t-trace"])
def test_leaves_refuses_a_lossy_frame(capsys, tmp_path, route):
    # the frame's cos x1 and sin x1 carry a k1 = 8 mode of f out of the box
    # at N = 8, and the family's sin x1 out of the box at N = 1
    sp = coisotropy.base_space(8)
    f = Field.from_modes(sp, {((8, 0, 0, 0, 0), ()): 0.5})
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(Section(f, Field.zero(sp)).to_json_dict()))
    argv = (["leaves", "--section", str(path)] if route == "section"
            else ["--trunc", "1", "leaves", "--t", "0.5", "--csv", str(tmp_path / "trace.csv")])
    code, out, err = run(capsys, *argv, "--duration", "1.0", "--step", "0.01")
    assert code == 2 and out == ""
    assert err.startswith("error: characteristic frame lost mass") and err.count("\n") == 1


def test_leaves_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "leaves")
    assert code == 2 and "exactly one" in err


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "0", "0.5", "1.4142135623730951")
    assert code == 0
    data = json.loads(out)
    assert data["torus_count"] >= 2


# -- verify -------------------------------------------------------------------------

def test_verify_small_pass(capsys):
    code, out, _ = run(capsys, "verify", "jacobi", "--n", "3", "--seed", "7")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_vacuous_warns(capsys):
    code, out, err = run(capsys, "verify", "cartan", "--n", "0")
    assert code == 0
    assert "vacuous" in err
    assert json.loads(out)["suites"][0]["warning"]


def test_verify_truncated_hamiltonian_exit_two(capsys):
    # at --trunc 2 the contact suite's Hamiltonian fields leave the box, and
    # the Cartan and Jacobi suites' evidence loses products: each is refused
    # as an input error, not reported as a failed identity; lie_lie is
    # Cartan's first check whose evidence lost mass (its two sides can agree
    # exactly, so only a loss that survives cancellation shows it)
    for suite, prefix in (
            ("contact", "error: Hamiltonian derivation lost mass"),
            ("cartan", "error: check lie_lie: evidence lost mass"),
            ("jacobi", "error: check bracket_antisymmetry: evidence lost mass")):
        code, out, err = run(capsys, "verify", suite, "--n", "2", "--trunc", "2")
        assert code == 2 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "to truncation" in err
    # at --trunc 0 the Cartan suite's first draw leaves the box, as every
    # other suite's does, and no seed reports defects of constants
    for seed in range(4):
        code, out, err = run(capsys, "--trunc", "0", "verify", "cartan", "--n", "1",
                             "--seed", str(seed))
        assert code == 2 and out == ""
        assert err.startswith("error: frequency (") and err.count("\n") == 1
        assert err.endswith(") outside truncation box\n")


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "verify", "reduction", "--n", "5", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "reduction", "--n", "5", "--seed", "11")
    assert out1 == out2


# sha256 of default reports, recorded when their bytes were last known good;
# seeded reports stay byte-identical across changes, so a digest moves only
# with a deliberate change of the report
REPORT_DIGESTS = {
    "verify all --seed 0 --n 2":
        "7f8808ca82d062d9cb29bd490bddcf2da7c93b2e2c99ad4c5262e02ddbe35e43",
    "residual constants.json":
        "42c4fb03acfe56e543349a64483944c130663cd627e58ebe6e8260f46bd12f6c",
    "residual obstructed.json":
        "77967c80e1e00d1ed2300d92d71e9763c7ff215f82bcb845ab4a6cba81fbfa86",
    "residual st_sin.json":
        "42c4fb03acfe56e543349a64483944c130663cd627e58ebe6e8260f46bd12f6c",
    "residual zero.json":
        "42c4fb03acfe56e543349a64483944c130663cd627e58ebe6e8260f46bd12f6c",
    "kuranishi constants.json":
        "956b6d7693979b2513a7dd35de1096051c32db3e447c7056eacaa04a44537061",
    "kuranishi obstructed.json":
        "e54ba3bf4da6b2e465b45ca705fea417edddd9173c5afa616f2e7f808a3e68cc",
    "kuranishi st_sin.json":
        "956b6d7693979b2513a7dd35de1096051c32db3e447c7056eacaa04a44537061",
    "kuranishi zero.json":
        "956b6d7693979b2513a7dd35de1096051c32db3e447c7056eacaa04a44537061",
    "leaves --t 0.5 --csv":
        "f0bb73cbef055011068b8b6f7dbd07fe3f60679505ff3e6846f36f76fb46acfe",
    # every one of these solves converges at iteration 0, rejects every step
    # or fails its precondition, so the bytes do not depend on the BLAS build
    "prolong constants.json --eps 0.1":
        "65ef1809eece98ceb288699e7a382d321c02f3842e602d450fd4d7f8d0019b05",
    "prolong obstructed.json --eps 0.1":
        "3a5659fa95ac9a615087d258d487c8d1a1e6bda7da067c3b1804d35508765515",
    "prolong st_sin.json --eps 0.1":
        "eb88b24a8ffd4afe0c40ad8219bb31228fc1eccc6dcf24da7304589b6e5e9f33",
    "prolong zero.json --eps 0.1":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "prolong st_sin.json --eps 0.25":
        "981d1bc4d0e0d237fcd20d3da0ff1d04a1b2ab93a49e47557431759b2b084173",
}
# the reports above that do not exit 0
REPORT_EXIT_CODES = {"prolong obstructed.json --eps 0.1": 3,
                     "prolong zero.json --eps 0.1": 2}
LEAF_TRACE_CSV_DIGEST = "ea54d740d44b7e17d233030ff8b88ae4c18d12b3fd4c702c5e426319b8578371"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_report_bytes_pinned(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    for command, digest in REPORT_DIGESTS.items():
        argv = [sect(a) if a.endswith(".json") else a for a in command.split()]
        if "--csv" in argv:
            argv += [str(csv)]
        code, out, _ = run(capsys, *argv)
        assert (code, sha256(out)) == (REPORT_EXIT_CODES.get(command, 0), digest), command
    assert sha256(csv.read_text()) == LEAF_TRACE_CSV_DIGEST



def test_radius1_prolong_evaluates_one_residual(capsys, monkeypatch):
    # the CLI solve evaluates the start's residual and factors one sector,
    # and prints the pinned report; the sector is empty, so every lam steps
    # by 0 and the iteration takes no trial and calls no step
    calls = {"residual": 0, "factor": 0, "step": 0}

    def residual(*args, _orig=coisotropy.residual):
        calls["residual"] += 1
        return _orig(*args)

    def sector_steps(*args, _orig=coisotropy._sector_steps):
        calls["factor"] += 1
        step = _orig(*args)

        def counted(lam):
            calls["step"] += 1
            return step(lam)
        return counted
    monkeypatch.setattr(coisotropy, "residual", residual)
    monkeypatch.setattr(coisotropy, "_sector_steps", sector_steps)
    command = "prolong obstructed.json --eps 0.1"
    code, out, _ = run(capsys, "prolong", sect("obstructed.json"), "--eps", "0.1")
    assert (code, sha256(out)) == (REPORT_EXIT_CODES[command], REPORT_DIGESTS[command])
    assert calls == {"residual": 1, "factor": 1, "step": 0}


# -- flow ---------------------------------------------------------------------------

def test_flow_unit_hamiltonian(capsys, tmp_path):
    lam_path = tmp_path / "unit.json"
    lam_path.write_text(json.dumps(
        Field.constant(contact_space(), 1.0).to_json_dict()))
    code, out, _ = run(capsys, "flow", str(lam_path),
                       "--point", "0.5,1,2,3,4,0.1,-0.2",
                       "--duration", "0.2", "--step", "0.01")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,t,x1,x2,x3,x4,x5,y4,y5"
    last = [float(v) for v in lines[-1].split(",")]
    # unit Hamiltonian flows along minus the Reeb field
    assert last[3] == pytest.approx(1 - 0.2 * math.sin(0.5), abs=1e-8)


def test_flow_tail_row_ends_at_duration(capsys, tmp_path):
    lam_path = tmp_path / "unit.json"
    lam_path.write_text(json.dumps(
        Field.constant(contact_space(), 1.0).to_json_dict()))
    # the last row is the duration also when the full steps reach the end,
    # where 3 * 0.1 is 0.30000000000000004 and 7 * 0.1 is 0.7000000000000001
    for duration, step, n_steps in (("1", 0.3, 4), ("-1", 0.3, 4), ("0.3", 0.1, 3),
                                    ("0.7", 0.1, 7)):
        code, out, _ = run(capsys, "flow", str(lam_path), "--point", "0,0,0,0,0,0,0",
                           "--duration", duration, "--step", str(step))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        sign = math.copysign(1, float(duration))
        assert [r[1] for r in rows] == (["0.0"]
                                        + [repr(i * step * sign) for i in range(1, n_steps)]
                                        + [repr(float(duration))])


def test_flow_hamiltonian_off_contact_space_exit_two(capsys, tmp_path):
    # a Hamiltonian over T^3 x R^2 used to be refused as a "section space
    # mismatch"; the message now names the Hamiltonian and the space it needs
    lam_path = tmp_path / "t3.json"
    lam_path.write_text(json.dumps(Field.constant(fields.Space(3, 2, 8, 2), 1.0).to_json_dict()))
    code, out, err = run(capsys, "flow", str(lam_path), "--point", "0,0,0,0,0,0,0",
                         "--duration", "0.1", "--step", "0.01")
    assert code == 2 and out == ""
    assert err == "error: Hamiltonian lives over T^3 x R^2, expected T^5 x R^2\n"


def test_flow_rejected_step_exit_two(capsys, tmp_path):
    lam_path = tmp_path / "curved.json"
    lam_path.write_text(json.dumps(
        (Field.sin(contact_space(), 1) * 50.0).to_json_dict()))
    code, out, err = run(capsys, "flow", str(lam_path), "--point", "0.3,0.7,0.1,0,0,0,0",
                         "--duration", "1", "--step", "0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: local error") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--tol", "nan", "kuranishi", sect("obstructed.json")],
    ["--tol", "0", "kuranishi", sect("obstructed.json")],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0,0", "--duration", "inf"],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0,0", "--duration", "1e300"],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0,0", "--duration", "1", "--step", "inf"],
    ["flow", "UNIT", "--point", "nan,0,0,0,0,0,0", "--duration", "1"],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0", "--duration", "1"],
    ["leaves", "--t", "0.5", "--csv", os.devnull, "--duration", "inf"],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0,0", "--duration", "1e18", "--step", "1"],
], ids=["tol-nan", "tol-zero", "duration-inf", "duration-1e300", "step-inf",
        "point-nan", "point-short", "leaf-duration-inf", "duration-1e18-unallocatable"])
def test_refused_number_exit_two(capsys, tmp_path, argv):
    # these used to report a verdict for tol nan, print NaN rows, or die with
    # an OverflowError traceback
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(Field.constant(contact_space(), 1.0).to_json_dict()))
    code, out, err = run(capsys, *[str(unit) if a == "UNIT" else a for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "cartan", "--n", "-1"],
    ["leaves", "--t", "0.5", "--max-denominator", "0"],
    ["scan", "0.5", "1.5", "--max-denominator", "-3"],
    ["prolong", sect("obstructed.json"), "--radius", "-1"],
    ["prolong", sect("obstructed.json"), "--radius", "2,1,-1,1,1"],
    ["prolong", sect("obstructed.json"), "--radius=-1,1,1,1,1"],
    ["prolong", sect("obstructed.json"), "--radius", "2,1"],
    ["prolong", sect("obstructed.json"), "--radius", "2,1,1,1,1,1"],
    ["prolong", sect("obstructed.json"), "--radius", "2,1,x,1,1"],
    ["prolong", sect("obstructed.json"), "--radius", "1.5"],
    ["prolong", sect("obstructed.json"), "--radius", "2,,1,1,1"],
    ["prolong", sect("obstructed.json"), "--max-iters", "-2"],
    ["prolong", sect("obstructed.json"), "--radius", "-1,1,1,1,1"],
    [],
    ["verify", "nosuch"],
], ids=["verify-n-negative", "leaves-denominator-zero", "scan-denominator-negative",
        "prolong-radius-negative", "prolong-radii-negative", "prolong-radii-leading-negative",
        "prolong-radii-two", "prolong-radii-six", "prolong-radii-malformed",
        "prolong-radius-float", "prolong-radii-empty", "prolong-max-iters-negative",
        "prolong-radii-leading-negative-apart", "no-subcommand", "verify-unknown-suite"])
def test_refused_count_exit_two(capsys, argv):
    # these used to pass vacuously, call 1/2 a cylinder, solve at radius 0,
    # report max_iters, or print argparse's usage (the last three: a
    # negative comma form taken for an option, no subcommand, an unknown
    # suite)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_file_box_beats_trunc_flag(capsys, tmp_path):
    # prolong and flow use the box of their input file; --trunc 4 used to
    # stop prolong and --trunc 0 the flow of a Hamiltonian built at 8
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(Field.constant(contact_space(), 1.0).to_json_dict()))
    for trunc, argv, want in (("4", ["prolong", sect("obstructed.json")], 3),
                              ("0", ["flow", str(unit), "--point", "0.5,1,2,3,4,0.1,-0.2",
                                     "--duration", "0.2", "--step", "0.01"], 0)):
        plain = run(capsys, *argv)
        assert plain[0] == want and run(capsys, "--trunc", trunc, *argv) == plain


# -- input handling -----------------------------------------------------------------

def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "residual", "no_such_file.json")
    assert code == 2 and "not found" in err


def test_invalid_json_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "residual", str(bad))
    assert code == 2 and "invalid JSON" in err


def test_bad_payload_exit_two(capsys, tmp_path):
    # a NaN coefficient used to give a NaN residual and a "nonzero": false
    # verdict with exit 0; "0.5" and true were read as 0.5 and 1
    bad = tmp_path / "payload.json"
    payloads = [({"f": {"oops": 1}}, "")]
    for term in ({"re": math.nan}, {"re": "0.5"}, {"im": True}, {"re": 10 ** 400}):
        data = json.loads(Path(sect("obstructed.json")).read_text())
        data["f"]["terms"][0].update(term)
        payloads.append((data, "must be a finite number"))
    # a component off T^5, and components over different spaces
    for key, value, why in (("torus_dim", 3, "scalar fields on T^5"),
                            ("trunc_order", 6, "live over different spaces")):
        data = json.loads(Path(sect("obstructed.json")).read_text())
        data["g"].update({key: value, "terms": []})
        payloads.append((data, why))
    for data, why in payloads:
        bad.write_text(json.dumps(data))
        for command in ("residual", "kuranishi", "prolong"):
            code, out, err = run(capsys, command, str(bad))
            assert code == 2 and out == "" and err.count("\n") == 1
            assert "bad section payload" in err and why in err


@pytest.mark.parametrize("command", ["residual", "kuranishi", "prolong"])
@pytest.mark.parametrize("k, why", [([9, 0, 0, 0, 0], "outside truncation box"),
                                    ([1, 0, 0], "does not match space"),
                                    ([0, 1.5, 0, 0, 0], "k entry must be an integer"),
                                    ([0, 1, 0, 0, 0], "repeated")])
def test_mode_outside_box_exit_two(capsys, tmp_path, monkeypatch, command, k, why):
    # keys are validated at every construction, not only with STRICT on: a
    # mode at k1 = 9 (trunc_order 8) or a 3-component key on T^5 would
    # alias another mode's packed key, and k2 = 1.5 would be read as 1; a
    # second term at a mode the file already has used to replace the first
    monkeypatch.setattr(fields, "STRICT", False)
    data = json.loads(Path(sect("obstructed.json")).read_text())
    data["f"]["terms"].append({"k": k, "m": [], "re": 0.5, "im": 0.0})
    path = tmp_path / "section.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and why in err


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(out_path),
                       "residual", sect("zero.json"))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["residual_norm"] == 0.0


def write_unit(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(Field.constant(contact_space(), 1.0).to_json_dict()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["residual", sect("obstructed.json")],
    ["verify", "reduction", "--n", "2"],
    ["flow", "UNIT", "--point", "0,0,0,0,0,0,0", "--duration", "0.05", "--step", "0.01"],
], ids=["residual", "verify-reduction", "flow"])
def test_out_file_gets_the_bytes_of_stdout(capsys, tmp_path, argv):
    # a JSON report written with --out used to lack stdout's final newline
    argv = [write_unit(tmp_path) if a == "UNIT" else a for a in argv]
    out_path = tmp_path / "report.out"
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout.endswith("\n")
    code, out, _ = run(capsys, "--out", str(out_path), *argv)
    assert code == 0 and out == ""
    assert out_path.read_bytes() == stdout.encode()


@pytest.mark.parametrize("work, argv", [
    ((verify, "run_suites"), ["--out", "MISSING", "verify", "cartan", "--n", "20"]),
    ((contact, "flow_contact"), ["flow", "UNIT", "--point", "0,0,0,0,0,0,0",
                                 "--duration", "1", "--out", "MISSING"]),
    ((foliation, "trace_leaf"), ["leaves", "--t", "0.5", "--csv", "MISSING"]),
], ids=["verify-out", "flow-out", "leaves-csv"])
def test_unopenable_destination_refused_before_the_work(capsys, tmp_path, monkeypatch,
                                                        work, argv):
    # the suite, the flow and the trace used to run (and leaves to print its
    # report) before the path was found to be missing
    def refused(*a, **kw):
        raise AssertionError(f"{work[1]} ran before its destination was opened")

    monkeypatch.setattr(*work, refused)
    missing = str(tmp_path / "no-such-dir" / "out")
    argv = [{"UNIT": write_unit(tmp_path), "MISSING": missing}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trunc_order": 6, "seed": 3, "tol": 100.0}))
    monkeypatch.setenv("COISOLAB_CONFIG", str(cfg))
    code, out, _ = run(capsys, "verify", "reduction", "--n", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 3
    # tol 100 is above the obstruction's max |coefficient| (2 pi)^2 / 2
    code, out, _ = run(capsys, "kuranishi", sect("obstructed.json"))
    assert code == 0 and json.loads(out)["nonzero"] is False
    monkeypatch.delenv("COISOLAB_CONFIG")


@pytest.mark.parametrize("config", [{"trunc_order": 8.9}, {"trunc_order": 2.5},
                                    {"trunc_order": True}, {"seed": 1.0},
                                    {"tol": True}, {"tol": "nan"}, {"tol": math.nan},
                                    {"out": 5}])
def test_non_integral_config_value_rejected(capsys, tmp_path, config):
    # 8.9 used to run at trunc_order 8, and 2.5 ran verify at --trunc 2; a
    # tol of true ran at 1.0, "nan" gave the obstructed section "nonzero":
    # false, and an out of 5 was opened as a file descriptor
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), "verify", "cartan", "--n", "1")
    key = next(iter(config))
    kind = {"tol": "a finite number", "out": "a string"}.get(key, "an integer")
    assert code == 2 and out == ""
    assert err == f"error: config key '{key}' must be {kind}, got {config[key]!r}\n"


# each call made in one process: its exit code, stdout, stderr, and the number
# of argument parsers built so far
MAIN_CALLS = """
import argparse, contextlib, io, json, sys
from coisolab import cli
built, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kw):
    built.append(1)
    init(self, *args, **kw)
argparse.ArgumentParser.__init__ = counted
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue(), len(built)])
print(json.dumps(results))
"""


def main_calls(calls, workdir):
    """The results of the cli.main calls, made in turn in one fresh process,
    and the files F and G they wrote in workdir."""
    workdir.mkdir()
    argv = [[str(workdir / a) if a in ("F", "G") else a for a in call] for call in calls]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", MAIN_CALLS, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    files = {name: (workdir / name).read_text() for name in ("F", "G")
             if (workdir / name).exists()}
    return json.loads(proc.stdout), files


def test_one_parser_serves_every_call(tmp_path):
    calls = [["prolong", sect("obstructed.json"), "--eps", "0.1"],
             ["residual", sect("zero.json"), "--bogus"],
             ["verify", "reduction", "--n", "2", "--out", "F"],
             ["leaves", "--t", "0.5", "--csv", "G"],
             ["prolong", sect("obstructed.json"), "--eps", "0.1"]]
    got, files = main_calls(calls, tmp_path / "one")
    # the first call builds the parser, and no later call builds another
    assert got[0][3] > 0 and all(r[3] == got[0][3] for r in got)
    # each call as the first of a fresh process: the same exit code, output
    # and files, so no flag carries over, --out and --csv included
    fresh_files = {}
    for i, call in enumerate(calls):
        [want], written = main_calls([call], tmp_path / f"fresh{i}")
        assert got[i][:3] == want[:3]
        fresh_files.update(written)
    assert files == fresh_files and set(files) == {"F", "G"}
    assert [r[0] for r in got] == [3, 2, 0, 0, 3]
    code, out, err, _ = got[1]
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert got[2][1] == "" and json.loads(files["F"])["pass"]
    assert json.loads(got[3][1])["verdict"] == "torus" and got[4][1] == got[0][1]


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_exits_141_silently(unbuffered):
    # a reader that closes the pipe early (`coisolab residual ... | head`) is
    # not an input error: no message, the shell's 128 + SIGPIPE status
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coisolab.cli", "residual", sect("obstructed.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b""


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for key in ("bogus", "poly_deg", "sample_count",
                "identity_tol", "solver_tol", "leaf_tol"):
        cfg.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, "--config", str(cfg),
                           "residual", sect("zero.json"))
        assert code == 2 and f"unknown config key '{key}'" in err

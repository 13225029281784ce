"""Command-line surface: reports, exit codes, determinism, file handling."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from coisolab import fields
from coisolab.cli import main
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


def test_prolong_oversized_system_exit_two_before_assembly(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "prolong", sect("obstructed.json"), "--radius", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: solver system") and err.count("\n") == 1


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
    code, out, _ = run(capsys, "leaves", "--t", "0.5", "--trace",
                       "--csv", str(csv_path), "--step", "0.01")
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,x1,x2,x3,x4,x5,u1,u2,u3,u4,u5"
    assert len(lines) > 100


def test_leaves_section_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "leaves", "--section", sect("zero.json"),
                       "--duration", "3.0", "--step", "0.01")
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"


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
    "leaves --t 0.5 --trace":
        "f0bb73cbef055011068b8b6f7dbd07fe3f60679505ff3e6846f36f76fb46acfe",
}
LEAF_TRACE_CSV_DIGEST = "ea54d740d44b7e17d233030ff8b88ae4c18d12b3fd4c702c5e426319b8578371"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_report_bytes_pinned(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    for command, digest in REPORT_DIGESTS.items():
        argv = [sect(a) if a.endswith(".json") else a for a in command.split()]
        if "--trace" in argv:
            argv += ["--csv", str(csv)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and sha256(out) == digest, command
    assert sha256(csv.read_text()) == LEAF_TRACE_CSV_DIGEST


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
    for duration, tail_t in (("1", 1.0), ("-1", -1.0)):
        code, out, _ = run(capsys, "flow", str(lam_path), "--point", "0,0,0,0,0,0,0",
                           "--duration", duration, "--step", "0.3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        sign = math.copysign(1, tail_t)
        assert [r[1] for r in rows] == (["0.0"] + [repr(i * 0.3 * sign) for i in range(1, 4)]
                                        + [repr(tail_t)])


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
    ["leaves", "--t", "0.5", "--trace", "--duration", "inf"],
], ids=["tol-nan", "tol-zero", "duration-inf", "duration-1e300", "step-inf",
        "point-nan", "point-short", "leaf-duration-inf"])
def test_refused_number_exit_two(capsys, tmp_path, argv):
    # these used to report a verdict for tol nan, print NaN rows, or die with
    # an OverflowError traceback
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(Field.constant(contact_space(), 1.0).to_json_dict()))
    code, out, err = run(capsys, *[str(unit) if a == "UNIT" else a for a in argv])
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
        data = json.loads(open(sect("obstructed.json")).read())
        data["f"]["terms"][0].update(term)
        payloads.append((data, "must be a finite number"))
    for data, why in payloads:
        bad.write_text(json.dumps(data))
        for command in ("residual", "kuranishi", "prolong"):
            code, out, err = run(capsys, command, str(bad))
            assert code == 2 and out == "" and err.count("\n") == 1
            assert "bad section payload" in err and why in err


@pytest.mark.parametrize("command", ["residual", "kuranishi", "prolong"])
@pytest.mark.parametrize("k, why", [([9, 0, 0, 0, 0], "outside truncation box"),
                                    ([1, 0, 0], "does not match space"),
                                    ([0, 1.5, 0, 0, 0], "k entry must be an integer")])
def test_mode_outside_box_exit_two(capsys, tmp_path, monkeypatch, command, k, why):
    # keys are validated at every construction, not only with STRICT on: a
    # mode at k1 = 9 (trunc_order 8) or a 3-component key on T^5 would
    # alias another mode's packed key, and k2 = 1.5 would be read as 1
    monkeypatch.setattr(fields, "STRICT", False)
    data = json.loads(open(sect("obstructed.json")).read())
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

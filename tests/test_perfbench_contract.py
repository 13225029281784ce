"""The benchmark's traced run patches coisolab functions by name, and its
worker reads ``fields.STRICT``; a rename that breaks either must fail here
rather than only when the benchmark runs.  Its product counters read
``_mul_into``'s result, ``len(dst)`` and ``len(field.coeffs)``."""

import json
import os
import subprocess
import sys

from coisolab import coisotropy, fields

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SECTIONS = os.path.join(os.path.dirname(__file__), os.pardir, "sections")


def import_tracing():
    # import without leaving bytecode in the benchmark's directory
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, saved = True, sys.dont_write_bytecode
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = saved
    return tracing


def test_tracer_finds_every_patched_name():
    init = vars(fields.Field)["__init__"]
    tracer = import_tracing().Tracer("contract")
    try:
        tracer.install()   # KeyError/AttributeError on a missing name
        assert vars(fields.Field)["__init__"] is not init
    finally:
        tracer.uninstall()
    assert vars(fields.Field)["__init__"] is init


def test_strict_flag_ships_off():
    # a fresh process: the test suite itself switches STRICT on
    package_root = os.path.dirname(os.path.dirname(fields.__file__))
    code = "import coisolab.fields as f; assert f.STRICT is False"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=package_root))


def test_mul_into_feeds_the_product_counters():
    # term_pairs = len(a.coeffs) * len(b.coeffs), out_modes = growth of
    # len(dst), trunc_loss = the returned float
    sp = fields.Space(1, 0, 1, 0)
    s, c = fields.Field.sin(sp, 0), fields.Field.cos(sp, 0) + 1.0
    assert (len(s.coeffs), len(c.coeffs)) == (2, 3)
    dst = {}
    loss = fields._mul_into(dst, s, c, 1)
    # the pairs (1, 1) and (-1, -1) escape the box with mass 1/4 each; the
    # other four land on k = 1, 0, -1
    assert type(loss) is float and loss == 0.5
    assert len(dst) == 3
    assert fields._mul_into(dst, s, c, -1) == 0.5 and len(dst) == 3
    assert fields._mul_into(dst, s, fields.Field.zero(sp), 1) == 0.0 and len(dst) == 3


def test_traced_prolong_times_its_residual_calls():
    # the tracer wraps coisotropy.residual as a one-argument function and
    # times the calls made under prolong: prolong must call it through the
    # module, with the section alone, or the traced run fails or reads 0
    with open(os.path.join(SECTIONS, "obstructed.json")) as fh:
        direction = coisotropy.Section.from_json_dict(json.load(fh))
    want = coisotropy.prolong(direction, 0.1).to_json_dict()
    tracer = import_tracing().Tracer("contract")
    try:
        tracer.install()
        rep = tracer.run_pass(lambda: coisotropy.prolong(direction, 0.1))
    finally:
        tracer.uninstall()
    [metrics] = tracer.pass_metrics()
    assert metrics["coisotropy.residual.calls"] > 0
    assert metrics["coisotropy.residual.in_prolong_s"] > 0
    assert rep.to_json_dict() == want

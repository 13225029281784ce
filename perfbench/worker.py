"""One fresh process of a benchmark run; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE

times the cold set-up (``import coisolab``, the verified contact structure,
the bundled sections and the seeded inputs), then, unless SECONDS is 0,
runs passes of the workload's fixed work list for about SECONDS seconds and
prints one JSON object with the pass times, unit counts, output digest and,
with TRACE 1, the per-layer metrics of the traced passes.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
HARD_STOP_S = 120.0  # no new pass starts after this; a run must end in 180 s


def _import_program():
    """coisolab from this checkout's sources, never from anywhere else."""
    if not (SRC / "coisolab" / "__init__.py").is_file():
        sys.exit(f"error: no coisolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import coisolab
    if Path(coisolab.__file__).resolve().parent != SRC / "coisolab":
        sys.exit(f"error: imported coisolab from {coisolab.__file__}, not {SRC}")


def _canonical(obj):
    """Outputs reduced to JSON with every float at full precision."""
    return json.dumps(obj, sort_keys=True, default=repr)


def machine_facts(np, fields) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": blas.get("version"),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                               f"default ({os.cpu_count()})"),
            "fields_strict": fields.STRICT}


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    _import_program()
    import numpy as np
    import workloads
    from coisolab import contact, fields
    if fields.STRICT:
        sys.exit("error: the benchmark measures the shipped configuration (STRICT off)")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        cd = contact.standard_contact(verify=True)
        sections = workloads.load_sections()
        inputs = workloads.make_inputs(workload, seed)
        units = workloads.prepare(workload, inputs, cd, sections, Path(workdir))
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s,
                  "inputs_digest": hashlib.sha256(_canonical(inputs).encode()).hexdigest()}
        if seconds > 0:
            result.update(_measure(workload, seed, units, seconds, trace))
            result["facts"] = machine_facts(np, fields)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _run_units(units, reported: set):
    """One pass: every unit once.  Returns (digest, attempted, failed)."""
    outputs, failed = [], 0
    for name, unit in units:
        try:
            output, problems = unit()
        except Exception:
            output, problems = None, [traceback.format_exc()]
        if problems:
            failed += 1
            for p in problems:
                if (name, p) not in reported:
                    reported.add((name, p))
                    sys.stderr.write(f"FAIL {name}: {p}\n")
        outputs.append([name, output])
    return hashlib.sha256(_canonical(outputs).encode()).hexdigest(), len(units), failed


def _measure(workload, seed, units, seconds, trace):
    """Untraced passes, or with ``trace`` untraced and traced passes in
    turn, until the next one would end after ``seconds``."""
    import tracing
    tracer = tracing.Tracer(uuid.uuid4().hex) if trace else None
    plain, traced, digests = [], [], set()
    attempted = failed = 0
    reported: set = set()
    start = time.perf_counter()
    while True:
        for traced_pass in ((False, True) if trace else (False,)):
            t = time.perf_counter()
            if traced_pass:
                tracer.install()
                try:
                    digest, n, bad = tracer.run_pass(lambda: _run_units(units, reported))
                finally:
                    tracer.uninstall()
            else:
                digest, n, bad = _run_units(units, reported)
            (traced if traced_pass else plain).append(time.perf_counter() - t)
            digests.add(digest)
            attempted, failed = attempted + n, failed + bad
        elapsed = time.perf_counter() - start
        last = sum(x[-1] for x in (plain, traced) if x)
        enough = len(plain) >= (1 if trace else MIN_PASSES)
        if (enough and elapsed + last > seconds) or elapsed + last > HARD_STOP_S:
            break
    out = {"run_s": plain, "attempted": attempted, "failed": failed,
           # every pass, traced or not, must produce the same outputs
           "consistent": len(digests) == 1, "digest": min(digests)}
    if trace:
        per_pass = tracer.pass_metrics()
        # every product of these workloads stays inside the truncation box
        out["consistent"] &= all(p.get("fields.mul.trunc_loss", 0.0) == 0.0
                                 for p in per_pass)
        values = {name: statistics.median(p.get(name, 0.0) for p in per_pass)
                  for name, _unit in tracing.PER_LAYER}
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        values.update(tracing.sloc(SRC / "coisolab"))
        out["layers"] = {name: {"value": float(values[name]), "unit": unit}
                         for name, unit in tracing.PER_LAYER}
        out["traced_s"] = traced
        out["traced_pass_s"] = statistics.median(p["trace.pass_s"] for p in per_pass)
        tracer.save(OUT / f"spans-{workload}.npz")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

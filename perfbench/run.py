"""coisolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``identities``, ``flows``, ``prolong`` (see BENCHMARK.json and
perfbench/layers.json), or ``all`` to run the three in turn.

Load model: one closed-loop client, a single Python process per run on the
shipped configuration (``fields.STRICT`` off, numpy's default OpenBLAS
threading).  The workload runs in a fresh worker process that times its own
cold set-up and then repeats passes of the workload's fixed work list for
about S seconds.  With ``--trace 0`` further fresh processes repeat only the
set-up, and the run prints ``setup_s`` (median of the set-ups), ``run_s``
(median pass time) and ``peak_rss_mb`` (peak resident set of the worker).
With ``--trace 1`` the worker alternates untraced and traced passes and the
run prints the per-layer metrics of the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the unit failure fraction (``fail_frac``).  The line before
it is a readable summary.  The exit code is 0 when the run completed, even
if some output check failed, and non-zero (without a result) when it could
not run at all.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("identities", "flows", "prolong")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 7   # set-ups per run, the worker's own included
DEADLINE_S = 170.0


def _worker(workload, seed, seconds, trace, deadline) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), repr(seconds), str(int(trace))],
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run(workload, seed, seconds, trace) -> tuple:
    """Returns (result line, summary line)."""
    deadline = time.monotonic() + DEADLINE_S
    # the host's speed drifts over tens of seconds, so half the extra set-ups
    # run before the worker and half after it
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [_worker(workload, seed, 0, False, deadline)["setup_s"]
              for _ in range(extra // 2)]
    w = _worker(workload, seed, seconds, trace, deadline)
    setups.append(w["setup_s"])
    setups += [_worker(workload, seed, 0, False, deadline)["setup_s"]
               for _ in range(extra - extra // 2)]
    machine = json.loads((HERE / "layers.json").read_text())["machine"]
    if w["facts"] != machine:
        sys.stderr.write(f"warning: machine {w['facts']} differs from the one the "
                         f"benchmark was defined on, {machine}\n")
    correct = w["failed"] == 0 and w["consistent"]
    fail_frac = w["failed"] / w["attempted"]
    run_s = statistics.median(w["run_s"])
    p25, p75 = _quartiles(w["run_s"])
    summary = (f"# {workload} seed={seed} passes={len(w['run_s'])} "
               f"run_s={run_s:.4f} s (p25 {p25:.4f}, p75 {p75:.4f}; "
               f"passes {' '.join(f'{x:.3f}' for x in w['run_s'])}) "
               f"fail_frac={fail_frac:g} ({w['failed']}/{w['attempted']} units) "
               f"digest={w['digest'][:16]} facts={json.dumps(w['facts'], sort_keys=True)}")
    if trace:
        metrics = w["layers"]
        summary += (f" traced_passes={len(w['traced_s'])} overhead_ratio="
                    f"{metrics['trace.overhead_ratio']['value']:.3f} unaccounted_s="
                    f"{metrics['trace.unaccounted_s']['value']:.4f} of traced "
                    f"{w['traced_pass_s']:.4f} s")
    else:
        values = {"setup_s": statistics.median(setups), "run_s": run_s,
                  "peak_rss_mb": w["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        summary += (f" setup_s={values['setup_s']:.4f} s (n={len(setups)}) "
                    f"peak_rss_mb={values['peak_rss_mb']:.1f} MB")
    result = {"correct": correct, "attempted": w["attempted"],
              "failed": w["failed"], "metrics": metrics}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, summary = run(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 2
        print(summary, flush=True)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

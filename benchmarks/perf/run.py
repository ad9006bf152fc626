"""perfbench: layered wall-clock + modeled-time benchmark of ``repro.serve``.

    python benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--passes K | --seconds S] [--trace] [--scale full|smoke]
        [--out DIR] [--dump-workloads DIR] [--selfcheck]

Serves four named workloads through the public serving API, times them
from outside, prices every recorded trace on the cycle model, checks
outputs against the single-sequence oracle, and prints every metric by
name with its unit.  ``--trace`` reports the per-layer metrics from
passes run under timing wrappers instead of the end-to-end ones.

This file is the single-process driver: it launches each workload in a
fresh interpreter, one at a time (BLAS/OpenMP pinned to one thread; no
threads, no sockets), plus a few set-up-only interpreters so ``setup_s``
is a median.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero if
any request failed, any output differed from the oracle, or any
workload's mechanism did not fire.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from perfbench_metrics import DRIVER_PER_LAYER, END_TO_END, FAILED_SHARE, PER_LAYER, quartiles

HERE = Path(__file__).resolve().parent
WORKER = HERE / "perfbench_measure.py"
DEFAULT_OUT = HERE / "out"
#: Fresh interpreters whose set-up is timed per workload (the measuring
#: one included); ``setup_s`` is their median.
SETUP_SAMPLES = 5
WORKER_TIMEOUT = 170

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _worker(arguments):
    """Run the measuring module in a fresh interpreter; returns the JSON
    object on its last output line."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, str(WORKER), *arguments],
        env=env, cwd=HERE, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: worker {' '.join(arguments)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_workload(name, args, out_dir):
    """One workload: set-up samples, then the measuring interpreter."""
    common = ["--workload", name, "--seed", str(args.seed), "--scale", args.scale]
    setups = [_worker([*common, "--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    arguments = [*common, "--trace", str(args.trace)]
    if args.passes is not None:
        arguments += ["--passes", str(args.passes)]
    elif args.seconds is not None:
        arguments += ["--seconds", str(args.seconds)]
    if args.trace:
        arguments += ["--spans-out", str(out_dir / f"spans-{name}.jsonl")]
    result = _worker(arguments)
    setups.append(result.pop("setup_s"))
    result["end_to_end"] = {
        "setup_s": quartiles(setups),
        "peak_rss_mb": {"value": result.pop("peak_rss_mb"), "n": 1},
        **result["end_to_end"],
    }
    return result


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _number(value):
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result, out=sys.stdout):
    print(
        f"== {result['workload']}  seed={result['seed']} scale={result['scale']} "
        f"passes={result['passes']} requests={result['requests']} "
        f"tokens/pass={result['tokens']} digest={result['digest'][:12]}",
        file=out,
    )
    if "per_layer" not in result:
        print(f"   {'end-to-end metric':<22}{'clock':<6}{'median':>14}  {'unit':<10}"
              f"{'q1 .. q3':<28}{'n':<4}{'better':<8}bound", file=out)
        for metric in END_TO_END:
            entry = result["end_to_end"][metric.name]
            if "q1" in entry:
                quartiles = f"{_number(entry['q1'])} .. {_number(entry['q3'])}"
            else:
                quartiles = "exact" if metric.clock == "sim" else "one sample"
            print(f"   {metric.name:<22}{metric.clock:<6}{_number(entry['value']):>14}  "
                  f"{metric.unit:<10}{quartiles:<28}{entry['n']:<4}{metric.better:<8}"
                  f"{metric.bound:.0%}", file=out)
    else:
        print(f"   {'per-layer metric':<42}{'value':>14}  unit", file=out)
        for metric in PER_LAYER:
            value = _number(result["per_layer"][metric.name])
            print(f"   {metric.name:<42}{value:>14}  {metric.unit}", file=out)
        for key in result["missing_targets"]:
            print(f"   warning: wrap target for {key} not found; its metrics are null", file=out)
    print(f"   {FAILED_SHARE.name:<22}{'-':<6}{_number(result['failed_share']):>14}  "
          f"{FAILED_SHARE.unit:<10}({result['failed']} failed / {result['attempted']} attempted)",
          file=out)
    for failure in result["failures"]:
        print(f"   FAILED: {failure}", file=out)


def contract_line(results, trace):
    """The driver-facing result object: with ``trace`` the per-layer
    metrics ``BENCHMARK.json`` declares, else the end-to-end ones.  A
    per-layer metric whose wrap target is missing reads 0 here (the line
    carries numbers only); the table above and the run file say
    ``null``."""

    def metrics_of(result):
        if trace:
            return {
                m.name: {"value": result["per_layer"][m.name] or 0, "unit": m.unit}
                for m in DRIVER_PER_LAYER
            }
        return {
            m.name: {"value": result["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        }

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {r["workload"]: metrics_of(r) for r in results}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(args, out_dir):
    """Measure the selected workloads, print each, write the run file;
    returns the run dict."""
    from perfbench_workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        result = measure_workload(name, args, out_dir)
        print_result(result)
        results.append(result)
    record = {
        "benchmark": "perfbench",
        "seed": args.seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "env": environment(),
        "workloads": {r["workload"]: r for r in results},
    }
    subset = "" if len(names) == len(WORKLOADS) else "-" + "+".join(names)
    path = out_dir / f"run-seed{args.seed}{subset}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"run written to {path}")
    return record


def selfcheck(args, out_dir):
    """Run the whole benchmark (untraced and traced) twice and hold the
    second set against the first by ``compare.py``'s rule."""
    import compare

    failures = 0
    for trace in (0, 1):
        args.trace = trace
        sets = []
        for label in ("first", "second"):
            print(f"-- selfcheck: {label} {'traced' if trace else 'untraced'} run")
            record = run(args, out_dir / f"selfcheck-{label}")
            failures += sum(r["failed"] for r in record["workloads"].values())
            sets.append([record])
        failures += compare.compare(*sets)
    print(f"selfcheck: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--passes", type=int,
                        help="timed passes per workload (default 5, min 3; pairs when tracing, default 1)")
    parser.add_argument("--seconds", type=float,
                        help="instead of --passes: repeat passes while another fits into this much measuring time")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from traced passes")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"directory for the run file and spans (default {DEFAULT_OUT})")
    parser.add_argument("--dump-workloads", type=Path, metavar="DIR",
                        help="write each workload's trace as JSONL with its digest, then exit")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and compare the two sets")
    args = parser.parse_args(argv)

    from perfbench_measure import MIN_PASSES
    from perfbench_workloads import WORKLOADS, digest, dump, generate

    for name in args.workload or []:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if args.passes is not None and args.passes < (1 if args.trace else MIN_PASSES):
        parser.error(f"--passes must be at least {MIN_PASSES} (1 when tracing)")
    if args.dump_workloads is not None:
        for name in args.workload or WORKLOADS:
            workload = generate(name, args.seed, args.scale)
            path = dump(workload, args.dump_workloads)
            print(f"{name}: {len(workload.requests)} requests, digest {digest(workload)} -> {path}")
        return 0
    if args.selfcheck:
        return selfcheck(args, args.out)

    results = list(run(args, args.out)["workloads"].values())
    print(json.dumps(contract_line(results, args.trace)))
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())

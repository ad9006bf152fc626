"""Compare two perfbench runs: ``compare.py A B``.

``A`` (the base) and ``B`` are run files written by ``run.py --out``, or
directories of them (a series of runs of one commit, any mix of seeds,
traced and untraced).  Prints one row per workload x end-to-end metric
with both medians and quartiles, the ratio *with its base*, and a
verdict.

Host-clock metrics are compared as medians over each side's series:
``improved`` / ``unchanged`` / ``regressed`` by the metric's bound, or
``unresolved`` when the run-to-run quartile spread of either side is
wider than the bound (the measurement cannot tell).

Simulated-clock metrics and the exact per-layer counters of traced runs
are pure functions of the trace, so runs are **matched by seed** and
compared seed by seed with bound 0: a modeled number that is worse at
any shared seed is ``regressed``, and a counter that differs at any
shared seed is a failure.  Only when the two sides share no seed does a
simulated-clock metric fall back to its cross-seed bound over the
series medians.

Exits non-zero on any regression, any exact-counter difference or a
higher ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench_metrics import END_TO_END, exact_names, quartiles


def load(path):
    """Run dicts at ``path``: one file, or every run file in a directory."""
    path = Path(path)
    files = sorted(path.glob("run-*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        raise SystemExit(f"compare: no run files under {path}")
    return runs


def _results(runs, workload, trace):
    """``workload``'s result in every traced (or untraced) run of a series."""
    return [
        (run["seed"], run["workloads"][workload])
        for run in runs
        if workload in run["workloads"] and bool(run["trace"]) == trace
    ]


def _samples(runs, workload, metric):
    """Median and quartiles of ``metric`` on ``workload``: over the
    per-run medians of a series, or over the passes of a single run."""
    entries = [result["end_to_end"].get(metric) for _, result in _results(runs, workload, False)]
    if not entries or None in entries:
        return None
    if len(entries) == 1:
        entry = entries[0]
        return {"q1": entry["value"], "q3": entry["value"], **entry}
    return quartiles([entry["value"] for entry in entries])


def _cell(sample):
    spread = "" if sample["q1"] == sample["q3"] else f" [{sample['q1']:.6g}..{sample['q3']:.6g}]"
    return f"{sample['value']:.6g}{spread} n={sample['n']}"


def _spread(sample):
    return (sample["q3"] - sample["q1"]) / sample["value"] if sample["value"] else 0.0


def _worse(metric, base, other):
    """Share by which ``other`` is worse than ``base`` (negative: better)."""
    ratio = other / base if base else float("inf")
    return ratio - 1 if metric.better == "lower" else 1 - ratio


def verdict(metric, base, other):
    """Verdict of sample ``other`` against sample ``base`` by
    ``metric``'s bound."""
    worse = _worse(metric, base["value"], other["value"])
    if max(_spread(base), _spread(other)) > metric.bound:
        return "unresolved"
    if worse > metric.bound:
        return "regressed"
    if -worse > metric.bound:
        return "improved"
    return "unchanged"


def exact_verdict(metric, pairs):
    """``(differing, verdict)`` of a simulated-clock metric over
    ``pairs`` of (base, other) values at matched seeds, bound 0."""
    moved = [_worse(metric, base, other) for base, other in pairs if base != other]
    if any(w > 0 for w in moved):
        return len(moved), "regressed"
    return len(moved), "improved" if moved else "unchanged"


def _matched(base_runs, other_runs, workload, trace):
    """``(seed, base result, other result)`` for every seed both series
    hold a traced (or untraced) run of ``workload`` at."""
    base = dict(_results(base_runs, workload, trace))
    other = dict(_results(other_runs, workload, trace))
    return [(seed, base[seed], other[seed]) for seed in sorted(base) if seed in other]


def compare(base_runs, other_runs, out=sys.stdout):
    """Print the comparison table; returns the number of failures
    (regressions, higher ``failed_share``, exact-counter differences)."""
    workloads = [
        w for w in dict.fromkeys(w for run in base_runs for w in run["workloads"])
        if any(w in run["workloads"] for run in other_runs)
    ]
    failures = 0
    print(f"{'workload':<15}{'metric':<21}{'clock':<6}"
          f"{'A median [q1..q3]':<38}{'B median [q1..q3]':<38}{'B/A':<9}verdict", file=out)
    for workload in workloads:
        matched = _matched(base_runs, other_runs, workload, trace=False)
        for metric in END_TO_END:
            if metric.clock == "sim" and matched:
                entries = [
                    (a["end_to_end"].get(metric.name), b["end_to_end"].get(metric.name))
                    for _, a, b in matched
                ]
                if any(None in entry for entry in entries):
                    continue
                pairs = [(a["value"], b["value"]) for a, b in entries]
                base, other = (quartiles(list(side)) for side in zip(*pairs))
                differing, result = exact_verdict(metric, pairs)
                if differing:
                    result += f" (differs at {differing} of {len(pairs)} matched seeds)"
            else:
                base = _samples(base_runs, workload, metric.name)
                other = _samples(other_runs, workload, metric.name)
                if base is None or other is None:
                    continue
                result = verdict(metric, base, other)
            failures += result.startswith("regressed")
            ratio = other["value"] / base["value"] if base["value"] else float("inf")
            print(f"{workload:<15}{metric.name:<21}{metric.clock:<6}"
                  f"{_cell(base):<38}{_cell(other):<38}{ratio:<9.4f}{result}", file=out)
        shares = [
            max(r["workloads"][workload]["failed_share"] for r in runs if workload in r["workloads"])
            for runs in (base_runs, other_runs)
        ]
        worse = shares[1] > shares[0]
        failures += worse
        print(f"{workload:<15}{'failed_share':<21}{'-':<6}{shares[0]:<38.6g}{shares[1]:<38.6g}"
              f"{'':<9}{'regressed' if worse else 'unchanged'}", file=out)
        failures += _exact_differences(base_runs, other_runs, workload, out)
    return failures


def _exact_differences(base_runs, other_runs, workload, out):
    """Exact per-layer counters of traced runs must be equal at every
    seed both series traced."""
    differences = 0
    for seed, base, other in _matched(base_runs, other_runs, workload, trace=True):
        for name in exact_names():
            a, b = base["per_layer"].get(name), other["per_layer"].get(name)
            if name in base["per_layer"] and a != b:
                differences += 1
                print(f"{workload:<15}{name:<40} seed {seed}: A={a} B={b}"
                      "  exact counter differs", file=out)
    return differences


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="run file or directory of runs (A, the base)")
    parser.add_argument("other", help="run file or directory of runs (B)")
    args = parser.parse_args(argv)
    failures = compare(load(args.base), load(args.other))
    if failures:
        print(f"compare: {failures} regression(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired A/B of two commits on perfbench (``benchmarks/perf/README.md``,
"A/B-ing two commits", automated).

Usage::

    python tools/perf_ab.py PARENT_REF [--change REF] [--workload NAME]...
        [--pairs 10] [--seed 1] [--metric serve_tok_s] [--keep DIR]

A is ``PARENT_REF``; B is ``--change`` (default: the working tree's
tracked and staged files, so ``git add`` new files first; ``HEAD`` when
the tree is clean).  Both are ``git archive``d into a temporary
directory, **one** version of ``benchmarks/perf/`` — this checkout's —
is copied into both so the two sides run identical benchmark code, and
``--pairs`` pairs are run in alternating order (A first on even pairs, B
first on odd ones), one seed per pair, each side in the driver's form
``run.py --seed S --seconds 25 --trace 0 --out runs/<side>``.  Then
``compare.py runs/A runs/B`` prints the per-metric table, and the pair
win count of ``--metric`` is printed per workload: a gain may be claimed
when B wins at least nine tenths of the pairs and the medians differ by
more than A's own quartile spread.

Reads the benchmark, edits nothing under it.  Exits with ``compare.py``'s
status (non-zero on any regression).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PERF = Path("benchmarks") / "perf"


def git(*arguments):
    return subprocess.run(
        ["git", *arguments], cwd=REPO, check=True, stdout=subprocess.PIPE
    ).stdout


def checkout(ref, target):
    """``git archive`` ``ref`` into ``target`` with this checkout's
    ``benchmarks/perf/`` in place of its own."""
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=git("archive", ref), check=True)
    shutil.rmtree(target / PERF, ignore_errors=True)
    shutil.copytree(
        REPO / PERF, target / PERF, ignore=shutil.ignore_patterns("out", "__pycache__")
    )


def run_side(side, seed, workloads, runs):
    arguments = [sys.executable, str(side / PERF / "run.py"), "--seed", str(seed),
                 "--seconds", "25", "--trace", "0", "--out", str(runs / side.name)]
    for name in workloads:
        arguments += ["--workload", name]
    # A failed check shows in the run file and in compare.py's verdict.
    subprocess.run(arguments, stdout=subprocess.DEVNULL)


def metric_by_seed(directory, metric):
    """``{workload: {seed: value}}`` of ``metric`` over a side's run files."""
    values = {}
    for path in sorted(directory.glob("run-*.json")):
        run = json.loads(path.read_text())
        for name, result in run["workloads"].items():
            values.setdefault(name, {})[run["seed"]] = result["end_to_end"][metric]["value"]
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="git ref of side A (the base)")
    parser.add_argument("--change", help="git ref of side B (default: the working tree)")
    parser.add_argument("--workload", action="append", help="repeatable; default: all four")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--metric", default="serve_tok_s", help="metric of the win count")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="work here and keep the checkouts and run files")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / PERF))
    from perfbench_metrics import END_TO_END, quartiles

    better = {m.name: m.better for m in END_TO_END}
    if args.metric not in better:
        parser.error(f"unknown metric {args.metric!r}; one of {sorted(better)}")
    sign = 1 if better[args.metric] == "higher" else -1
    workloads = args.workload or []
    change = args.change or git("stash", "create").decode().strip() or "HEAD"

    work = args.keep or Path(tempfile.mkdtemp(prefix="perf_ab-"))
    try:
        sides = {"A": work / "A", "B": work / "B"}
        checkout(args.parent, sides["A"])
        checkout(change, sides["B"])
        runs = work / "runs"
        for pair in range(args.pairs):
            order = "AB" if pair % 2 == 0 else "BA"
            for side in order:
                run_side(sides[side], args.seed + pair, workloads, runs)
            print(f"pair {pair + 1}/{args.pairs} (seed {args.seed + pair}, {order}) done",
                  file=sys.stderr)

        status = subprocess.run(
            [sys.executable, str(REPO / PERF / "compare.py"), str(runs / "A"), str(runs / "B")]
        ).returncode
        print(f"\npair wins of {args.metric} ({better[args.metric]} is better), "
              f"A = {args.parent}, B = {args.change or 'working tree'}")
        base, other = (metric_by_seed(runs / side, args.metric) for side in "AB")
        for name in base:
            seeds = sorted(set(base[name]) & set(other.get(name, {})))
            gains = [sign * (other[name][s] - base[name][s]) for s in seeds]
            a = quartiles([base[name][s] for s in seeds])
            b = quartiles([other[name][s] for s in seeds])
            print(f"  {name:<15} B wins {sum(g > 0 for g in gains)}/{len(seeds)}, "
                  f"A wins {sum(g < 0 for g in gains)}/{len(seeds)}; "
                  f"median A {a['value']:.6g} (q1..q3 {a['q1']:.6g}..{a['q3']:.6g}), "
                  f"B {b['value']:.6g}, B/A {b['value'] / a['value']:.3f}")
        return status
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Measure one workload in this interpreter.

``run.py`` launches this module in a fresh interpreter per workload
(``python perfbench_measure.py --workload NAME ...``); the smoke test
calls :func:`run_workload` in-process.  The shape of a run:

*setup* (imports, seeded model, workload generation, one untimed
smoke-scale warm-up pass) -> identical *timed passes*, each a fresh
server fed the same trace: a *serve phase* timed from outside and a
*replay phase* pricing the recorded trace on the cycle model -> the
output check against the single-sequence oracle and the workload's
mechanism sanity checks.  Every host-time metric is the median over
passes of the per-pass value.

With ``trace`` set, passes come in pairs — one untraced, one under the
timing wrappers of :mod:`perfbench_trace` — and the per-layer metrics
are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import perfbench_adapter as adapter  # noqa: E402
from perfbench_metrics import END_TO_END, PER_LAYER, quartiles  # noqa: E402
from perfbench_trace import Tracer, layer_self_times, summarize  # noqa: E402
from perfbench_workloads import WORKLOADS, digest, generate, sanity_failures  # noqa: E402

MIN_PASSES = 3
DEFAULT_PASSES = 5


def _requests(workload):
    """Adapter requests of a workload, sorted by arrival (stable)."""
    requests = [
        adapter.make_request(
            r["id"], r["prompt"], r["max_new"], r["arrival"], r["budget"],
            r["deadline"], r["seed"],
        )
        for r in workload.requests
    ]
    return sorted(requests, key=lambda r: r.arrival_time)


def serve_pass(model, workload, requests, tracer=None):
    """One pass: fresh server, serve phase, replay phase.  Returns the
    pass's host timings and its simulated-clock numbers (among them the
    served tokens of the oracle subset); the server itself is dropped,
    so at most one is alive at a time."""
    gc.collect()
    target = adapter.build_server(model, workload.server)
    host = adapter.serve(target, requests, tracer)
    start = time.perf_counter()
    replays = adapter.replay(target)
    host["replay_wall"] = time.perf_counter() - start
    sim = adapter.serving_numbers(target, requests)
    sim.update(adapter.hardware_numbers(replays))
    sim["served"] = {rid: adapter.served_tokens(target, rid) for rid in workload.oracle_ids}
    sim["affinity_hit_share"] = _affinity_hit_share(sim.pop("placements"))
    return host, sim


def setup(name, seed, scale):
    """Everything before the first timed pass."""
    workload = generate(name, seed, scale)
    model = adapter.build_model(workload.model)
    requests = _requests(workload)
    if scale != "smoke":  # a smoke run is its own warm-up
        warm = generate(name, seed, "smoke")
        serve_pass(model, warm, _requests(warm))
    return workload, model, requests


def _host_metrics(host, sim):
    steps = np.asarray(host["step_walls"]) * 1e3
    ttft = np.asarray(host["ttft_walls"]) * 1e3
    return {
        "serve_tok_s": sim["tokens"] / host["serve_wall"],
        "round_ms_p50": float(np.percentile(steps, 50)),
        "round_ms_p95": float(np.percentile(steps, 95)),
        "ttft_ms_p50": float(np.percentile(ttft, 50)),
        "ttft_ms_p90": float(np.percentile(ttft, 90)),
        "replay_rounds_s": sim["replay_rounds"] / host["replay_wall"],
    }


def _affinity_hit_share(placements):
    """Follow-up turns placed on the replica that served the previous
    turn of their conversation / follow-up turns (request ids are
    ``c<conv>t<turn>``)."""
    follow_ups = hits = 0
    for request_id, replica in placements.items():
        conv, _, turn = request_id.partition("t")
        if not conv.startswith("c") or not turn.isdigit() or int(turn) == 0:
            continue
        follow_ups += 1
        hits += placements.get(f"{conv}t{int(turn) - 1}") == replica
    return hits / follow_ups if follow_ups else 0.0


def _per_layer(tracer, host, sim, untraced_serve_wall):
    """Per-layer metrics of one traced pass (``None`` where a wrap
    target the metric reads is missing)."""
    summary = summarize(tracer.spans)
    selfs = layer_self_times(summary)
    bench = {
        "driver_self_s": host["serve_wall"] + host["replay_wall"] - sum(selfs.values()),
        "trace_overhead": host["serve_wall"] / untraced_serve_wall,
        "lag_rounds": host["lag_rounds"],
    }

    def read(metric):
        source, arg = metric.source, metric.arg
        if source == "sim":
            return sim[arg]
        if source in ("bench", "bench_s"):
            return bench[arg]
        if source == "self":
            missing = any(key.rsplit(".", 1)[0] == arg for key in tracer.missing)
            return None if missing else selfs.get(arg, 0.0)
        keys = arg.split()
        if any(key in tracer.missing for key in keys):
            return None
        if source == "units":
            return tracer.units.get(arg, 0)
        if source == "seconds":
            return sum(summary[key]["total_s"] for key in keys)
        calls = sum(summary[key]["calls"] for key in keys)
        if source == "calls":
            return calls
        assert source == "refused", source
        return tracer.units.get(arg, 0) / calls if calls else 0.0

    return {metric.name: read(metric) for metric in PER_LAYER}


def run_workload(name, seed=0, scale="full", seconds=None, passes=None, trace=False,
                 process_start=None):
    """Run workload ``name`` and return its result dict.

    ``passes`` fixes the number of timed passes (pairs of an untraced
    and a traced pass, when tracing); ``seconds`` instead repeats passes
    while another one fits into that much measuring time (never fewer
    than ``MIN_PASSES`` untraced passes or one traced pair).  Sizes are never
    adaptive — only the pass count is.
    """
    start = process_start if process_start is not None else time.perf_counter()
    workload, model, requests = setup(name, seed, scale)
    setup_s = time.perf_counter() - start

    if passes is None and seconds is None:
        passes = 1 if trace else DEFAULT_PASSES
    floor = 1 if trace else MIN_PASSES
    host_passes, layer_passes, sims, failures = [], [], [], []
    failed = 0
    tracer = None
    measured = time.perf_counter()

    def more():
        if passes is not None:
            return len(sims) < passes
        if len(sims) < floor:
            return True
        # Start another pass only if one of average length still fits.
        elapsed = time.perf_counter() - measured
        return elapsed + elapsed / len(sims) <= seconds

    while more():
        done = len(sims)
        # End-to-end metrics always come from untraced passes; a traced
        # run pairs each with a pass under the wrappers.
        host, sim = serve_pass(model, workload, requests)
        host_passes.append(_host_metrics(host, sim))
        if trace:
            untraced_serve_wall = host["serve_wall"]
            tracer = Tracer()
            with tracer:
                host, traced_sim = serve_pass(model, workload, requests, tracer)
            layer_passes.append(_per_layer(tracer, host, traced_sim, untraced_serve_wall))
            if traced_sim != sim:
                failed += 1
                failures.append(f"pass {done}: tracing changed simulated-clock numbers")
        sims.append(sim)
        failed += sim["rejected"] + sim["not_retired"]
        if sim["rejected"] or sim["not_retired"]:
            failures.append(
                f"pass {done}: {sim['rejected']} rejected, {sim['not_retired']} not retired"
            )
        if host["lag_rounds"]:
            failed += 1
            failures.append(f"pass {done}: generator ran {host['lag_rounds']} rounds late")
    if any(sim != sims[0] for sim in sims[1:]):
        failed += 1
        failures.append("simulated-clock numbers differ between passes of one trace")

    # Output check: the served tokens of a fixed subset against the solo
    # single-sequence oracle, bit for bit.
    by_id = {r.request_id: r for r in requests}
    for request_id, served in sims[-1]["served"].items():
        if served != adapter.oracle_tokens(model, by_id[request_id]):
            failed += 1
            failures.append(f"oracle mismatch on {request_id}")
    for check in sanity_failures(name, sims[-1]):
        failed += 1
        failures.append(f"sanity check failed: {check}")

    sim = sims[-1]
    end_to_end = {
        metric: quartiles([p[metric] for p in host_passes]) for metric in host_passes[0]
    }
    for metric in END_TO_END:
        if metric.clock == "sim":
            end_to_end[metric.name] = {"value": sim[metric.name], "n": len(sims)}
    detail = {"end_to_end": end_to_end}
    if trace:
        per_layer = {}
        for metric in PER_LAYER:
            values = [p[metric.name] for p in layer_passes]
            if None in values:
                per_layer[metric.name] = None
            elif not metric.exact:
                per_layer[metric.name] = statistics.median(values)
            else:
                per_layer[metric.name] = values[-1]
                if any(v != values[-1] for v in values):
                    failed += 1
                    failures.append(f"{metric.name} differs between traced passes")
        detail.update(
            per_layer=per_layer, missing_targets=sorted(tracer.missing), spans=tracer.spans
        )
    attempted = sim["submitted"] * len(sims)
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "digest": digest(workload),
        "requests": sim["submitted"],
        "passes": len(sims),
        "tokens": sim["tokens"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "failed_share": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **detail,
    }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", help="write the traced pass's spans here as JSONL")
    parser.add_argument("--setup-only", action="store_true",
                        help="run set-up, print its time, exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_START}))
        return 0
    result = run_workload(
        args.workload, args.seed, args.scale, args.seconds, args.passes,
        bool(args.trace), process_start=_PROCESS_START,
    )
    spans = result.pop("spans", None)
    if spans is not None and args.spans_out:
        with open(args.spans_out, "w") as out:
            for index, (key, start, end, parent, round_index) in enumerate(spans):
                out.write(json.dumps({
                    "id": index, "name": key, "start": start, "end": end,
                    "parent": parent, "round": round_index,
                }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Declared metrics: name, unit, clock, direction, regression bound.

Two clocks, always labelled.  ``host`` is what the python takes — noisy,
so bounded.  ``sim`` is the simulated clock (scheduler rounds, modeled
cycles and joules on the default VEDA config at Llama-2 7B shapes) — a
pure function of the trace, so it repeats exactly for one seed and a
"pure speed-up" that moves one is caught by an exact comparison
(``compare.py`` / ``run.py --selfcheck``).  The ``bound`` of a ``sim``
metric only covers what BENCHMARK.json's contract measures: spread
across *different* seeds.

Bounds follow the run-to-run spread measured on the 2-core VM the
benchmark was sized on (README, "Measured steadiness"): one core's speed
drifts by 1.05-1.45x within a minute, every host metric moves with it,
and the quartile spread of the run medians over ten seeds came out at
2-10%.  The rule is spread < bound / 3, so host times carry 25%, the
widest bound BENCHMARK.json admits (memory, which spreads by under 2%,
carries 10%); a ``sim`` metric's spread is how much the seed moves it,
and its bound is at least three times that.

``BENCHMARK.json`` repeats the end-to-end table (minus ``clock``, which
its schema has no key for) and the per-layer names; the smoke test holds
the two equal.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from perfbench_trace import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" | "sim"
    better: str  # "higher" | "lower"
    bound: float
    definition: str


END_TO_END = (
    Metric("setup_s", "s", "host", "lower", 0.25,
           "imports + model build + workload generation + warm-up pass, median over fresh interpreters"),
    Metric("serve_tok_s", "tokens/s", "host", "higher", 0.25,
           "generated tokens / serve-phase wall"),
    Metric("round_ms_p50", "ms", "host", "lower", 0.25,
           "median wall per engine/fleet step() = host inter-token gap of every running sequence"),
    Metric("round_ms_p95", "ms", "host", "lower", 0.25,
           "p95 of the same (prefill / preemption rounds live here)"),
    Metric("ttft_ms_p50", "ms", "host", "lower", 0.25,
           "wall from the start of a request's arrival round to the end of the step that emitted its first token"),
    Metric("ttft_ms_p90", "ms", "host", "lower", 0.25,
           "p90 of the same"),
    Metric("replay_rounds_s", "rounds/s", "host", "higher", 0.25,
           "trace rounds priced (all dataflow passes, all replicas) / replay-phase wall"),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.10,
           "ru_maxrss of the workload's interpreter at exit"),
    Metric("sched_rounds", "rounds", "sim", "lower", 0.10,
           "scheduler rounds to drain the trace (max over replicas)"),
    Metric("kv_peak_slots", "slots", "sim", "lower", 0.20,
           "ServingReport.peak_kv_slots summed over replicas"),
    Metric("hw_tok_s", "tokens/s", "sim", "higher", 0.25,
           "total tokens / (slowest replica's auto-dataflow cycles / clock)"),
    Metric("hw_ttft_cycles_p90", "cycles", "sim", "lower", 0.15,
           "p90 of modeled TTFT cycles, pooled over replicas, auto dataflow"),
    Metric("hw_joules_per_token", "J/token", "sim", "lower", 0.05,
           "auto-dataflow energy / tokens, pooled"),
    Metric("hw_flex_gain", "ratio", "sim", "higher", 0.05,
           "min(pinned prefill, pinned decode cycles) / auto cycles"),
)

#: Reported beside the end-to-end metrics but carried by the result
#: line's ``failed``/``attempted``; it is 0 at the seed commit, which
#: BENCHMARK.json's schema does not allow an end-to-end metric to be.
FAILED_SHARE = Metric(
    "failed_share", "ratio", "sim", "lower", 0.0,
    "(rejected + not retired + oracle mismatches + failed sanity checks) / requests submitted",
)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and where its value comes from.

    ``source`` names the reading, ``arg`` its argument:

    ``calls``/``seconds``  calls / summed span time of the wrap-table
                           keys in ``arg`` (space separated)
    ``units``              the wrap target's summed ``measure`` values
    ``refused``            ``units / calls`` of one key
    ``self``               self time of the layer ``arg``
    ``sim``                field ``arg`` of the pass's simulated-clock numbers
    ``bench``/``bench_s``  field ``arg`` of the driver's own readings
                           (exact / host time)

    Everything but ``seconds``, ``self`` and ``bench_s`` is an exact work
    counter or simulated-clock value that a pure speed-up must leave
    unchanged.
    """

    name: str
    unit: str
    source: str
    arg: str

    @property
    def exact(self):
        return self.source not in ("seconds", "self", "bench_s")


def _layer(layer, *rows):
    return tuple(LayerMetric(f"{layer}.{name}", unit, source, arg.replace("~", layer))
                 for name, unit, source, arg in rows)


# "~" stands for the layer's own name in a wrap-table key.
PER_LAYER = tuple(LayerMetric(f"{layer}.self_s", "s", "self", layer) for layer in LAYERS) + (
    *_layer(
        "models.inference",
        ("prefill_calls", "count", "calls", "~.prefill"),
        ("prefill_rows", "count", "units", "~.prefill"),
        ("prefill_s", "s", "seconds", "~.prefill"),
        ("step_batch_calls", "count", "calls", "~.step_batch"),
        ("step_batch_seqs", "count", "units", "~.step_batch"),
        ("step_batch_s", "s", "seconds", "~.step_batch"),
    ),
    *_layer(
        "core.policies",
        ("observe_calls", "count", "calls", "~.observe"),
        ("observe_s", "s", "seconds", "~.observe"),
        ("select_victim_calls", "count", "calls", "~.select_victim"),
        ("select_victim_s", "s", "seconds", "~.select_victim"),
    ),
    *_layer(
        "core.engine",
        ("enforce_budget_calls", "count", "calls", "~.enforce_budget"),
        ("enforce_budget_s", "s", "seconds", "~.enforce_budget"),
        ("evictions", "count", "sim", "evictions"),
    ),
    *_layer(
        "core.kv_cache",
        ("append_calls", "count", "calls", "~.append"),
        ("evict_calls", "count", "calls", "~.evict"),
        ("read_calls", "count", "calls", "~.read"),
        ("storage_s", "s", "seconds", "~.append ~.evict ~.read"),
    ),
    *_layer(
        "serve.paging",
        ("append_calls", "count", "calls", "~.append"),
        ("evict_calls", "count", "calls", "~.evict"),
        ("read_calls", "count", "calls", "~.read"),
        ("alloc_calls", "count", "calls", "~.alloc"),
        ("release_calls", "count", "calls", "~.release"),
        ("cow_copies", "count", "calls", "~.cow"),
        # allocate/release/copy_block also run nested inside append and
        # evict, so the layer's storage time is its self time.
        ("storage_s", "s", "self", "~"),
        ("block_utilization", "ratio", "sim", "block_utilization"),
    ),
    *_layer(
        "serve.prefix_cache",
        ("match_calls", "count", "calls", "~.match"),
        ("match_s", "s", "seconds", "~.match"),
        ("insert_calls", "count", "calls", "~.insert"),
        ("insert_s", "s", "seconds", "~.insert"),
        ("probe_calls", "count", "calls", "~.probe"),
        ("probe_s", "s", "seconds", "~.probe"),
        ("token_hit_rate", "ratio", "sim", "token_hit_rate"),
    ),
    *_layer(
        "serve.resources",
        ("can_admit_calls", "count", "calls", "~.can_admit"),
        ("can_admit_refused_share", "ratio", "refused", "~.can_admit"),
        ("admit_calls", "count", "calls", "~.admit"),
        ("swap_out_calls", "count", "calls", "~.swap_out"),
        ("swap_in_calls", "count", "calls", "~.swap_in"),
        ("swap_blocks", "count", "sim", "swap_blocks"),
        ("swap_s", "s", "seconds", "~.swap_out ~.swap_in"),
    ),
    *_layer(
        "serve.scheduler",
        ("rounds", "count", "sim", "sched_rounds"),
        ("run_round_s", "s", "seconds", "~.run_round"),
        ("batch_size_mean", "seqs", "sim", "batch_size_mean"),
        ("queue_wait_rounds_mean", "rounds", "sim", "queue_wait_rounds_mean"),
        ("preemptions", "count", "sim", "preemptions"),
    ),
    *_layer(
        "serve.engine",
        ("step_calls", "count", "calls", "~.step"),
        ("submit_calls", "count", "calls", "~.submit"),
        ("submit_s", "s", "seconds", "~.submit"),
    ),
    *_layer(
        "serve.fleet",
        ("route_calls", "count", "calls", "~.route"),
        ("route_s", "s", "seconds", "~.route"),
        ("affinity_hit_share", "ratio", "sim", "affinity_hit_share"),
        ("load_imbalance", "ratio", "sim", "load_imbalance"),
    ),
    *_layer(
        "serve.cosim",
        ("replay_calls", "count", "calls", "~.replay"),
        ("replay_rounds", "count", "units", "~.replay"),
        ("replay_s", "s", "seconds", "~.replay"),
    ),
    *_layer(
        "accel.simulator",
        ("mixed_round_calls", "count", "calls", "~.mixed_round"),
        ("mixed_round_s", "s", "seconds", "~.mixed_round"),
    ),
    *_layer(
        "bench",
        ("driver_self_s", "s", "bench_s", "driver_self_s"),
        ("trace_overhead", "ratio", "bench_s", "trace_overhead"),
        ("generator_lag_rounds", "rounds", "bench", "lag_rounds"),
    ),
)

#: Host-time metrics that read exactly 0 on the workloads that bypass
#: their layer (their ``*_calls`` companions are 0 there too).  The table
#: and the run file report them; the driver-facing result line and
#: ``BENCHMARK.json`` leave them out, because a time that reads the same
#: on every run is refused there.
ZERO_WHEN_BYPASSED = frozenset({
    "core.policies.select_victim_s",
    "core.kv_cache.self_s",
    "core.kv_cache.storage_s",
    "serve.paging.self_s",
    "serve.paging.storage_s",
    "serve.prefix_cache.self_s",
    "serve.prefix_cache.match_s",
    "serve.prefix_cache.insert_s",
    "serve.prefix_cache.probe_s",
    "serve.resources.swap_s",
    "serve.fleet.self_s",
    "serve.fleet.route_s",
})

DRIVER_PER_LAYER = tuple(m for m in PER_LAYER if m.name not in ZERO_WHEN_BYPASSED)

#: Per-layer metrics where more is better; for every other one (work
#: counts, seconds, refusals, imbalance, overhead) less is.
HIGHER_IS_BETTER = frozenset({
    "serve.paging.block_utilization",
    "serve.prefix_cache.token_hit_rate",
    "serve.scheduler.batch_size_mean",
    "serve.fleet.affinity_hit_share",
})


def quartiles(values):
    """``{"value": median, "q1", "q3", "n"}`` of a list of samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def exact_names():
    """Metrics that must repeat exactly for one seed: every simulated
    clock end-to-end metric and every exact per-layer metric."""
    return [m.name for m in END_TO_END if m.clock == "sim"] + [
        m.name for m in PER_LAYER if m.exact
    ]

"""The one place the benchmark touches the repository's API.

Everything `perfbench` needs from ``repro`` is imported and called here,
so a refactor that changes the serving surface (constructor kwargs,
report fields, the co-simulation entry point) needs exactly one edit in
the benchmark.  Knobs ROADMAP marks for deletion (``memoize=``,
``prefix_match_mode``, the ``run_*`` experiment functions, CLI flags) are
deliberately not used.

The rest of the benchmark sees plain python/numpy values: request
lists, token lists, dicts of numbers.  That includes the tracer: the
table of callables it wraps (:data:`WRAP_TABLE`) is declared here, as
import paths, so a renamed target degrades to a ``null`` metric instead
of an import error.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# The benchmark measures the checkout it lives in, from a bare checkout
# (no PYTHONPATH): put that checkout's src/ first.
_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro").is_dir():
    raise SystemExit(f"perfbench: {_SRC}/repro not found; there is nothing to measure")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.config import llama2_7b_shapes, small_lm_config, tiny_config  # noqa: E402
from repro.core.engine import GenerationEngine  # noqa: E402
from repro.core.policies import VotingPolicy  # noqa: E402
from repro.models.inference import CachedTransformer  # noqa: E402
from repro.models.transformer import TransformerLM  # noqa: E402
from repro.serve import (  # noqa: E402
    Request,
    ServingEngine,
    ServingFleet,
    compare_dataflows,
)

#: Attention-sink prefix of every policy the benchmark builds; small
#: because benchmark prompts are short (the paper's 32 would make the
#: shortest prompts unevictable).
RESERVED_LENGTH = 4

_MODEL_CONFIGS = {
    "small": small_lm_config,
    "tiny": lambda: tiny_config(max_seq_len=512),
}


def build_model(kind):
    """Seeded random-init model of ``kind`` (``"small"``/``"tiny"``)."""
    return CachedTransformer.from_module(TransformerLM(_MODEL_CONFIGS[kind](), seed=0))


def model_dims(kind):
    """``(vocab_size, n_layers)`` of a model kind, without building it."""
    config = _MODEL_CONFIGS[kind]()
    return config.vocab_size, config.n_layers


def make_request(request_id, prompt, max_new_tokens, arrival, budget, deadline, seed):
    return Request(
        request_id,
        np.asarray(prompt, dtype=np.int64),
        max_new_tokens=max_new_tokens,
        arrival_time=arrival,
        budget=budget,
        deadline=deadline,
        seed=seed,
    )


def _policy_factory(model):
    n_layers = model.config.n_layers
    return lambda: VotingPolicy(n_layers, reserved_length=RESERVED_LENGTH)


def build_server(model, server):
    """A fresh ``ServingEngine`` (or ``ServingFleet`` when the spec has
    ``replicas``) from a workload's ``server`` dict of public kwargs."""
    kwargs = dict(server)
    replicas = kwargs.pop("replicas", None)
    kwargs["policy_factory"] = _policy_factory(model)
    if replicas is None:
        return ServingEngine(model, **kwargs)
    return ServingFleet(model, replicas=replicas, **kwargs)


def engines_of(target):
    """The engine replicas behind a server (one for a plain engine)."""
    return list(getattr(target, "engines", [target]))


def serve(target, pending, tracer=None):
    """Feed ``pending`` (requests sorted by arrival) to ``target`` as an
    open loop on the *simulated* clock and time it from outside.

    A request is submitted when the server's clock reaches its arrival
    round, so the generator is never late (``lag_rounds`` stays 0; it is
    reported as a check).  Idle gaps are skipped, as ``play`` does.
    Returns host-time raw material: the serve wall, the wall of every
    ``step()``, and per request the wall from the start of its arrival
    round to the end of the step that emitted its first token.
    """
    clock = time.perf_counter
    arrived, first_token, step_walls = {}, {}, []
    lag_rounds = 0
    index, count = 0, len(pending)
    start = clock()
    while index < count or not target.drained:
        if target.drained:
            target.skip_to(pending[index].arrival_time)
        now = target.now
        if tracer is not None:
            tracer.round_index = now
        round_start = clock()
        while index < count and pending[index].arrival_time <= now:
            request = pending[index]
            lag_rounds = max(lag_rounds, now - request.arrival_time)
            arrived[request.request_id] = round_start
            target.submit(request)
            index += 1
        step_start = clock()
        ticks = target.step()
        step_end = clock()
        step_walls.append(step_end - step_start)
        for tick in ticks if isinstance(ticks, list) else (ticks,):
            for request_id in tick.tokens:
                if request_id not in first_token:
                    first_token[request_id] = step_end
    return {
        "serve_wall": clock() - start,
        "step_walls": step_walls,
        "ttft_walls": [first_token[rid] - arrived[rid] for rid in first_token],
        "lag_rounds": lag_rounds,
    }


def served_tokens(target, request_id):
    """Generated tokens of a request, or ``None`` if it never retired."""
    try:
        return list(target.tokens_for(request_id))
    except KeyError:
        return None


def oracle_tokens(model, request):
    """Solo single-sequence generation of one request — the oracle every
    serving mode must match bit-for-bit."""
    engine = GenerationEngine(
        model, _policy_factory(model)(), budget=request.budget
    )
    result = engine.generate(
        request.prompt, request.max_new_tokens, seed=request.seed, eos=request.eos
    )
    return list(result.tokens)


def replay(target):
    """Price every replica's recorded trace under every dataflow on the
    default VEDA hardware at Llama-2 7B shapes (default arguments only).
    Returns one ``{dataflow: ServingCoSimReport}`` dict per replica."""
    return [
        compare_dataflows(scheduler=engine.scheduler, hw_model=llama2_7b_shapes())
        for engine in engines_of(target)
    ]


def serving_numbers(target, requests):
    """Simulated-clock outcome of one served pass, as plain numbers.

    Everything here is a pure function of the request list (no host
    time), so it repeats exactly for one seed."""
    engines = engines_of(target)
    reports = [engine.report() for engine in engines]
    rows = [row for report in reports for row in report.requests]
    retired = {row["request_id"] for row in rows}
    traces = [engine.scheduler.trace for engine in engines]
    decode_rounds = [
        len(record.decodes) for trace in traces for record in trace if record.decodes
    ]
    seen = sum(r.prompt_tokens_seen for r in reports)
    tokens = [r.total_tokens for r in reports]
    paged = [r for r in reports if r.paged]
    return {
        "submitted": len(requests),
        "rejected": sum(len(r.rejections) for r in reports),
        "not_retired": sum(1 for r in requests if r.request_id not in retired),
        "tokens": sum(tokens),
        "tokens_per_replica": tokens,
        "sched_rounds": max(r.total_rounds for r in reports),
        "kv_peak_slots": sum(r.peak_kv_slots for r in reports),
        "evictions": sum(row["evictions"] for row in rows),
        "preemptions": sum(r.preemptions for r in reports),
        "swap_blocks": sum(r.swap_out_blocks + r.swap_in_blocks for r in reports),
        "cow_copies": sum(r.cow_copies for r in reports),
        "prefix_tokens_hit": sum(r.prefix_tokens_hit for r in reports),
        "token_hit_rate": (
            sum(r.prefix_tokens_hit for r in reports) / seen if seen else 0.0
        ),
        "block_utilization": (
            sum(r.mean_block_utilization for r in paged) / len(paged) if paged else 0.0
        ),
        "queue_wait_rounds_mean": (
            sum(row["wait_rounds"] for row in rows) / len(rows) if rows else 0.0
        ),
        "batch_size_mean": (
            sum(decode_rounds) / len(decode_rounds) if decode_rounds else 0.0
        ),
        "load_imbalance": (
            max(tokens) / (sum(tokens) / len(tokens)) if sum(tokens) else 0.0
        ),
        "placements": dict(getattr(getattr(target, "router", None), "placements", {})),
    }


def hardware_numbers(replays):
    """Modeled-hardware outcome of one pass's replay, as plain numbers.

    Replicas run concurrently, so cycle totals are the slowest
    replica's; tokens, energy and TTFT samples are pooled."""
    auto = [r["auto"] for r in replays]
    tokens = sum(r.total_tokens for r in auto)
    makespan = {
        flow: max(r[flow].total_cycles for r in replays) for flow in replays[0]
    }
    pinned = min(cycles for flow, cycles in makespan.items() if flow != "auto")
    ttft = [c for r in auto for c in r.ttft_cycles.values()]
    return {
        "replay_rounds": sum(len(r.rounds) for flows in replays for r in flows.values()),
        "hw_tok_s": tokens / (makespan["auto"] / (auto[0].clock_ghz * 1e9)),
        "hw_ttft_cycles_p90": float(np.percentile(ttft, 90)),
        "hw_joules_per_token": sum(r.energy_joules for r in auto) / tokens,
        "hw_flex_gain": pinned / makespan["auto"],
    }


# ----------------------------------------------------------------------
# What the traced run wraps
# ----------------------------------------------------------------------
#: Package whose modules may hold a wrapped function by name.
PACKAGE = "repro"


def _rows(args, result):
    return len(args[1])


def _refused(args, result):
    return 0 if result else 1


def _priced_rounds(args, result):
    return len(result.rounds)


#: Rows of ``perfbench_trace.Target``: layer charged, metric stem, module,
#: owning class (``None`` for a module-level function), attribute, and an
#: optional ``(args, result) -> number`` summed into the stem's units.
WRAP_TABLE = (
    ("models.inference", "prefill", "repro.models.inference", "CachedTransformer", "prefill", _rows),
    ("models.inference", "step_batch", "repro.models.inference", "CachedTransformer", "step_batch", _rows),
    ("core.policies", "observe", "repro.core.policies.voting", "VotingPolicy", "observe"),
    ("core.policies", "observe", "repro.core.policies.voting", "VotingPolicy", "observe_block"),
    ("core.policies", "observe", "repro.core.policies.voting", "VotingPolicy", "observe_continuation"),
    ("core.policies", "select_victim", "repro.core.policies.voting", "VotingPolicy", "select_victim"),
    ("core.engine", "enforce_budget", "repro.core.engine", None, "enforce_budget"),
    ("core.kv_cache", "append", "repro.core.kv_cache", "LayerKVCache", "append"),
    ("core.kv_cache", "append", "repro.core.kv_cache", "LayerKVCache", "append_block"),
    ("core.kv_cache", "evict", "repro.core.kv_cache", "LayerKVCache", "evict"),
    ("core.kv_cache", "read", "repro.core.kv_cache", "LayerKVCache", "keys"),
    ("core.kv_cache", "read", "repro.core.kv_cache", "LayerKVCache", "values"),
    ("serve.paging", "append", "repro.serve.paging", "PagedLayerKVCache", "append"),
    ("serve.paging", "append", "repro.serve.paging", "PagedLayerKVCache", "append_block"),
    ("serve.paging", "evict", "repro.serve.paging", "PagedLayerKVCache", "evict"),
    ("serve.paging", "read", "repro.serve.paging", "PagedLayerKVCache", "keys"),
    ("serve.paging", "read", "repro.serve.paging", "PagedLayerKVCache", "values"),
    ("serve.paging", "alloc", "repro.serve.paging", "BlockPool", "allocate"),
    ("serve.paging", "release", "repro.serve.paging", "BlockPool", "release"),
    ("serve.paging", "cow", "repro.serve.paging", "BlockPool", "copy_block"),
    ("serve.prefix_cache", "match", "repro.serve.prefix_cache", "PrefixCache", "match"),
    ("serve.prefix_cache", "insert", "repro.serve.prefix_cache", "PrefixCache", "insert"),
    ("serve.prefix_cache", "probe", "repro.serve.prefix_cache", "PrefixCache", "probe"),
    ("serve.resources", "can_admit", "repro.serve.resources", "KVResourceManager", "can_admit", _refused),
    ("serve.resources", "admit", "repro.serve.resources", "KVResourceManager", "admit"),
    ("serve.resources", "swap_out", "repro.serve.resources", "KVResourceManager", "swap_out"),
    ("serve.resources", "swap_in", "repro.serve.resources", "KVResourceManager", "swap_in"),
    ("serve.scheduler", "run_round", "repro.serve.scheduler", "Scheduler", "run_round"),
    ("serve.engine", "step", "repro.serve.engine", "ServingEngine", "step"),
    ("serve.engine", "submit", "repro.serve.engine", "ServingEngine", "submit"),
    ("serve.fleet", "route", "repro.serve.fleet", "FleetRouter", "route"),
    ("serve.cosim", "replay", "repro.serve.cosim", "ServingCoSimulator", "replay", _priced_rounds),
    ("accel.simulator", "mixed_round", "repro.accel.simulator", "AcceleratorSimulator", "mixed_round"),
)

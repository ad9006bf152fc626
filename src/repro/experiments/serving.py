"""Serving benchmark: continuous batching, paging, and prefix sharing.

The paper's Sec. I (via Orca) argues batching amortizes weight fetches
for linear layers while attention stays per-user; ``batching.py`` models
that on the accelerator's cycle model.  This experiment measures it on
the *software* serving path: a synthetic multi-tenant workload (Poisson
arrivals over scheduler rounds, mixed prompt/generation lengths) is
served by :class:`repro.serve.Scheduler` with VotingPolicy eviction at
several batch-size caps, reporting real tokens/s, per-round throughput,
and queueing latency.

Paged mode additionally serves every trace twice — dense slabs vs the
block pool — asserts the generated tokens are bit-identical, and reports
the paged-memory wins: peak-KV reduction, block utilization, prefix-hit
rate, and prefill tokens saved.  A ``shared_prefix`` workload (every
request opens with the same system prompt) is where both paging levers
pull at once: the prefix is stored once and prefilled once.
"""

from __future__ import annotations

import json

import numpy as np

import math
from dataclasses import replace
from functools import partial

from repro.accel.config import veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import ModelConfig, llama2_7b_shapes, tiny_config
from repro.core.engine import budget_from_ratio, sequence_capacity
from repro.core.policies.voting import VotingPolicy
from repro.core.sampling import greedy, temperature_sampler
from repro.experiments.common import ExperimentResult, format_table
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import (
    CycleEDFAdmission,
    Request,
    Scheduler,
    ServingCoSimulator,
    ServingEngine,
    ServingFleet,
    best_dataflow,
    compare_dataflows,
)

__all__ = [
    "run",
    "run_cosim_schedule",
    "run_engine",
    "run_fleet",
    "run_fork",
    "run_preempt",
    "run_prefix",
    "run_spec",
    "make_workload",
    "save_workload",
    "load_workload",
    "overload_pool_blocks",
    "spec_draft_7b_shapes",
]

#: Supported prompt-length distributions / arrival streams.
PROMPT_DISTS = ("uniform", "lognormal", "zipf")
ARRIVALS = ("geometric", "poisson", "bursty")
#: Named workload presets (bundles of knob overrides).
PRESETS = ("overload",)


def make_workload(
    n_requests=8,
    mean_interarrival=2.0,
    prompt_range=(12, 48),
    max_new_range=(8, 24),
    compression_ratio=0.5,
    shared_prefix=0,
    vocab=None,
    seed=0,
    prompt_dist="uniform",
    arrival="geometric",
    burst_size=4,
    deadline_slack=None,
    priority_levels=1,
    turns=1,
    turn_gap=8.0,
    preset=None,
):
    """A reproducible multi-tenant request trace.

    The defaults reproduce the original workload bit-for-bit: geometric
    (discrete Poisson-ish) arrival gaps with the given mean, uniform
    prompt lengths and generation caps, and the paper's ratio-derived
    cache budget ``S = Round(r * P)`` per request with the R = 32 floor
    relaxed to 8 for the tiny model.  ``shared_prefix`` prepends the
    same ``shared_prefix``-token system prompt to every request (the
    prefix-cache workload).

    The knobs beyond that stress the serving stack realistically:

    prompt_dist:
        ``"uniform"`` draws from ``prompt_range``; ``"lognormal"`` is
        heavy-tailed around the range's geometric mean (tail clipped at
        ``4 * max``); ``"zipf"`` is the classic power-law tail starting
        at the range minimum.  Heavy tails are what make chunked prefill
        matter: one tail prompt head-of-line-blocks a whole-prompt
        admission round.
    arrival:
        ``"geometric"`` gaps (legacy), ``"poisson"`` gaps (can be 0 —
        simultaneous arrivals), or ``"bursty"``: ``burst_size`` requests
        arrive together, then one long geometric gap with mean
        ``mean_interarrival * burst_size`` (same long-run rate, spiky).
    deadline_slack:
        When set, each request gets ``deadline = arrival +
        ceil(slack * (max_new_tokens + prompt_len / 8))`` — a rough
        per-request service estimate scaled by the slack factor, so
        tighter slack means more SLA pressure.
    priority_levels:
        ``> 1`` draws a uniform priority in ``[0, levels)`` per request
        (for the priority admission policy).
    turns:
        ``> 1`` turns each request into a multi-turn conversation: turn
        ``t`` re-submits the previous turn's full prompt extended with a
        fresh followup (ids ``req-i.t1``, ``req-i.t2``, ...), arriving a
        geometric ``turn_gap`` after the previous turn.  Later turns
        re-hit the prefix cache on the shared conversation head — the
        cross-turn sharing workload (generated tokens are not echoed
        into the followup prompt; the conversation head alone carries
        the sharing).
    preset:
        Named knob bundle applied on top of the arguments.  ``None``
        (default) changes nothing, so every pre-existing workload stays
        bit-compatible.  ``"overload"`` is the preemption stress
        workload: the entire trace arrives as one burst (``arrival=
        "bursty"``, ``burst_size=n_requests``) with moderately long
        prompts, short generations, and tight deadlines (``deadline_
        slack=1.5`` unless the caller set one), so the aggregate
        worst-case KV demand of simultaneously-arrived requests exceeds
        any pool sized below it — pair with
        :func:`overload_pool_blocks` to pick such a pool.
    """
    if preset is not None and preset not in PRESETS:
        raise ValueError(f"preset must be one of {PRESETS}, got {preset!r}")
    if preset == "overload":
        arrival = "bursty"
        burst_size = n_requests
        prompt_dist = "uniform"
        # Fill in the stress shape only where the caller kept defaults
        # (a length sweep passes its own scaled prompt_range).
        if prompt_range == (12, 48):
            prompt_range = (24, 64)
        if max_new_range == (8, 24):
            max_new_range = (8, 16)
        if deadline_slack is None:
            deadline_slack = 1.5
    if prompt_dist not in PROMPT_DISTS:
        raise ValueError(
            f"prompt_dist must be one of {PROMPT_DISTS}, got {prompt_dist!r}"
        )
    if arrival not in ARRIVALS:
        raise ValueError(f"arrival must be one of {ARRIVALS}, got {arrival!r}")
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    if deadline_slack is not None and deadline_slack <= 0:
        raise ValueError("deadline_slack must be positive when given")
    if priority_levels < 1:
        raise ValueError("priority_levels must be at least 1")
    if turns < 1:
        raise ValueError("turns must be at least 1")
    if turn_gap < 1.0:
        raise ValueError("turn_gap must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = vocab if vocab is not None else tiny_config().vocab_size
    prefix = rng.integers(0, vocab, size=int(shared_prefix))
    lo, hi = prompt_range

    def draw_prompt_length():
        if prompt_dist == "uniform":
            return int(rng.integers(lo, hi))
        if prompt_dist == "lognormal":
            median = math.sqrt(lo * hi)
            draw = int(round(median * rng.lognormal(0.0, 0.6)))
            return int(np.clip(draw, lo, 4 * hi))
        return int(min(lo + rng.zipf(2.0) - 1, 4 * hi))  # zipf

    def draw_gap(index):
        if arrival == "geometric":
            return int(rng.geometric(1.0 / mean_interarrival))
        if arrival == "poisson":
            return int(rng.poisson(mean_interarrival))
        # bursty: whole bursts arrive at once, long gaps between bursts.
        if (index + 1) % burst_size:
            return 0
        return int(rng.geometric(1.0 / (mean_interarrival * burst_size)))

    requests = []
    arrival_round = 0
    for i in range(n_requests):
        unique_len = draw_prompt_length()
        prompt = np.concatenate(
            [prefix, rng.integers(0, vocab, size=unique_len)]
        )
        turn_arrival = arrival_round
        for t in range(turns):
            if t:
                followup = rng.integers(
                    0, vocab, size=max(4, unique_len // 2)
                )
                prompt = np.concatenate([prompt, followup])
                turn_arrival += int(rng.geometric(1.0 / turn_gap))
            max_new = int(rng.integers(*max_new_range))
            deadline = None
            if deadline_slack is not None:
                service = max_new + prompt.shape[0] / 8.0
                deadline = turn_arrival + int(
                    math.ceil(deadline_slack * service)
                )
            priority = (
                int(rng.integers(0, priority_levels))
                if priority_levels > 1
                else 0
            )
            requests.append(
                Request(
                    request_id=f"req-{i}" if t == 0 else f"req-{i}.t{t}",
                    prompt=prompt.copy(),
                    max_new_tokens=max_new,
                    arrival_time=turn_arrival,
                    seed=i * turns + t,
                    # compression_ratio=None serves without a KV budget
                    # (no eviction): the cache then *grows* every decode
                    # step — the overload regime eviction cannot absorb.
                    budget=(
                        None
                        if compression_ratio is None
                        else budget_from_ratio(
                            compression_ratio, prompt.shape[0], minimum=8
                        )
                    ),
                    deadline=deadline,
                    priority=priority,
                )
            )
        arrival_round += draw_gap(i)
    return requests


#: Request fields serialized by :func:`save_workload`, in column order.
_WORKLOAD_FIELDS = (
    "request_id",
    "max_new_tokens",
    "arrival_time",
    "eos",
    "seed",
    "budget",
    "deadline",
    "priority",
    "n",
    "beam_width",
    "length_penalty",
)


def save_workload(requests, path):
    """Serialize a request trace to JSONL (one request per line).

    Every :class:`~repro.serve.Request` field is written, prompts as
    plain integer lists, so a generated workload can be archived and
    replayed bit-for-bit (``--workload-file`` on the serving CLIs)
    across runs, machines, and schedulers.  Returns ``path``.
    """
    with open(path, "w") as handle:
        for request in requests:
            row = {name: getattr(request, name) for name in _WORKLOAD_FIELDS}
            row["prompt"] = [int(t) for t in np.asarray(request.prompt)]
            handle.write(json.dumps(row) + "\n")
    return path


def load_workload(path):
    """Load a :func:`save_workload` JSONL trace back into
    :class:`~repro.serve.Request` objects.

    Validation re-runs on construction, so a hand-edited file fails
    loudly: any line that is not a JSON object carrying valid
    :class:`~repro.serve.Request` fields raises a ``ValueError`` naming
    ``path:line``.

    >>> import os, tempfile
    >>> from repro.serve import Request
    >>> folder = tempfile.TemporaryDirectory()
    >>> path = save_workload(
    ...     [Request("r0", np.array([5, 6, 7]), max_new_tokens=4)],
    ...     os.path.join(folder.name, "trace.jsonl"),
    ... )
    >>> [(r.request_id, r.prompt.tolist(), r.max_new_tokens)
    ...  for r in load_workload(path)]
    [('r0', [5, 6, 7], 4)]
    >>> with open(path, "a") as handle:
    ...     _ = handle.write("3\\n")
    >>> load_workload(path)  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    ValueError: ...trace.jsonl:2: bad workload record: expected a JSON object, got int
    >>> folder.cleanup()
    """
    requests = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise TypeError(
                        f"expected a JSON object, got {type(row).__name__}"
                    )
                prompt = np.asarray(row.pop("prompt"), dtype=np.int64)
                requests.append(Request(prompt=prompt, **row))
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"{path}:{line_number}: bad workload record: {error}"
                ) from error
    return requests


def _served(model=None):
    """``model``, or the untrained tiny model every serving benchmark
    serves by default."""
    if model is None:
        model = CachedTransformer.from_module(
            TransformerLM(tiny_config(), seed=0)
        )
    return model


def _priced_shapes(cosim_shapes, model):
    """The model shapes the co-simulator prices: Llama-2 7B (``"7b"``,
    the paper's hardware evaluation model — real cache trajectories,
    datacenter shapes) or the ``"served"`` model itself."""
    if cosim_shapes == "7b":
        return llama2_7b_shapes()
    if cosim_shapes == "served":
        return model.config
    raise ValueError(
        f"cosim_shapes must be '7b' or 'served', got {cosim_shapes!r}"
    )


def _voting(model, reserved_length):
    """Per-request :class:`VotingPolicy` factory (the paper's eviction)."""
    return partial(
        VotingPolicy, model.config.n_layers, reserved_length=reserved_length
    )


def _serve(model, requests, reserved_length, **scheduler_kwargs):
    """Serve ``requests`` to completion on a fresh :class:`Scheduler`
    with VotingPolicy eviction; returns ``(scheduler, report)``."""
    scheduler = Scheduler(
        model,
        policy_factory=_voting(model, reserved_length),
        **scheduler_kwargs,
    )
    for request in requests:
        scheduler.submit(request)
    return scheduler, scheduler.run()


def _tokens(server, requests):
    """Per-request tokens a scheduler or engine generated."""
    return {
        request.request_id: server.tokens_for(request.request_id)
        for request in requests
    }


def _handle_tokens(handles):
    """Per-request tokens of every handle that was not rejected."""
    return {
        handle.request_id: tuple(handle.result())
        for handle in handles
        if handle.rejection is None
    }


def _check_tokens(tokens, reference, where):
    """A benchmark's rows may differ in how tokens were served, never in
    which tokens: raise if ``tokens`` diverge from ``reference``."""
    if tokens != reference:
        diverged = sorted(
            request_id
            for request_id in tokens.keys() | reference.keys()
            if tokens.get(request_id) != reference.get(request_id)
        )
        raise AssertionError(
            f"tokens diverged from the reference for {diverged} under "
            f"{where}"
        )


def run(
    batch_sizes=(1, 2, 4, 8),
    n_requests=8,
    mean_interarrival=2.0,
    reserved_length=4,
    model=None,
    seed=0,
    paged=False,
    block_size=4,
    shared_prefix=0,
    prefix_caching=True,
    prompt_range=(12, 48),
    max_new_range=(8, 24),
    compression_ratio=0.5,
    prefill_chunk=None,
    workload=None,
    cosim=False,
    cosim_shapes="7b",
    hw=None,
):
    """Serve the same trace at several batch caps; tabulate the effect.

    ``batch=1`` degenerates to sequential serving (the seed repo's only
    mode); larger caps show continuous batching amortizing per-round
    Python/linear-layer overhead and collapsing queue waits.
    ``workload`` (a request list, e.g. from :func:`load_workload`)
    replaces the generated trace.

    With ``paged=True`` every cap is served twice — dense and paged on
    the identical trace — the generated tokens are asserted bit-equal,
    and each row gains the paged columns: peak-KV reduction vs the dense
    slabs, mean block utilization, prefix-cache hit rate, and prefill
    tokens saved.  Combine with ``shared_prefix`` (a common system
    prompt) to exercise cross-request prefix sharing.

    With ``cosim=True`` each recorded per-round trace is instead priced
    on the accelerator cycle model: replayed through
    :class:`~repro.serve.ServingCoSimulator` under all three dataflow
    selections, at the shapes ``cosim_shapes`` picks (``"7b"``: Llama-2
    7B; ``"served"``: the model actually served).  Rows then carry
    hardware cycles, batched tokens/s, utilization, and the cycle
    overhead of pinning the array to either fixed mapping (plus the
    paged trace's cycles when ``paged``), and the returned text block
    holds the per-round cycle tables and the dataflow comparison at the
    largest cap.

    Returns ``(ExperimentResult, extra_text)``; ``extra_text`` is empty
    without ``cosim``.
    """
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    workload = list(workload) if workload is not None else make_workload(
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        prompt_range=prompt_range,
        max_new_range=max_new_range,
        compression_ratio=compression_ratio,
        shared_prefix=shared_prefix,
        vocab=model.config.vocab_size,
        seed=seed,
    )
    # Keep the hot shared prefix resident with headroom while letting
    # never-rehit unique-suffix blocks recycle back to the pool.
    prefix_cache_blocks = max(
        16, 2 * model.config.n_layers * (int(shared_prefix) // block_size + 1)
    )

    def serve(batch_size, use_paged):
        return _serve(
            model,
            workload,
            reserved_length,
            max_batch_size=batch_size,
            paged=use_paged,
            block_size=block_size,
            prefix_caching=prefix_caching,
            prefix_cache_blocks=prefix_cache_blocks,
            prefill_chunk=prefill_chunk,
        )

    rows = []
    extra_blocks = []
    for batch_size in batch_sizes:
        scheduler, report = serve(batch_size, use_paged=False)
        if paged:
            paged_scheduler, paged_report = serve(batch_size, use_paged=True)
            _check_tokens(
                _tokens(paged_scheduler, workload),
                _tokens(scheduler, workload),
                f"paged serving at batch cap {batch_size}",
            )
        if not cosim:
            summary = report.summary()
            row = {
                "max_batch": batch_size,
                "rounds": summary["rounds"],
                "tokens": summary["tokens"],
                "tokens/round": summary["tokens/round"],
                "tokens/s": summary["tokens/s"],
                "mean_wait": summary["mean_wait_rounds"],
                "mean_ttft": summary["mean_ttft_rounds"],
                "mean_latency": summary["mean_latency_rounds"],
                "peak_batch": summary["peak_batch"],
                "peak_kv": summary["peak_kv_slots"],
            }
            if paged:
                reduction = (
                    1.0 - paged_report.peak_kv_slots / report.peak_kv_slots
                    if report.peak_kv_slots
                    else 0.0
                )
                row.update(
                    {
                        "peak_kv_paged": paged_report.peak_kv_slots,
                        "kv_reduction": reduction,
                        "block_util": paged_report.mean_block_utilization,
                        "prefix_hit_rate": paged_report.prefix_hit_rate,
                        "token_hit_rate": paged_report.prefix_token_hit_rate,
                        "prefill_saved": paged_report.prefix_tokens_hit,
                    }
                )
            rows.append(row)
            continue

        reports = compare_dataflows(scheduler, hw=hw, hw_model=hw_model)
        flexible = reports["auto"]
        row = {
            "max_batch": batch_size,
            "rounds": report.total_rounds,
            "tokens": flexible.total_tokens,
            "cycles": flexible.total_cycles,
            "max_round_cyc": flexible.max_round_cycles,
            "mean_ttft_cyc": flexible.mean_ttft_cycles,
            "hw_tokens/s": flexible.tokens_per_second,
            "util": flexible.utilization,
            # Pre-formatted to 4 decimals: the pinned-mapping overheads
            # are real but small when linear layers dominate, and the
            # table's 3-decimal float format would round them away.
            "fixed_prefill_x": format(
                reports["prefill"].total_cycles / flexible.total_cycles, ".4f"
            ),
            "fixed_decode_x": format(
                reports["decode"].total_cycles / flexible.total_cycles, ".4f"
            ),
        }
        if paged:
            paged_reports = compare_dataflows(
                paged_scheduler, hw=hw, hw_model=hw_model
            )
            paged_flexible = paged_reports["auto"]
            row.update(
                {
                    "cycles_paged": paged_flexible.total_cycles,
                    "hw_tokens/s_paged": paged_flexible.tokens_per_second,
                    "prefill_rows_saved": flexible.prefill_tokens
                    - paged_flexible.prefill_tokens,
                }
            )
        rows.append(row)

        if batch_size == max(batch_sizes):
            extra_blocks.append(
                format_table(
                    flexible.rounds,
                    title=f"Per-round cycles, dense, batch cap {batch_size} "
                    f"(dataflow=auto)",
                )
            )
            if paged:
                extra_blocks.append(
                    format_table(
                        paged_reports["auto"].rounds,
                        title=f"Per-round cycles, paged, batch cap "
                        f"{batch_size} (dataflow=auto)",
                    )
                )
            extra_blocks.append(
                format_table(
                    [r.summary() for r in reports.values()],
                    title=f"Dataflow selection on the same trace "
                    f"(dense, batch cap {batch_size})",
                )
            )

    if cosim:
        experiment_id = "serving_cosim"
        title = f"Serving-scale hardware co-simulation ({n_requests} requests)"
        notes = (
            f"Scheduler traces (real per-sequence cache lengths under "
            f"VotingPolicy eviction) replayed through the accelerator cycle "
            f"model on {'Llama-2 7B' if cosim_shapes == '7b' else 'served-model'} "
            "shapes. 'auto' reconfigures the PE array per phase (tiled "
            "mapping for prefill rows, streaming for decode rows); "
            "fixed_prefill_x / fixed_decode_x are the cycle multipliers paid "
            "for pinning the array to either fixed mapping — the win of "
            "dataflow flexibility at serving scale."
        )
    else:
        experiment_id = "serving"
        title = (
            f"Continuous-batching throughput vs batch cap ({n_requests} requests)"
        )
        notes = (
            "Same request trace at every cap; per-request tokens are "
            "identical across caps (batch-invariant decode), so rows "
            "differ only in scheduling. Linear layers share one stacked "
            "matmul per round while each request keeps a private KV "
            "cache with VotingPolicy eviction."
        )
        if paged:
            notes += (
                " Paged rows re-serve the identical trace from a shared "
                f"block pool (block_size={block_size}, shared_prefix="
                f"{shared_prefix}); tokens are asserted bit-equal to the "
                "dense run, so kv_reduction and prefix hits are pure memory/"
                "compute wins."
            )
    result = ExperimentResult(experiment_id, title, rows=rows, notes=notes)
    return result, "\n\n".join(extra_blocks)


def run_prefix(
    n_requests=8,
    turns=2,
    shared_prefix=30,
    block_size=4,
    max_batch_size=8,
    mean_interarrival=2.0,
    turn_gap=8.0,
    reserved_length=4,
    compression_ratio=None,
    model=None,
    seed=0,
):
    """Block-granular vs token-granular prefix sharing on one trace.

    The workload is the regime where the radix trie's partial-block tail
    sharing matters: every request opens with the same ``shared_prefix``
    system prompt whose length is deliberately *misaligned* with the
    pool block size (30 tokens over 4-slot blocks leaves a 2-token
    tail), and each conversation comes back for a second turn that
    re-extends its own first-turn prompt.  Requests are served
    *unbudgeted* (``compression_ratio=None``) because only unbudgeted
    sequences may adopt a partial block or an unsnapshotted node —
    budgeted sequences stay block-granular so their eviction-policy vote
    state remains a bit-exact function of the adopted prefix.

    The identical trace is served three ways — dense (the reference),
    paged with ``prefix_match_mode="block"`` (the full-block-only
    baseline: the old hash-chain cache's coverage rule), and paged with
    ``prefix_match_mode="token"`` (the trie) — and every request's
    generated tokens are asserted bit-identical across all three.  The
    rows then isolate the sharing win: token-granular matching must
    cover at least every block the block mode covers, so
    ``token_hit_rate`` (prompt tokens adopted / prompt tokens seen) can
    only go up, and ``prefill_saved`` counts the prefill rows the extra
    coverage skipped.  ``cow_copies`` shows the price: each adopted
    partial tail is copy-on-write'd once when the sequence first appends
    past it.
    """
    model = _served(model)
    workload = make_workload(
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        compression_ratio=compression_ratio,
        shared_prefix=shared_prefix,
        vocab=model.config.vocab_size,
        seed=seed,
        turns=turns,
        turn_gap=turn_gap,
    )

    def serve(use_paged, match_mode="token"):
        # The scheduler's default unbounded prefix retention: both modes
        # keep every registered block, so the comparison measures
        # matching granularity, not eviction luck.
        return _serve(
            model,
            workload,
            reserved_length,
            max_batch_size=max_batch_size,
            paged=use_paged,
            block_size=block_size,
            prefix_match_mode=match_mode,
        )

    dense_scheduler, dense_report = serve(use_paged=False)
    dense_tokens = _tokens(dense_scheduler, workload)
    rows = [
        {
            "mode": "dense",
            "tokens": dense_report.summary()["tokens"],
            "hit_rate": 0.0,
            "token_hit_rate": 0.0,
            "prefill_saved": 0,
            "cow_copies": 0,
            "peak_kv": dense_report.peak_kv_slots,
        }
    ]
    for match_mode in ("block", "token"):
        scheduler, report = serve(use_paged=True, match_mode=match_mode)
        _check_tokens(
            _tokens(scheduler, workload),
            dense_tokens,
            f"paged serving with prefix_match_mode={match_mode!r}",
        )
        rows.append(
            {
                "mode": f"paged/{match_mode}",
                "tokens": report.summary()["tokens"],
                "hit_rate": report.prefix_hit_rate,
                "token_hit_rate": report.prefix_token_hit_rate,
                "prefill_saved": report.prefix_tokens_hit,
                "cow_copies": report.cow_copies,
                "peak_kv": report.peak_kv_slots,
            }
        )
    block_row, token_row = rows[1], rows[2]
    if token_row["token_hit_rate"] < block_row["token_hit_rate"]:
        raise AssertionError(
            "token-granular matching covered fewer prompt tokens than the "
            f"full-block baseline ({token_row['token_hit_rate']:.4f} < "
            f"{block_row['token_hit_rate']:.4f}); the trie must dominate"
        )
    notes = (
        f"One multi-turn trace ({n_requests} conversations x {turns} "
        f"turns, {shared_prefix}-token shared system prompt, block_size="
        f"{block_size}, unbudgeted) served dense and paged under both "
        "prefix-match granularities; per-request tokens are asserted "
        "bit-identical across all three rows. 'block' adopts only whole "
        "registered blocks (the pre-trie coverage rule); 'token' also "
        "adopts the partial tail of the divergent block via copy-on-"
        "write, re-prefilling only the uncovered rows — token_hit_rate "
        "is the token-weighted coverage and can only improve. Budgeted "
        "sequences would stay block-granular (vote-state bit-exactness); "
        "this trace is unbudgeted to expose the partial-tail win."
    )
    return ExperimentResult(
        "serving_prefix_bench",
        "Prefix sharing: full-block baseline vs radix-trie partial tails",
        rows=rows,
        notes=notes,
    )


def run_engine(
    n_requests=8,
    max_batch_size=4,
    chunk_sizes=(None, 8),
    admissions=("fifo", "edf"),
    arrival="poisson",
    prompt_dist="lognormal",
    mean_interarrival=2.0,
    prompt_range=(12, 48),
    max_new_range=(8, 24),
    deadline_slack=1.5,
    priority_levels=1,
    turns=1,
    compression_ratio=0.5,
    reserved_length=4,
    paged=False,
    block_size=8,
    shared_prefix=0,
    model=None,
    seed=0,
    cosim=False,
    cosim_shapes="7b",
    hw=None,
):
    """Stream one workload through the async engine across admission
    policies and prefill chunk budgets; tabulate the SLA effect.

    The same arrival-timed workload (heavy-tailed prompts and Poisson or
    bursty arrivals by default — the regime where whole-prompt prefill
    head-of-line-blocks) is fed through
    :meth:`repro.serve.ServingEngine.play` for every ``(admission,
    chunk)`` combination.  Per-request generated tokens are asserted
    identical across all combinations (batch-invariant decode plus
    chunk-invariant prefill: scheduling changes *when*, never *what*).
    Rows report the scheduling-only differences: mean/p95 TTFT, mean
    latency, deadline-miss rate, and rejections; with ``cosim=True``
    each run's trace is also priced on the accelerator cycle model,
    adding hardware TTFT (cycles) and the worst single-round cycle cost
    (the head-of-line spike chunked prefill caps).
    """
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    workload = make_workload(
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        prompt_range=prompt_range,
        max_new_range=max_new_range,
        compression_ratio=compression_ratio,
        shared_prefix=shared_prefix,
        vocab=model.config.vocab_size,
        seed=seed,
        prompt_dist=prompt_dist,
        arrival=arrival,
        deadline_slack=deadline_slack,
        priority_levels=priority_levels,
        turns=turns,
    )

    rows = []
    reference = None
    for admission in admissions:
        for chunk in chunk_sizes:
            engine = ServingEngine(
                model,
                admission=admission,
                prefill_chunk=chunk,
                policy_factory=_voting(model, reserved_length),
                max_batch_size=max_batch_size,
                paged=paged,
                block_size=block_size,
            )
            tokens = _handle_tokens(engine.play(workload))
            if reference is None:
                reference = tokens
            _check_tokens(
                tokens, reference, f"admission={admission} chunk={chunk}"
            )
            report = engine.report()
            row = {
                "admission": admission,
                "chunk": "whole" if chunk is None else chunk,
                "rounds": report.total_rounds,
                "tokens": report.total_tokens,
                "tokens/round": report.tokens_per_round,
                "mean_ttft": report.mean_ttft,
                "p95_ttft": report.p95_ttft,
                "mean_latency": report.mean_latency,
                "miss_rate": report.deadline_miss_rate,
                "rejected": len(report.rejections),
            }
            if cosim:
                hw_report = engine.cosim(hw=hw, hw_model=hw_model)
                row["max_round_cyc"] = hw_report.max_round_cycles
                row["mean_ttft_cyc"] = hw_report.mean_ttft_cycles
            rows.append(row)

    notes = (
        f"One arrival-timed workload ({prompt_dist} prompt lengths, "
        f"{arrival} arrivals, deadline slack {deadline_slack}) streamed "
        "through ServingEngine.play for every (admission, chunk) "
        "combination; per-request tokens are asserted identical across "
        "all rows, so TTFT/miss-rate differences are pure scheduling. "
        "'chunk' is the per-round prompt-token budget (chunked prefill); "
        "'whole' admits entire prompts in one round."
    )
    if cosim:
        notes += (
            " max_round_cyc is the worst single round on the accelerator "
            f"({'Llama-2 7B' if cosim_shapes == '7b' else 'served-model'} "
            "shapes): chunked prefill caps the whole-prompt head-of-line "
            "spike; mean_ttft_cyc is hardware time-to-first-token."
        )
    return ExperimentResult(
        "serving_engine",
        f"Async engine: admission x chunked prefill ({n_requests} requests)",
        rows=rows,
        notes=notes,
    )


def spec_draft_7b_shapes():
    """A 160M-class draft stand-in for the Llama-2 7B target shapes.

    Roughly 1/30 of the target's per-token compute — the same ratio the
    served zoo pair exhibits (``micro`` vs ``small``) and the standard
    operating point for speculative decoding against a 7B model.  Like
    :func:`repro.config.llama2_7b_shapes`, shape-only: weights are never
    materialized.
    """
    return ModelConfig(
        vocab_size=32000,
        d_model=1024,
        n_heads=8,
        n_layers=12,
        d_ff=2752,
        max_seq_len=4096,
    )


def run_spec(
    spec_ks=(1, 2, 4),
    n_requests=8,
    mean_interarrival=2.0,
    max_batch_size=4,
    target="small",
    draft="draft",
    model=None,
    draft_model=None,
    prompt_range=(12, 48),
    max_new_range=(32, 96),
    compression_ratio=None,
    reserved_length=4,
    paged=False,
    block_size=4,
    seed=0,
    cosim=True,
    cosim_shapes="7b",
    hw=None,
    hbm_gb_s=32.0,
    prompts=None,
):
    """Serve one trace without and with speculative decoding; sweep ``k``.

    The same workload is served by the plain scheduler (the baseline
    row, ``spec_k = 0``) and once per ``k`` in ``spec_ks`` with the
    draft model proposing ``k`` tokens per sequence per round.  Greedy
    verification is exact-match, so every spec row's per-request tokens
    are **asserted bit-identical** to the baseline — speculation changes
    how fast tokens are produced, never which tokens.

    ``target`` / ``draft`` name zoo checkpoints (:mod:`repro.zoo`;
    trained and cached on first use), with two escape hatches:
    ``target="tiny"`` uses an untrained tiny model (fast smoke runs, no
    zoo training) and ``draft="self"`` uses the target as its own draft
    (accept rate 1.0 by construction — the upper bound of the sweep).
    The default draft is the zoo's *distilled* draft — trained on the
    target's own greedy continuations, because two independently
    corpus-trained models agree on greedy picks only ~60% of the time
    (the corpus has ~1.1 nats of real entropy) while a distilled draft
    tracks the target's argmax directly.  Explicit ``model`` /
    ``draft_model`` instances override the names.

    The default workload is generation-heavy (``max_new_range=(32,
    96)``): speculative decoding accelerates the decode phase only, so
    a prefill-dominated trace would measure prompt processing, not
    speculation.  Prefill rounds are still present and priced — they
    dilute the end-to-end speedup below the pure-decode bound.

    ``prompts`` picks the prompt contents: ``"corpus"`` slices windows
    from the zoo evaluation corpus (in-distribution text — the regime a
    draft/target pair actually agrees in), ``"random"`` keeps
    :func:`make_workload`'s uniform-random tokens.  Default (``None``)
    is ``"corpus"`` for zoo targets and ``"random"`` otherwise: accept
    rate measures draft/target *agreement*, and on random token soup
    two independently trained models agree near chance, which measures
    the workload, not the models.  Prompt lengths, arrivals, and
    generation caps are identical either way.

    The workload defaults to ``compression_ratio=None`` (no KV budget):
    a budgeted sequence speculates only while the provisional window
    fits under its budget and falls back to plain decode afterwards, so
    a tightly budgeted workload measures the fallback path, not
    speculation.

    With ``cosim=True`` every trace is priced on the accelerator cycle
    model and each spec row reports the modeled speedup in hardware
    tokens/s over the baseline as a function of the *measured* accept
    rate.  The default operating point is deliberately
    bandwidth-starved (``hbm_gb_s=32``): at the paper's 256 GB/s the
    VEDA array is exactly compute/memory balanced for decode linears
    (``bytes_per_element * tree_width = bytes_per_cycle``), so a decode
    round can never be weight-fetch-bound and speculation — whose win
    is amortizing the weight fetch over ``k + 1`` verify rows — has
    nothing to amortize.  Serving-class bandwidth pressure is the
    regime speculative decoding exists for; pass ``hw=`` to price any
    other configuration.

    Returns ``(ExperimentResult, extra_text)`` like :func:`run`.
    """
    if prompts not in (None, "corpus", "random"):
        raise ValueError(
            f"prompts must be 'corpus' or 'random', got {prompts!r}"
        )
    zoo_target = model is None and target != "tiny"
    if model is None:
        if target == "tiny":
            model = _served()
        else:
            from repro.zoo import get_pretrained

            model, _, _ = get_pretrained(target)
    hw_model = _priced_shapes(cosim_shapes, model)
    if draft_model is None:
        if draft == "self":
            draft_model = model
        else:
            from repro.zoo import get_pretrained

            draft_model, _, _ = get_pretrained(draft)
    hw_draft_model = (
        spec_draft_7b_shapes() if cosim_shapes == "7b" else draft_model.config
    )
    if prompts is None:
        prompts = "corpus" if zoo_target else "random"
    workload = make_workload(
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        prompt_range=prompt_range,
        max_new_range=max_new_range,
        compression_ratio=compression_ratio,
        vocab=model.config.vocab_size,
        seed=seed,
    )
    if prompts == "corpus":
        from repro.zoo import default_corpus

        tokenizer, documents = default_corpus("eval")
        corpus_stream = np.concatenate(
            [tokenizer.encode(doc) for doc in documents]
        )
        if int(corpus_stream.max()) >= model.config.vocab_size:
            raise ValueError(
                "corpus prompts need a target trained on the zoo "
                f"tokenizer (vocab {tokenizer.vocab_size}), got model "
                f"vocab {model.config.vocab_size}; use prompts='random'"
            )
        # Same lengths, arrivals, caps, and budgets as the random
        # workload — only the prompt *contents* become corpus text.
        offset_rng = np.random.default_rng(seed + 1)
        for request in workload:
            length = request.prompt.shape[0]
            start = int(
                offset_rng.integers(0, corpus_stream.shape[0] - length)
            )
            request.prompt = corpus_stream[start : start + length].copy()

    if cosim:
        effective_hw = hw or veda_config(hbm_bandwidth_gb_s=float(hbm_gb_s))

    rows = []
    extra_blocks = []
    baseline_tokens = baseline_hw = None
    for k in (0, *spec_ks):
        scheduler, report = _serve(
            model,
            workload,
            reserved_length,
            max_batch_size=max_batch_size,
            paged=paged,
            block_size=block_size,
            draft_model=draft_model if k else None,
            spec_k=k or 4,
        )
        tokens = _tokens(scheduler, workload)
        if baseline_tokens is None:
            baseline_tokens = tokens
        _check_tokens(
            tokens,
            baseline_tokens,
            f"spec_k={k} (greedy verification must be exact)",
        )
        row = {
            "spec_k": k if k else "off",
            "rounds": report.total_rounds,
            "tokens": report.total_tokens,
            "verify_passes": report.verify_passes,
            "accept_rate": report.accept_rate,
            "tok/pass": report.tokens_per_target_pass,
            "tokens/s": report.tokens_per_second,
        }
        if cosim:
            hw_report = ServingCoSimulator(
                scheduler=scheduler,
                hw=effective_hw,
                hw_model=hw_model,
                hw_draft_model=hw_draft_model if k else None,
            ).replay()
            if baseline_hw is None:
                baseline_hw = hw_report
            row.update(
                {
                    "cycles": hw_report.total_cycles,
                    "draft_cyc": hw_report.draft_cycles,
                    "hw_tokens/s": hw_report.tokens_per_second,
                    "speedup": hw_report.tokens_per_second
                    / baseline_hw.tokens_per_second,
                }
            )
            if k and k == max(spec_ks):
                extra_blocks.append(
                    format_table(
                        hw_report.rounds,
                        title=f"Per-round cycles at spec_k={k} "
                        f"(dataflow=auto)",
                    )
                )
        rows.append(row)

    notes = (
        "One workload served without (spec_k=off) and with speculative "
        "decoding; per-request tokens are asserted bit-identical across "
        "every row (greedy verification is exact-match), so all "
        "differences are pure scheduling/compute. accept_rate is the "
        "fraction of draft proposals the target accepted; tok/pass is "
        "tokens committed per verify pass (0.0 without speculation, at "
        "most k+1 at full acceptance)."
    )
    if cosim:
        notes += (
            " Hardware rows price the trace at "
            f"{'Llama-2 7B + 160M-draft' if cosim_shapes == '7b' else 'served-model'} "
            "shapes on a bandwidth-starved operating point "
            f"({effective_hw.hbm_bandwidth_gb_s:g} GB/s HBM): decode is "
            "weight-fetch-bound there, so the verify pass's k+1-row "
            "amortization is the win; rejected rows are priced but "
            "yield no tokens, which is why speedup tracks accept_rate."
        )
    result = ExperimentResult(
        "serving_spec",
        f"Speculative decoding: draft-propose / target-verify "
        f"({n_requests} requests)",
        rows=rows,
        notes=notes,
    )
    return result, "\n\n".join(extra_blocks)


def overload_pool_blocks(requests, block_size, n_layers, fraction=0.4):
    """A fixed pool size that overloads ``requests`` without rejecting.

    Returns the number of pool blocks covering the single largest
    worst-case demand (so every request is individually admissible in
    every preempt mode) but only ``fraction`` of the *aggregate*
    worst case — simultaneously-arrived requests then exceed the pool,
    which is exactly the regime preemption exists for.
    """
    if not requests:
        raise ValueError("need at least one request")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    worsts = []
    for request in requests:
        capacity = sequence_capacity(
            request.prompt.shape[0], request.max_new_tokens, request.budget
        )
        worsts.append(-(-capacity // block_size) * n_layers)
    return max(max(worsts), int(fraction * sum(worsts)))


def run_preempt(
    n_requests=8,
    modes=("off", "recompute", "swap"),
    max_batch_size=8,
    block_size=4,
    pool_fraction=0.4,
    length_scales=(1,),
    compression_ratio=None,
    reserved_length=4,
    admission="edf",
    model=None,
    seed=0,
    cosim=False,
    cosim_shapes="7b",
    hw=None,
    stall_horizon_factor=1.0,
):
    """Serve the overload preset under every preemption mode.

    The same burst workload (``make_workload(preset="overload")``,
    served *unbudgeted* by default — ``compression_ratio=None`` — so
    caches grow every decode step, the overload regime eviction cannot
    absorb) against the same deliberately-undersized pool
    (:func:`overload_pool_blocks`) is streamed through the engine once
    per mode.  ``off`` is run with a bounded round horizon
    (``stall_horizon_factor`` x the slowest preempting mode's rounds):
    one-way scheduling admits on worst-case reservations, so under
    overload it either rejects or leaves requests unserved at the
    horizon — while both two-way modes retire 100%.  With
    ``length_scales`` beyond ``(1,)``, prompts and pool are scaled
    together and each scale is served under every mode; with ``cosim``
    each trace is also priced on the accelerator, exposing the
    recompute-vs-swap crossover: swap pays host-link bytes linear in
    resident KV, recompute pays re-prefill compute that grows
    superlinearly with sequence length.

    Returns ``(ExperimentResult, extra_text)`` like :func:`run`.
    """
    for mode in modes:
        if mode not in ("off", "recompute", "swap", "model"):
            raise ValueError(f"unknown preempt mode {mode!r}")
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    cost_model = (
        AcceleratorSimulator(hw or veda_config(), hw_model)
        if "model" in modes
        else None
    )

    rows = []
    extra_blocks = []
    for scale in length_scales:
        # Scaled prompts must stay inside the served model's RoPE table
        # (prompt + max_new <= max positions); the base range is sized
        # so the default tiny model survives a 4x sweep.
        workload = make_workload(
            n_requests=n_requests,
            preset="overload",
            prompt_range=(16 * scale, 24 * scale),
            compression_ratio=compression_ratio,
            vocab=model.config.vocab_size,
            seed=seed,
        )
        num_blocks = overload_pool_blocks(
            workload, block_size, model.config.n_layers, fraction=pool_fraction
        )
        engines = {}
        preempting_rounds = []
        ordered = [m for m in modes if m != "off"] + (
            ["off"] if "off" in modes else []
        )
        for mode in ordered:
            horizon = None
            if mode == "off" and preempting_rounds:
                horizon = int(
                    math.ceil(stall_horizon_factor * max(preempting_rounds))
                )
            engine = ServingEngine(
                model,
                admission=admission,
                policy_factory=_voting(model, reserved_length),
                max_batch_size=max_batch_size,
                paged=True,
                block_size=block_size,
                num_blocks=num_blocks,
                # Prefix sharing is orthogonal to the overload story, and
                # its registrations pin pool blocks (CoW on every budgeted
                # shrink), muddying the pool-pressure signal being
                # measured.
                prefix_caching=False,
                preempt=mode,
                cost_model=cost_model if mode == "model" else None,
            )
            engine.play(workload, drain=False)
            while not engine.drained:
                if horizon is not None and engine.now >= horizon:
                    break
                engine.step()
            engines[mode] = engine
            if mode != "off":
                preempting_rounds.append(engine.now)
        hw_reports = {}
        for mode in modes:
            engine = engines[mode]
            report = engine.report()
            row = {
                "scale": scale,
                "preempt": mode,
                "pool_blocks": num_blocks,
                "retired": f"{len(report.requests)}/{n_requests}",
                "rounds": report.total_rounds,
                "tokens": report.total_tokens,
                "mean_ttft": report.mean_ttft,
                "miss_rate": report.deadline_miss_rate,
                "preemptions": report.preemptions,
                "swap_blocks": report.swap_out_blocks + report.swap_in_blocks,
            }
            if cosim:
                hw_report = engine.cosim(hw=hw, hw_model=hw_model)
                hw_reports[mode] = hw_report
                row.update(
                    {
                        "cycles": hw_report.total_cycles,
                        "prefill_cyc": hw_report.prefill_cycles,
                        "swap_cyc": hw_report.swap_cycles,
                        "swap_mb": hw_report.swap_bytes / 1e6,
                    }
                )
            rows.append(row)
        if cosim and scale == max(length_scales) and "swap" in hw_reports:
            extra_blocks.append(
                format_table(
                    [
                        r
                        for r in hw_reports["swap"].rounds
                        if r.get("swaps")
                    ],
                    title=f"Swap-traffic rounds at scale {scale} "
                    f"(preempt=swap)",
                )
            )

    notes = (
        "One overload burst (aggregate worst-case KV demand "
        f"{1 / pool_fraction:.1f}x the pool) served per preemption mode. "
        "'off' admits on worst-case reservations and is cut off at the "
        "preempting modes' round horizon — requests it has not retired "
        "by then are the stall; 'recompute' and 'swap' admit "
        "optimistically and preempt the lowest-ranked victim under "
        "pressure, retiring everything. With --cosim, recompute's "
        "overhead is re-prefill compute (prefill_cyc) and swap's is "
        "host-link traffic (swap_cyc): transfer bytes grow linearly "
        "with sequence length, re-prefill compute superlinearly — the "
        "crossover the length sweep exposes."
    )
    result = ExperimentResult(
        "serving_preempt",
        f"Preemption under KV overload ({n_requests}-request burst)",
        rows=rows,
        notes=notes,
    )
    return result, "\n\n".join(extra_blocks)


def run_cosim_schedule(
    n_requests=8,
    static_chunks=(4, 8, 16),
    base_chunk=8,
    static_preempts=("swap", "recompute"),
    max_batch_size=8,
    block_size=4,
    pool_fraction=0.4,
    scale=1,
    compression_ratio=None,
    reserved_length=4,
    objective="cycles",
    model=None,
    seed=0,
    cosim_shapes="7b",
    hw=None,
):
    """Cost-model-guided scheduling vs the static grid, on one overload burst.

    The same overload workload (unbudgeted, deliberately-undersized
    pool) is served once per configuration: every static
    ``(prefill_chunk, preempt)`` combination from ``static_chunks`` x
    ``static_preempts``, plus the cost-guided controller —
    ``adaptive_chunk=True`` (the chunk each round is sized from the
    predicted decode-batch cycle budget and the free-block count),
    ``preempt="model"`` (each victim swaps or recomputes by modeled
    cycle cost), and cycle-priced EDF admission.  Scheduling decisions
    never touch the numerics, so every configuration must retire
    bit-identical per-request tokens — asserted here.

    Each trace is then priced under every dataflow
    (:func:`~repro.serve.cosim.compare_dataflows`) and the winner is
    picked by ``objective`` (``"cycles"`` or ``"energy"``); rows carry
    modeled throughput, p95 TTFT in cycles, and joules/token.

    Returns ``(ExperimentResult, extra_text)`` like :func:`run`.
    """
    if objective not in ("cycles", "energy"):
        raise ValueError(f"objective must be 'cycles' or 'energy', got {objective!r}")
    for mode in static_preempts:
        if mode not in ("recompute", "swap"):
            raise ValueError(
                f"static preempt modes must be 'recompute' or 'swap', got {mode!r}"
            )
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    cost_model = AcceleratorSimulator(hw or veda_config(), hw_model)

    workload = make_workload(
        n_requests=n_requests,
        preset="overload",
        prompt_range=(16 * scale, 24 * scale),
        compression_ratio=compression_ratio,
        vocab=model.config.vocab_size,
        seed=seed,
    )
    num_blocks = overload_pool_blocks(
        workload, block_size, model.config.n_layers, fraction=pool_fraction
    )

    configs = [
        ("static", chunk, preempt)
        for chunk in static_chunks
        for preempt in static_preempts
    ]
    configs.append(("adaptive", base_chunk, "model"))

    rows = []
    baseline_tokens = None
    adaptive_engine = None
    for policy, chunk, preempt in configs:
        adaptive = policy == "adaptive"
        engine = ServingEngine(
            model,
            admission=CycleEDFAdmission(cost_model=cost_model),
            policy_factory=_voting(model, reserved_length),
            max_batch_size=max_batch_size,
            paged=True,
            block_size=block_size,
            num_blocks=num_blocks,
            prefix_caching=False,
            prefill_chunk=chunk,
            adaptive_chunk=adaptive,
            preempt=preempt,
            cost_model=cost_model if (adaptive or preempt == "model") else None,
        )
        engine.play(workload)
        tokens = _tokens(engine, workload)
        if baseline_tokens is None:
            baseline_tokens = tokens
        _check_tokens(
            tokens,
            baseline_tokens,
            f"({policy}, chunk={chunk}, preempt={preempt})",
        )
        report = engine.report()
        hw_reports = compare_dataflows(
            scheduler=engine.scheduler, hw=hw, hw_model=hw_model
        )
        dataflow, hw_report = best_dataflow(hw_reports, objective=objective)
        rows.append(
            {
                "policy": policy,
                "chunk": chunk,
                "preempt": preempt,
                "rounds": report.total_rounds,
                "preempts": report.preemptions,
                "cycles": hw_report.total_cycles,
                "hw_tokens/s": hw_report.tokens_per_second,
                "p95_ttft_cyc": hw_report.p95_ttft_cycles,
                "joules/token": hw_report.joules_per_token,
                "dataflow": dataflow,
            }
        )
        if adaptive:
            adaptive_engine = engine

    static_rows = [row for row in rows if row["policy"] == "static"]
    adaptive_row = rows[-1]
    best_static = max(static_rows, key=lambda row: row["hw_tokens/s"])
    extra = "\n".join(
        [
            f"Objective: {objective}; pool {num_blocks} blocks "
            f"({1 / pool_fraction:.1f}x oversubscribed aggregate demand).",
            f"Best static config: chunk={best_static['chunk']} "
            f"preempt={best_static['preempt']} at "
            f"{best_static['hw_tokens/s']:.1f} hw tokens/s, "
            f"p95 TTFT {best_static['p95_ttft_cyc']:,.0f} cycles.",
            f"Cost-guided controller: {adaptive_row['hw_tokens/s']:.1f} "
            f"hw tokens/s, p95 TTFT "
            f"{adaptive_row['p95_ttft_cyc']:,.0f} cycles, "
            f"{adaptive_row['joules/token']:.4f} J/token.",
            f"Model-preempt split: {adaptive_engine.report().model_swaps} "
            f"swaps / {adaptive_engine.report().model_recomputes} recomputes.",
        ]
    )
    notes = (
        "Every configuration serves the identical overload burst and "
        "retires bit-identical per-request tokens (asserted): the cost "
        "model only re-orders and re-sizes scheduling, never the math. "
        "The adaptive controller sizes each prefill chunk so prefill "
        "plus the predicted decode round fits the widest rung's cycle "
        "budget without outrunning the free block pool, picks swap vs "
        "recompute per victim by modeled cycles, and admits by "
        "cycle-priced laxity. Traces are priced per dataflow through "
        "one shared pricing cache and the winner is chosen by the "
        f"'{objective}' objective."
    )
    result = ExperimentResult(
        "serving_schedule",
        "Cost-model-guided scheduling vs the static grid",
        rows=rows,
        notes=notes,
    )
    return result, extra


def run_fork(
    n_samples=4,
    beam_width=0,
    n_requests=8,
    mean_interarrival=2.0,
    reserved_length=4,
    model=None,
    seed=0,
    block_size=4,
    shared_prefix=0,
    prompt_range=(12, 24),
    max_new_range=(8, 12),
    max_batch_size=None,
    cosim=False,
    hw=None,
    cosim_shapes="7b",
):
    """Fork/join benchmark: parallel sampling or beam search over
    shared-prompt KV blocks.

    Serves one workload three ways on identical prompts:

    1. ``single`` — every request decoded once (paged), scaled to the
       branch count for the fair memory baseline;
    2. ``forked/paged`` — every request forked into ``n_samples``
       branches (or a ``beam_width`` beam) sharing all prompt blocks
       copy-on-write: the peak-block ratio against ``branches x single``
       is the shared-prompt-blocks win;
    3. ``forked/dense`` — the same fork family over dense slabs, where
       each fork physically copies the parent's KV state
       (``fork_copied_slots``), which ``--cosim`` prices as HBM traffic
       (paged forks price at zero).

    Parallel sampling uses a temperature sampler so branches diverge
    (branch ``i`` is bit-identical to an independent request with seed
    ``seed + i``); beam search is deterministic and ignores the sampler.

    Returns ``(ExperimentResult, extra_text)``.
    """
    if beam_width and beam_width > 1 and n_samples > 1:
        raise ValueError("n_samples and beam_width are mutually exclusive")
    mode = "beam" if beam_width and beam_width > 1 else "sample"
    width = beam_width if mode == "beam" else n_samples
    if width < 2:
        raise ValueError(
            f"fork benchmark needs at least 2 branches, got {width}"
        )
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    if max_batch_size is None:
        max_batch_size = max(8, 2 * width)
    sampler = greedy if mode == "beam" else temperature_sampler(0.8)

    base_requests = make_workload(
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        prompt_range=prompt_range,
        max_new_range=max_new_range,
        compression_ratio=None,
        shared_prefix=shared_prefix,
        vocab=model.config.vocab_size,
        seed=seed,
    )
    forked_requests = [
        replace(
            request,
            n=width if mode == "sample" else 1,
            beam_width=width if mode == "beam" else 1,
        )
        for request in base_requests
    ]

    def serve(requests, use_paged):
        return _serve(
            model,
            requests,
            reserved_length,
            max_batch_size=max_batch_size,
            sampler=sampler,
            paged=use_paged,
            block_size=block_size,
        )

    _, single_report = serve(base_requests, use_paged=True)
    forked_paged, paged_report = serve(forked_requests, use_paged=True)
    forked_dense, dense_report = serve(forked_requests, use_paged=False)

    scaled_single_peak = width * single_report.peak_blocks
    rows = [
        {
            "mode": "single/paged",
            "branches": 1,
            "rounds": single_report.total_rounds,
            "tokens": single_report.total_tokens,
            "peak_blocks": single_report.peak_blocks,
            "forks": 0,
            "shared_blocks": 0,
            "copied_slots": 0,
        },
        {
            "mode": f"{mode}/paged",
            "branches": width,
            "rounds": paged_report.total_rounds,
            "tokens": paged_report.total_tokens,
            "peak_blocks": paged_report.peak_blocks,
            "forks": paged_report.forks,
            "shared_blocks": paged_report.fork_shared_blocks,
            "copied_slots": 0,
            "peak_vs_scaled_single": (
                paged_report.peak_blocks / scaled_single_peak
                if scaled_single_peak
                else 0.0
            ),
        },
        {
            "mode": f"{mode}/dense",
            "branches": width,
            "rounds": dense_report.total_rounds,
            "tokens": dense_report.total_tokens,
            "peak_blocks": 0,
            "forks": dense_report.forks,
            "shared_blocks": 0,
            "copied_slots": dense_report.fork_copied_slots,
        },
    ]

    extra_blocks = []
    if cosim:
        cosim_rows = []
        for label, scheduler in (
            (f"{mode}/paged", forked_paged),
            (f"{mode}/dense", forked_dense),
        ):
            priced = ServingCoSimulator(
                scheduler, hw=hw, hw_model=hw_model
            ).replay()
            summary = priced.summary()
            cosim_rows.append(
                {
                    "trace": label,
                    "cycles": summary["cycles"],
                    "hw_tokens/s": summary["hw_tokens/s"],
                    "fork_events": priced.fork_events,
                    "fork_cycles": priced.fork_cycles,
                    "fork_mb": priced.fork_bytes / 1e6,
                }
            )
        extra_blocks.append(
            format_table(
                cosim_rows,
                title=(
                    "Fork pricing on the cycle model "
                    f"({'Llama-2 7B' if cosim_shapes == '7b' else 'served'} "
                    "shapes): paged CoW forks are free, dense forks pay "
                    "an HBM copy of every inherited slot"
                ),
            )
        )

    notes = (
        f"{n_requests} prompts, {width} branches each ({mode} mode). "
        "Forked/paged shares every prompt block copy-on-write across "
        "branches, so peak_vs_scaled_single < 1.0 is the memory the "
        "fork surface saves over serving the branches as independent "
        "requests; fork_shared_blocks counts the block references "
        "adopted instead of allocated. Forked/dense pays the same "
        "divergence with physical slab copies (copied_slots), the "
        "traffic --cosim prices."
    )
    result = ExperimentResult(
        "serving_fork",
        f"Fork/join decoding: {mode} x{width} over {n_requests} prompts",
        rows=rows,
        notes=notes,
    )
    return result, "\n\n".join(extra_blocks)


def run_fleet(
    replicas=2,
    placements=("round_robin", "least_loaded", "prefix_affinity"),
    n_requests=6,
    turns=3,
    mean_interarrival=2.0,
    turn_gap=8.0,
    shared_prefix=0,
    prompt_range=(12, 32),
    max_new_range=(8, 16),
    compression_ratio=None,
    reserved_length=4,
    block_size=4,
    max_batch_size=4,
    model=None,
    seed=0,
    tp=1,
    interconnect_gb_s=None,
    cosim=False,
    cosim_shapes="7b",
    hw=None,
    workload=None,
):
    """Serve one shared arrival stream on a replica fleet per placement
    policy; tabulate what routing alone changes.

    The default workload is multi-turn conversations (each turn
    re-extends its own history), served *unbudgeted* so prefix sharing
    is unconstrained — the regime where placement matters: a
    conversation's later turns only re-hit the radix trie of the replica
    that served its earlier turns.  The identical stream is first served
    on a **single engine** (the fleet-equivalence reference), then on
    the fleet once per placement policy, and every request's generated
    tokens are asserted bit-identical across all runs: placement changes
    *where* and *when*, never *what*.  Rows report the routing-only
    differences — fleet TTFT, load imbalance (max/mean replica tokens),
    and the cross-fleet prefix token hit rate.

    ``cosim=True`` replays each replica's trace on its own accelerator
    cycle model (``tp`` > 1 shards every layer over ``tp`` PE clusters
    and prices the all-reduces on the ``interconnect_gb_s`` link);
    fleet throughput is total tokens over the slowest replica's cycles.
    ``workload`` (e.g. from :func:`load_workload`) replaces the
    generated trace.
    """
    if replicas < 1:
        raise ValueError("replicas must be at least 1")
    model = _served(model)
    hw_model = _priced_shapes(cosim_shapes, model)
    stream_desc = f"{turns}-turn conversations"
    if workload is None:
        workload = make_workload(
            n_requests=n_requests,
            mean_interarrival=mean_interarrival,
            prompt_range=prompt_range,
            max_new_range=max_new_range,
            compression_ratio=compression_ratio,
            shared_prefix=shared_prefix,
            vocab=model.config.vocab_size,
            seed=seed,
            turns=turns,
            turn_gap=turn_gap,
        )
    else:
        workload = list(workload)
        stream_desc = "replayed"
    engine_kwargs = dict(
        policy_factory=_voting(model, reserved_length),
        max_batch_size=max_batch_size,
        paged=True,
        block_size=block_size,
    )
    if cosim:
        hw = hw or veda_config()
        if interconnect_gb_s is not None:
            hw = replace(hw, interconnect_gb_s=interconnect_gb_s)

    # Fleet-equivalence reference: the same stream on one engine.
    single = ServingEngine(model, **engine_kwargs)
    reference = _handle_tokens(single.play(workload))

    rows = []
    for placement in placements:
        fleet = ServingFleet(
            model, replicas=replicas, placement=placement, **engine_kwargs
        )
        _check_tokens(
            _handle_tokens(fleet.play(workload)),
            reference,
            f"placement={placement} (the single engine is the reference)",
        )
        report = fleet.report()
        row = {
            "placement": placement,
            "replicas": replicas,
            "rounds": report.total_rounds,
            "tokens": report.total_tokens,
            "by_replica": "/".join(
                str(t) for t in report.tokens_per_replica
            ),
            "mean_ttft": report.mean_ttft,
            "p95_ttft": report.p95_ttft,
            "imbalance": report.load_imbalance,
            "token_hit_rate": report.prefix_token_hit_rate,
        }
        if any(r.deadline is not None for r in workload):
            row["miss_rate"] = report.deadline_miss_rate
        if cosim:
            priced = fleet.cosim(hw=hw, hw_model=hw_model, tp=tp)
            row["fleet_cycles"] = priced.fleet_cycles
            row["fleet_tokens/s"] = priced.tokens_per_second
            if tp > 1:
                row["allreduce_cyc"] = priced.interconnect_cycles
        rows.append(row)

    notes = (
        f"One shared arrival stream ({len(workload)} requests, "
        f"{stream_desc}) routed over {replicas} engine "
        "replicas (each with its own scheduler, block pool, and radix "
        "trie) per placement policy; per-request tokens are asserted "
        "bit-identical to a single engine serving the same stream, so "
        "TTFT/hit-rate/imbalance differences are pure routing. "
        "token_hit_rate is the cross-fleet prefix hit rate: affinity "
        "routing sends a conversation's later turns back to the replica "
        "holding its earlier turns' blocks; round-robin scatters them."
    )
    if cosim:
        notes += (
            " fleet_cycles is the slowest replica's serialized cycle "
            f"count ({'Llama-2 7B' if cosim_shapes == '7b' else 'served'} "
            "shapes) — replicas run concurrently, so fleet_tokens/s is "
            "total tokens over that makespan"
            + (
                f"; tp={tp} shards each layer over {tp} PE clusters with "
                "ring all-reduces priced on the inter-cluster link "
                f"({hw.interconnect_gb_s:g} GB/s)."
                if tp > 1
                else "."
            )
        )
    return ExperimentResult(
        "serving_fleet",
        f"Serving fleet: placement policies over {replicas} replicas",
        rows=rows,
        notes=notes,
    )

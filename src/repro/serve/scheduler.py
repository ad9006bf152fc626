"""Continuous-batching scheduler over the batched decode path.

This is the serving loop the ROADMAP's "heavy traffic" north star asks
for, in the Orca / vLLM mould: requests arrive over time, are admitted
into the running batch as soon as a slot frees up (iteration-level
scheduling, not static batches), decode in lock-step through
:meth:`CachedTransformer.step_batch`, evict from their private KV caches
via their private policy instances, and retire individually on EOS or
token budget — immediately freeing their slot for the next queued
request.

Equivalence guarantee
---------------------
Per sequence, the scheduler performs the token-producing operation
sequence of :meth:`repro.core.engine.GenerationEngine.generate` —
prefill, block observation, budget enforcement, then
sample/step/observe/evict per token — against per-sequence state, and
the batched decode path is bitwise identical to solo decode (see
:func:`repro.models.inference.batch_matmul`).  A request therefore
generates the same tokens whether it is served alone or inside any batch
mix; ``tests/serve/test_serve_scheduler.py`` locks this in.  One
deliberate deviation: when a request retires by hitting
``max_new_tokens``, the engine still spends a decode step on the final
sampled token (its logits are discarded); the scheduler skips that dead
step, so eviction counts and cache-length traces can trail the engine's
by one step even though the tokens are identical.

The clock is discrete: one *round* = one scheduler iteration (admission,
one sampling pass, one batched decode step).  Request arrival times are
expressed in rounds.

Paged mode (``paged=True``) swaps the dense per-sequence slabs for
fixed-size blocks from a shared :class:`~repro.serve.paging.BlockPool`
and shares full prompt-prefix blocks across requests through a
:class:`~repro.serve.prefix_cache.PrefixCache` (copy-on-write, with
eviction-policy state snapshots).  The equivalence guarantee extends to
it: tokens are bit-identical dense vs paged, at any block size, with or
without prefix hits — ``tests/serve/test_paged_equivalence.py`` and the
fuzz suite lock this in.

Chunked prefill (``prefill_chunk=N``) bounds the prompt rows computed
per round, Sarathi-style: an admitted prompt is prefilled in N-token
chunks interleaved with the running batch's decode rounds (the sequence
sits in the ``PREFILLING`` state, holding a batch slot but not sampling,
until its last chunk lands).  Because the model's prefill is
row-count-invariant over a populated cache and every policy's
``observe_continuation`` is chunk-invariant, generated tokens are
bit-identical to whole-prompt prefill at any chunk budget — the win is
latency shape only: no single round carries a whole long prompt, so
decode rounds never stall behind one (the head-of-line cycle spike
visible in ``serve-bench --cosim``).

Admission order is pluggable (``admission_policy``): the default is
FIFO by arrival; the engine layer provides EDF and priority-with-aging
policies keyed on the new ``Request.deadline`` / ``Request.priority``
fields.  Unsatisfiable paged requests become structured
:class:`~repro.serve.request.Rejection` records (surfaced in
``ServingReport.rejections``) instead of only raising.

Every resource a sequence holds — its batch slot, its pool blocks, the
prefix-cache reservations — is owned by a single
:class:`~repro.serve.resources.KVResourceManager`.  With
``preempt="off"`` (default) scheduling is one-way: admission reserves
worst case and a sequence keeps its resources to retirement.
``preempt="recompute"`` / ``preempt="swap"`` enable two-way scheduling:
admission turns optimistic (immediate prefill need instead of worst
case — much higher pool utilization under eviction budgets), and
pressure preempts a victim (lowest priority, then latest deadline, then
fewest generated tokens) instead of stalling.  Pressure comes from two
places: the pool running dry mid-run (any admission policy), and an
arrived request that strictly outranks a running sequence under the
admission policy — deadline pressure under EDF, priority pressure under
priority-with-aging — finding no free slot or blocks.  A recompute
victim re-prefills its prompt plus generated tokens on re-admission
(bit-exact without a KV budget); a swap victim pages its blocks and
eviction-state snapshot to the modeled host pool and resumes
bit-exactly.  Swap traffic is recorded as
:class:`~repro.serve.trace.SwapEvent` rows in the round trace and priced
as HBM<->host transfers by the serving co-simulator.  With capacity to
spare, no preemption triggers and all three modes are bit-identical.

Speculative decoding (``draft_model=...``) replaces a speculating
sequence's one-token decode step with a propose/verify round: a cheap
draft model proposes ``spec_k`` tokens, the target scores them (plus the
pending token) in one multi-token :meth:`CachedTransformer.verify` pass,
and the longest prefix whose greedy argmax matches the proposals is
accepted — the verify pass's per-row logits are bitwise identical to
sequential decode, so with the (required) greedy sampler acceptance is
exact and the generated tokens, eviction logs, and cache-length traces
are bit-identical to the non-speculative scheduler.  Rejected
provisional KV entries are rolled back with ``cache.truncate`` (paged
mode returns the freed tail blocks to the pool immediately, and
provisional tokens never enter the prefix cache — registration only
ever covers full *prompt* blocks).  A sequence whose eviction budget
could fire inside the verify window (``cache length + k + 1 > budget``)
transparently falls back to the plain decode step that round, keeping
the eviction schedule exact; EOS/length caps landing mid-window clip
the window.  The draft model's KV cache is modeled host-resident: it
consumes no pool blocks, survives a swap, and is dropped with the rest
of the device state on a recompute preemption.

Every round is also recorded in :attr:`Scheduler.trace` (prefill row
counts, per-sequence decode attention lengths, speculative verify
windows), which :class:`~repro.serve.cosim.ServingCoSimulator` prices on
the accelerator cycle model after the run.

Worked example — serve three requests at batch cap 2::

    >>> import numpy as np
    >>> from repro.config import tiny_config
    >>> from repro.models.inference import CachedTransformer
    >>> from repro.models.transformer import TransformerLM
    >>> from repro.serve import Request, Scheduler
    >>> model = CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))
    >>> scheduler = Scheduler(model, max_batch_size=2)
    >>> for i in range(3):
    ...     _ = scheduler.submit(Request(f"r{i}", np.arange(6) + i,
    ...                                  max_new_tokens=4, seed=i))
    >>> report = scheduler.run()
    >>> len(report.requests), report.total_tokens, scheduler.done
    (3, 12, True)
    >>> len(scheduler.tokens_for("r1"))   # same tokens as solo decode
    4
    >>> [r.num_decodes for r in scheduler.trace][:3]   # lock-step rounds
    [2, 2, 2]
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import (
    enforce_budget,
    observe_and_evict,
    sequence_capacity,
    unservable_reason,
)
from repro.core.policies.base import PREFILL
from repro.core.sampling import greedy
from repro.core.policies.voting import VotingPolicy
from repro.serve.request import (
    FINISHED,
    PREEMPTED,
    PREFILLING,
    RUNNING,
    SWAPPED,
    Rejection,
    Request,
    SequenceState,
)
from repro.serve.resources import PREEMPT_MODES, KVResourceManager
from repro.serve.trace import (
    SWAP_IN,
    SWAP_OUT,
    DecodeEvent,
    ForkEvent,
    PrefillEvent,
    RoundTrace,
    SwapEvent,
    VerifyEvent,
)

__all__ = ["Scheduler", "ServingReport"]


@dataclass
class ServingReport:
    """Aggregate + per-request outcome of one scheduler run.

    Invariants: ``total_tokens`` equals the sum of per-request token
    counts in ``requests``; ``busy_rounds <= total_rounds``;
    ``peak_concurrency <= max_batch_size``; throughput properties return
    0.0 (never raise) on an empty run.  All ``*_rounds`` quantities are
    in scheduler rounds (the discrete clock), ``wall_seconds`` is host
    wall-clock — hardware-model time lives in
    :class:`~repro.serve.cosim.ServingCoSimReport`, not here.
    """

    #: One dict per retired request (arrival/admission/first-token/finish
    #: rounds, wait, latency, TTFT, token count, finish reason, deadline
    #: outcome, eviction count).
    requests: list = field(default_factory=list)
    #: One dict per rejected submission (structured
    #: :meth:`~repro.serve.request.Rejection.as_row` records), so
    #: engine-level admission can retry or degrade instead of losing the
    #: request silently.
    rejections: list = field(default_factory=list)
    total_rounds: int = 0
    #: Rounds in which the hardware did any work (prefill chunks count
    #: even when no token was sampled yet).
    busy_rounds: int = 0
    total_tokens: int = 0
    peak_concurrency: int = 0
    wall_seconds: float = 0.0
    #: Peak KV memory over the run, in slots (one slot = one position's
    #: kv vectors in one layer).  Dense mode counts allocated slab
    #: capacity; paged mode counts slots of blocks actually in use — the
    #: number the paged allocator exists to shrink.
    peak_kv_slots: int = 0
    # ---- paged-mode extras (zero when served dense) ----
    paged: bool = False
    block_size: int = 0
    peak_blocks: int = 0
    #: Mean over busy rounds of occupied slots / allocated block slots.
    #: Can exceed 1.0 when prefix sharing makes several sequences count
    #: the same physical block's slots.
    mean_block_utilization: float = 0.0
    prefix_lookups: int = 0
    prefix_hits: int = 0
    #: Prompt tokens presented to the prefix cache / covered by adopted
    #: KV, over all lookups — the token-weighted hit accounting
    #: (:attr:`prefix_token_hit_rate`), which unlike
    #: :attr:`prefix_hit_rate` credits a hit by how much prefill it
    #: actually skipped.
    prompt_tokens_seen: int = 0
    prefix_tokens_hit: int = 0
    #: Prompt tokens whose prefill was skipped via a prefix-cache hit.
    prefill_tokens_saved: int = 0
    cow_copies: int = 0
    # ---- preemption extras (defaults when preempt="off") ----
    #: The scheduler's preemption mode
    #: (``off``/``recompute``/``swap``/``model``).
    preempt: str = "off"
    #: Preemption events over the run (all modes).
    preemptions: int = 0
    #: Per-victim choices made under ``preempt="model"`` (zero
    #: otherwise): how often the cost model picked swap vs recompute.
    model_swaps: int = 0
    model_recomputes: int = 0
    swap_outs: int = 0
    swap_ins: int = 0
    #: Pool blocks paged out to / back from the modeled host pool.
    swap_out_blocks: int = 0
    swap_in_blocks: int = 0
    #: Peak KV slots (all layers) resident in the host pool — the memory
    #: the swap path displaces off the device.
    host_peak_kv_slots: int = 0
    # ---- speculative-decoding extras (defaults when no draft model) ----
    spec_decode: bool = False
    spec_k: int = 0
    #: Multi-token target verify passes executed.
    verify_passes: int = 0
    #: Draft tokens proposed / accepted over the run.
    spec_proposed: int = 0
    spec_accepted: int = 0
    #: Tokens credited to verify passes (accepted drafts plus the bonus
    #: token each continuing pass leaves pending) — the numerator of
    #: :attr:`tokens_per_target_pass`.
    spec_tokens: int = 0
    # ---- fork/join extras (defaults when no fork families) ----
    #: Branch forks performed (parallel-sampling spawns + beam splits).
    forks: int = 0
    #: Branches retired early through the join path (beam pruning).
    joins: int = 0
    #: Pool blocks branches adopted copy-on-write at fork instead of
    #: allocating fresh — the shared-prompt-blocks saving (paged mode).
    fork_shared_blocks: int = 0
    #: KV slots (per-layer convention) dense forks physically copied —
    #: exactly the traffic paged CoW sharing avoids.
    fork_copied_slots: int = 0

    @property
    def accept_rate(self):
        """Fraction of draft proposals the target accepted (0.0 when
        not speculating)."""
        return (
            self.spec_accepted / self.spec_proposed if self.spec_proposed else 0.0
        )

    @property
    def tokens_per_target_pass(self):
        """Mean tokens produced per multi-token verify pass — the
        speculative amortization (1.0 would match plain decode; 0.0 when
        not speculating)."""
        return self.spec_tokens / self.verify_passes if self.verify_passes else 0.0

    @property
    def prefix_hit_rate(self):
        """Fraction of lookups with *any* coverage (coarse: a one-block
        hit counts like a full hit — prefer
        :attr:`prefix_token_hit_rate`)."""
        return self.prefix_hits / self.prefix_lookups if self.prefix_lookups else 0.0

    @property
    def prefix_token_hit_rate(self):
        """Token-weighted prefix hit rate:
        ``prefix_tokens_hit / prompt_tokens_seen``."""
        return (
            self.prefix_tokens_hit / self.prompt_tokens_seen
            if self.prompt_tokens_seen
            else 0.0
        )

    @property
    def tokens_per_round(self):
        """Decode throughput in tokens per busy round (the batching win)."""
        return self.total_tokens / self.busy_rounds if self.busy_rounds else 0.0

    @property
    def tokens_per_second(self):
        return self.total_tokens / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_latency(self):
        """Mean rounds from arrival to completion."""
        if not self.requests:
            return 0.0
        return float(np.mean([row["latency_rounds"] for row in self.requests]))

    @property
    def mean_wait(self):
        """Mean rounds spent queued before admission."""
        if not self.requests:
            return 0.0
        return float(np.mean([row["wait_rounds"] for row in self.requests]))

    @property
    def mean_ttft(self):
        """Mean time-to-first-token in rounds (arrival to first sampled
        token); 0.0 on an empty run."""
        ttfts = [
            row["ttft_rounds"]
            for row in self.requests
            if row.get("ttft_rounds") is not None
        ]
        return float(np.mean(ttfts)) if ttfts else 0.0

    @property
    def p95_ttft(self):
        """95th-percentile TTFT in rounds (tail latency; 0.0 when empty)."""
        ttfts = [
            row["ttft_rounds"]
            for row in self.requests
            if row.get("ttft_rounds") is not None
        ]
        return float(np.percentile(ttfts, 95)) if ttfts else 0.0

    @property
    def deadline_misses(self):
        """Retired requests that finished after their deadline."""
        return sum(1 for row in self.requests if row.get("deadline_miss"))

    @property
    def deadline_miss_rate(self):
        """Misses over requests that carried a deadline (0.0 if none)."""
        with_deadline = sum(
            1 for row in self.requests if row.get("deadline") is not None
        )
        return self.deadline_misses / with_deadline if with_deadline else 0.0

    def summary(self):
        """Flat dict of the aggregate metrics (for experiment tables)."""
        summary = {
            "requests": len(self.requests),
            "rounds": self.total_rounds,
            "tokens": self.total_tokens,
            "tokens/round": self.tokens_per_round,
            "tokens/s": self.tokens_per_second,
            "mean_latency_rounds": self.mean_latency,
            "mean_wait_rounds": self.mean_wait,
            "mean_ttft_rounds": self.mean_ttft,
            "peak_batch": self.peak_concurrency,
            "peak_kv_slots": self.peak_kv_slots,
        }
        if any(row.get("deadline") is not None for row in self.requests):
            summary["deadline_miss_rate"] = self.deadline_miss_rate
        if self.rejections:
            summary["rejected"] = len(self.rejections)
        if self.spec_decode:
            summary["spec_k"] = self.spec_k
            summary["verify_passes"] = self.verify_passes
            summary["accept_rate"] = self.accept_rate
            summary["tokens/pass"] = self.tokens_per_target_pass
        if self.forks:
            summary["forks"] = self.forks
            if self.joins:
                summary["beam_pruned"] = self.joins
            if self.paged:
                summary["fork_shared_blocks"] = self.fork_shared_blocks
            else:
                summary["fork_copied_slots"] = self.fork_copied_slots
        if self.preempt != "off":
            summary["preempt"] = self.preempt
            summary["preemptions"] = self.preemptions
            if self.preempt == "model":
                summary["model_swaps"] = self.model_swaps
                summary["model_recomputes"] = self.model_recomputes
            if self.preempt in ("swap", "model"):
                summary["swap_out_blocks"] = self.swap_out_blocks
                summary["swap_in_blocks"] = self.swap_in_blocks
                summary["host_peak_kv"] = self.host_peak_kv_slots
        if self.paged:
            summary.update(
                {
                    "block_size": self.block_size,
                    "peak_blocks": self.peak_blocks,
                    "block_util": self.mean_block_utilization,
                    "prefix_hit_rate": self.prefix_hit_rate,
                    "token_hit_rate": self.prefix_token_hit_rate,
                    "prefill_saved": self.prefill_tokens_saved,
                    "cow_copies": self.cow_copies,
                }
            )
        return summary


@dataclass
class _ForkFamily:
    """Book-keeping for one multi-branch request (``n`` or ``beam_width``).

    The family's root sequence is ``branches[0]``; spawned branches are
    appended in creation order and keep ids ``<root_id>#<branch_index>``.
    Pruned/finished branches stay in ``branches`` (results are read from
    them); liveness is judged by their status.
    """

    #: The originally submitted multi-branch :class:`Request`.
    request: object
    #: ``"sample"`` (``n > 1``) or ``"beam"`` (``beam_width > 1``).
    mode: str
    #: Target branch count (``n`` or ``beam_width``).
    width: int
    #: Every :class:`SequenceState` ever in the family, creation order.
    branches: list = field(default_factory=list)
    #: Next branch index to assign (the root is branch 0).
    next_branch: int = 1
    #: Worst-case pool blocks of one branch (captured at root admission;
    #: scales the family's block-side reservation under one-way mode).
    branch_worst: int | None = None
    #: Sample mode: True once the root has spawned its ``n - 1``
    #: siblings (a one-shot event, unlike beam's rolling forks).
    spawned: bool = False


class Scheduler:
    """Continuous-batching serving loop over one model.

    Parameters
    ----------
    model:
        A :class:`repro.models.inference.CachedTransformer`.
    policy_factory:
        Zero-argument callable producing a fresh eviction-policy instance
        per admitted request (policies hold per-sequence vote state).
        Default: a :class:`VotingPolicy` sized to the model.
    max_batch_size:
        Admission cap on concurrently running sequences.
    budget:
        Default per-sequence KV budget (``None`` = no eviction); a
        request's own ``budget`` field overrides it.
    evictions_per_step:
        Per-layer per-step eviction cap, as in the engine.
    sampler:
        ``sampler(logits, rng) -> token`` (default greedy).
    paged:
        Store KV state in fixed-size blocks from a shared
        :class:`~repro.serve.paging.BlockPool` instead of dense
        per-sequence slabs.  Decoded tokens are bit-identical either way;
        paging changes only where the floats live (and how much memory a
        mixed batch pins).
    block_size:
        Cache slots per block (paged mode).
    num_blocks:
        Fixed pool capacity; admission then waits until the pool can
        cover a request's worst-case block demand (after asking the
        prefix cache to shed idle entries).  ``None`` (default) makes the
        pool growable, matching the dense path's unbounded admission.
    prefix_caching:
        Share full prompt-prefix blocks across requests (paged mode):
        a request whose prompt starts with an already-prefilled block
        chain adopts those blocks copy-on-write and skips their prefill
        compute.  Requires every admitted request's policy to carry the
        same ``prefix_state_key`` for state snapshots to be reused; a
        policy that cannot snapshot (``prefix_shareable = False``) simply
        never shares.
    prefix_cache_blocks:
        LRU capacity bound (in pool blocks) for the prefix cache;
        ``None`` keeps every registered block resident.  Bounding it is
        what keeps never-rehit unique-suffix blocks from pinning pool
        memory across the whole trace.
    prefix_ttl:
        Idle lifetime for prefix-trie entries, in lookup-clock ticks
        (the trie's second eviction axis next to the LRU bound);
        ``None`` (default) disables expiry.
    prefix_match_mode:
        ``"token"`` (default) allows partial mid-block tail hits for
        unbudgeted sequences; ``"block"`` restricts matching to full
        blocks — the pre-trie coverage, kept as an ablation baseline.
    prefill_chunk:
        Per-round prompt-token budget for prefill work, shared by
        continuing prefills (served first, admission order) and new
        admissions.  ``None`` (default) prefills whole prompts in one
        round, the legacy behavior; any positive value caps the prompt
        rows a round computes, interleaving long prompts with decode
        (Sarathi-style chunked prefill).  Generated tokens are
        bit-identical at every chunk budget.
    adaptive_chunk:
        Re-size the chunk budget every round from *predicted cycles*
        instead of holding it static (requires ``prefill_chunk`` and
        ``cost_model``).  The round's budget is the largest rung of a
        power-of-two ladder around ``prefill_chunk`` (``x/4`` up to
        ``4x``) whose predicted prefill cycles fit in the cycle budget
        left after the current decode batch — Sarathi's dynamic split,
        priced on the hardware model: shallow decode rounds take big
        chunks (fewer weight-fetch passes), deep rounds take small ones
        (bounded round latency).  On a fixed paged pool the rung is
        additionally capped to the blocks actually free, so an
        oversized chunk never forces preemptions a smaller one avoids.
        Tokens stay bit-identical (chunk-budget invariance).
    cost_model:
        A :class:`repro.accel.predictor.RoundCostPredictor` pricing the
        decisions above (and ``preempt="model"``).  Its model config
        sets the *cost shapes* — pass Llama-2 7B shapes to steer a
        tiny-model trace by datacenter-scale costs, exactly like the
        co-simulator's ``hw_model`` substitution.
    admission_policy:
        Object with a ``key(request, now) -> sortable`` method ordering
        *arrived* waiting requests for admission (lowest key first; ties
        broken by submission order).  ``None`` = FIFO by arrival.  See
        :mod:`repro.serve.engine` for FIFO/EDF/priority-aging policies.
    preempt:
        ``"off"`` (default): one-way scheduling — admission reserves
        worst case and an admitted sequence holds its slot and blocks to
        retirement.  ``"recompute"`` / ``"swap"``: two-way scheduling —
        admission turns optimistic (immediate prefill need only) and
        slot/pool pressure preempts the victim ranked lowest by
        (priority, latest deadline, fewest generated tokens).  A
        recompute victim is re-admitted by re-prefilling its prompt plus
        the tokens generated so far; a swap victim pages its KV blocks
        and eviction-state snapshot to a modeled host pool and resumes
        bit-exactly.  ``"model"``: two-way scheduling that picks
        recompute *or* swap per victim from predicted cost (requires
        ``cost_model``): the host-link round trip of the victim's
        resident KV vs re-prefilling its prompt plus generated tokens —
        short sequences recompute (transfer-dominated), long ones swap
        (compute grows superlinearly).  Budget-evicted victims always
        swap: only swap resumes a reshaped cache bit-exactly.  Whenever
        capacity suffices, no preemption fires and all settings produce
        bit-identical tokens, eviction logs, and traces.
    auto_fast_forward:
        Jump the round clock over idle gaps to the next queued arrival
        (default, right for a pre-submitted trace).  The serving engine
        disables this to own the clock: with streaming submission a
        request may still arrive *during* the gap.
    draft_model:
        Optional cheap :class:`~repro.models.inference.CachedTransformer`
        (same vocabulary as ``model``) enabling speculative decoding:
        each round it proposes up to ``spec_k`` tokens per running
        sequence, which the target verifies in one multi-token pass.
        Requires the greedy sampler (acceptance is exact argmax match);
        generated tokens and eviction logs stay bit-identical to
        ``draft_model=None``.
    spec_k:
        Draft tokens proposed per sequence per speculative round
        (clipped to the sequence's remaining token budget and to what
        its KV budget allows without mid-window eviction).
    """

    def __init__(
        self,
        model,
        policy_factory=None,
        max_batch_size=8,
        budget=None,
        evictions_per_step=None,
        sampler=greedy,
        paged=False,
        block_size=16,
        num_blocks=None,
        prefix_caching=True,
        prefix_cache_blocks=None,
        prefix_ttl=None,
        prefix_match_mode="token",
        prefill_chunk=None,
        adaptive_chunk=False,
        cost_model=None,
        admission_policy=None,
        auto_fast_forward=True,
        preempt="off",
        draft_model=None,
        spec_k=4,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if preempt not in PREEMPT_MODES:
            raise ValueError(
                f"preempt must be one of {PREEMPT_MODES}, got {preempt!r}"
            )
        if spec_k <= 0:
            raise ValueError(f"spec_k must be positive, got {spec_k}")
        if draft_model is not None:
            if sampler is not greedy:
                raise ValueError(
                    "speculative decoding requires the greedy sampler: "
                    "acceptance is exact-match against the target's argmax, "
                    "which is only deterministic under greedy sampling"
                )
            if draft_model.config.vocab_size != model.config.vocab_size:
                raise ValueError(
                    f"draft vocab {draft_model.config.vocab_size} != "
                    f"target vocab {model.config.vocab_size}: speculative "
                    "proposals must share the target's token space"
                )
        if budget is not None and budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        if evictions_per_step is not None and evictions_per_step <= 0:
            raise ValueError("evictions_per_step must be positive")
        if prefill_chunk is not None and prefill_chunk <= 0:
            raise ValueError(
                f"prefill_chunk must be positive, got {prefill_chunk}"
            )
        self.prefill_chunk = (
            None if prefill_chunk is None else int(prefill_chunk)
        )
        self.adaptive_chunk = bool(adaptive_chunk)
        self.cost_model = cost_model
        if self.adaptive_chunk:
            if self.prefill_chunk is None:
                raise ValueError(
                    "adaptive_chunk needs a prefill_chunk to anchor the "
                    "candidate ladder (it is the x1 rung)"
                )
            if cost_model is None:
                raise ValueError(
                    "adaptive_chunk needs a cost_model "
                    "(repro.accel.predictor.RoundCostPredictor) to price "
                    "candidate chunk budgets"
                )
        if preempt == "model" and cost_model is None:
            raise ValueError(
                "preempt='model' needs a cost_model "
                "(repro.accel.predictor.RoundCostPredictor) to price "
                "recompute vs swap per victim"
            )
        #: The chunk budget in force for the current round (equals
        #: ``prefill_chunk`` unless adaptive chunking re-sized it).
        self._round_chunk = self.prefill_chunk
        self.admission_policy = admission_policy
        self.auto_fast_forward = bool(auto_fast_forward)
        self.model = model
        self.policy_factory = policy_factory or (
            lambda: VotingPolicy(model.config.n_layers)
        )
        self.max_batch_size = int(max_batch_size)
        self.budget = budget
        self.evictions_per_step = evictions_per_step
        self.sampler = sampler
        self.preempt = preempt
        self.draft_model = draft_model
        self.spec_k = int(spec_k)

        self.paged = bool(paged)
        #: The one owner of every device resource a sequence can hold:
        #: batch slots, pool blocks, prefix-cache reservations, and the
        #: modeled host swap pool.
        self.manager = KVResourceManager(
            model.config,
            max_batch_size=self.max_batch_size,
            paged=self.paged,
            block_size=block_size,
            num_blocks=num_blocks,
            prefix_caching=prefix_caching,
            prefix_cache_blocks=prefix_cache_blocks,
            prefix_ttl=prefix_ttl,
            prefix_match_mode=prefix_match_mode,
            preempt=preempt,
            policy_factory=self.policy_factory,
        )

        self._waiting = []  # SequenceState, sorted by (arrival, submit order)
        self._running = []  # SequenceState, admission order
        self._finished = []
        self._families = {}  # family id (root request id) -> _ForkFamily
        self._rejected = []  # Rejection records, submission order
        self._submit_count = 0
        #: Throwaway policy instance backing :meth:`prefix_probe` (the
        #: probe only needs its ``prefix_state_key``); built lazily.
        self._probe_policy = None
        #: Per-round hardware trace (:class:`~repro.serve.trace.RoundTrace`
        #: per non-empty round), consumed by
        #: :class:`~repro.serve.cosim.ServingCoSimulator`.
        self.trace = []
        self.round_index = 0
        self._busy_rounds = 0
        self._total_tokens = 0
        self._peak_concurrency = 0
        self._prefill_tokens_saved = 0
        self._peak_kv_slots = 0
        self._utilization_sum = 0.0
        self._utilization_rounds = 0
        self._preemption_count = 0
        self._model_swaps = 0
        self._model_recomputes = 0
        self._verify_passes = 0
        self._spec_proposed = 0
        self._spec_accepted = 0
        self._spec_tokens = 0

    # ------------------------------------------------------------------
    # Resource views (owned by the manager)
    # ------------------------------------------------------------------
    @property
    def block_pool(self):
        return self.manager.block_pool

    @property
    def prefix_cache(self):
        return self.manager.prefix_cache

    @property
    def cache_bank(self):
        return self.manager.cache_bank

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, request, strict=True):
        """Queue a :class:`Request` for admission.

        The request becomes visible to the admission loop at its
        ``arrival_time``; the admission policy (default: FIFO by
        arrival) orders arrived requests.  Returns the request's live
        :class:`SequenceState` on acceptance.  An unservable request —
        a prompt token outside ``[0, vocab_size)`` (``invalid_token``),
        ``prompt + max_new_tokens`` beyond the model's ``max_seq_len``
        (``exceeds_max_seq_len``; either would otherwise fail *inside* a
        round and strand the rest of the batch), or a paged request
        whose worst-case block demand exceeds the whole fixed pool
        (``pool_too_small``; it could never be admitted and would stall
        the queue forever) — is recorded as a structured
        :class:`Rejection` in the report either way; with
        ``strict=False`` the rejection is *returned* instead of raised,
        so engine-level admission can retry with a smaller request or
        degrade gracefully.  A rejected id is not reserved: resubmission
        (e.g. after shrinking the request) is allowed.

        Raises
        ------
        TypeError
            If ``request`` is not a :class:`Request`.
        KeyError
            If the id collides with any live *or finished* request
            (results are keyed by request id, so ids are never reused
            within one scheduler).
        ValueError
            In strict mode (default), for an unservable request as
            described above.
        """
        if not isinstance(request, Request):
            raise TypeError(f"expected Request, got {type(request).__name__}")
        # Finished ids stay reserved too: results are keyed by request id
        # (``tokens_for``, report rows), so reuse would make them ambiguous.
        seen = {
            s.request_id
            for s in self._waiting + self._running + self._finished
        }
        if request.request_id in seen or request.request_id in self.cache_bank:
            raise KeyError(f"duplicate request id {request.request_id!r}")
        if request.num_branches > 1:
            if self.draft_model is not None:
                raise ValueError(
                    "fork families (n > 1 / beam_width > 1) are incompatible "
                    "with speculative decoding: a branch's provisional verify "
                    "window would be shared copy-on-write with its siblings, "
                    "so rollback could not stay per-branch exact"
                )
            if request.num_branches > self.max_batch_size:
                raise ValueError(
                    f"request {request.request_id!r} needs "
                    f"{request.num_branches} batch slots for its branches "
                    f"but max_batch_size is {self.max_batch_size}"
                )
        problem = unservable_reason(
            self.model.config,
            request.prompt,
            request.prompt.shape[0] + request.max_new_tokens,
        )
        if problem is not None:
            return self._reject(request, *problem, strict=strict)
        if self.paged and not self.block_pool.growable:
            budget = request.budget if request.budget is not None else self.budget
            # The worst case is also the request's *actual* peak demand
            # (prefill transient or budget steady state, plus the
            # prefix-registration CoW a budgeted shrink performs), so a
            # request beyond the whole pool is unservable in every
            # preempt mode.
            worst = self.manager.sequence_worst_blocks(
                request.prompt.shape[0], request.max_new_tokens, budget
            )
            # A fork family must eventually hold every branch resident at
            # once (branches are never half-admitted), so its unservable
            # threshold is the per-branch worst times the branch count —
            # conservative for paged mode, where branches actually share
            # their prompt blocks, but a family beyond it could deadlock
            # a one-way pool.
            worst *= request.num_branches
            if worst > self.block_pool.num_blocks:
                return self._reject(
                    request,
                    "pool_too_small",
                    f"needs up to {worst} blocks but the pool only "
                    f"has {self.block_pool.num_blocks}",
                    strict=strict,
                    needed_blocks=worst,
                    pool_blocks=self.block_pool.num_blocks,
                )
        state = SequenceState(request=request, submit_index=self._submit_count)
        self._submit_count += 1
        if request.num_branches > 1:
            state.family = request.request_id
            self._families[request.request_id] = _ForkFamily(
                request=request,
                mode="sample" if request.n > 1 else "beam",
                width=request.num_branches,
                branches=[state],
            )
        self._waiting.append(state)
        self._waiting.sort(
            key=lambda s: (s.request.arrival_time, s.submit_index)
        )
        return state

    def _reject(self, request, reason, detail, strict, **blocks):
        """Record a structured :class:`Rejection` of ``request``; raise it
        as ``ValueError`` in strict mode, else return it."""
        rejection = Rejection(
            request_id=request.request_id,
            reason=reason,
            detail=detail,
            round_index=self.round_index,
            **blocks,
        )
        self._rejected.append(rejection)
        if strict:
            raise ValueError(f"request {request.request_id!r} {detail}")
        return rejection

    @property
    def num_waiting(self):
        return len(self._waiting)

    @property
    def num_running(self):
        return len(self._running)

    @property
    def done(self):
        return not self._waiting and not self._running

    # ------------------------------------------------------------------
    # Router introspection (read-only views for fleet placement)
    # ------------------------------------------------------------------
    @property
    def outstanding_tokens(self):
        """Tokens of work still owed to live requests: unprefilled
        prompt rows plus ungenerated decode tokens, summed over the
        waiting queue and the running batch.  The fleet router's
        least-loaded placement signal; read-only."""
        total = 0
        for state in self._waiting + self._running:
            request = state.request
            prompt_rows = (
                state.prompt_tokens.shape[0]
                if state.prompt_tokens is not None
                else request.prompt.shape[0]
            )
            total += max(0, int(prompt_rows) - state.prefilled)
            total += max(0, request.max_new_tokens - state.num_generated)
        return total

    @property
    def free_kv_capacity(self):
        """Free KV capacity for the router's tie-breaks: free pool
        blocks when paged, free batch slots when dense."""
        if self.paged:
            return self.block_pool.num_free
        return self.manager.slots_free

    def prefix_probe(self, request):
        """Longest cached prefix (in tokens) this scheduler's radix trie
        would adopt for ``request``'s prompt — the fleet router's
        prefix-affinity signal.

        A pure read: unlike the admission-time match it touches no LRU
        clocks and no hit counters, so probing every replica before a
        placement decision cannot perturb any replica's cache behavior.
        Returns 0 when prefix sharing cannot apply (dense mode, prefix
        caching off, or a non-shareable eviction policy)."""
        if self.prefix_cache is None:
            return 0
        policy = self._probe_policy
        if policy is None:
            policy = self._probe_policy = self.policy_factory()
        if not policy.prefix_shareable:
            return 0
        budget = request.budget if request.budget is not None else self.budget
        return self.prefix_cache.probe(
            np.asarray(request.prompt),
            policy.prefix_state_key(),
            budgeted=budget is not None,
        )

    # ------------------------------------------------------------------
    # Scheduling loop
    # ------------------------------------------------------------------
    def run(self, max_rounds=None):
        """Serve until every submitted request has retired.

        Returns a :class:`ServingReport` aggregating throughput, latency
        and memory statistics over the whole run; per-request tokens
        stay retrievable through :meth:`tokens_for` and the per-round
        hardware trace through :attr:`trace`.  ``max_rounds`` bounds the
        scheduler iterations executed by *this call* (``None`` = drain
        completely) — the horizon valve overload experiments use to show
        one-way scheduling stalling where two-way scheduling retires.
        """
        if max_rounds is not None and max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        start = time.perf_counter()
        executed = 0
        while not self.done:
            if max_rounds is not None and executed >= max_rounds:
                break
            self.run_round()
            executed += 1
        wall = time.perf_counter() - start
        return self._report(wall)

    def run_round(self):
        """One scheduler iteration: continue prefills, admit, sample,
        batched decode.

        Each round appends a :class:`~repro.serve.trace.RoundTrace` to
        :attr:`trace` recording the hardware work performed (prefill row
        counts, per-sequence decode attention lengths), which the
        serving co-simulator prices after the fact.  With
        ``prefill_chunk`` set, in-flight chunked prefills consume the
        round's prompt-token budget before new admissions do.
        """
        # Fast-forward through idle time: nothing running and the next
        # arrival is still in the future.
        if self.auto_fast_forward and not self._running and self._waiting:
            next_arrival = self._waiting[0].request.arrival_time
            if next_arrival > self.round_index:
                self.round_index = next_arrival

        # The round's chunk budget must be fixed before headroom is
        # secured: _round_block_demand sizes this round's prefill claims
        # from it.
        self._round_chunk = (
            self._adaptive_chunk_budget()
            if self.adaptive_chunk
            else self.prefill_chunk
        )
        record = RoundTrace(round_index=self.round_index)
        self._ensure_headroom(record)
        chunk_budget = self._continue_prefills(record, self._round_chunk)
        self._admit(record, chunk_budget)
        self._peak_concurrency = max(self._peak_concurrency, len(self._running))
        self._sample_kv_usage()

        sampled = self._sample(record)
        beam_ready = None
        if self._families:
            beam_tokens, beam_ready = self._advance_beams(record)
            sampled += beam_tokens
            beam_ready = {id(s) for s in beam_ready}
        active = [
            s
            for s in self._running
            if s.status == RUNNING
            and (beam_ready is None or not self._is_beam(s) or id(s) in beam_ready)
        ]
        if active and self.draft_model is not None:
            plain = []
            for state in active:
                k_eff = self._can_speculate(state)
                if k_eff:
                    sampled += self._spec_decode(state, k_eff, record)
                else:
                    plain.append(state)
            if plain:
                self._decode(plain, record)
        elif active:
            self._decode(active, record)
        self._total_tokens += sampled
        if (
            record.prefills
            or record.decodes
            or record.dead_steps
            or record.verifies
            or record.swaps
            or record.forks
        ):
            # Busy = the hardware did work, whether or not a token came
            # out: a chunked-prefill-only round costs compute too, and
            # tokens_per_round must reflect it.  (Unchunked runs are
            # unchanged: every round with work also samples.)
            self._busy_rounds += 1
            self.trace.append(record)
        self._retire()
        self.round_index += 1

    # ------------------------------------------------------------------
    # Round stages
    # ------------------------------------------------------------------
    def _adaptive_chunk_budget(self):
        """Size this round's chunk budget from predicted cycles.

        The candidate ladder spans power-of-two rungs around the
        configured ``prefill_chunk`` (``x/4`` … ``4x`` — a small fixed
        set keeps the predictor's prefill cache hot).  The round's cycle
        budget is the predicted cost of a max-rung prefill alone; the
        chosen rung is the largest whose predicted prefill pass fits the
        budget left after the current decode batch's predicted cycles,
        so the chunk shrinks monotonically as the decode batch deepens
        (Sarathi's dynamic split, decided in modeled cycles).  On a
        fixed paged pool under two-way scheduling, rungs whose block
        demand exceeds the blocks currently free are also skipped — a
        bigger chunk that only fits by preempting someone costs more
        than it saves.  The smallest rung is always available, so
        prefill progress is never starved.
        """
        base = self.prefill_chunk
        ladder = sorted({max(1, base // 4), max(1, base // 2), base, 2 * base, 4 * base})
        cost = self.cost_model
        cycle_budget = cost.prefill_cycles(ladder[-1])
        decode_lengths = [
            state.cache[0].length + 1
            for state in self._running
            if state.status == RUNNING and state.cache is not None
        ]
        decode_cycles = cost.decode_round_cycles(decode_lengths)
        block_cap = None
        if (
            self.paged
            and not self.block_pool.growable
            and self.manager.preemptible
        ):
            block_cap = self.block_pool.num_free
        chunk = ladder[0]
        for candidate in ladder[1:]:
            if cost.prefill_cycles(candidate) + decode_cycles > cycle_budget:
                break
            if (
                block_cap is not None
                and self.manager.blocks_for_rows(candidate) > block_cap
            ):
                break
            chunk = candidate
        return chunk

    def _continue_prefills(self, record, chunk_budget):
        """Advance in-flight chunked prefills (admission order) by up to
        ``chunk_budget`` prompt tokens total; returns the budget left
        for new admissions."""
        for state in self._running:
            if state.status != PREFILLING:
                continue
            if chunk_budget is not None and chunk_budget <= 0:
                break
            request = state.request
            budget = (
                request.budget if request.budget is not None else self.budget
            )
            chunk_budget = self._prefill_state(
                state, budget, chunk_budget, record
            )
        return chunk_budget

    def _next_admission(self):
        """The arrived waiting request the admission policy ranks first
        (``None`` when nothing has arrived yet)."""
        arrived = [
            s
            for s in self._waiting
            if s.request.arrival_time <= self.round_index
        ]
        if not arrived:
            return None
        if self.admission_policy is None:
            # _waiting is kept sorted by (arrival, submit order): FIFO.
            return arrived[0]
        now = self.round_index
        return min(
            arrived,
            key=lambda s: (
                self.admission_policy.key(s.request, now),
                s.submit_index,
            ),
        )

    def _admit(self, record, chunk_budget):
        """Admit arrived requests into free batch slots (prefill them).

        In paged mode, admission additionally *reserves blocks, not
        slabs*: under one-way scheduling (``preempt="off"``) a fixed
        pool must cover the request's worst-case block demand
        (prefix-cache entries are shed first), otherwise the request —
        and everyone ranked behind it — keeps waiting until retirements
        free blocks.  Under two-way scheduling only the immediate
        prefill need is required, and an arrived request that strictly
        outranks a running victim (under the admission policy) may
        preempt it to take its slot or blocks.  A ``SWAPPED`` sequence
        re-admits by paging its saved blocks back in; a ``PREEMPTED``
        one re-prefills its prompt plus generated tokens.  With
        ``prefill_chunk`` set, each (re-)prefilling admission also needs
        prompt-token budget left this round.
        """
        while True:
            if chunk_budget is not None and chunk_budget <= 0:
                break
            state = self._next_admission()
            if state is None:
                break
            if not self._make_room(state, chunk_budget, record):
                break
            self._waiting.remove(state)

            if state.status == SWAPPED:
                image = self.manager.swap_in(state)
                state.swapped_in_slots += image.kv_slots
                record.swaps.append(
                    SwapEvent(
                        state.request_id,
                        SWAP_IN,
                        kv_slots=image.kv_slots,
                        blocks=image.blocks_in,
                    )
                )
                self._running.append(state)
                if state.family is not None:
                    self._sync_family(self._families[state.family])
                continue  # no prefill rows: chunk budget untouched

            request = state.request
            resumed = state.status == PREEMPTED
            budget = request.budget if request.budget is not None else self.budget
            state.prompt_tokens = self._effective_prompt(state)
            capacity = sequence_capacity(
                state.prompt_tokens.shape[0],
                request.max_new_tokens - state.num_generated,
                budget,
            )
            state.reserved_blocks = self.manager.sequence_worst_blocks(
                state.prompt_tokens.shape[0],
                request.max_new_tokens - state.num_generated,
                budget,
            )

            state.policy = self.policy_factory()
            state.policy.reset()
            if not resumed:
                # A recompute resume keeps its RNG: tokens already
                # sampled never consume the stream twice.
                state.rng = np.random.default_rng(request.seed)
            state.cache = self.manager.admit(
                request.request_id, capacity, state.reserved_blocks
            )
            state.status = PREFILLING
            if state.admitted_at is None:
                state.admitted_at = self.round_index
            if state.family is not None:
                family = self._families[state.family]
                if family.branch_worst is None:
                    family.branch_worst = state.reserved_blocks
                self._sync_family(family)

            if self.paged:
                self._attach_prefix(state)
            chunk_budget = self._prefill_state(
                state, budget, chunk_budget, record
            )
            self._running.append(state)

    def _effective_prompt(self, state):
        """The tokens this admission must prefill: the request prompt,
        extended with the already-generated tokens for a recompute
        resume (their KV entries are rebuilt by prefilling them — exact
        when no eviction budget reshaped the cache)."""
        prompt = state.request.prompt
        if not state.tokens:
            return prompt
        generated = np.asarray(state.tokens, dtype=prompt.dtype)
        return np.concatenate([prompt, generated])

    # ------------------------------------------------------------------
    # Two-way scheduling (preemption)
    # ------------------------------------------------------------------
    def _make_room(self, state, chunk_budget, record):
        """Secure a batch slot and the block demand for admitting (or
        resuming) ``state``; under two-way scheduling this may preempt
        running victims the candidate strictly outranks.  Returns False
        when the candidate must keep waiting."""
        manager = self.manager
        # A candidate admitted (or resumed) this round takes its first
        # decode step in the same round — a full provisional verify
        # window when speculating, a single append otherwise.
        step_tokens = 1 if self.draft_model is None else self.spec_k + 1
        if state.status == SWAPPED:
            worst = own_need = manager.swap_resume_demand(
                state.request_id, step_tokens
            )
        else:
            request = state.request
            budget = request.budget if request.budget is not None else self.budget
            prompt_length = request.prompt.shape[0] + state.num_generated
            worst = manager.sequence_worst_blocks(
                prompt_length,
                request.max_new_tokens - state.num_generated,
                budget,
            )
            rows_now = (
                prompt_length
                if chunk_budget is None
                else min(chunk_budget, prompt_length)
            )
            own_need = manager.blocks_for_rows(rows_now)
            if self.paged:
                n_layers = self.model.config.n_layers
                block_size = self.block_pool.block_size
                if budget is not None and self.prefix_cache is not None:
                    # The shrink-to-budget eviction CoWs the *full*
                    # blocks this prefill registers in the prefix cache.
                    own_need += (rows_now // block_size) * n_layers
                elif budget is None:
                    # No eviction will free slack: count the fresh tail
                    # blocks the same-round first step crosses into.
                    fresh = -(-(rows_now + step_tokens) // block_size) - (
                        -(-rows_now // block_size)
                    )
                    own_need += fresh * n_layers
        slots = 1
        if state.family is not None:
            worst = self._family_admission_worst(state, worst)
            slots = self._family_slots_needed(state)

        def immediate():
            # Optimistic admission must not eat the blocks the resident
            # batch still needs this round (its decode appends and CoW)
            # — otherwise a mid-round allocation would fail where
            # round-start headroom had been assured.  Recomputed per
            # check: preempting a victim below removes its share of the
            # round demand along with its blocks.
            if manager.preemptible and self.paged:
                return own_need + self._round_block_demand()
            return own_need

        while not manager.can_admit(worst, immediate(), slots=slots):
            if not manager.preemptible:
                return False
            victim = self._select_victim()
            if victim is None or not self._outranks(state, victim):
                return False
            self._preempt(victim, record)
        return True

    def _victim_rank(self, state):
        """Preemption order: lowest priority first, then latest deadline
        (no deadline = the most slack), then fewest generated tokens
        (least progress lost), then most recent submission."""
        request = state.request
        deadline_rank = (
            -request.deadline if request.deadline is not None else float("-inf")
        )
        return (
            request.priority,
            deadline_rank,
            state.num_generated,
            -state.submit_index,
        )

    def _select_victim(self):
        """The running sequence two-way scheduling would evict next."""
        candidates = [
            s for s in self._running if s.status in (RUNNING, PREFILLING)
        ]
        if not candidates:
            return None
        return min(candidates, key=self._victim_rank)

    def _admission_key(self, request):
        if self.admission_policy is None:
            return (request.arrival_time,)
        return self.admission_policy.key(request, self.round_index)

    def _outranks(self, candidate, victim):
        """Whether ``candidate`` strictly outranks ``victim`` under the
        admission policy — the gate on admission-pressure preemption
        (deadline pressure under EDF, priority pressure under
        priority-with-aging; under FIFO only an older arrival — e.g. a
        previously preempted sequence — outranks).  Strictness prevents
        two equally-ranked requests from trading the same slot forever.
        """
        return self._admission_key(candidate.request) < self._admission_key(
            victim.request
        )

    def _choose_preempt_mode(self, state):
        """Pick recompute or swap for this victim from predicted cost.

        A budget-evicted victim always swaps: recompute re-derives
        eviction state from a fresh prefill of the extended prompt,
        which is deterministic but not bit-identical to the
        uninterrupted schedule — only swap is exact there.  Otherwise
        the cheaper of the modeled host-link round trip (page the
        resident KV out now, back in at resume) and the modeled
        re-prefill of the prompt plus every generated token wins; ties
        go to swap (no recomputed logits to re-derive).
        """
        request = state.request
        budget = request.budget if request.budget is not None else self.budget
        if budget is not None:
            return "swap"
        cost = self.cost_model
        kv_slots = max((layer.length for layer in state.cache), default=0)
        swap_cycles = cost.preempt_swap_cycles(kv_slots)
        rows = request.prompt.shape[0] + state.num_generated
        recompute_cycles = cost.preempt_recompute_cycles(rows)
        return "swap" if swap_cycles <= recompute_cycles else "recompute"

    def _preempt(self, state, record):
        """Evict ``state`` from the batch back into the waiting queue.

        ``preempt="swap"`` pages its cache and eviction state to the
        host pool (resume is bit-exact); ``"recompute"`` drops
        everything and re-derives it from a re-prefill at re-admission;
        ``"model"`` picks whichever the cost model predicts cheaper for
        *this* victim.  Either way the freed slot and blocks are
        immediately available.
        """
        state.preemptions += 1
        self._preemption_count += 1
        self._running.remove(state)
        mode = self.preempt
        if mode == "model":
            mode = self._choose_preempt_mode(state)
            if mode == "swap":
                self._model_swaps += 1
            else:
                self._model_recomputes += 1
        if mode == "swap":
            image = self.manager.swap_out(state)
            state.status = SWAPPED
            state.swapped_out_slots += image.kv_slots
            record.swaps.append(
                SwapEvent(
                    state.request_id,
                    SWAP_OUT,
                    kv_slots=image.kv_slots,
                    blocks=image.blocks_out,
                )
            )
        else:
            self.manager.release(state.request_id)
            state.status = PREEMPTED
            state.cache = None
            state.policy = None
            state.logits = None
            state.position = 0
            state.prefilled = 0
            state.prompt_tokens = None
            state.prefix_node = None
            state.prefix_hit_length = 0
            state.prefix_tainted = False
            # Recompute drops *all* derived state, the (host-resident)
            # draft cache included; a swap victim keeps its draft cache —
            # its contents are committed tokens, still valid at resume.
            state.draft_cache = None
        self._waiting.append(state)
        self._waiting.sort(
            key=lambda s: (s.request.arrival_time, s.submit_index)
        )
        if state.family is not None:
            # Losing residency may drop the family's standing reservation
            # (re-secured wholesale at the next branch's re-admission).
            self._sync_family(self._families[state.family])

    def _ensure_headroom(self, record):
        """Guarantee this round's block demand before any compute runs.

        Optimistic admission means the pool can run dry mid-run; rather
        than unwinding a partially-executed model call, the worst-case
        demand of every resident sequence's next step (fresh tail
        blocks, copy-on-write of adopted blocks) is secured up front,
        preempting victims until it fits.  A single sequence always
        fits: its round demand is bounded by its worst case, which
        admission verified against the whole pool.
        """
        manager = self.manager
        if (
            not manager.preemptible
            or not self.paged
            or self.block_pool.growable
        ):
            return
        while True:
            demand = self._round_block_demand()
            if demand == 0 or manager.has_blocks(demand):
                return
            candidates = [
                s for s in self._running if s.status in (RUNNING, PREFILLING)
            ]
            if len(candidates) <= 1:
                # A lone sequence always fits: its true round demand is
                # bounded by its worst case, which submission verified
                # against the whole pool (the demand estimate above is
                # deliberately conservative — never thrash on it).
                return
            self._preempt(min(candidates, key=self._victim_rank), record)

    def _round_block_demand(self):
        """Upper bound on pool blocks this round's prefill chunks and
        decode steps may claim for the sequences already resident."""
        manager = self.manager
        chunk_budget = self._round_chunk
        demand = 0
        for state in self._running:
            budgeted = (
                state.request.budget is not None or self.budget is not None
            )
            if state.status == PREFILLING:
                remaining = state.prompt_tokens.shape[0] - state.prefilled
                rows = (
                    remaining
                    if chunk_budget is None
                    else min(chunk_budget, remaining)
                )
                if chunk_budget is not None:
                    chunk_budget = max(0, chunk_budget - rows)
                demand += manager.prefill_block_demand(
                    state.cache, rows, budgeted, final=rows >= remaining
                )
            elif state.status == RUNNING:
                # A speculative round appends up to spec_k + 1 provisional
                # tokens before any rollback; cover the worst case even
                # for sequences that may fall back to a one-token step.
                tokens = 1 if self.draft_model is None else self.spec_k + 1
                demand += manager.decode_block_demand(
                    state.cache, budgeted, tokens=tokens
                )
        # A beam family about to advance may fork up to width - 1
        # branches mid-round (after headroom was secured), each taking
        # an append step of its own; bound their demand by the widest
        # live branch's step demand.
        for family in self._families.values():
            if family.mode != "beam":
                continue
            live = self._family_live(family)
            if not live or any(s.status != RUNNING for s in live):
                continue
            budgeted = (
                family.request.budget is not None or self.budget is not None
            )
            per_step = max(
                manager.decode_block_demand(s.cache, budgeted) for s in live
            )
            demand += (family.width - 1) * per_step
        return demand

    def _prefill_state(self, state, budget, chunk_budget, record):
        """Prefill the next chunk (or the whole remainder) of ``state``'s
        effective prompt (the request prompt, plus generated tokens on a
        recompute resume), record the trace event, and complete the
        prefill when the last token lands.  Returns the chunk budget
        left."""
        request = state.request
        total = state.prompt_tokens.shape[0]
        start = state.prefilled
        end = total if chunk_budget is None else min(total, start + chunk_budget)
        logits = self._prefill_compute(state, start, end)
        state.prefilled = end
        if chunk_budget is not None:
            chunk_budget -= end - start
        record.prefills.append(
            PrefillEvent(
                request_id=request.request_id,
                prompt_length=int(total),
                computed_tokens=int(end - start),
                prefix_length=int(start),
                budgeted=budget is not None,
                final=end == total,
            )
        )
        if end == total:
            enforce_budget(
                state.policy,
                state.cache,
                budget,
                step=0,
                log=state.evictions,
                evictions_per_step=self.evictions_per_step,
            )
            state.cache_lengths.append(state.cache[0].length)
            state.logits = logits
            state.position = total
            state.status = RUNNING
            if (
                state.family is not None
                and state.request.n > 1
                and not state.forked
            ):
                self._fork_family(state, record)
        return chunk_budget

    def _prefill_compute(self, state, start, end):
        """Run the model over prompt rows ``[start, end)`` against the
        populated cache; dispatches dense vs paged."""
        if self.paged:
            return self._prefill_paged_range(state, start, end)
        if start == 0 and end == state.prompt_tokens.shape[0]:
            return self._prefill_dense(state)
        return self._prefill_dense_range(state, start, end)

    def _prefill_dense(self, state):
        """The seed path: one-shot prefill, one observe_block per layer."""
        prompt = state.prompt_tokens
        prefill = self.model.prefill(prompt, state.cache)
        positions = np.arange(prompt.shape[0])
        for layer, attn in enumerate(prefill.attention):
            state.policy.observe_block(layer, attn, positions, PREFILL)
        return prefill.logits

    def _prefill_dense_range(self, state, start, end):
        """Dense chunked prefill: rows ``[start, end)`` over the cache
        populated by earlier chunks.  The model's row-count-invariant
        continuation plus the policy's chunk-invariant
        ``observe_continuation`` make the resulting logits and policy
        state bitwise equal to the one-shot path at any chunking."""
        prompt = state.prompt_tokens
        prefill = self.model.prefill(
            prompt[start:end], state.cache, start_position=start
        )
        positions = np.arange(end)
        for layer, attn in enumerate(prefill.attention):
            state.policy.observe_continuation(layer, attn, positions, PREFILL)
        return prefill.logits

    def _attach_prefix(self, state):
        """Adopt the longest cached prefix of the prompt (paged
        admission, before the first prefill chunk): a radix-trie lookup
        returns full-block coverage plus — for unbudgeted sequences — a
        partial mid-block tail.  The matched blocks attach copy-on-write,
        the deepest pure policy snapshot within the coverage is imported,
        and the trie node is remembered so later chunks keep registering
        blocks from it.

        Budgeted sequences stop at the deepest snapshot-bearing node
        (the shrink-to-budget eviction consults the votes, which must be
        bit-exact).  An unbudgeted sequence may outrun its snapshot —
        rows adopted without their vote contributions taint the policy
        state, which is harmless for its own tokens (the votes are never
        consulted without a budget) but makes its later boundary exports
        impure, so they are registered without snapshots."""
        policy = state.policy
        if self.prefix_cache is None or not policy.prefix_shareable:
            return
        request = state.request
        budget = request.budget if request.budget is not None else self.budget
        prompt = state.prompt_tokens
        n_layers = self.model.config.n_layers
        hit = self.prefix_cache.match(
            prompt, policy.prefix_state_key(), budgeted=budget is not None
        )
        state.prefix_node = hit.parent
        if not hit.shared_length:
            return
        nodes = list(hit.nodes)
        if hit.tail_node is not None:
            nodes.append(hit.tail_node)
        state.cache.attach_prefix(
            [
                [node.layer_block_ids[layer] for node in nodes]
                for layer in range(n_layers)
            ],
            hit.shared_length,
        )
        if hit.policy_length:
            for layer in range(n_layers):
                policy.import_prefill_state(
                    layer, hit.policy_state[layer], hit.policy_length
                )
        state.prefix_tainted = hit.tainted
        assert not (state.prefix_tainted and budget is not None)
        state.prefix_hit_length = hit.shared_length
        state.prefilled = hit.shared_length
        self._prefill_tokens_saved += hit.shared_length

    def _prefill_paged_range(self, state, start, end):
        """Paged prefill of prompt rows ``[start, end)`` with prefix
        registration (the prefix-cache *match* happened at admission in
        :meth:`_attach_prefix`; ``start`` already covers adopted blocks
        and earlier chunks).

        1. Run the model over the range only — the continuation attends
           to the resident keys/values, and prefill's row-count-invariant
           matmuls make the result bitwise equal to a cold prefill.
        2. Feed the new attention rows to the policy in block-sized
           chunks, snapshotting state at every block boundary and
           registering the freshly written full blocks in the prefix
           trie (before eviction can mutate them); the parent node is
           carried in ``state.prefix_node`` across chunks.  A tainted
           sequence (partial/unsnapshotted adoption) registers its
           blocks without snapshots — their KV is still pure, its vote
           state is not.  Registration covers *prompt* rows only, so
           provisional speculative tokens never enter the trie.
        """
        prompt = state.prompt_tokens
        policy = state.policy
        cache = state.cache
        n_layers = self.model.config.n_layers
        block_size = self.block_pool.block_size
        shareable = self.prefix_cache is not None and policy.prefix_shareable

        prefill = self.model.prefill(
            prompt[start:end], cache, start_position=start
        )

        # Chunked observation: rows [row_start, chunk_end) at a time, so
        # the policy's slot state at every block boundary is a pure
        # function of the tokens before it and can be snapshotted.
        positions = np.arange(prompt.shape[0])
        row_start = start
        while row_start < end:
            chunk_end = min((row_start // block_size + 1) * block_size, end)
            for layer, attn in enumerate(prefill.attention):
                rows = attn[:, row_start - start : chunk_end - start, :chunk_end]
                policy.observe_continuation(
                    layer, rows, positions[:chunk_end], PREFILL
                )
            if shareable and chunk_end % block_size == 0:
                block_index = chunk_end // block_size - 1
                state.prefix_node = self.prefix_cache.insert(
                    state.prefix_node,
                    prompt[chunk_end - block_size : chunk_end],
                    [
                        cache[layer].block_ids[block_index]
                        for layer in range(n_layers)
                    ],
                    None
                    if state.prefix_tainted
                    else [
                        policy.export_prefill_state(layer, chunk_end)
                        for layer in range(n_layers)
                    ],
                    self.block_pool,
                )
            row_start = chunk_end
        return prefill.logits

    def _sample(self, record):
        """Sample one token per running sequence; retire EOS/full ones.

        Mirrors the engine's per-step prologue: sample, append, stop on
        EOS or on reaching ``max_new_tokens`` (in which case no further
        decode step is spent on the sequence — the engine's dead step is
        recorded in the trace as such, never executed).
        """
        sampled = 0
        for state in self._running:
            if state.status != RUNNING:
                continue  # chunked prefill still in flight: no logits yet
            if self._is_beam(state):
                continue  # beam branches take tokens from the joint advance
            request = state.request
            token = self.sampler(state.logits, state.rng)
            state.tokens.append(token)
            if state.first_token_round is None:
                state.first_token_round = self.round_index
            sampled += 1
            if request.eos is not None and token == request.eos:
                self._finish(state, "eos")
            elif state.num_generated >= request.max_new_tokens:
                budget = (
                    request.budget if request.budget is not None else self.budget
                )
                record.dead_steps.append(
                    DecodeEvent(
                        request_id=request.request_id,
                        attention_length=int(state.cache[0].length + 1),
                        budgeted=budget is not None,
                        dead=True,
                    )
                )
                self._finish(state, "length")
        return sampled

    def _decode(self, active, record):
        """One batched decode step for every still-active sequence."""
        tokens = [s.tokens[-1] for s in active]
        positions = [s.position for s in active]
        caches = [s.cache for s in active]
        budgets = [
            s.request.budget if s.request.budget is not None else self.budget
            for s in active
        ]
        for state, budget in zip(active, budgets):
            # The step appends then attends, so attention runs against
            # the pre-step length plus the new token (append-then-evict).
            record.decodes.append(
                DecodeEvent(
                    request_id=state.request_id,
                    attention_length=int(state.cache[0].length + 1),
                    budgeted=budget is not None,
                )
            )
        result = self.model.step_batch(tokens, positions, caches)

        for b, (state, budget) in enumerate(zip(active, budgets)):
            observe_and_evict(
                state.policy,
                state.cache,
                [rows[b] for rows in result.attention],
                budget,
                step=state.num_generated,
                log=state.evictions,
                evictions_per_step=self.evictions_per_step,
            )
            state.cache_lengths.append(state.cache[0].length)
            state.logits = result.logits[b]
            state.position += 1

    # ------------------------------------------------------------------
    # Fork/join (parallel sampling and beam search)
    # ------------------------------------------------------------------
    def _is_beam(self, state):
        """Whether ``state`` belongs to a beam-search family (its tokens
        come from the joint per-round advance, never from ``_sample``)."""
        if state.family is None:
            return False
        return self._families[state.family].mode == "beam"

    def _family_live(self, family):
        """The family's unfinished branches, creation order."""
        return [s for s in family.branches if s.status != FINISHED]

    def _family_unspawned(self, family):
        """Branches the family may still fork (the reservation target).

        Sample mode spawns exactly once, so after the spawn the answer
        is 0 regardless of later branch deaths; beam mode refills its
        width whenever a branch finishes, so every missing live branch
        is a potential future fork."""
        if family.mode == "sample" and family.spawned:
            return 0
        return max(0, family.width - len(self._family_live(family)))

    def _sync_family(self, family):
        """Reconcile the manager's slot/block reservations with the
        family's state: while any branch is resident the family holds
        its unspawned branches' slots (and, one-way, their worst-case
        blocks); with no resident branch the claim drops — the next
        re-admission re-secures the whole family via
        :meth:`_family_admission_worst` / :meth:`_family_slots_needed`.
        """
        live = self._family_live(family)
        resident = any(s.status in (PREFILLING, RUNNING) for s in live)
        extra = self._family_unspawned(family) if resident else 0
        family_id = family.request.request_id
        self.manager.reserve_slots(family_id, extra)
        blocks = extra * (family.branch_worst or 0)
        self.manager.reserve_blocks(family_id, blocks)

    def _family_slots_needed(self, state):
        """Batch slots ``state``'s admission must find free: one for
        itself, plus — when no family branch is resident, so nothing
        holds the family's reservation — one per branch the family may
        still fork."""
        family = self._families[state.family]
        live = self._family_live(family)
        if any(s.status in (PREFILLING, RUNNING) for s in live):
            return 1
        return 1 + self._family_unspawned(family)

    def _family_admission_worst(self, state, worst):
        """One-way block demand for admitting ``state``: its own worst
        case, plus the unspawned branches' share when this admission
        (re-)arms the family reservation."""
        family = self._families[state.family]
        live = self._family_live(family)
        if any(s.status in (PREFILLING, RUNNING) for s in live):
            return worst
        per_branch = family.branch_worst if family.branch_worst is not None else worst
        return worst + self._family_unspawned(family) * per_branch

    def _fork_family(self, state, record):
        """Spawn a parallel-sampling family's ``n - 1`` sibling branches
        off the freshly prefilled root (one-shot).

        Each branch adopts the root's KV state (CoW blocks when paged, a
        slab copy when dense), a deep copy of its eviction-policy state,
        and a *fresh* RNG seeded ``seed + branch_index`` — the root's own
        RNG, seeded ``seed`` and still unconsumed at this point, makes
        branch 0 the root itself, so branch ``i`` is bit-identical to an
        independent request with seed ``seed + i``."""
        family = self._families[state.family]
        for _ in range(family.width - 1):
            self._fork_branch(state, family, record)
        state.forked = True
        family.spawned = True
        self._sync_family(family)

    def _fork_branch(self, parent, family, record):
        """Fork one branch off ``parent``: duplicate its scheduler-side
        state, let the resource manager duplicate its device state (this
        consumes one reserved family slot), and record the
        :class:`~repro.serve.trace.ForkEvent`.  Returns the branch."""
        root = family.request
        branch_index = family.next_branch
        family.next_branch += 1
        child_id = f"{root.request_id}#{branch_index}"
        child_request = replace(
            root,
            request_id=child_id,
            seed=root.seed + branch_index,
            n=1,
            beam_width=1,
        )
        child = SequenceState(
            request=child_request,
            policy=copy.deepcopy(parent.policy),
            rng=np.random.default_rng(child_request.seed),
            status=RUNNING,
            logits=parent.logits,
            position=parent.position,
            tokens=list(parent.tokens),
            cache_lengths=list(parent.cache_lengths),
            evictions=list(parent.evictions),
            admitted_at=parent.admitted_at,
            first_token_round=parent.first_token_round,
            prefilled=parent.prefilled,
            prompt_tokens=parent.prompt_tokens,
            submit_index=self._submit_count,
            reserved_blocks=parent.reserved_blocks,
            prefix_node=parent.prefix_node,
            prefix_hit_length=parent.prefix_hit_length,
            prefix_tainted=parent.prefix_tainted,
            family=parent.family,
            branch_index=branch_index,
            cum_logprob=parent.cum_logprob,
        )
        self._submit_count += 1
        child.cache = self.manager.fork(
            parent.request_id,
            child_id,
            reserved_blocks=parent.reserved_blocks,
            family=root.request_id,
        )
        family.branches.append(child)
        self._running.append(child)
        kv_slots = max((layer.length for layer in child.cache), default=0)
        record.forks.append(
            ForkEvent(
                request_id=parent.request_id,
                child_id=child_id,
                kv_slots=int(kv_slots),
                blocks=child.cache.num_blocks if self.paged else 0,
                copied_slots=0 if self.paged else int(kv_slots),
            )
        )
        return child

    def _prune(self, state):
        """Beam pruning: retire a losing branch through the join path,
        releasing its cache tail back to the pool immediately."""
        self.manager.join(state.request_id)
        state.finish(self.round_index, "beam_pruned")
        self._sync_family(self._families[state.family])

    def _advance_beams(self, record):
        """Jointly advance every beam family that has all live branches
        holding fresh logits this round; returns ``(tokens appended,
        states whose appended token still needs a decode step)``.

        A family with any branch mid-prefill, preempted, or swapped
        stalls wholesale — beam selection is a joint decision over every
        branch's logits, so advancing a subset would change the search.
        """
        sampled = 0
        ready = []
        for family in self._families.values():
            if family.mode != "beam":
                continue
            live = self._family_live(family)
            if not live:
                continue
            if any(s.status != RUNNING or s.logits is None for s in live):
                continue
            sampled += self._advance_one_beam(family, live, record, ready)
        return sampled, ready

    def _advance_one_beam(self, family, live, record, ready):
        """One beam round: score every (branch, token) successor, keep
        the global top ``width`` by cumulative log-probability, prune
        branches left with no successor, and fork branches keeping
        several.  Ties break deterministically by (score, branch
        creation order, token id).  Pruning runs before forking so a
        fixed pool can fund the forks with the pruned branches' slots
        and blocks.  Returns the number of tokens appended.

        Scoring ranks candidates by their *length-normalized* cumulative
        log-probability ``raw / len ** alpha`` (GNMT length penalty,
        ``alpha = Request.length_penalty``); the branch keeps
        accumulating the raw sum, so normalization is purely a rank-time
        transform and ``alpha = 0`` is bit-identical to raw scoring."""
        width = family.width
        alpha = family.request.length_penalty
        candidates = []
        for order, state in enumerate(live):
            logits = state.logits
            peak = logits.max()
            logprobs = logits - (peak + np.log(np.exp(logits - peak).sum()))
            vocab = logprobs.shape[0]
            top = np.lexsort((np.arange(vocab), -logprobs))[: min(width, vocab)]
            length = state.num_generated + 1
            for token in top:
                raw = float(state.cum_logprob + logprobs[token])
                rank = raw if alpha == 0 else raw / length**alpha
                candidates.append((rank, raw, order, int(token)))
        candidates.sort(key=lambda c: (-c[0], c[2], c[3]))
        by_branch = {}
        for _, raw, order, token in candidates[:width]:
            by_branch.setdefault(order, []).append((raw, token))
        for order, state in enumerate(live):
            if order not in by_branch:
                self._prune(state)
        appended = 0
        for order, state in enumerate(live):
            successors = by_branch.get(order)
            if not successors:
                continue
            # Fork before appending: children must adopt the cache state
            # *without* this round's token, which they replace with their
            # own successor.
            children = [
                self._fork_branch(state, family, record)
                for _ in successors[1:]
            ]
            appended += self._append_beam_token(state, successors[0], record)
            for child, successor in zip(children, successors[1:]):
                appended += self._append_beam_token(child, successor, record)
            if state.status == RUNNING:
                ready.append(state)
            ready.extend(c for c in children if c.status == RUNNING)
        self._sync_family(family)
        self._peak_concurrency = max(self._peak_concurrency, len(self._running))
        return appended

    def _append_beam_token(self, state, successor, record):
        """Commit one beam successor ``(cumulative score, token)`` onto
        ``state``, mirroring ``_sample``'s finish handling (EOS retires
        the branch; the length cap records the engine-compat dead step).
        Returns 1 (the token appended)."""
        score, token = successor
        request = state.request
        state.tokens.append(int(token))
        state.cum_logprob = score
        if state.first_token_round is None:
            state.first_token_round = self.round_index
        if request.eos is not None and token == request.eos:
            self._finish(state, "eos")
        elif state.num_generated >= request.max_new_tokens:
            budget = (
                request.budget if request.budget is not None else self.budget
            )
            record.dead_steps.append(
                DecodeEvent(
                    request_id=request.request_id,
                    attention_length=int(state.cache[0].length + 1),
                    budgeted=budget is not None,
                    dead=True,
                )
            )
            self._finish(state, "length")
        return 1

    # ------------------------------------------------------------------
    # Speculative decoding (draft-propose / target-verify)
    # ------------------------------------------------------------------
    def _can_speculate(self, state):
        """Window size for ``state`` this round, or 0 to fall back to the
        plain decode step.

        Speculation is skipped (never *wrong*, just unprofitable or
        unsafe) when: the remaining token budget clips the window to
        nothing; the sequence's KV eviction budget could fire *inside*
        the verify window (the window must see zero evictions for the
        eviction schedule to stay bit-identical, so speculation requires
        ``prior + k + 1 <= budget``); or either model's RoPE table /
        cache capacity cannot cover the provisional window.
        """
        request = state.request
        k_eff = min(self.spec_k, request.max_new_tokens - state.num_generated)
        if k_eff < 1:
            return 0
        budget = request.budget if request.budget is not None else self.budget
        prior = state.cache[0].length
        if budget is not None and prior + k_eff + 1 > budget:
            return 0
        if prior + k_eff + 1 > state.cache[0].capacity:
            return 0
        if state.position + k_eff >= self.model.config.max_seq_len:
            return 0
        context_length = request.prompt.shape[0] + state.num_generated
        if context_length + k_eff > self.draft_model.config.max_seq_len:
            return 0
        return k_eff

    def _draft_propose(self, state, k_eff):
        """Run the draft model ahead of the target by ``k_eff`` tokens.

        The draft keeps its own (host-resident, unbudgeted) KV cache on
        the sequence state.  Each round it first catches up on the
        tokens committed since it last ran — usually just the token the
        sampling pass appended this round — as a continuation prefill,
        then decodes ``k_eff - 1`` more tokens greedily.  Returns the
        proposals plus the work quantities the trace needs for pricing.
        """
        draft = self.draft_model
        request = state.request
        context = np.concatenate(
            [
                np.asarray(request.prompt, dtype=np.int64),
                np.asarray(state.tokens, dtype=np.int64),
            ]
        )
        if state.draft_cache is None:
            capacity = min(
                context.shape[0]
                + (request.max_new_tokens - state.num_generated)
                + self.spec_k,
                draft.config.max_seq_len,
            )
            state.draft_cache = draft.new_cache(capacity)
        draft_cache = state.draft_cache
        prior = int(draft_cache[0].length)
        rows = context[prior:]
        result = draft.prefill(rows, draft_cache, start_position=prior)
        proposals = [int(np.argmax(result.logits))]
        decode_lengths = []
        position = context.shape[0]
        for _ in range(k_eff - 1):
            step = draft.step(proposals[-1], position, draft_cache)
            decode_lengths.append(int(draft_cache[0].length))
            proposals.append(int(np.argmax(step.logits)))
            position += 1
        return proposals, int(rows.shape[0]), prior, tuple(decode_lengths)

    def _spec_decode(self, state, k_eff, record):
        """One speculative round for ``state``: propose, verify, accept
        the longest exact-match prefix, roll back the rest.

        The verify pass feeds the pending token plus the ``k_eff``
        proposals through :meth:`CachedTransformer.verify`, whose row
        ``i`` logits (and attention rows) are bitwise identical to the
        sequential decode of the same tokens.  Row ``m`` is therefore
        bookkept exactly as :meth:`_decode` would have — scalar policy
        observe over the row's causal width, budget enforcement,
        cache-length log — and ``self.sampler(logits[m])`` *is* the
        token the non-speculative scheduler would sample next; a
        proposal mismatch just means rows past ``m`` are garbage.  On
        mismatch the correction token is deliberately **not** appended:
        the pending logits are set to row ``m`` and the next round's
        sampling pass re-derives the identical token (greedy is
        deterministic), preserving the invariant that the last appended
        token has always been stepped.  Returns the number of extra
        (accepted) tokens appended this round.
        """
        request = state.request
        budget = request.budget if request.budget is not None else self.budget
        proposals, draft_rows, draft_prior, draft_lengths = self._draft_propose(
            state, k_eff
        )
        prior = int(state.cache[0].length)
        inputs = np.concatenate(
            [[state.tokens[-1]], np.asarray(proposals, dtype=np.int64)]
        )
        result = self.model.verify(
            inputs, state.cache, start_position=state.position
        )

        def bookkeep(row):
            # Identical per-step epilogue to _decode: the verify pass
            # appended all rows up front, so the cache views are sliced
            # back to the width this row's sequential step would have
            # seen (row attention already has exactly that width).
            width = prior + row + 1
            observe_and_evict(
                state.policy,
                state.cache,
                [rows[row] for rows in result.attention],
                budget,
                step=state.num_generated,
                log=state.evictions,
                evictions_per_step=self.evictions_per_step,
                width=width,
            )
            state.cache_lengths.append(width)

        accepted = 0
        finished = False
        pending = None
        for m in range(k_eff):
            bookkeep(m)
            true_token = self.sampler(result.logits[m], state.rng)
            if true_token != proposals[m]:
                pending = m
                break
            state.tokens.append(true_token)
            accepted += 1
            if request.eos is not None and true_token == request.eos:
                self._finish(state, "eos")
                finished = True
                break
            if state.num_generated >= request.max_new_tokens:
                # No dead-step record here: the verify pass already
                # computed (and the co-simulator prices) the rows past
                # the final token — a separate dead step would
                # double-charge that work (see trace module docstring).
                self._finish(state, "length")
                finished = True
                break
        else:
            # Every proposal accepted: the bonus row — the step of the
            # last appended token — is valid too; its logits become the
            # pending logits the next round samples from.
            bookkeep(k_eff)
            pending = k_eff

        if not finished:
            state.cache.truncate(prior + pending + 1)
            state.logits = result.logits[pending]
            state.position += pending + 1
            committed = request.prompt.shape[0] + state.num_generated
            if state.draft_cache[0].length > committed:
                state.draft_cache.truncate(committed)

        tokens_credit = accepted + (0 if finished else 1)
        record.verifies.append(
            VerifyEvent(
                request_id=request.request_id,
                rows=k_eff + 1,
                prior=prior,
                proposed=k_eff,
                accepted=accepted,
                tokens=tokens_credit,
                budgeted=budget is not None,
                draft_prefill_rows=draft_rows,
                draft_prefill_prior=draft_prior,
                draft_decode_lengths=draft_lengths,
            )
        )
        state.spec_rounds += 1
        state.spec_proposed += k_eff
        state.spec_accepted += accepted
        self._verify_passes += 1
        self._spec_proposed += k_eff
        self._spec_accepted += accepted
        self._spec_tokens += tokens_credit
        return accepted

    def _sample_kv_usage(self):
        """Track peak KV memory (and, paged, block utilization).

        Dense slabs pin ``capacity`` slots per layer for a sequence's
        whole lifetime; paged mode pins only the blocks in use, so the
        pool's own high-water mark (updated at every allocation, i.e.
        including the transient prefill peak before eviction shrinks a
        sequence to budget) is the honest comparison point.
        """
        if self.paged:
            pool = self.block_pool
            self._peak_kv_slots = pool.peak_in_use * pool.block_size
            if pool.num_used:
                self._utilization_sum += self.cache_bank.total_entries / (
                    pool.num_used * pool.block_size
                )
                self._utilization_rounds += 1
        else:
            allocated = sum(
                state.cache[0].capacity * self.model.config.n_layers
                for state in self._running
            )
            self._peak_kv_slots = max(self._peak_kv_slots, allocated)

    def _finish(self, state, reason):
        self.manager.retire(state.request_id)
        state.finish(self.round_index, reason)
        if state.family is not None:
            # A finished beam branch frees a width slot the next advance
            # re-forks into; a fully finished family drops every claim.
            self._sync_family(self._families[state.family])

    def release_prefix_cache(self):
        """Drop every prefix-cache entry, returning its blocks to the
        pool (end-of-trace teardown; afterwards an idle fixed pool is
        fully free again)."""
        self.manager.clear_prefix_cache()

    def _retire(self):
        finished = [s for s in self._running if s.status == FINISHED]
        if finished:
            self._finished.extend(finished)
            self._running = [s for s in self._running if s.status != FINISHED]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def results(self):
        """Retired :class:`SequenceState` objects in completion order."""
        return list(self._finished)

    def tokens_for(self, request_id):
        """Generated tokens of a retired request."""
        for state in self._finished:
            if state.request_id == request_id:
                return list(state.tokens)
        raise KeyError(f"request {request_id!r} has not finished")

    def samples_for(self, request_id):
        """The generated token lists of every branch of a fork family,
        in branch order — for ``Request(n=k)`` the ``k`` independent
        continuations; branch ``i`` carries effective seed
        ``seed + i``."""
        family = self._families.get(request_id)
        if family is None:
            raise KeyError(f"request {request_id!r} is not a fork family")
        branches = sorted(family.branches, key=lambda s: s.branch_index)
        return [list(s.tokens) for s in branches]

    def beam_result_for(self, request_id):
        """``(tokens, cum_logprob)`` of the best completed hypothesis of
        a ``Request(beam_width=k)`` family (pruned branches excluded);
        ties break toward the earliest-created branch.

        With ``Request.length_penalty = alpha > 0`` hypotheses compete
        on ``cum_logprob / len(tokens) ** alpha``; the returned score is
        always the raw cumulative log-probability of the winner."""
        family = self._families.get(request_id)
        if family is None or family.mode != "beam":
            raise KeyError(f"request {request_id!r} is not a beam request")
        done = [
            s
            for s in family.branches
            if s.status == FINISHED and s.finish_reason != "beam_pruned"
        ]
        if not done:
            raise KeyError(
                f"beam request {request_id!r} has no finished hypothesis yet"
            )
        alpha = family.request.length_penalty

        def normalized(state):
            if alpha == 0 or not state.tokens:
                return state.cum_logprob
            return state.cum_logprob / len(state.tokens) ** alpha

        best = max(done, key=lambda s: (normalized(s), -s.branch_index))
        return list(best.tokens), best.cum_logprob

    def report(self, wall_seconds=0.0):
        """Snapshot :class:`ServingReport` over the requests retired (and
        rejected) so far.  :meth:`run` calls this once at drain; the
        serving engine calls it at any point of a streaming run."""
        return self._report(wall_seconds)

    def _report(self, wall_seconds):
        rows = [
            {
                "request_id": s.request_id,
                "arrival": s.request.arrival_time,
                "admitted": s.admitted_at,
                "first_token": s.first_token_round,
                "finished": s.finished_at,
                "wait_rounds": s.admitted_at - s.request.arrival_time,
                "ttft_rounds": s.ttft_rounds,
                "inter_token_rounds": s.inter_token_rounds,
                "latency_rounds": s.finished_at - s.request.arrival_time,
                "deadline": s.request.deadline,
                "priority": s.request.priority,
                "deadline_miss": s.deadline_missed,
                "tokens": s.num_generated,
                "finish_reason": s.finish_reason,
                "evictions": len(s.evictions),
                "preemptions": s.preemptions,
            }
            for s in self._finished
        ]
        if self.draft_model is not None:
            for row, s in zip(rows, self._finished):
                row["spec_rounds"] = s.spec_rounds
                row["spec_proposed"] = s.spec_proposed
                row["spec_accepted"] = s.spec_accepted
                row["accept_rate"] = (
                    s.spec_accepted / s.spec_proposed if s.spec_proposed else 0.0
                )
        if self._families:
            for row, s in zip(rows, self._finished):
                row["family"] = s.family
                row["branch"] = s.branch_index
                if self._is_beam(s):
                    row["cum_logprob"] = s.cum_logprob
        manager = self.manager
        report = ServingReport(
            requests=rows,
            rejections=[r.as_row() for r in self._rejected],
            total_rounds=self.round_index,
            busy_rounds=self._busy_rounds,
            total_tokens=self._total_tokens,
            peak_concurrency=self._peak_concurrency,
            wall_seconds=wall_seconds,
            peak_kv_slots=self._peak_kv_slots,
            preempt=self.preempt,
            preemptions=self._preemption_count,
            model_swaps=self._model_swaps,
            model_recomputes=self._model_recomputes,
            swap_outs=manager.swap_outs,
            swap_ins=manager.swap_ins,
            swap_out_blocks=manager.swap_out_blocks,
            swap_in_blocks=manager.swap_in_blocks,
            host_peak_kv_slots=manager.host_peak_kv_slots,
            spec_decode=self.draft_model is not None,
            spec_k=self.spec_k if self.draft_model is not None else 0,
            verify_passes=self._verify_passes,
            spec_proposed=self._spec_proposed,
            spec_accepted=self._spec_accepted,
            spec_tokens=self._spec_tokens,
            forks=manager.forks,
            joins=manager.joins,
            fork_shared_blocks=manager.fork_shared_blocks,
            fork_copied_slots=manager.fork_copied_slots,
        )
        if self.paged:
            report.paged = True
            report.block_size = self.block_pool.block_size
            report.peak_blocks = self.block_pool.peak_in_use
            report.cow_copies = self.block_pool.cow_copies
            if self._utilization_rounds:
                report.mean_block_utilization = (
                    self._utilization_sum / self._utilization_rounds
                )
            if self.prefix_cache is not None:
                report.prefix_lookups = self.prefix_cache.lookups
                report.prefix_hits = self.prefix_cache.hits
                report.prompt_tokens_seen = self.prefix_cache.tokens_seen
                report.prefix_tokens_hit = self.prefix_cache.tokens_hit
            report.prefill_tokens_saved = self._prefill_tokens_saved
        return report

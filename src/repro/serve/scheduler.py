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
fixed-size blocks from a shared :class:`~repro.serve.paging.BlockPool`.
The scheduler itself never branches on the layout: the
:class:`~repro.serve.resources.KVResourceManager` answers every block and
pool question (demand, capacity, fork footprint, KV usage), and every
prompt range — a whole prompt or, with ``prefill_chunk=N``, one
Sarathi-style chunk interleaved with decode rounds — is one call into
:class:`~repro.serve.prefill.PrefixPrefill`, which runs the prefix-trie
protocol (copy-on-write attach, snapshot import, block registration) and
keeps tokens bit-identical dense vs paged and at any chunk budget.  The
scheduler keeps the round's chunk-budget accounting.

Admission order is an :class:`~repro.serve.request.AdmissionPolicy`
(``admission``, a policy or its name): FIFO by arrival by default, or
EDF, cycle-priced least laxity and priority-with-aging keyed on
``Request.deadline`` / ``Request.priority``.  Every admission attempt
ranks the arrived requests by the policy's key (ties by submission
order), computes the leader's demand once — its worst-case blocks and
its admission-round blocks — and both the room check and the admission
itself use those figures.  Unsatisfiable paged requests become
structured :class:`~repro.serve.request.Rejection` records (surfaced in
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

Decoding is one path.  Every running sequence adds a *window* to the
round's one :meth:`CachedTransformer.step_batch`: its pending token plus
zero or more draft proposals, its cache repeated once per row.  A plain,
sampled or beam row is a zero-proposal window.  After the forward, one
commit step per sequence bookkeeps each row as a sequential step (policy
observe, budget enforcement, cache-length log — the same
``observe_and_evict`` epilogue the solo engine runs), and every generated
token, whether sampled, chosen by a beam advance or accepted from a
window, is appended through one method that also retires the sequence on
EOS or at ``max_new_tokens``.

Speculative decoding (``draft_model=...``) only changes how many
proposals a window carries: a cheap draft model proposes ``spec_k``
tokens, and the longest prefix whose greedy argmax matches them is
accepted — each window row's logits are bitwise identical to sequential
decode, so with the (required) greedy sampler acceptance is exact and
the generated tokens, eviction logs, and cache-length traces are
bit-identical to the non-speculative scheduler.  Rejected provisional KV
entries are rolled back with ``cache.truncate`` (paged mode returns the
freed tail blocks to the pool immediately, and provisional tokens never
enter the prefix cache — registration only ever covers full *prompt*
blocks).  A sequence whose eviction budget could fire inside the window
(``cache length + k + 1 > budget``) opens a zero-proposal window that
round instead, keeping the eviction schedule exact; EOS/length caps
landing mid-window clip the window.  The draft model's KV cache is
modeled host-resident: it consumes no pool blocks, survives a swap, and
is dropped with the rest of the device state on a recompute preemption.

Fork families (``Request(n=)`` parallel sampling, ``Request(beam_width=)``
beam search) decode through the same windows.  Their records and
decisions — branch namespace, claims, spawns, beam steps, results — are
:class:`~repro.serve.families.ForkFamilies`; the scheduler applies the
effects (forking a branch, committing its tokens, finishing it).

Every round is also recorded in :attr:`Scheduler.trace` (prefill row
counts; one decode window per running sequence — its rows, its first
row's attention length and, when it speculated, its proposals, outcome
and draft work; swaps; forks), which
:class:`~repro.serve.cosim.ServingCoSimulator` prices on the accelerator
cycle model after the run.  The trace is the
one record of those events: :meth:`Scheduler.report` reads its verify,
swap and fork counts from it too, so the scheduler keeps no second tally
(only the token total and the running peaks are tracked per round).

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
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import (
    enforce_budget,
    observe_and_evict,
    sequence_capacity,
    unservable_reason,
)
from repro.core.sampling import greedy
from repro.core.policies.voting import VotingPolicy
from repro.serve.families import ForkFamilies
from repro.serve.prefill import PrefixPrefill, effective_prompt
from repro.serve.request import (
    FINISHED,
    PREFILLING,
    RUNNING,
    SWAPPED,
    Rejection,
    Request,
    SequenceState,
    make_admission,
    transition,
)
from repro.serve.resources import KVResourceManager
from repro.serve.trace import (
    SWAP_IN,
    SWAP_OUT,
    DecodeEvent,
    ForkEvent,
    PrefillEvent,
    RoundTrace,
    SwapEvent,
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
    #: even when no token was sampled yet) — the round trace's length.
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
    #: actually skipped.  ``prefix_tokens_hit`` is exactly the prompt
    #: prefill the hits saved (``summary()["prefill_saved"]``).
    prompt_tokens_seen: int = 0
    prefix_tokens_hit: int = 0
    cow_copies: int = 0
    # ---- preemption extras (defaults when preempt="off") ----
    #: The scheduler's preemption mode
    #: (``off``/``recompute``/``swap``/``model``).
    preempt: str = "off"
    #: Preemption events over the run (all modes): the sum of every
    #: sequence's ``preemptions``.
    preemptions: int = 0
    #: Per-victim choices made under ``preempt="model"`` (zero
    #: otherwise): how often the cost model picked swap vs recompute.
    #: Every swap-out of a ``"model"`` run is such a choice, so these
    #: are the swap-outs and the remaining preemptions.
    model_swaps: int = 0
    model_recomputes: int = 0
    #: Swap transfers and the pool blocks they paged out to / back from
    #: the modeled host pool — the trace's ``SwapEvent`` rows.
    swap_outs: int = 0
    swap_ins: int = 0
    swap_out_blocks: int = 0
    swap_in_blocks: int = 0
    #: Peak KV slots (all layers) resident in the host pool — the memory
    #: the swap path displaces off the device.
    host_peak_kv_slots: int = 0
    # ---- speculative-decoding extras (defaults when no draft model) ----
    spec_decode: bool = False
    spec_k: int = 0
    #: Multi-token target verify passes executed (the trace's decode
    #: windows with proposals; the ``spec_*`` counters sum their fields).
    verify_passes: int = 0
    #: Draft tokens proposed / accepted over the run.
    spec_proposed: int = 0
    spec_accepted: int = 0
    #: Tokens credited to verify passes (accepted drafts plus the bonus
    #: token each continuing pass leaves pending) — the numerator of
    #: :attr:`tokens_per_target_pass`.
    spec_tokens: int = 0
    # ---- fork/join extras (defaults when no fork families) ----
    #: Branch forks performed (parallel-sampling spawns + beam splits):
    #: the trace's ``ForkEvent`` rows, whose fields the two
    #: ``fork_*`` counters below sum.
    forks: int = 0
    #: Branches retired early by beam pruning
    #: (``finish_reason == "beam_pruned"``).
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
                    "prefill_saved": self.prefix_tokens_hit,
                    "cow_copies": self.cow_copies,
                }
            )
        return summary


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
        A :class:`repro.accel.simulator.AcceleratorSimulator` pricing the
        decisions above (and ``preempt="model"``).  Its model config
        sets the *cost shapes* — pass Llama-2 7B shapes to steer a
        tiny-model trace by datacenter-scale costs, exactly like the
        co-simulator's ``hw_model`` substitution.
    admission:
        An :class:`~repro.serve.request.AdmissionPolicy` — an object
        with a ``key(request, now) -> sortable`` method ordering
        *arrived* waiting requests for admission (lowest key first; ties
        broken by submission order) — or the name of one
        (``"fifo"``/``"edf"``/``"edf_cycles"``/``"priority"``, see
        :func:`~repro.serve.request.make_admission`).  Default
        ``"fifo"``: by arrival round.
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
        sampler=greedy,
        paged=False,
        block_size=16,
        num_blocks=None,
        prefix_caching=True,
        prefix_cache_blocks=None,
        prefix_match_mode="token",
        prefill_chunk=None,
        adaptive_chunk=False,
        cost_model=None,
        admission="fifo",
        preempt="off",
        draft_model=None,
        spec_k=4,
    ):
        # max_batch_size and preempt are validated by KVResourceManager.
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
                    "(repro.accel.simulator.AcceleratorSimulator) to price "
                    "candidate chunk budgets"
                )
        if preempt == "model" and cost_model is None:
            raise ValueError(
                "preempt='model' needs a cost_model "
                "(repro.accel.simulator.AcceleratorSimulator) to price "
                "recompute vs swap per victim"
            )
        #: The chunk budget in force for the current round (equals
        #: ``prefill_chunk`` unless adaptive chunking re-sized it).
        self._round_chunk = self.prefill_chunk
        self.admission = (
            make_admission(admission) if isinstance(admission, str) else admission
        )
        self.model = model
        self.policy_factory = policy_factory or (
            lambda: VotingPolicy(model.config.n_layers)
        )
        self.max_batch_size = int(max_batch_size)
        self.sampler = sampler
        self.preempt = preempt
        self.draft_model = draft_model
        self.spec_k = int(spec_k)
        #: Rows a running sequence may append in one round: a plain
        #: decode step, or a full provisional verify window (the pending
        #: token plus ``spec_k`` proposals) when speculating.
        self._step_rows = 1 if draft_model is None else self.spec_k + 1

        #: The one owner of every device resource a sequence can hold:
        #: batch slots, pool blocks, prefix-cache reservations, and the
        #: modeled host swap pool.
        manager = self.manager = KVResourceManager(
            model.config,
            max_batch_size=self.max_batch_size,
            paged=paged,
            block_size=block_size,
            num_blocks=num_blocks,
            prefix_caching=prefix_caching,
            prefix_cache_blocks=prefix_cache_blocks,
            prefix_match_mode=prefix_match_mode,
            preempt=preempt,
            policy_factory=self.policy_factory,
        )

        #: Every prompt range's prefill, through the prefix trie.
        self.prefiller = PrefixPrefill(
            model, manager.prefix_cache, manager.block_pool, self.policy_factory
        )
        self.families = ForkFamilies()
        self._waiting = []  # SequenceState, sorted by (arrival, submit order)
        self._running = []  # SequenceState, admission order
        self._finished = []
        #: Every accepted id (submissions and forked branches) -> its
        #: state, in submission order: ids are never reused within one
        #: scheduler, and a state's ``submit_index`` is its position here.
        self._states = {}
        self._rejected = []  # Rejection records, submission order
        #: Per-round hardware trace (:class:`~repro.serve.trace.RoundTrace`
        #: per non-empty round), consumed by
        #: :class:`~repro.serve.cosim.ServingCoSimulator`.
        self.trace = []
        self.round_index = 0
        # Beam branches inherit their parent's tokens, so the run's token
        # total is counted as tokens commit (_commit_token), not summed
        # over states.
        self._total_tokens = 0
        self._peak_concurrency = 0

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
            within one scheduler), or with a fork family's branch
            namespace: ``<family id>#<int>`` ids belong to the family's
            branches (minted at fork time), so neither such an id nor a
            family whose namespace already holds a submitted id is
            accepted.
        ValueError
            In strict mode (default), for an unservable request as
            described above.
        """
        if not isinstance(request, Request):
            raise TypeError(f"expected Request, got {type(request).__name__}")
        # Finished ids stay reserved too: results are keyed by request id
        # (``tokens_for``, report rows), so reuse would make them ambiguous.
        if request.request_id in self._states or self.families.clashes(request):
            raise KeyError(f"duplicate request id {request.request_id!r}")
        self.families.check(request, self.max_batch_size, self.draft_model is not None)
        problem = unservable_reason(
            self.model.config,
            request.prompt,
            request.prompt.shape[0] + request.max_new_tokens,
        )
        if problem is not None:
            return self._reject(request, *problem, strict=strict)
        shortfall = self.manager.pool_shortfall(
            request.prompt.shape[0], request.max_new_tokens,
            request.budget, request.num_branches,
        )
        if shortfall is not None:
            worst, pool_blocks = shortfall
            return self._reject(
                request,
                "pool_too_small",
                f"needs up to {worst} blocks but the pool only "
                f"has {pool_blocks}",
                strict=strict,
                needed_blocks=worst,
                pool_blocks=pool_blocks,
            )
        state = SequenceState(
            request=request,
            submit_index=len(self._states),
            rng=np.random.default_rng(request.seed),
        )
        self._states[request.request_id] = state
        self.families.note(request.request_id)
        if request.num_branches > 1:
            state.family = request.request_id
            worst = self.manager.sequence_worst_blocks(
                request.prompt.shape[0], request.max_new_tokens, request.budget
            )
            self.families.open(state, worst)
        self._enqueue(state)
        return state

    def _enqueue(self, state):
        """Put ``state`` in the waiting queue, kept sorted by (arrival,
        submission order)."""
        self._waiting.append(state)
        self._waiting.sort(
            key=lambda s: (s.request.arrival_time, s.submit_index)
        )

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
        waiting queue and the running batch.  A sequence not yet
        admitted — or recompute-preempted, which re-prefills its
        generated tokens too — owes ``prompt + generated`` rows.  The
        fleet router's least-loaded placement signal; read-only."""
        total = 0
        for state in self._waiting + self._running:
            request = state.request
            prompt_rows = (
                state.prompt_tokens.shape[0]
                if state.prompt_tokens is not None
                else request.prompt.shape[0] + state.num_generated
            )
            total += max(0, int(prompt_rows) - state.prefilled)
            total += max(0, request.max_new_tokens - state.num_generated)
        return total

    @property
    def free_kv_capacity(self):
        """Free KV capacity for the router's tie-breaks: free pool
        blocks when paged, free batch slots when dense (less the slots
        resident fork families hold for their unforked branches)."""
        return self.manager.free_kv_capacity(self.families.claims(self._running)[0])

    def prefix_probe(self, request):
        """Longest cached prefix (in tokens) this scheduler's radix trie
        would adopt for ``request``'s prompt — the fleet router's
        prefix-affinity signal.

        A pure read: unlike the admission-time match it touches no LRU
        clocks and no hit counters, so probing every replica before a
        placement decision cannot perturb any replica's cache behavior.
        Returns 0 when prefix sharing cannot apply (dense mode, prefix
        caching off, or a non-shareable eviction policy)."""
        return self.prefiller.probe(request)

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

        Idle gaps are skipped: with nothing running and the next queued
        arrival still in the future, the clock jumps to that arrival
        before the round runs (right for a pre-submitted trace; the
        serving engine steps :meth:`run_round` itself and owns the clock,
        since a streamed request may still arrive during the gap).
        """
        if max_rounds is not None and max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        start = time.perf_counter()
        executed = 0
        while not self.done:
            if max_rounds is not None and executed >= max_rounds:
                break
            if not self._running and self._waiting:
                next_arrival = self._waiting[0].request.arrival_time
                if next_arrival > self.round_index:
                    self.round_index = next_arrival
            self.run_round()
            executed += 1
        wall = time.perf_counter() - start
        return self.report(wall)

    def run_round(self):
        """One scheduler iteration: continue prefills, admit, sample,
        one batched target forward.

        Each round appends a :class:`~repro.serve.trace.RoundTrace` to
        :attr:`trace` recording the hardware work performed (prefill row
        counts, per-sequence decode attention lengths), which the
        serving co-simulator prices after the fact.  With
        ``prefill_chunk`` set, in-flight chunked prefills consume the
        round's prompt-token budget before new admissions do.  The
        clock advances by exactly one round (idle-gap skipping is
        :meth:`run`'s job).
        """
        # The round's chunk budget must be fixed before headroom is
        # secured: _round_chunks allocates it for both the headroom
        # estimate and the prefills that follow.
        self._round_chunk = (
            self._adaptive_chunk_budget()
            if self.adaptive_chunk
            else self.prefill_chunk
        )
        record = RoundTrace(round_index=self.round_index)
        self._ensure_headroom(record)
        chunk_budget = self._continue_prefills(record)
        self._admit(record, chunk_budget)
        self.manager.sample_usage()

        self._sample(record)
        # A beam branch decodes only in a round its family advanced.
        beam_ready = {id(s) for s in self._advance_beams(record)}
        # Nothing leaves the batch between admission and here; beam
        # advances only add forked branches to it.
        self._peak_concurrency = max(self._peak_concurrency, len(self._running))
        active = [
            s
            for s in self._running
            if s.status == RUNNING
            and (not self.families.is_beam(s) or id(s) in beam_ready)
        ]
        if active:
            self._decode(active, record)
        if record.busy:
            self.trace.append(record)
        self._retire()
        self.prefiller.sweep(self._running)
        self.round_index += 1

    # ------------------------------------------------------------------
    # Round stages
    # ------------------------------------------------------------------
    def _adaptive_chunk_budget(self):
        """Size this round's chunk budget from predicted cycles.

        The candidate ladder spans power-of-two rungs around the
        configured ``prefill_chunk`` (``x/4`` … ``4x`` — a small fixed
        set keeps the cost model's prefill cache hot).  The round's cycle
        budget is the predicted cost of a max-rung prefill alone; the
        chosen rung is the largest whose predicted prefill pass fits the
        budget left after the current decode batch's predicted cycles,
        so the chunk shrinks monotonically as the decode batch deepens
        (Sarathi's dynamic split, decided in modeled cycles).  Under
        two-way scheduling against a fixed pool, rungs whose block
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
        block_cap = self.manager.free_blocks if self.manager.preemptible else None
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

    def _chunk_rows(self, state, chunk_budget):
        """Prompt rows ``state``'s next prefill computes under
        ``chunk_budget``: the rest of its effective prompt, capped by the
        budget when chunking."""
        remaining = state.prompt_tokens.shape[0] - state.prefilled
        return remaining if chunk_budget is None else min(chunk_budget, remaining)

    def _round_chunks(self):
        """This round's chunk allocation to in-flight prefills: ``(state,
        rows)`` in admission order, sharing ``self._round_chunk`` until
        it runs out.  The one walk both the headroom estimate
        (:meth:`_round_block_demand`) and :meth:`_continue_prefills`
        follow, so the rows secured are the rows computed."""
        chunk_budget = self._round_chunk
        for state in self._running:
            if state.status != PREFILLING:
                continue
            if chunk_budget is not None and chunk_budget <= 0:
                return
            rows = self._chunk_rows(state, chunk_budget)
            if chunk_budget is not None:
                chunk_budget -= rows
            yield state, rows

    def _continue_prefills(self, record):
        """Advance in-flight chunked prefills by this round's chunk
        allocation; returns the budget left for new admissions."""
        chunk_budget = self._round_chunk
        for state, rows in self._round_chunks():
            self._prefill_state(state, rows, record)
            if chunk_budget is not None:
                chunk_budget -= rows
        return chunk_budget

    def _next_admission(self):
        """The arrived waiting request the admission policy ranks first,
        ties by submission order (``None`` when nothing has arrived)."""
        now = self.round_index
        key = self.admission.key
        return min(
            (s for s in self._waiting if s.request.arrival_time <= now),
            key=lambda s: (key(s.request, now), s.submit_index),
            default=None,
        )

    def _admit(self, record, chunk_budget):
        """Admit arrived requests into free batch slots (prefill them).

        Admission also reserves blocks through the resource manager:
        under one-way scheduling (``preempt="off"``) a fixed
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
        manager = self.manager
        while True:
            if chunk_budget is not None and chunk_budget <= 0:
                break
            state = self._next_admission()
            if state is None:
                break
            # The candidate's demand, computed once for the room check
            # and the admission.  Its first decode step (a full verify
            # window when speculating) lands in this same round.
            swapped = state.status == SWAPPED
            if swapped:
                worst = need = manager.swap_resume_demand(
                    state.request_id, self._step_rows
                )
            else:
                request = state.request
                budget = request.budget
                prompt_length = request.prompt.shape[0] + state.num_generated
                remaining = request.max_new_tokens - state.num_generated
                worst = manager.sequence_worst_blocks(
                    prompt_length, remaining, budget
                )
                rows_now = (
                    prompt_length
                    if chunk_budget is None
                    else min(chunk_budget, prompt_length)
                )
                need = manager.admission_block_demand(
                    rows_now, prompt_length, budget is not None, self._step_rows
                )
            if not self._make_room(state, worst, need, record):
                break
            self._waiting.remove(state)

            if swapped:
                image = manager.swap_in(state)
                transition(
                    state, "swap_in", status=image.resume_status,
                    cache=image.cache, policy=image.policy,
                )
                record.swaps.append(
                    SwapEvent(
                        state.request_id,
                        SWAP_IN,
                        kv_slots=image.kv_slots,
                        blocks=image.blocks_in,
                    )
                )
                self._running.append(state)
                continue  # no prefill rows: chunk budget untouched

            policy = self.policy_factory()
            policy.reset()
            capacity = sequence_capacity(prompt_length, remaining, budget)
            transition(
                state, "admit", prompt_tokens=effective_prompt(state),
                policy=policy, cache=manager.admit(request.request_id, capacity, worst),
            )
            if state.admitted_at is None:
                state.admitted_at = self.round_index

            self.prefiller.attach(state)
            rows = self._chunk_rows(state, chunk_budget)
            self._prefill_state(state, rows, record)
            if chunk_budget is not None:
                chunk_budget -= rows
            self._running.append(state)

    # ------------------------------------------------------------------
    # Two-way scheduling (preemption)
    # ------------------------------------------------------------------
    def _make_room(self, state, worst, own_need, record):
        """Secure a batch slot and the block demand for admitting (or
        resuming) ``state``: ``worst`` blocks over its life (what one-way
        scheduling reserves) and ``own_need`` in its admission round
        (what two-way scheduling checks, on top of the resident batch's
        round demand).  The claims of fork families on the branches they
        may still fork — the resident families' and the candidate's own
        (:meth:`ForkFamilies.claims`) — are set aside first.  Under two-way
        scheduling this may preempt running victims the candidate
        strictly outranks.  Returns False when the candidate must keep
        waiting."""
        manager = self.manager

        def immediate():
            # Optimistic admission must not eat the blocks the resident
            # batch still needs this round (its decode appends and CoW)
            # — otherwise a mid-round allocation would fail where
            # round-start headroom had been assured.  Recomputed per
            # check: preempting a victim below removes its share of the
            # round demand along with its blocks.
            if manager.preemptible:
                return own_need + self._round_block_demand()
            return own_need

        while True:
            # Recomputed per check too: a victim may take its family's
            # residency, and with it the family's claim, along.
            reserved_slots, reserved_blocks = self.families.claims(self._running, state)
            if manager.can_admit(
                worst + reserved_blocks, immediate(), slots=1 + reserved_slots
            ):
                return True
            candidates = manager.preemptible and self._victim_candidates()
            if not candidates:
                return False
            victim = min(candidates, key=self._victim_rank)
            # Only a candidate that strictly outranks the victim under the
            # admission policy preempts it (deadline pressure under EDF,
            # priority under priority-with-aging; under FIFO only an
            # older arrival, e.g. a previously preempted sequence).
            # Strictness keeps two equal ranks from trading one slot
            # forever.
            key, now = self.admission.key, self.round_index
            if not key(state.request, now) < key(victim.request, now):
                return False
            self._preempt(victim, record)

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

    def _victim_candidates(self):
        """Resident sequences preemption may evict."""
        return [s for s in self._running if s.status in (RUNNING, PREFILLING)]

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
        if request.budget is not None:
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
        self._running.remove(state)
        mode = self.preempt
        if mode == "model":
            mode = self._choose_preempt_mode(state)
        if mode == "swap":
            image = self.manager.swap_out(state)
            transition(state, "swap_out")
            record.swaps.append(
                SwapEvent(
                    state.request_id,
                    SWAP_OUT,
                    kv_slots=image.kv_slots,
                    blocks=image.blocks_out,
                )
            )
        else:
            self.manager.retire(state.request_id)
            transition(state, "recompute")
        self._enqueue(state)

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
        if not manager.preemptible or not manager.fixed_pool:
            return
        while True:
            demand = self._round_block_demand()
            if demand == 0 or manager.has_blocks(demand):
                return
            candidates = self._victim_candidates()
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
        demand = 0
        for state, rows in self._round_chunks():
            demand += manager.prefill_block_demand(
                state.cache,
                rows,
                state.request.budget is not None,
                final=state.prefilled + rows >= state.prompt_tokens.shape[0],
            )
        for state in self._running:
            if state.status == RUNNING:
                # A speculative round appends a whole verify window before
                # any rollback; cover it even for sequences that may fall
                # back to a one-token step.
                demand += manager.decode_block_demand(
                    state.cache,
                    state.request.budget is not None,
                    tokens=self._step_rows,
                )
        # A beam family about to advance may fork up to width - 1
        # branches mid-round (after headroom was secured), each taking
        # an append step of its own; bound their demand by the widest
        # live branch's step demand.
        for family, live in self.families.ready_beams():
            budgeted = family.request.budget is not None
            per_step = max(
                manager.decode_block_demand(s.cache, budgeted) for s in live
            )
            demand += (family.width - 1) * per_step
        return demand

    def _prefill_state(self, state, rows, record):
        """Prefill the next ``rows`` rows (a chunk, or the whole
        remainder) of ``state``'s effective prompt (the request prompt,
        plus generated tokens on a recompute resume), record the trace
        event, and complete the prefill when the last token lands."""
        budget = state.request.budget
        total = state.prompt_tokens.shape[0]
        start = state.prefilled
        logits = self.prefiller.forward(state, rows)
        final = state.prefilled == total
        record.prefills.append(
            PrefillEvent(
                request_id=state.request_id,
                prompt_length=int(total),
                computed_tokens=int(rows),
                prefix_length=int(start),
                budgeted=budget is not None,
                final=final,
            )
        )
        if final:
            enforce_budget(
                state.policy,
                state.cache,
                budget,
                step=0,
                log=state.evictions,
            )
            state.cache_lengths.append(state.cache[0].length)
            transition(state, "prefill_done", logits=logits, position=total)
            for _ in range(self.families.spawn(state)):
                self._fork_branch(state, record)

    def _sample(self, record):
        """Sample one token per running sequence from its pending logits
        and commit it (see :meth:`_commit_token`) — the engine's
        per-step prologue.  Beam branches take their tokens from the
        joint advance instead."""
        for state in self._running:
            # A chunked prefill still in flight has no logits yet.
            if state.status != RUNNING or self.families.is_beam(state):
                continue
            self._commit_token(state, self.sampler(state.logits, state.rng), record)

    def _commit_token(self, state, token, record, stepped=False):
        """Append one generated ``token`` to ``state`` and retire it on
        EOS or on reaching ``max_new_tokens`` — the one place a generated
        token is committed (sampling pass, beam advance, accepted verify
        rows).

        A length-capped sequence records the engine's dead step (never
        executed) in the trace unless its final token was already
        ``stepped`` by this round's forward: a verify window computed
        (and the co-simulator prices) the rows past an accepted final
        token, so a dead step would charge that work twice."""
        state.tokens.append(token)
        if state.first_token_round is None:
            state.first_token_round = self.round_index
        self._total_tokens += 1
        request = state.request
        if request.eos is not None and token == request.eos:
            self._finish(state, "eos")
        elif state.num_generated >= request.max_new_tokens:
            if not stepped:
                record.dead_steps.append(
                    DecodeEvent(
                        request_id=request.request_id,
                        attention_length=int(state.cache[0].length + 1),
                        budgeted=request.budget is not None,
                        dead=True,
                        tokens=0,
                    )
                )
            self._finish(state, "length")

    def _decode(self, active, record):
        """The round's one target forward: a single ``step_batch`` over
        the window every still-active sequence adds, then one
        :meth:`_commit_window` per sequence.

        A window is the pending token plus the draft's proposals (none
        for a plain, beam or sample row, see :meth:`_open_window`) at
        consecutive positions, its cache repeated once per row.  A
        window's rows append to that cache and attend over it in row
        order, so each row sees exactly the cache its sequential step
        would have, and ``batch_matmul``'s row-count invariance makes its
        logits and attention bitwise the sequential step's — one weight
        fetch for the whole round, as the co-simulator prices it.
        """
        windows = [self._open_window(state) for state in active]
        tokens, positions, caches = [], [], []
        for state, (_, proposals) in zip(active, windows):
            rows = 1 + len(proposals)
            tokens.append(state.tokens[-1])
            tokens.extend(proposals)
            positions.extend(range(state.position, state.position + rows))
            caches.extend([state.cache] * rows)
        result = self.model.step_batch(tokens, positions, caches)
        row = 0
        for state, (event, proposals) in zip(active, windows):
            self._commit_window(state, event, proposals, result, row, record)
            row += 1 + len(proposals)

    # ------------------------------------------------------------------
    # Fork/join (parallel sampling and beam search)
    # ------------------------------------------------------------------
    def _fork_branch(self, parent, record):
        """Fork one branch off ``parent``: duplicate its scheduler-side
        state under the id its family mints, let the resource manager
        duplicate its device state (on one of the slots the family's
        claim set aside), and record the
        :class:`~repro.serve.trace.ForkEvent`.  Returns the branch."""
        request, branch_index = self.families.mint(parent)
        child = transition(
            parent, "fork", request=request, submit_index=len(self._states),
            branch_index=branch_index, rng=np.random.default_rng(request.seed),
            policy=copy.deepcopy(parent.policy),
            cache=self.manager.fork(parent.request_id, request.request_id),
        )
        self._states[request.request_id] = child
        self.families.adopt(child)
        self._running.append(child)
        blocks, copied_slots = self.manager.fork_footprint(child.cache)
        record.forks.append(
            ForkEvent(
                request_id=parent.request_id,
                child_id=request.request_id,
                kv_slots=int(max((layer.length for layer in child.cache), default=0)),
                blocks=blocks,
                copied_slots=int(copied_slots),
            )
        )
        return child

    def _advance_beams(self, record):
        """Apply one beam step (:meth:`ForkFamilies.beam_step`) to every
        ready beam family; returns the states whose appended token still
        needs a decode step.  Pruning runs before forking so a fixed pool
        can fund the forks with the pruned branches' slots and blocks;
        forks happen before appending, since children must adopt the
        cache state *without* this round's token."""
        ready = []
        for family, live in self.families.ready_beams():
            pruned, kept = self.families.beam_step(family, live)
            for state in pruned:
                self._finish(state, "beam_pruned")
            for state, successors in kept:
                children = [self._fork_branch(state, record) for _ in successors[1:]]
                for branch, (score, token) in zip([state, *children], successors):
                    branch.cum_logprob = score
                    self._commit_token(branch, token, record)
                    if branch.status == RUNNING:
                        ready.append(branch)
        return ready

    # ------------------------------------------------------------------
    # Speculative decoding (draft-propose / target-verify)
    # ------------------------------------------------------------------
    def _can_speculate(self, state):
        """Draft proposals ``state`` may add to its window this round (0
        without a draft model: a plain decode step).

        Speculation is skipped (never *wrong*, just unprofitable or
        unsafe) when: the remaining token budget clips the window to
        nothing; the sequence's KV eviction budget could fire *inside*
        the verify window (the window must see zero evictions for the
        eviction schedule to stay bit-identical, so speculation requires
        ``prior + k + 1 <= budget``); or either model's RoPE table /
        cache capacity cannot cover the provisional window.
        """
        if self.draft_model is None:
            return 0
        request = state.request
        k_eff = min(self.spec_k, request.max_new_tokens - state.num_generated)
        if k_eff < 1:
            return 0
        budget = request.budget
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

    def _open_window(self, state):
        """``(event, proposals)`` for the window ``state`` adds to this
        round's forward: its pending token plus the draft's proposals,
        recorded as one :class:`~repro.serve.trace.DecodeEvent`.

        A plain, beam or sample row is a zero-proposal window (the step
        appends then attends, so its row attends over the pre-step
        length plus the new token).  When :meth:`_can_speculate` allows
        a window, the draft proposes and the event carries its work;
        :meth:`_commit_window` completes it with the outcome."""
        event = DecodeEvent(
            request_id=state.request_id,
            attention_length=int(state.cache[0].length + 1),
            budgeted=state.request.budget is not None,
        )
        k_eff = self._can_speculate(state)
        if not k_eff:
            return event, []
        lengths = set(state.cache.lengths)
        if len(lengths) != 1:
            raise ValueError(
                f"ragged cache lengths {sorted(lengths)}: a verify "
                "window needs every layer at the same length"
            )
        proposals, draft_rows, draft_prior, draft_lengths = self._draft_propose(
            state, k_eff
        )
        event.rows = k_eff + 1
        event.proposed = k_eff
        event.draft_prefill_rows = draft_rows
        event.draft_prefill_prior = draft_prior
        event.draft_decode_lengths = draft_lengths
        return event, proposals

    def _commit_window(self, state, event, proposals, result, first_row, record):
        """Commit ``state``'s window from the round's forward: accept the
        longest exact-match prefix of ``proposals``, roll back the rest.

        The window's rows ``first_row ..`` of ``result`` are the pending
        token plus the ``proposals``, and row ``i``'s logits (and
        attention rows) are bitwise identical to the sequential decode of
        the same tokens (see :meth:`_decode`).  Every row is bookkept
        exactly as a sequential step — policy observe over the row's
        causal width, budget enforcement, cache-length log — and
        ``self.sampler(logits[m])`` *is* the token the sequential
        scheduler would sample next; a proposal mismatch just means rows
        past ``m`` are garbage.  On mismatch the correction token is
        deliberately **not** appended: the pending logits are set to row
        ``m`` and the next round's sampling pass re-derives the identical
        token (greedy is deterministic), preserving the invariant that the
        last appended token has always been stepped.  A zero-proposal
        window is a plain decode step: its one row is bookkept and its
        logits become the pending logits.
        """
        budget = state.request.budget
        k = len(proposals)

        def bookkeep(row):
            # The forward appended every window row up front, and no
            # eviction runs inside a window (_can_speculate), so the row's
            # sequential step saw the cache without the rows after it.
            # The last row's enforcement may evict; its log records the
            # post-eviction length, as a sequential step's does.
            after = k - row
            observe_and_evict(
                state.policy,
                state.cache,
                [rows[first_row + row] for rows in result.attention],
                budget,
                step=state.num_generated,
                log=state.evictions,
                width=state.cache[0].length - after if after else None,
            )
            state.cache_lengths.append(state.cache[0].length - after)

        accepted = 0
        pending = k
        for m, proposal in enumerate(proposals):
            bookkeep(m)
            token = self.sampler(result.logits[first_row + m], state.rng)
            if token != proposal:
                pending = m
                break
            accepted += 1
            self._commit_token(state, token, record, stepped=True)
            if state.status == FINISHED:
                break
        else:
            # Every proposal accepted (or none made): the last row — the
            # step of the last appended token — is valid too; its logits
            # become the pending logits the next round samples from.
            bookkeep(k)

        finished = state.status == FINISHED
        if not finished:
            if pending < k:
                state.cache.truncate(event.attention_length + pending)
            state.logits = result.logits[first_row + pending]
            state.position += pending + 1
            if proposals:
                committed = state.request.prompt.shape[0] + state.num_generated
                if state.draft_cache[0].length > committed:
                    state.draft_cache.truncate(committed)
        event.accepted = accepted
        event.tokens = accepted + (0 if finished else 1)
        record.decodes.append(event)

    def _finish(self, state, reason):
        self.manager.retire(state.request_id)
        transition(state, "finish", finished_at=self.round_index, finish_reason=reason)

    def _retire(self):
        finished = [s for s in self._running if s.status == FINISHED]
        if finished:
            self._finished.extend(finished)
            self._running = [s for s in self._running if s.status != FINISHED]
            self.families.retire(finished)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def results(self):
        """Retired :class:`SequenceState` objects in completion order."""
        return list(self._finished)

    def tokens_for(self, request_id):
        """Generated tokens of a retired request."""
        state = self._states.get(request_id)
        if state is None or state.status != FINISHED:
            raise KeyError(f"request {request_id!r} has not finished")
        return list(state.tokens)

    def samples_for(self, request_id):
        """The generated token lists of every branch of a fork family,
        in branch order — for ``Request(n=k)`` the ``k`` independent
        continuations; branch ``i`` carries effective seed
        ``seed + i``."""
        return self.families.samples_for(request_id)

    def beam_result_for(self, request_id):
        """``(tokens, cum_logprob)`` of the best completed hypothesis of
        a ``Request(beam_width=k)`` family (pruned branches excluded);
        ties break toward the earliest-created branch.  Hypotheses
        compete on the length-normalized score
        (:func:`~repro.serve.families.beam_score`); the returned score is
        always the raw cumulative log-probability of the winner."""
        return self.families.beam_result_for(request_id)

    def report(self, wall_seconds=0.0):
        """Snapshot :class:`ServingReport` over the requests retired (and
        rejected) so far.  :meth:`run` calls this once at drain; the
        serving engine calls it at any point of a streaming run.

        Every event counter is read off the event's one record — the
        round trace (verify windows, swaps, forks), the sequence states
        (preemptions, pruned branches) and the prefix trie (tokens hit,
        via the manager's usage report) — here, never kept per round."""
        windows = [
            event
            for record in self.trace
            for event in record.decodes
            if event.proposed
        ]
        swaps = [event for record in self.trace for event in record.swaps]
        forks = [event for record in self.trace for event in record.forks]
        swap_outs = [event for event in swaps if event.direction == SWAP_OUT]
        swap_ins = [event for event in swaps if event.direction == SWAP_IN]
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
            spec = {}  # request_id -> [verify rounds, proposed, accepted]
            for event in windows:
                counts = spec.setdefault(event.request_id, [0, 0, 0])
                counts[0] += 1
                counts[1] += event.proposed
                counts[2] += event.accepted
            for row in rows:
                rounds, proposed, accepted = spec.get(row["request_id"], (0, 0, 0))
                row["spec_rounds"] = rounds
                row["spec_proposed"] = proposed
                row["spec_accepted"] = accepted
                row["accept_rate"] = accepted / proposed if proposed else 0.0
        self.families.add_columns(rows, self._finished)
        preemptions = sum(s.preemptions for s in self._states.values())
        # Under preempt="model" every swap-out is a cost-model choice.
        modeled = self.preempt == "model"
        manager = self.manager
        return ServingReport(
            requests=rows,
            rejections=[r.as_row() for r in self._rejected],
            total_rounds=self.round_index,
            busy_rounds=len(self.trace),
            total_tokens=self._total_tokens,
            peak_concurrency=self._peak_concurrency,
            wall_seconds=wall_seconds,
            preempt=self.preempt,
            preemptions=preemptions,
            model_swaps=len(swap_outs) if modeled else 0,
            model_recomputes=preemptions - len(swap_outs) if modeled else 0,
            swap_outs=len(swap_outs),
            swap_ins=len(swap_ins),
            swap_out_blocks=sum(event.blocks for event in swap_outs),
            swap_in_blocks=sum(event.blocks for event in swap_ins),
            host_peak_kv_slots=manager.host_peak_kv_slots,
            spec_decode=self.draft_model is not None,
            spec_k=self.spec_k if self.draft_model is not None else 0,
            verify_passes=len(windows),
            spec_proposed=sum(event.proposed for event in windows),
            spec_accepted=sum(event.accepted for event in windows),
            spec_tokens=sum(event.tokens for event in windows),
            forks=len(forks),
            joins=sum(1 for s in self._finished if s.finish_reason == "beam_pruned"),
            fork_shared_blocks=sum(event.blocks for event in forks),
            fork_copied_slots=sum(event.copied_slots for event in forks),
            **manager.usage_report(),
        )

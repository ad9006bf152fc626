"""Request and sequence-state model for the serving scheduler.

A :class:`Request` is what a client submits: a prompt, a generation
budget, and an arrival time (measured in scheduler decode rounds, the
discrete clock of the simulation).  A :class:`SequenceState` is the
scheduler's per-request working state while the request is live: its own
:class:`~repro.core.kv_cache.KVCache`, its own eviction-policy instance
(votes are per-sequence state), its sampling RNG, and the pending logits
from which the next token will be sampled.

The state machine is ``QUEUED -> [PREFILLING ->] RUNNING -> FINISHED``
(the ``PREFILLING`` stage only exists under chunked prefill, where a
prompt spans several scheduler rounds before its first token can be
sampled); the per-phase timestamps it records (arrival, admission, first
token, completion) are what the scheduler's latency statistics — TTFT,
per-token latency, deadline misses — are computed from.

Two-way scheduling (``Scheduler(preempt=...)``) adds the preempted
states: ``PREEMPTED`` (device state dropped; the sequence re-admits by
re-prefilling its prompt plus the tokens generated so far) and
``SWAPPED`` (device state paged to the modeled host pool; the sequence
re-admits by swapping the saved blocks back in).  Both return to
``PREFILLING``/``RUNNING`` through the ordinary admission queue; see
:class:`repro.serve.resources.KVResourceManager` for the resource side
of the lifecycle.

A request the scheduler cannot serve (e.g. its worst-case block demand
exceeds a fixed paged pool) is turned into a structured
:class:`Rejection` instead of silently dropping, so engine-level
admission can retry, degrade, or report it.

Worked example — requests validate their inputs up front::

    >>> import numpy as np
    >>> from repro.serve.request import Request
    >>> request = Request("r0", np.array([1, 2, 3]), max_new_tokens=4, budget=8,
    ...                   deadline=40, priority=2)
    >>> request.arrival_time, request.eos, request.budget, request.deadline
    (0, None, 8, 40)
    >>> Request("bad", np.array([1, 2]), max_new_tokens=0)
    Traceback (most recent call last):
        ...
    ValueError: max_new_tokens must be positive
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Request",
    "Rejection",
    "SequenceState",
    "QUEUED",
    "PREFILLING",
    "RUNNING",
    "FINISHED",
    "PREEMPTED",
    "SWAPPED",
]

#: Sequence lifecycle states.
QUEUED = "queued"
#: Admitted, but the prompt is still being prefilled in chunks; the
#: sequence owns a batch slot and a cache but cannot sample yet.
PREFILLING = "prefilling"
RUNNING = "running"
FINISHED = "finished"
#: Preempted with ``preempt="recompute"``: all device state dropped; the
#: sequence waits for re-admission, at which point its prompt *plus the
#: tokens generated so far* are re-prefilled.
PREEMPTED = "preempted"
#: Preempted with ``preempt="swap"``: KV state paged out to the modeled
#: host pool; the sequence waits for re-admission, at which point the
#: saved blocks are paged back in and decoding resumes exactly where it
#: stopped.
SWAPPED = "swapped"


@dataclass
class Request:
    """One client request to the serving scheduler.

    Parameters
    ----------
    request_id:
        Caller-chosen hashable id, unique among live requests.
    prompt:
        Token ids to prefill, non-empty 1-D.
    max_new_tokens:
        Generation cap; the request retires after this many tokens even
        without an EOS.
    arrival_time:
        Scheduler round at which the request becomes visible for
        admission (0 = present from the start).
    eos:
        Optional stop-token id.
    seed:
        Seed for the request's private sampling RNG (greedy sampling
        ignores it but stochastic samplers stay reproducible per request
        regardless of batch composition).
    budget:
        Optional per-request KV cache budget overriding the scheduler's
        default (``None`` = use the scheduler default).
    deadline:
        Optional SLA deadline: the scheduler round by which the request
        should have *finished*.  Purely advisory for the FIFO scheduler;
        the engine's EDF admission orders by it and the report counts
        misses (``None`` = no deadline).
    priority:
        Scheduling priority (higher = more urgent); consumed by the
        engine's priority admission policy, ignored by plain FIFO.
    n:
        Parallel samples: ``n > 1`` returns ``n`` independent
        continuations of the same prompt.  The prompt is prefilled once;
        at prefill completion the sequence is forked into ``n`` branches
        sharing all prompt KV blocks copy-on-write (paged mode), each
        sampling with its own RNG seeded ``seed + branch_index`` — so
        branch ``i`` is bit-identical to an independent request with
        ``seed = seed + i``.
    beam_width:
        Beam search: ``beam_width > 1`` decodes with joint per-round
        top-``beam_width`` selection over cumulative log-probabilities.
        Losing branches are pruned (released through the retirement
        path); a branch with several surviving successors CoW-forks.
        Mutually exclusive with ``n > 1``; the sampler is ignored (beam
        scoring is deterministic).
    length_penalty:
        Length-normalization exponent ``alpha`` for beam scoring:
        hypotheses are ranked by ``cum_logprob / len(tokens) ** alpha``
        (GNMT-style), both at the per-round joint selection and at the
        final best-hypothesis pick.  ``alpha = 0`` (the default) divides
        by 1 and is bit-identical to raw cumulative log-probability;
        larger values counteract the inherent bias toward short
        hypotheses.  Ignored unless ``beam_width > 1``.
    """

    request_id: object
    prompt: np.ndarray
    max_new_tokens: int
    arrival_time: int = 0
    eos: int | None = None
    seed: int = 0
    budget: int | None = None
    deadline: int | None = None
    priority: int = 0
    n: int = 1
    beam_width: int = 1
    length_penalty: float = 0.0

    def __post_init__(self):
        self.prompt = np.asarray(self.prompt)
        if self.prompt.ndim != 1 or self.prompt.shape[0] == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        if self.max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive when given")
        if self.deadline is not None and self.deadline < self.arrival_time:
            raise ValueError(
                f"deadline {self.deadline} precedes arrival "
                f"{self.arrival_time}"
            )
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.n > 1 and self.beam_width > 1:
            raise ValueError(
                "n and beam_width are mutually exclusive decoding modes"
            )
        if not np.isfinite(self.length_penalty) or self.length_penalty < 0:
            raise ValueError(
                "length_penalty must be a finite non-negative exponent"
            )

    @property
    def num_branches(self):
        """Branch slots this request can occupy at once (1 = plain)."""
        return max(self.n, self.beam_width)


@dataclass
class Rejection:
    """Structured record of a request the scheduler could not accept.

    Produced by :meth:`repro.serve.Scheduler.submit` instead of (or, in
    strict mode, alongside) raising, so engine-level admission can
    degrade gracefully — retry with a smaller budget, route to another
    pool, or surface the reason to the client.  All rejections of a run
    are threaded into ``ServingReport.rejections``.
    """

    request_id: object
    #: Machine-readable reason code: ``"invalid_token"``,
    #: ``"exceeds_max_seq_len"`` or ``"pool_too_small"``.
    reason: str
    #: Human-readable explanation.
    detail: str
    #: Worst-case pool blocks the request would need (0 if n/a).
    needed_blocks: int = 0
    #: Total blocks the fixed pool has (0 if n/a).
    pool_blocks: int = 0
    #: Scheduler round at which the rejection happened.
    round_index: int = 0

    def as_row(self):
        """Flat dict for ``ServingReport.rejections``."""
        return {
            "request_id": self.request_id,
            "reason": self.reason,
            "detail": self.detail,
            "needed_blocks": self.needed_blocks,
            "pool_blocks": self.pool_blocks,
            "round": self.round_index,
        }


@dataclass
class SequenceState:
    """Scheduler-side working state of one live request."""

    request: Request
    policy: object = None
    cache: object = None
    rng: object = None
    status: str = QUEUED
    #: Next-token logits pending a sampling decision.
    logits: np.ndarray | None = None
    #: Absolute position of the next token to be decoded.
    position: int = 0
    tokens: list = field(default_factory=list)
    cache_lengths: list = field(default_factory=list)
    evictions: list = field(default_factory=list)
    admitted_at: int | None = None
    finished_at: int | None = None
    finish_reason: str | None = None
    #: Round the first generated token was sampled (TTFT anchor); under
    #: chunked prefill this trails ``admitted_at`` by the prefill rounds.
    first_token_round: int | None = None
    #: Prompt tokens resident in the cache so far (prefix-cache hits plus
    #: prefilled chunks); equals the prompt length once prefill is done.
    prefilled: int = 0
    #: Tokens this admission actually prefills: the request prompt for a
    #: fresh admission, the prompt *plus the tokens generated so far* for
    #: a ``PREEMPTED`` sequence being re-admitted (recompute preemption).
    #: Set by the scheduler at admission; ``None`` while queued.
    prompt_tokens: np.ndarray | None = None
    #: Times this sequence was preempted (either mode).
    preemptions: int = 0
    #: KV slots (per layer, summed over preemptions) this sequence paged
    #: out to / back from the modeled host pool (``preempt="swap"``).
    swapped_out_slots: int = 0
    swapped_in_slots: int = 0
    #: Prefix-trie node of the last full prompt block this sequence
    #: registered/adopted (chunked paged prefill resumes insertion here;
    #: a :class:`~repro.serve.prefix_cache.PrefixNode`, or ``None``).
    prefix_node: object = None
    #: True when a partial/unsnapshotted prefix hit made this sequence's
    #: eviction-policy state impure (rows were adopted without their vote
    #: contributions): its own boundary exports are no longer pure
    #: functions of the prefix and are registered as ``policy_state=None``.
    #: Only ever set on unbudgeted sequences, which never consult the
    #: votes, so generated tokens stay bit-identical to a cold prefill.
    prefix_tainted: bool = False
    #: Monotone submission index (admission-policy tie-breaker).
    submit_index: int = 0
    #: Worst-case pool-block demand reserved at admission (paged mode);
    #: the scheduler holds ``reserved_blocks - cache.owned_blocks`` free
    #: blocks back from later admissions so this sequence can always
    #: grow/CoW to its capacity.
    reserved_blocks: int = 0
    #: Prompt tokens adopted from the prefix cache at admission (their
    #: prefill compute was skipped); 0 when served dense or on a miss.
    prefix_hit_length: int = 0
    #: Draft-model KV cache (speculative decoding).  Modeled as
    #: host-resident: it holds no device pool blocks, survives a swap
    #: (its contents are committed tokens, still valid at resume), and is
    #: dropped with the rest of the derived state on recompute
    #: preemption.  ``None`` until the sequence's first speculative
    #: round, or when speculation is off.
    draft_cache: object = None
    #: Speculative rounds (propose + verify passes) this sequence took.
    spec_rounds: int = 0
    #: Draft tokens proposed for / accepted by this sequence.
    spec_proposed: int = 0
    spec_accepted: int = 0
    #: Family id (the root request's id) when this sequence belongs to a
    #: fork family (parallel sampling or beam search); ``None`` otherwise.
    family: object = None
    #: Branch index within the family (0 = the root sequence).
    branch_index: int = 0
    #: True once the family root has spawned its parallel-sampling
    #: branches (guards against re-forking after a preemption resume).
    forked: bool = False
    #: Cumulative log-probability of the generated tokens (beam scoring).
    cum_logprob: float = 0.0

    @property
    def request_id(self):
        return self.request.request_id

    @property
    def num_generated(self):
        return len(self.tokens)

    @property
    def ttft_rounds(self):
        """Rounds from arrival to the first sampled token (``None``
        until a token exists)."""
        if self.first_token_round is None:
            return None
        return self.first_token_round - self.request.arrival_time

    @property
    def inter_token_rounds(self):
        """Mean rounds between consecutive generated tokens (0.0 for a
        single-token generation or before the first token)."""
        if self.first_token_round is None or self.num_generated <= 1:
            return 0.0
        end = (
            self.finished_at
            if self.finished_at is not None
            else self.first_token_round
        )
        return (end - self.first_token_round) / (self.num_generated - 1)

    @property
    def deadline_missed(self):
        """Whether the request finished after its deadline (``False``
        when no deadline was set or the request is still live)."""
        return (
            self.request.deadline is not None
            and self.finished_at is not None
            and self.finished_at > self.request.deadline
        )

    def finish(self, round_index, reason):
        self.status = FINISHED
        self.finished_at = round_index
        self.finish_reason = reason
        # Release references to the heavyweight per-sequence state; the
        # result fields (tokens, stats, eviction log) stay.
        self.cache = None
        self.policy = None
        self.logits = None
        self.draft_cache = None

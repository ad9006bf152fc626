"""Request and sequence-state model for the serving scheduler.

A :class:`Request` is what a client submits: a prompt, a generation
budget, and an arrival time (measured in scheduler decode rounds, the
discrete clock of the simulation).  A :class:`SequenceState` is the
scheduler's per-request working state while the request is live: its own
:class:`~repro.core.kv_cache.KVCache`, its own eviction-policy instance
(votes are per-sequence state), its sampling RNG, and the pending logits
from which the next token will be sampled.

The state machine is ``QUEUED -> PREFILLING -> RUNNING -> FINISHED``
(a whole-prompt prefill passes through ``PREFILLING`` within its
admission round; under chunked prefill a prompt stays there for several
rounds before its first token can be sampled); the per-phase timestamps
it records (arrival, admission, first token, completion) are what the
scheduler's latency statistics — TTFT, per-token latency, deadline
misses — are computed from.

Two-way scheduling (``Scheduler(preempt=...)``) adds the preempted
states: ``PREEMPTED`` (device state dropped; the sequence re-admits by
re-prefilling its prompt plus the tokens generated so far) and
``SWAPPED`` (device state paged to the modeled host pool; the sequence
re-admits by swapping the saved blocks back in).  Both return to
``PREFILLING``/``RUNNING`` through the ordinary admission queue; see
:class:`repro.serve.resources.KVResourceManager` for the resource side
of the lifecycle.

What each step of that lifecycle keeps is one table.  Every
:class:`SequenceState` field declares a lifetime — ``identity`` (who the
sequence is), ``record`` (the result so far: status, tokens, logs,
timestamps, RNG stream), ``device`` (KV cache and eviction policy),
``host`` (pending logits, draft cache) or ``derived`` (effective prompt,
prefill progress, decode position, prefix-trie cursor) — and
:data:`LIFECYCLE` lists, per transition (``admit``, ``prefill_done``,
``swap_out``, ``swap_in``, ``recompute``, ``fork``, ``finish``), the
statuses it leaves from, the status it enters, the lifetimes it drops
and the fields its caller sets.  :func:`transition` applies a row; the
scheduler changes a sequence's lifecycle stage only through it, and the
resource manager returns caches, policies and swap images without
touching the sequence.  One field has a rule beyond the table:
``prefix_node`` reads back ``None`` once the trie has evicted the node
(:func:`prefix_cursor`), so a sequence restored from a swap stops
registering prompt blocks instead of inserting under a dead node.

Which arrived request the scheduler admits next is an
:class:`AdmissionPolicy` — a ``key(request, now)`` rank over the fields
above, lowest first: :class:`FIFOAdmission` (arrival order, the
default), :class:`EDFAdmission` (earliest ``deadline`` first),
:class:`CycleEDFAdmission` (least laxity in predicted cycles) and
:class:`PriorityAdmission` (``priority`` with starvation aging).
``Scheduler(admission=...)`` takes one of them or its name
(:func:`make_admission`); the same key decides whether a waiting
request outranks a running one under two-way scheduling.

A request the scheduler cannot serve (e.g. its worst-case block demand
exceeds a fixed paged pool) is turned into a structured
:class:`Rejection` instead of silently dropping, so engine-level
admission can retry, degrade, or report it.

Worked example — requests validate their inputs up front::

    >>> import numpy as np
    >>> from repro.serve.request import Request, make_admission
    >>> request = Request("r0", np.array([1, 2, 3]), max_new_tokens=4, budget=8,
    ...                   deadline=40, priority=2)
    >>> request.arrival_time, request.eos, request.budget, request.deadline
    (0, None, 8, 40)
    >>> Request("bad", np.array([1, 2]), max_new_tokens=0)
    Traceback (most recent call last):
        ...
    ValueError: max_new_tokens must be positive
    >>> make_admission("edf").key(request, now=0)   # deadline-carrying first
    (0, 40)
"""

from __future__ import annotations

import copy
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

__all__ = [
    "Request",
    "AdmissionPolicy",
    "FIFOAdmission",
    "EDFAdmission",
    "CycleEDFAdmission",
    "PriorityAdmission",
    "make_admission",
    "available_admissions",
    "Rejection",
    "SequenceState",
    "transition",
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
        should have *finished*.  Purely advisory under FIFO admission;
        :class:`EDFAdmission` orders by it and the report counts misses
        (``None`` = no deadline).
    priority:
        Scheduling priority (higher = more urgent); consumed by
        :class:`PriorityAdmission`, ignored by FIFO.
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


class AdmissionPolicy:
    """Orders *arrived* waiting requests for admission.

    The scheduler admits the request with the **lowest** ``key`` first
    (ties broken by submission order), re-evaluated every round — so a
    policy may depend on ``now`` (see :class:`PriorityAdmission`'s
    aging).  Under two-way scheduling a waiting request preempts a
    running one only when its key is strictly lower.  The base class is
    FIFO by arrival round.
    """

    name = "fifo"

    def key(self, request, now):
        """Sortable admission rank of ``request`` at round ``now``."""
        return (request.arrival_time,)


class FIFOAdmission(AdmissionPolicy):
    """First-in-first-out by arrival round (the scheduler's default)."""


class EDFAdmission(AdmissionPolicy):
    """Earliest-deadline-first.

    Requests carrying a ``deadline`` are admitted in deadline order,
    ahead of deadline-less requests (which fall back to FIFO among
    themselves).  EDF is the classic optimal single-resource deadline
    scheduler; the property suite asserts it never inverts deadlines.
    """

    name = "edf"

    def key(self, request, now):
        if request.deadline is not None:
            return (0, request.deadline)
        return (1, request.arrival_time)


class CycleEDFAdmission(AdmissionPolicy):
    """Least-laxity-first with deadlines and work priced in *cycles*.

    Plain EDF ranks by deadline round alone, blind to how much compute a
    request still needs: of two requests due the same round, the one
    with the *longer* prompt is objectively more urgent — its prefill
    burns more of the shared machine time before a first token can
    appear.  This policy converts each deadline to a cycle-denominated
    laxity::

        laxity = (deadline - now) * cycles_per_round
                 - predicted_prefill_cycles(prompt)

    and admits the smallest laxity first (ties by deadline, then
    arrival).  Deadline-less requests fall back to FIFO behind every
    deadline-carrying one, as in :class:`EDFAdmission`.

    Parameters
    ----------
    cost_model:
        A :class:`repro.accel.simulator.AcceleratorSimulator` pricing
        prompt prefills.  Defaults to VEDA hardware at Llama-2 7B
        shapes — the same datacenter-scale substitution the serving
        co-simulator defaults to.
    cycles_per_round:
        Calibration constant converting the scheduler's abstract round
        clock (deadlines are in rounds) to cycles.  Defaults to the
        cost model's predicted cycles for one reference decode round —
        a half-full batch of eight sequences at cache length 256.
    """

    name = "edf_cycles"

    #: Reference decode round for the ``cycles_per_round`` default.
    REFERENCE_BATCH = 8
    REFERENCE_LENGTH = 256

    def __init__(self, cost_model=None, cycles_per_round=None):
        if cost_model is None:
            from repro.accel.config import veda_config
            from repro.accel.simulator import AcceleratorSimulator
            from repro.config import llama2_7b_shapes

            cost_model = AcceleratorSimulator(veda_config(), llama2_7b_shapes())
        self.cost_model = cost_model
        if cycles_per_round is None:
            cycles_per_round = cost_model.decode_round_cycles(
                [self.REFERENCE_LENGTH] * self.REFERENCE_BATCH
            )
        if cycles_per_round <= 0:
            raise ValueError(
                f"cycles_per_round must be positive, got {cycles_per_round}"
            )
        self.cycles_per_round = float(cycles_per_round)

    def key(self, request, now):
        if request.deadline is not None:
            laxity = (
                request.deadline - now
            ) * self.cycles_per_round - self.cost_model.prefill_cycles(
                int(request.prompt.shape[0])
            )
            return (0, laxity, request.deadline, request.arrival_time)
        return (1, request.arrival_time)


class PriorityAdmission(AdmissionPolicy):
    """Highest ``Request.priority`` first, with linear starvation aging.

    A request's effective priority is ``priority + aging * waited``
    (waited = rounds since arrival), so a low-priority request waiting
    ``(p_max - p) / aging`` rounds outranks any fixed priority ``p_max``
    — aging bounds starvation.  ``aging=0`` is strict priority (can
    starve); the property suite asserts the bound for ``aging > 0``.
    """

    name = "priority"

    def __init__(self, aging=0.05):
        if aging < 0:
            raise ValueError(f"aging must be non-negative, got {aging}")
        self.aging = float(aging)

    def effective_priority(self, request, now):
        return request.priority + self.aging * (now - request.arrival_time)

    def key(self, request, now):
        return (-self.effective_priority(request, now), request.arrival_time)


_ADMISSIONS = {
    "fifo": FIFOAdmission,
    "edf": EDFAdmission,
    "edf_cycles": CycleEDFAdmission,
    "priority": PriorityAdmission,
}


def make_admission(name, **kwargs):
    """Instantiate an admission policy by name (``fifo``/``edf``/
    ``edf_cycles``/``priority``); extra kwargs go to the policy
    constructor."""
    if name not in _ADMISSIONS:
        raise KeyError(
            f"unknown admission policy {name!r}; "
            f"available: {sorted(_ADMISSIONS)}"
        )
    return _ADMISSIONS[name](**kwargs)


def available_admissions():
    """Sorted names of the registered admission policies."""
    return sorted(_ADMISSIONS)


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


#: Field lifetimes: every :class:`SequenceState` field declares one, and
#: the lifecycle table below says which lifetimes each transition drops.
#: Who the sequence is: fixed at submission (a fork names its branch).
IDENTITY = "identity"
#: The result so far (status, sampled tokens, logs, timestamps, the RNG
#: stream): every transition keeps it.
RECORD = "record"
#: Device-resident working state (KV cache, eviction policy): dropped
#: whenever the sequence leaves the batch (swap-out, recompute, finish).
DEVICE = "device"
#: Host-side pending-step state (next-token logits, draft cache): it
#: survives a swap and is dropped by recompute and finish.
HOST = "host"
#: Derived from this admission's prefill (effective prompt, prefill
#: progress, decode position, prefix-trie cursor): only recompute drops
#: it, to re-derive it by re-prefilling; a finished sequence keeps it.
DERIVED = "derived"


def _field(lifetime, default=MISSING, factory=MISSING):
    metadata = {"lifetime": lifetime}
    return field(default=default, default_factory=factory, metadata=metadata)


@dataclass
class SequenceState:
    """Scheduler-side working state of one live request.

    Every field declares its lifetime; fields change lifecycle stage
    only through :func:`transition`."""

    request: Request = _field(IDENTITY)
    policy: object = _field(DEVICE, None)
    cache: object = _field(DEVICE, None)
    rng: object = _field(RECORD, None)
    status: str = _field(RECORD, QUEUED)
    #: Next-token logits pending a sampling decision.
    logits: np.ndarray | None = _field(HOST, None)
    #: Absolute position of the next token to be decoded.
    position: int = _field(DERIVED, 0)
    tokens: list = _field(RECORD, factory=list)
    cache_lengths: list = _field(RECORD, factory=list)
    evictions: list = _field(RECORD, factory=list)
    admitted_at: int | None = _field(RECORD, None)
    finished_at: int | None = _field(RECORD, None)
    finish_reason: str | None = _field(RECORD, None)
    #: Round the first generated token was sampled (TTFT anchor); under
    #: chunked prefill this trails ``admitted_at`` by the prefill rounds.
    first_token_round: int | None = _field(RECORD, None)
    #: Prompt tokens resident in the cache so far (prefix-cache hits plus
    #: prefilled chunks); equals the prompt length once prefill is done.
    prefilled: int = _field(DERIVED, 0)
    #: Tokens this admission actually prefills: the request prompt for a
    #: fresh admission, the prompt *plus the tokens generated so far* for
    #: a ``PREEMPTED`` sequence being re-admitted (recompute preemption).
    #: Set by the scheduler at admission; ``None`` while queued.
    prompt_tokens: np.ndarray | None = _field(DERIVED, None)
    #: Times this sequence was preempted (either mode).
    preemptions: int = _field(RECORD, 0)
    #: Prefix-trie node of the last full prompt block this sequence
    #: registered/adopted (chunked paged prefill resumes insertion here;
    #: a :class:`~repro.serve.prefix_cache.PrefixNode`, or ``None``).
    #: Read through :func:`prefix_cursor` while registering.
    prefix_node: object = _field(DERIVED, None)
    #: True when a partial/unsnapshotted prefix hit made this sequence's
    #: eviction-policy state impure (rows were adopted without their vote
    #: contributions): its own boundary exports are no longer pure
    #: functions of the prefix and are registered as ``policy_state=None``.
    #: Only ever set on unbudgeted sequences, which never consult the
    #: votes, so generated tokens stay bit-identical to a cold prefill.
    prefix_tainted: bool = _field(DERIVED, False)
    #: Monotone submission index (admission-policy tie-breaker).
    submit_index: int = _field(IDENTITY, 0)
    #: Draft-model KV cache (speculative decoding).  Modeled as
    #: host-resident: it holds no device pool blocks, survives a swap
    #: (its contents are committed tokens, still valid at resume), and is
    #: dropped on recompute preemption.  ``None`` until the sequence's
    #: first speculative round, or when speculation is off.
    draft_cache: object = _field(HOST, None)
    #: Family id (the root request's id) when this sequence belongs to a
    #: fork family (parallel sampling or beam search); ``None`` otherwise.
    family: object = _field(IDENTITY, None)
    #: Branch index within the family (0 = the root sequence).
    branch_index: int = _field(IDENTITY, 0)
    #: Cumulative log-probability of the generated tokens (beam scoring).
    cum_logprob: float = _field(RECORD, 0.0)

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


#: The lifecycle table: ``kind -> (source statuses, target status,
#: dropped, set)``.  ``dropped`` names lifetimes (or single fields) the
#: transition resets to their defaults; ``set`` names the fields the
#: caller passes; every other field is kept.  A ``None`` target takes
#: ``status`` from the caller.
LIFECYCLE = {
    # A recompute resume re-admits too; it keeps its RNG (tokens already
    # sampled never consume the stream twice).
    "admit": ("queued preempted", "prefilling", "", "prompt_tokens policy cache"),
    "prefill_done": ("prefilling", "running", "", "logits position"),
    # Pending logits, the draft cache and the trie cursor survive.
    "swap_out": ("prefilling running", "swapped", "device", ""),
    # Back to the status the swap image recorded.
    "swap_in": ("swapped", None, "", "status cache policy"),
    "recompute": ("prefilling running", "preempted", "device host derived", ""),
    # A new branch: a copy of the parent (its logs copied, not shared)
    # with its own request, a fresh RNG, a deep-copied policy and a
    # forked cache; its preemption count restarts at 0.
    "fork": (
        "running", "running", "preemptions",
        "request submit_index branch_index rng policy cache",
    ),
    "finish": ("running", "finished", "device host", "finished_at finish_reason"),
}


def _compile(sources, target, dropped, sets):
    dropped = set(dropped.split())
    writes = [
        (f.name, f.default)
        for f in fields(SequenceState)
        if {f.name, f.metadata.get("lifetime")} & dropped
    ]
    if target is not None:
        writes.append(("status", target))
    return frozenset(sources.split()), writes, frozenset(sets.split())


#: Each transition's ``(sources, writes, set)``, built once at import:
#: ``writes`` are the dropped fields' defaults and the target status.
_COMPILED = {kind: _compile(*row) for kind, row in LIFECYCLE.items()}
#: Fields a fork copies instead of sharing (the per-sequence logs).
_COPIED = [f.name for f in fields(SequenceState) if f.default_factory is not MISSING]


def transition(state, kind, **values):
    """Apply lifecycle transition ``kind`` (a :data:`LIFECYCLE` row) to
    ``state`` and return it — for ``"fork"``, the new branch state,
    leaving the parent untouched.

    Raises ``ValueError`` when ``state`` is not in one of the row's
    source statuses or ``values`` are not exactly the row's set fields.
    """
    sources, writes, sets = _COMPILED[kind]
    if state.status not in sources or values.keys() != sets:
        raise ValueError(f"illegal {kind} from {state.status!r}: {sorted(values)}")
    if kind == "fork":
        parent, state = state, copy.copy(state)
        for name in _COPIED:
            setattr(state, name, list(getattr(parent, name)))
    for name, value in (*writes, *values.items()):
        setattr(state, name, value)
    return state


def prefix_cursor(state):
    """``state.prefix_node`` under the field's one rule: the trie may
    evict a node whose blocks the sequence does not hold (a swapped-in
    sequence restored into private blocks), and a registrant whose node
    is ``detached`` stops registering — the field drops to ``None``."""
    node = state.prefix_node
    if node is not None and node.detached:
        node = state.prefix_node = None
    return node

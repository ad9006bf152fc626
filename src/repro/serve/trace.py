"""Per-round hardware trace of a scheduler run.

The :class:`~repro.serve.scheduler.Scheduler` records, for every round
it executes, exactly the quantities the accelerator cycle model needs to
price that round: which sequences prefilled (and how many prompt rows
they actually computed, after prefix-cache hits), and which sequences
decoded a window (its rows, and the cache length its first row's
attention ran against).  The :class:`~repro.serve.cosim.ServingCoSimulator` replays
this trace through :class:`repro.accel.simulator.AcceleratorSimulator`
without re-running the model.

The trace is *honest*: it records work the scheduler performed.  The one
engine/scheduler divergence — the dead decode step the solo
:class:`~repro.core.engine.GenerationEngine` spends on the final token of
a length-capped request, which the scheduler's loop skips — is recorded
separately in ``dead_steps``; the co-simulator always prices it, as
compute that yields no token, which keeps the batch-1 replay
cycle-identical to the solo co-simulator.  One caveat under speculative
decoding: a request whose length cap lands *inside* a verify window
records no dead step — the round's forward already computed (and the
co-simulator already prices) the window rows past the final token, so a
separate dead step would double-charge that work.

A decode *window* is one record, whatever its shape: a
:class:`DecodeEvent` carries the sequence's pending token plus any draft
proposals it verified in the round's forward.  A plain, sampled or beam
step is a one-row window with no proposals; a speculative window adds
``proposed`` rows, the accept/reject outcome and the draft model's
propose work, which the co-simulator needs to relate modeled speedup to
measured accept rate.

Worked example — a one-round trace priced by hand::

    >>> from repro.serve.trace import DecodeEvent, PrefillEvent, RoundTrace
    >>> round0 = RoundTrace(round_index=0)
    >>> round0.prefills.append(
    ...     PrefillEvent("r0", prompt_length=16, computed_tokens=12,
    ...                  prefix_length=4, budgeted=True)
    ... )
    >>> round0.decodes.append(
    ...     DecodeEvent("r1", attention_length=33, budgeted=False)
    ... )

A speculative window of one proposal that the target accepted computes
two rows, at causal widths 41 and 42, and is credited the accepted
token plus the bonus token its last row leaves pending::

    >>> round0.decodes.append(
    ...     DecodeEvent("r2", attention_length=41, rows=2, proposed=1,
    ...                 accepted=1, tokens=2, draft_prefill_rows=1,
    ...                 draft_prefill_prior=40)
    ... )
    >>> round0.num_prefills, round0.num_decodes, round0.computed_prefill_tokens
    (1, 2, 12)
    >>> sum(window.rows for window in round0.decodes), round0.tokens
    (3, 4)
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DecodeEvent",
    "ForkEvent",
    "PrefillEvent",
    "RoundTrace",
    "SwapEvent",
    "SWAP_OUT",
    "SWAP_IN",
]

#: :attr:`SwapEvent.direction` values.
SWAP_OUT = "out"
SWAP_IN = "in"


@dataclass
class PrefillEvent:
    """One admission's prefill work within a round.

    Attributes
    ----------
    request_id:
        The admitted request.
    prompt_length:
        Full prompt length of the request (NOT the rows of this event —
        under chunked prefill one prompt spans several events).
    computed_tokens:
        Prompt rows actually computed this round (this chunk's rows).
    prefix_length:
        Context already resident when this event's rows ran: prompt rows
        adopted from the prefix cache plus rows computed by earlier
        chunks.  The co-simulator prices the event as a continuation
        prefill of ``computed_tokens`` rows over ``prefix_length``
        resident entries.
    budgeted:
        Whether a KV budget is active for this sequence.  Recorded for
        trace completeness (e.g. future energy accounting); the
        co-simulator charges vote HBM traffic per *decode* step only,
        matching the solo simulator's accounting.
    final:
        Whether this event completes the prompt — only then does the
        round's sampling pass produce the request's first token.  Always
        true for whole-prompt prefill; under chunked prefill only the
        last chunk is final.  The co-simulator anchors TTFT on it.
    """

    request_id: object
    prompt_length: int
    computed_tokens: int
    prefix_length: int = 0
    budgeted: bool = False
    final: bool = True


@dataclass
class DecodeEvent:
    """One sequence's decode window within a round.

    A window is the sequence's pending token plus the draft proposals
    (if any) it verified, computed as consecutive rows of the round's
    one :meth:`~repro.models.inference.CachedTransformer.step_batch`.
    The co-simulator prices every row as an entry of the round's batched
    decode pass at its exact causal width (``attention_length + i`` for
    row ``i``): linear weights are fetched once for the whole round and
    amortized over every row — the speculative win — while attention
    stays per-row.  Draft work is priced on a second simulator built
    from the draft model's shapes.  Rejected rows are wasted work: they
    are priced in full but contribute no tokens.

    Attributes
    ----------
    request_id:
        The decoding request.
    attention_length:
        Entries the window's first row attended over: the cache length
        before the window plus the appended pending token
        (append-then-evict).
    budgeted:
        Whether a KV budget is active for this sequence (prices the vote
        read/write HBM traffic per row, paper Sec. V).
    dead:
        True for the engine-compatibility dead step of a length-capped
        request (see module docstring); recorded under
        ``RoundTrace.dead_steps``, never under ``decodes``.
    rows:
        Target rows computed: the pending token plus every draft
        proposal (``proposed + 1``); 1 for a plain step.
    proposed:
        Draft tokens proposed this round (``k_eff``); 0 for a plain step.
    accepted:
        Draft tokens the target accepted (greedy exact-match prefix).
    tokens:
        Tokens this window's compute is credited with: the accepted
        tokens appended this round, plus one for the pending logits the
        next round's sampling pass consumes (0 extra if the sequence
        finished mid-window) — 1 for a plain step, 0 for a dead step.
        Summed over a request's windows this telescopes to exactly its
        generated-token count.
    draft_prefill_rows:
        Catch-up rows the draft model prefilled this round (tokens
        committed since its cache last ran ahead; at least 1 — the
        pending token — in a speculative window, 0 in a plain one).
    draft_prefill_prior:
        Draft-cache entries resident before the catch-up prefill.
    draft_decode_lengths:
        Post-append draft-cache attention lengths of the ``proposed - 1``
        single-token draft steps taken after the catch-up prefill.
    """

    request_id: object
    attention_length: int
    budgeted: bool = False
    dead: bool = False
    rows: int = 1
    proposed: int = 0
    accepted: int = 0
    tokens: int = 1
    draft_prefill_rows: int = 0
    draft_prefill_prior: int = 0
    draft_decode_lengths: tuple = ()


@dataclass
class SwapEvent:
    """One sequence's KV transfer between HBM and the host pool.

    Recorded when the scheduler preempts with ``preempt="swap"`` (swap
    out) and when a swapped sequence is re-admitted (swap in).  The
    co-simulator prices each event as an HBM<->host transfer over the
    hardware configuration's host link
    (:attr:`repro.accel.config.HardwareConfig.host_link_gb_s`).

    Attributes
    ----------
    request_id:
        The preempted / resumed request.
    direction:
        ``"out"`` (HBM -> host) or ``"in"`` (host -> HBM).
    kv_slots:
        KV slots moved *per layer* (the same per-layer convention as
        :attr:`DecodeEvent.attention_length`); the co-simulator scales by
        the priced model's ``n_layers`` and ``d_model`` to get bytes.
    blocks:
        Pool blocks the sequence released (out) or allocated (in), over
        all layers; 0 when served dense (dense swap moves the same bytes
        but holds no pool blocks).
    """

    request_id: object
    direction: str
    kv_slots: int
    blocks: int = 0


@dataclass
class ForkEvent:
    """One sequence forked into a branch within a round.

    Recorded when a fork family spawns a branch — at prefill completion
    for parallel sampling (``Request(n=)``), or mid-decode when a beam
    branch keeps several surviving successors (``Request(beam_width=)``).
    A fork produces no tokens; its hardware cost is the KV state the
    branch had to *duplicate*.  In paged mode that is zero slots — the
    branch adopts every parent block copy-on-write and pays only block-
    table metadata — while a dense fork copies the whole slab.  The
    co-simulator prices ``copied_slots`` as an HBM read+write pass, which
    is exactly the traffic paging avoids (the shared-prompt-blocks win).

    Attributes
    ----------
    request_id:
        The parent sequence that forked.
    child_id:
        The new branch's request id.
    kv_slots:
        KV slots resident in the parent *per layer* at fork time (the
        same per-layer convention as :attr:`SwapEvent.kv_slots`).
    blocks:
        Pool blocks the branch adopted copy-on-write over all layers
        (0 when served dense).
    copied_slots:
        KV slots per layer the fork physically duplicated: ``kv_slots``
        for a dense fork, 0 for a paged CoW fork.
    """

    request_id: object
    child_id: object
    kv_slots: int
    blocks: int = 0
    copied_slots: int = 0


@dataclass
class RoundTrace:
    """Everything the hardware executed in one scheduler round."""

    round_index: int
    #: Admissions prefilled this round.
    prefills: list = field(default_factory=list)
    #: Decode windows taken this round, one per running sequence, in
    #: commit order: plain steps and speculative windows alike.
    decodes: list = field(default_factory=list)
    #: Dead steps of requests that retired by ``max_new_tokens`` this
    #: round — work the solo engine performs but the scheduler skips.
    #: Every event here carries ``dead=True``; the co-simulator validates
    #: the flag instead of inferring deadness from list membership.
    dead_steps: list = field(default_factory=list)
    #: KV swap transfers performed this round (``preempt="swap"`` only).
    swaps: list = field(default_factory=list)
    #: Branch forks performed this round (``Request(n=)`` /
    #: ``Request(beam_width=)`` families only).  Forks yield no tokens;
    #: see :class:`ForkEvent` for what the co-simulator prices.
    forks: list = field(default_factory=list)

    @property
    def busy(self):
        """Whether the hardware did any work this round, whether or not
        a token came out: a chunked-prefill-only round, a dead step, a
        swap or a fork costs cycles too.  The scheduler records only
        busy rounds, and the co-simulator prices only busy rounds."""
        return bool(
            self.prefills
            or self.decodes
            or self.dead_steps
            or self.swaps
            or self.forks
        )

    @property
    def num_prefills(self):
        return len(self.prefills)

    @property
    def num_decodes(self):
        return len(self.decodes)

    @property
    def num_swaps(self):
        return len(self.swaps)

    @property
    def num_forks(self):
        return len(self.forks)

    @property
    def swapped_kv_slots(self):
        """Per-layer KV slots moved over the host link this round."""
        return sum(event.kv_slots for event in self.swaps)

    @property
    def forked_copied_slots(self):
        """Per-layer KV slots physically duplicated by this round's
        forks (0 for paged CoW forks — the whole point of sharing)."""
        return sum(event.copied_slots for event in self.forks)

    @property
    def computed_prefill_tokens(self):
        """Prompt rows computed this round (prefix hits excluded)."""
        return sum(event.computed_tokens for event in self.prefills)

    @property
    def tokens(self):
        """Tokens attributable to this round's compute: every *final*
        prefill produces logits that get sampled, and every live decode
        window is credited its ``tokens`` (1 for a plain step, accepted
        plus bonus for a speculative window).  Non-final chunked-prefill
        events and dead steps do work but yield no token."""
        return sum(1 for event in self.prefills if event.final) + sum(
            event.tokens for event in self.decodes
        )

"""Async serving engine: streaming submission and per-request handles
over the continuous-batching scheduler.

:class:`~repro.serve.scheduler.Scheduler.run` drains a pre-submitted
queue — fine for replaying a fixed trace, but not a server.  This module
wraps the scheduler in an event-driven :class:`ServingEngine`:

- **Streaming submission.**  :meth:`ServingEngine.submit` may be called
  at any point — before the loop starts, between rounds, from inside a
  ``run_forever`` consumer — and returns a :class:`RequestHandle` with
  incremental token retrieval (:meth:`RequestHandle.new_tokens`), live
  status, and per-request latency metrics.  The engine owns the round
  clock (it steps :meth:`Scheduler.run_round` itself, never the idle
  gap-skipping :meth:`Scheduler.run`), so a request can always still
  arrive "now".
- **Structured rejections.**  Unsatisfiable requests come back as
  structured rejections on the handle (and in
  ``ServingReport.rejections``) instead of raising, so callers can retry
  or degrade.

Every constructor keyword goes to the :class:`Scheduler`, so chunked
prefill (``prefill_chunk=N``: long prompts prefilled in N-token chunks
interleaved with decode rounds, tokens bit-identical to whole-prompt
prefill) and SLA-aware admission (``admission="edf"``, or any
:class:`~repro.serve.request.AdmissionPolicy`) are scheduler settings
the engine passes through.

The simulated clock is the scheduler round; arrival processes live in
:func:`repro.experiments.serving.make_workload` (Poisson / bursty
streams, heavy-tailed prompt lengths) and are fed through
:meth:`ServingEngine.play`.  TTFT and deadline-miss metrics flow into
:class:`~repro.serve.scheduler.ServingReport` and — via the per-round
trace's ``final`` prefill markers — into hardware cycles in
:class:`~repro.serve.cosim.ServingCoSimReport`.

Worked example — stream two requests through a chunked-prefill engine::

    >>> import numpy as np
    >>> from repro.config import tiny_config
    >>> from repro.models.inference import CachedTransformer
    >>> from repro.models.transformer import TransformerLM
    >>> from repro.serve import Request
    >>> from repro.serve.engine import ServingEngine
    >>> model = CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))
    >>> engine = ServingEngine(model, admission="edf", prefill_chunk=8,
    ...                        max_batch_size=2)
    >>> loop = engine.run_forever()
    >>> h0 = engine.submit(Request("r0", np.arange(20), max_new_tokens=4,
    ...                            deadline=30))
    >>> tick = next(loop)           # round 0: first 8-token prompt chunk
    >>> tick.admitted, tick.tokens, h0.status
    (['r0'], {}, 'prefilling')
    >>> ticks = [next(loop) for _ in range(2)]   # chunks land; first token
    >>> h0.new_tokens() == h0.tokens and len(h0.tokens)
    1
    >>> h1 = engine.submit(Request("r1", np.arange(6) + 3, max_new_tokens=2,
    ...                            deadline=12))   # arrives mid-run, at round 3
    >>> engine.close(); remaining = [t for t in loop]    # drain
    >>> h0.done and h1.done, h0.ttft_rounds, h1.deadline_missed
    (True, 2, False)
    >>> report = engine.report()
    >>> report.deadline_misses, len(report.requests)
    (0, 2)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.serve.cosim import ServingCoSimulator
from repro.serve.request import FINISHED, Rejection, Request
from repro.serve.scheduler import Scheduler

__all__ = [
    "RequestHandle",
    "EngineTick",
    "ServingEngine",
]


# ----------------------------------------------------------------------
# Handles and ticks
# ----------------------------------------------------------------------
class RequestHandle:
    """Client-side view of one submitted request.

    A handle is live from :meth:`ServingEngine.submit` on: it tracks the
    request through queueing, (chunked) prefill, decode, and retirement,
    exposing generated tokens incrementally while the loop runs — the
    streaming-retrieval half of an async server.  A handle whose
    submission was rejected reports ``status == "rejected"`` and carries
    the structured :class:`~repro.serve.request.Rejection`.
    """

    def __init__(self, request, state, rejection=None):
        self.request = request
        self._state = state
        #: Structured rejection record, or ``None`` when accepted.
        self.rejection = rejection
        self._cursor = 0

    @property
    def request_id(self):
        return self.request.request_id

    @property
    def status(self):
        """``queued`` / ``prefilling`` / ``running`` / ``finished`` /
        ``rejected`` — plus, under two-way scheduling
        (``preempt="recompute"|"swap"``), the transient ``preempted`` /
        ``swapped`` states of a sequence evicted from the batch and
        awaiting re-admission."""
        if self.rejection is not None:
            return "rejected"
        return self._state.status

    @property
    def done(self):
        """Finished or rejected: no further tokens will appear."""
        return self.rejection is not None or self._state.status == FINISHED

    @property
    def tokens(self):
        """All tokens generated so far (empty when rejected)."""
        if self.rejection is not None:
            return []
        return list(self._state.tokens)

    def new_tokens(self):
        """Tokens generated since the previous ``new_tokens`` call — the
        incremental-retrieval primitive (each call advances a cursor)."""
        tokens = self.tokens
        fresh = tokens[self._cursor :]
        self._cursor = len(tokens)
        return fresh

    def result(self):
        """The full generation; raises until :attr:`done`."""
        if self.rejection is not None:
            raise RuntimeError(
                f"request {self.request_id!r} was rejected: "
                f"{self.rejection.detail}"
            )
        if not self.done:
            raise RuntimeError(f"request {self.request_id!r} is still live")
        return self.tokens

    # -- latency metrics (None/False until known) ----------------------
    @property
    def ttft_rounds(self):
        """Rounds from arrival to the first token (``None`` until it
        exists, or when rejected)."""
        return None if self.rejection is not None else self._state.ttft_rounds

    @property
    def inter_token_rounds(self):
        """Mean rounds between consecutive tokens so far."""
        return 0.0 if self.rejection is not None else self._state.inter_token_rounds

    @property
    def deadline_missed(self):
        """True once the request finished after its deadline."""
        return (
            False if self.rejection is not None else self._state.deadline_missed
        )

    @property
    def finish_reason(self):
        return None if self.rejection is not None else self._state.finish_reason


@dataclass
class EngineTick:
    """What one engine round produced (yielded by :meth:`run_forever`)."""

    round_index: int
    #: Request ids admitted into the batch this round.
    admitted: list = field(default_factory=list)
    #: Request ids retired this round.
    finished: list = field(default_factory=list)
    #: ``request_id -> [tokens]`` sampled this round (one each, but kept
    #: as lists so consumers can concatenate without special cases).
    tokens: dict = field(default_factory=dict)

    @property
    def produced(self):
        """Total tokens sampled this round."""
        return sum(len(ts) for ts in self.tokens.values())


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _play_arrivals(server, requests, drain=True):
    """Feed a pre-timed workload into ``server`` (a
    :class:`ServingEngine` or a :class:`~repro.serve.fleet.ServingFleet`)
    on its simulated clock.

    Each request is submitted when ``server.now`` reaches its
    ``arrival_time``; while the server is drained the clock skips ahead
    to the next arrival.  Returns the handles in workload order
    (``requests`` may be any iterable); with ``drain=True`` the backlog
    is then served to completion.
    """
    requests = list(requests)
    pending = sorted(requests, key=lambda r: r.arrival_time)
    handles = {}
    index = 0
    while index < len(pending):
        if server.drained and pending[index].arrival_time > server.now:
            server.skip_to(pending[index].arrival_time)
        while index < len(pending) and pending[index].arrival_time <= server.now:
            request = pending[index]
            handles[request.request_id] = server.submit(request)
            index += 1
        if index < len(pending):
            server.step()
    if drain:
        server.run_until_drained()
    return [handles[r.request_id] for r in requests]


class ServingEngine:
    """Event-driven serving loop over a :class:`Scheduler`.

    Parameters
    ----------
    model:
        A :class:`repro.models.inference.CachedTransformer`.
    scheduler_kwargs:
        Forwarded unchanged to the :class:`Scheduler`: ``admission`` (a
        policy name or :class:`~repro.serve.request.AdmissionPolicy`,
        default ``"fifo"``), ``prefill_chunk``, ``max_batch_size``,
        ``paged``, ``block_size``, ``num_blocks``, ``prefix_caching``,
        ``preempt``, ...  With
        ``preempt="recompute"`` or ``"swap"``, an arrived request that
        strictly outranks a running sequence under the admission policy
        (earlier deadline under EDF, higher effective priority under
        priority-with-aging) preempts it when no slot or blocks are
        free — deadline pressure becomes two-way scheduling.

    The engine owns the simulated clock: one :meth:`step` = one
    scheduler round, with no idle fast-forward, so submissions can keep
    arriving during gaps.  Use :meth:`play` to
    feed a pre-timed workload (an arrival process) through the
    streaming path, or drive :meth:`run_forever` yourself.
    """

    def __init__(self, model, **scheduler_kwargs):
        self.scheduler = Scheduler(model, **scheduler_kwargs)
        self._handles = {}
        self._token_counts = {}
        self._finished_seen = 0
        self._closed = False
        self._wall = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self):
        """The current simulated time (scheduler round index)."""
        return self.scheduler.round_index

    @property
    def drained(self):
        """No live work: every submitted request retired or rejected."""
        return self.scheduler.done

    def skip_to(self, round_index):
        """Jump the idle clock forward (never backward) to
        ``round_index`` — the engine-side counterpart of
        :meth:`Scheduler.run`'s idle fast-forward."""
        if round_index > self.scheduler.round_index:
            self.scheduler.round_index = int(round_index)

    # ------------------------------------------------------------------
    # Router introspection (fleet placement signals)
    # ------------------------------------------------------------------
    @property
    def outstanding_tokens(self):
        """Tokens of work still owed to this engine's live requests."""
        return self.scheduler.outstanding_tokens

    @property
    def free_kv_capacity(self):
        """Free KV blocks (paged) or batch slots (dense)."""
        return self.scheduler.free_kv_capacity

    def prefix_probe(self, request):
        """Longest cached prefix (tokens) this engine's radix trie holds
        for ``request``'s prompt; a pure read (no LRU/counter effects)."""
        return self.scheduler.prefix_probe(request)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request) -> RequestHandle:
        """Submit a request — before, during, or between loop rounds.

        A request cannot arrive in the past: an ``arrival_time`` earlier
        than :attr:`now` is bumped to :attr:`now` on a *copy* (the
        caller's request is never mutated, so a workload list can be
        replayed through several engines; a deadline the clock has
        already passed is bumped along — it is due immediately).  Future
        arrivals are honored, becoming visible to admission when the
        clock reaches them.  Returns a live :class:`RequestHandle`; an
        unsatisfiable request yields a handle with ``status ==
        "rejected"`` and the structured reason, rather than raising —
        the engine-level caller decides whether to retry smaller or
        give up.

        Raises
        ------
        RuntimeError
            After :meth:`close`: the loop's forever contract has ended,
            so a new submission would sit queued with nothing left to
            serve it.
        """
        if self._closed:
            raise RuntimeError(
                "engine is closed; submissions would never be served"
            )
        if not isinstance(request, Request):
            raise TypeError(f"expected Request, got {type(request).__name__}")
        if request.arrival_time < self.now:
            deadline = request.deadline
            if deadline is not None and deadline < self.now:
                deadline = self.now
            request = replace(
                request, arrival_time=self.now, deadline=deadline
            )
        outcome = self.scheduler.submit(request, strict=False)
        if isinstance(outcome, Rejection):
            handle = RequestHandle(request, None, rejection=outcome)
        else:
            handle = RequestHandle(request, outcome)
        self._handles[request.request_id] = handle
        return handle

    def handle(self, request_id) -> RequestHandle:
        """The handle of a submitted request."""
        return self._handles[request_id]

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def step(self) -> EngineTick:
        """Advance the simulation by one round; returns what happened."""
        scheduler = self.scheduler
        running_before = {s.request_id for s in scheduler._running}
        start = time.perf_counter()
        scheduler.run_round()
        self._wall += time.perf_counter() - start

        tick = EngineTick(round_index=scheduler.round_index - 1)
        newly_finished = scheduler._finished[self._finished_seen :]
        tick.finished = [s.request_id for s in newly_finished]
        self._finished_seen = len(scheduler._finished)
        for state in list(scheduler._running) + newly_finished:
            rid = state.request_id
            if rid not in running_before and state.admitted_at is not None:
                tick.admitted.append(rid)
            seen = self._token_counts.get(rid, 0)
            if state.num_generated > seen:
                tick.tokens[rid] = list(state.tokens[seen:])
                self._token_counts[rid] = state.num_generated
        return tick

    def run_forever(self):
        """Generator form of the loop: yields an :class:`EngineTick` per
        round, forever — until :meth:`close` is called *and* all live
        work has drained.  Submissions may happen between ``next()``
        calls (that is the point)."""
        while not (self._closed and self.scheduler.done):
            yield self.step()

    def close(self):
        """Stop accepting the loop's forever contract: ``run_forever``
        exits once the backlog drains."""
        self._closed = True

    def run_until_drained(self):
        """Step until every submitted request has retired; returns the
        ticks executed."""
        ticks = []
        while not self.scheduler.done:
            ticks.append(self.step())
        return ticks

    def play(self, requests, drain=True):
        """Feed a pre-timed workload through the streaming path.

        Each request is submitted when the simulated clock reaches its
        ``arrival_time`` (idle gaps are skipped), exactly as an external
        arrival process would drive a server.  Returns the handles, in
        workload order (``requests`` may be any iterable, including a
        generator).  With ``drain=True`` the backlog is served to
        completion; otherwise the caller keeps stepping.
        """
        return _play_arrivals(self, requests, drain)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self):
        """The :class:`~repro.serve.scheduler.ServingReport` so far
        (TTFT, per-token latency, deadline misses, rejections)."""
        return self.scheduler.report(self._wall)

    def tokens_for(self, request_id):
        """Generated tokens of a retired request."""
        return self.scheduler.tokens_for(request_id)

    def cosim(
        self,
        hw=None,
        hw_model=None,
        dataflow="auto",
    ):
        """Price the run's recorded trace on the accelerator cycle
        model; the returned report includes per-request TTFT in cycles
        (anchored on each request's final prefill event)."""
        return ServingCoSimulator(
            scheduler=self.scheduler,
            hw=hw,
            hw_model=hw_model,
            dataflow=dataflow,
        ).replay()

"""Serving-scale algorithm/hardware co-simulation.

:class:`repro.cosim.CoSimulator` closes the algorithm/hardware loop for
one sequence: the real engine generates, and the measured cache-length
trajectory is priced by the accelerator cycle model.  This module closes
the same loop for the *serving* path: a
:class:`~repro.serve.scheduler.Scheduler` run leaves behind a per-round
trace (:mod:`repro.serve.trace`) of mixed prefill/decode work with the
real per-sequence cache lengths produced by the eviction policies (dense
or paged), and :class:`ServingCoSimulator` replays that trace through
:meth:`repro.accel.simulator.AcceleratorSimulator.mixed_round`.

Per-phase dataflow selection (paper's flexible PE-array mapping) is the
serving-scale knob: ``dataflow="auto"`` reconfigures the array between
the tiled mapping for prefill rows and the streaming mapping for decode
rows within each round, while ``"prefill"`` / ``"decode"`` pin the array
to one fixed mapping for the whole run.  :func:`compare_dataflows`
quantifies the win of flexibility over either fixed choice on the same
trace.

Latency accounting: every request's TTFT is priced in cycles — from the
cycles accumulated when it arrived to the end of the round pricing its
*final* prefill event (the round whose sampling pass yields its first
token) — and ``max_round_cycles`` exposes the worst single round, the
head-of-line prefill spike that chunked prefill
(``Scheduler(prefill_chunk=...)``) exists to cap.

Preemption accounting: a ``preempt="swap"`` scheduler records
:class:`~repro.serve.trace.SwapEvent` rows, which are priced here as
HBM<->host transfers over the hardware configuration's
:attr:`~repro.accel.config.HardwareConfig.host_link_gb_s` link
(``swap_cycles`` / ``swap_bytes``, serialized into ``total_cycles``).  A
``preempt="recompute"`` scheduler instead re-prefills preempted
sequences, so its overhead shows up as extra prefill rows and compute
cycles — replaying both modes on the same overload trace exposes the
recompute-vs-swap crossover as sequence length grows (transfer bytes
scale linearly with resident KV, re-prefill compute superlinearly).

Speculative-decoding accounting: a ``draft_model`` scheduler records
decode windows that carry proposals
(:attr:`~repro.serve.trace.DecodeEvent.proposed` > 0).  Every row of
such a window joins the round's ``mixed_round`` as an extra *batched
decode* entry at its exact causal width — the round's one
linear weight fetch is amortized over every decode step *and* every
verify row, while attention stays per-row — exactly how the scheduler's
one ``CachedTransformer.step_batch`` per round computes them.  That
amortization is the speculative win: a memory-bound target commits up
to ``k + 1`` tokens per weight fetch instead of one per batch slot.
The draft model's
catch-up prefill and propose steps are priced on a second simulator
built from the draft model's shapes (``hw_draft_model``) and serialized
into ``total_cycles`` (propose must finish before verify can start).
Rejected rows are priced in full but yield no tokens, so
``tokens_per_second`` reflects the *modeled* speedup as a function of
the measured accept rate.

Equivalence anchor: at batch size 1 the replay is cycle-identical to
the solo co-simulator — same per-step attention cycles, same total
decode cycles — ``tests/serve/test_serving_cosim.py`` locks this in.
That requires pricing the dead decode step the solo engine spends on
the final token of a length-capped request (the scheduler's loop skips
it, recording it as a dead step).  Dead steps are validated by their
explicit ``dead`` flag (a misfiled event raises) and are priced as
compute only: the replay asserts they contribute zero tokens.

Worked example — price a hand-written two-round trace on Llama-2 7B
shapes and show flexibility beating both fixed mappings::

    >>> from repro.config import llama2_7b_shapes
    >>> from repro.serve.cosim import ServingCoSimulator
    >>> from repro.serve.trace import DecodeEvent, PrefillEvent, RoundTrace
    >>> trace = [
    ...     RoundTrace(0, prefills=[PrefillEvent("a", 64, 64)],
    ...                decodes=[DecodeEvent("b", 512)]),
    ...     RoundTrace(1, decodes=[DecodeEvent("a", 65),
    ...                            DecodeEvent("b", 513)]),
    ... ]
    >>> report = ServingCoSimulator(hw_model=llama2_7b_shapes()).replay(trace)
    >>> report.total_tokens, report.decode_steps, len(report.rounds)
    (4, 3, 2)
    >>> fixed = [
    ...     ServingCoSimulator(hw_model=llama2_7b_shapes(),
    ...                        dataflow=d).replay(trace).total_cycles
    ...     for d in ("prefill", "decode")
    ... ]
    >>> all(report.total_cycles < cycles for cycles in fixed)
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.area_power import AreaPowerModel
from repro.accel.config import HardwareConfig, veda_config
from repro.accel.scheduler import DATAFLOWS
from repro.accel.simulator import AcceleratorSimulator

__all__ = [
    "ServingCoSimReport",
    "ServingCoSimulator",
    "compare_dataflows",
    "best_dataflow",
]


@dataclass
class ServingCoSimReport:
    """Hardware outcome of replaying one scheduler trace.

    ``rounds`` holds one dict per non-empty scheduler round (keys:
    ``round``, ``prefills``, ``prefill_rows``, ``decodes``, ``cycles``,
    ``attn_cycles``, ``linear_cycles``, ``tokens``) ready for
    :func:`repro.experiments.common.format_table`.  All cycle totals are
    in accelerator clock cycles of the priced hardware configuration.
    """

    dataflow: str = "auto"
    clock_ghz: float = 1.0
    n_pe: int = 128
    rounds: list = field(default_factory=list)
    total_cycles: float = 0.0
    prefill_cycles: float = 0.0
    decode_cycles: float = 0.0
    #: Tokens produced by priced work (one per prefill, one per real
    #: decode step); dead steps never count as tokens.
    total_tokens: int = 0
    #: Prompt rows actually computed (prefix-cache hits excluded).
    prefill_tokens: int = 0
    #: Real decode steps priced (dead steps excluded).
    decode_steps: int = 0
    #: Engine-compatibility dead steps priced.
    dead_steps: int = 0
    #: Speculative verify passes priced (0 when not speculating).
    verify_passes: int = 0
    #: Target rows computed by verify passes (accepted or not — rejected
    #: rows are priced as wasted work).
    verify_rows: int = 0
    #: Draft tokens proposed / accepted across the trace.
    spec_proposed: int = 0
    spec_accepted: int = 0
    #: Tokens credited to verify passes (their ``tokens`` fields summed).
    spec_tokens: int = 0
    #: Draft-model cycles (catch-up prefills + propose steps), priced on
    #: the draft shapes and serialized into ``total_cycles``.
    draft_cycles: float = 0.0
    macs: float = 0.0
    hbm_bytes: float = 0.0
    #: KV swap transfers priced (``preempt="swap"`` traces only; always
    #: zero for ``off`` and ``recompute`` runs).
    swap_events: int = 0
    #: HBM <-> host bytes moved by KV swapping (keys + values of every
    #: swapped slot, at the priced model's shapes).
    swap_bytes: float = 0.0
    #: Cycles the host link spends on those transfers, serialized into
    #: ``total_cycles`` (swap traffic is never free).
    swap_cycles: float = 0.0
    #: Branch forks priced (fork-family traces only).
    fork_events: int = 0
    #: HBM bytes dense forks spent duplicating KV slabs (read + write of
    #: every copied slot); 0 for paged CoW forks — the sharing win.
    fork_bytes: float = 0.0
    #: HBM cycles of those copies, serialized into ``total_cycles``.
    fork_cycles: float = 0.0
    #: Tensor-parallel degree the trace was priced at (1 = one device).
    tp: int = 1
    #: All-reduce traffic over the inter-cluster link (``tp > 1`` only),
    #: already folded into the per-round cycles by the simulator.
    interconnect_cycles: float = 0.0
    interconnect_bytes: float = 0.0
    #: request_id -> all-layer attention cycles per priced decode step,
    #: in step order (includes the dead step) — directly
    #: comparable to ``CoSimResult.attention_cycles_per_step``.
    per_request_attention: dict = field(default_factory=dict)
    #: All priced decode steps' attention cycles, in replay order.
    decode_attention_per_step: list = field(default_factory=list)
    #: request_id -> time-to-first-token in accelerator cycles: from the
    #: cycles accumulated when the request arrived (0 when arrivals are
    #: unknown) to the end of the round pricing its *final* prefill
    #: event — the round whose sampling pass produces the first token.
    ttft_cycles: dict = field(default_factory=dict)
    #: Modeled energy of the whole trace in joules (PE dynamic per MAC +
    #: DRAM per byte + non-array background power over the modeled
    #: wall-clock; see
    #: :meth:`repro.accel.area_power.AreaPowerModel.run_energy_joules`).
    energy_joules: float = 0.0

    @property
    def wall_seconds(self):
        """Modeled wall-clock of the whole run on the accelerator."""
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def tokens_per_second(self):
        """Batched hardware throughput over the whole trace."""
        return self.total_tokens / self.wall_seconds if self.total_cycles else 0.0

    @property
    def max_round_cycles(self):
        """Worst single round — the head-of-line latency spike a whole
        long-prompt prefill causes (chunked prefill exists to cap it)."""
        return max((r["cycles"] for r in self.rounds), default=0.0)

    @property
    def mean_ttft_cycles(self):
        """Mean time-to-first-token in accelerator cycles (0.0 when no
        prefill completed)."""
        if not self.ttft_cycles:
            return 0.0
        return sum(self.ttft_cycles.values()) / len(self.ttft_cycles)

    @property
    def p95_ttft_cycles(self):
        """95th-percentile TTFT in accelerator cycles — the tail-latency
        number cost-guided chunking is judged on (0.0 when empty)."""
        if not self.ttft_cycles:
            return 0.0
        return float(np.percentile(list(self.ttft_cycles.values()), 95))

    @property
    def joules_per_token(self):
        """Modeled energy per produced token (0.0 on an empty trace)."""
        return self.energy_joules / self.total_tokens if self.total_tokens else 0.0

    @property
    def utilization(self):
        """Achieved MAC-lane occupancy (achieved / peak throughput)."""
        return self.macs / (self.total_cycles * self.n_pe) if self.total_cycles else 0.0

    @property
    def accept_rate(self):
        """Fraction of proposed draft tokens the target accepted (0.0
        without speculation)."""
        return self.spec_accepted / self.spec_proposed if self.spec_proposed else 0.0

    @property
    def tokens_per_target_pass(self):
        """Mean tokens credited per verify pass — the speculative
        amortization, the same quantity as
        :attr:`repro.serve.scheduler.ServingReport.tokens_per_target_pass`
        (1.0 would match plain decode; 0.0 without speculation)."""
        return self.spec_tokens / self.verify_passes if self.verify_passes else 0.0

    def summary(self):
        """Flat dict of the aggregate metrics (for experiment tables)."""
        summary = {
            "dataflow": self.dataflow,
            "rounds": len(self.rounds),
            "cycles": self.total_cycles,
            "prefill_cycles": self.prefill_cycles,
            "decode_cycles": self.decode_cycles,
            "tokens": self.total_tokens,
            "hw_tokens/s": self.tokens_per_second,
            "utilization": self.utilization,
            "max_round_cycles": self.max_round_cycles,
            "mean_ttft_cycles": self.mean_ttft_cycles,
            "hbm_gb": self.hbm_bytes / 1e9,
            "joules/token": self.joules_per_token,
        }
        if self.swap_events:
            summary["swap_events"] = self.swap_events
            summary["swap_cycles"] = self.swap_cycles
            summary["swap_mb"] = self.swap_bytes / 1e6
        if self.fork_events:
            summary["fork_events"] = self.fork_events
            summary["fork_cycles"] = self.fork_cycles
            summary["fork_mb"] = self.fork_bytes / 1e6
        if self.verify_passes:
            summary["verify_passes"] = self.verify_passes
            summary["accept_rate"] = self.accept_rate
            summary["tokens/pass"] = self.tokens_per_target_pass
            summary["draft_cycles"] = self.draft_cycles
        if self.tp > 1:
            summary["tp"] = self.tp
            summary["allreduce_cycles"] = self.interconnect_cycles
            summary["allreduce_mb"] = self.interconnect_bytes / 1e6
        return summary


class ServingCoSimulator:
    """Replays a scheduler trace through the accelerator cycle model.

    Parameters
    ----------
    scheduler:
        A :class:`~repro.serve.scheduler.Scheduler` whose ``trace`` to
        replay (optional when traces are passed to :meth:`replay`
        directly, in which case ``hw_model`` is required).
    hw:
        Hardware configuration (default: full VEDA).
    hw_model:
        Model config whose *shapes* are priced; defaults to the
        scheduler's own model config.  Substituting
        :func:`repro.config.llama2_7b_shapes` projects datacenter-scale
        latencies from a small-model serving trace, exactly like the
        solo co-simulator's ``hw_model`` substitution.
    dataflow:
        Round-level PE-array mapping: ``"auto"`` (reconfigure per
        phase — the paper's flexibility), ``"prefill"`` or ``"decode"``
        (pinned).  See :mod:`repro.accel.scheduler`.
    hw_draft_model:
        Model config whose shapes price the *draft* model's work when
        the trace contains speculative verify events; defaults to the
        attached scheduler's ``draft_model`` config.  Replaying a
        speculative trace without draft shapes raises — draft compute is
        the cost side of the speculation trade and must never be
        silently dropped.
    tp:
        Tensor-parallel degree: shard the priced model's heads and FFN
        across ``tp`` PE clusters and price the per-layer all-reduces
        over the hardware configuration's interconnect link.  ``tp=1``
        (default) is bit-identical to the single-device replay.

    Rounds are priced by one :class:`AcceleratorSimulator` per model
    (target, and draft when speculating), whose pricing caches stay warm
    across repeated :meth:`replay` calls on this instance — chunk shapes
    and batch depths repeat, so long traces price mostly from cache.
    """

    def __init__(
        self,
        scheduler=None,
        hw: HardwareConfig = None,
        hw_model=None,
        dataflow="auto",
        hw_draft_model=None,
        tp=1,
    ):
        if dataflow not in DATAFLOWS:
            raise ValueError(
                f"unknown dataflow {dataflow!r}, expected one of {DATAFLOWS}"
            )
        if scheduler is None and hw_model is None:
            raise ValueError("need a scheduler or an explicit hw_model")
        self.scheduler = scheduler
        self.hw = hw or veda_config()
        self.hw_model = hw_model or scheduler.model.config
        self.dataflow = dataflow
        self.tp = int(tp)
        self.simulator = AcceleratorSimulator(self.hw, self.hw_model, tp=self.tp)
        self.power_model = AreaPowerModel(self.hw)
        if hw_draft_model is None and scheduler is not None:
            draft = getattr(scheduler, "draft_model", None)
            if draft is not None:
                hw_draft_model = draft.config
        self.hw_draft_model = hw_draft_model
        self.draft_simulator = (
            AcceleratorSimulator(self.hw, hw_draft_model, tp=self.tp)
            if hw_draft_model is not None
            else None
        )

    def _scheduler_arrivals(self):
        """``request_id -> arrival round`` of every request the attached
        scheduler knows about (empty when replaying a bare trace)."""
        if self.scheduler is None:
            return {}
        scheduler = self.scheduler
        states = scheduler._finished + scheduler._running + scheduler._waiting
        return {s.request_id: s.request.arrival_time for s in states}

    def replay(self, trace=None, arrivals=None):
        """Price a per-round trace; returns a :class:`ServingCoSimReport`.

        ``trace`` defaults to the constructor scheduler's recorded
        ``trace`` (a list of :class:`~repro.serve.trace.RoundTrace`).
        The model is never re-run: replaying the same trace under
        different hardware configurations or dataflow selections is pure
        arithmetic.

        ``arrivals`` maps ``request_id -> arrival round``; it anchors
        each request's TTFT-in-cycles at the cycles accumulated when the
        simulated clock passed its arrival.  Defaults to the attached
        scheduler's request arrivals; with neither, TTFT is measured
        from the start of the trace.
        """
        if trace is None:
            if self.scheduler is None:
                raise ValueError("no trace given and no scheduler attached")
            trace = self.scheduler.trace
        if arrivals is None:
            arrivals = self._scheduler_arrivals()
        report = ServingCoSimReport(
            dataflow=self.dataflow,
            clock_ghz=self.hw.clock_ghz,
            n_pe=self.hw.n_pe,
            tp=self.tp,
        )
        n_layers = self.hw_model.n_layers
        swap_bytes_per_slot = self.simulator.swap_bytes_per_slot
        has_swaps = any(record.swaps for record in trace)
        has_forks = any(record.forks for record in trace)
        # Decided once per trace, so a non-speculative round does no
        # per-window split below.
        has_windows = any(
            event.proposed for record in trace for event in record.decodes
        )
        if has_windows and self.draft_simulator is None:
            raise ValueError(
                "trace contains speculative verify events but no draft-model "
                "shapes are available; pass hw_draft_model= or attach the "
                "speculating scheduler"
            )
        # A request's clock starts at the cycles accumulated before the
        # first priced round at or past its arrival round; trace rounds
        # are in order, so one pointer over arrival-sorted requests
        # anchors everyone in O(requests + rounds).
        arrival_cycles = {}
        pending_arrivals = sorted(arrivals.items(), key=lambda item: item[1])
        next_arrival = 0
        for record in trace:
            while (
                next_arrival < len(pending_arrivals)
                and pending_arrivals[next_arrival][1] <= record.round_index
            ):
                request_id = pending_arrivals[next_arrival][0]
                arrival_cycles[request_id] = report.total_cycles
                next_arrival += 1
            prefills = record.prefills
            # Dead steps are recognized by their explicit flag, never by
            # which list they sit in; a misfiled event is a trace bug.
            for event in record.decodes:
                if event.dead:
                    raise ValueError(
                        f"round {record.round_index}: dead decode event for "
                        f"{event.request_id!r} misfiled under "
                        "RoundTrace.decodes"
                    )
            for event in record.dead_steps:
                if not event.dead:
                    raise ValueError(
                        f"round {record.round_index}: live decode event for "
                        f"{event.request_id!r} misfiled under "
                        "RoundTrace.dead_steps"
                    )
            if not record.busy:
                continue
            # Single-row steps (plain windows, then dead steps) are
            # priced first and multi-row windows after them, in commit
            # order: the decode pass's fractional sums depend on order.
            if has_windows:
                steps = [e for e in record.decodes if not e.proposed]
                windows = [e for e in record.decodes if e.proposed]
            else:
                steps, windows = record.decodes, ()
            decode_events = [*steps, *record.dead_steps]
            decode_lengths = [e.attention_length for e in decode_events]
            # Voting-engine vote counts live off-chip (paper Sec. V):
            # UINT16 per position, read + write per step per layer, for
            # every budget-managed sequence.  Each window row of a
            # budgeted sequence observes at its own causal width.
            vote_bytes = 2 * 2 * n_layers * sum(
                event.attention_length for event in decode_events if event.budgeted
            )
            if windows:
                # Window rows join the round's batched decode pass at
                # their exact causal widths: the round's one linear
                # weight fetch is amortized over every row (the
                # speculative win), while attention is per-row — exactly
                # as they ride in the scheduler's one `step_batch` per
                # round.  They ride after the single-row steps so the
                # per-sequence attention zip below stays aligned.
                decode_lengths += [
                    w.attention_length + i for w in windows for i in range(w.rows)
                ]
                vote_bytes += 2 * 2 * n_layers * sum(
                    w.attention_length + i
                    for w in windows
                    if w.budgeted
                    for i in range(w.rows)
                )
            if prefills or decode_lengths:
                stats = self.simulator.mixed_round(
                    prefill_lengths=[e.computed_tokens for e in prefills],
                    decode_lengths=decode_lengths,
                    dataflow=self.dataflow,
                    prefix_lengths=[e.prefix_length for e in prefills],
                )
            else:
                stats = None  # swap-only round: host-link traffic alone
            # Draft-model work (catch-up prefill + propose steps) is
            # priced at the draft's shapes and serialized into the
            # round: propose must finish before verify can start.
            round_draft_cycles = 0.0
            verify_rows = 0
            if windows:
                draft_prefills = [
                    w.draft_prefill_rows for w in windows if w.draft_prefill_rows
                ]
                draft_prefix = [
                    w.draft_prefill_prior for w in windows if w.draft_prefill_rows
                ]
                draft_decodes = [
                    length for w in windows for length in w.draft_decode_lengths
                ]
                if draft_prefills or draft_decodes:
                    draft_stats = self.draft_simulator.mixed_round(
                        prefill_lengths=draft_prefills,
                        decode_lengths=draft_decodes,
                        dataflow=self.dataflow,
                        prefix_lengths=draft_prefix,
                    )
                    round_draft_cycles = draft_stats.cycles
                    report.draft_cycles += round_draft_cycles
                    report.macs += draft_stats.macs
                    report.hbm_bytes += draft_stats.hbm_bytes
                    report.interconnect_cycles += draft_stats.interconnect_cycles
                    report.interconnect_bytes += draft_stats.interconnect_bytes
                verify_rows = sum(w.rows for w in windows)
                report.verify_passes += len(windows)
                report.verify_rows += verify_rows
                report.spec_proposed += sum(w.proposed for w in windows)
                report.spec_accepted += sum(w.accepted for w in windows)
                report.spec_tokens += sum(w.tokens for w in windows)
            # Fork traffic: a dense fork duplicates every copied slot's
            # keys and values within HBM (one read + one write pass over
            # the same bytes a swap would move once over the host link);
            # a paged CoW fork copies nothing and is priced at zero —
            # the shared-prompt-blocks win made cycle-visible.
            round_fork_cycles = 0.0
            if record.forks:
                round_fork_bytes = (
                    record.forked_copied_slots * 2 * swap_bytes_per_slot
                )
                round_fork_cycles = round_fork_bytes / self.hw.bytes_per_cycle
                report.fork_events += record.num_forks
                report.fork_bytes += round_fork_bytes
                report.fork_cycles += round_fork_cycles
            round_swap_cycles = 0.0
            if record.swaps:
                round_swap_bytes = (
                    record.swapped_kv_slots * swap_bytes_per_slot
                )
                round_swap_cycles = self.simulator.swap_cycles(
                    record.swapped_kv_slots
                )
                report.swap_events += record.num_swaps
                report.swap_bytes += round_swap_bytes
                report.swap_cycles += round_swap_cycles
            # Each aggregate of the priced round is read once: every
            # MixedRoundStats aggregate re-sums its prefills.  A
            # decode-only round's aggregates are its decode pass's own
            # fields (the empty prefill sum adds an exact 0).
            if stats is not None:
                totals = stats.decode if not stats.prefills else stats
                cycles = totals.cycles
                attn_cycles = totals.attention_cycles
                linear_cycles = totals.linear_cycles
                report.total_cycles += cycles
                if totals is stats:
                    report.prefill_cycles += stats.prefill_cycles
                    report.decode_cycles += stats.decode_cycles
                else:
                    report.decode_cycles += cycles
                report.macs += totals.macs
                report.hbm_bytes += totals.hbm_bytes + vote_bytes
                report.interconnect_cycles += totals.interconnect_cycles
                report.interconnect_bytes += totals.interconnect_bytes
                if stats.decode is not None:
                    per_sequence = stats.decode.per_sequence_attention
                    for event, attention in zip(decode_events, per_sequence):
                        report.per_request_attention.setdefault(
                            event.request_id, []
                        ).append(attention)
                    report.decode_attention_per_step.extend(
                        per_sequence[: len(decode_events)]
                    )
            else:
                cycles = attn_cycles = linear_cycles = 0.0
            report.total_cycles += (
                round_swap_cycles + round_draft_cycles + round_fork_cycles
            )
            final_prefills = 0
            for event in prefills:
                if event.final:
                    final_prefills += 1
                    # First token sampled from this round's logits: TTFT
                    # spans arrival to the end of this round.  A
                    # recompute resume replays a final prefill for the
                    # same request later; the first one is the TTFT.
                    report.ttft_cycles.setdefault(
                        event.request_id,
                        report.total_cycles
                        - arrival_cycles.get(event.request_id, 0.0),
                    )
            # Tokens are recomputed here from the per-event flags so the
            # pricing loop itself guarantees dead rows yield zero tokens
            # (a `record.tokens` regression would trip this, not pass
            # through silently): `decodes` holds live windows only, as
            # checked above, and each single-row step yields one token.
            live_tokens = final_prefills + len(steps)
            if windows:
                live_tokens += sum(w.tokens for w in windows)
            assert live_tokens == record.tokens, (
                f"round {record.round_index}: dead steps priced as tokens "
                f"({record.tokens} recorded vs {live_tokens} live)"
            )
            report.total_tokens += live_tokens
            prefill_rows = record.computed_prefill_tokens
            report.prefill_tokens += prefill_rows
            report.decode_steps += len(steps)
            report.dead_steps += len(record.dead_steps)
            row = {
                "round": record.round_index,
                "prefills": len(prefills),
                "prefill_rows": prefill_rows,
                "decodes": len(decode_events),
                "cycles": cycles
                + round_swap_cycles
                + round_draft_cycles
                + round_fork_cycles,
                "attn_cycles": attn_cycles,
                "linear_cycles": linear_cycles,
                "tokens": live_tokens,
            }
            if has_swaps:
                row["swaps"] = record.num_swaps
                row["swap_cycles"] = round_swap_cycles
            if has_forks:
                row["forks"] = record.num_forks
                row["fork_cycles"] = round_fork_cycles
            if has_windows:
                row["verifies"] = len(windows)
                row["verify_rows"] = verify_rows
                row["draft_cycles"] = round_draft_cycles
            report.rounds.append(row)
        # Energy over the whole trace: PE dynamic scales with the MACs
        # priced above (target + draft), DRAM with every HBM byte
        # (weights, KV, votes), background with the modeled wall-clock
        # (swap/fork/draft serialization included in total_cycles).
        report.energy_joules = self.power_model.run_energy_joules(
            report.total_cycles, report.macs, report.hbm_bytes
        )
        return report


def compare_dataflows(
    scheduler=None,
    trace=None,
    hw: HardwareConfig = None,
    hw_model=None,
    hw_draft_model=None,
):
    """Replay one trace under every dataflow selection.

    Returns ``{"auto": report, "prefill": report, "decode": report}``.
    ``"auto"`` (per-phase reconfiguration) lower-bounds both pinned
    mappings by construction; the cycle gap on a mixed prefill/decode
    trace is the serving-scale value of the paper's flexible PE array.

    On fixed-dataflow hardware (``flexible_dataflow=False``) the array
    cannot express the streaming mapping, so the comparison degrades to
    ``{"auto", "prefill"}`` — both pricing the baseline's tiled
    configuration.

    Every pass replays through one co-simulator, so the target and
    draft simulators' pricing caches are shared across the passes
    (their keys carry the resolved mapping, so the selections never
    collide) and freed when this call returns.
    """
    cosim = ServingCoSimulator(
        scheduler=scheduler,
        hw=hw,
        hw_model=hw_model,
        hw_draft_model=hw_draft_model,
    )
    selections = (
        DATAFLOWS if cosim.hw.flexible_dataflow else ("auto", "prefill")
    )
    reports = {}
    for dataflow in selections:
        cosim.dataflow = dataflow
        reports[dataflow] = cosim.replay(trace)
    return reports


def best_dataflow(reports, objective="cycles"):
    """Pick the winning dataflow from a :func:`compare_dataflows` dict.

    ``objective="cycles"`` minimizes ``total_cycles`` (throughput);
    ``"energy"`` minimizes ``energy_joules`` — the two can disagree,
    e.g. when the streaming mapping saves cycles but re-reads KV from
    HBM (every byte pays DRAM access energy).  Ties break toward
    ``"auto"`` then the :data:`~repro.accel.scheduler.DATAFLOWS` order.
    Returns ``(name, report)``.
    """
    if objective not in ("cycles", "energy"):
        raise ValueError(
            f"objective must be 'cycles' or 'energy', got {objective!r}"
        )
    if not reports:
        raise ValueError("no dataflow reports to choose from")
    metric = (
        (lambda r: r.total_cycles)
        if objective == "cycles"
        else (lambda r: r.energy_joules)
    )
    order = {name: rank for rank, name in enumerate(DATAFLOWS)}
    name = min(reports, key=lambda n: (metric(reports[n]), order.get(n, len(order))))
    return name, reports[name]

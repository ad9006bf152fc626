"""End-to-end cycle/energy simulator for VEDA and its ablation variants.

Replaces the paper's "cycle-accurate performance model … cross-validated
with RTL simulations".  The simulator walks the operator stream of a
:class:`repro.config.ModelConfig` (typically the Llama-2 7B shapes) under
a :class:`repro.accel.config.HardwareConfig` and accumulates:

- cycles (attention broken down via :mod:`repro.accel.scheduler`,
  linear layers via :mod:`repro.accel.llm_mapping`, nonlinear stalls via
  :mod:`repro.accel.sfu`),
- MAC counts and HBM traffic (for utilization and energy),
- per-token attention latency traces (the quantity plotted in
  Fig. 8 center/right).

KV-cache eviction enters as a simple cache-length trajectory: with a
budget ``S`` the cache is ``min(P + i, S + 1)`` at decode step ``i``
(append-then-evict keeps it at ``S`` steady-state), exactly the constant
KV length the paper's voting engine maintains.  The voting engine itself
runs in parallel (paper Sec. V) and adds HBM traffic for the off-chip
vote counts but no latency.

**Pricing cache.**  A serving replay or a cost-guided scheduler prices
the same shapes thousands of times, so each simulator instance caches
its own building blocks: whole prefill passes keyed ``(rows, prefix,
resolved mapping)``, the weight-side half of a decode round keyed by
batch size, and per-layer decode attention keyed ``(length, resolved
mapping)``.  Cached fragments are re-assembled in the one accumulation
order the model defines, so a warm instance returns exactly what a cold
one does — identical floating-point partial sums, not merely close —
and every call hands back a fresh stats object the caller may mutate.
Every field equals what the per-layer reference loop sums: an
accumulator's ``n_layers`` repeated adds become one multiply-add only
where every partial sum of that loop is an exactly representable
integer (nonnegative integer terms, a total below 2**53), so no add
rounds and their order cannot matter; an accumulator with a fractional
term keeps the loop, the same adds in the same order.  Pricing has no
side effects beyond its caches (``docs/ARCHITECTURE.md``,
"Accumulation contract").  ``tests/properties/test_property_predictor.py``
pins both against a test-local transcription of the uncached loops.

Worked example — warm pricing equals cold pricing, and the scalars the
scheduler decides with::

    >>> from repro.accel.config import veda_config
    >>> from repro.accel.simulator import AcceleratorSimulator
    >>> from repro.config import llama2_7b_shapes
    >>> hw, model = veda_config(), llama2_7b_shapes()
    >>> warm = AcceleratorSimulator(hw, model)
    >>> first = warm.mixed_round(prefill_lengths=[64], decode_lengths=[128, 256])
    >>> again = warm.mixed_round(prefill_lengths=[64], decode_lengths=[128, 256])
    >>> cold = AcceleratorSimulator(hw, model).mixed_round(
    ...     prefill_lengths=[64], decode_lengths=[128, 256])
    >>> again.cycles == first.cycles == cold.cycles
    True
    >>> warm.swap_cycles(256) < warm.prefill_cycles(256)
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.accel.config import HardwareConfig
from repro.accel.llm_mapping import decode_linear_ops, layer_norm_count
from repro.accel.memory import HBMModel
from repro.accel.scheduler import (
    AttentionBreakdown,
    decode_attention,
    prefill_attention,
    resolve_dataflow,
)
from repro.accel.sfu import layernorm_stall_cycles

__all__ = [
    "PhaseStats",
    "RunStats",
    "RoundStats",
    "MixedRoundStats",
    "AcceleratorSimulator",
]


@dataclass
class PhaseStats:
    """Aggregate statistics of one phase (prefill, or one decode step)."""

    cycles: float = 0.0
    attention: AttentionBreakdown = field(default_factory=AttentionBreakdown)
    linear_cycles: float = 0.0
    nonlinear_cycles: float = 0.0
    macs: float = 0.0
    hbm_bytes: float = 0.0
    #: Tensor-parallel all-reduce cost over the inter-cluster link
    #: (zero unless the simulator was built with ``tp > 1``).
    interconnect_cycles: float = 0.0
    interconnect_bytes: float = 0.0

    @property
    def attention_cycles(self):
        return self.attention.total


@dataclass
class RunStats:
    """A full prefill + generation run."""

    prefill: PhaseStats
    decode_attention_per_token: list = field(default_factory=list)
    decode_total_per_token: list = field(default_factory=list)
    decode: PhaseStats = field(default_factory=PhaseStats)

    @property
    def total_cycles(self):
        return self.prefill.cycles + self.decode.cycles

    @property
    def total_attention_cycles(self):
        return self.prefill.attention_cycles + self.decode.attention_cycles

    def mean_decode_attention(self):
        if not self.decode_attention_per_token:
            raise ValueError("no decode steps recorded")
        return sum(self.decode_attention_per_token) / len(
            self.decode_attention_per_token
        )

    def mean_attention_per_token(self, prompt_length):
        """Attention cycles averaged over every processed token.

        This is the Fig. 8 (center) metric: prefill attention amortized
        over the prompt plus per-step decode attention, averaged over the
        whole run (at generation length 0 it reduces to pure prefill).
        """
        total_tokens = prompt_length + len(self.decode_attention_per_token)
        return self.total_attention_cycles / total_tokens


@dataclass
class RoundStats(PhaseStats):
    """One batched decode round (serving): shared weight fetch, private KV.

    Extends :class:`PhaseStats` with the per-sequence attention split:
    ``per_sequence_attention[b]`` is the all-layer attention cycle total
    of sequence ``b``, computed the same way the solo
    :class:`repro.cosim.CoSimulator` prices a step, so batch-size-1
    serving rounds are cycle-identical to solo decode steps.
    """

    per_sequence_attention: list = field(default_factory=list)

    @property
    def batch_size(self):
        return len(self.per_sequence_attention)


@dataclass
class MixedRoundStats:
    """One serving round mixing admissions (prefills) and decode steps.

    ``prefills`` holds one :class:`PhaseStats` per admitted sequence
    (each prefill runs as its own tiled pass); ``decode`` is the round's
    batched :class:`RoundStats`, or ``None`` when no sequence decoded.
    """

    prefills: list = field(default_factory=list)
    decode: RoundStats = None

    @property
    def cycles(self):
        total = sum(stats.cycles for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.cycles
        return total

    @property
    def prefill_cycles(self):
        return sum(stats.cycles for stats in self.prefills)

    @property
    def decode_cycles(self):
        return self.decode.cycles if self.decode is not None else 0.0

    @property
    def attention_cycles(self):
        total = sum(stats.attention.total for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.attention.total
        return total

    @property
    def linear_cycles(self):
        total = sum(stats.linear_cycles for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.linear_cycles
        return total

    @property
    def nonlinear_cycles(self):
        total = sum(stats.nonlinear_cycles for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.nonlinear_cycles
        return total

    @property
    def macs(self):
        total = sum(stats.macs for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.macs
        return total

    @property
    def hbm_bytes(self):
        total = sum(stats.hbm_bytes for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.hbm_bytes
        return total

    @property
    def interconnect_cycles(self):
        total = sum(stats.interconnect_cycles for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.interconnect_cycles
        return total

    @property
    def interconnect_bytes(self):
        total = sum(stats.interconnect_bytes for stats in self.prefills)
        if self.decode is not None:
            total += self.decode.interconnect_bytes
        return total

    @property
    def per_sequence_attention(self):
        """Per-decode-sequence attention cycles (empty without decodes)."""
        return (
            list(self.decode.per_sequence_attention)
            if self.decode is not None
            else []
        )


def _phase(cls, attention, linear, nonlinear, macs, hbm, ic_cycles, ic_bytes, **extra):
    """A ``cls`` (:class:`PhaseStats` or a subclass) from finished
    accumulators, its ``cycles`` summed in the model's one order."""
    return cls(
        cycles=linear + attention.total + nonlinear + ic_cycles,
        attention=attention,
        linear_cycles=linear,
        nonlinear_cycles=nonlinear,
        macs=macs,
        hbm_bytes=hbm,
        interconnect_cycles=ic_cycles,
        interconnect_bytes=ic_bytes,
        **extra,
    )


#: Every integer below this is exactly a float, so float adds whose
#: partial sums all stay such integers never round.
_EXACT = 2.0**53


def _integral(value):
    """Whether ``value`` is a nonnegative integer (as a float or not)."""
    return value >= 0 and float(value).is_integer()


def _layer_sum(addends, n_layers):
    """``0.0`` plus ``n_layers`` repeats of ``addends`` in order: the
    per-layer loop's float, in one multiply-add when every partial sum of
    that loop is an exactly representable integer (all addends
    nonnegative integers, the total below 2**53), so that the order of
    the additions cannot change a bit.  Otherwise the loop itself runs."""
    if all(_integral(addend) for addend in addends):
        total = n_layers * sum(addends)
        if total < _EXACT:
            return 0.0 + total
    acc = 0.0
    for _ in range(n_layers):
        for addend in addends:
            acc += addend
    return acc


def _sequence_sum(terms, integral, n_layers):
    """``0.0`` plus each of ``terms`` added ``n_layers`` times, term after
    term: a decode round's per-sequence, per-layer loop for one
    accumulator.  ``integral[i]`` says ``terms[i]`` is a nonnegative
    integer; when all are and the total stays below 2**53 the loop's
    float is the exact sum (see :func:`_layer_sum`)."""
    if all(integral):
        total = n_layers * sum(terms)
        if total < _EXACT:
            return 0.0 + total
    acc = 0.0
    for term in terms:
        for _ in range(n_layers):
            acc += term
    return acc


class AcceleratorSimulator:
    """Cycle/energy model of one accelerator configuration.

    ``tp > 1`` prices Megatron-style tensor parallelism: attention heads
    and FFN columns are sharded across ``tp`` PE clusters, each cluster
    executes its shard of every operator (and stores KV for its own
    heads only), and the two per-layer all-reduces (after the attention
    output projection and after the FFN down projection) are priced as
    ring all-reduce traffic over
    :attr:`~repro.accel.config.HardwareConfig.interconnect_gb_s`.  The
    reported cycles are those of one (any) cluster — clusters run in
    lock-step — so ``tp=1`` reproduces the single-device numbers
    bit-for-bit: every shard dimension divides by 1 and the all-reduce
    terms are skipped entirely.

    The pricing caches (module docstring) live on the instance: share
    one simulator to share warm entries, drop it to free them.
    """

    def __init__(self, hw: HardwareConfig, model, tp=1):
        if tp < 1:
            raise ValueError(f"tp must be at least 1, got {tp}")
        if model.n_heads % tp or model.d_ff % tp:
            raise ValueError(
                f"tp={tp} must divide n_heads={model.n_heads} "
                f"and d_ff={model.d_ff}"
            )
        self.hw = hw
        self.model = model
        self.tp = tp
        self.hbm = HBMModel(
            bandwidth_gb_s=hw.hbm_bandwidth_gb_s, clock_ghz=hw.clock_ghz
        )
        #: (rows, prefix, mapping) -> PhaseStats of one prefill pass.
        self._prefill_cache = {}
        #: batch -> weight-side decode accumulators (dataflow-free).
        self._decode_base = {}
        #: (length, mapping) -> one layer's decode attention as
        #: (qk, softmax, sv, all-layer total), then whether each of qk,
        #: softmax and sv is a nonnegative integer.
        self._decode_attn = {}
        # Per key, per layer of a decode round: the q.K^T and s'.V MACs
        # of this cluster's heads, and the K + V bytes read (also the
        # one token written).
        self._macs_per_key = 2 * (model.n_heads // tp) * model.head_dim
        self._kv_bytes_per_key = 2 * (model.d_model // tp) * hw.bytes_per_element
        # Per weight op of a layer, then of the LM head: one row's
        # compute cycles and MACs, the weight fetch's cycles and bytes.
        width = hw.tree_width
        self._layer_ops, self._head_ops = (
            [
                (
                    op.compute_cycles(width),
                    op.macs,
                    self.hbm.stream_cycles(op.weight_bytes),
                    op.weight_bytes,
                )
                for op in ops
            ]
            for ops in decode_linear_ops(model, tp=tp)
        )

    def _allreduce(self, rows):
        """``(bytes, cycles)`` of one layer's two ring all-reduces for
        ``rows`` activation vectors (attention output + FFN output, each
        d_model wide), or ``None`` at ``tp=1``, where there are none."""
        if self.tp == 1:
            return None
        per_reduce = (
            2.0
            * (self.tp - 1)
            / self.tp
            * rows
            * self.model.d_model
            * self.hw.bytes_per_element
        )
        return 2 * per_reduce, 2 * per_reduce / self.hw.interconnect_bytes_per_cycle

    # ------------------------------------------------------------------
    # Linear layers
    # ------------------------------------------------------------------
    def _linear_charges(self, ops, rows):
        """Per op of ``ops`` (:attr:`_layer_ops` or :attr:`_head_ops`), the
        ``(cycles, macs, hbm_bytes)`` one pass over ``rows`` rows adds:
        each op fetches its weights once per pass and reuses them for
        every row (a decode batch's rows, a prefill chunk's rows), so it
        costs ``max(rows * compute, memory)``."""
        return [
            (max(rows * compute, memory), rows * macs, weight_bytes)
            for compute, macs, memory, weight_bytes in ops
        ]

    def _weight_side(self, rows, head_rows, norm, layer_macs=(), layer_bytes=()):
        """``(linear, nonlinear, macs, hbm, ic_cycles, ic_bytes)`` of a
        pass: per layer, the weight ops over ``rows`` rows (with
        ``layer_macs`` / ``layer_bytes`` after their MACs / bytes),
        ``norm`` stall cycles and the all-reduces of ``rows`` rows, each
        accumulator's ``n_layers`` layers summed by :func:`_layer_sum`;
        then the LM head over ``head_rows`` rows."""
        n_layers = self.model.n_layers
        op_cycles, op_macs, op_bytes = zip(*self._linear_charges(self._layer_ops, rows))
        linear = _layer_sum(op_cycles, n_layers)
        macs = _layer_sum((*op_macs, *layer_macs), n_layers)
        hbm = _layer_sum((*op_bytes, *layer_bytes), n_layers)
        nonlinear = _layer_sum((norm,), n_layers)
        ic_bytes = ic_cycles = 0.0
        allreduce = self._allreduce(rows)
        if allreduce is not None:
            ic_bytes = _layer_sum(allreduce[:1], n_layers)
            ic_cycles = _layer_sum(allreduce[1:], n_layers)
        for op_cycles, op_macs, op_bytes in self._linear_charges(self._head_ops, head_rows):
            linear += op_cycles
            macs += op_macs
            hbm += op_bytes
        return linear, nonlinear, macs, hbm, ic_cycles, ic_bytes

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def prefill(self, prompt_length, dataflow="auto", prefix_length=0):
        """Simulate the prefill phase for a prompt of ``prompt_length``.

        ``prefix_length`` prices a continuation prefill over an already
        resident cache (a prefix-cache hit): linear layers, KV
        write-back, and nonlinear stalls cover only the ``prompt_length``
        computed rows, while attention row ``j`` attends to
        ``prefix_length + j`` keys.  ``dataflow`` selects the round-level
        array mapping (see :mod:`repro.accel.scheduler`); the streaming
        ``"decode"`` mapping re-streams K/V from HBM per row, which is
        charged to ``hbm_bytes`` as well as cycles.

        Cached per ``(prompt_length, prefix_length, resolved mapping)``,
        so ``"auto"`` and ``"prefill"`` share entries and fixed-dataflow
        hardware collapses every selection to one.
        """
        if prompt_length <= 0:
            raise ValueError("prompt length must be positive")
        key = (
            int(prompt_length),
            int(prefix_length),
            resolve_dataflow(dataflow, self.hw, "prefill"),
        )
        stats = self._prefill_cache.get(key)
        if stats is None:
            stats = self._prefill_cache[key] = self._price_prefill(*key)
        return replace(stats, attention=replace(stats.attention))

    def _price_prefill(self, prompt_length, prefix_length, mapping):
        """One uncached prefill pass under a resolved ``mapping``.

        Each field equals the per-layer reference loop's float: per
        layer, every weight op's cycles, MACs and bytes, then the
        attention terms, the KV write-back (and streamed K/V) bytes, the
        norm stalls and the all-reduce terms, then the LM head once.  An
        accumulator sums its ``n_layers`` layers in one multiply-add
        (:func:`_layer_sum`) only where every partial sum is an exactly
        representable integer; one with a fractional term (the fixed
        baseline's s'xV, all-reduce bytes at some ``tp``) keeps the loop,
        since each of its adds rounds and the rounding depends on order.
        """
        model, hw = self.model, self.hw
        head_dim = model.head_dim
        local_heads = model.n_heads // self.tp
        kv_width = model.d_model // self.tp

        attn = prefill_attention(
            prompt_length,
            head_dim,
            local_heads,
            hw,
            dataflow=mapping,
            prefix_length=prefix_length,
        )
        # Sum over computed rows j of the keys each attends to
        # (prefix_length + j), for q.K^T and s'.V each.
        attended = (
            prefix_length * prompt_length
            + prompt_length * (prompt_length + 1) / 2
        )
        attn_macs = 2 * local_heads * head_dim * attended
        # Streaming (GEMV-pinned) prefill re-reads the growing K and V
        # from HBM for every computed row instead of reusing tiles.
        streamed_kv_bytes = 0.0
        if mapping == "decode":
            streamed_kv_bytes = (
                2 * attended * kv_width * hw.bytes_per_element
            )
        # KV cache write-back per layer (computed rows only, this
        # cluster's heads only under TP).
        kv_bytes = 2 * prompt_length * kv_width * hw.bytes_per_element
        norm_stall = layernorm_stall_cycles(model.d_model, hw, hw.element_serial)
        norm = (
            layer_norm_count(model) * prompt_length * norm_stall
            if not hw.element_serial
            else layer_norm_count(model) * prompt_length * hw.element_serial_drain
        )
        # Weight ops: the prefill GEMMs of :func:`prefill_linear_ops`,
        # every row of the chunk reusing one weight fetch; only the last
        # row goes through the LM head.
        linear, nonlinear, macs, hbm, ic_cycles, ic_bytes = self._weight_side(
            prompt_length, 1, norm, (attn_macs,), (kv_bytes, streamed_kv_bytes)
        )
        n_layers = model.n_layers
        qk = _layer_sum((attn.qk,), n_layers)
        softmax = _layer_sum((attn.softmax,), n_layers)
        sv = _layer_sum((attn.sv,), n_layers)
        return _phase(
            PhaseStats,
            AttentionBreakdown(qk, softmax, sv),
            linear, nonlinear, macs, hbm, ic_cycles, ic_bytes,
        )

    # ------------------------------------------------------------------
    # Decode rounds (batched decode, mixed prefill/decode)
    # ------------------------------------------------------------------
    def _decode_weight_base(self, batch):
        """Accumulators after a ``batch``-row decode round's weight side
        (linear layers, nonlinear stalls, all-reduces), cached per batch
        size: dataflow never enters it.  :meth:`decode_round` resumes its
        per-sequence accumulation from this snapshot."""
        base = self._decode_base.get(batch)
        if base is not None:
            return base
        model, hw = self.model, self.hw
        norm_stall = layernorm_stall_cycles(model.d_model, hw, hw.element_serial)
        norm = batch * (layer_norm_count(model) * norm_stall)
        linear, nonlinear, macs, hbm, ic_cycles, ic_bytes = self._weight_side(
            batch, batch, norm
        )
        # Whether decode_round may add its per-key MACs and KV bytes to
        # this snapshot in closed form.
        keys_integral = (
            _integral(macs)
            and _integral(hbm)
            and _integral(self._macs_per_key)
            and _integral(self._kv_bytes_per_key)
        )
        base = self._decode_base[batch] = (
            linear, nonlinear, macs, hbm, ic_cycles, ic_bytes, keys_integral,
        )
        return base

    def _decode_attention(self, length, mapping):
        """One layer's decode attention at ``length`` under a resolved
        ``mapping`` as ``(qk, softmax, sv, all-layer total)`` followed by
        whether each of qk, softmax and sv is a nonnegative integer (so
        :meth:`decode_round` may sum it in closed form), cached per
        ``(length, mapping)``."""
        key = (length, mapping)
        entry = self._decode_attn.get(key)
        if entry is None:
            attn = decode_attention(
                length,
                self.model.head_dim,
                self.model.n_heads // self.tp,
                self.hw,
                dataflow=mapping,
            )
            entry = self._decode_attn[key] = (
                attn.qk,
                attn.softmax,
                attn.sv,
                attn.total * self.model.n_layers,
                _integral(attn.qk),
                _integral(attn.softmax),
                _integral(attn.sv),
            )
        return entry

    def decode_round(self, cache_lengths, dataflow="auto"):
        """Simulate one batched decode round (serving).

        ``cache_lengths[b]`` is the cache length sequence ``b`` attends
        to this round.  Linear layers batch across the sequences — one
        weight fetch per operator per layer serves every row, so the
        cost is ``max(batch * compute, weight_memory)`` — while
        attention stays per-sequence (every request has a private KV
        cache, the paper's Orca argument).  A single-sequence round is
        one solo decode step: :meth:`run` and
        :class:`repro.cosim.CoSimulator` price steps this way, which is
        what anchors the batch-size-1 serving-cosim equivalence.

        Returns a fresh :class:`RoundStats`; ``per_sequence_attention``
        holds each sequence's all-layer attention cycles in input order.
        Each field equals the per-sequence, per-layer reference loop's
        float, which adds every sequence's terms ``n_layers`` times onto
        the cached weight side.  An accumulator takes one multiply-add
        only where every partial sum of that loop is an exactly
        representable integer; one with a fractional term (s'xV under
        the pinned ``"prefill"`` mapping at most lengths) keeps the loop,
        the same adds in the same order, because each of them rounds.
        """
        cache_lengths = [int(length) for length in cache_lengths]
        if not cache_lengths:
            raise ValueError("decode round needs at least one sequence")
        n_layers = self.model.n_layers
        mapping = resolve_dataflow(dataflow, self.hw, "decode")
        batch = len(cache_lengths)
        linear, nonlinear, macs, hbm, ic_cycles, ic_bytes, keys_integral = (
            self._decode_weight_base(batch)
        )
        cached = self._decode_attn
        a_qk, a_softmax, a_sv, per_sequence, i_qk, i_softmax, i_sv = zip(
            *[
                cached.get((length, mapping))
                or self._decode_attention(length, mapping)
                for length in cache_lengths
            ]
        )
        qk = _sequence_sum(a_qk, i_qk, n_layers)
        softmax = _sequence_sum(a_softmax, i_softmax, n_layers)
        sv = _sequence_sum(a_sv, i_sv, n_layers)
        # Per sequence, per layer: macs += macs_per_key * length, then
        # hbm += the KV cache read (K and V) + the current token's
        # write-back.  All integers from an integral snapshot: one
        # multiply-add each while the totals stay exact.
        macs_per_key, kv_bytes_per_key = self._macs_per_key, self._kv_bytes_per_key
        keys = sum(cache_lengths)
        round_macs = n_layers * (macs_per_key * keys)
        round_kv = n_layers * (kv_bytes_per_key * (keys + batch))
        if keys_integral and round_macs < _EXACT - macs and round_kv < _EXACT - hbm:
            macs += round_macs
            hbm += round_kv
        else:
            for length in cache_lengths:
                seq_macs = macs_per_key * length
                kv_read = kv_bytes_per_key * length
                for _ in range(n_layers):
                    macs += seq_macs
                    hbm += kv_read
                    hbm += kv_bytes_per_key
        return _phase(
            RoundStats,
            AttentionBreakdown(qk, softmax, sv),
            linear, nonlinear, macs, hbm, ic_cycles, ic_bytes,
            per_sequence_attention=list(per_sequence),
        )

    def mixed_round(
        self,
        prefill_lengths=(),
        decode_lengths=(),
        dataflow="auto",
        prefix_lengths=None,
    ):
        """Price one serving round mixing admissions and decode steps.

        ``prefill_lengths[j]`` is the number of prompt rows admission
        ``j`` computes this round (``prefix_lengths[j]`` of its context
        already resident from a prefix-cache hit); ``decode_lengths``
        are the running batch's attention lengths.  Each prefill runs as
        its own tiled pass (weights resident per pass); the decode
        sequences share one batched pass.  ``dataflow`` applies to both
        phases: ``"auto"`` reconfigures per phase, ``"prefill"`` /
        ``"decode"`` pin the array for the whole round.

        Returns a :class:`MixedRoundStats`.
        """
        prefill_lengths = list(prefill_lengths)
        decode_lengths = list(decode_lengths)
        if not prefill_lengths and not decode_lengths:
            raise ValueError("mixed round needs at least one prefill or decode")
        if prefix_lengths is None:
            prefix_lengths = [0] * len(prefill_lengths)
        prefix_lengths = list(prefix_lengths)
        if len(prefix_lengths) != len(prefill_lengths):
            raise ValueError(
                f"{len(prefix_lengths)} prefix lengths != "
                f"{len(prefill_lengths)} prefills"
            )
        prefills = [
            self.prefill(length, dataflow=dataflow, prefix_length=prefix)
            for length, prefix in zip(prefill_lengths, prefix_lengths)
        ]
        decode = (
            self.decode_round(decode_lengths, dataflow=dataflow)
            if decode_lengths
            else None
        )
        return MixedRoundStats(prefills=prefills, decode=decode)

    # ------------------------------------------------------------------
    # Decision scalars (what a cost-guided scheduler asks for)
    # ------------------------------------------------------------------
    def prefill_cycles(self, rows, prefix_length=0, dataflow="auto"):
        """Cycles of one prefill pass over ``rows`` rows."""
        return self.prefill(
            rows, dataflow=dataflow, prefix_length=prefix_length
        ).cycles

    def decode_round_cycles(self, cache_lengths, dataflow="auto"):
        """Cycles of one batched decode round (0.0 if empty)."""
        cache_lengths = list(cache_lengths)
        if not cache_lengths:
            return 0.0
        return self.decode_round(cache_lengths, dataflow=dataflow).cycles

    @property
    def swap_bytes_per_slot(self):
        """Bytes one KV slot moves (keys + values, every layer) when it
        is swapped over the host link or copied by a dense fork;
        positions/metadata are negligible and not charged."""
        return (
            2
            * self.model.d_model
            * self.hw.bytes_per_element
            * self.model.n_layers
        )

    def swap_cycles(self, kv_slots):
        """Host-link cycles to move ``kv_slots`` one way (out *or* in)."""
        return kv_slots * self.swap_bytes_per_slot / self.hw.host_bytes_per_cycle

    def preempt_swap_cycles(self, kv_slots):
        """Cost of evicting a victim by swapping: the round trip (page
        out now, page back in at resume)."""
        return 2.0 * self.swap_cycles(kv_slots)

    def preempt_recompute_cycles(self, total_rows):
        """Cost of evicting a victim by recompute: re-prefilling its
        prompt plus every token generated so far."""
        return self.prefill_cycles(total_rows)

    # ------------------------------------------------------------------
    # Full runs
    # ------------------------------------------------------------------
    def cache_length_at(self, prompt_length, step, kv_budget=None):
        """Cache length seen by decode step ``step`` (1-based).

        Without a budget the cache grows one entry per token; with a
        budget the voting engine holds it at ``S`` (append-then-evict, so
        the attention in a step sees at most ``S + 1`` entries).
        """
        natural = prompt_length + step
        if kv_budget is None:
            return natural
        return min(natural, kv_budget + 1)

    def run(self, prompt_length, gen_length, kv_budget=None):
        """Prefill + ``gen_length`` decode steps; returns :class:`RunStats`.

        ``kv_budget`` models voting-based eviction holding the cache at a
        fixed size.  Vote-count traffic (UINT16 per position, read +
        write per step per layer, stored off-chip per paper Sec. V) is
        charged to HBM when a budget is active.
        """
        stats = RunStats(prefill=self.prefill(prompt_length))
        cycles = linear = nonlinear = macs = hbm = 0.0
        qk = softmax = sv = 0.0
        for step in range(1, gen_length + 1):
            length = self.cache_length_at(prompt_length, step, kv_budget)
            step_stats = self.decode_round([length])
            attention = step_stats.attention
            step_hbm = step_stats.hbm_bytes
            if kv_budget is not None:
                step_hbm += 2 * 2 * length * self.model.n_layers
            stats.decode_attention_per_token.append(attention.total)
            stats.decode_total_per_token.append(step_stats.cycles)
            cycles += step_stats.cycles
            qk += attention.qk
            softmax += attention.softmax
            sv += attention.sv
            linear += step_stats.linear_cycles
            nonlinear += step_stats.nonlinear_cycles
            macs += step_stats.macs
            hbm += step_hbm
        stats.decode = PhaseStats(
            cycles=cycles,
            attention=AttentionBreakdown(qk, softmax, sv),
            linear_cycles=linear,
            nonlinear_cycles=nonlinear,
            macs=macs,
            hbm_bytes=hbm,
        )
        return stats

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def tokens_per_second(self, prompt_length, gen_length, kv_budget=None):
        """Sustained decode throughput over a run."""
        stats = self.run(prompt_length, gen_length, kv_budget)
        seconds = stats.decode.cycles / (self.hw.clock_ghz * 1e9)
        return gen_length / seconds

    def achieved_gops(self, stats):
        """Effective throughput of a phase/run (2 ops per MAC)."""
        cycles = stats.cycles if isinstance(stats, PhaseStats) else stats.total_cycles
        macs = stats.macs if isinstance(stats, PhaseStats) else (
            stats.prefill.macs + stats.decode.macs
        )
        seconds = cycles / (self.hw.clock_ghz * 1e9)
        return 2.0 * macs / seconds / 1e9

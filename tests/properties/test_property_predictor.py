"""Property-based tests: the simulator's pricing cache.

``AcceleratorSimulator`` caches whole prefill passes, the weight side of
a decode round and per-length decode attention.  The contract is
*exactness*: every cached re-assembly must reproduce the uncached cycle
model bit-for-bit, warm or cold.  The uncached model is transcribed
below (:class:`ReferenceModel`, the pre-cache ``prefill`` /
``decode_round`` / ``decode_step`` loops) and is the reference every
cached result is compared against with ``==`` on every field, on the
Llama-2 7B shapes and on the tiny / small model shapes serving traces
are priced at, at every ``tp`` that divides the heads.  The scalar
helpers the scheduler leans on must also be monotone in the work they
price (a bigger chunk or a wider decode batch never prices cheaper).
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import baseline_config, veda_config
from repro.accel.llm_mapping import (
    decode_linear_ops,
    layer_norm_count,
    prefill_linear_ops,
)
from repro.accel.scheduler import decode_attention, prefill_attention, resolve_dataflow
from repro.accel.sfu import layernorm_stall_cycles
from repro.accel.simulator import AcceleratorSimulator, PhaseStats, RoundStats, RunStats
from repro.config import llama2_7b_shapes, small_lm_config, tiny_config


class ReferenceModel:
    """The uncached cycle model: a transcription of the simulator's
    loops before the pricing cache, kept here as the reference."""

    def __init__(self, hw, model, tp=1):
        self.sim = AcceleratorSimulator(hw, model, tp=tp)  # hbm + all-reduce
        self.hw, self.model, self.tp = hw, model, tp

    def _finish(self, stats):
        stats.cycles = (
            stats.linear_cycles
            + stats.attention.total
            + stats.nonlinear_cycles
            + stats.interconnect_cycles
        )
        return stats

    def _allreduce_charge(self, stats, rows):
        """Add one layer's two ring all-reduces of ``rows`` activation
        vectors to ``stats`` (there are none at ``tp=1``)."""
        terms = self.sim._allreduce(rows)
        if terms is not None:
            stats.interconnect_bytes += terms[0]
            stats.interconnect_cycles += terms[1]

    def _linear(self, stats, op, batch=1):
        compute = batch * op.compute_cycles(self.hw.tree_width)
        memory = self.sim.hbm.stream_cycles(op.weight_bytes)
        stats.linear_cycles += max(compute, memory)
        stats.macs += batch * op.macs
        stats.hbm_bytes += op.weight_bytes

    def prefill(self, prompt_length, dataflow="auto", prefix_length=0):
        model, hw = self.model, self.hw
        stats = PhaseStats()
        local_heads = model.n_heads // self.tp
        kv_width = model.d_model // self.tp
        per_layer_ops, head_ops = prefill_linear_ops(model, prompt_length, tp=self.tp)
        attn = prefill_attention(
            prompt_length,
            model.head_dim,
            local_heads,
            hw,
            dataflow=dataflow,
            prefix_length=prefix_length,
        )
        attended = (
            prefix_length * prompt_length + prompt_length * (prompt_length + 1) / 2
        )
        attn_macs = 2 * local_heads * model.head_dim * attended
        streamed_kv_bytes = 0.0
        if hw.flexible_dataflow and resolve_dataflow(dataflow, hw, "prefill") == "decode":
            streamed_kv_bytes = 2 * attended * kv_width * hw.bytes_per_element
        norm_stall = layernorm_stall_cycles(model.d_model, hw, hw.element_serial)
        for _ in range(model.n_layers):
            for op in per_layer_ops:
                self._linear(stats, op)
            stats.attention = stats.attention + attn
            stats.macs += attn_macs
            stats.hbm_bytes += 2 * prompt_length * kv_width * hw.bytes_per_element
            stats.hbm_bytes += streamed_kv_bytes
            stats.nonlinear_cycles += (
                layer_norm_count(model) * prompt_length * norm_stall
                if not hw.element_serial
                else layer_norm_count(model) * prompt_length * hw.element_serial_drain
            )
            self._allreduce_charge(stats, prompt_length)
        for op in head_ops:
            self._linear(stats, op)
        return self._finish(stats)

    def decode_step(self, cache_length, dataflow="auto"):
        model, hw = self.model, self.hw
        stats = PhaseStats()
        local_heads = model.n_heads // self.tp
        kv_width = model.d_model // self.tp
        per_layer_ops, head_ops = decode_linear_ops(model, tp=self.tp)
        attn = decode_attention(
            cache_length, model.head_dim, local_heads, hw, dataflow=dataflow
        )
        norm_stall = layernorm_stall_cycles(model.d_model, hw, hw.element_serial)
        for _ in range(model.n_layers):
            for op in per_layer_ops:
                self._linear(stats, op)
            stats.attention = stats.attention + attn
            stats.macs += 2 * local_heads * model.head_dim * cache_length
            stats.hbm_bytes += 2 * cache_length * kv_width * hw.bytes_per_element
            stats.hbm_bytes += 2 * kv_width * hw.bytes_per_element
            stats.nonlinear_cycles += layer_norm_count(model) * norm_stall
            self._allreduce_charge(stats, 1)
        for op in head_ops:
            self._linear(stats, op)
        return self._finish(stats)

    def decode_round(self, cache_lengths, dataflow="auto"):
        model, hw = self.model, self.hw
        stats = RoundStats()
        batch = len(cache_lengths)
        local_heads = model.n_heads // self.tp
        kv_width = model.d_model // self.tp
        per_layer_ops, head_ops = decode_linear_ops(model, tp=self.tp)
        norm_stall = layernorm_stall_cycles(model.d_model, hw, hw.element_serial)
        for _ in range(model.n_layers):
            for op in per_layer_ops:
                self._linear(stats, op, batch)
            stats.nonlinear_cycles += batch * (layer_norm_count(model) * norm_stall)
            self._allreduce_charge(stats, batch)
        for op in head_ops:
            self._linear(stats, op, batch)
        for length in cache_lengths:
            attn = decode_attention(
                length, model.head_dim, local_heads, hw, dataflow=dataflow
            )
            for _ in range(model.n_layers):
                stats.attention = stats.attention + attn
                stats.macs += 2 * local_heads * model.head_dim * length
                stats.hbm_bytes += 2 * length * kv_width * hw.bytes_per_element
                stats.hbm_bytes += 2 * kv_width * hw.bytes_per_element
            stats.per_sequence_attention.append(attn.total * model.n_layers)
        return self._finish(stats)


def reference_run(reference, prompt_length, gen_length, kv_budget=None):
    """The uncached ``run()`` loop: prefill, then one single-sequence
    decode round per step, vote traffic added per step, every decode
    field rebound step by step."""
    stats = RunStats(prefill=reference.prefill(prompt_length))
    for step in range(1, gen_length + 1):
        length = prompt_length + step
        if kv_budget is not None:
            length = min(length, kv_budget + 1)
        step_stats = reference.decode_round([length])
        if kv_budget is not None:
            step_stats.hbm_bytes += 2 * 2 * length * reference.model.n_layers
        stats.decode_attention_per_token.append(step_stats.attention.total)
        stats.decode_total_per_token.append(step_stats.cycles)
        stats.decode.cycles += step_stats.cycles
        stats.decode.attention = stats.decode.attention + step_stats.attention
        stats.decode.linear_cycles += step_stats.linear_cycles
        stats.decode.nonlinear_cycles += step_stats.nonlinear_cycles
        stats.decode.macs += step_stats.macs
        stats.decode.hbm_bytes += step_stats.hbm_bytes
    return stats


HW = {"veda": veda_config(), "baseline": baseline_config()}
MODELS = {"7b": llama2_7b_shapes(), "tiny": tiny_config(), "small": small_lm_config()}
#: (hw name, model name, tp) -> (warm simulator shared across examples,
#: reference).  Later examples re-hit earlier examples' entries, so
#: comparing the warm instance covers cache hits; a fresh instance per
#: example covers misses.
CONFIGS = {
    (hw_name, model_name, tp): (
        AcceleratorSimulator(hw, model, tp=tp),
        ReferenceModel(hw, model, tp),
    )
    for hw_name, hw in HW.items()
    for model_name, model in MODELS.items()
    for tp in (1, 2, 4)
    if model.n_heads % tp == 0 and model.d_ff % tp == 0
}
WARM = CONFIGS[("veda", "7b", 1)][0]

configs = st.sampled_from(sorted(CONFIGS))
rows = st.integers(1, 384)
prefixes = st.integers(0, 128)
lengths = st.integers(1, 512)
#: Up to the batch caps served rounds reach.
batches = st.lists(st.integers(1, 512), min_size=1, max_size=32)
dataflows = st.sampled_from(["auto", "prefill", "decode"])


def _legal(config, dataflow):
    """The baseline array cannot select the streaming mapping."""
    return "auto" if config[0] == "baseline" and dataflow == "decode" else dataflow


def _fields(stats):
    """Every PhaseStats field, compared with ``==``."""
    return {f.name: getattr(stats, f.name) for f in fields(PhaseStats)}


def _simulators(config):
    warm, reference = CONFIGS[config]
    hw_name, model_name, tp = config
    fresh = AcceleratorSimulator(HW[hw_name], MODELS[model_name], tp=tp)
    return warm, fresh, reference


class TestCacheMatchesReference:
    @given(configs, rows, prefixes, dataflows)
    @settings(max_examples=60, deadline=None)
    def test_prefill_bitwise_equal(self, config, prompt, prefix, dataflow):
        dataflow = _legal(config, dataflow)
        warm, fresh, reference = _simulators(config)
        expected = _fields(reference.prefill(prompt, dataflow, prefix))
        for sim in (warm, fresh):
            assert _fields(sim.prefill(prompt, dataflow, prefix)) == expected

    @given(configs, batches, dataflows)
    @settings(max_examples=60, deadline=None)
    def test_decode_round_bitwise_equal(self, config, cache_lengths, dataflow):
        dataflow = _legal(config, dataflow)
        warm, fresh, reference = _simulators(config)
        expected = reference.decode_round(cache_lengths, dataflow)
        for sim in (warm, fresh):
            got = sim.decode_round(cache_lengths, dataflow)
            assert _fields(got) == _fields(expected)
            assert got.per_sequence_attention == expected.per_sequence_attention

    @given(configs, lengths, dataflows)
    @settings(max_examples=60, deadline=None)
    def test_single_sequence_round_is_decode_step(self, config, length, dataflow):
        """``decode_round([L])`` is the solo decode step ``run()`` and
        ``CoSimulator`` price, field for field."""
        dataflow = _legal(config, dataflow)
        warm, fresh, reference = _simulators(config)
        expected = _fields(reference.decode_step(length, dataflow))
        for sim in (warm, fresh):
            assert _fields(sim.decode_round([length], dataflow)) == expected

    @given(
        configs,
        st.lists(st.tuples(rows, prefixes), min_size=0, max_size=3),
        batches,
        dataflows,
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_round_warm_equals_cold(self, config, prefills, decode_lengths, dataflow):
        """Warm equals cold, and both halves of the round equal the
        reference: each prefill pass and the batched decode round."""
        dataflow = _legal(config, dataflow)
        warm, fresh, reference = _simulators(config)
        got = [
            sim.mixed_round(
                prefill_lengths=[length for length, _ in prefills],
                decode_lengths=decode_lengths,
                dataflow=dataflow,
                prefix_lengths=[prefix for _, prefix in prefills],
            )
            for sim in (warm, fresh)
        ]
        assert got[0] == got[1]
        assert [_fields(p) for p in got[0].prefills] == [
            _fields(reference.prefill(length, dataflow, prefix))
            for length, prefix in prefills
        ]
        expected = reference.decode_round(decode_lengths, dataflow)
        assert _fields(got[0].decode) == _fields(expected)
        assert got[0].decode.per_sequence_attention == expected.per_sequence_attention

    @given(
        configs,
        st.integers(1, 256),
        st.integers(0, 48),
        st.one_of(st.none(), st.integers(1, 128)),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_matches_reference_loop(self, config, prompt, gen, budget):
        """``run()`` equals the step-by-step reference loop in every
        field, per-token traces included."""
        warm, fresh, reference = _simulators(config)
        expected = reference_run(reference, prompt, gen, budget)
        for sim in (warm, fresh):
            assert sim.run(prompt, gen, budget) == expected


class TestReturnedStatsAreFresh:
    def test_mutating_a_result_leaves_the_cache_intact(self):
        """``run()`` adds vote traffic to each step's ``hbm_bytes`` in
        place, so a cached result must never be handed out shared."""
        sim = AcceleratorSimulator(veda_config(), MODELS["7b"])
        round_stats = sim.decode_round([128, 256])
        expected_round = _fields(sim.decode_round([128, 256]))
        round_stats.hbm_bytes += 1.0
        round_stats.attention.qk += 1.0
        round_stats.per_sequence_attention.append(0.0)
        prefill = sim.prefill(64)
        expected_prefill = _fields(sim.prefill(64))
        prefill.cycles += 1.0
        prefill.attention.sv += 1.0
        assert _fields(sim.decode_round([128, 256])) == expected_round
        assert len(sim.decode_round([128, 256]).per_sequence_attention) == 2
        assert _fields(sim.prefill(64)) == expected_prefill


class TestPredictedCostMonotone:
    @given(rows, st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_prefill_nondecreasing_in_chunk_rows(self, prompt, extra):
        """A bigger prefill chunk never predicts cheaper — the ordering
        the adaptive chunk ladder's budget search relies on."""
        assert WARM.prefill_cycles(prompt + extra) >= WARM.prefill_cycles(prompt)

    @given(batches, lengths)
    @settings(max_examples=60, deadline=None)
    def test_decode_nondecreasing_in_width(self, cache_lengths, added):
        """Admitting one more decode sequence never predicts cheaper."""
        wider = cache_lengths + [added]
        assert WARM.decode_round_cycles(wider) >= WARM.decode_round_cycles(
            cache_lengths
        )

    @given(batches, st.integers(0, 5), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_decode_nondecreasing_in_length(self, cache_lengths, index, grow):
        """A longer resident KV never predicts a cheaper round."""
        index %= len(cache_lengths)
        longer = list(cache_lengths)
        longer[index] += grow
        assert WARM.decode_round_cycles(longer) >= WARM.decode_round_cycles(
            cache_lengths
        )

    @given(lengths)
    @settings(max_examples=30, deadline=None)
    def test_preempt_prices_positive(self, kv_slots):
        """Both preemption mechanisms cost real cycles, and a swap-out
        plus swap-in is exactly two one-way transfers."""
        assert WARM.preempt_swap_cycles(kv_slots) == 2 * WARM.swap_cycles(kv_slots)
        assert WARM.preempt_swap_cycles(kv_slots) > 0
        assert WARM.preempt_recompute_cycles(kv_slots) > 0

    def test_empty_decode_round_prices_zero(self):
        assert WARM.decode_round_cycles([]) == 0.0
        with pytest.raises(ValueError):
            WARM.decode_round([])

"""Batched decode rounds, mixed-round costing, and dataflow selection."""

import pytest

from repro.accel.config import baseline_config, veda_config
from repro.accel.scheduler import (
    DATAFLOWS,
    decode_attention,
    prefill_attention,
    resolve_dataflow,
)
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes, tiny_config


@pytest.fixture()
def hw():
    return veda_config()


@pytest.fixture()
def shapes():
    return llama2_7b_shapes()


class TestResolveDataflow:
    def test_auto_resolves_to_phase(self, hw):
        assert resolve_dataflow("auto", hw, "prefill") == "prefill"
        assert resolve_dataflow("auto", hw, "decode") == "decode"

    def test_pinned_selection_overrides_phase(self, hw):
        assert resolve_dataflow("prefill", hw, "decode") == "prefill"
        assert resolve_dataflow("decode", hw, "prefill") == "decode"

    def test_fixed_hardware_collapses_to_tiled(self):
        fixed = baseline_config()
        assert resolve_dataflow("auto", fixed, "decode") == "prefill"
        assert resolve_dataflow("prefill", fixed, "prefill") == "prefill"

    def test_fixed_hardware_rejects_streaming(self):
        with pytest.raises(ValueError):
            resolve_dataflow("decode", baseline_config(), "decode")

    def test_unknown_dataflow_rejected(self, hw):
        with pytest.raises(ValueError):
            resolve_dataflow("gemm", hw, "decode")
        with pytest.raises(ValueError):
            resolve_dataflow("auto", hw, "mixed")


class TestDataflowPenalties:
    """Each phase is native under its own mapping and pays cross-phase."""

    def test_decode_native_mapping_matches_default(self, hw, shapes):
        for length in (7, 64, 500, 4096):
            default = decode_attention(length, shapes.head_dim, shapes.n_heads, hw)
            streaming = decode_attention(
                length, shapes.head_dim, shapes.n_heads, hw, dataflow="decode"
            )
            assert streaming.total == default.total

    def test_decode_under_tiled_mapping_costs_more(self, hw, shapes):
        for length in (7, 64, 500, 4096):
            native = decode_attention(length, shapes.head_dim, shapes.n_heads, hw)
            pinned = decode_attention(
                length, shapes.head_dim, shapes.n_heads, hw, dataflow="prefill"
            )
            assert pinned.total > native.total

    def test_prefill_native_mapping_matches_default(self, hw, shapes):
        default = prefill_attention(48, shapes.head_dim, shapes.n_heads, hw)
        tiled = prefill_attention(
            48, shapes.head_dim, shapes.n_heads, hw, dataflow="prefill"
        )
        assert tiled.total == default.total

    def test_prefill_under_streaming_mapping_costs_more(self, hw, shapes):
        """7B shapes are bandwidth-balanced, so per-row K/V re-streaming
        through the strided derate is strictly memory-bound."""
        native = prefill_attention(48, shapes.head_dim, shapes.n_heads, hw)
        pinned = prefill_attention(
            48, shapes.head_dim, shapes.n_heads, hw, dataflow="decode"
        )
        assert pinned.total > native.total

    def test_fixed_hardware_keeps_baseline_costs(self, shapes):
        fixed = baseline_config()
        for dataflow in ("auto", "prefill"):
            assert (
                decode_attention(
                    100, shapes.head_dim, shapes.n_heads, fixed, dataflow=dataflow
                ).total
                == decode_attention(100, shapes.head_dim, shapes.n_heads, fixed).total
            )

    def test_prefix_length_extends_attended_keys(self, hw, shapes):
        """A continuation row attends to resident prefix keys, so pricing
        rows [P+1, P+S] of a cold prefill equals the continuation cost."""
        full = prefill_attention(48, shapes.head_dim, shapes.n_heads, hw)
        head = prefill_attention(32, shapes.head_dim, shapes.n_heads, hw)
        tail = prefill_attention(
            16, shapes.head_dim, shapes.n_heads, hw, prefix_length=32
        )
        assert head.total + tail.total == pytest.approx(full.total)


class TestDecodeRound:
    def test_single_sequence_round_is_a_solo_step(self, hw, shapes):
        """The anchor for batch-size-1 serving-cosim equivalence: a
        one-sequence round is exactly the step ``run()`` prices (the
        field-by-field check against the uncached decode-step loop is in
        tests/properties/test_property_predictor.py)."""
        sim = AcceleratorSimulator(hw, shapes)
        for prompt in (4, 63, 499):
            round_stats = sim.decode_round([prompt + 1])
            run = sim.run(prompt, 1)
            assert round_stats.cycles == run.decode_total_per_token[0]
            assert round_stats.attention.total == run.decode_attention_per_token[0]
            assert round_stats.per_sequence_attention == [
                decode_attention(prompt + 1, shapes.head_dim, shapes.n_heads, hw).total
                * shapes.n_layers
            ]

    def test_batched_round_amortizes_weight_fetch(self, shapes):
        """On bandwidth-rich hardware decode GEMVs are memory-bound, so
        one weight fetch serving the whole batch beats per-sequence
        streaming."""
        cloud = veda_config(pe_arrays=32)
        sim = AcceleratorSimulator(cloud, shapes)
        lengths = [256] * 8
        batched = sim.decode_round(lengths)
        sequential = sum(sim.decode_round([l]).cycles for l in lengths)
        assert batched.cycles < sequential

    def test_batched_round_never_beats_per_token_attention(self, hw, shapes):
        """Attention is per-sequence (private KV): the batched round's
        attention cycles equal the sum over sequences."""
        sim = AcceleratorSimulator(hw, shapes)
        lengths = [100, 200, 300]
        round_stats = sim.decode_round(lengths)
        per_seq = [
            decode_attention(l, shapes.head_dim, shapes.n_heads, hw).total
            * shapes.n_layers
            for l in lengths
        ]
        assert round_stats.per_sequence_attention == per_seq

    def test_empty_round_rejected(self, hw, shapes):
        with pytest.raises(ValueError):
            AcceleratorSimulator(hw, shapes).decode_round([])


class TestMixedRound:
    def test_composition(self, hw, shapes):
        """A mixed round is its prefill passes plus one batched decode."""
        sim = AcceleratorSimulator(hw, shapes)
        mixed = sim.mixed_round([32], [128, 256], dataflow="auto")
        assert mixed.prefill_cycles == sim.prefill(32).cycles
        assert mixed.decode_cycles == sim.decode_round([128, 256]).cycles
        assert mixed.cycles == mixed.prefill_cycles + mixed.decode_cycles
        assert len(mixed.per_sequence_attention) == 2

    def test_decode_only_round(self, hw, shapes):
        sim = AcceleratorSimulator(hw, shapes)
        mixed = sim.mixed_round(decode_lengths=[64])
        assert mixed.prefills == []
        assert mixed.cycles == sim.decode_round([64]).cycles

    def test_prefill_only_round(self, hw, shapes):
        sim = AcceleratorSimulator(hw, shapes)
        mixed = sim.mixed_round(prefill_lengths=[16, 24])
        assert mixed.decode is None
        assert mixed.decode_cycles == 0.0
        assert mixed.cycles == sim.prefill(16).cycles + sim.prefill(24).cycles

    def test_empty_round_rejected(self, hw, shapes):
        with pytest.raises(ValueError):
            AcceleratorSimulator(hw, shapes).mixed_round()

    def test_mismatched_prefix_lengths_rejected(self, hw, shapes):
        with pytest.raises(ValueError):
            AcceleratorSimulator(hw, shapes).mixed_round(
                [16], [64], prefix_lengths=[0, 0]
            )

    def test_auto_lower_bounds_both_pinned_mappings(self, hw, shapes):
        """The acceptance inequality at the single-round level: per-phase
        reconfiguration is at least as cheap as either pinned mapping,
        strictly cheaper on a genuinely mixed round."""
        sim = AcceleratorSimulator(hw, shapes)
        auto = sim.mixed_round([48], [300, 400], dataflow="auto").cycles
        for pinned in ("prefill", "decode"):
            assert auto < sim.mixed_round([48], [300, 400], dataflow=pinned).cycles

    def test_prefix_hit_prices_fewer_rows(self, hw, shapes):
        sim = AcceleratorSimulator(hw, shapes)
        cold = sim.prefill(48)
        warm = sim.prefill(16, prefix_length=32)
        assert warm.cycles < cold.cycles
        assert warm.hbm_bytes < cold.hbm_bytes


class TestDataflowConstants:
    def test_dataflows_tuple(self):
        assert DATAFLOWS == ("auto", "prefill", "decode")

"""End-to-end accelerator simulator."""

import pytest

from repro.accel.config import ablation_configs, veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes, tiny_config


@pytest.fixture(scope="module")
def llama_sim():
    return AcceleratorSimulator(veda_config(), llama2_7b_shapes())


class TestDecodeStep:
    """A solo decode step is a one-sequence decode round."""

    def test_cycles_positive_and_monotone_in_cache(self, llama_sim):
        short = llama_sim.decode_round([128])
        long = llama_sim.decode_round([1024])
        assert 0 < short.cycles < long.cycles
        assert short.attention.total < long.attention.total

    def test_linear_layers_memory_bound(self, llama_sim):
        """Decode weights stream from HBM: linear cycles ≈ weight bytes /
        bandwidth."""
        stats = llama_sim.decode_round([128])
        model = llama_sim.model
        weight_bytes = (
            model.n_layers * (4 * model.d_model**2 + 3 * model.d_model * model.d_ff)
            + model.d_model * model.vocab_size
        ) * 2
        expected = weight_bytes / llama_sim.hw.bytes_per_cycle
        assert stats.linear_cycles == pytest.approx(expected, rel=0.01)

    def test_macs_counted(self, llama_sim):
        stats = llama_sim.decode_round([256])
        model = llama_sim.model
        linear_macs = (
            model.n_layers * (4 * model.d_model**2 + 3 * model.d_model * model.d_ff)
            + model.d_model * model.vocab_size
        )
        attn_macs = model.n_layers * 2 * model.d_model * 256
        assert stats.macs == pytest.approx(linear_macs + attn_macs)


class TestPrefill:
    def test_prefill_scales_superlinearly(self, llama_sim):
        """Attention is quadratic in prompt length."""
        short = llama_sim.prefill(128)
        long = llama_sim.prefill(512)
        assert long.attention.total > 10 * short.attention.total

    def test_rejects_bad_prompt(self, llama_sim):
        with pytest.raises(ValueError):
            llama_sim.prefill(0)

    def test_near_full_utilization(self, llama_sim):
        """Prefill GEMMs on aligned Llama shapes keep the array busy
        (paper: 245/256 GOPS)."""
        stats = llama_sim.prefill(512)
        gops = llama_sim.achieved_gops(stats)
        assert gops > 0.9 * llama_sim.hw.peak_gops


class TestRun:
    def test_cache_trajectory_without_budget(self, llama_sim):
        assert llama_sim.cache_length_at(512, 1) == 513
        assert llama_sim.cache_length_at(512, 100) == 612

    def test_cache_trajectory_with_budget(self, llama_sim):
        assert llama_sim.cache_length_at(512, 100, kv_budget=256) == 257

    def test_budget_speeds_up_decode(self, llama_sim):
        full = llama_sim.run(512, 64)
        compressed = llama_sim.run(512, 64, kv_budget=128)
        assert compressed.decode.cycles < full.decode.cycles
        assert compressed.prefill.cycles == full.prefill.cycles

    def test_mean_attention_metrics(self, llama_sim):
        stats = llama_sim.run(512, 32)
        assert stats.mean_decode_attention() > 0
        assert stats.mean_attention_per_token(512) > 0
        assert len(stats.decode_attention_per_token) == 32

    def test_vote_traffic_charged_only_with_budget(self, llama_sim):
        with_budget = llama_sim.run(512, 16, kv_budget=256)
        without = llama_sim.run(512, 16)
        per_step_without = without.decode.hbm_bytes
        # budgeted run reads less KV but adds vote counters; both effects
        # must at least be present (bytes differ).
        assert with_budget.decode.hbm_bytes != per_step_without

    def test_no_decode_steps_raises_on_mean(self, llama_sim):
        stats = llama_sim.run(512, 0)
        with pytest.raises(ValueError):
            stats.mean_decode_attention()


class TestEndToEnd:
    def test_tokens_per_second_matches_paper(self, llama_sim):
        """Paper: 18.6 tokens/s for one VEDA on Llama-2 7B."""
        tps = llama_sim.tokens_per_second(512, 64, kv_budget=256)
        assert tps == pytest.approx(18.6, rel=0.05)

    def test_ablation_ordering_full_run(self):
        model = llama2_7b_shapes()
        totals = {}
        for name, hw in ablation_configs().items():
            sim = AcceleratorSimulator(hw, model)
            totals[name] = sim.run(512, 64).total_attention_cycles
        assert totals["Baseline"] > totals["Baseline+F"] > totals["Baseline+F+E"]

    def test_small_model_shapes_work(self):
        """The simulator accepts arbitrary model shapes (e.g. the tiny
        test model with d_head 16 < array width)."""
        sim = AcceleratorSimulator(veda_config(), tiny_config())
        stats = sim.run(16, 4, kv_budget=8)
        assert stats.total_cycles > 0

"""Cached inference path vs the training graph — the central equivalence."""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM


class TestEquivalence:
    def test_prefill_matches_training_forward(self, tiny_model, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=24)
        train_logits = tiny_model(tokens[None, :]).numpy()[0]
        cache = tiny_inference.new_cache()
        result = tiny_inference.prefill(tokens, cache)
        np.testing.assert_allclose(result.logits, train_logits[-1], atol=1e-9)

    def test_decode_matches_training_forward(self, tiny_model, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=20)
        train_logits = tiny_model(tokens[None, :]).numpy()[0]
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens[:8], cache)
        for i in range(8, 20):
            step = tiny_inference.step(tokens[i], i, cache)
            np.testing.assert_allclose(step.logits, train_logits[i], atol=1e-9)

    def test_pure_decode_matches(self, tiny_model, tiny_inference, rng):
        """Token-by-token from position 1 equals the parallel forward."""
        tokens = rng.integers(0, 64, size=10)
        train_logits = tiny_model(tokens[None, :]).numpy()[0]
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens[:1], cache)
        for i in range(1, 10):
            step = tiny_inference.step(tokens[i], i, cache)
            np.testing.assert_allclose(step.logits, train_logits[i], atol=1e-9)

    def test_gelu_layernorm_variant_matches(self, rng):
        cfg = tiny_config(norm="layernorm", activation="gelu")
        model = TransformerLM(cfg, seed=11)
        inference = CachedTransformer.from_module(model)
        tokens = rng.integers(0, cfg.vocab_size, size=12)
        train_logits = model(tokens[None, :]).numpy()[0]
        cache = inference.new_cache()
        result = inference.prefill(tokens, cache)
        np.testing.assert_allclose(result.logits, train_logits[-1], atol=1e-9)


class TestLeanKernels:
    """The decode loop's elementwise helpers spell ``np.mean`` as the
    ufunc reduction it wraps; the result must not move by a bit."""

    @pytest.mark.parametrize("norm", ["rmsnorm", "layernorm"])
    def test_norm_bitwise_equals_np_mean_formulation(self, norm, rng):
        cfg = tiny_config(norm=norm)
        inference = CachedTransformer.from_module(TransformerLM(cfg, seed=3))
        weight = rng.normal(size=cfg.d_model)
        bias = rng.normal(size=cfg.d_model)
        for rows in (1, 2, 7, 33):
            x = rng.normal(size=(rows, cfg.d_model)) * 3.0
            if norm == "rmsnorm":
                mean_square = np.mean(x**2, axis=-1, keepdims=True)
                expected = x / np.sqrt(mean_square + 1e-6) * weight
            else:
                centered = x - np.mean(x, axis=-1, keepdims=True)
                variance = np.mean(centered**2, axis=-1, keepdims=True)
                expected = centered / np.sqrt(variance + 1e-5) * weight + bias
            np.testing.assert_array_equal(inference._norm(x, weight, bias), expected)

    def test_hoisted_rope_lookup_rejects_out_of_range_positions(self, tiny_inference):
        """The once-per-call range check still guards every entry point,
        before any cache is touched."""
        limit = tiny_inference.config.max_seq_len
        cache = tiny_inference.new_cache()
        with pytest.raises(IndexError):
            tiny_inference.step_batch([1], [limit], [cache])
        with pytest.raises(IndexError):
            tiny_inference.prefill(np.arange(4), cache, start_position=limit - 2)
        with pytest.raises(IndexError):
            # A verify window whose positions cross max_seq_len.
            tiny_inference.step_batch(
                np.arange(4), np.arange(limit - 2, limit + 2), [cache] * 4
            )
        assert cache.lengths == [0] * tiny_inference.config.n_layers


class TestAttentionRecords:
    def test_prefill_attention_shapes(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=9)
        cache = tiny_inference.new_cache()
        result = tiny_inference.prefill(tokens, cache)
        cfg = tiny_inference.config
        assert len(result.attention) == cfg.n_layers
        for attn in result.attention:
            assert attn.shape == (cfg.n_heads, 9, 9)

    def test_prefill_attention_is_causal_rows(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=7)
        cache = tiny_inference.new_cache()
        result = tiny_inference.prefill(tokens, cache)
        for attn in result.attention:
            upper = np.triu(np.ones((7, 7), dtype=bool), k=1)
            assert np.all(attn[:, upper] < 1e-10)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_step_attention_rows_sum_to_one(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=6)
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens[:5], cache)
        step = tiny_inference.step(tokens[5], 5, cache)
        for attn in step.attention:
            assert attn.shape == (tiny_inference.config.n_heads, 6)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)


class TestCacheInteraction:
    def test_cache_populated_by_prefill(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=8)
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens, cache)
        assert cache.lengths == [8] * tiny_inference.config.n_layers
        np.testing.assert_array_equal(cache[0].positions, np.arange(8))

    def test_step_appends(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=4)
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens, cache)
        tiny_inference.step(5, 4, cache)
        assert cache.lengths == [5] * tiny_inference.config.n_layers
        assert cache[0].positions[-1] == 4

    def test_eviction_changes_only_evicted_contribution(self, tiny_inference, rng):
        """Evicting a slot means later steps attend over fewer entries."""
        tokens = rng.integers(0, 64, size=10)
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(tokens[:9], cache)
        for layer_cache in cache:
            layer_cache.evict(3)
        step = tiny_inference.step(tokens[9], 9, cache)
        for attn in step.attention:
            assert attn.shape[1] == 9  # 8 survivors + the new token

    def test_empty_prompt_rejected(self, tiny_inference):
        with pytest.raises(ValueError):
            tiny_inference.prefill(np.array([], dtype=int), tiny_inference.new_cache())


class TestBatchedDecode:
    """step_batch: batching must not change any sequence's numbers."""

    def _prefilled(self, tiny_inference, rng, lengths):
        caches, prompts = [], []
        for length in lengths:
            tokens = rng.integers(0, 64, size=length)
            cache = tiny_inference.new_cache()
            tiny_inference.prefill(tokens, cache)
            caches.append(cache)
            prompts.append(tokens)
        return caches, prompts

    def test_step_batch_bitwise_matches_solo_step(self, tiny_inference, rng):
        """A sequence decodes to bit-identical logits alone or batched."""
        solo_caches, prompts = self._prefilled(tiny_inference, rng, [6, 11, 17])
        batch_rng = np.random.default_rng(99)  # same stream as `rng` fixture
        batch_caches, _ = self._prefilled(tiny_inference, batch_rng, [6, 11, 17])

        tokens = [3, 9, 27]
        positions = [len(p) for p in prompts]
        solo_logits = [
            tiny_inference.step(t, p, c).logits
            for t, p, c in zip(tokens, positions, solo_caches)
        ]
        batched = tiny_inference.step_batch(tokens, positions, batch_caches)
        for b in range(3):
            np.testing.assert_array_equal(batched.logits[b], solo_logits[b])

    def test_step_batch_attention_rows_match_solo(self, tiny_inference, rng):
        solo_caches, prompts = self._prefilled(tiny_inference, rng, [5, 9])
        batch_rng = np.random.default_rng(99)
        batch_caches, _ = self._prefilled(tiny_inference, batch_rng, [5, 9])

        tokens, positions = [1, 2], [len(p) for p in prompts]
        solo = [
            tiny_inference.step(t, p, c)
            for t, p, c in zip(tokens, positions, solo_caches)
        ]
        batched = tiny_inference.step_batch(tokens, positions, batch_caches)
        for layer in range(tiny_inference.config.n_layers):
            for b in range(2):
                np.testing.assert_array_equal(
                    batched.attention[layer][b], solo[b].attention[layer]
                )

    def test_step_batch_appends_to_each_cache(self, tiny_inference, rng):
        caches, prompts = self._prefilled(tiny_inference, rng, [4, 7])
        tiny_inference.step_batch([0, 1], [4, 7], caches)
        assert caches[0].lengths == [5] * tiny_inference.config.n_layers
        assert caches[1].lengths == [8] * tiny_inference.config.n_layers
        assert caches[0][0].positions[-1] == 4
        assert caches[1][0].positions[-1] == 7

    def test_step_batch_shape_validation(self, tiny_inference, rng):
        caches, _ = self._prefilled(tiny_inference, rng, [4])
        with pytest.raises(ValueError):
            tiny_inference.step_batch([1, 2], [4], caches)
        with pytest.raises(ValueError):
            tiny_inference.step_batch([], [], [])

    def test_ragged_batch_with_evictions(self, tiny_inference, rng):
        """Mixed cache lengths after eviction still decode per-sequence."""
        caches, prompts = self._prefilled(tiny_inference, rng, [10, 10])
        for layer_cache in caches[0]:
            layer_cache.evict(2)
        result = tiny_inference.step_batch([5, 6], [10, 10], caches)
        assert result.attention[0][0].shape[1] == 10  # 9 survivors + new
        assert result.attention[0][1].shape[1] == 11

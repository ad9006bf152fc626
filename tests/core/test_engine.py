"""Generation engine: budgets, eviction wiring, perplexity protocol."""

import numpy as np
import pytest

from repro.core.engine import (
    GenerationEngine,
    budget_from_ratio,
    observe_and_evict,
    sequence_capacity,
)
from repro.core.policies import (
    FullCachePolicy,
    H2OPolicy,
    RandomEvictionPolicy,
    StreamingLLMPolicy,
    VotingPolicy,
)
from repro.core.policies.base import GENERATION, PREFILL
from repro.core.sampling import greedy
from repro.serve.paging import BlockPool, PagedKVCache


@pytest.fixture()
def prompt(rng):
    return rng.integers(0, 64, size=24)


class TestBudgetFromRatio:
    def test_paper_formula(self):
        assert budget_from_ratio(0.5, 512) == 256
        assert budget_from_ratio(0.2, 512) == 102

    def test_reserved_lower_bound(self):
        assert budget_from_ratio(0.01, 100, minimum=32) == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_from_ratio(0.0, 100)
        with pytest.raises(ValueError):
            budget_from_ratio(1.5, 100)


class TestGenerate:
    def test_unbounded_cache_grows(self, tiny_inference, prompt):
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        result = engine.generate(prompt, max_new_tokens=6)
        assert len(result.tokens) == 6
        assert result.cache_lengths[-1] == 24 + 6
        assert result.num_evictions == 0

    def test_budget_enforced_every_step(self, tiny_inference, prompt):
        n_layers = tiny_inference.config.n_layers
        engine = GenerationEngine(
            tiny_inference, VotingPolicy(n_layers, reserved_length=2), budget=16
        )
        result = engine.generate(prompt, max_new_tokens=8)
        assert all(length <= 16 for length in result.cache_lengths)
        # prefill 24 -> evict 8 per layer, then 1 per step per layer
        assert result.num_evictions == n_layers * (24 - 16) + n_layers * 8

    def test_streaming_budget(self, tiny_inference, prompt):
        engine = GenerationEngine(
            tiny_inference,
            StreamingLLMPolicy(tiny_inference.config.n_layers, n_sinks=2),
            budget=12,
        )
        result = engine.generate(prompt, max_new_tokens=5)
        assert result.cache_lengths[-1] == 12

    def test_deterministic_greedy(self, tiny_inference, prompt):
        n_layers = tiny_inference.config.n_layers
        a = GenerationEngine(
            tiny_inference, VotingPolicy(n_layers), budget=16
        ).generate(prompt, 5)
        b = GenerationEngine(
            tiny_inference, VotingPolicy(n_layers), budget=16
        ).generate(prompt, 5)
        assert a.tokens == b.tokens

    def test_eos_stops(self, tiny_inference, prompt):
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        # Force every sampled token to be 7 and declare it EOS.
        result = engine.generate(
            prompt, max_new_tokens=10, sampler=lambda logits, rng: 7, eos=7
        )
        assert result.tokens == [7]

    def test_evictions_per_step_limit(self, tiny_inference, prompt):
        n_layers = tiny_inference.config.n_layers
        engine = GenerationEngine(
            tiny_inference,
            VotingPolicy(n_layers, reserved_length=2),
            budget=8,
            evictions_per_step=1,
        )
        result = engine.generate(prompt, max_new_tokens=4)
        # Prefill put 24 entries; with 1 eviction/step the cache shrinks
        # by one per processed step, so it cannot have reached budget yet.
        assert result.cache_lengths[-1] > 8
        # but the eviction log grows exactly 1 per layer per step.
        steps_processed = 1 + 4  # prefill + 4 generation steps
        assert result.num_evictions == n_layers * steps_processed

    def test_rejects_empty_prompt(self, tiny_inference):
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        with pytest.raises(ValueError):
            engine.generate(np.array([], dtype=int), 4)

    def test_rejects_bad_budget(self, tiny_inference):
        with pytest.raises(ValueError):
            GenerationEngine(
                tiny_inference,
                FullCachePolicy(tiny_inference.config.n_layers),
                budget=0,
            )


class TestPerplexity:
    def test_full_cache_matches_training_nll(self, tiny_model, tiny_inference, rng):
        """Engine NLL with no eviction == training-graph cross entropy."""
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        tokens = rng.integers(0, 64, size=20)
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        result = engine.perplexity(tokens, prefill_length=10)

        logits = tiny_model(tokens[None, :-1]).numpy()[0]
        expected = []
        for i in range(9, 19):
            row = Tensor(logits[i][None, :])
            nll = F.cross_entropy(row, np.array([tokens[i + 1]]))
            expected.append(nll.item())
        np.testing.assert_allclose(result.nll_per_token, expected, atol=1e-9)

    def test_eviction_changes_nll(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=32)
        full = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        ).perplexity(tokens, prefill_length=8)
        tiny_budget = GenerationEngine(
            tiny_inference,
            StreamingLLMPolicy(tiny_inference.config.n_layers, n_sinks=1),
            budget=4,
        ).perplexity(tokens, prefill_length=8)
        assert full.num_tokens == tiny_budget.num_tokens
        assert full.nll_per_token != tiny_budget.nll_per_token

    def test_perplexity_is_exp_mean_nll(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=16)
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        result = engine.perplexity(tokens, prefill_length=4)
        assert result.perplexity == pytest.approx(np.exp(result.mean_nll))

    def test_token_count(self, tiny_inference, rng):
        tokens = rng.integers(0, 64, size=30)
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        result = engine.perplexity(tokens, prefill_length=10)
        assert result.num_tokens == 20  # tokens 10..29 predicted

    def test_too_short_rejected(self, tiny_inference):
        engine = GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )
        with pytest.raises(ValueError):
            engine.perplexity(np.array([1]))


class _PagedCaches:
    """A model whose ``new_cache`` hands out block-paged caches."""

    def __init__(self, model):
        self._model = model
        config = model.config
        self._pool = BlockPool(config.n_heads, config.head_dim, block_size=4)

    def __getattr__(self, name):
        return getattr(self._model, name)

    def new_cache(self, capacity):
        return PagedKVCache(self._pool, self._model.config.n_layers, capacity)


def _reference_generate(model, policy, prompt, max_new_tokens, budget, per_step):
    """The decode loop as every path spelled it out by hand before the
    shared epilogue: one scalar ``observe`` per layer, then the
    per-layer select/evict/compact loop."""
    policy.reset()
    cache = model.new_cache(sequence_capacity(len(prompt), max_new_tokens, budget))
    tokens, evictions, lengths = [], [], []

    def shrink(step):
        for layer, layer_cache in enumerate(cache):
            evicted = 0
            while (
                budget is not None
                and layer_cache.length > budget
                and (per_step is None or evicted < per_step)
            ):
                slot = policy.select_victim(layer, layer_cache.positions)
                evictions.append((step, layer, layer_cache.evict(slot)))
                policy.on_evict(layer, slot)
                evicted += 1
        lengths.append(cache[0].length)

    prefill = model.prefill(prompt, cache)
    for layer, attn in enumerate(prefill.attention):
        policy.observe_block(layer, attn, np.arange(len(prompt)), PREFILL)
    shrink(0)
    logits = prefill.logits
    for step in range(1, max_new_tokens + 1):
        tokens.append(greedy(logits))
        result = model.step(tokens[-1], len(prompt) + step - 1, cache)
        for layer, attn in enumerate(result.attention):
            policy.observe(layer, attn, cache[layer].positions, GENERATION)
        shrink(step)
        logits = result.logits
    return tokens, evictions, lengths


class TestSharedDecodeEpilogue:
    """``observe_and_evict`` — the one observe→evict epilogue behind
    ``generate``, ``perplexity`` and both scheduler decode paths — is the
    hand-written loop it replaced, bit for bit."""

    POLICIES = {
        "voting": lambda n: VotingPolicy(n, reserved_length=4),
        "h2o": lambda n: H2OPolicy(n, recent_window=4),
        "random": lambda n: RandomEvictionPolicy(n, protected_prefix=2, seed=5),
    }

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("per_step", [None, 1])
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_generate_equals_the_hand_written_loop(
        self, tiny_inference, prompt, policy_name, per_step, paged
    ):
        model = _PagedCaches(tiny_inference) if paged else tiny_inference
        make = self.POLICIES[policy_name]
        n_layers = tiny_inference.config.n_layers
        result = GenerationEngine(
            model, make(n_layers), budget=12, evictions_per_step=per_step
        ).generate(prompt, max_new_tokens=20)
        tokens, evictions, lengths = _reference_generate(
            model, make(n_layers), prompt, 20, 12, per_step
        )
        assert result.tokens == tokens
        assert result.evictions == evictions
        assert result.cache_lengths == lengths
        assert result.num_evictions > 0

    def test_unbudgeted_sequence_still_observes(self, tiny_inference, prompt):
        """No budget means no eviction, but the policy state other code
        reads (swap snapshots, fork copies) keeps accumulating."""
        policy = VotingPolicy(tiny_inference.config.n_layers, reserved_length=4)
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(prompt, cache)
        step = tiny_inference.step(3, len(prompt), cache)
        log = []
        observe_and_evict(policy, cache, step.attention, None, 1, log)
        assert log == [] and cache.lengths == [len(prompt) + 1] * cache.n_layers
        assert policy.vote_counts(0).shape[0] == len(prompt) + 1

    def test_width_slices_positions_to_a_speculative_row(self, tiny_inference, prompt):
        """A verify window's forward appends every row up front; row
        ``i`` is observed against the first ``prior + i + 1`` slots only."""
        n_layers = tiny_inference.config.n_layers
        sequential, speculative = (
            VotingPolicy(n_layers, reserved_length=4) for _ in range(2)
        )
        drafts = np.array([3, 9, 27])
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(prompt, cache)
        for i, token in enumerate(drafts):
            step = tiny_inference.step(token, len(prompt) + i, cache)
            observe_and_evict(sequential, cache, step.attention, None, i, [])
        cache = tiny_inference.new_cache()
        tiny_inference.prefill(prompt, cache)
        verify = tiny_inference.step_batch(
            drafts, len(prompt) + np.arange(len(drafts)), [cache] * len(drafts)
        )
        for i in range(len(drafts)):
            observe_and_evict(
                speculative,
                cache,
                [rows[i] for rows in verify.attention],
                None,
                i,
                [],
                width=len(prompt) + i + 1,
            )
        for layer in range(n_layers):
            np.testing.assert_array_equal(
                sequential.vote_counts(layer), speculative.vote_counts(layer)
            )


class TestUnservableInput:
    """Token ids and lengths the model cannot serve are refused before
    any work, not by an ``IndexError`` (or a silent ``embed[-k]`` read)
    deep inside the decode loop."""

    @pytest.fixture()
    def engine(self, tiny_inference):
        return GenerationEngine(
            tiny_inference, FullCachePolicy(tiny_inference.config.n_layers)
        )

    @pytest.mark.parametrize("bad", [-1, 64])
    def test_out_of_vocabulary_token(self, engine, bad):
        tokens = np.array([1, 2, bad, 4])
        with pytest.raises(ValueError, match="token ids"):
            engine.generate(tokens, max_new_tokens=2)
        with pytest.raises(ValueError, match="token ids"):
            engine.perplexity(tokens)

    def test_non_integer_tokens(self, engine):
        with pytest.raises(ValueError, match="token ids"):
            engine.generate(np.array([1.0, 2.0]), max_new_tokens=2)

    def test_sequence_longer_than_the_rope_table(self, engine, tiny_inference):
        limit = tiny_inference.config.max_seq_len
        with pytest.raises(ValueError, match="max_seq_len"):
            engine.generate(np.arange(10), max_new_tokens=limit - 9)
        with pytest.raises(ValueError, match="max_seq_len"):
            engine.perplexity(np.arange(limit + 1) % 64)
        assert len(engine.generate(np.arange(10), limit - 10).tokens) == limit - 10

"""Eviction policies: registry, streaming, H2O, random, full."""

import numpy as np
import pytest

from repro.core.policies import (
    FullCachePolicy,
    H2OPolicy,
    RandomEvictionPolicy,
    StreamingLLMPolicy,
    available_policies,
    make_policy,
)
from repro.core.policies.base import GENERATION


def uniform_attn(heads, length):
    return np.full((heads, length), 1.0 / length)


class TestRegistry:
    def test_all_policies_registered(self):
        names = available_policies()
        for expected in ["full", "streaming", "h2o", "voting", "random"]:
            assert expected in names

    def test_make_policy(self):
        policy = make_policy("streaming", n_layers=2, n_sinks=3)
        assert isinstance(policy, StreamingLLMPolicy)
        assert policy.n_sinks == 3

    def test_unknown_policy(self):
        with pytest.raises(KeyError):
            make_policy("nonexistent", n_layers=1)

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            StreamingLLMPolicy(n_layers=0)


class TestFullCache:
    def test_never_selects(self):
        policy = FullCachePolicy(n_layers=1)
        with pytest.raises(RuntimeError):
            policy.select_victim(0, np.arange(5))


class TestStreaming:
    def test_evicts_oldest_non_sink(self):
        policy = StreamingLLMPolicy(n_layers=1, n_sinks=4)
        positions = np.arange(10)
        assert policy.select_victim(0, positions) == 4

    def test_respects_gaps(self):
        policy = StreamingLLMPolicy(n_layers=1, n_sinks=4)
        # sinks 0-3 retained, then survivors 7, 9, 10
        positions = np.array([0, 1, 2, 3, 7, 9, 10])
        assert policy.select_victim(0, positions) == 4  # position 7

    def test_all_sinks_fallback(self):
        policy = StreamingLLMPolicy(n_layers=1, n_sinks=8)
        assert policy.select_victim(0, np.arange(3)) == 2

    def test_empty_cache_rejected(self):
        policy = StreamingLLMPolicy(n_layers=1)
        with pytest.raises(ValueError):
            policy.select_victim(0, np.array([]))

    def test_steady_state_is_sinks_plus_recent(self):
        """Simulated long run: survivors = sinks + most recent window."""
        policy = StreamingLLMPolicy(n_layers=1, n_sinks=2)
        positions = list(range(8))
        for new_pos in range(8, 40):
            positions.append(new_pos)
            slot = policy.select_victim(0, np.array(positions))
            positions.pop(slot)
        assert positions[:2] == [0, 1]
        assert positions[2:] == list(range(34, 40))


class TestH2O:
    def test_accumulates_scores(self):
        policy = H2OPolicy(n_layers=1, recent_window=0)
        attn = np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1]])
        policy.observe(0, attn, np.arange(3), GENERATION)
        np.testing.assert_allclose(policy.accumulated(0), [0.3, 0.55, 0.15])

    def test_evicts_minimum(self):
        policy = H2OPolicy(n_layers=1, recent_window=0)
        policy.observe(0, np.array([[0.2, 0.1, 0.7]]), np.arange(3), GENERATION)
        assert policy.select_victim(0, np.arange(3)) == 1

    def test_recent_window_protected(self):
        policy = H2OPolicy(n_layers=1, recent_window=2)
        policy.observe(0, np.array([[0.5, 0.3, 0.1, 0.1]]), np.arange(4), GENERATION)
        # Minimum is slot 2 or 3 but both are protected; next-lowest is 1.
        assert policy.select_victim(0, np.arange(4)) == 1

    def test_on_evict_compacts(self):
        policy = H2OPolicy(n_layers=1, recent_window=0)
        policy.observe(0, np.array([[0.2, 0.3, 0.5]]), np.arange(3), GENERATION)
        policy.on_evict(0, 0)
        np.testing.assert_allclose(policy.accumulated(0), [0.3, 0.5])

    def test_growing_rows(self):
        policy = H2OPolicy(n_layers=1, recent_window=0)
        policy.observe(0, uniform_attn(2, 2), np.arange(2), GENERATION)
        policy.observe(0, uniform_attn(2, 4), np.arange(4), GENERATION)
        assert policy.accumulated(0).shape == (4,)

    def test_reset(self):
        policy = H2OPolicy(n_layers=1)
        policy.observe(0, uniform_attn(1, 3), np.arange(3), GENERATION)
        policy.reset()
        assert policy.accumulated(0).shape == (0,)

    def test_item_count_bias_demonstrated(self):
        """Earlier positions accumulate more mass — the paper's critique ①.

        With perfectly uniform attention, pure accumulation always evicts
        the newest position even though nothing distinguishes it.
        """
        policy = H2OPolicy(n_layers=1, recent_window=0)
        positions = np.arange(6)
        for step in range(1, 7):
            policy.observe(0, uniform_attn(1, step), positions[:step], GENERATION)
        scores = policy.accumulated(0)
        assert np.all(np.diff(scores) < 0)  # strictly decreasing with position
        assert policy.select_victim(0, positions) == 5  # evicts the newest


class TestRandom:
    def test_respects_protected_prefix(self):
        policy = RandomEvictionPolicy(n_layers=1, protected_prefix=5, seed=1)
        for _ in range(50):
            slot = policy.select_victim(0, np.arange(10))
            assert slot >= 5

    def test_reset_restores_stream(self):
        policy = RandomEvictionPolicy(n_layers=1, seed=3)
        first = [policy.select_victim(0, np.arange(10)) for _ in range(5)]
        policy.reset()
        second = [policy.select_victim(0, np.arange(10)) for _ in range(5)]
        assert first == second

    def test_all_protected_fallback(self):
        policy = RandomEvictionPolicy(n_layers=1, protected_prefix=99)
        assert policy.select_victim(0, np.arange(4)) == 3

"""Extension policies: TOVA, Scissorhands, decayed accumulation."""

import numpy as np
import pytest

from repro.core.policies.base import GENERATION
from repro.core.policies.extensions import (
    DecayedAccumulationPolicy,
    ScissorhandsPolicy,
    TOVAPolicy,
)


def row(values):
    values = np.asarray(values, dtype=np.float64)
    return (values / values.sum())[None, :]


class TestTOVA:
    def test_evicts_least_attended_now(self):
        policy = TOVAPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.4, 0.05, 0.35, 0.2]), np.arange(4), GENERATION)
        assert policy.select_victim(0, np.arange(4)) == 1

    def test_myopia(self):
        """Only the latest row matters — earlier observations are
        forgotten (the design's known weakness)."""
        policy = TOVAPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.9, 0.05, 0.05]), np.arange(3), GENERATION)
        policy.observe(0, row([0.05, 0.9, 0.05]), np.arange(3), GENERATION)
        # slot 0 was huge last-but-one step; the fresh row decides.
        assert policy.select_victim(0, np.arange(3)) in (0, 2)

    def test_protected_prefix(self):
        policy = TOVAPolicy(n_layers=1, protected_prefix=2, recent_window=0)
        policy.observe(0, row([0.01, 0.01, 0.49, 0.49]), np.arange(4), GENERATION)
        assert policy.select_victim(0, np.arange(4)) >= 2

    def test_on_evict_compacts(self):
        policy = TOVAPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.5, 0.1, 0.4]), np.arange(3), GENERATION)
        policy.on_evict(0, 1)
        assert policy.select_victim(0, np.arange(2)) == 1  # 0.4 < 0.5

    def test_reset(self):
        policy = TOVAPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.9, 0.1]), np.arange(2), GENERATION)
        assert policy.select_victim(0, np.arange(2)) == 1
        policy.reset()
        # Nothing observed since: every slot scores zero, the first goes.
        assert policy.select_victim(0, np.arange(2)) == 0


class TestScissorhands:
    def test_persistent_token_survives(self):
        policy = ScissorhandsPolicy(n_layers=1, history=32, protected_prefix=0, recent_window=0)
        # Slots 0 and 1 are pivotal (above the 1/3 row mean); slot 2 never.
        for _ in range(6):
            policy.observe(0, row([0.5, 0.4, 0.1]), np.arange(3), GENERATION)
        assert policy.select_victim(0, np.arange(3)) == 2

    def test_hits_decay(self):
        policy = ScissorhandsPolicy(n_layers=1, history=2, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.9, 0.1]), np.arange(2), GENERATION)
        early = policy.persistence(0)[0]
        # Many steps where slot 0 is NOT pivotal: its old hit decays.
        for _ in range(10):
            policy.observe(0, row([0.1, 0.9]), np.arange(2), GENERATION)
        assert policy.persistence(0)[0] < early

    def test_protected_prefix(self):
        policy = ScissorhandsPolicy(n_layers=1, protected_prefix=1, recent_window=0)
        policy.observe(0, row([0.05, 0.9, 0.05]), np.arange(3), GENERATION)
        assert policy.select_victim(0, np.arange(3)) != 0

    def test_on_evict(self):
        policy = ScissorhandsPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.6, 0.1, 0.3]), np.arange(3), GENERATION)
        policy.on_evict(0, 0)
        assert policy.persistence(0).shape == (2,)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScissorhandsPolicy(n_layers=1, history=0)


class TestDecayedAccumulation:
    def test_reduces_to_h2o_at_long_half_life(self):
        """With a huge half-life the score ordering matches pure
        accumulation."""
        policy = DecayedAccumulationPolicy(
            n_layers=1, half_life=10**6, protected_prefix=0, recent_window=0
        )
        r = row([0.5, 0.2, 0.3])
        for _ in range(4):
            policy.observe(0, r, np.arange(3), GENERATION)
        scores = policy.accumulated(0)
        assert scores[0] > scores[2] > scores[1]
        assert policy.select_victim(0, np.arange(3)) == 1

    def test_decay_counters_item_count_bias(self):
        """Under uniform attention, pure accumulation evicts the newest
        token; decay narrows old/new gap so the margin shrinks."""
        slow = DecayedAccumulationPolicy(n_layers=1, half_life=10**6, protected_prefix=0, recent_window=0)
        fast = DecayedAccumulationPolicy(n_layers=1, half_life=2, protected_prefix=0, recent_window=0)
        for step in range(2, 9):
            r = row(np.ones(step))
            slow.observe(0, r, np.arange(step), GENERATION)
            fast.observe(0, r, np.arange(step), GENERATION)
        gap_slow = slow.accumulated(0)[0] - slow.accumulated(0)[-1]
        gap_fast = fast.accumulated(0)[0] - fast.accumulated(0)[-1]
        assert gap_fast < gap_slow

    def test_on_evict(self):
        policy = DecayedAccumulationPolicy(n_layers=1, protected_prefix=0, recent_window=0)
        policy.observe(0, row([0.2, 0.5, 0.3]), np.arange(3), GENERATION)
        policy.on_evict(0, 0)
        np.testing.assert_allclose(policy.accumulated(0), [0.5, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedAccumulationPolicy(n_layers=1, half_life=0)

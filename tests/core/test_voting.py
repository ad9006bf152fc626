"""The voting-based eviction policy (paper Fig. 3)."""

import numpy as np
import pytest

from repro.core.policies.base import GENERATION, PREFILL, EvictionPolicy
from repro.core.policies.voting import VotingPolicy, adaptive_threshold, vote_mask


class TestAdaptiveThreshold:
    def test_uniform_row(self):
        """Even distribution: std=0 so T = a * 1/l (highest threshold)."""
        row = np.full(10, 0.1)
        assert adaptive_threshold(row) == pytest.approx(0.1)

    def test_sparse_row_lowers_threshold(self):
        """Sparse (spiky) rows have large std → lower threshold (paper:
        'a sparse attention score results in ... a lower threshold')."""
        uniform = np.full(8, 1 / 8)
        sparse = np.zeros(8)
        sparse[0] = 1.0
        assert adaptive_threshold(sparse) < adaptive_threshold(uniform)

    def test_mean_is_inverse_length(self, rng):
        """Softmax rows sum to 1, so mean = 1/l regardless of content."""
        row = rng.dirichlet(np.ones(16))
        t_mean = adaptive_threshold(row, a=1.0, b=0.0)
        assert t_mean == pytest.approx(1.0 / 16)

    def test_hyperparameters(self):
        row = np.array([0.7, 0.1, 0.1, 0.1])
        t1 = adaptive_threshold(row, a=1.0, b=0.0)
        t2 = adaptive_threshold(row, a=1.0, b=0.5)
        assert t2 < t1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adaptive_threshold(np.array([]))


class TestVoteMask:
    def test_below_threshold_votes(self):
        row = np.array([0.5, 0.3, 0.1, 0.1])  # mean 0.25
        mask = vote_mask(row, np.arange(4), reserved_length=0, b=0.0)
        np.testing.assert_array_equal(mask, [False, False, True, True])

    def test_reserved_positions_never_voted(self):
        row = np.array([0.01, 0.01, 0.49, 0.49])
        mask = vote_mask(row, np.arange(4), reserved_length=2, b=0.0)
        assert not mask[0] and not mask[1]

    def test_negative_threshold_votes_minimum_only(self):
        # Extremely spiky row: T = mean - 0.2*std < 0 for large spike.
        row = np.zeros(32)
        row[5] = 1.0
        row[7] = 1e-6
        assert adaptive_threshold(row) < 0
        mask = vote_mask(row, np.arange(32), reserved_length=0)
        assert mask.sum() == 1
        assert mask[np.argmin(row)]

    def test_negative_threshold_respects_reserved(self):
        row = np.zeros(32)
        row[8] = 1.0
        assert adaptive_threshold(row) < 0
        # minimum ties at every zero slot; first *eligible* one wins,
        # which must be outside the reserved prefix.
        mask = vote_mask(row, np.arange(32), reserved_length=4)
        voted = np.nonzero(mask)[0]
        assert voted.size == 1 and voted[0] == 4

    def test_all_reserved_no_votes(self):
        row = np.full(4, 0.25)
        mask = vote_mask(row, np.arange(4), reserved_length=10)
        assert not mask.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vote_mask(np.ones(3), np.arange(4), 0)


class TestVotingPolicy:
    def _observe_uniformish(self, policy, length, spiky_at=None):
        row = np.full(length, 1.0 / length)
        if spiky_at is not None:
            row[:] = 0.5 / (length - 1)
            row[spiky_at] = 0.5
        policy.observe(0, row[None, :], np.arange(length), GENERATION)

    def test_reserved_rows_do_not_vote(self):
        policy = VotingPolicy(n_layers=1, reserved_length=8)
        # Voter at position 5 (< R): must not vote.
        attn = np.array([[0.1, 0.1, 0.1, 0.2, 0.2, 0.3]])
        policy.observe(0, attn, np.arange(6), PREFILL)
        assert policy.vote_counts(0).sum() == 0

    def test_votes_accumulate(self):
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        attn = np.array([[0.5, 0.3, 0.1, 0.1]])
        policy.observe(0, attn, np.arange(4), GENERATION)
        policy.observe(0, attn, np.arange(4), GENERATION)
        np.testing.assert_array_equal(policy.vote_counts(0), [0, 0, 2, 2])

    def test_select_victim_max_votes(self):
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        attn = np.array([[0.4, 0.05, 0.4, 0.15]])
        policy.observe(0, attn, np.arange(4), GENERATION)
        assert policy.select_victim(0, np.arange(4)) == 1

    def test_tie_breaks_earliest(self):
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        attn = np.array([[0.4, 0.1, 0.1, 0.4]])
        policy.observe(0, attn, np.arange(4), GENERATION)
        # slots 1 and 2 tie with one vote each; earliest (1) wins.
        assert policy.select_victim(0, np.arange(4)) == 1

    def test_reserved_never_evicted(self):
        policy = VotingPolicy(n_layers=1, reserved_length=4)
        # All votes are zero: victim must still be a non-reserved slot.
        assert policy.select_victim(0, np.arange(10)) >= 4

    def test_head_averaging(self):
        """Layer-wise aggregation: heads are averaged before voting."""
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        # Head 0 says slot 1 is unimportant; head 1 says it is pivotal.
        attn = np.array([[0.6, 0.05, 0.35], [0.1, 0.7, 0.2]])
        policy.observe(0, attn, np.arange(3), GENERATION)
        counts = policy.vote_counts(0)
        # Averaged row: [0.35, 0.375, 0.275]; mean 1/3: only slot 2 below.
        np.testing.assert_array_equal(counts, [0, 0, 1])

    def test_on_evict_compacts_votes(self):
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        attn = np.array([[0.5, 0.3, 0.1, 0.1]])
        policy.observe(0, attn, np.arange(4), GENERATION)
        policy.on_evict(0, 2)
        np.testing.assert_array_equal(policy.vote_counts(0), [0, 0, 1])

    def test_recency_preserved(self):
        """Item-count fairness: recent slots have fewer vote chances.

        After many steps of uniform-ish attention with a persistent
        low-score early slot, the victim should be that early slot, not a
        recent one (contrast with H2O's item-count bias test).
        """
        policy = VotingPolicy(n_layers=1, reserved_length=2, b=0.0)
        length = 12
        for step in range(6, length + 1):
            row = np.full(step, 1.0 / step)
            row[3] = row[3] / 10  # persistently unimportant position 3
            row = row / row.sum()
            policy.observe(0, row[None, :], np.arange(step), GENERATION)
        assert policy.select_victim(0, np.arange(length)) == 3

    def test_outlier_does_not_immortalize(self):
        """Uniform weight voting: one huge score cannot save a slot that
        is judged unimportant by every later voter (paper bias ③)."""
        policy = VotingPolicy(n_layers=1, reserved_length=0, b=0.0)
        # Step 1: slot 1 gets an enormous score (outlier).
        policy.observe(0, np.array([[0.01, 0.99]]), np.arange(2), GENERATION)
        # Later steps: slot 1 consistently unimportant.
        for step in range(3, 8):
            row = np.full(step, 1.0 / step)
            row[1] = row[1] / 20
            row = row / row.sum()
            policy.observe(0, row[None, :], np.arange(step), GENERATION)
        assert policy.select_victim(0, np.arange(7)) == 1

    def test_reset(self):
        policy = VotingPolicy(n_layers=1, reserved_length=0)
        self._observe_uniformish(policy, 4, spiky_at=0)
        policy.reset()
        assert policy.vote_counts(0).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            VotingPolicy(n_layers=1, reserved_length=-1)
        with pytest.raises(TypeError):
            VotingPolicy(n_layers=1, head_reduction="median")
        policy = VotingPolicy(n_layers=1)
        with pytest.raises(ValueError):
            policy.observe(0, np.ones(4), np.arange(4), GENERATION)
        with pytest.raises(IndexError):
            policy.select_victim(5, np.arange(4))


class TestObserveStep:
    """``observe_step`` — every layer's decode row in one stacked pass —
    against the base class's per-layer ``observe`` loop (the reference)."""

    @staticmethod
    def _twins(n_layers, **kwargs):
        return VotingPolicy(n_layers, **kwargs), VotingPolicy(n_layers, **kwargs)

    @staticmethod
    def _assert_same_votes(stacked, scalar):
        for layer in range(stacked.n_layers):
            np.testing.assert_array_equal(
                stacked.vote_counts(layer), scalar.vote_counts(layer)
            )

    def test_thresholds_match_to_the_last_bit(self):
        """A uniform row puts every score within an ulp of ``T = mean``,
        so whether it votes hinges on the last bit of the stacked
        mean/std: over these lengths the reference votes for every slot
        at some and for none at others, i.e. an ulp of drift in either
        direction would flip votes here."""
        outcomes = set()
        for heads in (1, 3, 7):
            for length in range(1, 200):
                stacked, scalar = self._twins(2, reserved_length=0, b=0.0)
                uniform = np.full((heads, length), 1.0 / (heads * length))
                uniform *= heads
                attention = [uniform, uniform[:, ::-1] * 1.0]
                positions = [np.arange(length)] * 2
                stacked.observe_step(attention, positions)
                EvictionPolicy.observe_step(scalar, attention, positions)
                self._assert_same_votes(stacked, scalar)
                outcomes.add(int(scalar.vote_counts(0).sum()) == length)
        assert outcomes == {True, False}

    def test_non_positive_threshold_votes_minimum_only(self):
        """One layer's row is spiky enough for ``T <= 0`` (it votes for
        its minimum eligible score only); its neighbour votes normally."""
        spiky = np.zeros((1, 32))
        spiky[0, 5] = 1.0
        spiky[0, 7] = 1e-6
        even = np.full((1, 32), 1.0 / 32)
        even[0, 9] /= 2
        stacked, scalar = self._twins(2, reserved_length=4)
        attention, positions = [spiky, even], [np.arange(32)] * 2
        stacked.observe_step(attention, positions)
        EvictionPolicy.observe_step(scalar, attention, positions)
        self._assert_same_votes(stacked, scalar)
        votes = stacked.vote_counts(0)
        assert votes.sum() == 1 and votes[4] == 1  # first eligible zero
        assert stacked.vote_counts(1)[9] == 1

    def test_reserved_stage_voter_casts_nothing(self):
        """A layer whose newest position is inside the reserved prefix
        does not vote, but its counters still grow to the row's length."""
        attn = np.array([[0.1, 0.1, 0.1, 0.2, 0.2, 0.3]])
        policy = VotingPolicy(n_layers=2, reserved_length=8)
        # Layer 1 kept later positions (gaps from evictions): it votes.
        policy.observe_step([attn, attn], [np.arange(6), np.arange(6) + 10])
        assert policy.vote_counts(0).tolist() == [0] * 6
        assert policy.vote_counts(1).sum() > 0

    def test_ragged_layers_take_the_per_layer_loop(self):
        """Layers at different lengths (direct API use only) cannot be
        stacked without padding; they must still match the reference."""
        rng = np.random.default_rng(5)
        attention = [rng.dirichlet(np.ones(n), size=2) for n in (9, 12, 9)]
        positions = [np.arange(n) for n in (9, 12, 9)]
        stacked, scalar = self._twins(3, reserved_length=2)
        stacked.observe_step(attention, positions)
        EvictionPolicy.observe_step(scalar, attention, positions)
        self._assert_same_votes(stacked, scalar)
        assert [stacked.vote_counts(i).size for i in range(3)] == [9, 12, 9]

    def test_non_float64_rows_take_the_per_layer_loop(self):
        """The scalar path head-reduces a float32 row in float32;
        stacking would promote first, so such rows are not stacked."""
        rng = np.random.default_rng(1)
        attention = [
            rng.dirichlet(np.ones(17), size=3).astype(np.float32) for _ in range(2)
        ]
        positions = [np.arange(17)] * 2
        stacked, scalar = self._twins(2, reserved_length=2)
        stacked.observe_step(attention, positions)
        EvictionPolicy.observe_step(scalar, attention, positions)
        self._assert_same_votes(stacked, scalar)

    def test_layer_count_mismatch_rejected(self):
        policy = VotingPolicy(n_layers=2)
        with pytest.raises(ValueError):
            policy.observe_step([np.full((1, 4), 0.25)], [np.arange(4)] * 2)

    def test_counters_survive_eviction_and_growth(self):
        """One growth path for the shared ``(n_layers, capacity)``
        counter array: per-layer evictions compact only their row."""
        rng = np.random.default_rng(6)
        stacked, scalar = self._twins(3, reserved_length=1)
        live = [list(range(5)) for _ in range(3)]
        for step in range(5, 40):
            for layer, slots in enumerate(live):
                slots.append(step)
            attention = [rng.dirichlet(np.ones(len(s)), size=2) for s in live]
            positions = [np.array(s) for s in live]
            stacked.observe_step(attention, positions)
            EvictionPolicy.observe_step(scalar, attention, positions)
            for layer, slots in enumerate(live):
                if len(slots) > 8:
                    slot = stacked.select_victim(layer, positions[layer])
                    assert slot == scalar.select_victim(layer, positions[layer])
                    slots.pop(slot)
                    stacked.on_evict(layer, slot)
                    scalar.on_evict(layer, slot)
            self._assert_same_votes(stacked, scalar)

    def test_select_victim_with_nothing_eligible(self):
        """Every slot reserved: the newest slot goes (read off the
        arg-max value, which is the -1 mask)."""
        policy = VotingPolicy(n_layers=1, reserved_length=10)
        assert policy.select_victim(0, np.arange(6)) == 5

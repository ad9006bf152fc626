"""Property-based tests: eviction-policy invariants.

These are the system-level safety properties: under arbitrary softmax
attention streams and arbitrary eviction pressure, every policy must keep
its slot-aligned state consistent with the cache, never evict reserved
positions, and keep the cache within budget.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    H2OPolicy,
    StreamingLLMPolicy,
    VotingPolicy,
)
from repro.core.policies.base import GENERATION, PREFILL, EvictionPolicy
from repro.models.inference import stable_softmax


@st.composite
def attention_stream(draw):
    """A sequence of growing attention rows (heads × length)."""
    heads = draw(st.integers(1, 4))
    start = draw(st.integers(4, 10))
    steps = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(steps):
        length = start + i
        logits = rng.normal(size=(heads, length)) * draw(
            st.sampled_from([0.5, 2.0, 6.0])
        )
        rows.append(stable_softmax(logits, axis=-1))
    return rows


def drive(policy, rows, budget, reserved=0):
    """Feed rows to a policy, evicting to budget; returns positions."""
    positions = list(range(rows[0].shape[1]))
    next_pos = positions[-1] + 1
    for row in rows[1:]:
        positions.append(next_pos)
        next_pos += 1
        attn = row[:, : len(positions)]
        policy.observe(0, attn[:, : len(positions)], np.array(positions), GENERATION)
        while len(positions) > budget:
            slot = policy.select_victim(0, np.array(positions))
            assert 0 <= slot < len(positions)
            positions.pop(slot)
            policy.on_evict(0, slot)
    return positions


class TestVotingInvariants:
    @given(attention_stream(), st.integers(5, 12))
    @settings(max_examples=40, deadline=None)
    def test_cache_bounded_and_sorted(self, rows, budget):
        policy = VotingPolicy(n_layers=1, reserved_length=2)
        positions = drive(policy, rows, budget)
        assert len(positions) <= budget
        assert positions == sorted(positions)

    @given(attention_stream(), st.integers(6, 12))
    @settings(max_examples=40, deadline=None)
    def test_reserved_positions_survive(self, rows, budget):
        reserved = 3
        policy = VotingPolicy(n_layers=1, reserved_length=reserved)
        positions = drive(policy, rows, budget)
        for p in range(min(reserved, rows[0].shape[1])):
            assert p in positions

    @given(attention_stream(), st.integers(5, 12))
    @settings(max_examples=40, deadline=None)
    def test_vote_state_stays_aligned(self, rows, budget):
        policy = VotingPolicy(n_layers=1, reserved_length=2)
        positions = drive(policy, rows, budget)
        counts = policy.vote_counts(0)
        assert counts.shape[0] >= len(positions) or counts.shape[0] == len(positions)

    @given(attention_stream())
    @settings(max_examples=30, deadline=None)
    def test_votes_monotone_without_eviction(self, rows):
        """Without eviction, per-slot vote counts never decrease."""
        policy = VotingPolicy(n_layers=1, reserved_length=2)
        previous = np.zeros(0, dtype=np.int64)
        positions = list(range(rows[0].shape[1]))
        next_pos = positions[-1] + 1
        for row in rows[1:]:
            positions.append(next_pos)
            next_pos += 1
            policy.observe(
                0, row[:, : len(positions)], np.array(positions), GENERATION
            )
            current = policy.vote_counts(0)
            assert np.all(current[: previous.shape[0]] >= previous)
            previous = current


@st.composite
def causal_block(draw):
    """A (H, L, L) causal softmax attention block, as prefill records it."""
    heads = draw(st.integers(1, 4))
    length = draw(st.integers(2, 28))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([0.5, 2.0, 6.0, 12.0]))
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(heads, length, length)) * scale
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    return stable_softmax(np.where(mask, -1e30, logits), axis=-1)


class TestObserveBlockEquivalence:
    """The vectorized prefill observation is the scalar loop, exactly."""

    @given(causal_block(), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_vote_counts_bit_identical(self, attn, reserved):
        positions = np.arange(attn.shape[1])
        scalar = VotingPolicy(n_layers=1, reserved_length=reserved)
        vectorized = VotingPolicy(n_layers=1, reserved_length=reserved)
        # The base-class observe_block replays the block row by row
        # through the scalar ``observe`` — the reference semantics.
        EvictionPolicy.observe_block(scalar, 0, attn, positions, PREFILL)
        vectorized.observe_block(0, attn, positions, PREFILL)
        np.testing.assert_array_equal(
            scalar.vote_counts(0), vectorized.vote_counts(0)
        )

    @given(causal_block(), st.integers(0, 8), st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_eviction_decisions_identical(self, attn, reserved, budget):
        """Identical vote state ⇒ identical victims down to any budget."""
        length = attn.shape[1]
        positions = np.arange(length)
        scalar = VotingPolicy(n_layers=1, reserved_length=reserved)
        vectorized = VotingPolicy(n_layers=1, reserved_length=reserved)
        EvictionPolicy.observe_block(scalar, 0, attn, positions, PREFILL)
        vectorized.observe_block(0, attn, positions, PREFILL)

        live = list(positions)
        while len(live) > budget:
            slot_scalar = scalar.select_victim(0, np.array(live))
            slot_vectorized = vectorized.select_victim(0, np.array(live))
            assert slot_scalar == slot_vectorized
            live.pop(slot_scalar)
            scalar.on_evict(0, slot_scalar)
            vectorized.on_evict(0, slot_scalar)
            np.testing.assert_array_equal(
                scalar.vote_counts(0), vectorized.vote_counts(0)
            )


@st.composite
def decode_episode(draw):
    """A multi-layer decode episode for one sequence: per step, one
    ``(H, l)`` softmax row and one ``(l,)`` slot-position vector per
    layer (positions keep the gaps earlier evictions left), followed by
    an optional eviction in some layers.

    Sampled to hit every branch of the stacked kernel: voters still in
    the reserved stage, reserved slots among the vote targets, sharp
    rows (scale 30) and large ``b`` that push ``T <= 0`` into the
    arg-min fallback, a mid-episode snapshot round trip, and layers
    drifting to different lengths (ragged), which must take the
    per-layer loop.  Uniform rows (scale 0) put every score within an
    ulp of the threshold, so a last-bit difference in a mean or a
    standard deviation flips votes.
    """
    n_layers = draw(st.integers(1, 4))
    heads = draw(st.integers(1, 9))
    start = draw(st.integers(1, 40))
    steps = draw(st.integers(1, 6))
    ragged = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kwargs = dict(
        reserved_length=draw(st.integers(0, 48)),
        a=draw(st.sampled_from([0.5, 1.0, 1.5])),
        b=draw(st.sampled_from([0.0, 0.2, 1.0, 5.0])),
    )
    live = [list(range(start)) for _ in range(n_layers)]
    next_position = start
    episode = []
    for _ in range(steps):
        for slots in live:
            slots.append(next_position)
        next_position += 1
        scale = draw(st.sampled_from([0.0, 0.3, 3.0, 30.0]))
        attention = [
            stable_softmax(rng.normal(size=(heads, len(slots))) * scale)
            for slots in live
        ]
        positions = [np.array(slots) for slots in live]
        evictions = []
        for layer, slots in enumerate(live):
            # Without ``ragged`` every layer evicts together, keeping
            # the lengths equal (the serving steady state).
            if len(slots) > 2 and (rng.random() < 0.5 if ragged else len(episode) % 2):
                slot = int(rng.integers(len(slots)))
                slots.pop(slot)
                evictions.append((layer, slot))
        episode.append((attention, positions, evictions, draw(st.booleans())))
    return n_layers, kwargs, episode


class TestObserveStepEquivalence:
    """The layer-stacked decode kernel is the per-layer ``observe`` loop,
    exactly: vote counters are compared with ``np.array_equal``, so one
    ulp of difference in any row's threshold that flips a vote fails."""

    @given(decode_episode())
    @settings(max_examples=150, deadline=None)
    def test_vote_counts_bit_identical(self, sample):
        n_layers, kwargs, episode = sample
        stacked = VotingPolicy(n_layers, **kwargs)
        scalar = VotingPolicy(n_layers, **kwargs)
        for attention, positions, evictions, snapshot in episode:
            stacked.observe_step(attention, positions)
            # The base-class observe_step is the reference: one scalar
            # ``observe`` per layer.
            EvictionPolicy.observe_step(scalar, attention, positions)
            for layer in range(n_layers):
                np.testing.assert_array_equal(
                    stacked.vote_counts(layer), scalar.vote_counts(layer)
                )
                assert stacked.select_victim(
                    layer, positions[layer]
                ) == scalar.select_victim(layer, positions[layer])
            for layer, slot in evictions:
                stacked.on_evict(layer, slot)
                scalar.on_evict(layer, slot)
            if snapshot:
                # Swap-style round trip onto a fresh instance.
                restored = VotingPolicy(n_layers, **kwargs)
                for layer in range(n_layers):
                    length = stacked.vote_counts(layer).shape[0]
                    restored.import_prefill_state(
                        layer, stacked.export_prefill_state(layer, length), length
                    )
                stacked = restored


class TestH2OInvariants:
    @given(attention_stream(), st.integers(5, 12))
    @settings(max_examples=40, deadline=None)
    def test_cache_bounded(self, rows, budget):
        policy = H2OPolicy(n_layers=1, recent_window=2)
        positions = drive(policy, rows, budget)
        assert len(positions) <= budget

    @given(attention_stream())
    @settings(max_examples=30, deadline=None)
    def test_accumulated_scores_non_negative_monotone(self, rows):
        policy = H2OPolicy(n_layers=1, recent_window=0)
        positions = list(range(rows[0].shape[1]))
        next_pos = positions[-1] + 1
        previous = np.zeros(0)
        for row in rows[1:]:
            positions.append(next_pos)
            next_pos += 1
            policy.observe(0, row[:, : len(positions)], np.array(positions), GENERATION)
            current = policy.accumulated(0)
            assert np.all(current >= 0.0)
            assert np.all(current[: previous.shape[0]] >= previous - 1e-12)
            previous = current


class TestStreamingInvariants:
    @given(attention_stream(), st.integers(5, 12), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_steady_state_structure(self, rows, budget, sinks):
        policy = StreamingLLMPolicy(n_layers=1, n_sinks=sinks)
        positions = drive(policy, rows, budget)
        assert len(positions) <= budget
        # Survivors = sink prefix + a contiguous recent suffix.
        non_sink = [p for p in positions if p >= sinks]
        if non_sink:
            assert non_sink == list(range(non_sink[0], non_sink[-1] + 1))

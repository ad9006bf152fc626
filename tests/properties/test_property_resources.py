"""Property-based tests: KVResourceManager block conservation.

Arbitrary admit / preempt (recompute or swap) / resume / retire
interleavings must conserve the pool exactly: no leaked blocks, no
double frees, prefix-shared refcounts exact, and a swapped-out image
restored bit-exactly even after its freed blocks were handed to other
sequences in the meantime.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.policies.voting import VotingPolicy
from repro.serve.request import (
    PREFILLING,
    RUNNING,
    Request,
    SequenceState,
    transition,
)
from repro.serve.resources import KVResourceManager


CONFIG = tiny_config()
BLOCK_SIZE = 4
NUM_BLOCKS = 64


def fill_pattern(request_id, layer, length):
    """Recognizable per-sequence KV content (head x slot x dim)."""
    base = float((hash((request_id, layer)) % 997) + 1)
    slots = np.arange(length, dtype=float)[None, :, None]
    return base + slots + np.zeros((CONFIG.n_heads, length, CONFIG.head_dim))


def write_sequence(state, lengths):
    """Append ``lengths[layer]`` patterned slots into each layer."""
    for layer_index, layer in enumerate(state.cache):
        length = lengths[layer_index]
        if not length:
            continue
        pattern = fill_pattern(state.request_id, layer_index, length)
        layer.append_block(pattern, -pattern, np.arange(length))


def assert_image_matches(state):
    """The restored cache holds exactly the pattern written originally."""
    for layer_index, layer in enumerate(state.cache):
        length = layer.length
        pattern = fill_pattern(state.request_id, layer_index, length)
        np.testing.assert_array_equal(layer.keys, pattern[:, :length])
        np.testing.assert_array_equal(layer.values, -pattern[:, :length])
        np.testing.assert_array_equal(layer.positions, np.arange(length))


def swap_out(manager, state):
    """Swap ``state`` out as the scheduler does: the manager pages it to
    the host pool, the lifecycle transition drops its device state."""
    image = manager.swap_out(state)
    transition(state, "swap_out")
    return image


def swap_in(manager, state):
    """Swap ``state`` back in: the manager restores the cache and policy,
    the lifecycle transition hands them to the sequence."""
    image = manager.swap_in(state)
    transition(
        state,
        "swap_in",
        status=image.resume_status,
        cache=image.cache,
        policy=image.policy,
    )
    return image


@st.composite
def op_schedule(draw):
    """A random lifecycle schedule over a handful of sequences."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["admit", "preempt", "resume", "retire", "scribble"]),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=50,
        )
    )


class TestManagerConservation:
    @given(op_schedule(), st.sampled_from(["recompute", "swap"]))
    @settings(max_examples=40, deadline=None)
    def test_blocks_conserved_and_images_intact(self, ops, preempt):
        manager = KVResourceManager(
            CONFIG,
            max_batch_size=3,
            paged=True,
            block_size=BLOCK_SIZE,
            num_blocks=NUM_BLOCKS,
            prefix_caching=False,
            preempt=preempt,
            policy_factory=lambda: VotingPolicy(CONFIG.n_layers),
        )
        pool = manager.block_pool
        states = {}  # request_id -> SequenceState (admitted or swapped)
        swapped = set()
        next_id = 0
        scribbler = 0  # churns freed blocks to catch stale image sharing

        for op, pick in ops:
            admitted = sorted(set(states) - swapped)
            if op == "admit" and manager.slots_free > 0:
                length = 1 + pick % 11
                capacity = length + 4
                needed = manager.blocks_for_rows(length)
                if not manager.has_blocks(needed):
                    continue
                request_id = f"s{next_id}"
                next_id += 1
                state = SequenceState(
                    Request(request_id, np.arange(4), max_new_tokens=4)
                )
                state.cache = manager.admit(request_id, capacity)
                state.status = RUNNING if pick % 2 else PREFILLING
                write_sequence(
                    state, [length] * CONFIG.n_layers
                )
                states[request_id] = state
            elif op == "preempt" and admitted:
                request_id = admitted[pick % len(admitted)]
                state = states[request_id]
                if preempt == "swap":
                    swap_out(manager, state)
                    swapped.add(request_id)
                else:
                    manager.retire(request_id)
                    del states[request_id]
            elif op == "resume" and swapped:
                request_id = sorted(swapped)[pick % len(swapped)]
                state = states[request_id]
                if manager.slots_free <= 0:
                    continue
                if not manager.has_blocks(
                    manager.swap_in_blocks_needed(request_id)
                ):
                    continue
                swap_in(manager, state)
                swapped.discard(request_id)
                # Restored bit-exactly, even though the blocks freed at
                # swap-out may have been scribbled over by other
                # sequences since ("swapped-out blocks are never handed
                # to other sequences" — the image is independent).
                assert_image_matches(state)
            elif op == "retire" and admitted:
                request_id = admitted[pick % len(admitted)]
                manager.retire(request_id)
                del states[request_id]
            elif op == "scribble" and manager.slots_free > 0 and pool.num_free:
                # An unrelated short-lived sequence reuses freed blocks.
                request_id = f"noise{scribbler}"
                scribbler += 1
                cache = manager.admit(request_id, BLOCK_SIZE)
                for layer in cache:
                    layer.append_block(
                        np.full((CONFIG.n_heads, 1, CONFIG.head_dim), 1e9),
                        np.full((CONFIG.n_heads, 1, CONFIG.head_dim), -1e9),
                        np.array([0]),
                    )
                manager.retire(request_id)

            # ---- invariants after every operation ----
            assert pool.num_free + pool.num_used == pool.num_blocks
            live = sum(
                states[rid].cache.num_blocks
                for rid in states
                if rid not in swapped
            )
            # No leaks, no double-frees: exactly the admitted sequences'
            # tables are live (no prefix cache in this schedule).
            assert pool.num_used == live
            assert manager.slots_used == len(states) - len(swapped)
            assert manager.num_swapped == len(swapped)
            host = sum(
                sum(manager._swapped[rid].lengths) for rid in swapped
            )
            assert manager.host_kv_slots == host

        # Drain: resume everything swapped, then retire everything.
        for request_id in sorted(swapped):
            state = states[request_id]
            while manager.slots_free <= 0:
                victim = sorted(set(states) - swapped)[0]
                manager.retire(victim)
                del states[victim]
            swap_in(manager, state)
            assert_image_matches(state)
        for request_id in sorted(states):
            manager.retire(request_id)
        assert pool.num_free == pool.num_blocks
        assert manager.host_kv_slots == 0

    @given(st.integers(1, 24), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_swap_roundtrip_preserves_voting_state(self, length, extra_votes):
        """The export/import snapshot path restores vote counters exactly."""
        manager = KVResourceManager(
            CONFIG,
            max_batch_size=2,
            paged=True,
            block_size=BLOCK_SIZE,
            num_blocks=NUM_BLOCKS,
            preempt="swap",
            policy_factory=lambda: VotingPolicy(CONFIG.n_layers),
        )
        state = SequenceState(Request("r0", np.arange(4), max_new_tokens=4))
        state.cache = manager.admit("r0", length + 8)
        state.status = RUNNING
        write_sequence(state, [length] * CONFIG.n_layers)
        policy = VotingPolicy(CONFIG.n_layers)
        rng = np.random.default_rng(length)
        for layer in range(CONFIG.n_layers):
            attn = rng.random((CONFIG.n_heads, length, length))
            attn /= attn.sum(axis=-1, keepdims=True)
            attn *= np.tril(np.ones((length, length)))
            policy.observe_block(layer, attn, np.arange(length), "prefill")
        expected = [policy.vote_counts(layer) for layer in range(CONFIG.n_layers)]
        state.policy = policy

        image = swap_out(manager, state)
        # The snapshot path pages the votes out; no live object retained.
        assert image.policy is None and image.policy_state is not None
        swap_in(manager, state)
        assert isinstance(state.policy, VotingPolicy)
        assert state.policy is not policy  # rebuilt, not retained
        for layer in range(CONFIG.n_layers):
            np.testing.assert_array_equal(
                state.policy.vote_counts(layer), expected[layer]
            )
        manager.retire("r0")

    def test_prefix_refcounts_exact_across_swap(self):
        """A swapped sequence releases its references to shared prefix
        blocks; the prefix cache's own references survive untouched."""
        manager = KVResourceManager(
            CONFIG,
            max_batch_size=2,
            paged=True,
            block_size=BLOCK_SIZE,
            num_blocks=NUM_BLOCKS,
            prefix_caching=True,
            preempt="swap",
            policy_factory=lambda: VotingPolicy(CONFIG.n_layers),
        )
        pool = manager.block_pool
        # Register one full block per layer in the prefix cache.
        shared = [pool.allocate() for _ in range(CONFIG.n_layers)]
        root = manager.prefix_cache.root(("test",))
        manager.prefix_cache.insert(root, (1, 2, 3, 4), shared, None, pool)

        state = SequenceState(Request("r0", np.arange(8), max_new_tokens=4))
        state.cache = manager.admit("r0", 16)
        state.status = RUNNING
        state.cache.attach_prefix([[b] for b in shared], BLOCK_SIZE)
        for block in shared:
            pool.release(block)  # drop the allocation refs; cache + entry remain
        assert all(pool.refcount(b) == 2 for b in shared)

        swap_out(manager, state)
        assert all(pool.refcount(b) == 1 for b in shared)  # entry's ref only
        swap_in(manager, state)
        # Swap-in restores into private blocks; the shared originals
        # keep exactly the prefix cache's reference.
        assert all(pool.refcount(b) == 1 for b in shared)
        assert state.cache[0].length == BLOCK_SIZE
        manager.retire("r0")
        manager.clear_prefix_cache()
        assert pool.num_free == pool.num_blocks

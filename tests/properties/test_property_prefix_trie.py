"""Property-based tests: the radix-trie prefix cache.

Five invariants drawn over random block sequences:

- **Roundtrip / oracle** — ``match`` returns exactly the longest common
  prefix between the prompt and any registered chain (capped at
  ``len(prompt) - 1``); budgeted matches are the block-granular floor of
  the same quantity.
- **Probe is a read-only match** — ``probe`` returns the
  ``shared_length`` the following ``match`` adopts, in both match modes,
  budgeted or not, and leaves the hit counters, the lookup clock and the
  LRU heap untouched.
- **Partial-tail CoW never aliases** — adopting a divergent block at a
  mid-block shared length and then appending must copy, never clobber,
  the resident prefix.
- **Refcount conservation** — across arbitrary insert/reclaim/clear
  interleavings the pool's used-block count equals the trie's held-block
  count exactly (no leaks, no double frees).
- **Snapshot bit-equality** — an eviction policy resumed from a trie
  snapshot at an arbitrary block boundary exports bitwise the same state
  as one that observed the whole prefill cold (voting and H2O).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.base import PREFILL
from repro.core.policies.h2o import H2OPolicy
from repro.core.policies.voting import VotingPolicy
from repro.serve.paging import BlockPool, PagedLayerKVCache
from repro.serve.prefix_cache import PrefixCache

BLOCK = 4
#: Tiny alphabet so random chains actually share prefixes.
token = st.integers(0, 2)
chain = st.lists(
    st.lists(token, min_size=BLOCK, max_size=BLOCK), min_size=1, max_size=4
).map(lambda blocks: tuple(t for b in blocks for t in b))


def common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def register_chain(cache, pool, tokens, policy_state=True):
    """Insert ``tokens`` (a multiple of BLOCK) as a chain of blocks,
    leaving the trie as the blocks' only owner."""
    parent = cache.root(("test",))
    for start in range(0, len(tokens), BLOCK):
        block_id = pool.allocate()
        node = cache.insert(
            parent,
            tokens[start : start + BLOCK],
            [block_id],
            [("snap", start + BLOCK)] if policy_state else None,
            pool,
        )
        pool.release(block_id)  # the trie's refcount keeps it alive
        parent = node
    return parent


class TestMatchOracle:
    @given(
        chains=st.lists(chain, min_size=1, max_size=5),
        prompt=st.lists(token, min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_match_is_longest_common_prefix(self, chains, prompt):
        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK)
        cache = PrefixCache(block_size=BLOCK)
        for tokens in chains:
            register_chain(cache, pool, tokens)
        prompt = tuple(prompt)
        limit = len(prompt) - 1
        best = max(common_prefix(prompt, tokens) for tokens in chains)
        expected = min(limit, best)

        hit = cache.match(prompt, ("test",))
        assert hit.shared_length == expected
        # Fully-adopted nodes spell the prompt prefix back exactly.
        spelled = tuple(t for node in hit.nodes for t in node.tokens)
        assert spelled == prompt[: len(spelled)]
        if hit.tail_length:
            tail = hit.tail_node.tokens[: hit.tail_length]
            assert spelled + tuple(tail) == prompt[:expected]

        # Budgeted coverage is the block-granular floor of the same
        # quantity (every registered node carries a snapshot here).
        budgeted = cache.match(prompt, ("test",), budgeted=True)
        assert budgeted.shared_length == (expected // BLOCK) * BLOCK
        assert budgeted.tail_length == 0
        assert budgeted.policy_length == budgeted.shared_length

    @given(chains=st.lists(chain, min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_registered_chain_roundtrips(self, chains):
        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK)
        cache = PrefixCache(block_size=BLOCK)
        for tokens in chains:
            register_chain(cache, pool, tokens)
        for tokens in chains:
            # One extra token: the last live row is never adoptable.
            hit = cache.match(tokens + (0,), ("test",))
            assert hit.shared_length == len(tokens)
            assert hit.parent.depth == len(tokens)


def trie_bookkeeping(cache):
    """Everything a lookup may touch: counters, clock, and LRU heap."""
    return (
        cache.lookups,
        cache.hits,
        cache.tokens_seen,
        cache.tokens_hit,
        cache._clock,
        list(cache._heap),
    )


class TestProbeIsReadOnlyMatch:
    @given(
        chains=st.lists(
            st.tuples(chain, st.lists(st.booleans(), min_size=4, max_size=4)),
            min_size=1,
            max_size=5,
        ),
        lookups=st.lists(
            st.tuples(
                st.integers(0, 4),  # which chain the prompt extends
                st.integers(0, 4 * BLOCK),  # how much of it
                st.lists(token, min_size=1, max_size=6),  # fresh suffix
                st.booleans(),
                st.sampled_from([("test",), ("other",)]),
            ),
            min_size=1,
            max_size=6,
        ),
        match_mode=st.sampled_from(["token", "block"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_probe_equals_match_without_side_effects(
        self, chains, lookups, match_mode
    ):
        """``probe`` reports the coverage ``match`` then adopts, budgeted
        or not, in either match mode — and moves no counter, clock tick
        or LRU heap entry doing so."""
        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK)
        cache = PrefixCache(block_size=BLOCK, match_mode=match_mode)
        for tokens, snapshots in chains:
            parent = cache.root(("test",))
            for b, start in enumerate(range(0, len(tokens), BLOCK)):
                block_id = pool.allocate()
                parent = cache.insert(
                    parent,
                    tokens[start : start + BLOCK],
                    [block_id],
                    [("snap", start + BLOCK)] if snapshots[b] else None,
                    pool,
                )
                pool.release(block_id)
        for pick, cut, suffix, budgeted, key in lookups:
            # Prompts extend registered chains, so full-block, mid-block
            # and snapshot-cut coverage all actually occur.
            prompt = chains[pick % len(chains)][0][:cut] + tuple(suffix)
            before = trie_bookkeeping(cache)
            probed = cache.probe(prompt, key, budgeted)
            assert trie_bookkeeping(cache) == before
            assert probed == cache.match(prompt, key, budgeted).shared_length


class TestPartialTailNeverAliases:
    @given(
        shared=st.integers(1, 2 * BLOCK - 1),
        seed=st.integers(0, 2**31 - 1),
        extra=st.integers(1, BLOCK + 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_adopter_appends_copy_not_clobber(self, shared, seed, extra):
        """Adopt ``shared`` of 8 resident tokens (mid-block when shared
        is not a multiple of BLOCK) and append ``extra`` fresh rows: the
        resident KV must stay bit-identical and the adopter must see the
        shared rows plus its own."""
        rng = np.random.default_rng(seed)
        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK, num_blocks=8)
        owner = PagedLayerKVCache(pool, capacity=16)
        keys = rng.normal(size=(1, 2 * BLOCK, 2))
        owner.append_block(keys, -keys, np.arange(2 * BLOCK))
        owner_ids = list(owner.block_ids)
        before = [pool.keys[b].copy() for b in owner_ids]

        n_blocks = -(-shared // BLOCK)
        adopter = PagedLayerKVCache(pool, capacity=16)
        adopter.attach_blocks(owner_ids[:n_blocks], shared)
        fresh = rng.normal(size=(1, extra, 2)) + 100.0
        adopter.append_block(fresh, -fresh, np.arange(shared, shared + extra))

        for block_id, snapshot in zip(owner_ids, before):
            np.testing.assert_array_equal(pool.keys[block_id], snapshot)
        np.testing.assert_array_equal(adopter.keys[:, :shared], keys[:, :shared])
        np.testing.assert_array_equal(adopter.keys[:, shared:], fresh)
        if shared % BLOCK:
            assert pool.cow_copies == 1  # the partial block was copied
            assert adopter.block_ids[n_blocks - 1] != owner_ids[n_blocks - 1]
        adopter.release()
        owner.release()
        assert pool.num_used == 0


class TestRefcountConservation:
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), chain),
                st.tuples(st.just("reclaim"), st.integers(1, 8)),
                st.tuples(st.just("match"), st.lists(token, min_size=1, max_size=12)),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_pool_usage_equals_trie_holdings(self, ops):
        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK)
        cache = PrefixCache(block_size=BLOCK)
        for op, arg in ops:
            if op == "insert":
                register_chain(cache, pool, arg)
            elif op == "reclaim":
                cache.reclaim(pool, arg)
            else:
                cache.match(tuple(arg), ("test",))
            assert pool.num_used == cache.num_blocks_held
            # Trie-held blocks are singly referenced (no live adopters).
            for node_count in [cache.num_entries]:
                assert node_count == cache.num_blocks_held
        cache.clear(pool)
        assert pool.num_used == 0
        assert cache.num_blocks_held == 0


def observe_range(policy, attn, start, end):
    """Feed rows [start, end) in block-sized chunks, as the scheduler's
    paged prefill does."""
    positions = np.arange(attn.shape[2])
    row = start
    while row < end:
        stop = min((row // BLOCK + 1) * BLOCK, end)
        policy.observe_continuation(
            0, attn[:, row:stop, :stop], positions[:stop], PREFILL
        )
        row = stop


class TestSnapshotBitEquality:
    @given(
        n_blocks=st.integers(1, 4),
        split_block=st.integers(1, 4),
        tail_rows=st.integers(1, BLOCK),
        seed=st.integers(0, 2**31 - 1),
        policy_cls=st.sampled_from([VotingPolicy, H2OPolicy]),
    )
    @settings(max_examples=60, deadline=None)
    def test_resume_from_trie_snapshot_matches_cold(
        self, n_blocks, split_block, tail_rows, seed, policy_cls
    ):
        """Register a prefill's boundary snapshots in the trie, re-match
        an arbitrary boundary split, import, continue observing — the
        final exported state is bitwise the cold run's."""
        split_block = min(split_block, n_blocks)
        total = n_blocks * BLOCK + tail_rows
        rng = np.random.default_rng(seed)
        attn = np.abs(rng.normal(size=(2, total, total)))
        prompt = tuple(int(t) for t in rng.integers(0, 3, size=total))

        pool = BlockPool(n_heads=1, head_dim=2, block_size=BLOCK)
        cache = PrefixCache(block_size=BLOCK)
        cold = policy_cls(1)
        parent = cache.root(("p",))
        for b in range(n_blocks):
            observe_range(cold, attn, b * BLOCK, (b + 1) * BLOCK)
            block_id = pool.allocate()
            parent = cache.insert(
                parent,
                prompt[b * BLOCK : (b + 1) * BLOCK],
                [block_id],
                [cold.export_prefill_state(0, (b + 1) * BLOCK)],
                pool,
            )
            pool.release(block_id)
        observe_range(cold, attn, n_blocks * BLOCK, total)

        # Match only up to the chosen split: divergent token right after.
        boundary = split_block * BLOCK
        query = prompt[:boundary] + ((prompt[boundary] + 1) % 3,)
        hit = cache.match(query, ("p",), budgeted=True)
        assert hit.policy_length == boundary

        warm = policy_cls(1)
        warm.import_prefill_state(0, hit.policy_state[0], boundary)
        observe_range(warm, attn, boundary, total)

        np.testing.assert_array_equal(
            warm.export_prefill_state(0, total),
            cold.export_prefill_state(0, total),
        )

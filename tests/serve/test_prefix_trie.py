"""Radix-trie prefix-cache unit tests.

Covers the trie-specific behaviors on top of the shared coverage in
``test_paging.py::TestPrefixCache``: content dispatch under forced hash
collisions (the chained predecessor leaked pinned blocks there),
single-scan LRU reclaim with parent re-queue, TTL expiry, partial-tail
matching, snapshot gating for budgeted adopters, and the token-weighted
hit metrics.
"""

import numpy as np
import pytest

from repro.serve.paging import BlockPool
from repro.serve.prefix_cache import PrefixCache


def make_blocks(pool, n_layers=2):
    return [pool.allocate() for _ in range(n_layers)]


def retire(pool, blocks):
    for block in blocks:
        pool.release(block)


class TestCollisionSafety:
    def test_forced_hash_collision_keeps_both_blocks_reachable(self):
        """Python ints hash modulo 2**61 - 1, so ``2**61`` and ``1``
        collide; the chained cache's ``hash((parent, tokens))`` keys
        could therefore alias two different blocks, chaining newcomers
        under mismatched content and pinning unreachable pool blocks.
        The trie dispatches on *content*, so colliding labels coexist as
        siblings, each matchable, and nothing leaks."""
        assert hash(2**61) == hash(1)  # the adversarial pair
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        a = (1, 7, 7, 7)
        b = (2**61, 7, 7, 7)
        root = cache.root("p")
        blocks_a = make_blocks(pool)
        blocks_b = make_blocks(pool)
        node_a = cache.insert(root, a, blocks_a, None, pool)
        node_b = cache.insert(root, b, blocks_b, None, pool)
        assert node_a is not node_b
        assert cache.num_entries == 2

        hit_a = cache.match(a + (9,), "p")
        hit_b = cache.match(b + (9,), "p")
        assert hit_a.nodes[0].layer_block_ids == blocks_a
        assert hit_b.nodes[0].layer_block_ids == blocks_b

        # No pinned leak: once the registrants retire, everything can go.
        retire(pool, blocks_a)
        retire(pool, blocks_b)
        assert cache.reclaim(pool, 100) == 4
        assert pool.num_free == pool.num_blocks

    def test_duplicate_insert_returns_existing_without_retaining(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        root = cache.root("p")
        blocks = make_blocks(pool)
        node = cache.insert(root, (1, 2, 3, 4), blocks, None, pool)
        other = make_blocks(pool)
        again = cache.insert(root, (1, 2, 3, 4), other, None, pool)
        assert again is node
        assert all(pool.refcount(b) == 2 for b in blocks)
        assert all(pool.refcount(b) == 1 for b in other)  # not retained

    def test_snapshot_upgrade_on_pure_reregistration(self):
        """A tainted registrant leaves ``policy_state=None``; a later
        pure registrant of the same content fills it in, re-enabling
        budgeted adoption of the block."""
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        root = cache.root("p")
        blocks = make_blocks(pool)
        node = cache.insert(root, (1, 2, 3, 4), blocks, None, pool)
        assert cache.match(np.arange(1, 9), "p", budgeted=True).shared_length == 0

        snapshot = [np.arange(4.0), np.arange(4.0)]
        again = cache.insert(root, (1, 2, 3, 4), make_blocks(pool), snapshot, pool)
        assert again is node and node.policy_state is snapshot
        hit = cache.match(np.arange(1, 9), "p", budgeted=True)
        assert hit.shared_length == 4
        assert hit.policy_length == 4


class TestEviction:
    def test_single_reclaim_drains_chained_parents(self):
        """Dropping a leaf exposes its parent; the parent re-queue must
        let ONE reclaim call walk a whole idle chain tip-to-root (the
        quadratic predecessor needed a full table re-sort per drop)."""
        pool = BlockPool(2, 3, 4, num_blocks=64)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(17)
        parent = cache.root("p")
        held = []
        for start in range(0, 16, 4):
            blocks = make_blocks(pool)
            held += blocks
            parent = cache.insert(parent, prompt[start : start + 4], blocks, None, pool)
        retire(pool, held)
        assert cache.num_entries == 4
        # One call, no rescans: the full chain drains deepest-first.
        assert cache.reclaim(pool, 8) == 8
        assert cache.num_entries == 0
        assert pool.num_free == pool.num_blocks

    def test_reclaim_prefers_lru_across_independent_chains(self):
        pool = BlockPool(2, 3, 4, num_blocks=64)
        cache = PrefixCache(block_size=4)
        root = cache.root("p")
        cold = make_blocks(pool)
        cache.insert(root, (1, 1, 1, 1), cold, None, pool)
        warm = make_blocks(pool)
        cache.insert(root, (2, 2, 2, 2), warm, None, pool)
        retire(pool, cold)
        retire(pool, warm)
        cache.match([1, 1, 1, 1, 9], "p")  # re-touch the first chain
        assert cache.reclaim(pool, 2) == 2
        # The untouched ("warm"-inserted but older-used) entry went.
        assert cache.match([2, 2, 2, 2, 9], "p").shared_length == 0
        assert cache.match([1, 1, 1, 1, 9], "p").shared_length == 4

    def test_pinned_entries_deferred_not_lost(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        blocks = make_blocks(pool)
        cache.insert(cache.root("p"), (1, 2, 3, 4), blocks, None, pool)
        assert cache.reclaim(pool, 10) == 0  # pinned by the live sequence
        retire(pool, blocks)
        assert cache.reclaim(pool, 10) == 2  # still on the heap

    def test_insert_under_evicted_node_raises(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        blocks = make_blocks(pool)
        node = cache.insert(cache.root("p"), (1, 2, 3, 4), blocks, None, pool)
        retire(pool, blocks)
        assert cache.reclaim(pool, 2) == 2
        with pytest.raises(RuntimeError, match="evicted"):
            cache.insert(node, (5, 6, 7, 8), make_blocks(pool), None, pool)


class TestPartialTail:
    def test_partial_tail_picks_longest_common_run(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        root = cache.root("p")
        short = make_blocks(pool)
        cache.insert(root, (1, 2, 9, 9), short, None, pool)
        long = make_blocks(pool)
        cache.insert(root, (1, 2, 3, 9), long, None, pool)
        hit = cache.match([1, 2, 3, 4, 5], "p")
        assert hit.tail_node.layer_block_ids == long
        assert hit.tail_length == 3
        assert hit.shared_length == 3
        assert hit.parent is root  # registration restarts at the root

    def test_all_but_one_token_is_covered(self):
        """The headline property: sharing all but the last token of a
        resident prompt covers every row but the live one."""
        pool = BlockPool(2, 3, 4, num_blocks=64)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(12)
        parent = cache.root("p")
        for start in (0, 4, 8):
            parent = cache.insert(
                parent, prompt[start : start + 4], make_blocks(pool), None, pool
            )
        twin = prompt.copy()
        twin[-1] = 99
        hit = cache.match(twin, "p")
        assert hit.shared_length == 11
        assert len(hit.nodes) == 2 and hit.tail_length == 3

    def test_budgeted_match_never_takes_partial_tail(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        snapshot = [np.arange(4.0), np.arange(4.0)]
        cache.insert(cache.root("p"), (1, 2, 3, 4), make_blocks(pool), snapshot, pool)
        hit = cache.match([1, 2, 3, 9, 9], "p", budgeted=True)
        assert hit.shared_length == 0 and hit.tail_node is None
        unbudgeted = cache.match([1, 2, 3, 9, 9], "p")
        assert unbudgeted.shared_length == 3
        assert unbudgeted.tainted

    def test_budgeted_coverage_stops_at_deepest_snapshot(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        snapshot = [np.arange(4.0), np.arange(4.0)]
        n1 = cache.insert(cache.root("p"), (1, 2, 3, 4), make_blocks(pool), snapshot, pool)
        cache.insert(n1, (5, 6, 7, 8), make_blocks(pool), None, pool)
        hit = cache.match(np.arange(1, 12), "p", budgeted=True)
        assert hit.shared_length == 4  # the unsnapshotted child is cut
        assert not hit.tainted
        deep = cache.match(np.arange(1, 12), "p")  # unbudgeted takes it all
        assert deep.shared_length == 8
        assert deep.policy_length == 4 and deep.tainted

    def test_block_mode_disables_partial_tails(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4, match_mode="block")
        n1 = cache.insert(cache.root("p"), (1, 2, 3, 4), make_blocks(pool), None, pool)
        cache.insert(n1, (5, 6, 7, 8), make_blocks(pool), None, pool)
        hit = cache.match([1, 2, 3, 4, 5, 6, 99, 99], "p")
        assert hit.shared_length == 4 and hit.tail_node is None


class TestTokenMetrics:
    def test_token_weighted_vs_per_lookup_hit_rate(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(8)
        miss = cache.match(prompt, "p")  # 8 tokens seen, 0 hit
        parent = cache.insert(miss.parent, prompt[:4], make_blocks(pool), None, pool)
        cache.insert(parent, prompt[4:8], make_blocks(pool), None, pool)
        cache.match(prompt, "p")  # 8 seen, 7 hit (last row stays live)
        assert cache.hit_rate == 0.5
        assert cache.tokens_seen == 16 and cache.tokens_hit == 7
        assert cache.token_hit_rate == pytest.approx(7 / 16)

    def test_one_block_hit_no_longer_counts_like_a_full_hit(self):
        """The legacy ``hit_rate`` bug this PR's metrics fix: any
        non-empty coverage counted as a full hit.  Token weighting
        separates a 4-of-100-token graze from a full-prompt hit."""
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        cache.insert(cache.root("p"), (0, 1, 2, 3), make_blocks(pool), None, pool)
        long_prompt = np.arange(100)
        hit = cache.match(long_prompt, "p")
        assert hit.shared_length == 4
        assert cache.hit_rate == 1.0  # the coarse metric saturates
        assert cache.token_hit_rate == pytest.approx(4 / 100)

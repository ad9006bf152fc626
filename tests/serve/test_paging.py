"""Unit tests for the paged KV storage layer (pool, caches, prefix cache)."""

import numpy as np
import pytest

from repro.core.kv_cache import LayerKVCache
from repro.serve.paging import (
    BlockPool,
    BlockPoolExhausted,
    PagedKVCache,
    PagedLayerKVCache,
)
from repro.serve.prefix_cache import PrefixCache


@pytest.fixture()
def pool():
    return BlockPool(n_heads=2, head_dim=3, block_size=4, num_blocks=16)


def fill(cache, n, rng, start=0):
    """Append n random kv entries; returns what was appended."""
    keys = rng.normal(size=(2, n, 3))
    values = rng.normal(size=(2, n, 3))
    positions = np.arange(start, start + n)
    cache.append_block(keys, values, positions)
    return keys, values, positions


class TestBlockPool:
    def test_allocate_release_roundtrip(self, pool):
        assert pool.num_free == 16
        a = pool.allocate()
        b = pool.allocate()
        assert a != b
        assert pool.num_used == 2
        assert pool.refcount(a) == 1
        pool.release(a)
        pool.release(b)
        assert pool.num_free == 16

    def test_refcounting(self, pool):
        block = pool.allocate()
        pool.retain(block)
        assert pool.refcount(block) == 2
        assert pool.release(block) == 1
        assert pool.num_used == 1  # still held
        assert pool.release(block) == 0
        assert pool.num_free == 16

    def test_release_of_free_block_rejected(self, pool):
        block = pool.allocate()
        pool.release(block)
        with pytest.raises(ValueError):
            pool.release(block)
        with pytest.raises(ValueError):
            pool.retain(block)

    def test_fixed_pool_exhaustion(self):
        pool = BlockPool(1, 2, 2, num_blocks=3)
        for _ in range(3):
            pool.allocate()
        with pytest.raises(BlockPoolExhausted):
            pool.allocate()

    def test_growable_pool_grows(self):
        pool = BlockPool(1, 2, 2)
        seen = {pool.allocate() for _ in range(100)}
        assert len(seen) == 100
        assert pool.num_blocks >= 100
        assert pool.peak_in_use == 100

    def test_reclaimer_called_under_pressure(self):
        pool = BlockPool(1, 2, 2, num_blocks=2)
        held = [pool.allocate(), pool.allocate()]

        def reclaimer(needed):
            pool.release(held.pop())
            return 1

        pool.reclaimer = reclaimer
        assert pool.allocate() is not None
        assert len(held) == 1

    def test_copy_block_copies_contents(self, pool):
        block = pool.allocate()
        pool.keys[block][:] = 7.0
        pool.positions[block][:] = 3
        clone = pool.copy_block(block)
        assert clone != block
        assert np.all(pool.keys[clone] == 7.0)
        assert np.all(pool.positions[clone] == 3)
        assert pool.cow_copies == 1


@pytest.mark.parametrize("block_size", [1, 3, 4, 16])
class TestPagedLayerKVCache:
    def test_matches_dense_views(self, block_size, rng):
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=40)
        dense = LayerKVCache(2, 3, capacity=40)
        keys, values, positions = fill(paged, 11, np.random.default_rng(0))
        dense.append_block(keys, values, positions)
        for single in range(3):
            k = rng.normal(size=(2, 3))
            v = rng.normal(size=(2, 3))
            paged.append(k, v, 11 + single)
            dense.append(k, v, 11 + single)
        np.testing.assert_array_equal(paged.keys, dense.keys)
        np.testing.assert_array_equal(paged.values, dense.values)
        np.testing.assert_array_equal(paged.positions, dense.positions)
        assert len(paged) == len(dense) == 14

    def test_evict_compacts_like_dense(self, block_size, rng):
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=40)
        dense = LayerKVCache(2, 3, capacity=40)
        keys, values, positions = fill(paged, 13, np.random.default_rng(1))
        dense.append_block(keys, values, positions)
        for index in (0, 5, 10, 3):
            assert paged.evict(index) == dense.evict(index)
            np.testing.assert_array_equal(paged.keys, dense.keys)
            np.testing.assert_array_equal(paged.values, dense.values)
            np.testing.assert_array_equal(paged.positions, dense.positions)

    def test_eviction_frees_tail_blocks(self, block_size, rng):
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=4 * block_size)
        fill(paged, 4 * block_size, np.random.default_rng(2))
        before = pool.num_used
        for _ in range(2 * block_size):
            paged.evict(0)
        assert pool.num_used == before - 2
        assert paged.num_blocks == 2

    def test_release_returns_everything(self, block_size, rng):
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=40)
        fill(paged, 9, np.random.default_rng(3))
        paged.release()
        assert pool.num_free == pool.num_blocks
        assert len(paged) == 0

    def test_overflow_raises(self, block_size, rng):
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=4)
        fill(paged, 4, np.random.default_rng(4))
        with pytest.raises(RuntimeError, match="overflow"):
            paged.append(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 4)

    def test_append_block_validation(self, block_size, rng):
        """A malformed block — one head for two, one position for two
        rows — raises before any block is allocated or written."""
        pool = BlockPool(2, 3, block_size)
        paged = PagedLayerKVCache(pool, capacity=40)
        fill(paged, 5, rng)
        used = pool.num_used
        with pytest.raises(ValueError):
            paged.append_block(np.ones((1, 2, 3)), np.ones((1, 2, 3)), [5, 6])
        with pytest.raises(ValueError):
            paged.append_block(np.ones((2, 2, 3)), np.ones((2, 2, 3)), [5])
        assert len(paged) == 5 and pool.num_used == used
        np.testing.assert_array_equal(paged.positions, np.arange(5))


class TestCopyOnWrite:
    def test_shared_block_is_copied_before_write(self, rng):
        pool = BlockPool(2, 3, 4)
        writer = PagedLayerKVCache(pool, capacity=40)
        fill(writer, 8, np.random.default_rng(5))  # two full blocks
        shared = writer.block_ids
        reader = PagedLayerKVCache(pool, capacity=40)
        reader.attach_blocks(shared, 8)
        snapshot_keys = reader.keys.copy()
        snapshot_positions = reader.positions.copy()

        writer.evict(1)  # compacts through both blocks -> CoW both
        assert pool.cow_copies >= 1
        assert writer.block_ids != shared
        np.testing.assert_array_equal(reader.keys, snapshot_keys)
        np.testing.assert_array_equal(reader.positions, snapshot_positions)

    def test_append_into_shared_partial_block_cows(self, rng):
        pool = BlockPool(2, 3, 4)
        writer = PagedLayerKVCache(pool, capacity=40)
        fill(writer, 6, np.random.default_rng(6))  # block 1 half full
        reader = PagedLayerKVCache(pool, capacity=40)
        # Simulate a fork: reader shares both blocks at length 6.
        for block in writer.block_ids:
            pool.retain(block)
            reader._table.append(block)
        reader.length = 6
        before = reader.keys.copy()
        writer.append(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 6)
        np.testing.assert_array_equal(reader.keys, before)

    def test_attach_requires_empty_and_length_in_last_block(self, rng):
        pool = BlockPool(2, 3, 4)
        owner = PagedLayerKVCache(pool, capacity=40)
        fill(owner, 8, np.random.default_rng(7))
        cache = PagedLayerKVCache(pool, capacity=40)
        with pytest.raises(ValueError):
            cache.attach_blocks(owner.block_ids, 4)  # last block unused
        with pytest.raises(ValueError):
            cache.attach_blocks(owner.block_ids, 9)  # past the last block
        cache.attach_blocks(owner.block_ids, 8)
        with pytest.raises(RuntimeError):
            cache.attach_blocks(owner.block_ids, 8)  # non-empty

    def test_attach_partial_last_block_cows_on_first_append(self, rng):
        """A radix-trie tail hit adopts the divergent block mid-way: the
        adopter's first append lands at a non-zero offset and must CoW,
        leaving the resident rows bit-intact for other adopters."""
        pool = BlockPool(2, 3, 4)
        owner = PagedLayerKVCache(pool, capacity=40)
        fill(owner, 8, np.random.default_rng(7))
        before = owner.keys.copy()
        cache = PagedLayerKVCache(pool, capacity=40)
        cache.attach_blocks(owner.block_ids, 6)  # 1 full block + 2 rows
        assert cache.length == 6
        assert pool.refcount(owner.block_ids[1]) == 2
        copies = pool.cow_copies
        cache.append(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 6)
        assert pool.cow_copies == copies + 1
        np.testing.assert_array_equal(owner.keys, before)
        # Adopted rows below the write offset were carried into the copy.
        np.testing.assert_array_equal(cache.keys[:, :6], before[:, :6])


class TestPagedKVCache:
    def test_layer_independence_and_release(self, rng):
        pool = BlockPool(2, 3, 4)
        cache = PagedKVCache(pool, n_layers=3, capacity=20)
        assert cache.n_layers == 3
        for layer in cache:
            fill(layer, 5, np.random.default_rng(8))
        cache[0].evict(2)
        assert cache.lengths == [4, 5, 5]
        cache.release()
        assert pool.num_free == pool.num_blocks


class TestPrefixCache:
    def make_entry_blocks(self, pool, n_layers=2):
        blocks = [pool.allocate() for _ in range(n_layers)]
        return blocks

    def test_match_then_insert_roundtrip(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(11)  # 2 full blocks + 3 tail tokens
        miss = cache.match(prompt, policy_key="p")
        assert miss.nodes == [] and miss.shared_length == 0
        blocks0 = self.make_entry_blocks(pool)
        parent = cache.insert(miss.parent, prompt[:4], blocks0, None, pool)
        blocks1 = self.make_entry_blocks(pool)
        cache.insert(parent, prompt[4:8], blocks1, None, pool)
        assert all(pool.refcount(b) == 2 for b in blocks0 + blocks1)

        hit = cache.match(prompt, policy_key="p")
        assert [n.layer_block_ids for n in hit.nodes] == [blocks0, blocks1]
        assert hit.shared_length == 8
        assert cache.hit_rate == 0.5  # one miss, one hit

    def test_policy_key_partitions_tries(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(9)
        miss = cache.match(prompt, policy_key="a")
        cache.insert(miss.parent, prompt[:4], self.make_entry_blocks(pool), None, pool)
        assert cache.match(prompt, policy_key="b").shared_length == 0

    def test_last_token_never_shared(self):
        cache = PrefixCache(block_size=4)
        prompt = np.arange(8)  # exactly 2 blocks: only 1 fully eligible
        pool = BlockPool(2, 3, 4, num_blocks=32)
        miss = cache.match(prompt, policy_key="p")
        parent = cache.insert(
            miss.parent, prompt[:4], self.make_entry_blocks(pool), None, pool
        )
        cache.insert(parent, prompt[4:8], self.make_entry_blocks(pool), None, pool)
        hit = cache.match(prompt, policy_key="p")
        # The second block is resident but the last row must stay live:
        # it is adopted only partially (3 of 4 rows).
        assert len(hit.nodes) == 1
        assert hit.tail_length == 3
        assert hit.shared_length == 7

    def test_reclaim_drops_leaves_before_parents(self):
        """Reclaiming a parent would orphan its children (unmatchable yet
        still pinning blocks); chains must shed from the tip."""
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(9)
        miss = cache.match(prompt, policy_key="p")
        first = self.make_entry_blocks(pool)
        parent = cache.insert(miss.parent, prompt[:4], first, None, pool)
        second = self.make_entry_blocks(pool)
        cache.insert(parent, prompt[4:8], second, None, pool)
        for block in first + second:
            pool.release(block)  # the registering request retires

        assert cache.reclaim(pool, 2) == 2  # the child (newer!) goes
        hit = cache.match(prompt, policy_key="p")
        assert len(hit.nodes) == 1  # the parent still matches
        assert cache.num_blocks_held == 2
        # A deeper deficit drains the rest, parent included.
        assert cache.reclaim(pool, 10) == 2
        assert pool.num_free == pool.num_blocks

    def test_reclaim_respects_live_references_and_lru(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(5)
        miss = cache.match(prompt, policy_key="p")
        blocks = self.make_entry_blocks(pool)
        cache.insert(miss.parent, prompt[:4], blocks, None, pool)
        # Blocks still referenced by their "sequence" (refcount 2).
        assert cache.reclaim(pool, 10) == 0
        for block in blocks:
            pool.release(block)
        assert cache.reclaim(pool, 10) == 2
        assert cache.num_entries == 0
        assert pool.num_free == pool.num_blocks

    def test_max_blocks_bound_sheds_lru(self):
        pool = BlockPool(2, 3, 4, num_blocks=64)
        cache = PrefixCache(block_size=4, max_blocks=4)
        for i in range(4):
            prompt = np.arange(i * 100, i * 100 + 5)
            miss = cache.match(prompt, policy_key="p")
            blocks = self.make_entry_blocks(pool)
            cache.insert(miss.parent, prompt[:4], blocks, None, pool)
            for block in blocks:  # the sequence retires
                pool.release(block)
        assert cache.num_blocks_held <= 4

    def test_clear_releases_all(self):
        pool = BlockPool(2, 3, 4, num_blocks=32)
        cache = PrefixCache(block_size=4)
        prompt = np.arange(5)
        miss = cache.match(prompt, policy_key="p")
        blocks = self.make_entry_blocks(pool)
        cache.insert(miss.parent, prompt[:4], blocks, None, pool)
        for block in blocks:
            pool.release(block)
        cache.clear(pool)
        assert pool.num_free == pool.num_blocks

"""KVResourceManager's sequence registry: the one request -> cache map
the serving loop reads, dense or paged."""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.kv_cache import KVCache
from repro.serve.paging import PagedKVCache
from repro.serve.resources import KVResourceManager


CONFIG = tiny_config()


def make_manager(paged, max_batch_size=4):
    return KVResourceManager(
        CONFIG,
        max_batch_size=max_batch_size,
        paged=paged,
        block_size=4,
        num_blocks=32,
        prefix_caching=False,
    )


def append_rows(cache, rows):
    """Append ``rows`` distinct slots to every layer of ``cache``."""
    shape = (CONFIG.n_heads, rows, CONFIG.head_dim)
    for layer in cache:
        start = layer.length
        keys = np.full(shape, float(start + 1))
        layer.append_block(keys, -keys, np.arange(start, start + rows))


@pytest.mark.parametrize("paged", [False, True], ids=["dense", "paged"])
class TestAdmittedRegistry:
    def test_admit_retire_lifecycle(self, paged):
        manager = make_manager(paged)
        cache = manager.admit("a", capacity=8)
        assert isinstance(cache, PagedKVCache if paged else KVCache)
        assert manager.slots_used == 1
        manager.retire("a")
        assert manager.slots_used == 0
        # Retired means gone: the id can be admitted afresh.
        assert manager.admit("a", capacity=8) is not cache

    def test_duplicate_and_unknown_ids_raise(self, paged):
        manager = make_manager(paged)
        manager.admit("a", capacity=8)
        with pytest.raises(KeyError):
            manager.admit("a", capacity=8)
        with pytest.raises(KeyError):
            manager.fork("a", "a")
        with pytest.raises(KeyError):
            manager.retire("b")
        assert manager.slots_used == 1


class TestSequenceCaches:
    def test_sequences_are_independent(self):
        manager = make_manager(paged=False)
        first = manager.admit("a", capacity=4)
        second = manager.admit("b", capacity=8)
        append_rows(first, 1)
        assert first.lengths == [1] * CONFIG.n_layers
        assert second.lengths == [0] * CONFIG.n_layers

    def test_capacity_is_per_sequence(self):
        manager = make_manager(paged=False)
        small = manager.admit("small", capacity=1)
        append_rows(small, 1)
        with pytest.raises(RuntimeError):
            append_rows(small, 1)
        large = manager.admit("large", capacity=2)
        append_rows(large, 2)
        assert large.lengths == [2] * CONFIG.n_layers

    def test_paged_retire_returns_blocks_to_pool(self):
        manager = make_manager(paged=True)
        pool = manager.block_pool
        free = pool.num_free
        append_rows(manager.admit("a", capacity=16), 6)
        assert pool.num_free < free
        manager.retire("a")
        assert pool.num_free == free

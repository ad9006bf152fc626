"""Evictable KV cache."""

import numpy as np
import pytest

from repro.core.kv_cache import KVCache, LayerKVCache


@pytest.fixture()
def layer():
    return LayerKVCache(n_heads=2, head_dim=4, capacity=8)


def kv(value, heads=2, dim=4):
    return np.full((heads, dim), float(value)), np.full((heads, dim), float(-value))


class TestAppend:
    def test_append_and_views(self, layer):
        k, v = kv(1)
        layer.append(k, v, position=0)
        assert layer.length == 1
        np.testing.assert_array_equal(layer.keys[:, 0], k)
        np.testing.assert_array_equal(layer.values[:, 0], v)
        np.testing.assert_array_equal(layer.positions, [0])

    def test_append_block(self, layer):
        keys = np.arange(2 * 3 * 4).reshape(2, 3, 4).astype(float)
        values = -keys
        layer.append_block(keys, values, np.array([0, 1, 2]))
        assert layer.length == 3
        np.testing.assert_array_equal(layer.keys, keys)
        np.testing.assert_array_equal(layer.positions, [0, 1, 2])

    def test_overflow_raises(self, layer):
        for i in range(8):
            layer.append(*kv(i), position=i)
        with pytest.raises(RuntimeError):
            layer.append(*kv(9), position=8)

    def test_block_overflow_raises(self, layer):
        with pytest.raises(RuntimeError):
            layer.append_block(
                np.zeros((2, 9, 4)), np.zeros((2, 9, 4)), np.arange(9)
            )

    def test_shape_validation(self, layer):
        with pytest.raises(ValueError):
            layer.append(np.zeros((2, 5)), np.zeros((2, 4)), position=0)

    @pytest.mark.parametrize(
        "keys_shape, values_shape, positions",
        [
            ((1, 3, 4), (1, 3, 4), [0, 1, 2]),  # one head for two
            ((2, 3, 4), (2, 3, 5), [0, 1, 2]),  # values head dim
            ((2, 2, 4), (2, 2, 4), [7]),  # one position for two rows
            ((2, 2, 4), (2, 2, 4), 7),  # a scalar position
            ((2, 4), (2, 4), [0]),  # a single (H, d) row
        ],
    )
    def test_append_block_validation(self, layer, keys_shape, values_shape, positions):
        """Like ``append``, ``append_block`` broadcasts nothing: a
        malformed block raises before any slot is written."""
        layer.append(*kv(1), position=0)
        with pytest.raises(ValueError):
            layer.append_block(np.ones(keys_shape), np.ones(values_shape), positions)
        assert layer.length == 1
        np.testing.assert_array_equal(layer.positions, [0])


class TestEvict:
    def test_evict_middle_compacts(self, layer):
        for i in range(5):
            layer.append(*kv(i), position=i)
        evicted = layer.evict(2)
        assert evicted == 2
        assert layer.length == 4
        np.testing.assert_array_equal(layer.positions, [0, 1, 3, 4])
        np.testing.assert_array_equal(layer.keys[0, 2], np.full(4, 3.0))

    def test_evict_first_and_last(self, layer):
        for i in range(3):
            layer.append(*kv(i), position=i)
        layer.evict(0)
        np.testing.assert_array_equal(layer.positions, [1, 2])
        layer.evict(1)
        np.testing.assert_array_equal(layer.positions, [1])

    def test_evict_out_of_range(self, layer):
        layer.append(*kv(0), position=0)
        with pytest.raises(IndexError):
            layer.evict(1)
        with pytest.raises(IndexError):
            layer.evict(-1)

    def test_positions_stay_sorted_after_evictions(self, layer, rng):
        for i in range(8):
            layer.append(*kv(i), position=i)
        while layer.length > 2:
            layer.evict(int(rng.integers(layer.length)))
        positions = layer.positions
        assert np.all(np.diff(positions) > 0)

    def test_evict_then_append_reuses_slot(self, layer):
        for i in range(8):
            layer.append(*kv(i), position=i)
        layer.evict(0)
        layer.append(*kv(8), position=8)
        assert layer.length == 8
        assert layer.positions[-1] == 8


class TestKVCache:
    def test_layer_independence(self):
        cache = KVCache(n_layers=3, n_heads=2, head_dim=4, capacity=4)
        cache[0].append(*kv(1), position=0)
        assert cache.lengths == [1, 0, 0]

    def test_iteration(self):
        cache = KVCache(2, 2, 4, 4)
        assert len(list(cache)) == 2

    def test_repr(self):
        cache = KVCache(2, 2, 4, 4)
        assert "lengths" in repr(cache)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LayerKVCache(2, 4, capacity=0)


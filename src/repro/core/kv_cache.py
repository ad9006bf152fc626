"""Evictable KV cache.

The KV cache is the central data structure of the paper: during the
generation phase every step appends one key/value vector per layer and the
voting engine may evict one entry per layer (paper Sec. III and Fig. 7).
Two properties matter for correctness:

- **Absolute positions are preserved.**  RoPE is applied to keys when they
  are produced, so an entry's positional identity travels with it; evicting
  entry ``j`` must not renumber the survivors.  Each layer cache therefore
  carries a ``positions`` array alongside keys/values.
- **Insertion order is preserved.**  The paper breaks vote ties by evicting
  the *earliest* position, and StreamingLLM-style policies reason about
  recency; compaction on evict keeps entries sorted by position.

Eviction is layer-wise and shared across heads (paper Sec. V: "voting
operates layer-wise, meaning that all heads are aggregated and averaged"),
so one cache slot holds the kv vectors of *all* heads for one position.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LayerKVCache", "KVCache"]


class LayerKVCache:
    """Per-layer cache of key/value vectors for all heads.

    Storage is pre-allocated to ``capacity`` and compacted in place on
    eviction, mirroring the accelerator's fixed off-chip allocation where
    an evicted address "will no longer be accessed" (paper Sec. V).
    """

    def __init__(self, n_heads, head_dim, capacity):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.n_heads = int(n_heads)
        self.head_dim = int(head_dim)
        self.capacity = int(capacity)
        self._keys = np.zeros((n_heads, capacity, head_dim))
        self._values = np.zeros((n_heads, capacity, head_dim))
        self._positions = np.full(capacity, -1, dtype=np.int64)
        self.length = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def keys(self):
        """Occupied key slots, shape (H, length, head_dim)."""
        return self._keys[:, : self.length]

    @property
    def values(self):
        """Occupied value slots, shape (H, length, head_dim)."""
        return self._values[:, : self.length]

    @property
    def positions(self):
        """Absolute token positions of occupied slots, shape (length,)."""
        return self._positions[: self.length]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, key, value, position):
        """Append one token's kv vectors; ``key``/``value`` are (H, d)."""
        if self.length >= self.capacity:
            raise RuntimeError(
                f"KV cache overflow: capacity {self.capacity} exhausted "
                "(the eviction policy failed to keep the cache bounded)"
            )
        key = np.asarray(key)
        value = np.asarray(value)
        expected = (self.n_heads, self.head_dim)
        if key.shape != expected or value.shape != expected:
            raise ValueError(
                f"kv shapes {key.shape}/{value.shape} != expected {expected}"
            )
        slot = self.length
        self._keys[:, slot] = key
        self._values[:, slot] = value
        self._positions[slot] = int(position)
        self.length += 1

    def append_block(self, keys, values, positions):
        """Append a block of L tokens; ``keys``/``values`` are (H, L, d)
        and ``positions`` is (L,)."""
        keys, values, positions = _checked_block(self, keys, values, positions)
        block = positions.shape[0]
        if self.length + block > self.capacity:
            raise RuntimeError(
                f"KV cache overflow: {self.length} + {block} > {self.capacity}"
            )
        stop = self.length + block
        self._keys[:, self.length : stop] = keys
        self._values[:, self.length : stop] = values
        self._positions[self.length : stop] = positions
        self.length = stop

    def evict(self, index):
        """Remove slot ``index``, compacting the tail left by one.

        Returns the absolute position that was evicted.
        """
        if not 0 <= index < self.length:
            raise IndexError(f"evict index {index} out of range [0, {self.length})")
        evicted_position = int(self._positions[index])
        tail = slice(index + 1, self.length)
        dest = slice(index, self.length - 1)
        self._keys[:, dest] = self._keys[:, tail]
        self._values[:, dest] = self._values[:, tail]
        self._positions[dest] = self._positions[tail]
        self.length -= 1
        self._positions[self.length] = -1
        return evicted_position

    def truncate(self, length):
        """Roll the cache back to its first ``length`` slots.

        The speculative-decoding rollback primitive: a verify window
        appends provisional kv entries for every proposed token, and the
        rejected suffix is discarded wholesale.  Truncation only ever
        drops a *tail* (provisional entries are always the newest slots),
        so surviving entries keep their slot order and the result is
        indistinguishable from never having appended the suffix.
        """
        if not 0 <= length <= self.length:
            raise ValueError(
                f"truncate length {length} out of range [0, {self.length}]"
            )
        self._positions[length : self.length] = -1
        self.length = length

    def fork(self):
        """An independent copy of this layer's occupied slots.

        The dense half of the fork/join surface: a branch gets its own
        slab holding the same entries, so parent and child diverge freely
        afterwards.  Paged mode shares blocks copy-on-write instead
        (:meth:`repro.serve.paging.PagedLayerKVCache.fork`); the slab
        copy here is exactly the traffic that sharing avoids.
        """
        clone = LayerKVCache(self.n_heads, self.head_dim, self.capacity)
        clone._keys[:, : self.length] = self._keys[:, : self.length]
        clone._values[:, : self.length] = self._values[:, : self.length]
        clone._positions[: self.length] = self._positions[: self.length]
        clone.length = self.length
        return clone

    def __len__(self):
        return self.length

    def __repr__(self):
        return (
            f"LayerKVCache(heads={self.n_heads}, head_dim={self.head_dim}, "
            f"length={self.length}/{self.capacity})"
        )


def _checked_block(layer, keys, values, positions):
    """``append_block``'s inputs as arrays, or ``ValueError`` unless
    ``keys``/``values`` are (H, L, d) for the layer's heads and head
    dim and ``positions`` is (L,) — nothing is broadcast."""
    keys = np.asarray(keys)
    values = np.asarray(values)
    positions = np.asarray(positions, dtype=np.int64)
    if (
        positions.ndim != 1
        or keys.shape != (layer.n_heads, positions.shape[0], layer.head_dim)
        or values.shape != keys.shape
    ):
        raise ValueError(
            f"kv block shapes {keys.shape}/{values.shape} with positions "
            f"{positions.shape} != expected ({layer.n_heads}, L, "
            f"{layer.head_dim}) with (L,)"
        )
    return keys, values, positions


class KVCache:
    """The full model cache: one :class:`LayerKVCache` per layer."""

    def __init__(self, n_layers, n_heads, head_dim, capacity):
        self.layers = [
            LayerKVCache(n_heads, head_dim, capacity) for _ in range(n_layers)
        ]

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def lengths(self):
        return [layer.length for layer in self.layers]

    def truncate(self, length):
        """Roll every layer back to ``length`` slots (spec-decode rollback)."""
        for layer in self.layers:
            layer.truncate(length)

    def fork(self):
        """An independent per-layer copy (dense branch fork)."""
        clone = KVCache.__new__(KVCache)
        clone.layers = [layer.fork() for layer in self.layers]
        return clone

    def __getitem__(self, layer_index):
        return self.layers[layer_index]

    def __iter__(self):
        return iter(self.layers)

    def __repr__(self):
        return f"KVCache(layers={self.n_layers}, lengths={self.lengths})"


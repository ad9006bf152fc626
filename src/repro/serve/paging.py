"""Paged KV-cache storage: a block pool with copy-on-write sharing.

The dense :class:`~repro.core.kv_cache.LayerKVCache` gives every sequence
a private ``capacity``-sized slab, so serving memory scales with
``capacity x batch`` regardless of occupancy — the fragmentation problem
vLLM's block-based allocator solves.  This module stores KV entries in
fixed-size *blocks* drawn from a shared :class:`BlockPool` instead:

- a sequence's per-layer cache is a *block table* (list of block ids)
  plus a logical length; blocks are allocated lazily as the cache grows
  and released as eviction shrinks it past block boundaries;
- blocks are refcounted, so several sequences (and the
  :class:`~repro.serve.prefix_cache.PrefixCache`) can reference one
  physical block; any write to a shared block first copies it
  (copy-on-write), which is what makes cross-request prefix sharing safe
  under voting eviction.

:class:`PagedLayerKVCache` presents exactly the ``keys`` / ``values`` /
``positions`` / ``append`` / ``append_block`` / ``evict`` surface of
``LayerKVCache``, so :meth:`CachedTransformer.step_batch`, ``prefill``
and every eviction policy run unchanged over the paged layout.  The
gathered views are copies (blocks are scattered in pool storage), but
they hold bitwise-identical floats in the same order, so attention — and
therefore every generated token — is bit-identical to the dense path;
``tests/serve/test_paged_equivalence.py`` locks this in across block
sizes.

Worked example — grow, evict, and release against a fixed pool::

    >>> import numpy as np
    >>> from repro.serve.paging import BlockPool, PagedKVCache
    >>> pool = BlockPool(n_heads=2, head_dim=4, block_size=4, num_blocks=8)
    >>> cache = PagedKVCache(pool, n_layers=1, capacity=16)
    >>> for position in range(5):
    ...     cache[0].append(np.ones((2, 4)), np.zeros((2, 4)), position)
    >>> cache[0].length, cache[0].num_blocks, pool.num_free
    (5, 2, 6)
    >>> cache[0].evict(0)            # compaction preserves position order
    0
    >>> cache[0].positions.tolist()
    [1, 2, 3, 4]
    >>> cache[0].num_blocks, pool.num_free   # emptied tail block returned
    (1, 7)
    >>> cache.release()              # retirement frees everything
    >>> pool.num_free
    8
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from repro.core.kv_cache import _checked_block

__all__ = [
    "BlockPool",
    "BlockPoolExhausted",
    "PagedKVCache",
    "PagedLayerKVCache",
]


class BlockPoolExhausted(RuntimeError):
    """Raised when a fixed-size pool cannot satisfy an allocation."""


def _mapped_zeros(shape):
    """Zero float64 storage on its own anonymous mapping: a page becomes
    resident when first written and all pages return to the OS with the
    array, so a pool costs the blocks it used, whatever the heap's state
    (reuse of freed memory, huge-page backing) would have charged."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


class BlockPool:
    """A pool of fixed-size KV blocks with a free list and refcounts.

    One physical block holds ``block_size`` consecutive cache slots of one
    layer of one sequence: keys and values for all heads plus the slots'
    absolute positions.  Blocks are handed out by integer id.

    Invariants: every live block has refcount >= 1 and is absent from
    the free list; ``num_free + num_used == num_blocks``; allocation
    order is deterministic (LIFO free list, low ids first), so paged
    runs are bit-reproducible.

    Parameters
    ----------
    n_heads, head_dim:
        Shape of one KV vector (matches the model).
    block_size:
        Cache slots per block.  Small blocks waste less memory on partial
        tails but cost more gather/bookkeeping per access.
    num_blocks:
        Fixed capacity; ``None`` makes the pool growable (it doubles its
        storage on demand and never raises :class:`BlockPoolExhausted`),
        which matches the dense path's unbounded-slab behaviour.
    """

    def __init__(self, n_heads, head_dim, block_size, num_blocks=None):
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if num_blocks is not None and num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {num_blocks}")
        self.n_heads = int(n_heads)
        self.head_dim = int(head_dim)
        self.block_size = int(block_size)
        self.growable = num_blocks is None
        capacity = 32 if num_blocks is None else int(num_blocks)
        shape = (capacity, self.n_heads, self.block_size, self.head_dim)
        self.keys, self.values = _mapped_zeros(shape), _mapped_zeros(shape)
        self.positions = np.full((capacity, self.block_size), -1, dtype=np.int64)
        self._refcounts = np.zeros(capacity, dtype=np.int64)
        # LIFO free list (ids descending so pop() reuses low ids first);
        # deterministic allocation order keeps paged runs reproducible.
        self._free = list(range(capacity - 1, -1, -1))
        #: Optional callable ``n -> freed`` asked to release blocks (e.g.
        #: prefix-cache LRU reclaim) before the pool grows or gives up.
        self.reclaimer = None
        self.cow_copies = 0
        self.total_allocations = 0
        self.peak_in_use = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_blocks(self):
        return self._refcounts.shape[0]

    @property
    def num_free(self):
        return len(self._free)

    @property
    def num_used(self):
        return self.num_blocks - len(self._free)

    def refcount(self, block_id):
        return int(self._refcounts[block_id])

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self):
        """Take a free block; returns its integer id.

        The block starts at refcount 1 with its position slots reset to
        -1.  Under pressure the ``reclaimer`` hook is asked to shed
        blocks first; a growable pool then doubles its storage, while a
        fixed pool raises :class:`BlockPoolExhausted`.
        """
        if not self._free and self.reclaimer is not None:
            self.reclaimer(1)
        if not self._free:
            if not self.growable:
                raise BlockPoolExhausted(
                    f"block pool exhausted: all {self.num_blocks} blocks "
                    f"(block_size={self.block_size}) are live"
                )
            self._grow()
        block_id = self._free.pop()
        self._refcounts[block_id] = 1
        self.positions[block_id] = -1
        self.total_allocations += 1
        self.peak_in_use = max(self.peak_in_use, self.num_used)
        return block_id

    def retain(self, block_id):
        """Add a reference to a live block (prefix sharing / forking)."""
        if self._refcounts[block_id] <= 0:
            raise ValueError(f"retain of free block {block_id}")
        self._refcounts[block_id] += 1

    def release(self, block_id):
        """Drop one reference; a block at refcount 0 returns to the free
        list.  Returns the remaining refcount."""
        if self._refcounts[block_id] <= 0:
            raise ValueError(f"release of free block {block_id}")
        self._refcounts[block_id] -= 1
        remaining = int(self._refcounts[block_id])
        if remaining == 0:
            self._free.append(block_id)
        return remaining

    def copy_block(self, block_id):
        """Allocate a fresh block holding a copy of ``block_id`` (CoW)."""
        new_id = self.allocate()
        self.keys[new_id] = self.keys[block_id]
        self.values[new_id] = self.values[block_id]
        self.positions[new_id] = self.positions[block_id]
        self.cow_copies += 1
        return new_id

    def _grow(self):
        old = self.num_blocks
        new = old * 2
        shape = (new, self.n_heads, self.block_size, self.head_dim)
        grown_keys = _mapped_zeros(shape)
        grown_keys[:old] = self.keys
        self.keys = grown_keys
        grown_values = _mapped_zeros(shape)
        grown_values[:old] = self.values
        self.values = grown_values
        grown_positions = np.full((new, self.block_size), -1, dtype=np.int64)
        grown_positions[:old] = self.positions
        self.positions = grown_positions
        grown_refcounts = np.zeros(new, dtype=np.int64)
        grown_refcounts[:old] = self._refcounts
        self._refcounts = grown_refcounts
        self._free.extend(range(new - 1, old - 1, -1))

    def __repr__(self):
        return (
            f"BlockPool(blocks={self.num_blocks}, free={self.num_free}, "
            f"block_size={self.block_size}, growable={self.growable})"
        )


class PagedLayerKVCache:
    """One layer's KV cache over pool blocks — a ``LayerKVCache`` twin.

    The logical cache is the concatenation of the table's blocks truncated
    to ``length``; compaction on :meth:`evict` keeps slot order exactly
    like the dense cache (entries stay sorted by position), and any write
    that would touch a block referenced elsewhere copies it first.
    """

    def __init__(self, pool, capacity):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.pool = pool
        self.n_heads = pool.n_heads
        self.head_dim = pool.head_dim
        self.capacity = int(capacity)
        self.length = 0
        self._table = []
        # Parallel to _table: True for blocks this cache allocated (or
        # CoW-copied), False for adopted shared-prefix blocks.  The
        # scheduler's admission reservation uses the owned count to bound
        # a sequence's remaining pool demand: every future allocation is
        # either a new table slot or a CoW of an adopted slot, so demand
        # <= ceil(capacity / block_size) - owned_blocks per layer.
        self._owned = []

    # ------------------------------------------------------------------
    # Views (gathered copies, bitwise-equal to the dense layout)
    # ------------------------------------------------------------------
    @property
    def block_size(self):
        return self.pool.block_size

    @property
    def block_ids(self):
        """The block table (tuple of pool block ids), oldest first."""
        return tuple(self._table)

    @property
    def num_blocks(self):
        return len(self._table)

    @property
    def owned_blocks(self):
        """Table blocks allocated by this cache (not adopted shares)."""
        return sum(self._owned)

    @property
    def shared_blocks(self):
        """Table blocks other holders also reference (pool refcount > 1):
        adopted prefix blocks *and* own blocks registered in a prefix
        cache.  Each is one potential copy-on-write allocation — the
        exact per-step CoW bound resource accounting needs (``owned``
        alone misses registered-after-write sharing)."""
        return sum(1 for block_id in self._table if self.pool.refcount(block_id) > 1)

    @property
    def shared_tail_blocks(self):
        """1 when the next append writes into a still-shared block (a
        fork branch's partial tail), 0 otherwise.  A block-aligned length
        allocates fresh instead, which the tail-crossing demand term
        already counts."""
        if self.length % self.block_size == 0 or not self._table:
            return 0
        return 1 if self.pool.refcount(self._table[-1]) > 1 else 0

    def _gather(self, storage, start=0):
        """Copies of slots [start, length), dense-layout, (H, n, d)."""
        first = start // self.block_size
        table = self._table[first:]
        if not table:
            return np.empty((self.n_heads, 0, storage.shape[3]))
        blocks = storage[np.array(table)]  # (nb, H, B, d) copy
        merged = blocks.transpose(1, 0, 2, 3).reshape(
            self.n_heads, len(table) * self.block_size, storage.shape[3]
        )
        if not merged.flags.c_contiguous:
            # block_size 1 lets the reshape collapse to a strided view;
            # force the dense cache's (slot-stride == head_dim) layout so
            # downstream einsums take the same inner loop — and therefore
            # the same accumulation order — as the contiguous case.
            merged = np.ascontiguousarray(merged)
        base = first * self.block_size
        return merged[:, start - base : self.length - base]

    @property
    def keys(self):
        """Occupied key slots, shape (H, length, head_dim)."""
        return self._gather(self.pool.keys)

    @property
    def values(self):
        """Occupied value slots, shape (H, length, head_dim)."""
        return self._gather(self.pool.values)

    @property
    def positions(self):
        """Absolute token positions of occupied slots, shape (length,)."""
        return self._gather_positions()

    def _gather_positions(self, start=0):
        first = start // self.block_size
        table = self._table[first:]
        if not table:
            return np.empty(0, dtype=np.int64)
        base = first * self.block_size
        return self.pool.positions[np.array(table)].reshape(-1)[
            start - base : self.length - base
        ]

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
        offset = self.length % self.block_size
        if offset == 0:
            self._table.append(self.pool.allocate())
            self._owned.append(True)
        else:
            self._ensure_owned(len(self._table) - 1)
        block_id = self._table[-1]
        self.pool.keys[block_id][:, offset] = key
        self.pool.values[block_id][:, offset] = value
        self.pool.positions[block_id, offset] = int(position)
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
        written = 0
        while written < block:
            offset = self.length % self.block_size
            if offset == 0:
                self._table.append(self.pool.allocate())
                self._owned.append(True)
            else:
                self._ensure_owned(len(self._table) - 1)
            block_id = self._table[-1]
            count = min(self.block_size - offset, block - written)
            stop = written + count
            self.pool.keys[block_id][:, offset : offset + count] = keys[
                :, written:stop
            ]
            self.pool.values[block_id][:, offset : offset + count] = values[
                :, written:stop
            ]
            self.pool.positions[block_id, offset : offset + count] = positions[
                written:stop
            ]
            self.length += count
            written = stop

    def evict(self, index):
        """Remove slot ``index``, compacting the tail left by one.

        Mirrors ``LayerKVCache.evict`` (position order preserved); blocks
        written during compaction are copied first if shared, and a tail
        block that empties out is released back to the pool.  Returns the
        absolute position that was evicted.
        """
        if not 0 <= index < self.length:
            raise IndexError(f"evict index {index} out of range [0, {self.length})")
        evicted_position = int(
            self.pool.positions[
                self._table[index // self.block_size], index % self.block_size
            ]
        )
        if index < self.length - 1:
            # Gather only the tail's blocks once (the gathers are copies,
            # so the scatter below cannot alias its own source).
            tail_keys = self._gather(self.pool.keys, index + 1)
            tail_values = self._gather(self.pool.values, index + 1)
            tail_positions = self._gather_positions(index + 1)
            self._write_span(index, tail_keys, tail_values, tail_positions)
        self.length -= 1
        self._trim()
        return evicted_position

    def _write_span(self, start, keys, values, positions):
        """Scatter (H, n, d) data into slots [start, start+n), CoW-ing any
        shared block it touches."""
        count = keys.shape[1]
        written = 0
        while written < count:
            slot = start + written
            table_index = slot // self.block_size
            offset = slot % self.block_size
            self._ensure_owned(table_index)
            block_id = self._table[table_index]
            chunk = min(self.block_size - offset, count - written)
            stop = written + chunk
            self.pool.keys[block_id][:, offset : offset + chunk] = keys[
                :, written:stop
            ]
            self.pool.values[block_id][:, offset : offset + chunk] = values[
                :, written:stop
            ]
            self.pool.positions[block_id, offset : offset + chunk] = positions[
                written:stop
            ]
            written = stop

    def _ensure_owned(self, table_index):
        """Copy-on-write: make ``table_index`` writable by this cache."""
        block_id = self._table[table_index]
        if self.pool.refcount(block_id) > 1:
            new_id = self.pool.copy_block(block_id)
            self.pool.release(block_id)
            self._table[table_index] = new_id
            self._owned[table_index] = True

    def _trim(self):
        """Release tail blocks no longer covered by ``length``."""
        needed = -(-self.length // self.block_size)  # ceil
        while len(self._table) > needed:
            self.pool.release(self._table.pop())
            self._owned.pop()

    def truncate(self, length):
        """Roll the cache back to its first ``length`` slots.

        The speculative-decoding rollback primitive, mirroring
        ``LayerKVCache.truncate``: the rejected provisional suffix is
        dropped and any tail block it emptied returns to the pool
        immediately (no leak — pool accounting after a rollback is
        identical to never having appended the suffix).  Safe against
        shared blocks because appends always copy-on-write a shared
        block before writing, so provisional slots only ever live in
        blocks this cache exclusively owns; stale data left in a
        surviving block past ``length`` is never read (views truncate to
        ``length``) and is overwritten slot-by-slot on re-append.
        """
        if not 0 <= length <= self.length:
            raise ValueError(
                f"truncate length {length} out of range [0, {self.length}]"
            )
        self.length = length
        self._trim()

    # ------------------------------------------------------------------
    # Prefix sharing
    # ------------------------------------------------------------------
    def attach_blocks(self, block_ids, length):
        """Adopt shared blocks as this cache's prefix (refcounted).

        Only valid on an empty cache.  ``length`` must land inside the
        last adopted block: every block but the last is adopted in full,
        while the last may be covered only partially (a radix-trie
        partial-tail hit adopts the divergent block too; the first
        append past ``length`` then lands at a non-zero block offset and
        copies the block via :meth:`_ensure_owned` — ordinary CoW, so
        the resident prefix is never clobbered).
        """
        if self.length or self._table:
            raise RuntimeError("attach_blocks on a non-empty cache")
        if not (
            (len(block_ids) - 1) * self.block_size
            < length
            <= len(block_ids) * self.block_size
        ):
            raise ValueError(
                f"shared prefix length {length} does not land in the last "
                f"of {len(block_ids)} blocks x {self.block_size} slots"
            )
        if length > self.capacity:
            raise RuntimeError(
                f"KV cache overflow: shared prefix {length} > {self.capacity}"
            )
        for block_id in block_ids:
            self.pool.retain(block_id)
            self._table.append(block_id)
            self._owned.append(False)
        self.length = length

    def fork(self):
        """A copy-on-write branch of this layer's cache.

        The branch adopts the *entire* current table — every block
        retained, none owned — so fork costs only refcounts and table
        metadata, no KV traffic.  Divergence pays as it happens: the
        branch's (or the parent's) first write into a still-shared block
        goes through the ordinary :meth:`_ensure_owned` copy-on-write,
        including a mid-block append into a partial tail.  A branch whose
        tail shrinks back past a shared block releases just its reference
        (retiring a pruned branch never frees blocks another branch still
        holds).
        """
        clone = PagedLayerKVCache(self.pool, self.capacity)
        for block_id in self._table:
            self.pool.retain(block_id)
            clone._table.append(block_id)
            clone._owned.append(False)
        clone.length = self.length
        return clone

    def release(self):
        """Return every table block to the pool (sequence retirement)."""
        while self._table:
            self.pool.release(self._table.pop())
            self._owned.pop()
        self.length = 0

    def __len__(self):
        return self.length

    def __repr__(self):
        return (
            f"PagedLayerKVCache(heads={self.n_heads}, head_dim={self.head_dim}, "
            f"length={self.length}/{self.capacity}, blocks={len(self._table)})"
        )


class PagedKVCache:
    """The full model cache over a shared pool: one paged cache per layer.

    Drop-in for :class:`~repro.core.kv_cache.KVCache` (same ``layers`` /
    ``lengths`` / indexing surface) plus the paged extras: adopting a
    shared prefix and releasing all blocks on retirement.
    """

    def __init__(self, pool, n_layers, capacity):
        if n_layers <= 0:
            raise ValueError(f"n_layers must be positive, got {n_layers}")
        self.pool = pool
        self.layers = [PagedLayerKVCache(pool, capacity) for _ in range(n_layers)]

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def lengths(self):
        return [layer.length for layer in self.layers]

    @property
    def num_blocks(self):
        """Blocks currently referenced by this sequence, over all layers."""
        return sum(layer.num_blocks for layer in self.layers)

    @property
    def owned_blocks(self):
        """Blocks this sequence allocated itself, over all layers."""
        return sum(layer.owned_blocks for layer in self.layers)

    @property
    def shared_blocks(self):
        """Blocks with pool refcount > 1 (CoW candidates), all layers."""
        return sum(layer.shared_blocks for layer in self.layers)

    @property
    def shared_tail_blocks(self):
        """Layers whose next append must copy-on-write a shared partial
        tail block (post-fork divergence), over all layers."""
        return sum(layer.shared_tail_blocks for layer in self.layers)

    def attach_prefix(self, layer_block_ids, length):
        """Adopt a shared prefix: ``layer_block_ids[l]`` are the block ids
        for layer ``l``; every layer adopts ``length`` slots."""
        if len(layer_block_ids) != self.n_layers:
            raise ValueError(
                f"{len(layer_block_ids)} block lists != {self.n_layers} layers"
            )
        for layer, block_ids in zip(self.layers, layer_block_ids):
            layer.attach_blocks(block_ids, length)

    def truncate(self, length):
        """Roll every layer back to ``length`` slots (spec-decode rollback)."""
        for layer in self.layers:
            layer.truncate(length)

    def fork(self):
        """A copy-on-write branch: every layer's table shared, refcounted."""
        clone = PagedKVCache.__new__(PagedKVCache)
        clone.pool = self.pool
        clone.layers = [layer.fork() for layer in self.layers]
        return clone

    def release(self):
        """Release every layer's blocks back to the pool."""
        for layer in self.layers:
            layer.release()

    def __getitem__(self, layer_index):
        return self.layers[layer_index]

    def __iter__(self):
        return iter(self.layers)

    def __repr__(self):
        return (
            f"PagedKVCache(layers={self.n_layers}, lengths={self.lengths}, "
            f"blocks={self.num_blocks})"
        )

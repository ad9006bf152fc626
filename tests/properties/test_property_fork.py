"""Property-based tests: fork/join block and refcount conservation.

Arbitrary admit / fork / diverge / retire interleavings (a pruned beam
branch retires like any other) over the KVResourceManager must conserve
the pool exactly — every pool
refcount equals the number of live block tables referencing the block,
``num_used`` equals the count of distinct referenced blocks — and
copy-on-write divergence must never let one branch's appends show up in
a sibling's gathered KV state.  A final schedule checks that forking
composes with prefix-trie registration through the scheduler without
aliasing: shared-prefix fork families generate the same tokens as a
dense serve and drain the pool completely.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.policies.voting import VotingPolicy
from repro.serve import Request, Scheduler
from repro.serve.resources import KVResourceManager

CONFIG = tiny_config()
BLOCK_SIZE = 4
NUM_BLOCKS = 96
MAX_SLOTS = 8


def pattern(tag, layer, start, length):
    """Writer-identifying KV rows: (writer, layer, slot) all encoded."""
    base = float((hash((tag, layer)) % 997) + 1)
    slots = np.arange(start, start + length, dtype=float)[None, :, None]
    return base * 1000.0 + slots + np.zeros(
        (CONFIG.n_heads, length, CONFIG.head_dim)
    )


def append_rows(caches, expected, tag, rows):
    """Append ``rows`` patterned slots to every layer of ``tag``'s cache,
    extending the tracked expectation."""
    cache = caches[tag]
    for layer_index, layer in enumerate(cache):
        start = layer.length
        block = pattern(tag, layer_index, start, rows)
        layer.append_block(block, -block, np.arange(start, start + rows))
        expected[tag][layer_index] = np.concatenate(
            [expected[tag][layer_index], block], axis=1
        )


def assert_no_cross_branch_writes(caches, expected):
    """Every live cache reads back exactly what its own lineage wrote."""
    for tag, per_layer in expected.items():
        cache = caches[tag]
        for layer_index, layer in enumerate(cache):
            np.testing.assert_array_equal(layer.keys, per_layer[layer_index])
            np.testing.assert_array_equal(
                layer.values, -per_layer[layer_index]
            )


def assert_refused_append(manager, caches, expected, tag, rows):
    """Appending ``rows`` past ``tag``'s cache capacity raises, and the
    refused append changes nothing: not a refcount, not ``num_used``,
    not any cache's contents."""
    pool = manager.block_pool
    refcounts = [pool.refcount(block_id) for block_id in range(pool.num_blocks)]
    used = pool.num_used
    attempted = {t: list(layers) for t, layers in expected.items()}
    with pytest.raises(RuntimeError, match="overflow"):
        append_rows(caches, attempted, tag, rows)
    assert pool.num_used == used
    assert [
        pool.refcount(block_id) for block_id in range(pool.num_blocks)
    ] == refcounts
    assert_no_cross_branch_writes(caches, expected)


def assert_refcounts_exact(manager, caches, expected):
    """Pool refcounts == live table references, num_used == distinct."""
    pool = manager.block_pool
    references = {}
    for tag in expected:
        for layer in caches[tag]:
            for block_id in layer.block_ids:
                references[block_id] = references.get(block_id, 0) + 1
    assert pool.num_used == len(references)
    assert pool.num_free + pool.num_used == pool.num_blocks
    for block_id in range(pool.num_blocks):
        assert pool.refcount(block_id) == references.get(block_id, 0)


@st.composite
def op_schedule(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["admit", "fork", "diverge", "retire"]
                ),
                st.integers(0, 2**31 - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )


class TestForkConservation:
    @given(op_schedule())
    # A 1-token root (capacity 17) diverged by 3 rows at a time overflows
    # its cache on the sixth append.
    @example([("admit", 0)] + [("diverge", 2)] * 6)
    @settings(max_examples=40, deadline=None)
    def test_blocks_refcounts_and_contents_conserved(self, ops):
        manager = KVResourceManager(
            CONFIG,
            max_batch_size=MAX_SLOTS,
            paged=True,
            block_size=BLOCK_SIZE,
            num_blocks=NUM_BLOCKS,
            prefix_caching=False,
            policy_factory=lambda: VotingPolicy(CONFIG.n_layers),
        )
        pool = manager.block_pool
        expected = {}  # tag -> per-layer expected (H, n, d) keys
        caches = {}  # tag -> the cache admit/fork returned
        next_root = 0
        next_child = 0

        for op, pick in ops:
            live = sorted(expected)
            if op == "admit" and manager.slots_free > 0:
                length = 1 + pick % 11
                needed = manager.blocks_for_rows(length + BLOCK_SIZE)
                if not manager.has_blocks(needed):
                    continue
                tag = f"root{next_root}"
                next_root += 1
                caches[tag] = manager.admit(tag, length + 16)
                expected[tag] = [
                    np.zeros((CONFIG.n_heads, 0, CONFIG.head_dim))
                    for _ in range(CONFIG.n_layers)
                ]
                append_rows(caches, expected, tag, length)
            elif op == "fork" and live and manager.slots_free > 0:
                parent = live[pick % len(live)]
                child = f"{parent}#c{next_child}"
                next_child += 1
                caches[child] = manager.fork(parent, child)
                # The child's lineage so far is exactly the parent's.
                expected[child] = [
                    arr.copy() for arr in expected[parent]
                ]
            elif op == "diverge" and live:
                tag = live[pick % len(live)]
                rows = 1 + pick % 3
                layer = caches[tag][0]
                # Worst case per layer: CoW the shared tail plus fresh
                # blocks for the new rows.
                worst = CONFIG.n_layers * (2 + rows // BLOCK_SIZE)
                if layer.length + rows > layer.capacity:
                    assert_refused_append(manager, caches, expected, tag, rows)
                elif manager.has_blocks(worst):
                    append_rows(caches, expected, tag, rows)
            elif op == "retire" and live:
                tag = live[pick % len(live)]
                manager.retire(tag)
                del expected[tag]

            assert_refcounts_exact(manager, caches, expected)
            assert_no_cross_branch_writes(caches, expected)
            assert manager.slots_used == len(expected)

        for tag in sorted(expected):
            manager.retire(tag)
        assert pool.num_free == pool.num_blocks
        assert manager.slots_used == 0

    @given(st.integers(1, 15), st.integers(2, 4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_fork_shares_all_parent_blocks_until_divergence(
        self, length, width, extra_rows
    ):
        """Immediately after a fork the child allocates nothing; the
        first divergent append CoWs at most the partial tail."""
        manager = KVResourceManager(
            CONFIG,
            max_batch_size=MAX_SLOTS,
            paged=True,
            block_size=BLOCK_SIZE,
            num_blocks=NUM_BLOCKS,
            prefix_caching=False,
            policy_factory=lambda: VotingPolicy(CONFIG.n_layers),
        )
        pool = manager.block_pool
        expected = {"root": [
            np.zeros((CONFIG.n_heads, 0, CONFIG.head_dim))
            for _ in range(CONFIG.n_layers)
        ]}
        caches = {"root": manager.admit("root", length + 16)}
        append_rows(caches, expected, "root", length)
        used_before = pool.num_used

        children = []
        for i in range(width - 1):
            child = f"root#{i + 1}"
            caches[child] = manager.fork("root", child)
            expected[child] = [arr.copy() for arr in expected["root"]]
            children.append(child)
        assert pool.num_used == used_before  # CoW: zero new blocks

        if extra_rows:
            for tag in ["root"] + children:
                append_rows(caches, expected, tag, extra_rows)
            assert_no_cross_branch_writes(caches, expected)
        assert_refcounts_exact(manager, caches, expected)

        # Prune every child: the pool returns to the root-only footprint.
        for child in children:
            manager.retire(child)
            del expected[child]
        assert_refcounts_exact(manager, caches, expected)
        manager.retire("root")
        assert pool.num_free == pool.num_blocks


class TestForkComposesWithPrefixTrie:
    @given(st.integers(0, 7))
    @settings(max_examples=8, deadline=None)
    def test_shared_prefix_families_drain_and_match_dense(self, seed):
        """Fork families over trie-registered prefixes: same tokens as
        dense, no leaked or aliased blocks after the cache drops."""
        model = _model()
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        prefix = rng.integers(0, vocab, size=int(rng.integers(6, 14)))
        requests = []
        for i in range(3):
            tail = rng.integers(0, vocab, size=int(rng.integers(2, 8)))
            requests.append(
                Request(
                    f"r{i}",
                    np.concatenate([prefix, tail]),
                    max_new_tokens=int(rng.integers(3, 7)),
                    arrival_time=i,
                    seed=seed + 10 * i,
                    n=int(rng.integers(2, 4)),
                )
            )

        def serve(paged):
            scheduler = Scheduler(
                model,
                max_batch_size=8,
                paged=paged,
                block_size=BLOCK_SIZE,
            )
            for request in requests:
                scheduler.submit(request)
            scheduler.run()
            return scheduler

        dense = serve(paged=False)
        paged = serve(paged=True)
        for request in requests:
            assert paged.samples_for(request.request_id) == dense.samples_for(
                request.request_id
            )
        pool = paged.manager.block_pool
        assert pool.num_used == paged.manager.prefix_cache.num_blocks_held
        paged.manager.clear_prefix_cache()
        assert pool.num_free == pool.num_blocks


_MODEL = None


def _model():
    global _MODEL
    if _MODEL is None:
        from repro.models.inference import CachedTransformer
        from repro.models.transformer import TransformerLM

        _MODEL = CachedTransformer.from_module(
            TransformerLM(tiny_config(), seed=0)
        )
    return _MODEL

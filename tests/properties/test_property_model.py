"""Property-based tests: model substrate invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import small_lm_config
from repro.core.kv_cache import LayerKVCache
from repro.models.inference import CachedTransformer, batch_matmul
from repro.models.transformer import TransformerLM
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.serve.paging import BlockPool, PagedKVCache

# Every (D, F) a linear layer or LM head is served at: the tiny config
# (d_model 32, d_ff 64, vocab 64) and the small one (128, 256, 512).
SERVED_SHAPES = [
    (32, 32), (32, 64), (64, 32),
    (128, 128), (128, 256), (256, 128), (128, 512),
]
SEEDS = st.integers(0, 2**31 - 1)
# Decode batches run 1..64 rows; prefill chunks and verify windows up to 128.
ROWS = st.one_of(st.integers(1, 64), st.integers(65, 128))


def assert_rows_match_solo(x, w):
    """``batch_matmul(x, w)[i]`` is bitwise the product of row ``i``
    alone, passed as a fresh contiguous ``(1, D)`` array."""
    batched = batch_matmul(x, w)
    for i in range(x.shape[0]):
        solo = batch_matmul(np.ascontiguousarray(x[i : i + 1]), w)[0]
        np.testing.assert_array_equal(batched[i], solo)


@pytest.fixture(scope="module")
def small_inference():
    return CachedTransformer.from_module(TransformerLM(small_lm_config(), seed=3))


class TestBatchMatmulRowInvariance:
    """A row's linear-layer output does not depend on how many rows share
    the call, their order, or the memory layout of either operand — the
    property batched == solo decoding rests on.  Plain ``x @ w`` (one
    gemm) fails this at every row count >= 2."""

    @given(SEEDS, ROWS, st.sampled_from(SERVED_SHAPES))
    @settings(max_examples=60, deadline=None)
    def test_row_equals_solo_row(self, seed, rows, shape):
        rng = np.random.default_rng(seed)
        depth, width = shape
        x = rng.normal(size=(rows, depth))
        w = rng.normal(size=(depth, width))
        assert_rows_match_solo(x, w)
        # Against the fixed-order einsum it replaced: within the
        # float64 dot-product error bound depth * eps * (|x| @ |w|).
        error = np.abs(batch_matmul(x, w) - np.einsum("bd,df->bf", x, w))
        assert np.all(error <= depth * np.finfo(float).eps * (np.abs(x) @ np.abs(w)))

    @given(SEEDS, ROWS, st.sampled_from(SERVED_SHAPES))
    @settings(max_examples=30, deadline=None)
    def test_permuting_rows_permutes_results(self, seed, rows, shape):
        rng = np.random.default_rng(seed)
        depth, width = shape
        x = rng.normal(size=(rows, depth))
        w = rng.normal(size=(depth, width))
        order = rng.permutation(rows)
        np.testing.assert_array_equal(
            batch_matmul(x[order], w), batch_matmul(x, w)[order]
        )

    @given(
        SEEDS,
        st.integers(1, 64),
        st.sampled_from(SERVED_SHAPES),
        st.sampled_from(["row_stride", "column_stride", "fortran"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_contiguous_rows(self, seed, rows, shape, layout):
        rng = np.random.default_rng(seed)
        depth, width = shape
        base = rng.normal(size=(2 * rows, 2 * depth))
        x = {
            "row_stride": base[::2, :depth],
            "column_stride": base[:rows, ::2],
            "fortran": np.asfortranarray(base[:rows, :depth]),
        }[layout]
        assert not x.flags.c_contiguous or rows == 1
        assert_rows_match_solo(x, rng.normal(size=(depth, width)))

    @given(SEEDS, ROWS)
    @settings(max_examples=20, deadline=None)
    def test_tied_lm_head(self, small_inference, seed, rows):
        """The tied head is ``embed.T``: a Fortran-order ``(D, V)`` view."""
        lm_head = small_inference.lm_head
        assert lm_head.flags.f_contiguous and not lm_head.flags.c_contiguous
        rng = np.random.default_rng(seed)
        assert_rows_match_solo(
            rng.normal(size=(rows, lm_head.shape[0])), lm_head
        )

    @given(SEEDS, st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_step_batch_matches_solo_steps(self, small_inference, seed, batch):
        model = small_inference
        rng = np.random.default_rng(seed)
        vocab = model.config.vocab_size
        prompts = [
            rng.integers(0, vocab, size=int(rng.integers(1, 25)))
            for _ in range(batch)
        ]
        tokens = rng.integers(0, vocab, size=batch)
        positions = [len(prompt) for prompt in prompts]

        def prefilled():
            caches = [model.new_cache(capacity=32) for _ in prompts]
            for prompt, cache in zip(prompts, caches):
                model.prefill(prompt, cache)
            return caches

        batched = model.step_batch(tokens, positions, prefilled())
        for b, (token, position, cache) in enumerate(
            zip(tokens, positions, prefilled())
        ):
            solo = model.step(token, position, cache)
            np.testing.assert_array_equal(batched.logits[b], solo.logits)
            for layer, rows in enumerate(batched.attention):
                np.testing.assert_array_equal(rows[b], solo.attention[layer])


def cache_contents(cache):
    """Copies of every layer's occupied keys, values and positions."""
    return [
        (layer.keys.copy(), layer.values.copy(), layer.positions.copy())
        for layer in cache.layers
    ]


def assert_cache_equals(cache, contents):
    for got, want in zip(cache_contents(cache), contents, strict=True):
        for got_array, want_array in zip(got, want):
            np.testing.assert_array_equal(got_array, want_array)


class TestRoundBatchEqualsSequentialSteps:
    """A scheduler round's one ``step_batch``: plain rows plus verify
    windows (one cache repeated over a window's consecutive positions),
    in any interleaving that keeps each window's rows in order.  Every
    row's logits and attention, and every cache's keys/values/positions
    — also after a window's rejected suffix is truncated — equal each
    sequence's own sequential ``step`` calls bitwise, on dense and paged
    caches alike."""

    SPEC_K = 4

    @given(
        SEEDS,
        st.sampled_from(["tiny", "small"]),
        st.sampled_from([None, 1, 4]),
        st.integers(0, 8),
        st.lists(st.integers(1, SPEC_K + 1), max_size=3),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_batch_equals_sequential_steps(
        self, tiny_inference, small_inference, seed, config, block_size,
        plain, windows, data,
    ):
        model = tiny_inference if config == "tiny" else small_inference
        cfg = model.config
        sizes = [1] * plain + windows
        assume(sizes)
        rng = np.random.default_rng(seed)
        prompts = [
            rng.integers(0, cfg.vocab_size, size=int(rng.integers(1, 25)))
            for _ in sizes
        ]
        seq_tokens = [rng.integers(0, cfg.vocab_size, size=n) for n in sizes]
        owners = data.draw(
            st.permutations([s for s, n in enumerate(sizes) for _ in range(n)])
        )

        def prefilled():
            pool = (
                None
                if block_size is None
                else BlockPool(cfg.n_heads, cfg.head_dim, block_size)
            )
            caches = []
            for prompt in prompts:
                cache = (
                    model.new_cache(capacity=32)
                    if pool is None
                    else PagedKVCache(pool, cfg.n_layers, 32)
                )
                model.prefill(prompt, cache)
                caches.append(cache)
            return caches

        caches = prefilled()
        tokens, positions, batch_caches, row_of = [], [], [], {}
        taken = [0] * len(sizes)
        for s in owners:
            i = taken[s]
            taken[s] += 1
            row_of[s, i] = len(tokens)
            tokens.append(seq_tokens[s][i])
            positions.append(len(prompts[s]) + i)
            batch_caches.append(caches[s])
        batched = model.step_batch(tokens, positions, batch_caches)

        for s, cache in enumerate(prefilled()):
            contents = [cache_contents(cache)]
            for i, token in enumerate(seq_tokens[s]):
                solo = model.step(token, len(prompts[s]) + i, cache)
                b = row_of[s, i]
                np.testing.assert_array_equal(batched.logits[b], solo.logits)
                for layer, rows in enumerate(batched.attention):
                    np.testing.assert_array_equal(rows[b], solo.attention[layer])
                contents.append(cache_contents(cache))
            assert_cache_equals(caches[s], contents[-1])
            keep = data.draw(st.integers(0, sizes[s]))
            caches[s].truncate(len(prompts[s]) + keep)
            assert_cache_equals(caches[s], contents[keep])


class TestSegmentWidthInvariance:
    """A token's hidden state does not depend on the segment that carries
    it: a whole prefill, a random chunking, sequential ``step`` calls and
    a ``step_batch`` window interleaved with other sequences' rows give
    bitwise the same logits, the same attention row in every layer and
    the same keys, values and positions in every layer's cache — dense
    and paged alike.  A pairwise softmax denominator fails this: a row's
    masked zero tail changes its sum's grouping."""

    @given(
        SEEDS,
        st.sampled_from(["tiny", "small"]),
        st.sampled_from([None, 1, 4, 16]),
        st.integers(1, 40),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefill_chunks_steps_and_window_agree(
        self, tiny_inference, small_inference, seed, config, block_size,
        length, data,
    ):
        model = tiny_inference if config == "tiny" else small_inference
        cfg = model.config
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, cfg.vocab_size, size=length)
        pool = (
            None
            if block_size is None
            else BlockPool(cfg.n_heads, cfg.head_dim, block_size)
        )

        def new_cache():
            if pool is None:
                return model.new_cache(capacity=64)
            return PagedKVCache(pool, cfg.n_layers, 64)

        # The reference: sequential steps from an empty cache.
        stepped = new_cache()
        steps = [model.step(token, i, stepped) for i, token in enumerate(prompt)]
        want = cache_contents(stepped)

        def assert_row(i, logits, attention):
            if logits is not None:
                np.testing.assert_array_equal(logits, steps[i].logits)
            for got, row in zip(attention, steps[i].attention, strict=True):
                np.testing.assert_array_equal(got, row)

        whole_cache = new_cache()
        whole = model.prefill(prompt, whole_cache)
        for i in range(length):
            assert_row(
                i,
                whole.logits if i == length - 1 else None,
                [attn[:, i, : i + 1] for attn in whole.attention],
            )
        assert_cache_equals(whole_cache, want)

        cuts = data.draw(st.sets(st.integers(1, max(1, length - 1))))
        bounds = [0, *sorted(cut for cut in cuts if cut < length), length]
        chunked = new_cache()
        for start, stop in zip(bounds, bounds[1:]):
            chunk = model.prefill(prompt[start:stop], chunked, start_position=start)
            for i in range(start, stop):
                assert_row(
                    i,
                    chunk.logits if i == stop - 1 else None,
                    [attn[:, i - start, : i + 1] for attn in chunk.attention],
                )
        assert_cache_equals(chunked, want)

        # The prompt as one verify-style window of step_batch rows,
        # interleaved with decode rows of other prefilled sequences.
        others = []
        for _ in range(data.draw(st.integers(0, 3))):
            cache = new_cache()
            other = rng.integers(0, cfg.vocab_size, size=int(rng.integers(1, 12)))
            model.prefill(other, cache)
            others.append((cache, len(other)))
        owners = data.draw(
            st.permutations([None] * length + list(range(len(others))))
        )
        window = new_cache()
        tokens, positions, caches, row_of = [], [], [], []
        for owner in owners:
            if owner is None:
                row_of.append(len(tokens))
                tokens.append(prompt[len(row_of) - 1])
                positions.append(len(row_of) - 1)
                caches.append(window)
            else:
                cache, position = others[owner]
                tokens.append(int(rng.integers(0, cfg.vocab_size)))
                positions.append(position)
                caches.append(cache)
        batched = model.step_batch(tokens, positions, caches)
        for i, b in enumerate(row_of):
            assert_row(i, batched.logits[b], [rows[b] for rows in batched.attention])
        assert_cache_equals(window, want)


class TestSoftmaxGraphProperties:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_simplex(self, seed, n):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, n)) * 8)
        out = F.softmax(x).numpy()
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_cross_entropy_non_negative(self, seed, vocab):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(4, vocab)))
        targets = rng.integers(0, vocab, size=4)
        assert F.cross_entropy(logits, targets).item() >= 0.0


class TestKVCacheProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.booleans(), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_append_evict_consistency(self, seed, ops):
        """Arbitrary interleavings of append/evict keep positions sorted,
        unique, and consistent with payloads."""
        rng = np.random.default_rng(seed)
        cache = LayerKVCache(n_heads=1, head_dim=2, capacity=80)
        payload = {}
        next_pos = 0
        for do_append in ops:
            if do_append or cache.length == 0:
                if cache.length >= cache.capacity:
                    continue
                k = rng.normal(size=(1, 2))
                cache.append(k, -k, next_pos)
                payload[next_pos] = k
                next_pos += 1
            else:
                slot = int(rng.integers(cache.length))
                evicted = cache.evict(slot)
                del payload[evicted]
        positions = cache.positions
        assert list(positions) == sorted(set(positions))
        for slot, pos in enumerate(positions):
            np.testing.assert_array_equal(cache.keys[:, slot], payload[pos])


class TestGradientProperties:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linearity_of_backward(self, seed):
        """grad(a*f + b*g) == a*grad(f) + b*grad(g)."""
        rng = np.random.default_rng(seed)
        x_data = rng.normal(size=5)

        def grad_of(scale_f, scale_g):
            x = Tensor(x_data, requires_grad=True)
            out = scale_f * (x**2).sum() + scale_g * x.exp().sum()
            out.backward()
            return x.grad

        g_f = grad_of(1.0, 0.0)
        g_g = grad_of(0.0, 1.0)
        combined = grad_of(2.0, 3.0)
        np.testing.assert_allclose(combined, 2 * g_f + 3 * g_g, atol=1e-9)

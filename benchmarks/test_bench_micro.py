"""Micro-benchmarks of the hot kernels.

These are throughput measurements of the reproduction's own code paths
(not paper artifacts): the functional PE array, the streaming SFU units,
policy bookkeeping, and a decode step of the cached transformer.
"""

import time

import numpy as np
import pytest

from repro.accel.pe_array import PEArray
from repro.accel.sfu import SoftmaxUnit
from repro.config import tiny_config
from repro.core.policies import H2OPolicy, VotingPolicy
from repro.core.policies.base import GENERATION, PREFILL, EvictionPolicy
from repro.models.inference import CachedTransformer, stable_softmax
from repro.models.transformer import TransformerLM


def best_of(fn, repeats=3, calls=1):
    """Fastest of ``repeats`` timings of ``calls`` back-to-back calls,
    per call — the floor assertions compare these."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls


def causal_attention_block(rng, heads, length, scale=3.0):
    """A (H, L, L) causal softmax block like the ones prefill records."""
    logits = rng.normal(size=(heads, length, length)) * scale
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    return stable_softmax(np.where(mask, -1e30, logits), axis=-1)


@pytest.fixture(scope="module")
def inference():
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))


@pytest.mark.benchmark(group="micro")
def test_pe_array_inner_product(benchmark, rng):
    array = PEArray(width=128, quantize=False)
    v = rng.normal(size=128)
    m = rng.normal(size=(128, 64))
    benchmark(array.inner_product, v, m)


@pytest.mark.benchmark(group="micro")
def test_pe_array_outer_product(benchmark, rng):
    array = PEArray(width=128, quantize=False)
    v = rng.normal(size=64)
    m = rng.normal(size=(64, 128))
    benchmark(array.outer_product, v, m)


@pytest.mark.benchmark(group="micro")
def test_streaming_softmax_unit(benchmark, rng):
    unit = SoftmaxUnit(quantize=False)
    x = rng.normal(size=256)
    benchmark(unit, x)


@pytest.mark.benchmark(group="micro")
def test_voting_policy_observe(benchmark, rng):
    policy = VotingPolicy(n_layers=1, reserved_length=8)
    attn = stable_softmax(rng.normal(size=(8, 512)) * 3, axis=-1)
    positions = np.arange(512)
    benchmark(policy.observe, 0, attn, positions, GENERATION)


@pytest.mark.benchmark(group="micro")
def test_prefill_observe_scalar(benchmark, rng):
    """Row-by-row prefill observation (the base-class reference replay)."""
    attn = causal_attention_block(rng, heads=4, length=512)
    positions = np.arange(512)
    policy = VotingPolicy(n_layers=1, reserved_length=32)

    def scalar_block():
        policy.reset()
        EvictionPolicy.observe_block(policy, 0, attn, positions, PREFILL)

    benchmark(scalar_block)


@pytest.mark.benchmark(group="micro")
def test_prefill_observe_vectorized(benchmark, rng):
    """VotingPolicy's one-pass vectorized prefill observation."""
    attn = causal_attention_block(rng, heads=4, length=512)
    positions = np.arange(512)
    policy = VotingPolicy(n_layers=1, reserved_length=32)

    def vectorized_block():
        policy.reset()
        policy.observe_block(0, attn, positions, PREFILL)

    benchmark(vectorized_block)


@pytest.mark.slow  # wall-clock assertion: keep off noisy shared CI runners
def test_prefill_observe_vectorized_speedup(rng):
    """Vectorized prefill observation: ≥4× over the scalar loop at L=512,
    with bit-identical vote counts.

    The kernel's per-row reductions run through ``np.add.reduceat`` so a
    row's votes are bitwise identical under any chunking/width — the
    exactness the paged path's prefix-cache snapshots rest on (see
    ``VotingPolicy._vote_rows``).  That costs a little throughput over
    the width-dependent pairwise sums this floor was originally set at
    5× for; the floor is 4× since the trade."""
    attn = causal_attention_block(rng, heads=4, length=512)
    positions = np.arange(512)
    scalar = VotingPolicy(n_layers=1, reserved_length=32)
    vectorized = VotingPolicy(n_layers=1, reserved_length=32)

    def scalar_run():
        scalar.reset()
        EvictionPolicy.observe_block(scalar, 0, attn, positions, PREFILL)

    def vectorized_run():
        vectorized.reset()
        vectorized.observe_block(0, attn, positions, PREFILL)

    t_scalar = best_of(scalar_run)
    t_vectorized = best_of(vectorized_run)

    np.testing.assert_array_equal(
        scalar.vote_counts(0), vectorized.vote_counts(0)
    )
    speedup = t_scalar / t_vectorized
    assert speedup >= 4.0, (
        f"vectorized observe_block only {speedup:.1f}x faster "
        f"({t_scalar * 1e3:.2f}ms scalar vs {t_vectorized * 1e3:.2f}ms)"
    )


def decode_observe_inputs(rng, layers=4, heads=4, length=64):
    """One decode step's per-layer ``(H, l)`` rows and slot positions."""
    attention = [
        stable_softmax(rng.normal(size=(heads, length)) * 3, axis=-1)
        for _ in range(layers)
    ]
    return attention, [np.arange(length)] * layers


@pytest.mark.benchmark(group="micro")
def test_decode_observe_per_layer(benchmark, rng):
    """One sequence-step of decode voting, one ``observe`` per layer
    (the base-class reference loop)."""
    attention, positions = decode_observe_inputs(rng)
    policy = VotingPolicy(n_layers=4, reserved_length=4)
    benchmark(EvictionPolicy.observe_step, policy, attention, positions)


@pytest.mark.benchmark(group="micro")
def test_decode_observe_stacked(benchmark, rng):
    """The same sequence-step through VotingPolicy's layer-stacked kernel."""
    attention, positions = decode_observe_inputs(rng)
    policy = VotingPolicy(n_layers=4, reserved_length=4)
    benchmark(policy.observe_step, attention, positions)


@pytest.mark.slow  # wall-clock assertion: keep off noisy shared CI runners
def test_decode_observe_stacked_speedup(rng):
    """Layer-stacked decode voting: ≥3× over the per-layer loop at
    4 layers × 4 heads × l = 64 (measured ≈5×), with identical vote
    counts."""
    attention, positions = decode_observe_inputs(rng)
    scalar = VotingPolicy(n_layers=4, reserved_length=4)
    stacked = VotingPolicy(n_layers=4, reserved_length=4)

    t_scalar = best_of(
        lambda: EvictionPolicy.observe_step(scalar, attention, positions),
        repeats=5, calls=200,
    )
    t_stacked = best_of(
        lambda: stacked.observe_step(attention, positions), repeats=5, calls=200
    )

    for layer in range(4):
        np.testing.assert_array_equal(
            scalar.vote_counts(layer), stacked.vote_counts(layer)
        )
    speedup = t_scalar / t_stacked
    assert speedup >= 3.0, (
        f"stacked observe_step only {speedup:.1f}x faster "
        f"({t_scalar * 1e6:.1f}us per-layer vs {t_stacked * 1e6:.1f}us)"
    )


@pytest.mark.benchmark(group="micro")
def test_h2o_policy_observe(benchmark, rng):
    policy = H2OPolicy(n_layers=1)
    attn = stable_softmax(rng.normal(size=(8, 512)) * 3, axis=-1)
    positions = np.arange(512)
    benchmark(policy.observe, 0, attn, positions, GENERATION)


@pytest.mark.benchmark(group="micro")
def test_decode_step(benchmark, inference, rng):
    tokens = rng.integers(0, 64, size=32)

    def step_once():
        cache = inference.new_cache()
        inference.prefill(tokens, cache)
        return inference.step(5, 32, cache)

    benchmark(step_once)


@pytest.mark.benchmark(group="micro")
def test_decode_step_batched(benchmark, inference, rng):
    """One batched decode step for 8 sequences (one stacked matmul per
    linear layer vs 8 separate solo steps)."""
    tokens = rng.integers(0, 64, size=32)
    caches = [inference.new_cache() for _ in range(8)]
    for cache in caches:
        inference.prefill(tokens, cache)
    base_length = caches[0][0].length

    def step_batch_once():
        result = inference.step_batch([5] * 8, [32] * 8, caches)
        # Rewind the appends so every round sees identical cache state.
        for cache in caches:
            for layer in cache:
                layer.length = base_length
        return result

    benchmark(step_batch_once)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)

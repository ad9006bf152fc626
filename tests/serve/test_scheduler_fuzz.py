"""Fuzz-style scheduler tests: randomized traces against the paged path.

Each seeded trace draws arrivals, prompt/generation lengths, EOS
settings, budgets and shared prefixes at random, then asserts the three
end-to-end safety properties of the paged serving path:

- **No block leaks.**  After every request retires and the prefix cache
  is dropped, every pool block is back on the free list.
- **Prefix hits never change outputs.**  The paged run (hits, CoW,
  chunked voting) produces the exact token streams of the dense run.
- **A fixed pool serves the trace.**  With admission gating on block
  availability, a bounded pool completes the same trace with the same
  outputs (admission may be delayed; tokens are batch-invariant).
"""

import numpy as np
import pytest

from repro.core.engine import budget_from_ratio
from repro.core.policies import VotingPolicy
from repro.serve import (
    PREEMPTED,
    PREFILLING,
    QUEUED,
    RUNNING,
    SWAPPED,
    KVResourceManager,
    Request,
    Scheduler,
)


def fuzz_trace(model, seed):
    """A randomized multi-tenant trace with shared prefixes mixed in."""
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    n_requests = int(rng.integers(5, 10))
    n_prefixes = int(rng.integers(1, 3))
    prefixes = [
        rng.integers(0, vocab, size=int(rng.integers(8, 20)))
        for _ in range(n_prefixes)
    ]
    requests = []
    arrival = 0
    for i in range(n_requests):
        parts = []
        if rng.random() < 0.7:  # most requests share one of the prefixes
            parts.append(prefixes[int(rng.integers(0, n_prefixes))])
        parts.append(rng.integers(0, vocab, size=int(rng.integers(4, 24))))
        prompt = np.concatenate(parts)
        budget = None
        if rng.random() < 0.7:
            budget = budget_from_ratio(0.5, prompt.shape[0], minimum=8)
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=prompt,
                max_new_tokens=int(rng.integers(3, 16)),
                arrival_time=arrival,
                eos=int(rng.integers(0, vocab)) if rng.random() < 0.5 else None,
                seed=i,
                budget=budget,
            )
        )
        arrival += int(rng.integers(0, 4))
    return requests


def serve(model, requests, **kwargs):
    scheduler = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=kwargs.pop("max_batch_size", 4),
        **kwargs,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("block_size", [1, 4, 16])
def test_fuzzed_traces_leak_free_and_output_stable(model, seed, block_size):
    requests = fuzz_trace(model, seed)
    dense, _ = serve(model, requests)
    paged, report = serve(model, requests, paged=True, block_size=block_size)

    # Everyone retired, and prefix hits never changed a single token.
    assert len(paged.results()) == len(requests)
    for request in requests:
        assert paged.tokens_for(request.request_id) == dense.tokens_for(
            request.request_id
        )

    # Only the prefix cache may still hold blocks; its accounting must
    # agree with the pool's.
    pool = paged.manager.block_pool
    assert pool.num_used == paged.manager.prefix_cache.num_blocks_held
    paged.manager.clear_prefix_cache()
    assert pool.num_free == pool.num_blocks


def check_lifecycle(scheduler):
    """Round-boundary lifecycle invariants: each live state's status
    matches the one collection holding it (the waiting queue, the running
    batch, or the manager's swap images), and every live registrant's
    prefix-trie node is ``None`` or still attached."""
    swapped = scheduler.manager._swapped
    waiting = scheduler._waiting
    running = scheduler._running
    assert not {id(s) for s in waiting} & {id(s) for s in running}
    for state in waiting:
        assert state.status in (QUEUED, PREEMPTED, SWAPPED)
        assert (state.status == SWAPPED) == (state.request_id in swapped)
    for state in running:
        assert state.status in (PREFILLING, RUNNING)
        assert state.request_id not in swapped
        node = state.prefix_node
        if state.status == PREFILLING and node is not None:
            assert not node.detached, f"{state.request_id} registers under a detached node"
    assert len(swapped) == sum(s.status == SWAPPED for s in waiting)


def step_to_completion(scheduler, max_rounds=5000):
    """Drive ``scheduler`` one ``run_round`` at a time, checking the
    lifecycle invariants after every round."""
    for _ in range(max_rounds):
        if scheduler.done:
            return
        scheduler.run_round()
        check_lifecycle(scheduler)
    raise AssertionError(f"not drained after {max_rounds} rounds")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("preempt", ["off", "swap", "recompute"])
def test_fixed_pool_completes_with_admission_gating(model, seed, preempt):
    """A fixed pool serves the whole trace.  One-way scheduling gets room
    for two worst-case sequences: admission stalls under block pressure
    instead of overflowing.  Two-way scheduling, with chunked prefill, gets
    room for one: sequences are swapped or recomputed through the prefix
    trie.  Outputs stay bit-identical to dense (tokens are batch-
    composition invariant) — under recompute only for sequences whose
    eviction state a re-prefill re-derives exactly (unbudgeted or never
    preempted)."""
    requests = fuzz_trace(model, seed + 100)
    dense, _ = serve(model, requests)
    block_size = 4
    n_layers = model.config.n_layers
    if preempt == "off":
        worst = max(
            -(-(max(r.prompt.shape[0], r.budget or 0) + r.max_new_tokens + 1)
              // block_size)
            for r in requests
        )
        # Room for two worst-case sequences: forces real admission stalls
        # on most traces while staying serviceable.
        num_blocks = 2 * worst * n_layers + n_layers
    else:
        sizing = KVResourceManager(model.config, 1, paged=True, block_size=block_size)
        num_blocks = n_layers + max(
            sizing.sequence_worst_blocks(r.prompt.shape[0], r.max_new_tokens, r.budget)
            for r in requests
        )
    paged = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(model.config.n_layers, reserved_length=4),
        max_batch_size=4,
        paged=True,
        block_size=block_size,
        num_blocks=num_blocks,
        preempt=preempt,
        prefill_chunk=None if preempt == "off" else 8,
    )
    for request in requests:
        paged.submit(request)
    step_to_completion(paged)
    assert len(paged.results()) == len(requests)
    for state in paged.results():
        if preempt == "recompute" and state.request.budget and state.preemptions:
            continue
        assert state.tokens == dense.tokens_for(state.request_id)
    paged.manager.clear_prefix_cache()
    assert paged.manager.block_pool.num_free == paged.manager.block_pool.num_blocks


def test_tight_fixed_pool_never_overflows(model):
    """Admission reservations must cover running sequences' future growth
    (decode appends and CoW), so a pool that can hold one worst-case
    sequence serves a two-request trace sequentially instead of crashing
    mid-decode with BlockPoolExhausted."""
    requests = [
        Request(f"r{i}", np.arange(1, 9), max_new_tokens=8, seed=i)
        for i in range(2)
    ]
    scheduler = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=True,
        block_size=4,
        num_blocks=14,  # one worst-case sequence (10) + slack, not two
    )
    for request in requests:
        scheduler.submit(request)
    scheduler.run()
    assert len(scheduler.results()) == 2


def test_unsatisfiable_request_rejected_at_submit(model):
    """A request whose worst-case block demand exceeds the whole pool
    must be rejected up front, not stall the queue forever."""
    scheduler = Scheduler(
        model, paged=True, block_size=4, num_blocks=4, max_batch_size=4
    )
    with pytest.raises(ValueError, match="blocks"):
        scheduler.submit(Request("big", np.arange(1, 9), max_new_tokens=8))


def test_prefix_cache_survives_across_trace_and_hits_accumulate(model):
    """Back-to-back identical prompts: the second wave is all hits."""
    rng = np.random.default_rng(0)
    prefix = rng.integers(0, model.config.vocab_size, size=16)
    requests = []
    for i in range(6):
        prompt = np.concatenate(
            [prefix, rng.integers(0, model.config.vocab_size, size=6)]
        )
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=prompt,
                max_new_tokens=6,
                arrival_time=4 * i,  # strictly sequential admissions
                seed=i,
            )
        )
    paged, report = serve(
        model, requests, paged=True, block_size=4, max_batch_size=2
    )
    # Every request after the first should have hit the shared prefix.
    assert report.prefix_hits == len(requests) - 1
    assert report.prefix_tokens_hit == (len(requests) - 1) * 16


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("preempt", ["off", "swap"])
def test_forked_branch_churn_drains_pool(model, seed, preempt):
    """Random fork families (parallel samples and beams) churned under
    slot pressure: whatever mix of forks, beam prunes, and preemptions
    fires, every family completes and every pool block drains back."""
    from repro.core.sampling import temperature_sampler

    rng = np.random.default_rng(1000 + seed)
    vocab = model.config.vocab_size
    requests = []
    arrival = 0
    for i in range(int(rng.integers(4, 8))):
        prompt = rng.integers(0, vocab, size=int(rng.integers(6, 20)))
        n = beam = 1
        roll = rng.random()
        if roll < 0.4:
            n = int(rng.integers(2, 4))
        elif roll < 0.7:
            beam = int(rng.integers(2, 4))
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=prompt,
                max_new_tokens=int(rng.integers(3, 10)),
                arrival_time=arrival,
                eos=int(rng.integers(0, vocab)) if rng.random() < 0.3 else None,
                seed=i,
                n=n,
                beam_width=beam,
            )
        )
        arrival += int(rng.integers(0, 3))
    scheduler = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        sampler=temperature_sampler(0.9),
        max_batch_size=4,  # families queue behind each other's branches
        paged=True,
        block_size=4,
        preempt=preempt,
    )
    for request in requests:
        scheduler.submit(request)
    scheduler.run()

    for request in requests:
        if request.n > 1:
            samples = scheduler.samples_for(request.request_id)
            assert len(samples) == request.n
        elif request.beam_width > 1:
            tokens, _ = scheduler.beam_result_for(request.request_id)
            assert tokens
        else:
            assert scheduler.tokens_for(request.request_id) is not None
    pool = scheduler.manager.block_pool
    assert pool.num_used == scheduler.manager.prefix_cache.num_blocks_held
    scheduler.manager.clear_prefix_cache()
    assert pool.num_free == pool.num_blocks
    assert scheduler.manager.slots_used == 0

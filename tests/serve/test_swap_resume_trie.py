"""Swap-resume under a prefix trie on a tight pool.

A swapped-out registrant releases its pool blocks, so the trie node it
last registered is held only by the trie and may be reclaimed like any
idle leaf while the sequence waits.  At swap-in, chunked prefill must
not keep registering prompt blocks under that evicted node.  This serves
the shared-prefix workload of ``tests/core/test_policy_pin.py`` on pools
small enough to reclaim such nodes and checks that every request is
served with the tokens and eviction log of the same trace served without
the trie.
"""

import pytest

from repro.core.policies import H2OPolicy, VotingPolicy
from repro.experiments.serving import make_workload
from repro.serve import Scheduler

POLICIES = {
    "voting": lambda n: VotingPolicy(n, reserved_length=4),
    "h2o": lambda n: H2OPolicy(n, recent_window=4),
}


def _serve(model, name, num_blocks, prefix_caching):
    n_layers = model.config.n_layers
    requests = make_workload(
        n_requests=8,
        mean_interarrival=1.0,
        prompt_range=(12, 24),
        max_new_range=(8, 16),
        compression_ratio=0.5,
        shared_prefix=16,
        vocab=model.config.vocab_size,
        seed=21,
    )
    scheduler = Scheduler(
        model,
        policy_factory=lambda: POLICIES[name](n_layers),
        max_batch_size=4,
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefill_chunk=8,
        preempt="swap",
        prefix_caching=prefix_caching,
    )
    for request in requests:
        scheduler.submit(request)
    scheduler.run()
    served = {
        s.request_id: ([int(t) for t in s.tokens], [list(map(int, e)) for e in s.evictions])
        for s in scheduler.results()
    }
    return requests, served


@pytest.mark.parametrize("num_blocks", [38, 44, 56])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_swap_resume_under_reclaimed_prefix_node(tiny_inference, name, num_blocks):
    requests, trie = _serve(tiny_inference, name, num_blocks, prefix_caching=True)
    _, plain = _serve(tiny_inference, name, num_blocks, prefix_caching=False)
    assert sorted(trie) == sorted(r.request_id for r in requests)
    assert trie == plain

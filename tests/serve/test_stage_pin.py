"""Pin of fork families and prefix-trie prefill served together.

A fork family's branches adopt their parent's KV blocks copy-on-write,
and its root prefills through the prefix trie like any request: it may
adopt a cached prefix (and its eviction-policy snapshot) and registers
its own prompt blocks while it prefills.  ``test_family_claims.py``
serves families only with the trie off, and ``test_policy_pin.py``
serves no family, so this test pins the two protocols composed.

The workload: six plain requests sharing a 16-token system prompt, plus
a parallel-sampling family (``n=3``) and a length-penalized beam family
(``beam_width=3``) on the same prefix, served paged (``block_size=4``)
with ``prefill_chunk=8`` and a temperature sampler, budgeted
(``compression_ratio=0.5``) and unbudgeted, on a fixed pool under
``preempt`` off, swap and recompute.  One more configuration serves the
plain requests alone with a self-draft speculative decoder (families
refuse a draft model), unbudgeted so that windows open, under swap.

Pinned per configuration: a digest of every sequence's tokens, eviction
log, cache-length log, finish reason and cumulative log-probability,
every ``RoundTrace`` row, the report minus wall time,
``free_kv_capacity`` after every round, ``samples_for`` and
``beam_result_for``.  Each configuration is also checked to exercise
what it is meant to (prefix hits, forks, preemptions, verify windows)
and to serve the tokens and eviction logs of the same trace served with
the trie off.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.engine import budget_from_ratio
from repro.core.sampling import greedy, temperature_sampler
from repro.experiments.serving import make_workload
from repro.serve import Request, Scheduler

#: name -> (compression ratio, preempt mode, pool blocks, speculative)
CONFIGS = {
    "budgeted_off": (0.5, "off", 78, False),
    "budgeted_swap": (0.5, "swap", 84, False),
    "budgeted_recompute": (0.5, "recompute", 78, False),
    "unbudgeted_off": (None, "off", 60, False),
    "unbudgeted_swap": (None, "swap", 60, False),
    "unbudgeted_recompute": (None, "recompute", 60, False),
    "spec_swap": (None, "swap", 36, True),
}

PINNED = {
    "budgeted_off": "88f882a3cc6732c8",
    "budgeted_swap": "e2c91d982e0729d4",
    "budgeted_recompute": "c5d61087a39d9168",
    "unbudgeted_off": "a3496e7ce7d7663b",
    "unbudgeted_swap": "caae7863ae9fcda6",
    "unbudgeted_recompute": "c855cc402bdb754c",
    "spec_swap": "c0ac1bc65719dd9a",
}


def workload(model, ratio, families):
    vocab = model.config.vocab_size
    plain = make_workload(
        n_requests=6,
        mean_interarrival=1.0,
        prompt_range=(12, 24),
        max_new_range=(6, 12),
        compression_ratio=ratio,
        shared_prefix=16,
        vocab=vocab,
        seed=21,
    )
    if not families:
        return plain
    prefix = plain[0].prompt[:16]
    rng = np.random.default_rng(5)

    def family(request_id, arrival, **width):
        prompt = np.concatenate([prefix, rng.integers(0, vocab, size=10)])
        budget = (
            None
            if ratio is None
            else budget_from_ratio(ratio, prompt.shape[0], minimum=8)
        )
        return Request(
            request_id, prompt, max_new_tokens=8, seed=9,
            arrival_time=arrival, budget=budget, **width,
        )

    return [
        *plain[:2],
        family("s", 1, n=3),
        *plain[2:4],
        family("b", 2, beam_width=3, length_penalty=0.5),
        *plain[4:],
    ]


def serve(model, config, prefix_caching=True):
    """Serve ``config`` round by round; returns the scheduler, the
    report and ``free_kv_capacity`` read after every round."""
    ratio, preempt, num_blocks, speculative = CONFIGS[config]
    scheduler = Scheduler(
        model,
        sampler=greedy if speculative else temperature_sampler(0.8),
        max_batch_size=6,
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefill_chunk=8,
        preempt=preempt,
        prefix_caching=prefix_caching,
        draft_model=model if speculative else None,
    )
    for request in workload(model, ratio, families=not speculative):
        scheduler.submit(request)
    free = []
    while not scheduler.done:
        scheduler.run_round()
        free.append(scheduler.free_kv_capacity)
    return scheduler, scheduler.report(), free


def served(scheduler):
    return {
        s.request_id: (
            [int(t) for t in s.tokens],
            [[int(v) for v in e] for e in s.evictions],
        )
        for s in scheduler.results()
    }


def digest(scheduler, report, free, families):
    sequences = sorted(
        (
            str(s.request_id),
            [int(t) for t in s.tokens],
            [[int(v) for v in e] for e in s.evictions],
            [int(n) for n in s.cache_lengths],
            s.finish_reason,
            float(s.cum_logprob),
        )
        for s in scheduler.results()
    )
    summary = dataclasses.asdict(report)
    summary.pop("wall_seconds")
    readers = None
    if families:
        tokens, score = scheduler.beam_result_for("b")
        readers = [
            [[int(t) for t in branch] for branch in scheduler.samples_for("s")],
            [[int(t) for t in tokens], float(score)],
        ]
    blob = json.dumps(
        [
            sequences,
            [dataclasses.asdict(r) for r in scheduler.trace],
            summary,
            free,
            readers,
        ],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_stage_pinned(model, config):
    _, preempt, _, speculative = CONFIGS[config]
    scheduler, report, free = serve(model, config)
    assert report.prefix_hits > 0
    if speculative:
        assert report.verify_passes > 0
    else:
        assert report.forks > 0 and report.joins > 0
    if preempt != "off":
        assert report.preemptions > 0
    assert digest(scheduler, report, free, not speculative) == PINNED[config]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_trie_off_serves_the_same_tokens(model, config):
    """The trie changes where prompt KV comes from, never what is
    served: tokens and eviction logs equal the trie-off run's."""
    with_trie, _, _ = serve(model, config)
    without, _, _ = serve(model, config, prefix_caching=False)
    assert served(with_trie) == served(without)

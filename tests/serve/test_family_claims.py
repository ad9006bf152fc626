"""Pin of how fork families claim batch slots and pool blocks.

A fork family (``Request(n=)`` / ``Request(beam_width=)``) is admitted
against the slots — and, under one-way scheduling, the worst-case blocks
— of every branch it may still fork, and holds that claim while any of
its branches is resident.  The claim decides when the requests queued
behind a family are admitted, and it is part of the free capacity the
fleet router reads.  No equivalence suite compares two ways of computing
it, so this test pins its observable effects on one mixed workload: a
parallel-sampling family whose root prefills over several chunks, a beam
family, and four plain requests at batch cap 4, served dense, on a fixed
paged pool, and on a smaller pool under swap preemption (where a beam
branch is swapped out and back in).

Pinned per configuration: every request's admission round,
``free_kv_capacity`` after every round, and a digest of every
sequence's tokens, eviction log and cache-length log, every
``RoundTrace`` row and the report (minus wall time).  A second, smaller
workload pins that a family's root is admitted against its whole width,
dense (slots) and on a fixed paged pool (one-way blocks).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.sampling import temperature_sampler
from repro.serve import Request, Scheduler

CONFIGS = {
    "dense": dict(),
    "paged_off": dict(paged=True, num_blocks=40, prefix_caching=False),
    "paged_swap": dict(
        paged=True, num_blocks=30, prefix_caching=False, preempt="swap"
    ),
}

PINNED = {
    "dense": dict(
        admitted={
            "s": 0, "s#1": 0, "s#2": 0, "p0": 3,
            "b": 7, "b#1": 7, "b#2": 7, "b#3": 7, "b#4": 7,
            "p1": 9, "p2": 14, "p3": 18,
        },
        free=[1, 1, 1, 0, 0, 3, 3, 1, 1, 0, 0, 0, 0, 2, 1, 2, 2, 2, 1, 1,
              1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4],
        digest="5dc191f3a3a04284",
    ),
    "paged_off": dict(
        admitted={
            "s": 0, "s#1": 0, "s#2": 0, "p0": 6,
            "b": 10, "b#1": 10, "b#2": 10, "b#3": 10, "b#4": 10,
            "p1": 17, "p2": 21, "p3": 31,
        },
        free=[38, 36, 28, 28, 28, 40, 38, 36, 34, 30, 28, 26, 22, 20, 22,
              18, 28, 24, 36, 34, 32, 28, 24, 22, 20, 18, 16, 14, 14, 14, 28,
              24, 22, 20, 18, 30, 28, 28, 28, 28, 26, 26, 26, 26, 40],
        digest="0f12652f3f34e8e7",
    ),
    "paged_swap": dict(
        admitted={
            "s": 0, "s#1": 0, "s#2": 0, "p0": 3,
            "b": 7, "b#1": 7, "b#2": 7, "b#3": 7, "b#4": 7,
            "p1": 9, "p2": 16, "p3": 20,
        },
        free=[28, 26, 18, 16, 14, 24, 20, 18, 16, 10, 6, 6, 10, 8, 4, 18,
              6, 14, 10, 8, 4, 2, 16, 14, 12, 8, 6, 6, 4, 18, 18, 18, 16, 16,
              16, 16, 30],
        digest="8ea92c10cc2901ef",
    ),
}


def workload(model):
    rng = np.random.default_rng(11)
    vocab = model.config.vocab_size
    sample = Request(
        "s", rng.integers(0, vocab, size=12), max_new_tokens=4, seed=3, n=3
    )
    beam = Request(
        "b", rng.integers(0, vocab, size=9), max_new_tokens=5, eos=14,
        beam_width=2, arrival_time=1,
    )
    plain = [
        Request(
            f"p{i}",
            rng.integers(0, vocab, size=int(rng.integers(14, 20))),
            max_new_tokens=10,
            seed=20 + i,
            priority=1,
            arrival_time=i,
        )
        for i in range(4)
    ]
    return [sample, beam, *plain]


def serve(model, config):
    """Serve the workload round by round; returns the scheduler, the
    report and ``free_kv_capacity`` read after every round."""
    scheduler = Scheduler(
        model,
        sampler=temperature_sampler(0.8),
        max_batch_size=4,
        prefill_chunk=4,
        block_size=4,
        **CONFIGS[config],
    )
    for request in workload(model):
        scheduler.submit(request)
    free = []
    while not scheduler.done:
        scheduler.run_round()
        free.append(scheduler.free_kv_capacity)
    return scheduler, scheduler.report(), free


def digest(scheduler, report):
    sequences = sorted(
        (
            str(s.request_id),
            [int(t) for t in s.tokens],
            [[int(v) for v in e] for e in s.evictions],
            [int(n) for n in s.cache_lengths],
            s.finish_reason,
            round(float(s.cum_logprob), 9),
        )
        for s in scheduler.results()
    )
    summary = dataclasses.asdict(report)
    summary.pop("wall_seconds")
    for row in summary["requests"]:
        row.pop("cum_logprob", None)  # digested, rounded, with the sequence
    blob = json.dumps(
        [sequences, [dataclasses.asdict(r) for r in scheduler.trace], summary],
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_family_claims_pinned(model, config):
    scheduler, report, free = serve(model, config)
    pinned = PINNED[config]
    admitted = {row["request_id"]: row["admitted"] for row in report.requests}
    assert admitted == pinned["admitted"]
    assert free == pinned["free"]
    assert digest(scheduler, report) == pinned["digest"]


def test_swap_config_preempts_a_beam_branch(model):
    """The swap run exercises a family branch losing and regaining
    residency: a beam branch is swapped out and back in."""
    scheduler, report, _ = serve(model, "paged_swap")
    swaps = [
        (event.request_id, event.direction)
        for record in scheduler.trace
        for event in record.swaps
    ]
    assert ("b#2", "out") in swaps and ("b#2", "in") in swaps
    assert report.preemptions == 3


ROOT_CLAIM = {
    # A root is admitted against its whole width: with two of four slots
    # (dense) or too few one-way blocks of a fixed 40-block pool (paged,
    # 8 slots) free, the n=3 family waits for p0 to finish, and p2 waits
    # behind it (FIFO).
    "dense": (
        dict(max_batch_size=4),
        [2, 2, 2, 2, 2, 3, 0, 0, 1, 3, 3, 3, 4],
    ),
    "paged_off": (
        dict(max_batch_size=8, paged=True, num_blocks=40, prefix_caching=False),
        [28, 28, 28, 28, 24, 32, 22, 22, 30, 34, 34, 34, 40],
    ),
}


@pytest.mark.parametrize("config", sorted(ROOT_CLAIM))
def test_family_root_claims_its_whole_width(model, config):
    kwargs, pinned_free = ROOT_CLAIM[config]
    rng = np.random.default_rng(12)
    vocab = model.config.vocab_size
    requests = [
        Request(f"p{i}", rng.integers(0, vocab, size=8), max_new_tokens=6 + 3 * i)
        for i in range(2)
    ]
    requests.append(
        Request("f", rng.integers(0, vocab, size=8), max_new_tokens=4, n=3,
                arrival_time=1)
    )
    requests.append(
        Request("p2", rng.integers(0, vocab, size=8), max_new_tokens=4,
                arrival_time=2)
    )
    scheduler = Scheduler(model, block_size=4, **kwargs)
    for request in requests:
        scheduler.submit(request)
    free = []
    while not scheduler.done:
        scheduler.run_round()
        free.append(scheduler.free_kv_capacity)
    admitted = {
        row["request_id"]: row["admitted"] for row in scheduler.report().requests
    }
    assert admitted == {"p0": 0, "p1": 0, "f": 6, "f#1": 6, "f#2": 6, "p2": 9}
    assert free == pinned_free

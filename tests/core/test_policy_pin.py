"""Pin of every eviction decision the scored policies make.

The five scored policies (voting and the four accumulation baselines)
share one slot-aligned score store; any change to how it grows,
compacts, pads, exports or imports must leave every decision
bit-identical.  This test pins a sha256 of:

- ``GenerationEngine.generate``'s tokens, eviction log and cache lengths
  and the float64 bytes of ``perplexity(...).nll_per_token``, for each
  policy on the tiny model at two budgets, shrinking to budget at once
  (``evictions_per_step=None``) and one eviction per step (``1``);
- a shared-prefix workload served by a paged ``Scheduler`` on a fixed
  pool under swap preemption, for ``H2OPolicy`` and ``VotingPolicy``:
  per-request tokens and eviction logs.  Prefix hits import policy
  snapshots and swap-ins restore them, so the export/import path
  decides evictions here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.engine import GenerationEngine
from repro.core.policies import (
    DecayedAccumulationPolicy,
    H2OPolicy,
    ScissorhandsPolicy,
    TOVAPolicy,
    VotingPolicy,
)
from repro.experiments.serving import make_workload
from repro.serve import Scheduler

POLICIES = {
    "voting": lambda n: VotingPolicy(n, reserved_length=4),
    "h2o_rw0": lambda n: H2OPolicy(n, recent_window=0),
    "h2o_rw16": lambda n: H2OPolicy(n, recent_window=16),
    "decayed_h2o": DecayedAccumulationPolicy,
    "scissorhands": ScissorhandsPolicy,
    "tova": TOVAPolicy,
}

BUDGETS = (20, 32)
EVICTIONS_PER_STEP = (None, 1)

PINNED_ENGINE = {
    "voting": "d4705e155d3899390f7dbac6a78f5b5da72369744713ce5d67482a9d9658749d",
    "h2o_rw0": "8b19ff1a81b941a6492b54601224202e62c9beb819a021017a6705c91e799857",
    "h2o_rw16": "93569e8b8f5093969f39bd00801de4c54e90998f15ff9fb1e0732ae9d17faf8e",
    "decayed_h2o": "df5529606a29831b423ea492d64e2ba16294b1aafb88a084ad3f7e1ab24d7849",
    "scissorhands": "62f5843bf853e86390f573d1fc39abb838c3c6e053e87a05d7223211f77fca02",
    "tova": "227e11e525f9e8fc98771e5ca5f8e9ebff84bd90f9e3ebf3a26e06c24e9bc663",
}

PINNED_SERVED = {
    "h2o": "0f6b4d4bfa316fc2fdc376ea89cf03bbd9131ca9197cc41d8f7c8de373887b4f",
    "voting": "7719a5097b05631ea89a72d0243b109cf355a9d0c93e2994713ae232a740d936",
}


def _engine_record(model, policy, budget, evictions_per_step):
    rng = np.random.default_rng(17)
    vocab = model.config.vocab_size
    engine = GenerationEngine(
        model, policy, budget=budget, evictions_per_step=evictions_per_step
    )
    generated = engine.generate(rng.integers(0, vocab, size=48), max_new_tokens=24)
    nll = engine.perplexity(rng.integers(0, vocab, size=80)).nll_per_token
    return [
        [int(t) for t in generated.tokens],
        [[int(v) for v in e] for e in generated.evictions],
        [int(n) for n in generated.cache_lengths],
        hashlib.sha256(np.asarray(nll, dtype=np.float64).tobytes()).hexdigest(),
    ]


def _digest(record):
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_engine_decisions_pinned(tiny_inference, name):
    n_layers = tiny_inference.config.n_layers
    record = [
        _engine_record(
            tiny_inference, POLICIES[name](n_layers), budget, evictions_per_step
        )
        for budget in BUDGETS
        for evictions_per_step in EVICTIONS_PER_STEP
    ]
    assert _digest(record) == PINNED_ENGINE[name]


SERVED_POLICIES = {
    "h2o": lambda n: H2OPolicy(n, recent_window=4),
    "voting": lambda n: VotingPolicy(n, reserved_length=4),
}


def _serve(model, name):
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
        policy_factory=lambda: SERVED_POLICIES[name](n_layers),
        max_batch_size=4,
        paged=True,
        block_size=4,
        num_blocks=64,
        prefill_chunk=8,
        preempt="swap",
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


@pytest.mark.parametrize("name", sorted(SERVED_POLICIES))
def test_served_decisions_pinned(tiny_inference, name):
    scheduler, report = _serve(tiny_inference, name)
    # The workload must reach both snapshot paths it is here to pin.
    assert report.prefix_hits > 0
    assert any(record.swaps for record in scheduler.trace)
    record = sorted(
        (
            str(s.request_id),
            [int(t) for t in s.tokens],
            [[int(v) for v in e] for e in s.evictions],
        )
        for s in scheduler.results()
    )
    assert _digest(record) == PINNED_SERVED[name]

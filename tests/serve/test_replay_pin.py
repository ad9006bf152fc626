"""Pin of what replaying a served trace prices, field for field.

The hardware metrics a serving run reports come from replaying its
``RoundTrace`` through :class:`repro.accel.simulator.AcceleratorSimulator`
— pure float arithmetic over lengths, never over token values.  Any
change to how the simulator or the replay accumulates must leave every
report field bit-identical, so this test serves five small traces and
pins a sha256 of ``dataclasses.asdict`` of every replay report:

- a budgeted dense trace (voting eviction holds caches at budget);
- a paged shared-prefix trace with chunked prefill (prefix hits price
  continuation prefills);
- the overload preset under swap preemption (swap rows);
- a self-draft speculative trace (verify rows, draft-shape pricing);
- a beam-2 family on the paged pool (fork rows).

Each trace is priced by :func:`compare_dataflows` under ``veda_config()``
and ``baseline_config()`` and, at ``tp=2``, by one
:class:`ServingCoSimulator` per dataflow, all at Llama-2 7B shapes.
Between them these price integer-valued per-layer terms (the VEDA
decode mapping at ``tp=1``) and fractional ones (the pinned
``"prefill"`` mapping's decode s'xV, the fixed baseline, ``tp=2``
all-reduce bytes), so both ways the simulator may sum are covered.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.accel.config import baseline_config, veda_config
from repro.accel.scheduler import DATAFLOWS
from repro.config import llama2_7b_shapes
from repro.core.policies.voting import VotingPolicy
from repro.experiments.serving import (
    make_workload,
    overload_pool_blocks,
    spec_draft_7b_shapes,
)
from repro.serve import Request, Scheduler, ServingCoSimulator, compare_dataflows


def _voting(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=2)


def _serve(model, requests, **kwargs):
    scheduler = Scheduler(model, **kwargs)
    for request in requests:
        scheduler.submit(request)
    scheduler.run()
    return scheduler


def budgeted_dense(model, _):
    requests = make_workload(
        n_requests=6, compression_ratio=0.5, vocab=model.config.vocab_size, seed=3
    )
    return _serve(model, requests, policy_factory=_voting(model), max_batch_size=4)


def paged_shared_prefix(model, _):
    requests = make_workload(
        n_requests=6,
        compression_ratio=None,
        shared_prefix=24,
        vocab=model.config.vocab_size,
        seed=4,
    )
    return _serve(
        model,
        requests,
        max_batch_size=4,
        paged=True,
        block_size=4,
        prefill_chunk=8,
    )


def overload_swap(model, _):
    requests = make_workload(
        n_requests=6,
        preset="overload",
        prompt_range=(16, 24),
        compression_ratio=None,
        vocab=model.config.vocab_size,
        seed=5,
    )
    num_blocks = overload_pool_blocks(requests, 4, model.config.n_layers)
    return _serve(
        model,
        requests,
        max_batch_size=6,
        admission="edf",
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefix_caching=False,
        preempt="swap",
    )


def self_draft(model, _):
    # Unbudgeted: a verify window may not straddle an eviction, so a
    # budget held at half the prompt would leave nothing to speculate.
    requests = make_workload(
        n_requests=4, compression_ratio=None, vocab=model.config.vocab_size, seed=6
    )
    return _serve(
        model,
        requests,
        max_batch_size=4,
        draft_model=model,
        spec_k=3,
    )


def beam_family(model, rng):
    vocab = model.config.vocab_size
    requests = [
        Request("b", rng.integers(0, vocab, size=10), max_new_tokens=6, beam_width=2),
        Request("p", rng.integers(0, vocab, size=14), max_new_tokens=5, arrival_time=1),
    ]
    return _serve(model, requests, max_batch_size=4, paged=True, block_size=4)


TRACES = {
    "budgeted_dense": budgeted_dense,
    "paged_shared_prefix": paged_shared_prefix,
    "overload_swap": overload_swap,
    "self_draft": self_draft,
    "beam_family": beam_family,
}

PINNED = {
    "budgeted_dense": {
        "veda": "9cb26d7c6bd3507772585e41de22b5ad21d81d6ac0fcdc98e6ee1bc706d6093f",
        "veda_tp2": "6238592712d285926898deb474ba5443a0d1056665fd38e4fc0af37ac47999fd",
        "baseline": "53e28956ce9def25a516efd1fd304fd0b758b83aab47617cffdf6bd592fef0a7",
    },
    "paged_shared_prefix": {
        "veda": "aa0e8cb10cb35c65cc27cd53749fb163abb4bd649f44b62544463d589e02e2d5",
        "veda_tp2": "78330023047ff01d7eb378d3f9848846f6a1df7c4c1c015820f259a930ea09e1",
        "baseline": "b1b7d4a33d46fc969648dbb014950aa9f2685939a545348e596343cd0aa43c54",
    },
    "overload_swap": {
        "veda": "358454bdc6e58f2cabe5c520bf44e5138c607518be0f8c1bc6c8bf56ba365413",
        "veda_tp2": "a985fbbb7d5af5ce51ac6c9f79b84c680c16f8f56f4a80f8929cecc44c08702b",
        "baseline": "19fdde3f073b57c3f28c048949c82a4ec409331b16269d4e3009b2d4f54a34db",
    },
    "self_draft": {
        "veda": "936247fc40a8a1edf42db871291a64d3a942b40903519facf15b6e8b712bfcee",
        "veda_tp2": "11a3aa782c736ebfc4137379b4e1343f6805dce763a39e397fee0267b910a7e0",
        "baseline": "b00e89652d6166c62be4c5802a1a15f5b59a080a1a762e7120b6fc28b0308210",
    },
    "beam_family": {
        "veda": "adb5f10a6ad42691fabce8192a9aa94d4c1fc03b2be6989749b95e7d36dedf35",
        "veda_tp2": "c881e031455fb380f4f10d24a71197aebcaa625efe21ea028000907bee17cd23",
        "baseline": "f6f95f2605c2713245cf3f618fb2c4335878f04e4da0195dd855ade721fc51d3",
    },
}


def _reports(scheduler, pricing):
    shapes = dict(
        scheduler=scheduler,
        hw_model=llama2_7b_shapes(),
        hw_draft_model=(
            spec_draft_7b_shapes() if scheduler.draft_model is not None else None
        ),
    )
    if pricing == "veda":
        return compare_dataflows(hw=veda_config(), **shapes)
    if pricing == "baseline":
        return compare_dataflows(hw=baseline_config(), **shapes)
    return {
        dataflow: ServingCoSimulator(dataflow=dataflow, tp=2, **shapes).replay()
        for dataflow in DATAFLOWS
    }


def _digest(reports):
    blob = json.dumps(
        {name: dataclasses.asdict(report) for name, report in reports.items()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def served(model):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = TRACES[name](model, np.random.default_rng(9))
        return cache[name]

    return get


@pytest.mark.parametrize("trace", sorted(TRACES))
def test_replay_reports_pinned(served, trace):
    scheduler = served(trace)
    digests = {
        pricing: _digest(_reports(scheduler, pricing))
        for pricing in PINNED[trace]
    }
    assert digests == PINNED[trace]


def test_traces_exercise_every_event_kind(served):
    """Each trace carries the event kind it stands for in this pin."""
    kinds = {
        name: {
            "swaps": any(r.swaps for r in served(name).trace),
            "forks": any(r.forks for r in served(name).trace),
            "verifies": any(
                e.proposed for r in served(name).trace for e in r.decodes
            ),
            "prefix": any(
                e.prefix_length for r in served(name).trace for e in r.prefills
            ),
            "budgeted": any(
                e.budgeted for r in served(name).trace for e in r.decodes
            ),
        }
        for name in TRACES
    }
    assert kinds["overload_swap"]["swaps"]
    assert kinds["beam_family"]["forks"]
    assert kinds["self_draft"]["verifies"]
    assert kinds["paged_shared_prefix"]["prefix"]
    assert kinds["budgeted_dense"]["budgeted"]

"""FIFO admission is one path: the scheduler's default, the name
``"fifo"`` and an explicit :class:`FIFOAdmission` instance serve every
workload identically — the same tokens, the same round trace and the
same report counters.

The matrix covers the admission path's branches: the overload burst
against an undersized paged pool under swap and recompute preemption,
whole-prompt and chunked, at three seeds (admission order decides the
victims there); a paged run whose requests share a prompt prefix
(admission order decides which request registers the blocks the others
adopt); and a dense run.
"""

import dataclasses

import pytest

from repro.core.policies.voting import VotingPolicy
from repro.experiments import serving
from repro.serve import FIFOAdmission, Scheduler


def voting(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)


def overload_run(model, preempt, chunk, seed):
    workload = serving.make_workload(
        n_requests=6,
        preset="overload",
        compression_ratio=None,
        vocab=model.config.vocab_size,
        seed=seed,
    )
    num_blocks = serving.overload_pool_blocks(
        workload, block_size=4, n_layers=model.config.n_layers, fraction=0.4
    )
    kwargs = dict(
        policy_factory=voting(model),
        max_batch_size=8,
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefix_caching=False,
        preempt=preempt,
        prefill_chunk=chunk,
    )
    return kwargs, workload


def shared_prefix_workload(model):
    return serving.make_workload(
        n_requests=6,
        shared_prefix=16,
        vocab=model.config.vocab_size,
        seed=2,
    )


def run_config(model, name):
    """``(scheduler kwargs, requests)`` of one run of the matrix."""
    if name == "prefix_paged":
        kwargs = dict(
            policy_factory=voting(model), max_batch_size=3, paged=True, block_size=4
        )
        return kwargs, shared_prefix_workload(model)
    if name == "dense":
        kwargs = dict(policy_factory=voting(model), max_batch_size=3)
        requests = [
            dataclasses.replace(request, budget=24)
            for request in shared_prefix_workload(model)
        ]
        return kwargs, requests
    _, preempt, layout, seed = name.split("_")
    chunk = 8 if layout == "chunked" else None
    return overload_run(model, preempt, chunk, int(seed.removeprefix("seed")))


OVERLOAD_RUNS = [
    f"overload_{preempt}_{layout}_seed{seed}"
    for preempt in ("swap", "recompute")
    for layout in ("whole", "chunked")
    for seed in range(3)
]
RUNS = OVERLOAD_RUNS + ["prefix_paged", "dense"]


def serve(model, name, **admission):
    kwargs, requests = run_config(model, name)
    scheduler = Scheduler(model, **kwargs, **admission)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    assert scheduler.done
    tokens = {r.request_id: scheduler.tokens_for(r.request_id) for r in requests}
    counters = dataclasses.asdict(report)
    counters.pop("wall_seconds")
    return tokens, scheduler.trace, counters


@pytest.fixture(scope="module", params=RUNS)
def default_run(request, model):
    return request.param, serve(model, request.param)


class TestFIFOIsOnePath:
    def test_explicit_instance_matches_default(self, model, default_run):
        name, (tokens, trace, counters) = default_run
        other_tokens, other_trace, other_counters = serve(
            model, name, admission=FIFOAdmission()
        )
        assert other_tokens == tokens
        assert other_trace == trace
        assert other_counters == counters

    def test_name_matches_default(self, model, default_run):
        name, (tokens, trace, counters) = default_run
        other_tokens, other_trace, other_counters = serve(
            model, name, admission="fifo"
        )
        assert other_tokens == tokens
        assert other_trace == trace
        assert other_counters == counters

    def test_default_is_a_fifo_policy(self, model):
        assert isinstance(Scheduler(model).admission, FIFOAdmission)

    def test_overload_matrix_preempts(self, model):
        """The overload runs exist to put admission order under
        pressure: each preemption mode must actually preempt."""
        for preempt in ("swap", "recompute"):
            fired = sum(
                serve(model, name)[2]["preemptions"]
                for name in OVERLOAD_RUNS
                if f"_{preempt}_" in name
            )
            assert fired > 0, preempt

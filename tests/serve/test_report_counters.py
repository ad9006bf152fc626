"""Every serving event is counted once: the report's event counters equal
what the round trace, the prefix trie and the sequence states record.

The scheduler writes each decode window, swap transfer and fork to its
round trace (:mod:`repro.serve.trace`), each prefix hit to the radix
trie's ``tokens_hit``, and each preemption to the victim's
``SequenceState.preemptions``.  The :class:`ServingReport` counters must
agree with those records exactly — on every serving mode below, and on a
report taken mid-run — and the event tallies the co-simulator's replay
computes from the same trace must agree as well.
"""

import dataclasses

import numpy as np
import pytest

from repro.accel.config import veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.core.policies.voting import VotingPolicy
from repro.core.sampling import temperature_sampler
from repro.experiments import serving
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler, ServingCoSimulator
from repro.serve.trace import SWAP_IN, SWAP_OUT


def derived_counters(scheduler):
    """The report's event counters recomputed from the trace, the trie
    and the sequence states."""
    trace = scheduler.trace
    verifies = [
        event for record in trace for event in record.decodes if event.proposed
    ]
    swaps = [event for record in trace for event in record.swaps]
    forks = [event for record in trace for event in record.forks]
    swap_outs = [event for event in swaps if event.direction == SWAP_OUT]
    swap_ins = [event for event in swaps if event.direction == SWAP_IN]
    states = scheduler._finished + scheduler._running + scheduler._waiting
    preemptions = sum(state.preemptions for state in states)
    modeled = scheduler.preempt == "model"
    prefix = scheduler.manager.prefix_cache
    return {
        "busy_rounds": len(trace),
        "verify_passes": len(verifies),
        "spec_proposed": sum(event.proposed for event in verifies),
        "spec_accepted": sum(event.accepted for event in verifies),
        "spec_tokens": sum(event.tokens for event in verifies),
        "swap_outs": len(swap_outs),
        "swap_ins": len(swap_ins),
        "swap_out_blocks": sum(event.blocks for event in swap_outs),
        "swap_in_blocks": sum(event.blocks for event in swap_ins),
        "forks": len(forks),
        "fork_shared_blocks": sum(event.blocks for event in forks),
        "fork_copied_slots": sum(event.copied_slots for event in forks),
        "joins": sum(
            1 for s in scheduler._finished if s.finish_reason == "beam_pruned"
        ),
        "preemptions": preemptions,
        "model_swaps": len(swap_outs) if modeled else 0,
        "model_recomputes": preemptions - len(swap_outs) if modeled else 0,
        "prefix_tokens_hit": prefix.tokens_hit if prefix is not None else 0,
    }


def derived_spec_columns(scheduler):
    """``request_id -> (spec_rounds, spec_proposed, spec_accepted)`` from
    the trace's decode windows that carried proposals."""
    columns = {}
    for record in scheduler.trace:
        for event in record.decodes:
            if not event.proposed:
                continue
            rounds, proposed, accepted = columns.get(event.request_id, (0, 0, 0))
            columns[event.request_id] = (
                rounds + 1,
                proposed + event.proposed,
                accepted + event.accepted,
            )
    return columns


def assert_counted_once(scheduler, report):
    expected = derived_counters(scheduler)
    actual = {name: getattr(report, name) for name in expected}
    assert actual == expected
    if report.paged:
        assert report.summary()["prefill_saved"] == expected["prefix_tokens_hit"]
    if scheduler.draft_model is not None:
        columns = derived_spec_columns(scheduler)
        for row in report.requests:
            rounds, proposed, accepted = columns.get(row["request_id"], (0, 0, 0))
            assert (
                row["spec_rounds"],
                row["spec_proposed"],
                row["spec_accepted"],
            ) == (rounds, proposed, accepted)
            assert row["accept_rate"] == (accepted / proposed if proposed else 0.0)


def voting(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)


def shared_prefix_workload(model):
    return serving.make_workload(
        n_requests=6,
        shared_prefix=16,
        vocab=model.config.vocab_size,
        seed=2,
    )


def plain_requests(model, count=3, **fields):
    rng = np.random.default_rng(4)
    return [
        Request(
            f"r{i}",
            rng.integers(0, model.config.vocab_size, size=int(rng.integers(10, 20))),
            max_new_tokens=6,
            arrival_time=i,
            seed=10 * (i + 1),
            **fields,
        )
        for i in range(count)
    ]


def noisy_draft(config):
    """The target's weights (seed 0) plus a little noise: a draft whose
    proposals the target accepts only sometimes."""
    module = TransformerLM(config, seed=0)
    rng = np.random.default_rng(0)
    for parameter in module.parameters():
        parameter.data = parameter.data + 0.02 * rng.standard_normal(
            parameter.data.shape
        )
    return CachedTransformer.from_module(module)


def overload_workload(model, seed, **knobs):
    workload = serving.make_workload(
        n_requests=6,
        preset="overload",
        compression_ratio=None,
        vocab=model.config.vocab_size,
        seed=seed,
        **knobs,
    )
    num_blocks = serving.overload_pool_blocks(
        workload, block_size=4, n_layers=model.config.n_layers, fraction=0.4
    )
    return workload, num_blocks


def overload_run(model, preempt):
    if preempt == "model":
        # A host link slow enough that the cost model sends some victims
        # to recompute and others to swap.
        workload, num_blocks = overload_workload(model, 0, prompt_range=(16, 24))
        extra = dict(
            prefill_chunk=8,
            max_batch_size=4,
            cost_model=AcceleratorSimulator(
                veda_config(host_link_gb_s=3e-3), llama2_7b_shapes()
            ),
        )
    else:
        workload, num_blocks = overload_workload(model, 0)
        extra = dict(max_batch_size=8)
    kwargs = dict(
        policy_factory=voting(model),
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefix_caching=False,
        preempt=preempt,
        **extra,
    )
    return kwargs, workload


def run_config(model, name):
    """``(scheduler kwargs, requests)`` of one run of the matrix."""
    paged = name.endswith("paged")
    layout = dict(paged=paged, block_size=4)
    if name.startswith("prefix_chunked"):
        kwargs = dict(policy_factory=voting(model), prefill_chunk=8, **layout)
        return kwargs, shared_prefix_workload(model)
    if name.startswith("spec"):
        draft = noisy_draft(model.config) if "noisy" in name else model
        kwargs = dict(
            policy_factory=voting(model),
            max_batch_size=2,
            draft_model=draft,
            spec_k=3,
            **layout,
        )
        return kwargs, plain_requests(model)
    if name.startswith("sample"):
        kwargs = dict(
            policy_factory=voting(model),
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
            **layout,
        )
        return kwargs, plain_requests(model, count=2, n=3, budget=12)
    if name.startswith("beam"):
        kwargs = dict(max_batch_size=8, **layout)
        return kwargs, plain_requests(model, count=2, beam_width=3)
    return overload_run(model, name.removeprefix("overload_"))


RUNS = [
    "prefix_chunked_dense",
    "prefix_chunked_paged",
    "spec_dense",
    "spec_paged",
    "spec_noisy_paged",
    "sample_dense",
    "sample_paged",
    "beam_dense",
    "beam_paged",
    "overload_recompute",
    "overload_swap",
    "overload_model",
]

#: The event each run exists to exercise; a run that never produces it
#: would check nothing.
EXERCISED = {
    "prefix_chunked_paged": ("prefix_tokens_hit",),
    "spec": ("verify_passes", "spec_accepted"),
    "spec_noisy": ("spec_accepted", "spec_rejected"),
    "sample": ("forks",),
    "beam": ("joins",),
    "overload": ("preemptions",),
    "overload_swap": ("swap_outs",),
    "overload_model": ("model_swaps", "model_recomputes"),
}


@pytest.fixture(scope="module", params=RUNS)
def served(request, model):
    kwargs, requests = run_config(model, request.param)
    scheduler = Scheduler(model, **kwargs)
    for r in requests:
        scheduler.submit(r)
    report = scheduler.run()
    assert scheduler.done
    return request.param, scheduler, report


class TestReportCountsEachEventOnce:
    def test_counters_equal_their_records(self, served):
        name, scheduler, report = served
        assert_counted_once(scheduler, report)
        counts = dict(
            vars(report), spec_rejected=report.spec_proposed - report.spec_accepted
        )
        for prefix, counters in EXERCISED.items():
            if name.startswith(prefix):
                for counter in counters:
                    assert counts[counter] > 0, f"{name}: no {counter}"

    def test_counters_agree_with_the_replay(self, served):
        _, scheduler, report = served
        hw = ServingCoSimulator(scheduler).replay()
        assert hw.verify_passes == report.verify_passes
        assert hw.spec_proposed == report.spec_proposed
        assert hw.spec_accepted == report.spec_accepted
        assert hw.spec_tokens == report.spec_tokens
        assert hw.tokens_per_target_pass == report.tokens_per_target_pass
        assert hw.fork_events == report.forks
        assert hw.swap_events == report.swap_outs + report.swap_ins


class TestMidRunReport:
    """A report taken between rounds counts the events so far, including
    those of sequences still waiting or running."""

    @pytest.mark.parametrize(
        "name,counter",
        [
            ("overload_swap", "swap_outs"),
            ("overload_model", "preemptions"),
            ("spec_paged", "verify_passes"),
            ("beam_paged", "joins"),
        ],
    )
    def test_counters_equal_their_records_mid_run(self, model, name, counter):
        kwargs, requests = run_config(model, name)
        scheduler = Scheduler(model, **kwargs)
        for r in requests:
            scheduler.submit(r)
        # Stop at the first round boundary after the run's event fired.
        while not getattr(scheduler.report(), counter):
            scheduler.run_round()
        assert not scheduler.done
        assert_counted_once(scheduler, scheduler.report())
        scheduler.run()
        assert_counted_once(scheduler, scheduler.report())


def test_tokens_per_pass_agree_on_a_mixed_trace(model):
    """Budgeted requests fall back to plain rows beside the unbudgeted
    ones' verify windows; both reports' ``tokens/pass`` count tokens per
    verify pass, never per plain row."""
    requests = [
        dataclasses.replace(request, budget=12) if i % 2 else request
        for i, request in enumerate(
            serving.make_workload(
                n_requests=6,
                compression_ratio=None,
                vocab=model.config.vocab_size,
                seed=3,
            )
        )
    ]
    scheduler = Scheduler(model, max_batch_size=4, draft_model=model, spec_k=3)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    hw = ServingCoSimulator(scheduler).replay()
    assert report.verify_passes and hw.decode_steps
    assert report.tokens_per_target_pass == report.spec_tokens / report.verify_passes
    assert hw.tokens_per_target_pass == report.tokens_per_target_pass
    assert hw.summary()["tokens/pass"] == report.summary()["tokens/pass"]

"""Serving co-simulation: solo equivalence, monotonicity, dataflow wins."""

import numpy as np
import pytest

from repro.accel.config import veda_config
from repro.config import llama2_7b_shapes
from repro.core.engine import GenerationEngine
from repro.core.policies.voting import VotingPolicy
from repro.cosim import CoSimulator
from repro.serve import (
    Request,
    Scheduler,
    ServingCoSimulator,
    compare_dataflows,
)


def make_requests(rng, n=3, budget=10, prompt_range=(12, 30), max_new_range=(5, 9)):
    requests = []
    for i in range(n):
        prompt_len = int(rng.integers(*prompt_range))
        requests.append(
            Request(
                request_id=f"r{i}",
                prompt=rng.integers(0, 64, size=prompt_len),
                max_new_tokens=int(rng.integers(*max_new_range)),
                seed=i,
                budget=budget,
            )
        )
    return requests


def serve(model, requests, max_batch_size, paged=False):
    scheduler = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=2
        ),
        max_batch_size=max_batch_size,
        paged=paged,
        block_size=4,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


class TestBatchOneEquivalence:
    """At batch cap 1 the serving cosim is the solo cosim, cycle for cycle."""

    def test_matches_solo_cosimulator_exactly(self, tiny_inference, rng):
        requests = make_requests(rng)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=1)
        hw_report = ServingCoSimulator(scheduler).replay()

        solo_decode_total = 0.0
        for request in requests:
            engine = GenerationEngine(
                tiny_inference,
                VotingPolicy(tiny_inference.config.n_layers, reserved_length=2),
                budget=request.budget,
            )
            solo = CoSimulator(engine).run(
                request.prompt, request.max_new_tokens, seed=request.seed
            )
            # Same tokens, and the exact same per-step attention cycles.
            assert solo.tokens == scheduler.tokens_for(request.request_id)
            assert (
                hw_report.per_request_attention[request.request_id]
                == solo.attention_cycles_per_step
            )
            solo_decode_total += solo.total_decode_cycles
        assert hw_report.decode_cycles == solo_decode_total

    def test_matches_solo_on_7b_shapes(self, tiny_inference, rng):
        """hw_model substitution preserves the equivalence."""
        requests = make_requests(rng, n=2)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=1)
        hw_report = ServingCoSimulator(
            scheduler, hw_model=llama2_7b_shapes()
        ).replay()
        total = 0.0
        for request in requests:
            engine = GenerationEngine(
                tiny_inference,
                VotingPolicy(tiny_inference.config.n_layers, reserved_length=2),
                budget=request.budget,
            )
            solo = CoSimulator(engine, hw_model=llama2_7b_shapes()).run(
                request.prompt, request.max_new_tokens, seed=request.seed
            )
            assert (
                hw_report.per_request_attention[request.request_id]
                == solo.attention_cycles_per_step
            )
            total += solo.total_decode_cycles
        assert hw_report.decode_cycles == total

    def test_dead_steps_account_for_the_engine_gap(self, tiny_inference, rng):
        """Each length-capped request's dead step — the one decode step
        the scheduler skips but the engine spends — is priced."""
        requests = make_requests(rng)
        scheduler, report = serve(tiny_inference, requests, max_batch_size=1)
        with_dead = ServingCoSimulator(scheduler).replay()
        length_finished = sum(
            1 for s in scheduler.results() if s.finish_reason == "length"
        )
        assert length_finished > 0
        assert with_dead.dead_steps == length_finished
        # Dead steps never count as produced tokens.
        assert with_dead.total_tokens == report.total_tokens

    def test_paged_trace_prices_identically_to_dense(self, tiny_inference, rng):
        """Without prefix hits, paging changes where floats live, not the
        cache-length trajectory, so the priced cycles are identical."""
        requests = make_requests(rng)
        dense_sched, _ = serve(tiny_inference, requests, max_batch_size=2)
        paged_sched, _ = serve(
            tiny_inference, requests, max_batch_size=2, paged=True
        )
        dense = ServingCoSimulator(dense_sched).replay()
        paged = ServingCoSimulator(paged_sched).replay()
        assert paged.total_cycles == dense.total_cycles
        assert paged.per_request_attention == dense.per_request_attention


class TestBudgetMonotonicity:
    """More aggressive KV budgets never increase mean decode-attention
    cycles at batch > 1 (the serving analogue of the solo cosim's
    eviction-reduces-cycles property)."""

    def test_mean_decode_attention_monotone_in_budget(self, tiny_inference, rng):
        prompts = [rng.integers(0, 64, size=int(rng.integers(16, 40))) for _ in range(5)]
        means = []
        steps = []
        for budget in (None, 14, 8):
            requests = [
                Request(f"r{i}", prompt, max_new_tokens=8, seed=i, budget=budget)
                for i, prompt in enumerate(prompts)
            ]
            scheduler, _ = serve(tiny_inference, requests, max_batch_size=4)
            report = ServingCoSimulator(scheduler).replay()
            per_step = report.decode_attention_per_step
            assert per_step
            means.append(sum(per_step) / len(per_step))
            steps.append(report.decode_steps + report.dead_steps)
        # Same trace structure (greedy, no EOS): identical step counts.
        assert steps[0] == steps[1] == steps[2]
        assert means[0] >= means[1] >= means[2]
        assert means[0] > means[2]


class TestDataflowSelection:
    def test_flexible_beats_both_fixed_on_mixed_trace(self, tiny_inference, rng):
        """The acceptance inequality on a real serving trace, priced on
        the paper's 7B shapes: auto <= both pinned mappings, strictly
        cheaper than either."""
        requests = make_requests(rng, n=4)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=3)
        reports = compare_dataflows(scheduler, hw_model=llama2_7b_shapes())
        auto = reports["auto"].total_cycles
        assert auto < reports["prefill"].total_cycles
        assert auto < reports["decode"].total_cycles

    def test_pinned_penalties_land_on_their_phase(self, tiny_inference, rng):
        requests = make_requests(rng, n=3)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=3)
        reports = compare_dataflows(scheduler, hw_model=llama2_7b_shapes())
        # Pinning to the tiled mapping leaves prefill untouched but
        # slows decode; pinning to streaming does the reverse.
        assert (
            reports["prefill"].prefill_cycles == reports["auto"].prefill_cycles
        )
        assert reports["prefill"].decode_cycles > reports["auto"].decode_cycles
        assert reports["decode"].decode_cycles == reports["auto"].decode_cycles
        assert reports["decode"].prefill_cycles > reports["auto"].prefill_cycles

    def test_shared_cache_passes_equal_cold_replays(self, tiny_inference, rng):
        """Every pass shares one warm pricing cache; each report still
        equals a cold single-dataflow replay in every field."""
        requests = make_requests(rng, n=4)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=3)
        shapes = llama2_7b_shapes()
        reports = compare_dataflows(scheduler, hw_model=shapes)
        for dataflow, report in reports.items():
            cold = ServingCoSimulator(
                scheduler, hw_model=shapes, dataflow=dataflow
            ).replay()
            assert report == cold

    def test_fixed_hardware_comparison_degrades_gracefully(
        self, tiny_inference, rng
    ):
        """A fixed-dataflow array cannot express the streaming mapping:
        the comparison drops it instead of raising mid-loop, and both
        remaining selections price the baseline's tiled configuration."""
        from repro.accel.config import baseline_config

        requests = make_requests(rng, n=2)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=2)
        reports = compare_dataflows(scheduler, hw=baseline_config())
        assert set(reports) == {"auto", "prefill"}
        assert (
            reports["auto"].total_cycles == reports["prefill"].total_cycles
        )

    def test_invalid_dataflow_rejected(self, tiny_inference, rng):
        requests = make_requests(rng, n=1)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=1)
        with pytest.raises(ValueError):
            ServingCoSimulator(scheduler, dataflow="gemm")


class TestTraceAccounting:
    def test_tokens_match_serving_report(self, tiny_inference, rng):
        requests = make_requests(rng, n=4)
        scheduler, report = serve(tiny_inference, requests, max_batch_size=3)
        hw_report = ServingCoSimulator(scheduler).replay()
        assert hw_report.total_tokens == report.total_tokens
        # One token per prefill, one per real decode step.
        assert hw_report.total_tokens == len(requests) + hw_report.decode_steps

    def test_prefix_hits_reduce_priced_prefill_rows(self, tiny_inference, rng):
        prefix = rng.integers(0, 64, size=16)
        requests = [
            Request(
                f"r{i}",
                np.concatenate([prefix, rng.integers(0, 64, size=12)]),
                max_new_tokens=5,
                seed=i,
                budget=12,
            )
            for i in range(3)
        ]
        dense_sched, _ = serve(tiny_inference, requests, max_batch_size=2)
        paged_sched, paged_report = serve(
            tiny_inference, requests, max_batch_size=2, paged=True
        )
        assert paged_report.prefix_tokens_hit > 0
        dense = ServingCoSimulator(dense_sched).replay()
        paged = ServingCoSimulator(paged_sched).replay()
        assert (
            dense.prefill_tokens - paged.prefill_tokens
            == paged_report.prefix_tokens_hit
        )
        assert paged.prefill_cycles < dense.prefill_cycles
        # Decode work is untouched by prefix sharing.
        assert paged.decode_cycles == dense.decode_cycles

    def test_replay_requires_a_trace_source(self):
        with pytest.raises(ValueError):
            ServingCoSimulator(hw=veda_config())

    def test_utilization_and_throughput_derived_metrics(self, tiny_inference, rng):
        requests = make_requests(rng, n=2)
        scheduler, _ = serve(tiny_inference, requests, max_batch_size=2)
        report = ServingCoSimulator(scheduler).replay()
        assert 0.0 < report.utilization <= 1.0
        assert report.tokens_per_second > 0.0
        assert report.wall_seconds > 0.0
        summary = report.summary()
        assert summary["tokens"] == report.total_tokens
        assert summary["dataflow"] == "auto"

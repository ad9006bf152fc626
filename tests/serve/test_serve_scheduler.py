"""Continuous-batching scheduler: solo equivalence + scheduling behaviour.

The load-bearing test is :class:`TestSoloEquivalence`: a request served
inside a concurrent batch must generate exactly the tokens it would
generate alone through ``GenerationEngine.generate`` (same weights, same
seed, greedy sampling).  That is the contract that lets the serving path
replace the one-at-a-time engine without changing any result.
"""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.engine import GenerationEngine, budget_from_ratio
from repro.core.policies import VotingPolicy
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import FINISHED, Request, Scheduler


@pytest.fixture(scope="module")
def model():
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))


def make_requests(model, count, seed=3, arrival=lambda i: 0):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        prompt_len = int(rng.integers(12, 40))
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=rng.integers(0, model.config.vocab_size, size=prompt_len),
                max_new_tokens=int(rng.integers(6, 14)),
                arrival_time=arrival(i),
                seed=i,
                budget=budget_from_ratio(0.5, prompt_len, minimum=8),
            )
        )
    return requests


def policy_factory_for(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)


class TestSoloEquivalence:
    def test_concurrent_batch_matches_solo_engine(self, model):
        """≥4 concurrent requests under VotingPolicy eviction generate,
        per sequence, exactly the solo-engine tokens."""
        requests = make_requests(model, 6)
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=6
        )
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        assert report.peak_concurrency >= 4

        for request in requests:
            engine = GenerationEngine(
                model,
                policy_factory_for(model)(),
                budget=request.budget,
            )
            solo = engine.generate(
                request.prompt, request.max_new_tokens, seed=request.seed
            )
            assert scheduler.tokens_for(request.request_id) == solo.tokens

    def test_equivalence_with_staggered_arrivals(self, model):
        """Batch composition changes round to round; tokens must not."""
        requests = make_requests(model, 5, seed=11, arrival=lambda i: 3 * i)
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=3
        )
        for request in requests:
            scheduler.submit(request)
        scheduler.run()

        for request in requests:
            engine = GenerationEngine(
                model, policy_factory_for(model)(), budget=request.budget
            )
            solo = engine.generate(
                request.prompt, request.max_new_tokens, seed=request.seed
            )
            assert scheduler.tokens_for(request.request_id) == solo.tokens

    def test_eos_retires_like_solo(self, model):
        """EOS stops a batched sequence exactly where it stops solo."""
        requests = make_requests(model, 4, seed=5)
        eos = 7  # tiny vocab: greedy will plausibly hit it
        for request in requests:
            request.eos = eos
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=4
        )
        for request in requests:
            scheduler.submit(request)
        scheduler.run()

        for request in requests:
            engine = GenerationEngine(
                model, policy_factory_for(model)(), budget=request.budget
            )
            solo = engine.generate(
                request.prompt, request.max_new_tokens,
                seed=request.seed, eos=eos,
            )
            assert scheduler.tokens_for(request.request_id) == solo.tokens


class TestScheduling:
    def test_batch_cap_respected(self, model):
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=2
        )
        for request in make_requests(model, 5):
            scheduler.submit(request)
        while not scheduler.done:
            scheduler.run_round()
            assert scheduler.num_running <= 2
        assert len(scheduler.results()) == 5

    def test_retirement_frees_slot_for_queued_request(self, model):
        """Iteration-level scheduling: a queued request is admitted the
        round a running one retires, not when the whole batch drains."""
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=2
        )
        requests = make_requests(model, 3)
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        rows = {row["request_id"]: row for row in report.requests}
        finish_rounds = sorted(row["finished"] for row in rows.values())
        late = rows["req-2"]
        # The third request waited for a slot, then was admitted right
        # when the earliest finisher retired.
        assert late["admitted"] >= finish_rounds[0]
        assert late["admitted"] <= finish_rounds[0] + 1

    def test_idle_gap_fast_forwards(self, model):
        """A lone far-future arrival doesn't burn empty rounds under
        ``run``; a bare ``run_round`` (the engine's step, which owns its
        clock) never skips and advances exactly one round."""
        def scheduler_with_late_arrival():
            scheduler = Scheduler(
                model, policy_factory=policy_factory_for(model), max_batch_size=2
            )
            scheduler.submit(make_requests(model, 1, arrival=lambda i: 50)[0])
            return scheduler

        scheduler = scheduler_with_late_arrival()
        report = scheduler.run()
        row = report.requests[0]
        assert row["admitted"] == 50
        assert row["wait_rounds"] == 0

        stepped = scheduler_with_late_arrival()
        stepped.run_round()
        assert stepped.round_index == 1
        assert stepped.num_waiting == 1 and not stepped.trace

        bounded = scheduler_with_late_arrival()
        bounded.run(max_rounds=1)
        assert bounded.round_index == 51
        assert bounded.num_running == 1
        assert [record.round_index for record in bounded.trace] == [50]

    def test_duplicate_request_id_rejected(self, model):
        scheduler = Scheduler(model, max_batch_size=2)
        request = make_requests(model, 1)[0]
        scheduler.submit(request)
        with pytest.raises(KeyError):
            scheduler.submit(
                Request(
                    request_id=request.request_id,
                    prompt=np.array([1, 2, 3]),
                    max_new_tokens=2,
                )
            )

    def test_report_accounting(self, model):
        requests = make_requests(model, 4)
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=4
        )
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()
        assert len(report.requests) == 4
        assert report.total_tokens == sum(
            row["tokens"] for row in report.requests
        )
        assert report.total_tokens == sum(
            len(scheduler.tokens_for(r.request_id)) for r in requests
        )
        assert 0 < report.tokens_per_round <= 4
        assert report.peak_concurrency == 4
        summary = report.summary()
        assert summary["requests"] == 4
        assert summary["tokens"] == report.total_tokens

    def test_finished_state_releases_heavy_references(self, model):
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=2
        )
        scheduler.submit(make_requests(model, 1)[0])
        scheduler.run()
        (state,) = scheduler.results()
        assert state.status == FINISHED
        assert state.cache is None and state.policy is None
        assert scheduler.manager.slots_used == 0

    def test_finished_request_id_stays_reserved(self, model):
        scheduler = Scheduler(
            model, policy_factory=policy_factory_for(model), max_batch_size=2
        )
        request = make_requests(model, 1)[0]
        scheduler.submit(request)
        scheduler.run()
        with pytest.raises(KeyError):
            scheduler.submit(
                Request(
                    request_id=request.request_id,
                    prompt=np.array([1, 2, 3]),
                    max_new_tokens=2,
                )
            )

"""Equivalence suite: paged serving is bit-identical to dense serving.

The contract the paged allocator must honor: for every request in a
trace, the generated token stream is *bitwise identical* whether its KV
state lives in a dense per-sequence slab or in pool blocks — across
block sizes (including the degenerate block_size=1), with voting
eviction enabled, and whether or not the prompt scores a prefix-cache
hit.  Eviction counts and cache-length traces must match too, since the
voting state is part of the contract.
"""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.engine import GenerationEngine, budget_from_ratio
from repro.core.policies import H2OPolicy, VotingPolicy
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler

BLOCK_SIZES = (1, 4, 16)


@pytest.fixture(scope="module")
def model():
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))


def policy_factory_for(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)


def make_requests(model, count, seed=3, arrival=lambda i: 0, shared_prefix=0):
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, model.config.vocab_size, size=shared_prefix)
    requests = []
    for i in range(count):
        unique = rng.integers(
            0, model.config.vocab_size, size=int(rng.integers(6, 24))
        )
        prompt = np.concatenate([prefix, unique])
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=prompt,
                max_new_tokens=int(rng.integers(6, 14)),
                arrival_time=arrival(i),
                seed=i,
                budget=budget_from_ratio(0.5, prompt.shape[0], minimum=8),
            )
        )
    return requests


def serve(model, requests, **scheduler_kwargs):
    scheduler = Scheduler(
        model,
        policy_factory=scheduler_kwargs.pop(
            "policy_factory", policy_factory_for(model)
        ),
        max_batch_size=scheduler_kwargs.pop("max_batch_size", 4),
        **scheduler_kwargs,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


class TestPagedVsDense:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_bit_identical_tokens_with_eviction(self, model, block_size):
        """Every request decodes to the same tokens dense vs paged."""
        requests = make_requests(model, 6)
        dense, _ = serve(model, requests)
        paged, _ = serve(model, requests, paged=True, block_size=block_size)
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_eviction_traces_match(self, model, block_size):
        """Same victims at the same steps: the policy sees identical state."""
        requests = make_requests(model, 4, seed=9)
        dense, _ = serve(model, requests)
        paged, _ = serve(model, requests, paged=True, block_size=block_size)
        for state_d, state_p in zip(dense.results(), paged.results()):
            assert state_d.request_id == state_p.request_id
            assert state_d.evictions == state_p.evictions
            assert state_d.cache_lengths == state_p.cache_lengths

    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_matches_solo_engine(self, model, block_size):
        """Transitively: paged batched serving == the solo engine."""
        requests = make_requests(model, 4, seed=5, arrival=lambda i: 2 * i)
        paged, _ = serve(model, requests, paged=True, block_size=block_size)
        for request in requests:
            engine = GenerationEngine(
                model, policy_factory_for(model)(), budget=request.budget
            )
            solo = engine.generate(
                request.prompt, request.max_new_tokens, seed=request.seed
            )
            assert paged.tokens_for(request.request_id) == solo.tokens


class TestPrefixHitsPreserveOutputs:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    def test_hits_do_not_change_tokens(self, model, block_size):
        """Shared-prefix requests: the later (hit) requests decode the
        same tokens as under dense serving — the import-snapshot path is
        exact, not approximate."""
        # Prefix spans at least one full block at every tested size.
        requests = make_requests(
            model, 6, seed=21, arrival=lambda i: 3 * i, shared_prefix=16
        )
        dense, _ = serve(model, requests)
        paged, report = serve(
            model, requests, paged=True, block_size=block_size
        )
        assert report.prefix_hits > 0
        assert report.prefix_tokens_hit > 0
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )

    def test_prefix_caching_off_still_equivalent(self, model):
        requests = make_requests(model, 4, seed=2, shared_prefix=12)
        dense, _ = serve(model, requests)
        paged, report = serve(
            model, requests, paged=True, block_size=4, prefix_caching=False
        )
        assert report.prefix_hits == 0
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )

    def test_h2o_policy_shares_prefix_exactly(self, model):
        """The snapshot contract generalizes beyond voting: H2O's float
        accumulation also survives the export/import path bitwise."""
        factory = lambda: H2OPolicy(model.config.n_layers, recent_window=4)
        requests = make_requests(model, 4, seed=13, shared_prefix=12)
        dense, _ = serve(model, requests, policy_factory=factory)
        paged, report = serve(
            model, requests, policy_factory=factory, paged=True, block_size=4
        )
        assert report.prefix_hits > 0
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )

    def test_non_shareable_policy_never_shares(self, model):
        """A policy without state export must fall back to full prefill
        (correctness over reuse) — and still match dense."""
        from repro.core.policies.extensions import TOVAPolicy

        factory = lambda: TOVAPolicy(model.config.n_layers)
        requests = make_requests(model, 3, seed=17, shared_prefix=12)
        dense, _ = serve(model, requests, policy_factory=factory)
        paged, report = serve(
            model, requests, policy_factory=factory, paged=True, block_size=4
        )
        assert report.prefix_hits == 0
        assert report.prefix_tokens_hit == 0
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )


class TestSameRoundPrefixReuse:
    """Two requests sharing a prompt prefix, admitted in the same round:
    the second adopts the blocks the first registered earlier in that
    round (admission prefills each request before the next is matched),
    so it computes only its unique suffix."""

    @pytest.mark.parametrize("budget", [None, 12])
    def test_second_admission_adopts_first_admissions_blocks(self, model, budget):
        rng = np.random.default_rng(3)
        prefix = rng.integers(0, model.config.vocab_size, size=16)
        requests = [
            Request(
                f"r{i}",
                np.concatenate(
                    [prefix, rng.integers(0, model.config.vocab_size, size=5)]
                ),
                max_new_tokens=6,
                seed=i,
                budget=budget,
            )
            for i in range(2)
        ]
        dense, _ = serve(model, requests, max_batch_size=2)
        paged, report = serve(
            model,
            requests,
            max_batch_size=2,
            paged=True,
            block_size=4,
        )
        first = paged.trace[0]
        assert first.round_index == 0
        assert [
            (e.request_id, e.computed_tokens, e.prefix_length)
            for e in first.prefills
        ] == [("r0", 21, 0), ("r1", 5, 16)]
        assert report.prefix_tokens_hit == 16
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )


class TestPagedReporting:
    def test_report_carries_paged_metrics(self, model):
        requests = make_requests(model, 5, seed=31, shared_prefix=12)
        _, report = serve(model, requests, paged=True, block_size=4)
        assert report.paged
        assert report.block_size == 4
        assert report.peak_blocks > 0
        assert report.peak_kv_slots == report.peak_blocks * 4
        assert 0.0 < report.mean_block_utilization <= 2.0
        assert 0.0 <= report.prefix_hit_rate <= 1.0
        summary = report.summary()
        assert summary["block_size"] == 4
        assert summary["prefill_saved"] == report.prefix_tokens_hit

    def test_dense_report_has_no_paged_extras(self, model):
        requests = make_requests(model, 3, seed=37)
        _, report = serve(model, requests)
        assert not report.paged
        assert report.peak_kv_slots > 0
        assert "block_size" not in report.summary()

    def test_shared_prefix_reduces_peak_memory(self, model):
        """The headline win: a shared-prefix trace peaks lower paged."""
        requests = make_requests(
            model, 8, seed=41, arrival=lambda i: 2 * i, shared_prefix=24
        )
        _, dense_report = serve(model, requests, max_batch_size=8)
        _, paged_report = serve(
            model,
            requests,
            max_batch_size=8,
            paged=True,
            block_size=4,
            prefix_cache_blocks=16,
        )
        assert paged_report.peak_kv_slots < dense_report.peak_kv_slots

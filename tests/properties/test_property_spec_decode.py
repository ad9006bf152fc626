"""Property-based tests: speculative decoding equivalence invariants.

Speculation is a pure scheduling transformation: for any workload, any
draft window k, any storage layout (dense or paged), and any eviction
policy, the speculating scheduler must produce bit-identical tokens,
eviction logs, and cache-length traces to the plain scheduler — and
leave no resource behind (block conservation through propose / verify /
reject / preempt, eviction-policy state as if it never speculated).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.policies.h2o import H2OPolicy
from repro.core.policies.voting import VotingPolicy
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler


@pytest.fixture(scope="module")
def draft_inference():
    """An independently initialized tiny model (same vocab as the target)."""
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=7))


def policy_factory(model, policy):
    if policy == "voting":
        return lambda: VotingPolicy(model.config.n_layers, reserved_length=2)
    return lambda: H2OPolicy(model.config.n_layers, recent_window=4)


def make_requests(seed, n, budget=None):
    rng = np.random.default_rng(seed)
    return [
        Request(
            request_id=f"r{i}",
            prompt=rng.integers(0, 64, size=int(rng.integers(8, 28))),
            max_new_tokens=int(rng.integers(3, 12)),
            seed=i,
            budget=budget,
        )
        for i in range(n)
    ]


def serve(model, requests, policy="voting", draft_model=None, spec_k=4, **kw):
    scheduler = Scheduler(
        model,
        policy_factory=policy_factory(model, policy),
        max_batch_size=kw.pop("max_batch_size", 3),
        draft_model=draft_model,
        spec_k=spec_k,
        **kw,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


def assert_same_outcome(base_sched, spec_sched):
    base = {s.request_id: s for s in base_sched.results()}
    spec = {s.request_id: s for s in spec_sched.results()}
    assert set(base) == set(spec)
    for request_id, b in base.items():
        s = spec[request_id]
        assert s.tokens == b.tokens
        assert s.evictions == b.evictions
        assert s.cache_lengths == b.cache_lengths
        assert s.finish_reason == b.finish_reason


def assert_same_policy_state(base_policy, spec_policy):
    """Structural equality of two eviction-policy instances."""
    assert type(base_policy) is type(spec_policy)
    base_dict, spec_dict = vars(base_policy), vars(spec_policy)
    assert set(base_dict) == set(spec_dict)
    for key, base_value in base_dict.items():
        spec_value = spec_dict[key]
        if isinstance(base_value, np.ndarray):
            assert np.array_equal(base_value, spec_value), key
        elif isinstance(base_value, (list, tuple)):
            assert len(base_value) == len(spec_value), key
            for b, s in zip(base_value, spec_value):
                if isinstance(b, np.ndarray):
                    assert np.array_equal(b, s), key
                else:
                    assert b == s, key
        else:
            assert base_value == spec_value, key


class TestBitIdentity:
    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("policy", ["voting", "h2o"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        spec_k=st.sampled_from([1, 2, 4]),
        budget=st.sampled_from([None, 14, 20]),
    )
    @settings(max_examples=12, deadline=None)
    def test_tokens_and_eviction_state_match_plain_decode(
        self, tiny_inference, draft_inference, paged, policy, seed, spec_k, budget
    ):
        requests = make_requests(seed, n=3, budget=budget)
        kw = dict(paged=paged, block_size=4)

        def recording(factory):
            created = []

            def make():
                instance = factory()
                created.append(instance)
                return instance

            return make, created

        base_factory, base_policies = recording(
            policy_factory(tiny_inference, policy)
        )
        spec_factory, spec_policies = recording(
            policy_factory(tiny_inference, policy)
        )
        base_sched = Scheduler(
            tiny_inference,
            policy_factory=base_factory,
            max_batch_size=3,
            **kw,
        )
        spec_sched = Scheduler(
            tiny_inference,
            policy_factory=spec_factory,
            max_batch_size=3,
            draft_model=draft_inference,
            spec_k=spec_k,
            **kw,
        )
        for scheduler in (base_sched, spec_sched):
            for request in requests:
                scheduler.submit(request)
            scheduler.run()
        assert_same_outcome(base_sched, spec_sched)
        # Both runs admit in the same deterministic order, so policies
        # pair up by creation order; rollback must leave each spec
        # policy's state as if it had never speculated.
        assert len(base_policies) == len(spec_policies) == len(requests)
        for b, s in zip(base_policies, spec_policies):
            assert_same_policy_state(b, s)

    @given(seed=st.integers(0, 2**32 - 1), spec_k=st.sampled_from([1, 2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_chunked_prefill_composes_with_speculation(
        self, tiny_inference, draft_inference, seed, spec_k
    ):
        requests = make_requests(seed, n=3)
        base_sched, _ = serve(tiny_inference, requests, prefill_chunk=8)
        spec_sched, report = serve(
            tiny_inference,
            requests,
            draft_model=draft_inference,
            spec_k=spec_k,
            prefill_chunk=8,
        )
        assert_same_outcome(base_sched, spec_sched)


class TestBlockConservation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        spec_k=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_block_returns_to_the_pool(
        self, tiny_inference, draft_inference, seed, spec_k
    ):
        requests = make_requests(seed, n=4)
        scheduler, report = serve(
            tiny_inference,
            requests,
            draft_model=draft_inference,
            spec_k=spec_k,
            paged=True,
            block_size=4,
            prefix_caching=False,
        )
        assert len(scheduler.results()) == len(requests)
        assert scheduler.manager.block_pool.num_used == 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["recompute", "swap"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_preemption_composes_with_speculation(
        self, tiny_inference, draft_inference, seed, mode
    ):
        # A pool too small for the whole batch forces preemption.
        requests = make_requests(seed, n=4)
        kw = dict(
            paged=True,
            block_size=4,
            num_blocks=48,
            prefix_caching=False,
            preempt=mode,
            max_batch_size=4,
        )
        base_sched, base_report = serve(tiny_inference, requests, **kw)
        spec_sched, spec_report = serve(
            tiny_inference,
            requests,
            draft_model=draft_inference,
            spec_k=2,
            **kw,
        )
        assume(base_report.preemptions > 0)
        assert spec_sched.manager.block_pool.num_used == 0
        # Provisional verify blocks change pool pressure, so preemption
        # *timing* (and with it the cache-length trace) may differ from
        # the plain run — but greedy verification still pins the tokens.
        base = {s.request_id: s for s in base_sched.results()}
        spec = {s.request_id: s for s in spec_sched.results()}
        assert set(base) == set(spec)
        for request_id, b in base.items():
            assert spec[request_id].tokens == b.tokens
            assert spec[request_id].finish_reason == b.finish_reason

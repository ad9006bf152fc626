"""Speculative decoding: rollback primitives, verify exactness, scheduler
bit-identity, resource conservation, report metrics, and co-sim pricing."""

import numpy as np
import pytest

from repro.accel.config import veda_config
from repro.config import llama2_7b_shapes, tiny_config
from repro.core.kv_cache import LayerKVCache
from repro.core.policies.h2o import H2OPolicy
from repro.core.policies.voting import VotingPolicy
from repro.experiments.serving import spec_draft_7b_shapes
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import (
    BlockPool,
    PagedLayerKVCache,
    Request,
    Scheduler,
    ServingCoSimulator,
)


def make_requests(rng, n=3, prompt_range=(10, 24), max_new_range=(5, 10), **kw):
    return [
        Request(
            request_id=f"r{i}",
            prompt=rng.integers(0, 64, size=int(rng.integers(*prompt_range))),
            max_new_tokens=int(rng.integers(*max_new_range)),
            seed=i,
            **kw,
        )
        for i in range(n)
    ]


def serve(model, requests, draft_model=None, spec_k=4, policy="voting", **kw):
    if policy == "voting":
        factory = lambda: VotingPolicy(model.config.n_layers, reserved_length=2)
    else:
        factory = lambda: H2OPolicy(model.config.n_layers, recent_window=4)
    scheduler = Scheduler(
        model,
        policy_factory=factory,
        max_batch_size=kw.pop("max_batch_size", 2),
        draft_model=draft_model,
        spec_k=spec_k,
        **kw,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


def assert_same_outcome(base_sched, spec_sched, requests):
    base = {s.request_id: s for s in base_sched.results()}
    spec = {s.request_id: s for s in spec_sched.results()}
    for request in requests:
        b, s = base[request.request_id], spec[request.request_id]
        assert s.tokens == b.tokens
        assert s.evictions == b.evictions
        assert s.cache_lengths == b.cache_lengths
        assert s.finish_reason == b.finish_reason


class TestTruncate:
    def test_dense_truncate_drops_only_the_tail(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=3, capacity=10)
        pairs = [
            (rng.normal(size=(2, 3)), rng.normal(size=(2, 3))) for _ in range(7)
        ]
        for position, (k, v) in enumerate(pairs):
            cache.append(k, v, position)
        keys_before = cache.keys[:, :4].copy()
        cache.truncate(4)
        assert cache.length == 4
        assert np.array_equal(cache.keys, keys_before)
        assert list(cache.positions) == [0, 1, 2, 3]
        # Re-append overwrites the stale suffix slot-by-slot.
        cache.append(*pairs[0], 4)
        assert cache.length == 5

    def test_dense_truncate_rejects_growth_and_negative(self):
        cache = LayerKVCache(n_heads=1, head_dim=2, capacity=4)
        cache.append(np.zeros((1, 2)), np.zeros((1, 2)), 0)
        with pytest.raises(ValueError):
            cache.truncate(2)
        with pytest.raises(ValueError):
            cache.truncate(-1)

    def test_paged_truncate_returns_tail_blocks_to_the_pool(self, rng):
        pool = BlockPool(n_heads=2, head_dim=3, block_size=4, num_blocks=8)
        cache = PagedLayerKVCache(pool, capacity=32)
        for position in range(10):  # 3 blocks
            cache.append(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), position)
        assert pool.num_used == 3
        cache.truncate(5)  # back to 2 blocks
        assert cache.length == 5
        assert pool.num_used == 2
        cache.truncate(0)
        assert pool.num_used == 0

    def test_paged_truncate_never_releases_a_shared_prefix(self, rng):
        pool = BlockPool(n_heads=2, head_dim=3, block_size=4, num_blocks=8)
        writer = PagedLayerKVCache(pool, capacity=32)
        for position in range(4):  # exactly one full block
            writer.append(
                rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), position
            )
        shared = list(writer._table)
        reader = PagedLayerKVCache(pool, capacity=32)
        reader.attach_blocks(shared, 4)
        for position in range(4, 9):  # provisional suffix on the reader
            reader.append(
                rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), position
            )
        used_before = pool.num_used
        reader.truncate(4)
        # The suffix blocks are gone; the shared block survives for both.
        assert pool.num_used < used_before
        assert np.array_equal(reader.keys, writer.keys)


def verify_window(model, tokens, cache, start):
    """Score a verify window the way the scheduler does: one
    ``step_batch`` row per token, every row backed by ``cache``."""
    return model.step_batch(
        tokens, np.arange(start, start + len(tokens)), [cache] * len(tokens)
    )


class TestVerifyExactness:
    def test_verify_rows_bitwise_match_sequential_steps(self, tiny_inference, rng):
        prompt = rng.integers(0, 64, size=18)
        tokens = [int(t) for t in rng.integers(0, 64, size=5)]
        verify_cache = tiny_inference.new_cache()
        step_cache = tiny_inference.new_cache()
        tiny_inference.prefill(prompt, verify_cache)
        tiny_inference.prefill(prompt, step_cache)
        result = verify_window(tiny_inference, tokens, verify_cache, len(prompt))
        for i, token in enumerate(tokens):
            step = tiny_inference.step(token, len(prompt) + i, step_cache)
            assert np.array_equal(result.logits[i], step.logits)
            for layer in range(tiny_inference.config.n_layers):
                assert np.array_equal(
                    result.attention[layer][i], step.attention[layer]
                )

    def test_rollback_restores_the_sequential_cache_exactly(
        self, tiny_inference, rng
    ):
        prompt = rng.integers(0, 64, size=12)
        tokens = [int(t) for t in rng.integers(0, 64, size=4)]
        accept = 2
        verify_cache = tiny_inference.new_cache()
        step_cache = tiny_inference.new_cache()
        tiny_inference.prefill(prompt, verify_cache)
        tiny_inference.prefill(prompt, step_cache)
        verify_window(tiny_inference, tokens, verify_cache, len(prompt))
        verify_cache.truncate(len(prompt) + accept)
        for i in range(accept):
            tiny_inference.step(tokens[i], len(prompt) + i, step_cache)
        for layer in range(tiny_inference.config.n_layers):
            assert np.array_equal(
                verify_cache[layer].keys, step_cache[layer].keys
            )
            assert np.array_equal(
                verify_cache[layer].values, step_cache[layer].values
            )
            assert np.array_equal(
                verify_cache[layer].positions, step_cache[layer].positions
            )


class TestSchedulerBitIdentity:
    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("policy", ["voting", "h2o"])
    def test_tokens_and_eviction_logs_match_non_spec(
        self, tiny_inference, draft_inference, rng, paged, policy
    ):
        requests = make_requests(rng, n=4, budget=20)
        base_sched, _ = serve(
            tiny_inference, requests, policy=policy, paged=paged, block_size=4
        )
        spec_sched, report = serve(
            tiny_inference,
            requests,
            draft_model=draft_inference,
            policy=policy,
            paged=paged,
            block_size=4,
        )
        assert report.verify_passes > 0
        assert_same_outcome(base_sched, spec_sched, requests)

    def test_self_draft_accepts_everything(self, tiny_inference, rng):
        requests = make_requests(rng, n=2)
        base_sched, _ = serve(tiny_inference, requests)
        spec_sched, report = serve(
            tiny_inference, requests, draft_model=tiny_inference
        )
        assert report.accept_rate == 1.0
        assert report.tokens_per_target_pass > 1.0
        assert_same_outcome(base_sched, spec_sched, requests)

    def test_eos_inside_the_verify_window_clips_it(self, tiny_inference, rng):
        probe = make_requests(rng, n=1, max_new_range=(8, 9))[0]
        base_sched, _ = serve(tiny_inference, [probe])
        tokens = base_sched.tokens_for("r0")
        eos = tokens[4]  # retire mid-trajectory, mid-window under spec
        expected = tokens[: tokens.index(eos) + 1]
        requests = [
            Request("r0", probe.prompt, max_new_tokens=8, seed=0, eos=eos)
        ]
        base_sched, _ = serve(tiny_inference, requests)
        spec_sched, _ = serve(
            tiny_inference, requests, draft_model=tiny_inference
        )
        assert base_sched.tokens_for("r0") == expected
        assert_same_outcome(base_sched, spec_sched, requests)
        (state,) = spec_sched.results()
        assert state.finish_reason == "eos"

    def test_length_cap_inside_the_verify_window_clips_it(
        self, tiny_inference, rng
    ):
        prompt = rng.integers(0, 64, size=14)
        requests = [Request("r0", prompt, max_new_tokens=3, seed=0)]
        base_sched, _ = serve(tiny_inference, requests)
        spec_sched, report = serve(
            tiny_inference, requests, draft_model=tiny_inference, spec_k=4
        )
        assert_same_outcome(base_sched, spec_sched, requests)
        (state,) = spec_sched.results()
        assert state.finish_reason == "length"
        # The window was clipped to the remaining token budget.
        assert 0 < report.spec_proposed < 4

    def test_tight_budget_falls_back_to_plain_decode(self, tiny_inference, rng):
        # prior + k + 1 > budget from the first decode on: never speculates.
        requests = make_requests(rng, n=2, prompt_range=(16, 20), budget=12)
        base_sched, _ = serve(tiny_inference, requests)
        spec_sched, report = serve(
            tiny_inference, requests, draft_model=tiny_inference, spec_k=8
        )
        assert report.verify_passes == 0
        assert report.accept_rate == 0.0
        assert_same_outcome(base_sched, spec_sched, requests)


class ForwardCounter:
    """Delegates to a model and logs, per scheduler round, every call to
    it other than a prefill — i.e. every decode-side forward pass."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.scheduler = None
        self.rounds = []  # round index of each forward call

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if not callable(attr) or name in ("prefill", "new_cache"):
            return attr

        def counted(*args, **kwargs):
            self.rounds.append(self.scheduler.round_index)
            return attr(*args, **kwargs)

        return counted


class TestOneForwardPerRound:
    @pytest.mark.parametrize("paged", [False, True])
    def test_each_decoding_round_is_one_target_forward(
        self, tiny_inference, draft_inference, rng, paged
    ):
        # Unbudgeted requests speculate; the budgeted ones sit over their
        # budget from the first decode on and fall back to plain rows.
        requests = make_requests(
            rng, n=3, prompt_range=(16, 20), max_new_range=(8, 12), budget=12
        ) + [
            Request(f"s{i}", rng.integers(0, 64, size=12), max_new_tokens=10, seed=i)
            for i in range(3)
        ]
        target = ForwardCounter(tiny_inference)
        scheduler = Scheduler(
            target,
            policy_factory=lambda: VotingPolicy(
                tiny_inference.config.n_layers, reserved_length=2
            ),
            max_batch_size=6,
            draft_model=draft_inference,
            spec_k=3,
            paged=paged,
            block_size=4,
        )
        target.scheduler = scheduler
        for request in requests:
            scheduler.submit(request)
        report = scheduler.run()

        decoding = [r for r in scheduler.trace if r.decodes]
        assert any(
            sum(1 for w in r.decodes if w.proposed) >= 2
            and any(not w.proposed for w in r.decodes)
            for r in decoding
        )
        calls = {r: target.rounds.count(r) for r in set(target.rounds)}
        assert calls == {r.round_index: 1 for r in decoding}
        assert report.verify_passes > len(decoding)
        assert report.total_tokens == sum(r.max_new_tokens for r in requests)


class TestResourceConservation:
    def test_paged_run_returns_every_block(self, tiny_inference, draft_inference, rng):
        requests = make_requests(rng, n=4)
        scheduler, report = serve(
            tiny_inference,
            requests,
            draft_model=draft_inference,
            paged=True,
            block_size=4,
            prefix_caching=False,
        )
        assert report.verify_passes > 0
        assert scheduler.manager.block_pool.num_used == 0

    def test_finish_inside_window_frees_provisional_blocks(
        self, tiny_inference, rng
    ):
        prompt = rng.integers(0, 64, size=10)
        requests = [Request("r0", prompt, max_new_tokens=3, seed=0)]
        scheduler, _ = serve(
            tiny_inference,
            requests,
            draft_model=tiny_inference,
            spec_k=4,
            paged=True,
            block_size=4,
            prefix_caching=False,
        )
        (state,) = scheduler.results()
        assert state.finish_reason == "length"
        assert scheduler.manager.block_pool.num_used == 0


class TestReportMetrics:
    def test_spec_counters_and_summary(self, tiny_inference, rng):
        requests = make_requests(rng, n=3)
        _, report = serve(tiny_inference, requests, draft_model=tiny_inference)
        assert report.spec_accepted == report.spec_proposed > 0
        assert report.spec_tokens >= report.spec_accepted
        assert (
            report.tokens_per_target_pass
            == report.spec_tokens / report.verify_passes
        )
        summary = report.summary()
        assert summary["verify_passes"] == report.verify_passes
        assert "accept_rate" in summary

    def test_non_spec_report_has_zeroed_spec_fields(self, tiny_inference, rng):
        requests = make_requests(rng, n=2)
        _, report = serve(tiny_inference, requests)
        assert report.verify_passes == 0
        assert report.accept_rate == 0.0
        assert report.tokens_per_target_pass == 0.0
        assert "verify_passes" not in report.summary()


class TestSchedulerValidation:
    def test_spec_requires_greedy_sampler(self, tiny_inference):
        def sampler(logits, rng):
            return int(np.argmax(logits))

        with pytest.raises(ValueError, match="greedy"):
            Scheduler(
                tiny_inference,
                policy_factory=lambda: VotingPolicy(2, reserved_length=2),
                draft_model=tiny_inference,
                sampler=sampler,
            )

    def test_ragged_cache_refuses_a_verify_window(
        self, tiny_inference, draft_inference, rng
    ):
        scheduler = Scheduler(
            tiny_inference, draft_model=draft_inference, spec_k=2
        )
        scheduler.submit(
            Request("r0", rng.integers(0, 64, size=10), max_new_tokens=8)
        )
        scheduler.run_round()
        (state,) = scheduler._running
        state.cache[0].evict(0)
        with pytest.raises(ValueError, match="ragged"):
            scheduler.run_round()

    def test_spec_requires_matching_vocab(self, tiny_inference):
        other = CachedTransformer.from_module(
            TransformerLM(tiny_config(vocab_size=32), seed=0)
        )
        with pytest.raises(ValueError, match="vocab"):
            Scheduler(
                tiny_inference,
                policy_factory=lambda: VotingPolicy(2, reserved_length=2),
                draft_model=other,
            )


class TestCoSimSpecPricing:
    def replay(self, scheduler, **kw):
        return ServingCoSimulator(
            scheduler,
            hw=veda_config(hbm_bandwidth_gb_s=32.0),
            hw_model=llama2_7b_shapes(),
            **kw,
        ).replay()

    def test_spec_trace_prices_verifies_and_draft_work(
        self, tiny_inference, draft_inference, rng
    ):
        requests = make_requests(rng, n=3)
        scheduler, report = serve(
            tiny_inference, requests, draft_model=draft_inference
        )
        hw_report = self.replay(scheduler, hw_draft_model=spec_draft_7b_shapes())
        assert hw_report.verify_passes == report.verify_passes > 0
        assert hw_report.spec_proposed == report.spec_proposed
        assert hw_report.spec_accepted == report.spec_accepted
        assert hw_report.accept_rate == report.accept_rate
        assert hw_report.draft_cycles > 0
        assert hw_report.total_tokens == report.total_tokens
        summary = hw_report.summary()
        assert summary["verify_passes"] == report.verify_passes
        assert "tokens/pass" in summary

    def test_spec_trace_without_draft_shapes_is_rejected(
        self, tiny_inference, draft_inference, rng
    ):
        requests = make_requests(rng, n=2)
        scheduler, _ = serve(
            tiny_inference, requests, draft_model=draft_inference
        )
        # A bare-trace replay has no scheduler to borrow draft shapes
        # from, so the guard fires.
        with pytest.raises(ValueError, match="draft"):
            ServingCoSimulator(
                hw=veda_config(), hw_model=llama2_7b_shapes()
            ).replay(scheduler.trace)

    def test_full_acceptance_beats_baseline_on_starved_hbm(
        self, tiny_inference, rng
    ):
        """The headline mechanism: at a weight-fetch-bound operating
        point, amortizing the round's weight fetch over k+1 verify rows
        makes the spec trace strictly cheaper per token."""
        requests = make_requests(rng, n=3, max_new_range=(16, 17))
        base_sched, base_report = serve(
            tiny_inference, requests, max_batch_size=4
        )
        spec_sched, spec_report = serve(
            tiny_inference,
            requests,
            draft_model=tiny_inference,
            spec_k=4,
            max_batch_size=4,
        )
        assert spec_report.total_tokens == base_report.total_tokens
        base_hw = self.replay(base_sched)
        spec_hw = self.replay(spec_sched, hw_draft_model=spec_draft_7b_shapes())
        assert spec_hw.total_tokens == base_hw.total_tokens
        assert spec_hw.tokens_per_second > 1.2 * base_hw.tokens_per_second

    def test_misfiled_dead_flags_are_rejected(self, tiny_inference, rng):
        requests = make_requests(rng, n=2, max_new_range=(4, 5))
        scheduler, _ = serve(tiny_inference, requests)
        live = next(
            e for record in scheduler.trace for e in record.decodes
        )
        live.dead = True
        with pytest.raises(ValueError, match="misfiled"):
            self.replay(scheduler)
        live.dead = False
        dead = next(
            e for record in scheduler.trace for e in record.dead_steps
        )
        dead.dead = False
        with pytest.raises(ValueError, match="misfiled"):
            self.replay(scheduler)

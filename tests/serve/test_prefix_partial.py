"""End-to-end partial-block prefix sharing through the scheduler.

The radix trie's token-granular matching must change *work*, never
*outputs*: an unbudgeted sequence sharing all-but-one token with a
cached prompt re-prefills exactly the divergent rows (copy-on-write
adopting the partial block), its generated tokens and eviction logs
stay bit-identical to a cold dense serve for both snapshot-bearing
policies (voting, H2O), budgeted sequences keep the PR-2 block-aligned
semantics untouched, speculative provisional tokens never enter the
trie, and the token-weighted report metrics expose the coverage the
per-request hit rate hides.
"""

import numpy as np
import pytest

from repro.core.policies import H2OPolicy, VotingPolicy
from repro.serve import Request, Scheduler, compare_dataflows

BLOCK_SIZE = 4


def voting_factory(model):
    return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)


def h2o_factory(model):
    return lambda: H2OPolicy(model.config.n_layers, recent_window=4)


def serve(model, requests, *, paged, factory=None, **kwargs):
    scheduler = Scheduler(
        model,
        policy_factory=(factory or voting_factory(model)),
        max_batch_size=kwargs.pop("max_batch_size", 4),
        paged=paged,
        block_size=kwargs.pop("block_size", BLOCK_SIZE),
        **kwargs,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


def prefill_events_for(scheduler, request_id):
    return [
        event
        for record in scheduler.trace
        for event in record.prefills
        if event.request_id == request_id
    ]


def almost_twin_requests(model, prompt_len=8, budget=None):
    """Two unbudgeted requests differing only in the last prompt token."""
    rng = np.random.default_rng(11)
    base = rng.integers(0, model.config.vocab_size, size=prompt_len)
    twin = base.copy()
    twin[-1] = (twin[-1] + 1) % model.config.vocab_size
    return [
        Request("warm", base, max_new_tokens=4, seed=0, budget=budget),
        Request(
            "twin", twin, max_new_tokens=4, arrival_time=1, seed=1,
            budget=budget,
        ),
    ]


class TestPartialTailEndToEnd:
    def test_all_but_one_token_reprefills_only_divergent_row(self, model):
        """7 of 8 prompt tokens adopted (one full block + a 3-row partial
        tail); the admission prefill computes exactly the last row, and
        the adopted partial block is CoW'd once per layer."""
        requests = almost_twin_requests(model)
        scheduler, report = serve(model, requests, paged=True)
        events = prefill_events_for(scheduler, "twin")
        assert sum(event.computed_tokens for event in events) == 1
        assert events[0].prefix_length == 7
        # The warm request CoWs nothing (it allocated its own blocks);
        # the twin CoWs the one partially adopted block, per layer.
        assert scheduler.manager.block_pool.cow_copies == model.config.n_layers
        assert report.prefix_tokens_hit == 7

    @pytest.mark.parametrize("factory", [voting_factory, h2o_factory])
    def test_partial_hit_bit_identical_to_cold_dense(self, model, factory):
        """Tokens AND eviction logs match a cold dense serve for both
        snapshot-bearing policies — the partial tail changes compute,
        never outputs."""
        requests = almost_twin_requests(model)
        dense, _ = serve(model, requests, paged=False, factory=factory(model))
        paged, _ = serve(model, requests, paged=True, factory=factory(model))
        assert paged.manager.prefix_cache.tokens_hit > 0
        for state_d, state_p in zip(dense.results(), paged.results()):
            assert state_d.request_id == state_p.request_id
            assert state_d.tokens == state_p.tokens
            assert state_d.evictions == state_p.evictions
            assert state_d.cache_lengths == state_p.cache_lengths

    @pytest.mark.parametrize("factory", [voting_factory, h2o_factory])
    def test_misaligned_shared_prefix_bit_identical(self, model, factory):
        """A 10-token shared prefix over 4-slot blocks (2-token partial
        tail) across several unbudgeted requests: paged/token-mode serve
        is bit-identical to dense."""
        rng = np.random.default_rng(23)
        prefix = rng.integers(0, model.config.vocab_size, size=10)
        requests = [
            Request(
                f"req-{i}",
                np.concatenate(
                    [prefix, rng.integers(0, model.config.vocab_size, size=6)]
                ),
                max_new_tokens=5,
                arrival_time=2 * i,
                seed=i,
            )
            for i in range(4)
        ]
        dense, _ = serve(model, requests, paged=False, factory=factory(model))
        paged, _ = serve(model, requests, paged=True, factory=factory(model))
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )
        for state_d, state_p in zip(dense.results(), paged.results()):
            assert state_d.evictions == state_p.evictions


class TestBudgetedSemanticsUnchanged:
    def test_budgeted_hit_stays_block_aligned(self, model):
        """A budgeted sequence never adopts a partial tail: its hit
        length is a whole number of snapshot-covered blocks, and its
        tokens still match dense."""
        requests = almost_twin_requests(model, budget=8)
        dense, _ = serve(model, requests, paged=False)
        paged, _ = serve(model, requests, paged=True)
        events = prefill_events_for(paged, "twin")
        assert events[0].prefix_length == BLOCK_SIZE  # 1 block, not 7 rows
        assert sum(event.computed_tokens for event in events) == 4
        for request in requests:
            assert paged.tokens_for(request.request_id) == dense.tokens_for(
                request.request_id
            )
        for state in paged.results():
            assert not state.prefix_tainted

    def test_block_match_mode_disables_partial_tails(self, model):
        """`prefix_match_mode="block"` restores full-block-only coverage
        even for unbudgeted sequences (the comparison baseline)."""
        requests = almost_twin_requests(model)
        scheduler, _ = serve(
            model, requests, paged=True, prefix_match_mode="block"
        )
        events = prefill_events_for(scheduler, "twin")
        assert events[0].prefix_length == BLOCK_SIZE
        assert scheduler.manager.block_pool.cow_copies == 0


class TestTrieBeatsBlockGranularity:
    def test_token_mode_strictly_higher_token_hit_rate(self, model):
        """On a misaligned shared prefix, token-granular matching covers
        strictly more prompt tokens than the full-block baseline."""
        rng = np.random.default_rng(7)
        prefix = rng.integers(0, model.config.vocab_size, size=10)
        requests = [
            Request(
                f"req-{i}",
                np.concatenate(
                    [prefix, rng.integers(0, model.config.vocab_size, size=8)]
                ),
                max_new_tokens=4,
                arrival_time=3 * i,
                seed=i,
            )
            for i in range(3)
        ]
        rates = {}
        for mode in ("block", "token"):
            scheduler, report = serve(
                model, requests, paged=True, prefix_match_mode=mode
            )
            rates[mode] = report.prefix_token_hit_rate
            assert report.prompt_tokens_seen == sum(
                request.prompt.shape[0] for request in requests
            )
        assert rates["token"] > rates["block"]

    def test_report_carries_token_metrics(self, model):
        requests = almost_twin_requests(model)
        _, report = serve(model, requests, paged=True)
        assert report.prompt_tokens_seen == 16
        assert report.prefix_tokens_hit == 7
        assert report.prefix_token_hit_rate == pytest.approx(7 / 16)
        assert report.summary()["token_hit_rate"] == pytest.approx(7 / 16)


class TestCosimPricesPartialCoverage:
    def test_partial_hit_prices_only_divergent_rows(self, model):
        """The co-simulator charges the twin request one prefill row,
        not a whole block: `PrefillEvent.prefix_length` carries the
        token-level coverage into the cycle model."""
        requests = almost_twin_requests(model)
        dense, _ = serve(model, requests, paged=False)
        paged, report = serve(model, requests, paged=True)
        hw_model = model.config
        dense_hw = compare_dataflows(dense, hw_model=hw_model)["auto"]
        paged_hw = compare_dataflows(paged, hw_model=hw_model)["auto"]
        assert dense_hw.prefill_tokens == 16  # two cold 8-row prompts
        assert paged_hw.prefill_tokens == 9  # warm prompt + 1 divergent row
        assert (
            dense_hw.prefill_tokens - paged_hw.prefill_tokens
            == report.prefix_tokens_hit
        )
        assert paged_hw.total_cycles < dense_hw.total_cycles


class TestSpecDecodeGating:
    def test_provisional_tokens_never_enter_trie(self, model):
        """With self-draft speculation every registered trie path spells
        a prefix of some request's *prompt* — provisional (and even
        committed generated) tokens are absent, because registration
        only covers prompt rows."""
        rng = np.random.default_rng(31)
        prefix = rng.integers(0, model.config.vocab_size, size=8)
        requests = [
            Request(
                f"req-{i}",
                np.concatenate(
                    [prefix, rng.integers(0, model.config.vocab_size, size=6)]
                ),
                max_new_tokens=6,
                arrival_time=2 * i,
                seed=i,
            )
            for i in range(3)
        ]
        scheduler, report = serve(
            model, requests, paged=True, draft_model=model, spec_k=2
        )
        assert report.verify_passes > 0
        prompts = [tuple(int(t) for t in r.prompt) for r in requests]

        def paths(node, head):
            for bucket in node.children.values():
                for child in bucket:
                    label = head + tuple(int(t) for t in child.tokens)
                    yield label
                    yield from paths(child, label)

        cache = scheduler.manager.prefix_cache
        registered = [
            path
            for key in list(cache._roots)
            for path in paths(cache.root(key), ())
        ]
        assert registered  # the shared prefix did get cached
        for path in registered:
            assert any(
                prompt[: len(path)] == path for prompt in prompts
            ), f"trie path {path} is not a prompt prefix"

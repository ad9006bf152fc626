"""Chunked prefill: bit-identical tokens at every chunk budget.

The contract under test: splitting a prompt's prefill into fixed
token-budget chunks interleaved with decode rounds changes *when* work
happens, never *what* is generated — chunk budgets 1 / 16 / whole-prompt,
dense and paged, voting and H2O must all produce exactly the tokens of
the legacy one-round admission path.  The trace and co-simulation suites
below pin down the latency-shape win: no round's computed prefill rows
exceed the budget, so the worst per-round cycle cost (the head-of-line
prefill spike) drops while total work stays honest.
"""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.engine import budget_from_ratio
from repro.core.policies import H2OPolicy, VotingPolicy
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler, ServingCoSimulator


@pytest.fixture(scope="module")
def model():
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))


POLICY_FACTORIES = {
    "voting": lambda n_layers: (
        lambda: VotingPolicy(n_layers, reserved_length=4)
    ),
    "h2o": lambda n_layers: (lambda: H2OPolicy(n_layers, recent_window=4)),
}


def make_requests(model, count=4, seed=11, long_tail=False):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        prompt_len = int(rng.integers(70, 90)) if long_tail and i == 0 else int(
            rng.integers(10, 30)
        )
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=rng.integers(0, model.config.vocab_size, size=prompt_len),
                max_new_tokens=int(rng.integers(5, 10)),
                arrival_time=2 * i,
                seed=i,
                budget=budget_from_ratio(0.5, prompt_len, minimum=8),
            )
        )
    return requests


#: Storage configurations: dense slabs, paged with the prefix trie (block-
#: sized observation for snapshots), and paged without it (one
#: observation per layer over each chunk).
STORAGE = {
    "dense": dict(paged=False),
    "paged": dict(paged=True),
    "paged_notrie": dict(paged=True, prefix_caching=False),
}


def serve(
    model, requests, policy_name="voting", chunk=None, paged=False, **kwargs
):
    scheduler = Scheduler(
        model,
        policy_factory=POLICY_FACTORIES[policy_name](model.config.n_layers),
        max_batch_size=3,
        prefill_chunk=chunk,
        paged=paged,
        block_size=4,
        **kwargs,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


class TestChunkedEquivalence:
    @pytest.mark.parametrize("policy_name", ["voting", "h2o"])
    @pytest.mark.parametrize("storage", list(STORAGE))
    @pytest.mark.parametrize("chunk", [1, 16, None], ids=["c1", "c16", "whole"])
    def test_tokens_bit_identical(self, model, policy_name, storage, chunk):
        """The full equivalence matrix: chunk budgets 1/16/whole ×
        dense/paged/paged-without-trie × voting/H2O — tokens *and*
        eviction logs equal the dense whole-prompt baseline."""
        requests = make_requests(model)
        baseline, _ = serve(model, requests, policy_name=policy_name)
        scheduler, report = serve(
            model,
            requests,
            policy_name=policy_name,
            chunk=chunk,
            **STORAGE[storage],
        )
        base_logs = {s.request_id: s.evictions for s in baseline.results()}
        for state in scheduler.results():
            assert state.evictions == base_logs[state.request_id]
        for request in requests:
            assert scheduler.tokens_for(request.request_id) == baseline.tokens_for(
                request.request_id
            )
        assert report.total_tokens == sum(
            len(baseline.tokens_for(r.request_id)) for r in requests
        )

    def test_eviction_logs_identical(self, model):
        """Chunking must not shift a single eviction decision either."""
        requests = make_requests(model)
        baseline, _ = serve(model, requests)
        chunked, _ = serve(model, requests, chunk=4)
        base_logs = {s.request_id: s.evictions for s in baseline.results()}
        for state in chunked.results():
            assert state.evictions == base_logs[state.request_id]


class TestChunkedTraceAccounting:
    def test_per_round_prefill_rows_capped(self, model):
        """No round computes more prompt rows than the chunk budget."""
        requests = make_requests(model, long_tail=True)
        for chunk in (1, 5, 16):
            scheduler, _ = serve(model, requests, chunk=chunk)
            assert all(
                record.computed_prefill_tokens <= chunk
                for record in scheduler.trace
            )
            assert max(
                record.computed_prefill_tokens for record in scheduler.trace
            ) == chunk

    def test_chunks_partition_prompts_with_single_final(self, model):
        """Per request: chunk rows sum to the prompt, prefix lengths
        chain contiguously, and exactly the last event is final."""
        requests = make_requests(model, long_tail=True)
        scheduler, _ = serve(model, requests, chunk=7)
        events = {}
        for record in scheduler.trace:
            for event in record.prefills:
                events.setdefault(event.request_id, []).append(event)
        for request in requests:
            chain = events[request.request_id]
            assert sum(e.computed_tokens for e in chain) == request.prompt.shape[0]
            resident = 0
            for event in chain:
                assert event.prefix_length == resident
                resident += event.computed_tokens
            assert [e.final for e in chain] == [False] * (len(chain) - 1) + [True]

    def test_round_tokens_count_only_final_prefills(self, model):
        """A non-final chunk produces no sampleable logits, so it must
        not count as a token in the trace (cosim throughput honesty)."""
        requests = make_requests(model, long_tail=True)
        scheduler, report = serve(model, requests, chunk=6)
        assert sum(r.tokens for r in scheduler.trace) == report.total_tokens
        # Every request contributes exactly one final prefill.
        finals = sum(
            1 for r in scheduler.trace for e in r.prefills if e.final
        )
        assert finals == len(requests)

    def test_paged_chunked_prefix_sharing_still_registers_blocks(self, model):
        """Chunked paged prefill keeps registering prefix blocks: a
        follow-up identical prompt hits the cache even when the first
        prefill was chunked."""
        rng = np.random.default_rng(5)
        prompt = rng.integers(0, model.config.vocab_size, size=24)
        requests = [
            Request("a", prompt, max_new_tokens=4, seed=0),
            Request("b", prompt, max_new_tokens=4, arrival_time=12, seed=1),
        ]
        scheduler, report = serve(model, requests, chunk=5, paged=True)
        assert report.prefix_hits >= 1
        assert report.prefix_tokens_hit > 0
        baseline, _ = serve(model, requests)
        for request in requests:
            assert scheduler.tokens_for(request.request_id) == baseline.tokens_for(
                request.request_id
            )


class TestChunkedCosim:
    def test_chunking_caps_head_of_line_round_cycles(self, model):
        """The acceptance criterion: on a long-prompt workload the worst
        per-round cycle cost drops under chunked prefill, total tokens
        unchanged, and TTFT-in-cycles is reported per request."""
        requests = make_requests(model, long_tail=True)
        whole, _ = serve(model, requests)
        chunked, _ = serve(model, requests, chunk=8)
        whole_hw = ServingCoSimulator(scheduler=whole).replay()
        chunked_hw = ServingCoSimulator(scheduler=chunked).replay()
        assert chunked_hw.max_round_cycles < whole_hw.max_round_cycles
        assert chunked_hw.total_tokens == whole_hw.total_tokens
        for request in requests:
            assert request.request_id in chunked_hw.ttft_cycles
            assert chunked_hw.ttft_cycles[request.request_id] > 0
        assert chunked_hw.mean_ttft_cycles > 0
        assert max(chunked_hw.ttft_cycles.values()) >= chunked_hw.mean_ttft_cycles

    def test_ttft_cycles_anchored_at_arrival(self, model):
        """A late-arriving request's TTFT excludes cycles spent before
        it arrived."""
        rng = np.random.default_rng(9)
        vocab = model.config.vocab_size
        requests = [
            Request("early", rng.integers(0, vocab, size=20), max_new_tokens=12,
                    seed=0),
            Request("late", rng.integers(0, vocab, size=20), max_new_tokens=4,
                    arrival_time=6, seed=1),
        ]
        scheduler, _ = serve(model, requests)
        report = ServingCoSimulator(scheduler=scheduler).replay()
        # Anchored TTFT must be smaller than the trace-relative one.
        bare = ServingCoSimulator(
            hw_model=model.config
        ).replay(scheduler.trace)
        assert report.ttft_cycles["late"] < bare.ttft_cycles["late"]
        assert report.ttft_cycles["early"] == bare.ttft_cycles["early"]

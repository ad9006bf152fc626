"""Differential fork/join harness: parallel sampling and beam search.

The fork surface's contract is *equivalence*: branch ``i`` of a
``Request(n=k, seed=s)`` family must be bit-identical — tokens,
eviction logs, per-layer cache lengths, finish reason — to an
independent request with ``seed = s + i``, across every serving
configuration: dense and paged KV, voting and H2O eviction, chunked
and whole-prompt prefill, and all three preemption modes.  What forking
buys is *memory*, which the report must expose: a family's peak block
usage stays strictly below ``width x`` the single-sample run because
prompt blocks are shared copy-on-write, and the co-simulator prices
dense forks' slab copies while paged CoW forks are free.

Beam search is checked against ground truth: with ``beam_width >=
vocab ** max_new_tokens`` the beam can never prune the optimal path, so
it must recover the exhaustive-search argmax continuation exactly.
"""

import itertools

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.policies import H2OPolicy, VotingPolicy
from repro.core.sampling import temperature_sampler
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler, ServingCoSimulator

N_BRANCHES = 3


def policy_factory(model, policy):
    if policy == "voting":
        return lambda: VotingPolicy(model.config.n_layers, reserved_length=4)
    return lambda: H2OPolicy(model.config.n_layers, recent_window=4)


def family_requests(model, n_roots=2, n=N_BRANCHES, budget=None, eos=5):
    """Fork-family requests with distinct prompts and staggered arrivals."""
    rng = np.random.default_rng(5)
    vocab = model.config.vocab_size
    return [
        Request(
            f"fam{i}",
            rng.integers(0, vocab, size=int(rng.integers(10, 18))),
            max_new_tokens=6,
            arrival_time=i,
            eos=eos,
            seed=10 * (i + 1),
            budget=budget,
            n=n,
        )
        for i in range(n_roots)
    ]


def independent_twins(requests):
    """One plain request per branch: same prompt, seed shifted by the
    branch index — the stream the forked branch must reproduce."""
    return [
        Request(
            f"{r.request_id}~{i}",
            r.prompt,
            max_new_tokens=r.max_new_tokens,
            arrival_time=r.arrival_time,
            eos=r.eos,
            seed=r.seed + i,
            budget=r.budget,
        )
        for r in requests
        for i in range(r.n)
    ]


def branch_id(request, index):
    """Branch 0 is the root itself; later branches get ``#i`` suffixes."""
    return (
        request.request_id
        if index == 0
        else f"{request.request_id}#{index}"
    )


def outcome(scheduler, request_id):
    """Everything observable about one retired sequence."""
    for state in scheduler.results():
        if state.request_id == request_id:
            return (
                tuple(state.tokens),
                tuple(tuple(e) for e in state.evictions),
                tuple(state.cache_lengths),
                state.finish_reason,
            )
    raise AssertionError(f"request {request_id!r} did not retire")


class TestDifferentialForkJoin:
    """The headline matrix: fork == independent, everywhere."""

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("policy", ["voting", "h2o"])
    @pytest.mark.parametrize("chunk", [None, 4])
    @pytest.mark.parametrize(
        "preempt,budget",
        [("off", 12), ("recompute", None), ("swap", 12)],
    )
    def test_forked_sampling_matches_independent_requests(
        self, model, serve_requests, paged, policy, chunk, preempt, budget
    ):
        requests = family_requests(model, budget=budget)
        kwargs = dict(
            policy_factory=policy_factory(model, policy),
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
            prefill_chunk=chunk,
            preempt=preempt,
            paged=paged,
            block_size=4,
        )
        forked, report = serve_requests(model, requests, **kwargs)
        singles, _ = serve_requests(model, independent_twins(requests), **kwargs)

        assert report.forks == sum(r.n - 1 for r in requests)
        for request in requests:
            for i in range(request.n):
                assert outcome(forked, branch_id(request, i)) == outcome(
                    singles, f"{request.request_id}~{i}"
                ), (
                    f"branch {i} of {request.request_id!r} diverged from "
                    f"its independent twin under {paged=} {policy=} "
                    f"{chunk=} {preempt=}"
                )

    def test_samples_for_returns_branch_ordered_streams(
        self, model, serve_requests
    ):
        requests = family_requests(model, n_roots=1)
        scheduler, _ = serve_requests(
            model,
            requests,
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
            paged=True,
            block_size=4,
        )
        (request,) = requests
        samples = scheduler.samples_for(request.request_id)
        assert len(samples) == request.n
        for i, sample in enumerate(samples):
            assert sample == scheduler.tokens_for(branch_id(request, i))

    def test_fork_survives_preemption_pressure(self, model, serve_requests):
        """An undersized fixed pool forces real swap preemptions; the
        differential contract holds anyway (swap restores bit-exactly),
        and every block drains back to the pool."""
        requests = [
            Request(
                r.request_id,
                r.prompt,
                max_new_tokens=10,
                eos=None,
                seed=r.seed,
                budget=r.budget,
                n=r.n,
            )
            for r in family_requests(model, n_roots=3, budget=12)
        ]
        kwargs = dict(
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
            preempt="swap",
            paged=True,
            block_size=4,
        )
        probe = Scheduler(model, **kwargs)
        worst = max(
            probe.manager.sequence_worst_blocks(
                r.prompt.shape[0], r.max_new_tokens, r.budget
            )
            for r in requests
        )
        # The submit-time minimum: exactly one worst-case family fits,
        # so two-way over-commitment must stall and preempt.
        forked, report = serve_requests(
            model,
            requests,
            num_blocks=worst * N_BRANCHES,
            prefix_caching=False,
            **kwargs,
        )
        singles, _ = serve_requests(
            model, independent_twins(requests), **kwargs
        )
        assert report.preemptions > 0
        for request in requests:
            for i in range(request.n):
                assert outcome(forked, branch_id(request, i)) == outcome(
                    singles, f"{request.request_id}~{i}"
                )
        pool = forked.manager.block_pool
        assert pool.num_free == pool.num_blocks


class TestSharedPromptMemory:
    """Forking must be visibly cheaper than independent serving."""

    def test_family_peak_blocks_below_scaled_single(
        self, model, serve_requests
    ):
        width = 4
        requests = family_requests(model, n_roots=2, n=1, eos=None)
        kwargs = dict(
            sampler=temperature_sampler(0.8),
            max_batch_size=2 * width,
            paged=True,
            block_size=4,
        )
        _, single = serve_requests(model, requests, **kwargs)
        forked_requests = [
            Request(
                r.request_id,
                r.prompt,
                max_new_tokens=r.max_new_tokens,
                arrival_time=r.arrival_time,
                seed=r.seed,
                n=width,
            )
            for r in requests
        ]
        _, forked = serve_requests(model, forked_requests, **kwargs)
        assert forked.forks == 2 * (width - 1)
        assert forked.fork_shared_blocks > 0
        assert forked.peak_blocks < width * single.peak_blocks
        assert forked.fork_copied_slots == 0  # paged forks copy nothing

    def test_dense_forks_copy_slots(self, model, serve_requests):
        requests = family_requests(model, n_roots=1)
        _, report = serve_requests(
            model,
            requests,
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
        )
        (request,) = requests
        # Each fork copies at least the prompt's KV rows.
        assert report.fork_copied_slots >= (request.n - 1) * (
            request.prompt.shape[0]
        )
        assert report.fork_shared_blocks == 0


class TestCoSimForkPricing:
    def test_paged_forks_free_dense_forks_priced(self, model, serve_requests):
        requests = family_requests(model, n_roots=1, eos=None)
        kwargs = dict(
            sampler=temperature_sampler(0.8),
            max_batch_size=8,
        )
        dense_sched, dense_report = serve_requests(model, requests, **kwargs)
        paged_sched, _ = serve_requests(
            model, requests, paged=True, block_size=4,
            prefix_caching=False, **kwargs
        )
        dense = ServingCoSimulator(dense_sched).replay()
        paged = ServingCoSimulator(paged_sched).replay()
        assert dense.fork_events == paged.fork_events == dense_report.forks
        assert paged.fork_cycles == 0 and paged.fork_bytes == 0
        assert dense.fork_cycles > 0 and dense.fork_bytes > 0
        # Identical model work (tokens are bit-identical): the dense
        # trace's extra cycles are exactly its fork copies.
        assert dense.total_cycles == pytest.approx(
            paged.total_cycles + dense.fork_cycles
        )


class TestBeamSearch:
    def test_beam_recovers_exhaustive_argmax(self):
        """With the beam wide enough to hold every continuation, beam
        search IS exhaustive search; pinned as the decoding-correctness
        regression."""
        config = tiny_config(vocab_size=3, d_model=16, d_ff=32)
        model = CachedTransformer.from_module(TransformerLM(config, seed=3))
        prompt = np.array([0, 1, 2, 1])
        steps = 3
        width = config.vocab_size**steps  # 27: nothing can be pruned
        scheduler = Scheduler(model, max_batch_size=width + 1)
        scheduler.submit(
            Request("beam", prompt, max_new_tokens=steps, beam_width=width)
        )
        scheduler.run()
        tokens, score = scheduler.beam_result_for("beam")

        def normalized(logits):
            peak = logits.max()
            return logits - (peak + np.log(np.exp(logits - peak).sum()))

        best_tokens, best_score = None, -np.inf
        for continuation in itertools.product(
            range(config.vocab_size), repeat=steps
        ):
            cache = model.new_cache()
            result = model.prefill(prompt, cache)
            position = prompt.shape[0]
            total = 0.0
            for token in continuation:
                total += float(normalized(result.logits)[token])
                result = model.step(token, position, cache)
                position += 1
            if total > best_score:
                best_tokens, best_score = list(continuation), total
        assert tokens == best_tokens
        assert score == pytest.approx(best_score)

    def test_beam_prunes_through_the_join_path(self, model, serve_requests):
        rng = np.random.default_rng(8)
        request = Request(
            "b0",
            rng.integers(0, model.config.vocab_size, size=12),
            max_new_tokens=6,
            beam_width=4,
        )
        scheduler, report = serve_requests(
            model, [request], max_batch_size=8, paged=True, block_size=4
        )
        tokens, score = scheduler.beam_result_for("b0")
        assert len(tokens) == 6
        assert score < 0.0
        assert report.forks > 0
        # Pruned losers are counted as joins, not as plain finishes.
        assert report.joins == sum(
            1
            for s in scheduler.results()
            if s.finish_reason == "beam_pruned"
        )
        pool = scheduler.manager.block_pool
        scheduler.manager.clear_prefix_cache()
        assert pool.num_free == pool.num_blocks

    def test_beam_matches_across_dense_and_paged(self, model, serve_requests):
        rng = np.random.default_rng(9)
        request = Request(
            "b0",
            rng.integers(0, model.config.vocab_size, size=14),
            max_new_tokens=5,
            beam_width=3,
        )
        dense, _ = serve_requests(model, [request], max_batch_size=6)
        paged, _ = serve_requests(
            model, [request], max_batch_size=6, paged=True, block_size=4
        )
        assert dense.beam_result_for("b0") == paged.beam_result_for("b0")

    @staticmethod
    def family_checks_per_round(model, drained):
        """Serve ``drained`` beam requests to completion, then one live
        beam family beside a plain request; returns how many times each
        of the latter rounds asked for a family's live branches."""
        vocab = model.config.vocab_size
        rng = np.random.default_rng(10)
        scheduler = Scheduler(model, max_batch_size=4, paged=True, block_size=4)
        for i in range(drained):
            scheduler.submit(
                Request(f"d{i}", rng.integers(0, vocab, size=6),
                        max_new_tokens=2, beam_width=2)
            )
        scheduler.run()
        rng = np.random.default_rng(11)
        scheduler.submit(
            Request("live", rng.integers(0, vocab, size=8), max_new_tokens=4,
                    beam_width=2)
        )
        scheduler.submit(Request("plain", rng.integers(0, vocab, size=8),
                                 max_new_tokens=6))
        checks = []
        family_live = scheduler.families.live

        def counted(family):
            checks[-1] += 1
            return family_live(family)

        scheduler.families.live = counted
        while not scheduler.done:
            checks.append(0)
            scheduler.run_round()
        return checks, scheduler.samples_for("d0")

    def test_family_walks_skip_drained_families(self, model):
        """A round's family walks visit the families still live: the
        checks per round are the same after 1 or 12 drained beam
        requests, and a drained family's result stays readable."""
        one, _ = self.family_checks_per_round(model, 1)
        many, samples = self.family_checks_per_round(model, 12)
        assert many == one
        assert all(len(tokens) == 2 for tokens in samples)


class TestSubmitValidation:
    def test_fork_family_rejects_draft_model(self, model, draft_inference):
        scheduler = Scheduler(model, draft_model=draft_inference)
        with pytest.raises(ValueError, match="speculative"):
            scheduler.submit(
                Request("r0", np.arange(8), max_new_tokens=4, n=2)
            )

    def test_family_wider_than_batch_rejected(self, model):
        scheduler = Scheduler(model, max_batch_size=3)
        with pytest.raises(ValueError, match="batch slots"):
            scheduler.submit(
                Request("r0", np.arange(8), max_new_tokens=4, beam_width=4)
            )

    def test_fixed_pool_scales_worst_case_by_branches(self, model):
        """A family that fits per-branch but not width-times-over is
        rejected up front instead of deadlocking the pool."""
        kwargs = dict(paged=True, block_size=4, max_batch_size=8)
        probe = Scheduler(model, **kwargs)
        worst = probe.manager.sequence_worst_blocks(8, 4, None)
        scheduler = Scheduler(model, num_blocks=2 * worst, **kwargs)
        scheduler.submit(Request("ok", np.arange(8), max_new_tokens=4))
        with pytest.raises(ValueError, match="blocks"):
            scheduler.submit(
                Request("fam", np.arange(8), max_new_tokens=4, n=3)
            )
        report = scheduler.report()
        assert [r["request_id"] for r in report.rejections] == ["fam"]

    @pytest.mark.parametrize("paged", [False, True], ids=["dense", "paged"])
    @pytest.mark.parametrize("family_first", [True, False])
    @pytest.mark.parametrize(
        "mode,plain_id",
        # Beam families mint branch ids past their width, so the whole
        # ``<family id>#<int>`` namespace is reserved, not just 1..w-1.
        [("sample", "a#1"), ("beam", "a#7")],
    )
    def test_branch_namespace_ids_rejected(
        self, model, paged, family_first, mode, plain_id
    ):
        """A plain id in a family's branch namespace collides with the
        ids its forks mint, whichever is submitted first; it is refused
        at submit instead of raising inside the first round."""
        width = {"n": 2} if mode == "sample" else {"beam_width": 2}
        family = Request("a", np.arange(6), max_new_tokens=4, **width)
        plain = Request(plain_id, np.arange(6), max_new_tokens=4)
        first, second = (family, plain) if family_first else (plain, family)
        scheduler = Scheduler(model, max_batch_size=4, paged=paged, block_size=4)
        scheduler.submit(first)
        with pytest.raises(KeyError, match="duplicate"):
            scheduler.submit(second)
        scheduler.run()
        assert scheduler.done
        if first is plain:
            assert len(scheduler.tokens_for(plain_id)) == 4
        elif mode == "sample":
            assert len(scheduler.samples_for("a")) == 2
        else:
            assert len(scheduler.beam_result_for("a")[0]) == 4


class TestLengthPenalty:
    """GNMT-style length normalization: rank finished hypotheses by
    ``cum_logprob / len ** alpha``.  Raw scores are still what the
    scheduler accumulates — normalization is a rank-time transform — so
    ``alpha=0`` is bit-identical to unpenalized beam search."""

    STEPS, EOS, WIDTH = 3, 1, 27  # width = vocab**steps: nothing pruned

    @staticmethod
    def _tiny3(seed=3):
        config = tiny_config(vocab_size=3, d_model=16, d_ff=32)
        return CachedTransformer.from_module(TransformerLM(config, seed=seed))

    def _beam(self, model, alpha):
        scheduler = Scheduler(model, max_batch_size=self.WIDTH + 1)
        scheduler.submit(
            Request(
                "beam",
                np.array([0, 1, 2, 1]),
                max_new_tokens=self.STEPS,
                beam_width=self.WIDTH,
                eos=self.EOS,
                length_penalty=alpha,
            )
        )
        scheduler.run()
        return scheduler

    def _oracle(self, model, prompt, alpha):
        """Exhaustive search over every *terminated* continuation
        (EOS-ended early, or full length with no interior EOS), ranked
        by the normalized score; returns (tokens, raw score)."""

        def normalized(logits):
            peak = logits.max()
            return logits - (peak + np.log(np.exp(logits - peak).sum()))

        vocab = model.config.vocab_size
        best, best_rank, best_raw = None, -np.inf, -np.inf
        for length in range(1, self.STEPS + 1):
            for seq in itertools.product(range(vocab), repeat=length):
                if any(t == self.EOS for t in seq[:-1]):
                    continue
                if length < self.STEPS and seq[-1] != self.EOS:
                    continue
                cache = model.new_cache()
                result = model.prefill(prompt, cache)
                position = prompt.shape[0]
                total = 0.0
                for token in seq:
                    total += float(normalized(result.logits)[token])
                    result = model.step(token, position, cache)
                    position += 1
                rank = total if alpha == 0 else total / length**alpha
                if rank > best_rank:
                    best, best_rank, best_raw = list(seq), rank, total
        return best, best_raw

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 3.0])
    def test_oracle_recovers_normalized_argmax(self, alpha):
        """With the beam wide enough to hold every continuation, the
        ranked winner must be the exhaustive normalized argmax; the
        reported score stays the *raw* cumulative logprob."""
        model = self._tiny3()
        scheduler = self._beam(model, alpha)
        tokens, score = scheduler.beam_result_for("beam")
        best, best_raw = self._oracle(model, np.array([0, 1, 2, 1]), alpha)
        assert tokens == best
        assert score == pytest.approx(best_raw)
        # Different-length finished hypotheses exist, so normalization
        # was actually exercised (not vacuous).
        lengths = {
            len(s.tokens)
            for s in scheduler.results()
            if s.finish_reason == "eos"
        }
        assert len(lengths) > 1

    def test_penalty_changes_the_winner(self):
        """For this untrained model the raw argmax is immediate EOS;
        normalizing by length promotes a full-length hypothesis — the
        knob observably does something."""
        model = self._tiny3()
        short, _ = self._beam(model, 0.0).beam_result_for("beam")
        long, _ = self._beam(model, 3.0).beam_result_for("beam")
        assert len(short) < len(long)

    def test_alpha_zero_is_bit_identical_to_default(self, model):
        rng = np.random.default_rng(12)
        prompt = rng.integers(0, model.config.vocab_size, size=10)

        def run(**extra):
            scheduler = Scheduler(model, max_batch_size=8)
            scheduler.submit(
                Request(
                    "b0", prompt, max_new_tokens=5, beam_width=3, **extra
                )
            )
            scheduler.run()
            return (
                scheduler.beam_result_for("b0"),
                [(s.tokens, s.finish_reason) for s in scheduler.results()],
            )

        assert run(length_penalty=0.0) == run()

    def test_penalized_beam_matches_across_dense_and_paged(self, model):
        rng = np.random.default_rng(13)
        request = Request(
            "b0",
            rng.integers(0, model.config.vocab_size, size=12),
            max_new_tokens=5,
            beam_width=3,
            eos=5,
            length_penalty=0.8,
        )
        dense = Scheduler(model, max_batch_size=6)
        dense.submit(request)
        dense.run()
        paged = Scheduler(model, max_batch_size=6, paged=True, block_size=4)
        paged.submit(request)
        paged.run()
        assert dense.beam_result_for("b0") == paged.beam_result_for("b0")

    def test_validation_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="length_penalty"):
            Request("r0", np.arange(6), max_new_tokens=2, length_penalty=-0.5)
        with pytest.raises(ValueError, match="length_penalty"):
            Request(
                "r0", np.arange(6), max_new_tokens=2, length_penalty=np.nan
            )

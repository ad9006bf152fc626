"""Async serving engine: streaming submission, handles, SLA admission.

The engine's contract splits in two: *what* is generated is pinned by the
scheduler's equivalence guarantees (streamed submissions produce exactly
the tokens of a pre-submitted run — and of solo decode), while *when*
things happen is the engine's own behaviour under test here: streaming
handles, incremental retrieval, admission ordering under contention,
structured rejections with a retry path, and TTFT/deadline metrics end
to end (rounds in the report, cycles in the co-simulation).
"""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.core.engine import GenerationEngine, budget_from_ratio
from repro.core.policies import VotingPolicy
from repro.experiments.serving import make_workload
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import (
    EDFAdmission,
    FIFOAdmission,
    PriorityAdmission,
    Request,
    Scheduler,
    ServingEngine,
    make_admission,
)


@pytest.fixture(scope="module")
def model():
    return CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))


def make_requests(model, count, seed=3, arrival=lambda i: 0, **extra):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        prompt_len = int(rng.integers(12, 32))
        requests.append(
            Request(
                request_id=f"req-{i}",
                prompt=rng.integers(0, model.config.vocab_size, size=prompt_len),
                max_new_tokens=int(rng.integers(5, 10)),
                arrival_time=arrival(i),
                seed=i,
                budget=budget_from_ratio(0.5, prompt_len, minimum=8),
                **extra,
            )
        )
    return requests


class TestStreamingSubmission:
    def test_streamed_tokens_match_presubmitted_run(self, model):
        """Submitting requests mid-loop produces exactly the tokens of
        the batch-mode scheduler run on the same workload."""
        requests = make_requests(model, 5, arrival=lambda i: 3 * i)
        scheduler = Scheduler(model, max_batch_size=3)
        for request in requests:
            scheduler.submit(
                Request(
                    request_id=request.request_id,
                    prompt=request.prompt,
                    max_new_tokens=request.max_new_tokens,
                    arrival_time=request.arrival_time,
                    seed=request.seed,
                    budget=request.budget,
                )
            )
        scheduler.run()

        engine = ServingEngine(model, max_batch_size=3)
        loop = engine.run_forever()
        pending = sorted(requests, key=lambda r: r.arrival_time)
        handles = []
        index = 0
        while index < len(pending) or not engine.drained:
            while (
                index < len(pending)
                and pending[index].arrival_time <= engine.now
            ):
                handles.append(engine.submit(pending[index]))
                index += 1
            next(loop)
        for handle in handles:
            assert handle.result() == scheduler.tokens_for(handle.request_id)

    def test_incremental_retrieval_and_status_transitions(self, model):
        """Handles stream tokens as they are produced and walk the
        queued -> prefilling -> running -> finished lifecycle."""
        engine = ServingEngine(model, prefill_chunk=4, max_batch_size=2)
        request = make_requests(model, 1)[0]
        handle = engine.submit(request)
        assert handle.status in ("queued", "prefilling")
        seen_prefilling = False
        streamed = []
        while not handle.done:
            if handle.status == "prefilling":
                seen_prefilling = True
                assert handle.tokens == []
            engine.step()
            streamed.extend(handle.new_tokens())
        assert seen_prefilling
        assert streamed == handle.result() == handle.tokens
        assert handle.new_tokens() == []  # cursor consumed everything
        assert handle.status == "finished"
        assert handle.finish_reason in ("length", "eos")

    def test_past_arrivals_are_bumped_to_now(self, model):
        """A request cannot arrive in the past: wait/TTFT metrics stay
        non-negative for late submissions."""
        engine = ServingEngine(model, max_batch_size=2)
        first = engine.submit(make_requests(model, 1)[0])
        for _ in range(4):
            engine.step()
        late = make_requests(model, 2, seed=8)[1]
        late.request_id = "late"
        assert late.arrival_time == 0
        handle = engine.submit(late)
        assert handle.request.arrival_time == engine.now
        engine.run_until_drained()
        report = engine.report()
        for row in report.requests:
            assert row["wait_rounds"] >= 0
            assert row["ttft_rounds"] >= 0
        assert first.done and handle.done

    def test_play_accepts_a_generator(self, model):
        """play() must not lose handles when fed a one-shot iterable."""
        requests = make_requests(model, 3)
        engine = ServingEngine(model, max_batch_size=2)
        handles = engine.play(r for r in requests)
        assert [h.request_id for h in handles] == [r.request_id for r in requests]
        assert all(h.done for h in handles)

    def test_play_runs_workload_to_completion(self, model):
        """play() feeds a pre-timed arrival stream through the streaming
        path and drains it."""
        workload = make_workload(
            n_requests=5,
            arrival="bursty",
            prompt_dist="lognormal",
            deadline_slack=2.0,
            vocab=model.config.vocab_size,
            seed=1,
        )
        engine = ServingEngine(model, admission="edf", prefill_chunk=8,
                               max_batch_size=3)
        handles = engine.play(workload)
        assert [h.request_id for h in handles] == [r.request_id for r in workload]
        assert all(h.done for h in handles)
        report = engine.report()
        assert len(report.requests) == len(workload)
        assert report.mean_ttft >= 0
        assert {row["deadline"] is not None for row in report.requests} == {True}


class TestRejectionPath:
    def test_rejection_is_structured_and_retryable(self, model):
        """An unsatisfiable paged request yields a rejected handle with
        the structured reason; a shrunk resubmission under the same id
        is accepted (the degrade path the issue asks for)."""
        engine = ServingEngine(
            model, paged=True, block_size=4, num_blocks=6, max_batch_size=2
        )
        big = Request("big", np.arange(1, 40), max_new_tokens=30, seed=0)
        handle = engine.submit(big)
        assert handle.status == "rejected"
        assert handle.done
        assert handle.rejection.reason == "pool_too_small"
        assert handle.rejection.needed_blocks > handle.rejection.pool_blocks
        with pytest.raises(RuntimeError, match="rejected"):
            handle.result()

        # Unbudgeted so the whole trajectory (7 prompt + 4 decode + 1)
        # fits the 6-block pool exactly; a *budgeted* retry would now be
        # honestly rejected, since the shrink-to-budget eviction can
        # copy-on-write the prefix-registered prompt blocks on top of
        # the table peak (the accounting the resource manager added).
        retry = Request("big", np.arange(1, 8), max_new_tokens=4, seed=0)
        retry_handle = engine.submit(retry)
        assert retry_handle.status != "rejected"
        engine.run_until_drained()
        assert retry_handle.result() == engine.tokens_for("big")

        report = engine.report()
        assert len(report.rejections) == 1
        row = report.rejections[0]
        assert row["request_id"] == "big"
        assert row["reason"] == "pool_too_small"
        assert row["needed_blocks"] > row["pool_blocks"]
        assert report.summary()["rejected"] == 1

    def test_scheduler_strict_mode_still_raises_but_records(self, model):
        """The legacy strict submit keeps raising — and now also leaves
        the structured record in the report."""
        scheduler = Scheduler(
            model, paged=True, block_size=4, num_blocks=4, max_batch_size=2
        )
        with pytest.raises(ValueError, match="blocks"):
            scheduler.submit(Request("big", np.arange(1, 9), max_new_tokens=8))
        assert scheduler.report().rejections[0]["reason"] == "pool_too_small"


    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize(
        "prompt, max_new, reason",
        [
            ([3, -1, 5], 4, "invalid_token"),
            ([3, tiny_config().vocab_size, 5], 4, "invalid_token"),
            (list(range(1, 21)), tiny_config().max_seq_len, "exceeds_max_seq_len"),
        ],
    )
    def test_unservable_request_is_rejected_at_submit(
        self, model, paged, prompt, max_new, reason
    ):
        """A token outside the vocabulary or a sequence beyond
        ``max_seq_len`` used to pass ``submit`` and fail (or, for a
        negative id, silently read ``embed[-k]``) inside a later round,
        stranding the batch.  It is refused up front, and the neighbour
        submitted alongside still finishes with the solo oracle's
        tokens."""
        engine = ServingEngine(
            model,
            policy_factory=lambda: VotingPolicy(
                model.config.n_layers, reserved_length=4
            ),
            paged=paged,
            max_batch_size=2,
        )
        (good,) = make_requests(model, 1)
        bad = Request("bad", np.asarray(prompt), max_new_tokens=max_new)
        good_handle = engine.submit(good)
        bad_handle = engine.submit(bad)
        assert bad_handle.status == "rejected"
        assert bad_handle.rejection.reason == reason
        engine.run_until_drained()

        solo = GenerationEngine(
            model,
            VotingPolicy(model.config.n_layers, reserved_length=4),
            budget=good.budget,
        ).generate(good.prompt, good.max_new_tokens, seed=good.seed)
        assert good_handle.result() == solo.tokens
        report = engine.report()
        assert [row["reason"] for row in report.rejections] == [reason]
        assert report.summary()["rejected"] == 1

        with pytest.raises(ValueError, match="bad"):
            engine.scheduler.submit(bad)  # strict mode raises, and records
        assert len(engine.report().rejections) == 2

    def test_longest_servable_request_is_accepted(self, model):
        """``prompt + max_new_tokens == max_seq_len`` is the boundary the
        RoPE table still covers."""
        limit = model.config.max_seq_len
        engine = ServingEngine(model)
        handle = engine.submit(
            Request("edge", np.arange(1, 21), max_new_tokens=limit - 20)
        )
        engine.run_until_drained()
        assert len(handle.result()) == limit - 20


class TestAdmissionOrdering:
    def _contended(self, model, engine, deadlines=None, priorities=None):
        """Four same-shape requests arriving at once into a 1-slot batch:
        admission order is purely the policy's choice."""
        rng = np.random.default_rng(0)
        prompt = rng.integers(0, model.config.vocab_size, size=12)
        handles = []
        for i in range(4):
            handles.append(
                engine.submit(
                    Request(
                        request_id=f"r{i}",
                        prompt=prompt,
                        max_new_tokens=3,
                        deadline=None if deadlines is None else deadlines[i],
                        priority=0 if priorities is None else priorities[i],
                        seed=i,
                    )
                )
            )
        engine.run_until_drained()
        report = engine.report()
        admitted_at = {row["request_id"]: row["admitted"] for row in report.requests}
        return handles, admitted_at

    def test_edf_admits_in_deadline_order(self, model):
        engine = ServingEngine(model, admission="edf", max_batch_size=1)
        deadlines = [40, 10, 30, 20]
        _, admitted_at = self._contended(model, engine, deadlines=deadlines)
        order = sorted(admitted_at, key=admitted_at.get)
        assert order == ["r1", "r3", "r2", "r0"]

    def test_priority_admits_high_first(self, model):
        engine = ServingEngine(
            model, admission=PriorityAdmission(aging=0.0), max_batch_size=1
        )
        _, admitted_at = self._contended(model, engine, priorities=[0, 5, 2, 5])
        order = sorted(admitted_at, key=admitted_at.get)
        assert order[:2] == ["r1", "r3"]  # ties broken by submit order
        assert order[2:] == ["r2", "r0"]

    def test_fifo_default_matches_plain_scheduler(self, model):
        """FIFO admission is the scheduler default: same admission
        rounds either way."""
        requests = make_requests(model, 4, arrival=lambda i: i)
        plain = Scheduler(model, max_batch_size=2)
        for r in requests:
            plain.submit(
                Request(r.request_id, r.prompt, r.max_new_tokens,
                        arrival_time=r.arrival_time, seed=r.seed,
                        budget=r.budget)
            )
        plain_report = plain.run()
        engine = ServingEngine(model, admission="fifo", max_batch_size=2)
        engine.play(requests)
        engine_report = engine.report()
        plain_rows = {r["request_id"]: r["admitted"] for r in plain_report.requests}
        engine_rows = {r["request_id"]: r["admitted"] for r in engine_report.requests}
        assert plain_rows == engine_rows

    def test_make_admission_factory(self):
        assert isinstance(make_admission("fifo"), FIFOAdmission)
        assert isinstance(make_admission("edf"), EDFAdmission)
        policy = make_admission("priority", aging=0.25)
        assert isinstance(policy, PriorityAdmission) and policy.aging == 0.25
        with pytest.raises(KeyError):
            make_admission("lifo")
        with pytest.raises(ValueError):
            PriorityAdmission(aging=-1)


class TestEngineMetrics:
    def test_ttft_and_deadline_metrics_end_to_end(self, model):
        """Deadline misses show up in rows, aggregates, and summary; a
        generously-slack workload has none."""
        tight = make_requests(model, 3, deadline=1)  # impossible deadlines
        for i, request in enumerate(tight):
            request.arrival_time = 0
            request.deadline = 1
        engine = ServingEngine(model, max_batch_size=1)
        for request in tight:
            engine.submit(request)
        engine.run_until_drained()
        report = engine.report()
        assert report.deadline_misses >= 2
        assert 0 < report.deadline_miss_rate <= 1
        assert report.summary()["deadline_miss_rate"] == report.deadline_miss_rate
        for row in report.requests:
            assert row["deadline_miss"] == (row["finished"] > row["deadline"])
            assert row["ttft_rounds"] == row["first_token"] - row["arrival"]

    def test_cosim_reports_ttft_cycles(self, model):
        """The engine's trace prices TTFT in cycles for every request."""
        engine = ServingEngine(model, prefill_chunk=6, max_batch_size=2)
        requests = make_requests(model, 3, arrival=lambda i: 2 * i)
        for request in requests:
            engine.submit(request)
        engine.run_until_drained()
        hw = engine.cosim()
        assert set(hw.ttft_cycles) == {r.request_id for r in requests}
        assert all(v > 0 for v in hw.ttft_cycles.values())
        assert hw.summary()["mean_ttft_cycles"] == hw.mean_ttft_cycles

    def test_tick_stream_accounts_every_token(self, model):
        """EngineTick admitted/finished/tokens reconcile with the final
        report."""
        engine = ServingEngine(model, prefill_chunk=5, max_batch_size=2)
        requests = make_requests(model, 3)
        for request in requests:
            engine.submit(request)
        ticks = engine.run_until_drained()
        produced = sum(t.produced for t in ticks)
        admitted = [rid for t in ticks for rid in t.admitted]
        finished = [rid for t in ticks for rid in t.finished]
        report = engine.report()
        assert produced == report.total_tokens
        assert sorted(admitted) == sorted(r.request_id for r in requests)
        assert sorted(finished) == sorted(r.request_id for r in requests)


class TestRicherWorkloads:
    def test_default_workload_unchanged(self, model):
        """The extended generator reproduces the legacy trace bit-for-bit
        at default settings (artifact stability)."""
        workload = make_workload(n_requests=4, seed=0)
        assert [r.request_id for r in workload] == [f"req-{i}" for i in range(4)]
        assert all(r.deadline is None and r.priority == 0 for r in workload)
        # Regenerate: deterministic.
        again = make_workload(n_requests=4, seed=0)
        for a, b in zip(workload, again):
            assert np.array_equal(a.prompt, b.prompt)
            assert a.arrival_time == b.arrival_time

    @pytest.mark.parametrize("dist", ["lognormal", "zipf"])
    def test_heavy_tailed_prompts_bounded(self, dist):
        workload = make_workload(
            n_requests=64, prompt_dist=dist, shared_prefix=0, seed=2
        )
        lengths = [r.prompt.shape[0] for r in workload]
        assert min(lengths) >= 12
        assert max(lengths) <= 4 * 48
        assert len(set(lengths)) > 4

    def test_bursty_arrivals_cluster(self):
        workload = make_workload(
            n_requests=16, arrival="bursty", burst_size=4, seed=3
        )
        arrivals = [r.arrival_time for r in workload]
        for start in range(0, 16, 4):
            assert len(set(arrivals[start : start + 4])) == 1
        assert len(set(arrivals)) >= 3

    def test_poisson_arrivals_can_coincide(self):
        workload = make_workload(n_requests=32, arrival="poisson",
                                 mean_interarrival=1.0, seed=4)
        arrivals = [r.arrival_time for r in workload]
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) < len(arrivals)  # simultaneous arrivals

    def test_deadlines_and_priorities(self):
        workload = make_workload(
            n_requests=12, deadline_slack=1.5, priority_levels=3, seed=5
        )
        for request in workload:
            assert request.deadline >= request.arrival_time
        assert {r.priority for r in workload} <= {0, 1, 2}
        assert len({r.priority for r in workload}) > 1

    def test_multi_turn_conversations_share_prefixes(self, model):
        """Turn t's prompt starts with turn t-1's whole prompt, and the
        re-hit shows up as prefix-cache hits in a paged serve."""
        workload = make_workload(
            n_requests=2, turns=3, vocab=model.config.vocab_size, seed=6
        )
        assert len(workload) == 6
        by_conv = {}
        for request in workload:
            conv = str(request.request_id).split(".")[0]
            by_conv.setdefault(conv, []).append(request)
        for conv_requests in by_conv.values():
            assert len(conv_requests) == 3
            for prev, nxt in zip(conv_requests, conv_requests[1:]):
                assert nxt.arrival_time > prev.arrival_time
                assert nxt.prompt.shape[0] > prev.prompt.shape[0]
                assert np.array_equal(
                    nxt.prompt[: prev.prompt.shape[0]], prev.prompt
                )
        engine = ServingEngine(model, paged=True, block_size=4,
                               max_batch_size=2)
        engine.play(workload)
        report = engine.report()
        assert report.prefix_hits > 0
        assert report.prefix_tokens_hit > 0

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            make_workload(prompt_dist="pareto")
        with pytest.raises(ValueError):
            make_workload(arrival="uniform")
        with pytest.raises(ValueError):
            make_workload(deadline_slack=0)
        with pytest.raises(ValueError):
            make_workload(turns=0)

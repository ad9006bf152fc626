"""Two-way scheduling: preemption, KV swapping, and the resource manager.

The contract under test, per mode:

- ``preempt="off"`` is the baseline: with capacity to spare all three
  modes are bit-identical (tokens, eviction logs, traces) — the
  KVResourceManager refactor must not change one-way scheduling.
- ``preempt="swap"`` is *always* bit-exact: a swapped-out sequence's KV
  blocks and eviction state are restored exactly, so its tokens match
  the never-preempted run even when preemptions fire.
- ``preempt="recompute"`` is bit-exact for sequences without a KV
  budget (prefill rebuilds the same cache the decode built); under a
  budget it is deterministic but may diverge (restart semantics).
- Under the overload preset both preempting modes retire 100% of the
  burst within a horizon at which one-way scheduling has not.
"""

import numpy as np
import pytest

from repro.core.policies.h2o import H2OPolicy
from repro.core.policies.extensions import TOVAPolicy
from repro.core.policies.voting import VotingPolicy
from repro.experiments import serving
from repro.serve import (
    EDFAdmission,
    Request,
    Scheduler,
    ServingCoSimulator,
    ServingEngine,
)


def make_requests(n=4, prompt_len=20, max_new=8, budget=None, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Request(
            f"r{i}",
            rng.integers(0, 64, size=prompt_len + int(rng.integers(0, 8))),
            max_new_tokens=max_new,
            arrival_time=int(rng.integers(0, 4)),
            seed=i,
            budget=budget,
        )
        for i in range(n)
    ]


def serve(model, requests, preempt, **kwargs):
    scheduler = Scheduler(model, preempt=preempt, **kwargs)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


def tokens_and_evictions(scheduler, requests):
    return {
        r.request_id: (
            tuple(scheduler.tokens_for(r.request_id)),
            tuple(
                tuple(e)
                for s in scheduler.results()
                if s.request_id == r.request_id
                for e in s.evictions
            ),
        )
        for r in requests
    }


class TestBitCompatibilityWithCapacity:
    """With capacity to spare, every preempt mode is a no-op."""

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("budget", [None, 12])
    def test_modes_identical_when_nothing_preempts(self, model, paged, budget):
        reference = None
        for mode in ("off", "recompute", "swap"):
            scheduler, report = serve(
                model,
                make_requests(budget=budget),
                preempt=mode,
                max_batch_size=4,
                paged=paged,
                block_size=4,
            )
            assert report.preemptions == 0
            outcome = tokens_and_evictions(scheduler, make_requests(budget=budget))
            trace_shape = [
                (r.round_index, r.num_prefills, r.num_decodes, r.num_swaps)
                for r in scheduler.trace
            ]
            if reference is None:
                reference = (outcome, trace_shape)
            else:
                assert outcome == reference[0]
                assert trace_shape == reference[1]

    def test_off_mode_report_has_no_preempt_summary(self, model):
        _, report = serve(model, make_requests(), preempt="off", max_batch_size=4)
        assert report.preempt == "off"
        assert "preemptions" not in report.summary()


class TestOverloadPreset:
    """The acceptance scenario: burst > pool."""

    @pytest.fixture(scope="class")
    def overload(self, model):
        workload = serving.make_workload(
            n_requests=6,
            preset="overload",
            compression_ratio=None,
            vocab=model.config.vocab_size,
            seed=0,
        )
        num_blocks = serving.overload_pool_blocks(
            workload, block_size=4, n_layers=model.config.n_layers, fraction=0.4
        )
        return workload, num_blocks

    def test_preset_actually_overloads(self, model, overload):
        workload, num_blocks = overload
        worsts = []
        for r in workload:
            capacity = r.prompt.shape[0] + r.max_new_tokens + 1
            worsts.append(-(-capacity // 4) * model.config.n_layers)
        assert max(worsts) <= num_blocks < sum(worsts)
        # One burst: every request arrives together.
        assert len({r.arrival_time for r in workload}) == 1

    def test_existing_presets_stay_bit_compatible(self, model):
        default = serving.make_workload(n_requests=4, seed=3)
        again = serving.make_workload(n_requests=4, seed=3, preset=None)
        assert [r.arrival_time for r in default] == [r.arrival_time for r in again]
        for a, b in zip(default, again):
            assert np.array_equal(a.prompt, b.prompt)
            assert (a.max_new_tokens, a.budget) == (b.max_new_tokens, b.budget)

    def test_preempting_modes_retire_everything_where_off_stalls(
        self, model, overload
    ):
        workload, num_blocks = overload
        horizons = {}
        tokens = {}
        reports = {}
        for mode in ("recompute", "swap"):
            scheduler, report = serve(
                model,
                workload,
                preempt=mode,
                max_batch_size=8,
                paged=True,
                block_size=4,
                num_blocks=num_blocks,
                prefix_caching=False,
            )
            assert scheduler.done, f"{mode} did not drain"
            assert len(report.requests) == len(workload)
            assert report.preemptions > 0, f"{mode} never preempted"
            horizons[mode] = report.total_rounds
            reports[mode] = report
            tokens[mode] = {
                r.request_id: tuple(scheduler.tokens_for(r.request_id))
                for r in workload
            }

        # One-way scheduling has not retired the burst at the horizon at
        # which both two-way modes finished it.
        horizon = max(horizons.values())
        off = Scheduler(
            model,
            preempt="off",
            max_batch_size=8,
            paged=True,
            block_size=4,
            num_blocks=num_blocks,
            prefix_caching=False,
        )
        for request in workload:
            off.submit(request)
        off_report = off.run(max_rounds=horizon)
        assert len(off_report.requests) + len(off_report.rejections) < len(
            workload
        ), "off mode kept up with the overload burst (not overloaded?)"

        # ... but scheduling never changes outputs: once off drains
        # completely, every request's tokens match both preempting modes
        # (workload is unbudgeted, so recompute is bit-exact too).
        off_report = off.run()
        assert off.done
        off_tokens = {
            r.request_id: tuple(off.tokens_for(r.request_id)) for r in workload
        }
        assert tokens["swap"] == off_tokens
        assert tokens["recompute"] == off_tokens

        # Swap traffic is visible in the report for swap mode only.
        assert reports["swap"].swap_out_blocks > 0
        assert reports["swap"].swap_outs == reports["swap"].swap_ins
        assert reports["swap"].host_peak_kv_slots > 0
        assert reports["recompute"].swap_out_blocks == 0

    def test_cosim_prices_swap_traffic_only_for_swap_mode(
        self, model, overload
    ):
        workload, num_blocks = overload
        cycles = {}
        for mode in ("off", "recompute", "swap"):
            scheduler = Scheduler(
                model,
                preempt=mode,
                max_batch_size=8,
                paged=True,
                block_size=4,
                num_blocks=num_blocks,
                prefix_caching=False,
            )
            for request in workload:
                scheduler.submit(request)
            scheduler.run()
            report = ServingCoSimulator(scheduler).replay()
            cycles[mode] = report
        assert cycles["swap"].swap_cycles > 0
        assert cycles["swap"].swap_bytes > 0
        assert cycles["swap"].swap_events > 0
        for mode in ("off", "recompute"):
            assert cycles[mode].swap_cycles == 0
            assert cycles[mode].swap_bytes == 0
            assert cycles[mode].swap_events == 0
        # Recompute's overhead is compute: it re-prefills preempted
        # sequences, so it prices more prefill cycles than swap.
        assert (
            cycles["recompute"].prefill_cycles > cycles["swap"].prefill_cycles
        )
        # Swap's summary carries the traffic; the others' stays clean.
        assert "swap_cycles" in cycles["swap"].summary()
        assert "swap_cycles" not in cycles["off"].summary()


class TestSwapExactness:
    """Swap must restore a preempted sequence bit-exactly — including
    eviction-policy state, through the snapshot hooks (voting, H2O) and
    through the retained-object fallback (TOVA)."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda n: VotingPolicy(n, reserved_length=4),
            lambda n: H2OPolicy(n, recent_window=4),
            lambda n: TOVAPolicy(n, protected_prefix=2),
        ],
        ids=["voting-snapshot", "h2o-snapshot", "tova-retained-object"],
    )
    def test_swapped_budgeted_sequences_match_off_run(self, model, factory):
        n_layers = model.config.n_layers
        rng = np.random.default_rng(7)
        # Two long budgeted background sequences plus an urgent arrival:
        # EDF preempts a background victim mid-generation, well after
        # its policy accumulated eviction state.
        workload = [
            Request(
                f"bg{i}",
                rng.integers(0, 64, size=24),
                max_new_tokens=24,
                arrival_time=0,
                seed=i,
                budget=12,
                deadline=200,
            )
            for i in range(2)
        ] + [
            Request(
                "urgent",
                np.arange(8),
                max_new_tokens=4,
                arrival_time=6,
                seed=9,
                deadline=14,
            )
        ]
        outcomes = {}
        for mode in ("off", "swap"):
            engine = ServingEngine(
                model,
                admission="edf",
                policy_factory=lambda: factory(n_layers),
                max_batch_size=2,
                paged=True,
                block_size=4,
                preempt=mode,
            )
            handles = engine.play(workload)
            report = engine.report()
            if mode == "swap":
                assert report.preemptions > 0, "scenario failed to preempt"
            outcomes[mode] = {
                h.request_id: tuple(h.result()) for h in handles
            }
        assert outcomes["swap"] == outcomes["off"]

    def test_recompute_exact_without_budget(self, model):
        rng = np.random.default_rng(3)
        workload = [
            Request(
                f"bg{i}",
                rng.integers(0, 64, size=20),
                max_new_tokens=20,
                arrival_time=0,
                seed=i,
                deadline=200,
            )
            for i in range(2)
        ] + [
            Request(
                "urgent", np.arange(6), max_new_tokens=3, arrival_time=5,
                seed=5, deadline=12,
            )
        ]
        outcomes = {}
        for mode in ("off", "recompute"):
            engine = ServingEngine(
                model, admission="edf", max_batch_size=2, preempt=mode
            )
            handles = engine.play(workload)
            if mode == "recompute":
                assert engine.report().preemptions > 0
            outcomes[mode] = {h.request_id: tuple(h.result()) for h in handles}
        assert outcomes["recompute"] == outcomes["off"]


class TestDeadlinePressure:
    """Engine admission policies trigger preemption under pressure."""

    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("mode", ["recompute", "swap"])
    def test_urgent_arrival_preempts_and_meets_deadline(
        self, model, paged, mode
    ):
        rng = np.random.default_rng(1)
        workload = [
            Request(
                f"bg{i}",
                rng.integers(0, 64, size=24),
                max_new_tokens=30,
                arrival_time=0,
                seed=i,
                budget=12,
                deadline=200,
            )
            for i in range(2)
        ] + [
            Request(
                "urgent", np.arange(8), max_new_tokens=4, arrival_time=3,
                seed=9, deadline=12,
            )
        ]

        def play(preempt):
            engine = ServingEngine(
                model,
                admission="edf",
                max_batch_size=2,
                paged=paged,
                block_size=4,
                preempt=preempt,
            )
            engine.play(workload)
            report = engine.report()
            urgent = next(
                r for r in report.requests if r["request_id"] == "urgent"
            )
            return report, urgent

        off_report, off_urgent = play("off")
        assert off_report.preemptions == 0
        assert off_urgent["deadline_miss"], "baseline not under pressure"

        report, urgent = play(mode)
        assert report.preemptions > 0
        assert not urgent["deadline_miss"]
        # The victim still finishes, and its row records the preemption.
        victim_rows = [r for r in report.requests if r["preemptions"] > 0]
        assert victim_rows and all(
            r["request_id"].startswith("bg") for r in victim_rows
        )

    def test_fifo_never_preempts_for_later_arrivals(self, model):
        # Under FIFO a later arrival never outranks a running sequence,
        # so slot pressure alone cannot preempt.
        workload = [
            Request("a", np.arange(10), max_new_tokens=20, arrival_time=0, seed=0),
            Request("b", np.arange(10), max_new_tokens=4, arrival_time=2, seed=1),
        ]
        engine = ServingEngine(
            model, admission="fifo", max_batch_size=1, preempt="swap"
        )
        engine.play(workload)
        assert engine.report().preemptions == 0


class TestRouterLoadSignal:
    @pytest.mark.parametrize("paged", [False, True], ids=["dense", "paged"])
    def test_recompute_victim_owes_its_generated_tokens(self, model, paged):
        """A recompute victim re-prefills its prompt *plus* the tokens it
        generated, so the fleet router's ``outstanding_tokens`` must
        count them: a 10-token prompt preempted after 5 of 8 tokens owes
        15 prefill rows and 3 decode tokens."""
        scheduler = Scheduler(
            model,
            max_batch_size=1,
            paged=paged,
            block_size=4,
            preempt="recompute",
            admission=EDFAdmission(),
        )
        scheduler.submit(
            Request("bg", np.arange(10), max_new_tokens=8, seed=0, deadline=200)
        )
        # Arrives once bg holds 5 tokens; outranks it under EDF, takes
        # the only slot, and retires within its admission round.
        scheduler.submit(
            Request(
                "urgent", np.arange(6), max_new_tokens=1, arrival_time=5,
                seed=1, deadline=6,
            )
        )
        for _ in range(6):
            scheduler.run_round()
        assert scheduler.tokens_for("urgent")
        assert scheduler.num_running == 0 and scheduler.num_waiting == 1
        assert scheduler.outstanding_tokens == (10 + 5) + (8 - 5)
        scheduler.run()
        assert scheduler.report().preemptions == 1
        assert len(scheduler.tokens_for("bg")) == 8


class TestRunMaxRounds:
    def test_run_bounded_then_resumable(self, model):
        scheduler = Scheduler(model, max_batch_size=1)
        for request in make_requests(n=3):
            scheduler.submit(request)
        partial = scheduler.run(max_rounds=2)
        assert partial.total_rounds >= 2 and not scheduler.done
        final = scheduler.run()
        assert scheduler.done
        assert len(final.requests) == 3

    def test_run_rejects_nonpositive_horizon(self, model):
        scheduler = Scheduler(model)
        with pytest.raises(ValueError, match="max_rounds"):
            scheduler.run(max_rounds=0)

    def test_invalid_preempt_mode_rejected(self, model):
        with pytest.raises(ValueError, match="preempt"):
            Scheduler(model, preempt="eject")

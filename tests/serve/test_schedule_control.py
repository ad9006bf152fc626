"""Cost-model-guided scheduling: the co-sim as the controller.

Contract under test:

- Adaptive prefill chunking, per-victim modeled preemption, and
  cycle-priced EDF admission change *when* work runs, never *what* it
  computes — per-request tokens stay bit-identical to the static runs.
- ``preempt="model"`` resolves each victim to swap or recompute from
  the predicted cycle cost and accounts the split in the report.
- Every hardware report carries a joules/token figure.
- ``CycleEDFAdmission`` ranks same-deadline requests by predicted
  prefill cycles (longer prompt first).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.accel.config import veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.core.policies.voting import VotingPolicy
from repro.experiments import serving
from repro.serve import (
    CycleEDFAdmission,
    Request,
    Scheduler,
    ServingEngine,
    best_dataflow,
)


@pytest.fixture(scope="module")
def cost_model():
    return AcceleratorSimulator(veda_config(), llama2_7b_shapes())


@pytest.fixture(scope="module")
def overload(model):
    """The scheduling benchmark's regime: an unbudgeted overload burst
    against a pool sized below the aggregate worst case."""
    workload = serving.make_workload(
        n_requests=6,
        preset="overload",
        prompt_range=(16, 24),
        compression_ratio=None,
        vocab=model.config.vocab_size,
        seed=3,
    )
    num_blocks = serving.overload_pool_blocks(
        workload, block_size=4, n_layers=model.config.n_layers, fraction=0.4
    )
    return workload, num_blocks


def run_engine(model, workload, num_blocks, cost_model=None, **kwargs):
    engine = ServingEngine(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=True,
        block_size=4,
        num_blocks=num_blocks,
        prefix_caching=False,
        cost_model=cost_model,
        **kwargs,
    )
    engine.play(workload, drain=False)
    while not engine.drained:
        engine.step()
    return engine


def tokens_of(engine, workload):
    return {r.request_id: tuple(engine.tokens_for(r.request_id)) for r in workload}


class TestConstructorValidation:
    def test_adaptive_requires_chunk(self, model, cost_model):
        with pytest.raises(ValueError, match="prefill_chunk"):
            Scheduler(model, adaptive_chunk=True, cost_model=cost_model)

    def test_adaptive_requires_cost_model(self, model):
        with pytest.raises(ValueError, match="cost_model"):
            Scheduler(model, adaptive_chunk=True, prefill_chunk=8)

    def test_model_preempt_requires_cost_model(self, model):
        with pytest.raises(ValueError, match="cost_model"):
            Scheduler(model, preempt="model", paged=True, num_blocks=64)


class TestSchedulingIsTokenNeutral:
    def test_adaptive_chunk_tokens_bit_identical(
        self, model, overload, cost_model
    ):
        workload, num_blocks = overload
        static = run_engine(
            model, workload, num_blocks, prefill_chunk=8, preempt="swap"
        )
        adaptive = run_engine(
            model,
            workload,
            num_blocks,
            cost_model=cost_model,
            prefill_chunk=8,
            adaptive_chunk=True,
            preempt="swap",
        )
        assert tokens_of(adaptive, workload) == tokens_of(static, workload)

    def test_model_preempt_tokens_bit_identical(
        self, model, overload, cost_model
    ):
        workload, num_blocks = overload
        swap = run_engine(
            model, workload, num_blocks, prefill_chunk=8, preempt="swap"
        )
        modeled = run_engine(
            model,
            workload,
            num_blocks,
            cost_model=cost_model,
            prefill_chunk=8,
            preempt="model",
        )
        assert tokens_of(modeled, workload) == tokens_of(swap, workload)

    def test_model_preempt_split_accounted(self, model, overload, cost_model):
        workload, num_blocks = overload
        engine = run_engine(
            model,
            workload,
            num_blocks,
            cost_model=cost_model,
            prefill_chunk=8,
            preempt="model",
        )
        report = engine.report()
        assert report.preemptions > 0
        assert report.model_swaps + report.model_recomputes == report.preemptions
        summary = report.summary()
        assert summary["model_swaps"] == report.model_swaps
        assert summary["model_recomputes"] == report.model_recomputes


class TestPerVictimChoice:
    def victim(self, prompt_len, generated, cache_len, budget=None):
        return SimpleNamespace(
            request=SimpleNamespace(
                prompt=np.zeros(prompt_len, dtype=np.int64), budget=budget
            ),
            num_generated=generated,
            cache=[SimpleNamespace(length=cache_len)],
        )

    def chooser(self, model, cost_model):
        return Scheduler(
            model,
            paged=True,
            num_blocks=64,
            preempt="model",
            cost_model=cost_model,
        )

    def test_budgeted_victim_always_swaps(self, model, cost_model):
        scheduler = self.chooser(model, cost_model)
        assert (
            scheduler._choose_preempt_mode(self.victim(16, 4, 20, budget=12))
            == "swap"
        )

    def test_cheap_swap_wins(self, model, cost_model):
        """On 7B shapes a short victim's KV is a few host-link KB while
        its re-prefill streams the full weights — swap wins."""
        scheduler = self.chooser(model, cost_model)
        assert scheduler._choose_preempt_mode(self.victim(16, 4, 20)) == "swap"

    def test_starved_host_link_flips_to_recompute(self, model):
        """Throttle the host link until paging out costs more than the
        re-prefill: the per-victim choice must flip."""
        starved = AcceleratorSimulator(
            veda_config(host_link_gb_s=1e-6), llama2_7b_shapes()
        )
        scheduler = self.chooser(model, starved)
        assert (
            scheduler._choose_preempt_mode(self.victim(16, 4, 20)) == "recompute"
        )


class TestReplayEnergy:
    def test_report_carries_energy(self, model, overload):
        workload, num_blocks = overload
        engine = run_engine(
            model, workload, num_blocks, prefill_chunk=8, preempt="swap"
        )
        report = engine.cosim(hw_model=llama2_7b_shapes())
        assert report.energy_joules > 0
        assert report.joules_per_token > 0
        assert report.p95_ttft_cycles > 0
        summary = report.summary()
        assert summary["joules/token"] == report.joules_per_token


class TestBestDataflow:
    def reports(self):
        return {
            "auto": SimpleNamespace(total_cycles=100.0, energy_joules=9.0),
            "prefill": SimpleNamespace(total_cycles=120.0, energy_joules=5.0),
        }

    def test_cycles_objective(self):
        name, report = best_dataflow(self.reports(), objective="cycles")
        assert name == "auto" and report.total_cycles == 100.0

    def test_energy_objective(self):
        name, report = best_dataflow(self.reports(), objective="energy")
        assert name == "prefill" and report.energy_joules == 5.0

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            best_dataflow(self.reports(), objective="carbon")


class TestCycleEDFAdmission:
    def request(self, rid, prompt_len, deadline=None, arrival=0):
        return Request(
            rid,
            np.zeros(prompt_len, dtype=np.int64),
            max_new_tokens=4,
            arrival_time=arrival,
            deadline=deadline,
        )

    def test_longer_prompt_wins_equal_deadline(self, cost_model):
        """The cycle-priced refinement over plain EDF: same deadline,
        bigger prefill, smaller laxity, admitted first."""
        policy = CycleEDFAdmission(cost_model=cost_model)
        short = self.request("short", 8, deadline=20)
        long = self.request("long", 64, deadline=20)
        assert policy.key(long, now=0) < policy.key(short, now=0)

    def test_deadlines_rank_ahead_of_fifo(self, cost_model):
        policy = CycleEDFAdmission(cost_model=cost_model)
        dated = self.request("dated", 8, deadline=1000, arrival=9)
        undated = self.request("undated", 8, arrival=0)
        assert policy.key(dated, now=0) < policy.key(undated, now=0)

    def test_laxity_shrinks_as_deadline_nears(self, cost_model):
        policy = CycleEDFAdmission(cost_model=cost_model)
        request = self.request("r", 16, deadline=50)
        assert policy.key(request, now=40) < policy.key(request, now=0)

    def test_invalid_cycles_per_round_rejected(self, cost_model):
        with pytest.raises(ValueError, match="cycles_per_round"):
            CycleEDFAdmission(cost_model=cost_model, cycles_per_round=0)

    def test_registered_by_name(self, model, overload, cost_model):
        """The engine accepts admission='edf_cycles' end to end."""
        workload, num_blocks = overload
        engine = run_engine(
            model,
            workload,
            num_blocks,
            prefill_chunk=8,
            preempt="swap",
            admission=CycleEDFAdmission(cost_model=cost_model),
        )
        assert len(engine.report().requests) == len(workload)


class TestScheduleExperiment:
    def test_run_cosim_schedule_grid(self):
        """The bench's token-identity invariant is asserted inside the
        run; here: the grid shape and the priced columns."""
        result, _ = serving.run_cosim_schedule(
            n_requests=6, static_chunks=(4, 8), seed=1
        )
        assert result.experiment_id == "serving_schedule"
        assert len(result.rows) == 5  # 2 chunks x 2 preempts + adaptive
        adaptive = result.rows[-1]
        assert adaptive["policy"] == "adaptive"
        assert adaptive["preempt"] == "model"
        for row in result.rows:
            assert row["hw_tokens/s"] > 0
            assert row["joules/token"] > 0
            assert row["p95_ttft_cyc"] > 0

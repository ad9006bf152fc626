"""Fleet co-simulation and tensor-parallel pricing.

Two exactness contracts anchor the TP cycle model: ``tp=1`` must
reproduce the single-device co-simulator bit-for-bit (every shard
dimension divides by one and the all-reduce terms vanish), and the
all-reduce traffic must follow the ring formula exactly — bytes scale
as ``(tp - 1) / tp`` for the same trace, and all-reduce cycles scale
inversely with ``interconnect_gb_s``.  On top of those, the fleet
aggregation is max-over-replicas makespan (replicas are concurrent
devices), never a sum.
"""

from dataclasses import replace

import pytest

from repro.accel.config import veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.core.policies import VotingPolicy
from repro.experiments.serving import make_workload
from repro.serve import FleetCoSimReport, ServingCoSimulator, ServingFleet


def engine_kwargs(model):
    return dict(
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=True,
        block_size=4,
    )


def conversations(model):
    return make_workload(
        n_requests=6, turns=2, vocab=model.config.vocab_size, seed=0
    )


@pytest.fixture(scope="module")
def played_fleet(model):
    """A two-replica fleet that has served the shared stream."""
    fleet = ServingFleet(
        model, replicas=2, placement="round_robin", **engine_kwargs(model)
    )
    fleet.play(conversations(model))
    return fleet


@pytest.fixture(scope="module")
def solo_fleet(model):
    fleet = ServingFleet(model, replicas=1, **engine_kwargs(model))
    fleet.play(conversations(model))
    return fleet


class TestTP1Exactness:
    def test_tp1_matches_single_device_cosim(self, solo_fleet):
        """One replica, tp=1: the fleet co-sim IS the single-device
        co-sim — same trace, same cycles, same tokens."""
        hw, shapes = veda_config(), llama2_7b_shapes()
        single = ServingCoSimulator(
            scheduler=solo_fleet.engines[0].scheduler, hw=hw, hw_model=shapes
        ).replay()
        priced = solo_fleet.cosim(hw=hw, hw_model=shapes, tp=1)
        assert priced.fleet_cycles == single.total_cycles
        assert priced.total_tokens == single.total_tokens
        assert priced.interconnect_cycles == 0.0
        assert priced.interconnect_bytes == 0.0

    def test_tp1_simulator_is_bit_identical_per_phase(self):
        """The sharded code path at tp=1 collapses to the unsharded one
        for every phase, not just the serving totals."""
        hw, shapes = veda_config(), llama2_7b_shapes()
        base = AcceleratorSimulator(hw, shapes)
        sharded = AcceleratorSimulator(hw, shapes, tp=1)
        for phase in (
            lambda s: s.prefill(96),
            lambda s: s.decode_round([128]),
        ):
            a, b = phase(base), phase(sharded)
            assert a.cycles == b.cycles
            assert a.linear_cycles == b.linear_cycles
            assert a.macs == b.macs
            assert a.hbm_bytes == b.hbm_bytes
            assert b.interconnect_cycles == 0.0


class TestTPPricing:
    def test_tp_must_divide_heads_and_ffn(self):
        with pytest.raises(ValueError, match="divide"):
            AcceleratorSimulator(veda_config(), llama2_7b_shapes(), tp=7)

    def test_sharding_cuts_compute_and_prices_allreduce(self, played_fleet):
        hw, shapes = veda_config(), llama2_7b_shapes()
        tp1 = played_fleet.cosim(hw=hw, hw_model=shapes, tp=1)
        tp4 = played_fleet.cosim(hw=hw, hw_model=shapes, tp=4)
        assert tp4.total_tokens == tp1.total_tokens
        assert tp4.interconnect_cycles > 0
        assert tp4.interconnect_bytes > 0
        # Sharded GEMMs dominate the added all-reduce traffic here.
        assert tp4.fleet_cycles < tp1.fleet_cycles

    def test_allreduce_bytes_follow_the_ring_formula(self, played_fleet):
        """Per-device ring all-reduce moves ``2 (tp-1)/tp`` of the
        payload, so the same trace's bytes scale exactly as
        ``(tp-1)/tp``: tp=4 over tp=2 is 1.5x."""
        hw, shapes = veda_config(), llama2_7b_shapes()
        tp2 = played_fleet.cosim(hw=hw, hw_model=shapes, tp=2)
        tp4 = played_fleet.cosim(hw=hw, hw_model=shapes, tp=4)
        assert tp4.interconnect_bytes == pytest.approx(
            1.5 * tp2.interconnect_bytes
        )

    def test_allreduce_cycles_scale_with_interconnect_bandwidth(
        self, played_fleet
    ):
        hw, shapes = veda_config(), llama2_7b_shapes()
        slow = replace(hw, interconnect_gb_s=hw.interconnect_gb_s / 2)
        fast = played_fleet.cosim(hw=hw, hw_model=shapes, tp=2)
        halved = played_fleet.cosim(hw=slow, hw_model=shapes, tp=2)
        assert halved.interconnect_cycles == pytest.approx(
            2.0 * fast.interconnect_cycles
        )
        assert halved.interconnect_bytes == fast.interconnect_bytes
        assert halved.fleet_cycles > fast.fleet_cycles

    def test_interconnect_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError, match="interconnect"):
            replace(veda_config(), interconnect_gb_s=0.0)


class TestFleetAggregation:
    @pytest.mark.parametrize("tp", [1, 2])
    def test_shared_cache_equals_cold_replays(self, played_fleet, tp):
        """Every replica replays through one warm pricing cache; the
        fleet report still equals per-replica cold replays in every
        field."""
        hw, shapes = veda_config(), llama2_7b_shapes()
        cold = FleetCoSimReport(
            replicas=[
                ServingCoSimulator(
                    scheduler=engine.scheduler, hw=hw, hw_model=shapes, tp=tp
                ).replay()
                for engine in played_fleet.engines
            ],
            tp=tp,
        )
        assert played_fleet.cosim(hw=hw, hw_model=shapes, tp=tp) == cold

    def test_makespan_is_max_over_replicas(self, played_fleet):
        hw, shapes = veda_config(), llama2_7b_shapes()
        priced = played_fleet.cosim(hw=hw, hw_model=shapes)
        per_replica = [r.total_cycles for r in priced.replicas]
        assert priced.fleet_cycles == max(per_replica)
        assert priced.fleet_cycles < sum(per_replica)
        assert priced.total_tokens == sum(
            r.total_tokens for r in priced.replicas
        )

    def test_throughput_uses_the_makespan(self, played_fleet):
        hw, shapes = veda_config(), llama2_7b_shapes()
        priced = played_fleet.cosim(hw=hw, hw_model=shapes)
        expected = priced.total_tokens / (
            priced.fleet_cycles / (priced.clock_ghz * 1e9)
        )
        assert priced.tokens_per_second == pytest.approx(expected)

    def test_summary_gains_tp_fields_only_when_sharded(self, played_fleet):
        hw, shapes = veda_config(), llama2_7b_shapes()
        flat = played_fleet.cosim(hw=hw, hw_model=shapes).summary()
        sharded = played_fleet.cosim(hw=hw, hw_model=shapes, tp=2).summary()
        assert "allreduce_cycles" not in flat
        assert sharded["tp"] == 2
        assert sharded["allreduce_cycles"] > 0

    def test_energy_pools_over_replicas(self, played_fleet):
        """Replicas are separate devices: fleet joules are the *sum* of
        per-replica joules (unlike the max-over-replicas makespan), and
        joules/token divides by the pooled token count."""
        hw, shapes = veda_config(), llama2_7b_shapes()
        priced = played_fleet.cosim(hw=hw, hw_model=shapes)
        assert priced.energy_joules == pytest.approx(
            sum(r.energy_joules for r in priced.replicas)
        )
        assert priced.energy_joules > 0
        assert priced.joules_per_token == pytest.approx(
            priced.energy_joules / priced.total_tokens
        )
        assert priced.summary()["joules/token"] == priced.joules_per_token

"""Property-based tests: fleet routing invariants.

Three invariants must hold for *every* workload and placement policy,
not just the benchmark presets: (1) routing is a partition — each
submitted request is served by exactly one replica, and the router's
recorded placement is where it actually retired; (2) per-replica
resource conservation — after a drained run each replica's block pool
holds exactly its prefix-trie blocks and releasing the trie frees the
pool completely, with zero batch slots left occupied; (3) prefix
affinity never routes to a replica whose trie match is strictly shorter
than the best available, and among deepest-match ties it picks the
least-loaded key exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.core.policies.voting import VotingPolicy
from repro.experiments.serving import make_workload
from repro.serve import PrefixAffinityPlacement, Request, ServingFleet

BLOCK_SIZE = 4
PLACEMENTS = ("round_robin", "least_loaded", "prefix_affinity")


def _fleet(model, replicas, placement):
    return ServingFleet(
        model,
        replicas=replicas,
        placement=placement,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=True,
        block_size=BLOCK_SIZE,
    )


def _workload(model, n_requests, turns, seed):
    return make_workload(
        n_requests=n_requests,
        turns=turns,
        vocab=model.config.vocab_size,
        seed=seed,
    )


class StubEngine:
    def __init__(self, match, outstanding, free):
        self.outstanding_tokens = outstanding
        self.free_kv_capacity = free
        self._match = match

    def prefix_probe(self, request):
        return self._match


class TestRoutingPartition:
    @given(
        st.integers(2, 3),
        st.sampled_from(PLACEMENTS),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_each_request_served_by_exactly_one_replica(
        self, replicas, placement, n_requests, turns, seed
    ):
        model = _model()
        workload = _workload(model, n_requests, turns, seed % 1000)
        fleet = _fleet(model, replicas, placement)
        fleet.play(workload)
        served = [
            {s.request.request_id for s in engine.scheduler.results()}
            for engine in fleet.engines
        ]
        # Pairwise disjoint, jointly complete, and placement-consistent.
        assert sum(len(ids) for ids in served) == len(workload)
        assert set().union(*served) == {r.request_id for r in workload}
        for request in workload:
            rid = request.request_id
            assert rid in served[fleet.replica_of(rid)]


class TestReplicaConservation:
    @given(
        st.sampled_from(PLACEMENTS),
        st.integers(2, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_drained_replicas_hold_only_trie_blocks(
        self, placement, n_requests, seed
    ):
        model = _model()
        fleet = _fleet(model, 2, placement)
        fleet.play(_workload(model, n_requests, 2, seed % 1000))
        assert fleet.drained
        for engine in fleet.engines:
            scheduler = engine.scheduler
            assert scheduler.manager.slots_used == 0
            pool = scheduler.manager.block_pool
            assert (
                pool.num_used == scheduler.manager.prefix_cache.num_blocks_held
            )
            scheduler.manager.clear_prefix_cache()
            assert pool.num_free == pool.num_blocks


class TestAffinityNeverShorter:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 20),
                st.integers(0, 100),
                st.integers(0, 50),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_choice_is_deepest_match_then_least_loaded(self, signals):
        """Against arbitrary replica signals: the chosen replica's match
        is never strictly shorter than the best, and deepest-match ties
        resolve to the minimal least-loaded key."""
        engines = [StubEngine(m, o, f) for m, o, f in signals]
        request = Request("probe", np.arange(8), max_new_tokens=2)
        index = PrefixAffinityPlacement().choose(request, engines)
        matches = [engine.prefix_probe(request) for engine in engines]
        assert matches[index] == max(matches)
        tied = [i for i, m in enumerate(matches) if m == max(matches)]

        def load_key(i):
            return (
                engines[i].outstanding_tokens,
                -engines[i].free_kv_capacity,
                i,
            )

        assert load_key(index) == min(load_key(i) for i in tied)

    @given(st.integers(2, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_live_fleet_routes_to_a_deepest_match(self, replicas, seed):
        """The same invariant over *real* trie probes: record every
        routing decision's probe vector during a served stream."""
        observations = []

        class Recording(PrefixAffinityPlacement):
            def choose(self, request, engines):
                index = super().choose(request, engines)
                observations.append(
                    (
                        [e.prefix_probe(request) for e in engines],
                        index,
                    )
                )
                return index

        model = _model()
        fleet = _fleet(model, replicas, Recording())
        fleet.play(_workload(model, 4, 2, seed % 1000))
        assert len(observations) == 8  # one decision per request
        assert any(max(matches) > 0 for matches, _ in observations)
        for matches, index in observations:
            assert matches[index] == max(matches)


_MODEL = None


def _model():
    global _MODEL
    if _MODEL is None:
        from repro.models.inference import CachedTransformer
        from repro.models.transformer import TransformerLM

        _MODEL = CachedTransformer.from_module(
            TransformerLM(tiny_config(), seed=0)
        )
    return _MODEL

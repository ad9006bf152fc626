"""Multi-replica serving fleet: placement routing over engine replicas.

One :class:`~repro.serve.engine.ServingEngine` is one accelerator's
serving loop.  Production deployments run many identical replicas behind
a router, and the router's placement decision is where serving-level
wins (or losses) live: a prefix-heavy workload served round-robin
scatters shareable prompts across replicas whose radix tries never see
each other's blocks, while affinity routing concentrates each prefix
family on one replica and multiplies its token hit rate.

:class:`ServingFleet` runs ``replicas`` engines — each with its *own*
scheduler, KV block pool, and prefix trie — in lock-step on a shared
simulated clock, fed from a single arrival stream through a
:class:`FleetRouter` with pluggable placement policies:

- ``round_robin`` — cycle through replicas in submission order.
- ``least_loaded`` — fewest outstanding tokens (unprefilled prompt rows
  plus ungenerated decode tokens); ties break toward more free KV
  capacity, then the lowest replica index.
- ``prefix_affinity`` — probe every replica's radix trie for the longest
  cached prefix of the prompt (:meth:`Scheduler.prefix_probe`, a pure
  read) and route to the deepest match; ties — including the all-miss
  case — fall back to the least-loaded rule.

**Fleet equivalence guarantee.**  Placement never changes tokens: a
request's generation depends only on its own prompt, seed, and budget
(batched decode is bit-identical to solo decode by construction), so
every placement policy — and a single engine serving the same stream —
produces identical per-request token sequences.  The differential
harness in ``tests/serve/test_fleet.py`` pins this across placement
policies × dense/paged × eviction policies.  What placement *does*
change is everything the :class:`FleetReport` measures: TTFT, deadline
misses, load imbalance, and the cross-fleet prefix token hit rate.

Fleet-level co-simulation replays each replica's trace on its own
accelerator cycle model (optionally tensor-parallel over ``tp`` PE
clusters; see :class:`~repro.accel.simulator.AcceleratorSimulator`).
Replicas run concurrently, so fleet makespan is the *slowest* replica's
cycle count and fleet throughput is total tokens over that makespan.

Worked example — two replicas, affinity routing::

    >>> import numpy as np
    >>> from repro.config import tiny_config
    >>> from repro.models.inference import CachedTransformer
    >>> from repro.models.transformer import TransformerLM
    >>> from repro.serve import Request, ServingFleet
    >>> model = CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))
    >>> fleet = ServingFleet(model, replicas=2, placement="prefix_affinity",
    ...                      paged=True, num_blocks=64, block_size=4)
    >>> shared = np.arange(12) % 7 + 1
    >>> handles = fleet.play([
    ...     Request(f"r{i}", shared.copy(), max_new_tokens=4, seed=i)
    ...     for i in range(4)
    ... ])
    >>> [h.done for h in handles]
    [True, True, True, True]
    >>> report = fleet.report()
    >>> report.num_replicas, sorted(report.placements.values())[0] in (0, 1)
    (2, True)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.cosim import ServingCoSimulator
from repro.serve.engine import ServingEngine, _play_arrivals
from repro.serve.scheduler import ServingReport

__all__ = [
    "PlacementPolicy",
    "RoundRobinPlacement",
    "LeastLoadedPlacement",
    "PrefixAffinityPlacement",
    "make_placement",
    "available_placements",
    "FleetRouter",
    "FleetReport",
    "FleetCoSimReport",
    "ServingFleet",
]


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
def _load_key(engines, index):
    """Least-loaded ordering key: fewest outstanding tokens, then most
    free KV capacity, then lowest index (fully deterministic)."""
    engine = engines[index]
    return (engine.outstanding_tokens, -engine.free_kv_capacity, index)


class PlacementPolicy:
    """Chooses the replica a new request is submitted to.

    :meth:`choose` sees the full replica list and may read any replica's
    load/cache introspection, but must not mutate replica state — the
    router calls it exactly once per request, *before* submission."""

    name = "placement"

    def choose(self, request, engines):
        """Replica index in ``range(len(engines))`` for ``request``."""
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through replicas in submission order (load-blind)."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def choose(self, request, engines):
        index = self._next % len(engines)
        self._next += 1
        return index


class LeastLoadedPlacement(PlacementPolicy):
    """Fewest outstanding tokens; ties toward more free KV capacity."""

    name = "least_loaded"

    def choose(self, request, engines):
        return min(range(len(engines)), key=lambda i: _load_key(engines, i))


class PrefixAffinityPlacement(PlacementPolicy):
    """Deepest radix-trie prefix match wins; ties go least-loaded.

    Every replica's trie is probed read-only for the longest cached
    prefix of the request's prompt.  The property suite asserts the
    chosen replica's match is never strictly shorter than the best
    available; with no match anywhere (all probes 0) the policy is
    exactly :class:`LeastLoadedPlacement`.
    """

    name = "prefix_affinity"

    def choose(self, request, engines):
        matches = [engine.prefix_probe(request) for engine in engines]
        best = max(matches)
        tied = [i for i, match in enumerate(matches) if match == best]
        return min(tied, key=lambda i: _load_key(engines, i))


_PLACEMENTS = {
    "round_robin": RoundRobinPlacement,
    "least_loaded": LeastLoadedPlacement,
    "prefix_affinity": PrefixAffinityPlacement,
}


def make_placement(name, **kwargs):
    """Instantiate a placement policy by name (``round_robin`` /
    ``least_loaded`` / ``prefix_affinity``)."""
    if name not in _PLACEMENTS:
        raise KeyError(
            f"unknown placement policy {name!r}; "
            f"available: {sorted(_PLACEMENTS)}"
        )
    return _PLACEMENTS[name](**kwargs)


def available_placements():
    """Sorted names of the registered placement policies."""
    return sorted(_PLACEMENTS)


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class FleetRouter:
    """Binds a placement policy to a replica set and records the
    resulting assignment (``request_id -> replica index``)."""

    def __init__(self, placement="round_robin"):
        if isinstance(placement, str):
            placement = make_placement(placement)
        self.policy = placement
        #: request_id -> replica index, submission order.
        self.placements = {}

    def route(self, request, engines):
        """Choose (and record) the replica for ``request``."""
        index = self.policy.choose(request, engines)
        if not 0 <= index < len(engines):
            raise ValueError(
                f"placement {self.policy.name!r} chose replica {index} "
                f"of {len(engines)}"
            )
        self.placements[request.request_id] = index
        return index


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Per-replica :class:`~repro.serve.scheduler.ServingReport` objects
    plus the fleet-wide aggregates placement policies compete on."""

    placement: str = "round_robin"
    #: One ServingReport per replica, replica order.
    replicas: list = field(default_factory=list)
    #: request_id -> replica index for every routed request.
    placements: dict = field(default_factory=dict)

    @property
    def num_replicas(self):
        return len(self.replicas)

    @property
    def requests(self):
        """All replicas' per-request rows, pooled (each row gains a
        ``replica`` key)."""
        rows = []
        for index, report in enumerate(self.replicas):
            for row in report.requests:
                rows.append({**row, "replica": index})
        return rows

    @property
    def rejections(self):
        return [row for r in self.replicas for row in r.rejections]

    @property
    def tokens_per_replica(self):
        return [report.total_tokens for report in self.replicas]

    @property
    def total_tokens(self):
        return sum(self.tokens_per_replica)

    @property
    def total_rounds(self):
        """Fleet makespan in rounds (replicas run in lock-step, so this
        is the shared clock's final value)."""
        return max((r.total_rounds for r in self.replicas), default=0)

    @property
    def _pooled(self):
        """Every replica's request rows as one
        :class:`~repro.serve.scheduler.ServingReport`, so fleet-wide
        latency aggregates use the single-engine formulas."""
        return ServingReport(requests=self.requests)

    @property
    def mean_ttft(self):
        """Mean TTFT in rounds over every request in the fleet."""
        return self._pooled.mean_ttft

    @property
    def p95_ttft(self):
        return self._pooled.p95_ttft

    @property
    def deadline_miss_rate(self):
        """Fleet-wide misses over requests carrying a deadline."""
        return self._pooled.deadline_miss_rate

    @property
    def load_imbalance(self):
        """Max over mean of per-replica generated tokens (1.0 = perfectly
        balanced; ``replicas`` = everything on one replica; 0.0 on an
        empty run)."""
        tokens = self.tokens_per_replica
        total = sum(tokens)
        if not tokens or total == 0:
            return 0.0
        return max(tokens) / (total / len(tokens))

    @property
    def prompt_tokens_seen(self):
        return sum(r.prompt_tokens_seen for r in self.replicas)

    @property
    def prefix_tokens_hit(self):
        return sum(r.prefix_tokens_hit for r in self.replicas)

    @property
    def prefix_token_hit_rate(self):
        """Cross-fleet token-weighted prefix hit rate — the number
        placement policies move: affinity routing concentrates prefix
        families so their tokens actually hit."""
        seen = self.prompt_tokens_seen
        return self.prefix_tokens_hit / seen if seen else 0.0

    def summary(self):
        """Flat dict of the fleet aggregates (for experiment tables)."""
        summary = {
            "placement": self.placement,
            "replicas": self.num_replicas,
            "requests": len(self.requests),
            "tokens": self.total_tokens,
            "rounds": self.total_rounds,
            "mean_ttft_rounds": self.mean_ttft,
            "p95_ttft_rounds": self.p95_ttft,
            "load_imbalance": self.load_imbalance,
        }
        if any(row.get("deadline") is not None for row in self.requests):
            summary["deadline_miss_rate"] = self.deadline_miss_rate
        if self.prompt_tokens_seen:
            summary["prefix_token_hit_rate"] = self.prefix_token_hit_rate
        if self.rejections:
            summary["rejected"] = len(self.rejections)
        return summary


@dataclass
class FleetCoSimReport:
    """Hardware outcome of replaying every replica's trace.

    Replicas execute concurrently on their own devices, so the fleet
    makespan is the slowest replica's total cycles and fleet throughput
    is total tokens over that makespan.  With ``tp > 1`` each replica is
    itself ``tp`` lock-step PE clusters and the per-replica cycle counts
    already include the all-reduce traffic.
    """

    #: One ServingCoSimReport per replica, replica order.
    replicas: list = field(default_factory=list)
    tp: int = 1

    @property
    def num_replicas(self):
        return len(self.replicas)

    @property
    def clock_ghz(self):
        return self.replicas[0].clock_ghz if self.replicas else 1.0

    @property
    def fleet_cycles(self):
        """Makespan: the slowest replica's serialized cycle count."""
        return max((r.total_cycles for r in self.replicas), default=0.0)

    @property
    def total_tokens(self):
        return sum(r.total_tokens for r in self.replicas)

    @property
    def interconnect_cycles(self):
        """TP all-reduce cycles summed over replicas (0.0 at ``tp=1``)."""
        return sum(r.interconnect_cycles for r in self.replicas)

    @property
    def interconnect_bytes(self):
        return sum(r.interconnect_bytes for r in self.replicas)

    @property
    def wall_seconds(self):
        """Modeled wall-clock of the fleet run (concurrent replicas)."""
        return self.fleet_cycles / (self.clock_ghz * 1e9)

    @property
    def tokens_per_second(self):
        """Fleet throughput: total tokens over the makespan."""
        return self.total_tokens / self.wall_seconds if self.fleet_cycles else 0.0

    @property
    def energy_joules(self):
        """Pooled energy: every replica's device burns its own joules."""
        return sum(r.energy_joules for r in self.replicas)

    @property
    def joules_per_token(self):
        """Fleet energy efficiency: pooled joules over pooled tokens."""
        return self.energy_joules / self.total_tokens if self.total_tokens else 0.0

    def summary(self):
        """Flat dict of the fleet hardware aggregates."""
        summary = {
            "replicas": self.num_replicas,
            "fleet_cycles": self.fleet_cycles,
            "tokens": self.total_tokens,
            "fleet_tokens/s": self.tokens_per_second,
            "joules/token": self.joules_per_token,
        }
        if self.tp > 1:
            summary["tp"] = self.tp
            summary["allreduce_cycles"] = self.interconnect_cycles
            summary["allreduce_mb"] = self.interconnect_bytes / 1e6
        return summary


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class ServingFleet:
    """``replicas`` identical :class:`ServingEngine` instances behind a
    :class:`FleetRouter`, in lock-step on one simulated clock.

    Parameters
    ----------
    model:
        A :class:`repro.models.inference.CachedTransformer`, shared by
        every replica (weights are read-only; all mutable state — KV
        pools, tries, schedulers — is per-replica).
    replicas:
        Number of engine replicas (>= 1).
    placement:
        Placement policy: a name (``"round_robin"`` / ``"least_loaded"``
        / ``"prefix_affinity"``) or a :class:`PlacementPolicy` instance.
    engine_kwargs:
        Everything else (every :class:`~repro.serve.scheduler.Scheduler`
        option, ``admission`` and ``prefill_chunk`` included) is
        forwarded to every replica's engine identically.
    """

    def __init__(self, model, replicas=2, placement="round_robin", **engine_kwargs):
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        self.model = model
        self.engines = [
            ServingEngine(model, **engine_kwargs) for _ in range(replicas)
        ]
        self.router = FleetRouter(placement)

    @property
    def num_replicas(self):
        return len(self.engines)

    @property
    def placement(self):
        """Name of the active placement policy."""
        return self.router.policy.name

    # ------------------------------------------------------------------
    # Clock (shared; replicas advance in lock-step)
    # ------------------------------------------------------------------
    @property
    def now(self):
        return self.engines[0].now

    @property
    def drained(self):
        """Every replica has retired or rejected all its requests."""
        return all(engine.drained for engine in self.engines)

    def skip_to(self, round_index):
        """Jump every replica's idle clock forward to ``round_index``."""
        for engine in self.engines:
            engine.skip_to(round_index)

    # ------------------------------------------------------------------
    # Submission and the loop
    # ------------------------------------------------------------------
    def submit(self, request):
        """Route ``request`` to a replica and submit it there; returns
        that engine's :class:`~repro.serve.engine.RequestHandle`."""
        index = self.router.route(request, self.engines)
        return self.engines[index].submit(request)

    def step(self):
        """Advance every replica by one round (lock-step); returns the
        per-replica :class:`~repro.serve.engine.EngineTick` list."""
        return [engine.step() for engine in self.engines]

    def run_until_drained(self):
        """Step the fleet until every submitted request has retired."""
        while not self.drained:
            self.step()

    def close(self):
        for engine in self.engines:
            engine.close()

    def play(self, requests, drain=True):
        """Feed one shared pre-timed arrival stream through the router.

        Each request is routed and submitted when the shared clock
        reaches its ``arrival_time`` (idle gaps are skipped fleet-wide),
        so placement decisions see exactly the replica state a live
        router would.  Returns the handles in workload order.
        """
        return _play_arrivals(self, requests, drain)

    # ------------------------------------------------------------------
    # Results and reporting
    # ------------------------------------------------------------------
    def replica_of(self, request_id):
        """Replica index a routed request was placed on."""
        return self.router.placements[request_id]

    def tokens_for(self, request_id):
        """Generated tokens of a retired request, wherever it ran."""
        return self.engines[self.replica_of(request_id)].tokens_for(request_id)

    def report(self):
        """Fleet-wide :class:`FleetReport` over all replicas so far."""
        return FleetReport(
            placement=self.placement,
            replicas=[engine.report() for engine in self.engines],
            placements=dict(self.router.placements),
        )

    def cosim(
        self,
        hw=None,
        hw_model=None,
        dataflow="auto",
        tp=1,
    ):
        """Price every replica's recorded trace on the accelerator cycle
        model (optionally sharded over ``tp`` PE clusters); returns a
        :class:`FleetCoSimReport`.  With one replica and ``tp=1`` the
        per-replica report is exactly the single-device
        :class:`~repro.serve.cosim.ServingCoSimulator` outcome.

        Replicas are identical devices, so every trace replays through
        one co-simulator rebound to each replica's scheduler in turn: the
        pricing cache warmed by one replica serves the next, and each
        report still equals a cold replay of that replica alone."""
        cosim = ServingCoSimulator(
            scheduler=self.engines[0].scheduler,
            hw=hw,
            hw_model=hw_model,
            dataflow=dataflow,
            tp=tp,
        )
        reports = []
        for engine in self.engines:
            cosim.scheduler = engine.scheduler
            reports.append(cosim.replay())
        return FleetCoSimReport(replicas=reports, tp=int(tp))

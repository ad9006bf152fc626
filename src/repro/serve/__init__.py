"""Batched serving subsystem: requests and admission policies, sequence
state, the continuous-batching scheduler (with Sarathi-style chunked
prefill and two-way preemption/swap scheduling) and the two stage units
it calls (fork families; prompt prefill through the prefix trie), the
unified resource
manager (batch slots, pool blocks, prefix reservations, the modeled host
swap pool), the async serving engine (streaming submission, per-request
handles), the paged KV memory layer (block pool, paged caches,
cross-request prefix cache), the serving-scale hardware co-simulator
(per-round trace replay with phase-aware dataflow selection,
TTFT-in-cycles accounting, and host-link swap pricing), and the
multi-replica fleet (prefix-affinity routing over engine replicas with
fleet-level co-simulation and tensor-parallel pricing)."""

from repro.serve.cosim import (
    ServingCoSimReport,
    ServingCoSimulator,
    best_dataflow,
    compare_dataflows,
)
from repro.serve.fleet import (
    FleetCoSimReport,
    FleetReport,
    FleetRouter,
    LeastLoadedPlacement,
    PlacementPolicy,
    PrefixAffinityPlacement,
    RoundRobinPlacement,
    ServingFleet,
    available_placements,
    make_placement,
)
from repro.serve.engine import EngineTick, RequestHandle, ServingEngine
from repro.serve.paging import (
    BlockPool,
    BlockPoolExhausted,
    PagedKVCache,
    PagedLayerKVCache,
)
from repro.serve.prefix_cache import PrefixCache, PrefixMatch, PrefixNode
from repro.serve.request import (
    FINISHED,
    PREEMPTED,
    PREFILLING,
    QUEUED,
    RUNNING,
    SWAPPED,
    AdmissionPolicy,
    CycleEDFAdmission,
    EDFAdmission,
    FIFOAdmission,
    PriorityAdmission,
    Rejection,
    Request,
    SequenceState,
    available_admissions,
    make_admission,
)
from repro.serve.resources import PREEMPT_MODES, KVResourceManager, SwapImage
from repro.serve.scheduler import Scheduler, ServingReport
from repro.serve.trace import (
    DecodeEvent,
    ForkEvent,
    PrefillEvent,
    RoundTrace,
    SwapEvent,
)

__all__ = [
    "AdmissionPolicy",
    "BlockPool",
    "BlockPoolExhausted",
    "CycleEDFAdmission",
    "EDFAdmission",
    "EngineTick",
    "FIFOAdmission",
    "FleetCoSimReport",
    "FleetReport",
    "FleetRouter",
    "LeastLoadedPlacement",
    "PlacementPolicy",
    "PrefixAffinityPlacement",
    "RoundRobinPlacement",
    "PagedKVCache",
    "PagedLayerKVCache",
    "PrefixCache",
    "PrefixMatch",
    "PrefixNode",
    "PriorityAdmission",
    "Rejection",
    "Request",
    "RequestHandle",
    "SequenceState",
    "Scheduler",
    "ServingEngine",
    "ServingFleet",
    "ServingReport",
    "ServingCoSimReport",
    "ServingCoSimulator",
    "available_admissions",
    "available_placements",
    "best_dataflow",
    "compare_dataflows",
    "make_admission",
    "make_placement",
    "DecodeEvent",
    "ForkEvent",
    "PrefillEvent",
    "RoundTrace",
    "SwapEvent",
    "KVResourceManager",
    "SwapImage",
    "PREEMPT_MODES",
    "QUEUED",
    "PREFILLING",
    "RUNNING",
    "FINISHED",
    "PREEMPTED",
    "SWAPPED",
]

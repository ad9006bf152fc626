"""Algorithm/hardware co-simulation.

The paper's claim is a *tri-optimization*: the voting algorithm decides
what stays in the cache, and the accelerator's latency depends on the
cache trajectory the algorithm produces.  This module closes that loop:
it runs the real :class:`GenerationEngine` (model + policy) and feeds the
*measured* per-step cache lengths into the cycle simulator, rather than
assuming the idealized ``min(P+i, S+1)`` trajectory.

This catches effects the idealized trajectory misses — e.g. a policy
configured with ``evictions_per_step=1`` approaching its budget slowly,
or a buggy policy failing to keep the cache bounded — and produces joint
(quality, latency) numbers for any policy.

This module prices one sequence at a time; the serving analogue —
mixed prefill/decode rounds from a :class:`repro.serve.Scheduler`
trace, batched linear layers, per-phase dataflow selection — lives in
:class:`repro.serve.cosim.ServingCoSimulator`, which reduces to this
co-simulator cycle-for-cycle at batch size 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.config import HardwareConfig, veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.core.engine import GenerationEngine

__all__ = ["CoSimResult", "CoSimulator"]


@dataclass
class CoSimResult:
    """Joint algorithm/hardware outcome of one generation run."""

    tokens: list
    cache_lengths: list
    num_evictions: int
    attention_cycles_per_step: list
    total_decode_cycles: float

    @property
    def mean_attention_cycles(self):
        if not self.attention_cycles_per_step:
            raise ValueError("no decode steps recorded")
        return sum(self.attention_cycles_per_step) / len(
            self.attention_cycles_per_step
        )


class CoSimulator:
    """Couples a generation engine with an accelerator configuration.

    Parameters
    ----------
    engine:
        A configured :class:`repro.core.engine.GenerationEngine` (model,
        policy, budget).
    hw:
        Hardware configuration (default: full VEDA).
    hw_model:
        Model config whose *shapes* are priced by the simulator; defaults
        to the engine's own model config, so scaled studies price the
        scaled model, and Llama-7B shapes can be substituted to project
        edge latencies from small-model cache trajectories.
    """

    def __init__(self, engine: GenerationEngine, hw: HardwareConfig = None,
                 hw_model=None):
        self.engine = engine
        self.hw = hw or veda_config()
        self.hw_model = hw_model or engine.model.config
        self.simulator = AcceleratorSimulator(self.hw, self.hw_model)

    def run(self, prompt, max_new_tokens, **generate_kwargs):
        """Generate with the real policy; price every step's cache length."""
        result = self.engine.generate(prompt, max_new_tokens, **generate_kwargs)

        attention_cycles = []
        total_cycles = 0.0
        # cache_lengths[0] is the post-prefill state; each subsequent
        # entry is the post-step length.  The attention in step i ran
        # against (previous length + 1) entries (append-then-evict).
        for previous in result.cache_lengths[:-1]:
            step = self.simulator.decode_round([previous + 1])
            attention_cycles.append(step.per_sequence_attention[0])
            total_cycles += step.cycles

        return CoSimResult(
            tokens=result.tokens,
            cache_lengths=result.cache_lengths,
            num_evictions=result.num_evictions,
            attention_cycles_per_step=attention_cycles,
            total_decode_cycles=total_cycles,
        )

"""Batch-scheduling analysis — the paper's introduction argument.

The paper motivates a single-batch edge accelerator by observing (citing
Orca) that batching "packages GEMV operations into GEMM for linear
layers … [but] has limited impact on the attention process, as each user
has a distinct KV cache".  This experiment quantifies that: decode cycles
per token vs batch size, split into linear (weights shared across the
batch → amortized) and attention (per-user KV → no sharing).
"""

from __future__ import annotations

from repro.accel.config import veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.experiments.common import ExperimentResult

__all__ = ["run"]


def run(batch_sizes=(1, 2, 4, 8, 16), cache_length=512, model=None, hw=None):
    """Per-token decode cycles vs batch size (Llama-2 7B shapes).

    Linear layers: one weight fetch serves the whole batch, so the
    memory-bound GEMV turns into a GEMM whose per-token cost falls until
    compute becomes the bound.  Attention: every request attends to its
    own KV cache, so per-token cost is flat.

    The default hardware is a *cloud-class* compute:bandwidth ratio
    (32 PE arrays on the same 256 GB/s) because that is where Orca-style
    batching pays off.  VEDA itself is balanced (one decode stream
    saturates both compute and bandwidth — see
    :func:`repro.accel.tiling.compute_bound_prompt_threshold`), which is
    the paper's argument that a single-batch edge accelerator loses
    nothing by not batching.
    """
    model = model or llama2_7b_shapes()
    hw = hw or veda_config(pe_arrays=32)
    simulator = AcceleratorSimulator(hw, model)

    rows = []
    for batch in batch_sizes:
        # One batched decode round: every weight op is fetched once and
        # serves all ``batch`` rows, while each row attends to its own
        # cache.
        stats = simulator.decode_round([cache_length] * batch)
        linear_per_token = stats.linear_cycles / batch
        attention_per_token = stats.per_sequence_attention[0]
        rows.append(
            {
                "batch": batch,
                "linear_cycles/token": linear_per_token,
                "attention_cycles/token": attention_per_token,
                "total_cycles/token": linear_per_token + attention_per_token,
                "attention_share_%": 100.0
                * attention_per_token
                / (linear_per_token + attention_per_token),
            }
        )
    return ExperimentResult(
        "batching",
        f"Decode cycles/token vs batch size (cache {cache_length})",
        rows=rows,
        notes=(
            "Linear layers amortize weight fetches across the batch; "
            "attention cannot (per-user KV cache) — the paper's argument "
            "for optimizing single-batch attention on edge devices."
        ),
    )

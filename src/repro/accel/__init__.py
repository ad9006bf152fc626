"""The VEDA accelerator model: PE array, dataflow, SFU, memory, voting."""

from repro.accel.area_power import PAPER_TABLE1, AreaPowerModel, ModuleCost
from repro.accel.baselines import SANGER, SPATTEN, AcceleratorSpec, published_accelerators
from repro.accel.config import (
    HardwareConfig,
    ablation_configs,
    baseline_config,
    veda_config,
)
from repro.accel.gpu_model import (
    RTX4090,
    GPUSpec,
    decode_energy_per_token,
    decode_tokens_per_second,
)
from repro.accel.memory import HBMModel, SRAMModel
from repro.accel.pe import PEMode, ProcessingElement
from repro.accel.rtl_array import RTLArray
from repro.accel.pe_array import (
    PEArray,
    adder_tree_types,
    fixed_tree_cycles,
    inner_product_cycles,
    outer_product_cycles,
    tree_sum_fp16,
)
from repro.accel.tiling import (
    TilePlan,
    compute_bound_prompt_threshold,
    plan_weight_tiling,
    prefill_gemm_cycles,
)
from repro.accel.scaling import (
    area_factor,
    energy_factor,
    scale_area,
    scale_energy_efficiency,
)
from repro.accel.scheduler import (
    DATAFLOWS,
    AttentionBreakdown,
    attention_timeline,
    decode_attention,
    prefill_attention,
    resolve_dataflow,
)
from repro.accel.sfu import (
    LayerNormUnit,
    SoftmaxUnit,
    layernorm_stall_cycles,
    softmax_stall_cycles,
)
from repro.accel.simulator import (
    AcceleratorSimulator,
    MixedRoundStats,
    PhaseStats,
    RoundStats,
    RunStats,
)
from repro.accel.voting_engine import VotingEngine

__all__ = [
    "HardwareConfig",
    "veda_config",
    "baseline_config",
    "ablation_configs",
    "PEMode",
    "ProcessingElement",
    "PEArray",
    "RTLArray",
    "inner_product_cycles",
    "outer_product_cycles",
    "fixed_tree_cycles",
    "adder_tree_types",
    "tree_sum_fp16",
    "SoftmaxUnit",
    "LayerNormUnit",
    "softmax_stall_cycles",
    "layernorm_stall_cycles",
    "AttentionBreakdown",
    "DATAFLOWS",
    "resolve_dataflow",
    "decode_attention",
    "prefill_attention",
    "attention_timeline",
    "HBMModel",
    "SRAMModel",
    "VotingEngine",
    "AcceleratorSimulator",
    "TilePlan",
    "plan_weight_tiling",
    "prefill_gemm_cycles",
    "compute_bound_prompt_threshold",
    "PhaseStats",
    "RunStats",
    "RoundStats",
    "MixedRoundStats",
    "AreaPowerModel",
    "ModuleCost",
    "PAPER_TABLE1",
    "AcceleratorSpec",
    "SANGER",
    "SPATTEN",
    "published_accelerators",
    "area_factor",
    "energy_factor",
    "scale_area",
    "scale_energy_efficiency",
    "GPUSpec",
    "RTX4090",
    "decode_tokens_per_second",
    "decode_energy_per_token",
]

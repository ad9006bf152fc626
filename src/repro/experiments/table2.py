"""Table II: comparison with related accelerators and an edge GPU.

Three parts, as in the paper:

1. **Accelerator rows** — Sanger (55 nm) and SpAtten (40 nm) published
   figures vs VEDA's modeled area/throughput/efficiency, plus
   technology-scaled efficiencies at 28 nm (the paper's claim that the
   ranking "remains true after technology scaling").
2. **End-to-end GPU comparison** — Llama-2 7B decode on an RTX 4090
   (bandwidth roofline) vs VEDA (cycle simulator): energy-efficiency
   ratio (paper: 38.8×) and 8-VEDA throughput ratio (paper: 2.86×).
3. VEDA's absolute throughput figures: 245 GOPS peak-utilization and
   18.6 tokens/s single-chip decode.
"""

from __future__ import annotations

from repro.accel.area_power import AreaPowerModel
from repro.accel.baselines import published_accelerators
from repro.accel.config import veda_config
from repro.accel.gpu_model import RTX4090, decode_tokens_per_second
from repro.accel.scaling import scale_area, scale_energy_efficiency
from repro.accel.simulator import AcceleratorSimulator
from repro.config import llama2_7b_shapes
from repro.experiments.common import ExperimentResult

__all__ = ["run", "PAPER_VALUES"]

PAPER_VALUES = {
    "veda_area_mm2": 1.06,
    "veda_gops": 245.0,
    "veda_eff_gops_w": 653.0,
    "veda_tokens_s": 18.6,
    "gpu_energy_ratio": 38.8,
    "veda8_throughput_ratio": 2.86,
}

#: FP16 Llama-2 7B weight footprint in bytes (6.74e9 params × 2 B).
LLAMA2_7B_BYTES = 6.74e9 * 2


def run(prompt_length=512, gen_length=256, kv_budget=256):
    """Reproduce Table II; returns accelerator rows + end-to-end rows."""
    model = llama2_7b_shapes()
    hw = veda_config()
    sim = AcceleratorSimulator(hw, model)
    area_power = AreaPowerModel(hw)

    # --- VEDA figures from the models -------------------------------
    veda_area = area_power.total_area_mm2()
    veda_power_w = area_power.total_power_w()
    prefill = sim.prefill(prompt_length)
    veda_gops = sim.achieved_gops(prefill)
    veda_eff = veda_gops / veda_power_w
    veda_tokens_s = sim.tokens_per_second(prompt_length, gen_length, kv_budget)

    rows = []
    for spec in published_accelerators():
        rows.append(
            {
                "accelerator": spec.name,
                "support": spec.support,
                "tech_nm": spec.technology_nm,
                "area_mm2": spec.area_mm2,
                "area@28nm": scale_area(spec.area_mm2, spec.technology_nm, 28),
                "GOPS": spec.throughput_gops,
                "GOPS/W": spec.energy_efficiency_gops_w,
                "GOPS/W@28nm": scale_energy_efficiency(
                    spec.energy_efficiency_gops_w, spec.technology_nm, 28
                ),
            }
        )
    rows.append(
        {
            "accelerator": "VEDA",
            "support": "LLM",
            "tech_nm": 28,
            "area_mm2": veda_area,
            "area@28nm": veda_area,
            "GOPS": veda_gops,
            "GOPS/W": veda_eff,
            "GOPS/W@28nm": veda_eff,
        }
    )

    # --- end-to-end GPU comparison -----------------------------------
    gpu_tps = decode_tokens_per_second(
        RTX4090,
        LLAMA2_7B_BYTES,
        kv_bytes_per_token=2 * kv_budget * model.d_model * 2 * model.n_layers / 1,
    )
    gpu_energy_per_token = RTX4090.board_power_w / gpu_tps

    run_stats = sim.run(prompt_length, gen_length, kv_budget=kv_budget)
    decode_seconds = run_stats.decode.cycles / (hw.clock_ghz * 1e9)
    hbm_energy = (
        run_stats.decode.hbm_bytes
        * 8.0
        * AreaPowerModel.ENERGY_HBM_PJ_PER_BIT
        * 1e-12
    )
    veda_energy_per_token = (
        veda_power_w * decode_seconds + hbm_energy
    ) / gen_length
    energy_ratio = gpu_energy_per_token / veda_energy_per_token
    throughput_ratio_8 = 8 * veda_tokens_s / gpu_tps

    end_to_end = [
        {
            "metric": "GPU decode tokens/s (RTX 4090 roofline)",
            "value": gpu_tps,
            "paper": "-",
        },
        {
            "metric": "VEDA tokens/s",
            "value": veda_tokens_s,
            "paper": PAPER_VALUES["veda_tokens_s"],
        },
        {
            "metric": "energy-efficiency ratio (VEDA vs GPU)",
            "value": energy_ratio,
            "paper": PAPER_VALUES["gpu_energy_ratio"],
        },
        {
            "metric": "8-VEDA throughput ratio vs GPU",
            "value": throughput_ratio_8,
            "paper": PAPER_VALUES["veda8_throughput_ratio"],
        },
    ]

    result = ExperimentResult(
        experiment_id="table2",
        title="Comparison with related accelerators and RTX 4090",
        rows=rows,
        notes=(
            "Scaled columns use DeepScaleTool-style factors; end-to-end "
            "rows below."
        ),
    )
    result.end_to_end = end_to_end
    return result

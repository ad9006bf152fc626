"""Area and power model — regenerates paper Table I.

A parametric component model standing in for Design Compiler + CACTI at
TSMC 28 nm / 1 GHz.  Per-unit constants (µm² and pJ at 28 nm) are
calibrated so the module breakdown reproduces the paper's published
numbers; the value of the model is that it *recomputes* the table from
the architecture parameters (PE count, FIFO depths, buffer capacity), so
design-space sweeps (different array sizes, FIFO sizes) scale sensibly.

Paper Table I targets:

================  ============  ===========
Module            Area [mm²]    Power [mW]
================  ============  ===========
PE array          0.493         175.64
Voting engine     0.069         26.41
SFU               0.029         13.19
Schedule          0.041         11.20
On-chip buffer    0.426         148.82
**Total**         **1.058**     **375.26**
================  ============  ===========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accel.config import HardwareConfig
from repro.accel.memory import SRAMModel

__all__ = ["ModuleCost", "AreaPowerModel", "PAPER_TABLE1"]

#: The paper's published breakdown, for bench comparison.
PAPER_TABLE1 = {
    "PE Array": (0.493, 175.64),
    "Voting Engine": (0.069, 26.41),
    "Special Function Unit": (0.029, 13.19),
    "Schedule": (0.041, 11.20),
    "On-chip Buffer": (0.426, 148.82),
    "Total": (1.058, 375.26),
}


@dataclass(frozen=True)
class ModuleCost:
    """Area/power of one module."""

    name: str
    area_mm2: float
    power_mw: float


class AreaPowerModel:
    """Component-level area/power estimates at 28 nm, 1 GHz, FP16.

    Unit constants are representative standard-cell figures calibrated to
    Table I (see module docstring); they scale with the architecture
    parameters in :class:`HardwareConfig`.
    """

    # --- logic areas, µm² (28 nm) -------------------------------------
    AREA_FP16_MULT = 1850.0
    AREA_FP16_ADD = 1150.0
    AREA_REG_BIT = 12.0
    AREA_PE_CTRL = 276.0  # mode decoder + muxes per PE
    AREA_EXP_UNIT = 3500.0
    AREA_DIV_UNIT = 3000.0
    AREA_SQRT_UNIT = 2500.0
    AREA_SFU_CTRL = 4300.0
    AREA_VOTE_LOGIC = 1600.0  # comparators, threshold update, index reg
    AREA_SCHEDULE = 41000.0  # system control + PE config store

    # --- energies, pJ per operation (28 nm, 1 GHz) ---------------------
    ENERGY_MAC = 1.372
    ENERGY_EXP = 2.2
    ENERGY_DIV = 1.8
    ENERGY_SQRT = 1.6
    POWER_VOTE_LOGIC_MW = 24.1
    POWER_SFU_CTRL_MW = 3.6
    POWER_SCHEDULE_MW = 11.2
    #: Off-chip DRAM access energy, pJ per *bit* (HBM2E-class devices are
    #: ~2-4 pJ/bit); the one value every DRAM energy estimate reads.
    ENERGY_HBM_PJ_PER_BIT = 2.0

    def __init__(self, hw: HardwareConfig = None):
        self.hw = hw or HardwareConfig()

    # ------------------------------------------------------------------
    # Per-module models
    # ------------------------------------------------------------------
    def pe_array(self):
        hw = self.hw
        # input + weight + accumulation registers, FP16 each.
        reg_bits = 3 * 16
        per_pe = (
            self.AREA_FP16_MULT
            + self.AREA_FP16_ADD
            + reg_bits * self.AREA_REG_BIT
            + self.AREA_PE_CTRL
        )
        area = hw.n_pe * per_pe * 1e-6
        power = hw.n_pe * self.ENERGY_MAC * hw.clock_ghz  # pJ × GHz = mW
        return ModuleCost("PE Array", area, power)

    def voting_engine(self):
        hw = self.hw
        fifo = SRAMModel(hw.vote_fifo_entries * 2, width_bits=16)
        buffer = SRAMModel(hw.vote_buffer_entries * hw.vote_count_bits // 8, width_bits=16)
        area = (
            fifo.area_mm2
            + buffer.area_mm2
            + self.AREA_VOTE_LOGIC * 1e-6
        )
        # Streaming activity: FIFO write+read plus vote-buffer RMW per
        # cycle while attention runs; plus comparator/threshold logic.
        sram_power = (
            (2 * 2 + 2 * 2)  # bytes per cycle across the two macros
            * (fifo.energy_pj_per_byte + buffer.energy_pj_per_byte)
            / 2
            * hw.clock_ghz
        )
        power = sram_power + self.POWER_VOTE_LOGIC_MW
        return ModuleCost("Voting Engine", area, power)

    def sfu(self):
        hw = self.hw
        fifo = SRAMModel(hw.sfu_fifo_depth * 2, width_bits=16)
        area = (
            hw.n_exp_units * self.AREA_EXP_UNIT
            + hw.n_div_units * self.AREA_DIV_UNIT
            + hw.n_sqrt_units * self.AREA_SQRT_UNIT
            + hw.n_sfu_mult * self.AREA_FP16_MULT
            + hw.n_sfu_add * self.AREA_FP16_ADD
            + self.AREA_SFU_CTRL
        ) * 1e-6 + fifo.area_mm2
        power = (
            hw.n_exp_units * self.ENERGY_EXP
            + hw.n_div_units * self.ENERGY_DIV
            + hw.n_sqrt_units * self.ENERGY_SQRT
        ) * hw.clock_ghz + self.POWER_SFU_CTRL_MW
        return ModuleCost("Special Function Unit", area, power)

    def schedule(self):
        return ModuleCost(
            "Schedule", self.AREA_SCHEDULE * 1e-6, self.POWER_SCHEDULE_MW
        )

    def onchip_buffer(self):
        hw = self.hw
        sram = SRAMModel(hw.onchip_buffer_bytes, width_bits=2048)
        # Streaming a full HBM-rate line (256 B/cycle) through the buffer.
        power = hw.bytes_per_cycle * sram.energy_pj_per_byte * hw.clock_ghz
        return ModuleCost("On-chip Buffer", sram.area_mm2, power)

    # ------------------------------------------------------------------
    def breakdown(self):
        """All module costs plus the total (paper Table I layout)."""
        modules = [
            self.pe_array(),
            self.voting_engine(),
            self.sfu(),
            self.schedule(),
            self.onchip_buffer(),
        ]
        total = ModuleCost(
            "Total",
            sum(m.area_mm2 for m in modules),
            sum(m.power_mw for m in modules),
        )
        return modules + [total]

    def total_power_w(self):
        return self.breakdown()[-1].power_mw * 1e-3

    def total_area_mm2(self):
        return self.breakdown()[-1].area_mm2

    # ------------------------------------------------------------------
    # Run energy (joules — the per-unit constants above are pJ-scale)
    # ------------------------------------------------------------------
    def run_energy_joules(self, cycles, macs, hbm_bytes):
        """Modeled energy of a priced run, in **joules**.

        Three terms, each explicitly converted from the pJ-scale unit
        constants (1 pJ = 1e-12 J — the conversion the raw fields make
        easy to misread):

        - PE dynamic: ``macs × ENERGY_MAC`` pJ — activity-proportional,
          so an idle array burns nothing here;
        - DRAM: ``hbm_bytes × 8 × ENERGY_HBM_PJ_PER_BIT`` pJ — every
          off-chip byte (weights, KV, votes) pays the access energy;
        - background: everything *except* the PE array (voting engine,
          SFU, schedule, on-chip buffer) drawn for the run's wall-clock
          — those modules are modeled as always-on power, and the PE
          array's share is already counted per-MAC above.
        """
        if cycles < 0 or macs < 0 or hbm_bytes < 0:
            raise ValueError("cycles, macs, and hbm_bytes must be non-negative")
        seconds = cycles / (self.hw.clock_ghz * 1e9)
        pe_dynamic = macs * self.ENERGY_MAC * 1e-12
        dram = hbm_bytes * 8.0 * self.ENERGY_HBM_PJ_PER_BIT * 1e-12
        background_w = self.total_power_w() - self.pe_array().power_mw * 1e-3
        return pe_dynamic + dram + background_w * seconds

    def joules_per_token(self, cycles, macs, hbm_bytes, tokens):
        """Run energy amortized per generated token (0.0 for no tokens)
        — the serving-scale efficiency metric next to tokens/second."""
        if not tokens:
            return 0.0
        return self.run_energy_joules(cycles, macs, hbm_bytes) / tokens

"""Memory-system models: HBM (Ramulator substitute) and on-chip SRAM
(CACTI substitute).

The paper attaches a 256 GB/s HBM through Ramulator and sizes a 256 KB
on-chip buffer with CACTI.  For the reproduction, two behaviours matter:

1. **Streaming bandwidth.**  :class:`HBMModel` converts a sequential
   (row-major) walk's bytes to cycles at peak bandwidth.  The fixed
   inner-product dataflow's transpose walk of V, which breaks row-buffer
   locality, is priced in :mod:`repro.accel.scheduler` with the
   configuration's ``dram_strided_derate``.
2. **Area/energy of SRAM.**  :class:`SRAMModel` is a small CACTI-style
   analytic model — area and per-access energy as power-law functions of
   capacity — calibrated so the paper's Table I macro sizes come out
   right (see :mod:`repro.accel.area_power`).
"""

from __future__ import annotations

__all__ = ["HBMModel", "SRAMModel"]


class HBMModel:
    """Bandwidth model of the off-chip HBM.

    Parameters
    ----------
    bandwidth_gb_s:
        Peak sequential bandwidth (paper: 256 GB/s).
    clock_ghz:
        Accelerator clock, to convert bytes to cycles.
    """

    def __init__(self, bandwidth_gb_s=256.0, clock_ghz=1.0):
        if bandwidth_gb_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_gb_s = float(bandwidth_gb_s)
        self.clock_ghz = float(clock_ghz)

    @property
    def bytes_per_cycle(self):
        return self.bandwidth_gb_s / self.clock_ghz

    def stream_cycles(self, num_bytes):
        """Cycles to stream ``num_bytes`` sequentially (row-major walk)."""
        if num_bytes < 0:
            raise ValueError("negative byte count")
        return num_bytes / self.bytes_per_cycle


class SRAMModel:
    """CACTI-style analytic SRAM macro model.

    Area density (µm²/byte) follows a power law in capacity — small
    macros pay relatively more periphery; the exponent and scale are
    fitted to the paper's Table I macros (a 16 KB voting store at
    ~0.069 mm² including logic, and a 256 KB buffer at 0.426 mm²).
    Per-access energy uses a standard ~sqrt(capacity) wordline/bitline
    scaling.
    """

    #: Fitted density law: density(bytes) = _DENSITY_A * bytes ** _DENSITY_B
    _DENSITY_A = 46.0  # µm² per byte at 1 byte (extrapolated scale)
    _DENSITY_B = -0.268

    #: Read energy at the 1-byte reference point, pJ per byte accessed.
    _ENERGY_A = 0.048
    _ENERGY_B = 0.20  # grows slowly with macro capacity

    def __init__(self, capacity_bytes, width_bits=128):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if width_bits <= 0 or width_bits % 8 != 0:
            raise ValueError("width_bits must be a positive multiple of 8")
        self.capacity_bytes = int(capacity_bytes)
        self.width_bits = int(width_bits)

    @property
    def area_mm2(self):
        density = self._DENSITY_A * self.capacity_bytes**self._DENSITY_B
        return density * self.capacity_bytes * 1e-6

    @property
    def energy_pj_per_byte(self):
        return self._ENERGY_A * self.capacity_bytes**self._ENERGY_B

    def __repr__(self):
        return (
            f"SRAMModel({self.capacity_bytes} B, width={self.width_bits} b, "
            f"area={self.area_mm2:.4f} mm²)"
        )

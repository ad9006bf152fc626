"""HBM and SRAM models."""

import pytest

from repro.accel.memory import HBMModel, SRAMModel


class TestHBM:
    def test_stream_cycles(self):
        hbm = HBMModel(bandwidth_gb_s=256, clock_ghz=1.0)
        assert hbm.stream_cycles(256) == 1.0
        assert hbm.stream_cycles(2560) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HBMModel(bandwidth_gb_s=0)
        hbm = HBMModel()
        with pytest.raises(ValueError):
            hbm.stream_cycles(-1)


class TestSRAM:
    def test_area_grows_sublinearly_in_density(self):
        """Bigger macros are denser (µm²/byte falls with capacity)."""
        small = SRAMModel(8 * 1024)
        large = SRAMModel(256 * 1024)
        assert small.area_mm2 / 8 > large.area_mm2 / 256  # per-KB density

    def test_calibrated_to_table1_macros(self):
        """The paper's macros: 256 KB buffer ≈ 0.426 mm²; the two 8 KB
        voting stores ≈ 0.069 mm² together (with logic)."""
        buffer = SRAMModel(256 * 1024)
        assert buffer.area_mm2 == pytest.approx(0.426, rel=0.03)
        voting = 2 * SRAMModel(8 * 1024).area_mm2
        assert voting == pytest.approx(0.067, rel=0.06)

    def test_energy_grows_with_capacity(self):
        assert (
            SRAMModel(256 * 1024).energy_pj_per_byte
            > SRAMModel(8 * 1024).energy_pj_per_byte
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SRAMModel(0)
        with pytest.raises(ValueError):
            SRAMModel(64, width_bits=7)

"""Benchmark fixtures: result-table persistence."""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parents[1] / ".artifacts" / "results"


@pytest.fixture(scope="session")
def save_table():
    """Persist an experiment's formatted table under .artifacts/results."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _save(result, extra=""):
        text = result.render(extra)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")
        return path

    return _save

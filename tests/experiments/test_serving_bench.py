"""The serving benchmarks end to end, through the CLI.

Three ``BENCH_serving.json`` records reproduce exactly on every
checkout (no host clock in their rows), so they are golden: a fresh run
must equal the record on rows, title and notes.  The claims each
benchmark exists to show are asserted on the fresh rows, and every other
mode is smoke-run at its CI size — each run already asserts per-request
token identity across its rows in-run.
"""

import inspect
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main
from repro.experiments import serving

BENCH = Path(__file__).resolve().parents[2] / "BENCH_serving.json"
RECORDS = {
    record["experiment_id"]: record for record in json.loads(BENCH.read_text())
}


def _run_json(results_dir, argv):
    out = results_dir / "result.json"
    assert main([*argv, "--json", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture()
def bench(tmp_path, monkeypatch):
    """Run one CLI invocation with ``--json``; return the payload."""
    monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
    return lambda *argv: _run_json(tmp_path, argv)


GOLDEN = {
    "serving_prefix_bench": (
        "serve-bench", "prefix", "--shared-prefix", "30",
    ),
    "serving_schedule_bench": ("serve-bench", "schedule"),
    "serving_fleet_bench": ("serve-fleet", "--cosim"),
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One fresh run of each recorded invocation, shared by the tests."""
    results_dir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_RESULTS_DIR", results_dir)
        return {
            experiment_id: _run_json(results_dir, argv)
            for experiment_id, argv in GOLDEN.items()
        }


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_recorded_bench_reproduces_exactly(golden, experiment_id):
    fresh = golden[experiment_id]
    recorded = RECORDS[experiment_id]
    assert fresh["experiment_id"] == experiment_id
    assert fresh["title"] == recorded["title"]
    assert fresh["notes"] == recorded["notes"]
    assert fresh["rows"] == recorded["rows"]


def test_prefix_affinity_beats_round_robin(golden):
    rows = {
        row["placement"]: row for row in golden["serving_fleet_bench"]["rows"]
    }
    assert (
        rows["prefix_affinity"]["token_hit_rate"]
        > rows["round_robin"]["token_hit_rate"]
    )


def test_cost_guided_controller_beats_every_static_config(golden):
    rows = golden["serving_schedule_bench"]["rows"]
    (adaptive,) = [row for row in rows if row["policy"] == "adaptive"]
    best_static = max(
        (row for row in rows if row["policy"] == "static"),
        key=lambda row: row["hw_tokens/s"],
    )
    assert adaptive["hw_tokens/s"] >= best_static["hw_tokens/s"]
    assert adaptive["p95_ttft_cyc"] <= best_static["p95_ttft_cyc"]


def test_forked_branches_share_prompt_blocks(bench):
    rows = {
        row["mode"]: row
        for row in bench(
            "serve-bench", "fork", "--requests", "3", "--n-samples", "4",
            "--shared-prefix", "16",
        )["rows"]
    }
    assert rows["sample/paged"]["peak_vs_scaled_single"] < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("serve-bench", "batch", "--requests", "4", "--batch-sizes", "1,4",
         "--paged", "--shared-prefix", "8", "--cosim"),
        ("serve-bench", "preempt", "--requests", "4", "--preempt", "swap",
         "--cosim", "--cosim-shapes", "served"),
        ("serve-bench", "spec", "--target", "tiny", "--draft", "self",
         "--spec-k", "2", "--requests", "4"),
        ("serve-bench", "fork", "--requests", "3", "--beam-width", "4",
         "--cosim", "--cosim-shapes", "served"),
        ("serve-fleet", "--replicas", "2", "--placement",
         "prefix_affinity", "--cosim", "--cosim-shapes", "served"),
    ],
    ids=["batch", "preempt", "spec", "fork", "fleet"],
)
def test_mode_smoke(bench, argv):
    assert bench(*argv)["rows"]


def test_serve_engine_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
    assert main(
        [
            "serve-engine", "--requests", "3", "--batch-size", "2",
            "--chunk-sizes", "4", "--admissions", "edf", "--cosim",
            "--cosim-shapes", "served",
        ]
    ) == 0
    assert "max_round_cyc" in capsys.readouterr().out
    assert (tmp_path / "serving_engine.txt").exists()


def _error_line(capsys):
    """The usage error argparse printed (not the usage text above it,
    which names every flag the command accepts)."""
    return capsys.readouterr().err.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ("batch", "--pool-fraction", "0.5"),
        ("batch", "--length-scales", "2"),
        ("schedule", "--cosim"),
        ("prefix", "--chunk-prefill", "4"),
        ("fork", "--n-samples", "4", "--beam-width", "4"),
        ("preempt", "--interarrival", "3"),
        ("spec", "--shared-prefix", "8"),
        ("batch", "--batch-size", "4"),
    ],
)
def test_foreign_flags_are_usage_errors(argv, capsys):
    """A mode declares only the flags its run_* reads; anything else is
    refused by argparse instead of being silently ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main(["serve-bench", *argv])
    assert exit_info.value.code == 2
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert flag in _error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ("serve-bench", "batch", "--batch-sizes", "1,0"),
        ("serve-bench", "batch", "--compression-ratio", "1.5"),
        ("serve-bench", "preempt", "--pool-fraction", "0"),
        ("serve-bench", "preempt", "--preempt", "swap,sometimes"),
        ("serve-bench", "spec", "--spec-k", "1,x"),
        ("serve-bench", "fork", "--n-samples", "1"),
        ("serve-engine", "--admissions", "fifo,lifo"),
        ("serve-engine", "--chunk-sizes", "-4"),
        ("serve-fleet", "--placement", "sticky"),
    ],
)
def test_bad_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert argv[-2] in _error_line(capsys)


def test_malformed_workload_file_is_a_usage_error(tmp_path, capsys):
    """A valid-JSON line that is not an object died with a traceback."""
    path = tmp_path / "bad.jsonl"
    path.write_text('"abc"\n')
    with pytest.raises(SystemExit) as exit_info:
        main(["serve-bench", "batch", "--workload-file", str(path)])
    assert exit_info.value.code == 2
    assert "bad.jsonl:1: bad workload record" in _error_line(capsys)


def test_fork_needs_a_width(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve-bench", "fork"])
    assert exit_info.value.code == 2
    assert "--n-samples --beam-width is required" in _error_line(capsys)


@pytest.mark.parametrize("bandwidth", ["0", "-5"])
def test_hbm_bandwidth_must_be_positive(bandwidth, capsys):
    """Reached HBMModel.__init__ as a ValueError traceback before."""
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "serve-bench", "spec", "--target", "tiny", "--draft", "self",
                "--hbm-gb-s", bandwidth,
            ]
        )
    assert exit_info.value.code == 2
    assert "--hbm-gb-s" in _error_line(capsys)


def test_interconnect_bandwidth_must_be_positive(capsys):
    """Reached HardwareConfig.__post_init__ as a ValueError traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "serve-fleet", "--cosim", "--tp", "2",
                "--interconnect-gb-s", "0",
            ]
        )
    assert exit_info.value.code == 2
    assert "--interconnect-gb-s" in _error_line(capsys)



class _Parsed(Exception):
    """Carries the keyword arguments a command would call its run_* with."""


@pytest.mark.parametrize(
    "argv, function",
    [
        (("serve-bench", "batch"), serving.run),
        (("serve-bench", "prefix"), serving.run_prefix),
        (("serve-bench", "preempt"), serving.run_preempt),
        (("serve-bench", "schedule"), serving.run_cosim_schedule),
        (("serve-bench", "spec"), serving.run_spec),
        # The width group is required; 4 is run_fork's own n_samples.
        (("serve-bench", "fork", "--n-samples", "4"), serving.run_fork),
        (("serve-engine",), serving.run_engine),
        (("serve-fleet",), serving.run_fleet),
    ],
)
def test_unflagged_command_runs_the_function_defaults(argv, function, monkeypatch):
    """A command given no optional flag calls its run_* with that
    function's own defaults, so the CLI and a Python call serve the same
    benchmark."""
    kwargs = cli._kwargs

    def capture(args):
        raise _Parsed(kwargs(args))

    monkeypatch.setattr(cli, "_kwargs", capture)
    with pytest.raises(_Parsed) as parsed:
        main(list(argv))
    passed = parsed.value.args[0]
    parameters = inspect.signature(function).parameters
    assert passed == {name: parameters[name].default for name in passed}

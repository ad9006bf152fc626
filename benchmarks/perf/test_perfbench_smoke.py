"""Smoke tests of the perfbench harness (collected by tier-1).

Each workload runs at ``--scale smoke`` in-process; nothing here asserts
a speed.  What is held: every declared metric is reported under a sane
name with a unit, simulated-clock metrics and exact counters repeat for
one seed and move with another, span self-time arithmetic, wrapper
restoration, graceful handling of a vanished wrap target, trace digests,
``compare.py``'s verdicts, and that ``BENCHMARK.json`` declares what the
code measures.
"""

import dataclasses
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import perfbench_measure as measure  # noqa: E402
import perfbench_trace as tracing  # noqa: E402
from perfbench_metrics import (  # noqa: E402
    DRIVER_PER_LAYER,
    END_TO_END,
    HIGHER_IS_BETTER,
    PER_LAYER,
    ZERO_WHEN_BYPASSED,
    Metric,
    exact_names,
)
from perfbench_workloads import WORKLOADS, digest, dump, generate  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load(filename, name):
    spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


compare = _load("compare.py", "perfbench_compare")
runner = _load("run.py", "perfbench_run")


def _smoke(name, seed):
    result = measure.run_workload(name, seed=seed, scale="smoke", passes=1, trace=True)
    result["end_to_end"]["setup_s"] = {"value": result.pop("setup_s"), "n": 1}
    result["end_to_end"]["peak_rss_mb"] = {"value": result.pop("peak_rss_mb"), "n": 1}
    return result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Two traced smoke runs of one seed and one of another."""
    name = request.param
    return name, _smoke(name, 1), _smoke(name, 1), _smoke(name, 2)


def test_workload_is_correct_and_reports_every_metric(runs):
    name, first, _, _ = runs
    assert first["failed"] == 0, first["failures"]
    assert first["failed_share"] == 0
    assert set(first["end_to_end"]) == {m.name for m in END_TO_END}
    assert set(first["per_layer"]) == {m.name for m in PER_LAYER}
    assert first["missing_targets"] == []
    assert all(v is not None for v in first["per_layer"].values())
    for trace in (0, 1):
        shown = dict(first) if trace else {k: v for k, v in first.items() if k != "per_layer"}
        table = io.StringIO()
        runner.print_result(shown, table)
        line = runner.contract_line([shown], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        declared = {m.name: m.unit for m in (DRIVER_PER_LAYER if trace else END_TO_END)}
        assert set(line["metrics"]) == set(declared)
        for metric, unit in declared.items():
            assert line["metrics"][metric]["unit"] == unit
            assert isinstance(line["metrics"][metric]["value"], (int, float))
        for m in PER_LAYER if trace else END_TO_END:
            assert NAME.match(m.name), m.name
            assert re.search(rf"^\s+{re.escape(m.name)}\s.*\s{re.escape(m.unit)}(\s|$)",
                             table.getvalue(), re.M), m.name
    # A host time in the driver-facing line is never structurally 0.
    for m in DRIVER_PER_LAYER:
        if not m.exact:
            assert first["per_layer"][m.name] > 0, m.name
    json.dumps(first["spans"])


def test_simulated_clock_and_counters_repeat_and_follow_the_seed(runs):
    name, first, second, other = runs
    assert first["digest"] == second["digest"] != other["digest"]
    exact = exact_names()
    sim = [m.name for m in END_TO_END if m.clock == "sim"]

    def values(result):
        merged = {k: v["value"] for k, v in result["end_to_end"].items()}
        merged.update(result["per_layer"])
        return {k: merged[k] for k in exact}

    assert values(first) == values(second)
    assert any(values(first)[k] != values(other)[k] for k in sim)


def test_mechanism_split_between_workloads(runs):
    name, first, _, _ = runs
    layers = first["per_layer"]
    budgeted = name == "decode_evict"
    assert (layers["core.engine.evictions"] > 0) == budgeted
    assert (layers["core.policies.select_victim_calls"] > 0) == budgeted
    assert (layers["core.kv_cache.append_calls"] > 0) == budgeted
    assert (layers["serve.paging.append_calls"] > 0) == (not budgeted)
    assert (layers["serve.resources.swap_blocks"] > 0) == (name == "overload_swap")
    assert (layers["serve.fleet.route_calls"] > 0) == (name == "fleet_replay")
    assert (layers["serve.prefix_cache.token_hit_rate"] > 0) == (
        name in ("prefill_shared", "fleet_replay")
    )
    assert layers["bench.generator_lag_rounds"] == 0
    assert layers["serve.cosim.replay_rounds"] > 0


def test_span_self_time_arithmetic():
    spans = [
        ["a.outer", 0.0, 10.0, -1, 0],
        ["b.mid", 1.0, 4.0, 0, 0],
        ["b.leaf", 2.0, 3.0, 1, 0],
        ["b.mid", 5.0, 9.0, 0, 1],
    ]
    summary = tracing.summarize(spans)
    assert summary["a.outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["b.mid"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert summary["b.leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    layers = tracing.layer_self_times(summary)
    assert layers == {"a": 3.0, "b": 7.0}
    assert sum(layers.values()) == 10.0  # every traced instant exactly once


def test_wrappers_are_installed_then_fully_restored():
    targets = tracing.TARGETS
    before = [tracing.resolve(t) for t in targets]
    # A module-level function is also held, by name, by its importers.
    importers = [tracing.holders(t, f) if t.owner is None else [] for t, f in zip(targets, before)]
    assert any(len(places) > 1 for places in importers)
    with tracing.Tracer() as tracer:
        assert not tracer.missing
        during = [tracing.resolve(t) for t in targets]
        assert all(a is not b for a, b in zip(before, during))
        for wrapper, places in zip(during, importers):
            assert all(getattr(holder, attr) is wrapper for holder, attr in places)
    assert all(tracing.resolve(t) is f for t, f in zip(targets, before))
    for original, places in zip(before, importers):
        assert all(getattr(holder, attr) is original for holder, attr in places)


def test_missing_wrap_target_is_null_not_a_crash(monkeypatch):
    by_key = {t.key: t for t in tracing.TARGETS}
    gone = dataclasses.replace(by_key["serve.fleet.route"], attr="renamed_away")
    unimportable = dataclasses.replace(by_key["accel.simulator.mixed_round"],
                                       module="perfbench_no_such_module")
    targets = tuple(
        t for t in tracing.TARGETS if t.key not in (gone.key, unimportable.key)
    ) + (gone, unimportable)
    monkeypatch.setattr(measure, "Tracer", lambda: tracing.Tracer(targets))
    with pytest.warns(UserWarning, match="wrap target"):
        result = measure.run_workload("fleet_replay", seed=1, scale="smoke", passes=1, trace=True)
    assert result["failed"] == 0
    assert result["missing_targets"] == ["accel.simulator.mixed_round", "serve.fleet.route"]
    layers = result["per_layer"]
    for metric in ("serve.fleet.route_calls", "serve.fleet.route_s", "serve.fleet.self_s",
                   "accel.simulator.mixed_round_calls", "accel.simulator.self_s"):
        assert layers[metric] is None
    assert layers["serve.engine.step_calls"] > 0
    line = runner.contract_line([result], trace=1)
    assert line["metrics"]["serve.fleet.route_calls"]["value"] == 0


def test_dump_reproduces_the_digest(tmp_path):
    paths = [dump(generate("overload_swap", seed, "smoke"), tmp_path / str(i))
             for i, seed in enumerate((5, 5, 6))]
    headers = [json.loads(p.read_text().splitlines()[0]) for p in paths]
    assert headers[0]["digest"] == headers[1]["digest"] != headers[2]["digest"]
    assert headers[0]["digest"] == digest(generate("overload_swap", 5, "smoke"))
    assert len(paths[0].read_text().splitlines()) == headers[0]["requests"] + 1


def _run(seed, values, failed_share=0.0, trace=False, per_layer=None, name="w"):
    workload = {
        "failed_share": failed_share,
        "end_to_end": {name: dict(entry, n=5) for name, entry in values.items()},
    }
    if per_layer is not None:
        workload["per_layer"] = per_layer
    return {"seed": seed, "trace": trace, "workloads": {name: workload}}


def test_compare_verdicts_and_exit_rule():
    lower = Metric("round_ms_p50", "ms", "host", "lower", 0.10, "")
    steady = {"value": 10.0, "q1": 9.9, "q3": 10.1}
    assert compare.verdict(lower, steady, {"value": 10.5, "q1": 10.4, "q3": 10.6}) == "unchanged"
    assert compare.verdict(lower, steady, {"value": 11.5, "q1": 11.4, "q3": 11.6}) == "regressed"
    assert compare.verdict(lower, steady, {"value": 8.0, "q1": 7.9, "q3": 8.1}) == "improved"
    assert compare.verdict(lower, steady, {"value": 11.5, "q1": 10.0, "q3": 13.0}) == "unresolved"
    exact = Metric("sched_rounds", "rounds", "sim", "lower", 0.05, "")
    assert compare.exact_verdict(exact, [(100, 100), (90, 90)]) == (0, "unchanged")
    assert compare.exact_verdict(exact, [(100, 100), (90, 91)]) == (1, "regressed")
    assert compare.exact_verdict(exact, [(100, 99), (90, 91)]) == (2, "regressed")
    assert compare.exact_verdict(exact, [(100, 99), (90, 90)]) == (1, "improved")

    base = _run(0, {"round_ms_p50": steady})
    out = io.StringIO()
    assert compare.compare([base], [_run(0, {"round_ms_p50": steady})], out) == 0
    slow = _run(0, {"round_ms_p50": {"value": 14.0, "q1": 13.9, "q3": 14.1}})
    assert compare.compare([base], [slow], out) == 1
    assert "B/A" in out.getvalue() and "regressed" in out.getvalue()
    assert compare.compare([base], [_run(0, {"round_ms_p50": steady}, failed_share=0.01)], out) == 1
    counted = [_run(0, {}, trace=True, per_layer={"serve.engine.step_calls": n}) for n in (7, 8)]
    assert compare.compare([counted[0]], [counted[0]], out) == 0
    assert compare.compare([counted[0]], [counted[1]], out) == 1


def test_compare_matches_series_by_seed():
    """Directories of many seeds plus traced runs, as the A/B procedure
    makes them: simulated-clock metrics and exact counters are held
    seed by seed, not against the cross-seed bound."""

    def series(rounds, steps, seeds=(0, 1)):
        runs = [_run(seed, {"sched_rounds": {"value": rounds[seed]}}) for seed in seeds]
        traced = _run(seeds[0], {}, trace=True, per_layer={"serve.engine.step_calls": steps})
        return runs + [traced]

    base = series({0: 100, 1: 200}, 50)
    out = io.StringIO()
    assert compare.compare(base, series({0: 100, 1: 200}, 50), out) == 0
    assert "regressed" not in out.getvalue()
    # +8% at every seed is inside sched_rounds' cross-seed bound, yet regressed.
    assert compare.compare(base, series({0: 108, 1: 216}, 50), out) == 1
    assert "differs at 2 of 2 matched seeds" in out.getvalue()
    assert compare.compare(base, series({0: 100, 1: 201}, 50), out) == 1
    assert compare.compare(base, series({0: 100, 1: 200}, 55), out) == 1
    assert "exact counter differs" in out.getvalue()
    # Fewer rounds is an improvement, reported as one, not a failure.
    out = io.StringIO()
    assert compare.compare(base, series({0: 100, 1: 190}, 50), out) == 0
    assert "improved (differs at 1 of 2 matched seeds)" in out.getvalue()
    # A directory of single-workload run files covers every workload in it.
    def files(rounds):
        return [_run(0, {"sched_rounds": {"value": 100}}, name="a"),
                _run(0, {"sched_rounds": {"value": rounds}}, name="b")]

    assert compare.compare(files(50), files(50), io.StringIO()) == 0
    assert compare.compare(files(50), files(51), io.StringIO()) == 1
    # No seed in common: only the cross-seed bound over the medians is left.
    other = series({2: 108, 3: 216}, 55, seeds=(2, 3))
    assert compare.compare(base, other, io.StringIO()) == 0


def test_benchmark_json_declares_what_the_code_measures():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m.name: m.unit for m in DRIVER_PER_LAYER
    }
    assert {m["name"] for m in spec["per_layer"] if m["better"] == "higher"} == HIGHER_IS_BETTER
    assert HIGHER_IS_BETTER | ZERO_WHEN_BYPASSED <= {m.name for m in PER_LAYER}

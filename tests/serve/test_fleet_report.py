"""Fleet reporting, workload replay, and the serve-fleet CLI.

The FleetReport aggregates are what placement policies compete on, so
each one is pinned against a hand-computed value from the per-replica
reports.  Workload save/load is a JSONL round-trip over every Request
field (the replay contract: a saved stream must reproduce the original
bit-for-bit through any benchmark).  ``run_fleet`` is the experiment
that must show the headline result — prefix-affinity routing strictly
beats round-robin on cross-fleet prefix hit rate for multi-turn
conversations — and the CLI wraps it end to end.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.policies import VotingPolicy
from repro.experiments import serving
from repro.serve import FleetReport, Request, ServingFleet


def engine_kwargs(model):
    return dict(
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=True,
        block_size=4,
    )


class TestFleetReport:
    def test_empty_report_defaults(self):
        report = FleetReport()
        assert report.num_replicas == 0
        assert report.total_tokens == 0
        assert report.total_rounds == 0
        assert report.load_imbalance == 0.0
        assert report.mean_ttft == 0.0
        assert report.prefix_token_hit_rate == 0.0
        assert report.deadline_miss_rate == 0.0

    @pytest.fixture(scope="class")
    def played(self, model):
        fleet = ServingFleet(
            model,
            replicas=2,
            placement="round_robin",
            **engine_kwargs(model),
        )
        fleet.play(
            serving.make_workload(
                n_requests=6, turns=2, vocab=model.config.vocab_size, seed=0
            )
        )
        return fleet, fleet.report()

    def test_aggregates_match_per_replica_reports(self, played):
        fleet, report = played
        per_replica = [e.report() for e in fleet.engines]
        assert report.tokens_per_replica == [
            r.total_tokens for r in per_replica
        ]
        assert report.total_tokens == sum(report.tokens_per_replica)
        assert report.total_rounds == max(
            r.total_rounds for r in per_replica
        )
        tokens = report.tokens_per_replica
        assert report.load_imbalance == pytest.approx(
            max(tokens) / (sum(tokens) / len(tokens))
        )
        assert report.prefix_token_hit_rate == pytest.approx(
            sum(r.prefix_tokens_hit for r in per_replica)
            / sum(r.prompt_tokens_seen for r in per_replica)
        )

    def test_pooled_rows_carry_their_replica(self, played):
        fleet, report = played
        for row in report.requests:
            assert row["replica"] == fleet.replica_of(row["request_id"])
        assert len(report.requests) == len(report.placements)

    def test_summary_is_flat_and_complete(self, played):
        _, report = played
        summary = report.summary()
        assert summary["placement"] == "round_robin"
        assert summary["replicas"] == 2
        assert summary["tokens"] == report.total_tokens
        assert 0.0 < summary["prefix_token_hit_rate"] < 1.0
        # No deadlines in this workload: the key stays out of the table.
        assert "deadline_miss_rate" not in summary

    def test_deadline_misses_pool_across_replicas(self, model):
        fleet = ServingFleet(model, replicas=2, **engine_kwargs(model))
        fleet.play(
            serving.make_workload(
                n_requests=6,
                deadline_slack=0.5,
                vocab=model.config.vocab_size,
                seed=1,
            )
        )
        summary = fleet.report().summary()
        assert 0.0 <= summary["deadline_miss_rate"] <= 1.0


class TestWorkloadRoundTrip:
    def test_every_field_survives(self, tmp_path):
        original = [
            Request(
                "chat-0",
                np.arange(9) % 5,
                max_new_tokens=6,
                arrival_time=3,
                eos=2,
                seed=11,
                budget=8,
                deadline=40,
                priority=-1,
            ),
            Request(
                "beam-0",
                np.array([1, 2, 3, 4]),
                max_new_tokens=4,
                beam_width=2,
                length_penalty=0.7,
            ),
            Request("fork-0", np.arange(12), max_new_tokens=5, n=3, seed=2),
        ]
        path = tmp_path / "workload.jsonl"
        assert serving.save_workload(original, path) == path
        loaded = serving.load_workload(path)
        assert len(loaded) == len(original)
        for before, after in zip(original, loaded):
            assert np.array_equal(before.prompt, after.prompt)
            assert after.prompt.dtype == np.int64
            for name in (
                "request_id", "max_new_tokens", "arrival_time", "eos",
                "seed", "budget", "deadline", "priority", "n",
                "beam_width", "length_penalty",
            ):
                assert getattr(before, name) == getattr(after, name), name

    def test_replayed_workload_reproduces_the_benchmark(self, tmp_path):
        workload = serving.make_workload(n_requests=4, seed=5)
        path = tmp_path / "w.jsonl"
        serving.save_workload(workload, path)
        direct, _ = serving.run(batch_sizes=(4,), workload=workload)
        replayed, _ = serving.run(
            batch_sizes=(4,), workload=serving.load_workload(path)
        )

        def stable(rows):
            # tokens/s is host wall-clock — everything else is modeled
            # and must replay exactly.
            return [
                {k: v for k, v in row.items() if k != "tokens/s"}
                for row in rows
            ]

        assert stable(replayed.rows) == stable(direct.rows)

    def test_bad_record_reports_path_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = json.dumps(
            {"request_id": "r0", "prompt": [1, 2], "max_new_tokens": 2}
        )
        path.write_text(good + "\n" + '{"prompt": [1, 2]}\n')
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            serving.load_workload(path)

    @pytest.mark.parametrize(
        "line,reason",
        [
            ('"abc"', "expected a JSON object, got str"),
            ("3", "expected a JSON object, got int"),
            ("null", "expected a JSON object, got NoneType"),
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"request_id": "r1", "prompt": [1', "Expecting"),
        ],
        ids=["string", "number", "null", "list", "truncated"],
    )
    def test_malformed_line_reports_path_and_line(self, tmp_path, line, reason):
        """A line that is not a JSON object, or not JSON at all, is a
        structured bad-record error, never a bare AttributeError or a
        JSONDecodeError without its location."""
        path = tmp_path / "broken.jsonl"
        good = json.dumps(
            {"request_id": "r0", "prompt": [1, 2], "max_new_tokens": 2}
        )
        path.write_text(good + "\n\n" + line + "\n")
        expected = "broken.jsonl:3: bad workload record"
        with pytest.raises(ValueError, match=expected) as info:
            serving.load_workload(path)
        assert reason in str(info.value)


class TestRunFleet:
    def test_affinity_strictly_beats_round_robin_hit_rate(self, model):
        """The headline: multi-turn conversations routed with prefix
        affinity re-hit their own replica's trie; round-robin scatters
        them.  Tokens are asserted identical inside run_fleet itself."""
        result = serving.run_fleet(
            replicas=2,
            placements=("round_robin", "prefix_affinity"),
            n_requests=6,
            turns=3,
            model=model,
        )
        rates = {
            row["placement"]: row["token_hit_rate"] for row in result.rows
        }
        assert rates["prefix_affinity"] > rates["round_robin"]
        assert result.experiment_id == "serving_fleet"

    def test_cosim_rows_price_the_fleet(self, model):
        result = serving.run_fleet(
            replicas=2,
            placements=("round_robin",),
            n_requests=4,
            turns=2,
            model=model,
            cosim=True,
            tp=2,
            interconnect_gb_s=32.0,
        )
        (row,) = result.rows
        assert row["fleet_cycles"] > 0
        assert row["allreduce_cyc"] > 0
        assert row["fleet_tokens/s"] > 0

    def test_rejects_bad_arguments(self, model):
        with pytest.raises(ValueError, match="replicas"):
            serving.run_fleet(replicas=0, model=model)
        with pytest.raises(ValueError, match="cosim_shapes"):
            serving.run_fleet(model=model, cosim_shapes="13b")


class TestServeFleetCLI:
    def test_json_artifact(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
        out = tmp_path / "fleet.json"
        assert main(
            [
                "serve-fleet",
                "--replicas", "2",
                "--requests", "4",
                "--turns", "2",
                "--placement", "round_robin,prefix_affinity",
                "--json", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment_id"] == "serving_fleet_bench"
        assert [row["placement"] for row in payload["rows"]] == [
            "round_robin", "prefix_affinity",
        ]
        assert (tmp_path / "serving_fleet_bench.txt").exists()

    def test_workload_file_replay(self, tmp_path, monkeypatch, capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_RESULTS_DIR", tmp_path)
        path = tmp_path / "w.jsonl"
        serving.save_workload(
            serving.make_workload(n_requests=4, turns=2, seed=3), path
        )
        assert main(
            [
                "serve-fleet",
                "--placement", "least_loaded",
                "--workload-file", str(path),
            ]
        ) == 0
        assert "replayed" in capsys.readouterr().out

    def test_tp_requires_cosim(self):
        with pytest.raises(SystemExit):
            main(["serve-fleet", "--tp", "2"])

    def test_unknown_placement_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve-fleet", "--placement", "sticky"])

    def test_serve_bench_workload_file_is_default_mode_only(self, tmp_path):
        path = tmp_path / "w.jsonl"
        serving.save_workload(serving.make_workload(n_requests=2), path)
        with pytest.raises(SystemExit):
            main(
                [
                    "serve-bench",
                    "spec",
                    "--workload-file", str(path),
                ]
            )

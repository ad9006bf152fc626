"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list                 # every command below
    python -m repro fig8_center          # run one artifact, print its table
    python -m repro all                  # everything (slow: trains/evaluates)
    python -m repro fig8_left --fast     # reduced sweep for a quick look
    python -m repro serve-bench MODE     # serving benchmarks, one mode each:
    python -m repro serve-bench batch --requests 16 --batch-sizes 1,4,8
                                         # continuous batching vs batch cap
    python -m repro serve-bench batch --paged --shared-prefix 32
                                         # paged KV + prefix sharing vs dense
    python -m repro serve-bench batch --cosim --chunk-prefill 16
                                         # chunked prefill, priced in cycles
    python -m repro serve-bench prefix --json out.json
                                         # block-granular vs token-granular
                                         # (radix-trie) prefix sharing on a
                                         # multi-turn misaligned-prefix trace
    python -m repro serve-bench preempt --preempt off,recompute,swap,model --cosim
                                         # overload burst per preemption
                                         # mode; swap traffic priced, model
                                         # = per-victim swap vs recompute
    python -m repro serve-bench schedule --objective energy
                                         # cost-guided controller vs the
                                         # static chunk x preempt grid
    python -m repro serve-bench spec --target tiny --draft self --spec-k 2
                                         # speculative decoding, k sweep,
                                         # modeled hw speedup (the default
                                         # target/draft pair trains zoo models)
    python -m repro serve-bench fork --n-samples 4 --shared-prefix 24
                                         # parallel sampling: n branches per
                                         # request share prompt blocks CoW
    python -m repro serve-bench fork --beam-width 4 --cosim
                                         # beam search over forked KV blocks
    python -m repro serve-engine --admissions fifo,edf --chunk-sizes 0,8 --cosim
                                         # async engine: admission x chunking
    python -m repro serve-fleet --placement prefix_affinity --cosim --tp 2
                                         # replica fleet: placement policies,
                                         # tensor-parallel makespan in cycles

Each command and mode accepts only the flags it reads (``--help`` lists
them); every ``serve-bench`` mode and ``serve-fleet`` write their rows
as JSON with ``--json PATH``.  Results are also written to
``.artifacts/results/`` as text tables with their notes, the same text
the benchmark suite saves (``ExperimentResult.render``).
"""

from __future__ import annotations

import argparse
import copy
import inspect
import json
import sys
from functools import partial
from pathlib import Path

from repro.experiments import (
    ablations,
    fig8_center,
    fig8_left,
    fig8_right,
    policy_zoo,
    serving,
    table1,
    table2,
)
from repro.experiments.common import format_table
from repro.experiments.plotting import ascii_line_chart
from repro.serve import available_placements

__all__ = ["main"]

_RESULTS_DIR = Path(__file__).resolve().parents[2] / ".artifacts" / "results"


# Each runner returns ``(result, extra)``: what ``_emit`` prints and saves.
def _run_fig8_left(fast):
    return fig8_left.run(n_windows=2 if fast else 4), None


def _fig8_left_chart(result):
    return ascii_line_chart(
        {
            name: [(row["cache_size"], row[name]) for row in result.rows]
            for name in ("streaming", "h2o", "voting")
        },
        title="perplexity vs cache size (log-x not applied)",
    )


def _run_fig8_center(fast):
    return fig8_center.run(), None


def _run_fig8_right(fast):
    return fig8_right.run(), None


def _fig8_right_chart(result):
    return ascii_line_chart(
        {
            f"{r}KV": [(row["gen_length"], row[f"VEDA+{r}KV"]) for row in result.rows]
            for r in (0.5, 0.2)
        },
        title="speedup vs generation length",
    )


def _run_table1(fast):
    return table1.run(), None


def _run_table2(fast):
    result = table2.run()
    extra = format_table(result.end_to_end, title="End-to-end vs RTX 4090")
    return result, extra


def _run_policy_zoo(fast):
    return policy_zoo.run(n_windows=2 if fast else 3), None


def _run_ablations(fast):
    windows = 2 if fast else 3
    pieces = [
        ablations.voting_threshold(n_windows=windows),
        ablations.reserved_length(n_windows=windows),
        ablations.eviction_granularity(n_windows=windows),
        ablations.strided_derate_sensitivity(),
    ]
    for piece in pieces[:-1]:
        _emit(piece, None)
    return pieces[-1], None


def _run_serving(fast):
    return serving.run(n_requests=4 if fast else 8)


_EXPERIMENTS = {
    "fig8_left": _run_fig8_left,
    "fig8_center": _run_fig8_center,
    "fig8_right": _run_fig8_right,
    "table1": _run_table1,
    "table2": _run_table2,
    "policy_zoo": _run_policy_zoo,
    "ablations": _run_ablations,
    "serving": _run_serving,
}
# Printed after an experiment's table, never saved: the artifact holds
# the same text the benchmark suite writes.
_CHARTS = {"fig8_left": _fig8_left_chart, "fig8_right": _fig8_right_chart}


# ----------------------------------------------------------------------
# Argument types: argparse refuses a bad value with a usage error.
# ----------------------------------------------------------------------
def _at_least(convert, low, strict=False):
    """An argparse ``type=``: ``convert(text)``, refused below ``low``
    (or at ``low`` too, when ``strict``)."""

    def parse(text):
        value = convert(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


_positive_int = _at_least(int, 1)
_nonnegative_int = _at_least(int, 0)
# The workload draws geometric gaps with p = 1/mean, so mean >= 1.
_mean_gap = _at_least(float, 1.0)
_positive_float = _at_least(float, 0.0, strict=True)


def _zero_is_none(convert):
    """``convert``, with 0 meaning "off" (``None``)."""

    def parse(text):
        return convert(text) or None

    parse.__name__ = convert.__name__
    return parse


def _fraction(text):
    """A ratio in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _ratio_or_none(text):
    """A KV budget ratio in (0, 1], or 'none' for unbudgeted serving."""
    return None if text.lower() == "none" else _fraction(text)


def _one_of(*names):
    """An argparse ``type=`` accepting exactly one of ``names``."""

    def parse(text):
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not one of {'/'.join(names)}"
            )
        return text

    return parse


def _comma_list(item):
    """An argparse ``type=``: a comma-separated list of ``item`` values."""

    def parse(text):
        return tuple(item(part.strip()) for part in text.split(","))

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


def _workload_file(path):
    """A saved JSONL workload, loaded (see ``serving.save_workload``)."""
    try:
        return serving.load_workload(path)
    except (OSError, ValueError) as error:
        raise argparse.ArgumentTypeError(str(error)) from error


# ----------------------------------------------------------------------
# Serving commands.  Every flag's ``dest`` is the keyword argument it
# sets, so each command calls its run_* with exactly the flags it
# declares: a flag the function does not read cannot be declared.
# ----------------------------------------------------------------------
def _defaults_from(parser, function, *cli_only):
    """Default every flag ``parser`` declares to ``function``'s keyword
    default of the same name, so ``serve-bench MODE`` with no flags and
    a plain Python call of its run_* serve the same benchmark.  Flags in
    ``cli_only`` keep their declared default."""
    parameters = inspect.signature(function).parameters
    parser.set_defaults(
        **{
            action.dest: parameters[action.dest].default
            for action in parser._actions
            if action.dest in parameters and action.dest not in cli_only
        }
    )


def _kwargs(args):
    return {
        name: value
        for name, value in vars(args).items()
        if name not in ("run", "json")
    }


def _bench_batch(args):
    result, extra = serving.run(**_kwargs(args))
    # Ad-hoc sweeps must not clobber the canonical `serving` artifact
    # that `python -m repro all` regenerates.
    result.experiment_id = (
        "serving_cosim_bench" if args.cosim else "serving_bench"
    )
    _emit(result, extra, args.json)


def _bench_prefix(args):
    _emit(serving.run_prefix(**_kwargs(args)), None, args.json)


def _bench_preempt(args):
    result, extra = serving.run_preempt(**_kwargs(args))
    result.experiment_id = "serving_preempt_bench"
    _emit(result, extra, args.json)


def _bench_schedule(args):
    result, extra = serving.run_cosim_schedule(**_kwargs(args))
    result.experiment_id = "serving_schedule_bench"
    _emit(result, extra, args.json)


def _bench_spec(args):
    result, extra = serving.run_spec(**_kwargs(args))
    result.experiment_id = "serving_spec_bench"
    _emit(result, extra, args.json)


def _bench_fork(args):
    result, extra = serving.run_fork(**_kwargs(args))
    result.experiment_id = "serving_fork_bench"
    _emit(result, extra, args.json)


def _serve_engine(args):
    _emit(serving.run_engine(**_kwargs(args)), None)


def _serve_fleet(args, error):
    if not args.cosim and (args.tp > 1 or args.interconnect_gb_s is not None):
        error(
            "--tp and --interconnect-gb-s only affect cycle pricing; "
            "add --cosim"
        )
    result = serving.run_fleet(**_kwargs(args))
    result.experiment_id = "serving_fleet_bench"
    _emit(result, None, args.json)


# ----------------------------------------------------------------------
# The argparse tree.
# ----------------------------------------------------------------------
def _command(commands, name, summary, *parents):
    """Add subcommand ``name``.  Abbreviations are off, so a prefix of a
    flag another command reads (``--cosim`` of ``--cosim-shapes``) is
    never taken for one this command reads.  The command gets its own
    copy of each shared parent's flags, so :func:`_defaults_from` sets
    defaults for this command alone."""
    return commands.add_parser(
        name,
        help=summary,
        description=summary,
        parents=[copy.deepcopy(parent) for parent in parents],
        allow_abbrev=False,
    )


def _parent(*parents):
    return argparse.ArgumentParser(add_help=False, parents=parents)


def _workload():
    """Flags every serving command reads."""
    parent = _parent()
    parent.add_argument(
        "--requests",
        dest="n_requests",
        type=_positive_int,
        help="number of requests (conversations, in multi-turn workloads)",
    )
    parent.add_argument(
        "--seed", type=_nonnegative_int, help="workload seed"
    )
    parent.add_argument(
        "--block-size",
        type=_positive_int,
        help="KV slots per pool block (paged serving)",
    )
    return parent


def _batch_cap():
    parent = _parent()
    parent.add_argument(
        "--batch-size",
        dest="max_batch_size",
        type=_positive_int,
        help="cap on concurrently running sequences",
    )
    return parent


def _shared_prefix():
    parent = _parent()
    parent.add_argument(
        "--shared-prefix",
        type=_nonnegative_int,
        help="prepend the same N-token system prompt to every request "
        "(the cross-request prefix-sharing workload)",
    )
    return parent


def _turns():
    parent = _parent()
    parent.add_argument(
        "--turns",
        type=_positive_int,
        help="turns per conversation; later turns re-extend earlier "
        "prompts and re-hit the prefix cache",
    )
    return parent


def _add_serve_commands(commands):
    """``serve-bench MODE``, ``serve-engine`` and ``serve-fleet``; flags
    several commands read come from the shared parents."""
    arrivals = _parent()
    arrivals.add_argument(
        "--interarrival",
        dest="mean_interarrival",
        type=_mean_gap,
        help="mean request inter-arrival gap in scheduler rounds (>= 1)",
    )
    shapes = _parent()
    shapes.add_argument(
        "--cosim-shapes",
        choices=("7b", "served"),
        help="model shapes priced by the co-simulator: Llama-2 7B (the "
        "paper's hardware evaluation model) or the tiny model actually "
        "served (default: 7b)",
    )
    priced = _parent(shapes)
    priced.add_argument(
        "--cosim",
        action="store_true",
        help="also replay every serving trace through the accelerator "
        "cycle model (cycles, hardware tokens/s, TTFT in cycles)",
    )
    paged = _parent()
    paged.add_argument(
        "--paged", action="store_true", help="serve from the paged block pool"
    )
    overload = _parent()
    overload.add_argument(
        "--pool-fraction",
        type=_fraction,
        help="pool size as a fraction of the overload burst's aggregate "
        "worst-case block demand",
    )
    replay = _parent()
    replay.add_argument(
        "--workload-file",
        dest="workload",
        type=_workload_file,
        metavar="PATH",
        help="replay a saved JSONL workload (see "
        "repro.experiments.serving.save_workload) instead of generating one",
    )
    json_out = _parent()
    json_out.add_argument(
        "--json",
        metavar="PATH",
        help="also write the result (rows + notes) as machine-readable "
        "JSON to PATH",
    )

    bench = _command(
        commands,
        "serve-bench",
        "Serving benchmarks on the continuous-batching scheduler, one "
        "comparison per mode; each asserts per-request tokens identical "
        "across its rows.",
    )
    modes = bench.add_subparsers(required=True, metavar="MODE")

    batch = _command(
        modes,
        "batch",
        "One multi-tenant trace served at several batch caps (with "
        "--paged: also from a paged block pool).",
        _workload(),
        arrivals,
        _shared_prefix(),
        paged,
        priced,
        replay,
        json_out,
    )
    batch.add_argument(
        "--batch-sizes",
        type=_comma_list(_positive_int),
        help="comma-separated batch-size caps to sweep",
    )
    batch.add_argument(
        "--no-prefix-cache",
        dest="prefix_caching",
        action="store_false",
        help="disable cross-request prefix sharing in paged mode",
    )
    batch.add_argument(
        "--compression-ratio",
        type=_ratio_or_none,
        metavar="R",
        help="per-request KV budget ratio r (budget = Round(r * P)), or "
        "'none' to serve unbudgeted (default: 0.5)",
    )
    batch.add_argument(
        "--chunk-prefill",
        dest="prefill_chunk",
        type=_zero_is_none(_nonnegative_int),
        help="per-round prompt-token budget for Sarathi-style chunked "
        "prefill (0 = whole-prompt admission); tokens are bit-identical "
        "either way, but chunking caps the per-round prefill work — "
        "with --cosim, watch max_round_cyc drop",
    )
    batch.set_defaults(run=_bench_batch)
    _defaults_from(batch, serving.run)

    prefix = _command(
        modes,
        "prefix",
        "A multi-turn shared-prefix trace served dense and paged under "
        "full-block and token-granular (radix-trie) prefix matching.",
        _workload(),
        arrivals,
        _batch_cap(),
        _shared_prefix(),
        _turns(),
        json_out,
    )
    prefix.add_argument(
        "--compression-ratio",
        type=_ratio_or_none,
        metavar="R",
        help="per-request KV budget ratio, or 'none' (default): only "
        "unbudgeted sequences share partial-block tails",
    )
    prefix.set_defaults(run=_bench_prefix)
    _defaults_from(prefix, serving.run_prefix)

    preempt = _command(
        modes,
        "preempt",
        "The overload burst served against an undersized block pool "
        "under each preemption mode.",
        _workload(),
        _batch_cap(),
        overload,
        priced,
        json_out,
    )
    preempt.add_argument(
        "--preempt",
        dest="modes",
        type=_comma_list(_one_of("off", "recompute", "swap", "model")),
        metavar="MODES",
        help="comma-separated modes: off, recompute, swap, or model "
        "(per-victim swap-vs-recompute by modeled cycle cost) "
        "(default: off,recompute,swap); with --cosim, recompute's "
        "re-prefill compute is priced against swap's HBM<->host traffic",
    )
    preempt.add_argument(
        "--length-scales",
        type=_comma_list(_positive_int),
        help="comma-separated prompt-length multipliers; sweeping them "
        "with --cosim exposes the recompute-vs-swap crossover as "
        "sequences grow",
    )
    preempt.set_defaults(run=_bench_preempt)
    _defaults_from(preempt, serving.run_preempt)

    schedule = _command(
        modes,
        "schedule",
        "The overload burst under every static (prefill chunk, preempt "
        "mode) pair plus the cost-model-guided controller, each trace "
        "priced per dataflow.",
        _workload(),
        _batch_cap(),
        overload,
        shapes,
        json_out,
    )
    schedule.add_argument(
        "--static-chunks",
        type=_comma_list(_positive_int),
        metavar="CHUNKS",
        help="comma-separated static prefill chunk budgets forming the "
        "baseline grid",
    )
    schedule.add_argument(
        "--chunk-prefill",
        dest="base_chunk",
        type=_positive_int,
        help="the controller's base prefill chunk (its rungs span "
        "base/4 .. 4*base)",
    )
    schedule.add_argument(
        "--objective",
        choices=("cycles", "energy"),
        help="pick each row's dataflow by total cycles or modeled joules "
        "(default: cycles)",
    )
    schedule.set_defaults(run=_bench_schedule)
    _defaults_from(schedule, serving.run_cosim_schedule)

    spec = _command(
        modes,
        "spec",
        "One workload served without and with draft-propose / "
        "target-verify speculative decoding, priced on the cycle model.",
        _workload(),
        arrivals,
        _batch_cap(),
        paged,
        shapes,
        json_out,
    )
    spec.add_argument(
        "--target",
        help="target model: a zoo checkpoint name ('small', 'micro', "
        "'draft'; trained and cached on first use) or 'tiny' for an "
        "untrained tiny model (fast smoke) (default: small)",
    )
    spec.add_argument(
        "--draft",
        help="draft model: a zoo checkpoint name or 'self' to use the "
        "target as its own draft — accept rate 1.0 by construction "
        "(default: 'draft', distilled from the small target's greedy "
        "continuations)",
    )
    spec.add_argument(
        "--spec-k",
        dest="spec_ks",
        type=_comma_list(_positive_int),
        metavar="KS",
        help="comma-separated draft window sizes to sweep (default: 1,2,4)",
    )
    spec.add_argument(
        "--hbm-gb-s",
        type=_positive_float,
        help="HBM bandwidth of the priced hardware in GB/s (default: 32 — "
        "a bandwidth-starved operating point; at the paper's 256 GB/s the "
        "array is exactly compute/memory balanced for decode linears, so "
        "weight-fetch amortization has nothing to win)",
    )
    spec.set_defaults(run=_bench_spec)
    _defaults_from(spec, serving.run_spec)

    fork = _command(
        modes,
        "fork",
        "Each request forked into parallel samples or a beam, served "
        "single, forked/paged (CoW prompt blocks) and forked/dense.",
        _workload(),
        arrivals,
        _batch_cap(),
        _shared_prefix(),
        priced,
        json_out,
    )
    width = fork.add_mutually_exclusive_group(required=True)
    width.add_argument(
        "--n-samples",
        type=_at_least(int, 2),
        default=1,
        help="fork each request into N parallel sampled continuations "
        "sharing its prompt KV blocks copy-on-write (branch i is "
        "bit-identical to an independent request with seed+i)",
    )
    width.add_argument(
        "--beam-width",
        type=_at_least(int, 2),
        help="width-W beam search with per-round joint scoring over "
        "forked KV blocks; pruned beams release their divergent tail "
        "back to the pool",
    )
    fork.set_defaults(run=_bench_fork)
    _defaults_from(fork, serving.run_fork, "n_samples")

    engine = _command(
        commands,
        "serve-engine",
        "Stream an arrival-timed workload through the async serving "
        "engine for every (admission policy, prefill chunk) combination; "
        "per-request tokens are asserted identical across all rows, so "
        "TTFT / deadline-miss differences are pure scheduling.",
        _workload(),
        arrivals,
        _batch_cap(),
        _turns(),
        paged,
        priced,
    )
    engine.add_argument(
        "--chunk-sizes",
        type=_comma_list(_zero_is_none(_nonnegative_int)),
        help="comma-separated prefill chunk budgets to sweep "
        "(0 = whole-prompt admission) (default: 0,8)",
    )
    engine.add_argument(
        "--admissions",
        type=_comma_list(_one_of("fifo", "edf", "priority")),
        help="comma-separated admission policies: fifo, edf, priority",
    )
    engine.add_argument(
        "--arrival",
        choices=("geometric", "poisson", "bursty"),
        help="arrival process of the workload",
    )
    engine.add_argument(
        "--prompt-dist",
        choices=("uniform", "lognormal", "zipf"),
        help="prompt-length distribution (heavy tails are where chunked "
        "prefill matters)",
    )
    engine.add_argument(
        "--deadline-slack",
        type=_zero_is_none(_at_least(float, 0.0)),
        help="per-request deadline = arrival + slack * service estimate "
        "(0 disables deadlines)",
    )
    engine.add_argument(
        "--priority-levels",
        type=_positive_int,
        help="draw request priorities in [0, N) (for the priority policy)",
    )
    engine.set_defaults(run=_serve_engine)
    _defaults_from(engine, serving.run_engine)

    fleet = _command(
        commands,
        "serve-fleet",
        "Serve one shared multi-turn arrival stream on a fleet of engine "
        "replicas under each placement policy; per-request tokens are "
        "asserted identical to a single engine, so TTFT / imbalance / "
        "prefix-hit differences are pure routing.",
        _workload(),
        arrivals,
        _batch_cap(),
        _shared_prefix(),
        _turns(),
        priced,
        replay,
        json_out,
    )
    fleet.add_argument(
        "--replicas",
        type=_positive_int,
        help="number of engine replicas in the fleet",
    )
    fleet.add_argument(
        "--placement",
        dest="placements",
        type=_comma_list(_one_of(*available_placements())),
        help="comma-separated placement policies: "
        + ", ".join(available_placements()),
    )
    fleet.add_argument(
        "--tp",
        type=_positive_int,
        help="tensor-parallel degree priced by the co-simulator "
        "(tp=1 is bit-identical to the single-device cycle model; "
        "requires --cosim)",
    )
    fleet.add_argument(
        "--interconnect-gb-s",
        type=_positive_float,
        metavar="GB_S",
        help="override the all-reduce interconnect bandwidth used for "
        "tensor-parallel pricing (requires --cosim)",
    )
    fleet.set_defaults(run=partial(_serve_fleet, error=fleet.error))
    _defaults_from(fleet, serving.run_fleet)


def _run_experiments(names, args):
    for name in names:
        result, extra = _EXPERIMENTS[name](args.fast)
        _emit(result, extra)
        if name in _CHARTS:
            print(_CHARTS[name](result))


def _json_default(value):
    """JSON fallback for numpy scalars and other non-native row values."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _emit(result, extra, json_path=None):
    """Print a result (table, notes, ``extra``) and persist the same text
    under the results dir."""
    text = result.render(extra)
    print(text)
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = _RESULTS_DIR / f"{result.experiment_id}.txt"
    out.write_text(text + "\n")
    print(f"[saved to {out}]\n")
    if json_path:
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
        }
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, default=_json_default) + "\n"
        )
        print(f"[json saved to {path}]\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate VEDA paper artifacts (tables and figures) "
        "and run the serving benchmarks.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    fast = _parent()
    fast.add_argument(
        "--fast", action="store_true", help="reduced sweeps for a quick look"
    )
    for name in sorted(_EXPERIMENTS):
        _command(
            commands, name, f"regenerate the {name} artifact", fast
        ).set_defaults(run=partial(_run_experiments, [name]))
    _add_serve_commands(commands)
    names = list(commands.choices)
    _command(
        commands, "all", "regenerate every artifact (slow: trains/evaluates)",
        fast,
    ).set_defaults(run=partial(_run_experiments, sorted(_EXPERIMENTS)))
    _command(commands, "list", "print every command").set_defaults(
        run=lambda args: print("\n".join(names))
    )
    args = parser.parse_args(argv)
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

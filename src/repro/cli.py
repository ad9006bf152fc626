"""Command-line interface: regenerate any paper artifact.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig8_center          # run one artifact, print its table
    python -m repro all                  # everything (slow: trains/evaluates)
    python -m repro fig8_left --fast     # reduced sweep for a quick look
    python -m repro serve-bench          # continuous-batching serving bench
    python -m repro serve-bench --requests 16 --batch-sizes 1,4,8
    python -m repro serve-bench --paged --shared-prefix 32
                                         # paged KV + prefix sharing vs dense
    python -m repro serve-bench --prefix-compare --shared-prefix 30 --json out.json
                                         # block-granular vs token-granular
                                         # (radix-trie) prefix sharing on a
                                         # multi-turn misaligned-prefix trace
    python -m repro serve-bench --cosim --chunk-prefill 16
                                         # chunked prefill, priced in cycles
    python -m repro serve-bench --preempt off,recompute,swap --cosim
                                         # overload burst: two-way scheduling
                                         # vs one-way, swap traffic priced
    python -m repro serve-bench --preempt swap,model --cosim
                                         # cost-modeled per-victim swap vs
                                         # recompute choice
    python -m repro serve-bench --adaptive-chunk --objective energy
                                         # cost-guided controller vs the
                                         # static chunk x preempt grid,
                                         # dataflow picked by joules/token
    python -m repro serve-bench --spec-decode
                                         # speculative decoding: distilled-
                                         # draft / small-target zoo pair,
                                         # k sweep, modeled hw speedup
    python -m repro serve-bench --spec-decode --target tiny --draft self --spec-k 2
                                         # fast smoke: no zoo training,
                                         # accept rate 1.0 by construction
    python -m repro serve-bench --n-samples 4 --shared-prefix 24
                                         # parallel sampling: n branches per
                                         # request share prompt blocks CoW
    python -m repro serve-bench --beam-width 4 --cosim
                                         # beam search over forked KV blocks,
                                         # dense-fork copies priced in cycles
    python -m repro serve-bench --json out.json
                                         # any mode: machine-readable rows
    python -m repro serve-engine         # async engine: admission x chunking
    python -m repro serve-engine --admissions fifo,edf --chunk-sizes 0,8 --cosim
    python -m repro serve-fleet          # replica fleet: placement policies
    python -m repro serve-fleet --replicas 2 --placement prefix_affinity --cosim
                                         # prefix-affinity routing, fleet
                                         # makespan priced in cycles
    python -m repro serve-fleet --tp 2 --interconnect-gb-s 64 --cosim
                                         # tensor-parallel replicas: sharded
                                         # GEMMs + priced all-reduces

Results are also written to ``.artifacts/results/`` as text tables.
"""

from __future__ import annotations

import argparse
import json
import sys
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

__all__ = ["main"]

_RESULTS_DIR = Path(__file__).resolve().parents[2] / ".artifacts" / "results"


def _run_fig8_left(fast):
    result = fig8_left.run(n_windows=2 if fast else 4)
    chart = ascii_line_chart(
        {
            name: [(row["cache_size"], row[name]) for row in result.rows]
            for name in ("streaming", "h2o", "voting")
        },
        title="perplexity vs cache size (log-x not applied)",
    )
    return result, chart


def _run_fig8_center(fast):
    return fig8_center.run(), None


def _run_fig8_right(fast):
    result = fig8_right.run()
    chart = ascii_line_chart(
        {
            f"{r}KV": [(row["gen_length"], row[f"VEDA+{r}KV"]) for row in result.rows]
            for r in (0.5, 0.2)
        },
        title="speedup vs generation length",
    )
    return result, chart


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
        print(piece.to_table())
        print()
    return pieces[-1], None


def _run_serving(fast):
    return serving.run(n_requests=4 if fast else 8), None


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


def _positive_int(value):
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return number


def _nonnegative_int(value):
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return number


def _mean_gap(value):
    # The workload draws geometric gaps with p = 1/mean, so mean >= 1.
    number = float(value)
    if number < 1.0:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _nonnegative_float(value):
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return number


def _serve_bench(argv):
    """The ``serve-bench`` subcommand: configurable serving benchmark."""
    parser = argparse.ArgumentParser(
        prog="repro serve-bench",
        description=(
            "Benchmark the continuous-batching scheduler on a synthetic "
            "multi-tenant trace (VotingPolicy eviction per request)."
        ),
    )
    parser.add_argument(
        "--requests",
        type=_positive_int,
        default=8,
        help="number of requests in the trace",
    )
    parser.add_argument(
        "--batch-sizes",
        default="1,2,4,8",
        help="comma-separated batch-size caps to sweep",
    )
    parser.add_argument(
        "--interarrival",
        type=_mean_gap,
        default=2.0,
        help="mean request inter-arrival gap in scheduler rounds (>= 1)",
    )
    parser.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="workload seed"
    )
    parser.add_argument(
        "--paged",
        action="store_true",
        help="also serve each trace from a paged block pool and report "
        "peak-KV reduction, block utilization, and prefix-cache hits "
        "(tokens are asserted bit-identical to the dense run)",
    )
    parser.add_argument(
        "--block-size",
        type=_positive_int,
        default=4,
        help="KV slots per pool block (paged mode)",
    )
    parser.add_argument(
        "--shared-prefix",
        type=_nonnegative_int,
        default=0,
        help="prepend the same N-token system prompt to every request "
        "(the cross-request prefix-sharing workload)",
    )
    parser.add_argument(
        "--no-prefix-cache",
        action="store_true",
        help="disable cross-request prefix sharing in paged mode",
    )
    parser.add_argument(
        "--prefix-compare",
        action="store_true",
        help="run the prefix-sharing comparison instead: one multi-turn "
        "shared-prefix trace served dense, paged with full-block-only "
        "matching, and paged with token-granular radix-trie matching "
        "(partial-block tails adopted copy-on-write); tokens are "
        "asserted bit-identical across all three and the rows isolate "
        "the token-weighted hit-rate win",
    )
    parser.add_argument(
        "--turns",
        type=_positive_int,
        default=2,
        help="(with --prefix-compare) turns per conversation; later "
        "turns re-hit the cache on their own conversation head",
    )
    parser.add_argument(
        "--compression-ratio",
        default=None,
        metavar="R",
        help="per-request KV budget ratio r (budget = Round(r * P)), or "
        "'none' to serve unbudgeted (no eviction); default: the "
        "workload's own default (0.5, or unbudgeted for "
        "--prefix-compare, whose partial-tail sharing only unbudgeted "
        "sequences may use)",
    )
    parser.add_argument(
        "--cosim",
        action="store_true",
        help="replay each serving trace through the accelerator cycle "
        "model: per-round cycle counts, batched hardware tokens/s, and "
        "the flexible-vs-fixed dataflow comparison (with --paged, both "
        "the dense and paged traces are priced)",
    )
    parser.add_argument(
        "--cosim-shapes",
        choices=("7b", "served"),
        default="7b",
        help="model shapes priced by the co-simulator: Llama-2 7B (the "
        "paper's hardware evaluation model) or the tiny model actually "
        "served (default: 7b)",
    )
    parser.add_argument(
        "--chunk-prefill",
        type=_nonnegative_int,
        default=0,
        help="per-round prompt-token budget for Sarathi-style chunked "
        "prefill (0 = whole-prompt admission); tokens are bit-identical "
        "either way, but chunking caps the per-round prefill work — "
        "with --cosim, watch max_round_cyc drop",
    )
    parser.add_argument(
        "--preempt",
        default=None,
        metavar="MODES",
        help="run the preemption benchmark instead: serve the overload "
        "burst preset against a deliberately-undersized block pool "
        "under each comma-separated mode (off, recompute, swap, or "
        "model — per-victim swap-vs-recompute by modeled cycle cost); "
        "the largest --batch-sizes entry is the batch cap; combine "
        "with --cosim to price recompute's re-prefill compute vs "
        "swap's HBM<->host traffic",
    )
    parser.add_argument(
        "--adaptive-chunk",
        action="store_true",
        help="run the cost-guided scheduling benchmark instead: the "
        "overload burst served under every static (prefill chunk, "
        "preempt mode) combination plus the cost-model-guided "
        "controller (adaptive chunk sizing, per-victim modeled "
        "preemption, cycle-priced EDF admission); per-request tokens "
        "are asserted bit-identical across all rows and every trace is "
        "priced per dataflow on the accelerator cycle model",
    )
    parser.add_argument(
        "--objective",
        choices=("cycles", "energy"),
        default=None,
        help="(with --adaptive-chunk) pick each row's dataflow by total "
        "cycles or modeled joules (default: cycles)",
    )
    parser.add_argument(
        "--static-chunks",
        default="4,8,16",
        metavar="CHUNKS",
        help="(with --adaptive-chunk) comma-separated static prefill "
        "chunk budgets forming the baseline grid",
    )
    parser.add_argument(
        "--pool-fraction",
        type=float,
        default=0.4,
        help="(with --preempt) pool size as a fraction of the burst's "
        "aggregate worst-case block demand",
    )
    parser.add_argument(
        "--length-scales",
        default="1",
        help="(with --preempt --cosim) comma-separated prompt-length "
        "multipliers; sweeping them exposes the recompute-vs-swap "
        "crossover as sequences grow",
    )
    parser.add_argument(
        "--spec-decode",
        action="store_true",
        help="run the speculative-decoding benchmark instead: a draft "
        "model proposes k tokens per sequence per round and the target "
        "verifies them in one multi-token pass; per-request tokens are "
        "asserted bit-identical to the non-speculative baseline (greedy "
        "verification is exact), and every row reports accept rate, "
        "tokens per target pass, and modeled hardware tokens/s vs the "
        "baseline",
    )
    parser.add_argument(
        "--target",
        default=None,
        help="(with --spec-decode) target model: a zoo checkpoint name "
        "('small', 'micro', 'draft'; trained and cached on first use) or "
        "'tiny' for an untrained tiny model (fast smoke) (default: small)",
    )
    parser.add_argument(
        "--draft",
        default=None,
        help="(with --spec-decode) draft model: a zoo checkpoint name or "
        "'self' to use the target as its own draft — accept rate 1.0 by "
        "construction (default: 'draft', distilled from the small "
        "target's greedy continuations)",
    )
    parser.add_argument(
        "--spec-k",
        default=None,
        metavar="KS",
        help="(with --spec-decode) comma-separated draft window sizes "
        "to sweep (default: 1,2,4)",
    )
    parser.add_argument(
        "--hbm-gb-s",
        type=float,
        default=None,
        help="(with --spec-decode) HBM bandwidth of the priced hardware "
        "in GB/s (default: 32 — a bandwidth-starved operating point; at "
        "the paper's 256 GB/s the array is exactly compute/memory "
        "balanced for decode linears, so weight-fetch amortization has "
        "nothing to win)",
    )
    parser.add_argument(
        "--n-samples",
        type=_positive_int,
        default=None,
        metavar="N",
        help="run the fork/join benchmark instead: each request is "
        "forked into N parallel sampled continuations sharing its "
        "prompt KV blocks copy-on-write (branch i is bit-identical to "
        "an independent request with seed+i); reports peak blocks vs "
        "N scaled single runs, and with --cosim prices dense forks' "
        "KV copies (paged CoW forks are free)",
    )
    parser.add_argument(
        "--beam-width",
        type=_positive_int,
        default=None,
        metavar="W",
        help="run the fork/join benchmark in beam-search mode instead: "
        "width-W beams with per-round joint scoring over forked KV "
        "blocks; pruned beams release their divergent tail back to "
        "the pool (mutually exclusive with --n-samples)",
    )
    parser.add_argument(
        "--workload-file",
        default=None,
        metavar="PATH",
        help="replay a saved JSONL workload (see "
        "repro.experiments.serving.save_workload) instead of generating "
        "one; applies to the default benchmark mode",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the result (rows + notes) as machine-readable "
        "JSON to PATH (any serve-bench mode)",
    )
    args = parser.parse_args(argv)
    try:
        batch_sizes = tuple(int(b) for b in args.batch_sizes.split(","))
    except ValueError:
        parser.error(
            f"--batch-sizes must be comma-separated integers, "
            f"got {args.batch_sizes!r}"
        )
    if not batch_sizes or any(b <= 0 for b in batch_sizes):
        parser.error(
            f"--batch-sizes entries must be positive, got {args.batch_sizes!r}"
        )
    if args.workload_file is not None and (
        args.prefix_compare
        or args.spec_decode
        or args.preempt is not None
        or args.adaptive_chunk
        or args.n_samples is not None
        or args.beam_width is not None
    ):
        parser.error(
            "--workload-file applies to the default benchmark mode only "
            "(the comparison modes build their own dedicated workloads)"
        )
    compression_ratio = "default"
    if args.compression_ratio is not None:
        if args.compression_ratio.lower() == "none":
            compression_ratio = None
        else:
            try:
                compression_ratio = float(args.compression_ratio)
            except ValueError:
                parser.error(
                    f"--compression-ratio must be a float or 'none', "
                    f"got {args.compression_ratio!r}"
                )
            if not 0.0 < compression_ratio <= 1.0:
                parser.error(
                    f"--compression-ratio must be in (0, 1], "
                    f"got {args.compression_ratio!r}"
                )
    if args.objective is not None and not args.adaptive_chunk:
        parser.error("--objective requires --adaptive-chunk")
    if (
        args.static_chunks != parser.get_default("static_chunks")
        and not args.adaptive_chunk
    ):
        parser.error("--static-chunks requires --adaptive-chunk")
    if args.adaptive_chunk:
        # The scheduling benchmark runs its own dedicated overload
        # workload (always paged, unbudgeted, no prefix sharing, every
        # trace priced); reject knobs it would otherwise silently ignore.
        ignored = [
            flag
            for flag, off_default in (
                ("--prefix-compare", not args.prefix_compare),
                ("--spec-decode", not args.spec_decode),
                ("--preempt", args.preempt is None),
                ("--n-samples", args.n_samples is None),
                ("--beam-width", args.beam_width is None),
                ("--cosim", not args.cosim),
                ("--paged", not args.paged),
                ("--shared-prefix", args.shared_prefix == 0),
                ("--no-prefix-cache", not args.no_prefix_cache),
                ("--interarrival", args.interarrival == 2.0),
                ("--compression-ratio", args.compression_ratio is None),
            )
            if not off_default
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with "
                "--adaptive-chunk (the scheduling benchmark serves the "
                "overload preset paged, unbudgeted, without prefix "
                "sharing, and always prices every trace)"
            )
        try:
            static_chunks = tuple(
                int(c) for c in args.static_chunks.split(",")
            )
        except ValueError:
            parser.error(
                f"--static-chunks must be comma-separated integers, "
                f"got {args.static_chunks!r}"
            )
        if not static_chunks or any(c <= 0 for c in static_chunks):
            parser.error(
                f"--static-chunks entries must be positive, "
                f"got {args.static_chunks!r}"
            )
        if not 0.0 < args.pool_fraction <= 1.0:
            parser.error(
                f"--pool-fraction must be in (0, 1], got {args.pool_fraction}"
            )
        result, extra = serving.run_cosim_schedule(
            n_requests=args.requests,
            static_chunks=static_chunks,
            base_chunk=args.chunk_prefill or 8,
            max_batch_size=max(batch_sizes),
            block_size=args.block_size,
            pool_fraction=args.pool_fraction,
            objective=args.objective or "cycles",
            seed=args.seed,
            cosim_shapes=args.cosim_shapes,
        )
        result.experiment_id = "serving_schedule_bench"
        _emit(result, extra=extra, json_path=args.json)
        return 0
    if args.prefix_compare:
        ignored = [
            flag
            for flag, off_default in (
                ("--spec-decode", not args.spec_decode),
                ("--preempt", args.preempt is None),
                ("--n-samples", args.n_samples is None),
                ("--beam-width", args.beam_width is None),
                ("--cosim", not args.cosim),
                ("--paged", not args.paged),
                ("--chunk-prefill", args.chunk_prefill == 0),
                ("--no-prefix-cache", not args.no_prefix_cache),
            )
            if not off_default
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with "
                "--prefix-compare (the comparison always serves dense "
                "plus both paged prefix-match granularities)"
            )
        result = serving.run_prefix(
            n_requests=args.requests,
            turns=args.turns,
            shared_prefix=args.shared_prefix or 30,
            block_size=args.block_size,
            max_batch_size=max(batch_sizes),
            mean_interarrival=args.interarrival,
            compression_ratio=(
                None if compression_ratio == "default" else compression_ratio
            ),
            seed=args.seed,
        )
        _emit(result, extra=None, json_path=args.json)
        return 0
    if args.turns != parser.get_default("turns"):
        parser.error("--turns requires --prefix-compare")
    spec_only = [
        flag
        for flag, unset in (
            ("--target", args.target is None),
            ("--draft", args.draft is None),
            ("--spec-k", args.spec_k is None),
            ("--hbm-gb-s", args.hbm_gb_s is None),
        )
        if not unset
    ]
    if spec_only and not args.spec_decode:
        parser.error(
            f"{', '.join(spec_only)} requires --spec-decode"
        )
    if args.spec_decode:
        if args.preempt is not None:
            parser.error("--spec-decode cannot be combined with --preempt")
        if args.n_samples is not None or args.beam_width is not None:
            parser.error(
                "--spec-decode cannot be combined with --n-samples or "
                "--beam-width (fork families decode round-by-round and "
                "are incompatible with draft-window speculation)"
            )
        # The spec benchmark serves whole prompts without prefix sharing
        # (provisional tokens never enter the prefix cache anyway);
        # reject knobs it would otherwise silently ignore.
        ignored = [
            flag
            for flag, off_default in (
                ("--chunk-prefill", args.chunk_prefill == 0),
                ("--shared-prefix", args.shared_prefix == 0),
                ("--no-prefix-cache", not args.no_prefix_cache),
                ("--cosim", not args.cosim),
                ("--compression-ratio", args.compression_ratio is None),
            )
            if not off_default
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with "
                "--spec-decode (the speculative benchmark serves whole "
                "prompts without prefix sharing and always prices the "
                "trace on the cycle model)"
            )
        try:
            spec_ks = tuple(
                int(k) for k in (args.spec_k or "1,2,4").split(",")
            )
        except ValueError:
            parser.error(
                f"--spec-k must be comma-separated integers, "
                f"got {args.spec_k!r}"
            )
        if not spec_ks or any(k <= 0 for k in spec_ks):
            parser.error(
                f"--spec-k entries must be positive, got {args.spec_k!r}"
            )
        # The spec benchmark serves one batch-size cap, not a sweep; an
        # untouched --batch-sizes keeps run_spec's own default (4).
        spec_batch = (
            max(batch_sizes)
            if args.batch_sizes != parser.get_default("batch_sizes")
            else 4
        )
        result, extra = serving.run_spec(
            spec_ks=spec_ks,
            n_requests=args.requests,
            mean_interarrival=args.interarrival,
            max_batch_size=spec_batch,
            target=args.target or "small",
            draft=args.draft or "draft",
            paged=args.paged,
            block_size=args.block_size,
            seed=args.seed,
            cosim_shapes=args.cosim_shapes,
            hbm_gb_s=args.hbm_gb_s if args.hbm_gb_s is not None else 32.0,
        )
        result.experiment_id = "serving_spec_bench"
        _emit(result, extra=extra, json_path=args.json)
        return 0
    if args.preempt is not None:
        modes = tuple(m.strip() for m in args.preempt.split(",") if m.strip())
        unknown = [
            m for m in modes if m not in ("off", "recompute", "swap", "model")
        ]
        if unknown or not modes:
            parser.error(
                f"--preempt entries must be off/recompute/swap/model, "
                f"got {args.preempt!r}"
            )
        # The preemption benchmark runs a dedicated workload preset (the
        # overload burst, always paged, no prefix sharing); reject knobs
        # it would otherwise silently ignore.
        ignored = [
            flag
            for flag, off_default in (
                ("--chunk-prefill", args.chunk_prefill == 0),
                ("--interarrival", args.interarrival == 2.0),
                ("--paged", not args.paged),
                ("--shared-prefix", args.shared_prefix == 0),
                ("--no-prefix-cache", not args.no_prefix_cache),
                ("--compression-ratio", args.compression_ratio is None),
                ("--n-samples", args.n_samples is None),
                ("--beam-width", args.beam_width is None),
            )
            if not off_default
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with --preempt "
                "(the preemption benchmark serves the overload preset "
                "paged, whole-prompt, without prefix sharing)"
            )
        if not 0.0 < args.pool_fraction <= 1.0:
            parser.error(
                f"--pool-fraction must be in (0, 1], got {args.pool_fraction}"
            )
        try:
            scales = tuple(int(s) for s in args.length_scales.split(","))
        except ValueError:
            parser.error(
                f"--length-scales must be comma-separated integers, "
                f"got {args.length_scales!r}"
            )
        if not scales or any(s <= 0 for s in scales):
            parser.error(
                f"--length-scales entries must be positive, "
                f"got {args.length_scales!r}"
            )
        result, extra = serving.run_preempt(
            n_requests=args.requests,
            modes=modes,
            max_batch_size=max(batch_sizes),
            block_size=args.block_size,
            pool_fraction=args.pool_fraction,
            length_scales=scales,
            seed=args.seed,
            cosim=args.cosim,
            cosim_shapes=args.cosim_shapes,
        )
        result.experiment_id = "serving_preempt_bench"
        _emit(result, extra=extra, json_path=args.json)
        return 0
    if args.n_samples is not None or args.beam_width is not None:
        if args.n_samples is not None and args.beam_width is not None:
            parser.error(
                "--n-samples and --beam-width are mutually exclusive "
                "(parallel sampling vs beam search)"
            )
        mode_flag = "--n-samples" if args.n_samples is not None else (
            "--beam-width"
        )
        width = args.n_samples if args.n_samples is not None else (
            args.beam_width
        )
        if width < 2:
            parser.error(f"{mode_flag} must be >= 2, got {width}")
        # The fork benchmark always serves paged + dense and unbudgeted
        # sequences (CoW tails require it); reject knobs it would
        # otherwise silently ignore.
        ignored = [
            flag
            for flag, off_default in (
                ("--chunk-prefill", args.chunk_prefill == 0),
                ("--paged", not args.paged),
                ("--no-prefix-cache", not args.no_prefix_cache),
                ("--compression-ratio", args.compression_ratio is None),
            )
            if not off_default
        ]
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with "
                f"{mode_flag} (the fork benchmark serves each trace "
                "paged and dense, unbudgeted, with whole-prompt "
                "admission)"
            )
        # One batch cap, not a sweep; untouched --batch-sizes keeps
        # run_fork's own width-scaled default.
        fork_batch = (
            max(batch_sizes)
            if args.batch_sizes != parser.get_default("batch_sizes")
            else None
        )
        result, extra = serving.run_fork(
            n_samples=args.n_samples or 1,
            beam_width=args.beam_width or 0,
            n_requests=args.requests,
            mean_interarrival=args.interarrival,
            seed=args.seed,
            block_size=args.block_size,
            shared_prefix=args.shared_prefix,
            max_batch_size=fork_batch,
            cosim=args.cosim,
            cosim_shapes=args.cosim_shapes,
        )
        result.experiment_id = "serving_fork_bench"
        _emit(result, extra=extra, json_path=args.json)
        return 0
    common = dict(
        batch_sizes=batch_sizes,
        n_requests=args.requests,
        mean_interarrival=args.interarrival,
        seed=args.seed,
        paged=args.paged,
        block_size=args.block_size,
        shared_prefix=args.shared_prefix,
        prefix_caching=not args.no_prefix_cache,
        prefill_chunk=args.chunk_prefill or None,
    )
    if compression_ratio != "default":
        common["compression_ratio"] = compression_ratio
    if args.workload_file is not None:
        common["workload"] = serving.load_workload(args.workload_file)
    if args.cosim:
        result, extra = serving.run_cosim(
            cosim_shapes=args.cosim_shapes, **common
        )
        result.experiment_id = "serving_cosim_bench"
    else:
        result = serving.run(**common)
        extra = None
        # Ad-hoc sweeps must not clobber the canonical `serving` artifact
        # that `python -m repro all` regenerates.
        result.experiment_id = "serving_bench"
    _emit(result, extra=extra, json_path=args.json)
    return 0


def _serve_engine(argv):
    """The ``serve-engine`` subcommand: async-engine SLA benchmark."""
    parser = argparse.ArgumentParser(
        prog="repro serve-engine",
        description=(
            "Stream an arrival-timed workload through the async serving "
            "engine for every (admission policy, prefill chunk) "
            "combination; per-request tokens are asserted identical "
            "across all rows, so TTFT / deadline-miss differences are "
            "pure scheduling."
        ),
    )
    parser.add_argument(
        "--requests",
        type=_positive_int,
        default=8,
        help="number of requests (conversations with --turns > 1)",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=4,
        help="admission cap on concurrently running sequences",
    )
    parser.add_argument(
        "--chunk-sizes",
        default="0,8",
        help="comma-separated prefill chunk budgets to sweep "
        "(0 = whole-prompt admission)",
    )
    parser.add_argument(
        "--admissions",
        default="fifo,edf",
        help="comma-separated admission policies (fifo, edf, priority)",
    )
    parser.add_argument(
        "--arrival",
        choices=("geometric", "poisson", "bursty"),
        default="poisson",
        help="arrival process of the workload",
    )
    parser.add_argument(
        "--prompt-dist",
        choices=("uniform", "lognormal", "zipf"),
        default="lognormal",
        help="prompt-length distribution (heavy tails are where chunked "
        "prefill matters)",
    )
    parser.add_argument(
        "--deadline-slack",
        type=_nonnegative_float,
        default=1.5,
        help="per-request deadline = arrival + slack * service estimate "
        "(0 disables deadlines)",
    )
    parser.add_argument(
        "--priority-levels",
        type=_positive_int,
        default=1,
        help="draw request priorities in [0, N) (for the priority policy)",
    )
    parser.add_argument(
        "--turns",
        type=_positive_int,
        default=1,
        help="turns per conversation (> 1 re-hits the prefix cache "
        "across turns; combine with --paged)",
    )
    parser.add_argument(
        "--interarrival",
        type=_mean_gap,
        default=2.0,
        help="mean request inter-arrival gap in rounds (>= 1)",
    )
    parser.add_argument(
        "--paged",
        action="store_true",
        help="serve from the paged block pool (with prefix sharing)",
    )
    parser.add_argument(
        "--block-size",
        type=_positive_int,
        default=8,
        help="KV slots per pool block (paged mode)",
    )
    parser.add_argument(
        "--cosim",
        action="store_true",
        help="also price every run on the accelerator cycle model: "
        "hardware TTFT (cycles) and the worst single-round cycle cost",
    )
    parser.add_argument(
        "--cosim-shapes",
        choices=("7b", "served"),
        default="7b",
        help="model shapes priced by the co-simulator (default: 7b)",
    )
    parser.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="workload seed"
    )
    args = parser.parse_args(argv)
    try:
        chunk_sizes = tuple(
            int(c) or None for c in args.chunk_sizes.split(",")
        )
    except ValueError:
        parser.error(
            f"--chunk-sizes must be comma-separated integers, "
            f"got {args.chunk_sizes!r}"
        )
    if any(c is not None and c < 0 for c in chunk_sizes):
        parser.error(f"--chunk-sizes must be >= 0, got {args.chunk_sizes!r}")
    admissions = tuple(a.strip() for a in args.admissions.split(",") if a.strip())
    unknown = [a for a in admissions if a not in ("fifo", "edf", "priority")]
    if unknown or not admissions:
        parser.error(
            f"--admissions entries must be fifo/edf/priority, "
            f"got {args.admissions!r}"
        )
    result = serving.run_engine(
        n_requests=args.requests,
        max_batch_size=args.batch_size,
        chunk_sizes=chunk_sizes,
        admissions=admissions,
        arrival=args.arrival,
        prompt_dist=args.prompt_dist,
        mean_interarrival=args.interarrival,
        deadline_slack=args.deadline_slack or None,
        priority_levels=args.priority_levels,
        turns=args.turns,
        paged=args.paged,
        block_size=args.block_size,
        seed=args.seed,
        cosim=args.cosim,
        cosim_shapes=args.cosim_shapes,
    )
    _emit(result, extra=None)
    return 0


def _serve_fleet(argv):
    """The ``serve-fleet`` subcommand: multi-replica placement benchmark."""
    parser = argparse.ArgumentParser(
        prog="repro serve-fleet",
        description=(
            "Serve one shared multi-turn arrival stream on a fleet of "
            "engine replicas under each placement policy; per-request "
            "tokens are asserted identical to a single engine, so TTFT / "
            "imbalance / prefix-hit differences are pure routing."
        ),
    )
    parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=2,
        help="number of engine replicas in the fleet",
    )
    parser.add_argument(
        "--placement",
        default="round_robin,least_loaded,prefix_affinity",
        help="comma-separated placement policies to sweep "
        "(round_robin, least_loaded, prefix_affinity)",
    )
    parser.add_argument(
        "--requests",
        type=_positive_int,
        default=6,
        help="number of conversations in the generated workload",
    )
    parser.add_argument(
        "--turns",
        type=_positive_int,
        default=3,
        help="turns per conversation (later turns re-extend earlier "
        "prompts, which is what prefix affinity exploits)",
    )
    parser.add_argument(
        "--interarrival",
        type=_mean_gap,
        default=2.0,
        help="mean request inter-arrival gap in rounds (>= 1)",
    )
    parser.add_argument(
        "--shared-prefix",
        type=_nonnegative_int,
        default=0,
        help="tokens of system prompt shared by every conversation",
    )
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=4,
        help="per-replica cap on concurrently running sequences",
    )
    parser.add_argument(
        "--block-size",
        type=_positive_int,
        default=4,
        help="KV slots per pool block (replicas always serve paged)",
    )
    parser.add_argument(
        "--tp",
        type=_positive_int,
        default=1,
        help="tensor-parallel degree priced by the co-simulator "
        "(tp=1 is bit-identical to the single-device cycle model)",
    )
    parser.add_argument(
        "--interconnect-gb-s",
        type=_nonnegative_float,
        default=None,
        metavar="GB_S",
        help="override the all-reduce interconnect bandwidth used for "
        "tensor-parallel pricing (requires --cosim)",
    )
    parser.add_argument(
        "--cosim",
        action="store_true",
        help="also replay every replica's trace on the accelerator cycle "
        "model: fleet makespan (max over replicas) and fleet tokens/s",
    )
    parser.add_argument(
        "--cosim-shapes",
        choices=("7b", "served"),
        default="7b",
        help="model shapes priced by the co-simulator (default: 7b)",
    )
    parser.add_argument(
        "--workload-file",
        default=None,
        metavar="PATH",
        help="replay a saved JSONL workload (see "
        "repro.experiments.serving.save_workload) instead of generating "
        "the multi-turn preset",
    )
    parser.add_argument(
        "--seed", type=_nonnegative_int, default=0, help="workload seed"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the result (rows + notes) as machine-readable "
        "JSON to PATH",
    )
    args = parser.parse_args(argv)
    placements = tuple(
        p.strip() for p in args.placement.split(",") if p.strip()
    )
    from repro.serve import available_placements

    unknown = [p for p in placements if p not in available_placements()]
    if unknown or not placements:
        parser.error(
            f"--placement entries must be one of "
            f"{'/'.join(available_placements())}, got {args.placement!r}"
        )
    if args.tp > 1 and not args.cosim:
        parser.error("--tp > 1 only affects cycle pricing; add --cosim")
    if args.interconnect_gb_s is not None and not args.cosim:
        parser.error("--interconnect-gb-s only affects cycle pricing; "
                     "add --cosim")
    workload = (
        serving.load_workload(args.workload_file)
        if args.workload_file is not None
        else None
    )
    result = serving.run_fleet(
        replicas=args.replicas,
        placements=placements,
        n_requests=args.requests,
        turns=args.turns,
        mean_interarrival=args.interarrival,
        shared_prefix=args.shared_prefix,
        block_size=args.block_size,
        max_batch_size=args.batch_size,
        seed=args.seed,
        tp=args.tp,
        interconnect_gb_s=args.interconnect_gb_s,
        cosim=args.cosim,
        cosim_shapes=args.cosim_shapes,
        workload=workload,
    )
    result.experiment_id = "serving_fleet_bench"
    _emit(result, extra=None, json_path=args.json)
    return 0


def _json_default(value):
    """JSON fallback for numpy scalars and other non-native row values."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _emit(result, extra, json_path=None):
    """Print a result table and persist it under the results dir."""
    print(result.to_table())
    if result.notes:
        print(f"\nNotes: {result.notes}")
    if extra:
        print()
        print(extra)
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = _RESULTS_DIR / f"{result.experiment_id}.txt"
    out.write_text(result.to_table() + "\n")
    print(f"[saved to {out}]\n")
    if json_path:
        payload = {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
        }
        path = Path(json_path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, default=_json_default) + "\n"
        )
        print(f"[json saved to {path}]\n")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve-bench":
        return _serve_bench(argv[1:])
    if argv and argv[0] == "serve-engine":
        return _serve_engine(argv[1:])
    if argv and argv[0] == "serve-fleet":
        return _serve_fleet(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate VEDA paper artifacts (tables and figures).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["list", "all"],
        help="artifact to regenerate, 'list', 'all', or the "
        "'serve-bench' / 'serve-engine' / 'serve-fleet' subcommands "
        "(see their --help)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="reduced sweeps for a quick look",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in sorted(_EXPERIMENTS):
            print(name)
        print("serve-bench")
        print("serve-engine")
        print("serve-fleet")
        return 0

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result, extra = _EXPERIMENTS[name](args.fast)
        _emit(result, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())

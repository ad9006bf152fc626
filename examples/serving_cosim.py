"""Serving-scale hardware co-simulation with phase-aware dataflow.

Serves a small multi-tenant workload through the continuous-batching
:class:`repro.serve.Scheduler` (dense and paged with a shared system
prompt), then replays the recorded per-round trace through the VEDA
accelerator cycle model on Llama-2 7B shapes:

1. per-round cycle counts and batched hardware tokens/s for the dense
   and the paged run (prefix-cache hits price fewer prefill rows);
2. the dataflow comparison — the flexible PE array reconfiguring per
   phase ("auto") vs pinning it to the tiled ("prefill") or streaming
   ("decode") mapping for the whole run;
3. the batch-size-1 anchor: a solo request served alone is priced
   cycle-identically to `repro.cosim.CoSimulator`.

Run:  python examples/serving_cosim.py
"""

import numpy as np

from repro.config import llama2_7b_shapes, tiny_config
from repro.core.engine import GenerationEngine, budget_from_ratio
from repro.core.policies import VotingPolicy
from repro.cosim import CoSimulator
from repro.experiments.common import format_table
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler, ServingCoSimulator, compare_dataflows


def build_workload(model, rng, n_requests=6, shared_prefix=16):
    prefix = rng.integers(0, model.config.vocab_size, size=shared_prefix)
    requests = []
    for i in range(n_requests):
        unique = rng.integers(0, model.config.vocab_size, size=int(rng.integers(12, 32)))
        prompt = np.concatenate([prefix, unique])
        requests.append(
            Request(
                request_id=f"user-{i}",
                prompt=prompt,
                max_new_tokens=int(rng.integers(8, 16)),
                arrival_time=2 * i,
                seed=i,
                budget=budget_from_ratio(0.5, prompt.shape[0], minimum=8),
            )
        )
    return requests


def serve(model, requests, paged):
    scheduler = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(
            model.config.n_layers, reserved_length=4
        ),
        max_batch_size=4,
        paged=paged,
        block_size=4,
    )
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    return scheduler, report


def main():
    model = CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))
    rng = np.random.default_rng(42)
    requests = build_workload(model, rng)
    shapes = llama2_7b_shapes()

    # ------------------------------------------------------------------
    # 1. Dense vs paged, priced on 7B shapes.
    # ------------------------------------------------------------------
    dense_sched, _ = serve(model, requests, paged=False)
    paged_sched, paged_report = serve(model, requests, paged=True)
    dense_hw = ServingCoSimulator(dense_sched, hw_model=shapes).replay()
    paged_hw = ServingCoSimulator(paged_sched, hw_model=shapes).replay()

    print(format_table(dense_hw.rounds, title="Per-round cycles (dense)"))
    print()
    rows = [
        {"run": "dense", **{k: v for k, v in dense_hw.summary().items() if k != "dataflow"}},
        {"run": "paged", **{k: v for k, v in paged_hw.summary().items() if k != "dataflow"}},
    ]
    print(format_table(rows, title="Dense vs paged on the accelerator"))
    print(
        f"\nPrefix sharing saved {paged_report.prefix_tokens_hit} prefill "
        f"rows -> {dense_hw.prefill_cycles - paged_hw.prefill_cycles:,.0f} "
        "prefill cycles; decode work identical "
        f"({paged_hw.decode_cycles == dense_hw.decode_cycles})."
    )
    assert paged_hw.decode_cycles == dense_hw.decode_cycles

    # ------------------------------------------------------------------
    # 2. Dataflow flexibility on the mixed trace.
    # ------------------------------------------------------------------
    reports = compare_dataflows(dense_sched, hw_model=shapes)
    print()
    print(
        format_table(
            [r.summary() for r in reports.values()],
            title="PE-array mapping selection on the same trace",
        )
    )
    auto = reports["auto"].total_cycles
    print(
        f"\nFlexibility wins: pinned-prefill pays "
        f"{reports['prefill'].total_cycles / auto:.4f}x, pinned-decode "
        f"{reports['decode'].total_cycles / auto:.4f}x the flexible cycles."
    )

    # ------------------------------------------------------------------
    # 3. Batch-size-1 anchor against the solo co-simulator.
    # ------------------------------------------------------------------
    solo_request = requests[0]
    solo_sched = Scheduler(
        model,
        policy_factory=lambda: VotingPolicy(model.config.n_layers, reserved_length=4),
        max_batch_size=1,
    )
    solo_sched.submit(solo_request)
    solo_sched.run()
    serving_cycles = ServingCoSimulator(solo_sched, hw_model=shapes).replay()
    engine = GenerationEngine(
        model,
        VotingPolicy(model.config.n_layers, reserved_length=4),
        budget=solo_request.budget,
    )
    solo = CoSimulator(engine, hw_model=shapes).run(
        solo_request.prompt, solo_request.max_new_tokens, seed=solo_request.seed
    )
    print(
        f"\nBatch-1 anchor: serving decode cycles "
        f"{serving_cycles.decode_cycles:,.0f} == solo co-simulator "
        f"{solo.total_decode_cycles:,.0f} -> "
        f"{serving_cycles.decode_cycles == solo.total_decode_cycles}"
    )
    assert serving_cycles.decode_cycles == solo.total_decode_cycles


if __name__ == "__main__":
    main()

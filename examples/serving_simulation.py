"""Serving simulation: continuous batching vs one-at-a-time generation.

Submits a burst of concurrent requests to the continuous-batching
:class:`repro.serve.Scheduler` (each request evicting from its own KV
cache via the voting policy), then replays every request alone through
``GenerationEngine.generate`` to show two things:

1. the batched path returns *exactly* the same tokens per request
   (row-count-invariant linear layers, one BLAS gemv per row — see
   ``repro.models.inference.batch_matmul``),
2. batching amortizes per-step work: fewer scheduler rounds and higher
   wall-clock tokens/s than the sequential replay.

Run:  python examples/serving_simulation.py
"""

import time

import numpy as np

from repro.config import tiny_config
from repro.core.engine import GenerationEngine, budget_from_ratio
from repro.core.policies import VotingPolicy
from repro.experiments.common import format_table
from repro.models.inference import CachedTransformer
from repro.models.transformer import TransformerLM
from repro.serve import Request, Scheduler


def main():
    model = CachedTransformer.from_module(TransformerLM(tiny_config(), seed=0))
    n_layers = model.config.n_layers
    rng = np.random.default_rng(42)

    # A burst of 6 concurrent requests plus 2 late arrivals.
    requests = []
    for i in range(8):
        prompt_len = int(rng.integers(16, 48))
        requests.append(
            Request(
                request_id=f"user-{i}",
                prompt=rng.integers(0, model.config.vocab_size, size=prompt_len),
                max_new_tokens=int(rng.integers(10, 24)),
                arrival_time=0 if i < 6 else 5 * (i - 5),
                seed=i,
                budget=budget_from_ratio(0.5, prompt_len, minimum=8),
            )
        )

    policy_factory = lambda: VotingPolicy(n_layers, reserved_length=4)

    print("=== continuous batching (max_batch=6) ===")
    scheduler = Scheduler(model, policy_factory=policy_factory, max_batch_size=6)
    for request in requests:
        scheduler.submit(request)
    report = scheduler.run()
    print(format_table(report.requests, title="per-request timeline (rounds)"))
    print()
    print(format_table([report.summary()], title="aggregate"))

    print("\n=== sequential replay (one request at a time) ===")
    start = time.perf_counter()
    solo_tokens = {}
    for request in requests:
        engine = GenerationEngine(
            model, policy_factory(), budget=request.budget
        )
        result = engine.generate(
            request.prompt, request.max_new_tokens, seed=request.seed,
            eos=request.eos,
        )
        solo_tokens[request.request_id] = result.tokens
    sequential_wall = time.perf_counter() - start

    matches = sum(
        scheduler.tokens_for(rid) == tokens for rid, tokens in solo_tokens.items()
    )
    total = sum(len(t) for t in solo_tokens.values())
    print(f"sequential: {total} tokens in {sequential_wall:.3f}s "
          f"({total / sequential_wall:,.0f} tok/s)")
    print(f"batched:    {report.total_tokens} tokens in "
          f"{report.wall_seconds:.3f}s ({report.tokens_per_second:,.0f} tok/s, "
          f"{report.tokens_per_round:.2f} tok/round)")
    print(f"\nper-request token match (batched vs solo): {matches}/{len(requests)}")
    print(f"batched speedup: {sequential_wall / report.wall_seconds:.2f}x")
    assert matches == len(requests), "batching must never change tokens"


if __name__ == "__main__":
    main()

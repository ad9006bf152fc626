"""The benchmark's own seeded workload generator.

Four serving traces, each built from ``numpy.random.default_rng(seed)``
alone (no dependency on ``repro.experiments.serving``).  A trace is a
list of plain request dicts plus the public server kwargs it is served
with; the same seed always reproduces the same trace, which
:func:`digest` pins.

Lengths and arrivals are *stratified*, not independent draws: lengths
are a seeded shuffle of a fixed evenly spaced grid over their range, and
arrivals sit on a jittered grid (one request per mean gap, placed
uniformly within its slot).  Every seed therefore offers the same
aggregate work to within a percent — total prompt rows, generated
tokens, arrival span, no seed-specific bursts — and differs in token
content, request order and who collides with whom.  That keeps seed-to-seed
spread of every metric below its regression bound (tail latencies of a
bursty open loop near saturation would swing by tens of percent with
the seed) while the seed still decides the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from perfbench_adapter import model_dims

SCALES = ("full", "smoke")

#: Requests per workload re-generated solo and compared bit-for-bit.
ORACLE_REQUESTS = 24

#: Head start of the request that first prefills a shared system prompt.
PRIMER_ROUNDS = 8


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    #: Model kind the adapter builds (``"small"``/``"tiny"``).
    model: str
    #: Public ``ServingEngine``/``ServingFleet`` kwargs.
    server: dict
    #: Request dicts: id, prompt, max_new, arrival, budget, deadline, seed.
    requests: list

    @property
    def oracle_ids(self):
        """Evenly spaced fixed subset checked against the solo oracle."""
        count = min(ORACLE_REQUESTS, len(self.requests))
        step = len(self.requests) / count
        return [self.requests[int(i * step)]["id"] for i in range(count)]


# ----------------------------------------------------------------------
# Stratified draws
# ----------------------------------------------------------------------
def _lengths(rng, low, high, count):
    """``count`` integers evenly covering ``[low, high)``, shuffled (the
    grid's phase is seeded too, so totals differ by a few units)."""
    grid = low + np.floor((np.arange(count) + rng.random()) * (high - low) / count)
    return rng.permutation(grid.astype(np.int64))


def _arrivals(rng, count, mean_gap):
    """Arrival rounds on a jittered grid: request ``i`` arrives uniformly
    within ``[i, i + 1) * mean_gap``."""
    slots = (np.arange(count) + rng.random(count)) * mean_gap
    return np.floor(slots).astype(np.int64)


def _tokens(rng, vocab, length):
    return rng.integers(0, vocab, int(length)).tolist()


def _blocks(slots, block_size):
    return math.ceil(slots / block_size)


def _request(rid, prompt, max_new, arrival, seed, budget=None, deadline=None):
    return {
        "id": rid,
        "prompt": prompt,
        "max_new": int(max_new),
        "arrival": int(arrival),
        "budget": budget,
        "deadline": deadline,
        "seed": int(seed),
    }


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------
def _decode_evict(rng, scale):
    count = {"full": 120, "smoke": 6}[scale]
    batch = 8
    vocab, _ = model_dims("small")
    prompts = _lengths(rng, 8, 24, count)
    max_new = _lengths(rng, 16, 40, count)
    # One request holds a batch slot for ~max_new rounds, so capacity is
    # batch / mean(max_new) requests per round; offer 0.8 of it.
    arrivals = _arrivals(rng, count, float(max_new.mean()) / (batch * 0.8))
    requests = [
        _request(
            f"r{i}",
            _tokens(rng, vocab, prompts[i]),
            max_new[i],
            arrivals[i],
            seed=i,
            budget=max(12, round(0.5 * int(prompts[i]))),
        )
        for i in range(count)
    ]
    return "small", {"max_batch_size": batch}, requests


def _conversations(rng, vocab, convs, turns, tail, max_new, mean_gap, system=()):
    """Multi-turn traffic: turn ``t`` of a conversation resubmits its
    whole history (system prompt + every earlier tail) plus a new tail.
    Turn-major arrival order, conversations shuffled within a turn.
    With a system prompt, the first request arrives alone and primes the
    trie before the rest start (no cold-start herd whose size would
    depend on the seed)."""
    total = convs * turns
    tails = _lengths(rng, *tail, total)
    new = _lengths(rng, *max_new, total)
    arrivals = _arrivals(rng, total, mean_gap)
    if system:
        arrivals[1:] += PRIMER_ROUNDS
    history = [list(system) for _ in range(convs)]
    requests = []
    for turn in range(turns):
        for conv in rng.permutation(convs).tolist():
            k = len(requests)
            history[conv] = history[conv] + _tokens(rng, vocab, tails[k])
            requests.append(
                _request(f"c{conv}t{turn}", history[conv], new[k], arrivals[k], seed=k)
            )
    return requests


def _prefill_shared(rng, scale):
    convs, turns = {"full": (48, 3), "smoke": (3, 2)}[scale]
    block, system_len, tail, max_new = 16, 192, (16, 48), (4, 8)
    vocab, n_layers = model_dims("small")
    system = _tokens(rng, vocab, system_len)
    requests = _conversations(
        rng, vocab, convs, turns, tail, max_new, mean_gap=3.0, system=system
    )
    # A pool that holds the system prompt once plus every conversation's
    # whole history, so the trie is never shed under pressure (a growable
    # pool asks the trie to shed before it grows).
    per_conv = _blocks(turns * tail[1] + max_new[1], block) + 1
    pool = n_layers * (_blocks(system_len, block) + convs * per_conv)
    server = {
        "max_batch_size": 8,
        "paged": True,
        "block_size": block,
        "num_blocks": pool,
        "prefix_caching": True,
        "prefill_chunk": 64,
    }
    return "small", server, requests


def _overload_swap(rng, scale):
    count = {"full": 160, "smoke": 12}[scale]
    block, batch = 16, 8
    vocab, n_layers = model_dims("tiny")
    prompts = _lengths(rng, 48, 128, count)
    max_new = _lengths(rng, 16, 32, count)
    requests = [
        _request(
            f"r{i}",
            _tokens(rng, vocab, prompts[i]),
            max_new[i],
            arrival=0,
            seed=i,
            deadline=math.ceil(1.5 * (int(max_new[i]) + int(prompts[i]) / 8)),
        )
        for i in range(count)
    ]
    # Half the worst-case blocks of one full batch of average requests,
    # but never less than the single largest request needs.
    worst = [
        n_layers * _blocks(int(p) + int(m) + 1, block) for p, m in zip(prompts, max_new)
    ]
    pool = max(round(batch * sum(worst) / len(worst) / 2), max(worst))
    server = {
        "max_batch_size": batch,
        "paged": True,
        "block_size": block,
        "num_blocks": pool,
        "prefix_caching": False,
        "prefill_chunk": 32,
        "admission": "edf",
        "preempt": "swap",
    }
    return "tiny", server, requests


def _fleet_replay(rng, scale):
    convs, turns = {"full": (96, 4), "smoke": (6, 3)}[scale]
    block, tail, max_new = 8, (16, 48), (8, 16)
    vocab, n_layers = model_dims("tiny")
    requests = _conversations(rng, vocab, convs, turns, tail, max_new, mean_gap=1.5)
    # Every replica could hold every conversation: placement, not pool
    # pressure, decides what each trie keeps.
    pool = n_layers * convs * (_blocks(turns * tail[1] + max_new[1], block) + 1)
    server = {
        "replicas": 3,
        "placement": "prefix_affinity",
        "max_batch_size": 8,
        "paged": True,
        "block_size": block,
        "num_blocks": pool,
    }
    return "tiny", server, requests


_GENERATORS = {
    "decode_evict": _decode_evict,
    "prefill_shared": _prefill_shared,
    "overload_swap": _overload_swap,
    "fleet_replay": _fleet_replay,
}

WORKLOADS = tuple(_GENERATORS)


def generate(name, seed, scale="full"):
    """Build workload ``name`` from ``seed`` at ``scale``."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}, expected one of {SCALES}")
    rng = np.random.default_rng(seed)
    model, server, requests = _GENERATORS[name](rng, scale)
    return Workload(name, seed, scale, model, server, requests)


# ----------------------------------------------------------------------
# Mechanism sanity: each workload must exercise what it exists for
# ----------------------------------------------------------------------
def sanity_failures(name, numbers):
    """Names of the mechanism checks workload ``name`` failed, given the
    adapter's ``serving_numbers`` dict."""
    checks = {
        "decode_evict": {
            "evictions>0": numbers["evictions"] > 0,
            "prefix_hits=0": numbers["prefix_tokens_hit"] == 0,
        },
        "prefill_shared": {
            "token_hit_rate>0.5": numbers["token_hit_rate"] > 0.5,
            "evictions=0": numbers["evictions"] == 0,
        },
        "overload_swap": {
            "preemptions>0": numbers["preemptions"] > 0,
            "swap_blocks>0": numbers["swap_blocks"] > 0,
        },
        "fleet_replay": {
            "every_replica_served": all(t > 0 for t in numbers["tokens_per_replica"]),
            "replay_rounds>0": numbers["replay_rounds"] > 0,
        },
    }[name]
    return [check for check, passed in checks.items() if not passed]


# ----------------------------------------------------------------------
# Digest and dump
# ----------------------------------------------------------------------
def _lines(workload):
    return [json.dumps(r, sort_keys=True) for r in workload.requests]


def digest(workload):
    """Content digest of the trace: same seed, same digest."""
    sha = hashlib.sha256()
    sha.update(json.dumps(workload.server, sort_keys=True).encode())
    for line in _lines(workload):
        sha.update(line.encode())
    return sha.hexdigest()


def dump(workload, directory):
    """Write the trace as JSONL: a header line (name, seed, scale, model,
    server kwargs, digest), then one line per request."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.jsonl"
    header = {
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "model": workload.model,
        "server": workload.server,
        "requests": len(workload.requests),
        "digest": digest(workload),
    }
    path.write_text("\n".join([json.dumps(header, sort_keys=True)] + _lines(workload)) + "\n")
    return path

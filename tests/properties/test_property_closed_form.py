"""Property-based tests: the simulator's closed-form sums step aside
wherever they would not be exact.

:class:`repro.accel.simulator.AcceleratorSimulator` adds a per-layer
term ``n_layers`` times as one multiply-add only when every partial sum
of the per-layer loop is an exactly representable integer; otherwise the
loop itself runs.  The configurations ``test_property_predictor.py``
covers take the closed form almost everywhere, so this suite prices
hardware and shapes that push each accumulator off it, and compares
with the same uncached reference loops (:class:`ReferenceModel`) field
for field:

- ``wide``: a 65536-wide model whose prefill MACs pass 2**53;
- ``heavy``: (2**24 + 1)-byte elements on odd widths, so weight and KV
  bytes pass 2**53 with terms too fine to add exactly there;
- ``fractional``: 1.3-byte elements, so weight and per-key KV bytes
  are fractional;
- ``tp3``: three-way tensor parallelism, whose ``2 (tp - 1) / tp``
  all-reduce factor rounds, so most row counts price fractional
  all-reduce bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_predictor import ReferenceModel, _fields

from repro.accel.config import baseline_config, veda_config
from repro.accel.simulator import AcceleratorSimulator
from repro.config import ModelConfig, llama2_7b_shapes

WIDE = ModelConfig(
    vocab_size=32000,
    d_model=65536,
    n_heads=512,
    n_layers=32,
    d_ff=262144,
    max_seq_len=8192,
)
ODD = ModelConfig(
    vocab_size=32001,
    d_model=4094,
    n_heads=23,
    n_layers=32,
    d_ff=11007,
    max_seq_len=8192,
)
TP3 = ModelConfig(
    vocab_size=32000,
    d_model=3840,
    n_heads=48,
    n_layers=32,
    d_ff=10368,
    max_seq_len=4096,
)
CONFIGS = {
    "wide": (veda_config(), WIDE, 1),
    "heavy": (veda_config(bytes_per_element=2**24 + 1), ODD, 1),
    "fractional": (veda_config(bytes_per_element=1.3), llama2_7b_shapes(), 1),
    "fractional_baseline": (
        baseline_config(bytes_per_element=1.3), llama2_7b_shapes(), 1,
    ),
    "tp3": (veda_config(), TP3, 3),
}

configs = st.sampled_from(sorted(CONFIGS))
dataflows = st.sampled_from(["auto", "prefill", "decode"])


def _pair(name, dataflow):
    hw, model, tp = CONFIGS[name]
    if not hw.flexible_dataflow and dataflow == "decode":
        dataflow = "auto"
    return AcceleratorSimulator(hw, model, tp=tp), ReferenceModel(hw, model, tp), dataflow


@given(configs, st.integers(1, 8192), st.integers(0, 256), dataflows)
@settings(max_examples=40, deadline=None)
def test_prefill_equals_reference_loop(name, prompt, prefix, dataflow):
    sim, reference, dataflow = _pair(name, dataflow)
    assert _fields(sim.prefill(prompt, dataflow, prefix)) == _fields(
        reference.prefill(prompt, dataflow, prefix)
    )


@given(
    configs,
    st.lists(st.integers(1, 8192), min_size=1, max_size=32),
    dataflows,
)
@settings(max_examples=40, deadline=None)
def test_decode_round_equals_reference_loop(name, cache_lengths, dataflow):
    sim, reference, dataflow = _pair(name, dataflow)
    got = sim.decode_round(cache_lengths, dataflow)
    expected = reference.decode_round(cache_lengths, dataflow)
    assert _fields(got) == _fields(expected)
    assert got.per_sequence_attention == expected.per_sequence_attention


def test_configs_leave_the_exact_integers():
    """Each configuration really prices terms the closed form must not
    take: a total at or past 2**53, or a fractional per-layer term."""
    limit = 2.0**53
    wide = AcceleratorSimulator(*CONFIGS["wide"][:2]).prefill(8192)
    assert wide.macs >= limit
    heavy = AcceleratorSimulator(*CONFIGS["heavy"][:2]).decode_round([4096] * 8)
    assert heavy.hbm_bytes >= limit
    fractional = AcceleratorSimulator(*CONFIGS["fractional"][:2])
    assert not float(fractional._kv_bytes_per_key).is_integer()
    hw, model, tp = CONFIGS["tp3"]
    assert not AcceleratorSimulator(hw, model, tp=tp)._allreduce(7)[0].is_integer()

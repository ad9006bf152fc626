"""Attention cycle model: conventional vs flexible/element-serial schedules.

This is the analytic core behind Fig. 8 (center/right).  For every
attention operation it produces a per-component cycle breakdown under the
three hardware variants (Baseline, +F, +F+E), following the dataflow
analysis in paper Sec. IV:

Decode step (cache length ``l``, per layer, ``H`` heads of dim ``d``):

====================  =============================  ==========================
component             flexible (+F)                  fixed baseline
====================  =============================  ==========================
``q×Kᵀ``              inner product, ``l`` temporal  same cycles (k=d fits the
                      → ``l·ceil(d/W)`` compute,     tree), but K is walked
                      K streamed row-major at full   row-major in both designs
                      bandwidth                      so no memory penalty
softmax               element-serial: drain only     pipeline stage: exposed
                      (+E), else exposed pass        normalization pass
``s'×V``              outer product, ``l`` temporal  inner product over k=l:
                      → ``l·ceil(d/W)``, V streamed  compute padded to tree
                      row-major                      epochs ``d·ceil(l/W)`` and
                                                     V walked column-major →
                                                     strided DRAM derate
====================  =============================  ==========================

Prefill (prompt ``P``): the flexible array issues row-wise GEMVs and skips
the causal upper triangle exactly; the fixed design executes a tiled GEMM
kernel whose causal coverage is tile-granular (rows pad to ``W``-wide
column tiles), stalls per row on conventional softmax, and pays a
bank-conflict derate reading Vᵀ from the on-chip buffer.

All constants live in :class:`repro.accel.config.HardwareConfig`; the
measured-vs-paper ratios are the ``fig8_center`` artifact (README section
"`fig8_center` — dataflow ablation latency").

Round-level dataflow selection (serving)
----------------------------------------
At serving scale a scheduler round mixes phases: admissions prefill
whole prompts while the running batch decodes one token each.  The
flexible PE array can reconfigure between two *round-level mappings*
(``dataflow=`` on the entry points below):

- ``"prefill"`` — the tiled multi-row (GEMM) configuration: prompt rows
  stream through W-wide tiles with on-chip K/V reuse (the cost the
  flexible array achieves on prefill).  Decode rows forced through this
  mapping execute as degenerate one-row tiles: s'×V runs as the tiled
  inner product over ``k=l`` (compute padded to tree epochs, V walked
  column-major off-chip → strided derate), and the element-serial
  softmax overlap is unavailable because the inner-configured array
  does not consume a serial input stream.
- ``"decode"`` — the streaming single-row (GEMV) configuration: each
  row maps its cache length to time exactly and s'×V runs as the outer
  product (the cost the flexible array achieves on decode).  Prefill
  rows forced through this mapping are processed one query row at a
  time with *no on-chip K/V tile reuse*: every row re-streams its
  growing K and V from HBM, and the two interleaved streams pay the
  strided-DRAM derate, so long prompts turn memory-bound.
- ``"auto"`` — the paper's flexibility applied at phase granularity:
  prefill operators use the tiled mapping, decode operators the
  streaming mapping.  ``"auto"`` therefore lower-bounds both fixed
  selections; the gap is what VEDA's runtime reconfiguration buys on a
  mixed serving trace.

On fixed-dataflow hardware (``flexible_dataflow=False``) the array is
the tiled inner-product design by construction: ``"auto"`` and
``"prefill"`` degrade to the baseline cost and ``"decode"`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.accel.sfu import softmax_stall_cycles

__all__ = [
    "AttentionBreakdown",
    "DATAFLOWS",
    "decode_attention",
    "prefill_attention",
    "resolve_dataflow",
    "TimelineSegment",
    "attention_timeline",
]

#: Round-level PE-array mapping selections (see module docstring).
DATAFLOWS = ("auto", "prefill", "decode")


def resolve_dataflow(dataflow, hw, phase):
    """Resolve a round-level ``dataflow`` selection for one phase.

    Parameters
    ----------
    dataflow:
        One of :data:`DATAFLOWS`: ``"auto"`` (reconfigure per phase),
        ``"prefill"`` (stay in the tiled/GEMM mapping), or ``"decode"``
        (stay in the streaming/GEMV mapping).
    hw:
        The :class:`~repro.accel.config.HardwareConfig`.  Fixed-dataflow
        hardware cannot select mappings: ``"decode"`` raises, and
        ``"auto"``/``"prefill"`` both resolve to the baseline's tiled
        configuration.
    phase:
        ``"prefill"`` or ``"decode"`` — the phase the operator belongs
        to, which is what ``"auto"`` resolves to.

    Returns the effective mapping, ``"prefill"`` or ``"decode"``.
    """
    if dataflow not in DATAFLOWS:
        raise ValueError(f"unknown dataflow {dataflow!r}, expected one of {DATAFLOWS}")
    if phase not in ("prefill", "decode"):
        raise ValueError(f"unknown phase {phase!r}")
    if not hw.flexible_dataflow:
        if dataflow == "decode":
            raise ValueError(
                "fixed-dataflow hardware cannot select the streaming "
                "'decode' mapping (flexible_dataflow=False)"
            )
        return "prefill"
    if dataflow == "auto":
        return phase
    return dataflow


@dataclass
class AttentionBreakdown:
    """Cycle breakdown of one attention operation (all heads of a layer)."""

    qk: float = 0.0
    softmax: float = 0.0
    sv: float = 0.0

    @property
    def total(self):
        return self.qk + self.softmax + self.sv

    def scaled(self, factor):
        return AttentionBreakdown(
            qk=self.qk * factor, softmax=self.softmax * factor, sv=self.sv * factor
        )

    def __add__(self, other):
        return AttentionBreakdown(
            qk=self.qk + other.qk,
            softmax=self.softmax + other.softmax,
            sv=self.sv + other.sv,
        )


def _head_epochs(head_dim, width):
    return math.ceil(head_dim / width)


def decode_attention(l, head_dim, n_heads, hw, dataflow="auto"):
    """Attention cycles for one decode step over a cache of length ``l``.

    Returns an :class:`AttentionBreakdown` for all ``n_heads`` heads of
    one layer.  Compute and memory are overlapped (double-buffered), so
    each GEMV costs ``max(compute, memory)``.

    ``dataflow`` selects the round-level array mapping (module
    docstring): ``"auto"``/``"decode"`` is the flexible array's native
    decode cost; ``"prefill"`` keeps the array in the tiled/GEMM
    configuration, so s'×V runs as the tiled inner product (padded
    compute + strided V) and the element-serial softmax overlap is
    forfeited.
    """
    if l <= 0:
        raise ValueError("cache length must be positive")
    mapping = resolve_dataflow(dataflow, hw, "decode")
    # A flexible array pinned to the tiled mapping for this round: decode
    # rows execute as degenerate one-row tiles (the fixed baseline's
    # schedule, without its element-serial adjacency).
    forced_tile = hw.flexible_dataflow and mapping == "prefill"
    width = hw.tree_width
    epochs = _head_epochs(head_dim, width)
    bytes_per_row = head_dim * hw.bytes_per_element

    # --- q×Kᵀ: identical in both dataflows (inner product, K row-major).
    qk_compute = l * epochs
    qk_memory = l * bytes_per_row / hw.bytes_per_cycle
    qk = max(qk_compute, qk_memory)

    # --- softmax between the two GEMVs.
    softmax = softmax_stall_cycles(
        l, hw, hw.element_serial and not forced_tile
    )

    # --- s'×V.
    sv_memory_streamed = l * bytes_per_row / hw.bytes_per_cycle
    # Fixed inner product over k=l: compute pads to tree epochs and V is
    # walked column-major (transpose pattern) off-chip.
    sv_inner = max(
        head_dim * math.ceil(l / width),
        sv_memory_streamed / hw.dram_strided_derate,
    )
    sv_outer = max(l * epochs, sv_memory_streamed)
    if not hw.flexible_dataflow or forced_tile:
        sv = sv_inner
    elif hw.element_serial:
        # Element-serial normalization feeds the outer product's serial
        # input, so the outer configuration is mandatory.
        sv = sv_outer
    else:
        # Flexible without element-serial: reconfigure to whichever
        # mapping is cheaper for this shape.
        sv = min(sv_outer, sv_inner)

    per_head = AttentionBreakdown(qk=qk, softmax=softmax, sv=sv)
    return per_head.scaled(n_heads)


def prefill_attention(
    prompt_length, head_dim, n_heads, hw, dataflow="auto", prefix_length=0
):
    """Attention cycles for prefilling ``prompt_length`` tokens (one layer).

    Row ``i`` attends to ``i+1`` keys (causal).  The flexible array maps
    the row length to time exactly; the fixed baseline executes
    tile-granular causal coverage and pays the transposed-SRAM derate on
    s'×V operand fetch.

    ``prefix_length`` prices a *continuation* prefill over an existing
    cache (prefix-cache hit): only ``prompt_length`` rows are computed,
    but row ``j`` attends to ``prefix_length + j`` keys.

    ``dataflow`` selects the round-level array mapping (module
    docstring): ``"auto"``/``"prefill"`` is the tiled/GEMM cost;
    ``"decode"`` keeps the array in the streaming/GEMV configuration, so
    every row re-streams its K and V from HBM (no tile reuse) and the
    interleaved streams pay the strided-DRAM derate — each row costs
    ``max(compute, memory)`` instead of pure compute.
    """
    if prompt_length <= 0:
        raise ValueError("prompt length must be positive")
    if prefix_length < 0:
        raise ValueError("prefix length must be non-negative")
    mapping = resolve_dataflow(dataflow, hw, "prefill")
    streaming = hw.flexible_dataflow and mapping == "decode"
    width = hw.tree_width
    epochs = _head_epochs(head_dim, width)
    bytes_per_row = head_dim * hw.bytes_per_element

    qk = softmax = sv = 0.0
    for j in range(1, prompt_length + 1):
        i = prefix_length + j
        padded = width * math.ceil(i / width)
        sv_inner = (padded * epochs) / hw.sram_transposed_derate
        sv_outer = i * epochs
        if streaming:
            # GEMV-pinned array: K and V re-streamed from HBM per row,
            # interleaved streams pay the strided derate.
            row_memory = (
                i * bytes_per_row / hw.bytes_per_cycle / hw.dram_strided_derate
            )
            qk += max(i * epochs, row_memory)
            sv += max(sv_outer, row_memory)
        elif hw.flexible_dataflow:
            qk += i * epochs
            sv += sv_outer if hw.element_serial else min(sv_outer, sv_inner)
        else:
            qk += padded * epochs
            sv += sv_inner
        softmax += softmax_stall_cycles(i, hw, hw.element_serial)

    per_head = AttentionBreakdown(qk=qk, softmax=softmax, sv=sv)
    return per_head.scaled(n_heads)


# ----------------------------------------------------------------------
# Timeline view (Fig. 6a)
# ----------------------------------------------------------------------
@dataclass
class TimelineSegment:
    """One busy interval of an engine, for the Fig. 6(a) style timeline."""

    engine: str  # "pe_array" or "sfu"
    label: str
    start: float
    end: float

    @property
    def duration(self):
        return self.end - self.start


def attention_timeline(l, head_dim, hw):
    """Single-head decode attention as explicit engine timelines.

    Demonstrates the Fig. 6(a) contrast: conventional scheduling leaves
    the PE array idle during the SFU pass; element-serial overlaps the
    reduction with q×Kᵀ output and the normalization with s'×V input.

    Returns ``(segments, total_cycles)``.
    """
    width = hw.tree_width
    epochs = _head_epochs(head_dim, width)
    qk_cycles = l * epochs
    sv_cycles = l * epochs
    segments = []

    if hw.element_serial:
        segments.append(TimelineSegment("pe_array", "q×Kᵀ (inner)", 0, qk_cycles))
        # Reduction runs concurrently on the serial output stream.
        segments.append(TimelineSegment("sfu", "reduce (max/expsum)", 1, qk_cycles + 1))
        drain = hw.element_serial_drain
        sv_start = qk_cycles + drain
        # Normalization feeds the outer-product input element by element.
        segments.append(
            TimelineSegment("sfu", "normalize (exp/div)", sv_start, sv_start + sv_cycles)
        )
        segments.append(
            TimelineSegment("pe_array", "s'×V (outer)", sv_start, sv_start + sv_cycles)
        )
        total = sv_start + sv_cycles
    else:
        segments.append(TimelineSegment("pe_array", "q×Kᵀ (inner)", 0, qk_cycles))
        stall = softmax_stall_cycles(l, hw, element_serial=False)
        segments.append(
            TimelineSegment("sfu", "softmax (stage)", qk_cycles, qk_cycles + stall)
        )
        sv_start = qk_cycles + stall
        segments.append(
            TimelineSegment("pe_array", "s'×V", sv_start, sv_start + sv_cycles)
        )
        total = sv_start + sv_cycles
    return segments, total

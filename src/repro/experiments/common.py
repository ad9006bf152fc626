"""Shared helpers for the experiment modules: table formatting, result
containers, and the paper sweeps' perplexity evaluation.  Every
experiment returns an :class:`ExperimentResult` whose ``rows`` are plain
dicts, so benches can both print the paper-style table and assert on the
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.datasets import book_aligned_windows
from repro.zoo import default_corpus

__all__ = ["ExperimentResult", "eval_windows", "format_table", "mean_perplexity"]


@dataclass
class ExperimentResult:
    """Structured output of one paper artifact reproduction."""

    experiment_id: str
    title: str
    rows: list = field(default_factory=list)
    notes: str = ""

    def column_names(self):
        if not self.rows:
            return []
        return list(self.rows[0].keys())

    def to_table(self):
        """Render rows as a fixed-width text table."""
        return format_table(self.rows, title=f"{self.experiment_id}: {self.title}")

    def render(self, extra=""):
        """The saved artifact text: the table, a ``Notes:`` paragraph when
        there are notes, then ``extra`` (a companion table, say).  Both
        writers of ``.artifacts/results`` — the CLI and the benchmark
        suite — call this, so they write the same file."""
        text = self.to_table()
        if self.notes:
            text += f"\n\nNotes: {self.notes}"
        if extra:
            text += f"\n{extra}"
        return text


def eval_windows(tokenizer, n_windows, window_length):
    """Token windows of the first ``n_windows`` evaluation books, aligned
    to book starts (books shorter than ``window_length`` are skipped).

    Alignment matters: the long-range facts (character introductions) sit
    at the start of each book, so a window must contain the introduction
    for its recall sentences to be predictable at all.
    """
    _, documents = default_corpus("eval")
    try:
        windows = book_aligned_windows(documents[:n_windows], tokenizer, window_length)
    except ValueError as error:
        raise RuntimeError(
            "evaluation corpus too small for requested windows"
        ) from error
    return list(windows)


def mean_perplexity(engine, windows, prefill_length):
    """Perplexity of ``engine`` over ``windows``: ``exp`` of the mean of
    the per-window mean NLLs, each window scored from ``prefill_length``
    on."""
    nlls = [
        engine.perplexity(window, prefill_length=prefill_length).mean_nll
        for window in windows
    ]
    return float(np.exp(np.mean(nlls)))


def format_table(rows, title=None):
    """Format a list of dicts as an aligned text table.

    Floats print with two or three decimals (thousands grouped from
    1000 up); a nonzero value below 0.001 keeps three significant
    digits instead of collapsing to ``0.000``, and zero prints as ``0``:

    >>> print(format_table([
    ...     {"dataflow": "auto", "cycles": 123456.0, "joules/token": 0.000234},
    ...     {"dataflow": "decode", "cycles": 12.5, "joules/token": 0.0},
    ... ]))  # doctest: +NORMALIZE_WHITESPACE
    dataflow  cycles   joules/token
    -------------------------------
    auto      123,456  0.000234
    decode    12.50    0
    """
    if not rows:
        return "(empty table)"
    columns = list(rows[0].keys())
    rendered = [[_fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        if abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)

"""Rotary positional embeddings (RoPE), shared by training and inference.

Llama applies RoPE to queries and keys; crucially for KV-cache eviction,
cached keys keep the rotation of their *original absolute position*, so
evicting entries from the middle of the cache does not disturb the
positional encoding of the survivors.  Both the autograd path (training)
and the pure-numpy path (cached inference) therefore take explicit
``positions`` arrays rather than assuming ``0..L-1``.

The half-split convention is used: a head vector ``x`` of dim ``d`` is
viewed as two halves ``(x1, x2)`` and rotated per frequency pair as
``(x1*cos - x2*sin, x1*sin + x2*cos)``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["RopeTable", "apply_rope_numpy", "apply_rope_tensor", "rotate_half"]


class RopeTable:
    """Precomputed cos/sin tables for positions ``0..max_len-1``."""

    def __init__(self, head_dim, max_len, theta=10000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        if max_len <= 0:
            raise ValueError(f"max_len must be positive, got {max_len}")
        self.head_dim = int(head_dim)
        self.max_len = int(max_len)
        self.theta = float(theta)
        half = head_dim // 2
        freqs = self.theta ** (-np.arange(half, dtype=np.float64) / half)
        angles = np.outer(np.arange(max_len, dtype=np.float64), freqs)
        self.cos = np.cos(angles)  # (max_len, head_dim // 2)
        self.sin = np.sin(angles)

    def at(self, positions):
        """cos/sin rows for integer ``positions`` (any shape).

        The range is checked once per call from the scalar extremes, so a
        caller that rotates several tensors at the same positions (q and
        k of every layer) should look the rows up once and reuse them.
        """
        positions = np.asarray(positions)
        if positions.size and (
            np.minimum.reduce(positions, axis=None) < 0
            or np.maximum.reduce(positions, axis=None) >= self.max_len
        ):
            raise IndexError(
                f"position out of RoPE table range [0, {self.max_len})"
            )
        return self.cos[positions], self.sin[positions]


def rotate_half(x, cos, sin):
    """Rotate float ``x`` (..., head_dim) by looked-up ``cos``/``sin``.

    ``cos``/``sin`` are :meth:`RopeTable.at` rows broadcasting against
    ``x``'s leading axes.  Split from :func:`apply_rope_numpy` so the
    cached-inference loops can look the rows up once per call and rotate
    q and k of every layer with them.
    """
    half = x.shape[-1] // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    rotated_1 = x1 * cos - x2 * sin
    rotated_2 = x1 * sin + x2 * cos
    return np.concatenate([rotated_1, rotated_2], axis=-1)


def apply_rope_numpy(x, positions, table):
    """Rotate ``x`` (..., head_dim) at ``positions`` (...,) — pure numpy.

    ``positions`` must broadcast against ``x``'s leading axes; typically
    ``x`` is ``(H, L, d)`` with positions ``(L,)``, or ``(H, d)`` with a
    scalar position during single-token decode.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != table.head_dim:
        raise ValueError(
            f"last dim {x.shape[-1]} != RoPE head_dim {table.head_dim}"
        )
    return rotate_half(x, *table.at(positions))


def apply_rope_tensor(x, positions, table):
    """Autograd version: ``x`` is a Tensor of shape (..., L, head_dim)."""
    half = table.head_dim // 2
    cos, sin = table.at(positions)  # (L, half)
    x1 = x[..., :half]
    x2 = x[..., half:]
    rotated_1 = x1 * cos - x2 * sin
    rotated_2 = x1 * sin + x2 * cos
    return Tensor.concatenate([rotated_1, rotated_2], axis=-1)

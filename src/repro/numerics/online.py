"""Streaming (element-serial) reductions used by the SFU.

The element-serial scheduling scheme (paper Sec. IV-B, Fig. 6) summarizes
softmax and layernorm into a *reduction* stage followed by a
*normalization* stage.  The reduction stage consumes one element per cycle
from the serial output of an inner-product-configured PE array, so it must
be expressible as an online update:

- softmax needs the running maximum and the running exponent sum,
  maintained with the online normalizer of Milakov & Gimelshein
  (arXiv:1805.02867), which the paper cites as "similar to [10]";
- layernorm needs the running mean and variance, which the hardware
  computes from the running sum and sum of squares (equivalently Welford's
  algorithm, used here for numerical robustness).

These classes are the *functional reference* for the SFU cycle models in
:mod:`repro.accel.sfu`; property-based tests assert they match the batch
formulas on arbitrary inputs.
"""

from __future__ import annotations

import math

import numpy as np


class OnlineSoftmaxNormalizer:
    """Single-pass running max and exponent sum for softmax.

    After feeding elements :math:`x_1..x_n` one at a time, ``max`` holds
    :math:`m = \\max_j x_j` and ``exp_sum`` holds
    :math:`\\sum_j e^{x_j - m}`, so the softmax of element ``x`` is
    ``exp(x - m) / exp_sum``.
    """

    def __init__(self):
        self._max = -math.inf
        self._exp_sum = 0.0
        self._count = 0

    @property
    def max(self):
        return self._max

    @property
    def exp_sum(self):
        return self._exp_sum

    @property
    def count(self):
        return self._count

    def update(self, value):
        """Consume one element (one SFU cycle in element-serial mode)."""
        value = float(value)
        if value > self._max:
            # Rescale the previous sum to the new maximum; exp(old - new)
            # underflows harmlessly to 0 when the jump is large.
            if self._count > 0:
                self._exp_sum *= math.exp(self._max - value)
            self._max = value
            self._exp_sum += 1.0
        else:
            self._exp_sum += math.exp(value - self._max)
        self._count += 1

    def update_tile(self, values):
        """Consume a tile of elements (the FIFO-buffered variant in Fig. 6c).

        The hardware finds the tile-local max while streaming into the FIFO
        and then folds the tile in one rescale step; the result is
        identical to element-wise updates.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        tile_max = float(np.max(values))
        tile_sum = float(np.sum(np.exp(values - tile_max)))
        if tile_max > self._max:
            if self._count > 0:
                self._exp_sum *= math.exp(self._max - tile_max)
            self._max = tile_max
            self._exp_sum += tile_sum
        else:
            self._exp_sum += tile_sum * math.exp(tile_max - self._max)
        self._count += values.size

    def normalize(self, values):
        """Apply the normalization stage to ``values`` (element-serial)."""
        if self._count == 0:
            raise ValueError("normalize() before any update()")
        values = np.asarray(values, dtype=np.float64)
        return np.exp(values - self._max) / self._exp_sum


class WelfordAccumulator:
    """Single-pass running mean and variance (Welford's algorithm)."""

    def __init__(self):
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    @property
    def count(self):
        return self._count

    @property
    def mean(self):
        if self._count == 0:
            raise ValueError("mean of an empty accumulator")
        return self._mean

    @property
    def variance(self):
        """Population variance (divide by N), matching layernorm."""
        if self._count == 0:
            raise ValueError("variance of an empty accumulator")
        return self._m2 / self._count

    @property
    def std(self):
        return math.sqrt(max(self.variance, 0.0))

    def update(self, value):
        """Consume one element (one SFU cycle in element-serial mode)."""
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def update_many(self, values):
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.update(value)


def stable_softmax(x, axis=-1):
    """Numerically stable batch softmax for plain ndarrays, width-invariant.

    Two passes: subtract the maximum and exponentiate, then divide by
    the exponent sum.  The sum is accumulated strictly serially along
    ``axis`` — the last element of ``np.add.accumulate``, the order in
    which the element-serial SFU folds the normalizer in.  The pairwise
    tree of ``np.add.reduce`` depends on the row width, so a row padded
    with exact zeros could sum differently in the last bit; the serial
    sum cannot.  A causal row masked to ``-1e30`` past its width
    therefore gets bitwise the probabilities of the same row at its
    exact width — what lets one masked attention formulation serve a
    prefill chunk, a verify window and a decode step.
    :func:`online_softmax` matches it to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    out = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(out, out=out)
    last = (slice(None),) * (axis % out.ndim) + (slice(-1, None),)
    out /= np.add.accumulate(out, axis=axis)[last]
    return out


def online_softmax(values):
    """Numerically stable softmax computed with the online normalizer.

    This is the functional contract of the element-serial softmax pipeline:
    reduction pass over the serial stream, then normalization pass.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    normalizer = OnlineSoftmaxNormalizer()
    for value in values.ravel():
        normalizer.update(value)
    return normalizer.normalize(values)


def streaming_mean_std(values):
    """Mean and population standard deviation via a single streaming pass.

    This is what the voting engine's reduction unit computes from the
    serial ``s'`` stream to form the adaptive threshold
    ``T = a*mean - b*std`` (paper Fig. 3, line 3 of the voting stage).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("mean/std of an empty stream")
    acc = WelfordAccumulator()
    acc.update_many(values)
    return acc.mean, acc.std

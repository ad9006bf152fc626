"""Streaming reductions: online softmax and Welford statistics."""

import numpy as np
import pytest
from scipy import special

from repro.numerics.online import (
    OnlineSoftmaxNormalizer,
    WelfordAccumulator,
    online_softmax,
    stable_softmax,
    streaming_mean_std,
)


class TestOnlineSoftmax:
    def test_matches_batch_softmax(self, rng):
        x = rng.normal(size=64) * 10
        np.testing.assert_allclose(online_softmax(x), special.softmax(x), atol=1e-12)

    def test_stable_softmax_matches_scipy(self, rng):
        x = rng.normal(size=(4, 9))
        np.testing.assert_allclose(
            stable_softmax(x), special.softmax(x, axis=-1), atol=1e-12
        )

    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_stable_softmax_bitwise_equals_serial_sum_formulation(self, rng, axis):
        """The denominator is a strict left-to-right sum along ``axis``
        (the element-serial SFU's order), not numpy's pairwise tree."""
        for shape in [(4, 1), (4, 13), (2, 3, 130), (1, 1)]:
            x = rng.normal(size=shape) * 8.0
            keep = x.copy()
            exps = np.exp(x - np.max(x, axis=axis, keepdims=True))
            terms = np.moveaxis(exps, axis, 0)
            total = terms[0]
            for term in terms[1:]:
                total = total + term
            expected = exps / np.expand_dims(total, axis)
            np.testing.assert_array_equal(stable_softmax(x, axis=axis), expected)
            np.testing.assert_array_equal(x, keep)  # input untouched

    def test_stable_softmax_zero_tail_is_exact(self, rng):
        """A row padded with ``-1e30`` (a causally masked attention row)
        gets bitwise the exact-width row's probabilities and exact zeros
        in the tail, at every width and padding."""
        for width in range(1, 70):
            x = rng.normal(size=(3, width)) * 4.0
            exact = stable_softmax(x)
            for pad in (1, 7, 64, 193):
                padded = np.concatenate([x, np.full((3, pad), -1e30)], axis=1)
                probs = stable_softmax(padded)
                np.testing.assert_array_equal(probs[:, :width], exact)
                assert not probs[:, width:].any()

    def test_extreme_values(self):
        x = np.array([-1e4, 0.0, 1e4])
        out = online_softmax(x)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-12)

    def test_normalizer_state(self):
        n = OnlineSoftmaxNormalizer()
        for v in [1.0, 3.0, 2.0]:
            n.update(v)
        assert n.max == 3.0
        assert n.exp_sum == pytest.approx(
            np.exp(1 - 3) + np.exp(3 - 3) + np.exp(2 - 3)
        )
        assert n.count == 3

    def test_tile_update_equivalent_to_elementwise(self, rng):
        x = rng.normal(size=100) * 5
        elementwise = OnlineSoftmaxNormalizer()
        for v in x:
            elementwise.update(v)
        tiled = OnlineSoftmaxNormalizer()
        for start in range(0, 100, 16):
            tiled.update_tile(x[start : start + 16])
        assert tiled.max == elementwise.max
        assert tiled.exp_sum == pytest.approx(elementwise.exp_sum, rel=1e-12)

    def test_empty_tile_ignored(self):
        n = OnlineSoftmaxNormalizer()
        n.update_tile([])
        assert n.count == 0

    def test_normalize_before_update_raises(self):
        with pytest.raises(ValueError):
            OnlineSoftmaxNormalizer().normalize([1.0])

    def test_empty_input(self):
        assert online_softmax(np.array([])).size == 0


class TestWelford:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=500) * 3 + 7
        acc = WelfordAccumulator()
        acc.update_many(x)
        assert acc.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert acc.variance == pytest.approx(np.var(x), rel=1e-10)
        assert acc.std == pytest.approx(np.std(x), rel=1e-10)

    def test_streaming_mean_std(self, rng):
        x = rng.uniform(size=128)
        mean, std = streaming_mean_std(x)
        assert mean == pytest.approx(np.mean(x))
        assert std == pytest.approx(np.std(x))

    def test_single_element(self):
        acc = WelfordAccumulator()
        acc.update(5.0)
        assert acc.mean == 5.0
        assert acc.variance == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            WelfordAccumulator().mean
        with pytest.raises(ValueError):
            streaming_mean_std([])

    def test_numerical_robustness_large_offset(self):
        # Naive sum-of-squares catastrophically cancels here; Welford not.
        x = np.array([1e8 + 1, 1e8 + 2, 1e8 + 3], dtype=np.float64)
        acc = WelfordAccumulator()
        acc.update_many(x)
        assert acc.variance == pytest.approx(2.0 / 3.0, rel=1e-6)

"""Rotary positional embeddings."""

import numpy as np
import pytest

from repro.models.rope import RopeTable, apply_rope_numpy, apply_rope_tensor, rotate_half
from repro.nn.tensor import Tensor


@pytest.fixture()
def table():
    return RopeTable(head_dim=8, max_len=64, theta=10000.0)


class TestRopeTable:
    def test_shapes(self, table):
        assert table.cos.shape == (64, 4)
        assert table.sin.shape == (64, 4)

    def test_position_zero_is_identity(self, table, rng):
        x = rng.normal(size=(3, 8))
        out = apply_rope_numpy(x, np.array([0, 0, 0]), table)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            RopeTable(head_dim=7, max_len=8)

    def test_rejects_out_of_range_position(self, table, rng):
        with pytest.raises(IndexError):
            apply_rope_numpy(rng.normal(size=(1, 8)), np.array([64]), table)


    @pytest.mark.parametrize("bad", [[-1], [3, 64], [[5], [-2]]])
    def test_range_check_covers_every_entry(self, table, bad):
        with pytest.raises(IndexError):
            table.at(np.array(bad))

    def test_in_range_and_empty_positions(self, table):
        cos, sin = table.at(np.array([[0], [63]]))
        assert cos.shape == sin.shape == (2, 1, 4)
        cos, _ = table.at(np.array([], dtype=np.int64))
        assert cos.shape == (0, 4)

    def test_hoisted_rotation_bitwise_equals_per_call(self, table, rng):
        """One ``at`` look-up reused for several tensors (q and k of
        every layer) gives exactly what per-tensor calls — and the
        ``np.concatenate`` formulation written out — give, in the decode
        ``(B, H, d)`` and the prefill ``(H, L, d)`` layouts."""
        decode = rng.normal(size=(5, 3, 8)), np.array([7, 0, 63, 21, 7])[:, None]
        prefill = rng.normal(size=(6, 3, 8)).transpose(1, 0, 2), np.arange(20, 26)
        for x, positions in (decode, prefill):
            cos, sin = table.at(positions)
            x1, x2 = x[..., :4], x[..., 4:]
            expected = np.concatenate(
                [x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1
            )
            for tensor in (x, -2.0 * x):
                rotated = rotate_half(tensor, cos, sin)
                per_call = apply_rope_numpy(tensor, positions, table)
                np.testing.assert_array_equal(rotated, per_call)
                assert rotated.strides == per_call.strides
            np.testing.assert_array_equal(rotate_half(x, cos, sin), expected)


class TestRotationProperties:
    def test_norm_preserved(self, table, rng):
        """Rotation is an isometry: per-pair norms are unchanged."""
        x = rng.normal(size=(10, 8))
        out = apply_rope_numpy(x, np.arange(10), table)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-10
        )

    def test_relative_position_property(self, table, rng):
        """<RoPE(q,m), RoPE(k,n)> depends only on m-n."""
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        dots = []
        for m, n in [(5, 3), (12, 10), (30, 28)]:
            qm = apply_rope_numpy(q[None, :], np.array([m]), table)[0]
            kn = apply_rope_numpy(k[None, :], np.array([n]), table)[0]
            dots.append(qm @ kn)
        np.testing.assert_allclose(dots[0], dots[1], atol=1e-9)
        np.testing.assert_allclose(dots[0], dots[2], atol=1e-9)

    def test_composition(self, table, rng):
        """Rotating by m then by n (fresh angles) != needed; but rotation at
        position m equals applying the m-th rotation matrix — check against
        an explicit 2x2 block rotation."""
        x = rng.normal(size=(1, 8))
        m = 7
        out = apply_rope_numpy(x, np.array([m]), table)[0]
        half = 4
        x1, x2 = x[0, :half], x[0, half:]
        cos, sin = table.cos[m], table.sin[m]
        np.testing.assert_allclose(out[:half], x1 * cos - x2 * sin, atol=1e-12)
        np.testing.assert_allclose(out[half:], x1 * sin + x2 * cos, atol=1e-12)


class TestTensorPath:
    def test_matches_numpy_path(self, table, rng):
        x = rng.normal(size=(2, 6, 8))  # (H, L, d)
        positions = np.arange(6)
        out_np = apply_rope_numpy(x, positions, table)
        out_tensor = apply_rope_tensor(Tensor(x), positions, table)
        np.testing.assert_allclose(out_tensor.numpy(), out_np, atol=1e-12)

    def test_gradient_flows(self, table, rng):
        x = Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)
        out = apply_rope_tensor(x, np.arange(4), table)
        out.sum().backward()
        assert x.grad is not None
        assert x.grad.shape == (1, 4, 8)
        # Rotation is linear: gradient of sum is rotation applied to ones.
        assert not np.allclose(x.grad, 0.0)

"""Fusion loss identities against hand values and brute-force window oracles."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusedet import autodiff as ad
from fusedet import losses
from fusedet.autodiff import Var
from tests.test_autodiff import fd_gradient, rel_err


def ssim_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Direct evaluation of the SSIM formula from per-window statistics (zero pad)."""
    g = ad.gaussian_kernel(losses.SSIM_WINDOW_SIZE, losses.SSIM_SIGMA)
    win = np.outer(g, g)
    k = losses.SSIM_WINDOW_SIZE
    p = k // 2
    h, w = a.shape
    ap = np.zeros((h + 2 * p, w + 2 * p))
    bp = np.zeros_like(ap)
    ap[p:p + h, p:p + w] = a
    bp[p:p + h, p:p + w] = b
    vals = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            wa = ap[r:r + k, c:c + k]
            wb = bp[r:r + k, c:c + k]
            mu1 = np.sum(win * wa)
            mu2 = np.sum(win * wb)
            s11 = np.sum(win * wa * wa) - mu1 * mu1
            s22 = np.sum(win * wb * wb) - mu2 * mu2
            s12 = np.sum(win * wa * wb) - mu1 * mu2
            vals[r, c] = ((2 * mu1 * mu2 + losses.SSIM_C1) * (2 * s12 + losses.SSIM_C2)) / (
                (mu1 ** 2 + mu2 ** 2 + losses.SSIM_C1) * (s11 + s22 + losses.SSIM_C2)
            )
    return float(vals.mean())


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(16, 16))
        assert losses.ssim(x, x).item() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(12, 12))
        b = rng.uniform(size=(12, 12))
        assert abs(losses.ssim(a, b).item() - losses.ssim(b, a).item()) < 1e-12

    def test_constant_half_images_give_one(self):
        a = np.full((16, 16), 0.5)
        b = np.full((16, 16), 0.5)
        assert losses.ssim(a, b).item() == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_ramp_is_negative(self):
        # window variance must dominate the zero-pad border bias for the sign to show
        ramp = np.tile(np.linspace(0.1, 0.9, 32), (32, 1))
        val = losses.ssim(ramp, 1.0 - ramp).item()
        assert val < 0.0
        assert val == pytest.approx(ssim_oracle(ramp, 1.0 - ramp), abs=1e-12)

    def test_matches_window_statistics_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(10, 10))
        b = rng.uniform(size=(10, 10))
        assert losses.ssim(a, b).item() == pytest.approx(ssim_oracle(a, b), abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.ShapeError):
            losses.ssim(np.zeros((4, 4)), np.zeros((5, 5)))


class TestSsimLoss:
    def test_identical_images_give_zero(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(12, 12))
        assert losses.ssim_loss(x, x, x).item() == pytest.approx(0.0, abs=1e-12)

    def test_compositional_oracle(self):
        rng = np.random.default_rng(4)
        u, x, y = (rng.uniform(size=(10, 10)) for _ in range(3))
        want = (1 - losses.ssim(u, x).item()) / 2 + (1 - losses.ssim(u, y).item()) / 2
        assert losses.ssim_loss(u, x, y).item() == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u, x, y = (rng.uniform(size=(8, 8)) for _ in range(3))
            v = losses.ssim_loss(u, x, y).item()
            assert 0.0 <= v <= 2.0


class TestSaliency:
    def test_constant_image_gives_zero(self):
        s = losses.saliency_map(np.full((8, 8), 0.4))
        np.testing.assert_allclose(s, 0.0, atol=1e-12)

    def test_two_level_half_and_half(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 1.0  # half at level 0, half at level 255
        s = losses.saliency_map(img)
        np.testing.assert_allclose(s, 127.5, atol=1e-12)

    def test_weighted_levels(self):
        # 3/4 of pixels at level 0, 1/4 at level 200
        img = np.zeros((4, 4))
        img[0, :] = 200.0 / 255.0
        s = losses.saliency_map(img)
        np.testing.assert_allclose(s[0, :], 150.0, atol=1e-9)   # S(200) = 0.75*200
        np.testing.assert_allclose(s[1:, :], 50.0, atol=1e-9)   # S(0) = 0.25*200

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(6, 6))
        perm = rng.permutation(36)
        s = losses.saliency_map(img)
        s_perm = losses.saliency_map(img.reshape(-1)[perm].reshape(6, 6))
        np.testing.assert_allclose(s.reshape(-1)[perm], s_perm.reshape(-1), atol=1e-12)


class TestSaliencyWeights:
    def test_equal_maps_give_half(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(8, 8))
        w1, w2 = losses.saliency_weights(x, x.copy())
        np.testing.assert_allclose(w1, 0.5, atol=1e-6)
        np.testing.assert_allclose(w2, 0.5, atol=1e-6)

    def test_one_sided_saliency(self):
        x = np.zeros((8, 8))
        x[:, 4:] = 1.0  # strong saliency
        y = np.full((8, 8), 0.3)  # zero saliency
        w1, _ = losses.saliency_weights(x, y)
        np.testing.assert_allclose(w1, 1.0, atol=1e-6)

    def test_degenerate_constant_pair(self):
        w1, w2 = losses.saliency_weights(np.full((4, 4), 0.2), np.full((4, 4), 0.9))
        np.testing.assert_array_equal(w1, 0.0)
        np.testing.assert_array_equal(w2, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partition_of_unity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(6, 6))
        y = rng.uniform(size=(6, 6))
        w1, w2 = losses.saliency_weights(x, y)
        np.testing.assert_allclose(w1 + w2, 1.0, atol=1e-12)
        assert np.all(w1 >= 0) and np.all(w1 <= 1)


class TestPixelLoss:
    def test_exact_object_target_all_ones_mask(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(8, 8))
        y = rng.uniform(size=(8, 8))
        w1, w2 = losses.saliency_weights(x, y)
        u = np.maximum(w1 * x, w2 * y)
        mask = np.ones((8, 8))
        assert losses.pixel_loss(u, x, y, mask, (w1, w2)).item() == pytest.approx(0.0, abs=1e-12)

    def test_exact_background_target_all_zeros_mask(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(8, 8))
        y = rng.uniform(size=(8, 8))
        w1, w2 = losses.saliency_weights(x, y)
        u = 0.5 * (w1 * x + w2 * y)
        mask = np.zeros((8, 8))
        assert losses.pixel_loss(u, x, y, mask, (w1, w2)).item() == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_hand_case(self):
        x = np.array([[0.8, 0.2], [0.4, 0.6]])
        y = np.array([[0.1, 0.9], [0.5, 0.3]])
        u = np.array([[0.5, 0.5], [0.5, 0.5]])
        w1 = np.array([[0.5, 0.25], [1.0, 0.0]])
        w2 = 1.0 - w1
        mask = np.array([[1.0, 0.0], [0.0, 0.0]])
        # object pixel (0,0): |0.5 - max(0.4, 0.05)| = 0.1
        # background pixels: |0.5 - (w1x + w2y)/2| at (0,1),(1,0),(1,1)
        bg = [
            abs(0.5 - (0.25 * 0.2 + 0.75 * 0.9) / 2),
            abs(0.5 - (1.0 * 0.4 + 0.0 * 0.5) / 2),
            abs(0.5 - (0.0 * 0.6 + 1.0 * 0.3) / 2),
        ]
        want = 0.1 / 4 + sum(bg) / 4
        got = losses.pixel_loss(u, x, y, mask, (w1, w2)).item()
        assert got == pytest.approx(want, abs=1e-12)


class TestGradientLoss:
    def test_identical_triple_is_zero(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(9, 9))
        assert losses.gradient_loss(x, x, x).item() == pytest.approx(0.0, abs=1e-12)

    def test_constants_give_zero(self):
        u = np.full((8, 8), 0.3)
        x = np.full((8, 8), 0.6)
        y = np.full((8, 8), 0.9)
        # high-pass of a constant is zero only where padding does not bite;
        # interior check via the direct oracle below covers the rest
        val = losses.gradient_loss(u, x, y).item()
        oracle = _gradient_loss_oracle(u, x, y)
        assert val == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("size", losses.GRAD_KERNEL_SIZES)
    def test_highpass_is_image_minus_blur(self, size):
        img = np.random.default_rng(size).uniform(size=(64, 48))
        blurred = ad.blur(Var.constant(img), ad.gaussian_kernel(size, (size - 1) / 4.0)).value
        assert np.array_equal(losses.highpass(img, size), img - blurred)

    def test_highpass_rejects_a_one_pixel_kernel(self):
        """A 1x1 kernel has sigma (1 - 1) / 4 = 0: an error, not an all-NaN image."""
        with pytest.raises(ValueError, match="sigma"):
            losses.highpass(np.ones((8, 8)), 1)

    def test_impulse_images_match_direct_convolution_oracle(self):
        u = np.zeros((5, 5))
        u[2, 2] = 1.0
        x = np.zeros((5, 5))
        x[1, 3] = 1.0
        y = np.zeros((5, 5))
        y[3, 1] = 1.0
        assert losses.gradient_loss(u, x, y).item() == pytest.approx(
            _gradient_loss_oracle(u, x, y), abs=1e-12
        )


def _gradient_loss_oracle(u, x, y) -> float:
    """Brute-force: dense blur loops, high-pass, elementwise max, mean square, summed over scales."""
    total = 0.0
    for k in losses.GRAD_KERNEL_SIZES:
        g = ad.gaussian_kernel(k, (k - 1) / 4.0)
        win = np.outer(g, g)
        p = k // 2

        def hp(img):
            h, w = img.shape
            xp = np.zeros((h + 2 * p, w + 2 * p))
            xp[p:p + h, p:p + w] = img
            out = np.zeros_like(img)
            for r in range(h):
                for c in range(w):
                    out[r, c] = img[r, c] - np.sum(win * xp[r:r + k, c:c + k])
            return out

        diff = hp(u) - np.maximum(hp(x), hp(y))
        total += float(np.mean(diff * diff))
    return total


class TestFusionLoss:
    def test_compositional_oracle(self):
        rng = np.random.default_rng(12)
        u, x, y = (rng.uniform(size=(8, 8)) for _ in range(3))
        mask = losses.object_mask(np.array([[0.5, 0.5, 0.4, 0.4]]), 8, 8)
        w = losses.saliency_weights(x, y)
        want = (
            losses.ssim_loss(u, x, y).item()
            + losses.PIXEL_WEIGHT * losses.pixel_loss(u, x, y, mask, w).item()
            + losses.gradient_loss(u, x, y).item()
        )
        assert losses.fusion_loss(u, x, y, mask).item() == want

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            u, x, y = (rng.uniform(size=(8, 8)) for _ in range(3))
            mask = losses.object_mask(np.array([[0.4, 0.4, 0.3, 0.3]]), 8, 8)
            assert losses.fusion_loss(u, x, y, mask).item() >= 0.0


class TestObjectMask:
    def test_binary_union_of_boxes(self):
        mask = losses.object_mask(np.array([[0.25, 0.25, 0.5, 0.5], [0.75, 0.75, 0.5, 0.5]]), 8, 8)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask[1, 1] == 1.0 and mask[6, 6] == 1.0
        assert mask[1, 6] == 0.0 and mask[6, 1] == 0.0

    def test_empty_boxes(self):
        mask = losses.object_mask(np.zeros((0, 4)), 4, 4)
        np.testing.assert_array_equal(mask, np.zeros((4, 4)))


_LOSS_BUILDERS = {
    "ssim_loss": lambda u, x, y, mask, w: losses.ssim_loss(u, x, y),
    "pixel_loss": lambda u, x, y, mask, w: losses.pixel_loss(u, x, y, mask, w),
    "gradient_loss": lambda u, x, y, mask, w: losses.gradient_loss(u, x, y),
    "fusion_loss": lambda u, x, y, mask, w: losses.fusion_loss(u, x, y, mask),
}


@pytest.mark.parametrize("name", sorted(_LOSS_BUILDERS))
def test_loss_gradients_wrt_fused_image(name):
    """Every loss op's u-gradient matches central finite differences on random 8x8 inputs."""
    build = _LOSS_BUILDERS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        x = rng.uniform(0.1, 0.9, size=(8, 8))
        y = rng.uniform(0.1, 0.9, size=(8, 8))
        u0 = rng.uniform(0.1, 0.9, size=(8, 8))
        mask = losses.object_mask(np.array([[0.5, 0.5, 0.5, 0.5]]), 8, 8)
        w = losses.saliency_weights(x, y)

        u = Var.leaf(u0, requires_grad=True)
        (g,) = ad.gradients(build(u, x, y, mask, w), [u])

        def f(arr):
            uv = Var.leaf(arr, requires_grad=False)
            return build(uv, x, y, mask, w).item()

        fd = fd_gradient(f, u0.copy())
        assert rel_err(g, fd) < 1e-5, f"{name}: rel err {rel_err(g, fd)}"

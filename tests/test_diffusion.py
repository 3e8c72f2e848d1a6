"""Schedule algebra, forward-noise moments, DDIM identities, and sampling plumbing."""

import numpy as np
import pytest

from fusedet import diffusion as dif
from fusedet.autodiff import Var
from fusedet.rng import SplitMix64


class TestSchedule:
    @pytest.mark.parametrize("steps", [10, 100, 1000])
    def test_invariants(self, steps):
        s = dif.build_schedule(steps)
        assert s.abar(0) == 1.0
        assert np.all(s.beta > 0) and np.all(s.beta <= dif.BETA_MAX)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] < s.alpha_bar[0]

    @pytest.mark.parametrize("steps", [10, 100, 1000])
    def test_beta_recovered_from_alpha_bar(self, steps):
        s = dif.build_schedule(steps)
        prev = np.concatenate([[1.0], s.alpha_bar[:-1]])
        np.testing.assert_allclose(1.0 - s.alpha_bar / prev, s.beta, atol=1e-12)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            dif.build_schedule(0)


class TestScaling:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(size=(5, 4))
        np.testing.assert_array_equal(dif.unscale_boxes(dif.scale_boxes(z)), z)

    def test_range(self):
        z = np.array([[0.0, 1.0, 0.5, 0.25]])
        np.testing.assert_allclose(dif.scale_boxes(z), [[-2.0, 2.0, 0.0, -1.0]])


class TestForwardNoise:
    def test_boundary_returns_scaled_boxes_exactly(self):
        rng = np.random.default_rng(1)
        z0 = rng.uniform(size=(3, 4))
        eps = rng.normal(size=(3, 4))
        out = dif.forward_noise(z0, 0, eps, dif.build_schedule(10))
        np.testing.assert_array_equal(out, dif.scale_boxes(z0))

    def test_zero_noise_is_deterministic_branch(self):
        s = dif.build_schedule(100)
        z0 = np.array([[0.5, 0.5, 0.2, 0.2]])
        out = dif.forward_noise(z0, 40, np.zeros((1, 4)), s)
        np.testing.assert_allclose(out, np.sqrt(s.abar(40)) * dif.scale_boxes(z0))

    def test_out_of_range_step(self):
        s = dif.build_schedule(10)
        with pytest.raises(ValueError, match="timestep"):
            dif.forward_noise(np.zeros((1, 4)), 11, np.zeros((1, 4)), s)

    def test_monte_carlo_moments(self):
        """Empirical mean within 3 sigma of sqrt(abar)*scaled(z0); variance within 5%."""
        s = dif.build_schedule(1000)
        t = 600
        z0 = np.array([[0.4, 0.6, 0.3, 0.2]])
        n = 100_000
        rng = SplitMix64(42)
        eps = rng.normals((n, 4))
        samples = dif.forward_noise(np.tile(z0, (n, 1)), t, eps, s)
        ab = s.abar(t)
        want_mean = np.sqrt(ab) * dif.scale_boxes(z0)[0]
        tol = 3.0 * np.sqrt((1.0 - ab) / n)
        assert np.all(np.abs(samples.mean(axis=0) - want_mean) < tol)
        var = samples.var(axis=0)
        assert np.all(np.abs(var - (1.0 - ab)) < 0.05 * (1.0 - ab))

    def test_seeded_noise_is_bit_deterministic(self):
        s = dif.build_schedule(100)
        z0 = np.full((4, 4), 0.5)
        runs = []
        for _ in range(2):
            rng = SplitMix64(7)
            runs.append(dif.forward_noise(z0, 50, rng.normals((4, 4)), s))
        assert np.array_equal(runs[0], runs[1])


class TestDetectorLoss:
    def test_exact_prediction_is_zero(self):
        z = np.random.default_rng(2).uniform(size=(4, 4))
        assert dif.detector_loss(z, z).item() == 0.0

    def test_all_ones_residual(self):
        z0 = np.zeros((1, 4))
        pred = np.ones((1, 4))
        assert dif.detector_loss(pred, z0).item() == pytest.approx(0.5)

    def test_matches_hand_computation(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(size=(3, 4))
        z0 = rng.uniform(size=(3, 4))
        want = 0.5 * np.mean((pred - z0) ** 2)
        assert dif.detector_loss(pred, z0).item() == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(Exception, match="shape"):
            dif.detector_loss(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_convex_midpoints(self):
        rng = np.random.default_rng(4)
        z0 = rng.uniform(size=(2, 4))
        for _ in range(20):
            a = rng.normal(size=(2, 4))
            b = rng.normal(size=(2, 4))
            mid = dif.detector_loss((a + b) / 2, z0).item()
            avg = (dif.detector_loss(a, z0).item() + dif.detector_loss(b, z0).item()) / 2
            assert mid <= avg + 1e-12

    def test_differentiable_through_tape(self):
        pred = Var.leaf(np.full((1, 4), 0.7), requires_grad=True)
        from fusedet import autodiff as ad

        (g,) = ad.gradients(dif.detector_loss(pred, np.full((1, 4), 0.2)), [pred])
        np.testing.assert_allclose(g, 0.5 * 2 * 0.5 / 4 * np.ones((1, 4)))


class TestDdim:
    def test_collapse_at_boundary(self):
        s = dif.build_schedule(100)
        rng = np.random.default_rng(5)
        z_t = rng.normal(size=(3, 4))
        pred = rng.normal(size=(3, 4))
        out = dif.ddim_step(z_t, pred, 60, 0, s)
        np.testing.assert_allclose(out, pred, atol=1e-12)

    def test_exact_predictor_tracks_forward_trajectory(self):
        s = dif.build_schedule(200)
        rng = np.random.default_rng(6)
        z0 = rng.uniform(size=(2, 4))
        eps = rng.normal(size=(2, 4))
        z0s = dif.scale_boxes(z0)
        z_t = dif.forward_noise(z0, 150, eps, s)
        out = dif.ddim_step(z_t, z0s, 150, 90, s)
        np.testing.assert_allclose(out, dif.forward_noise(z0, 90, eps, s), atol=1e-12)

    def test_two_half_steps_equal_one_step(self):
        s = dif.build_schedule(100)
        rng = np.random.default_rng(7)
        z_t = rng.normal(size=(3, 4))
        pred = rng.normal(size=(3, 4))
        one = dif.ddim_step(z_t, pred, 80, 20, s)
        two = dif.ddim_step(dif.ddim_step(z_t, pred, 80, 50, s), pred, 50, 20, s)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_full_trajectory_recovery(self):
        """Exact predictor composed stepwise from z_T reproduces z0 within 1e-9."""
        steps = 50
        s = dif.build_schedule(steps)
        rng = np.random.default_rng(8)
        z0 = rng.uniform(0.1, 0.9, size=(4, 4))
        eps = rng.normal(size=(4, 4))
        z0s = dif.scale_boxes(z0)
        z = dif.forward_noise(z0, steps, eps, s)
        for t in range(steps, 0, -1):
            z = dif.ddim_step(z, z0s, t, t - 1, s)
        np.testing.assert_allclose(z, z0s, atol=1e-9)

    def test_order_validation(self):
        s = dif.build_schedule(10)
        with pytest.raises(ValueError, match="t_prev"):
            dif.ddim_step(np.zeros((1, 4)), np.zeros((1, 4)), 3, 3, s)


class TestSample:
    def test_constant_oracle_denoiser_is_fixed_point(self):
        target = np.array([[0.3, 0.7, 0.2, 0.4]] * 4)
        s = dif.build_schedule(1000)
        out = dif.sample(lambda z, t: target, 4, 4, s, SplitMix64(0))
        np.testing.assert_allclose(out, target, atol=1e-12)

    def test_single_step_returns_one_shot_prediction(self):
        target = np.array([[0.5, 0.5, 0.3, 0.3]] * 2)
        s = dif.build_schedule(100)
        out = dif.sample(lambda z, t: target, 2, 1, s, SplitMix64(1))
        np.testing.assert_allclose(out, target, atol=1e-12)

    def test_output_clamped_to_valid_boxes(self):
        wild = np.array([[-3.0, 9.0, -1.0, 4.0]] * 3)
        s = dif.build_schedule(100)
        out = dif.sample(lambda z, t: wild, 3, 2, s, SplitMix64(2))
        assert np.all(out[:, :2] >= 0.0) and np.all(out[:, :2] <= 1.0)
        assert np.all(out[:, 2:] > 0.0) and np.all(out[:, 2:] <= 1.0)

    def test_non_finite_denoiser_error_names_step(self):
        s = dif.build_schedule(100)
        with pytest.raises(FloatingPointError, match="t=100"):
            dif.sample(lambda z, t: np.full((2, 4), np.nan), 2, 4, s, SplitMix64(3))

    def test_time_grid_uniform_and_decreasing(self):
        grid = dif.sample_time_grid(4, 1000)
        assert grid == [1000, 750, 500, 250, 0]
        grid = dif.sample_time_grid(3, 10)
        assert grid[0] == 10 and grid[-1] == 0
        assert all(a > b for a, b in zip(grid, grid[1:]))


class TestPadBoxes:
    def test_pads_by_jittered_repetition(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.2]])
        out = dif.pad_boxes(boxes, 8, SplitMix64(4))
        assert out.shape == (8, 4)
        np.testing.assert_array_equal(out[0], boxes[0])  # original kept exact
        assert np.all(np.abs(out[1:] - boxes[0]) < 0.08)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dif.pad_boxes(np.zeros((0, 4)), 4, SplitMix64(5))

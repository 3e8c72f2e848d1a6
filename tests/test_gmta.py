"""Alignment core: hand SVD oracles, Procrustes optimality, invariances, joint updates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusedet import autodiff as ad
from fusedet import gmta
from fusedet.autodiff import ParamSet


def quadratic_singular_values(g: np.ndarray) -> np.ndarray:
    """Closed-form 2x2 eigenvalue route: sqrt of eigenvalues of G^T G."""
    gram = g.T @ g
    a, b, c = gram[0, 0], gram[0, 1], gram[1, 1]
    disc = np.sqrt(max((a - c) ** 2 / 4 + b * b, 0.0))
    mid = (a + c) / 2
    lam = np.array([mid + disc, max(mid - disc, 0.0)])
    return np.sqrt(lam)


class TestBuildMatrix:
    def test_construction(self):
        g = gmta.build_gradient_matrix([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(g, np.eye(2))

    def test_zero_vectors_allowed(self):
        g = gmta.build_gradient_matrix(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(g, np.zeros((3, 2)))

    def test_column_round_trip(self):
        rng = np.random.default_rng(0)
        gu, gd = rng.normal(size=4), rng.normal(size=4)
        g = gmta.build_gradient_matrix(gu, gd)
        np.testing.assert_array_equal(g[:, 0], gu)
        np.testing.assert_array_equal(g[:, 1], gd)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            gmta.build_gradient_matrix(np.zeros(3), np.zeros(4))


class TestSvd:
    def test_already_diagonal(self):
        g = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        _, s, _ = gmta.svd(g)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-12)

    def test_identical_columns_rank_one(self):
        col = np.array([1.0, 2.0, 2.0])
        g = np.stack([col, col], axis=1)
        u, s, v = gmta.svd(g)
        np.testing.assert_allclose(s[0], np.sqrt(2) * 3.0, atol=1e-12)
        assert s[1] < 1e-12 * s[0]
        # orthonormality must hold even with the completed null column
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)

    def test_random_matches_quadratic_and_numpy_oracles(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = rng.normal(size=(10, 2)) * rng.uniform(0.1, 10)
            u, s, v = gmta.svd(g)
            np.testing.assert_allclose(s, quadratic_singular_values(g), rtol=1e-10)
            np.testing.assert_allclose(s, np.linalg.svd(g, compute_uv=False), rtol=1e-10)
            np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-10)
            recon = u @ np.diag(s) @ v.T
            assert np.linalg.norm(recon - g) < 1e-10 * np.linalg.norm(g)

    def test_wider_than_two_columns(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(12, 4))
        u, s, v = gmta.svd(g)
        np.testing.assert_allclose(s, np.linalg.svd(g, compute_uv=False), rtol=1e-9)
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, g, atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            gmta.svd(np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("rows", [
        [[1, 1e-300], [0, 1e-300]],
        [[1, 1e-200], [0, 1e-200]],
        [[1, 1e-170], [1e-170, 0]],
        [[1, 0], [0, 1e-300]],
        [[1, 0], [0, 1e-160]],
        [[3, 1e-250], [1, -1e-250], [2, 4e-250]],
        [[3, 1e-250, 2e-250], [1, -1e-250, 5e-250], [2, 4e-250, 1e-250]],
        np.random.default_rng(4).normal(size=(6, 3)) * [1.0, 1e-200, 1e-290],
    ])
    def test_columns_far_apart_in_scale(self, rows):
        """Columns whose squared norms underflow beside the largest still rotate, converge and keep their norms."""
        g = np.array(rows, dtype=np.float64)
        u, s, v = gmta.svd(g)
        np.testing.assert_allclose(s, np.linalg.svd(g, compute_uv=False), rtol=1e-12, atol=0)
        np.testing.assert_allclose(u.T @ u, np.eye(g.shape[1]), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(g.shape[1]), atol=1e-12)


class TestConditionNumber:
    def test_orthogonal_equal_norm_is_one(self):
        g = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        assert gmta.condition_number(g) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_case(self):
        g = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert gmta.condition_number(g) == pytest.approx(2.0, abs=1e-12)

    def test_random_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.normal(size=(8, 2))
            s = np.linalg.svd(g, compute_uv=False)
            assert gmta.condition_number(g) == pytest.approx(s[0] / s[1], rel=1e-10)

    def test_zero_matrix_errors(self):
        with pytest.raises(ValueError, match="no gradient signal"):
            gmta.condition_number(np.zeros((4, 2)))

    def test_rank_deficient_is_infinite(self):
        col = np.array([1.0, 1.0, 0.0])
        assert gmta.condition_number(np.stack([col, col], axis=1)) == float("inf")


class TestAlign:
    def test_orthogonal_equal_norm_fixed_point(self):
        g = np.array([[0.0, 3.0], [3.0, 0.0], [0.0, 0.0]])
        g_hat, rep = gmta.align(g)
        np.testing.assert_allclose(g_hat, g, atol=1e-12)
        assert rep.kappa_after == pytest.approx(1.0, abs=1e-12)

    def test_hand_svd_two_by_two(self):
        g_hat, rep = gmta.align(np.array([[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(g_hat, np.eye(2), atol=1e-12)
        assert rep.kappa_before == pytest.approx(2.0)
        assert rep.kappa_after == pytest.approx(1.0, abs=1e-9)
        assert rep.rank == 2
        assert rep.singular_values == pytest.approx([2.0, 1.0])
        assert rep.frobenius_distance == pytest.approx(1.0)

    def test_procrustes_optimality_sampled(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=(20, 2))
        g_hat, rep = gmta.align(g)
        sigma = min(rep.singular_values)
        lhs = np.linalg.norm(g - g_hat)
        for _ in range(1000):
            e = rng.normal(size=(20, 2))
            q1 = e[:, 0] / np.linalg.norm(e[:, 0])
            q2 = e[:, 1] - (q1 @ e[:, 1]) * q1
            q2 /= np.linalg.norm(q2)
            q = np.stack([q1, q2], axis=1)
            assert lhs <= np.linalg.norm(g - sigma * q) + 1e-12

    def test_gram_is_scaled_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.normal(size=(12, 2))
            g_hat, rep = gmta.align(g)
            sigma = min(s for s in rep.singular_values if s > 0)
            np.testing.assert_allclose(g_hat.T @ g_hat, sigma ** 2 * np.eye(2), rtol=1e-9, atol=1e-12)
            assert rep.kappa_after == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), scale=st.floats(0.01, 100.0))
    def test_scale_equivariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(6, 2))
        if np.linalg.svd(g, compute_uv=False)[-1] < 1e-6:
            return
        a1, _ = gmta.align(scale * g)
        a2, _ = gmta.align(g)
        np.testing.assert_allclose(a1, scale * a2, rtol=1e-9, atol=1e-12)

    def test_rotation_equivariance_householder(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            g = rng.normal(size=(9, 2))
            v = rng.normal(size=9)
            v /= np.linalg.norm(v)
            r = np.eye(9) - 2.0 * np.outer(v, v)  # random Householder reflection
            a_rot, _ = gmta.align(r @ g)
            a_plain, _ = gmta.align(g)
            np.testing.assert_allclose(a_rot, r @ a_plain, atol=1e-9)

    def test_rank_one_fallback(self):
        gu = np.array([1.0, 2.0, 2.0])
        g = np.stack([gu, 2.0 * gu], axis=1)  # parallel columns
        g_hat, rep = gmta.align(g)
        assert rep.rank == 1
        # single-direction projection at the surviving scale
        u, s, v = np.linalg.svd(g, full_matrices=False)
        want = s[0] * np.outer(u[:, 0], v[0])
        np.testing.assert_allclose(np.abs(g_hat), np.abs(want), atol=1e-9)

    def test_zero_matrix_errors(self):
        with pytest.raises(ValueError, match="no gradient signal"):
            gmta.align(np.zeros((3, 2)))


class TestCombine:
    def test_projection_weight(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(5, 2))
        np.testing.assert_allclose(gmta.combine(g, [1.0, 0.0]), g[:, 0])

    def test_pythagoras_on_orthogonal_columns(self):
        g = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        out = gmta.combine(g, [1.0, 1.0])
        assert out @ out == pytest.approx(8.0)

    def test_matches_dense_multiply(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(7, 2))
        w = rng.uniform(size=2)
        np.testing.assert_allclose(gmta.combine(g, w), g @ w, atol=1e-15)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(9)
        g = rng.normal(size=(6, 2))
        w1, w2 = rng.uniform(size=2), rng.uniform(size=2)
        np.testing.assert_allclose(
            gmta.combine(g, 2.0 * w1 + 3.0 * w2),
            2.0 * gmta.combine(g, w1) + 3.0 * gmta.combine(g, w2),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="incompatible"):
            gmta.combine(np.zeros((4, 2)), [1.0, 1.0, 1.0])


def _quadratic_setup(shared_target_u, shared_target_d):
    """Tiny ParamSet with per-task quadratic losses over a shared vector."""
    ps = ParamSet(
        {"shared.w": np.array([1.0, 1.0]), "head_u.w": np.array([0.5]), "head_d.w": np.array([0.25])},
        shared=["shared.w"],
    )
    pv = ps.place()
    loss_u = ad.tsum(ad.square(pv["shared.w"] - np.asarray(shared_target_u))) + ad.tsum(
        ad.square(pv["head_u.w"])
    )
    loss_d = ad.tsum(ad.square(pv["shared.w"] - np.asarray(shared_target_d))) * 0.5 + ad.tsum(
        ad.square(pv["head_d.w"])
    )
    return ps, loss_u, loss_d


class TestGmtaStep:
    def test_aligned_step_reports_kappa_one(self):
        ps, lu, ld = _quadratic_setup([0.0, 2.0], [2.0, 1.0])
        rep = gmta.gmta_step(ps, lu, ld, (0.5, 0.5), lr=0.1, step=0, period=1)
        assert rep.aligned and rep.rank == 2
        assert rep.kappa_after == pytest.approx(1.0, abs=1e-9)
        assert rep.column_norms_after[0] == pytest.approx(rep.column_norms_after[1], abs=1e-9)

    def test_private_params_get_own_gradients(self):
        ps, lu, ld = _quadratic_setup([0.0, 2.0], [2.0, 0.0])
        before_u = ps.values["head_u.w"].copy()
        before_d = ps.values["head_d.w"].copy()
        gmta.gmta_step(ps, lu, ld, (1.0, 0.0), lr=0.1, step=0, period=1)
        # w_d = 0: detector head must not move; fusion head moves along -2w
        assert ps.values["head_d.w"] == pytest.approx(before_d)
        assert ps.values["head_u.w"] == pytest.approx(before_u - 0.1 * 2.0 * before_u)

    def test_weight_projection_gives_scaled_unit_column(self):
        ps, lu, ld = _quadratic_setup([0.0, 2.0], [2.0, 1.0])
        before = ps.values["shared.w"].copy()
        rep = gmta.gmta_step(ps, lu, ld, (1.0, 0.0), lr=1.0, step=0, period=1)
        delta = before - ps.values["shared.w"]
        sigma = min(rep.singular_values)
        assert np.linalg.norm(delta) == pytest.approx(sigma, rel=1e-9)

    def test_unaligned_step_uses_plain_weighted_sum(self):
        ps, lu, ld = _quadratic_setup([0.0, 2.0], [2.0, 1.0])
        gu = 2.0 * (ps.values["shared.w"] - np.array([0.0, 2.0]))
        gd = 1.0 * (ps.values["shared.w"] - np.array([2.0, 1.0]))
        before = ps.values["shared.w"].copy()
        rep = gmta.gmta_step(ps, lu, ld, (0.5, 0.5), lr=0.1, step=1, period=1000)
        assert not rep.aligned
        np.testing.assert_allclose(
            ps.values["shared.w"], before - 0.1 * (0.5 * gu + 0.5 * gd), atol=1e-12
        )

    def test_zero_detection_gradient_takes_rank_one_fallback(self):
        ps, lu, _ = _quadratic_setup([0.0, 2.0], [2.0, 0.0])
        # detection loss that never touches the shared vector
        ld = ad.tsum(ad.square(ps.vars["head_d.w"]))
        rep = gmta.gmta_step(ps, lu, ld, (0.5, 0.5), lr=0.1, step=0, period=1)
        assert rep.rank == 1

    def test_cosine_and_shared_step_ratio(self):
        # gu = 2 (w - (0, 2)) = (2, -2), gd = w - (2, 1) = (-1, 0) at w = (1, 1)
        gu, gd = np.array([2.0, -2.0]), np.array([-1.0, 0.0])
        cosine = gu @ gd / (np.linalg.norm(gu) * np.linalg.norm(gd))
        for step, period in ((0, 1), (1, 1000)):
            ps, lu, ld = _quadratic_setup([0.0, 2.0], [2.0, 1.0])
            before = ps.values["shared.w"].copy()
            rep = gmta.gmta_step(ps, lu, ld, (0.3, 0.7), lr=0.1, step=step, period=period)
            assert rep.grad_cosine == pytest.approx(cosine, rel=1e-12)
            taken = np.linalg.norm(before - ps.values["shared.w"]) / 0.1
            assert rep.shared_step_ratio == pytest.approx(taken / np.linalg.norm(0.3 * gu + 0.7 * gd), rel=1e-9)
            if rep.aligned:
                # equal-norm orthogonal columns at sigma_min: |G_hat w| = sigma_min |w|
                assert rep.shared_step_ratio * np.linalg.norm(0.3 * gu + 0.7 * gd) == pytest.approx(
                    min(rep.singular_values) * np.hypot(0.3, 0.7), rel=1e-9
                )
            else:
                assert rep.shared_step_ratio == 1.0

    def test_no_shared_gradient_gives_zero_cosine_and_ratio(self):
        ps, _, _ = _quadratic_setup([0.0, 2.0], [2.0, 0.0])
        lu = ad.tsum(ad.square(ps.vars["head_u.w"]))
        ld = ad.tsum(ad.square(ps.vars["head_d.w"]))
        rep = gmta.gmta_step(ps, lu, ld, (0.5, 0.5), lr=0.1, step=0, period=1)
        assert (rep.rank, rep.grad_cosine, rep.shared_step_ratio) == (0, 0.0, 0.0)

    def test_rank_one_step_keeps_its_length(self):
        ps, lu, _ = _quadratic_setup([0.0, 2.0], [2.0, 0.0])
        ld = ad.tsum(ad.square(ps.vars["head_d.w"]))
        rep = gmta.gmta_step(ps, lu, ld, (0.5, 0.5), lr=0.1, step=0, period=1)
        assert rep.rank == 1 and rep.grad_cosine == 0.0
        assert rep.shared_step_ratio == pytest.approx(1.0, rel=1e-12)

    def test_alignment_report_serializes(self):
        _, rep = gmta.align(np.array([[2.0, 0.0], [0.0, 1.0]]))
        d = rep.to_json()
        assert set(d) == {"singular_values", "kappa_before", "kappa_after", "rank", "frobenius_distance"}

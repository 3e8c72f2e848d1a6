"""Entropy/MI/VIF identities and the hand-traced mAP cases."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusedet import metrics as met
from fusedet import synthdata as sd
from fusedet.autodiff import correlate, gaussian_kernel
from tests.test_autodiff import correlate_dense


def _uniform_256() -> np.ndarray:
    """16x16 image hitting each of the 256 levels exactly once."""
    return (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)


class TestEntropy:
    def test_constant_image_is_zero(self):
        assert met.entropy_en(np.full((8, 8), 0.37)) == 0.0

    def test_exact_uniform_is_eight_bits(self):
        assert met.entropy_en(_uniform_256()) == pytest.approx(8.0, abs=1e-9)

    def test_two_equal_levels_is_one_bit(self):
        img = np.zeros((4, 4))
        img[:, 2:] = 1.0
        assert met.entropy_en(img) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(8, 8))
        perm = rng.permutation(64)
        assert met.entropy_en(img) == pytest.approx(
            met.entropy_en(img.reshape(-1)[perm].reshape(8, 8)), abs=1e-12
        )

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            met.entropy_en(np.zeros((0, 4)))


class TestMutualInformation:
    def test_identity_channel_gives_twice_entropy(self):
        img = _uniform_256()
        assert met.mutual_information(img, img, img) == pytest.approx(
            2.0 * met.entropy_en(img), abs=1e-9
        )

    def test_symmetry_of_pair_term(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(size=(16, 16))
        b = rng.uniform(size=(16, 16))
        assert met._mi_pair(a, b) == pytest.approx(met._mi_pair(b, a), abs=1e-12)

    def test_independent_noise_is_near_zero(self):
        # 16-level quantized noise keeps the plug-in estimator bias far below 0.05 bits
        rng = np.random.default_rng(2)
        size = (256, 256)
        u = np.floor(rng.uniform(size=size) * 16) / 16.0
        x = np.floor(rng.uniform(size=size) * 16) / 16.0
        y = np.floor(rng.uniform(size=size) * 16) / 16.0
        assert met.mutual_information(u, x, y) < 0.05

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(size=(12, 12))
            u = np.clip(x + rng.normal(size=(12, 12)) * 0.1, 0, 1)
            mi = met._mi_pair(x, u)
            assert mi <= min(met.entropy_en(x), met.entropy_en(u)) + 1e-9
            assert mi >= -1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            met.mutual_information(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((5, 5)))

    @pytest.mark.parametrize("case", ["random", "constant", "extremes"])
    def test_bincount_histogram_bytes_of_add_at(self, case):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(size=(128, 192)), rng.uniform(size=(128, 192))
        if case == "constant":
            a = np.full((128, 192), 0.37)
        elif case == "extremes":
            a = np.where(a < 0.5, -0.2, 1.3)  # clipped to levels 0 and 255
            b[0, :2] = 0.0, 1.0
        assert met._mi_pair(a, b) == _mi_pair_add_at(a, b)
        assert met._mi_pair(b, a) == _mi_pair_add_at(b, a)


def _mi_pair_add_at(a: np.ndarray, b: np.ndarray) -> float:
    """MI of one pair with the joint histogram filled by np.add.at, one count at a time."""
    qa = met._quantize(a).reshape(-1)
    qb = met._quantize(b).reshape(-1)
    joint = np.zeros((256, 256))
    np.add.at(joint, (qa, qb), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (pa[:, None] * pb[None, :])[nz]
    return float(np.sum(joint[nz] * np.log2(ratio)))


def _vif_single_dense(ref: np.ndarray, dist: np.ndarray) -> float:
    """VIF as computed before the separable filter: one dense filter per image and statistic."""
    ref, dist = ref * 255.0, dist * 255.0
    num = den = 0.0
    for scale in range(1, met.VIF_SCALES + 1):
        size = 2 ** (met.VIF_SCALES - scale + 1) + 1
        win1 = gaussian_kernel(size, size / 5.0)
        win = np.outer(win1, win1)
        if scale > 1:
            ref = correlate_dense(ref, win, False)[::2, ::2]
            dist = correlate_dense(dist, win, False)[::2, ::2]
        mu1, mu2 = correlate_dense(ref, win, False), correlate_dense(dist, win, False)
        var1 = np.maximum(correlate_dense(ref * ref, win, False) - mu1 * mu1, 0.0)
        var2 = np.maximum(correlate_dense(dist * dist, win, False) - mu2 * mu2, 0.0)
        cov = correlate_dense(ref * dist, win, False) - mu1 * mu2
        live = var1 > 1e-10
        g = np.zeros_like(cov)
        g[live] = cov[live] / var1[live]
        var1 = np.where(live, var1, 0.0)
        sv = var2 - g * cov
        neg = g < 0
        sv[neg], g[neg] = var2[neg], 0.0
        dead2 = var2 <= 1e-10
        g[dead2], sv[dead2] = 0.0, 0.0
        sv = np.maximum(sv, 0.0)
        num += float(np.sum(np.log2(1.0 + g * g * var1 / (sv + met.VIF_SIGMA_NSQ))))
        den += float(np.sum(np.log2(1.0 + var1 / met.VIF_SIGMA_NSQ)))
    return num / den


# odd and even sides, so that the decimation's parity and the transposed
# orientation differ by axis
_VIF_SHAPES = [(64, 64), (72, 72), (128, 192), (65, 63), (100, 76), (131, 97)]


class TestVifFilter:
    @pytest.mark.parametrize("h, w", [(17, 17), (64, 64), (65, 63), (100, 76), (131, 97)])
    @pytest.mark.parametrize("step", [1, 2])
    def test_each_image_of_a_stack_gets_its_own_bytes(self, h, w, step):
        stack = np.random.default_rng(h * w).uniform(0.0, 255.0, size=(8, h, w))
        for win in met._VIF_WINDOWS:
            got = correlate(stack, win, False, step)
            for i in range(stack.shape[0]):
                assert np.array_equal(got[i], correlate(stack[i], win, False, step))

    @pytest.mark.parametrize("h, w", [(17, 17), (18, 18), (64, 64), (65, 63), (100, 76), (131, 97)])
    def test_decimation_keeps_every_other_output(self, h, w):
        stack = np.random.default_rng(h + w).uniform(0.0, 255.0, size=(3, h, w))
        for win in met._VIF_WINDOWS:
            full = correlate(stack, win, False)
            assert full.shape == (3, w - win.size + 1, h - win.size + 1)
            sliced = full[:, ::2, ::2]
            got = correlate(stack, win, False, 2)
            assert got.shape == sliced.shape
            np.testing.assert_allclose(got, sliced, rtol=0, atol=1e-14 * np.abs(full).max())

    def test_matches_the_dense_window_transposed(self):
        img = np.random.default_rng(3).uniform(0.0, 255.0, size=(40, 29))
        for win in met._VIF_WINDOWS:
            want = correlate_dense(img, np.outer(win, win), False).T
            np.testing.assert_allclose(correlate(img, win, False), want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestVif:
    def test_identity_is_exactly_two(self):
        rng = np.random.default_rng(4)
        for shape in _VIF_SHAPES:
            x = rng.uniform(size=shape)
            assert met.vif_fusion(x, x, x) == 2.0

    @pytest.mark.parametrize("h, w", _VIF_SHAPES)
    def test_separable_filter_matches_dense_window_loop(self, h, w):
        scene = sd.generate_scene(sd.SceneSpec(seed=11, width=w, height=h))
        rng = np.random.default_rng(h)
        u = np.clip(0.6 * scene.visible + 0.4 * scene.infrared + rng.normal(0.0, 0.02, (h, w)), 0.0, 1.0)
        got = met.vif_fusion(u, scene.visible, scene.infrared)
        want = _vif_single_dense(scene.visible, u) + _vif_single_dense(scene.infrared, u)
        assert 0.1 < want
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_independent_noise_has_negligible_fidelity(self):
        rng = np.random.default_rng(5)
        # natural-ish texture: smoothed noise
        base = rng.uniform(size=(72, 72))
        texture = base
        for _ in range(2):
            texture = (texture + np.roll(texture, 1, 0) + np.roll(texture, 1, 1)) / 3.0
        x = (texture - texture.min()) / (texture.max() - texture.min())
        u = rng.uniform(size=(72, 72))
        assert met._vif_single(x, u) < 0.05

    def test_contrast_amplification_exceeds_one(self):
        rng = np.random.default_rng(6)
        base = rng.uniform(size=(64, 64))
        smooth = base
        for _ in range(2):
            smooth = (smooth + np.roll(smooth, 1, 0) + np.roll(smooth, 1, 1)) / 3.0
        x = 0.2 + 0.5 * (smooth - smooth.min()) / (smooth.max() - smooth.min())
        u = np.clip(1.2 * x, 0.0, 1.0)
        assert met._vif_single(x, u) > 1.0

    @pytest.mark.parametrize("constant_ref", [False, True])
    def test_both_sources_in_one_pass_equal_two_single_passes(self, constant_ref):
        scene = sd.generate_scene(sd.SceneSpec(seed=12, width=192, height=128))
        x = np.full((128, 192), 0.4) if constant_ref else scene.visible
        u = np.clip(0.6 * scene.visible + 0.4 * scene.infrared, 0.0, 1.0)
        assert met.vif_fusion(u, x, scene.infrared) == met._vif_single(x, u) + met._vif_single(scene.infrared, u)

    def test_flat_fused_image_scores_exactly_zero(self):
        """Where the fused image has no variance, no reference information survives."""
        scene = sd.generate_scene(sd.SceneSpec(seed=13, width=100, height=76))
        assert met.vif_fusion(np.full((76, 100), 0.3), scene.visible, scene.infrared) == 0.0

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            met.vif_fusion(np.zeros((12, 12)), np.zeros((12, 12)), np.zeros((12, 12)))

    @pytest.mark.parametrize("shape, message", [
        ((16, 40), "scale 1: (16, 40) vs 17x17"),
        ((40, 24), "scale 2: (16, 8) vs 9x9"),
        ((24, 40), "scale 2: (8, 16) vs 9x9"),
        ((28, 60), "scale 3: (3, 11) vs 5x5"),
        ((60, 28), "scale 3: (11, 3) vs 5x5"),
        ((60, 36), "scale 4: (5, 2) vs 3x3"),
        ((36, 60), "scale 4: (2, 5) vs 3x3"),
    ])
    def test_too_small_names_height_by_width_of_the_input_at_every_scale(self, shape, message):
        """Each scale's stack is stored transposed from the last; the message is not."""
        x = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(f"image too small for VIF {message} window")):
            met.vif_fusion(x, x, x)


class TestIou:
    def test_identical_boxes(self):
        assert met.iou([0.5, 0.5, 0.2, 0.2], [0.5, 0.5, 0.2, 0.2]) == 1.0

    def test_disjoint_boxes(self):
        assert met.iou([0.2, 0.2, 0.1, 0.1], [0.8, 0.8, 0.1, 0.1]) == 0.0

    def test_half_overlapping_unit_squares(self):
        # unit squares offset by half a side: intersection 0.5, union 1.5
        a = [0.0, 0.0, 1.0, 1.0]
        b = [0.5, 0.0, 1.0, 1.0]
        assert met.iou(a, b) == pytest.approx(1.0 / 3.0)


class TestMapEval:
    def test_perfect_detector(self):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2], [0.2, 0.2, 0.1, 0.1]])]
        preds = [(gt[0].copy(), np.array([1.0, 1.0]))]
        ev = met.map_eval(preds, gt)
        assert ev.map5095 == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in ev.ap_per_threshold.values())

    def test_zero_predictions(self):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]])]
        ev = met.map_eval([(np.zeros((0, 4)), np.zeros(0))], gt)
        assert ev.map5095 == 0.0

    def test_hand_traced_two_prediction_case(self):
        """One GT; a 0.6-IoU hit at score 0.9 and a 0.3-IoU miss at score 0.8."""
        gt_box = np.array([0.5, 0.5, 0.4, 0.4])
        # same-size box shifted to land at the target IoU
        def shifted(target_iou):
            lo, hi = 0.0, gt_box[2]
            for _ in range(60):
                mid = (lo + hi) / 2
                b = gt_box + np.array([mid, 0, 0, 0])
                if met.iou(gt_box, b) > target_iou:
                    lo = mid
                else:
                    hi = mid
            return gt_box + np.array([(lo + hi) / 2, 0, 0, 0])

        p1 = shifted(0.6)
        p2 = shifted(0.3)
        assert met.iou(gt_box, p1) == pytest.approx(0.6, abs=1e-6)
        assert met.iou(gt_box, p2) == pytest.approx(0.3, abs=1e-6)
        ev = met.map_eval(
            [(np.stack([p1, p2]), np.array([0.9, 0.8]))], [gt_box.reshape(1, 4)]
        )
        assert ev.ap_per_threshold[0.50] == pytest.approx(1.0)
        assert ev.ap_per_threshold[0.75] == pytest.approx(0.0)

    def test_thresholds_are_the_ten_coco_points(self):
        assert met.IOU_THRESHOLDS == tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
        assert len(met.IOU_THRESHOLDS) == 10

    def test_map5095_is_mean_of_threshold_aps(self):
        rng = np.random.default_rng(7)
        gt = [rng.uniform(0.3, 0.7, size=(2, 4)) * [1, 1, 0.3, 0.3] + [0, 0, 0.1, 0.1]]
        preds = [(gt[0] + rng.normal(size=(2, 4)) * 0.02, np.array([0.9, 0.8]))]
        ev = met.map_eval(preds, gt)
        assert ev.map5095 == pytest.approx(np.mean(list(ev.ap_per_threshold.values())))

    def test_adding_correct_prediction_never_decreases_ap(self):
        rng = np.random.default_rng(8)
        gt = [np.array([[0.5, 0.5, 0.2, 0.2], [0.25, 0.25, 0.15, 0.15]])]
        base_pred = (gt[0][:1].copy(), np.array([0.9]))
        more_pred = (gt[0].copy(), np.array([0.9, 0.85]))
        ev1 = met.map_eval([base_pred], gt)
        ev2 = met.map_eval([more_pred], gt)
        for thr in met.IOU_THRESHOLDS:
            assert ev2.ap_per_threshold[float(thr)] >= ev1.ap_per_threshold[float(thr)] - 1e-12

    def test_adding_lowest_score_miss_never_increases_ap(self):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]])]
        hit = (gt[0].copy(), np.array([0.9]))
        with_miss = (
            np.vstack([gt[0], [[0.05, 0.05, 0.05, 0.05]]]),
            np.array([0.9, 0.01]),
        )
        ev1 = met.map_eval([hit], gt)
        ev2 = met.map_eval([with_miss], gt)
        for thr in met.IOU_THRESHOLDS:
            assert ev2.ap_per_threshold[float(thr)] <= ev1.ap_per_threshold[float(thr)] + 1e-12

    def test_degenerate_boxes_rejected(self):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]])]
        with pytest.raises(ValueError, match="degenerate"):
            met.map_eval([(np.array([[0.5, 0.5, 0.0, 0.2]]), np.array([0.5]))], gt)

    def test_scores_outside_unit_interval_rejected(self):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]])]
        with pytest.raises(ValueError, match="scores"):
            met.map_eval([(gt[0].copy(), np.array([1.5]))], gt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        """A NaN score on a perfect box would otherwise give mAP50 1.0."""
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]])]
        with pytest.raises(ValueError, match=r"predictions\[0\]: scores must be finite"):
            met.map_eval([(gt[0].copy(), np.array([bad]))], gt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [0, 3])
    def test_non_finite_box_coordinate_rejected(self, bad, col):
        gt = [np.array([[0.5, 0.5, 0.2, 0.2]]), np.array([[0.3, 0.3, 0.1, 0.1]])]
        boxes = gt[1].copy()
        boxes[0, col] = bad
        with pytest.raises(ValueError, match=r"predictions\[1\]: non-finite box"):
            met.map_eval([(gt[0].copy(), np.array([0.9])), (boxes, np.array([0.9]))], gt)
        bad_gt = [gt[0], boxes]
        with pytest.raises(ValueError, match=r"ground_truth\[1\]: non-finite box"):
            met.map_eval([(gt[0].copy(), np.array([0.9])), (gt[1].copy(), np.array([0.9]))], bad_gt)

    def test_score_split_names_the_scene_with_bad_predictions(self):
        gt = np.array([[0.5, 0.5, 0.2, 0.2]])
        detections = [((gt.copy(), np.array([0.9])), gt), ((gt.copy(), np.array([np.nan])), gt)]
        with pytest.raises(ValueError, match="scene b-0001: predictions.*finite"):
            met.score_split(["a-0000", "b-0001"], None, detections)

    @pytest.mark.parametrize("fused_shape, source_shape, message", [
        ((24, 24), (24, 24), r"image too small for VIF scale 2: \(8, 8\)"),
        ((64, 48), (64, 64), "shapes differ"),
    ])
    def test_score_split_names_the_scene_with_a_bad_fused_image(self, fused_shape, source_shape, message):
        rng = np.random.default_rng(2)
        good = tuple(rng.uniform(size=(3, 64, 64)))
        bad = (rng.uniform(size=fused_shape), *rng.uniform(size=(2, *source_shape)))
        with pytest.raises(ValueError, match=f"scene b-0001: .*{message}"):
            met.score_split(["a-0000", "b-0001"], [good, bad], None)

    def test_score_split_reports_the_fused_images_spread(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(size=(2, 64, 64))
        u = 0.5 * (x + y)
        report = met.score_split(["a", "b"], [(u, x, y), (np.full((64, 64), 0.5), x, y)], None)
        assert report["scenes"][0]["fused_std"] == float(np.std(u))
        assert report["scenes"][1]["fused_std"] == 0.0
        assert set(report["aggregate"]) == {"en", "mi", "vif"}


def _iou_scalar(a, b) -> float:
    """map_eval's former scalar IoU, one box pair at a time; the reference here."""
    ax0, ay0, ax1, ay1 = a[0] - a[2] / 2.0, a[1] - a[3] / 2.0, a[0] + a[2] / 2.0, a[1] + a[3] / 2.0
    bx0, by0, bx1, by1 = b[0] - b[2] / 2.0, b[1] - b[3] / 2.0, b[0] + b[2] / 2.0, b[1] + b[3] / 2.0
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union > 0 else 0.0


def _greedy_aps_scalar(predictions, ground_truth) -> dict[float, float]:
    """Greedy score-descending matching that calls the scalar IoU per pair."""
    flat = sorted(
        ((float(s), i, k) for i, (_, scores) in enumerate(predictions) for k, s in enumerate(scores)),
        key=lambda rec: (-rec[0], rec[1], rec[2]),
    )
    n_gt = sum(len(g) for g in ground_truth)
    aps = {}
    for thr in met.IOU_THRESHOLDS:
        matched = [[False] * len(g) for g in ground_truth]
        tp_flags = np.zeros(len(flat), dtype=bool)
        for rank, (_, i, k) in enumerate(flat):
            best_iou, best_j = 0.0, -1
            for j, g in enumerate(ground_truth[i]):
                v = _iou_scalar(predictions[i][0][k], g)
                if not matched[i][j] and v >= thr and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                matched[i][best_j] = True
                tp_flags[rank] = True
        aps[float(thr)] = met.average_precision_101(tp_flags, n_gt)
    return aps


def _on_threshold_pair(cx: float, cy: float, k: int) -> tuple[list[float], list[float]]:
    """A ground-truth box and a same-size box shifted so their IoU is exactly k/20.

    Widths (20 + k)/256 and shifts (20 - k)/256 keep every step exact, so the
    IoU rounds to the same double as the threshold k/20.
    """
    w, d, h = (20 + k) / 256.0, (20 - k) / 256.0, 0.125
    return [cx, cy, w, h], [cx + d, cy, w, h]


_SIXTY_FOURTHS = st.integers(8, 56).map(lambda i: i / 64.0)


@st.composite
def _detection_corpus(draw):
    predictions, ground_truth = [], []
    for _ in range(draw(st.integers(1, 3))):
        gts, boxes = [], []
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(10, 19))
            gt, pred = _on_threshold_pair(draw(_SIXTY_FOURTHS), draw(_SIXTY_FOURTHS), k)
            gts.append(gt)
            boxes += [pred] * draw(st.integers(0, 2))  # 2: a duplicate
        for _ in range(draw(st.integers(0, 4))):  # loose boxes, dyadic or not
            side = st.one_of(_SIXTY_FOURTHS.map(lambda v: v / 2.0), st.floats(0.01, 0.5))
            boxes.append([draw(_SIXTY_FOURTHS), draw(_SIXTY_FOURTHS), draw(side), draw(side)])
        scores = [draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])) for _ in boxes]  # ties
        predictions.append((np.array(boxes).reshape(-1, 4), np.array(scores)))
        ground_truth.append(np.array(gts).reshape(-1, 4))
    return predictions, ground_truth


class TestMapEvalMatchesScalarReference:
    @pytest.mark.parametrize("k", range(10, 20))
    def test_on_threshold_pairs_hit_the_threshold_exactly(self, k):
        gt, pred = _on_threshold_pair(0.5, 0.5, k)
        assert _iou_scalar(pred, gt) == met.IOU_THRESHOLDS[k - 10]
        assert met.iou(pred, gt) == met.IOU_THRESHOLDS[k - 10]

    @settings(max_examples=200, deadline=None)
    @given(_detection_corpus())
    @example(([(np.array([[0.53125, 0.5, 0.125, 0.125]] * 2), np.array([0.5, 0.5]))],
              [np.array([[0.5, 0.5, 0.125, 0.125]] * 2)]))  # IoU 0.6 exactly, tied scores
    @example(([(np.array([[0.53125, 0.5, 0.125, 0.125], [0.5625, 0.5, 0.125, 0.125]]), np.array([0.75, 0.5]))],
              [np.array([[0.5, 0.5, 0.125, 0.125], [0.5625, 0.5, 0.125, 0.125]])]))  # IoU ties across boxes
    def test_equals_greedy_scalar_matching(self, corpus):
        predictions, ground_truth = corpus
        for (boxes, _), gts in zip(predictions, ground_truth):
            matrix = met.iou_matrix(boxes, gts)
            for i, box in enumerate(boxes):
                for j, gt in enumerate(gts):
                    assert matrix[i, j] == _iou_scalar(box, gt)
        ev = met.map_eval(predictions, ground_truth)
        want = _greedy_aps_scalar(predictions, ground_truth)
        assert ev.ap_per_threshold == want
        assert ev.map50 == want[0.5]
        assert ev.map5095 == float(np.mean(list(want.values())))


class TestReports:
    def test_write_reports_layout(self, tmp_path):
        per_scene = [{"scene-id": "s0", "en": 5.0, "mi": 2.0, "vif": 1.0, "fused_std": 0.125, "map50": 0.5, "map5095": 0.25}]
        aggregate = {"en": 5.0, "mi": 2.0, "vif": 1.0, "map50": 0.5, "map5095": 0.25}
        jp, cp = met.write_reports(tmp_path, per_scene, aggregate)
        assert jp.exists() and cp.exists()
        lines = cp.read_text().strip().splitlines()
        assert lines[0] == "scene-id,en,mi,vif,fused_std,map50,map5095"
        assert lines[1] == "s0,5.0,2.0,1.0,0.125,0.5,0.25"
        assert lines[-1].startswith("aggregate,")

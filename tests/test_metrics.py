"""Entropy/MI/VIF identities and the hand-traced mAP cases."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusedet import metrics as met
from fusedet import synthdata as sd
from fusedet.autodiff import gaussian_kernel


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


def _filter_valid_dense(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """VIF's former filter, a dense loop over the window's taps."""
    kh, kw = kernel.shape
    out = np.zeros((img.shape[0] - kh + 1, img.shape[1] - kw + 1))
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * img[i:i + out.shape[0], j:j + out.shape[1]]
    return out


def _vif_single_dense(ref: np.ndarray, dist: np.ndarray) -> float:
    """VIF as computed before the separable filter: one dense filter per image and statistic."""
    ref, dist = ref * 255.0, dist * 255.0
    num = den = 0.0
    for scale in range(1, met.VIF_SCALES + 1):
        size = 2 ** (met.VIF_SCALES - scale + 1) + 1
        win = gaussian_kernel(size, size / 5.0)
        if scale > 1:
            ref = _filter_valid_dense(ref, win)[::2, ::2]
            dist = _filter_valid_dense(dist, win)[::2, ::2]
        mu1, mu2 = _filter_valid_dense(ref, win), _filter_valid_dense(dist, win)
        var1 = np.maximum(_filter_valid_dense(ref * ref, win) - mu1 * mu1, 0.0)
        var2 = np.maximum(_filter_valid_dense(dist * dist, win) - mu2 * mu2, 0.0)
        cov = _filter_valid_dense(ref * dist, win) - mu1 * mu2
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


class TestVif:
    def test_identity_is_exactly_two(self):
        rng = np.random.default_rng(4)
        for shape in [(64, 64), (72, 72), (128, 192)]:
            x = rng.uniform(size=shape)
            assert met.vif_fusion(x, x, x) == 2.0

    @pytest.mark.parametrize("h, w", [(64, 64), (72, 72), (128, 192)])
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

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            met.vif_fusion(np.zeros((12, 12)), np.zeros((12, 12)), np.zeros((12, 12)))


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
        per_scene = [{"scene-id": "s0", "en": 5.0, "mi": 2.0, "vif": 1.0, "map50": 0.5, "map5095": 0.25}]
        aggregate = {"en": 5.0, "mi": 2.0, "vif": 1.0, "map50": 0.5, "map5095": 0.25}
        jp, cp = met.write_reports(tmp_path, per_scene, aggregate)
        assert jp.exists() and cp.exists()
        lines = cp.read_text().strip().splitlines()
        assert lines[0] == "scene-id,en,mi,vif,map50,map5095"
        assert lines[-1].startswith("aggregate,")

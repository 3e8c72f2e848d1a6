"""Fusion quality metrics (entropy, mutual information, visual information fidelity)
and single-class detection mAP over IoU thresholds 0.50:0.05:0.95.

All image metrics quantize to 256 levels; MI is the textbook joint-histogram
definition in bits.  VIF is the pixel-domain multi-scale formulation with
four scales and a fixed sensor-noise variance; each scale filters the stack
(ref, dist, ref², dist², ref·dist) with a separable Gaussian window, in two
1-D passes of `autodiff.correlate`.  mAP matching compares entries of one
IoU matrix per scene (`iou_matrix`, the only IoU formula).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import correlate, gaussian_kernel

VIF_SIGMA_NSQ = 2.0  # sensor-noise variance, 8-bit intensity units
VIF_SCALES = 4
_VIF_VAR_EPS = 1e-10
# 1-D Gaussian factors, 17 to 3 taps: the 2-D window's marginal, closer to exact than its SVD factors
_VIF_WINDOWS = [gaussian_kernel(n, n / 5.0).sum(axis=0) for n in (2 ** k + 1 for k in range(VIF_SCALES, 0, -1))]

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class FusionMetricsReport:
    en: float
    mi: float
    vif: float

    def to_json(self) -> dict:
        return {"en": float(self.en), "mi": float(self.mi), "vif": float(self.vif)}


@dataclass
class DetectionEval:
    ap_per_threshold: dict[float, float]
    map50: float
    map5095: float

    def to_json(self) -> dict:
        return {
            "ap_per_threshold": {f"{k:.2f}": float(v) for k, v in self.ap_per_threshold.items()},
            "map50": float(self.map50),
            "map5095": float(self.map5095),
        }


def _quantize(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.size == 0:
        raise ValueError("empty image")
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.intp)


def entropy_en(img: np.ndarray) -> float:
    """Shannon entropy of the 256-level histogram, in bits."""
    q = _quantize(img)
    p = np.bincount(q.reshape(-1), minlength=256).astype(np.float64)
    p /= p.sum()
    nz = p[p > 0]
    return float(-(nz @ np.log2(nz)))


def _mi_pair(a: np.ndarray, b: np.ndarray) -> float:
    qa = _quantize(a).reshape(-1)
    qb = _quantize(b).reshape(-1)
    joint = np.zeros((256, 256))
    np.add.at(joint, (qa, qb), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (pa[:, None] * pb[None, :])[nz]
    return float(np.sum(joint[nz] * np.log2(ratio)))


def mutual_information(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """MI(x;u) + MI(y;u) in bits via 256x256 joint histograms."""
    u, x, y = (np.asarray(v, dtype=np.float64) for v in (u, x, y))
    if not (u.shape == x.shape == y.shape):
        raise ValueError(f"mutual_information: shapes differ: {u.shape}, {x.shape}, {y.shape}")
    return _mi_pair(x, u) + _mi_pair(y, u)


def _vif_single(ref: np.ndarray, dist: np.ndarray) -> float:
    """Pixel-domain VIF of one reference/distorted pair on 0-255 intensities."""
    ref = np.asarray(ref, dtype=np.float64) * 255.0
    dist = np.asarray(dist, dtype=np.float64) * 255.0
    num = den = 0.0
    for scale, win in enumerate(_VIF_WINDOWS, start=1):
        size = win.size
        if scale > 1:
            ref, dist = correlate(np.stack([ref, dist]), (win, win), "valid")[:, ::2, ::2]
        if ref.shape[0] < size or ref.shape[1] < size:
            raise ValueError(
                f"image too small for VIF scale {scale}: {ref.shape} vs {size}x{size} window"
            )
        mu1, mu2, s11, s22, s12 = correlate(
            np.stack([ref, dist, ref * ref, dist * dist, ref * dist]), (win, win), "valid"
        )
        var1 = np.maximum(s11 - mu1 * mu1, 0.0)
        var2 = np.maximum(s22 - mu2 * mu2, 0.0)
        cov = s12 - mu1 * mu2
        live = var1 > _VIF_VAR_EPS
        g = np.zeros_like(cov)
        g[live] = cov[live] / var1[live]
        var1 = np.where(live, var1, 0.0)
        sv = var2 - g * cov
        neg = g < 0
        sv[neg] = var2[neg]
        g[neg] = 0.0
        dead2 = var2 <= _VIF_VAR_EPS
        g[dead2] = 0.0
        sv[dead2] = 0.0
        sv = np.maximum(sv, 0.0)
        num += float(np.sum(np.log2(1.0 + g * g * var1 / (sv + VIF_SIGMA_NSQ))))
        den += float(np.sum(np.log2(1.0 + var1 / VIF_SIGMA_NSQ)))
    if den == 0.0:
        return 1.0  # featureless reference carries no information either way
    return num / den


def vif_fusion(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """VIF(x -> u) + VIF(y -> u); identical images give exactly 1.0 per source."""
    u, x, y = (np.asarray(v, dtype=np.float64) for v in (u, x, y))
    if not (u.shape == x.shape == y.shape):
        raise ValueError(f"vif_fusion: shapes differ: {u.shape}, {x.shape}, {y.shape}")
    return _vif_single(x, u) + _vif_single(y, u)


def fusion_metrics(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> FusionMetricsReport:
    return FusionMetricsReport(
        en=entropy_en(u), mi=mutual_information(u, x, y), vif=vif_fusion(u, x, y)
    )


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, ...]:
    cx, cy, w, h = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).T
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) arrays of (cx, cy, w, h) boxes, as (n, m)."""
    ax0, ay0, ax1, ay1 = (v[:, None] for v in _corners(a))
    bx0, by0, bx1, by1 = (v[None, :] for v in _corners(b))
    iw = np.maximum(0.0, np.minimum(ax1, bx1) - np.maximum(ax0, bx0))
    ih = np.maximum(0.0, np.minimum(ay1, by1) - np.maximum(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def iou(a, b) -> float:
    """Intersection over union of two (cx, cy, w, h) boxes."""
    return float(iou_matrix(a, b)[0, 0])


def _validate_boxes(name: str, boxes: np.ndarray) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if not np.all(np.isfinite(boxes)):
        raise ValueError(f"{name}: non-finite box coordinate")
    if boxes.size and np.any(boxes[:, 2:4] <= 0):
        raise ValueError(f"{name}: degenerate box with nonpositive width or height")
    return boxes


def average_precision_101(tp_flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from score-ordered true-positive flags."""
    if n_gt == 0 or tp_flags.size == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    # precision envelope: best precision achievable at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_POINTS, side="left")
    interp = np.where(idx < env.size, env[np.minimum(idx, env.size - 1)], 0.0)
    return float(np.mean(interp))


def map_eval(
    predictions: list[tuple[np.ndarray, np.ndarray]],
    ground_truth: list[np.ndarray],
) -> DetectionEval:
    """COCO-style single-class mAP: greedy score-descending matching per IoU threshold.

    `predictions[i]` is (boxes, scores) for scene i; `ground_truth[i]` its boxes.
    """
    if len(predictions) != len(ground_truth):
        raise ValueError("predictions and ground truth must cover the same scenes")
    flat = []  # (score, scene, pred_index)
    pred_boxes = []
    for scene, (boxes, scores) in enumerate(predictions):
        boxes = _validate_boxes(f"predictions[{scene}]", boxes)
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        if scores.size != boxes.shape[0]:
            raise ValueError(f"predictions[{scene}]: {boxes.shape[0]} boxes but {scores.size} scores")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails both comparisons
            raise ValueError(f"predictions[{scene}]: scores must be finite and lie in [0, 1]")
        pred_boxes.append(boxes)
        flat += [(float(s), scene, k) for k, s in enumerate(scores)]
    gts = [_validate_boxes(f"ground_truth[{i}]", g) for i, g in enumerate(ground_truth)]
    n_gt = sum(g.shape[0] for g in gts)
    flat.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))

    # one IoU matrix per scene; the matching below only compares its entries
    ious = [iou_matrix(boxes, g).tolist() for boxes, g in zip(pred_boxes, gts)]
    ap = {}
    for thr in IOU_THRESHOLDS:
        matched = [[False] * g.shape[0] for g in gts]
        tp_flags = np.zeros(len(flat), dtype=bool)
        for rank, (_, scene, k) in enumerate(flat):
            best_iou, best_j = 0.0, -1
            for j, v in enumerate(ious[scene][k]):
                if not matched[scene][j] and v >= thr and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                matched[scene][best_j] = True
                tp_flags[rank] = True
        ap[float(thr)] = average_precision_101(tp_flags, n_gt)

    values = [ap[float(t)] for t in IOU_THRESHOLDS]
    return DetectionEval(ap_per_threshold=ap, map50=ap[0.50], map5095=float(np.mean(values)))


def score_split(
    scene_ids: list[str],
    fusions: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None,
    detections: list[tuple[tuple[np.ndarray, np.ndarray], np.ndarray]] | None,
) -> dict:
    """Per-scene rows and the aggregate (mean EN, MI, VIF; corpus mAP) of a split.

    `fusions[i]` is (fused, visible, infrared) of scene i and `detections[i]`
    its ((boxes, scores), ground-truth boxes); either may be None.
    """
    rows = [{"scene-id": sid} for sid in scene_ids]
    for row, (u, x, y) in zip(rows, fusions or []):
        row.update(fusion_metrics(u, x, y).to_json())
    for row, (pred, gt) in zip(rows, detections or []):
        try:
            ev = map_eval([pred], [gt])
        except ValueError as e:
            raise ValueError(f"scene {row['scene-id']}: {e}") from None
        row.update({"map50": ev.map50, "map5095": ev.map5095})
    aggregate = {k: float(np.mean([r[k] for r in rows])) for k in ("en", "mi", "vif") if fusions}
    if detections:
        corpus = map_eval([pred for pred, _ in detections], [gt for _, gt in detections])
        aggregate.update({"map50": corpus.map50, "map5095": corpus.map5095})
    return {"scenes": rows, "aggregate": aggregate}


def write_reports(
    out_dir: str | Path,
    per_scene: list[dict],
    aggregate: dict,
    stem: str = "metrics",
) -> tuple[Path, Path]:
    """Emit the JSON (per-scene + aggregate) and CSV summary for a metric run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    csv_path = out_dir / f"{stem}.csv"
    json_path.write_text(
        json.dumps({"scenes": per_scene, "aggregate": aggregate}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    columns = ["scene-id", "en", "mi", "vif", "map50", "map5095"]
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in per_scene:
            writer.writerow([row.get("scene-id", ""), *(row.get(c, "") for c in columns[1:])])
        writer.writerow(["aggregate", *(aggregate.get(c, "") for c in columns[1:])])
    return json_path, csv_path

"""Fusion quality metrics (entropy, mutual information, visual information fidelity)
and single-class detection mAP over IoU thresholds 0.50:0.05:0.95.

All image metrics quantize to 256 levels; MI is the textbook joint-histogram
definition in bits.  VIF is the pixel-domain multi-scale formulation with
four scales and a fixed sensor-noise variance.  `vif_fusion` runs the scales
once for both sources: each scale filters one 8-map stack (x, y, u, x², y²,
u², x·u, y·u) with a separable Gaussian window and downsamples the (x, y, u)
stack once.  It filters with `autodiff.correlate` in valid mode, the
program's one 2-D filter: two 1-D passes that BLAS runs as one
matrix-vector product per output row, with a transpose between them; a
downsampling pass computes only the rows and columns it keeps.  mAP
matching compares entries of one IoU matrix per scene (`iou_matrix`, the
only IoU formula).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import correlate, gaussian_kernel

VIF_SIGMA_NSQ = 2.0  # sensor-noise variance, 8-bit intensity units
VIF_SCALES = 4
_VIF_VAR_EPS = 1e-10
# 1-D Gaussian windows, 17 to 3 taps
_VIF_WINDOWS = [gaussian_kernel(n, n / 5.0) for n in (2 ** k + 1 for k in range(VIF_SCALES, 0, -1))]

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


@dataclass
class FusionMetricsReport:
    en: float
    mi: float
    vif: float
    fused_std: float  # a collapsed fusion reads near 0

    def to_json(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


@dataclass
class DetectionEval:
    ap_per_threshold: dict[float, float]
    map50: float
    map5095: float


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
    joint = np.bincount(qa * 256 + qb, minlength=256 * 256).astype(np.float64).reshape(256, 256)
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


def _vif_sources(refs: list[np.ndarray], dist: np.ndarray) -> list[float]:
    """Pixel-domain VIF of each reference against one distorted image, on 0-255 intensities.

    The scales run once over the stack (refs..., dist): each scale filters
    the images, their squares and each ref·dist product in one valid-mode
    `correlate` call, and downsamples the image stack once.  Each filter
    transposes, and VIF only sums per-pixel statistics, so the scales
    alternate orientation.
    The k references are scored as one (k, h, w) block; each one's `num` and
    `den` get the bytes they would get alone.
    """
    imgs = np.stack([np.asarray(v, dtype=np.float64) for v in (*refs, dist)]) * 255.0
    k = len(refs)
    num, den = np.zeros(k), np.zeros(k)
    transposed = False
    for scale, win in enumerate(_VIF_WINDOWS, start=1):
        size = win.size
        if scale > 1:
            imgs, transposed = correlate(imgs, win, False, 2), not transposed
        hw = imgs.shape[:0:-1] if transposed else imgs.shape[1:]
        if min(hw) < size:
            raise ValueError(f"image too small for VIF scale {scale}: {hw} vs {size}x{size} window")
        maps = correlate(np.concatenate([imgs, imgs * imgs, imgs[:k] * imgs[k]]), win, False)
        mu1, mu2 = maps[:k], maps[k]
        var1 = np.maximum(maps[k + 1:2 * k + 1] - mu1 * mu1, 0.0)
        var2 = np.maximum(maps[2 * k + 1] - mu2 * mu2, 0.0)
        cov = maps[2 * k + 2:] - mu1 * mu2
        live = var1 > _VIF_VAR_EPS
        g = np.divide(cov, var1, out=np.zeros_like(cov), where=live)
        np.copyto(var1, 0.0, where=~live)
        sv = var2 - g * cov
        neg = g < 0
        np.copyto(sv, var2, where=neg)
        dead2 = var2 <= _VIF_VAR_EPS
        np.copyto(g, 0.0, where=neg | dead2)
        np.copyto(sv, 0.0, where=dead2)
        sv = np.maximum(sv, 0.0)
        num += np.log2(1.0 + g * g * var1 / (sv + VIF_SIGMA_NSQ)).sum(axis=(1, 2))
        den += np.log2(1.0 + var1 / VIF_SIGMA_NSQ).sum(axis=(1, 2))
    # a featureless reference carries no information either way
    return [n / d if d != 0.0 else 1.0 for n, d in zip(num.tolist(), den.tolist())]


def _vif_single(ref: np.ndarray, dist: np.ndarray) -> float:
    """Pixel-domain VIF of one reference/distorted pair on 0-255 intensities."""
    return _vif_sources([ref], dist)[0]


def vif_fusion(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """VIF(x -> u) + VIF(y -> u); identical images give exactly 1.0 per source."""
    u, x, y = (np.asarray(v, dtype=np.float64) for v in (u, x, y))
    if not (u.shape == x.shape == y.shape):
        raise ValueError(f"vif_fusion: shapes differ: {u.shape}, {x.shape}, {y.shape}")
    vx, vy = _vif_sources([x, y], u)
    return vx + vy


def fusion_metrics(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> FusionMetricsReport:
    return FusionMetricsReport(
        en=entropy_en(u), mi=mutual_information(u, x, y), vif=vif_fusion(u, x, y),
        fused_std=float(np.std(u)),
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
    its ((boxes, scores), ground-truth boxes); either may be None.  A bad
    input raises ValueError naming its scene.
    """
    rows = [{"scene-id": sid} for sid in scene_ids]
    for i, row in enumerate(rows):
        try:
            if fusions:
                row.update(fusion_metrics(*fusions[i]).to_json())
            if detections:
                pred, gt = detections[i]
                ev = map_eval([pred], [gt])
                row.update({"map50": ev.map50, "map5095": ev.map5095})
        except ValueError as e:
            raise ValueError(f"scene {row['scene-id']}: {e}") from None
    aggregate = {k: float(np.mean([r[k] for r in rows])) for k in ("en", "mi", "vif") if fusions}
    if detections:
        corpus = map_eval([pred for pred, _ in detections], [gt for _, gt in detections])
        aggregate.update({"map50": corpus.map50, "map5095": corpus.map5095})
    return {"scenes": rows, "aggregate": aggregate}


def write_tables(out_dir: str | Path, stem: str, payload: dict, header: list[str], rows: list[list]) -> tuple[Path, Path]:
    """Write `payload` to <stem>.json (sorted keys) and `header` plus `rows` to <stem>.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    csv_path = out_dir / f"{stem}.csv"
    json_path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return json_path, csv_path


def write_reports(out_dir: str | Path, per_scene: list[dict], aggregate: dict) -> tuple[Path, Path]:
    """Emit metrics.json (per-scene + aggregate) and the metrics.csv summary for a metric run."""
    columns = ["scene-id", "en", "mi", "vif", "fused_std", "map50", "map5095"]
    rows = [[row.get("scene-id", ""), *(row.get(c, "") for c in columns[1:])] for row in per_scene]
    rows.append(["aggregate", *(aggregate.get(c, "") for c in columns[1:])])
    return write_tables(out_dir, "metrics", {"scenes": per_scene, "aggregate": aggregate}, columns, rows)

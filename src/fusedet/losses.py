"""Fusion training objective: structure + object-aware pixel + multi-scale gradient terms.

All loss functions return scalar Vars so the fused image can be
optimized end to end.  Source images are HxW float arrays; they, masks
and saliency weights enter as constants, and only the fused image (and
anything upstream of it) carries gradients.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Var

SSIM_WINDOW_SIZE = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2  # stabilizers for a [0,1] dynamic range
SSIM_C2 = 0.03 ** 2
_SSIM_WINDOW = ad.gaussian_kernel(SSIM_WINDOW_SIZE, SSIM_SIGMA)

GRAD_KERNEL_SIZES = (3, 5, 7)
SALIENCY_EPS = 1e-8
PIXEL_WEIGHT = 10.0  # of the pixel term in `fusion_loss`; the structure and gradient terms weigh 1


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var.constant(x)


def _check_same_shape(op: str, a: Var, b) -> None:
    bshape = b.shape if isinstance(b, Var) else np.asarray(b).shape
    if a.value.shape != tuple(bshape):
        raise ad.ShapeError(f"{op}: image shapes differ, {a.value.shape} vs {tuple(bshape)}")


def ssim(a, b) -> Var:
    """Mean local structural similarity over Gaussian sliding windows."""
    a = _as_var(a)
    b = _as_var(b)
    _check_same_shape("ssim", a, b)
    if a.value.ndim != 2:
        raise ad.ShapeError(f"ssim: expected single-channel HxW images, got {a.value.shape}")
    w = _SSIM_WINDOW
    mu1 = ad.blur(a, w)
    mu2 = ad.blur(b, w)
    s11 = ad.blur(a * a, w) - mu1 * mu1
    s22 = ad.blur(b * b, w) - mu2 * mu2
    s12 = ad.blur(a * b, w) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + SSIM_C1) * (2.0 * s12 + SSIM_C2)
    den = (mu1 * mu1 + mu2 * mu2 + SSIM_C1) * (s11 + s22 + SSIM_C2)
    return ad.mean(num / den)


def ssim_loss(u, x, y) -> Var:
    """(1 - SSIM(u,x))/2 + (1 - SSIM(u,y))/2, in [0, 2]."""
    u = _as_var(u)
    return (1.0 - ssim(u, _as_var(x))) * 0.5 + (1.0 - ssim(u, _as_var(y))) * 0.5


def saliency_map(img: np.ndarray) -> np.ndarray:
    """Histogram-distance saliency: S(k) = sum_i p(i) * |q(k) - i| over 256 levels."""
    # nan_to_num: a non-finite pixel gets a level here and still makes the loss non-finite
    q = np.clip(np.rint(np.nan_to_num(img * 255.0)), 0, 255).astype(np.intp)
    hist = np.bincount(q.reshape(-1), minlength=256).astype(np.float64)
    hist /= hist.sum()
    levels = np.arange(256, dtype=np.float64)
    # per-level expected distance, then a lookup; histogram makes this location-free
    per_level = np.abs(levels[:, None] - levels[None, :]) @ hist
    return per_level[q]


def saliency_weights(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex per-pixel modality weights from the two saliency maps.

    w1 = Sx / (Sx + Sy + eps), w2 = 1 - w1.  Two constant images give
    Sx = Sy = 0, which falls back to w1 = 0, w2 = 1.
    """
    if x.shape != y.shape:
        raise ad.ShapeError(f"saliency_weights: image shapes differ, {x.shape} vs {y.shape}")
    sx = saliency_map(x)
    sy = saliency_map(y)
    w1 = sx / (sx + sy + SALIENCY_EPS)
    return w1, 1.0 - w1


def object_mask(boxes: np.ndarray, height: int, width: int) -> np.ndarray:
    """Binary union of box interiors; boxes are rows of (cx, cy, w, h) in [0,1]."""
    mask = np.zeros((height, width))
    for cx, cy, w, h in np.asarray(boxes, dtype=np.float64).reshape(-1, 4):
        c0 = int(np.clip(np.floor((cx - w / 2.0) * width), 0, width))
        c1 = int(np.clip(np.ceil((cx + w / 2.0) * width), 0, width))
        r0 = int(np.clip(np.floor((cy - h / 2.0) * height), 0, height))
        r1 = int(np.clip(np.ceil((cy + h / 2.0) * height), 0, height))
        mask[r0:r1, c0:c1] = 1.0
    return mask


def pixel_loss(u, x, y, mask: np.ndarray, weights: tuple[np.ndarray, np.ndarray] | None = None) -> Var:
    """Object term pulls u to max(w1*x, w2*y) inside the mask, background to their average.

    Both L1 norms are normalized by the full pixel count so the value is
    resolution independent.
    """
    u = _as_var(u)
    _check_same_shape("pixel_loss", u, x)
    _check_same_shape("pixel_loss", u, y)
    mask = np.asarray(mask, dtype=np.float64)
    _check_same_shape("pixel_loss", u, mask)
    if weights is None:
        weights = saliency_weights(x, y)
    w1, w2 = weights
    target_obj = np.maximum(w1 * x, w2 * y)
    target_bg = 0.5 * (w1 * x + w2 * y)
    obj = ad.mean(ad.absolute((u - target_obj) * mask))
    bg = ad.mean(ad.absolute((u - target_bg) * (1.0 - mask)))
    return obj + bg


def _grad_kernel(size: int) -> np.ndarray:
    return ad.gaussian_kernel(size, (size - 1) / 4.0)


def highpass(img: np.ndarray, size: int) -> np.ndarray:
    """v - gaussian_blur(v), numpy-side (for fixed targets and oracles)."""
    return img - ad.correlate(img, _grad_kernel(size)).T


def gradient_loss(u, x, y) -> Var:
    """Multi-scale high-pass matching: sum_k mean (hp_k(u) - max(hp_k(x), hp_k(y)))^2."""
    u = _as_var(u)
    _check_same_shape("gradient_loss", u, x)
    _check_same_shape("gradient_loss", u, y)
    total = None
    for k in GRAD_KERNEL_SIZES:
        hp_u = u - ad.blur(u, _grad_kernel(k))
        target = np.maximum(highpass(x, k), highpass(y, k))
        term = ad.mean(ad.square(hp_u - target))
        total = term if total is None else total + term
    return total


def fusion_loss(u, x, y, mask: np.ndarray, saliency: tuple[np.ndarray, np.ndarray] | None = None) -> Var:
    """Structure + PIXEL_WEIGHT * pixel + gradient terms, differentiable end to end.

    `saliency` is `saliency_weights(x, y)`, computed here when not given.
    """
    u = _as_var(u)
    return ssim_loss(u, x, y) + pixel_loss(u, x, y, mask, saliency) * PIXEL_WEIGHT + gradient_loss(u, x, y)

"""Box denoising diffusion: noise schedule, forward corruption, l2 objective, DDIM sampling.

Boxes are (N,4) rows of (cx, cy, w, h) in normalized image coordinates.
Diffusion runs in a signal-scaled latent space ([0,1] box coordinates
mapped to [-BOX_SCALE, +BOX_SCALE]) so standard-normal noise is
commensurate with the signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .rng import SplitMix64

BOX_SCALE = 2.0
COSINE_S = 0.008
BETA_MAX = 0.999
MIN_BOX_SIDE = 1e-3
PAD_JITTER = 0.01  # std of the noise on repeated ground-truth boxes in box coordinates


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise coefficients; index t-1 holds step t, and abar(0) == 1."""

    steps: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def abar(self, t: int) -> float:
        if t == 0:
            return 1.0
        if not 1 <= t <= self.steps:
            raise ValueError(f"timestep {t} outside [0, {self.steps}]")
        return float(self.alpha_bar[t - 1])


def build_schedule(steps: int) -> DiffusionSchedule:
    """Cosine noise variance schedule."""
    if steps < 1:
        raise ValueError(f"schedule needs at least 1 step, got {steps}")
    t = np.arange(steps + 1, dtype=np.float64) / steps
    f = np.cos((t + COSINE_S) / (1.0 + COSINE_S) * np.pi / 2.0) ** 2
    abar_raw = f / f[0]
    beta = np.clip(1.0 - abar_raw[1:] / abar_raw[:-1], 0.0, BETA_MAX)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return DiffusionSchedule(steps, beta, alpha, alpha_bar)


def scale_boxes(z: np.ndarray) -> np.ndarray:
    """[0,1] box coordinates -> signal-scaled latent in [-BOX_SCALE, BOX_SCALE]."""
    return (2.0 * np.asarray(z, dtype=np.float64) - 1.0) * BOX_SCALE


def unscale_boxes(latent: np.ndarray) -> np.ndarray:
    return (np.asarray(latent, dtype=np.float64) / BOX_SCALE + 1.0) / 2.0


def clamp_boxes(boxes: np.ndarray) -> np.ndarray:
    """Clamp centers to [0,1] and sides to (0,1]."""
    out = np.asarray(boxes, dtype=np.float64).copy()
    out[:, 0:2] = np.clip(out[:, 0:2], 0.0, 1.0)
    out[:, 2:4] = np.clip(out[:, 2:4], MIN_BOX_SIDE, 1.0)
    return out


def forward_noise(z0: np.ndarray, t: int, eps: np.ndarray, schedule: DiffusionSchedule) -> np.ndarray:
    """Corrupt boxes to their step-t latent: sqrt(abar_t)*scaled(z0) + sqrt(1-abar_t)*eps."""
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ValueError(f"forward_noise: z0 shape {z0.shape} != eps shape {eps.shape}")
    ab = schedule.abar(t)
    return np.sqrt(ab) * scale_boxes(z0) + np.sqrt(1.0 - ab) * eps


def detector_loss(pred_z0, z0) -> Var:
    """Half mean squared error over all box coordinates (Eq.-style l2 objective)."""
    pred = pred_z0 if isinstance(pred_z0, Var) else Var.constant(pred_z0)
    target = np.asarray(z0.value if isinstance(z0, Var) else z0, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ad.ShapeError(f"detector_loss: prediction shape {pred.value.shape} != target shape {target.shape}")
    return ad.mean(ad.square(pred - target)) * 0.5


def ddim_step(
    z_t: np.ndarray, pred_z0: np.ndarray, t: int, t_prev: int, schedule: DiffusionSchedule
) -> np.ndarray:
    """Deterministic reverse update in scaled space.

    The implied noise eps_hat = (z_t - sqrt(abar_t) pred) / sqrt(1 - abar_t)
    is carried to the earlier step; at t_prev = 0 this collapses to the
    prediction itself.
    """
    if t_prev >= t:
        raise ValueError(f"ddim_step: t_prev {t_prev} must be < t {t}")
    ab_t = schedule.abar(t)
    ab_p = schedule.abar(t_prev)
    z_t = np.asarray(z_t, dtype=np.float64)
    pred_z0 = np.asarray(pred_z0, dtype=np.float64)
    eps_hat = (z_t - np.sqrt(ab_t) * pred_z0) / np.sqrt(1.0 - ab_t)
    return np.sqrt(ab_p) * pred_z0 + np.sqrt(1.0 - ab_p) * eps_hat


def sample_time_grid(steps: int, total: int) -> list[int]:
    """Uniformly spaced decreasing timesteps from total down to 0."""
    if steps < 1:
        raise ValueError("sampling needs at least 1 step")
    grid = [int(round(total * (1.0 - k / steps))) for k in range(steps + 1)]
    out = [grid[0]]
    for t in grid[1:]:
        if t < out[-1]:
            out.append(t)
    if out[-1] != 0:
        out.append(0)
    return out


def sample(
    denoiser: Callable[[np.ndarray, int], np.ndarray],
    n_boxes: int,
    steps: int,
    schedule: DiffusionSchedule,
    rng: SplitMix64,
) -> np.ndarray:
    """Iteratively denoise seeded Gaussian latents into a clamped box set.

    `denoiser(z_t, t)` sees the scaled latent and returns predicted clean
    boxes in normalized [0,1] coordinates.
    """
    z = rng.normals((n_boxes, 4))
    grid = sample_time_grid(steps, schedule.steps)
    for t, t_prev in zip(grid[:-1], grid[1:]):
        pred = np.asarray(denoiser(z, t), dtype=np.float64)
        if pred.shape != (n_boxes, 4):
            raise ValueError(f"denoiser returned shape {pred.shape}, expected {(n_boxes, 4)}")
        if not np.all(np.isfinite(pred)):
            raise FloatingPointError(f"denoiser produced non-finite output at step t={t}")
        z = ddim_step(z, scale_boxes(pred), t, t_prev, schedule)
    return clamp_boxes(unscale_boxes(z))


def pad_boxes(boxes: np.ndarray, n: int, rng: SplitMix64) -> np.ndarray:
    """Pad a ground-truth set to a fixed width by jittered cyclic repetition."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    if boxes.shape[0] == 0:
        raise ValueError("pad_boxes: cannot pad an empty box set")
    if boxes.shape[0] > n:
        raise ValueError(f"pad_boxes: {boxes.shape[0]} boxes exceed target width {n}")
    reps = np.tile(boxes, (int(np.ceil(n / boxes.shape[0])), 1))[:n]
    noise = rng.normals((n, 4)) * PAD_JITTER
    noise[: boxes.shape[0]] = 0.0  # keep the originals exact
    return clamp_boxes(reps + noise)

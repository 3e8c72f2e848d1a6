"""Toy joint model: shared backbone feeding the fusion head and a box-denoising head.

The detector head is a deliberately small regressor: for each noisy box it
pools the deepest pyramid feature at the box center, appends the global
average feature and per-channel activation centroids, the noisy
coordinates and a sinusoidal time embedding, and maps them through a
two-layer perceptron whose output layer is linear (no sigmoid) to
predicted clean boxes.  Only the backbone is shared between tasks.

Serving splits the head in two.  The pyramid and the box-independent
scene summary (`scene_features`: mass and centroids) are built once per
scene; each denoiser call, four DDIM steps and the scoring re-query,
redoes only the per-box part: the gather at the box centers and the MLP.
Training builds the summary inside `forward_denoiser`, after the gather:
`autodiff.gradients` sums a node's incoming gradients in descending node
order and the deepest map has four consumers (the gather, the mass and the
two centroid products), so creating the summary first would change the
float bytes of its gradient.

A run chooses three things about the model (`ModelConfig`): its fusion
branch set, the boxes sampled per scene and the diffusion steps.  The
head's widths and init gain are module constants, like the fusion
network's.  A model file (`fusedet-model-v2`) stores those three settings
with the parameters, and loading checks both.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Var
from .diffusion import unscale_boxes, BOX_SCALE
from .fusion_net import (
    BACKBONE_NAMES,
    LEVEL_CHANNELS,
    backbone_forward,
    check_branches,
    fusion_forward,
    init_fusion_params,
)
from .rng import SplitMix64

MODEL_FORMAT = "fusedet-model-v2"

TIME_EMBED_DIM = 8
MLP_HIDDEN = 64
# detection-head weight scale; the head is shallow, so this directly
# sets how hard the box objective pulls on the shared backbone
DET_INIT_GAIN = 4.0


@dataclass(frozen=True)
class ModelConfig:
    """What a run chooses about the model; the rest is module constants."""

    branches: tuple[int, ...] = (0, 1, 2, 3)
    boxes_per_scene: int = 16
    diffusion_steps: int = 1000

    def __post_init__(self):
        """Reject, by field name, a config no model can be built from."""
        for key in ("boxes_per_scene", "diffusion_steps"):
            value = getattr(self, key)
            if type(value) is not int or value < 1:
                raise ValueError(f"{key} must be an integer of at least 1, got {value!r}")
        try:
            check_branches(self.branches)
        except ValueError as e:
            raise ValueError(f"branches: {e}") from None

    def to_json(self) -> dict:
        return {**asdict(self), "branches": list(self.branches)}

    @classmethod
    def from_json(cls, d: dict) -> "ModelConfig":
        keys = sorted(f.name for f in fields(cls))
        if not isinstance(d, dict) or sorted(d) != keys:
            got = sorted(d) if isinstance(d, dict) else type(d).__name__
            raise ValueError(f"expected exactly the keys {keys}, got {got}")
        if not isinstance(d["branches"], list):
            raise ValueError(f"branches must be a list of branch ids, got {d['branches']!r}")
        return cls(**{**d, "branches": tuple(d["branches"])})


def time_embedding(t: int, total: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the diffusion step at geometric frequencies."""
    half = dim // 2
    freqs = (1.0 / total) * (float(total) ** (np.arange(half) / max(half - 1, 1)))
    angles = t * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


def _init_values(cfg: ModelConfig, rng) -> dict[str, np.ndarray]:
    """Fresh parameters of both heads, drawn from `rng.normals`."""
    values = init_fusion_params(cfg.branches, rng)
    # local feature + (mass, row-centroid, col-centroid) scene summary + box + time
    in_dim = 4 * LEVEL_CHANNELS[-1] + 4 + TIME_EMBED_DIM
    values["det.l1.w"] = rng.normals((in_dim, MLP_HIDDEN)) * DET_INIT_GAIN * np.sqrt(2.0 / in_dim)
    values["det.l1.b"] = np.zeros(MLP_HIDDEN)
    values["det.l2.w"] = rng.normals((MLP_HIDDEN, 4)) * np.sqrt(1.0 / MLP_HIDDEN)
    values["det.l2.b"] = np.zeros(4)
    return values


def _squash(v: Var) -> Var:
    """Bounded map v/(1+|v|).

    Backbone activations are unnormalized, and an unbounded detector input
    feeds its own gradient back into the backbone, which plain GD cannot
    contain.
    """
    return v / (ad.absolute(v) + 1.0)


class ToyModel:
    """Parameter store plus the forward passes of both heads."""

    def __init__(self, cfg: ModelConfig, values: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = ParamSet(values, shared=BACKBONE_NAMES)

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int) -> "ToyModel":
        return cls(cfg, _init_values(cfg, SplitMix64(seed).derive(0xB00)))

    def forward_fusion(self, pvars: dict[str, Var], x: Var, y: Var) -> tuple[Var, list[Var]]:
        return fusion_forward(pvars, x, y, self.cfg.branches)

    def scene_features(self, pyramid: list[Var]) -> Var:
        """Box-independent (1, 3C) summary of the deepest map: squashed mass and row and column centroids.

        Per-channel activation centroids (the mean position of each
        channel's mass) give the head where things are; average pooling
        alone is position-blind, which a box regressor cannot afford.
        """
        feat = pyramid[-1]
        c, h, w = feat.value.shape
        mass = ad.mean(feat, axis=(1, 2))
        row_grid = np.broadcast_to(((np.arange(h) + 0.5) / h)[None, :, None], (c, h, w))
        col_grid = np.broadcast_to(((np.arange(w) + 0.5) / w)[None, None, :], (c, h, w))
        denom = mass + 1e-6  # features are post-ReLU, so mass is nonnegative
        cen_r = ad.mean(feat * Var.constant(row_grid.copy()), axis=(1, 2)) / denom
        cen_c = ad.mean(feat * Var.constant(col_grid.copy()), axis=(1, 2)) / denom
        return ad.reshape(ad.concat([_squash(mass), cen_r, cen_c], axis=0), (1, 3 * c))

    def forward_denoiser(
        self, pvars: dict[str, Var], pyramid: list[Var], z_t: np.ndarray, t: int, scene: Var | None = None
    ) -> Var:
        """Predicted clean boxes in [0,1] coordinates for one noisy latent.

        Mixes the feature at each noisy box center with the scene summary
        of `scene_features`; pass `scene` to reuse one summary across calls
        on the same pyramid.  Without it the summary is built after the
        box gather, the node order training's gradient bytes depend on.
        """
        feat = pyramid[-1]
        _, h, w = feat.value.shape
        n = z_t.shape[0]
        centers = unscale_boxes(z_t)[:, :2]
        cols = np.clip((centers[:, 0] * w).astype(np.intp), 0, w - 1)
        rows = np.clip((centers[:, 1] * h).astype(np.intp), 0, h - 1)
        local = _squash(ad.gather_pixels(feat, rows, cols))
        if scene is None:
            scene = self.scene_features(pyramid)
        ones = Var.constant(np.ones((n, 1)))
        scene_tiled = ad.matmul(ones, scene)
        zvar = Var.constant(z_t / BOX_SCALE)  # keep MLP inputs O(1)
        temb = Var.constant(np.tile(time_embedding(t, self.cfg.diffusion_steps, TIME_EMBED_DIM), (n, 1)))
        inp = ad.concat([local, scene_tiled, zvar, temb], axis=1)
        hdn = ad.relu(ad.linear(inp, pvars["det.l1.w"], pvars["det.l1.b"]))
        return ad.linear(hdn, pvars["det.l2.w"], pvars["det.l2.b"])

    def denoiser_for_scene(self, visible: np.ndarray, infrared: np.ndarray):
        """Closure (z_t, t) -> predicted boxes, with the pyramid computed once."""
        pvars = self.params.constants()
        x = Var.constant(np.asarray(visible)[None])
        y = Var.constant(np.asarray(infrared)[None])
        return self.denoiser_for_pyramid(pvars, backbone_forward(pvars, x, y))

    def denoiser_for_pyramid(self, pvars: dict[str, Var], pyramid: list[Var]):
        """Closure (z_t, t) -> predicted boxes over a computed pyramid, with its scene summary built once."""
        scene = self.scene_features(pyramid)

        def denoiser(z_t: np.ndarray, t: int) -> np.ndarray:
            return self.forward_denoiser(pvars, pyramid, z_t, t, scene).value

        return denoiser

    def save(self, path: str | Path) -> None:
        payload = {
            "format": MODEL_FORMAT,
            "config": self.cfg.to_json(),
            "shared": sorted(self.params.shared),
            "params": {
                name: {
                    "shape": list(arr.shape),
                    "data": base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii"),
                }
                for name, arr in self.params.values.items()
            },
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ToyModel":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"unrecognized model file format: {payload.get('format')!r}")
        try:
            cfg = ModelConfig.from_json(payload.get("config"))
        except ValueError as e:
            raise ValueError(f"model file config: {e}") from None
        values = {}
        for name, rec in payload["params"].items():
            arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").reshape(rec["shape"])
            values[name] = arr.astype(np.float64)
        # zeros in place of normals: the shapes without the cost of drawing them
        want = {k: v.shape for k, v in _init_values(cfg, SimpleNamespace(normals=np.zeros)).items()}
        got = {k: v.shape for k, v in values.items()}
        for name in sorted(want.keys() | got.keys()):
            if got.get(name) != want.get(name):
                raise ValueError(
                    f"model file parameter {name!r}: the file has {got.get(name, 'none')}, "
                    f"its config creates {want.get(name, 'none')}"
                )
            bad = values[name].size - int(np.count_nonzero(np.isfinite(values[name])))
            if bad:
                raise ValueError(f"model file parameter {name!r}: {bad} value(s) are not finite")
        model = cls(cfg, values)
        if sorted(model.params.shared) != payload["shared"]:
            raise ValueError("model file shared-mask does not match its config")
        return model

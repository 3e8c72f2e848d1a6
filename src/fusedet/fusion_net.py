"""Region-prompt fusion network.

A small shared backbone turns each modality into a feature pyramid; the
per-level features of the two modalities are summed.  A pixel branch
fuses the raw pair at full resolution, and each enabled region branch
projects its pyramid level, scores it against a bank of learnable region
prompts to get nonnegative soft masks, whose mask-weighted feature stack
(M*C channels) is channel-aligned by a 1x1 conv.  The forward never
holds that stack whole: ``conv2d`` builds it band by band into the align
GEMM, and a weight gradient rebuilds it once in the backward.  Aligned
branch outputs are upsampled, merged into a sigmoid gate that modulates
the pixel branch, and a five-conv reconstruction head produces the fused
image in [0, 1].  Every conv that feeds a ReLU applies it in place
(``conv2d(..., relu=True)``).

Backbone parameter names carry the ``backbone.`` prefix; they are the
parameters shared with the detection head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .rng import SplitMix64


@dataclass(frozen=True)
class FusionNetConfig:
    stem_channels: int = 8
    stage_channels: tuple[int, ...] = (8, 16, 32)  # stride-2 stages after the stem
    region_channels: int = 16  # width of branch projections and prompts
    prompts_per_branch: int = 4
    fuse_channels: int = 16  # pixel branch / reconstruction width
    branches: tuple[int, ...] = (0, 1, 2, 3)

    @property
    def levels(self) -> int:
        return 1 + len(self.stage_channels)

    def level_channels(self, level: int) -> int:
        # level 1 is the stem (full resolution), deeper levels halve
        return self.stem_channels if level == 1 else self.stage_channels[level - 2]

    @property
    def size_multiple(self) -> int:
        """Image sides must divide by this for the deepest branch to upsample back."""
        return 2 ** max(max(self.branches) - 1, 0)

    def check_image_size(self, op: str, h: int, w: int) -> None:
        self.validate()  # an out-of-range branch id would otherwise show up as a huge size multiple
        m = self.size_multiple
        if h % m or w % m:
            raise ad.ShapeError(
                f"{op}: image size {h}x{w} is not a multiple of {m} on each side, "
                f"which branches {list(self.branches)} need"
            )

    def validate(self) -> None:
        if 0 not in self.branches:
            raise ValueError("branch set must include the pixel branch 0")
        if len(set(self.branches)) < len(self.branches):
            raise ValueError(f"branch set {list(self.branches)} repeats an id")
        bad = [b for b in self.branches if b < 0 or b > self.levels]
        if bad:
            raise ValueError(f"branch ids {bad} outside 0..{self.levels}")


def _conv_init(rng: SplitMix64, c_out: int, c_in: int, k: int, gain: float = 1.0) -> np.ndarray:
    scale = gain * np.sqrt(2.0 / (c_in * k * k))
    return rng.normals((c_out, c_in, k, k)) * scale


# small positive bias keeps ReLU units alive through the first large
# pixel-loss updates; plain GD cannot revive a dead reconstruction stack
# once the (aligned) shared updates stop reshuffling the features
_BIAS_INIT = 0.05


def _bias_init(c: int) -> np.ndarray:
    return np.full(c, _BIAS_INIT)


def init_fusion_params(cfg: FusionNetConfig, rng: SplitMix64) -> dict[str, np.ndarray]:
    """Fresh parameter arrays for the backbone and the fusion head."""
    cfg.validate()
    p: dict[str, np.ndarray] = {}
    p["backbone.stem.w"] = _conv_init(rng, cfg.stem_channels, 1, 3)
    p["backbone.stem.b"] = np.zeros(cfg.stem_channels)
    c_prev = cfg.stem_channels
    for i, c in enumerate(cfg.stage_channels, start=1):
        p[f"backbone.stage{i}.w"] = _conv_init(rng, c, c_prev, 3)
        p[f"backbone.stage{i}.b"] = np.zeros(c)
        c_prev = c
    cf = cfg.fuse_channels
    p["fuse.pixel.c1.w"] = _conv_init(rng, cf, 2, 3)
    p["fuse.pixel.c1.b"] = _bias_init(cf)
    p["fuse.pixel.c2.w"] = _conv_init(rng, cf, cf, 3)
    p["fuse.pixel.c2.b"] = _bias_init(cf)
    c2 = cfg.region_channels
    for l in sorted(b for b in cfg.branches if b > 0):
        cl = cfg.level_channels(l)
        p[f"fuse.branch{l}.phi.w"] = _conv_init(rng, c2, cl, 3)
        p[f"fuse.branch{l}.phi.b"] = _bias_init(c2)
        p[f"fuse.branch{l}.prompts"] = rng.normals((cfg.prompts_per_branch, c2)) / np.sqrt(c2)
        p[f"fuse.branch{l}.norm.gamma"] = np.ones(cfg.prompts_per_branch)
        p[f"fuse.branch{l}.norm.beta"] = np.zeros(cfg.prompts_per_branch)
        p[f"fuse.branch{l}.align.w"] = _conv_init(rng, cf, cfg.prompts_per_branch * c2, 1)
        p[f"fuse.branch{l}.align.b"] = _bias_init(cf)
    if any(b > 0 for b in cfg.branches):
        p["fuse.mix.w"] = _conv_init(rng, cf, cf, 1)
        p["fuse.mix.b"] = _bias_init(cf)
        p["fuse.gate.w"] = _conv_init(rng, cf, cf, 1)
        p["fuse.gate.b"] = _bias_init(cf)
    for i in range(1, 5):
        p[f"fuse.recon.c{i}.w"] = _conv_init(rng, cf, cf, 3)
        p[f"fuse.recon.c{i}.b"] = _bias_init(cf)
    p["fuse.recon.c5.w"] = _conv_init(rng, 1, cf, 3)
    p["fuse.recon.c5.b"] = np.zeros(1)
    return p


def backbone_names(cfg: FusionNetConfig) -> list[str]:
    names = ["backbone.stem.w", "backbone.stem.b"]
    for i in range(1, len(cfg.stage_channels) + 1):
        names += [f"backbone.stage{i}.w", f"backbone.stage{i}.b"]
    return names


def _backbone_single(p: dict[str, Var], img: Var, cfg: FusionNetConfig) -> list[Var]:
    levels = [ad.conv2d(img, p["backbone.stem.w"], p["backbone.stem.b"], stride=1, relu=True)]
    for i in range(1, len(cfg.stage_channels) + 1):
        levels.append(ad.conv2d(levels[-1], p[f"backbone.stage{i}.w"], p[f"backbone.stage{i}.b"], stride=2, relu=True))
    return levels


def backbone_forward(p: dict[str, Var], x: Var, y: Var, cfg: FusionNetConfig) -> list[Var]:
    """Per-modality features from the shared weights, summed level by level."""
    if x.value.shape != y.value.shape:
        raise ad.ShapeError(f"backbone_forward: modality shapes differ, {x.value.shape} vs {y.value.shape}")
    fx = _backbone_single(p, x, cfg)
    fy = _backbone_single(p, y, cfg)
    return [a + b for a, b in zip(fx, fy)]


def region_mask(prompts: Var, phi_feat: Var, gamma: Var, beta: Var) -> Var:
    """Soft region masks: prompt-feature dot products, spatially normalized, ReLU."""
    c2, h, w = phi_feat.value.shape
    if prompts.value.ndim != 2 or prompts.value.shape[1] != c2:
        raise ad.ShapeError(
            f"region_mask: prompt width {prompts.value.shape} incompatible with {c2} feature channels"
        )
    flat = ad.reshape(phi_feat, (c2, h * w))
    scores = ad.reshape(ad.matmul(prompts, flat), (prompts.value.shape[0], h, w))
    return ad.relu(ad.spatial_norm(scores, gamma, beta))


def pixel_block(p: dict[str, Var], x: Var, y: Var) -> Var:
    """Full-resolution pixel branch: channel concat of the pair, two 3x3 conv + ReLU."""
    stacked = ad.concat([x, y], axis=0)
    h = ad.conv2d(stacked, p["fuse.pixel.c1.w"], p["fuse.pixel.c1.b"], relu=True)
    return ad.conv2d(h, p["fuse.pixel.c2.w"], p["fuse.pixel.c2.b"], relu=True)


def branch_output(p: dict[str, Var], level_feat: Var, l: int) -> tuple[Var, Var]:
    """One region branch's soft masks (M,H,W) and the projected features (C,H,W) they weight."""
    phi = ad.conv2d(level_feat, p[f"fuse.branch{l}.phi.w"], p[f"fuse.branch{l}.phi.b"], relu=True)
    masks = region_mask(
        p[f"fuse.branch{l}.prompts"], phi, p[f"fuse.branch{l}.norm.gamma"], p[f"fuse.branch{l}.norm.beta"]
    )
    return masks, phi


def assemble_fuse(p: dict[str, Var], b0: Var, branch_outs: Iterable[tuple[int, tuple[Var, Var]]]) -> Var:
    """Merge branch outputs into a gate over the pixel branch, then reconstruct.

    Each branch's M*C region stack (masks x features) exists only inside its
    1x1 align conv.  Branches are taken one at a time and every map is
    dropped once its last consumer is built, so with a lazy `branch_outs`, a
    `b0` the caller keeps no reference to, and no gradient holding the
    graph, only a few full-resolution maps are alive at once.
    """
    merged = None
    full = b0.value.shape[-1]
    for l, (masks, phi) in branch_outs:
        # a 1x1 conv commutes with nearest upsampling: align at the branch's own
        # resolution, then upsample fuse_channels maps instead of the M*C stack
        up = ad.conv2d(phi, p[f"fuse.branch{l}.align.w"], p[f"fuse.branch{l}.align.b"], masks=masks)
        del masks, phi
        factor = full // up.value.shape[-1]
        if factor > 1:
            up = ad.upsample_nearest(up, factor)
        merged = up if merged is None else merged + up
        del up
    h = b0
    if merged is not None:
        # one name for the mix output, the gate pre-activation and the gate:
        # each rebinding drops the map before it
        gate = ad.conv2d(merged, p["fuse.mix.w"], p["fuse.mix.b"], relu=True)
        del merged
        gate = ad.conv2d(gate, p["fuse.gate.w"], p["fuse.gate.b"])
        gate = ad.sigmoid(gate)
        h = b0 * gate + b0
        del gate
    del b0
    for i in range(1, 5):
        h = ad.conv2d(h, p[f"fuse.recon.c{i}.w"], p[f"fuse.recon.c{i}.b"], relu=True)
    out = ad.conv2d(h, p["fuse.recon.c5.w"], p["fuse.recon.c5.b"])
    return ad.sigmoid(ad.reshape(out, out.value.shape[1:]))


def fusion_forward(
    p: dict[str, Var], x: Var, y: Var, cfg: FusionNetConfig
) -> tuple[Var, list[Var]]:
    """Fused image and the shared feature pyramid (for the detection head)."""
    cfg.check_image_size("fusion_forward", *x.value.shape[-2:])
    pyramid = backbone_forward(p, x, y, cfg)
    # a generator: each region branch is built only when assemble_fuse takes it,
    # after the pixel branch, which is passed on without a reference kept here
    branch_outs = (
        (l, branch_output(p, pyramid[l - 1], l)) for l in sorted(b for b in cfg.branches if b > 0)
    )
    return assemble_fuse(p, pixel_block(p, x, y), branch_outs), pyramid

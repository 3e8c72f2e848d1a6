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

The widths are module constants: no run varies them, so a model file
stores only its branch set.  Backbone parameter names carry the
``backbone.`` prefix (``BACKBONE_NAMES``); they are the parameters shared
with the detection head.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .rng import SplitMix64


# output channels of the pyramid levels: the stem (level 1, full
# resolution), then the three stride-2 stages
LEVEL_CHANNELS = (8, 8, 16, 32)
REGION_CHANNELS = 16  # width of branch projections and prompts
PROMPTS_PER_BRANCH = 4
FUSE_CHANNELS = 16  # pixel branch / reconstruction width
_STAGES = ("stem", *(f"stage{i}" for i in range(1, len(LEVEL_CHANNELS))))
BACKBONE_NAMES = tuple(f"backbone.{stage}.{k}" for stage in _STAGES for k in ("w", "b"))


def check_branches(branches: tuple[int, ...]) -> None:
    """Reject a branch set the network cannot build: 0 is the pixel branch, l >= 1 the region branch of level l."""
    if not all(type(b) is int for b in branches):
        raise ValueError(f"branch ids {list(branches)} must be integers")
    if 0 not in branches:
        raise ValueError("branch set must include the pixel branch 0")
    if len(set(branches)) < len(branches):
        raise ValueError(f"branch set {list(branches)} repeats an id")
    bad = [b for b in branches if b < 0 or b > len(LEVEL_CHANNELS)]
    if bad:
        raise ValueError(f"branch ids {bad} outside 0..{len(LEVEL_CHANNELS)}")


def check_image_size(branches: tuple[int, ...], op: str, h: int, w: int) -> None:
    """Reject image sides that the deepest branch of `branches` cannot upsample back to."""
    check_branches(branches)  # an out-of-range branch id would otherwise show up as a huge size multiple
    m = 2 ** max(max(branches) - 1, 0)
    if h % m or w % m:
        raise ad.ShapeError(
            f"{op}: image size {h}x{w} is not a multiple of {m} on each side, "
            f"which branches {list(branches)} need"
        )


def _conv_init(rng: SplitMix64, c_out: int, c_in: int, k: int) -> np.ndarray:
    return rng.normals((c_out, c_in, k, k)) * np.sqrt(2.0 / (c_in * k * k))


# small positive bias keeps ReLU units alive through the first large
# pixel-loss updates; plain GD cannot revive a dead reconstruction stack
# once the (aligned) shared updates stop reshuffling the features
_BIAS_INIT = 0.05


def _bias_init(c: int) -> np.ndarray:
    return np.full(c, _BIAS_INIT)


def init_fusion_params(branches: tuple[int, ...], rng: SplitMix64) -> dict[str, np.ndarray]:
    """Fresh parameter arrays for the backbone and the fusion head of a branch set."""
    check_branches(branches)
    p: dict[str, np.ndarray] = {}
    c_prev = 1
    for stage, c in zip(_STAGES, LEVEL_CHANNELS):
        p[f"backbone.{stage}.w"] = _conv_init(rng, c, c_prev, 3)
        p[f"backbone.{stage}.b"] = np.zeros(c)
        c_prev = c
    cf = FUSE_CHANNELS
    p["fuse.pixel.c1.w"] = _conv_init(rng, cf, 2, 3)
    p["fuse.pixel.c1.b"] = _bias_init(cf)
    p["fuse.pixel.c2.w"] = _conv_init(rng, cf, cf, 3)
    p["fuse.pixel.c2.b"] = _bias_init(cf)
    c2 = REGION_CHANNELS
    for l in sorted(b for b in branches if b > 0):
        p[f"fuse.branch{l}.phi.w"] = _conv_init(rng, c2, LEVEL_CHANNELS[l - 1], 3)
        p[f"fuse.branch{l}.phi.b"] = _bias_init(c2)
        p[f"fuse.branch{l}.prompts"] = rng.normals((PROMPTS_PER_BRANCH, c2)) / np.sqrt(c2)
        p[f"fuse.branch{l}.norm.gamma"] = np.ones(PROMPTS_PER_BRANCH)
        p[f"fuse.branch{l}.norm.beta"] = np.zeros(PROMPTS_PER_BRANCH)
        p[f"fuse.branch{l}.align.w"] = _conv_init(rng, cf, PROMPTS_PER_BRANCH * c2, 1)
        p[f"fuse.branch{l}.align.b"] = _bias_init(cf)
    if any(b > 0 for b in branches):
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


def _backbone_single(p: dict[str, Var], img: Var) -> list[Var]:
    levels = []
    for stage in _STAGES:
        feat = levels[-1] if levels else img
        levels.append(ad.conv2d(feat, p[f"backbone.{stage}.w"], p[f"backbone.{stage}.b"], stride=2 if levels else 1, relu=True))
    return levels


def backbone_forward(p: dict[str, Var], x: Var, y: Var) -> list[Var]:
    """Per-modality features from the shared weights, summed level by level."""
    if x.value.shape != y.value.shape:
        raise ad.ShapeError(f"backbone_forward: modality shapes differ, {x.value.shape} vs {y.value.shape}")
    fx = _backbone_single(p, x)
    fy = _backbone_single(p, y)
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
        # resolution, then upsample FUSE_CHANNELS maps instead of the M*C stack
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


def fusion_forward(p: dict[str, Var], x: Var, y: Var, branches: tuple[int, ...]) -> tuple[Var, list[Var]]:
    """Fused image and the shared feature pyramid (for the detection head)."""
    check_image_size(branches, "fusion_forward", *x.value.shape[-2:])
    pyramid = backbone_forward(p, x, y)
    # a generator: each region branch is built only when assemble_fuse takes it,
    # after the pixel branch, which is passed on without a reference kept here
    branch_outs = ((l, branch_output(p, pyramid[l - 1], l)) for l in sorted(b for b in branches if b > 0))
    return assemble_fuse(p, pixel_block(p, x, y), branch_outs), pyramid

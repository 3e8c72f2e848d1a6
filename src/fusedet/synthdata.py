"""Procedural visible/infrared scene pairs with ground-truth boxes, plus PGM/JSON I/O.

Scenes stand in for real registered camera/thermal captures: the visible
channel carries a smooth illumination gradient, band-limited texture and
textured object silhouettes; the infrared channel is a low-texture
background with bright blobs centered on the objects, so the mean
intensity inside boxes always exceeds the outside.  Everything is a pure
function of the scene seed.  A `SceneSpec` chooses the seed, the image
size and the object count range; object sizes, texture amplitude and heat
contrast are module constants.

Dataset layout: <root>/<split>/<scene-id>.vis.pgm / .ir.pgm / .boxes.json
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .metrics import iou_matrix
from .rng import SplitMix64

_PLACEMENT_RETRIES = 64
MIN_SIZE, MAX_SIZE = 0.15, 0.35  # range of each object's box sides, as fractions of the image
TEXTURE_AMP = 0.12  # visible background texture amplitude
HOTSPOT_CONTRAST = 0.6  # scales the random part of each object's infrared heat, above a 0.75 floor


class PgmParseError(ValueError):
    """Malformed PGM input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class SceneSpec:
    """What a scene set varies; a seed pins one concrete scene."""

    seed: int
    width: int = 64
    height: int = 64
    min_objects: int = 1
    max_objects: int = 3

    def __post_init__(self):
        if self.width < 32 or self.height < 32:
            raise ValueError("scene dimensions must be at least 32")
        if self.min_objects < 0 or self.max_objects < self.min_objects:
            raise ValueError("invalid object count range")


@dataclass
class ScenePair:
    """One registered visible/infrared pair with its ground truth."""

    visible: np.ndarray
    infrared: np.ndarray
    boxes: np.ndarray  # (k, 4) rows of (cx, cy, w, h) in [0, 1]
    scene_id: str = ""


def _smooth_noise(rng: SplitMix64, h: int, w: int, passes: int = 2) -> np.ndarray:
    """Band-limited texture: white noise repeatedly box-filtered."""
    img = rng.normals((h, w))
    for _ in range(passes):
        acc = np.zeros_like(img)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                acc += np.roll(np.roll(img, dr, axis=0), dc, axis=1)
        img = acc / 9.0
    return img


def _ellipse_mask(h: int, w: int, cx: float, cy: float, bw: float, bh: float) -> np.ndarray:
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    dy = (ys[:, None] - cy) / (bh / 2.0)
    dx = (xs[None, :] - cx) / (bw / 2.0)
    return (dx * dx + dy * dy) <= 1.0


def generate_scene(spec: SceneSpec) -> ScenePair:
    """Render one deterministic scene pair from its spec."""
    rng = SplitMix64(spec.seed)
    h, w = spec.height, spec.width
    ys = np.linspace(0.0, 1.0, h)[:, None]
    xs = np.linspace(0.0, 1.0, w)[None, :]

    gdir = rng.uniform() * 2.0 * np.pi
    gamp = 0.15 + 0.15 * rng.uniform()
    base = 0.45 + gamp * (np.cos(gdir) * xs + np.sin(gdir) * ys - 0.5)
    visible = base + TEXTURE_AMP * _smooth_noise(rng, h, w)

    infrared = 0.18 + 0.08 * (np.sin(gdir) * xs - 0.5) + 0.02 * _smooth_noise(rng, h, w, passes=3)

    count = rng.randint(spec.min_objects, spec.max_objects)
    boxes: list[list[float]] = []
    for _ in range(count):
        for attempt in range(_PLACEMENT_RETRIES + 1):
            if attempt == _PLACEMENT_RETRIES:
                raise RuntimeError(
                    f"could not place object {len(boxes) + 1} after {_PLACEMENT_RETRIES} retries"
                )
            bw = MIN_SIZE + (MAX_SIZE - MIN_SIZE) * rng.uniform()
            bh = MIN_SIZE + (MAX_SIZE - MIN_SIZE) * rng.uniform()
            cx = bw / 2 + (1.0 - bw) * rng.uniform()
            cy = bh / 2 + (1.0 - bh) * rng.uniform()
            cand = [cx, cy, bw, bh]
            if not np.any(iou_matrix([cand], boxes) > 0):
                boxes.append(cand)
                break
        mask = _ellipse_mask(h, w, cx, cy, bw, bh)
        shade = 0.25 + 0.5 * rng.uniform()
        detail = 0.15 * _smooth_noise(rng, h, w, passes=1)
        visible = np.where(mask, shade + detail, visible)
        heat = 0.75 + HOTSPOT_CONTRAST * 0.3 * rng.uniform()
        falloff = _smooth_noise(rng, h, w, passes=2) * 0.05
        infrared = np.where(mask, heat + falloff, infrared)

    return ScenePair(
        visible=np.clip(visible, 0.0, 1.0),
        infrared=np.clip(infrared, 0.0, 1.0),
        boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
    )


def write_image(path: str | Path, img: np.ndarray) -> None:
    """Binary 8-bit PGM (P5, maxval 255)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"write_image: expected HxW, got shape {img.shape}")
    bad = img.size - int(np.count_nonzero(np.isfinite(img)))
    if bad:
        raise ValueError(f"write_image: {bad} pixel(s) are not finite")
    if img.size and (img.min() < 0.0 or img.max() > 1.0):
        raise ValueError("write_image: pixel values must lie in [0, 1]")
    h, w = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def read_image(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    pos = 0

    def skip_ws_and_comments():
        nonlocal pos
        while pos < len(raw):
            if raw[pos:pos + 1].isspace():
                pos += 1
            elif raw[pos:pos + 1] == b"#":
                nl = raw.find(b"\n", pos)
                pos = len(raw) if nl < 0 else nl + 1
            else:
                return

    def read_token() -> bytes:
        nonlocal pos
        skip_ws_and_comments()
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmParseError("unexpected end of header", start)
        return raw[start:pos]

    magic = read_token()
    if magic != b"P5":
        raise PgmParseError(f"expected P5 magic, found {magic!r}", 0)
    try:
        w = int(read_token())
        h = int(read_token())
        maxval = int(read_token())
    except ValueError:
        raise PgmParseError("non-numeric header field", pos) from None
    if w <= 0 or h <= 0:
        raise PgmParseError(f"bad dimensions {w}x{h}", pos)
    if maxval != 255:
        raise PgmParseError(f"unsupported maxval {maxval}", pos)
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < w * h:
        raise PgmParseError(f"pixel data truncated: need {w * h} bytes, have {len(raw) - pos}", pos)
    data = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
    return data.reshape(h, w).astype(np.float64) / 255.0


def write_annotations(
    path: str | Path, scene_id: str, boxes: np.ndarray, scores: np.ndarray | None = None
) -> None:
    """Box JSON: {"scene": id, "boxes": [{cx, cy, w, h[, score]}]}."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    entries = []
    for i, (cx, cy, bw, bh) in enumerate(boxes):
        entry = {"cx": float(cx), "cy": float(cy), "w": float(bw), "h": float(bh)}
        if scores is not None:
            entry["score"] = float(scores[i])
        entries.append(entry)
    payload = {"scene": scene_id, "boxes": entries}
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def read_annotations(path: str | Path) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Scene id, (n, 4) boxes and scores (None when no box has one) of a box file.

    A malformed file raises ValueError naming the file and its fault.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:
        raise ValueError(f"{path}: not JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    for key in ("scene", "boxes"):
        if key not in payload:
            raise ValueError(f"{path}: no {key!r} field")
    entries = payload["boxes"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'boxes' must be a list, got {type(entries).__name__}")
    for i, b in enumerate(entries):
        if not isinstance(b, dict):
            raise ValueError(f"{path}: box {i} is not an object")
        missing = [key for key in ("cx", "cy", "w", "h") if key not in b]
        if missing:
            raise ValueError(f"{path}: box {i} has no {missing[0]!r}")
        for key in ("cx", "cy", "w", "h", "score"):
            if key in b and (isinstance(b[key], bool) or not isinstance(b[key], (int, float))):
                raise ValueError(f"{path}: box {i}: {key} is not a number: {b[key]!r}")
    boxes = np.array([[b["cx"], b["cy"], b["w"], b["h"]] for b in entries], dtype=np.float64).reshape(-1, 4)
    scores = None
    if any("score" in b for b in entries):
        scores = np.array([b.get("score", 1.0) for b in entries], dtype=np.float64)
    return payload["scene"], boxes, scores


def scene_paths(root: str | Path, split: str, scene_id: str) -> dict[str, Path]:
    base = Path(root) / split
    return {
        "vis": base / f"{scene_id}.vis.pgm",
        "ir": base / f"{scene_id}.ir.pgm",
        "boxes": base / f"{scene_id}.boxes.json",
    }


def write_scene(root: str | Path, split: str, scene_id: str, pair: ScenePair) -> None:
    paths = scene_paths(root, split, scene_id)
    paths["vis"].parent.mkdir(parents=True, exist_ok=True)
    write_image(paths["vis"], pair.visible)
    write_image(paths["ir"], pair.infrared)
    write_annotations(paths["boxes"], scene_id, pair.boxes)


def load_scene(root: str | Path, split: str, scene_id: str) -> ScenePair:
    paths = scene_paths(root, split, scene_id)
    _, boxes, _ = read_annotations(paths["boxes"])
    return ScenePair(
        visible=read_image(paths["vis"]),
        infrared=read_image(paths["ir"]),
        boxes=boxes,
        scene_id=scene_id,
    )


def list_scene_ids(root: str | Path, split: str) -> list[str]:
    base = Path(root) / split
    if not base.is_dir():
        raise FileNotFoundError(f"split directory not found: {base}")
    return sorted(p.name[: -len(".vis.pgm")] for p in base.glob("*.vis.pgm"))


def generate_dataset(
    root: str | Path, split: str, count: int, base_seed: int, **spec_overrides
) -> list[str]:
    """Write `count` scenes whose seeds derive from base_seed; returns their ids."""
    stream = SplitMix64(base_seed)
    ids = []
    for i in range(count):
        scene_seed = stream.derive(zlib.crc32(split.encode("utf-8")), i).next_u64()
        spec = SceneSpec(seed=scene_seed, **spec_overrides)
        pair = generate_scene(spec)
        scene_id = f"scene-{i:04d}"
        write_scene(root, split, scene_id, pair)
        ids.append(scene_id)
    return ids

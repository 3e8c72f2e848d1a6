"""Joint training loop, evaluation, and the two trend experiments.

One iteration: pick a scene, run the fusion head to get the fusion
objective, corrupt the scene's (padded) boxes to a random diffusion step
and score the denoiser's reconstruction, then update — task-private
parameters along their own gradients, shared backbone parameters along
the (optionally aligned) combined gradient.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import diffusion as dif
from . import losses
from . import metrics as met
from . import synthdata as sd
from .autodiff import Tape
from .gmta import StepReport, gmta_step
from .model import ModelConfig, ToyModel
from .fusion_net import FusionNetConfig
from .rng import SplitMix64


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible run needs; JSON round-trippable."""

    seed: int = 0
    iterations: int = 500
    learning_rate: float = 0.05
    task_weights: tuple[float, float] = (0.5, 0.5)
    eta: tuple[float, float, float] = (1.0, 10.0, 1.0)
    gmta: bool = True
    gmta_period: int = 1
    diffusion_steps: int = 1000
    boxes_per_scene: int = 16
    sampling_steps: int = 4
    branches: tuple[int, ...] = (0, 1, 2, 3)
    dataset_root: str = "data"
    train_split: str = "train"
    eval_split: str = "val"
    out_dir: str = "out"

    def to_json(self) -> dict:
        d = asdict(self)
        d["task_weights"] = list(self.task_weights)
        d["eta"] = list(self.eta)
        d["branches"] = list(self.branches)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "RunConfig":
        d = dict(d)
        for key in ("task_weights", "eta", "branches"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            fusion=FusionNetConfig(branches=self.branches),
            boxes_per_scene=self.boxes_per_scene,
            diffusion_steps=self.diffusion_steps,
        )

    def loss_weights(self) -> losses.LossWeights:
        return losses.LossWeights(*self.eta)


@dataclass
class TrainLog:
    records: list[StepReport] = field(default_factory=list)

    def append(self, rec: StepReport) -> None:
        self.records.append(rec)

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records:
                f.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")

    def mean_loss(self, which: str, first: int = 0, last: int | None = None) -> float:
        span = self.records[first:last]
        return float(np.mean([getattr(r, which) for r in span])) if span else float("nan")

    def final_losses(self) -> tuple[float, float]:
        """Mean loss_u and loss_d over the last 20 steps (all of them in a shorter run)."""
        tail = max(1, min(20, len(self.records)))
        return self.mean_loss("loss_u", first=-tail), self.mean_loss("loss_d", first=-tail)


class SceneBatch:
    """A loaded split with the per-scene loss constants cached."""

    def __init__(self, pairs: list[sd.ScenePair]):
        if not pairs:
            raise ValueError("dataset split is empty")
        self.pairs = pairs
        self._cache: dict[int, dict] = {}

    @classmethod
    def from_dir(cls, root: str | Path, split: str) -> "SceneBatch":
        ids = sd.list_scene_ids(root, split)
        return cls([sd.load_scene(root, split, sid) for sid in ids])

    def constants(self, idx: int) -> dict:
        if idx not in self._cache:
            pair = self.pairs[idx]
            h, w = pair.visible.shape
            self._cache[idx] = {
                "mask": losses.object_mask(pair.boxes, h, w),
                "saliency": losses.saliency_weights(pair.visible, pair.infrared),
            }
        return self._cache[idx]


def joint_losses(
    model: ToyModel,
    pair: sd.ScenePair,
    consts: dict,
    weights: losses.LossWeights,
    schedule: dif.DiffusionSchedule,
    rng: SplitMix64,
    n_boxes: int,
):
    """Forward both heads on one tape; returns (loss_u, loss_d)."""
    tape = Tape()
    pvars = model.place(tape)
    x = tape.constant(pair.visible[None])
    y = tape.constant(pair.infrared[None])
    u, pyramid = model.forward_fusion(pvars, x, y)
    loss_u = losses.fusion_loss(u, pair.visible, pair.infrared, consts["mask"], weights, consts["saliency"])
    z0 = dif.pad_boxes(pair.boxes, n_boxes, rng)
    t = rng.randint(1, schedule.steps)
    eps = rng.normals((n_boxes, 4))
    z_t = dif.forward_noise(z0, t, eps, schedule)
    pred = model.forward_denoiser(pvars, pyramid, z_t, t)
    loss_d = dif.detector_loss(pred, z0)
    return loss_u, loss_d


def train(config: RunConfig, batch: SceneBatch | None = None) -> tuple[ToyModel, TrainLog]:
    """Seeded joint training; aborts with context if a loss goes non-finite."""
    if batch is None:
        batch = SceneBatch.from_dir(config.dataset_root, config.train_split)
    model = ToyModel.create(config.model_config(), config.seed)
    schedule = dif.build_schedule(config.diffusion_steps)
    rng = SplitMix64(config.seed).derive(0x7124)
    weights = config.loss_weights()
    log = TrainLog()
    for step in range(config.iterations):
        idx = rng.randint(0, len(batch.pairs) - 1)
        loss_u, loss_d = joint_losses(
            model, batch.pairs[idx], batch.constants(idx), weights, schedule, rng, config.boxes_per_scene
        )
        lu, ld = loss_u.item(), loss_d.item()
        if not (math.isfinite(lu) and math.isfinite(ld)):
            raise FloatingPointError(f"non-finite loss at step {step}: loss_u={lu}, loss_d={ld}")
        rep = gmta_step(
            model.params,
            loss_u,
            loss_d,
            config.task_weights,
            config.learning_rate,
            step,
            period=config.gmta_period,
            align_enabled=config.gmta,
        )
        # the losses reach this step's whole graph; free it before the next forward
        del loss_u, loss_d
        log.append(rep)
    return model, log


def _check_finite(pair: sd.ScenePair) -> None:
    for name, img in (("visible", pair.visible), ("infrared", pair.infrared)):
        bad = np.count_nonzero(~np.isfinite(img))
        if bad:
            raise ValueError(f"scene {pair.scene_id or '<unnamed>'}: {name} image has {bad} non-finite pixel(s)")


def fuse_scene(model: ToyModel, pair: sd.ScenePair) -> np.ndarray:
    """Fused image for one scene; pure function of model and inputs."""
    _check_finite(pair)
    tape = Tape()
    pvars = model.params.constants(tape)
    u, _ = model.forward_fusion(pvars, tape.constant(pair.visible[None]), tape.constant(pair.infrared[None]))
    return u.value


def detect_scene(
    model: ToyModel, pair: sd.ScenePair, steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled boxes plus self-consistency scores in [0, 1].

    The score re-queries the denoiser on the final boxes at the last
    sampling step and maps each box's l2 residual (bounded by the box-space
    diameter 2) to 1 - residual/2.
    """
    _check_finite(pair)
    schedule = dif.build_schedule(model.cfg.diffusion_steps)
    denoiser = model.denoiser_for_scene(pair.visible, pair.infrared)
    rng = SplitMix64(seed).derive(0xDE7EC7)
    boxes = dif.sample(denoiser, model.cfg.boxes_per_scene, steps, schedule, rng)
    grid = dif.sample_time_grid(steps, schedule.steps)
    t_last = grid[-2]  # smallest positive step visited
    again = denoiser(dif.forward_noise(boxes, t_last, np.zeros_like(boxes), schedule), t_last)
    residual = np.sqrt(np.sum((again - boxes) ** 2, axis=1))
    scores = np.clip(1.0 - residual / 2.0, 0.0, 1.0)
    return boxes, scores


def detect_split(
    model: ToyModel, batch: SceneBatch, steps: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(boxes, scores) of every scene; scene i samples with the i-th seed derived from `seed`."""
    return [
        detect_scene(model, pair, steps, SplitMix64(seed).derive(0xE7A1, i).next_u64())
        for i, pair in enumerate(batch.pairs)
    ]


def evaluate_split(
    model: ToyModel, batch: SceneBatch, sampling_steps: int, seed: int
) -> dict:
    """Fusion metrics per scene plus corpus-level detection mAP."""
    fusions = [(fuse_scene(model, pair), pair.visible, pair.infrared) for pair in batch.pairs]
    preds = detect_split(model, batch, sampling_steps, seed)
    detections = [(pred, pair.boxes) for pred, pair in zip(preds, batch.pairs)]
    ids = [pair.scene_id or f"scene-{i:04d}" for i, pair in enumerate(batch.pairs)]
    return met.score_split(ids, fusions, detections)


def _arm_summary(config: RunConfig, train_batch: SceneBatch, eval_batch: SceneBatch) -> dict:
    model, log = train(config, train_batch)
    final_u, final_d = log.final_losses()
    ev = evaluate_split(model, eval_batch, config.sampling_steps, config.seed)
    return {
        "seed": config.seed,
        "final_loss_u": final_u,
        "final_loss_d": final_d,
        **ev["aggregate"],
    }


def _mean_over(rows: list[dict], keys: list[str]) -> dict:
    return {k: float(np.mean([r[k] for r in rows])) for k in keys}


_SUMMARY_KEYS = ["final_loss_u", "final_loss_d", "en", "mi", "vif", "map50", "map5095"]


def load_split_pair(config: RunConfig) -> tuple[SceneBatch, SceneBatch]:
    return (
        SceneBatch.from_dir(config.dataset_root, config.train_split),
        SceneBatch.from_dir(config.dataset_root, config.eval_split),
    )


def experiment_gmta(config: RunConfig, seeds: list[int]) -> dict:
    """Aligned vs plain-sum arms over shared seeds on a held-out split."""
    if not seeds:
        raise ValueError("experiment needs at least one seed")
    train_batch, eval_batch = load_split_pair(config)
    arms: dict[str, list[dict]] = {"with_gmta": [], "without_gmta": []}
    for seed in seeds:
        for name, flag in (("with_gmta", True), ("without_gmta", False)):
            cfg = replace(config, seed=seed, gmta=flag)
            arms[name].append(_arm_summary(cfg, train_batch, eval_batch))
    return {
        "seeds": list(seeds),
        "arms": {
            name: {"runs": rows, "mean": _mean_over(rows, _SUMMARY_KEYS)}
            for name, rows in arms.items()
        },
    }


def experiment_branches(config: RunConfig, branch_sets: list[tuple[int, ...]], seeds: list[int]) -> dict:
    """Fusion/detection metrics per branch set, rows in the given order."""
    if not branch_sets:
        raise ValueError("experiment needs at least one branch set")
    train_batch, eval_batch = load_split_pair(config)
    rows = []
    for branches in branch_sets:
        runs = []
        for seed in seeds:
            cfg = replace(config, seed=seed, branches=tuple(branches))
            runs.append(_arm_summary(cfg, train_batch, eval_batch))
        rows.append(
            {
                "branches": list(branches),
                "runs": runs,
                "mean": _mean_over(runs, _SUMMARY_KEYS),
            }
        )
    return {"seeds": list(seeds), "rows": rows}


def write_experiment_report(out_dir: str | Path, stem: str, report: dict) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    csv_path = out_dir / f"{stem}.csv"
    json_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["group", "seed", *_SUMMARY_KEYS])
        if "arms" in report:
            groups = [(name, arm["runs"], arm["mean"]) for name, arm in sorted(report["arms"].items())]
        else:
            groups = [
                (",".join(str(b) for b in row["branches"]), row["runs"], row["mean"])
                for row in report["rows"]
            ]
        for name, runs, mean_row in groups:
            for run in runs:
                writer.writerow([name, run["seed"], *(run[k] for k in _SUMMARY_KEYS)])
            writer.writerow([name, "mean", *(mean_row[k] for k in _SUMMARY_KEYS)])
    return json_path, csv_path

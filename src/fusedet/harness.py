"""Joint training loop, evaluation, and the experiment arms.

One iteration: pick a scene, run the fusion head to get the fusion
objective, corrupt the scene's (padded) boxes to a random diffusion step
and score the denoiser's reconstruction, then update — task-private
parameters along their own gradients, shared backbone parameters along
the (optionally aligned) combined gradient.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import diffusion as dif
from . import losses
from . import metrics as met
from . import synthdata as sd
from .autodiff import Var
from .gmta import StepReport, gmta_step
from .model import ModelConfig, ToyModel
from .fusion_net import check_image_size
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

    def __post_init__(self):
        """Reject, by field name, settings that no run can use."""
        w = self.task_weights
        for key, ok, rule in (
            ("iterations", self.iterations >= 0, "at least 0"),
            ("gmta_period", self.gmta_period >= 1, "at least 1"),
            ("sampling_steps", self.sampling_steps >= 1, "at least 1"),
            ("learning_rate", math.isfinite(self.learning_rate) and self.learning_rate > 0, "finite and positive"),
            ("task_weights", len(w) == 2 and all(math.isfinite(v) and v >= 0 for v in w) and sum(w) > 0,
             "two finite nonnegative numbers with a positive sum"),
            ("eta", len(self.eta) == 3, "three loss weights"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        try:
            self.loss_weights()
        except ValueError as e:
            raise ValueError(f"eta: {e}") from None
        self.model_config()  # branches, boxes_per_scene and diffusion_steps: its errors name the field

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
        return ModelConfig(tuple(self.branches), self.boxes_per_scene, self.diffusion_steps)

    def loss_weights(self) -> losses.LossWeights:
        return losses.LossWeights(*self.eta)


@dataclass
class TrainLog:
    records: list[StepReport] = field(default_factory=list)

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
    """Forward both heads in one graph; returns (loss_u, loss_d)."""
    pvars = model.params.place()
    x = Var.constant(pair.visible[None])
    y = Var.constant(pair.infrared[None])
    u, pyramid = model.forward_fusion(pvars, x, y)
    loss_u = losses.fusion_loss(u, pair.visible, pair.infrared, consts["mask"], weights, consts["saliency"])
    z0 = dif.pad_boxes(pair.boxes, n_boxes, rng)
    t = rng.randint(1, schedule.steps)
    eps = rng.normals((n_boxes, 4))
    z_t = dif.forward_noise(z0, t, eps, schedule)
    pred = model.forward_denoiser(pvars, pyramid, z_t, t)
    loss_d = dif.detector_loss(pred, z0)
    return loss_u, loss_d


def check_scene_sizes(branches: tuple[int, ...], batch: SceneBatch, op: str) -> None:
    """Reject, by scene id, the first scene whose size the fusion head of `branches` cannot reassemble."""
    for i, pair in enumerate(batch.pairs):
        check_image_size(branches, f"{op}: scene {pair.scene_id or f'scene-{i:04d}'}", *pair.visible.shape)


def train(config: RunConfig, batch: SceneBatch | None = None) -> tuple[ToyModel, TrainLog]:
    """Seeded joint training; rejects unfusable scene sizes up front, aborts if a loss goes non-finite."""
    if batch is None:
        batch = SceneBatch.from_dir(config.dataset_root, config.train_split)
    cfg = config.model_config()
    check_scene_sizes(cfg.branches, batch, "train")
    model = ToyModel.create(cfg, config.seed)
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
        log.records.append(rep)
    return model, log


def _check_finite(pair: sd.ScenePair) -> None:
    for name, img in (("visible", pair.visible), ("infrared", pair.infrared)):
        bad = np.count_nonzero(~np.isfinite(img))
        if bad:
            raise ValueError(f"scene {pair.scene_id or '<unnamed>'}: {name} image has {bad} non-finite pixel(s)")


def _fusion_pass(model: ToyModel, pair: sd.ScenePair) -> tuple[Var, list[Var], dict[str, Var]]:
    """(fused image, pyramid, parameter constants) of one scene's no-gradient fusion forward."""
    _check_finite(pair)
    pvars = model.params.constants()
    u, pyramid = model.forward_fusion(pvars, Var.constant(pair.visible[None]), Var.constant(pair.infrared[None]))
    return u, pyramid, pvars


def fuse_scene(model: ToyModel, pair: sd.ScenePair) -> np.ndarray:
    """Fused image for one scene; pure function of model and inputs."""
    return _fusion_pass(model, pair)[0].value


def _sample_scene(model: ToyModel, denoiser, steps: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Boxes sampled through one scene's denoiser, and their scores (see `detect_scene`)."""
    schedule = dif.build_schedule(model.cfg.diffusion_steps)
    rng = SplitMix64(seed).derive(0xDE7EC7)
    boxes = dif.sample(denoiser, model.cfg.boxes_per_scene, steps, schedule, rng)
    grid = dif.sample_time_grid(steps, schedule.steps)
    t_last = grid[-2]  # smallest positive step visited
    again = denoiser(dif.forward_noise(boxes, t_last, np.zeros_like(boxes), schedule), t_last)
    residual = np.sqrt(np.sum((again - boxes) ** 2, axis=1))
    scores = np.clip(1.0 - residual / 2.0, 0.0, 1.0)
    return boxes, scores


def detect_scene(
    model: ToyModel, pair: sd.ScenePair, steps: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled boxes plus self-consistency scores in [0, 1].

    The score re-queries the denoiser on the final boxes at the last
    sampling step and maps each box's l2 residual (bounded by the box-space
    diameter 2) to 1 - residual/2.
    """
    _check_finite(pair)
    return _sample_scene(model, model.denoiser_for_scene(pair.visible, pair.infrared), steps, seed)


def _scene_seed(seed: int, i: int) -> int:
    """Sampling seed of the i-th scene of a split detected with `seed`."""
    return SplitMix64(seed).derive(0xE7A1, i).next_u64()


def detect_split(
    model: ToyModel, batch: SceneBatch, steps: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(boxes, scores) of every scene; scene i samples with the i-th seed derived from `seed`."""
    return [detect_scene(model, pair, steps, _scene_seed(seed, i)) for i, pair in enumerate(batch.pairs)]


def evaluate_split(
    model: ToyModel, batch: SceneBatch, sampling_steps: int, seed: int
) -> dict:
    """Fusion metrics per scene plus corpus-level detection mAP.

    One backbone pass per scene: detection samples over the pyramid of the
    scene's fusion forward, with `detect_split`'s seeds, so the report is
    the one `fuse_scene` and `detect_split` outputs would give.
    """
    fusions, detections = [], []
    for i, pair in enumerate(batch.pairs):
        u, pyramid, pvars = _fusion_pass(model, pair)
        denoiser = model.denoiser_for_pyramid(pvars, pyramid)
        fusions.append((u.value, pair.visible, pair.infrared))
        detections.append((_sample_scene(model, denoiser, sampling_steps, _scene_seed(seed, i)), pair.boxes))
    ids = [pair.scene_id or f"scene-{i:04d}" for i, pair in enumerate(batch.pairs)]
    return met.score_split(ids, fusions, detections)


SUMMARY_KEYS = ["final_loss_u", "final_loss_d", "en", "mi", "vif", "map50", "map5095"]


def run_arm(config: RunConfig) -> tuple[dict, TrainLog]:
    """Train at the config's seed and score the model on its eval split: (summary row, train log)."""
    model, log = train(config)
    final_u, final_d = log.final_losses()
    ev = evaluate_split(
        model, SceneBatch.from_dir(config.dataset_root, config.eval_split), config.sampling_steps, config.seed
    )
    return {"seed": config.seed, "final_loss_u": final_u, "final_loss_d": final_d, **ev["aggregate"]}, log


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_arms(arms: dict[str, list[RunConfig]]) -> tuple[dict, dict[str, list[TrainLog]]]:
    """`run_arm` for every config of every named arm: the experiment report and each arm's logs.

    The runs are seeded and independent, so they go to min(runs, cpus)
    worker processes.  Each worker starts from a fresh interpreter with one
    BLAS thread, unless the environment sets a count: a forked worker keeps
    the parent's BLAS threads, and on two cores two workers with two
    busy-waiting threads each ran slower than serial runs.  Each result
    lands at its config's place, so the report has the bytes of serial
    runs.  A run is handed out only when a worker is free, so the first run
    to raise re-raises here once the runs in flight end, and no later run
    starts.  Workers import the caller's main module, so a script that
    calls this needs the `if __name__ == "__main__"` guard.
    """
    # imported here: the pool's ~30 modules add ~2 MB to every process that imports harness
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    configs = [cfg for arm_configs in arms.values() for cfg in arm_configs]
    workers = min(len(configs), os.cpu_count() or 1)
    results = [None] * len(configs)
    pinned = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update({var: "1" for var in pinned})  # read by each worker as its first job starts it
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            # not pool.map: it queues one run beyond the workers, which then runs even after a failure
            todo = iter(enumerate(configs))
            running = {pool.submit(run_arm, cfg): i for i, cfg in itertools.islice(todo, workers)}
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    results[running.pop(future)] = future.result()
                running.update({pool.submit(run_arm, cfg): i for i, cfg in itertools.islice(todo, len(done))})
    finally:
        for var in pinned:
            del os.environ[var]
    it = iter(results)
    runs = {name: [next(it) for _ in arm_configs] for name, arm_configs in arms.items()}
    report = experiment_report({name: [row for row, _ in arm_runs] for name, arm_runs in runs.items()})
    return report, {name: [log for _, log in arm_runs] for name, arm_runs in runs.items()}


def experiment_report(runs: dict[str, list[dict]]) -> dict:
    """The summary rows of named arms over shared seeds, with each arm's mean, arms in the given order."""
    return {
        "seeds": [row["seed"] for row in next(iter(runs.values()))],
        "arms": {
            name: {"runs": rows, "mean": {k: float(np.mean([r[k] for r in rows])) for k in SUMMARY_KEYS}}
            for name, rows in runs.items()
        },
    }


def write_experiment_report(out_dir: str | Path, stem: str, report: dict) -> tuple[Path, Path]:
    """The report as JSON, and as CSV with one row per run and one mean row per arm."""
    rows = [
        [name, run["seed"], *(run[k] for k in SUMMARY_KEYS)]
        for name, arm in report["arms"].items()
        for run in (*arm["runs"], {"seed": "mean", **arm["mean"]})
    ]
    return met.write_tables(out_dir, stem, report, ["group", "seed", *SUMMARY_KEYS], rows)

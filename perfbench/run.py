"""fusedet benchmark: seeded workloads timed end to end, or per layer when traced.

    python3 perfbench/run.py --workload train|infer|large|all --seed N --seconds S --trace 0|1

Every workload trains the fixed recipe of `training.py` and serves the
user commands `fuse`, `detect` and `eval` in-process through
`fusedet.cli.main` on a split drawn from the seed:

- `train` times a 200-step training run in the measured phase, then
  serves the commands on 16 held-out single-object 64x64 scenes;
- `infer` makes a 30-step model in set-up and serves the commands on 8
  default 64x64 scenes with 1-3 objects;
- `large` does the same on 2 scenes of 192x128 pixels.

Set-up (writing the splits, and for `infer` and `large` training the
model in a child process) runs three times; `setup_s` is its median.
Command rounds repeat until `--seconds` have passed since the end of
set-up, and at least 10 times after a warm-up round.  End-to-end times
are scaled by the host's speed during the run, from a calibration run
between steps and rounds.  Quality metrics come from a fixed held-out
split.  The outputs are checked (see `checks.py`)
and the last line of standard output is one JSON object: correct,
attempted, failed, metrics.
With `--trace 1` the metrics are the per-layer table of `spans.py`
instead, and the run reports the tracing overhead against untraced runs
of the same work.  `--workload all` runs each workload in its own process.
Details of every run go to `perfbench/results/`.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and the children it starts.  On a
# 2-core host a second BLAS thread contends with the Python thread and with
# other tenants: medians then spread 20-40% from run to run, against about
# 5% with one thread.  Set before numpy is first imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import training  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "work"
RESULTS = BENCH / "results"

MEASURED_STEPS = 200  # training steps timed by the `train` workload
TRACED_STEPS = 60  # steps traced in a `train` trace run, after the untraced run
SETUP_STEPS = 30  # training steps of the model made in set-up
SETUPS = 3
WARMUP_STEPS = 5  # first steps of each training run, left out of the step times
MIN_ROUNDS = 10  # timed command rounds, at the least, after the warm-up round
MIN_TRACED_ROUNDS = 2  # in a trace run: pairs of untraced and traced rounds
LOSS_TAIL = 20  # loss metrics are means over the last LOSS_TAIL steps
SAMPLING_STEPS = 4
# Median of training.calibration_s() on the reference host (see README):
# end-to-end times are reported as if the run had gone at that speed.
REFERENCE_CALIBRATION_S = 0.023
# Quality metrics are scored on a fixed held-out split, so that for a given
# program they read the same in every run; the seeded splits only time.
QUALITY_SCENES = 16
QUALITY_DATA_SEED = 7000
QUALITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    scenes: int
    objects: tuple[int, int]
    size: tuple[int, int]  # width, height
    measured_training: bool  # train in the measured phase, else in set-up


WORKLOADS = {
    "train": Workload(16, (1, 1), (64, 64), True),
    "infer": Workload(8, (1, 3), (64, 64), False),
    "large": Workload(2, (1, 3), (192, 128), False),
}

# Per-layer metrics: (unit, span, time kind), taken per training step
# ("step"), per scene served ("scene"), or per the workload's main unit
# ("main": a step on `train`, a scene elsewhere).  Time kinds are defined
# in spans.py.
LAYER_TIMES = {
    "autodiff.conv2d_ms": ("main", "autodiff.conv2d", "self_s"),
    "autodiff.blur_ms": ("step", "autodiff.blur", "self_s"),
    "autodiff.backward_ms": ("step", "autodiff.backward", "incl_s"),
    "fusion_net.forward_ms": ("main", "fusion_net.fusion_forward", "incl_s"),
    "fusion_net.backbone_ms": ("scene", "fusion_net.backbone_forward", "incl_s"),
    "model.denoiser_ms": ("scene", "model.ToyModel.forward_denoiser", "incl_s"),
    "diffusion.sample_ms": ("scene", "diffusion.sample", "net_s"),
    "losses.ssim_ms": ("step", "losses.ssim_loss", "incl_s"),
    "losses.pixel_ms": ("step", "losses.pixel_loss", "incl_s"),
    "losses.gradient_ms": ("step", "losses.gradient_loss", "incl_s"),
    "harness.forward_ms": ("step", "harness.joint_losses", "incl_s"),
    "gmta.step_ms": ("step", "gmta.gmta_step", "net_s"),
    "gmta.align_ms": ("step", "gmta.align", "incl_s"),
    "metrics.vif_ms": ("scene", "metrics.vif_fusion", "incl_s"),
    "metrics.mi_ms": ("scene", "metrics.mutual_information", "incl_s"),
    "metrics.en_ms": ("scene", "metrics.entropy_en", "incl_s"),
    "metrics.map_eval_ms": ("scene", "metrics.map_eval", "incl_s"),
    "synthdata.read_ms": ("scene", ("synthdata.read_image", "synthdata.read_annotations"), "incl_s"),
    "synthdata.write_ms": ("scene", ("synthdata.write_image", "synthdata.write_annotations"), "incl_s"),
}
LAYER_COUNTS = {
    "autodiff.conv2d_calls": ("main", "autodiff.conv2d"),
    "autodiff.backward_calls": ("step", "autodiff.backward"),
    "fusion_net.backbone_calls": ("scene", "fusion_net.backbone_forward"),
    "model.denoiser_calls": ("scene", "model.ToyModel.forward_denoiser"),
    "gmta.svd_calls": ("step", "gmta.svd"),
    "metrics.iou_calls": ("scene", "metrics.iou"),
}


class Run:
    """One workload run: its inputs, its counters and what it measured."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer(call_spans=("harness.fuse_scene", "harness.detect_scene"), step_span="gmta.gmta_step")
        self.details: dict = {}

    # -- set-up ---------------------------------------------------------

    def set_up(self, root: Path, traced_child: bool) -> None:
        """Write the splits and, unless training is measured, train the model."""
        width, height = self.w.size
        training.write_training_split(self.sd, root)
        self.sd.generate_dataset(
            root, "val", self.w.scenes, self.seed, width=width, height=height,
            min_objects=self.w.objects[0], max_objects=self.w.objects[1],
        )
        if self.w.measured_training:
            self.train_batch = self.harness.SceneBatch.from_dir(root, "train")
        else:
            cmd = [sys.executable, str(BENCH / "training.py"), "--data", str(root), "--steps", str(SETUP_STEPS),
                   "--out", str(root), "--trace", str(int(traced_child))]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        self.val = self.harness.SceneBatch.from_dir(root, "val").pairs

    def set_ups(self) -> list[float]:
        times = []
        models = []
        for k in range(SETUPS):
            root = self.dir / f"setup{k}"
            last = k == SETUPS - 1
            t0 = time.perf_counter()
            with self.tracer.tracing("setup") if self.trace else contextlib.nullcontext():
                self.set_up(root, traced_child=self.trace and last)
            times.append(time.perf_counter() - t0)
            if not self.w.measured_training:
                models.append((root / "model.json").read_bytes())
                self.setup_training = json.loads((root / "training.json").read_text(encoding="utf-8"))
                self.setup_step_s.extend(self.setup_training["step_s"][WARMUP_STEPS:])
                self.calibrations.extend(self.setup_training["calibration_s"])
            if not last:
                shutil.rmtree(root)
        self.root = self.dir / f"setup{SETUPS - 1}"
        for again in models[1:]:
            checks.identical(models[0], again, "model made by the seeded set-up")
        return times

    # -- training -------------------------------------------------------

    def training_phase(self) -> tuple[list[float], list, dict]:
        """Step times (s), the log records and trace data of the workload's training."""
        if self.w.measured_training:
            model, log, times = training.timed_train(self.harness, self.train_batch, MEASURED_STEPS, self.calibrations)
            self.attempted += MEASURED_STEPS
            self.model_path = self.root / "model.json"
            model.save(self.model_path)
            trace = {}
            if self.trace:
                # the first TRACED_STEPS steps again: the same work as the
                # start of the untraced run, which gives the overhead
                with self.tracer.tracing("train"):
                    _, _, traced = training.timed_train(self.harness, self.train_batch, TRACED_STEPS)
                trace = {"untraced_step_s": times[:TRACED_STEPS], "traced_step_s": traced}
            records = [training.record_json(r) for r in log.records]
            self.model = model
            return times[WARMUP_STEPS:], records, trace
        # the model came from the set-up children; use their step times
        self.model_path = self.root / "model.json"
        self.model = self.ToyModel.load(self.model_path)
        info = self.setup_training
        trace = {}
        if self.trace:
            t = info["trace"]
            for phase, table in t["tables"].items():
                self.tracer.tables.setdefault(phase, {}).update(table)
            self.tracer.op_calls.update(t["ops"])
            self.tracer.retained.update(t["retained"])
            self.tracer.peaks.update(t["peaks"])
            trace = {"untraced_step_s": info["step_s"], "traced_step_s": t["traced_step_s"]}
        return self.setup_step_s, info["records"], trace

    # -- command rounds -------------------------------------------------

    def command(self, argv: list[str]) -> tuple[int, float]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        dt = time.perf_counter() - t0
        # each command normally runs in a process of its own, which frees
        # its garbage on exit; collect it here so that rounds stay alike
        gc.collect()
        self.attempted += 1
        if code != 0:
            self.failed += 1
        return code, dt

    def round(self) -> dict:
        """fuse, detect and eval on the split, each timed; returns seconds per scene by command."""
        root, out = self.root, self.root / "out"
        shutil.rmtree(out, ignore_errors=True)
        common = ["--dataset-root", str(root), "--split", "val", "--seed", str(self.seed)]
        n = len(self.val)
        code_f, t_f = self.command(["fuse", "--model", str(self.model_path), *common, "--out", str(out / "fused")])
        code_d, t_d = self.command(["detect", "--model", str(self.model_path), *common, "--steps", str(SAMPLING_STEPS),
                                    "--out", str(out / "preds")])
        code_e, t_e = self.command(["eval", *common, "--fused-dir", str(out / "fused"), "--pred-dir", str(out / "preds"),
                                    "--out", str(out / "report")])
        self.check_round(out, code_f, code_d, code_e)
        return {"fuse": t_f / n, "detect": t_d / n, "eval": t_e / n}

    def check_round(self, out: Path, code_f: int, code_d: int, code_e: int) -> None:
        """Check the outputs of the commands that exited 0; a failed command is counted, not checked."""
        ids = [p.scene_id for p in self.val]
        files = {}
        if code_f == 0:
            checks.cli_outputs(out / "fused", ids, ".fused.pgm", "fuse")
        if code_d == 0:
            checks.cli_outputs(out / "preds", ids, ".boxes.json", "detect")
        if not code_f == code_d == code_e == 0:
            return
        checks.cli_outputs(out / "report", ["metrics"], ".json", "eval")
        report = json.loads((out / "report" / "metrics.json").read_text(encoding="utf-8"))
        rows = {r["scene-id"]: r for r in report["scenes"]}
        for pair in self.val:
            sid = pair.scene_id
            fused_path = out / "fused" / f"{sid}.fused.pgm"
            pred_path = out / "preds" / f"{sid}.boxes.json"
            fused = self.sd.read_image(fused_path)
            checks.fused_image(fused, pair.visible.shape, f"fuse {sid}")
            checks.en_mi(fused, pair.visible, pair.infrared, rows[sid]["en"], rows[sid]["mi"], f"eval {sid}")
            _, boxes, scores = self.sd.read_annotations(pred_path)
            checks.boxes(boxes, scores, self.model.cfg.boxes_per_scene, f"detect {sid}")
            files[fused_path.name] = fused_path.read_bytes()
            files[pred_path.name] = pred_path.read_bytes()
        files["metrics.json"] = (out / "report" / "metrics.json").read_bytes()
        if self.first_outputs is None:
            self.first_outputs = files
        else:
            for name, data in files.items():
                checks.identical(self.first_outputs[name], data, f"{name} in a later round")

    def rounds(self) -> tuple[list[dict], list[dict]]:
        """Untraced rounds, and in a trace run traced rounds alternating with them."""
        self.first_outputs = None
        plain, traced = [], []
        self.round()  # warm-up
        t_end = self.t_measure + self.seconds
        least = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
        while len(plain) < least or time.perf_counter() < t_end:
            self.calibrations.append(training.calibration_s())
            plain.append(self.round())
            self.calibrations.append(training.calibration_s())
            if self.trace:
                with self.tracer.tracing("infer"):
                    traced.append(self.round())
        return plain, traced

    # -- one-off checks -------------------------------------------------

    def final_checks(self, records: list, window: int) -> None:
        met = self.met
        for pair in self.val:
            checks.fused_image(self.harness.fuse_scene(self.model, pair), pair.visible.shape, f"fuse_scene {pair.scene_id}")
        first = self.val[0]
        for src, img in (("visible", first.visible), ("infrared", first.infrared)):
            checks.vif_identity(met.vif_fusion(img, img, img) / 2.0, f"VIF({src} -> {src})")
        gts = [p.boxes for p in self.val]
        checks.map_identity(met.map_eval([(g, np.ones(len(g))) for g in gts], gts).map5095, "map_eval")
        checks.gmta_records(records)
        checks.losses_fall([r["loss_u"] for r in records], [r["loss_d"] for r in records], window)

    # -- the run --------------------------------------------------------

    def execute(self) -> dict:
        training.import_program()
        from fusedet import cli, harness
        from fusedet import metrics as met
        from fusedet import synthdata as sd
        from fusedet.model import ToyModel

        self.cli, self.harness, self.met, self.sd, self.ToyModel = cli, harness, met, sd, ToyModel
        self.setup_step_s: list[float] = []
        self.calibrations: list[float] = []
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            setup_s = self.set_ups()
            self.t_measure = time.perf_counter()
            step_s, records, train_trace = self.training_phase()
            plain, traced = self.rounds()
            window = LOSS_TAIL if len(records) >= 2 * LOSS_TAIL else len(records) // 3
            self.final_checks(records, window)
            quality = self.quality()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        # how much slower than the reference host this run went
        slow = statistics.median(self.calibrations) / REFERENCE_CALIBRATION_S
        self.details = {"setup_s": setup_s, "step_s": step_s, "rounds": plain, "quality": quality,
                        "calibration_s": self.calibrations, "slowdown": slow}
        if self.trace:
            metrics = self.layer_metrics(plain, traced, train_trace, quality["matched_share"])
        else:
            tail = records[-LOSS_TAIL:]
            metrics = {
                "setup_s": statistics.median(setup_s) / slow,
                "train_step_ms": 1e3 * statistics.median(step_s) / slow,
                "train_step_p90_ms": 1e3 * statistics.quantiles(step_s, n=10)[-1] / slow,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "fuse_ms": 1e3 * statistics.median(r["fuse"] for r in plain) / slow,
                "detect_ms": 1e3 * statistics.median(r["detect"] for r in plain) / slow,
                "eval_ms": 1e3 * statistics.median(r["eval"] for r in plain) / slow,
                "loss_u": statistics.fmean(r["loss_u"] for r in tail),
                "loss_d": statistics.fmean(r["loss_d"] for r in tail),
                "vif": quality["vif"],
                "mi": quality["mi"],
                "best_iou": quality["best_iou"],
            }
        units = declared_units("per_layer" if self.trace else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    def quality(self) -> dict:
        """Fusion and detection quality of the workload's model on the fixed held-out split."""
        sd, harness = self.sd, self.harness
        root = self.dir / "quality"
        sd.generate_dataset(root, "val", QUALITY_SCENES, QUALITY_DATA_SEED, min_objects=1, max_objects=1)
        batch = harness.SceneBatch.from_dir(root, "val")
        ev = harness.evaluate_split(self.model, batch, SAMPLING_STEPS, QUALITY_SEED)
        self.attempted += len(batch.pairs)
        # the detect seeds evaluate_split derives, so these are the boxes it scored
        preds = [
            harness.detect_scene(self.model, p, SAMPLING_STEPS, harness.SplitMix64(QUALITY_SEED).derive(0xE7A1, i).next_u64())[0]
            for i, p in enumerate(batch.pairs)
        ]
        best, matched = box_quality(preds, [p.boxes for p in batch.pairs])
        agg = ev["aggregate"]
        return {"vif": agg["vif"], "mi": agg["mi"], "en": agg["en"], "map5095": agg["map5095"],
                "best_iou": best, "matched_share": matched}

    def layer_metrics(self, plain, traced, train_trace, matched) -> dict:
        tr = self.tracer
        steps = len(train_trace["traced_step_s"])
        scenes = len(traced) * len(self.val)
        units = {"step": ("train", steps), "scene": ("infer", scenes)}
        units["main"] = units["step"] if self.w.measured_training else units["scene"]
        out = {}
        for metric, (unit, spans, kind) in LAYER_TIMES.items():
            phase, count = units[unit]
            spans = (spans,) if isinstance(spans, str) else spans
            out[metric] = 1e3 * sum(tr.row(phase, s)[kind] for s in spans) / count
        for metric, (unit, span) in LAYER_COUNTS.items():
            phase, count = units[unit]
            out[metric] = tr.row(phase, span)["calls"] / count
        main_phase, main_count = units["main"]
        out["autodiff.op_calls"] = tr.ops(main_phase) / main_count
        out["autodiff.peak_mb"] = tr.peaks.get(main_phase, 0) / 2**20
        held = tr.retained.get(main_phase, {})
        out["autodiff.retained_mb"] = sum(statistics.median(v) for v in held.values()) / 2**20
        out["metrics.matched_share"] = matched
        out["synthdata.generate_ms"] = 1e3 * tr.row("setup", "synthdata.generate_scene")["incl_s"] / SETUPS
        untraced, traced_steps = train_trace["untraced_step_s"], train_trace["traced_step_s"]
        out["trace.train_overhead_pct"] = 100.0 * (sum(traced_steps) / sum(untraced) - 1.0)
        per_round = lambda rs: statistics.median(r["fuse"] + r["detect"] + r["eval"] for r in rs)  # noqa: E731
        out["trace.infer_overhead_pct"] = 100.0 * (per_round(traced) / per_round(plain) - 1.0)
        self.details["layers"] = tr.tables
        return out


def declared_units(kind: str) -> dict[str, str]:
    """Units of the `end_to_end` or `per_layer` metrics that BENCHMARK.json declares."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def box_quality(preds: list[np.ndarray], gts: list[np.ndarray]) -> tuple[float, float]:
    """Mean best IoU per ground-truth box, and the share of predictions matched at IoU 0.5."""
    best, matched, total = [], 0, 0
    for p, g in zip(preds, gts):
        iou = pairwise_iou(p, g)
        best.extend(iou.max(axis=0))
        matched += int(np.sum(iou.max(axis=1) >= 0.5))
        total += p.shape[0]
    return float(np.mean(best)), matched / total


def pairwise_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU matrix of (cx, cy, w, h) boxes, rows of `a` against rows of `b`."""
    a0, a1 = a[:, None, :2] - a[:, None, 2:] / 2, a[:, None, :2] + a[:, None, 2:] / 2
    b0, b1 = b[None, :, :2] - b[None, :, 2:] / 2, b[None, :, :2] + b[None, :, 2:] / 2
    inter = np.prod(np.clip(np.minimum(a1, b1) - np.maximum(a0, b0), 0.0, None), axis=2)
    union = np.prod(a[:, None, 2:], axis=2) + np.prod(b[None, :, 2:], axis=2) - inter
    return inter / union


def run_one(args) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = run.execute()
    except checks.CheckFailed as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed, "metrics": {}}))
        return 1
    result = {"correct": True, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": run.details}, indent=1) + "\n", encoding="utf-8"
    )
    for name, m in metrics.items():
        print(f"{args.workload:6s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; metrics are prefixed by the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    training.steady_allocator()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

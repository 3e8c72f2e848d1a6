"""Command-line front end.

Subcommands: gen, train, fuse, detect, eval, gmta-demo, exp-gmta,
exp-branches.  A run is configured by an optional JSON config file (same
field names as RunConfig) plus flag overrides; every command takes
--seed.  Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import gmta, harness
from . import metrics as met
from . import synthdata as sd
from .fusion_net import check_image_size
from .harness import RunConfig
from .model import ToyModel


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract here is 1
        raise _UsageError(message)


_RUN_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _load_config(args) -> RunConfig:
    """The config file's fields, overridden by every flag whose dest names a RunConfig field."""
    base = {}
    if getattr(args, "config", None):
        base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(base, dict):
            raise _UsageError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(base) - _RUN_FIELDS)
        if unknown:
            raise _UsageError(f"unknown key(s) in config {args.config}: {', '.join(unknown)}")
    overrides = {k: v for k, v in vars(args).items() if k in _RUN_FIELDS and v is not None}
    if "branches" in overrides:
        overrides["branches"] = _parse_ints(overrides["branches"], "branch")
    try:
        return RunConfig.from_json({**base, **overrides})
    except (TypeError, ValueError) as e:
        raise _UsageError(f"bad run config: {e}") from None


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise _UsageError(f"bad {what} list {text!r}; expected comma-separated integers") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON run config")
    p.add_argument("--dataset-root", dest="dataset_root", type=str, default=None)
    p.add_argument("--out", dest="out_dir", type=str, default=None)


@functools.cache  # one tree per process: building it costs ~30x a parse
def _build_parser() -> _Parser:
    parser = _Parser(prog="fusedet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a synthetic dataset split")
    _add_common(p)
    p.add_argument("--split", type=str, default="train")
    p.add_argument("--scenes", type=int, default=200)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)

    p = subs.add_parser("train", help="train the joint model")
    _add_common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--gmta", dest="gmta", action="store_true", default=None)
    p.add_argument("--no-gmta", dest="gmta", action="store_false")
    p.add_argument("--gmta-period", dest="gmta_period", type=int, default=None)
    p.add_argument("--branches", type=str, default=None)

    p = subs.add_parser("fuse", help="write fused images for a split")
    _add_common(p)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--split", type=str, default="val")

    p = subs.add_parser("detect", help="write box predictions for a split")
    _add_common(p)
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--split", type=str, default="val")
    p.add_argument("--steps", dest="sampling_steps", type=int, default=None)

    p = subs.add_parser("eval", help="score fused images and/or predictions against a split")
    _add_common(p)
    p.add_argument("--split", type=str, default="val")
    p.add_argument("--pred-dir", type=str, default=None)
    p.add_argument("--fused-dir", type=str, default=None)

    p = subs.add_parser("gmta-demo", help="align a matrix and print the report")
    _add_common(p)
    p.add_argument("--matrix", type=str, default=None, help='JSON rows, e.g. "[[2,0],[0,1]]"')
    p.add_argument("--rows", type=int, default=8, help="random matrix height when no --matrix")

    p = subs.add_parser("exp-gmta", help="aligned vs plain-sum training arms")
    _add_common(p)
    p.add_argument("--seeds", type=str, default="0,1,2,3,4")
    p.add_argument("--iterations", type=int, default=None)

    p = subs.add_parser("exp-branches", help="branch-set sweep")
    _add_common(p)
    p.add_argument("--seeds", type=str, default="0,1,2,3,4")
    p.add_argument("--branch-sets", type=str, default="0;0,1;0,1,2;0,1,2,3")
    p.add_argument("--iterations", type=int, default=None)

    return parser


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    if args.scenes < 1:
        raise _UsageError(f"--scenes must be at least 1, got {args.scenes}")
    try:
        sd.SceneSpec(seed=cfg.seed, width=args.width, height=args.height)
        check_image_size(cfg.branches, "gen", args.height, args.width)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    ids = sd.generate_dataset(
        cfg.dataset_root, args.split, args.scenes, cfg.seed, width=args.width, height=args.height
    )
    print(f"wrote {len(ids)} scenes to {Path(cfg.dataset_root) / args.split}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, log = harness.train(cfg)
    model.save(out / "model.json")
    log.to_jsonl(out / "trainlog.jsonl")
    # invocation paths stay out of the artifact so reruns are byte-comparable
    saved = {k: v for k, v in cfg.to_json().items() if k not in ("dataset_root", "out_dir")}
    (out / "run_config.json").write_text(json.dumps(saved, sort_keys=True, indent=1) + "\n")
    final_u, final_d = log.final_losses()
    print(f"trained {cfg.iterations} iterations; final loss_u={final_u:.6f} loss_d={final_d:.6f}")
    return 0


def _cmd_fuse(args) -> int:
    cfg = _load_config(args)
    model = ToyModel.load(args.model)
    batch = harness.SceneBatch.from_dir(cfg.dataset_root, args.split)
    harness.check_scene_sizes(model.cfg.branches, batch, "fuse")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pair in batch.pairs:
        fused = harness.fuse_scene(model, pair)
        sd.write_image(out / f"{pair.scene_id}.fused.pgm", fused)
    print(f"wrote {len(batch.pairs)} fused images to {out}")
    return 0


def _cmd_detect(args) -> int:
    cfg = _load_config(args)
    model = ToyModel.load(args.model)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    batch = harness.SceneBatch.from_dir(cfg.dataset_root, args.split)
    preds = harness.detect_split(model, batch, cfg.sampling_steps, cfg.seed)
    for pair, (boxes, scores) in zip(batch.pairs, preds):
        sd.write_annotations(out / f"{pair.scene_id}.boxes.json", pair.scene_id, boxes, scores)
    print(f"wrote predictions for {len(batch.pairs)} scenes to {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    if not args.pred_dir and not args.fused_dir:
        raise _UsageError("eval needs --pred-dir and/or --fused-dir")
    batch = harness.SceneBatch.from_dir(cfg.dataset_root, args.split)
    fusions = detections = None
    if args.fused_dir:
        fusions = [
            (sd.read_image(Path(args.fused_dir) / f"{p.scene_id}.fused.pgm"), p.visible, p.infrared)
            for p in batch.pairs
        ]
    if args.pred_dir:
        detections = []
        for pair in batch.pairs:
            _, boxes, scores = sd.read_annotations(Path(args.pred_dir) / f"{pair.scene_id}.boxes.json")
            detections.append(((boxes, np.ones(boxes.shape[0]) if scores is None else scores), pair.boxes))
    report = met.score_split([p.scene_id for p in batch.pairs], fusions, detections)
    json_path, csv_path = met.write_reports(cfg.out_dir, report["scenes"], report["aggregate"])
    print(json.dumps(report["aggregate"], sort_keys=True))
    print(f"reports: {json_path} {csv_path}")
    return 0


def _matrix_arg(text: str) -> np.ndarray:
    """The --matrix flag as a tall, finite, not all-zero float matrix."""
    try:
        g = np.array(json.loads(text), dtype=np.float64)
    except json.JSONDecodeError:
        raise _UsageError(f"--matrix is not JSON: {text!r}") from None
    except (TypeError, ValueError):  # ragged rows or non-numbers
        g = None
    if g is None or g.ndim != 2:
        raise _UsageError(f"--matrix must be a 2-D array of numbers, got {text!r}")
    if g.shape[0] < g.shape[1]:
        raise _UsageError(f"--matrix needs at least as many rows as columns, got {g.shape[0]}x{g.shape[1]}")
    if not np.isfinite(g).all():
        raise _UsageError(f"--matrix has non-finite entries: {text!r}")
    if not g.any():
        raise _UsageError("--matrix is all zero")
    return g


def _cmd_gmta_demo(args) -> int:
    cfg = _load_config(args)
    if args.matrix:
        g = _matrix_arg(args.matrix)
    elif args.rows < 2:
        raise _UsageError(f"--rows must be at least 2, got {args.rows}")
    else:
        g = harness.SplitMix64(cfg.seed).normals((args.rows, 2))
    g_hat, report = gmta.align(g)
    payload = report.to_json()
    payload["g_hat"] = [[float(v) for v in row] for row in g_hat]
    print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def _arm(cfg: RunConfig, seeds: list[int], **changes) -> list[RunConfig]:
    """The config of one experiment arm at each seed; a setting no run can use is a usage error."""
    if not seeds:
        raise _UsageError("an experiment needs at least one seed")
    if cfg.iterations < 1:  # an untrained arm has no final losses to report
        raise _UsageError(f"an experiment needs iterations of at least 1, got {cfg.iterations}")
    try:
        return [dataclasses.replace(cfg, seed=seed, **changes) for seed in seeds]
    except ValueError as e:
        raise _UsageError(f"bad run config: {e}") from None


def _run_experiment(out_dir: str, stem: str, arms: dict[str, list[RunConfig]]) -> int:
    """Run every config of every arm, then write and print their report."""
    report, _ = harness.run_arms(arms)
    json_path, csv_path = harness.write_experiment_report(out_dir, stem, report)
    print(json.dumps({name: arm["mean"] for name, arm in report["arms"].items()}, sort_keys=True))
    print(f"reports: {json_path} {csv_path}")
    return 0


def _cmd_exp_gmta(args) -> int:
    cfg = _load_config(args)
    seeds = _parse_ints(args.seeds, "seed")
    arms = {"with_gmta": _arm(cfg, seeds, gmta=True), "without_gmta": _arm(cfg, seeds, gmta=False)}
    return _run_experiment(cfg.out_dir, "exp_gmta", arms)


def _cmd_exp_branches(args) -> int:
    cfg = _load_config(args)
    seeds = _parse_ints(args.seeds, "seed")
    branch_sets = [tuple(_parse_ints(part, "branch")) for part in args.branch_sets.split(";") if part]
    arms = {",".join(map(str, b)): _arm(cfg, seeds, branches=b) for b in branch_sets}
    if not arms or len(set(map(frozenset, branch_sets))) < len(branch_sets):
        raise _UsageError(f"bad branch sets {args.branch_sets!r}; expected distinct sets separated by ';'")
    return _run_experiment(cfg.out_dir, "exp_branches", arms)


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "fuse": _cmd_fuse,
    "detect": _cmd_detect,
    "eval": _cmd_eval,
    "gmta-demo": _cmd_gmta_demo,
    "exp-gmta": _cmd_exp_gmta,
    "exp-branches": _cmd_exp_branches,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures map to exit 2 by contract
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

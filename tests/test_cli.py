"""CLI surface: subcommands, exit codes, config overrides, byte-determinism."""

import argparse
import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fusedet import cli, harness
from fusedet import synthdata as sd
from fusedet.cli import main
from fusedet.harness import RunConfig
from fusedet.model import ModelConfig, ToyModel


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["gen", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_usage_error(self):
        assert main(["launch"]) == 1

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        rc = main(["train", "--dataset-root", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err.lower()

    # eta: the loss weights are constants of `losses`, so a run_config.json that holds them is rejected
    @pytest.mark.parametrize("key, value", [("bogus", 2), ("eta", [1.0, 10.0, 1.0])])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, key: value}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    def test_eval_requires_inputs(self, tmp_path, tiny_dataset):
        rc = main(["eval", "--dataset-root", str(tiny_dataset), "--split", "val", "--out", str(tmp_path)])
        assert rc == 1


class TestRunSettings:
    """Settings no run can use are usage errors naming the key, found before any data is read."""

    @pytest.mark.parametrize("argv, key", [
        (["train", "--gmta-period", "0"], "gmta_period"),
        (["train", "--iterations", "-1"], "iterations"),
        (["train", "--learning-rate", "-5"], "learning_rate"),
        (["train", "--learning-rate", "nan"], "learning_rate"),
        (["detect", "--model", "m.json", "--steps", "0"], "sampling_steps"),
        (["train", "--branches", "0,9"], "branch ids [9]"),
        (["train", "--branches", "1,2"], "pixel branch 0"),
    ])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, argv, key):
        # the dataset root does not exist: reading it first would exit 2
        rc = main([*argv, "--dataset-root", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("task_weights", [-1, 2]),
        ("task_weights", [0, 0]),
        ("task_weights", [1, float("inf")]),
        ("task_weights", [1, 2, 3]),
        ("diffusion_steps", 0),
        ("boxes_per_scene", 0),
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main(["train", "--config", str(cfg), "--dataset-root", str(tmp_path / "missing"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert key in capsys.readouterr().err

    def test_zero_iterations_stay_legal(self):
        assert RunConfig(iterations=0).iterations == 0


# a flag value per RunConfig field, and a config-file value it must override
_FLAG_VALUES = {
    "seed": ("5", 5, 1),
    "iterations": ("7", 7, 1),
    "learning_rate": ("0.25", 0.25, 1.0),
    "gmta_period": ("3", 3, 1),
    "sampling_steps": ("2", 2, 1),
    "branches": ("0,2", (0, 2), [0]),
    "dataset_root": ("flag-data", "flag-data", "file-data"),
    "out_dir": ("flag-out", "flag-out", "file-out"),
}


def test_every_flag_named_after_a_run_config_field_reaches_the_config(tmp_path):
    parser = cli._build_parser()
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    reached = set()
    for command, sub in subs.choices.items():
        required = [arg for a in sub._actions if a.required for arg in (a.option_strings[0], "x")]
        for action in sub._actions:
            if action.dest not in fields:
                continue
            if action.nargs == 0:  # --gmta / --no-gmta store a constant
                flag, want, file_value = [], action.const, not action.const
            else:
                text, want, file_value = _FLAG_VALUES[action.dest]
                flag = [text]
            cfg_path = tmp_path / f"{command}-{action.dest}.json"
            cfg_path.write_text(json.dumps({action.dest: file_value}))
            args = parser.parse_args([command, *required, "--config", str(cfg_path), action.option_strings[0], *flag])
            assert getattr(cli._load_config(args), action.dest) == want, (command, action.option_strings)
            reached.add((command, action.dest))
    assert {("train", "gmta"), ("train", "branches"), ("detect", "sampling_steps"), ("exp-gmta", "iterations")} <= reached
    assert {dest for _, dest in reached} == set(_FLAG_VALUES) | {"gmta"}


class TestGen:
    def test_gen_twice_identical_checksums(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            assert main(["gen", "--seed", "7", "--scenes", "5", "--dataset-root", str(root), "--split", "train"]) == 0
        assert _tree_digest(a) == _tree_digest(b)

    def test_gen_writes_expected_layout(self, tmp_path):
        assert main(["gen", "--seed", "3", "--scenes", "2", "--dataset-root", str(tmp_path), "--split", "val"]) == 0
        names = sorted(p.name for p in (tmp_path / "val").iterdir())
        assert names == [
            "scene-0000.boxes.json", "scene-0000.ir.pgm", "scene-0000.vis.pgm",
            "scene-0001.boxes.json", "scene-0001.ir.pgm", "scene-0001.vis.pgm",
        ]

    @pytest.mark.parametrize("argv, message", [
        (["--width", "65"], "is not a multiple of 4 on each side"),
        (["--height", "65"], "is not a multiple of 4 on each side"),
        (["--width", "28", "--height", "32"], "scene dimensions must be at least 32"),
        (["--scenes", "-1"], "--scenes must be at least 1"),
        (["--scenes", "0"], "--scenes must be at least 1"),
    ])
    def test_gen_rejects_bad_size_or_count_before_writing(self, tmp_path, capsys, argv, message):
        rc = main(["gen", "--scenes", "1", "--dataset-root", str(tmp_path), *argv])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "train").exists()


class TestFuse:
    def test_unfusable_scene_rejected_by_id_before_any_output(self, tmp_path, tiny_dataset, capsys):
        root = tmp_path / "data"
        for sid in sd.list_scene_ids(tiny_dataset, "val"):
            sd.write_scene(root, "val", sid, sd.load_scene(tiny_dataset, "val", sid))
        pair = sd.load_scene(tiny_dataset, "val", "scene-0000")
        # sorted last, so the old per-scene check would have written every other scene first
        wide = np.pad(pair.visible, ((0, 0), (0, 2)))
        sd.write_scene(root, "val", "scene-9999", dataclasses.replace(pair, visible=wide, infrared=wide))
        model = tmp_path / "model.json"
        ToyModel.create(ModelConfig(), 0).save(model)
        out = tmp_path / "fused"
        argv = ["fuse", "--model", str(model), "--dataset-root", str(root), "--split", "val", "--out", str(out)]
        assert main(argv) == 2
        assert "fuse: scene scene-9999: image size 64x66 is not a multiple of 4" in capsys.readouterr().err
        assert not out.exists()


class TestDetect:
    def test_model_file_with_a_bad_config_exits_two_naming_the_field(self, tmp_path, tiny_dataset, capsys):
        model = tmp_path / "model.json"
        ToyModel.create(ModelConfig(), 0).save(model)
        payload = json.loads(model.read_text())
        payload["config"]["boxes_per_scene"] = 0
        model.write_text(json.dumps(payload))
        out = tmp_path / "pred"
        argv = ["detect", "--model", str(model), "--dataset-root", str(tiny_dataset), "--split", "val", "--out", str(out)]
        assert main(argv) == 2
        assert "error: model file config: boxes_per_scene must be an integer of at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


class TestExperiments:
    @pytest.mark.parametrize("argv", [
        ["exp-branches", "--seeds", ""],
        ["exp-branches", "--branch-sets", ";"],
        ["exp-branches", "--branch-sets", "0;1,2"],
        ["exp-branches", "--branch-sets", "0;0,1;0"],
        ["exp-branches", "--branch-sets", "0,1;1,0"],
        ["exp-branches", "--branch-sets", "0,0,1"],
        ["exp-branches", "--iterations", "0"],
        ["exp-gmta", "--seeds", ""],
        ["exp-gmta", "--iterations", "0"],
    ])
    def test_bad_input_is_usage_error_before_any_training(self, tmp_path, tiny_dataset, monkeypatch, argv):
        calls = []
        # run_arms trains in worker processes, which a patched harness.train does not reach
        monkeypatch.setattr(harness, "train", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(harness, "run_arms", lambda *a, **kw: calls.append(a))
        out = tmp_path / "o"
        command, *flags = argv
        assert main([command, "--dataset-root", str(tiny_dataset), "--iterations", "1", "--out", str(out), *flags]) == 1
        assert calls == [] and not out.exists()

    def test_a_failing_run_exits_two_naming_the_scene_and_writes_no_report(self, tmp_path, tiny_dataset, capsys):
        root = tmp_path / "data"
        pair = sd.load_scene(tiny_dataset, "train", "scene-0000")
        wide = np.pad(pair.visible, ((0, 0), (0, 2)))
        sd.write_scene(root, "train", "scene-0000", pair)
        sd.write_scene(root, "train", "scene-0001", dataclasses.replace(pair, visible=wide, infrared=wide))
        out = tmp_path / "o"
        rc = main(["exp-gmta", "--dataset-root", str(root), "--seeds", "0", "--iterations", "1", "--out", str(out)])
        assert rc == 2
        assert "train: scene scene-0001: image size 64x66 is not a multiple of 4" in capsys.readouterr().err
        assert not out.exists() and not multiprocessing.active_children()

    @pytest.mark.parametrize("argv, stem, arms", [
        (["exp-gmta"], "exp_gmta", ["with_gmta", "without_gmta"]),
        (["exp-branches", "--branch-sets", "0;0,1"], "exp_branches", ["0", "0,1"]),
    ])
    def test_runs_and_writes_one_report_shape(self, tmp_path, tiny_dataset, capsys, argv, stem, arms):
        out = tmp_path / "o"
        rc = main([*argv, "--dataset-root", str(tiny_dataset), "--seeds", "0", "--iterations", "2", "--out", str(out)])
        assert rc == 0
        assert list(json.loads(capsys.readouterr().out.splitlines()[0])) == sorted(arms)
        report = json.loads((out / f"{stem}.json").read_text(), parse_constant=_reject_constant)
        assert report["seeds"] == [0] and sorted(report["arms"]) == sorted(arms)
        with open(out / f"{stem}.csv", newline="") as f:
            lines = list(csv.reader(f))
        assert lines[0] == ["group", "seed", "final_loss_u", "final_loss_d", "en", "mi", "vif", "map50", "map5095"]
        assert [line[:2] for line in lines[1:]] == [[arm, seed] for arm in arms for seed in ("0", "mean")]


class TestGmtaDemo:
    def test_hand_matrix(self, capsys):
        assert main(["gmta-demo", "--matrix", "[[2,0],[0,1]]"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa_before"] == pytest.approx(2.0)
        assert payload["kappa_after"] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.array(payload["g_hat"]), np.eye(2), atol=1e-12)

    def test_random_matrix_path(self, capsys):
        assert main(["gmta-demo", "--seed", "5", "--rows", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2
        assert payload["kappa_after"] == pytest.approx(1.0, abs=1e-9)

    def test_no_value_leaks_from_one_call_into_the_next(self, capsys):
        """The parser is built once per process; a second call prints what a fresh process prints."""
        assert main(["gmta-demo", "--seed", "5", "--rows", "6"]) == 0
        assert main(["gmta-demo", "--rows", "6"]) == 0
        first, second = capsys.readouterr().out.split("\n}\n", 1)
        fresh = subprocess.run(
            [sys.executable, "-m", "fusedet.cli", "gmta-demo", "--rows", "6"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        ).stdout
        assert second == fresh and first + "\n}\n" != fresh


    @pytest.mark.parametrize("matrix", ["[[1,0],[0,0]]", "[[1,0],[0,1e-300]]"])
    def test_rank_deficient_matrix_prints_strict_json(self, capsys, matrix):
        """JSON has no infinity: an infinite kappa is written as the string "inf"."""
        assert main(["gmta-demo", "--matrix", matrix]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert payload["kappa_before"] == "inf"

    @pytest.mark.parametrize("matrix", ["[[1,1e-300],[0,1e-300]]", "[[1,1e-200],[0,1e-200]]", "[[1,1e-170],[1e-170,0]]"])
    def test_columns_far_apart_in_scale(self, capsys, matrix):
        """A column whose Gram entries underflow beside the other's still gives the numpy singular values."""
        assert main(["gmta-demo", "--matrix", matrix]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        want = np.linalg.svd(np.array(json.loads(matrix)), compute_uv=False)
        np.testing.assert_allclose(payload["singular_values"], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("argv, fault", [
        (["--matrix", "nope"], "--matrix is not JSON"),
        (["--matrix", "[[2,0],[0,1],[1]]"], "--matrix must be a 2-D array of numbers"),
        (["--matrix", '[["a",0],[0,1]]'], "--matrix must be a 2-D array of numbers"),
        (["--matrix", "[1,2,3]"], "--matrix must be a 2-D array of numbers"),
        (["--matrix", "[[1,2,3]]"], "--matrix needs at least as many rows as columns, got 1x3"),
        (["--matrix", "[[1e400,0],[0,1]]"], "--matrix has non-finite entries"),
        (["--matrix", "[[0,0],[0,0]]"], "--matrix is all zero"),
        (["--rows", "1"], "--rows must be at least 2, got 1"),
        (["--rows", "0"], "--rows must be at least 2, got 0"),
        (["--rows", "-3"], "--rows must be at least 2, got -3"),
    ])
    def test_bad_flag_value_is_a_usage_error_naming_the_flag(self, capsys, argv, fault):
        assert main(["gmta-demo", *argv]) == 1
        assert f"usage error: {fault}" in capsys.readouterr().err

class TestEval:
    def test_perfect_oracle_predictions_score_one(self, tmp_path, tiny_dataset, capsys):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for sid in sd.list_scene_ids(tiny_dataset, "val"):
            pair = sd.load_scene(tiny_dataset, "val", sid)
            sd.write_annotations(
                pred_dir / f"{sid}.boxes.json", sid, pair.boxes, scores=np.ones(len(pair.boxes))
            )
        rc = main([
            "eval", "--dataset-root", str(tiny_dataset), "--split", "val",
            "--pred-dir", str(pred_dir), "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        aggregate = json.loads(capsys.readouterr().out.splitlines()[0])
        assert aggregate["map5095"] == pytest.approx(1.0)
        assert (tmp_path / "out" / "metrics.json").exists()
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_nan_score_in_prediction_file_names_the_scene(self, tmp_path, tiny_dataset, capsys):
        """Python's json reads NaN, so a prediction file can carry one into map_eval."""
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        sids = sd.list_scene_ids(tiny_dataset, "val")
        for sid in sids:
            pair = sd.load_scene(tiny_dataset, "val", sid)
            scores = np.ones(len(pair.boxes))
            if sid == sids[1]:
                scores[0] = np.nan
            sd.write_annotations(pred_dir / f"{sid}.boxes.json", sid, pair.boxes, scores=scores)
        rc = main([
            "eval", "--dataset-root", str(tiny_dataset), "--split", "val",
            "--pred-dir", str(pred_dir), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"scene {sids[1]}: predictions[0]: scores must be finite" in capsys.readouterr().err

    def test_malformed_prediction_file_is_named(self, tmp_path, tiny_dataset, capsys):
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        sids = sd.list_scene_ids(tiny_dataset, "val")
        for sid in sids:
            pair = sd.load_scene(tiny_dataset, "val", sid)
            sd.write_annotations(pred_dir / f"{sid}.boxes.json", sid, pair.boxes)
        bad = pred_dir / f"{sids[2]}.boxes.json"
        bad.write_text('{"scene": "x", "boxes": [{"cx": 0.5, "cy": 0.5, "w": 0.2}]}')
        rc = main([
            "eval", "--dataset-root", str(tiny_dataset), "--split", "val",
            "--pred-dir", str(pred_dir), "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert f"error: {bad}: box 0 has no 'h'" in capsys.readouterr().err

    def _eval_fused(self, tmp_path, tiny_dataset, fused_of) -> int:
        """Run `eval --fused-dir` over fused images `fused_of(pair)` written as PGM."""
        fused_dir = tmp_path / "fused"
        fused_dir.mkdir()
        for sid in sd.list_scene_ids(tiny_dataset, "val"):
            pair = sd.load_scene(tiny_dataset, "val", sid)
            sd.write_image(fused_dir / f"{sid}.fused.pgm", fused_of(sid, pair))
        return main([
            "eval", "--dataset-root", str(tiny_dataset), "--split", "val",
            "--fused-dir", str(fused_dir), "--out", str(tmp_path / "out"),
        ])

    def test_fused_std_in_both_reports(self, tmp_path, tiny_dataset):
        rc = self._eval_fused(tmp_path, tiny_dataset, lambda sid, pair: pair.visible)
        assert rc == 0
        rows = json.loads((tmp_path / "out" / "metrics.json").read_text())["scenes"]
        with open(tmp_path / "out" / "metrics.csv", newline="") as f:
            table = list(csv.DictReader(f))
        for row, line in zip(rows, table):
            visible = sd.read_image(tmp_path / "fused" / f"{row['scene-id']}.fused.pgm")
            assert row["fused_std"] == float(np.std(visible)) > 0.0
            assert float(line["fused_std"]) == row["fused_std"]
        assert table[-1]["scene-id"] == "aggregate"

    def test_fused_image_of_another_shape_names_the_scene(self, tmp_path, tiny_dataset, capsys):
        sids = sd.list_scene_ids(tiny_dataset, "val")

        def fused_of(sid, pair):
            return np.full((64, 48), 0.5) if sid == sids[1] else pair.visible

        assert self._eval_fused(tmp_path, tiny_dataset, fused_of) == 2
        assert f"scene {sids[1]}: mutual_information: shapes differ: (64, 48)" in capsys.readouterr().err

    def test_scene_too_small_for_vif_is_named(self, tmp_path, capsys):
        root = tmp_path / "data"
        sd.generate_dataset(root, "val", 2, 900, width=32, height=32)
        sid = sd.list_scene_ids(root, "val")[0]
        assert self._eval_fused(tmp_path, root, lambda sid, pair: pair.visible) == 2
        assert f"scene {sid}: image too small for VIF scale 3: (4, 4) vs 5x5 window" in capsys.readouterr().err


@pytest.mark.slow
class TestPipeline:
    def test_config_file_with_flag_overrides(self, tmp_path, tiny_dataset):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 3, "iterations": 40, "dataset_root": str(tiny_dataset),
            "out_dir": str(tmp_path / "ignored"),
        }))
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg_path), "--iterations", "6", "--out", str(out)])
        assert rc == 0
        saved = json.loads((out / "run_config.json").read_text())
        assert saved["iterations"] == 6  # flag wins
        assert saved["seed"] == 3        # config file survives
        log_lines = (out / "trainlog.jsonl").read_text().splitlines()
        assert len(log_lines) == 6

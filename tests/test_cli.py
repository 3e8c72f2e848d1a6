"""CLI surface: subcommands, exit codes, config overrides, byte-determinism."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fusedet import synthdata as sd
from fusedet.cli import main


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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus": 2}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_eval_requires_inputs(self, tmp_path, tiny_dataset):
        rc = main(["eval", "--dataset-root", str(tiny_dataset), "--split", "val", "--out", str(tmp_path)])
        assert rc == 1


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

    @pytest.mark.parametrize("side", ["--width", "--height"])
    def test_gen_rejects_size_the_model_cannot_fuse(self, tmp_path, capsys, side):
        rc = main(["gen", "--scenes", "1", "--dataset-root", str(tmp_path), side, "65"])
        assert rc == 1
        assert "is not a multiple of 4 on each side" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()


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


@pytest.mark.slow
class TestPipeline:
    def test_train_fuse_detect_eval_and_determinism(self, tmp_path, tiny_dataset):
        """End-to-end byte-identical artifacts for repeated seeded invocations."""
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            rc = main([
                "train", "--dataset-root", str(tiny_dataset), "--seed", "11",
                "--iterations", "12", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        assert _tree_digest(outs[0]) == _tree_digest(outs[1])

        model_path = outs[0] / "model.json"
        for tag in ("f1", "f2"):
            rc = main([
                "fuse", "--model", str(model_path), "--dataset-root", str(tiny_dataset),
                "--split", "val", "--out", str(tmp_path / tag),
            ])
            assert rc == 0
        assert _tree_digest(tmp_path / "f1") == _tree_digest(tmp_path / "f2")

        for tag in ("d1", "d2"):
            rc = main([
                "detect", "--model", str(model_path), "--dataset-root", str(tiny_dataset),
                "--split", "val", "--seed", "4", "--out", str(tmp_path / tag),
            ])
            assert rc == 0
        assert _tree_digest(tmp_path / "d1") == _tree_digest(tmp_path / "d2")

        rc = main([
            "eval", "--dataset-root", str(tiny_dataset), "--split", "val",
            "--pred-dir", str(tmp_path / "d1"), "--fused-dir", str(tmp_path / "f1"),
            "--out", str(tmp_path / "ev"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert set(report["aggregate"]) >= {"en", "mi", "vif", "map50", "map5095"}

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

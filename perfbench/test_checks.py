"""Each output check accepts a correct output and rejects a corrupted one;
the tracer finds calls made through names bound by ``from ... import``.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import checks
import run
import training
from spans import Tracer

training.import_program()
from fusedet import harness  # noqa: E402
from fusedet import metrics as met  # noqa: E402
from fusedet import synthdata as sd  # noqa: E402
from fusedet.model import ModelConfig, ToyModel  # noqa: E402


def rng_images(seed: int = 0, shape=(32, 40)):
    r = np.random.default_rng(seed)
    return [np.clip(r.random(shape), 0.0, 1.0) for _ in range(3)]


def test_fused_image():
    u, _, _ = rng_images()
    checks.fused_image(u, u.shape, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.fused_image(u[:-1], u.shape, "shape")
    for value in (1.5, -0.01, np.nan):
        bad = u.copy()
        bad[3, 4] = value
        with pytest.raises(checks.CheckFailed):
            checks.fused_image(bad, u.shape, "pixel")


def test_en_mi_agree_with_the_program_and_reject_a_wrong_value():
    u, x, y = rng_images(1)
    en, mi = met.entropy_en(u), met.mutual_information(u, x, y)
    checks.en_mi(u, x, y, en, mi, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.en_mi(u, x, y, en + 1e-6, mi, "en")
    with pytest.raises(checks.CheckFailed):
        checks.en_mi(u, x, y, en, mi * 1.001, "mi")


def test_vif_identity():
    _, x, _ = rng_images(2, shape=(64, 64))
    checks.vif_identity(met.vif_fusion(x, x, x) / 2.0, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.vif_identity(1.01, "bad")


def _records(n=50):
    return [
        {"step": i, "loss_u": 2.0 - i / n, "loss_d": 1.0 - i / (2 * n), "aligned": True,
         "kappa_after": 1.0, "column_norms_after": [0.3, 0.3]}
        for i in range(n)
    ]


def test_gmta_records():
    recs = _records()
    checks.gmta_records(recs)
    for field, value in (("kappa_after", 1.01), ("column_norms_after", [0.3, 0.31]), ("aligned", False)):
        bad = _records()
        bad[7][field] = value
        with pytest.raises(checks.CheckFailed):
            checks.gmta_records(bad)
    with pytest.raises(checks.CheckFailed):
        checks.gmta_records([])


def test_losses_fall():
    recs = _records()
    lu, ld = [r["loss_u"] for r in recs], [r["loss_d"] for r in recs]
    checks.losses_fall(lu, ld, 10)
    with pytest.raises(checks.CheckFailed):
        checks.losses_fall(lu[::-1], ld, 10)
    with pytest.raises(checks.CheckFailed):
        checks.losses_fall(lu, ld[:-1] + [float("nan")], 10)
    with pytest.raises(checks.CheckFailed):
        checks.losses_fall(lu[:15], ld[:15], 10)


def test_boxes():
    good = np.array([[0.5, 0.5, 0.2, 0.3], [0.0, 1.0, 0.1, 0.1]])
    scores = np.array([0.2, 1.0])
    checks.boxes(good, scores, 2, "ok")
    for row, col, value in ((0, 2, 0.0), (1, 3, -0.1), (0, 0, 1.2), (1, 1, -0.01), (0, 1, np.nan)):
        bad = good.copy()
        bad[row, col] = value
        with pytest.raises(checks.CheckFailed):
            checks.boxes(bad, scores, 2, "bad")
    with pytest.raises(checks.CheckFailed):
        checks.boxes(good, np.array([0.2, 1.5]), 2, "score")
    with pytest.raises(checks.CheckFailed):
        checks.boxes(good, None, 2, "no scores")
    with pytest.raises(checks.CheckFailed):
        checks.boxes(good, scores, 3, "count")


def test_identical():
    checks.identical(b"abc", b"abc", "ok")
    with pytest.raises(checks.CheckFailed):
        checks.identical(b"abc", b"abd", "bad")


def test_map_identity():
    gts = [np.array([[0.5, 0.5, 0.2, 0.3]]), np.array([[0.3, 0.3, 0.1, 0.2], [0.7, 0.6, 0.2, 0.2]])]
    checks.map_identity(met.map_eval([(g, np.ones(len(g))) for g in gts], gts).map5095, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.map_identity(0.99, "bad")


def test_cli_outputs(tmp_path):
    ids = ["scene-0000", "scene-0001"]
    for sid in ids:
        (tmp_path / f"{sid}.boxes.json").write_text(json.dumps({}))
    checks.cli_outputs(tmp_path, ids, ".boxes.json", "detect")
    with pytest.raises(checks.CheckFailed):
        checks.cli_outputs(tmp_path, ids + ["scene-0002"], ".boxes.json", "detect")
    (tmp_path / "scene-0001.boxes.json").unlink()
    with pytest.raises(checks.CheckFailed):
        checks.cli_outputs(tmp_path, ids, ".boxes.json", "detect")


def test_box_quality_matches_the_program_iou():
    r = np.random.default_rng(3)
    pred = np.column_stack([r.random((16, 2)), 0.05 + 0.3 * r.random((16, 2))])
    gt = np.column_stack([r.random((3, 2)), 0.05 + 0.3 * r.random((3, 2))])
    want = np.array([[met.iou(p, g) for g in gt] for p in pred])
    np.testing.assert_allclose(run.pairwise_iou(pred, gt), want, rtol=0, atol=1e-12)
    best, matched = run.box_quality([gt.copy()], [gt])
    assert abs(best - 1.0) < 1e-12 and matched == 1.0


def test_tracer_counts_calls_through_imported_names_and_restores_them():
    model = ToyModel.create(ModelConfig(), 0)
    pair = sd.generate_scene(sd.SceneSpec(seed=1))
    original = harness.fuse_scene
    tracer = Tracer(call_spans=("harness.fuse_scene",))
    with tracer.tracing("infer"):
        harness.fuse_scene(model, pair)
    assert harness.fuse_scene is original
    # model.py binds backbone_forward and fusion_forward with `from ... import`
    assert tracer.row("infer", "fusion_net.fusion_forward")["calls"] == 1
    assert tracer.row("infer", "fusion_net.backbone_forward")["calls"] == 1
    conv = tracer.row("infer", "autodiff.conv2d")
    assert conv["calls"] == 23 and 0 < conv["self_s"] <= conv["incl_s"]
    fuse = tracer.row("infer", "harness.fuse_scene")
    # fuse_scene's own code is glue: nearly all of its time is in other modules
    assert 0 <= fuse["net_s"] <= fuse["self_s"] <= fuse["incl_s"]
    assert tracer.ops("infer") > conv["calls"]
    assert len(tracer.retained["infer"]["harness.fuse_scene"]) == 1

"""Training loop contracts: determinism, alignment routing, loss trends, fuse/detect."""

import csv
import dataclasses
import json
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from fusedet import autodiff as ad
from fusedet import diffusion as dif
from fusedet import harness
from fusedet import metrics as met
from fusedet import synthdata as sd
from fusedet.gmta import StepReport
from fusedet.harness import (
    RunConfig,
    SceneBatch,
    TrainLog,
    detect_scene,
    detect_split,
    evaluate_split,
    fuse_scene,
    train,
)
from fusedet.model import ModelConfig, ToyModel
from fusedet.rng import SplitMix64


def _cfg(root, **kw) -> RunConfig:
    base = dict(seed=0, iterations=20, dataset_root=str(root))
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def run_500(tiny_dataset, train_batch):
    """(model, log) of one 500-step run, shared by the tests that only read it."""
    return train(_cfg(tiny_dataset, iterations=500), train_batch)


class TestRunConfig:
    def test_json_round_trip(self, tiny_dataset):
        cfg = _cfg(tiny_dataset, branches=(0, 1), task_weights=(0.25, 0.75))
        back = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert back == cfg


class TestTrain:
    def test_zero_iterations_returns_initialized_model(self, tiny_dataset, train_batch):
        model, log = train(_cfg(tiny_dataset, iterations=0), train_batch)
        fresh = ToyModel.create(model.cfg, 0)
        assert not log.records
        for k, v in fresh.params.values.items():
            np.testing.assert_array_equal(model.params.values[k], v)

    def test_every_aligned_step_has_unit_condition_number(self, tiny_dataset, train_batch):
        _, log = train(_cfg(tiny_dataset, iterations=15, gmta=True, gmta_period=1), train_batch)
        assert len(log.records) == 15
        for rec in log.records:
            assert rec.aligned
            if rec.rank == 2:
                assert rec.kappa_after == pytest.approx(1.0, abs=1e-9)

    def test_alignment_period_respected(self, tiny_dataset, train_batch):
        _, log = train(_cfg(tiny_dataset, iterations=10, gmta=True, gmta_period=4), train_batch)
        aligned_steps = [r.step for r in log.records if r.aligned]
        assert aligned_steps == [0, 4, 8]

    def test_gmta_off_never_aligns(self, tiny_dataset, train_batch):
        _, log = train(_cfg(tiny_dataset, iterations=6, gmta=False), train_batch)
        assert not any(r.aligned for r in log.records)

    def test_deterministic_given_seed(self, tiny_dataset, train_batch):
        m1, l1 = train(_cfg(tiny_dataset, iterations=8), train_batch)
        m2, l2 = train(_cfg(tiny_dataset, iterations=8), train_batch)
        for k in m1.params.values:
            np.testing.assert_array_equal(m1.params.values[k], m2.params.values[k])
        assert [r.to_json() for r in l1.records] == [r.to_json() for r in l2.records]

    def test_losses_finite_throughout(self, tiny_dataset, train_batch):
        _, log = train(_cfg(tiny_dataset, iterations=12), train_batch)
        for r in log.records:
            assert math.isfinite(r.loss_u) and math.isfinite(r.loss_d)
            assert math.isfinite(r.grad_norm_u) and math.isfinite(r.grad_norm_d)

    def test_private_updates_equal_own_task_gradient_direction(self, tiny_dataset, train_batch):
        """Fusion-only weights leave the detector head untouched, and vice versa."""
        cfg = _cfg(tiny_dataset, iterations=3, task_weights=(1.0, 0.0))
        model, _ = train(cfg, train_batch)
        fresh = ToyModel.create(model.cfg, cfg.seed)
        for name in model.params.values:
            if name.startswith("det."):
                np.testing.assert_array_equal(model.params.values[name], fresh.params.values[name])
        assert any(
            not np.array_equal(model.params.values[n], fresh.params.values[n])
            for n in model.params.values
            if n.startswith("fuse.")
        )

    @pytest.mark.slow
    def test_500_iteration_run_halves_both_losses(self, run_500):
        _, log = run_500
        first_u = np.mean([r.loss_u for r in log.records[:20]])
        first_d = np.mean([r.loss_d for r in log.records[:20]])
        last_u, last_d = log.final_losses()
        assert last_u < 0.5 * first_u
        assert last_d < 0.5 * first_d


def _report(step: int, loss_u: float, loss_d: float, **kw) -> StepReport:
    base = dict(
        aligned=True, rank=2, kappa_before=3.0, kappa_after=1.0, singular_values=[3.0, 1.0],
        grad_norm_u=0.5, grad_norm_d=4.0, grad_cosine=0.25, shared_step_ratio=0.5,
    )
    base.update(kw)
    return StepReport(step=step, loss_u=loss_u, loss_d=loss_d, **base)


class TestTrainLog:
    def test_jsonl_round_trip_fields(self, tmp_path):
        log = TrainLog(
            [
                _report(0, 1.0, 2.0, column_norms_after=[1.0, 1.0]),
                _report(1, 0.9, 1.9, kappa_before=float("inf"), singular_values=[1.0, 0.0], rank=1),
            ]
        )
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["step"] == 0 and lines[0]["aligned"] is True
        assert lines[0]["loss_u"] == 1.0 and lines[0]["loss_d"] == 2.0
        assert lines[1]["kappa_before"] == "inf"
        assert set(lines[0]) == {f.name for f in dataclasses.fields(StepReport)}

    @pytest.mark.parametrize("n", [1, 5, 20, 33])
    def test_final_losses_average_the_last_twenty_steps(self, n):
        log = TrainLog([_report(i, float(i), 2.0 * i) for i in range(n)])
        tail = list(range(max(0, n - 20), n))
        assert log.final_losses() == (float(np.mean(tail)), float(np.mean([2.0 * i for i in tail])))

    def test_final_losses_of_an_empty_log_are_nan(self):
        assert all(math.isnan(v) for v in TrainLog().final_losses())


def test_train_records_are_what_gmta_step_returns(tiny_dataset, train_batch, monkeypatch):
    """The benchmark's hooks: it wraps harness.gmta_step and reads asdict of each record."""
    inner, returned = harness.gmta_step, []

    def counting(*args, **kwargs):
        rep = inner(*args, **kwargs)
        returned.append(rep)
        return rep

    monkeypatch.setattr(harness, "gmta_step", counting)
    _, log = train(_cfg(tiny_dataset, iterations=3), train_batch)
    assert len(returned) == 3
    assert all(rec is rep for rec, rep in zip(log.records, returned, strict=True))
    for step, rec in enumerate(log.records):
        d = dataclasses.asdict(rec)
        assert {"step", "loss_u", "loss_d", "aligned", "kappa_after", "column_norms_after"} <= set(d)
        assert d["step"] == step and math.isfinite(d["loss_u"]) and math.isfinite(d["loss_d"])
    assert callable(harness.joint_losses)
    assert harness.SplitMix64 is SplitMix64


def test_training_step_tape_memory(tiny_dataset, train_batch):
    """A 64x64 training graph keeps each conv's input, not its column matrix; the backward rebuilds them one at a time.

    After the forward the graph holds 13.3 MiB; when every conv kept its
    im2col matrix for the weight gradient it held 48.7 MiB, 32.8 of them
    columns.  The loss_u backward peaks at 19.8 MiB, graph included (55.4
    before).  The bounds are 16 and 28 MiB: conv closures that kept their
    forward's band buffers (19.2 MiB) cross the first, and ones that kept
    the columns they rebuild cross the second.
    """
    cfg = _cfg(tiny_dataset)
    model = ToyModel.create(cfg.model_config(), cfg.seed)
    schedule = dif.build_schedule(cfg.diffusion_steps)

    def forward():
        return harness.joint_losses(model, train_batch.pairs[0], train_batch.constants(0), schedule, SplitMix64(0),
                                    cfg.boxes_per_scene)

    ad.backward(forward()[0], model.params)  # first-call allocations (caches, imports) are not the working set
    tracemalloc.start()
    try:
        loss_u, loss_d = forward()
        graph, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        ad.backward(loss_u, model.params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph < 16 * 2**20
    assert peak < 28 * 2**20


def test_train_rejects_an_unfusable_scene_by_id_before_any_step(val_batch, monkeypatch):
    pair = val_batch.pairs[0]
    wide = dataclasses.replace(
        pair, scene_id="scene-odd", visible=np.pad(pair.visible, ((0, 0), (0, 2))),
        infrared=np.pad(pair.infrared, ((0, 0), (0, 2))),
    )

    def no_steps(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(harness, "joint_losses", no_steps)
    batch = SceneBatch([*val_batch.pairs[1:], wide])
    with pytest.raises(ad.ShapeError, match=r"train: scene scene-odd: image size 64x66 is not a multiple of 4"):
        train(RunConfig(iterations=3), batch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("modality, bad", [("visible", np.nan), ("infrared", np.inf)])
def test_non_finite_loss_aborts_training_at_its_step(val_batch, modality, bad):
    pair = val_batch.pairs[0]
    img = getattr(pair, modality).copy()
    img[3, 5] = bad
    batch = SceneBatch([dataclasses.replace(pair, **{modality: img})])
    with pytest.raises(FloatingPointError, match="non-finite loss at step 0: loss_u=nan"):
        train(RunConfig(iterations=3), batch)


class TestFuse:
    def test_untrained_model_contract(self, val_batch):
        model = ToyModel.create(ModelConfig(), 0)
        u = fuse_scene(model, val_batch.pairs[0])
        assert u.shape == val_batch.pairs[0].visible.shape
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_pure_function_repeated_calls_identical(self, val_batch):
        model = ToyModel.create(ModelConfig(), 1)
        pair = val_batch.pairs[0]
        assert np.array_equal(fuse_scene(model, pair), fuse_scene(model, pair))

    def test_identical_modalities_deterministic(self, val_batch):
        model = ToyModel.create(ModelConfig(), 2)
        pair = val_batch.pairs[1]
        twin = sd.ScenePair(pair.visible, pair.visible.copy(), pair.boxes)
        assert np.array_equal(fuse_scene(model, twin), fuse_scene(model, twin))


class TestDetect:
    def test_shape_contract_across_step_counts(self, val_batch):
        model = ToyModel.create(ModelConfig(), 3)
        for steps in (1, 4):
            boxes, scores = detect_scene(model, val_batch.pairs[0], steps, seed=0)
            assert boxes.shape == (model.cfg.boxes_per_scene, 4)
            assert scores.shape == (model.cfg.boxes_per_scene,)
            assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_oracle_denoiser_injection_returns_ground_truth(self, val_batch, monkeypatch):
        """Plumbing check: a denoiser that already knows the boxes passes through sample()."""
        from fusedet.rng import SplitMix64

        model = ToyModel.create(ModelConfig(), 4)
        pair = val_batch.pairs[0]
        target = dif.pad_boxes(pair.boxes, model.cfg.boxes_per_scene, SplitMix64(0))

        monkeypatch.setattr(model, "denoiser_for_scene", lambda vis, ir: (lambda z, t: target))
        boxes, scores = detect_scene(model, pair, 4, seed=0)
        np.testing.assert_allclose(boxes, target, atol=1e-12)
        np.testing.assert_allclose(scores, 1.0, atol=1e-12)

    @pytest.mark.parametrize("width, height", [(64, 64), (192, 128)])
    def test_scene_summary_built_once_gives_the_bytes_of_one_per_call(self, width, height, monkeypatch):
        model = ToyModel.create(ModelConfig(), 8)
        pair = sd.generate_scene(sd.SceneSpec(seed=21, width=width, height=height))
        summaries = []
        scene_features = model.scene_features
        monkeypatch.setattr(model, "scene_features", lambda pyr: summaries.append(1) or scene_features(pyr))
        got = {steps: detect_scene(model, pair, steps, seed=3) for steps in (1, 4)}
        assert len(summaries) == 2  # one per scene served

        def rebuilding(vis, ir):
            """The summary rebuilt inside every denoiser call, as training builds it."""
            pv = model.params.constants()
            pyramid = model.forward_fusion(pv, ad.Var.constant(vis[None]), ad.Var.constant(ir[None]))[1]
            return lambda z, t: model.forward_denoiser(pv, pyramid, z, t).value

        monkeypatch.setattr(model, "denoiser_for_scene", rebuilding)
        for steps, (boxes, scores) in got.items():
            summaries.clear()
            want_boxes, want_scores = detect_scene(model, pair, steps, seed=3)
            assert len(summaries) == steps + 1  # each DDIM step and the scoring re-query
            assert boxes.tobytes() == want_boxes.tobytes() and scores.tobytes() == want_scores.tobytes()

    def test_deterministic_given_seed(self, val_batch):
        model = ToyModel.create(ModelConfig(), 5)
        b1, s1 = detect_scene(model, val_batch.pairs[2], 4, seed=9)
        b2, s2 = detect_scene(model, val_batch.pairs[2], 4, seed=9)
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)


@pytest.mark.parametrize("modality, bad", [("visible", np.nan), ("infrared", np.inf)])
def test_non_finite_pixels_rejected(val_batch, modality, bad):
    model = ToyModel.create(ModelConfig(), 0)
    pair = val_batch.pairs[0]
    img = getattr(pair, modality).copy()
    img[3, 5] = bad
    broken = dataclasses.replace(pair, **{modality: img})
    message = f"scene {pair.scene_id}: {modality} image has 1 non-finite"
    with pytest.raises(ValueError, match=message):
        fuse_scene(model, broken)
    with pytest.raises(ValueError, match=message):
        detect_scene(model, broken, 4, seed=0)


@pytest.mark.slow
def test_trained_detection_mean_iou_on_train_scenes(tmp_path):
    """Detection-weighted training on single-object scenes reaches mean best-IoU >= 0.5."""
    for i in range(10):
        pair = sd.generate_scene(sd.SceneSpec(seed=500 + i, min_objects=1, max_objects=1))
        sd.write_scene(tmp_path, "train", f"scene-{i:04d}", pair)
    cfg = RunConfig(
        seed=2, iterations=1200, dataset_root=str(tmp_path),
        learning_rate=0.05, task_weights=(0.3, 0.7),
    )
    model, _ = train(cfg)
    batch = SceneBatch.from_dir(tmp_path, "train")
    ious = []
    for i, pair in enumerate(batch.pairs):
        boxes, _ = detect_scene(model, pair, 4, seed=i)
        ious.append(max(met.iou(b, pair.boxes[0]) for b in boxes))
    assert float(np.mean(ious)) >= 0.5


@pytest.mark.slow
def test_trained_fusion_entropy_on_held_out_scene(run_500, val_batch):
    """EN(u) stays within 0.5 bits of the weaker source on held-out scenes."""
    model, _ = run_500
    for pair in val_batch.pairs:
        u = fuse_scene(model, pair)
        bound = min(met.entropy_en(pair.visible), met.entropy_en(pair.infrared)) - 0.5
        assert met.entropy_en(u) >= bound


@pytest.mark.slow
def test_memorization_recovers_single_scene_boxes(tmp_path):
    """Detection-weighted training on one single-object scene nails its box (IoU >= 0.9)."""
    spec = sd.SceneSpec(seed=77, min_objects=1, max_objects=1)
    pair = sd.generate_scene(spec)
    sd.write_scene(tmp_path, "train", "scene-0000", pair)
    cfg = RunConfig(
        seed=1, iterations=500, dataset_root=str(tmp_path),
        learning_rate=0.15, task_weights=(0.0, 1.0),
    )
    model, _ = train(cfg)
    batch = SceneBatch.from_dir(tmp_path, "train")
    boxes, _ = detect_scene(model, batch.pairs[0], 4, seed=5)
    best = max(met.iou(b, batch.pairs[0].boxes[0]) for b in boxes)
    assert best >= 0.9


class TestEvaluateSplit:
    def test_detect_split_uses_the_per_scene_seeds(self, val_batch):
        model = ToyModel.create(ModelConfig(), 7)
        preds = detect_split(model, val_batch, 2, seed=11)
        assert len(preds) == len(val_batch.pairs)
        for i, (pair, (boxes, scores)) in enumerate(zip(val_batch.pairs, preds)):
            want_boxes, want_scores = detect_scene(model, pair, 2, SplitMix64(11).derive(0xE7A1, i).next_u64())
            assert boxes.tobytes() == want_boxes.tobytes() and scores.tobytes() == want_scores.tobytes()

    def test_one_backbone_pass_per_scene_with_the_report_of_separate_fuse_and_detect(self, val_batch, monkeypatch):
        from fusedet import fusion_net, model as model_mod

        model = ToyModel.create(ModelConfig(), 6)
        fusions = [(fuse_scene(model, p), p.visible, p.infrared) for p in val_batch.pairs]
        preds = detect_split(model, val_batch, 2, seed=5)
        want = met.score_split(
            [p.scene_id for p in val_batch.pairs], fusions, [(pr, p.boxes) for pr, p in zip(preds, val_batch.pairs)]
        )
        calls = []
        backbone = fusion_net.backbone_forward

        def counted(*args, **kwargs):
            calls.append(1)
            return backbone(*args, **kwargs)

        monkeypatch.setattr(fusion_net, "backbone_forward", counted)
        monkeypatch.setattr(model_mod, "backbone_forward", counted)
        got = evaluate_split(model, val_batch, sampling_steps=2, seed=5)
        assert len(calls) == len(val_batch.pairs)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_report_schema(self, val_batch):
        model = ToyModel.create(ModelConfig(), 6)
        ev = evaluate_split(model, val_batch, sampling_steps=1, seed=0)
        assert set(ev["aggregate"]) == {"en", "mi", "vif", "map50", "map5095"}
        assert len(ev["scenes"]) == len(val_batch.pairs)
        for row in ev["scenes"]:
            assert set(row) == {"scene-id", "en", "mi", "vif", "fused_std", "map50", "map5095"}


class TestExperiments:
    def test_run_arm_is_deterministic_and_reports_the_final_losses(self, tiny_dataset):
        cfg = _cfg(tiny_dataset, iterations=4, gmta=False)
        (row, log), (again, _) = harness.run_arm(cfg), harness.run_arm(cfg)
        assert row == again
        assert set(row) == {"seed", *harness.SUMMARY_KEYS}
        assert (row["final_loss_u"], row["final_loss_d"]) == log.final_losses()

    def test_run_arms_gives_the_rows_and_logs_of_serial_runs_in_order(self, tiny_dataset, monkeypatch):
        arms = {
            name: [_cfg(tiny_dataset, seed=seed, iterations=3, gmta=flag) for seed in (1, 0)]
            for name, flag in (("with_gmta", True), ("without_gmta", False))
        }
        for var in harness._BLAS_THREAD_VARS:  # so run_arms has to set, and then restore, all three
            monkeypatch.delenv(var, raising=False)
        env = dict(os.environ)
        report, logs = harness.run_arms(arms)
        assert dict(os.environ) == env
        assert not multiprocessing.active_children()
        serial = {name: [harness.run_arm(cfg) for cfg in configs] for name, configs in arms.items()}
        assert report == harness.experiment_report({name: [row for row, _ in runs] for name, runs in serial.items()})
        assert list(report["arms"]) == list(arms) and report["seeds"] == [1, 0]

        def records(arm_logs):
            return [[json.dumps(r.to_json(), sort_keys=True) for r in log.records] for log in arm_logs]

        assert {name: records(arm_logs) for name, arm_logs in logs.items()} == {
            name: records(log for _, log in runs) for name, runs in serial.items()
        }

    def test_report_keeps_arm_order_with_one_csv_row_per_run_and_mean(self, tmp_path):
        def row(seed, value):
            return {"seed": seed, **dict.fromkeys(harness.SUMMARY_KEYS, value)}

        report = harness.experiment_report({"0,1": [row(3, 1.0), row(4, 2.0)], "0": [row(3, 5.0), row(4, 5.0)]})
        assert report["seeds"] == [3, 4]
        assert report["arms"]["0,1"]["mean"] == dict.fromkeys(harness.SUMMARY_KEYS, 1.5)
        jp, cp = harness.write_experiment_report(tmp_path, "exp", report)
        assert json.loads(jp.read_text()) == report
        with open(cp, newline="") as f:
            lines = list(csv.reader(f))
        assert lines[0] == ["group", "seed", *harness.SUMMARY_KEYS]
        assert [line[:3] for line in lines[1:]] == [
            ["0,1", "3", "1.0"], ["0,1", "4", "2.0"], ["0,1", "mean", "1.5"],
            ["0", "3", "5.0"], ["0", "4", "5.0"], ["0", "mean", "5.0"],
        ]

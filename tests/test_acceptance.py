"""Acceptance criteria, one test per criterion, each printing its own PASS line.

Run with `pytest -m acceptance -s` (included in the default suite).  The
trend criteria (5-7) train real models and take several minutes; their
runtime budgets are asserted alongside the numeric criteria.
"""

import json
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fusedet import autodiff as ad
from fusedet import diffusion as dif
from fusedet import gmta
from fusedet import losses
from fusedet import metrics as met
from fusedet import synthdata as sd
from fusedet.autodiff import Var
from fusedet.cli import main as cli_main
from fusedet.fusion_net import fusion_forward, init_fusion_params
from fusedet.harness import RunConfig, run_arms, write_experiment_report
from fusedet.model import ModelConfig, ToyModel
from fusedet.rng import SplitMix64

pytestmark = pytest.mark.acceptance


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# --------------------------------------------------------------------------
# 1. alignment correctness at scale


def test_criterion_1_gmta_correctness():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    # log-uniform over {4..4096} covers every scale without drowning in RNG cost
    sizes = np.exp(rng.uniform(np.log(4), np.log(4096), size=1000)).round().astype(int)
    worst_kappa_err = 0.0
    for p in sizes:
        p = int(p)
        g = rng.normal(size=(p, 2))
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] <= 1e-8 * s[0]:  # keep inputs full rank
            g[:, 1] += rng.normal(size=p)
        g_hat, rep = gmta.align(g)
        assert rep.rank == 2
        worst_kappa_err = max(worst_kappa_err, abs(rep.kappa_after - 1.0))
        assert abs(rep.kappa_after - 1.0) < 1e-9
        sigma = min(rep.singular_values)
        lhs = np.linalg.norm(g - g_hat)
        # 1000 sampled orthonormal-column competitors at the same scale;
        # ||G - sigma*Q||^2 expands exactly to ||G||^2 - 2 sigma tr(Q^T G) + 2 sigma^2
        e1 = rng.standard_normal((1000, p))
        e2 = rng.standard_normal((1000, p))
        q1 = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
        q2 = e2 - np.sum(q1 * e2, axis=1, keepdims=True) * q1
        q2 /= np.linalg.norm(q2, axis=1, keepdims=True)
        traces = q1 @ g[:, 0] + q2 @ g[:, 1]
        g_sq = float(np.sum(g * g))
        dists = np.sqrt(np.maximum(g_sq - 2.0 * sigma * traces + 2.0 * sigma ** 2, 0.0))
        assert lhs <= dists.min() + 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 1 exceeded its 60 s budget: {elapsed:.1f} s"
    _report("1 (alignment correctness)", f"1000 matrices, worst |kappa-1| {worst_kappa_err:.2e}, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 2. gradient fidelity of every loss + the full fusion forward pass


def _fd_check(fn, x0: np.ndarray, h: float = 1e-6) -> float:
    x = Var.leaf(x0, requires_grad=True)
    (g,) = ad.gradients(fn(x), [x])
    fd = np.zeros_like(x0)
    flat, fdf = x0.reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(Var.leaf(x0)).item()
        flat[i] = orig - h
        fm = fn(Var.leaf(x0)).item()
        flat[i] = orig
        fdf[i] = (fp - fm) / (2 * h)
    na, nb = np.linalg.norm(g), np.linalg.norm(fd)
    return float(np.linalg.norm(g - fd) / max(na, nb))


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(7321)
    worst = {"detector": 0.0, "ssim": 0.0, "pixel": 0.0, "grad": 0.0, "net": 0.0}

    for i in range(100):
        x = rng.uniform(0.1, 0.9, size=(8, 8))
        y = rng.uniform(0.1, 0.9, size=(8, 8))
        u0 = rng.uniform(0.1, 0.9, size=(8, 8))
        mask = losses.object_mask(np.array([[0.5, 0.5, 0.5, 0.5]]), 8, 8)
        w = losses.saliency_weights(x, y)
        z0 = rng.uniform(0.1, 0.9, size=(4, 4))
        pred0 = rng.uniform(size=(4, 4))

        worst["detector"] = max(worst["detector"], _fd_check(lambda p: dif.detector_loss(p, z0), pred0.copy()))
        worst["ssim"] = max(worst["ssim"], _fd_check(lambda v: losses.ssim_loss(v, x, y), u0.copy()))
        worst["pixel"] = max(worst["pixel"], _fd_check(lambda v: losses.pixel_loss(v, x, y, mask, w), u0.copy()))
        worst["grad"] = max(worst["grad"], _fd_check(lambda v: losses.gradient_loss(v, x, y), u0.copy()))

    # full fusion network pass: sampled-coordinate FD across >= 100 instances
    branches = (0, 1, 2, 3)
    h = 1e-6
    for i in range(100):
        seed_rng = SplitMix64(9000 + i)
        values = init_fusion_params(branches, seed_rng)
        vis = rng.uniform(size=(1, 8, 8))
        ir = rng.uniform(size=(1, 8, 8))
        probe = rng.normal(size=(8, 8))

        def forward() -> float:
            pv = {k: Var.leaf(v) for k, v in values.items()}
            u, _ = fusion_forward(pv, Var.constant(vis), Var.constant(ir), branches)
            return ad.tsum(u * probe).item()

        pv = {k: Var.leaf(v, requires_grad=True) for k, v in values.items()}
        u, _ = fusion_forward(pv, Var.constant(vis), Var.constant(ir), branches)
        names = sorted(values)
        grads = dict(zip(names, ad.gradients(ad.tsum(u * probe), [pv[n] for n in names])))
        for _ in range(3):
            name = names[int(rng.integers(len(names)))]
            flat = values[name].reshape(-1)
            idx = int(rng.integers(flat.size))
            orig = flat[idx]
            flat[idx] = orig + h
            fp = forward()
            flat[idx] = orig - h
            fm = forward()
            flat[idx] = orig
            fd = (fp - fm) / (2 * h)
            an = grads[name].reshape(-1)[idx]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
            worst["net"] = max(worst["net"], err)

    for name, err in worst.items():
        assert err < 1e-5, f"{name}: worst rel err {err}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"criterion 2 exceeded its 5 min budget: {elapsed:.1f} s"
    _report(
        "2 (gradient fidelity)",
        "worst rel err " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f", {elapsed:.0f} s",
    )


# --------------------------------------------------------------------------
# 3. diffusion identities


def test_criterion_3_diffusion_identities():
    s = dif.build_schedule(1000)
    # forward-noise moments
    t_step = 600
    z0 = np.array([[0.4, 0.6, 0.3, 0.2]])
    n = 100_000
    eps = SplitMix64(42).normals((n, 4))
    samples = dif.forward_noise(np.tile(z0, (n, 1)), t_step, eps, s)
    ab = s.abar(t_step)
    mean_err = np.abs(samples.mean(axis=0) - np.sqrt(ab) * dif.scale_boxes(z0)[0])
    assert np.all(mean_err < 3.0 * np.sqrt((1.0 - ab) / n))
    var_err = np.abs(samples.var(axis=0) - (1.0 - ab)) / (1.0 - ab)
    assert np.all(var_err < 0.05)

    # exact-predictor trajectory recovery
    steps = 60
    s2 = dif.build_schedule(steps)
    rng = np.random.default_rng(5)
    z0b = rng.uniform(0.1, 0.9, size=(4, 4))
    z0s = dif.scale_boxes(z0b)
    z = dif.forward_noise(z0b, steps, rng.normal(size=(4, 4)), s2)
    for t in range(steps, 0, -1):
        z = dif.ddim_step(z, z0s, t, t - 1, s2)
    traj_err = float(np.abs(z - z0s).max())
    assert traj_err < 1e-9

    # two half-steps == one step
    z_t = rng.normal(size=(3, 4))
    pred = rng.normal(size=(3, 4))
    one = dif.ddim_step(z_t, pred, 800, 200, s)
    two = dif.ddim_step(dif.ddim_step(z_t, pred, 800, 500, s), pred, 500, 200, s)
    half_err = float(np.abs(one - two).max())
    assert half_err < 1e-12
    _report(
        "3 (diffusion identities)",
        f"mean/var in bounds, trajectory err {traj_err:.1e}, half-step err {half_err:.1e}",
    )


# --------------------------------------------------------------------------
# 4. metric identities


def test_criterion_4_metric_identities():
    assert met.entropy_en(np.full((16, 16), 0.5)) == 0.0
    uniform = (np.arange(256, dtype=np.float64) / 255.0).reshape(16, 16)
    assert abs(met.entropy_en(uniform) - 8.0) < 1e-9
    mi_err = abs(met._mi_pair(uniform, uniform) - met.entropy_en(uniform))
    assert mi_err < 1e-9
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(64, 64))
    vif_err = abs(met.vif_fusion(x, x, x) - 2.0)
    assert vif_err < 1e-9

    gt_box = np.array([0.5, 0.5, 0.4, 0.4])

    def shifted(target_iou):
        lo, hi = 0.0, gt_box[2]
        for _ in range(60):
            mid = (lo + hi) / 2
            if met.iou(gt_box, gt_box + np.array([mid, 0, 0, 0])) > target_iou:
                lo = mid
            else:
                hi = mid
        return gt_box + np.array([(lo + hi) / 2, 0, 0, 0])

    ev = met.map_eval(
        [(np.stack([shifted(0.6), shifted(0.3)]), np.array([0.9, 0.8]))],
        [gt_box.reshape(1, 4)],
    )
    assert ev.ap_per_threshold[0.50] == 1.0
    assert ev.ap_per_threshold[0.75] == 0.0
    _report("4 (metric identities)", f"MI err {mi_err:.1e}, VIF err {vif_err:.1e}, mAP case exact")


# --------------------------------------------------------------------------
# 5+6. alignment trend experiment and its gradient-dominance data


# The training runs of criteria 5-7 go through `harness.run_arms`, the runner
# of `exp-gmta` and `exp-branches`: one worker process per core, one BLAS
# thread each, and the rows and logs of serial runs.
EXPERIMENT_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def gmta_experiment(tmp_path_factory):
    """Both training arms over 5 shared seeds, with per-run logs kept."""
    root = tmp_path_factory.mktemp("exp_data")
    for i in range(16):
        pair = sd.generate_scene(sd.SceneSpec(seed=3000 + i, min_objects=1, max_objects=1))
        sd.write_scene(root, "train", f"scene-{i:04d}", pair)
    for i in range(8):
        pair = sd.generate_scene(sd.SceneSpec(seed=7000 + i, min_objects=1, max_objects=1))
        sd.write_scene(root, "val", f"scene-{i:04d}", pair)
    base = RunConfig(
        seed=0, iterations=600, learning_rate=0.05, task_weights=(0.3, 0.7),
        dataset_root=str(root), out_dir=str(tmp_path_factory.mktemp("exp_out")),
    )
    t0 = time.time()
    report, logs = run_arms({
        name: [replace(base, seed=seed, gmta=flag) for seed in EXPERIMENT_SEEDS]
        for name, flag in (("with_gmta", True), ("without_gmta", False))
    })
    json_path, csv_path = write_experiment_report(base.out_dir, "exp_gmta", report)
    return {"report": report, "logs": logs, "elapsed": time.time() - t0,
            "json_path": json_path, "csv_path": csv_path}


def test_criterion_5_alignment_trend(gmta_experiment):
    rep = gmta_experiment["report"]
    mean_with = rep["arms"]["with_gmta"]["mean"]
    mean_without = rep["arms"]["without_gmta"]["mean"]
    sum_with = mean_with["final_loss_u"] + mean_with["final_loss_d"]
    sum_without = mean_without["final_loss_u"] + mean_without["final_loss_d"]
    assert sum_with <= 1.05 * sum_without, (
        f"aligned arm mean final loss {sum_with:.4f} vs plain {sum_without:.4f}"
    )
    assert mean_with["map50"] >= mean_without["map50"] - 0.02, (
        f"aligned arm mAP50 {mean_with['map50']:.3f} vs plain {mean_without['map50']:.3f}"
    )
    assert gmta_experiment["elapsed"] < 1800.0, "criterion 5 exceeded its 30 min budget"
    assert gmta_experiment["json_path"].exists() and gmta_experiment["csv_path"].exists()
    _report(
        "5 (alignment trend)",
        f"loss {sum_with:.4f} vs {sum_without:.4f}, mAP50 {mean_with['map50']:.3f} vs "
        f"{mean_without['map50']:.3f}, {gmta_experiment['elapsed']:.0f} s",
    )


def test_criterion_6_gradient_dominance_data(gmta_experiment):
    ratios = []
    for log in gmta_experiment["logs"]["without_gmta"]:
        for r in log.records:
            if r.grad_norm_u > 0:
                ratios.append(r.grad_norm_d / r.grad_norm_u)
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio > 1.0, f"detection dominance missing: mean ratio {mean_ratio:.3f}"

    worst_gap = 0.0
    aligned_steps = 0
    for log in gmta_experiment["logs"]["with_gmta"]:
        for r in log.records:
            if r.aligned:
                assert r.rank == 2, f"rank-deficient aligned step {r.step}"
                gap = abs(r.column_norms_after[0] - r.column_norms_after[1])
                worst_gap = max(worst_gap, gap)
                aligned_steps += 1
    assert aligned_steps > 0
    assert worst_gap < 1e-9, f"aligned column norms differ by {worst_gap:.2e}"
    _report(
        "6 (gradient dominance data)",
        f"mean |g_d|/|g_u| {mean_ratio:.1f} without alignment; "
        f"{aligned_steps} aligned steps, worst column-norm gap {worst_gap:.1e}",
    )


# --------------------------------------------------------------------------
# 7. branch sweep trend (logged, soft)


def test_criterion_7_branch_trend(tmp_path):
    root = tmp_path / "data"
    for i in range(12):
        pair = sd.generate_scene(sd.SceneSpec(seed=4000 + i, min_objects=1, max_objects=2))
        sd.write_scene(root, "train", f"scene-{i:04d}", pair)
    for i in range(6):
        pair = sd.generate_scene(sd.SceneSpec(seed=8000 + i, min_objects=1, max_objects=2))
        sd.write_scene(root, "val", f"scene-{i:04d}", pair)
    cfg = RunConfig(
        seed=0, iterations=400, learning_rate=0.05, dataset_root=str(root),
        out_dir=str(tmp_path / "out"),
    )
    # one job per (branch set, seed), so the costlier full-set runs spread over the workers
    branch_sets = {"0": (0,), "0,1,2,3": (0, 1, 2, 3)}
    report, _ = run_arms({
        name: [replace(cfg, seed=seed, branches=branches) for seed in EXPERIMENT_SEEDS]
        for name, branches in branch_sets.items()
    })
    json_path, csv_path = write_experiment_report(cfg.out_dir, "exp_branches", report)
    assert json_path.exists() and csv_path.exists()
    small, full = report["arms"]["0"], report["arms"]["0,1,2,3"]
    wins = 0
    for run_small, run_full in zip(small["runs"], full["runs"]):
        fusion_small = (run_small["en"], run_small["mi"], run_small["vif"])
        fusion_full = (run_full["en"], run_full["mi"], run_full["vif"])
        if sum(f >= s for f, s in zip(fusion_full, fusion_small)) >= 2:
            wins += 1
    detail = f"full branch set wins fusion metrics on {wins}/5 seeds"
    if wins < 3:
        warnings.warn(f"branch trend soft-failed: {detail} (logged, non-blocking)")
        _report("7 (branch trend, soft)", detail + " - SOFT WARN")
    else:
        _report("7 (branch trend, soft)", detail)


# --------------------------------------------------------------------------
# 8. CLI determinism


def test_criterion_8_cli_determinism(tmp_path):
    import hashlib

    def digest(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    data = tmp_path / "data"
    for tag in ("g1", "g2"):
        out = tmp_path / tag
        assert cli_main(["gen", "--seed", "7", "--scenes", "4",
                         "--dataset-root", str(out), "--split", "train"]) == 0
    assert digest(tmp_path / "g1") == digest(tmp_path / "g2")
    assert cli_main(["gen", "--seed", "7", "--scenes", "4",
                     "--dataset-root", str(data), "--split", "train"]) == 0
    assert cli_main(["gen", "--seed", "9", "--scenes", "3",
                     "--dataset-root", str(data), "--split", "val"]) == 0

    for tag in ("t1", "t2"):
        assert cli_main(["train", "--dataset-root", str(data), "--seed", "5",
                         "--iterations", "10", "--out", str(tmp_path / tag)]) == 0
    assert digest(tmp_path / "t1") == digest(tmp_path / "t2")

    model = str(tmp_path / "t1" / "model.json")
    for tag in ("f1", "f2"):
        assert cli_main(["fuse", "--model", model, "--dataset-root", str(data),
                         "--split", "val", "--out", str(tmp_path / tag)]) == 0
    assert digest(tmp_path / "f1") == digest(tmp_path / "f2")

    for tag in ("d1", "d2"):
        assert cli_main(["detect", "--model", model, "--dataset-root", str(data),
                         "--split", "val", "--seed", "3", "--out", str(tmp_path / tag)]) == 0
    assert digest(tmp_path / "d1") == digest(tmp_path / "d2")

    for tag in ("e1", "e2"):
        assert cli_main(["eval", "--dataset-root", str(data), "--split", "val",
                         "--pred-dir", str(tmp_path / "d1"), "--fused-dir", str(tmp_path / "f1"),
                         "--out", str(tmp_path / tag)]) == 0
    assert digest(tmp_path / "e1") == digest(tmp_path / "e2")
    report = json.loads((tmp_path / "e1" / "metrics.json").read_text())
    assert set(report["aggregate"]) == {"en", "mi", "vif", "map50", "map5095"}
    _report("8 (CLI determinism)", "gen/train/fuse/detect/eval byte-identical under fixed seeds")

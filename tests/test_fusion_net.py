"""Fusion network structure: branch laws, degenerate cases, coupling, and FD checks."""

import base64
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusedet import autodiff as ad
from fusedet import fusion_net as fn
from fusedet import harness
from fusedet.autodiff import Var
from fusedet.model import ModelConfig, ToyModel
from fusedet.rng import SplitMix64
from fusedet.synthdata import ScenePair
from tests.test_autodiff import rel_err


ALL = (0, 1, 2, 3)


def _place(branches=ALL, seed=0):
    values = fn.init_fusion_params(branches, SplitMix64(seed))
    return {k: Var.leaf(v, requires_grad=True) for k, v in values.items()}, values


class TestBackbone:
    def test_identical_modalities_double_single_pass(self):
        pv, _ = _place()
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(1, 16, 16))
        x = Var.constant(img)
        pyramid = fn.backbone_forward(pv, x, Var.constant(img.copy()))
        single = fn._backbone_single(pv, x)
        for lvl, one in zip(pyramid, single):
            np.testing.assert_allclose(lvl.value, 2.0 * one.value, atol=1e-12)

    def test_zero_input_bias_free_gives_zero_features(self):
        values = fn.init_fusion_params(ALL, SplitMix64(1))
        for k in values:
            if k.startswith("backbone.") and k.endswith(".b"):
                values[k] = np.zeros_like(values[k])
        pv = {k: Var.leaf(v) for k, v in values.items()}
        zero = Var.constant(np.zeros((1, 16, 16)))
        for lvl in fn.backbone_forward(pv, zero, zero):
            np.testing.assert_array_equal(lvl.value, 0.0)

    def test_pyramid_shapes(self):
        pv, _ = _place()
        img = Var.constant(np.random.default_rng(2).uniform(size=(1, 32, 32)))
        pyramid = fn.backbone_forward(pv, img, img)
        assert [lvl.value.shape for lvl in pyramid] == [
            (8, 32, 32), (8, 16, 16), (16, 8, 8), (32, 4, 4),
        ]

    def test_spatial_mismatch(self):
        pv, _ = _place()
        with pytest.raises(ad.ShapeError, match="modality shapes"):
            fn.backbone_forward(pv, Var.constant(np.zeros((1, 8, 8))), Var.constant(np.zeros((1, 9, 9))))


# side multiple the deepest enabled branch needs to upsample back to full size
_SIZE_MULTIPLE = {0: 1, 1: 1, 2: 2, 3: 4, 4: 8}


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(32, 80),
    w=st.integers(32, 80),
    branches=st.sets(st.integers(1, 4)).map(lambda s: (0, *sorted(s))),
)
@example(h=64, w=68, branches=(0, 1, 2, 3))
@example(h=64, w=65, branches=(0, 1, 2, 3))
@example(h=66, w=64, branches=(0, 1, 2, 3))
@example(h=36, w=40, branches=(0, 4))
def test_fusion_forward_size_rule(h, w, branches):
    """Either the fused image has the input's shape, or the size is rejected up front."""
    m = _SIZE_MULTIPLE[max(branches)]
    pv = {k: Var.constant(v) for k, v in fn.init_fusion_params(branches, SplitMix64(0)).items()}
    img = Var.constant(np.full((1, h, w), 0.5))
    try:
        u, _ = fn.fusion_forward(pv, img, img, branches)
    except ad.ShapeError as e:
        assert f"multiple of {m}" in str(e)
        assert h % m or w % m
    else:
        assert u.value.shape == (h, w)
        assert h % m == 0 and w % m == 0


class TestRegionMask:
    def test_orthogonal_prompt_channel_stays_zero(self):
        phi = Var.constant(np.stack([np.ones((3, 3)), np.zeros((3, 3))]))  # features in channel 0
        prompts = Var.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))  # first prompt orthogonal
        gamma = Var.constant(np.ones(2))
        beta = Var.constant(np.zeros(2))
        masks = fn.region_mask(prompts, phi, gamma, beta)
        np.testing.assert_array_equal(masks.value[0], 0.0)

    def test_single_location_degenerates_to_affine(self):
        phi = Var.constant(np.full((2, 1, 1), 3.0))
        prompts = Var.constant(np.array([[1.0, 1.0]]))
        gamma = Var.constant(np.array([5.0]))
        beta = Var.constant(np.array([0.25]))
        masks = fn.region_mask(prompts, phi, gamma, beta)
        # no spatial statistics: normalized value is 0, output is ReLU(beta)
        np.testing.assert_allclose(masks.value, [[[0.25]]])

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        phi_arr = rng.normal(size=(4, 3, 3))
        prompts_arr = rng.normal(size=(2, 4))
        gamma_arr = rng.uniform(0.5, 1.5, size=2)
        beta_arr = rng.normal(size=2) * 0.1
        got = fn.region_mask(
            Var.constant(prompts_arr), Var.constant(phi_arr), Var.constant(gamma_arr), Var.constant(beta_arr)
        ).value

        scores = np.zeros((2, 3, 3))
        for m in range(2):
            for r in range(3):
                for c in range(3):
                    scores[m, r, c] = prompts_arr[m] @ phi_arr[:, r, c]
        want = np.zeros_like(scores)
        for m in range(2):
            mu = scores[m].mean()
            var = scores[m].var()
            want[m] = np.maximum(
                gamma_arr[m] * (scores[m] - mu) / np.sqrt(var + 1e-5) + beta_arr[m], 0.0
            )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(4)
        masks = fn.region_mask(
            Var.constant(rng.normal(size=(4, 8))),
            Var.constant(rng.normal(size=(8, 5, 5))),
            Var.constant(rng.uniform(0.5, 2, size=4)),
            Var.constant(rng.normal(size=4)),
        )
        assert np.all(masks.value >= 0.0)

    def test_width_mismatch(self):
        with pytest.raises(ad.ShapeError, match="prompt width"):
            fn.region_mask(
                Var.constant(np.zeros((2, 5))), Var.constant(np.zeros((4, 3, 3))),
                Var.constant(np.ones(2)), Var.constant(np.zeros(2)),
            )


def _region_stack(masks: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The M*C region stack, read out of conv2d's region path through an identity 1x1 kernel."""
    n = masks.shape[0] * phi.shape[0]
    eye = Var.constant(np.eye(n).reshape(n, n, 1, 1))
    return ad.conv2d(Var.constant(phi), eye, masks=Var.constant(masks)).value


class TestRegionRepresentation:
    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(3, 4, 4))
        np.testing.assert_array_equal(_region_stack(np.ones((1, 4, 4)), phi), phi)

    def test_zero_mask_gives_zero_block(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(3, 4, 4))
        np.testing.assert_array_equal(_region_stack(np.zeros((2, 4, 4)), phi), np.zeros((6, 4, 4)))

    def test_matches_elementwise_oracle_and_channel_law(self):
        rng = np.random.default_rng(7)
        masks = rng.uniform(size=(3, 4, 4))
        phi = rng.normal(size=(5, 4, 4))
        out = _region_stack(masks, phi)
        assert out.shape == (15, 4, 4)  # channels == M * C2
        for m in range(3):
            for c in range(5):
                np.testing.assert_allclose(out[m * 5 + c], masks[m] * phi[c], atol=1e-15)


class TestAssemble:
    def test_zero_branches_bias_free_gives_half_gray(self):
        values = fn.init_fusion_params((0, 1), SplitMix64(8))
        for k in values:
            if k.endswith(".b") or k.endswith(".beta"):
                values[k] = np.zeros_like(values[k])
        pv = {k: Var.leaf(v) for k, v in values.items()}
        zero = Var.constant(np.zeros((1, 8, 8)))
        u, _ = fn.fusion_forward(pv, zero, zero, (0, 1))
        np.testing.assert_allclose(u.value, 0.5, atol=1e-12)

    def test_zero_gate_reduces_to_pixel_branch(self):
        values = fn.init_fusion_params((0, 1, 2), SplitMix64(9))
        # force the gate closed: huge negative bias saturates the sigmoid
        values["fuse.gate.w"] = np.zeros_like(values["fuse.gate.w"])
        values["fuse.gate.b"] = np.full_like(values["fuse.gate.b"], -745.0)
        pv = {k: Var.leaf(v) for k, v in values.items()}
        rng = np.random.default_rng(10)
        x = Var.constant(rng.uniform(size=(1, 8, 8)))
        y = Var.constant(rng.uniform(size=(1, 8, 8)))
        u_gated, _ = fn.fusion_forward(pv, x, y, (0, 1, 2))

        pv0 = {k: Var.leaf(v) for k, v in values.items() if not k.startswith("fuse.branch") and k not in ("fuse.mix.w", "fuse.mix.b", "fuse.gate.w", "fuse.gate.b")}
        u_plain, _ = fn.fusion_forward(pv0, Var.constant(x.value), Var.constant(y.value), (0,))
        np.testing.assert_allclose(u_gated.value, u_plain.value, atol=1e-12)

    def test_output_in_unit_interval(self):
        pv, _ = _place(seed=11)
        rng = np.random.default_rng(11)
        u, _ = fn.fusion_forward(
            pv, Var.constant(rng.uniform(size=(1, 16, 16))), Var.constant(rng.uniform(size=(1, 16, 16))), ALL
        )
        assert np.all(u.value >= 0.0) and np.all(u.value <= 1.0)
        assert u.value.shape == (16, 16)

    def test_branch_zero_required(self):
        with pytest.raises(ValueError, match="pixel branch 0"):
            fn.check_branches((1, 2))

    def test_branch_ids_validated(self):
        with pytest.raises(ValueError, match="branch ids"):
            fn.check_branches((0, 7))

    def test_image_size_check_names_a_bad_branch_id_first(self):
        with pytest.raises(ValueError, match=r"branch ids \[9\]"):
            fn.check_image_size((0, 9), "train", 64, 64)


def _assemble_upsample_first(p, b0, branch_outs):
    """assemble_fuse with each branch stack upsampled to full size before its 1x1 align conv.

    Nearest upsampling commutes with the stack's elementwise products, so the
    masks and features are upsampled and the full-size stack is built from them.
    """
    merged = None
    for l, (masks, phi) in branch_outs:
        factor = b0.value.shape[-1] // phi.value.shape[-1]
        if factor > 1:
            masks, phi = ad.upsample_nearest(masks, factor), ad.upsample_nearest(phi, factor)
        aligned = ad.conv2d(phi, p[f"fuse.branch{l}.align.w"], p[f"fuse.branch{l}.align.b"], masks=masks)
        merged = aligned if merged is None else merged + aligned
    mixed = ad.relu(ad.conv2d(merged, p["fuse.mix.w"], p["fuse.mix.b"]))
    h = b0 * ad.sigmoid(ad.conv2d(mixed, p["fuse.gate.w"], p["fuse.gate.b"])) + b0
    for i in range(1, 5):
        h = ad.relu(ad.conv2d(h, p[f"fuse.recon.c{i}.w"], p[f"fuse.recon.c{i}.b"]))
    out = ad.conv2d(h, p["fuse.recon.c5.w"], p["fuse.recon.c5.b"])
    return ad.sigmoid(ad.reshape(out, out.value.shape[1:]))


def test_align_before_upsample_keeps_the_fused_bytes():
    """Aligning each branch at its own resolution changes no forward byte; gradients agree to rounding."""
    rng = np.random.default_rng(12)
    x0, y0 = rng.uniform(size=(1, 64, 64)), rng.uniform(size=(1, 64, 64))
    results = []
    for assemble in (fn.assemble_fuse, _assemble_upsample_first):
        pv, _ = _place(seed=12)
        x, y = Var.constant(x0), Var.constant(y0)
        pyramid = fn.backbone_forward(pv, x, y)
        branch_outs = [(l, fn.branch_output(pv, pyramid[l - 1], l)) for l in (1, 2, 3)]
        u = assemble(pv, fn.pixel_block(pv, x, y), branch_outs)
        names = sorted(pv)
        results.append((u.value, dict(zip(names, ad.gradients(ad.mean(ad.square(u)), [pv[n] for n in names])))))
    (u_new, g_new), (u_ref, g_ref) = results
    assert u_new.tobytes() == u_ref.tobytes()
    for name in g_ref:
        assert rel_err(g_new[name], g_ref[name]) < 1e-12, name


def test_fuse_scene_bytes_of_the_training_forward():
    """Inference convs run in row bands and take branch stacks one at a time; training keeps whole
    column matrices and every stack.  At 192x128 both give the same fused bytes."""
    model = ToyModel.create(ModelConfig(), seed=4)
    rng = np.random.default_rng(13)
    vis, ir = rng.uniform(size=(128, 192)), rng.uniform(size=(128, 192))
    fused = harness.fuse_scene(model, ScenePair(vis, ir, np.zeros((0, 4))))
    u, _ = model.forward_fusion(model.params.place(), Var.constant(vis[None]), Var.constant(ir[None]))
    assert u.backward_fn is not None
    assert fused.tobytes() == u.value.tobytes()


def test_fuse_scene_peak_memory():
    """A no-gradient 192x128 fuse holds a few full-resolution maps at once, not the graph.

    Its peak is inside the gate's sigmoid: the pixel branch, the gate
    pre-activation and the sigmoid's two temporaries (four 16-channel maps),
    plus the kept pyramid (0.72 of a map) and the sign mask (1/8).  The bound
    is 5.5 maps: keeping any other map past its last consumer (the merged
    branches, the mix output), or a full M*C region stack (four maps),
    crosses it.
    """
    model = ToyModel.create(ModelConfig(), seed=4)
    rng = np.random.default_rng(13)
    pair = ScenePair(rng.uniform(size=(128, 192)), rng.uniform(size=(128, 192)), np.zeros((0, 4)))
    full_map = fn.FUSE_CHANNELS * 128 * 192 * 8
    harness.fuse_scene(model, pair)  # first-call allocations (caches, imports) are not the working set
    tracemalloc.start()
    try:
        harness.fuse_scene(model, pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * full_map


class TestCoupling:
    def test_backbone_perturbation_moves_both_heads(self):
        """Shared-parameter coupling: one backbone weight change shows up in both outputs."""
        model = ToyModel.create(ModelConfig(), seed=3)
        rng = SplitMix64(12)
        vis = rng.uniform((16, 16))
        ir = rng.uniform((16, 16))
        z_t = rng.normals((4, 4))

        def outputs():
            pv = model.params.place()
            u, pyramid = model.forward_fusion(pv, Var.constant(vis[None]), Var.constant(ir[None]))
            pred = model.forward_denoiser(pv, pyramid, z_t, 500)
            return u.value.copy(), pred.value.copy()

        u0, d0 = outputs()
        model.params.values["backbone.stem.w"] = model.params.values["backbone.stem.w"] + 0.05
        u1, d1 = outputs()
        assert np.abs(u1 - u0).max() > 1e-9
        assert np.abs(d1 - d0).max() > 1e-9

    def test_shared_mask_is_backbone_only(self):
        model = ToyModel.create(ModelConfig(), seed=4)
        assert all(n.startswith("backbone.") for n in model.params.shared)
        assert model.params.shared
        priv = set(model.params.private_names())
        assert priv.isdisjoint(model.params.shared)


def test_full_forward_gradients_match_finite_differences():
    """Sampled-coordinate FD check through the whole fusion pass on 8x8 inputs."""
    values = fn.init_fusion_params(ALL, SplitMix64(21))
    rng = np.random.default_rng(21)
    vis = rng.uniform(size=(1, 8, 8))
    ir = rng.uniform(size=(1, 8, 8))
    probe = rng.normal(size=(8, 8))

    def forward(vals) -> float:
        pv = {k: Var.leaf(v) for k, v in vals.items()}
        u, _ = fn.fusion_forward(pv, Var.constant(vis), Var.constant(ir), ALL)
        return ad.tsum(u * probe).item()

    pv = {k: Var.leaf(v, requires_grad=True) for k, v in values.items()}
    u, _ = fn.fusion_forward(pv, Var.constant(vis), Var.constant(ir), ALL)
    root = ad.tsum(u * probe)
    names = sorted(values)
    grads = dict(zip(names, ad.gradients(root, [pv[n] for n in names])))

    h = 1e-6
    checked = 0
    for k in range(24):
        name = names[k % len(names)]
        flat = values[name].reshape(-1)
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + h
        fp = forward(values)
        flat[idx] = orig - h
        fm = forward(values)
        flat[idx] = orig
        fd = (fp - fm) / (2 * h)
        an = grads[name].reshape(-1)[idx]
        err = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
        assert err < 1e-5, f"{name}[{idx}]: fd={fd} an={an}"
        checked += 1
    assert checked == 24


def _poke(payload, name, flat_index, value):
    """Overwrite entries of one parameter in a model file payload."""
    rec = payload["params"][name]
    arr = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
    arr[flat_index] = value
    rec["data"] = base64.b64encode(arr.tobytes()).decode("ascii")


class TestModelIO:
    def test_save_load_round_trip(self, tmp_path):
        model = ToyModel.create(ModelConfig(), seed=5)
        path = tmp_path / "model.json"
        model.save(path)
        back = ToyModel.load(path)
        assert back.cfg == model.cfg
        assert sorted(back.params.values) == sorted(model.params.values)
        for k, v in model.params.values.items():
            np.testing.assert_array_equal(back.params.values[k], v)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = ToyModel.create(ModelConfig(), seed=6)
        model.save(tmp_path / "a.json")
        model.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        (tmp_path / "junk.json").write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="format"):
            ToyModel.load(tmp_path / "junk.json")

    def test_config_json_holds_exactly_the_run_settings(self):
        assert ModelConfig().to_json() == {"branches": [0, 1, 2, 3], "boxes_per_scene": 16, "diffusion_steps": 1000}

    def test_saved_config_reloads_equal(self, tmp_path):
        cfg = ModelConfig(branches=(0, 2), boxes_per_scene=5, diffusion_steps=50)
        ToyModel.create(cfg, seed=1).save(tmp_path / "model.json")
        assert ToyModel.load(tmp_path / "model.json").cfg == cfg

    def test_v1_file_rejected_by_its_format(self, tmp_path):
        path = tmp_path / "model.json"
        ToyModel.create(ModelConfig(), seed=2).save(path)
        path.write_text(path.read_text().replace("fusedet-model-v2", "fusedet-model-v1"))
        with pytest.raises(ValueError, match="unrecognized model file format: 'fusedet-model-v1'"):
            ToyModel.load(path)

    @pytest.mark.parametrize("change, fault", [
        ({"boxes_per_scene": 0}, "boxes_per_scene must be an integer of at least 1, got 0"),
        ({"boxes_per_scene": -2}, "boxes_per_scene must be an integer of at least 1, got -2"),
        ({"boxes_per_scene": True}, "boxes_per_scene must be an integer of at least 1, got True"),
        ({"diffusion_steps": "x"}, "diffusion_steps must be an integer of at least 1, got 'x'"),
        ({"diffusion_steps": None}, "expected exactly the keys ['boxes_per_scene', 'branches', 'diffusion_steps'], "
                                    "got ['boxes_per_scene', 'branches']"),
        ({"foo": 1}, "expected exactly the keys ['boxes_per_scene', 'branches', 'diffusion_steps'], "
                     "got ['boxes_per_scene', 'branches', 'diffusion_steps', 'foo']"),
        ({"branches": [1, 2]}, "branches: branch set must include the pixel branch 0"),
        ({"branches": 3}, "branches must be a list of branch ids, got 3"),
    ])
    def test_bad_config_rejected_naming_the_fault(self, tmp_path, change, fault):
        path = tmp_path / "model.json"
        ToyModel.create(ModelConfig(), seed=2).save(path)
        payload = json.loads(path.read_text())
        config = {**payload["config"], **change}
        payload["config"] = {k: v for k, v in config.items() if v is not None}  # None deletes the key
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"model file config: {fault}")):
            ToyModel.load(path)

    @pytest.mark.parametrize("tamper, message", [
        (lambda p: p["params"].pop("fuse.mix.w"),
         r"'fuse.mix.w': the file has none, its config creates \(16, 16, 1, 1\)"),
        (lambda p: p["params"].__setitem__("fuse.extra.b", p["params"]["det.l2.b"]),
         r"'fuse.extra.b': the file has \(4,\), its config creates none"),
        (lambda p: p["config"].__setitem__("branches", [0, 1, 2]),
         r"'fuse.branch3.align.b': the file has \(16,\), its config creates none"),
        (lambda p: p["params"]["det.l2.w"].__setitem__("shape", [4, 64]),
         r"'det.l2.w': the file has \(4, 64\), its config creates \(64, 4\)"),
        (lambda p: _poke(p, "fuse.gate.b", [3, 7], np.nan), r"'fuse.gate.b': 2 value\(s\) are not finite"),
        (lambda p: _poke(p, "backbone.stem.w", [0], -np.inf), r"'backbone.stem.w': 1 value\(s\) are not finite"),
    ])
    def test_tampered_parameters_rejected(self, tmp_path, tamper, message):
        """Names and shapes are checked against what the file's config creates, and values are finite."""
        path = tmp_path / "model.json"
        ToyModel.create(ModelConfig(), seed=2).save(path)
        payload = json.loads(path.read_text())
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            ToyModel.load(path)

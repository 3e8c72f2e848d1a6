"""Graph lifetime: graphs are freed by reference counting, inference keeps no backward state.

Every test here runs with the cyclic garbage collector switched off, so
anything that only a full collection would free shows up as still alive.
"""

import gc
import weakref

import numpy as np
import pytest

from fusedet import autodiff as ad
from fusedet import harness
from fusedet.autodiff import ParamSet, Var
from fusedet.harness import RunConfig
from fusedet.model import ModelConfig, ToyModel


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def var_refs(monkeypatch):
    """Weak references to every Var made while the test runs."""
    refs = []
    record = ad._record

    def recording(value, backward_fn, requires_grad):
        v = record(value, backward_fn, requires_grad)
        refs.append(weakref.ref(v))
        return v

    monkeypatch.setattr(ad, "_record", recording)
    return refs


def _live(refs) -> list:
    return [r() for r in refs if r() is not None]


def test_tape_and_buffers_die_with_last_var(var_refs):
    x = Var.leaf(np.linspace(0.0, 1.0, 4 * 32 * 32).reshape(4, 32, 32), requires_grad=True)
    w = Var.leaf(np.full((8, 4, 3, 3), 0.1), requires_grad=True)
    h = ad.relu(ad.conv2d(x, w))
    loss = ad.tsum(ad.square(h))
    h_ref = weakref.ref(h.value)
    del h
    assert h_ref() is not None  # the backward pass of loss still needs it
    assert len(_live(var_refs)) == 6
    (gx,) = ad.gradients(loss, [x])
    assert gx.shape == x.value.shape
    del loss
    assert h_ref() is None
    live = _live(var_refs)
    assert len(live) == 2 and live[0] is x and live[1] is w
    del live, x, w
    assert not _live(var_refs)


def test_constant_subgraph_keeps_no_closure(var_refs):
    src = Var.constant(np.ones((32, 32)))
    blurred = ad.blur(src, ad.gaussian_kernel(7, 1.5))
    assert blurred.backward_fn is None
    src_ref = weakref.ref(src.value)
    del src
    assert src_ref() is None
    live = _live(var_refs)
    assert len(live) == 1 and live[0] is blurred
    del live
    p = Var.leaf(np.ones((32, 32)), requires_grad=True)
    assert ad.mul(p, blurred).backward_fn is not None


def test_train_keeps_only_the_last_placed_tape(train_batch, var_refs):
    model, log = harness.train(RunConfig(seed=0, iterations=3), train_batch)
    live = _live(var_refs)
    assert {id(v) for v in live} == {id(v) for v in model.params.vars.values()}
    assert len(live) == len(model.params.vars)
    del live, model, log
    assert not _live(var_refs)


def test_train_frees_each_step_before_the_next_forward(train_batch, monkeypatch, var_refs):
    fused = []
    forward = ToyModel.forward_fusion

    def recording_forward(self, pvars, x, y):
        assert all(r() is None for r in fused), "the previous step's graph is still alive"
        # only this step's inputs exist yet: fresh parameter leaves and the two images
        live = _live(var_refs)
        assert {id(v) for v in live} == {id(v) for v in (*pvars.values(), x, y)}
        del live
        u, pyramid = forward(self, pvars, x, y)
        fused.append(weakref.ref(u.value))
        return u, pyramid

    monkeypatch.setattr(ToyModel, "forward_fusion", recording_forward)
    harness.train(RunConfig(seed=0, iterations=3), train_batch)
    assert len(fused) == 3


@pytest.mark.parametrize("command", ["fuse", "detect"])
def test_inference_leaves_no_tape(val_batch, var_refs, command):
    model = ToyModel.create(ModelConfig(), 0)
    pair = val_batch.pairs[0]
    if command == "fuse":
        harness.fuse_scene(model, pair)
    else:
        harness.detect_scene(model, pair, 4, seed=0)
    assert var_refs
    assert not _live(var_refs)


def test_inference_matches_grad_tracked_forward(val_batch, monkeypatch):
    model = ToyModel.create(ModelConfig(), 6)
    pair = val_batch.pairs[1]
    fused = harness.fuse_scene(model, pair)
    boxes, scores = harness.detect_scene(model, pair, 4, seed=3)
    monkeypatch.setattr(ParamSet, "constants", ParamSet.place)
    tracked_boxes, tracked_scores = harness.detect_scene(model, pair, 4, seed=3)
    assert harness.fuse_scene(model, pair).tobytes() == fused.tobytes()
    assert tracked_boxes.tobytes() == boxes.tobytes()
    assert tracked_scores.tobytes() == scores.tobytes()


def test_inference_leaves_placed_params_untouched(val_batch):
    model = ToyModel.create(ModelConfig(), 0)
    placed = model.params.place()
    snapshot = dict(placed)
    harness.fuse_scene(model, val_batch.pairs[0])
    harness.detect_scene(model, val_batch.pairs[0], 4, seed=0)
    assert model.params.vars is placed
    assert all(placed[k] is v for k, v in snapshot.items())

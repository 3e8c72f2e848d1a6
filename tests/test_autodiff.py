"""Tape op semantics, exact gradients vs central finite differences, ParamSet plumbing."""

import numpy as np
import pytest

from fusedet import autodiff as ad
from fusedet.autodiff import ParamSet, Tape


def fd_gradient(fn, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    g = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x0)
        flat[i] = orig - h
        fm = fn(x0)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    denom = max(na, nb)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


class TestForwardValues:
    def test_relu_definition(self):
        t = Tape()
        out = ad.relu(t.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        t = Tape()
        out = ad.matmul(t.constant(np.eye(3)), t.constant(a))
        np.testing.assert_array_equal(out.value, a)

    def test_conv2d_against_direct_convolution(self):
        # hand-rolled dense correlation oracle with explicit loops
        def conv_oracle(x, w, stride):
            c_out, c_in, kh, kw = w.shape
            _, h, wd = x.shape
            ph, pw = kh // 2, kw // 2
            ho = (h + 2 * ph - kh) // stride + 1
            wo = (wd + 2 * pw - kw) // stride + 1
            xp = np.zeros((c_in, h + 2 * ph, wd + 2 * pw))
            xp[:, ph:ph + h, pw:pw + wd] = x
            out = np.zeros((c_out, ho, wo))
            for o in range(c_out):
                for r in range(ho):
                    for c in range(wo):
                        acc = 0.0
                        for ci in range(c_in):
                            for i in range(kh):
                                for j in range(kw):
                                    acc += w[o, ci, i, j] * xp[ci, r * stride + i, c * stride + j]
                        out[o, r, c] = acc
            return out

        ones = np.ones((1, 3, 3))
        kernel = np.ones((1, 1, 3, 3))
        t = Tape()
        out = ad.conv2d(t.constant(ones), t.constant(kernel)).value
        assert out[0, 1, 1] == pytest.approx(9.0)
        np.testing.assert_allclose(out, conv_oracle(ones, kernel, 1), atol=1e-12)

        rng = np.random.default_rng(11)
        for stride in (1, 2):
            x = rng.normal(size=(2, 5, 6))
            w = rng.normal(size=(3, 2, 3, 3))
            t = Tape()
            got = ad.conv2d(t.constant(x), t.constant(w), stride=stride).value
            np.testing.assert_allclose(got, conv_oracle(x, w, stride), atol=1e-12)

    @pytest.mark.parametrize(
        "shape, k, stride",
        [((3, 5, 6), 3, 1), ((3, 5, 6), 3, 2), ((2, 9, 7), 5, 2), ((1, 2, 2), 5, 1), ((1, 3, 3), 7, 2),
         ((1, 3, 3), 9, 1), ((2, 3, 5), 9, 2)],  # kernels wider than the image: taps that land nowhere
    )
    def test_im2col_col2im_match_padded_copy(self, shape, k, stride):
        """Byte for byte: the windows of a zero-padded copy, and the tap-order scatter back onto it."""
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.normal(size=shape)
        c, h, w = shape
        p = k // 2
        xp = np.zeros((c, h + 2 * p, w + 2 * p))
        xp[:, p:p + h, p:p + w] = x
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
        ho, wo = win.shape[1:3]
        cols, h_out, w_out = ad._im2col(x, k, k, stride)
        assert (h_out, w_out) == (ho, wo)
        assert cols.tobytes() == win.transpose(0, 3, 4, 1, 2).reshape(c * k * k, ho * wo).tobytes()
        gcols = rng.normal(size=cols.shape)
        gcols[rng.random(gcols.shape) < 0.3] = -0.0  # signed zeros expose a change of summation order
        g5 = gcols.reshape(c, k, k, ho, wo)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += g5[:, i, j]
        want = np.ascontiguousarray(gxp[:, p:p + h, p:p + w])
        assert ad._col2im(gcols, shape, k, k, stride, ho, wo).tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_one_output_channel_input_gradient_bytes(self, stride):
        """The broadcast product taken for one output channel gives the bytes of the BLAS product."""
        rng = np.random.default_rng(40 + stride)
        t = Tape()
        x = t.leaf(rng.normal(size=(3, 9, 8)), requires_grad=True)
        w = rng.normal(size=(1, 3, 3, 3))
        out = ad.conv2d(x, t.constant(w), stride=stride)
        g = rng.normal(size=out.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        (gx,) = ad.gradients(ad.tsum(out * g), [x])
        _, ho, wo = out.value.shape
        want = ad._col2im(w.reshape(1, -1).T @ g.reshape(1, -1), (3, 9, 8), 3, 3, stride, ho, wo)
        assert gx.tobytes() == want.tobytes()

    def test_blur_matches_dense_window_sum(self):
        rng = np.random.default_rng(5)
        img = rng.normal(size=(9, 7))
        kernel = ad.gaussian_kernel(5, 1.0)
        t = Tape()
        got = ad.blur(t.constant(img), kernel).value
        h, w = img.shape
        xp = np.zeros((h + 4, w + 4))
        xp[2:2 + h, 2:2 + w] = img
        want = np.zeros_like(img)
        for r in range(h):
            for c in range(w):
                want[r, c] = np.sum(kernel * xp[r:r + 5, c:c + 5])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("k, h, w", [(3, 9, 7), (5, 64, 64), (11, 65, 63), (17, 128, 192)])
    def test_correlate_stack_valid_and_same(self, k, h, w):
        """A stack gets each slice's own bytes; `valid` is `same` without its padded rim."""
        rng = np.random.default_rng(k)
        stack = rng.normal(size=(5, h, w)) * 100.0
        window = ad.gaussian_kernel(k, k / 5.0)
        p = k // 2
        for kernel in (window, (window.sum(axis=1), window.sum(axis=0))):
            same = ad.correlate(stack, kernel)
            valid = ad.correlate(stack, kernel, "valid")
            for i in range(stack.shape[0]):
                assert np.array_equal(same[i], ad.correlate(stack[i], kernel))
                assert np.array_equal(valid[i], ad.correlate(stack[i], kernel, "valid"))
            # BLAS rounds an output by its place in the row, so the crop is
            # equal only to the last bit or so
            np.testing.assert_allclose(valid, same[:, p:h - p, p:w - p], rtol=0, atol=1e-14 * np.abs(same).max())

    def test_correlate_sums_rank_one_terms_of_a_general_kernel(self):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(9, 12))
        kernel = rng.normal(size=(3, 5))
        want = np.zeros((7, 8))
        for r in range(7):
            for c in range(8):
                want[r, c] = np.sum(kernel * img[r:r + 3, c:c + 5])
        np.testing.assert_allclose(ad.correlate(img, kernel, "valid"), want, atol=1e-12)
        with pytest.raises(ValueError, match="mode"):
            ad.correlate(img, kernel, "full")

    def test_upsample_nearest(self):
        t = Tape()
        x = t.constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.upsample_nearest(x, 2).value
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out[:2, :2], np.ones((2, 2)))
        np.testing.assert_array_equal(out[2:, 2:], np.full((2, 2), 4.0))

    @pytest.mark.parametrize("shape, factor", [((3, 5), 2), ((4, 6, 5), 2), ((2, 4, 3), 3), ((16, 8, 8), 4), ((1, 2, 3), 7)])
    def test_upsample_backward_bytes_of_numpy_block_sum(self, shape, factor):
        rng = np.random.default_rng(factor + len(shape))
        t = Tape()
        x = t.leaf(rng.normal(size=shape), requires_grad=True)
        up = ad.upsample_nearest(x, factor)
        g = rng.normal(size=up.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0  # signed zeros expose a change of summation order
        (gx,) = ad.gradients(ad.tsum(up * g), [x])
        *lead, h, w = shape
        want = g.reshape(*lead, h, factor, w, factor).sum(axis=(-3, -1))
        assert gx.tobytes() == want.tobytes()

    def test_division_by_zero_raises(self):
        t = Tape()
        with pytest.raises(ValueError, match="division by zero"):
            ad.div(t.constant([1.0]), t.constant([0.0]))

    def test_shape_mismatch_names_op_and_shapes(self):
        t = Tape()
        with pytest.raises(ad.ShapeError, match=r"add.*2x2.*3"):
            ad.add(t.constant(np.zeros((2, 2))), t.constant(np.zeros(3)))


class TestBackward:
    def test_sum_of_squares(self):
        t = Tape()
        x = t.leaf([1.0, 2.0, 3.0], requires_grad=True)
        root = ad.tsum(x * x)
        (g,) = ad.gradients(root, [x])
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0])

    def test_sigmoid_derivative_at_zero(self):
        t = Tape()
        x = t.leaf(0.0, requires_grad=True)
        (g,) = ad.gradients(ad.sigmoid(x), [x])
        assert g == pytest.approx(0.25)

    def test_non_scalar_root_rejected(self):
        t = Tape()
        x = t.leaf([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.gradients(x * x, [x])

    def test_unreached_param_gets_zeros(self):
        t = Tape()
        x = t.leaf([1.0, 2.0], requires_grad=True)
        y = t.leaf([[3.0, 4.0]], requires_grad=True)
        (gx, gy) = ad.gradients(ad.tsum(x), [x, y])
        np.testing.assert_array_equal(gx, [1.0, 1.0])
        np.testing.assert_array_equal(gy, np.zeros((1, 2)))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(4, 4))
        a, b = 2.5, -1.25

        def build(x_arr):
            t = Tape()
            x = t.leaf(x_arr, requires_grad=True)
            f = ad.mean(ad.square(x))
            g = ad.tsum(ad.absolute(x * 0.5))
            return t, x, f, g

        t, x, f, g = build(x0)
        (g_combined,) = ad.gradients(f * a + g * b, [x])
        (gf,) = ad.gradients(f, [x])
        (gg,) = ad.gradients(g, [x])
        np.testing.assert_allclose(g_combined, a * gf + b * gg, atol=1e-12)

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(23)
            t = Tape()
            x = t.leaf(rng.normal(size=(3, 3)), requires_grad=True)
            w = t.leaf(rng.normal(size=(3, 3)), requires_grad=True)
            root = ad.mean(ad.sigmoid(ad.matmul(x, w)))
            return root.value.copy(), ad.gradients(root, [x, w])

        v1, (gx1, gw1) = run()
        v2, (gx2, gw2) = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


def _scalarize(v):
    return ad.mean(v) if v.value.size > 1 else v


# builders: x (input under test) -> scalar Var; domains chosen away from kinks
_OP_GRAPHS = {
    "add": lambda t, x: _scalarize(ad.add(x, t.constant(np.ones_like(x.value)))),
    "sub": lambda t, x: _scalarize(ad.sub(x, t.constant(np.full_like(x.value, 0.3)))),
    "mul": lambda t, x: _scalarize(ad.mul(x, x)),
    "div": lambda t, x: _scalarize(ad.div(x, t.constant(np.full_like(x.value, 2.0)))),
    "scalar_broadcast": lambda t, x: _scalarize(x * 3.0 + 1.0),
    "matmul": lambda t, x: _scalarize(ad.matmul(x, x)),
    "relu": lambda t, x: _scalarize(ad.relu(x)),
    "sigmoid": lambda t, x: _scalarize(ad.sigmoid(x)),
    "mean_axis": lambda t, x: ad.mean(ad.square(ad.mean(x, axis=0))),
    "sum": lambda t, x: ad.tsum(ad.square(x)) * 0.25,
    "abs": lambda t, x: _scalarize(ad.absolute(x)),
    "square": lambda t, x: _scalarize(ad.square(x)),
    "reshape": lambda t, x: _scalarize(ad.reshape(x, (x.value.size,))),
}


@pytest.mark.parametrize("name", sorted(_OP_GRAPHS))
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(8):
        x0 = rng.normal(size=(4, 4)) + 0.5

        def f(arr):
            t = Tape()
            x = t.leaf(arr, requires_grad=True)
            return _OP_GRAPHS[name](t, x).item()

        t = Tape()
        x = t.leaf(x0, requires_grad=True)
        root = _OP_GRAPHS[name](t, x)
        (g,) = ad.gradients(root, [x])
        fd = fd_gradient(f, x0.copy())
        assert rel_err(g, fd) < 1e-5, f"{name}: rel err {rel_err(g, fd)}"


_STRUCTURED = {
    "conv2d_s1": {
        "shapes": {"x": (2, 5, 5), "w": (3, 2, 3, 3), "b": (3,)},
        "build": lambda t, v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=1))),
    },
    "conv2d_s2": {
        "shapes": {"x": (2, 6, 6), "w": (2, 2, 3, 3), "b": (2,)},
        "build": lambda t, v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=2))),
    },
    "blur": {
        "shapes": {"x": (6, 6)},
        "build": lambda t, v: ad.mean(ad.square(ad.blur(v["x"], ad.gaussian_kernel(5, 1.0)))),
    },
    "upsample": {
        "shapes": {"x": (2, 3, 3)},
        "build": lambda t, v: ad.mean(ad.square(ad.upsample_nearest(v["x"], 2))),
    },
    "concat": {
        "shapes": {"x": (2, 3, 3), "y": (1, 3, 3)},
        "build": lambda t, v: ad.mean(ad.square(ad.concat([v["x"], v["y"]], axis=0))),
    },
    "spatial_norm": {
        "shapes": {"x": (3, 4, 4), "gamma": (3,), "beta": (3,)},
        # weight by a fixed field so the objective is sensitive to where values sit
        "build": lambda t, v: ad.mean(
            ad.square(
                ad.spatial_norm(v["x"], v["gamma"], v["beta"])
                * t.constant(np.linspace(-1.0, 1.0, 48).reshape(3, 4, 4))
            )
        ),
    },
    "rowwise_outer": {
        "shapes": {"x": (2, 6), "y": (3, 6)},
        "build": lambda t, v: ad.mean(ad.square(ad.rowwise_outer(v["x"], v["y"]))),
    },
    "gather": {
        "shapes": {"x": (3, 4, 4)},
        "build": lambda t, v: ad.mean(
            ad.square(ad.gather_pixels(v["x"], np.array([0, 1, 1, 3]), np.array([2, 0, 0, 3])))
        ),
    },
    "linear": {
        "shapes": {"x": (4, 3), "w": (3, 2), "b": (2,)},
        "build": lambda t, v: ad.mean(ad.square(ad.linear(v["x"], v["w"], v["b"]))),
    },
}


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_op_gradients(name):
    spec = _STRUCTURED[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    arrays = {k: rng.normal(size=s) * 0.7 + 0.2 for k, s in spec["shapes"].items()}
    t = Tape()
    lifted = {k: t.leaf(a, requires_grad=True) for k, a in arrays.items()}
    root = spec["build"](t, lifted)
    grads = dict(zip(arrays, ad.gradients(root, list(lifted.values()))))

    for key in arrays:
        def f(arr, key=key):
            t2 = Tape()
            lv = {k: t2.leaf(arr if k == key else arrays[k], requires_grad=False) for k in arrays}
            return spec["build"](t2, lv).item()

        fd = fd_gradient(f, arrays[key].copy())
        assert rel_err(grads[key], fd) < 1e-5, f"{name}/{key}: rel err {rel_err(grads[key], fd)}"


def test_random_composite_graphs_match_finite_differences():
    """Gradient correctness property: >=100 random multi-op graphs vs central FD."""
    menu = sorted(_OP_GRAPHS)
    checked = 0
    for trial in range(104):
        rng = np.random.default_rng(1000 + trial)
        names = [menu[rng.integers(len(menu))] for _ in range(3)]
        x0 = rng.normal(size=(4, 4)) * 0.6 + 0.8

        def f(arr):
            t = Tape()
            x = t.leaf(arr, requires_grad=True)
            acc = None
            for nm in names:
                term = _OP_GRAPHS[nm](t, x)
                acc = term if acc is None else acc + term
            return acc.item()

        t = Tape()
        x = t.leaf(x0, requires_grad=True)
        acc = None
        for nm in names:
            term = _OP_GRAPHS[nm](t, x)
            acc = term if acc is None else acc + term
        (g,) = ad.gradients(acc, [x])
        fd = fd_gradient(f, x0.copy())
        assert rel_err(g, fd) < 1e-5, f"graph {names}: rel err {rel_err(g, fd)}"
        checked += 1
    assert checked >= 100


class TestParamSet:
    def test_flatten_ordering(self):
        grads = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        np.testing.assert_array_equal(ad.flatten_grads(grads, ["b", "a"]), [1, 2, 3, 4])

    def test_flatten_empty_mask(self):
        assert ad.flatten_grads({}, []).size == 0

    def test_flatten_missing_name_raises(self):
        with pytest.raises(KeyError, match="missing"):
            ad.flatten_grads({"a": np.zeros(2)}, ["a", "zz"])

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        values = {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=(3,)), "u": rng.normal(size=(4,))}
        shapes = {k: v.shape for k, v in values.items()}
        vec = ad.flatten_grads(values, values)
        back = ad.unflatten(vec, shapes, values)
        for k in values:
            np.testing.assert_array_equal(back[k], values[k])

    def test_shared_mask_must_be_subset(self):
        with pytest.raises(ValueError, match="shared"):
            ParamSet({"a": np.zeros(2)}, shared=["a", "ghost"])

    def test_backward_over_params(self):
        ps = ParamSet({"w": np.array([2.0, 3.0]), "unused": np.zeros((2, 2))}, shared=["w"])
        t = Tape()
        pv = ps.place(t)
        root = ad.tsum(ad.square(pv["w"]))
        grads = ad.backward(root, ps)
        np.testing.assert_allclose(grads["w"], [4.0, 6.0])
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))

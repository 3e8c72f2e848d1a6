"""Op semantics, exact gradients vs central finite differences, ParamSet plumbing."""

import tracemalloc
import zlib

import numpy as np
import pytest

from fusedet import autodiff as ad
from fusedet.autodiff import ParamSet, Var


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


def col2im_reference(gcols: np.ndarray, shape: tuple, k: int, stride: int) -> np.ndarray:
    """Adjoint of im2col: scatter (C*k*k, Ho*Wo) columns onto a zero-padded copy, tap by tap in row-major order."""
    c, h, w = shape
    p = k // 2
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    g5 = gcols.reshape(c, k, k, ho, wo)
    gxp = np.zeros((c, h + 2 * p, w + 2 * p))
    for i in range(k):
        for j in range(k):
            gxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += g5[:, i, j]
    return np.ascontiguousarray(gxp[:, p:p + h, p:p + w])


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    denom = max(na, nb)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def correlate_dense(img: np.ndarray, kernel: np.ndarray, same: bool) -> np.ndarray:
    """2-D correlation of one image by a loop over the kernel's taps, zero-padded to keep the size when `same`."""
    kh, kw = kernel.shape
    if same:
        img = np.pad(img, ((kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((img.shape[0] - kh + 1, img.shape[1] - kw + 1))
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * img[i:i + out.shape[0], j:j + out.shape[1]]
    return out


class TestForwardValues:
    def test_relu_definition(self):
        out = ad.relu(Var.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Var.constant(np.eye(3)), Var.constant(a))
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
        out = ad.conv2d(Var.constant(ones), Var.constant(kernel)).value
        assert out[0, 1, 1] == pytest.approx(9.0)
        np.testing.assert_allclose(out, conv_oracle(ones, kernel, 1), atol=1e-12)

        rng = np.random.default_rng(11)
        for stride in (1, 2):
            x = rng.normal(size=(2, 5, 6))
            w = rng.normal(size=(3, 2, 3, 3))
            got = ad.conv2d(Var.constant(x), Var.constant(w), stride=stride).value
            np.testing.assert_allclose(got, conv_oracle(x, w, stride), atol=1e-12)

    @pytest.mark.parametrize(
        "shape, k, stride",
        [((3, 5, 6), 3, 1), ((3, 5, 6), 3, 2), ((2, 9, 7), 5, 2), ((1, 2, 2), 5, 1), ((1, 3, 3), 7, 2),
         ((1, 3, 3), 9, 1), ((2, 3, 5), 9, 2)],  # kernels wider than the image: taps that land nowhere
    )
    def test_im2col_col2im_match_padded_copy(self, shape, k, stride):
        """Byte for byte: im2col is a zero-padded copy's windows; the input gradient, the tap-order scatter onto it.

        One output channel makes every product exact, so this checks where
        the taps land, kernels wider than the image included; the GEMM's
        rounding is checked at the model's own shapes.
        """
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
        wt = rng.normal(size=(1, c, k, k))
        gf = rng.normal(size=(1, ho * wo))
        gf[rng.random(gf.shape) < 0.3] = -0.0  # signed zeros expose a change of summation order
        want = col2im_reference(wt.reshape(1, -1).T @ gf, shape, k, stride)
        assert ad._conv_input_grad(gf, wt, shape, stride).tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_one_output_channel_input_gradient_bytes(self, stride):
        """The broadcast product taken for one output channel gives the bytes of the BLAS product."""
        rng = np.random.default_rng(40 + stride)
        x = Var.leaf(rng.normal(size=(3, 9, 8)), requires_grad=True)
        w = rng.normal(size=(1, 3, 3, 3))
        out = ad.conv2d(x, Var.constant(w), stride=stride)
        g = rng.normal(size=out.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        (gx,) = ad.gradients(ad.tsum(out * g), [x])
        _, ho, wo = out.value.shape
        want = col2im_reference(w.reshape(1, -1).T @ g.reshape(1, -1), (3, 9, 8), 3, stride)
        assert gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c_out", [1, 16])
    def test_pointwise_conv2d_is_im2col_gemm_signed_zeros_aside(self, c_out):
        """A 1x1 stride-1 kernel skips im2col and col2im, not their arithmetic.

        Its input gradient is the GEMM product itself; col2im adds that onto
        zeros, which turns -0.0 into +0.0, so both sides are compared after
        adding +0.0.  Every other byte must match.
        """
        rng = np.random.default_rng(50 + c_out)
        x = Var.leaf(rng.normal(size=(6, 7, 9)), requires_grad=True)
        w = rng.normal(size=(c_out, 6, 1, 1))
        b = rng.normal(size=c_out)
        out = ad.conv2d(x, Var.constant(w), Var.constant(b))
        cols, _, _ = ad._im2col(x.value, 1, 1, 1)
        want = (w.reshape(c_out, 6) @ cols).reshape(c_out, 7, 9)
        want += b[:, None, None]
        assert out.value.tobytes() == want.tobytes()
        g = rng.normal(size=out.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        (gx,) = ad.gradients(ad.tsum(out * g), [x])
        wm = w.reshape(c_out, 6)
        gcols = wm.T * g.reshape(1, -1) if c_out == 1 else wm.T @ g.reshape(c_out, -1)
        want_gx = col2im_reference(gcols, (6, 7, 9), 1, 1)
        assert (gx + 0.0).tobytes() == (want_gx + 0.0).tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c_out", [1, 16])
    def test_conv2d_weight_gradient_bytes_of_gf_cols_t(self, c_out, k):
        """The op's transposed product (cols @ gf.T).T has the bytes of gf @ cols.T, at the fusion head's sizes."""
        rng = np.random.default_rng(60 + c_out + k)
        x = rng.normal(size=(16, 64, 64))
        w = Var.leaf(rng.normal(size=(c_out, 16, k, k)), requires_grad=True)
        out = ad.conv2d(Var.constant(x), w)
        g = rng.normal(size=out.value.shape)
        (gw,) = ad.gradients(ad.tsum(out * g), [w])
        cols, _, _ = ad._im2col(x, k, k, 1)
        want = (g.reshape(c_out, -1) @ cols.T).reshape(w.value.shape)
        assert gw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("h, w", [(64, 64), (128, 192)])
    @pytest.mark.parametrize(
        "c_in, c_out, k, stride, level",  # level 1 is full resolution, each deeper one halves it
        [
            # backbone stem: its input is the image, so the model takes no input gradient there; at one
            # input channel each tap's product is a matrix-vector product, which rounds differently
            (1, 8, 3, 1, 1),
            (8, 8, 3, 2, 1), (8, 16, 3, 2, 2), (16, 32, 3, 2, 3),  # backbone stages
            (2, 16, 3, 1, 1), (16, 16, 3, 1, 1),  # pixel branch, reconstruction c1-c4
            (8, 16, 3, 1, 1), (8, 16, 3, 1, 2), (16, 16, 3, 1, 3), (32, 16, 3, 1, 4),  # region branch projections
            (16, 16, 1, 1, 1),  # mix and gate
            (16, 1, 3, 1, 1),  # reconstruction c5: one output channel
            (8, 8, 5, 1, 1), (8, 8, 5, 2, 1),  # a 5x5 kernel
        ],
    )
    def test_conv2d_gradients_bytes_of_whole_column_products(self, h, w, c_in, c_out, k, stride, level):
        """At every conv shape of the default model, the gradients have the bytes of the whole column matrix's products.

        The weight gradient is (cols @ gf.T).T over the columns the backward
        rebuilds; the per-tap input gradient is the tap-order scatter of
        wm.T @ gf (the broadcast product at one output channel).
        """
        h, w = h >> (level - 1), w >> (level - 1)
        rng = np.random.default_rng(c_in * h + w + k + stride + c_out)
        x = Var.leaf(rng.normal(size=(c_in, h, w)), requires_grad=c_in > 1)
        wt = Var.leaf(rng.normal(size=(c_out, c_in, k, k)), requires_grad=True)
        out = ad.conv2d(x, wt, stride=stride)
        g = rng.normal(size=out.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        gx, gw = ad.gradients(ad.tsum(out * g), [x, wt])
        gf, wm = g.reshape(c_out, -1), wt.value.reshape(c_out, -1)
        cols, _, _ = ad._im2col(x.value, k, k, stride)
        assert gw.tobytes() == (cols @ gf.T).T.reshape(wt.value.shape).tobytes()
        if not x.requires_grad:
            return
        gcols = wm.T * gf if c_out == 1 else wm.T @ gf
        want = gcols if k == 1 else col2im_reference(gcols, x.value.shape, k, stride)
        assert gx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize(
        "c_in, c_out, h, w, k, stride, band_rows, bands",
        [
            (16, 16, 37, 64, 3, 1, 3, 13),  # 3-row bands do not divide 37 rows
            (16, 16, 37, 64, 3, 1, 1, 37),  # a band of one row
            (8, 16, 74, 128, 3, 2, 4, 10),  # stride 2: 37 output rows
            (1, 1, 37, 64, 3, 1, 5, 8),  # one input and one output channel
            (3, 5, 37, 64, 5, 1, 2, 19),  # 5x5 kernel
            (2, 3, 16, 8, 9, 1, 1, 2),  # a 9x9 kernel on an 8-wide image; 8 rows make one 64-column tile
            (16, 16, 37, 192, 3, 1, None, 19),  # the module's own band budget: 2 rows of 192
            (16, 16, 37, 29, 3, 1, 1, 1),  # 37*29 outputs end inside a 64-column tile: one band
            (32, 4, 16, 64, 3, 1, 1, 1),  # 288 deep, past one GEMM panel: one band
        ],
    )
    def test_banded_conv2d_bytes_of_kept_cols(self, monkeypatch, c_in, c_out, h, w, k, stride, band_rows, bands, bias):
        """With or without a weight gradient the forward runs in row bands, with the bytes of one whole-column GEMM."""
        rng = np.random.default_rng(c_in * h + w + k + stride)
        x = rng.normal(size=(c_in, h, w))
        wt = rng.normal(size=(c_out, c_in, k, k))
        b = Var.constant(rng.normal(size=c_out)) if bias else None
        cols, h_out, w_out = ad._im2col(x, k, k, stride)
        want = (wt.reshape(c_out, -1) @ cols).reshape(c_out, h_out, w_out)
        if bias:
            want += b.value[:, None, None]
        if band_rows is not None:
            monkeypatch.setattr(ad, "_BAND_BYTES", band_rows * 8 * c_in * k * k * w_out)
        calls = []
        im2col = ad._im2col

        def counting(*args):
            calls.append(args[4:6])
            return im2col(*args)

        monkeypatch.setattr(ad, "_im2col", counting)
        for w_grad in (False, True):
            calls.clear()
            got = ad.conv2d(Var.constant(x), Var.leaf(wt, requires_grad=w_grad), b, stride=stride)
            assert len(calls) == bands
            assert got.value.tobytes() == want.tobytes()

    def test_banded_conv2d_peak_memory(self):
        """A no-gradient 16->16 3x3 conv at 192x128 never holds its 28 MB column matrix.

        The bound is the output, one band buffer of at most _BAND_BYTES, and
        the padded input rows of one band (for a 3x3 kernel at most a third
        of that band's columns, so below _BAND_BYTES too), plus 64 KiB for
        small objects.
        """
        rng = np.random.default_rng(80)
        x = Var.constant(rng.normal(size=(16, 128, 192)))
        w = Var.constant(rng.normal(size=(16, 16, 3, 3)))
        b = Var.constant(rng.normal(size=16))
        full_cols = 16 * 9 * 128 * 192 * 8
        tracemalloc.start()
        try:
            out = ad.conv2d(x, w, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = out.value.nbytes + 2 * ad._BAND_BYTES + (1 << 16)
        assert bound < full_cols / 6
        assert peak < bound

    @pytest.mark.parametrize(
        "c_in, c_out, h, w, k, stride, w_grad",
        [
            (3, 5, 9, 8, 3, 1, True),
            (3, 5, 9, 8, 3, 2, True),
            (6, 4, 7, 9, 1, 1, True),  # 1x1: one GEMM on the input's view
            (1, 1, 9, 8, 3, 2, True),  # one output channel: the broadcast input gradient
            (16, 16, 128, 192, 3, 1, False),  # row bands
            (16, 16, 37, 29, 3, 1, False),  # 37*29 ends inside a tile: one band
            (16, 16, 37, 29, 3, 1, True),
        ],
    )
    def test_fused_relu_bytes_of_relu_after_conv2d(self, c_in, c_out, h, w, k, stride, w_grad):
        """conv2d(relu=True) gives the value and x/w/b gradients of relu(conv2d(...)), byte for byte, in one node."""
        rng = np.random.default_rng(c_in * h + w + k + stride)
        x = Var.leaf(rng.normal(size=(c_in, h, w)), requires_grad=True)
        wt = Var.leaf(rng.normal(size=(c_out, c_in, k, k)), requires_grad=w_grad)
        b = Var.leaf(rng.normal(size=c_out) * 0.5, requires_grad=True)
        fused = ad.conv2d(x, wt, b, stride=stride, relu=True)
        plain = ad.conv2d(x, wt, b, stride=stride)
        unfused = ad.relu(plain)
        assert plain.idx == fused.idx + 1 and unfused.idx == plain.idx + 1  # one node where the pair makes two
        assert fused.value.tobytes() == unfused.value.tobytes()
        g = rng.normal(size=fused.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0
        wrt = [x, wt, b] if w_grad else [x, b]
        got = ad.gradients(ad.tsum(fused * g), wrt)
        want = ad.gradients(ad.tsum(unfused * g), wrt)
        for a, e in zip(got, want):
            assert a.tobytes() == e.tobytes()

    @staticmethod
    def _region_reference(masks, phi, w, b, g):
        """The region stack through a plain 1x1 conv2d, and the row-product backward onto masks and phi."""
        m, c = masks.shape[0], phi.shape[0]
        stack = Var.leaf((masks[:, None] * phi[None]).reshape(m * c, *phi.shape[1:]), requires_grad=True)
        wv, bv = Var.leaf(w, requires_grad=True), Var.leaf(b, requires_grad=True)
        out = ad.conv2d(stack, wv, bv)
        gs, gw, gb = ad.gradients(ad.tsum(out * g), [stack, wv, bv])
        g3 = gs.reshape(m, c, -1)
        gm = (g3 * phi.reshape(1, c, -1)).sum(axis=1).reshape(masks.shape)
        gphi = (g3 * masks.reshape(m, 1, -1)).sum(axis=0).reshape(phi.shape)
        return out.value, gm, gphi, gw, gb

    @pytest.mark.parametrize(
        "h, w, bands",
        [
            (128, 192, 26),  # 5 rows of 192 per 512 KiB band of 64-deep columns
            (64, 96, 7), (32, 48, 2), (16, 24, 1),  # the deeper branches of a 192x128 scene
            (64, 64, 4), (32, 32, 1), (16, 16, 1), (8, 8, 1),  # every branch of a 64x64 scene
            (37, 29, 1),  # 37*29 ends inside a 64-column tile: one band
        ],
    )
    def test_region_conv_bytes_of_stack_then_pointwise_conv(self, monkeypatch, h, w, bands):
        """conv2d over masks x phi gives the bytes of building the M*C stack and a 1x1 conv on it.

        The forward builds the stack in row bands into one buffer; a weight
        gradient rebuilds it whole, once, in the backward.  Every gradient
        (masks, phi, w, b) against the stack's own chain.
        """
        rng = np.random.default_rng(h + w)
        masks = np.maximum(rng.normal(size=(4, h, w)), 0.0)
        phi = np.maximum(rng.normal(size=(16, h, w)), 0.0)
        wt, b = rng.normal(size=(16, 64, 1, 1)), rng.normal(size=16)
        g = rng.normal(size=(16, h, w))
        want = self._region_reference(masks, phi, wt, b, g)
        calls = []
        region_cols = ad._region_cols

        def counting(*args):
            calls.append(args[2:4])
            return region_cols(*args)

        monkeypatch.setattr(ad, "_region_cols", counting)
        for w_grad in (False, True):
            calls.clear()
            mv, pv = Var.leaf(masks, requires_grad=True), Var.leaf(phi, requires_grad=True)
            wv, bv = Var.leaf(wt, requires_grad=w_grad), Var.leaf(b, requires_grad=True)
            out = ad.conv2d(pv, wv, bv, masks=mv)
            assert len(calls) == bands
            assert out.value.tobytes() == want[0].tobytes()
            got = ad.gradients(ad.tsum(out * g), [mv, pv, wv, bv])
            assert calls[bands:] == ([(0, h)] if w_grad else [])
            for name, a, e in zip(("masks", "phi", "w", "b"), got, want[1:]):
                if name != "w" or w_grad:
                    assert a.tobytes() == e.tobytes(), name

    def test_region_conv_rejects_bad_shapes(self):
        phi = Var.constant(np.zeros((3, 4, 4)))
        with pytest.raises(ad.ShapeError, match="masks"):
            ad.conv2d(phi, np.zeros((2, 6, 1, 1)), masks=Var.constant(np.zeros((2, 4, 5))))
        with pytest.raises(ad.ShapeError, match="1x1"):
            ad.conv2d(phi, np.zeros((2, 6, 3, 3)), masks=Var.constant(np.zeros((2, 4, 4))))
        with pytest.raises(ad.ShapeError, match="expects 5 input channels, input has 6"):
            ad.conv2d(phi, np.zeros((2, 5, 1, 1)), masks=Var.constant(np.zeros((2, 4, 4))))

    def test_sigmoid_bytes_of_masked_formula(self):
        """exp(-|v|) and one select give the bytes of the two masked branches, signed zeros included."""
        rng = np.random.default_rng(70)
        big = [700.5, -700.5, 709.8, -709.8, 710.5, -710.5, 1e3, -1e3, 745.0, -745.0]  # exp(|v|) near or past overflow
        v = np.concatenate([[0.0, -0.0], big, rng.normal(size=2994) * 8.0])
        want = np.empty_like(v)
        pos = v >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        want[~pos] = ev / (1.0 + ev)
        assert ad.sigmoid(Var.constant(v)).value.tobytes() == want.tobytes()
        assert ad.sigmoid(Var.constant(v.reshape(3006 // 6, 6))).value.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gaussian_kernel_rejects_a_sigma_not_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            ad.gaussian_kernel(3, sigma)

    def test_blur_matches_dense_window_sum(self):
        rng = np.random.default_rng(5)
        img = rng.normal(size=(9, 7))
        win = ad.gaussian_kernel(5, 1.0)
        got = ad.blur(Var.constant(img), win).value
        np.testing.assert_allclose(got, correlate_dense(img, np.outer(win, win), True), atol=1e-12)

    @pytest.mark.parametrize("kernel", [np.full((3, 3), 1 / 9), np.ones(4) / 4], ids=["2-D", "even"])
    def test_blur_rejects_all_but_an_odd_1d_window(self, kernel):
        with pytest.raises(ad.ShapeError, match="odd-length 1-D window"):
            ad.blur(Var.constant(np.ones((8, 6))), kernel)

    @pytest.mark.parametrize("k, h, w", [(3, 9, 7), (5, 64, 64), (11, 65, 63), (17, 128, 192)])
    @pytest.mark.parametrize("same", [True, False])
    @pytest.mark.parametrize("step", [1, 2])
    def test_correlate_stack_gets_each_images_bytes(self, k, h, w, same, step):
        rng = np.random.default_rng(k)
        stack = rng.normal(size=(5, h, w)) * 100.0
        win = ad.gaussian_kernel(k, k / 5.0)
        got = ad.correlate(stack, win, same, step)
        lost = 0 if same else k - 1
        assert got.shape == (5, (w - lost - 1) // step + 1, (h - lost - 1) // step + 1)
        for i in range(stack.shape[0]):
            assert np.array_equal(got[i], ad.correlate(stack[i], win, same, step))

    @pytest.mark.parametrize("h, w", [(9, 12), (12, 9), (10, 10), (11, 11)])
    @pytest.mark.parametrize("same", [True, False])
    @pytest.mark.parametrize("step", [1, 2])
    def test_correlate_matches_a_dense_loop_of_the_outer_window(self, h, w, same, step):
        img = np.random.default_rng(h * w).normal(size=(h, w))
        for win in (ad.gaussian_kernel(3, 0.8), ad.gaussian_kernel(5, 1.2), np.array([0.1, -0.4, 0.7, 0.2, 0.3])):
            want = correlate_dense(img, np.outer(win, win), same)[::step, ::step]
            np.testing.assert_allclose(ad.correlate(img, win, same, step), want.T, rtol=0, atol=1e-12)

    def test_upsample_nearest(self):
        x = Var.constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.upsample_nearest(x, 2).value
        assert out.shape == (4, 4)
        np.testing.assert_array_equal(out[:2, :2], np.ones((2, 2)))
        np.testing.assert_array_equal(out[2:, 2:], np.full((2, 2), 4.0))

    @pytest.mark.parametrize("shape, factor", [((3, 5), 2), ((4, 6, 5), 2), ((2, 4, 3), 3), ((16, 8, 8), 4), ((1, 2, 3), 7)])
    def test_upsample_backward_bytes_of_numpy_block_sum(self, shape, factor):
        rng = np.random.default_rng(factor + len(shape))
        x = Var.leaf(rng.normal(size=shape), requires_grad=True)
        up = ad.upsample_nearest(x, factor)
        g = rng.normal(size=up.value.shape)
        g[rng.random(g.shape) < 0.3] = -0.0  # signed zeros expose a change of summation order
        (gx,) = ad.gradients(ad.tsum(up * g), [x])
        *lead, h, w = shape
        want = g.reshape(*lead, h, factor, w, factor).sum(axis=(-3, -1))
        assert gx.tobytes() == want.tobytes()

    def test_division_by_zero_raises(self):
        with pytest.raises(ValueError, match="division by zero"):
            ad.div(Var.constant([1.0]), Var.constant([0.0]))

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"add.*2x2.*3"):
            ad.add(Var.constant(np.zeros((2, 2))), Var.constant(np.zeros(3)))


class TestBackward:
    def test_sum_of_squares(self):
        x = Var.leaf([1.0, 2.0, 3.0], requires_grad=True)
        root = ad.tsum(x * x)
        (g,) = ad.gradients(root, [x])
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0])

    def test_sigmoid_derivative_at_zero(self):
        x = Var.leaf(0.0, requires_grad=True)
        (g,) = ad.gradients(ad.sigmoid(x), [x])
        assert g == pytest.approx(0.25)

    def test_non_scalar_root_rejected(self):
        x = Var.leaf([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.gradients(x * x, [x])

    def test_unreached_param_gets_zeros(self):
        x = Var.leaf([1.0, 2.0], requires_grad=True)
        y = Var.leaf([[3.0, 4.0]], requires_grad=True)
        (gx, gy) = ad.gradients(ad.tsum(x), [x, y])
        np.testing.assert_array_equal(gx, [1.0, 1.0])
        np.testing.assert_array_equal(gy, np.zeros((1, 2)))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(4, 4))
        a, b = 2.5, -1.25

        def build(x_arr):
            x = Var.leaf(x_arr, requires_grad=True)
            f = ad.mean(ad.square(x))
            g = ad.tsum(ad.absolute(x * 0.5))
            return x, f, g

        x, f, g = build(x0)
        (g_combined,) = ad.gradients(f * a + g * b, [x])
        (gf,) = ad.gradients(f, [x])
        (gg,) = ad.gradients(g, [x])
        np.testing.assert_allclose(g_combined, a * gf + b * gg, atol=1e-12)

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(23)
            x = Var.leaf(rng.normal(size=(3, 3)), requires_grad=True)
            w = Var.leaf(rng.normal(size=(3, 3)), requires_grad=True)
            root = ad.mean(ad.sigmoid(ad.matmul(x, w)))
            return root.value.copy(), ad.gradients(root, [x, w])

        v1, (gx1, gw1) = run()
        v2, (gx2, gw2) = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)

    def test_vars_from_two_forward_passes_combine(self):
        rng = np.random.default_rng(29)
        x0, w0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

        def first(x):
            return ad.sigmoid(ad.matmul(x, x))

        def second(w):
            return ad.relu(w) * 2.0 + ad.square(w)

        def combine(x, a, b):
            # x re-enters after both passes, so the graph interleaves their nodes
            return ad.mean(ad.square(a * b + x))

        x = Var.leaf(x0, requires_grad=True)
        a = first(x)
        w = Var.leaf(w0, requires_grad=True)
        b = second(w)
        gx, gw = ad.gradients(combine(x, a, b), [x, w])

        def f_x(arr):
            xv = Var.leaf(arr)
            return combine(xv, first(xv), second(Var.leaf(w0))).item()

        def f_w(arr):
            xv = Var.leaf(x0)
            return combine(xv, first(xv), second(Var.leaf(arr))).item()

        assert rel_err(gx, fd_gradient(f_x, x0.copy())) < 1e-6
        assert rel_err(gw, fd_gradient(f_w, w0.copy())) < 1e-6


def _scalarize(v):
    return ad.mean(v) if v.value.size > 1 else v


# builders: x (input under test) -> scalar Var; domains chosen away from kinks
_OP_GRAPHS = {
    "add": lambda x: _scalarize(ad.add(x, Var.constant(np.ones_like(x.value)))),
    "sub": lambda x: _scalarize(ad.sub(x, Var.constant(np.full_like(x.value, 0.3)))),
    "mul": lambda x: _scalarize(ad.mul(x, x)),
    "div": lambda x: _scalarize(ad.div(x, Var.constant(np.full_like(x.value, 2.0)))),
    "scalar_broadcast": lambda x: _scalarize(x * 3.0 + 1.0),
    "matmul": lambda x: _scalarize(ad.matmul(x, x)),
    "relu": lambda x: _scalarize(ad.relu(x)),
    "sigmoid": lambda x: _scalarize(ad.sigmoid(x)),
    "mean_axis": lambda x: ad.mean(ad.square(ad.mean(x, axis=0))),
    "sum": lambda x: ad.tsum(ad.square(x)) * 0.25,
    "abs": lambda x: _scalarize(ad.absolute(x)),
    "square": lambda x: _scalarize(ad.square(x)),
    "reshape": lambda x: _scalarize(ad.reshape(x, (x.value.size,))),
}


@pytest.mark.parametrize("name", sorted(_OP_GRAPHS))
def test_op_gradient_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(8):
        x0 = rng.normal(size=(4, 4)) + 0.5

        def f(arr):
            x = Var.leaf(arr, requires_grad=True)
            return _OP_GRAPHS[name](x).item()

        x = Var.leaf(x0, requires_grad=True)
        root = _OP_GRAPHS[name](x)
        (g,) = ad.gradients(root, [x])
        fd = fd_gradient(f, x0.copy())
        assert rel_err(g, fd) < 1e-5, f"{name}: rel err {rel_err(g, fd)}"


_STRUCTURED = {
    "conv2d_s1": {
        "shapes": {"x": (2, 5, 5), "w": (3, 2, 3, 3), "b": (3,)},
        "build": lambda v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=1))),
    },
    "conv2d_1x1": {
        "shapes": {"x": (3, 4, 5), "w": (2, 3, 1, 1), "b": (2,)},
        "build": lambda v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=1))),
    },
    "conv2d_s2": {
        "shapes": {"x": (2, 6, 6), "w": (2, 2, 3, 3), "b": (2,)},
        "build": lambda v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=2))),
    },
    "blur": {
        "shapes": {"x": (6, 6)},
        "build": lambda v: ad.mean(ad.square(ad.blur(v["x"], ad.gaussian_kernel(5, 1.0)))),
    },
    "blur_non_square_asymmetric_window": {
        "shapes": {"x": (5, 8)},
        "build": lambda v: ad.mean(ad.square(ad.blur(v["x"], np.array([0.1, 0.6, 0.3])))),
    },
    "upsample": {
        "shapes": {"x": (2, 3, 3)},
        "build": lambda v: ad.mean(ad.square(ad.upsample_nearest(v["x"], 2))),
    },
    "concat": {
        "shapes": {"x": (2, 3, 3), "y": (1, 3, 3)},
        "build": lambda v: ad.mean(ad.square(ad.concat([v["x"], v["y"]], axis=0))),
    },
    "spatial_norm": {
        "shapes": {"x": (3, 4, 4), "gamma": (3,), "beta": (3,)},
        # weight by a fixed field so the objective is sensitive to where values sit
        "build": lambda v: ad.mean(
            ad.square(
                ad.spatial_norm(v["x"], v["gamma"], v["beta"])
                * Var.constant(np.linspace(-1.0, 1.0, 48).reshape(3, 4, 4))
            )
        ),
    },
    "conv2d_region": {
        "shapes": {"x": (3, 4, 5), "masks": (2, 4, 5), "w": (4, 6, 1, 1), "b": (4,)},
        "build": lambda v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], masks=v["masks"]))),
    },
    "conv2d_relu": {
        "shapes": {"x": (2, 5, 5), "w": (3, 2, 3, 3), "b": (3,)},
        "build": lambda v: ad.mean(ad.square(ad.conv2d(v["x"], v["w"], v["b"], stride=2, relu=True))),
    },
    "gather": {
        "shapes": {"x": (3, 4, 4)},
        "build": lambda v: ad.mean(
            ad.square(ad.gather_pixels(v["x"], np.array([0, 1, 1, 3]), np.array([2, 0, 0, 3])))
        ),
    },
    "linear": {
        "shapes": {"x": (4, 3), "w": (3, 2), "b": (2,)},
        "build": lambda v: ad.mean(ad.square(ad.linear(v["x"], v["w"], v["b"]))),
    },
}


@pytest.mark.parametrize("name", sorted(_STRUCTURED))
def test_structured_op_gradients(name):
    spec = _STRUCTURED[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = {k: rng.normal(size=s) * 0.7 + 0.2 for k, s in spec["shapes"].items()}
    lifted = {k: Var.leaf(a, requires_grad=True) for k, a in arrays.items()}
    root = spec["build"](lifted)
    grads = dict(zip(arrays, ad.gradients(root, list(lifted.values()))))

    for key in arrays:
        def f(arr, key=key):
            lv = {k: Var.leaf(arr if k == key else arrays[k], requires_grad=False) for k in arrays}
            return spec["build"](lv).item()

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
            x = Var.leaf(arr, requires_grad=True)
            acc = None
            for nm in names:
                term = _OP_GRAPHS[nm](x)
                acc = term if acc is None else acc + term
            return acc.item()

        x = Var.leaf(x0, requires_grad=True)
        acc = None
        for nm in names:
            term = _OP_GRAPHS[nm](x)
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
        pv = ps.place()
        root = ad.tsum(ad.square(pv["w"]))
        grads = ad.backward(root, ps)
        np.testing.assert_allclose(grads["w"], [4.0, 6.0])
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))

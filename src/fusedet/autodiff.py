"""Dense float64 tensors with define-by-run reverse-mode differentiation.

Values are plain C-contiguous float64 numpy arrays; wrapping a value in a
:class:`Var` makes it a graph node, so exact reverse-mode gradients can be
pulled out of any scalar result.  Tensors are treated as immutable once
recorded.

There is no tape object.  Each Var that needs a gradient carries its own
backward closure, which holds its input Vars and whatever buffers the
backward pass needs, so a graph and its buffers are freed by reference
counting as soon as the last Var that reaches them is dropped.  A Var that
needs no gradient keeps no closure, so a subgraph of constants holds only
its own values.  Node order is one counter inside this module: every Var
gets a larger index than its inputs, which is all :func:`gradients` needs,
and Vars from separate forward passes combine freely.

Broadcasting is limited to scalar-with-tensor; anything fancier must be
spelled out with explicit ops.

There is one 2-D filter, :func:`correlate`, over a separable window.  `blur`,
the high-pass targets of the fusion loss and VIF all use it, and every
window in the program is a 1-D Gaussian from :func:`gaussian_kernel`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _shp(a: np.ndarray) -> str:
    return "x".join(str(d) for d in a.shape) if a.ndim else "scalar"


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(a)


_node_ids = itertools.count()


def _record(value: np.ndarray, backward_fn, requires_grad: bool) -> "Var":
    return Var(next(_node_ids), value, requires_grad, backward_fn if requires_grad else None)


class Var:
    """Tensor value bound to a graph node.

    ``backward_fn`` maps the gradient of this node to ``(input Var,
    gradient)`` pairs; it is None for leaves and for nodes that need no
    gradient.
    """

    __slots__ = ("idx", "value", "requires_grad", "backward_fn", "__weakref__")

    def __init__(self, idx: int, value: np.ndarray, requires_grad: bool, backward_fn):
        self.idx = idx
        self.value = value
        self.requires_grad = requires_grad
        self.backward_fn = backward_fn

    @classmethod
    def leaf(cls, value, requires_grad: bool = False) -> "Var":
        return _record(_as_array(value), None, requires_grad)

    @classmethod
    def constant(cls, value) -> "Var":
        return cls.leaf(value, requires_grad=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Var(idx={self.idx}, shape={self.value.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; everything funnels into the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __abs__(self):
        return absolute(self)


def _lift(x) -> Var:
    return x if isinstance(x, Var) else Var.constant(x)


def _reduce_like(g: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Collapse a broadcast gradient back to the shape of the operand."""
    if g.shape == ref.shape:
        return g
    return np.sum(g).reshape(ref.shape) if ref.size == 1 else g.reshape(ref.shape)


def _pair_shapes(op: str, a: Var, b: Var) -> None:
    if a.value.shape == b.value.shape:
        return
    if a.value.size == 1 or b.value.size == 1:
        return
    raise ShapeError(f"{op}: incompatible shapes {_shp(a.value)} and {_shp(b.value)}")


def add(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    _pair_shapes("add", a, b)
    out = a.value + b.value

    def backward(g):
        return [(a, _reduce_like(g, a.value)), (b, _reduce_like(g, b.value))]

    return _record(out, backward, a.requires_grad or b.requires_grad)


def sub(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    _pair_shapes("sub", a, b)
    out = a.value - b.value

    def backward(g):
        return [(a, _reduce_like(g, a.value)), (b, _reduce_like(-g, b.value))]

    return _record(out, backward, a.requires_grad or b.requires_grad)


def mul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    _pair_shapes("mul", a, b)
    out = a.value * b.value

    def backward(g):
        return [(a, _reduce_like(g * b.value, a.value)), (b, _reduce_like(g * a.value, b.value))]

    return _record(out, backward, a.requires_grad or b.requires_grad)


def div(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    _pair_shapes("div", a, b)
    if np.any(b.value == 0.0):
        raise ValueError("div: division by zero")
    out = a.value / b.value

    def backward(g):
        ga = _reduce_like(g / b.value, a.value)
        gb = _reduce_like(-g * a.value / (b.value * b.value), b.value)
        return [(a, ga), (b, gb)]

    return _record(out, backward, a.requires_grad or b.requires_grad)


def matmul(a, b) -> Var:
    a, b = _lift(a), _lift(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {_shp(a.value)} and {_shp(b.value)}")
    out = a.value @ b.value

    def backward(g):
        return [(a, g @ b.value.T), (b, a.value.T @ g)]

    return _record(out, backward, a.requires_grad or b.requires_grad)


def relu(x: Var) -> Var:
    out = np.maximum(x.value, 0.0)

    def backward(g):
        # out > 0 exactly where x > 0; the mask is built only when a gradient is asked for
        return [(x, g * (out > 0.0))]

    return _record(out, backward, x.requires_grad)


def sigmoid(x: Var) -> Var:
    v = x.value
    # exp(-|v|) never overflows: 1/(1+e) on v >= 0, e/(1+e) below; e becomes the output in place
    e = np.abs(v)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    out = np.divide(e, d, out=e)
    np.divide(1.0, d, out=out, where=v >= 0)

    def backward(g):
        return [(x, g * out * (1.0 - out))]

    return _record(out, backward, x.requires_grad)


def tsum(x: Var, axis=None) -> Var:
    out = np.sum(x.value, axis=axis)
    shape = x.value.shape

    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g, shape).copy())]
        ge = np.expand_dims(g, axis)
        return [(x, np.broadcast_to(ge, shape).copy())]

    return _record(np.asarray(out, dtype=np.float64), backward, x.requires_grad)


def mean(x: Var, axis=None) -> Var:
    count = x.value.size if axis is None else np.prod(
        [x.value.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )
    out = np.mean(x.value, axis=axis)
    shape = x.value.shape

    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g / count, shape).copy())]
        ge = np.expand_dims(g, axis) / count
        return [(x, np.broadcast_to(ge, shape).copy())]

    return _record(np.asarray(out, dtype=np.float64), backward, x.requires_grad)


def absolute(x: Var) -> Var:
    out = np.abs(x.value)
    sgn = np.sign(x.value)  # subgradient 0 at exact zeros

    def backward(g):
        return [(x, g * sgn)]

    return _record(out, backward, x.requires_grad)


def square(x: Var) -> Var:
    out = x.value * x.value

    def backward(g):
        return [(x, 2.0 * g * x.value)]

    return _record(out, backward, x.requires_grad)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, r0: int = 0, r1: int | None = None,
            buf: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """Padded sliding windows of output rows r0:r1 (default all) as a (C*kh*kw, rows*Wo) column matrix.

    Only the input rows the band reads are padded; the columns are written
    into the front of the flat buffer `buf` when one is given.
    """
    c_in, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1
    r1 = h_out if r1 is None else r1
    top, n = r0 * stride - ph, r1 - r0
    xp = np.zeros((c_in, (n - 1) * stride + kh, w + 2 * pw))
    lo, hi = max(top, 0), min(top + xp.shape[1], h)
    xp[:, lo - top:hi - top, pw:pw + w] = x[:, lo:hi]
    size = c_in * kh * kw * n * w_out
    cols = (np.empty(size) if buf is None else buf[:size]).reshape(c_in, kh, kw, n, w_out)
    # one strided copy per tap: cheaper than reshaping a transposed window view
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * n:stride, j:j + stride * w_out:stride]
    return cols.reshape(c_in * kh * kw, n * w_out), h_out, w_out


def _conv_input_grad(gf: np.ndarray, w: np.ndarray, shape: tuple[int, int, int], stride: int) -> np.ndarray:
    """Adjoint of a k×k conv's im2col GEMM with no column-sized gradient: the scatter of wm.T @ gf, tap by tap.

    Tap (i, j) adds ``w[:, :, i, j].T @ gf`` onto a zeroed padded buffer, so
    each pixel sums its taps in row-major tap order, as scattering the whole
    product back through im2col's windows does.
    """
    c_out, c_in, kh, kw = w.shape
    _, h, width = shape
    ph, pw, pitch = kh // 2, kw // 2, width + kw - 1
    flat = np.zeros((c_in, (h + 2 * ph) * pitch + 2 * pw))
    gxp = flat[:, :(h + 2 * ph) * pitch].reshape(c_in, h + 2 * ph, pitch)
    if stride == 1:  # widened to the row pitch by zero columns, each tap is one offset slice of `flat`
        gw = np.zeros((c_out, h, pitch))
        gw[:, :, :width] = gf.reshape(c_out, h, width)
        gf = gw.reshape(c_out, -1)
    h_out, w_out = (h - 1) // stride + 1, (width - 1) // stride + 1
    tap = np.empty((c_in, gf.shape[1]))
    product = np.multiply if c_out == 1 else np.matmul  # outer product at one output channel: ~5x faster broadcast
    for i in range(kh):
        for j in range(kw):
            product(w[:, :, i, j].T, gf, out=tap)
            if stride == 1:
                flat[:, i * pitch + j:i * pitch + j + tap.shape[1]] += tap
            else:
                gxp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += tap.reshape(c_in, h_out, w_out)
    return gxp[:, ph:ph + h, pw:pw + width].copy()


def _region_cols(masks: np.ndarray, x: np.ndarray, r0: int, r1: int, buf: np.ndarray | None) -> np.ndarray:
    """Rows r0:r1 of the region stack of masks (M,H,W) over x (C,H,W) as an (M*C, rows*W) matrix.

    Row m*C+c is masks[m] * x[c]; it is written into the front of `buf` when one is given.
    """
    m, c = masks.shape[0], x.shape[0]
    a, f = masks[:, r0:r1].reshape(m, 1, -1), x[:, r0:r1].reshape(1, c, -1)
    size = m * c * a.shape[2]
    cols = (np.empty(size) if buf is None else buf[:size]).reshape(m, c, -1)
    np.multiply(a, f, out=cols)
    return cols.reshape(m * c, -1)


# column bytes per band of a conv's forward (see conv2d)
_BAND_BYTES = 1 << 19
# A band's GEMM must round each output as the full-image GEMM does.  BLAS
# rounds the columns of a partial tile by another kernel, so every band spans
# whole tiles of _BAND_COLS output columns; and a full GEMM deeper than one
# packed panel (OpenBLAS's dgemm panel is 256-384 deep) sums panel by panel,
# which the small-matrix kernel of a narrow band does not.  Other convs run as
# one band.
_BAND_COLS = 64
_BAND_DEPTH = 256


def conv2d(x: Var, w: Var, b: Var | None = None, stride: int = 1, relu: bool = False,
           masks: Var | None = None) -> Var:
    """2-D convolution, CHW layout, symmetric zero padding of kh//2, kw//2, then ReLU if `relu`.

    Stride 1 preserves the spatial size; stride 2 halves it (ceil).  The
    output is one GEMM per band of output rows over those rows' columns,
    each band writing its own slice of the output; the bias and the ReLU are
    applied in place on it, so no pre-activation is kept, and the backward
    masks the gradient with ``out > 0``.  The columns of a k×k kernel come
    from im2col; with `masks` (M,H,W) the input is the region stack of M·C
    channels, channel m·C+c being masks[m]·x[c], under a 1×1 kernel.  The
    bands refill one buffer of _BAND_BYTES (512 KiB, or the rows of one
    whole tile if more), with the output bytes of the full-image GEMM;
    512 KiB fused a 192×128 scene fastest among 256 KiB to 2 MiB.  A plain
    1×1 stride-1 kernel is one GEMM on the input's own (C, H*W) view.  The
    graph keeps the input, not the columns: the backward rebuilds them
    whole for the weight gradient's one GEMM, and takes a k×k kernel's
    input gradient tap by tap (_conv_input_grad).
    """
    w = _lift(w)
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    if x.value.ndim != 3 or w.value.ndim != 4:
        raise ShapeError(f"conv2d: expected CHW input and OIKK kernel, got {_shp(x.value)} and {_shp(w.value)}")
    c_in, h, width = x.value.shape
    c_out, c_k, kh, kw = w.value.shape
    depth_in = c_in
    if masks is not None:
        masks = _lift(masks)
        if masks.value.ndim != 3 or masks.value.shape[1:] != (h, width):
            raise ShapeError(f"conv2d: masks {_shp(masks.value)} do not match input {_shp(x.value)}")
        if (kh, kw, stride) != (1, 1, 1):
            raise ShapeError(f"conv2d: a region stack takes a 1x1 stride-1 kernel, got {kh}x{kw} stride {stride}")
        depth_in = masks.value.shape[0] * c_in
    if c_k != depth_in:
        raise ShapeError(f"conv2d: kernel expects {c_k} input channels, input has {depth_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if b is not None:
        b = _lift(b)
        if b.value.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {_shp(b.value)} != ({c_out},)")
    wm = w.value.reshape(c_out, c_k * kh * kw)
    h_out, w_out = (h - 1) // stride + 1, (width - 1) // stride + 1
    pointwise = kh == kw == 1 and stride == 1 and masks is None

    def columns(r0: int = 0, r1: int = h_out, buf: np.ndarray | None = None) -> np.ndarray:
        if pointwise:
            return x.value.reshape(c_in, -1)
        if masks is None:
            return _im2col(x.value, kh, kw, stride, r0, r1, buf)[0]
        return _region_cols(masks.value, x.value, r0, r1, buf)

    step = _BAND_COLS // math.gcd(w_out, _BAND_COLS)  # rows per whole number of tiles
    rows = _BAND_BYTES // (8 * wm.shape[1] * w_out) // step * step
    tiled = h_out * w_out % _BAND_COLS == 0 and wm.shape[1] <= _BAND_DEPTH and not pointwise
    band = max(step, rows) if tiled else h_out
    buf = np.empty(wm.shape[1] * band * w_out) if band < h_out else None
    out = np.empty((c_out, h_out * w_out))
    for r0 in range(0, h_out, band):
        r1 = min(r0 + band, h_out)
        np.matmul(wm, columns(r0, r1, buf), out=out[:, r0 * w_out:r1 * w_out])
    out = out.reshape(c_out, h_out, w_out)
    if b is not None:
        out += b.value[:, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0.0)
        gf = g.reshape(c_out, h_out * w_out)
        grads = []
        if w.requires_grad:
            # the columns, rebuilt whole and freed before the input gradient;
            # the bytes of gf @ cols.T, ~1.6x faster at 16 output channels
            grads.append((w, (columns() @ gf.T).T.reshape(w.value.shape)))
        if x.requires_grad and masks is None and not pointwise:
            grads.append((x, _conv_input_grad(gf, w.value, x.value.shape, stride)))
        elif x.requires_grad or (masks is not None and masks.requires_grad):
            # outer product at one output channel: ~5x faster broadcast
            gcols = wm.T * gf if c_out == 1 else wm.T @ gf
            if masks is None:
                grads.append((x, gcols.reshape(x.value.shape)))
            else:
                g3 = gcols.reshape(masks.value.shape[0], c_in, -1)
                if masks.requires_grad:
                    gm = (g3 * x.value.reshape(1, c_in, -1)).sum(axis=1)
                    grads.append((masks, gm.reshape(masks.value.shape)))
                if x.requires_grad:
                    gx = (g3 * masks.value.reshape(-1, 1, h * width)).sum(axis=0)
                    grads.append((x, gx.reshape(x.value.shape)))
        if b is not None and b.requires_grad:
            grads.append((b, g.sum(axis=(1, 2))))
        return grads

    return _record(out, backward, any(v is not None and v.requires_grad for v in (x, w, b, masks)))


def _corr1(img: np.ndarray, vec: np.ndarray, same: bool, step: int) -> np.ndarray:
    """1-D correlation along axis -2, zero-padded to keep its length when `same`;
    only every `step`-th output row is computed."""
    *lead, h, w = img.shape
    if same:
        p = vec.size // 2
        img, src = np.zeros((*lead, h + 2 * p, w)), img
        img[..., p:p + h, :] = src
        h += 2 * p
    s, shape = img.strides, (*lead, (h - vec.size) // step + 1, w, vec.size)
    # the view sliding_window_view builds, without its argument checks (hot for small images)
    view = np.lib.stride_tricks.as_strided(img, shape, (*s[:-2], s[-2] * step, s[-1], s[-2]), writeable=False)
    return view @ vec


def correlate(stack: np.ndarray, win: np.ndarray, same: bool = True, step: int = 1) -> np.ndarray:
    """2-D correlation of an image or a stack over its last two axes with the window `win` x `win`.

    Zero-padded to keep the size when `same`, else valid; every `step`-th
    output row and column is computed.  The result comes out transposed,
    (..., w', h'): both 1-D passes run along axis -2, where BLAS takes each
    output row as one matrix-vector product, with one contiguous transposed
    copy between them.  Each image of a stack gets the bytes it would get
    alone.  `blur`, the high-pass targets of `losses.highpass` and VIF all
    filter here.
    """
    half = _corr1(stack, win, same, step)
    return _corr1(np.ascontiguousarray(np.swapaxes(half, -1, -2)), win, same, step)


def blur(x: Var, win: np.ndarray) -> Var:
    """Same-size 2-D blur of an HxW image by the window `win` x `win`, zero padding; `win` is 1-D of odd length."""
    win = np.asarray(win, dtype=np.float64)
    if x.value.ndim != 2 or win.ndim != 1 or win.size % 2 == 0:
        raise ShapeError(f"blur: expected HxW image and odd-length 1-D window, got {_shp(x.value)} and {_shp(win)}")
    out = np.ascontiguousarray(correlate(x.value, win).T)
    flipped = np.ascontiguousarray(win[::-1])

    def backward(g):
        # adjoint of same-zero-pad correlation is correlation with the flipped window
        return [(x, np.ascontiguousarray(correlate(g, flipped).T))]

    return _record(out, backward, x.requires_grad)


def upsample_nearest(x: Var, factor: int) -> Var:
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"upsample_nearest: factor must be a positive integer, got {factor}")
    if x.value.ndim not in (2, 3):
        raise ShapeError(f"upsample_nearest: expected HxW or CxHxW, got {_shp(x.value)}")
    out = np.repeat(np.repeat(x.value, factor, axis=-2), factor, axis=-1)

    def backward(g):
        # row by row from zero: the bytes of numpy's two-axis sum for factors below 8, ~4x faster
        g5 = g.reshape(*x.value.shape[:-1], factor, x.value.shape[-1], factor)
        gx = np.zeros(x.value.shape)
        for i in range(factor):
            row = np.zeros(x.value.shape)
            for j in range(factor):
                row += g5[..., i, :, j]
            gx += row
        return [(x, gx)]

    return _record(out, backward, x.requires_grad)


def concat(parts: Sequence[Var], axis: int = 0) -> Var:
    if not parts:
        raise ValueError("concat: no inputs")
    parts = [_lift(p) for p in parts]
    nd = parts[0].value.ndim
    for p in parts[1:]:
        if p.value.ndim != nd:
            raise ShapeError("concat: rank mismatch")
        for ax in range(nd):
            if ax != (axis % nd) and p.value.shape[ax] != parts[0].value.shape[ax]:
                raise ShapeError(
                    f"concat: shapes {_shp(parts[0].value)} and {_shp(p.value)} differ off-axis"
                )
    out = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis % nd] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * nd
            sl[axis % nd] = slice(lo, hi)
            grads.append((p, g[tuple(sl)]))
        return grads

    return _record(out, backward, any(p.requires_grad for p in parts))


def reshape(x: Var, shape) -> Var:
    out = x.value.reshape(shape)
    orig = x.value.shape

    def backward(g):
        return [(x, g.reshape(orig))]

    return _record(out, backward, x.requires_grad)


def spatial_norm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Per-channel normalization over spatial positions with learned affine.

    Input is CxHxW; each channel is standardized by its own spatial mean
    and variance.  A single spatial location has no statistics: the
    normalized value is defined as 0 there, so the output is the affine
    bias alone.
    """
    gamma, beta = _lift(gamma), _lift(beta)
    if x.value.ndim != 3:
        raise ShapeError(f"spatial_norm: expected CxHxW, got {_shp(x.value)}")
    c = x.value.shape[0]
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ShapeError(f"spatial_norm: affine shapes must be ({c},)")
    n = x.value.shape[1] * x.value.shape[2]
    if n == 1:
        xhat = np.zeros_like(x.value)
        istd = np.zeros(c)
    else:
        mu = x.value.mean(axis=(1, 2), keepdims=True)
        var = x.value.var(axis=(1, 2), keepdims=True)
        istd = 1.0 / np.sqrt(var + eps)
        xhat = (x.value - mu) * istd
        istd = istd.reshape(c)
    out = gamma.value[:, None, None] * xhat + beta.value[:, None, None]

    def backward(g):
        grads = []
        if x.requires_grad:
            if n == 1:
                grads.append((x, np.zeros_like(x.value)))
            else:
                gxhat = g * gamma.value[:, None, None]
                m1 = gxhat.mean(axis=(1, 2), keepdims=True)
                m2 = (gxhat * xhat).mean(axis=(1, 2), keepdims=True)
                grads.append((x, istd[:, None, None] * (gxhat - m1 - xhat * m2)))
        if gamma.requires_grad:
            grads.append((gamma, (g * xhat).sum(axis=(1, 2))))
        if beta.requires_grad:
            grads.append((beta, g.sum(axis=(1, 2))))
        return grads

    req = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return _record(out, backward, req)


def gather_pixels(x: Var, rows: np.ndarray, cols: np.ndarray) -> Var:
    """Pick feature vectors at integer pixel locations: (C,H,W) -> (N,C)."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if x.value.ndim != 3:
        raise ShapeError(f"gather_pixels: expected CxHxW, got {_shp(x.value)}")
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError("gather_pixels: rows and cols must be equal-length 1-D")
    _, h, w = x.value.shape
    if np.any(rows < 0) or np.any(rows >= h) or np.any(cols < 0) or np.any(cols >= w):
        raise ValueError("gather_pixels: index out of bounds")
    out = x.value[:, rows, cols].T.copy()

    def backward(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, (slice(None), rows, cols), g.T)
        return [(x, gx)]

    return _record(out, backward, x.requires_grad)


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """Row-wise affine map: (N,Ci) @ (Ci,Co) + b."""
    x, w = _lift(x), _lift(w)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {_shp(x.value)} and {_shp(w.value)}")
    if b is not None:
        b = _lift(b)
        if b.value.shape != (w.value.shape[1],):
            raise ShapeError(f"linear: bias shape {_shp(b.value)} != ({w.value.shape[1]},)")
    out = x.value @ w.value
    if b is not None:
        out = out + b.value[None, :]

    def backward(g):
        grads = [(x, g @ w.value.T), (w, x.value.T @ g)]
        if b is not None:
            grads.append((b, g.sum(axis=0)))
        return grads

    req = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    return _record(out, backward, req)


def gradients(root: Var, wrt: Sequence[Var]) -> list[np.ndarray]:
    """Reverse-mode gradients of a scalar root for each requested var.

    Vars the root does not depend on get zero gradients of their own shape.
    """
    if root.value.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {_shp(root.value)}")
    wanted: dict[int, np.ndarray | None] = {v.idx: None for v in wrt}
    # pending parents, idx -> (Var, accumulated gradient), visited in
    # descending idx so every node's gradient is complete when it is popped
    pending: dict[int, tuple[Var, np.ndarray]] = {root.idx: (root, np.ones_like(root.value))}
    order = [-root.idx]
    while order:
        idx = -heapq.heappop(order)
        var, g = pending.pop(idx)
        if idx in wanted:
            wanted[idx] = g
        if var.backward_fn is None:
            continue
        for parent, pg in var.backward_fn(g):
            if not parent.requires_grad:
                continue
            prev = pending.get(parent.idx)
            if prev is None:
                heapq.heappush(order, -parent.idx)
                pending[parent.idx] = (parent, pg)
            else:
                pending[parent.idx] = (parent, prev[1] + pg)
    return [wanted[v.idx] if wanted[v.idx] is not None else np.zeros_like(v.value) for v in wrt]


class ParamSet:
    """Named parameters with a mask of names shared between the two tasks.

    The float64 value arrays live here across iterations; ``place`` wraps
    them as fresh gradient-tracked leaves for one forward pass and
    remembers them for :func:`backward`, while ``constants`` wraps them as
    constants for a pass that needs no gradient.  Updates replace value
    arrays, never mutate recorded ones.
    """

    def __init__(self, values: Mapping[str, np.ndarray], shared: Iterable[str] = ()):
        self.values: dict[str, np.ndarray] = {k: _as_array(v) for k, v in values.items()}
        self.shared = frozenset(shared)
        missing = self.shared - set(self.values)
        if missing:
            raise ValueError(f"shared mask names missing from params: {sorted(missing)}")
        self.vars: dict[str, Var] = {}

    def place(self) -> dict[str, Var]:
        self.vars = {k: Var.leaf(v, requires_grad=True) for k, v in self.values.items()}
        return self.vars

    def constants(self) -> dict[str, Var]:
        return {k: Var.constant(v) for k, v in self.values.items()}

    def names(self) -> list[str]:
        return list(self.values)

    def shared_names(self) -> list[str]:
        return sorted(self.shared)

    def private_names(self) -> list[str]:
        return [n for n in self.values if n not in self.shared]

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {k: v.shape for k, v in self.values.items()}


def backward(root: Var, params: ParamSet) -> dict[str, np.ndarray]:
    """Gradient of a scalar root for every parameter; unreached ones are zero."""
    if not params.vars:
        raise ValueError("backward: params were never placed")
    names = params.names()
    gs = gradients(root, [params.vars[n] for n in names])
    return dict(zip(names, gs))


def flatten_grads(grads: Mapping[str, np.ndarray], shared: Iterable[str]) -> np.ndarray:
    """Concatenate per-name arrays, lexicographic by name then row-major."""
    names = sorted(shared)
    missing = [n for n in names if n not in grads]
    if missing:
        raise KeyError(f"flatten_grads: missing gradients for {missing}")
    if not names:
        return np.zeros(0)
    return np.concatenate([np.asarray(grads[n], dtype=np.float64).reshape(-1) for n in names])


def unflatten(vec: np.ndarray, shapes: Mapping[str, tuple[int, ...]], shared: Iterable[str]) -> dict[str, np.ndarray]:
    """Inverse of flatten_grads given the per-name shapes."""
    names = sorted(shared)
    total = sum(int(np.prod(shapes[n])) for n in names)
    vec = np.asarray(vec, dtype=np.float64).reshape(-1)
    if vec.size != total:
        raise ValueError(f"unflatten: vector length {vec.size} != expected {total}")
    out = {}
    pos = 0
    for n in names:
        size = int(np.prod(shapes[n]))
        out[n] = vec[pos:pos + size].reshape(shapes[n]).copy()
        pos += size
    return out


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian window; the 2-D window it stands for is its outer product with itself."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"gaussian_kernel: size must be odd positive, got {size}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"gaussian_kernel: sigma must be finite and positive, got {sigma}")
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()

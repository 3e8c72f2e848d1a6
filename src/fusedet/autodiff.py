"""Dense float64 tensors on a define-by-run reverse-mode differentiation tape.

A :class:`Tape` numbers the nodes of one forward computation and is rebuilt
for every new one.  Values are plain C-contiguous float64 numpy arrays;
wrapping a value in a :class:`Var` ties it to a tape node so exact
reverse-mode gradients can be pulled out of any scalar result.  Tensors are
treated as immutable once recorded.

The graph lives in the Vars, not in the tape: each Var that needs a
gradient carries its own backward closure, which holds its input Vars and
whatever buffers the backward pass needs.  Nothing points back from a tape
to its Vars, so a graph, its buffers and its tape are freed by reference
counting as soon as the last Var that reaches them is dropped.  A Var that
needs no gradient keeps no closure, so a subgraph of constants holds only
its own values.

Broadcasting is limited to scalar-with-tensor; anything fancier must be
spelled out with explicit ops.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _shp(a: np.ndarray) -> str:
    return "x".join(str(d) for d in a.shape) if a.ndim else "scalar"


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return np.ascontiguousarray(a)


class Tape:
    """Counter that orders the nodes of one forward pass.

    A tape holds no references to its nodes; it stays alive only while
    some Var recorded on it does.
    """

    def __init__(self):
        self._count = 0

    def _record(self, value: np.ndarray, backward_fn, requires_grad: bool) -> "Var":
        v = Var(self, self._count, value, requires_grad, backward_fn if requires_grad else None)
        self._count += 1
        return v

    def leaf(self, value, requires_grad: bool = False) -> "Var":
        return self._record(_as_array(value), None, requires_grad)

    def constant(self, value) -> "Var":
        return self.leaf(value, requires_grad=False)

    def __len__(self) -> int:
        return self._count


class Var:
    """Tensor value bound to a tape node.

    ``backward_fn`` maps the gradient of this node to ``(input Var,
    gradient)`` pairs; it is None for leaves and for nodes that need no
    gradient.
    """

    __slots__ = ("tape", "idx", "value", "requires_grad", "backward_fn")

    def __init__(self, tape: Tape, idx: int, value: np.ndarray, requires_grad: bool, backward_fn):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.requires_grad = requires_grad
        self.backward_fn = backward_fn

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


def _lift(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands live on different tapes")
        return x
    return tape.constant(x)


def _find_tape(*xs) -> Tape:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    raise TypeError("at least one operand must be a Var")


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
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _pair_shapes("add", a, b)
    out = a.value + b.value

    def backward(g):
        return [(a, _reduce_like(g, a.value)), (b, _reduce_like(g, b.value))]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


def sub(a, b) -> Var:
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _pair_shapes("sub", a, b)
    out = a.value - b.value

    def backward(g):
        return [(a, _reduce_like(g, a.value)), (b, _reduce_like(-g, b.value))]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


def mul(a, b) -> Var:
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _pair_shapes("mul", a, b)
    out = a.value * b.value

    def backward(g):
        return [(a, _reduce_like(g * b.value, a.value)), (b, _reduce_like(g * a.value, b.value))]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


def div(a, b) -> Var:
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    _pair_shapes("div", a, b)
    if np.any(b.value == 0.0):
        raise ValueError("div: division by zero")
    out = a.value / b.value

    def backward(g):
        ga = _reduce_like(g / b.value, a.value)
        gb = _reduce_like(-g * a.value / (b.value * b.value), b.value)
        return [(a, ga), (b, gb)]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


def matmul(a, b) -> Var:
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {_shp(a.value)} and {_shp(b.value)}")
    out = a.value @ b.value

    def backward(g):
        return [(a, g @ b.value.T), (b, a.value.T @ g)]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


def relu(x: Var) -> Var:
    out = np.maximum(x.value, 0.0)
    mask = x.value > 0.0

    def backward(g):
        return [(x, g * mask)]

    return x.tape._record(out, backward, x.requires_grad)


def sigmoid(x: Var) -> Var:
    v = x.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def backward(g):
        return [(x, g * out * (1.0 - out))]

    return x.tape._record(out, backward, x.requires_grad)


def tsum(x: Var, axis=None) -> Var:
    out = np.sum(x.value, axis=axis)
    shape = x.value.shape

    def backward(g):
        if axis is None:
            return [(x, np.broadcast_to(g, shape).copy())]
        ge = np.expand_dims(g, axis)
        return [(x, np.broadcast_to(ge, shape).copy())]

    return x.tape._record(np.asarray(out, dtype=np.float64), backward, x.requires_grad)


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

    return x.tape._record(np.asarray(out, dtype=np.float64), backward, x.requires_grad)


def absolute(x: Var) -> Var:
    out = np.abs(x.value)
    sgn = np.sign(x.value)  # subgradient 0 at exact zeros

    def backward(g):
        return [(x, g * sgn)]

    return x.tape._record(out, backward, x.requires_grad)


def square(x: Var) -> Var:
    out = x.value * x.value

    def backward(g):
        return [(x, 2.0 * g * x.value)]

    return x.tape._record(out, backward, x.requires_grad)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Padded sliding windows as a (C*kh*kw, Ho*Wo) column matrix."""
    c_in, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw))
    xp[:, ph:ph + h, pw:pw + w] = x
    # one strided copy per tap: cheaper than reshaping a transposed window view
    cols = np.empty((c_in, kh, kw, h_out, w_out))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
    return cols.reshape(c_in * kh * kw, h_out * w_out), h_out, w_out


def _tap_slices(k: int, pad: int, stride: int, n_out: int, n: int) -> tuple[slice, slice]:
    """Input and output slices of the positions where tap k lands inside 0..n-1."""
    r0 = max(0, -(-(pad - k) // stride))
    r1 = max(r0, min(n_out, (n - 1 - k + pad) // stride + 1))
    return slice(stride * r0 + k - pad, stride * r1 + k - pad, stride), slice(r0, r1)


def _col2im(gcols: np.ndarray, shape: tuple[int, int, int], kh: int, kw: int, stride: int,
            h_out: int, w_out: int) -> np.ndarray:
    """Adjoint of _im2col: each pixel sums its taps in tap order, skipping taps on the padding."""
    gx = np.zeros(shape)
    g5 = gcols.reshape(shape[0], kh, kw, h_out, w_out)
    for i in range(kh):
        ys, rs = _tap_slices(i, kh // 2, stride, h_out, shape[1])
        for j in range(kw):
            xs, ss = _tap_slices(j, kw // 2, stride, w_out, shape[2])
            gx[:, ys, xs] += g5[:, i, j, rs, ss]
    return gx


def conv2d(x: Var, w: Var, b: Var | None = None, stride: int = 1) -> Var:
    """2-D convolution, CHW layout, symmetric zero padding of kh//2, kw//2.

    Stride 1 preserves the spatial size; stride 2 halves it (ceil).
    """
    tape = x.tape
    w = _lift(tape, w)
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    if x.value.ndim != 3 or w.value.ndim != 4:
        raise ShapeError(f"conv2d: expected CHW input and OIKK kernel, got {_shp(x.value)} and {_shp(w.value)}")
    c_in, h, width = x.value.shape
    c_out, c_k, kh, kw = w.value.shape
    if c_k != c_in:
        raise ShapeError(f"conv2d: kernel expects {c_k} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if b is not None:
        b = _lift(tape, b)
        if b.value.shape != (c_out,):
            raise ShapeError(f"conv2d: bias shape {_shp(b.value)} != ({c_out},)")
    cols, h_out, w_out = _im2col(x.value, kh, kw, stride)
    wm = w.value.reshape(c_out, c_in * kh * kw)
    out = (wm @ cols).reshape(c_out, h_out, w_out)
    if b is not None:
        out += b.value[:, None, None]

    def backward(g):
        gf = g.reshape(c_out, h_out * w_out)
        grads = []
        if x.requires_grad:
            # outer product at one output channel: ~5x faster broadcast, zero signs aside (_col2im drops them)
            gcols = wm.T * gf if c_out == 1 else wm.T @ gf
            grads.append((x, _col2im(gcols, x.value.shape, kh, kw, stride, h_out, w_out)))
        if w.requires_grad:
            grads.append((w, (gf @ cols.T).reshape(w.value.shape)))
        if b is not None and b.requires_grad:
            grads.append((b, g.sum(axis=(1, 2))))
        return grads

    req = x.requires_grad or w.requires_grad or (b is not None and b.requires_grad)
    return tape._record(out, backward, req)


def _corr1(img: np.ndarray, vec: np.ndarray, axis: int, same: bool) -> np.ndarray:
    """1-D correlation along one axis, zero-padded to keep its length when `same`."""
    shape, p = list(img.shape), vec.size // 2
    if same:
        shape[axis] += 2 * p
        img, src = np.zeros(shape, img.dtype), img
        img[(slice(None),) * (axis % img.ndim) + (slice(p, p + src.shape[axis]),)] = src
    shape[axis] -= vec.size - 1
    # the view sliding_window_view builds, without its argument checks (hot for small images)
    win = np.lib.stride_tricks.as_strided(img, (*shape, vec.size), (*img.strides, img.strides[axis]), writeable=False)
    return win @ vec


_SEP_CACHE: dict[bytes, list[tuple[np.ndarray, np.ndarray]]] = {}


def _kernel_terms(kernel: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rank-one (col, row) factors whose outer products sum to the kernel (SVD)."""
    key = kernel.tobytes() + bytes(kernel.shape)
    if key not in _SEP_CACHE:
        u, s, vt = np.linalg.svd(kernel)
        r = np.sqrt(s[:max(1, int(np.sum(s > 1e-12 * s[0])))])
        _SEP_CACHE[key] = [(u[:, i] * r[i], vt[i] * r[i]) for i in range(r.size)]
    return _SEP_CACHE[key]


def correlate(img: np.ndarray, kernel: np.ndarray | tuple[np.ndarray, np.ndarray], mode: str = "same") -> np.ndarray:
    """2-D correlation over the last two axes of an image or a stack of images.

    `kernel` is a 2-D array or the (col, row) vectors of a separable one.
    ``same`` zero-pads kh//2, kw//2 on each side; ``valid`` keeps the windows
    inside the image.  Each rank-one term of the kernel runs as two 1-D passes
    (kh + kw multiplies per pixel for a Gaussian); each image of a stack gets
    the bytes it would get alone.
    """
    if mode not in ("same", "valid"):
        raise ValueError(f"correlate: mode must be 'same' or 'valid', got {mode!r}")
    out = None
    for col, row in [kernel] if isinstance(kernel, tuple) else _kernel_terms(kernel):
        term = _corr1(_corr1(img, row, -1, mode == "same"), col, -2, mode == "same")
        out = term if out is None else out + term
    return out


def blur(x: Var, kernel: np.ndarray) -> Var:
    """Fixed-kernel 2-D blur of an HxW image, symmetric zero padding."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if x.value.ndim != 2 or kernel.ndim != 2:
        raise ShapeError(f"blur: expected HxW image and 2-D kernel, got {_shp(x.value)} and {_shp(kernel)}")
    kh, kw = kernel.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"blur: kernel dims must be odd, got {kh}x{kw}")
    out = correlate(x.value, kernel)
    flipped = np.ascontiguousarray(kernel[::-1, ::-1])

    def backward(g):
        # adjoint of same-zero-pad correlation is correlation with the flipped kernel
        return [(x, correlate(g, flipped))]

    return x.tape._record(out, backward, x.requires_grad)


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

    return x.tape._record(out, backward, x.requires_grad)


def concat(parts: Sequence[Var], axis: int = 0) -> Var:
    if not parts:
        raise ValueError("concat: no inputs")
    tape = _find_tape(*parts)
    parts = [_lift(tape, p) for p in parts]
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

    return tape._record(out, backward, any(p.requires_grad for p in parts))


def reshape(x: Var, shape) -> Var:
    out = x.value.reshape(shape)
    orig = x.value.shape

    def backward(g):
        return [(x, g.reshape(orig))]

    return x.tape._record(out, backward, x.requires_grad)


def spatial_norm(x: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Per-channel normalization over spatial positions with learned affine.

    Input is CxHxW; each channel is standardized by its own spatial mean
    and variance.  A single spatial location has no statistics: the
    normalized value is defined as 0 there, so the output is the affine
    bias alone.
    """
    tape = x.tape
    gamma, beta = _lift(tape, gamma), _lift(tape, beta)
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
    return tape._record(out, backward, req)


def rowwise_outer(a: Var, b: Var) -> Var:
    """All pairwise elementwise row products: (M,K),(C,K) -> (M*C,K).

    Row m*C+c of the output is a[m] * b[c]; this is the mask-weighting of
    feature rows used by the region branches.
    """
    tape = _find_tape(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(f"rowwise_outer: incompatible shapes {_shp(a.value)} and {_shp(b.value)}")
    m, k = a.value.shape
    c = b.value.shape[0]
    out = (a.value[:, None, :] * b.value[None, :, :]).reshape(m * c, k)

    def backward(g):
        g3 = g.reshape(m, c, k)
        return [(a, (g3 * b.value[None, :, :]).sum(axis=1)),
                (b, (g3 * a.value[:, None, :]).sum(axis=0))]

    return tape._record(out, backward, a.requires_grad or b.requires_grad)


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

    return x.tape._record(out, backward, x.requires_grad)


def linear(x: Var, w: Var, b: Var | None = None) -> Var:
    """Row-wise affine map: (N,Ci) @ (Ci,Co) + b."""
    tape = _find_tape(x, w)
    x, w = _lift(tape, x), _lift(tape, w)
    if x.value.ndim != 2 or w.value.ndim != 2 or x.value.shape[1] != w.value.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {_shp(x.value)} and {_shp(w.value)}")
    if b is not None:
        b = _lift(tape, b)
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
    return tape._record(out, backward, req)


def gradients(root: Var, wrt: Sequence[Var]) -> list[np.ndarray]:
    """Reverse-mode gradients of a scalar root for each requested var.

    Vars the root does not depend on get zero gradients of their own shape.
    """
    if root.value.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {_shp(root.value)}")
    tape = root.tape
    for v in wrt:
        if v.tape is not tape:
            raise ValueError("backward: wrt var lives on a different tape")
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

    The float64 value arrays live here across iterations; ``place`` binds
    them onto a fresh tape as gradient-tracked leaves for one forward pass
    and remembers them for :func:`backward`, while ``constants`` binds them
    as constants for a pass that needs no gradient.  Updates replace value
    arrays, never mutate recorded ones.
    """

    def __init__(self, values: Mapping[str, np.ndarray], shared: Iterable[str] = ()):
        self.values: dict[str, np.ndarray] = {k: _as_array(v) for k, v in values.items()}
        self.shared = frozenset(shared)
        missing = self.shared - set(self.values)
        if missing:
            raise ValueError(f"shared mask names missing from params: {sorted(missing)}")
        self.vars: dict[str, Var] = {}

    def place(self, tape: Tape) -> dict[str, Var]:
        self.vars = {k: tape.leaf(v, requires_grad=True) for k, v in self.values.items()}
        return self.vars

    def constants(self, tape: Tape) -> dict[str, Var]:
        return {k: tape.constant(v) for k, v in self.values.items()}

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
        raise ValueError("backward: params were never placed on a tape")
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
    """Normalized 2-D Gaussian window."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"gaussian_kernel: size must be odd positive, got {size}")
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()

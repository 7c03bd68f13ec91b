"""Dense tensors with reverse-mode automatic differentiation, and nothing else.

A small numpy-backed engine providing exactly the operators the focal
modulation classifier and its loss need: linear maps, depth-wise 2-d
convolution, GeLU, layer normalization, global average pooling, softmax and
the training loss as one fused softmax cross-entropy, plus the ops between
them (add, mul, div, sqrt, sum, indexing, reshaping, transposing and
broadcasting), each with a hand-written backward rule.
Gradients are recorded on a tape of nodes ordered by creation, so `backward`
is a single reverse sweep. Around the tape sit the parameter containers.
Signal processing without gradients (the frontend, the masks) works on
plain arrays in `audio` and `interpret`.

Conventions fixed here:

* parameters are float32; the gradient-check oracles run the same ops on
  float64 tensors, cast from a built module's parameters or fed as arrays,
* GeLU is the erf form, not the tanh approximation. float64 (the gradient
  oracles) uses scipy's erf. float32 uses the single-precision rational erf
  of Eigen and XLA, evaluated in blocks of the input's memory: its normal
  CDF is within 3e-7 of the float64 one and GeLU within 3e-7 * max(1, |x|).
  The backward runs in the same blocks in either dtype,
* `linear` reads x [..., in] as [lead, in, cells], lead being x's first
  axis, and stores its output [lead, out, cells], the out axis second; the
  [..., out] result is a view of that storage, so a channel projection of a
  channel-first feature map is stored channel-first too,
* depth-wise convolution is a stride-1 cross-correlation with zero
  same-padding. A map is read through one padded tap view, a read-only
  [C, kh, kw, B, H * Wp] over a single channel-major zero-padded copy. The
  forward copies that view into tap-major columns one channel group of at
  most `_DW_GROUP_BYTES` (1 MB) at a time, and contracts each group with
  its kernels in one batched product, so its output is stored
  [C, B, H, W]; the input gradient is the same routine on the incoming
  gradient's view with the flipped kernel, and the kernel gradient is one
  contraction of the input's view with the gradient's centre tap,
* a gradient, or the `.data` of a non-leaf, may be a read-only broadcast
  view: `broadcast_to` and the backwards of `sum` and `global_avg_pool`
  return `np.broadcast_to` views, not copies,
* layer normalization adds `_LN_EPS` (1e-5) to the variance, in the
  input's dtype,
* parameters are initialized from a normal distribution with standard
  deviation 0.02, truncated at two standard deviations.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327
_INIT_STD = 0.02
_LN_EPS = 1e-5

# Single-precision rational erf of Eigen and XLA, highest power first:
# erf(t) = t P(t^2) / Q(t^2) on t clamped to [-4, 4], beyond which erf is
# +-1 in float32.
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _fold(coeffs: Sequence[float], scale: float) -> tuple[np.float32, ...]:
    """Coefficients in t^2 = x^2 / 2 rewritten in x^2 and scaled by `scale`."""
    top = len(coeffs) - 1
    return tuple(np.float32(c * scale / 2.0 ** (top - i)) for i, c in enumerate(coeffs))


# Phi(x) = 1/2 + x P'(x^2) / Q'(x^2): erf's argument x / sqrt(2) and the
# outer 1/2 are folded into the coefficients.
_PHI_P = _fold(_ERF_P, 0.5 * _INV_SQRT2)
_PHI_Q = _fold(_ERF_Q, 1.0)
_PHI_CLAMP = np.float32(4.0 / _INV_SQRT2)
_GELU_BLOCK = 65536  # elements: 256 KB per float32 scratch buffer
_DW_GROUP_BYTES = 1 << 20  # depth-wise columns per channel group

_seq_counter = itertools.count()
_grad_enabled = True


class NumericalError(ArithmeticError):
    """A tensor left the finite-value domain (NaN/Inf) or a norm collapsed."""


class no_grad:
    """Context manager disabling tape recording (evaluation mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """N-dimensional real array plus the tape node that produced it.

    ``data`` is always a float32 or float64 ndarray. ``grad`` is filled in
    by :func:`backward` for every tensor on the path to the loss that has
    ``requires_grad`` set.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._seq = next(_seq_counter)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, op={self._op})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))


def _attach(out: Tensor, parents: Sequence[Tensor], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Record the tape node if grad mode is on and any parent needs it.
    `backward(g)` gets the gradient of `out` and must not refer to `out`:
    that would make a reference cycle only the cyclic collector frees.
    `g` is read-only: it may be `out.grad` itself or a view shared with
    other gradients, so a rule builds new arrays and never writes into it."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`. The first gradient is stored as is, without a
    copy, and later ones are summed out of place, so `.grad` may share memory
    with other gradients: backward rules and callers treat it as read-only."""
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded, in one call."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + ax for ax, n in enumerate(shape) if n == 1 and g.shape[lead + ax] != 1)
    return g.sum(axis=axes).reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.shape))

    return _attach(out, (a, b), "add", bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _attach(out, (a, b), "mul", bw)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _attach(out, (a, b), "div", bw)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    out = Tensor(y)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * (0.5 / y))

    return _attach(out, (a,), "sqrt", bw)


# ---------------------------------------------------------------------------
# reductions and shape surgery
# ---------------------------------------------------------------------------

def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _attach(out, (a,), "sum", bw)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        if a.requires_grad:
            _accum(a, g.reshape(a.shape))

    return _attach(out, (a,), "reshape", bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes))
    inv = tuple(np.argsort(axes))

    def bw(g):
        if a.requires_grad:
            _accum(a, g.transpose(inv))

    return _attach(out, (a,), "transpose", bw)


def moveaxis(a: Tensor, src: int, dst: int) -> Tensor:
    axes = list(range(a.ndim))
    axes.insert(dst % a.ndim, axes.pop(src % a.ndim))
    return transpose(a, axes)


_BASIC_INDEX_TYPES = (int, slice, type(None), type(Ellipsis))


def _is_basic_index(idx) -> bool:
    for p in idx if isinstance(idx, tuple) else (idx,):
        if type(p) not in _BASIC_INDEX_TYPES and not isinstance(p, np.integer):
            return False
    return True


def getitem(a: Tensor, idx) -> Tensor:
    """Basic indexing only (ints, slices, `...`, `None`): each entry of `a` is
    picked at most once, so the backward is a plain scatter."""
    if not _is_basic_index(idx):
        raise TypeError(f"getitem: only basic indexing is supported, got {idx!r}")
    out = Tensor(a.data[idx])

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[idx] = g
            _accum(a, ga)

    return _attach(out, (a,), "getitem", bw)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = Tensor(np.broadcast_to(a.data, shape))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.shape))

    return _attach(out, (a,), "broadcast", bw)


# ---------------------------------------------------------------------------
# neural operators
# ---------------------------------------------------------------------------

def _lead_in_cells(a: np.ndarray, lead: int) -> np.ndarray:
    """[..., C] read as [lead, C, cells]: a view, no copy, both for the
    ``moveaxis`` view of a C-contiguous [B, C, H, W] and for a C-contiguous
    [B, H, W, C]."""
    return a.reshape(lead, -1, a.shape[-1]).transpose(0, 2, 1)


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ W.T + b along the trailing dimension of x.

    x: [..., in], W: [out, in], b: [out] or None. x is read as [lead, in,
    cells], lead being its first axis (one lead of all rows for a 1-d or
    2-d x), and y is computed as one batched product ``W @ x`` stored
    [lead, out, cells]; the result is the [..., out] view of that storage,
    so moving its last axis to axis 1 gives a C-contiguous [B, out, H, W].
    """
    x, W = _as_tensor(x), _as_tensor(W)
    if x.shape[-1] != W.shape[-1]:
        raise ValueError(
            f"linear: trailing dim of x is {x.shape[-1]}, W expects {W.shape[-1]}"
        )
    lead = x.shape[0] if x.ndim >= 3 else 1
    xm = _lead_in_cells(x.data, lead)
    y = W.data @ xm
    if b is not None:
        b = _as_tensor(b)
        y += b.data[:, None]
    out = Tensor(y.transpose(0, 2, 1).reshape(x.shape[:-1] + (W.shape[0],)))
    parents = (x, W) if b is None else (x, W, b)

    def bw(g):
        gm = _lead_in_cells(g, lead)
        if x.requires_grad:
            _accum(x, (W.data.T @ gm).transpose(0, 2, 1).reshape(x.shape))
        if W.requires_grad:
            _accum(W, (gm @ xm.transpose(0, 2, 1)).sum(axis=0))
        if b is not None and b.requires_grad:
            _accum(b, gm.sum(axis=(0, 2)))

    return _attach(out, parents, "linear", bw)


def _horner(z: np.ndarray, coeffs: Sequence[np.float32], out: np.ndarray) -> None:
    """out = the polynomial with `coeffs` (highest power first) at z."""
    np.multiply(z, coeffs[0], out=out)
    np.add(out, coeffs[1], out=out)
    for c in coeffs[2:]:
        np.multiply(out, z, out=out)
        np.add(out, c, out=out)


def _blockwise(body: Callable[..., None], inputs: Sequence[np.ndarray], n_out: int,
               n_scratch: int) -> tuple[np.ndarray, ...]:
    """Run `body` over `inputs` in blocks of `_GELU_BLOCK` elements.

    Every input is read in the memory order of the first, x: one copy of
    each input whose layout differs or that is not dense. Each block calls
    ``body(*input_blocks, *output_blocks, *scratch)``: `n_out` output
    blocks to fill, then `n_scratch` buffers of x's dtype that every block
    reuses, so no full-size temporary is made. Returns the `n_out` outputs,
    each stored in x's memory order.
    """
    x = inputs[0]
    # x's axes from the largest stride to the smallest: x.transpose(perm),
    # flattened, runs over x's memory without a copy if x is dense
    perm = sorted(range(x.ndim), key=lambda i: -abs(x.strides[i]))
    flats = [a.transpose(perm).reshape(-1) for a in inputs]
    outs = [np.empty_like(flats[0]) for _ in range(n_out)]
    scratch = [np.empty(min(x.size, _GELU_BLOCK), x.dtype) for _ in range(n_scratch)]
    for i in range(0, x.size, _GELU_BLOCK):
        blocks = [a[i : i + _GELU_BLOCK] for a in flats + outs]
        body(*blocks, *(buf[: blocks[0].size] for buf in scratch))
    inv = np.argsort(perm)
    return tuple(out.reshape([x.shape[a] for a in perm]).transpose(inv) for out in outs)


def _gelu_block(x: np.ndarray, y: np.ndarray, cdf: np.ndarray, xs: np.ndarray,
                x2: np.ndarray) -> None:
    """y = x * Phi(x) and cdf = Phi(x) on one float32 block, through the
    scratch buffers xs and x2."""
    np.clip(x, -_PHI_CLAMP, _PHI_CLAMP, out=xs)
    np.multiply(xs, xs, out=x2)
    _horner(x2, _PHI_P, out=cdf)
    np.multiply(cdf, xs, out=cdf)
    _horner(x2, _PHI_Q, out=xs)
    np.divide(cdf, xs, out=cdf)
    np.add(cdf, np.float32(0.5), out=cdf)
    np.clip(cdf, np.float32(0.0), np.float32(1.0), out=cdf)
    np.multiply(x, cdf, out=y)


def _gelu_float32(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x * Phi(x), Phi(x)) for float32 x with the rational erf, both stored
    in x's memory order and computed in blocks of it (`_blockwise`).

    Phi is clipped to [0, 1]: the rational form dips to -1.2e-7 in the far
    left tail, which would give gelu(-20) > 0.
    """
    return _blockwise(_gelu_block, (x,), n_out=2, n_scratch=2)


def _gelu_grad_block(x: np.ndarray, cdf: np.ndarray, g: np.ndarray, out: np.ndarray,
                     s: np.ndarray) -> None:
    """out = g * (cdf + x * exp(-x^2 / 2) / sqrt(2 pi)) on one block, with
    the per-element op order of that full-array expression."""
    np.multiply(x, -0.5, out=s)
    np.multiply(s, x, out=s)
    np.exp(s, out=s)
    np.multiply(s, x.dtype.type(_INV_SQRT2PI), out=s)
    np.multiply(x, s, out=s)
    np.add(cdf, s, out=s)
    np.multiply(g, s, out=out)


def _gelu_grad(x: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """GeLU's backward g * (cdf + x * exp(-x^2 / 2) / sqrt(2 pi)), stored in
    x's memory order and computed in blocks of it (`_blockwise`), bitwise
    the same as that full-array expression.
    """
    # -x^2 / 2 overflows to -inf beyond |x| ~ 1.8e19 in float32; exp(-inf)
    # is the right 0, so the overflow warning is not wanted
    with np.errstate(over="ignore"):
        return _blockwise(_gelu_grad_block, (x, cdf, g), n_out=1, n_scratch=1)[0]


def gelu(x: Tensor) -> Tensor:
    """GeLU: x * Phi(x) with Phi the standard normal CDF (erf form; float32
    through the rational erf, see the module conventions)."""
    x = _as_tensor(x)
    if x.dtype == np.float32:
        y, cdf = _gelu_float32(x.data)
    else:
        cdf = 0.5 * (1.0 + erf(x.data * x.dtype.type(_INV_SQRT2)))
        y = x.data * cdf
    out = Tensor(y)

    def bw(g):
        if x.requires_grad:
            _accum(x, _gelu_grad(x.data, cdf, g))

    return _attach(out, (x,), "gelu", bw)


def _padded_taps(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The kh*kw taps of x [B, C, H, W] zero same-padded, as one read-only
    view [C, kh, kw, B, H * Wp] with Wp = W + kw - 1.

    x is copied once, channel-major, into a zeroed [C, B, H + kh, Wp]; the
    spare row keeps the last tap in bounds. Tap (u, v) of channel c is then
    the contiguous run of each image starting at ``u * Wp + v``: the value
    tap (u, v) reads for every cell of the padded [H, Wp] output grid. Grid
    columns W.. read wrapped values and are dropped or zero-weighted by the
    caller.
    """
    B, C, H, W = x.shape
    wp = W + kw - 1
    pad = np.zeros((C, B, H + kh, wp), dtype=x.dtype)
    pad[:, :, kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x.transpose(1, 0, 2, 3)
    sc, sb, _, s = pad.strides
    return np.lib.stride_tricks.as_strided(pad, (C, kh, kw, B, H * wp), (sc, wp * s, s, sb, s),
                                           writeable=False)


def _correlate(taps: np.ndarray, k: np.ndarray, W: int) -> np.ndarray:
    """Same-size depth-wise cross-correlation of the `_padded_taps` view of
    a [B, C, H, W] map with k [C, kh, kw], one channel group at a time: the
    group's taps are copied in one go into tap-major columns
    [group, kh*kw, B*H*Wp] and contracted with its kernels in one batched
    product. A group holds as many channels as fit in `_DW_GROUP_BYTES` of
    columns, at least one, and every group reuses one columns buffer. Each
    channel's product is the same whatever the group size. Returns
    [B, C, H, W] stored channel-major, [C, B, H, W]."""
    C, kh, kw, B, n = taps.shape
    wp = W + kw - 1
    group = max(1, _DW_GROUP_BYTES // (kh * kw * B * n * taps.itemsize))
    buf = np.empty((min(group, C), kh, kw, B, n), dtype=taps.dtype)
    y = np.empty((C, B, n // wp, W), dtype=taps.dtype)
    kt = k.reshape(C, 1, kh * kw)
    for c0 in range(0, C, group):
        c1 = min(c0 + group, C)
        cols = buf[: c1 - c0]
        np.copyto(cols, taps[c0:c1])
        prod = kt[c0:c1] @ cols.reshape(c1 - c0, kh * kw, B * n)
        y[c0:c1] = prod.reshape(c1 - c0, B, -1, wp)[..., :W]
    return y.transpose(1, 0, 2, 3)


def dwconv2d(x: Tensor, k: Tensor) -> Tensor:
    """Depth-wise 2-d convolution: each channel sees only its own kernel.

    x: [B, C, H, W]; k: [C, kh, kw] with odd kh, kw. Spatial size is
    preserved by zero same-padding. Both passes read the one padded tap
    view of their map (`_padded_taps`). The forward copies the view into
    tap-major columns and contracts them with k in batched products, one
    channel group of at most `_DW_GROUP_BYTES` of columns at a time (see
    `_correlate`); the output is stored [C, B, H, W]. The input gradient is
    the same routine on the incoming gradient's taps with the flipped
    kernel. The kernel gradient is one contraction of the input's taps with
    the gradient's centre tap, which reads g on the [H, Wp] grid, zero in
    columns W..; it makes no window copy.
    """
    x, k = _as_tensor(x), _as_tensor(k)
    if k.ndim != 3:
        raise ValueError(f"dwconv2d: kernel must be [C, kh, kw], got {k.shape}")
    kh, kw = k.shape[1], k.shape[2]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"dwconv2d: kernel sizes must be odd, got ({kh}, {kw})")
    if x.ndim != 4 or x.shape[1] != k.shape[0]:
        raise ValueError(
            f"dwconv2d: input {x.shape} incompatible with kernel {k.shape}"
        )
    W = x.shape[3]
    taps = _padded_taps(x.data, kh, kw)
    out = Tensor(_correlate(taps, k.data, W))

    def bw(g):
        gtaps = _padded_taps(g, kh, kw)
        if x.requires_grad:
            # contiguous: reshaped, the flipped view keeps negative strides,
            # and the batched product then sums in another order
            _accum(x, _correlate(gtaps, np.ascontiguousarray(k.data[:, ::-1, ::-1]), W))
        if k.requires_grad:
            _accum(k, np.einsum("cuvbn,cbn->cuv", taps, gtaps[:, kh // 2, kw // 2]))

    return _attach(out, (x, k), "dwconv2d", bw)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Zero mean / unit variance over the channel axis of [..., C, H, W],
    then affine with the length-C gamma and beta."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    ax = x.ndim - 3
    n = x.shape[ax]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"layernorm: gamma/beta must have shape ({n},)")
    bshape = (n, 1, 1)
    mu = x.data.mean(axis=ax, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=ax, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(_LN_EPS))
    xhat = xc * inv
    out = Tensor(gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape))
    reduce_axes = tuple(i for i in range(x.ndim) if i != ax)

    def bw(g):
        if gamma.requires_grad:
            _accum(gamma, (g * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            _accum(beta, g.sum(axis=reduce_axes))
        if x.requires_grad:
            gx_hat = g * gamma.data.reshape(bshape)
            m1 = gx_hat.mean(axis=ax, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=ax, keepdims=True)
            _accum(x, inv * (gx_hat - m1 - xhat * m2))

    return _attach(out, (x, gamma, beta), "layernorm", bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel mean over the two trailing spatial axes: [..., C, H, W] -> [..., C]."""
    x = _as_tensor(x)
    if x.ndim < 3:
        raise ValueError(f"global_avg_pool: expected [..., C, H, W], got {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    out = Tensor(x.data.mean(axis=(-2, -1)))

    def bw(g):
        if x.requires_grad:
            g = g[..., None, None] / x.dtype.type(h * w)
            _accum(x, np.broadcast_to(g, x.shape))

    return _attach(out, (x,), "global_avg_pool", bw)


def softmax(x: Tensor) -> Tensor:
    """Stable softmax along the last axis (max-subtracted, hence shift-invariant)."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        if x.requires_grad:
            _accum(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _attach(out, (x,), "softmax", bw)


def cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits) at the one-hot targets.

    logits: [B, K]; onehot: a plain [B, K] array with one 1 per row. The
    log-sum-exp is shifted by the row max, a constant of the tape, so the
    gradient is (softmax(logits) - onehot) / B, summed as the one-hot term
    first and the softmax term second.
    """
    if logits.ndim != 2 or onehot.shape != logits.shape:
        raise ValueError(f"cross_entropy: logits {logits.shape} and one-hot {onehot.shape} "
                         "must both be [B, K]")
    z = logits.data
    shift = z.max(axis=-1, keepdims=True)
    e = np.exp(z - shift)
    s = e.sum(axis=-1)
    out = Tensor((np.log(s) + shift[:, 0] - (z * onehot).sum(axis=-1)).mean())
    rows = z.dtype.type(z.shape[0])

    def bw(g):
        if logits.requires_grad:
            gm = g / rows
            _accum(logits, -gm * onehot + (gm / s)[:, None] * e)

    return _attach(out, (logits,), "cross_entropy", bw)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss, accumulating into `.grad` fields."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes.append(t)
            stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq)
    loss.grad = np.ones_like(loss.data)
    for t in reversed(nodes):
        t._backward(t.grad)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

class Module:
    """Minimal parameter container with recursive named traversal."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            yield from _walk_params(full, value)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _walk_params(name: str, value) -> Iterator[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield name, value
    elif isinstance(value, Module):
        yield from value.named_parameters(prefix=name + ".")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _walk_params(f"{name}.{i}", v)


def trunc_normal(shape, rng: np.random.Generator) -> Tensor:
    """Normal(0, 0.02) resampled until within two standard deviations, as a
    trainable float32 parameter."""
    vals = rng.normal(0.0, _INIT_STD, size=shape)
    bad = np.abs(vals) > 2 * _INIT_STD
    while bad.any():
        vals[bad] = rng.normal(0.0, _INIT_STD, size=int(bad.sum()))
        bad = np.abs(vals) > 2 * _INIT_STD
    return Tensor(vals.astype(DEFAULT_DTYPE), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=True)


def check_finite(data: np.ndarray, where: str) -> None:
    if not np.isfinite(data).all():
        raise NumericalError(f"non-finite values detected in {where}")

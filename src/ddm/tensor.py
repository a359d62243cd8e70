"""Minimal reverse-mode autodiff over float64 numpy arrays.

The package trains small attention models on CPU, so the engine favours
clarity and bit-reproducibility over generality: every value is a dense
float64 array, operations are recorded on an explicit per-thread tape, and
``backward`` replays the tape once in reverse creation order.  Records hold
the parent tensors and a closure mapping the output gradient to parent
gradients; leaf gradients accumulate additively into ``Tensor.grad``.

Conventions kept throughout the package:

* sequences are time-major ``(..., T, C)``; images are channels-last
  ``(N, H, W, C)``,
* all operations are pure -- no primitive mutates its inputs, and repeated
  evaluation on identical inputs is bit-identical,
* gradients never flow through data-dependent *choices* (argmax positions,
  clip masks); those use sub-gradient conventions documented per op.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor", "parameter", "uniform_init", "no_grad", "backward", "zero_grad",
    "add", "sub", "mul", "div", "matmul", "relu", "exp", "log", "sqrt",
    "square", "absolute", "sigmoid", "softmax", "layer_norm", "clip",
    "concatenate", "conv1d", "conv2d",
]


class Tensor:
    """A float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    # make numpy defer mixed ndarray-op-Tensor expressions to our reflected
    # operators instead of broadcasting the Tensor into an object array
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ------------------------------------------------

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

    def __getitem__(self, key):
        return take(self, key)

    # -- method sugar --------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return reduce_mean(self, axis, keepdims)

    def max(self, axis: int, keepdims: bool = False):
        return reduce_max(self, axis, keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def swap_last(self):
        """Transpose the trailing two axes (matrix transpose of a stack)."""
        order = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        return transpose(self, order)


def parameter(data) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Parameter drawn from U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    limit = np.sqrt(6.0 / fan_in)
    return parameter(rng.uniform(-limit, limit, size=shape))


# ---------------------------------------------------------------------------
# tape machinery


class _Node:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out, parents, backward_fn):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


_state = threading.local()


def _nodes() -> list[_Node]:
    nodes = getattr(_state, "nodes", None)
    if nodes is None:
        nodes = []
        _state.nodes = nodes
    return nodes


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / oracles)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        nodes = _nodes()
        out.node_id = len(nodes)
        nodes.append(_Node(out, parents, backward_fn))
    return out


def backward(root: Tensor) -> None:
    """Backpropagate from a scalar root; consumes the active tape.

    Leaf gradients accumulate into ``.grad`` (summed if already set).  After
    the call the tape is empty, so a second ``backward`` on the same graph
    raises a contract error.
    """
    if root.data.size != 1:
        raise ContractError(
            f"backward root must be scalar, got shape {root.shape}")
    if root.node_id is None:
        raise ContractError("backward root is not connected to the tape")
    nodes = _nodes()
    grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
    try:
        for idx in range(root.node_id, -1, -1):
            gout = grads.pop(idx, None)
            if gout is None:
                continue
            node = nodes[idx]
            parent_grads = node.backward_fn(gout)
            for parent, g in zip(node.parents, parent_grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.node_id is not None:
                    held = grads.get(parent.node_id)
                    grads[parent.node_id] = g if held is None else held + g
                elif parent.grad is None:
                    parent.grad = g + np.zeros_like(parent.data)
                else:
                    parent.grad = parent.grad + g
    finally:
        for node in nodes:
            node.out.node_id = None
        nodes.clear()


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# helpers


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _norm_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_reduced(g: np.ndarray, shape, axes, keepdims: bool) -> np.ndarray:
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return _record(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bw)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0.0  # sub-gradient 0 at exactly 0

    def bw(g):
        return (g * mask,)

    return _record(out, (x,), bw)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    y = np.exp(x.data)

    def bw(g):
        return (g * y,)

    return _record(Tensor(y), (x,), bw)


def log(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.log(x.data))
    xd = x.data

    def bw(g):
        return (g / xd,)

    return _record(out, (x,), bw)


def sqrt(x) -> Tensor:
    """Elementwise square root; gradient defined as 0 at exactly 0.

    The zero guard keeps distances between identical frames (diagonal of a
    difference map) from producing NaN gradients.
    """
    x = _as_tensor(x)
    if np.any(x.data < 0.0):
        raise NumericError("sqrt of negative value")
    y = np.sqrt(x.data)

    def bw(g):
        safe = np.where(y == 0.0, 1.0, y)
        return (np.where(y == 0.0, 0.0, g * 0.5 / safe),)

    return _record(Tensor(y), (x,), bw)


def square(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data * x.data)
    xd = x.data

    def bw(g):
        return (2.0 * g * xd,)

    return _record(out, (x,), bw)


def absolute(x) -> Tensor:
    """Elementwise |x| with sub-gradient 0 at 0."""
    x = _as_tensor(x)
    out = Tensor(np.abs(x.data))
    s = np.sign(x.data)

    def bw(g):
        return (g * s,)

    return _record(out, (x,), bw)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    z = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def bw(g):
        return (g * y * (1.0 - y),)

    return _record(Tensor(y), (x,), bw)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where x stayed in range."""
    x = _as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data >= lo) & (x.data <= hi)

    def bw(g):
        return (g * mask,)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    ad, bd = a.data, b.data

    def bw(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _record(out, (a, b), bw)


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise NumericError("softmax input contains non-finite values")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - inner) * y,)

    return _record(Tensor(y), (x,), bw)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1] if x.ndim else 0
    if d < 1:
        raise DimensionError(f"layer_norm needs last-axis extent >= 1, got {x.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/bias must have shape ({d},), got "
            f"{gain.shape} / {bias.shape}")
    if eps <= 0.0:
        raise ContractError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    lead = tuple(range(x.ndim - 1))

    def bw(g):
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxh = g * gain.data
        dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                    - xhat * (dxh * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = _norm_axes(axis, x.ndim)
    out = Tensor(x.data.sum(axis=axes, keepdims=keepdims))
    shape = x.shape

    def bw(g):
        return (_expand_reduced(g, shape, axes, keepdims),)

    return _record(out, (x,), bw)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axes = _norm_axes(axis, x.ndim)
    out = Tensor(x.data.mean(axis=axes, keepdims=keepdims))
    shape = x.shape
    count = 1
    for a in axes:
        count *= shape[a]

    def bw(g):
        return (_expand_reduced(g / count, shape, axes, keepdims),)

    return _record(out, (x,), bw)


def reduce_max(x, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; ties send the gradient to the first maximum."""
    x = _as_tensor(x)
    ax = axis % x.ndim
    out = Tensor(x.data.max(axis=ax, keepdims=keepdims))
    idx = np.expand_dims(np.argmax(x.data, axis=ax), ax)
    shape = x.shape

    def bw(g):
        gk = g if keepdims else np.expand_dims(g, ax)
        gz = np.zeros(shape)
        np.put_along_axis(gz, idx, gk, axis=ax)
        return (gz,)

    return _record(out, (x,), bw)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    orig = x.shape

    def bw(g):
        return (g.reshape(orig),)

    return _record(out, (x,), bw)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.transpose(x.data, axes))
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), bw)


_BASIC_KEYS = (slice, int, np.integer, type(None), type(Ellipsis))


def take(x, key) -> Tensor:
    """Indexing with a scatter backward.

    Basic keys (slices, integers) select each element at most once, so the
    gradient is assigned; index arrays may repeat an element, so their
    gradient is accumulated with ``np.add.at`` (several times slower).
    """
    x = _as_tensor(x)
    out = Tensor(x.data[key])
    shape = x.shape
    parts = key if isinstance(key, tuple) else (key,)
    basic = all(isinstance(k, _BASIC_KEYS) for k in parts)

    def bw(g):
        gz = np.zeros(shape)
        if basic:
            gz[key] = g
        else:
            np.add.at(gz, key, g)
        return (gz,)

    return _record(out, (x,), bw)


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concatenate of zero tensors")
    ax = axis % tensors[0].ndim
    out = Tensor(np.concatenate([t.data for t in tensors], axis=ax))
    sizes = [t.shape[ax] for t in tensors]

    def bw(g):
        pieces = []
        start = 0
        for n in sizes:
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(start, start + n)
            pieces.append(g[tuple(sl)])
            start += n
        return tuple(pieces)

    return _record(out, tuple(tensors), bw)


# ---------------------------------------------------------------------------
# convolution (stride 1, same padding, odd kernels): one shift-and-matmul
# kernel in conv2d; conv1d is a 1 x K conv2d over a height-1 image


def conv1d(x, w, b=None, dilation: int = 1, pad_mode: str = "zero") -> Tensor:
    """Temporal convolution over ``(N, T, C_in)`` with kernel ``(K, C_in, C_out)``.

    Stride is fixed at 1 and the output keeps length T ("same" padding).
    ``pad_mode`` selects zero padding or edge replication; replication is
    what the temporal feature branches use so that a constant sequence maps
    to a constant sequence.  The work is done by :func:`conv2d` on the
    sequence viewed as an ``(N, 1, T, C_in)`` image with a ``1 x K`` kernel.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise DimensionError(
            f"conv1d expects (N,T,C) and (K,C,O), got {x.shape} and {w.shape}")
    n, t, cin = x.shape
    y = conv2d(x.reshape(n, 1, t, cin), w.reshape(1, *w.shape), b, dilation,
               pad_mode)
    return y.reshape(n, t, w.shape[-1])


def conv2d(x, w, b=None, dilation: int = 1, pad_mode: str = "zero") -> Tensor:
    """Spatial convolution over ``(N, H, W, C_in)`` with kernel
    ``(kh, kw, C_in, C_out)``; stride 1, same padding, odd kernels.

    ``pad_mode`` is ``"zero"`` or ``"edge"`` (border replication).  With
    edge padding, backward folds the gradient of each replicated border row
    and column back onto the edge cell it copies, rows first and then
    columns, so a corner cell also collects its whole padded corner block.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if b is not None:
        b = _as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(
            f"conv2d expects (N,H,W,C) and (kh,kw,C,O), got {x.shape} and {w.shape}")
    kh, kw, cin, cout = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise DimensionError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if x.shape[-1] != cin:
        raise DimensionError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    if dilation < 1:
        raise ContractError(f"conv2d dilation must be >= 1, got {dilation}")
    if pad_mode not in ("zero", "edge"):
        raise ContractError(f"unknown pad_mode {pad_mode!r}")
    n, h, wdt, _ = x.shape
    if h < 1 or wdt < 1:
        raise DimensionError(f"conv2d input has empty spatial extent: {x.shape}")
    ph = (kh - 1) * dilation // 2
    pw = (kw - 1) * dilation // 2
    mode = "constant" if pad_mode == "zero" else "edge"
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)), mode=mode)
    acc = np.zeros((n * h * wdt, cout))
    for i in range(kh):
        for j in range(kw):
            s = xp[:, i * dilation:i * dilation + h,
                   j * dilation:j * dilation + wdt, :]
            acc += s.reshape(-1, cin) @ w.data[i, j]
    y = acc.reshape(n, h, wdt, cout)
    if b is not None:
        if b.shape != (cout,):
            raise DimensionError(
                f"conv2d bias must have shape ({cout},), got {b.shape}")
        y = y + b.data
    out = Tensor(y)
    wd = w.data
    parents = (x, w) if b is None else (x, w, b)

    def bw(g):
        g2 = g.reshape(-1, cout)
        gw = np.empty_like(wd)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                s = xp[:, i * dilation:i * dilation + h,
                       j * dilation:j * dilation + wdt, :]
                gw[i, j] = s.reshape(-1, cin).T @ g2
                gxp[:, i * dilation:i * dilation + h,
                    j * dilation:j * dilation + wdt, :] += \
                    (g2 @ wd[i, j].T).reshape(n, h, wdt, cin)
        if pad_mode == "edge" and ph:
            gxp[:, ph] += gxp[:, :ph].sum(axis=1)
            gxp[:, ph + h - 1] += gxp[:, ph + h:].sum(axis=1)
        if pad_mode == "edge" and pw:
            gxp[:, :, pw] += gxp[:, :, :pw].sum(axis=2)
            gxp[:, :, pw + wdt - 1] += gxp[:, :, pw + wdt:].sum(axis=2)
        gx = gxp[:, ph:ph + h, pw:pw + wdt]
        if ph or pw:
            gx = gx.copy()
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 1, 2))

    return _record(out, parents, bw)

"""Everything the package knows about each component kind, in one table.

SPECS maps a kind name to its KindSpec, and the rest of the package reads
kinds only through it. To add a kind, add one SPECS entry here and a
builder next to the others in ir.py (callers import builders from ir).

Port windows are (offset, width) pairs in the coordinate of their half:
concat inputs and split outputs sit at offsets, every other port spans its
half from 0. A half's width is where its last window ends.

A parameter role slices one axis per half: pruning index i of the output
half removes slice i along out_axis, of the input half slice i along
in_axis; None slices nothing. A kind whose halves are tied (a grouped
convolution) slices its out axes on both halves, so both carry one scheme.

A forward kernel takes one array per input port and returns one per output
port plus a backward context; backward takes, per input port, whether it
needs a gradient, then one gradient per output port, and returns one per
input port (None where none is needed; only conv2d and linear skip the
work) plus {role: parameter gradient}. Backward only sees train-mode
contexts: engine.forward keeps no tape in eval. Arrays are float32, NCHW
for images and (N, F) after flatten. Split returns the np.split views of
its port windows.

Kernels assume an IR that passed NetworkIR.validate(): ranks, widths
along edges, weight shapes and each kind's out_shape hold there, so no
kernel checks them again. A shrink rule only computes the new attributes;
pruning.prune's closing validate() judges the network they make.

A convolution is three batched matmuls, each over a patch array that
_im2col gathers. The output is weight @ patches of the padded input, and
the weight gradient is output gradient @ those patches^T, summed over the
batch. The input gradient is the flipped kernel, in/out axes swapped per
group, @ patches of the output gradient, dilated by the stride and padded
by k-1-p: a correlation, so every step is a gather and none is a
scatter-add. One code path serves every kernel, stride, padding and group
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import ShapeError

# Parameter roles that are per-channel state but not trained by SGD.
BUFFER_ROLES = ("running_mean", "running_var")


@dataclass(frozen=True)
class Role:
    """A parameter tensor: its shape from the attributes, and the axis
    each half slices."""

    shape: Callable[[dict], tuple[int, ...]]
    out_axis: int | None
    in_axis: int | None
    optional: bool = False


@dataclass(frozen=True)
class KindSpec:
    """The facts about one kind; callables take the attrs dict a unless
    noted."""

    rules: tuple                # a -> fault without the component id, or None
    in_ports: Callable          # a -> port windows of the input half
    out_ports: Callable         # a -> port windows of the output half
    shrink: Callable            # (comp, in removed, out removed) -> new attrs
    forward: Callable           # (comp, ins, weights, mode) -> (outs, ctx)
    backward: Callable          # (comp, ctx, weights, need, *douts) -> (dins, grads)
    roles: dict[str, Role] = field(default_factory=dict)
    tied: Callable = lambda a: False   # the input half slices the out axes
    block: Callable = lambda a: 1      # local indices selected together
    windows: Callable = lambda a: []   # port windows pruning must not empty
    rank: int | None = None            # per-sample input rank; None: 1 or 3
    # (comp, per-sample input shape per port) -> output shape, or ShapeError
    out_shape: Callable = lambda comp, ins: ins[0]
    # (a, output shape, input width, output width) -> MACs per sample
    macs: Callable = lambda a, out_shape, c_in, c_out: 0

    def check(self, comp) -> list[str]:
        """Attribute violations of a component of this kind."""
        return [f"{comp.comp_id}: {fault}" for rule in self.rules
                if (fault := rule(comp.attrs)) is not None]

    def param_shapes(self, comp) -> dict[str, tuple[int, ...]]:
        """Expected shape per role; an optional role only when named."""
        return {role: r.shape(comp.attrs) for role, r in self.roles.items()
                if not r.optional or role in comp.params}

    def slices(self, comp, side: str) -> list[tuple[str, int]]:
        """(role, axis) of every slice one index of a half removes."""
        out = side == "out" or self.tied(comp.attrs)
        axes = ((role, r.out_axis if out else r.in_axis)
                for role, r in self.roles.items() if role in comp.params)
        return [(role, axis) for role, axis in axes if axis is not None]


# ---------------------------------------------------------------------------
# Attribute rules, port windows, shrink, shape and MAC rules


def is_int(x) -> bool:
    """An int that is not a bool (True is an int in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A non-bool int or a finite float."""
    return is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _positive(x) -> bool:
    return is_int(x) and x > 0


def _need(key, pred=_positive, what="positive int", optional=False):
    """attrs[key] satisfies pred; a missing key is a fault unless optional."""
    def rule(a):
        if key not in a:
            return None if optional else f"missing attr {key!r}"
        if not pred(a[key]):
            return f"attr {key!r} must be {what}, got {a[key]!r}"
        return None
    return rule


def _one_of(key, choices, what):
    return lambda a: (f"unknown {what} {a.get(key)!r}"
                      if a.get(key) not in choices else None)


def _sizes(a):
    sizes = a.get("sizes")
    if (not isinstance(sizes, list) or not sizes
            or any(not is_int(s) or s <= 0 for s in sizes)):
        return "sizes must be a non-empty list of positive ints"
    return None


def _conv_groups(a):
    """groups divides both widths, and a grouped conv keeps its width;
    checked once all three are positive ints."""
    if not all(_positive(a.get(k)) for k in ("in_channels", "out_channels",
                                             "groups")):
        return None
    g, c_in, c_out = a["groups"], a["in_channels"], a["out_channels"]
    if c_in % g or c_out % g:
        return f"groups={g} does not divide channels ({c_in} in, {c_out} out)"
    if g > 1 and c_in != c_out:
        return f"grouped conv requires equal in/out channels, got {c_in} != {c_out}"
    return None


def _span(key):
    """One port spanning attrs[key] channels."""
    return lambda a: [(0, a[key])]


def _runs(a):
    """One port per entry of attrs["sizes"], laid end to end."""
    return list(zip(accumulate(a["sizes"], initial=0), a["sizes"]))


def _narrow(in_key, out_key=None):
    """in_key loses the input half's removed indices, out_key the output
    half's."""
    def shrink(comp, inr, outr):
        a = dict(comp.attrs)
        a[in_key] -= len(inr)
        if out_key:
            a[out_key] -= len(outr)
        return a
    return shrink


def _conv_block(a):
    """Channels per convolution group."""
    return a["out_channels"] // a["groups"]


def _shrink_conv(comp, inr, outr):
    """A grouped conv loses whole groups, the same ones on both halves."""
    a = _narrow("in_channels", "out_channels")(comp, inr, outr)
    if a["groups"] > 1:
        a["groups"] -= len(outr) // _conv_block(comp.attrs)
    return a


def _shrink_sizes(comp, inr, outr):
    """Each port window loses the removed indices inside it."""
    a = dict(comp.attrs)
    a["sizes"] = [size - sum(1 for i in inr if lo <= i < lo + size)
                  for lo, size in _runs(a)]
    return a


def _conv_shape(comp, ins):
    a = comp.attrs
    k, s, p = a["kernel"], a["stride"], a["padding"]
    _, h, w = ins[0]
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"{comp.comp_id}: non-positive output size")
    return (a["out_channels"], oh, ow)


def _pool_shape(comp, ins):
    c, h, w = ins[0]
    k = comp.attrs["kernel"]
    if h % k or w % k:
        raise ShapeError(f"{comp.comp_id}: spatial {h}x{w} not "
                         f"divisible by kernel {k}")
    return (c, h // k, w // k)


def _flatten_shape(comp, ins):
    c, h, w = ins[0]
    if h * w != comp.attrs["spatial_size"]:
        raise ShapeError(f"{comp.comp_id}: spatial_size "
                         f"{comp.attrs['spatial_size']} != actual {h * w}")
    return (c * h * w,)


def _conv_macs(a, out_shape, c_in, c_out):
    """(C_in/G)*c_out*k^2*OH*OW; a grouped conv keeps its per-group input
    width when whole groups are pruned."""
    _, oh, ow = out_shape
    cg = c_in if a["groups"] == 1 else _conv_block(a)
    return cg * c_out * a["kernel"] ** 2 * oh * ow


# ---------------------------------------------------------------------------
# Forward and backward kernels


def _per_channel(arr, ndim):
    if ndim == 4:
        return arr.reshape(1, -1, 1, 1)
    return arr.reshape(1, -1)


def _fwd_linear(comp, ins, weights, mode):
    (x,) = ins
    w = weights[comp.params["weight"]]
    # BLAS runs this product faster as w @ x.T; the result is copied into
    # a C-contiguous array, which the backward's matmuls read faster
    prod = (w @ x.T).T
    if "bias" in comp.params:
        out = np.add(prod, weights[comp.params["bias"]],
                     out=np.empty_like(prod, order="C"))
    else:
        out = np.ascontiguousarray(prod)
    return [out], {"x": x}


def _bwd_linear(comp, ctx, weights, need, dout):
    dparams = {"weight": dout.T @ ctx["x"]}
    if "bias" in comp.params:
        dparams["bias"] = dout.sum(axis=0)
    if not need[0]:
        return [None], dparams
    return [dout @ weights[comp.params["weight"]]], dparams


def _padded(x, top, left, height, width, s=1):
    """A zero (N, C, height, width) array holding x at stride s from row
    top and column left; rows and columns that fall outside are cut off.
    With s = 1 it is x zero-padded (or cropped) by top, left and whatever
    height and width leave at the far edges."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, height, width), dtype=np.float32)
    r0, c0 = -(min(top, 0) // s), -(min(left, 0) // s)   # first rows kept
    r1 = min(h, -(-(height - top) // s))
    c1 = min(w, -(-(width - left) // s))
    out[:, :, top + s * r0::s, left + s * c0::s][:, :, :r1 - r0, :c1 - c0] = \
        x[:, :, r0:r1, c0:c1]
    return out


def _im2col(xp, k, s, oh, ow):
    """Patches of the padded input xp as an (N, C, k, k, OH, OW) array:
    cols[n, c, i, j, a, b] = xp[n, c, i + s*a, j + s*b]. Viewed as
    (N, G, C/G*k*k, OH*OW) it is the right operand of all three conv
    matmuls: the forward's and, transposed, the weight gradient's over
    the padded input, and the input gradient's over the padded, dilated
    output gradient.

    Two passes: k column-shift copies fill an (N, C, k, Hp, OW) row
    buffer, then k row-shift copies fill cols, so each copy runs over
    whole rows (over OH*OW at stride 1), not k*k copies over OW alone.
    """
    n, c, hp, _ = xp.shape
    rows = np.empty((n, c, k, hp, ow), dtype=np.float32)
    for j in range(k):
        rows[:, :, j] = xp[:, :, :, j:j + s * ow:s]
    cols = np.empty((n, c, k, k, oh, ow), dtype=np.float32)
    for i in range(k):
        cols[:, :, i] = rows[:, :, :, i:i + s * oh:s]
    return cols


def _fwd_conv2d(comp, ins, weights, mode):
    (x,) = ins
    a = comp.attrs
    k, s, p, g = a["kernel"], a["stride"], a["padding"], a["groups"]
    _, oh, ow = _conv_shape(comp, [x.shape[1:]])
    cg, ocg = a["in_channels"] // g, a["out_channels"] // g
    n, _, h, w = x.shape
    xp = _padded(x, p, p, h + 2 * p, w + 2 * p)
    cols_g = _im2col(xp, k, s, oh, ow).reshape(n, g, cg * k * k, oh * ow)
    wt = weights[comp.params["weight"]].reshape(g, ocg, cg * k * k)
    out = np.matmul(wt, cols_g).reshape(n, a["out_channels"], oh, ow)
    if "bias" in comp.params:
        out = out + weights[comp.params["bias"]].reshape(1, -1, 1, 1)
    return [out], {"cols_g": cols_g, "x_shape": x.shape, "geom": (k, s, p, oh, ow)}


def _bwd_conv2d(comp, ctx, weights, need, dout):
    """The input gradient is a correlation of the output gradient with the
    flipped kernel, in/out axes swapped per group: dout is dilated by the
    stride and padded by k-1-p (cropped where p > k-1), with zero rows at
    the far edge for the stride remainder, then gathered by _im2col at
    stride 1 into an (N, OC, k, k, H, W) patch array."""
    a = comp.attrs
    g = a["groups"]
    cg, ocg = a["in_channels"] // g, a["out_channels"] // g
    k, s, p, oh, ow = ctx["geom"]
    n = dout.shape[0]
    dout_g = dout.reshape(n, g, ocg, oh * ow)
    # patches @ dout^T: numpy runs it about twice as fast as dout @ patches^T
    dwt = np.matmul(ctx["cols_g"], dout_g.swapaxes(-1, -2)).sum(axis=0)
    dparams = {"weight": dwt.swapaxes(-1, -2).reshape(a["out_channels"], cg, k, k)}
    if "bias" in comp.params:
        dparams["bias"] = dout.reshape(n, -1, oh * ow).sum(axis=0).sum(axis=1)
    if not need[0]:
        return [None], dparams
    _, _, h, w = ctx["x_shape"]
    e = k - 1 - p
    dpad = _padded(dout, e, e, h + k - 1, w + k - 1, s)
    cols_g = _im2col(dpad, k, 1, h, w).reshape(n, g, ocg * k * k, h * w)
    wt = weights[comp.params["weight"]].reshape(g, ocg, cg, k, k)
    wflip = wt[..., ::-1, ::-1].swapaxes(1, 2).reshape(g, cg, ocg * k * k)
    dx = np.matmul(wflip, cols_g).reshape(n, a["in_channels"], h, w)
    return [dx], dparams


def _fwd_batchnorm(comp, ins, weights, mode):
    (x,) = ins
    a = comp.attrs
    c = a["num_features"]
    eps = a.get("eps", 1e-5)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    gamma = weights[comp.params["gamma"]]
    beta = weights[comp.params["beta"]]
    n_stat = x.size // c
    if mode == "train":
        # the bytes of x.mean and x.var, with one mean and one centred x
        mu = x.sum(axis=axes, keepdims=True) / n_stat
        xhat = x - mu
        var = (xhat * xhat).sum(axis=axes) / n_stat
        mu = mu.reshape(c)
        mom = a.get("momentum", 0.1)
        rm, rv = comp.params["running_mean"], comp.params["running_var"]
        unbiased = var * n_stat / max(n_stat - 1, 1)
        weights[rm] = ((1 - mom) * weights[rm] + mom * mu).astype(np.float32)
        weights[rv] = ((1 - mom) * weights[rv] + mom * unbiased).astype(np.float32)
    else:
        var = weights[comp.params["running_var"]]
        xhat = x - _per_channel(weights[comp.params["running_mean"]], x.ndim)
    istd = 1.0 / np.sqrt(var + eps)
    xhat *= _per_channel(istd, x.ndim)
    out = xhat * _per_channel(gamma, x.ndim)
    out += _per_channel(beta, x.ndim)
    return [out], {"xhat": xhat, "istd": istd, "axes": axes, "n": n_stat}


def _bwd_batchnorm(comp, ctx, weights, need, dout):
    gamma = weights[comp.params["gamma"]]
    xhat, istd, axes = ctx["xhat"], ctx["istd"], ctx["axes"]
    prod = dout * xhat
    dgamma = prod.sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    dx = dout * _per_channel(gamma, dout.ndim)     # dxhat until scaled
    # dx = istd / n * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
    n = ctx["n"]
    dsum = dx.sum(axis=axes, keepdims=True)
    np.multiply(dx, xhat, out=prod)
    np.multiply(xhat, prod.sum(axis=axes, keepdims=True), out=prod)
    dx *= n
    dx -= dsum
    dx -= prod
    dx *= _per_channel(istd, dout.ndim) / n
    return [dx], {"gamma": dgamma, "beta": dbeta}


def _fwd_activation(comp, ins, weights, mode):
    (x,) = ins
    fn = comp.attrs["fn"]
    if fn == "relu":
        out = np.maximum(x, 0)
        return [out], {"mask": x > 0}
    if fn == "tanh":
        out = np.tanh(x)
        return [out], {"out": out}
    return [x], {}


def _bwd_activation(comp, ctx, weights, need, dout):
    fn = comp.attrs["fn"]
    if fn == "relu":
        return [dout * ctx["mask"]], {}
    if fn == "tanh":
        return [dout * (1 - ctx["out"] ** 2)], {}
    return [dout], {}


def _fwd_pool(comp, ins, weights, mode):
    (x,) = ins
    k = comp.attrs["kernel"]
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // k, k, w // k, k)
    if comp.attrs["op"] == "avg":
        return [_window_mean(x, win, k)], {"x_shape": x.shape}
    flat = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return [out], {"arg": arg, "x_shape": x.shape}


def _window_mean(x, win, k):
    """win.mean(axis=(3, 5)), byte for byte, win being x's k x k windows.

    numpy reduces a window one row of k at a time and adds the rows in
    order; the strided adds below do the same without its slow 6-D
    iteration. Two cases keep the reduce, as numpy orders their sums
    otherwise: a row of 8 or more elements is summed pairwise, and a
    window as wide as x is one contiguous run.
    """
    if k >= 8 or x.shape[3] == k:
        return win.mean(axis=(3, 5))

    def row_sum(i):
        row = x[:, :, i::k, ::k].copy()
        for j in range(1, k):
            row += x[:, :, i::k, j::k]
        return row

    out = row_sum(0)
    for i in range(1, k):
        out += row_sum(i)
    out /= k * k
    return out


def _bwd_pool(comp, ctx, weights, need, dout):
    k = comp.attrs["kernel"]
    n, c, h, w = ctx["x_shape"]
    if comp.attrs["op"] == "avg":
        return [np.repeat(np.repeat(dout, k, axis=2), k, axis=3) / (k * k)], {}
    dflat = np.zeros((n, c, h // k, w // k, k * k), dtype=np.float32)
    np.put_along_axis(dflat, ctx["arg"][..., None], dout[..., None], axis=-1)
    dx = (dflat.reshape(n, c, h // k, w // k, k, k)
          .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))
    return [dx], {}


def _fwd_eltwise(comp, ins, weights, mode):
    a, b = ins
    if comp.attrs["op"] == "add":
        return [a + b], {}
    return [a * b], {"a": a, "b": b}


def _bwd_eltwise(comp, ctx, weights, need, dout):
    if comp.attrs["op"] == "add":
        return [dout, dout], {}
    return [dout * ctx["b"], dout * ctx["a"]], {}


def _fwd_concat(comp, ins, weights, mode):
    return [np.concatenate(ins, axis=1)], {"sizes": comp.attrs["sizes"]}


def _bwd_concat(comp, ctx, weights, need, dout):
    return np.split(dout, np.cumsum(ctx["sizes"])[:-1], axis=1), {}


def _fwd_split(comp, ins, weights, mode):
    (x,) = ins
    return np.split(x, np.cumsum(comp.attrs["sizes"])[:-1], axis=1), {}


def _bwd_split(comp, ctx, weights, need, *douts):
    return [np.concatenate(douts, axis=1)], {}


def _fwd_flatten(comp, ins, weights, mode):
    (x,) = ins
    n, c, h, w = x.shape
    return [x.reshape(n, c * h * w)], {"x_shape": x.shape}


def _bwd_flatten(comp, ctx, weights, need, dout):
    return [dout.reshape(ctx["x_shape"])], {}


# ---------------------------------------------------------------------------
# The table


_PASSTHROUGH = dict(in_ports=_span("channels"), out_ports=_span("channels"),
                    shrink=_narrow("channels"))

SPECS: dict[str, KindSpec] = {
    "linear": KindSpec(
        rules=(_need("in_features"), _need("out_features")),
        in_ports=_span("in_features"), out_ports=_span("out_features"),
        shrink=_narrow("in_features", "out_features"),
        forward=_fwd_linear, backward=_bwd_linear,
        roles={"weight": Role(lambda a: (a["out_features"], a["in_features"]), 0, 1),
               "bias": Role(lambda a: (a["out_features"],), 0, None, optional=True)},
        rank=1, out_shape=lambda comp, ins: (comp.attrs["out_features"],),
        macs=lambda a, out_shape, c_in, c_out: c_in * c_out),
    "conv2d": KindSpec(
        rules=(_need("in_channels"), _need("out_channels"), _need("groups"),
               _need("kernel"), _need("stride"),
               _need("padding", lambda x: is_int(x) and x >= 0, "non-negative int"),
               _conv_groups),
        in_ports=_span("in_channels"), out_ports=_span("out_channels"),
        shrink=_shrink_conv, forward=_fwd_conv2d, backward=_bwd_conv2d,
        roles={"weight": Role(lambda a: (a["out_channels"], a["in_channels"] // a["groups"],
                                         a["kernel"], a["kernel"]), 0, 1),
               "bias": Role(lambda a: (a["out_channels"],), 0, None, optional=True)},
        # Removing an input channel of a grouped conv removes the filters
        # of its own group: the same axis-0 rows as the output side.
        tied=lambda a: a["groups"] > 1,
        block=lambda a: _conv_block(a) if a["groups"] > 1 else 1,
        rank=3, out_shape=_conv_shape, macs=_conv_macs),
    "batchnorm": KindSpec(
        rules=(_need("num_features"),
               _need("eps", lambda x: _is_real(x) and x > 0, "positive number",
                     optional=True),
               _need("momentum", lambda x: _is_real(x) and 0 <= x <= 1,
                     "number in [0, 1]", optional=True)),
        in_ports=_span("num_features"), out_ports=_span("num_features"),
        shrink=_narrow("num_features"),
        forward=_fwd_batchnorm, backward=_bwd_batchnorm,
        roles={role: Role(lambda a: (a["num_features"],), 0, 0) for role in
               ("gamma", "beta") + BUFFER_ROLES}),
    "activation": KindSpec(
        rules=(_need("channels"),
               _one_of("fn", ("relu", "tanh", "identity"), "activation")),
        forward=_fwd_activation, backward=_bwd_activation, **_PASSTHROUGH),
    "pool": KindSpec(
        rules=(_need("channels"), _need("kernel"),
               _one_of("op", ("avg", "max"), "pool op")),
        forward=_fwd_pool, backward=_bwd_pool, rank=3, out_shape=_pool_shape,
        **_PASSTHROUGH),
    "eltwise": KindSpec(
        rules=(_need("channels"), _one_of("op", ("add", "mul"), "eltwise op")),
        in_ports=lambda a: [(0, a["channels"])] * 2, out_ports=_span("channels"),
        shrink=_narrow("channels"), forward=_fwd_eltwise, backward=_bwd_eltwise),
    "concat": KindSpec(
        rules=(_sizes,), in_ports=_runs, out_ports=lambda a: [(0, sum(a["sizes"]))],
        shrink=_shrink_sizes, forward=_fwd_concat, backward=_bwd_concat,
        windows=_runs,
        out_shape=lambda comp, ins: (sum(s[0] for s in ins),) + ins[0][1:]),
    "split": KindSpec(
        rules=(_sizes,), in_ports=lambda a: [(0, sum(a["sizes"]))], out_ports=_runs,
        shrink=_shrink_sizes, forward=_fwd_split, backward=_bwd_split,
        windows=_runs),
    "flatten": KindSpec(
        rules=(_need("channels"), _need("spatial_size")),
        in_ports=_span("channels"),
        out_ports=lambda a: [(0, a["channels"] * a["spatial_size"])],
        shrink=_narrow("channels"), forward=_fwd_flatten, backward=_bwd_flatten,
        rank=3, out_shape=_flatten_shape),
}

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
port plus a backward context; backward takes one gradient per output port
and returns one per input port plus {role: parameter gradient}. Arrays are
float32, NCHW for images and (N, F) after flatten. Split returns the
np.split views of its port windows.

A convolution is three batched matmuls over the (N, G, C/G*k*k, OH*OW)
patch array that _im2col builds: the output is weight @ patches, the patch
gradient is weight^T @ output gradient (gathered back into the input by
_col2im), and the weight gradient is output gradient @ patches^T summed
over the batch. One code path serves every kernel, stride, padding and
group count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import PruneError, ShapeError

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
    backward: Callable          # (comp, ctx, weights, *douts) -> (dins, grads)
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
        if inr != outr:
            raise PruneError(f"{comp.comp_id}: grouped conv halves "
                             "pruned inconsistently")
        block = _conv_block(comp.attrs)
        if len(outr) % block:
            raise PruneError(f"{comp.comp_id}: removal not aligned to "
                             f"channel groups of {block}")
        a["groups"] -= len(outr) // block
    return a


def _shrink_sizes(comp, inr, outr):
    """Each port window loses the removed indices inside it; none may end
    up empty."""
    a = dict(comp.attrs)
    a["sizes"] = [size - sum(1 for i in inr if lo <= i < lo + size)
                  for lo, size in _runs(a)]
    if any(s <= 0 for s in a["sizes"]):
        raise PruneError(f"{comp.comp_id}: pruning empties a "
                         f"{comp.kind} port")
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
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"{comp.comp_id}: expected (N, {w.shape[1]}) input, "
                         f"got {x.shape}")
    out = x @ w.T
    if "bias" in comp.params:
        out = out + weights[comp.params["bias"]]
    return [out], {"x": x}


def _bwd_linear(comp, ctx, weights, dout):
    w = weights[comp.params["weight"]]
    x = ctx["x"]
    dparams = {"weight": dout.T @ x}
    if "bias" in comp.params:
        dparams["bias"] = dout.sum(axis=0)
    return [dout @ w], dparams


def _conv_geometry(comp, x):
    a = comp.attrs
    k, s, p = a["kernel"], a["stride"], a["padding"]
    n, c, h, w = x.shape
    if c != a["in_channels"]:
        raise ShapeError(f"{comp.comp_id}: expected {a['in_channels']} input "
                         f"channels, got {c}")
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"{comp.comp_id}: kernel {k} too large for input "
                         f"{h}x{w} with padding {p}")
    return k, s, p, oh, ow


def _im2col(x, k, s, p, oh, ow):
    """Patches of x as an (N, C, k, k, OH, OW) array: cols[n, c, i, j, a, b]
    is the zero-padded input at row i + s*a, column j + s*b. Viewed as
    (N, G, C/G*k*k, OH*OW) it is the right operand of the forward matmul,
    w (G, OC/G, C/G*k*k) @ cols, and, transposed, of the weight gradient's,
    dout @ cols^T summed over N.

    Two passes over a zero-filled padded copy of x: k column-shift copies
    fill an (N, C, k, H+2p, OW) row buffer, then k row-shift copies fill
    cols, so each copy runs over whole rows (over OH*OW at stride 1), not
    k*k copies over OW alone.
    """
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float32)
    xp[:, :, p:p + h, p:p + w] = x
    rows = np.empty((n, c, k, h + 2 * p, ow), dtype=np.float32)
    for j in range(k):
        rows[:, :, j] = xp[:, :, :, j:j + s * ow:s]
    cols = np.empty((n, c, k, k, oh, ow), dtype=np.float32)
    for i in range(k):
        cols[:, :, i] = rows[:, :, :, i:i + s * oh:s]
    return cols


def _col2im(dcols, x_shape, k, s, p, oh, ow):
    """Gradient of x from the gradient of its patches, the reverse of
    _im2col. dcols has _im2col's (N, C, k, k, OH, OW) layout and is the
    backward matmul w^T @ dout. k row-shift adds gather it into an
    (N, C, k, H+2p, OW) row buffer, k column-shift adds gather that into
    the zero-filled padded input, and the padding is cut off."""
    n, c, h, w = x_shape
    drows = np.zeros((n, c, k, h + 2 * p, ow), dtype=np.float32)
    for i in range(k):
        drows[:, :, :, i:i + s * oh:s] += dcols[:, :, i]
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float32)
    for j in range(k):
        dxp[:, :, :, j:j + s * ow:s] += drows[:, :, j]
    return dxp[:, :, p:p + h, p:p + w]


def _fwd_conv2d(comp, ins, weights, mode):
    (x,) = ins
    if x.ndim != 4:
        raise ShapeError(f"{comp.comp_id}: conv2d expects NCHW input, got {x.shape}")
    a = comp.attrs
    k, s, p, oh, ow = _conv_geometry(comp, x)
    g = a["groups"]
    cg, ocg = a["in_channels"] // g, a["out_channels"] // g
    n = x.shape[0]
    cols = _im2col(x, k, s, p, oh, ow)                      # (N,C,k,k,OH,OW)
    cols_g = cols.reshape(n, g, cg * k * k, oh * ow)
    w = weights[comp.params["weight"]].reshape(g, ocg, cg * k * k)
    out = np.matmul(w, cols_g).reshape(n, a["out_channels"], oh, ow)
    if "bias" in comp.params:
        out = out + weights[comp.params["bias"]].reshape(1, -1, 1, 1)
    return [out], {"cols_g": cols_g, "x_shape": x.shape, "geom": (k, s, p, oh, ow)}


def _bwd_conv2d(comp, ctx, weights, dout):
    a = comp.attrs
    g = a["groups"]
    cg, ocg = a["in_channels"] // g, a["out_channels"] // g
    k, s, p, oh, ow = ctx["geom"]
    n = dout.shape[0]
    dout_g = dout.reshape(n, g, ocg, oh * ow)
    cols_g = ctx["cols_g"]
    w = weights[comp.params["weight"]].reshape(g, ocg, cg * k * k)
    dw = np.matmul(dout_g, cols_g.swapaxes(-1, -2)).sum(axis=0)
    dparams = {"weight": dw.reshape(a["out_channels"], cg, k, k)}
    if "bias" in comp.params:
        dparams["bias"] = dout.sum(axis=(0, 2, 3))
    dcols = np.matmul(w.swapaxes(-1, -2), dout_g)
    dx = _col2im(dcols.reshape(n, a["in_channels"], k, k, oh, ow),
                 ctx["x_shape"], k, s, p, oh, ow)
    return [dx], dparams


def _fwd_batchnorm(comp, ins, weights, mode):
    (x,) = ins
    a = comp.attrs
    c = a["num_features"]
    if x.shape[1] != c:
        raise ShapeError(f"{comp.comp_id}: expected {c} channels, got {x.shape[1]}")
    eps = a.get("eps", 1e-5)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    gamma = weights[comp.params["gamma"]]
    beta = weights[comp.params["beta"]]
    if mode == "train":
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        n_stat = x.size // c
        mom = a.get("momentum", 0.1)
        rm, rv = comp.params["running_mean"], comp.params["running_var"]
        unbiased = var * n_stat / max(n_stat - 1, 1)
        weights[rm] = ((1 - mom) * weights[rm] + mom * mu).astype(np.float32)
        weights[rv] = ((1 - mom) * weights[rv] + mom * unbiased).astype(np.float32)
    else:
        mu = weights[comp.params["running_mean"]]
        var = weights[comp.params["running_var"]]
    istd = 1.0 / np.sqrt(var + eps)
    xhat = (x - _per_channel(mu, x.ndim)) * _per_channel(istd, x.ndim)
    out = xhat * _per_channel(gamma, x.ndim) + _per_channel(beta, x.ndim)
    return [out.astype(np.float32)], {"xhat": xhat, "istd": istd, "axes": axes,
                                      "mode": mode, "n": x.size // c}


def _bwd_batchnorm(comp, ctx, weights, dout):
    gamma = weights[comp.params["gamma"]]
    xhat, istd, axes = ctx["xhat"], ctx["istd"], ctx["axes"]
    dgamma = (dout * xhat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    dxhat = dout * _per_channel(gamma, dout.ndim)
    if ctx["mode"] == "train":
        n = ctx["n"]
        term = (n * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
        dx = _per_channel(istd, dout.ndim) / n * term
    else:
        dx = dxhat * _per_channel(istd, dout.ndim)
    return [dx.astype(np.float32)], {"gamma": dgamma, "beta": dbeta}


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


def _bwd_activation(comp, ctx, weights, dout):
    fn = comp.attrs["fn"]
    if fn == "relu":
        return [dout * ctx["mask"]], {}
    if fn == "tanh":
        return [dout * (1 - ctx["out"] ** 2)], {}
    return [dout], {}


def _fwd_pool(comp, ins, weights, mode):
    (x,) = ins
    k = comp.attrs["kernel"]
    if x.ndim != 4:
        raise ShapeError(f"{comp.comp_id}: pool expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"{comp.comp_id}: spatial {h}x{w} not divisible by "
                         f"kernel {k}")
    win = x.reshape(n, c, h // k, k, w // k, k)
    if comp.attrs["op"] == "avg":
        return [win.mean(axis=(3, 5))], {"x_shape": x.shape}
    flat = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // k, w // k, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return [out], {"arg": arg, "x_shape": x.shape}


def _bwd_pool(comp, ctx, weights, dout):
    k = comp.attrs["kernel"]
    n, c, h, w = ctx["x_shape"]
    if comp.attrs["op"] == "avg":
        dx = np.repeat(np.repeat(dout, k, axis=2), k, axis=3) / (k * k)
        return [dx.astype(np.float32)], {}
    dflat = np.zeros((n, c, h // k, w // k, k * k), dtype=np.float32)
    np.put_along_axis(dflat, ctx["arg"][..., None], dout[..., None], axis=-1)
    dx = (dflat.reshape(n, c, h // k, w // k, k, k)
          .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w))
    return [dx], {}


def _fwd_eltwise(comp, ins, weights, mode):
    a, b = ins
    if a.shape != b.shape:
        raise ShapeError(f"{comp.comp_id}: operand shapes differ: "
                         f"{a.shape} vs {b.shape}")
    if comp.attrs["op"] == "add":
        return [a + b], {}
    return [a * b], {"a": a, "b": b}


def _bwd_eltwise(comp, ctx, weights, dout):
    if comp.attrs["op"] == "add":
        return [dout, dout], {}
    return [dout * ctx["b"], dout * ctx["a"]], {}


def _fwd_concat(comp, ins, weights, mode):
    sizes = comp.attrs["sizes"]
    for i, (arr, want) in enumerate(zip(ins, sizes)):
        if arr.shape[1] != want:
            raise ShapeError(f"{comp.comp_id}: port {i} expected {want} "
                             f"channels, got {arr.shape[1]}")
    return [np.concatenate(ins, axis=1)], {"sizes": sizes}


def _bwd_concat(comp, ctx, weights, dout):
    return np.split(dout, np.cumsum(ctx["sizes"])[:-1], axis=1), {}


def _fwd_split(comp, ins, weights, mode):
    (x,) = ins
    sizes = comp.attrs["sizes"]
    if x.shape[1] != sum(sizes):
        raise ShapeError(f"{comp.comp_id}: expected {sum(sizes)} "
                         f"channels, got {x.shape[1]}")
    return np.split(x, np.cumsum(sizes)[:-1], axis=1), {}


def _bwd_split(comp, ctx, weights, *douts):
    return [np.concatenate(douts, axis=1)], {}


def _fwd_flatten(comp, ins, weights, mode):
    (x,) = ins
    a = comp.attrs
    if x.ndim != 4:
        raise ShapeError(f"{comp.comp_id}: flatten expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if c != a["channels"] or h * w != a["spatial_size"]:
        raise ShapeError(f"{comp.comp_id}: declared {a['channels']} channels x "
                         f"{a['spatial_size']} spatial, got {c} x {h * w}")
    return [x.reshape(n, c * h * w)], {"x_shape": x.shape}


def _bwd_flatten(comp, ctx, weights, dout):
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

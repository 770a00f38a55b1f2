"""Dense-tensor execution for NetworkIR: forward pass, reverse-mode
gradients, and MAC counting.

Everything is float32 numpy, NCHW layout for image-domain tensors and
(N, F) after flatten. A convolution is three batched matmuls over the
(N, G, C/G*k*k, OH*OW) patch array that _im2col builds: the output is
weight @ patches, the patch gradient is weight^T @ output gradient
(gathered back into the input by _col2im), and the weight gradient is
output gradient @ patches^T summed over the batch. One code path serves
every kernel, stride, padding and group count.

Values are keyed per output port, (component id, port), and each input
port reads the one value that `NetworkIR.feed` names. A kernel maps its
input-port values to a list of output-port values, and its backward takes
one gradient per output port and returns one per input port. Every kind has
one output port except split, which returns the `np.split` views of its
port windows and concatenates their gradients on the way back.
"""

from __future__ import annotations

import numpy as np

from . import ir as _ir
from .errors import ShapeError


class Tape:
    """Backward-pass record of one train-mode forward. Single use."""

    def __init__(self, ir, records, out_id):
        self.ir = ir
        self.records = records      # list of (comp, ctx)
        self.out_id = out_id
        self.consumed = False


def forward(ir, x, mode: str = "eval"):
    """Run the network on a batch.

    Inputs:
    - ir: validated NetworkIR
    - x: array of shape (N, *ir.input_shape)
    - mode: "eval" uses batchnorm running statistics; "train" uses batch
      statistics, updates the running ones, and also returns a Tape.

    Returns the output batch, or (output, tape) in train mode.
    """
    x = np.asarray(x, dtype=np.float32)
    if tuple(x.shape[1:]) != ir.input_shape:
        raise ShapeError(f"input shape {tuple(x.shape[1:])} does not match "
                         f"declared {ir.input_shape}")
    if not np.isfinite(x).all():
        raise ShapeError("non-finite values in network input")

    values = {}
    records = []
    for comp in ir.topo_order():
        feeds = [ir.feed(comp.comp_id, p) for p in range(_ir.num_input_ports(comp))]
        ins = [x if e is None else values[e.src, e.src_port] for e in feeds]
        outs, ctx = _FORWARD[comp.kind](comp, ins, ir.weights, mode)
        for port, out in enumerate(outs):
            values[comp.comp_id, port] = out
        if mode == "train":   # only backward reads a context
            records.append((comp, ctx))
    out_id = ir.exit_component().comp_id
    y = values[out_id, 0]
    if mode == "train":
        return y, Tape(ir, records, out_id)
    return y


def backward(tape: Tape, dout: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every trainable parameter.

    dout is the loss gradient at the network output. The tape is consumed;
    a second call on the same tape raises.
    """
    if tape.consumed:
        raise ShapeError("tape already consumed by a previous backward pass")
    tape.consumed = True
    ir = tape.ir

    dvalues = {(tape.out_id, 0): np.asarray(dout, dtype=np.float32)}
    grads: dict[str, np.ndarray] = {}
    for comp, ctx in reversed(tape.records):
        douts = [dvalues.pop((comp.comp_id, p))
                 for p in range(_ir.num_output_ports(comp))]
        dins, dparams = _BACKWARD[comp.kind](comp, ctx, ir.weights, *douts)
        for role, g in dparams.items():
            name = comp.params[role]
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
        for port, din in enumerate(dins):
            e = ir.feed(comp.comp_id, port)
            if e is None:
                continue
            key = (e.src, e.src_port)
            dvalues[key] = dvalues[key] + din if key in dvalues else din
    return grads


# ---------------------------------------------------------------------------
# Per-kind forward/backward


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


_FORWARD = {
    "linear": _fwd_linear,
    "conv2d": _fwd_conv2d,
    "batchnorm": _fwd_batchnorm,
    "activation": _fwd_activation,
    "pool": _fwd_pool,
    "eltwise": _fwd_eltwise,
    "concat": _fwd_concat,
    "split": _fwd_split,
    "flatten": _fwd_flatten,
}

_BACKWARD = {
    "linear": _bwd_linear,
    "conv2d": _bwd_conv2d,
    "batchnorm": _bwd_batchnorm,
    "activation": _bwd_activation,
    "pool": _bwd_pool,
    "eltwise": _bwd_eltwise,
    "concat": _bwd_concat,
    "split": _bwd_split,
    "flatten": _bwd_flatten,
}


# ---------------------------------------------------------------------------
# Shape inference and MAC counting


def infer_shapes(ir):
    """Per-sample output shape of every component; a split's is the shape
    of its whole input.

    Raises ShapeError naming the first component, in topological order,
    whose inputs do not fit it: a rank it cannot take, operands that
    differ beyond the channel axis, or a spatial size that does not work
    out.
    """
    shapes: dict[str, tuple] = {}

    def port_shape(e):
        if e is None:
            return ir.input_shape
        src = ir.component(e.src)
        return (_ir.output_port_channels(src, e.src_port),) + shapes[e.src][1:]

    for comp in ir.topo_order():
        cid, a = comp.comp_id, comp.attrs
        ins = [port_shape(ir.feed(cid, p))
               for p in range(_ir.num_input_ports(comp))]
        rank = _INPUT_RANK.get(comp.kind)
        if rank is not None and len(ins[0]) != rank:
            raise ShapeError(f"{cid}: {comp.kind} expects a rank-{rank} input "
                             f"per sample, got {ins[0]}")
        if len({s[1:] for s in ins}) > 1:
            raise ShapeError(f"{cid}: operand shapes differ beyond the "
                             f"channel axis: {ins}")
        if comp.kind == "linear":
            shapes[cid] = (a["out_features"],)
        elif comp.kind == "conv2d":
            k, s, p = a["kernel"], a["stride"], a["padding"]
            _, h, w = ins[0]
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            if oh <= 0 or ow <= 0:
                raise ShapeError(f"{cid}: non-positive output size")
            shapes[cid] = (a["out_channels"], oh, ow)
        elif comp.kind == "pool":
            c, h, w = ins[0]
            k = a["kernel"]
            if h % k or w % k:
                raise ShapeError(f"{cid}: spatial {h}x{w} not "
                                 f"divisible by kernel {k}")
            shapes[cid] = (c, h // k, w // k)
        elif comp.kind == "flatten":
            c, h, w = ins[0]
            if h * w != a["spatial_size"]:
                raise ShapeError(f"{cid}: spatial_size {a['spatial_size']} "
                                 f"!= actual {h * w}")
            shapes[cid] = (c * h * w,)
        elif comp.kind == "concat":
            shapes[cid] = (sum(s[0] for s in ins),) + ins[0][1:]
        else:
            shapes[cid] = ins[0]
    return shapes


# Per-sample input rank of the kinds that take only one; the rest take
# (C,) as well as (C, H, W).
_INPUT_RANK = {"linear": 1, "conv2d": 3, "pool": 3, "flatten": 3}


def component_macs(comp, out_shape, c_in: int, c_out: int) -> int:
    """Multiply-accumulate count of one sample through one component with
    c_in input and c_out output channels: c_in*c_out for linear,
    (C_in/G)*c_out*k^2*OH*OW for conv, 0 for every other kind.

    out_shape is the component's inferred output shape; only its spatial
    extent is read, so it may come from the unpruned network. A grouped
    conv keeps its per-group input width when whole groups are pruned.
    """
    if comp.kind == "linear":
        return c_in * c_out
    if comp.kind == "conv2d":
        _, oh, ow = out_shape
        cg = c_in if comp.attrs["groups"] == 1 else _ir.conv_block_size(comp)
        return cg * c_out * comp.attrs["kernel"] ** 2 * oh * ow
    return 0


def count_macs(ir) -> int:
    """Multiply-accumulate count of one sample, summed over components
    (see component_macs)."""
    shapes = infer_shapes(ir)
    return sum(component_macs(comp, shapes[comp.comp_id],
                              _ir.in_channels(comp), _ir.out_channels(comp))
               for comp in ir.components)


# ---------------------------------------------------------------------------
# Loss and optimizer


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch.

    Returns (loss, dlogits) with dlogits already scaled by 1/N so it can
    be fed straight to backward().
    """
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, (dlogits / n).astype(np.float32)


def accuracy(logits, labels) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def trainable_param_names(ir) -> list[str]:
    names = []
    for comp in ir.components:
        for role in sorted(comp.params):
            if role not in _ir.BUFFER_ROLES:
                names.append(comp.params[role])
    return names


def sgd_step(ir, grads, state, lr: float, momentum: float = 0.9) -> None:
    """SGD with momentum, in place on the IR's weight arrays and on the
    momentum buffers in state.

    A caller that keeps a weight array across a step sees it change, so
    snapshot with .copy(). A weight that is not a writable float32 array
    is replaced by a new float32 array holding the same update.
    """
    for name, g in grads.items():
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(g)
        v *= momentum
        v += g
        w = ir.weights[name]
        if w.dtype == np.float32 and w.flags.writeable:
            w -= lr * v
        else:
            ir.weights[name] = (w - lr * v).astype(np.float32)

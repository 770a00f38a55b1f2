"""Dense-tensor execution for NetworkIR: forward pass, reverse-mode
gradients, and MAC counting.

The per-kind kernels live in kinds.SPECS; this module runs them in
topological order. Values are keyed per output port, (component id, port),
and each input port reads the one value that `NetworkIR.feed` names. A
value is dropped once its last reader has run (`NetworkIR.released_by`),
so a forward holds only the values still to be read, plus whatever a
train-mode backward context keeps. A backward kernel is told which of its
input ports need a gradient (`NetworkIR.needs_grad`): a port the network
input feeds gets none, so no kernel computes a gradient nothing reads.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .ir import infer_shapes
from .kinds import SPECS

_CHUNK = 1 << 16   # elements per block of an in-place update (256 KiB float32)


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
        cid = comp.comp_id
        feeds = [ir.feed(cid, p) for p in range(len(ir.ports(cid).ins))]
        ins = [x if e is None else values[e.src, e.src_port] for e in feeds]
        outs, ctx = SPECS[comp.kind].forward(comp, ins, ir.weights, mode)
        for key in ir.released_by(cid):
            del values[key]
        for port, out in enumerate(outs):
            values[cid, port] = out
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
                 for p in range(len(ir.ports(comp.comp_id).outs))]
        need = ir.needs_grad(comp.comp_id)
        dins, dparams = SPECS[comp.kind].backward(comp, ctx, ir.weights, need,
                                                  *douts)
        for role, g in dparams.items():
            grads[comp.params[role]] = g
        for port, din in enumerate(dins):
            if not need[port]:
                continue
            e = ir.feed(comp.comp_id, port)
            key = (e.src, e.src_port)
            dvalues[key] = dvalues[key] + din if key in dvalues else din
    return grads


# ---------------------------------------------------------------------------
# MAC counting


def component_macs(comp, out_shape, c_in: int, c_out: int) -> int:
    """Multiply-accumulate count of one sample through one component with
    c_in input and c_out output channels, by its kind's MAC formula.

    out_shape is the component's inferred output shape; only its spatial
    extent is read, so it may come from the unpruned network.
    """
    return SPECS[comp.kind].macs(comp.attrs, out_shape, c_in, c_out)


def count_macs(ir) -> int:
    """Multiply-accumulate count of one sample, summed over components
    (see component_macs)."""
    shapes = infer_shapes(ir)
    halves = ir.halves()
    return sum(component_macs(comp, shapes[comp.comp_id], halves[2 * i].channels,
                              halves[2 * i + 1].channels)
               for i, comp in enumerate(ir.components))


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


def sgd_step(ir, grads, state, lr: float, momentum: float) -> None:
    """SGD with momentum, in place on the IR's weight arrays and on the
    momentum buffers in state.

    A caller that keeps a weight array across a step sees it change, so
    snapshot with .copy().

    v *= momentum; v += g; w -= lr * v runs block by block along axis 0,
    so lr * v fills one block-sized temporary, not a full-size one.
    """
    for name, g in grads.items():
        v = state.get(name)
        if v is None:
            v = state[name] = np.zeros_like(g)
        w = ir.weights[name]
        rows = max(1, _CHUNK * len(w) // w.size)
        step = np.empty_like(v[:rows])
        for lo in range(0, len(w), rows):
            vb = v[lo:lo + rows]
            vb *= momentum
            vb += g[lo:lo + rows]
            w[lo:lo + rows] -= np.multiply(lr, vb, out=step[:len(vb)])

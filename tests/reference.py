"""Independent reference implementations used as test oracles.

Two evaluators, both pure (no running-stat updates) and float64:

* scalar_forward: loop-by-loop scalar evaluation, as close to the math on
  paper as python allows; slow, for small nets only.
* ref_forward: vectorized float64 evaluation built on scipy's correlate2d
  for convolutions; fast enough to finite-difference.

Neither shares code with grouprune.engine.

The graph oracles check grouping, and reference_learned_plan is the
learned prune plan as a full recount of kept widths and MACs after every
accepted unit, with its own MAC formula. reference_relative_score and
reference_select_prune_indices order indices with a sorted() key and check
port windows as sets.

The group-index oracles walk a group one canonical index at a time
through transform_locals, the literal definition of an index transform:
importance as a sum over a set of (tensor, axis, local index) slices, and
the regularizer coefficient as a per-index loop in float64, rounded once to
float32 for the gradient. They share no code with IndexTransform.canonical
or Group.slices.

reference_sgd_step is the momentum step written out of place, one new
array per momentum buffer and per weight.

scalar_conv2d_input_grad is the input gradient of a convolution as the
literal transpose of _scalar_conv2d: each output gradient entry scattered
back onto the padded input it read, in float64.

reference_batchnorm_forward and reference_batchnorm_backward are the
batchnorm kernels written out of place, one new float32 array per step,
followed by a float32 copy; the in-place kernels must match their bytes.

reference_run_cell is one ablation cell as the pipeline ran it before
ablate.run_ablation shared trained models: it builds and sparse-trains a
fresh model for the cell, then prunes, fine-tunes and scores it. Its
uniform cells take their ratio from reference_uniform_ratio_for_speedup,
a continuous bisection that prunes and counts every probe.

regularizer_value is the regularizer's scalar value, the target that
finite differences check regularizer_grad against, and near_zero_fraction
counts the near-zero indices of a trace epoch. Nothing in the package
calls either.

reference_histogram is the fixed-width histogram the sparsity histogram
was binned with, one value at a time in Python floats; the package's
vectorized binning must give the same counts.

read_csv parses the CSV files the package writes, and
trainable_param_names lists the tensors SGD trains.
"""

from __future__ import annotations

import pathlib

import numpy as np
from scipy.signal import correlate2d

BUFFER_ROLES = ("running_mean", "running_var")   # not trained by SGD


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file the package wrote."""
    text = pathlib.Path(path).read_text()
    lines = [ln for ln in text.split("\n") if ln != ""]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def trainable_param_names(ir) -> list[str]:
    """Every parameter tensor except batchnorm running statistics, in
    component order and role order within a component."""
    return [comp.params[role] for comp in ir.components
            for role in sorted(comp.params) if role not in BUFFER_ROLES]


def _component_inputs(ir, values, x, comp):
    feeds = {}
    for e in ir.edges:
        feeds[(e.dst, e.dst_port)] = e
    raw = set(ir.input_consumers)
    ports = sorted({p for c, p in list(feeds) + list(raw) if c == comp.comp_id})
    ins = []
    for port in ports:
        if (comp.comp_id, port) in raw:
            ins.append(x)
            continue
        e = feeds[(comp.comp_id, port)]
        val = values[e.src]
        src = ir.component(e.src)
        if src.kind == "split":
            sizes = src.attrs["sizes"]
            lo = sum(sizes[:e.src_port])
            val = val[:, lo:lo + sizes[e.src_port]]
        ins.append(val)
    return ins


# ---------------------------------------------------------------------------
# Scalar loop-by-loop evaluator


def _scalar_linear(comp, x, weights):
    w = weights[comp.params["weight"]]
    b = weights.get(comp.params.get("bias"))
    n, d_in = x.shape
    d_out = w.shape[0]
    out = np.zeros((n, d_out))
    for s in range(n):
        for o in range(d_out):
            acc = 0.0 if b is None else float(b[o])
            for i in range(d_in):
                acc += float(x[s, i]) * float(w[o, i])
            out[s, o] = acc
    return out


def _scalar_conv2d(comp, x, weights):
    a = comp.attrs
    w = weights[comp.params["weight"]]
    b = weights.get(comp.params.get("bias"))
    k, s, p, g = a["kernel"], a["stride"], a["padding"], a["groups"]
    n, c, h, wid = x.shape
    cg = c // g
    ocg = a["out_channels"] // g
    oh = (h + 2 * p - k) // s + 1
    ow = (wid + 2 * p - k) // s + 1
    xp = np.zeros((n, c, h + 2 * p, wid + 2 * p))
    xp[:, :, p:p + h, p:p + wid] = x
    out = np.zeros((n, a["out_channels"], oh, ow))
    for sample in range(n):
        for oc in range(a["out_channels"]):
            grp = oc // ocg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0 if b is None else float(b[oc])
                    for ic in range(cg):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (float(xp[sample, grp * cg + ic,
                                                 i * s + ki, j * s + kj])
                                        * float(w[oc, ic, ki, kj]))
                    out[sample, oc, i, j] = acc
    return out


def scalar_conv2d_input_grad(comp, weights, x_shape, dout) -> np.ndarray:
    """d(sum(out * dout)) / dx of one convolution, by scattering every
    output gradient entry onto the padded input window it was read from."""
    a = comp.attrs
    w = weights[comp.params["weight"]].astype(np.float64)
    k, s, p, g = a["kernel"], a["stride"], a["padding"], a["groups"]
    n, c, h, wid = x_shape
    cg, ocg = c // g, a["out_channels"] // g
    _, _, oh, ow = dout.shape
    dxp = np.zeros((n, c, h + 2 * p, wid + 2 * p))
    for oc in range(a["out_channels"]):
        chans = slice(oc // ocg * cg, oc // ocg * cg + cg)
        for i in range(oh):
            for j in range(ow):
                for ki in range(k):
                    for kj in range(k):
                        dxp[:, chans, i * s + ki, j * s + kj] += (
                            dout[:, oc, i, j, None] * w[oc, :, ki, kj])
    return dxp[:, :, p:p + h, p:p + wid]


def _scalar_batchnorm(comp, x, weights, mode):
    a = comp.attrs
    c = a["num_features"]
    eps = a.get("eps", 1e-5)
    gamma = weights[comp.params["gamma"]]
    beta = weights[comp.params["beta"]]
    out = np.zeros_like(x, dtype=np.float64)
    for ch in range(c):
        sl = x[:, ch] if x.ndim == 2 else x[:, ch, :, :]
        if mode == "train":
            mu = float(sl.mean())
            var = float(((sl - mu) ** 2).mean())
        else:
            mu = float(weights[comp.params["running_mean"]][ch])
            var = float(weights[comp.params["running_var"]][ch])
        norm = (sl - mu) / np.sqrt(var + eps)
        res = norm * float(gamma[ch]) + float(beta[ch])
        if x.ndim == 2:
            out[:, ch] = res
        else:
            out[:, ch, :, :] = res
    return out


def _scalar_pool(comp, x, _weights):
    k = comp.attrs["kernel"]
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // k, w // k))
    for s in range(n):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    win = x[s, ch, i * k:(i + 1) * k, j * k:(j + 1) * k]
                    out[s, ch, i, j] = (win.mean() if comp.attrs["op"] == "avg"
                                        else win.max())
    return out


def scalar_forward(ir, x, mode: str = "eval") -> np.ndarray:
    """Loop-by-loop float64 evaluation; pure, slow, for small nets."""
    x = np.asarray(x, dtype=np.float64)
    values = {}
    for comp in ir.topo_order():
        ins = _component_inputs(ir, values, x, comp)
        k = comp.kind
        if k == "linear":
            out = _scalar_linear(comp, ins[0], ir.weights)
        elif k == "conv2d":
            out = _scalar_conv2d(comp, ins[0], ir.weights)
        elif k == "batchnorm":
            out = _scalar_batchnorm(comp, ins[0], ir.weights, mode)
        elif k == "activation":
            fn = comp.attrs["fn"]
            out = (np.maximum(ins[0], 0) if fn == "relu"
                   else np.tanh(ins[0]) if fn == "tanh" else ins[0])
        elif k == "pool":
            out = _scalar_pool(comp, ins[0], ir.weights)
        elif k == "eltwise":
            out = ins[0] + ins[1] if comp.attrs["op"] == "add" else ins[0] * ins[1]
        elif k == "concat":
            out = np.concatenate(ins, axis=1)
        elif k == "split":
            out = ins[0]
        elif k == "flatten":
            n = ins[0].shape[0]
            out = ins[0].reshape(n, -1)
        else:
            raise AssertionError(k)
        values[comp.comp_id] = out
    return values[ir.exit_component().comp_id]


# ---------------------------------------------------------------------------
# Vectorized float64 reference (scipy convolutions), fast enough to
# finite-difference.


def _ref_conv2d(comp, x, weights):
    a = comp.attrs
    w = weights[comp.params["weight"]].astype(np.float64)
    k, s, p, g = a["kernel"], a["stride"], a["padding"], a["groups"]
    n, c, h, wid = x.shape
    cg = c // g
    ocg = a["out_channels"] // g
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    oh = (h + 2 * p - k) // s + 1
    ow = (wid + 2 * p - k) // s + 1
    out = np.zeros((n, a["out_channels"], oh, ow))
    for sample in range(n):
        for oc in range(a["out_channels"]):
            grp = oc // ocg
            acc = np.zeros((h + 2 * p - k + 1, wid + 2 * p - k + 1))
            for ic in range(cg):
                acc += correlate2d(xp[sample, grp * cg + ic],
                                   w[oc, ic], mode="valid")
            out[sample, oc] = acc[::s, ::s]
    if "bias" in comp.params:
        out += weights[comp.params["bias"]].astype(np.float64).reshape(1, -1, 1, 1)
    return out


def ref_forward(ir, x, mode: str = "eval") -> np.ndarray:
    """Vectorized float64 evaluation; pure (never updates running stats)."""
    x = np.asarray(x, dtype=np.float64)
    values = {}
    for comp in ir.topo_order():
        ins = _component_inputs(ir, values, x, comp)
        k = comp.kind
        a = comp.attrs
        if k == "linear":
            w = ir.weights[comp.params["weight"]].astype(np.float64)
            out = ins[0] @ w.T
            if "bias" in comp.params:
                out = out + ir.weights[comp.params["bias"]].astype(np.float64)
        elif k == "conv2d":
            out = _ref_conv2d(comp, ins[0], ir.weights)
        elif k == "batchnorm":
            xin = ins[0]
            axes = (0,) if xin.ndim == 2 else (0, 2, 3)
            if mode == "train":
                mu = xin.mean(axis=axes)
                var = xin.var(axis=axes)
            else:
                mu = ir.weights[comp.params["running_mean"]].astype(np.float64)
                var = ir.weights[comp.params["running_var"]].astype(np.float64)
            shape = (1, -1) if xin.ndim == 2 else (1, -1, 1, 1)
            xhat = (xin - mu.reshape(shape)) / np.sqrt(var.reshape(shape)
                                                       + a.get("eps", 1e-5))
            out = (xhat * ir.weights[comp.params["gamma"]].astype(np.float64).reshape(shape)
                   + ir.weights[comp.params["beta"]].astype(np.float64).reshape(shape))
        elif k == "activation":
            fn = a["fn"]
            out = (np.maximum(ins[0], 0) if fn == "relu"
                   else np.tanh(ins[0]) if fn == "tanh" else ins[0])
        elif k == "pool":
            kk = a["kernel"]
            n, c, h, wd = ins[0].shape
            win = ins[0].reshape(n, c, h // kk, kk, wd // kk, kk)
            out = win.mean(axis=(3, 5)) if a["op"] == "avg" else win.max(axis=(3, 5))
        elif k == "eltwise":
            out = ins[0] + ins[1] if a["op"] == "add" else ins[0] * ins[1]
        elif k == "concat":
            out = np.concatenate(ins, axis=1)
        elif k == "split":
            out = ins[0]
        elif k == "flatten":
            out = ins[0].reshape(ins[0].shape[0], -1)
        else:
            raise AssertionError(k)
        values[comp.comp_id] = out
    return values[ir.exit_component().comp_id]


def ref_loss(ir, x, labels, mode: str = "train") -> float:
    """Float64 cross-entropy of the reference forward."""
    logits = ref_forward(ir, x, mode)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(labels)), labels].mean())


def as_float64(ir):
    """Copy with float64 weight storage so finite-difference steps are
    exact; the parameter values themselves are unchanged."""
    out = ir.copy()
    out.weights = {k: v.astype(np.float64) for k, v in out.weights.items()}
    return out


def fd_param_grads(ir, x, labels, names=None, h: float = 1e-4,
                   mode: str = "train") -> dict[str, np.ndarray]:
    """Central finite differences of ref_loss w.r.t. every element of the
    named parameters (all trainable ones by default)."""
    names = names if names is not None else trainable_param_names(ir)
    ir = as_float64(ir)
    grads = {}
    for name in names:
        w = ir.weights[name]
        g = np.zeros(w.shape, dtype=np.float64)
        flat = w.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = ref_loss(ir, x, labels, mode)
            flat[i] = orig - h
            down = ref_loss(ir, x, labels, mode)
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def fd_scalar(fn, ir, names=None, h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central finite differences of an arbitrary scalar fn(ir)."""
    names = names if names is not None else trainable_param_names(ir)
    ir = as_float64(ir)
    grads = {}
    for name in names:
        w = ir.weights[name]
        g = np.zeros(w.shape, dtype=np.float64)
        flat = w.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(ir)
            flat[i] = orig - h
            down = fn(ir)
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def rel_err(a, b, floor: float = 1e-6) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def grad_rel_err(analytic, fd, scale_floor: float = 1e-2) -> float:
    """Worst deviation relative to the tensor's gradient scale.

    Per-element relative error is meaningless for entries whose true
    gradient is zero (float32 noise ~1e-6 remains in the analytic value),
    so deviations are measured against the largest gradient magnitude in
    the tensor, floored for all-zero tensors.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    scale = max(float(np.abs(fd).max()), float(np.abs(analytic).max()),
                scale_floor)
    return float(np.abs(analytic - fd).max() / scale)


# ---------------------------------------------------------------------------
# Graph oracles


def boolean_closure(adj: np.ndarray) -> np.ndarray:
    """Transitive closure by repeated boolean matrix product."""
    n = adj.shape[0]
    reach = (adj.astype(bool) | np.eye(n, dtype=bool))
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            return nxt
        reach = nxt


def closure_components(adj: np.ndarray) -> set[frozenset]:
    reach = boolean_closure(adj)
    return {frozenset(np.flatnonzero(reach[i])) for i in range(adj.shape[0])}


def literal_expansion(adj: np.ndarray) -> set[frozenset]:
    """Group expansion exactly as a per-node repeat-until-fixpoint frontier
    loop: start from each node, add every unseen neighbor of the current
    set, repeat until the frontier is empty."""
    n = adj.shape[0]
    out = set()
    for start in range(n):
        g = {start}
        while True:
            unseen = set(range(n)) - g
            frontier = {j for j in unseen if any(adj[k, j] for k in g)}
            if not frontier:
                break
            g |= frontier
        out.add(frozenset(g))
    return out


# ---------------------------------------------------------------------------
# Learned-plan oracle: the greedy global-threshold plan, recounting every
# half's kept width and the whole network's MACs after each accepted unit.


def _virtual_macs(ir, shapes, kept: dict[str, int]) -> int:
    total = 0
    for comp in ir.components:
        a = comp.attrs
        if comp.kind == "linear":
            total += kept[f"{comp.comp_id}:in"] * kept[f"{comp.comp_id}:out"]
        elif comp.kind == "conv2d":
            _, oh, ow = shapes[comp.comp_id]
            if a["groups"] > 1:
                cg = a["out_channels"] // a["groups"]
            else:
                cg = kept[f"{comp.comp_id}:in"]
            total += cg * kept[f"{comp.comp_id}:out"] * a["kernel"] ** 2 * oh * ow
    return total


def reference_port_windows(ir, group) -> list[set[int]]:
    """Per port of each concat/split input half of a group, the canonical
    indices with a local index inside that port."""
    windows = []
    for m in group.members:
        comp = ir.component(m.half.component_id)
        if m.half.side != "in" or comp.kind not in ("concat", "split"):
            continue
        lo = 0
        for size in comp.attrs["sizes"]:
            windows.append({k for k in range(group.width)
                            if any(lo <= local < lo + size for local in
                                   transform_locals(m.transform, k,
                                                    m.half.channels))})
            lo += size
    return windows


def reference_learned_plan(ir, groups, scores, macs_fraction: float):
    """Same contract as pruning.build_learned_plan, in O(units x halves),
    over the prunable groups, each scored by scores[group id]: a unit is
    skipped when it breaks min_keep or when the group's selection with it
    would cover a whole concat/split port window."""
    from grouprune.engine import infer_shapes
    from grouprune.pruning import (PlanEntry, PrunePlan, min_keep_for,
                                   prunable_groups)

    if not (0 < macs_fraction <= 1):
        raise ValueError("macs_fraction must be in (0, 1]")
    shapes = infer_shapes(ir)
    eligible = prunable_groups(ir, groups)

    selected: dict[str, set[int]] = {g.group_id: set() for g in eligible}
    half_to_member = {}
    for g in groups:
        for m in g.members:
            half_to_member[m.half.node_id] = (g, m)

    def kept_channels() -> dict[str, int]:
        out = {}
        for h in ir.halves():
            g, m = half_to_member[h.node_id]
            removed = sum(len(transform_locals(m.transform, k, h.channels))
                          for k in selected.get(g.group_id, ()))
            out[h.node_id] = h.channels - removed
        return out

    base = _virtual_macs(ir, shapes, kept_channels())
    target = macs_fraction * base

    candidates = []
    for g in eligible:
        for u in g.units:
            avg = float(sum(scores[g.group_id][i] for i in u)) / len(u)
            candidates.append((avg, g.group_id, u))
    candidates.sort(key=lambda t: (t[0], t[1], t[2][0]))

    by_id = {g.group_id: g for g in eligible}
    current = base
    for _avg, gid, unit in candidates:
        if current <= target:
            break
        group = by_id[gid]
        if group.width - len(selected[gid]) - len(unit) < min_keep_for(ir, group):
            continue
        if any(w <= selected[gid] | set(unit)
               for w in reference_port_windows(ir, group)):
            continue
        selected[gid].update(unit)
        current = _virtual_macs(ir, shapes, kept_channels())
    plan = PrunePlan(provenance={"mode": "learned",
                                 "macs_fraction": macs_fraction})
    for g in eligible:
        plan.entries.append(PlanEntry(g.group_id, g.fingerprint,
                                      tuple(sorted(selected[g.group_id]))))
    return plan


def reference_relative_score(values: np.ndarray, n: int) -> np.ndarray:
    """importance.relative_score with the TopN cut taken by a sorted() key:
    descending value, ties toward the lower index."""
    k = len(values)
    order = sorted(range(k), key=lambda i: (-values[i], i))
    top_mass = float(values[order[:n]].sum())
    if top_mass == 0.0:
        return np.zeros(k, dtype=np.float64)
    return n * values / top_mass


def reference_select_prune_indices(scores, ratio: float, min_keep: int,
                                   units, windows) -> tuple[int, ...]:
    """importance.select_prune_indices with units ordered by a sorted() key
    (summed score, first index), skipping a unit when the selection with it
    would cover a whole window."""
    scores = np.asarray(scores, dtype=np.float64)
    k = len(scores)
    unit_score = [(float(sum(scores[i] for i in u)), u[0], u) for u in units]
    unit_score.sort(key=lambda t: (t[0], t[1]))
    budget = int(ratio * k)
    chosen: set[int] = set()
    for _, _, u in unit_score:
        n = len(chosen) + len(u)
        if n > budget or k - n < min_keep:
            break
        if not any(set(w) <= chosen | set(u) for w in windows):
            chosen.update(u)
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# Group-index oracles: one canonical index at a time.


def transform_locals(t, k: int, channels: int) -> tuple[int, ...]:
    """Local indices of a member that canonical index k maps to: the
    factor indices [(k - delta) * factor, (k - delta + 1) * factor) when
    delta <= k < delta + channels // factor, none otherwise."""
    if not (t.delta <= k < t.delta + channels // t.factor):
        return ()
    base = (k - t.delta) * t.factor
    return tuple(range(base, base + t.factor))


def _keep(comp, scope, seed_component) -> bool:
    return (scope == "full" or (scope == "conv" and comp.kind == "conv2d")
            or (scope == "seed" and comp.comp_id == seed_component))


def reference_scope(ir, group, strategy: str) -> tuple[str, str | None]:
    """The (scope, seed component) _keep reads for a strategy's members:
    conv2d ones under conv-only; under no-grouping the layer with a weight
    whose half comes first in canonical order, or every member when none
    has a weight; every member otherwise."""
    if strategy == "conv-only":
        return "conv", None
    if strategy == "no-grouping":
        for m in sorted(group.members, key=lambda m: m.half_index):
            if "weight" in ir.component(m.half.component_id).params:
                return "seed", m.half.component_id
    return "full", None


def reference_group_l2_importance(ir, group, scope: str = "full",
                                  seed_component: str | None = None) -> np.ndarray:
    """Per canonical index k, the squared norms of the set of distinct
    (tensor, axis, local index) slices that pruning k removes."""
    hits: list[set] = [set() for _ in range(group.width)]
    for m in group.members:
        comp = ir.component(m.half.component_id)
        if not _keep(comp, scope, seed_component):
            continue
        for role, axis in m.half.scheme:
            name = comp.params[role]
            for k in range(group.width):
                for local in transform_locals(m.transform, k, m.half.channels):
                    hits[k].add((name, axis, local))
    values = np.zeros(group.width, dtype=np.float64)
    for k in range(group.width):
        for name, axis, local in hits[k]:
            piece = np.take(ir.weights[name], local, axis=axis)
            values[k] += float((piece.astype(np.float64) ** 2).sum())
    return values


def reference_regularizer_coefficients(ir, groups, gammas, reg_weight: float,
                                       scope: str = "full") -> dict[str, np.ndarray]:
    """Float64 coefficient of every trainable tensor in scope, shaped like
    the tensor: 2 * reg_weight * sum_k gamma_k over every slice that holds
    the element, built one canonical index at a time. Per axis, gamma_k is
    summed over the slices on that axis; the axes' terms are then added in
    ascending axis order."""
    if reg_weight == 0:
        return {}
    per_axis: dict[str, dict[int, np.ndarray]] = {}
    for group in groups:
        gamma = gammas[group.group_id]
        seen = set()
        for m in group.members:
            comp = ir.component(m.half.component_id)
            if scope == "conv" and comp.kind != "conv2d":
                continue
            for role, axis in m.half.scheme:
                if role in BUFFER_ROLES:
                    continue
                name = comp.params[role]
                if (name, axis, m.transform) in seen:
                    continue   # both halves of batchnorm / grouped conv
                seen.add((name, axis, m.transform))
                size = ir.weights[name].shape[axis]
                total = per_axis.setdefault(name, {}).setdefault(
                    axis, np.zeros(size, dtype=np.float64))
                for k in range(group.width):
                    for local in transform_locals(m.transform, k,
                                                  m.half.channels):
                        total[local] += gamma[k]
    coeffs = {}
    for name, axes in per_axis.items():
        w = ir.weights[name]
        c = np.zeros(w.shape, dtype=np.float64)
        for axis in sorted(axes):
            shape = [1] * w.ndim
            shape[axis] = -1
            c = c + 2.0 * reg_weight * axes[axis].reshape(shape)
        coeffs[name] = c
    return coeffs


def reference_regularizer_grad(ir, groups, gammas, reg_weight: float,
                               scope: str = "full") -> dict[str, np.ndarray]:
    """The coefficient rounded once to float32, times w in float32, added
    into zeros."""
    grads: dict[str, np.ndarray] = {}
    for name, c in reference_regularizer_coefficients(
            ir, groups, gammas, reg_weight, scope).items():
        w = ir.weights[name]
        grads[name] = np.zeros_like(w) + c.astype(np.float32) * w
    return grads


def regularizer_value(ir, groups, gammas, reg_weight: float) -> float:
    """Scalar value of the regularizer; finite-difference oracle target."""
    from grouprune.importance import sq_norms
    from grouprune.sparse import _weighted_slices

    total = sum(float(coeff @ sq_norms(ir.weights[name], axis))
                for name, axis, coeff in _weighted_slices(ir, groups, gammas))
    return reg_weight * total


def near_zero_fraction(trace_epoch, threshold: float = 0.01):
    """Count of indices with importance below threshold * group max, and
    the total number of indices, for one trace epoch: {group id:
    importance array}."""
    near = 0
    total = 0
    for values in trace_epoch.values():
        top = values.max()
        if top <= 0:
            near += len(values)
        else:
            near += int((values < threshold * top).sum())
        total += len(values)
    return near, total


def reference_histogram(values, bins: int = 20, lo: float = 0.0,
                        hi: float = 1.0):
    """Fixed-width histogram; returns (edges, counts) with counts summing
    to len(values). Values at or beyond hi land in the last bin."""
    edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        idx = int((v - lo) / width)
        idx = min(max(idx, 0), bins - 1)
        counts[idx] += 1
    return edges, counts


def reference_sgd_step(ir, grads, state, lr: float, momentum: float) -> None:
    """v <- momentum * v + g and w <- float32(w - lr * v), building new
    arrays; v starts from zeros."""
    for name, g in grads.items():
        v = momentum * state.get(name, np.zeros_like(g)) + g
        state[name] = v
        ir.weights[name] = (ir.weights[name] - lr * v).astype(np.float32)


def _bn_channel(arr, ndim):
    return arr.reshape(1, -1, 1, 1) if ndim == 4 else arr.reshape(1, -1)


def reference_batchnorm_forward(comp, x, weights, mode):
    """Batchnorm forward, out of place; updates the running statistics in
    train mode. Returns (out, backward context)."""
    a = comp.attrs
    c = a["num_features"]
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
    xhat = (x - _bn_channel(mu, x.ndim)) * _bn_channel(istd, x.ndim)
    out = xhat * _bn_channel(gamma, x.ndim) + _bn_channel(beta, x.ndim)
    return out.astype(np.float32), {"xhat": xhat, "istd": istd, "axes": axes,
                                    "n": x.size // c}


def reference_batchnorm_backward(comp, ctx, weights, dout):
    """Train-mode batchnorm backward, out of place: (dx, dgamma, dbeta)."""
    gamma = weights[comp.params["gamma"]]
    xhat, istd, axes, n = ctx["xhat"], ctx["istd"], ctx["axes"], ctx["n"]
    dgamma = (dout * xhat).sum(axis=axes)
    dbeta = dout.sum(axis=axes)
    dxhat = dout * _bn_channel(gamma, dout.ndim)
    term = (n * dxhat
            - dxhat.sum(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    dx = _bn_channel(istd, dout.ndim) / n * term
    return dx.astype(np.float32), dgamma, dbeta


def reference_uniform_ratio_for_speedup(ir, groups, target: float, strategy,
                                        rng):
    """Binary-search the per-group ratio that reaches a target speedup.

    Returns the smallest probed ratio whose speedup reached the target
    (the upper bound 0.95 if none did): widths change in whole units, so
    the last midpoint can sit below the target.
    """
    from grouprune.pruning import (build_uniform_plan, group_scores, prune,
                                   speedup)

    lo, hi = 0.0, 0.95
    for _ in range(18):
        mid = (lo + hi) / 2
        plan = build_uniform_plan(
            ir, groups, group_scores(ir, groups, strategy, rng=rng), mid)
        pruned = prune(ir, plan, groups)
        s = speedup(ir, pruned)
        if s < target:
            lo = mid
        else:
            hi = mid
            if s / target < 1.02:
                break
    return hi


def reference_run_cell(dataset: str, strategy: str, target_speedup: float,
                       mode: str, seed: int, cfg):
    """One ablation cell, sparse-training its own model from scratch and
    finding a uniform cell's ratio by trial prunes."""
    from dataclasses import replace

    from grouprune import ablate, engine
    from grouprune.dependency import build_depgraph
    from grouprune.grouping import extract_groups
    from grouprune.pruning import (build_learned_plan, build_uniform_plan,
                                   group_scores, prune, speedup)
    from grouprune.sparse import SparseConfig, train_sparse

    (x_tr, y_tr), (x_te, y_te) = ablate.make_data(dataset, seed)
    ir = ablate.make_model(dataset, seed)
    groups = extract_groups(build_depgraph(ir))
    ir, _ = train_sparse(ir, (x_tr, y_tr),
                         replace(cfg, seed=seed, strategy=strategy), groups)
    rng = np.random.default_rng(seed + 1)
    if mode == "uniform":
        ratio = reference_uniform_ratio_for_speedup(ir, groups, target_speedup,
                                                    strategy, rng)
        plan = build_uniform_plan(ir, groups, group_scores(
            ir, groups, strategy, rng=np.random.default_rng(seed + 1)), ratio)
    else:
        plan = build_learned_plan(ir, groups, group_scores(
            ir, groups, strategy, rng=rng), 1.0 / target_speedup)
    pruned = prune(ir, plan, groups)
    achieved = speedup(ir, pruned)
    ft_cfg = SparseConfig(epochs=ablate.FINETUNE_EPOCHS, reg_weight=0.0,
                          lr=cfg.lr / 2, momentum=cfg.momentum,
                          batch_size=cfg.batch_size, seed=seed + 2)
    pruned, _ = train_sparse(pruned, (x_tr, y_tr), ft_cfg,
                             extract_groups(build_depgraph(pruned)))
    acc = engine.accuracy(engine.forward(pruned, x_te), y_te)
    return ablate.AblationCell(strategy, target_speedup, mode, seed, acc,
                               achieved)

"""Group-level sparse training.

Adds a per-group regularizer to the task loss: each canonical index k of
each group contributes gamma_k times its summed squared slice norms, so
coupled parameters across layers shrink together. The shrinkage weights
follow an exponential schedule in [1, 2^alpha]: the least important index
gets 2^alpha, the most important gets 1, and everything else interpolates
on the normalized importance scale. Gamma is refreshed from current
weights every refresh_period steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import engine, ir as _ir
from .errors import TrainingDiverged
from .grouping import (Group, GroupMember, IndexTransform, selection_block,
                       selection_units)
from .importance import (GroupImportance, _scope_keep,
                         group_l2_importance, sq_norms)

STRATEGIES = ("full-grouping", "conv-only", "no-grouping", "random")

_SCOPE = {"full-grouping": "full", "conv-only": "conv", "no-grouping": "full"}


@dataclass
class SparseConfig:
    alpha: float = 4.0
    reg_weight: float = 1e-4
    epochs: int = 20
    lr: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    refresh_period: int = 100
    strategy: str = "full-grouping"
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.reg_weight < 0:
            raise ValueError("reg_weight must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def from_json(cls, path) -> "SparseConfig":
        with open(path) as fh:
            return cls(**json.load(fh))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)
            fh.write("\n")


@dataclass
class GammaSchedule:
    group_id: str
    gamma: np.ndarray


def compute_gamma(imp: GroupImportance, alpha: float) -> GammaSchedule:
    """Exponential shrinkage weights from importance.

    gamma_k = 2 ** (alpha * (I_max - I_k) / (I_max - I_min)), which is 1 at
    the most important index and 2**alpha at the least important one. A
    degenerate group (I_max == I_min) gets uniform gamma = 1.
    """
    values = imp.values
    i_max, i_min = float(values.max()), float(values.min())
    if i_max == i_min:
        gamma = np.ones_like(values, dtype=np.float64)
    else:
        gamma = 2.0 ** (alpha * (i_max - values) / (i_max - i_min))
    return GammaSchedule(imp.group_id, gamma)


def _weighted_slices(ir, groups, gammas, scope: str):
    """(tensor name, axis, gamma per local index) of every trainable slice
    in scope. Batchnorm running statistics are per-channel state, not
    trainable weights, and are skipped."""
    for group in groups:
        gamma = gammas[group.group_id].gamma
        for m, comp, role, name, axis in group.slices(ir):
            if role not in _ir.BUFFER_ROLES and _scope_keep(comp, scope, None):
                yield name, axis, gamma[m.transform.canonical(m.half.channels)]


def regularizer_grad(ir, groups, gammas: dict[str, GammaSchedule],
                     reg_weight: float, scope: str = "full") -> dict[str, np.ndarray]:
    """Gradient of the sparsity regularizer w.r.t. every touched tensor.

    The regularizer is reg_weight * sum_g sum_k gamma_k * I_{g,k}; its
    gradient on a slice w[k] is 2 * reg_weight * gamma_k * w[k].
    """
    grads: dict[str, np.ndarray] = {}
    if reg_weight == 0:
        return grads
    for name, axis, coeff in _weighted_slices(ir, groups, gammas, scope):
        w = ir.weights[name]
        shape = [1] * w.ndim
        shape[axis] = -1
        g = grads.setdefault(name, np.zeros_like(w))
        g += (2.0 * reg_weight * coeff.reshape(shape) * w).astype(w.dtype)
    return grads


def regularizer_value(ir, groups, gammas, reg_weight: float,
                      scope: str = "full") -> float:
    """Scalar value of the regularizer; finite-difference oracle target."""
    total = sum(float(coeff @ sq_norms(ir.weights[name], axis))
                for name, axis, coeff in _weighted_slices(ir, groups, gammas, scope))
    return reg_weight * total


def layer_pseudo_groups(ir) -> list[Group]:
    """One pseudo-group per parameterized layer: its output half alone.

    This is the no-grouping ablation mode: sparsity is learned on each
    layer independently, ignoring coupled parameters elsewhere.
    """
    halves = ir.halves()
    index = {h.node_id: i for i, h in enumerate(halves)}
    groups = []
    for comp in ir.components:
        if comp.kind not in ("linear", "conv2d"):
            continue
        half = _ir.half_node(comp, "out")
        member = GroupMember(half, index[half.node_id], IndexTransform())
        width = half.channels
        block = selection_block(comp)
        units = selection_units(width, [(0, 1, width, block)] if block > 1 else [])
        groups.append(Group(f"layer:{comp.comp_id}", [member], width, units))
    return groups


def sparsity_groups(ir, groups: list[Group], strategy: str) -> tuple[list[Group], str]:
    """Groups and member scope used for regularization under a strategy."""
    if strategy == "no-grouping":
        return layer_pseudo_groups(ir), "full"
    if strategy == "random":
        return [], "full"
    return groups, _SCOPE[strategy]


def measure_importance(ir, groups, scope: str = "full") -> dict[str, GroupImportance]:
    return {g.group_id: group_l2_importance(ir, g, scope) for g in groups}


def refresh_gamma(ir, groups, scope: str, alpha: float) -> dict[str, GammaSchedule]:
    return {gid: compute_gamma(imp, alpha)
            for gid, imp in measure_importance(ir, groups, scope).items()}


def train_sparse(ir, dataset, cfg: SparseConfig, groups: list[Group],
                 trace_groups: list[Group] | None = None):
    """SGD on task loss plus the group sparsity regularizer.

    dataset is (X, y); the IR's weights are updated in place. trace_groups
    selects which groups get their importance recorded per epoch (defaults
    to the regularized ones), so ablation modes can be compared on one
    common group structure.

    Returns the sparsity trace: per epoch, (group id, canonical index,
    importance) for every trace group. Raises TrainingDiverged with the
    partial trace if the loss goes non-finite.
    """
    x_all, y_all = dataset
    rng = np.random.default_rng(cfg.seed)
    reg_groups, scope = sparsity_groups(ir, groups, cfg.strategy)
    if trace_groups is None:
        trace_groups = reg_groups
    gammas = refresh_gamma(ir, reg_groups, scope, cfg.alpha)
    state: dict[str, np.ndarray] = {}
    trace = []
    step = 0
    n = len(x_all)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits, tape = engine.forward(ir, x_all[idx], mode="train")
            loss, dlogits = engine.softmax_cross_entropy(logits, y_all[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, step {step}",
                    trace=trace)
            grads = engine.backward(tape, dlogits)
            if cfg.reg_weight > 0:
                for name, g in regularizer_grad(
                        ir, reg_groups, gammas, cfg.reg_weight, scope).items():
                    if name in grads:
                        grads[name] += g
                    else:
                        grads[name] = g
            engine.sgd_step(ir, grads, state, cfg.lr, cfg.momentum)
            step += 1
            if cfg.reg_weight > 0 and step % cfg.refresh_period == 0:
                gammas = refresh_gamma(ir, reg_groups, scope, cfg.alpha)
        entries = []
        for g in trace_groups:
            imp = group_l2_importance(ir, g, "full")
            entries.extend((g.group_id, k, float(imp.values[k]))
                           for k in range(g.width))
        trace.append({"epoch": epoch, "entries": entries})
    return ir, trace


def near_zero_fraction(trace_epoch, threshold: float = 0.01):
    """Count of indices with importance below threshold * group max, and
    the total number of indices, for one trace epoch."""
    by_group: dict[str, list[float]] = {}
    for gid, _k, imp in trace_epoch["entries"]:
        by_group.setdefault(gid, []).append(imp)
    near = 0
    total = 0
    for values in by_group.values():
        top = max(values)
        if top <= 0:
            near += len(values)
        else:
            near += sum(1 for v in values if v < threshold * top)
        total += len(values)
    return near, total

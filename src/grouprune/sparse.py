"""Group-level sparse training.

Adds a per-group regularizer to the task loss: each canonical index k of
each group contributes gamma_k times its summed squared slice norms, so
coupled parameters across layers shrink together. The shrinkage weights
follow an exponential schedule in [1, 2^alpha]: the least important index
gets 2^alpha, the most important gets 1, and everything else interpolates
on the normalized importance scale. Gamma is refreshed from current
weights every refresh_period steps.

Between two refreshes the regularizer gradient of a tensor is C * w, with
C its float32 coefficient map: 2 * reg_weight * gamma_k summed in float64
over every slice that holds an element, rounded once (coefficient_map).
The training loop rebuilds the maps, in place, each time it refreshes
gamma, and on every step regularizer_grad adds C * w into the task
gradients in place.

A grouping strategy enters in two places only: sparsity_groups picks the
groups to regularize, counted_group the members of a group that count
toward its importance and regularizer. Everything else reads plain groups.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import engine
from .engine import _CHUNK
from .errors import ConfigError, ShapeError, TrainingDiverged
from .grouping import Group, GroupMember, IndexTransform, selection_units
from .importance import group_l2_importance
from .kinds import BUFFER_ROLES, SPECS

STRATEGIES = ("full-grouping", "conv-only", "no-grouping", "random")


_FIELD_KINDS = {"float": ((int, float), "a finite number"),
                "int": (int, "an int"), "str": (str, "a string")}


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:   # an int too large for a float
        return False


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
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, want = _FIELD_KINDS[f.type]
            if (not isinstance(value, kinds) or isinstance(value, bool)
                    or (f.type == "float" and not _finite(value))):
                raise ConfigError(f"{f.name} must be {want}, got {value!r:.60}")
        for name, low in (("alpha", 0), ("reg_weight", 0), ("momentum", 0),
                          ("seed", 0), ("epochs", 1), ("batch_size", 1),
                          ("refresh_period", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0 < self.lr:
            raise ConfigError("lr must be > 0")
        if self.momentum > 1:
            raise ConfigError("momentum must be <= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; "
                              f"choose from {STRATEGIES}")

    @classmethod
    def from_json(cls, path) -> "SparseConfig":
        """Read a config file: a JSON object whose keys are field names."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: not a JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object, "
                              f"got {type(doc).__name__}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {unknown}")
        try:
            return cls(**doc)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def compute_gamma(values: np.ndarray, alpha: float) -> np.ndarray:
    """Exponential shrinkage weights from importance.

    gamma_k = 2 ** (alpha * (I_max - I_k) / (I_max - I_min)), which is 1 at
    the most important index and 2**alpha at the least important one. A
    degenerate group (I_max == I_min) gets uniform gamma = 1.
    """
    i_max, i_min = float(values.max()), float(values.min())
    if i_max == i_min:
        return np.ones_like(values, dtype=np.float64)
    return 2.0 ** (alpha * (i_max - values) / (i_max - i_min))


def _weighted_slices(ir, groups, gammas):
    """(tensor name, axis, gamma per local index) of every trainable slice
    of the groups. Batchnorm running statistics are per-channel state, not
    trainable weights, and are skipped."""
    for group in groups:
        gamma = gammas[group.group_id]
        for m, role, name, axis in group.slices(ir):
            if role not in BUFFER_ROLES:
                yield name, axis, gamma[m.transform.canonical(m.half.channels)]


def coefficient_map(ir, groups, gammas: dict[str, np.ndarray],
                    reg_weight: float,
                    out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Per-tensor float32 coefficient C of the regularizer gradient C * w.

    C = float32(sum over sliced axes a of 2 * reg_weight * s_a), where
    s_a[i] is gamma_k of the one slice per (tensor, axis), which maps local
    index i to canonical index k. A tensor sliced on one axis gets a vector
    shaped to broadcast along that axis; one sliced on two (a linear or conv
    weight between two groups) gets a dense array, written straight into
    float32 without a float64 copy of the tensor. Empty at reg_weight 0.

    out is the map an earlier call built for the same tensors; its dense
    arrays are overwritten and returned again, so a gamma refresh allocates
    no full-size array (new ones at every refresh raised the peak RSS of a
    long training process by about 7 MB).
    """
    if reg_weight == 0:
        return {}
    sums: dict[str, dict[int, np.ndarray]] = {}
    for name, axis, coeff in _weighted_slices(ir, groups, gammas):
        sums.setdefault(name, {})[axis] = coeff
    coeffs = {}
    for name, by_axis in sums.items():
        ndim = ir.weights[name].ndim
        vecs = []
        for axis in sorted(by_axis):
            shape = [1] * ndim
            shape[axis] = -1
            vecs.append((2.0 * reg_weight * by_axis[axis]).reshape(shape))
        if len(vecs) == 1:
            coeffs[name] = vecs[0].astype(np.float32)
        else:
            v0, v1 = vecs   # a tensor has at most an out and an in axis
            buf = out.get(name) if out else None
            if buf is None:
                buf = np.empty(ir.weights[name].shape, np.float32)
            coeffs[name] = np.add(v0, v1, out=buf, casting="same_kind")
    return coeffs


def regularizer_grad(ir, coeffs: dict[str, np.ndarray],
                     grads: dict[str, np.ndarray]) -> None:
    """Add the gradient of the sparsity regularizer into grads, in place.

    The regularizer is reg_weight * sum_g sum_k gamma_k * I_{g,k}, with
    gradient 2 * reg_weight * gamma_k * w[k] on a slice w[k]. Summed over
    the slices of a tensor this is C * w, with coeffs the float32 map
    C = coefficient_map(...), multiplied in float32. A training loop
    builds the map once per gamma refresh and passes it on every step.

    grads holds every tensor of the map, as engine.backward's gradients
    of every trainable parameter do. Each tensor's C * w is added into
    grads[name] block by block along axis 0, so no full-size temporary is
    made.
    """
    for name, c in coeffs.items():
        w, g = ir.weights[name], grads[name]
        c = np.broadcast_to(c, w.shape)
        rows = max(1, _CHUNK * len(w) // w.size)
        for lo in range(0, len(w), rows):
            g[lo:lo + rows] += c[lo:lo + rows] * w[lo:lo + rows]


def layer_pseudo_groups(ir) -> list[Group]:
    """One pseudo-group per layer with a weight: its output half alone.

    This is the no-grouping ablation mode: sparsity is learned on each
    layer independently, ignoring coupled parameters elsewhere.
    """
    halves = ir.halves()
    groups = []
    for i, comp in enumerate(ir.components):
        if "weight" not in comp.params:
            continue
        half = halves[2 * i + 1]
        member = GroupMember(half, 2 * i + 1, IndexTransform())
        width = half.channels
        block = SPECS[comp.kind].block(comp.attrs)
        units = selection_units(width, [(0, 1, width, block)] if block > 1 else [])
        groups.append(Group(f"layer:{comp.comp_id}", [member], width, units))
    return groups


def sparsity_groups(ir, groups: list[Group], strategy: str) -> list[Group]:
    """Groups regularized under a strategy."""
    if strategy == "no-grouping":
        return layer_pseudo_groups(ir)
    if strategy == "random":
        return []
    return groups


def counted_group(ir, group: Group, strategy: str) -> Group:
    """The group with only the members a strategy counts: the conv2d ones
    under conv-only, under no-grouping the first member layer with a
    weight (every member if none has one), else the group itself."""
    if strategy == "conv-only":
        members = [m for m in group.members
                   if ir.component(m.half.component_id).kind == "conv2d"]
    elif strategy == "no-grouping":
        weighted = [m for m in group.members
                    if "weight" in ir.component(m.half.component_id).params]
        if not weighted:
            return group
        layer = min(weighted, key=lambda m: m.half_index).half.component_id
        members = [m for m in group.members if m.half.component_id == layer]
    else:
        return group
    return Group(group.group_id, members, group.width, group.units)


def refresh_gamma(ir, groups, alpha: float) -> dict[str, np.ndarray]:
    return {g.group_id: compute_gamma(group_l2_importance(ir, g), alpha)
            for g in groups}


def train_sparse(ir, dataset, cfg: SparseConfig, groups: list[Group]):
    """SGD on task loss plus the group sparsity regularizer.

    dataset is (X, y); the IR's weights are updated in place. The
    regularizer acts on the counted_group of each of sparsity_groups(...).

    Returns the sparsity trace: a list with one entry per epoch, the list
    index being the epoch. Each entry maps the id of each group of
    sparsity_groups(...) to its group_l2_importance array at the end of
    that epoch: the importance of each canonical index over every member,
    not only the counted ones. Raises TrainingDiverged with the partial
    trace, in the same shape, if the loss goes non-finite, and ShapeError
    before the first step if the network has fewer outputs than the labels
    have classes.
    """
    x_all, y_all = dataset
    classes = int(y_all.max()) + 1
    rng = np.random.default_rng(cfg.seed)
    traced = sparsity_groups(ir, groups, cfg.strategy)
    reg_groups = [counted_group(ir, g, cfg.strategy) for g in traced]
    gammas = refresh_gamma(ir, reg_groups, cfg.alpha)
    coeffs = coefficient_map(ir, reg_groups, gammas, cfg.reg_weight)
    state: dict[str, np.ndarray] = {}
    trace = []
    step = 0
    n = len(x_all)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits, tape = engine.forward(ir, x_all[idx], mode="train")
            if logits.shape[1] < classes:
                raise ShapeError(f"the network has {logits.shape[1]} outputs "
                                 f"but the data has {classes} classes")
            loss, dlogits = engine.softmax_cross_entropy(logits, y_all[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, step {step}",
                    trace=trace)
            grads = engine.backward(tape, dlogits)
            if cfg.reg_weight > 0:
                regularizer_grad(ir, coeffs, grads)
            engine.sgd_step(ir, grads, state, cfg.lr, cfg.momentum)
            del grads   # freed before the next backward allocates its own
            step += 1
            if cfg.reg_weight > 0 and step % cfg.refresh_period == 0:
                gammas = refresh_gamma(ir, reg_groups, cfg.alpha)
                coeffs = coefficient_map(ir, reg_groups, gammas,
                                         cfg.reg_weight, out=coeffs)
        trace.append({g.group_id: group_l2_importance(ir, g) for g in traced})
    return ir, trace

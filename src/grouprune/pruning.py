"""Physical removal of pruning groups from a network.

A prune plan names, per group, the canonical indices to drop. Applying it
slices every member's parameter tensors, updates channel attributes
(including concat/split size lists, flatten fan-out into linear columns,
and conv group counts), and returns a new validated IR. The input IR is
never mutated. A plan never changes the network's input or output width:
prunable_groups names the groups it may prune.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import engine, ir as _ir
from .dependency import build_depgraph
from .errors import ConfigError, PruneError
from .grouping import Group, extract_groups
from .importance import (PortGuard, default_topn, group_l2_importance,
                         relative_score, select_prune_indices, unit_sums)
from .kinds import SPECS
from .sparse import counted_group


@dataclass
class PlanEntry:
    group_id: str
    fingerprint: str
    indices: tuple[int, ...]


@dataclass
class PrunePlan:
    entries: list[PlanEntry] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        doc = {
            "provenance": self.provenance,
            "entries": [{"group_id": e.group_id, "fingerprint": e.fingerprint,
                         "indices": list(e.indices)} for e in self.entries],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "PrunePlan":
        with open(path) as fh:
            doc = json.load(fh)
        return cls(
            entries=[PlanEntry(e["group_id"], e["fingerprint"],
                               tuple(e["indices"])) for e in doc["entries"]],
            provenance=doc.get("provenance", {}),
        )


def config_hash(config: dict) -> str:
    return hashlib.sha1(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Prunable groups and per-group minimum widths


def min_keep_for(ir, group: Group) -> int:
    """Keep at least 2 indices in groups feeding the exit component;
    collapsing the last hidden dimension to 1 wrecks the network."""
    exit_id = ir.exit_component().comp_id
    for m in group.members:
        if m.half.side == "in" and m.half.component_id == exit_id:
            return 2
    return 1


def prunable_groups(ir, groups: list[Group]) -> list[Group]:
    """The groups a plan may prune: those with no member that reads the
    raw network input and none that is the exit component's output half.
    The network's input and output widths are fixed interfaces, and this
    is the one rule that keeps them so: the builders plan only these
    groups and prune refuses any other."""
    raw_fed = {cid for cid, _ in ir.input_consumers}
    exit_id = ir.exit_component().comp_id
    return [g for g in groups if not any(
        m.half.component_id == exit_id if m.half.side == "out"
        else m.half.component_id in raw_fed for m in g.members)]


# ---------------------------------------------------------------------------
# Applying a plan


def _units_closed(group: Group, mask: np.ndarray) -> bool:
    """Whether the selection mask takes every unit whole or not at all."""
    hit = unit_sums(mask.astype(np.float64), group.units)
    size = np.fromiter(map(len, group.units), dtype=np.int64)
    return bool(np.all((hit == 0) | (hit == size)))


def prune(ir, plan: PrunePlan, groups: list[Group]):
    """Apply a prune plan, returning a new, validated NetworkIR.

    groups are the groups extracted from ir. Plans are validated against
    them: an entry whose fingerprint no longer matches (the IR changed
    since planning) is an error, as is a selection on a group that
    prunable_groups leaves out, or one that violates atomic units or
    empties a group. So a plan never changes the network's input or
    output width, and the result keeps ir.input_shape.

    Every weight of the result is a fresh C-contiguous array that shares
    no memory with the input, so a caller may train it in place. Each
    tensor is copied once: a sliced one by one compress over a keep mask
    per sliced axis, any other by a plain copy.
    """
    by_id = {g.group_id: g for g in groups}
    allowed = {g.group_id for g in prunable_groups(ir, groups)}

    if len({e.group_id for e in plan.entries}) < len(plan.entries):
        raise PruneError("the plan names a group in more than one entry")
    half_removed: dict[str, list[int]] = {}
    keep: dict[str, dict[int, np.ndarray]] = {}   # name -> axis -> kept locals

    for entry in plan.entries:
        group = by_id.get(entry.group_id)
        if group is None or group.fingerprint != entry.fingerprint:
            raise PruneError(f"plan entry {entry.group_id!r} is stale: "
                             "group structure changed since planning")
        if not entry.indices:
            continue
        if entry.group_id not in allowed:
            raise PruneError(f"{entry.group_id}: the group sets the network's "
                             "input or output width, which a plan never changes")
        sel = set(entry.indices)
        if not sel <= set(range(group.width)):
            raise PruneError(f"{entry.group_id}: indices out of range")
        mask = np.zeros(group.width, dtype=bool)
        mask[list(sel)] = True
        if not _units_closed(group, mask):
            raise PruneError(f"{entry.group_id}: selection splits an atomic "
                             "unit of a grouped convolution")
        if len(sel) > group.width - min_keep_for(ir, group):
            raise PruneError(f"{entry.group_id}: selection violates the "
                             f"minimum width {min_keep_for(ir, group)}")

        for m in group.members:
            locals_hit = np.flatnonzero(mask[m.transform.canonical(m.half.channels)])
            if locals_hit.size:
                half_removed[m.half.node_id] = locals_hit.tolist()
        # one half slices each (tensor, axis): validate() refuses shared ones
        for m, _role, name, axis in group.slices(ir):
            removed = half_removed.get(m.half.node_id)
            if removed:
                kept = np.ones(ir.weights[name].shape[axis], dtype=bool)
                kept[removed] = False
                keep.setdefault(name, {})[axis] = kept

    # slice tensors
    new_weights = {}
    for name, arr in ir.weights.items():
        if name not in keep:
            new_weights[name] = arr.copy()
            continue
        for axis, mask in sorted(keep[name].items()):
            arr = np.compress(mask, arr, axis=axis)
        new_weights[name] = arr

    # rebuild components with updated channel attributes
    new_components = []
    for comp in ir.components:
        attrs = SPECS[comp.kind].shrink(
            comp, half_removed.get(f"{comp.comp_id}:in", []),
            half_removed.get(f"{comp.comp_id}:out", []))
        new_components.append(_ir.Component(comp.comp_id, comp.kind, attrs,
                                            dict(comp.params)))

    pruned = _ir.NetworkIR(new_components, list(ir.edges), ir.input_shape,
                           list(ir.input_consumers), new_weights)
    violations = pruned.validate()
    if violations:
        raise PruneError("pruning produced an invalid network: "
                         + "; ".join(violations))
    return pruned


def speedup(ir_base, ir_pruned) -> float:
    """MACs(base) / MACs(pruned)."""
    base = engine.count_macs(ir_base)
    pruned = engine.count_macs(ir_pruned)
    if pruned == 0:
        raise PruneError("pruned network has zero MACs")
    return base / pruned


# Kept widths are a list indexed like ir.halves(): component i owns the
# input half 2i and the output half 2i+1.


def _member_table(group: Group) -> list[tuple[int, int, int, int]]:
    """(half index, delta, end, factor) per member: canonical indices
    [delta, end) each take factor channels out of that half."""
    return [(m.half_index, m.transform.delta,
             m.transform.delta + m.transform.span(m.half.channels),
             m.transform.factor) for m in group.members]


def _narrow(kept: list[int], table, indices) -> None:
    """Take the ascending canonical indices out of the kept widths of the
    members in table."""
    for h, delta, end, factor in table:
        covered = bisect_left(indices, end) - bisect_left(indices, delta)
        if covered:
            kept[h] -= factor * covered


def _macs_at(ir, shapes, kept: list[int], i: int) -> int:
    """engine.component_macs of component i at the kept widths."""
    c = ir.components[i]
    return engine.component_macs(c, shapes[c.comp_id], kept[2 * i],
                                 kept[2 * i + 1])


def plan_macs(ir, groups: list[Group], plan: PrunePlan) -> int:
    """MACs of prune(ir, plan, groups) without building it: every
    component's engine.component_macs at the kept widths the plan leaves."""
    by_id = {g.group_id: g for g in groups}
    kept = [h.channels for h in ir.halves()]
    for e in plan.entries:
        _narrow(kept, _member_table(by_id[e.group_id]), sorted(e.indices))
    shapes = engine.infer_shapes(ir)
    return sum(_macs_at(ir, shapes, kept, i) for i in range(len(ir.components)))


def format_speedup_line(base_macs: int, pruned_macs: int) -> str:
    return (f"speedup {base_macs / pruned_macs:.2f}x "
            f"(MACs {base_macs} -> {pruned_macs})")


# ---------------------------------------------------------------------------
# Plan construction


def group_scores(ir, groups, strategy: str, topn: int | None = None,
                 rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
    """Selection scores per canonical index of every group that
    prunable_groups lets a plan prune, keyed by group id in group order.
    This is the only scoring a plan gets: the builders select from it.

    The random criterion draws one rng.random(width) per group, in that
    order; any other strategy scores relative_score of the group's L2
    importance over its counted_group.
    """
    return {g.group_id: rng.random(g.width) if strategy == "random"
            else relative_score(group_l2_importance(
                ir, counted_group(ir, g, strategy)),
                default_topn(g.width) if topn is None else topn)
            for g in prunable_groups(ir, groups)}


def build_uniform_plan(ir, groups, scores: dict[str, np.ndarray],
                       ratio: float) -> PrunePlan:
    """Same prune ratio in every group that scores names: the
    floor(ratio * width) lowest-scoring indices, honoring min_keep, atomic
    units and the group's concat/split port windows."""
    plan = PrunePlan(provenance={"mode": "uniform", "ratio": ratio})
    for group in (g for g in groups if g.group_id in scores):
        sel = select_prune_indices(scores[group.group_id], ratio=ratio,
                                   min_keep=min_keep_for(ir, group),
                                   units=group.units,
                                   windows=group.port_windows(ir))
        plan.entries.append(PlanEntry(group.group_id, group.fingerprint, sel))
    return plan


def build_learned_plan(ir, groups, scores: dict[str, np.ndarray],
                       macs_fraction: float) -> PrunePlan:
    """Global-threshold selection: greedily remove the lowest-scoring
    units across the groups that scores names until MACs drop to
    macs_fraction of the base, honoring per-group min_keep and skipping
    any unit that would empty a concat/split port window.

    A unit's score is the mean of its indices' scores. Candidates are
    ordered once by (score, group id, first index) with one np.lexsort
    over the concatenated per-group arrays, and walked in that order over
    tables built once: kept widths per half, MACs per component, each
    group's _member_table and a min_keep budget per group. Accepting a
    unit costs one _narrow (two bisections per member of its group) plus
    one engine.component_macs per component of those members with MACs
    at full width (a MAC formula is a product of widths, so a component
    at zero stays there), and a PortGuard.take only in groups with port
    windows. plan_macs narrows and counts with the same _narrow and
    _macs_at. The caller scores the groups; the cost here is
    O(H + U log U + A*M) for H halves, U candidate units, A accepted
    units and M members per group.
    """
    shapes = engine.infer_shapes(ir)
    eligible = [g for g in groups if g.group_id in scores]
    kept = [h.channels for h in ir.halves()]
    macs = [_macs_at(ir, shapes, kept, i) for i in range(len(ir.components))]
    base = sum(macs)
    target = macs_fraction * base

    units = [u for g in eligible for u in g.units]
    owner = [gi for gi, g in enumerate(eligible) for _ in g.units]
    avg = [np.empty(0)]   # np.concatenate needs one array if none is eligible
    for g in eligible:
        avg.append(unit_sums(scores[g.group_id], g.units)
                   / np.fromiter(map(len, g.units), dtype=np.int64))
    by_rank = {gid: r for r, gid in enumerate(sorted(g.group_id for g in eligible))}
    rank = [by_rank[g.group_id] for g in eligible]
    order = np.lexsort((np.array([u[0] for u in units], dtype=np.int64),
                        np.array([rank[gi] for gi in owner], dtype=np.int64),
                        np.concatenate(avg)))

    tables = [_member_table(g) for g in eligible]
    member_comps = [sorted(i for i in {m.half_index // 2 for m in g.members}
                           if macs[i]) for g in eligible]
    budget = [g.width - min_keep_for(ir, g) for g in eligible]
    guards = [PortGuard(w) if (w := g.port_windows(ir)) else None
              for g in eligible]
    selected: list[list[int]] = [[] for _ in eligible]
    current = base
    for c in order.tolist():
        if current <= target:
            break
        gi, unit = owner[c], units[c]
        guard = guards[gi]
        if len(unit) > budget[gi] or not (guard is None or guard.take(unit)):
            continue
        budget[gi] -= len(unit)
        selected[gi].extend(unit)
        _narrow(kept, tables[gi], unit)
        for i in member_comps[gi]:
            new = _macs_at(ir, shapes, kept, i)
            current += new - macs[i]
            macs[i] = new
    plan = PrunePlan(provenance={"mode": "learned",
                                 "macs_fraction": macs_fraction})
    for g, sel in zip(eligible, selected):
        plan.entries.append(PlanEntry(g.group_id, g.fingerprint,
                                      tuple(sorted(sel))))
    return plan


def end_to_end_prune(ir, ratio: float, mode: str, strategy: str,
                     topn: int | None, seed: int):
    """Importance -> plan -> prune, plus a report of what happened.

    In uniform mode, ratio is the per-group fraction of indices removed.
    In learned mode, ratio is the target fraction of MACs removed and a
    single global score threshold decides where the width goes. A network
    with no MACs has no speedup to report and raises PruneError.
    """
    if mode not in ("uniform", "learned"):
        raise ConfigError(f"unknown mode {mode!r}")
    if not 0 <= ratio < 1:
        raise ConfigError(f"ratio must be in [0, 1), got {ratio}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if topn is not None and topn < 1:
        raise ConfigError(f"topn must be in [1, group width], got {topn}")
    if topn is not None and strategy == "random":
        raise ConfigError("topn does not apply to the random strategy")
    base_macs = engine.count_macs(ir)
    if base_macs == 0:
        raise PruneError("the network has no MACs to prune")
    d = build_depgraph(ir)
    groups = extract_groups(d)
    scores = group_scores(ir, groups, strategy, topn,
                          np.random.default_rng(seed))
    if mode == "uniform":
        plan = build_uniform_plan(ir, groups, scores, ratio)
    else:
        plan = build_learned_plan(ir, groups, scores, 1.0 - ratio)
    plan.provenance["criterion"] = strategy
    plan.provenance["config_hash"] = config_hash(
        {"ratio": ratio, "mode": mode, "strategy": strategy,
         "topn": topn, "seed": seed})
    pruned = prune(ir, plan, groups)
    pruned_macs = engine.count_macs(pruned)
    by_id = {g.group_id: g for g in groups}
    report = {
        "mode": mode,
        "strategy": strategy,
        "ratio": ratio,
        "base_macs": base_macs,
        "pruned_macs": pruned_macs,
        "speedup": base_macs / pruned_macs,
        "groups": [
            {"group_id": e.group_id,
             "width_before": by_id[e.group_id].width,
             "width_after": by_id[e.group_id].width - len(e.indices),
             "pruned": len(e.indices)}
            for e in plan.entries
        ],
    }
    return pruned, plan, report

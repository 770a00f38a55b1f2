"""Physical removal of pruning groups from a network.

A prune plan names, per group, the canonical indices to drop. Applying it
slices every member's parameter tensors, updates channel attributes
(including concat/split size lists, flatten fan-out into linear columns,
and conv group counts), and returns a new validated IR. The input IR is
never mutated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import engine, ir as _ir
from .dependency import build_depgraph
from .errors import PruneError
from .grouping import Group, extract_groups
from .importance import (PortGuard, default_topn, group_l2_importance,
                         relative_score, select_prune_indices)


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
# Boundary groups and per-group minimum widths


def boundary_roles(ir, group: Group) -> set[str]:
    """Which network boundaries a group touches.

    "input": a member half reads the raw network input, so pruning it
    changes the input interface. "output": the group owns the exit
    component's output half, so pruning it drops output dimensions.
    """
    roles = set()
    raw_fed = {cid for cid, _ in ir.input_consumers}
    exit_id = ir.exit_component().comp_id
    for m in group.members:
        if m.half.side == "in" and m.half.component_id in raw_fed:
            roles.add("input")
        if m.half.side == "out" and m.half.component_id == exit_id:
            roles.add("output")
    return roles


def min_keep_for(ir, group: Group) -> int:
    """Keep at least 2 indices in groups feeding the exit component;
    collapsing the last hidden dimension to 1 wrecks the network."""
    exit_id = ir.exit_component().comp_id
    for m in group.members:
        if m.half.side == "in" and m.half.component_id == exit_id:
            return 2
    return 1


def prunable_groups(ir, groups: list[Group]) -> list[Group]:
    """Groups eligible for automatic pruning: everything that does not
    touch the raw network input or the network output dimension."""
    return [g for g in groups if not boundary_roles(ir, g)]


# ---------------------------------------------------------------------------
# Applying a plan


def _units_closed(group: Group, indices: set[int]) -> bool:
    return all(set(u) <= indices or not (set(u) & indices) for u in group.units)


def prune(ir, plan: PrunePlan, groups: list[Group] | None = None):
    """Apply a prune plan, returning a new, validated NetworkIR.

    Plans are validated against freshly extracted groups: an entry whose
    fingerprint no longer matches (the IR changed since planning) is an
    error, as is a selection that violates atomic units or empties a
    group.
    """
    if groups is None:
        groups = extract_groups(build_depgraph(ir))
    by_id = {g.group_id: g for g in groups}

    half_removed: dict[str, list[int]] = {}
    tensor_removed: dict[str, dict[int, set[int]]] = {}   # name -> axis -> locals
    raw_removed: set[int] | None = None

    for entry in plan.entries:
        group = by_id.get(entry.group_id)
        if group is None or group.fingerprint != entry.fingerprint:
            raise PruneError(f"plan entry {entry.group_id!r} is stale: "
                             "group structure changed since planning")
        if not entry.indices:
            continue
        sel = set(entry.indices)
        if not sel <= set(range(group.width)):
            raise PruneError(f"{entry.group_id}: indices out of range")
        if len(sel) >= group.width:
            raise PruneError(f"{entry.group_id}: cannot prune every index")
        if not _units_closed(group, sel):
            raise PruneError(f"{entry.group_id}: selection splits an atomic "
                             "unit of a grouped convolution")
        if len(sel) > group.width - min_keep_for(ir, group):
            raise PruneError(f"{entry.group_id}: selection violates the "
                             f"minimum width {min_keep_for(ir, group)}")

        mask = np.zeros(group.width, dtype=bool)
        mask[list(sel)] = True
        for m in group.members:
            locals_hit = np.flatnonzero(mask[m.transform.canonical(m.half.channels)])
            if locals_hit.size:
                half_removed[m.half.node_id] = locals_hit.tolist()
        for m, _comp, _role, name, axis in group.slices(ir):
            if m.half.node_id in half_removed:
                (tensor_removed.setdefault(name, {}).setdefault(axis, set())
                 .update(half_removed[m.half.node_id]))

    # raw-input consistency: if any raw-fed input half is pruned, every raw
    # consumer must drop the same raw channels
    raw_ports = list(ir.input_consumers)
    touched = [(cid, port) for cid, port in raw_ports
               if f"{cid}:in" in half_removed]
    if touched:
        sets = []
        for cid, port in raw_ports:
            comp = ir.component(cid)
            off = _ir.input_port_offset(comp, port)
            locs = half_removed.get(f"{cid}:in", [])
            sets.append({l - off for l in locs
                         if off <= l < off + ir.input_channels})
        raw_removed = sets[0]
        if any(s != raw_removed for s in sets[1:]):
            raise PruneError("inconsistent pruning of raw network input "
                             "across its consumers")

    # slice tensors
    new_weights = {}
    for name, arr in ir.weights.items():
        out = arr
        for axis, idx in sorted(tensor_removed.get(name, {}).items()):
            out = np.delete(out, sorted(idx), axis=axis)
        new_weights[name] = out.copy()

    # rebuild components with updated channel attributes
    new_components = []
    for comp in ir.components:
        a = dict(comp.attrs)
        inr = half_removed.get(f"{comp.comp_id}:in", [])
        outr = half_removed.get(f"{comp.comp_id}:out", [])
        k = comp.kind
        if k == "linear":
            a["in_features"] -= len(inr)
            a["out_features"] -= len(outr)
        elif k == "conv2d":
            if a["groups"] > 1:
                if inr != outr:
                    raise PruneError(f"{comp.comp_id}: grouped conv halves "
                                     "pruned inconsistently")
                block = _ir.conv_block_size(comp)
                if len(outr) % block:
                    raise PruneError(f"{comp.comp_id}: removal not aligned to "
                                     f"channel groups of {block}")
                a["groups"] -= len(outr) // block
            a["in_channels"] -= len(inr)
            a["out_channels"] -= len(outr)
        elif k == "batchnorm":
            a["num_features"] -= len(inr)
        elif k in ("activation", "pool", "eltwise"):
            a["channels"] -= len(inr)
        elif k == "flatten":
            a["channels"] -= len(inr)
        elif k in ("concat", "split"):
            sizes = list(a["sizes"])
            removed = inr
            lo = 0
            for p, size in enumerate(list(sizes)):
                hit = sum(1 for l in removed if lo <= l < lo + size)
                sizes[p] = size - hit
                lo += size
            if any(s <= 0 for s in sizes):
                raise PruneError(f"{comp.comp_id}: pruning empties a "
                                 f"{k} port")
            a["sizes"] = sizes
        new_components.append(_ir.Component(comp.comp_id, comp.kind, a,
                                            dict(comp.params)))

    input_shape = list(ir.input_shape)
    if raw_removed:
        input_shape[0] -= len(raw_removed)
    pruned = _ir.NetworkIR(new_components, list(ir.edges), tuple(input_shape),
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


def format_speedup_line(base_macs: int, pruned_macs: int) -> str:
    return (f"speedup {base_macs / pruned_macs:.2f}x "
            f"(MACs {base_macs} -> {pruned_macs})")


# ---------------------------------------------------------------------------
# Plan construction


def _group_scores(ir, group: Group, criterion: str, topn: int | None,
                  rng: np.random.Generator | None, scope: str = "full",
                  seed_component: str | None = None) -> np.ndarray:
    if criterion == "random":
        if rng is None:
            raise ValueError("random criterion needs an rng")
        return rng.random(group.width)
    imp = group_l2_importance(ir, group, scope, seed_component)
    return relative_score(imp, topn or default_topn(group.width))


def _seed_component_for(group: Group, ir) -> str | None:
    """First conv/linear member component; the no-grouping criterion
    scores a group by this single layer."""
    for m in sorted(group.members, key=lambda m: m.half_index):
        if ir.component(m.half.component_id).kind in ("conv2d", "linear"):
            return m.half.component_id
    return None


def scores_for_strategy(ir, group: Group, strategy: str,
                        topn: int | None = None,
                        rng: np.random.Generator | None = None) -> np.ndarray:
    """Selection scores per canonical index under an ablation strategy."""
    if strategy == "random":
        return _group_scores(ir, group, "random", topn, rng)
    if strategy == "conv-only":
        return _group_scores(ir, group, "norm", topn, rng, scope="conv")
    if strategy == "no-grouping":
        seed = _seed_component_for(group, ir)
        if seed is None:
            return _group_scores(ir, group, "norm", topn, rng)
        return _group_scores(ir, group, "norm", topn, rng, scope="seed",
                             seed_component=seed)
    return _group_scores(ir, group, "norm", topn, rng)


def build_uniform_plan(ir, groups, ratio: float, strategy: str = "full-grouping",
                       topn: int | None = None,
                       rng: np.random.Generator | None = None) -> PrunePlan:
    """Same prune ratio in every eligible group: floor(ratio * width)
    lowest-scoring indices, honoring min_keep, atomic units and the
    group's concat/split port windows."""
    plan = PrunePlan(provenance={"criterion": strategy, "mode": "uniform",
                                 "ratio": ratio})
    for group in prunable_groups(ir, groups):
        scores = scores_for_strategy(ir, group, strategy, topn, rng)
        sel = select_prune_indices(scores, ratio=ratio,
                                   min_keep=min_keep_for(ir, group),
                                   units=group.units,
                                   windows=group.port_windows(ir))
        plan.entries.append(PlanEntry(group.group_id, group.fingerprint,
                                      sel.indices))
    return plan


def build_learned_plan(ir, groups, macs_fraction: float,
                       strategy: str = "full-grouping",
                       topn: int | None = None,
                       rng: np.random.Generator | None = None) -> PrunePlan:
    """Global-threshold selection: greedily remove the lowest-scoring
    units across all groups until MACs drop to macs_fraction of the base,
    honoring per-group min_keep and skipping any unit that would empty a
    concat/split port window.

    MACs are tracked incrementally: every half keeps a count of its kept
    channels, and accepting a unit narrows only its own group's members
    and recomputes only the conv/linear components they belong to. Beyond
    scoring the groups, the cost is O(H + U log U + M) for H halves, U
    candidate units and M (member, canonical index) pairs of the eligible
    groups.
    """
    if not (0 < macs_fraction <= 1):
        raise ValueError("macs_fraction must be in (0, 1]")
    shapes = engine.infer_shapes(ir)
    eligible = prunable_groups(ir, groups)

    kept = {h.node_id: h.channels for h in ir.halves()}

    def macs_of(comp) -> int:
        cid = comp.comp_id
        return engine.component_macs(comp, shapes[cid], kept[f"{cid}:in"],
                                     kept[f"{cid}:out"])

    macs = {c.comp_id: macs_of(c) for c in ir.components}
    base = sum(macs.values())
    target = macs_fraction * base

    candidates = []
    for g in eligible:
        scores = scores_for_strategy(ir, g, strategy, topn, rng)
        for u in g.units:
            avg = float(sum(scores[i] for i in u)) / len(u)
            candidates.append((avg, g.group_id, u))
    candidates.sort(key=lambda t: (t[0], t[1], t[2][0]))

    by_id = {g.group_id: g for g in eligible}
    min_keep = {g.group_id: min_keep_for(ir, g) for g in eligible}
    guards = {g.group_id: PortGuard(g.port_windows(ir)) for g in eligible}
    selected: dict[str, set[int]] = {g.group_id: set() for g in eligible}
    current = base
    for _avg, gid, unit in candidates:
        if current <= target:
            break
        group = by_id[gid]
        if (group.width - len(selected[gid]) - len(unit) < min_keep[gid]
                or not guards[gid].take(unit)):
            continue
        selected[gid].update(unit)
        touched = set()
        for m in group.members:
            t = m.transform
            end = t.delta + t.span(m.half.channels)
            covered = sum(1 for k in unit if t.delta <= k < end)
            if covered:
                kept[m.half.node_id] -= t.factor * covered
                touched.add(m.half.component_id)
        for cid in touched:
            new = macs_of(ir.component(cid))
            current += new - macs[cid]
            macs[cid] = new
    plan = PrunePlan(provenance={"criterion": strategy, "mode": "learned",
                                 "macs_fraction": macs_fraction})
    for g in eligible:
        plan.entries.append(PlanEntry(g.group_id, g.fingerprint,
                                      tuple(sorted(selected[g.group_id]))))
    return plan


def end_to_end_prune(ir, ratio: float, mode: str = "uniform",
                     strategy: str = "full-grouping", topn: int | None = None,
                     seed: int = 0):
    """Importance -> plan -> prune, plus a report of what happened.

    In uniform mode, ratio is the per-group fraction of indices removed.
    In learned mode, ratio is the target fraction of MACs removed and a
    single global score threshold decides where the width goes.
    """
    if mode not in ("uniform", "learned"):
        raise ValueError(f"unknown mode {mode!r}")
    d = build_depgraph(ir)
    groups = extract_groups(d)
    rng = np.random.default_rng(seed)
    if mode == "uniform":
        plan = build_uniform_plan(ir, groups, ratio, strategy, topn, rng)
    else:
        plan = build_learned_plan(ir, groups, 1.0 - ratio, strategy, topn, rng)
    plan.provenance["config_hash"] = config_hash(
        {"ratio": ratio, "mode": mode, "strategy": strategy,
         "topn": topn, "seed": seed})
    pruned = prune(ir, plan, groups)
    base_macs = engine.count_macs(ir)
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

"""Pruning groups: connected components of the dependency graph, with
per-member index transforms.

A group is the maximal set of half nodes reachable from one another in
the dependency graph. All members prune together at a shared canonical
index. Transforms map the canonical coordinate onto each member's local
prunable indices:

* a member can cover a window of the canonical range (concat/split
  introduce offsets),
* one canonical index can expand to several local indices (flatten maps
  one channel to spatial_size features),
* grouped convolutions make runs of canonical indices atomic: whole
  channel groups must be pruned together, tracked as selection units.

Transform propagation happens during traversal so that inconsistent
channel arithmetic fails here, at analysis time, not at pruning time.

Consumers read a group through two things only.
``IndexTransform.canonical(channels)`` maps every local index of a member
to its canonical index at once (``delta + arange(channels) // factor``),
so one numpy gather or ``bincount`` replaces a loop over canonical
indices. ``Group.slices(ir)`` yields each parameter slice of the group
once per (tensor, axis), in member order: importance sums squared norms
over it, the sparsity regularizer scales it, and pruning deletes from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd, lcm, prod

import numpy as np

from . import ir as _ir
from .dependency import DependencyGraph
from .errors import GroupingError
from .kinds import SPECS
from .reporting import write_binary_matrix


@dataclass(frozen=True)
class IndexTransform:
    """Affine map from the canonical group coordinate to member-local
    prunable indices.

    Canonical index k is covered iff delta <= k < delta + channels/factor;
    it maps to the factor local indices [(k-delta)*factor, (k-delta+1)*factor).
    block > 1 marks grouped-conv members whose local indices are only
    prunable in aligned runs of that length.
    """

    delta: int = 0
    factor: int = 1
    block: int = 1

    def span(self, channels: int) -> int:
        return channels // self.factor

    def canonical(self, channels: int) -> np.ndarray:
        """Canonical index of each of the member's local indices."""
        return self.delta + np.arange(channels) // self.factor

    @property
    def variant(self) -> str:
        parts = []
        if self.delta != 0:
            parts.append(f"offset({self.delta})")
        if self.factor != 1:
            parts.append(f"expand({self.factor})")
        if self.block != 1:
            parts.append(f"group_block({self.block})")
        return "+".join(parts) if parts else "identity"


@dataclass(frozen=True)
class GroupMember:
    half: "_ir.HalfNode"
    half_index: int
    transform: IndexTransform


class Group:
    """Set of half nodes pruned simultaneously at a canonical index."""

    def __init__(self, group_id: str, members: list[GroupMember], width: int,
                 units: tuple[tuple[int, ...], ...]):
        self.group_id = group_id
        self.members = members
        self.width = width
        self.units = units
        self.fingerprint = _fingerprint(members, width)

    def member_ids(self) -> set[str]:
        return {m.half.node_id for m in self.members}

    def slices(self, ir):
        """(member, role, tensor name, axis) of every parameter slice the
        group removes, once per (tensor, axis), in member order.

        Both halves of a batchnorm or grouped conv slice the same tensors
        at the same indices; the first member to name them yields them.
        """
        seen = set()
        for m in self.members:
            comp = ir.component(m.half.component_id)
            for role, axis in m.half.scheme:
                name = comp.params[role]
                if (name, axis) not in seen:
                    seen.add((name, axis))
                    yield m, role, name, axis

    def port_windows(self, ir) -> list[set[int]]:
        """Canonical indices behind each window of the group's input halves
        that pruning must not empty (the ports of a concat or split)."""
        windows = []
        for m in self.members:
            if m.half.side != "in":
                continue
            comp = ir.component(m.half.component_id)
            for off, width in SPECS[comp.kind].windows(comp.attrs):
                canonical = m.transform.canonical(m.half.channels)
                windows.append(set(canonical[off:off + width].tolist()))
        return windows

    def __repr__(self):
        return (f"Group({self.group_id}, width={self.width}, "
                f"members={sorted(self.member_ids())})")


def _fingerprint(members, width) -> str:
    h = hashlib.sha1()
    h.update(str(width).encode())
    for m in sorted(members, key=lambda m: m.half_index):
        t = m.transform
        h.update(f"|{m.half.node_id}:{t.delta}:{t.factor}:{t.block}".encode())
    return h.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Traversal with transform propagation
#
# A member's placement (o, f) puts its local index i at o + i*f in the
# working coordinate of the traversal. A dependency step (neighbour, shift,
# num, den) maps it to the neighbour's placement (o - shift*f, f*num/den).
# Placements are ints. Each traversal starts at f = scale, the product of
# num over all steps, which holds the num of both directions of every edge.
# A member is placed along a simple path from the seed, which crosses each
# edge once and so divides by a distinct factor of scale at each step, and
# a step back across that path's last edge only undoes it: f*num // den is
# exact at every step.


def _whole(x: int, unit: int, what: str, a: str, b: str) -> int:
    q, r = divmod(x, unit)
    if r:
        g = gcd(x, unit)
        raise GroupingError(
            f"inconsistent channel arithmetic between {a} and {b}: "
            f"{what} = {x // g}/{unit // g} is not an integer")
    return q


def _normalize(d: DependencyGraph, placements: dict[int, tuple[int, int]]) -> tuple[int, dict[int, IndexTransform], tuple]:
    """Rebase working-coordinate placements to the canonical coordinate.

    The canonical unit is the lcm of the members' steps, the coarsest
    granularity at which every member's placement is integer-aligned, so
    each member's expansion unit // f is a whole number. The group width
    and each member's offset must be whole units too; a remainder means
    the group's channel arithmetic is inconsistent and raises, with the
    ratio in lowest terms.
    """
    halves = d.halves
    indices = sorted(placements)
    first = halves[indices[0]].node_id
    unit = lcm(*(placements[i][1] for i in indices))
    o_min = min(placements[i][0] for i in indices)
    extent = max(placements[i][0] + halves[i].channels * placements[i][1]
                 for i in indices)
    width = _whole(extent - o_min, unit, "group width", first, first)

    transforms = {}
    blocks = []  # (delta, factor, span, local block) for unit merging
    for i in indices:
        o, f = placements[i]
        factor = unit // f
        delta = _whole(o - o_min, unit, f"offset of {halves[i].node_id}",
                       first, halves[i].node_id)
        if halves[i].channels % factor:
            raise GroupingError(
                f"inconsistent channel arithmetic between {first} and "
                f"{halves[i].node_id}: {halves[i].channels} channels do not "
                f"split into units of {factor}")
        comp = d.ir.component(halves[i].component_id)
        block = SPECS[comp.kind].block(comp.attrs)
        transforms[i] = IndexTransform(delta=delta, factor=factor, block=block)
        if block > 1:
            blocks.append((delta, factor, halves[i].channels // factor, block))

    units = selection_units(width, blocks)
    return width, transforms, units


def _union_roots(n: int, pairs) -> list[int]:
    """Union-find over items 0..n-1 joined by pairs; returns each item's
    root, which is the smallest item of its set."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def selection_units(width: int, blocks) -> tuple[tuple[int, ...], ...]:
    """Partition canonical indices into atomic selection units.

    blocks lists (delta, factor, span, block) per grouped-conv member: each
    run of block local indices forces the canonical indices it touches to
    be selected together, and overlapping runs from several members merge.
    Units are ordered by their smallest index.
    """
    if not blocks:
        return tuple((k,) for k in range(width))
    pairs = []
    for delta, factor, span, block in blocks:
        n_local = span * factor
        for start in range(0, n_local, block):
            first = delta + start // factor
            last = delta + (min(start + block, n_local) - 1) // factor
            pairs.extend((first, k) for k in range(first + 1, last + 1))
    units: dict[int, list[int]] = {}
    for k, root in enumerate(_union_roots(width, pairs)):
        units.setdefault(root, []).append(k)
    return tuple(tuple(u) for u in units.values())


def extract_groups(d: DependencyGraph) -> list[Group]:
    """All pruning groups of a network, in deterministic order.

    Single-pass connected components with a visited set (O(N+E)); members
    are discovered breadth-first along the graph's steps and placements
    propagate along the way, so an inconsistent pair fails immediately
    with both names.
    """
    halves = d.halves
    scale = prod(num for steps in d.steps for _, _, num, _ in steps)
    visited: set[int] = set()
    groups: list[Group] = []

    for seed in range(d.order):
        if seed in visited:
            continue
        placements = {seed: (0, scale)}
        order = [seed]
        for a in order:   # breadth-first: order grows while it is walked
            o, f = placements[a]
            for b, shift, num, den in d.steps[a]:
                cand = (o - shift * f, f * num // den)
                if b not in placements:
                    placements[b] = cand
                    order.append(b)
                elif placements[b] != cand:
                    raise GroupingError(
                        "inconsistent channel arithmetic between "
                        f"{halves[a].node_id} and {halves[b].node_id}")
        width, transforms, units = _normalize(d, placements)
        members = [GroupMember(halves[i], i, transforms[i])
                   for i in sorted(placements)]
        groups.append(Group(f"g{len(groups):03d}", members, width, units))
        visited.update(placements)
    return groups


# ---------------------------------------------------------------------------
# Component-level grouping matrix


class GroupingMatrix:
    """L x L boolean matrix: 1 iff two components share a pruning group.

    Derived from connected components of the dependency graph collapsed to
    component granularity; the diagonal is all ones by construction.
    groups lists each connected set's component ids in component order,
    the sets ordered by their first member.
    """

    def __init__(self, component_ids: list[str], matrix: np.ndarray,
                 groups: list[list[str]]):
        self.component_ids = component_ids
        self.matrix = matrix
        self.groups = groups


def derive_grouping_matrix(d: DependencyGraph) -> GroupingMatrix:
    """Collapse the dependency graph to components and take connected
    components: component i couples with j iff any path joins them."""
    # half h belongs to component h // 2 in the canonical half order
    pairs = ((a // 2, b // 2) for a, b in map(tuple, d.labels))
    roots = _union_roots(len(d.ir.components), pairs)
    ids = [c.comp_id for c in d.ir.components]
    groups: dict[int, list[str]] = {}
    for cid, root in zip(ids, roots):
        groups.setdefault(root, []).append(cid)
    roots = np.array(roots, dtype=np.int64)
    matrix = (roots[:, None] == roots[None, :]).astype(np.int8)
    return GroupingMatrix(ids, matrix, list(groups.values()))


def export_grouping(g: GroupingMatrix, path) -> None:
    write_binary_matrix(path, "component", g.component_ids, g.matrix)


def group_report(groups: list[Group]) -> str:
    """Human-readable listing of each group's members and transforms."""
    lines = []
    for g in groups:
        lines.append(f"group {g.group_id}  width={g.width}  "
                     f"members={len(g.members)}")
        for m in sorted(g.members, key=lambda m: m.half_index):
            lines.append(f"  {m.half.node_id:<24} channels={m.half.channels:<5} "
                         f"transform={m.transform.variant}")
        atoms = [u for u in g.units if len(u) > 1]
        if atoms:
            lines.append(f"  atomic units: {atoms}")
    return "\n".join(lines) + "\n"

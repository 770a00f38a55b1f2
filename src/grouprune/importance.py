"""Group-level importance scores and prune-index selection.

The importance of canonical index k in a group is the summed squared L2
norm of every parameter slice that would be removed by pruning k. Slices
are deduplicated across members (a batchnorm contributes its per-channel
state once, even though both of its halves sit in the group). A relative
score normalizes by the mass of the N largest entries so that scores are
comparable across groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class GroupImportance:
    group_id: str
    values: np.ndarray            # I_{g,k}, length = group width
    member_scope: str             # "full" | "conv" | "seed"

    @property
    def width(self) -> int:
        return len(self.values)


def _scope_keep(comp, scope: str, seed_component: str | None) -> bool:
    if scope == "full":
        return True
    if scope == "conv":
        return comp.kind == "conv2d"
    if scope == "seed":
        return comp.comp_id == seed_component
    raise ValueError(f"unknown importance scope {scope!r}")


def sq_norms(w: np.ndarray, axis: int) -> np.ndarray:
    """Squared L2 norm of each slice of w along axis, in float64."""
    other = tuple(i for i in range(w.ndim) if i != axis)
    return (w.astype(np.float64) ** 2).sum(axis=other)


def group_l2_importance(ir, group, scope: str = "full",
                        seed_component: str | None = None) -> GroupImportance:
    """Sum of squared slice norms per canonical index.

    Each slice of the group adds its norms at its members' canonical
    indices, in the fixed order of Group.slices. Pass-through members own
    no slices and contribute zero. scope narrows which member kinds
    count: "conv" keeps conv2d members only, "seed" keeps a single named
    component (both used by ablation strategies).
    """
    values = np.zeros(group.width, dtype=np.float64)
    for m, comp, _role, name, axis in group.slices(ir):
        if _scope_keep(comp, scope, seed_component):
            values += np.bincount(m.transform.canonical(m.half.channels),
                                  weights=sq_norms(ir.weights[name], axis),
                                  minlength=group.width)
    return GroupImportance(group.group_id, values, scope)


def relative_score(imp: GroupImportance, n: int) -> np.ndarray:
    """Scores normalized by the mass of the n largest entries.

    score_k = n * I_k / sum(TopN(I)); ties inside the TopN cut are broken
    toward the lower index. An all-zero importance vector maps to all-zero
    scores (documented sentinel, no division by zero).
    """
    values = imp.values
    k = len(values)
    if not (1 <= n <= k):
        raise ValueError(f"n must be in [1, {k}], got {n}")
    order = sorted(range(k), key=lambda i: (-values[i], i))
    top_mass = float(values[order[:n]].sum())
    if top_mass == 0.0:
        return np.zeros(k, dtype=np.float64)
    return n * values / top_mass


def default_topn(width: int) -> int:
    return max(1, (width + 1) // 2)


@dataclass
class PruneSelection:
    indices: tuple[int, ...]


class PortGuard:
    """Keeps at least one index of every window of canonical indices.

    A window is the set of canonical indices behind one port of a concat
    or split; pruning all of them would empty the port. take() refuses a
    unit that holds the last remaining index of any window.
    """

    def __init__(self, windows):
        self._windows: dict[int, list[set[int]]] = {}
        for w in windows:
            left = set(w)
            for k in left:
                self._windows.setdefault(k, []).append(left)

    def take(self, unit) -> bool:
        """Record the unit as pruned unless that empties a window; returns
        whether it was recorded."""
        hit = {id(w): w for k in unit for w in self._windows.get(k, ())}
        if any(w <= set(unit) for w in hit.values()):
            return False
        for w in hit.values():
            w.difference_update(unit)
        return True


def select_prune_indices(scores, ratio: float, min_keep: int = 1,
                         units=None, windows=()) -> PruneSelection:
    """Lowest-scoring indices to prune, never leaving fewer than min_keep.

    Prunes floor(ratio*K) indices; ties are pruned lower-index first.
    units, when given, are atomic index sets that must be selected
    together (grouped convolutions); a unit's score is the sum of its
    indices' scores. A unit that would take the last index of one of the
    windows (see PortGuard) is skipped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    k = len(scores)
    if not (0 <= ratio < 1):
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")

    if units is None:
        units = tuple((i,) for i in range(k))
    unit_score = [(float(sum(scores[i] for i in u)), u[0], u) for u in units]
    unit_score.sort(key=lambda t: (t[0], t[1]))

    budget = int(ratio * k)
    guard = PortGuard(windows)
    chosen: list[int] = []
    for _, _, u in unit_score:
        n = len(chosen) + len(u)
        if n > budget or k - n < min_keep:
            break
        if guard.take(u):
            chosen.extend(u)
    return PruneSelection(tuple(sorted(chosen)))

"""Group-level importance scores and prune-index selection.

The importance of canonical index k in a group is the summed squared L2
norm of every parameter slice that would be removed by pruning k. Slices
are deduplicated across members (a batchnorm contributes its per-channel
state once, even though both of its halves sit in the group). A relative
score normalizes by the mass of the N largest entries so that scores are
comparable across groups. A grouping strategy picks the members that
count beforehand (sparse.counted_group); scoring reads every member.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConfigError


def sq_norms(w: np.ndarray, axis: int) -> np.ndarray:
    """Squared L2 norm of each slice of w along axis, in float64."""
    other = tuple(i for i in range(w.ndim) if i != axis)
    w64 = w.astype(np.float64)
    return np.square(w64, out=w64).sum(axis=other)


def group_l2_importance(ir, group) -> np.ndarray:
    """Sum of squared slice norms per canonical index, in float64.

    Each slice of the group adds its norms at its members' canonical
    indices, in the fixed order of Group.slices. Pass-through members own
    no slices and contribute zero.
    """
    values = np.zeros(group.width, dtype=np.float64)
    for m, _role, name, axis in group.slices(ir):
        values += np.bincount(m.transform.canonical(m.half.channels),
                              weights=sq_norms(ir.weights[name], axis),
                              minlength=group.width)
    return values


def relative_score(values: np.ndarray, n: int) -> np.ndarray:
    """Scores normalized by the mass of the n largest entries.

    score_k = n * I_k / sum(TopN(I)); ties inside the TopN cut are broken
    toward the lower index. An all-zero importance vector maps to all-zero
    scores (documented sentinel, no division by zero).
    """
    k = len(values)
    if not (1 <= n <= k):
        raise ConfigError(f"topn must be in [1, {k}], got {n}")
    order = np.argsort(-values, kind="stable")
    top_mass = float(values[order[:n]].sum())
    if top_mass == 0.0:
        return np.zeros(k, dtype=np.float64)
    return n * values / top_mass


def default_topn(width: int) -> int:
    return max(1, (width + 1) // 2)


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


def unit_sums(values, units) -> np.ndarray:
    """Sum of values over each unit, in float64.

    units partition the indices of values into ascending tuples, so
    np.bincount adds each unit's values in index order from 0.0: the same
    bytes as float(sum(values[i] for i in u)).
    """
    sizes = np.fromiter(map(len, units), dtype=np.int64, count=len(units))
    owner = np.empty(len(values), dtype=np.int64)
    owner[np.fromiter(chain.from_iterable(units), dtype=np.int64,
                      count=len(values))] = np.repeat(np.arange(len(units)), sizes)
    return np.bincount(owner, weights=values, minlength=len(units))


def select_prune_indices(scores, ratio: float, min_keep: int, units,
                         windows) -> tuple[int, ...]:
    """Lowest-scoring indices to prune, never leaving fewer than min_keep.

    Prunes floor(ratio*K) indices for a ratio in [0, 1) and a min_keep of
    at least 1, both decided by the caller; ties are pruned lower-index
    first.
    units partition the indices into atomic tuples that must be selected
    together (a grouped convolution's; a single index otherwise); a unit's
    score is the sum of its indices' scores, and units are ordered once by
    (score, first index). A unit that would take the last index of one of
    the windows (see PortGuard) is skipped.
    """
    scores = np.asarray(scores, dtype=np.float64)
    k = len(scores)
    first = np.array([u[0] for u in units], dtype=np.int64)
    cap = min(int(ratio * k), k - min_keep)
    guard = PortGuard(windows) if windows else None
    chosen: list[int] = []
    for j in np.lexsort((first, unit_sums(scores, units))).tolist():
        u = units[j]
        if len(chosen) + len(u) > cap:
            break
        if guard is None or guard.take(u):
            chosen.extend(u)
    return tuple(sorted(chosen))

"""Dependency graph over the 2L half nodes of a network.

Two local rules generate every edge:

* inter: a producer's output half and a consumer's input half denote the
  same intermediate feature, so they must be pruned together;
* intra: the two halves of one component are coupled iff they share the
  same pruning scheme (batchnorm, and every pass-through kind).

Path connectivity in this graph is what defines pruning groups; the
builder itself never looks past directly connected pairs.
"""

from __future__ import annotations

from . import ir as _ir
from .errors import GroupruneError
from .reporting import write_csv

INTER = "inter"
INTRA = "intra"


class DependencyGraph:
    """Symmetric adjacency over half nodes, stored sparsely.

    Half nodes are identified by their position in the canonical order:
    components in descriptor order, input half before output half.
    """

    def __init__(self, ir: "_ir.NetworkIR"):
        self.ir = ir
        self.halves = ir.halves()
        self.index = {h.node_id: i for i, h in enumerate(self.halves)}
        self.adj: dict[int, set[int]] = {i: set() for i in range(len(self.halves))}
        self.labels: dict[frozenset[int], str] = {}

    @property
    def order(self) -> int:
        return len(self.halves)

    def add_edge(self, a: int, b: int, label: str) -> None:
        self.adj[a].add(b)
        self.adj[b].add(a)
        self.labels[frozenset((a, b))] = label

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def label(self, a: int, b: int) -> str | None:
        return self.labels.get(frozenset((a, b)))

    def neighbors(self, a: int) -> list[int]:
        return sorted(self.adj[a])

    def dense(self):
        """0/1 adjacency matrix in canonical half order."""
        import numpy as np

        n = self.order
        m = np.zeros((n, n), dtype=np.int8)
        for a, nbrs in self.adj.items():
            for b in nbrs:
                m[a, b] = 1
        return m

    def count(self, label: str) -> int:
        return sum(1 for lab in self.labels.values() if lab == label)


def build_depgraph(ir: "_ir.NetworkIR") -> DependencyGraph:
    """Construct the dependency graph of a validated IR.

    Runs in O(L + |edges|): connectivity contributes one inter edge per IR
    edge, and each component is checked once for scheme-equal halves.
    """
    d = DependencyGraph(ir)
    for e in ir.edges:
        a = d.index[f"{e.src}:out"]
        b = d.index[f"{e.dst}:in"]
        d.add_edge(a, b, INTER)
    for comp in ir.components:
        if _ir.scheme_for(comp, "in") == _ir.scheme_for(comp, "out"):
            a = d.index[f"{comp.comp_id}:in"]
            b = d.index[f"{comp.comp_id}:out"]
            d.add_edge(a, b, INTRA)
    return d


def export_depgraph(d: DependencyGraph, path) -> None:
    """Write the adjacency matrix as CSV: header and row labels carry the
    half-node legend (component:side)."""
    if d.order == 0:
        raise GroupruneError("no components: nothing to export")
    m = d.dense()
    header = ["half"] + [h.node_id for h in d.halves]
    rows = [[h.node_id] + m[i].tolist() for i, h in enumerate(d.halves)]
    write_csv(path, header, rows)

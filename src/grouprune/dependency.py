"""Dependency graph over the 2L half nodes of a network.

Two local rules generate every edge:

* inter: a producer's output half and a consumer's input half denote the
  same intermediate feature, so they must be pruned together;
* intra: the two halves of one component are coupled iff they share the
  same pruning scheme (batchnorm, and every pass-through kind).

Path connectivity in this graph is what defines pruning groups; the
builder itself never looks past directly connected pairs.

Each edge also records how an index steps across it, once per direction,
as ``(neighbour, shift, ratio)``: local index i of one half lines up with
index ``i + shift`` of the neighbour, and one neighbour index spans
``ratio`` of this half's indices. ``shift`` is the difference of the two
port offsets (concat inputs and split outputs sit at an offset,
everything else at 0) and the reverse step carries ``-shift``; ``ratio``
is ``1/spatial_size`` from a flatten's input half to its output half,
``spatial_size`` back, and 1 everywhere else. Parallel IR edges between
the same halves keep one step each, and each half's steps are sorted by
neighbour. This is the only walk over the IR's wiring; grouping reads
the steps and never looks at the IR's edges.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

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
        self.steps: list[list[tuple[int, int, int | Fraction]]] = [
            [] for _ in self.halves]
        self.labels: dict[frozenset[int], str] = {}

    @property
    def order(self) -> int:
        return len(self.halves)

    def add_edge(self, a: int, b: int, label: str, shift: int,
                 ratio: int | Fraction) -> None:
        self.steps[a].append((b, shift, ratio))
        self.steps[b].append((a, -shift, 1 if ratio == 1 else 1 / ratio))
        self.labels[frozenset((a, b))] = label

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.labels

    def label(self, a: int, b: int) -> str | None:
        return self.labels.get(frozenset((a, b)))

    def dense(self) -> np.ndarray:
        """0/1 adjacency matrix in canonical half order."""
        m = np.zeros((self.order, self.order), dtype=np.int8)
        for pair in self.labels:
            a, b = tuple(pair)
            m[a, b] = m[b, a] = 1
        return m

    def count(self, label: str) -> int:
        return sum(1 for lab in self.labels.values() if lab == label)


def build_depgraph(ir: "_ir.NetworkIR") -> DependencyGraph:
    """Construct the dependency graph of a validated IR.

    Runs in O(L + |edges| log |edges|): connectivity contributes one inter
    edge per IR edge, each component is checked once for scheme-equal
    halves, and each half's steps are sorted once.
    """
    d = DependencyGraph(ir)
    for e in ir.edges:
        src = ir.component(e.src)
        dst = ir.component(e.dst)
        shift = (_ir.input_port_offset(dst, e.dst_port)
                 - _ir.output_port_offset(src, e.src_port))
        d.add_edge(d.index[f"{e.src}:out"], d.index[f"{e.dst}:in"], INTER,
                   shift, 1)
    for comp in ir.components:
        if _ir.scheme_for(comp, "in") == _ir.scheme_for(comp, "out"):
            ratio = (Fraction(1, comp.attrs["spatial_size"])
                     if comp.kind == "flatten" else 1)
            d.add_edge(d.index[f"{comp.comp_id}:in"],
                       d.index[f"{comp.comp_id}:out"], INTRA, 0, ratio)
    for steps in d.steps:
        steps.sort(key=lambda s: s[0])
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

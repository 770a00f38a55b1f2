"""Dependency graph over the 2L half nodes of a network.

Two local rules generate every edge:

* inter: a producer's output half and a consumer's input half denote the
  same intermediate feature, so they must be pruned together;
* intra: the two halves of one component are coupled iff they share the
  same pruning scheme (batchnorm, and every pass-through kind).

Path connectivity in this graph is what defines pruning groups; the
builder itself never looks past directly connected pairs.

Each edge also records how an index steps across it, once per direction,
as ``(neighbour, shift, num, den)``: local index i of one half lines up with
index ``i + shift`` of the neighbour, and one neighbour index spans
``num/den`` of this half's indices. ``shift`` is the difference of the two
port offsets (concat inputs and split outputs sit at an offset,
everything else at 0) and the reverse step carries ``-shift``. ``num/den``
is the two halves' width ratio in lowest terms, this half's over the
neighbour's: ``(1, 1)`` across every inter edge, ``(1, spatial_size)``
from a flatten's input half to its output half, and the reverse step
swaps ``num`` and ``den``. Parallel IR edges between the same halves
keep one step each, and each half's steps are sorted by neighbour. This
is the only walk over the IR's wiring; grouping reads the steps and
never looks at the IR's edges.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import ir as _ir
from .reporting import write_binary_matrix

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
        self.steps: list[list[tuple[int, int, int, int]]] = [
            [] for _ in self.halves]
        self.labels: dict[frozenset[int], str] = {}

    @property
    def order(self) -> int:
        return len(self.halves)

    def add_edge(self, a: int, b: int, label: str, shift: int, num: int,
                 den: int) -> None:
        self.steps[a].append((b, shift, num, den))
        self.steps[b].append((a, -shift, den, num))
        self.labels[frozenset((a, b))] = label

    def dense(self) -> np.ndarray:
        """0/1 adjacency matrix in canonical half order."""
        m = np.zeros((self.order, self.order), dtype=np.int8)
        for pair in self.labels:
            a, b = tuple(pair)
            m[a, b] = m[b, a] = 1
        return m


def build_depgraph(ir: "_ir.NetworkIR") -> DependencyGraph:
    """Construct the dependency graph of a validated IR.

    Runs in O(L + |edges| log |edges|): connectivity contributes one inter
    edge per IR edge, each component is checked once for scheme-equal
    halves, and each half's steps are sorted once.
    """
    d = DependencyGraph(ir)
    for e in ir.edges:
        shift = (ir.ports(e.dst).ins[e.dst_port][0]
                 - ir.ports(e.src).outs[e.src_port][0])
        d.add_edge(d.index[f"{e.src}:out"], d.index[f"{e.dst}:in"], INTER,
                   shift, 1, 1)
    for a in range(0, d.order, 2):   # each component's input, output half
        h_in, h_out = d.halves[a], d.halves[a + 1]
        if h_in.scheme == h_out.scheme:
            g = gcd(h_in.channels, h_out.channels)
            d.add_edge(a, a + 1, INTRA, 0, h_in.channels // g,
                       h_out.channels // g)
    for steps in d.steps:
        steps.sort(key=lambda s: s[0])
    return d


def export_depgraph(d: DependencyGraph, path) -> None:
    """Write the adjacency matrix as CSV: header and row labels carry the
    half-node legend (component:side)."""
    write_binary_matrix(path, "half", [h.node_id for h in d.halves], d.dense())

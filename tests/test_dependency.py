from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from grouprune import ir as _ir, zoo
from grouprune.dependency import INTER, INTRA, build_depgraph, export_depgraph
from grouprune.errors import GroupruneError
from grouprune.ir import NetworkIR, batchnorm, conv2d, init_weights, linear
from grouprune.random_nets import random_ir
from grouprune.reporting import read_csv

from reference import boolean_closure


def test_two_layer_mlp_single_inter_edge():
    ir = zoo.two_layer_mlp()
    d = build_depgraph(ir)
    assert d.count(INTER) == 1
    assert d.count(INTRA) == 0
    a = d.index["fc1:out"]
    b = d.index["fc2:in"]
    assert d.has_edge(a, b)
    assert d.label(a, b) == INTER


def test_conv_bn_inter_plus_bn_intra():
    comps = [conv2d("c", 3, 8, kernel=1), batchnorm("bn", 8)]
    ir = NetworkIR(comps, [("c", 0, "bn", 0)], (3, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    d = build_depgraph(ir.check_valid())
    assert d.count(INTER) == 1
    assert d.count(INTRA) == 1
    # the conv itself carries no intra edge: its halves' schemes diverge
    assert not d.has_edge(d.index["c:in"], d.index["c:out"])
    assert d.has_edge(d.index["bn:in"], d.index["bn:out"])


def test_residual_chain_reaches_whole_block():
    # pruning conv2 triggers bn2 downstream and bn1 <- conv1 upstream;
    # the closure from conv2's two halves must contain all of them
    ir = zoo.fig_block()
    d = build_depgraph(ir)
    reach = boolean_closure(d.dense())
    idx = d.index
    up = set(np.flatnonzero(reach[idx["conv2:in"]]))
    down = set(np.flatnonzero(reach[idx["conv2:out"]]))
    assert {idx["conv1:out"], idx["bn1:in"], idx["bn1:out"]} <= up
    assert {idx["bn2:in"], idx["bn2:out"], idx["add:in"]} <= down


def test_symmetry_and_edge_counts_on_random_irs():
    for seed in range(25):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        m = d.dense()
        assert (m == m.T).all()
        distinct_pairs = {(f"{e.src}:out", f"{e.dst}:in") for e in ir.edges}
        assert d.count(INTER) == len(distinct_pairs)
        expect_intra = sum(
            1 for c in ir.components
            if _ir.scheme_for(c, "in") == _ir.scheme_for(c, "out"))
        assert d.count(INTRA) == expect_intra


def test_edge_set_matches_rules_exactly():
    # independent re-derivation of the expected edge set
    for seed in (3, 11, 19):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        expected = set()
        for e in ir.edges:
            expected.add(frozenset((d.index[f"{e.src}:out"],
                                    d.index[f"{e.dst}:in"])))
        for c in ir.components:
            if _ir.scheme_for(c, "in") == _ir.scheme_for(c, "out"):
                expected.add(frozenset((d.index[f"{c.comp_id}:in"],
                                        d.index[f"{c.comp_id}:out"])))
        assert set(d.labels) == expected


def test_passthrough_components_always_carry_intra():
    ir = zoo.split_cnn()
    d = build_depgraph(ir)
    for comp in ir.components:
        if comp.kind in ("activation", "pool", "eltwise", "concat", "split",
                         "flatten"):
            assert d.label(d.index[f"{comp.comp_id}:in"],
                           d.index[f"{comp.comp_id}:out"]) == INTRA


def test_half_order_is_canonical():
    ir = zoo.residual_cnn()
    d = build_depgraph(ir)
    ids = [h.node_id for h in d.halves]
    for i, comp in enumerate(ir.components):
        assert ids[2 * i] == f"{comp.comp_id}:in"
        assert ids[2 * i + 1] == f"{comp.comp_id}:out"


def test_export_and_reparse(tmp_path):
    ir = zoo.fig_block()
    d = build_depgraph(ir)
    path = tmp_path / "dep.csv"
    export_depgraph(d, path)
    header, rows = read_csv(path)
    assert header[0] == "half"
    assert header[1:] == [h.node_id for h in d.halves]
    assert len(rows) == 10  # 5 components -> 10 half nodes
    m = np.array([[int(x) for x in row[1:]] for row in rows])
    np.testing.assert_array_equal(m, d.dense())


def test_export_three_component_ir_is_6x6(tmp_path):
    ir = zoo.mlp([4, 4, 3])  # fc1, act1, fc2
    d = build_depgraph(ir)
    export_depgraph(d, tmp_path / "dep.csv")
    header, rows = read_csv(tmp_path / "dep.csv")
    assert len(rows) == 6 and len(header) == 7


def test_export_empty_network_errors(tmp_path):
    ir = NetworkIR([], [], (4,), [])
    d = build_depgraph(ir)
    with pytest.raises(GroupruneError, match="no components"):
        export_depgraph(d, tmp_path / "dep.csv")


def _port_offset(comp, port, kind):
    """Offset of a port inside a concat's input or a split's output,
    summed from the sizes attribute."""
    return sum(comp.attrs["sizes"][:port]) if comp.kind == kind else 0


def test_edges_store_their_index_steps():
    models = [build(seed=2) for _, build in sorted(zoo.BUNDLED.items())]
    models += [random_ir(seed) for seed in range(25)]
    for ir in models:
        d = build_depgraph(ir)
        expected = [[] for _ in d.halves]
        for e in ir.edges:
            a, b = d.index[f"{e.src}:out"], d.index[f"{e.dst}:in"]
            shift = (_port_offset(ir.component(e.dst), e.dst_port, "concat")
                     - _port_offset(ir.component(e.src), e.src_port, "split"))
            expected[a].append((b, shift, 1))
            expected[b].append((a, -shift, 1))
        for c in ir.components:
            if _ir.scheme_for(c, "in") != _ir.scheme_for(c, "out"):
                continue
            a, b = d.index[f"{c.comp_id}:in"], d.index[f"{c.comp_id}:out"]
            s = c.attrs["spatial_size"] if c.kind == "flatten" else 1
            expected[a].append((b, 0, Fraction(1, s)))
            expected[b].append((a, 0, s))
        for half, steps, want in zip(d.halves, d.steps, expected):
            assert Counter(steps) == Counter(want), half.node_id
            assert [s[0] for s in steps] == sorted(s[0] for s in steps)

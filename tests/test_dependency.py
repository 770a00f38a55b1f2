from collections import Counter

import numpy as np

from grouprune import zoo
from grouprune.dependency import INTER, INTRA, build_depgraph, export_depgraph
from grouprune.ir import NetworkIR, batchnorm, conv2d, init_weights
from random_nets import random_ir
import toy_models

from reference import boolean_closure, read_csv


def _count(d, label):
    return sum(1 for lab in d.labels.values() if lab == label)


def _label(d, a, b):
    return d.labels.get(frozenset((a, b)))


def _scheme_equal(ir):
    """Components whose two halves carry equal pruning schemes."""
    halves = ir.halves()
    return [c for i, c in enumerate(ir.components)
            if halves[2 * i].scheme == halves[2 * i + 1].scheme]


def test_two_layer_mlp_single_inter_edge():
    ir = toy_models.two_layer_mlp()
    d = build_depgraph(ir)
    assert _count(d, INTER) == 1
    assert _count(d, INTRA) == 0
    a = d.index["fc1:out"]
    b = d.index["fc2:in"]
    assert _label(d, a, b) is not None
    assert _label(d, a, b) == INTER


def test_conv_bn_inter_plus_bn_intra():
    comps = [conv2d("c", 3, 8, kernel=1), batchnorm("bn", 8)]
    ir = NetworkIR(comps, [("c", 0, "bn", 0)], (3, 4, 4), [("c", 0)])
    init_weights(ir, np.random.default_rng(0))
    d = build_depgraph(ir.check_valid())
    assert _count(d, INTER) == 1
    assert _count(d, INTRA) == 1
    # the conv itself carries no intra edge: its halves' schemes diverge
    assert _label(d, d.index["c:in"], d.index["c:out"]) is None
    assert _label(d, d.index["bn:in"], d.index["bn:out"]) == INTRA


def test_residual_chain_reaches_whole_block():
    # pruning conv2 triggers bn2 downstream and bn1 <- conv1 upstream;
    # the closure from conv2's two halves must contain all of them
    ir = toy_models.fig_block()
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
        assert _count(d, INTER) == len(distinct_pairs)
        assert _count(d, INTRA) == len(_scheme_equal(ir))


def test_edge_set_matches_rules_exactly():
    # independent re-derivation of the expected edge set
    for seed in (3, 11, 19):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        expected = set()
        for e in ir.edges:
            expected.add(frozenset((d.index[f"{e.src}:out"],
                                    d.index[f"{e.dst}:in"])))
        for c in _scheme_equal(ir):
            expected.add(frozenset((d.index[f"{c.comp_id}:in"],
                                    d.index[f"{c.comp_id}:out"])))
        assert set(d.labels) == expected


def test_passthrough_components_always_carry_intra():
    ir = toy_models.split_cnn()
    d = build_depgraph(ir)
    for comp in ir.components:
        if comp.kind in ("activation", "pool", "eltwise", "concat", "split",
                         "flatten"):
            assert _label(d, d.index[f"{comp.comp_id}:in"],
                          d.index[f"{comp.comp_id}:out"]) == INTRA


def test_half_order_is_canonical():
    ir = zoo.residual_cnn()
    d = build_depgraph(ir)
    ids = [h.node_id for h in d.halves]
    for i, comp in enumerate(ir.components):
        assert ids[2 * i] == f"{comp.comp_id}:in"
        assert ids[2 * i + 1] == f"{comp.comp_id}:out"


def test_export_and_reparse(tmp_path):
    ir = toy_models.fig_block()
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


def _port_offset(comp, port, kind):
    """Offset of a port inside a concat's input or a split's output,
    summed from the sizes attribute."""
    return sum(comp.attrs["sizes"][:port]) if comp.kind == kind else 0


def test_edges_store_their_index_steps():
    models = [build(seed=2) for _, build in sorted(toy_models.BUNDLED.items())]
    models += [random_ir(seed) for seed in range(25)]
    for ir in models:
        d = build_depgraph(ir)
        expected = [[] for _ in d.halves]
        for e in ir.edges:
            a, b = d.index[f"{e.src}:out"], d.index[f"{e.dst}:in"]
            shift = (_port_offset(ir.component(e.dst), e.dst_port, "concat")
                     - _port_offset(ir.component(e.src), e.src_port, "split"))
            expected[a].append((b, shift, 1, 1))
            expected[b].append((a, -shift, 1, 1))
        for c in _scheme_equal(ir):
            a, b = d.index[f"{c.comp_id}:in"], d.index[f"{c.comp_id}:out"]
            s = c.attrs["spatial_size"] if c.kind == "flatten" else 1
            expected[a].append((b, 0, 1, s))
            expected[b].append((a, 0, s, 1))
        for half, steps, want in zip(d.halves, d.steps, expected):
            assert Counter(steps) == Counter(want), half.node_id
            assert [s[0] for s in steps] == sorted(s[0] for s in steps)

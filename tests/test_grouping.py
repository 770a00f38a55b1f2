import numpy as np
import pytest

from grouprune.dependency import build_depgraph
from grouprune.errors import GroupingError
from grouprune.grouping import (IndexTransform, derive_grouping_matrix,
                                export_grouping, extract_groups, group_report)
from grouprune.ir import NetworkIR, activation, eltwise, init_weights, linear
from random_nets import random_ir
import toy_models
from toy_models import split

from reference import (boolean_closure, closure_components, literal_expansion,
                       read_csv, transform_locals)


def groups_as_sets(groups):
    return {frozenset(m.half_index for m in g.members) for g in groups}


def test_mlp_middle_group_identity_transforms():
    ir = toy_models.two_layer_mlp()
    groups = extract_groups(build_depgraph(ir))
    mids = [g for g in groups if g.member_ids() == {"fc1:out", "fc2:in"}]
    assert len(mids) == 1
    assert all(m.transform == IndexTransform() for m in mids[0].members)
    # network boundary halves form singleton groups
    assert {frozenset(g.member_ids()) for g in groups} == {
        frozenset({"fc1:in"}), frozenset({"fc1:out", "fc2:in"}),
        frozenset({"fc2:out"})}


def test_fig_block_group_from_conv2_output():
    ir = toy_models.fig_block()
    groups = extract_groups(build_depgraph(ir))
    out_group = next(g for g in groups if "conv2:out" in g.member_ids())
    assert {"bn2:in", "bn2:out", "add:in", "add:out"} <= out_group.member_ids()
    in_group = next(g for g in groups if "conv2:in" in g.member_ids())
    assert {"conv1:out", "bn1:in", "bn1:out"} <= in_group.member_ids()


def test_concat_offsets_into_consumer():
    ir = toy_models.concat_cnn(width_a=8, width_b=8)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "cat:in" in g.member_ids())
    by_id = {m.half.node_id: m for m in g.members}
    assert by_id["branch_a:out"].transform.delta == 0
    assert by_id["branch_b:out"].transform.delta == 8
    assert by_id["cat:in"].transform == IndexTransform()
    assert g.width == 16
    # consumer columns behind the flatten expand by the spatial size
    assert by_id["head:in"].transform.factor == 16


def test_transform_soundness_all_zoo_models():
    for builder in toy_models.BUNDLED.values():
        ir = builder()
        for g in extract_groups(build_depgraph(ir)):
            for m in g.members:
                covered = 0
                for k in range(g.width):
                    locals_ = transform_locals(m.transform, k, m.half.channels)
                    covered += len(locals_)
                    assert all(0 <= l < m.half.channels for l in locals_)
                assert covered == m.half.channels  # every local reachable


def test_partition_property_random_irs():
    for seed in range(20):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        groups = extract_groups(d)
        seen = []
        for g in groups:
            seen.extend(m.half_index for m in g.members)
        assert sorted(seen) == list(range(d.order))


def test_matches_brute_force_closure():
    for seed in range(40):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        assert groups_as_sets(extract_groups(d)) == closure_components(d.dense())


def test_matches_literal_per_node_expansion():
    for seed in range(15):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        assert groups_as_sets(extract_groups(d)) == literal_expansion(d.dense())


def test_determinism():
    for seed in (0, 5):
        a = extract_groups(build_depgraph(random_ir(seed)))
        b = extract_groups(build_depgraph(random_ir(seed)))
        assert [g.fingerprint for g in a] == [g.fingerprint for g in b]
        assert [g.group_id for g in a] == [g.group_id for g in b]


def test_inconsistent_arithmetic_raises():
    # adding the two halves of a split couples index k with index k+2:
    # offsets cannot agree
    comps = [linear("fc", 3, 4), split("sp", [2, 2]), eltwise("e", 2, "add"),
             linear("out", 2, 2)]
    edges = [("fc", 0, "sp", 0), ("sp", 0, "e", 0), ("sp", 1, "e", 1),
             ("e", 0, "out", 0)]
    ir = NetworkIR(comps, edges, (3,), [("fc", 0)])
    init_weights(ir, np.random.default_rng(0))
    d = build_depgraph(ir.check_valid())
    with pytest.raises(GroupingError, match="inconsistent channel arithmetic"):
        extract_groups(d)


@pytest.mark.parametrize("parts, lead, message", [
    ([("fa", 8), ("la", 3)], None, "group width = 11/4 is not an integer"),
    ([("lb", 1), ("fa", 8), ("la", 3)], None,
     "offset of ca:out = 1/4 is not an integer"),
    ([("lb", 6), ("fa", 8), ("la", 2)], "lb",
     "lb:out: 6 channels do not split into units of 4"),
])
def test_misaligned_flatten_raises(parts, lead, message):
    # a flatten's 4 features per channel set the group's unit; a concat
    # part that breaks that unit fails while placements are rebased
    d = build_depgraph(toy_models.flatten_concat(parts, lead))
    with pytest.raises(GroupingError) as exc:
        extract_groups(d)
    assert str(exc.value).startswith("inconsistent channel arithmetic")
    assert str(exc.value).endswith(message)


def test_grouped_conv_units():
    ir = toy_models.grouped_cnn(width=16, groups=4)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "gconv:in" in g.member_ids())
    assert g.units == tuple(tuple(range(i, i + 4)) for i in range(0, 16, 4))
    member = next(m for m in g.members if m.half.node_id == "gconv:in")
    assert member.transform.block == 4
    assert member.transform.variant == "group_block(4)"


def test_depthwise_merges_across_conv():
    ir = toy_models.depthwise_cnn()
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "dw:in" in g.member_ids())
    assert "dw:out" in g.member_ids()
    assert "stem:out" in g.member_ids()
    assert "pw:in" in g.member_ids()
    assert all(len(u) == 1 for u in g.units)  # depthwise blocks are single channels


# -- grouping matrix ---------------------------------------------------------


def test_grouping_matrix_identity_when_no_edges():
    comps = [linear("a", 3, 3)]
    ir = NetworkIR(comps, [], (3,), [("a", 0)])
    init_weights(ir, np.random.default_rng(0))
    gm = derive_grouping_matrix(build_depgraph(ir))
    np.testing.assert_array_equal(gm.matrix, np.eye(1, dtype=np.int8))


def test_grouping_matrix_residual_block_is_all_ones():
    ir = toy_models.fig_block()
    gm = derive_grouping_matrix(build_depgraph(ir))
    assert gm.component_ids == ["conv1", "bn1", "conv2", "bn2", "add"]
    np.testing.assert_array_equal(gm.matrix, np.ones((5, 5), dtype=np.int8))
    assert gm.groups == [["conv1", "bn1", "conv2", "bn2", "add"]]


def test_grouping_matrix_ring_of_passthroughs_all_ones():
    comps = [activation(f"a{i}", 4) for i in range(4)]
    edges = [(f"a{i}", 0, f"a{i + 1}", 0) for i in range(3)]
    ir = NetworkIR(comps, edges, (4,), [("a0", 0)])
    init_weights(ir, np.random.default_rng(0))
    gm = derive_grouping_matrix(build_depgraph(ir.check_valid()))
    np.testing.assert_array_equal(gm.matrix, np.ones((4, 4), dtype=np.int8))


def test_grouping_matrix_against_component_level_closure():
    for seed in range(20):
        ir = random_ir(seed)
        d = build_depgraph(ir)
        gm = derive_grouping_matrix(d)
        # collapse the half-level adjacency to components, then close it
        n = len(ir.components)
        adj = np.zeros((n, n), dtype=np.int8)
        comp_idx = {c.comp_id: i for i, c in enumerate(ir.components)}
        for pair in d.labels:
            a, b = tuple(pair)
            adj[comp_idx[d.halves[a].component_id],
                comp_idx[d.halves[b].component_id]] = 1
            adj[comp_idx[d.halves[b].component_id],
                comp_idx[d.halves[a].component_id]] = 1
        np.testing.assert_array_equal(
            gm.matrix.astype(bool), boolean_closure(adj))
        assert (np.diag(gm.matrix) == 1).all()


def test_export_grouping_round_trip(tmp_path):
    ir = toy_models.fig_block()
    gm = derive_grouping_matrix(build_depgraph(ir))
    export_grouping(gm, tmp_path / "g.csv")
    header, rows = read_csv(tmp_path / "g.csv")
    assert header[1:] == gm.component_ids
    m = np.array([[int(x) for x in r[1:]] for r in rows])
    np.testing.assert_array_equal(m, gm.matrix)


def test_group_report_lists_members():
    ir = toy_models.grouped_cnn()
    report = group_report(extract_groups(build_depgraph(ir)))
    assert "gconv:in" in report
    assert "group_block(4)" in report
    assert "atomic units" in report

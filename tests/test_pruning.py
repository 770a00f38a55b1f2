import numpy as np
import pytest

from grouprune import engine, zoo
from grouprune.dependency import build_depgraph
from grouprune.errors import PruneError
from grouprune.grouping import extract_groups
from grouprune.ir import (NetworkIR, activation, batchnorm, conv2d, eltwise,
                          flatten, init_weights, linear, load_model, pool,
                          save_model)
from grouprune.pruning import (PlanEntry, PrunePlan, boundary_roles,
                               build_learned_plan, build_uniform_plan,
                               end_to_end_prune, format_speedup_line,
                               min_keep_for, prunable_groups, prune, speedup)
from grouprune.random_nets import random_ir

from conftest import alternating_selection, oracle_models, zeroize_group
from reference import reference_learned_plan, transform_locals


def middle_plan(ir, indices):
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "fc1:out" in g.member_ids())
    return PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                        tuple(indices))]), groups


def test_prune_linear_neuron_slices_both_layers():
    ir = zoo.two_layer_mlp(in_features=4, hidden=5, out_features=3)
    plan, groups = middle_plan(ir, (2,))
    pruned = prune(ir, plan, groups)
    assert pruned.component("fc1").attrs["out_features"] == 4
    assert pruned.component("fc2").attrs["in_features"] == 4
    np.testing.assert_array_equal(pruned.weights["fc1.weight"],
                                  np.delete(ir.weights["fc1.weight"], 2, 0))
    np.testing.assert_array_equal(pruned.weights["fc1.bias"],
                                  np.delete(ir.weights["fc1.bias"], 2))
    np.testing.assert_array_equal(pruned.weights["fc2.weight"],
                                  np.delete(ir.weights["fc2.weight"], 2, 1))
    assert pruned.validate() == []


def test_empty_plan_is_identity_on_bytes(tmp_path):
    ir = zoo.residual_cnn(seed=9)
    pruned = prune(ir, PrunePlan())
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    save_model(ir, d1 / "m.json")
    save_model(pruned, d2 / "m.json")
    assert (d1 / "m.json").read_bytes() == (d2 / "m.json").read_bytes()
    assert (d1 / "m.bin").read_bytes() == (d2 / "m.bin").read_bytes()


@pytest.mark.parametrize("name", ["spiral_mlp", "residual_cnn", "concat_cnn",
                                  "depthwise_cnn", "grouped_cnn", "split_cnn"])
def test_zero_group_functional_preservation(name):
    ir = zoo.BUNDLED[name](seed=13)
    groups = extract_groups(build_depgraph(ir))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(100,) + ir.input_shape).astype(np.float32)
    for g in prunable_groups(ir, groups):
        sel = alternating_selection(g, min_keep_for(ir, g))
        if not sel:
            continue
        z = zeroize_group(ir, g, sel)
        y_zero = engine.forward(z, x)
        plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint, sel)])
        pruned = prune(z, plan)
        y_pruned = engine.forward(pruned, x)
        assert np.abs(y_zero - y_pruned).max() < 1e-5, (name, g.group_id)


@pytest.mark.parametrize("mode", ["uniform", "learned"])
def test_builder_plans_prune_like_zeroizing_on_random_irs(mode):
    """prune(zeroize(ir)) computes what zeroize(ir) computes, for the plans
    both builders make on random IRs, port windows included."""
    for seed in range(30):
        ir = random_ir(seed)
        groups = extract_groups(build_depgraph(ir))
        by_id = {g.group_id: g for g in groups}
        x = np.random.default_rng(seed).normal(
            size=(16,) + ir.input_shape).astype(np.float32)
        for strategy in ("full-grouping", "no-grouping"):
            if mode == "uniform":
                plan = build_uniform_plan(ir, groups, 0.5, strategy)
            else:
                plan = build_learned_plan(ir, groups, 0.5, strategy)
            z = ir
            for e in plan.entries:
                z = zeroize_group(z, by_id[e.group_id], e.indices)
            pruned = prune(z, plan, groups)
            diff = np.abs(engine.forward(z, x) - engine.forward(pruned, x)).max()
            assert diff < 1e-5, (seed, strategy)


def test_grouped_conv_prunes_whole_groups():
    ir = zoo.grouped_cnn(width=16, groups=4)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "gconv:in" in g.member_ids())
    plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                        tuple(range(4, 8)))])
    pruned = prune(ir, plan, groups)
    conv = pruned.component("gconv")
    assert conv.attrs["groups"] == 3
    assert conv.attrs["in_channels"] == conv.attrs["out_channels"] == 12
    assert pruned.weights["gconv.weight"].shape == (12, 4, 3, 3)

    bad = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint, (4, 5))])
    with pytest.raises(PruneError, match="atomic"):
        prune(ir, bad, groups)


def test_stale_plan_rejected():
    ir = zoo.two_layer_mlp()
    plan, groups = middle_plan(ir, (0,))
    smaller = prune(ir, plan, groups)
    with pytest.raises(PruneError, match="stale"):
        prune(smaller, plan)


def test_min_keep_violation_rejected():
    ir = zoo.two_layer_mlp(hidden=4)
    plan, groups = middle_plan(ir, (0, 1, 2, 3))
    with pytest.raises(PruneError):
        prune(ir, plan, groups)


def test_out_of_range_rejected():
    ir = zoo.two_layer_mlp(hidden=4)
    plan, groups = middle_plan(ir, (7,))
    with pytest.raises(PruneError, match="out of range"):
        prune(ir, plan, groups)


def test_concat_sizes_updated():
    ir = zoo.concat_cnn(width_a=8, width_b=8)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "cat:in" in g.member_ids())
    # drop three channels of branch_a's window and one of branch_b's
    plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                        (0, 2, 4, 9))])
    pruned = prune(ir, plan, groups)
    assert pruned.component("cat").attrs["sizes"] == [5, 7]
    assert pruned.component("branch_a").attrs["out_channels"] == 5
    assert pruned.component("branch_b").attrs["out_channels"] == 7
    assert pruned.component("head").attrs["in_features"] == 12 * 16
    assert pruned.validate() == []


def test_split_sizes_updated():
    ir = zoo.split_cnn()
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "sp:in" in g.member_ids())
    plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint, (1, 6))])
    pruned = prune(ir, plan, groups)
    assert pruned.component("sp").attrs["sizes"] == [3, 7]
    assert pruned.component("left").attrs["in_channels"] == 3
    assert pruned.component("right").attrs["in_channels"] == 7
    assert pruned.validate() == []


# -- speedup ------------------------------------------------------------------


def test_speedup_identity():
    ir = zoo.residual_cnn()
    assert speedup(ir, ir) == pytest.approx(1.0)


def test_speedup_half_width_mlp_near_two():
    ir = zoo.two_layer_mlp(in_features=16, hidden=32, out_features=10)
    plan, groups = middle_plan(ir, tuple(range(16)))
    pruned = prune(ir, plan, groups)
    assert 1.9 <= speedup(ir, pruned) <= 2.1


def test_speedup_report_line_format():
    line = format_speedup_line(1000, 250)
    assert line == "speedup 4.00x (MACs 1000 -> 250)"


def test_monotone_macs():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    base = engine.count_macs(ir)
    for g in prunable_groups(ir, groups):
        plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                            alternating_selection(g))])
        assert engine.count_macs(prune(ir, plan, groups)) < base


# -- plan builders ------------------------------------------------------------


def test_uniform_plan_halves_widths():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    plan = build_uniform_plan(ir, groups, ratio=0.5)
    by_id = {g.group_id: g for g in groups}
    for e in plan.entries:
        width = by_id[e.group_id].width
        assert len(e.indices) == width // 2
    pruned = prune(ir, plan, groups)
    assert pruned.validate() == []


def test_uniform_plan_skips_boundary_groups():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    plan = build_uniform_plan(ir, groups, ratio=0.5)
    planned = {e.group_id for e in plan.entries}
    for g in groups:
        if boundary_roles(ir, g):
            assert g.group_id not in planned


def test_learned_plan_prunes_zeroized_group_hardest():
    ir = zoo.residual_cnn(seed=21)
    groups = extract_groups(build_depgraph(ir))
    target = next(g for g in prunable_groups(ir, groups)
                  if "conv1:out" in g.member_ids())
    z = zeroize_group(ir, target, range(target.width))
    plan = build_learned_plan(z, extract_groups(build_depgraph(z)),
                              macs_fraction=0.6)
    removed = {e.group_id: len(e.indices) for e in plan.entries}
    by_id = {g.group_id: g for g in extract_groups(build_depgraph(z))}
    fractions = {gid: n / by_id[gid].width for gid, n in removed.items()}
    assert max(fractions, key=fractions.get) == target.group_id
    # zero scores sort first: nothing else is touched until the zeroized
    # group has been taken
    others = [n for gid, n in removed.items() if gid != target.group_id]
    assert removed[target.group_id] > 0
    assert all(n == 0 for n in others)


def test_min_keep_two_for_groups_feeding_the_output():
    ir = zoo.two_layer_mlp(hidden=4)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "fc2:in" in g.member_ids())
    assert min_keep_for(ir, g) == 2
    other = next(g for g in groups if g.member_ids() == {"fc1:in"})
    assert min_keep_for(ir, other) == 1


def test_end_to_end_ratio_zero_identity():
    ir = zoo.residual_cnn()
    pruned, plan, report = end_to_end_prune(ir, 0.0, mode="uniform")
    assert report["speedup"] == pytest.approx(1.0)
    for name, arr in ir.weights.items():
        np.testing.assert_array_equal(arr, pruned.weights[name])


def test_end_to_end_uniform_width_audit():
    ir = zoo.residual_cnn()
    pruned, plan, report = end_to_end_prune(ir, 0.5, mode="uniform")
    for entry in report["groups"]:
        assert entry["width_after"] == entry["width_before"] - entry["pruned"]
        assert entry["pruned"] == entry["width_before"] // 2
    assert report["speedup"] > 1.0
    assert pruned.validate() == []


def test_end_to_end_learned_hits_macs_target():
    ir = zoo.residual_cnn()
    _pruned, _plan, report = end_to_end_prune(ir, 0.5, mode="learned")
    assert report["speedup"] >= 1.9


def test_plan_round_trip(tmp_path):
    ir = zoo.residual_cnn()
    _pruned, plan, _report = end_to_end_prune(ir, 0.4, mode="uniform")
    plan.to_json(tmp_path / "plan.json")
    loaded = PrunePlan.from_json(tmp_path / "plan.json")
    assert loaded == plan


def test_pruned_model_round_trips_by_file(tmp_path):
    ir = zoo.concat_cnn()
    pruned, _plan, _report = end_to_end_prune(ir, 0.25, mode="uniform")
    save_model(pruned, tmp_path / "p.json")
    again = load_model(tmp_path / "p.json")
    assert [c.attrs for c in again.components] == [c.attrs for c in pruned.components]


# -- learned plan against the recounting oracle -------------------------------

STRATEGIES = ("full-grouping", "conv-only", "no-grouping", "random")
MACS_FRACTIONS = (0.3, 0.5, 0.8, 1.0)


def _plan_macs(ir, groups, plan) -> int:
    """component_macs summed at the kept widths the plan leaves."""
    chosen = {e.group_id: e.indices for e in plan.entries}
    kept = {}
    for g in groups:
        for m in g.members:
            removed = sum(len(transform_locals(m.transform, k, m.half.channels))
                          for k in chosen.get(g.group_id, ()))
            kept[m.half.node_id] = m.half.channels - removed
    shapes = engine.infer_shapes(ir)
    return sum(engine.component_macs(c, shapes[c.comp_id],
                                      kept[f"{c.comp_id}:in"],
                                      kept[f"{c.comp_id}:out"])
               for c in ir.components)


def test_learned_plan_matches_recounting_oracle():
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        for strategy in STRATEGIES:
            for fraction in MACS_FRACTIONS:
                case = (name, strategy, fraction)
                plan = build_learned_plan(ir, groups, fraction, strategy,
                                          rng=np.random.default_rng(3))
                want = reference_learned_plan(ir, groups, fraction, strategy,
                                              rng=np.random.default_rng(3))
                assert plan.entries == want.entries, case
                assert plan.provenance == want.provenance, case
                pruned = prune(ir, plan, groups)   # no port is emptied
                assert engine.count_macs(pruned) == _plan_macs(ir, groups, plan), case


def deep_residual_cnn(blocks: int, width: int = 8, image: int = 8) -> NetworkIR:
    """Stem conv, `blocks` residual blocks, pool/flatten/linear head."""
    comps = [conv2d("stem", 1, width, kernel=3, padding=1)]
    edges = []
    prev = "stem"
    for b in range(blocks):
        p = f"b{b}."
        comps += [conv2d(p + "conv1", width, width, kernel=3, padding=1),
                  batchnorm(p + "bn1", width), activation(p + "act1", width),
                  conv2d(p + "conv2", width, width, kernel=3, padding=1),
                  batchnorm(p + "bn2", width), eltwise(p + "add", width),
                  activation(p + "act2", width)]
        edges += [(prev, 0, p + "conv1", 0), (p + "conv1", 0, p + "bn1", 0),
                  (p + "bn1", 0, p + "act1", 0), (p + "act1", 0, p + "conv2", 0),
                  (p + "conv2", 0, p + "bn2", 0), (p + "bn2", 0, p + "add", 0),
                  (prev, 0, p + "add", 1), (p + "add", 0, p + "act2", 0)]
        prev = p + "act2"
    spatial = (image // 2) ** 2
    comps += [pool("pool", width, kernel=2), flatten("flat", width, spatial),
              linear("head", width * spatial, 4)]
    edges += [(prev, 0, "pool", 0), ("pool", 0, "flat", 0), ("flat", 0, "head", 0)]
    ir = NetworkIR(comps, edges, (1, image, image), [("stem", 0)])
    return init_weights(ir, np.random.default_rng(0))


def test_learned_prune_scans_each_component_a_bounded_number_of_times(monkeypatch):
    """A per-unit or per-group rescan of the edges shows up as a call
    count that grows faster than the network."""
    ir = deep_residual_cnn(blocks=32)
    calls = 0
    consumers_of = NetworkIR.consumers_of

    def counted(self, comp_id):
        nonlocal calls
        calls += 1
        return consumers_of(self, comp_id)

    monkeypatch.setattr(NetworkIR, "consumers_of", counted)
    _pruned, plan, _report = end_to_end_prune(ir, 0.5, mode="learned")
    assert any(e.indices for e in plan.entries)
    assert 0 < calls <= 4 * len(ir.components)

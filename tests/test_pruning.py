import numpy as np
import pytest

from grouprune import engine, zoo
from grouprune.dependency import build_depgraph
from grouprune.errors import PruneError
from grouprune.grouping import extract_groups
from grouprune.ir import (NetworkIR, activation, batchnorm, conv2d, eltwise,
                          flatten, init_weights, linear, load_model, pool,
                          save_model)
from grouprune.pruning import (PlanEntry, PrunePlan, build_learned_plan,
                               build_uniform_plan, end_to_end_prune,
                               format_speedup_line, group_scores,
                               min_keep_for, plan_macs, prunable_groups,
                               prune, speedup)
from grouprune.sparse import STRATEGIES
from random_nets import random_ir
import toy_models

from conftest import alternating_selection, oracle_models, zeroize_group
from reference import reference_learned_plan, transform_locals


def middle_plan(ir, indices):
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "fc1:out" in g.member_ids())
    return PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                        tuple(indices))]), groups


def test_prune_linear_neuron_slices_both_layers():
    ir = toy_models.two_layer_mlp(in_features=4, hidden=5, out_features=3)
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
    pruned = prune(ir, PrunePlan(), extract_groups(build_depgraph(ir)))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    save_model(ir, d1 / "m.json")
    save_model(pruned, d2 / "m.json")
    assert (d1 / "m.json").read_bytes() == (d2 / "m.json").read_bytes()
    assert (d1 / "m.bin").read_bytes() == (d2 / "m.bin").read_bytes()


@pytest.mark.parametrize("name", ["spiral_mlp", "residual_cnn", "concat_cnn",
                                  "depthwise_cnn", "grouped_cnn", "split_cnn"])
def test_zero_group_functional_preservation(name):
    ir = toy_models.BUNDLED[name](seed=13)
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
        pruned = prune(z, plan, groups)
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
        for strategy in ("full-grouping", "no-grouping", "conv-only", "random"):
            scores = group_scores(ir, groups, strategy,
                                  rng=np.random.default_rng(seed))
            if mode == "uniform":
                plan = build_uniform_plan(ir, groups, scores, 0.5)
            else:
                plan = build_learned_plan(ir, groups, scores, 0.5)
            z = ir
            for e in plan.entries:
                z = zeroize_group(z, by_id[e.group_id], e.indices)
            pruned = prune(z, plan, groups)
            diff = np.abs(engine.forward(z, x) - engine.forward(pruned, x)).max()
            assert diff < 1e-5, (seed, strategy)


def test_grouped_conv_prunes_whole_groups():
    ir = toy_models.grouped_cnn(width=16, groups=4)
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
    ir = toy_models.two_layer_mlp()
    plan, groups = middle_plan(ir, (0,))
    smaller = prune(ir, plan, groups)
    with pytest.raises(PruneError, match="stale"):
        prune(smaller, plan, extract_groups(build_depgraph(smaller)))
    twice = PrunePlan(entries=plan.entries * 2)
    with pytest.raises(PruneError, match="more than one entry"):
        prune(ir, twice, groups)


def test_min_keep_violation_rejected():
    ir = toy_models.two_layer_mlp(hidden=4)
    plan, groups = middle_plan(ir, (0, 1, 2, 3))
    with pytest.raises(PruneError):
        prune(ir, plan, groups)


def test_out_of_range_rejected():
    ir = toy_models.two_layer_mlp(hidden=4)
    plan, groups = middle_plan(ir, (7,))
    with pytest.raises(PruneError, match="out of range"):
        prune(ir, plan, groups)


def test_concat_sizes_updated():
    ir = toy_models.concat_cnn(width_a=8, width_b=8)
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
    ir = toy_models.split_cnn()
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "sp:in" in g.member_ids())
    plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint, (1, 6))])
    pruned = prune(ir, plan, groups)
    assert pruned.component("sp").attrs["sizes"] == [3, 7]
    assert pruned.component("left").attrs["in_channels"] == 3
    assert pruned.component("right").attrs["in_channels"] == 7
    assert pruned.validate() == []


@pytest.mark.parametrize("build, member, indices, comp", [
    (toy_models.concat_cnn, "cat:in", range(8), "cat"),   # all of branch_a
    (toy_models.split_cnn, "sp:in", range(4), "sp"),      # all of left's port
], ids=["concat", "split"])
def test_plan_emptying_a_port_is_rejected(build, member, indices, comp):
    # The shrink rule leaves a zero size; the closing validate() names it.
    ir = build()
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if member in g.member_ids())
    plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint,
                                        tuple(indices))])
    with pytest.raises(PruneError,
                       match=rf"invalid network: .*\b{comp}: sizes must be"):
        prune(ir, plan, groups)


def _two_raw_readers():
    """fa and fb both read the raw input; nothing else couples their
    input halves, so each is a group of its own."""
    comps = [linear("fa", 4, 3), linear("fb", 4, 3), eltwise("add", 3),
             linear("head", 3, 2)]
    edges = [("fa", 0, "add", 0), ("fb", 0, "add", 1), ("add", 0, "head", 0)]
    ir = NetworkIR(comps, edges, (4,), [("fa", 0), ("fb", 0)])
    init_weights(ir, np.random.default_rng(3))
    ir.check_valid()
    groups = extract_groups(build_depgraph(ir))
    fa, fb = (next(g for g in groups if g.member_ids() == {f"{cid}:in"})
              for cid in ("fa", "fb"))
    return ir, groups, fa, fb


@pytest.mark.parametrize("fb_drop", [(), (1, 2)])
def test_inconsistent_raw_input_pruning_rejected(fb_drop):
    """Raw-fed groups are never prunable, so a plan that drops input
    channels on one raw reader is refused whatever the other one drops."""
    ir, groups, fa, fb = _two_raw_readers()
    plan = PrunePlan(entries=[PlanEntry(fa.group_id, fa.fingerprint, (1, 3)),
                              PlanEntry(fb.group_id, fb.fingerprint, fb_drop)])
    with pytest.raises(PruneError, match="input or output width"):
        prune(ir, plan, groups)


def _touches(ir, group) -> set[str]:
    """Which of the network's fixed widths a group touches, by a scan of
    its members: "input" if one reads the raw network input, "output" if
    one is the output half of the exit, the one component no edge reads."""
    raw_fed = {cid for cid, _ in ir.input_consumers}
    (exit_id,) = {c.comp_id for c in ir.components} - {e.src for e in ir.edges}
    return ({"input" for m in group.members
             if m.half.side == "in" and m.half.component_id in raw_fed}
            | {"output" for m in group.members
               if m.half.node_id == f"{exit_id}:out"})


def _snapshot(ir):
    return (ir.input_shape,
            [(c.comp_id, c.kind, repr(c.attrs)) for c in ir.components],
            {name: arr.tobytes() for name, arr in ir.weights.items()})


def test_prune_accepts_only_the_groups_prunable_groups_allows():
    """prunable_groups leaves out exactly the groups that touch the input
    or output width; prune refuses a one-index plan on each of them and
    leaves the IR as it was, and every builder plan passes."""
    refused = {"input": 0, "output": 0}
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        boundary = [g for g in groups if _touches(ir, g)]
        allowed = {g.group_id for g in prunable_groups(ir, groups)}
        assert ({g.group_id for g in boundary}
                == {g.group_id for g in groups} - allowed), name
        before = _snapshot(ir)
        for g in boundary:
            plan = PrunePlan(entries=[PlanEntry(g.group_id, g.fingerprint, (0,))])
            with pytest.raises(PruneError, match="input or output width"):
                prune(ir, plan, groups)
            for role in _touches(ir, g):
                refused[role] += 1
        assert _snapshot(ir) == before, name
        for strategy in STRATEGIES:
            scores = group_scores(ir, groups, strategy,
                                  rng=np.random.default_rng(0))
            for plan in (build_uniform_plan(ir, groups, scores, 0.5),
                         build_learned_plan(ir, groups, scores, 0.5)):
                assert {e.group_id for e in plan.entries} <= allowed
                prune(ir, plan, groups)
    assert min(refused.values()) > 0, refused


# -- speedup ------------------------------------------------------------------


def test_speedup_identity():
    ir = zoo.residual_cnn()
    assert speedup(ir, ir) == pytest.approx(1.0)


def test_speedup_half_width_mlp_near_two():
    ir = toy_models.two_layer_mlp(in_features=16, hidden=32, out_features=10)
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
    plan = build_uniform_plan(ir, groups,
                              group_scores(ir, groups, "full-grouping"), 0.5)
    by_id = {g.group_id: g for g in groups}
    for e in plan.entries:
        width = by_id[e.group_id].width
        assert len(e.indices) == width // 2
    pruned = prune(ir, plan, groups)
    assert pruned.validate() == []


def test_uniform_plan_skips_boundary_groups():
    ir = zoo.residual_cnn()
    groups = extract_groups(build_depgraph(ir))
    plan = build_uniform_plan(ir, groups,
                              group_scores(ir, groups, "full-grouping"), 0.5)
    boundary = {g.group_id for g in groups if _touches(ir, g)}
    assert boundary and not boundary & {e.group_id for e in plan.entries}


def test_learned_plan_prunes_zeroized_group_hardest():
    ir = zoo.residual_cnn(seed=21)
    groups = extract_groups(build_depgraph(ir))
    target = next(g for g in prunable_groups(ir, groups)
                  if "conv1:out" in g.member_ids())
    z = zeroize_group(ir, target, range(target.width))
    z_groups = extract_groups(build_depgraph(z))
    plan = build_learned_plan(z, z_groups,
                              group_scores(z, z_groups, "full-grouping"), 0.6)
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
    ir = toy_models.two_layer_mlp(hidden=4)
    groups = extract_groups(build_depgraph(ir))
    g = next(g for g in groups if "fc2:in" in g.member_ids())
    assert min_keep_for(ir, g) == 2
    other = next(g for g in groups if g.member_ids() == {"fc1:in"})
    assert min_keep_for(ir, other) == 1


def test_end_to_end_ratio_zero_identity():
    ir = zoo.residual_cnn()
    pruned, plan, report = end_to_end_prune(
        ir, 0.0, mode="uniform", strategy="full-grouping", topn=None, seed=0)
    assert report["speedup"] == pytest.approx(1.0)
    for name, arr in ir.weights.items():
        np.testing.assert_array_equal(arr, pruned.weights[name])


def test_end_to_end_uniform_width_audit():
    ir = zoo.residual_cnn()
    pruned, plan, report = end_to_end_prune(
        ir, 0.5, mode="uniform", strategy="full-grouping", topn=None, seed=0)
    for entry in report["groups"]:
        assert entry["width_after"] == entry["width_before"] - entry["pruned"]
        assert entry["pruned"] == entry["width_before"] // 2
    assert report["speedup"] > 1.0
    assert pruned.validate() == []


def test_end_to_end_learned_hits_macs_target():
    ir = zoo.residual_cnn()
    _pruned, _plan, report = end_to_end_prune(
        ir, 0.5, mode="learned", strategy="full-grouping", topn=None, seed=0)
    assert report["speedup"] >= 1.9


def test_plan_round_trip(tmp_path):
    ir = zoo.residual_cnn()
    _pruned, plan, _report = end_to_end_prune(
        ir, 0.4, mode="uniform", strategy="full-grouping", topn=None, seed=0)
    plan.to_json(tmp_path / "plan.json")
    loaded = PrunePlan.from_json(tmp_path / "plan.json")
    assert loaded == plan


def test_pruned_model_round_trips_by_file(tmp_path):
    ir = toy_models.concat_cnn()
    pruned, _plan, _report = end_to_end_prune(
        ir, 0.25, mode="uniform", strategy="full-grouping", topn=None, seed=0)
    save_model(pruned, tmp_path / "p.json")
    again = load_model(tmp_path / "p.json")
    assert [c.attrs for c in again.components] == [c.attrs for c in pruned.components]


# -- learned plan against the recounting oracle -------------------------------

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
                scores = group_scores(ir, groups, strategy,
                                      rng=np.random.default_rng(3))
                plan = build_learned_plan(ir, groups, scores, fraction)
                want = reference_learned_plan(ir, groups, scores, fraction)
                assert plan.entries == want.entries, case
                assert plan.provenance == want.provenance, case
                pruned = prune(ir, plan, groups)   # no port is emptied
                macs = plan_macs(ir, groups, plan)
                assert macs == engine.count_macs(pruned) == \
                    _plan_macs(ir, groups, plan), case


def test_learned_plan_matches_recounting_oracle_on_wide_groups():
    """288 candidate units, 96 per group, so the one-lexsort order and
    the integer walk see long runs of accepted and skipped candidates."""
    ir = zoo.mlp([2, 96, 96, 96, 2], seed=4)
    groups = extract_groups(build_depgraph(ir))
    for strategy in STRATEGIES:
        for fraction in MACS_FRACTIONS:
            case = (strategy, fraction)
            scores = group_scores(ir, groups, strategy,
                                  rng=np.random.default_rng(3))
            plan = build_learned_plan(ir, groups, scores, fraction)
            want = reference_learned_plan(ir, groups, scores, fraction)
            assert plan.entries == want.entries, case
            if fraction < 1:
                assert sum(len(e.indices) for e in plan.entries) > 30, case


def test_prune_owns_its_result():
    """Every pruned tensor is a fresh C-contiguous float32 array, so
    fine-tuning it in place leaves the source IR alone."""
    sliced = 0
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        before = {n: w.copy() for n, w in ir.weights.items()}
        for strategy in ("full-grouping", "random"):
            for build in (build_uniform_plan, build_learned_plan):
                plan = build(ir, groups, group_scores(
                    ir, groups, strategy, rng=np.random.default_rng(1)), 0.5)
                pruned = prune(ir, plan, groups)
                sliced += sum(w.shape != ir.weights[n].shape
                              for n, w in pruned.weights.items())
                for n, w in pruned.weights.items():
                    case = (name, strategy, build.__name__, n)
                    assert w.dtype == np.float32 and w.flags.c_contiguous, case
                    assert not any(np.shares_memory(w, src)
                                   for src in ir.weights.values()), case
        for n, w in ir.weights.items():
            assert w.tobytes() == before[n].tobytes(), (name, n)
    assert sliced > 100


def test_plan_macs_counts_uniform_plans_as_prune_does():
    for name, ir in oracle_models():
        groups = extract_groups(build_depgraph(ir))
        for strategy in ("full-grouping", "random"):
            for ratio in (0.1, 0.3, 0.5, 0.7, 0.9):
                case = (name, strategy, ratio)
                plan = build_uniform_plan(ir, groups, group_scores(
                    ir, groups, strategy, rng=np.random.default_rng(3)), ratio)
                macs = plan_macs(ir, groups, plan)
                assert macs == engine.count_macs(prune(ir, plan, groups)) == \
                    _plan_macs(ir, groups, plan), case


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
    _pruned, plan, _report = end_to_end_prune(
        ir, 0.5, mode="learned", strategy="full-grouping", topn=None, seed=0)
    assert any(e.indices for e in plan.entries)
    assert 0 < calls <= 4 * len(ir.components)

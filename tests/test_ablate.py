import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from grouprune import ablate, pruning, zoo
from grouprune.ablate import (run_ablation, run_cell, train_cell_model,
                              uniform_plan_for_speedup)
from grouprune.dependency import build_depgraph
from grouprune.grouping import extract_groups
from grouprune.pruning import (build_uniform_plan, group_scores,
                               prunable_groups, prune, speedup)
from grouprune.sparse import STRATEGIES, SparseConfig
from reference import reference_run_cell, reference_uniform_ratio_for_speedup
import toy_models

# spiral, two strategies (one of them random) x two speedups x both modes
# x two seeds: 16 cells from 4 trained models
GRID = (("full-grouping", "random"), (2.0, 3.0), ("uniform", "learned"),
        (3, 4))
CFG = SparseConfig(epochs=2, reg_weight=5e-3)


@pytest.mark.parametrize("target", [1.5, 2.0, 3.0])
def test_uniform_ratio_reaches_target_speedup(target):
    """Widths move in whole channels, so speedup is a step function of the
    ratio; the chosen ratio must sit on the reaching side of the step, and
    the float just below it, which has the next-smaller candidate's plan,
    on the other."""
    ir = zoo.residual_cnn(seed=0)
    groups = extract_groups(build_depgraph(ir))
    scores = group_scores(ir, groups, "full-grouping")
    plan = uniform_plan_for_speedup(ir, groups, scores, target)
    assert speedup(ir, prune(ir, plan, groups)) >= target
    below = math.nextafter(plan.provenance["ratio"], 0.0)
    short = build_uniform_plan(ir, groups, scores, below)
    assert speedup(ir, prune(ir, short, groups)) < target


def _reachable_speedups(ir, groups, strategy):
    """Every speedup a uniform ratio reaches, each taken in the middle of
    its step: between two neighbouring fractions j / width of the eligible
    groups, in exact arithmetic."""
    steps = sorted({Fraction(j, g.width) for g in prunable_groups(ir, groups)
                    for j in range(g.width)} | {Fraction(19, 20)})
    steps = [q for q in steps if q <= Fraction(19, 20)]
    return sorted({speedup(ir, prune(ir, build_uniform_plan(
        ir, groups, group_scores(ir, groups, strategy,
                                 rng=np.random.default_rng(1)),
        float((a + b) / 2)), groups))
        for a, b in zip(steps, steps[1:])})


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", [zoo.residual_cnn, zoo.spiral_mlp])
def test_uniform_plan_matches_trial_prune_search(model, strategy):
    """At target 1 and at every speedup a uniform ratio reaches, and just
    above it, the search picks the plan the trial-prune bisection picked."""
    ir = model(seed=0)
    groups = extract_groups(build_depgraph(ir))
    targets = [1.0] + [t for s in _reachable_speedups(ir, groups, strategy)
                       for t in (s, math.nextafter(s, math.inf))]
    for target in targets:
        ratio = reference_uniform_ratio_for_speedup(
            ir, groups, target, strategy, np.random.default_rng(1))
        scores = group_scores(ir, groups, strategy,
                              rng=np.random.default_rng(1))
        want = build_uniform_plan(ir, groups, scores, ratio)
        got = uniform_plan_for_speedup(ir, groups, scores, target)
        assert got.entries == want.entries, target


def test_uniform_plan_is_minimal_on_uneven_widths():
    """Widths 22 and 13: the float j / width lands above the smallest ratio
    of step j for some j (9 / 22) and below it for others (15 / 22). Every
    speedup above 1 must be met, and the float just below the chosen ratio
    must fall short."""
    ir = zoo.mlp([4, 22, 13, 3])
    groups = extract_groups(build_depgraph(ir))
    for target in _reachable_speedups(ir, groups, "full-grouping")[1:]:
        scores = group_scores(ir, groups, "full-grouping")
        plan = uniform_plan_for_speedup(ir, groups, scores, target)
        assert speedup(ir, prune(ir, plan, groups)) >= target
        below = math.nextafter(plan.provenance["ratio"], 0.0)
        short = build_uniform_plan(ir, groups, scores, below)
        assert speedup(ir, prune(ir, short, groups)) < target, target


def test_uniform_cell_prunes_once(monkeypatch):
    """The search costs its probes with plan_macs: the cell's one prune
    is the plan it applies."""
    trained = train_cell_model("spiral", "full-grouping", 3, CFG)
    calls = []
    real = ablate.prune

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ablate, "prune", spy)
    cell = run_cell(trained, "full-grouping", 2.0, "uniform", 3, CFG)
    assert len(calls) == 1
    assert cell.achieved_speedup >= 2.0


def test_plans_score_each_group_once(monkeypatch):
    """A plan scores each eligible group once: the uniform search selects
    from one set of scores at every probe, and end_to_end_prune scores
    once in either mode and records the criterion it scored by."""
    trained = train_cell_model("shapes", "full-grouping", 3, CFG)
    calls = []
    real = pruning.group_l2_importance

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pruning, "group_l2_importance", spy)
    ir, groups, _data = trained
    cell = run_cell(trained, "full-grouping", 2.0, "uniform", 3, CFG)
    assert cell.achieved_speedup >= 2.0
    assert len(calls) == len(prunable_groups(ir, groups)) == 2
    for name, build in toy_models.BUNDLED.items():
        ir = build(seed=1)
        eligible = prunable_groups(ir, extract_groups(build_depgraph(ir)))
        for mode in ("uniform", "learned"):
            calls.clear()
            _pruned, plan, _report = pruning.end_to_end_prune(
                ir, 0.5, mode=mode, strategy="full-grouping", topn=None,
                seed=0)
            assert len(calls) == len(eligible), (name, mode)
            assert plan.provenance["criterion"] == "full-grouping"


def test_ablation_matches_one_training_per_cell():
    strategies, targets, modes, seeds = GRID
    _table, cells = run_ablation("spiral", *GRID, CFG)
    want = [reference_run_cell("spiral", s, t, m, seed, CFG)
            for s in strategies for t in targets for m in modes
            for seed in seeds]
    assert [dataclasses.asdict(c) for c in cells] == \
        [dataclasses.asdict(c) for c in want]


def test_ablation_trains_once_per_strategy_and_seed(monkeypatch):
    strategies, targets, modes, seeds = GRID
    calls = []
    real = ablate.train_sparse

    def spy(ir, dataset, cfg, groups, *args, **kwargs):
        # the fine-tune is the only training without a regularizer here
        calls.append((cfg.strategy, cfg.seed) if cfg.reg_weight > 0
                     else "fine-tune")
        return real(ir, dataset, cfg, groups, *args, **kwargs)

    monkeypatch.setattr(ablate, "train_sparse", spy)
    _table, cells = run_ablation("spiral", *GRID, CFG)
    trainings = [c for c in calls if c != "fine-tune"]
    assert trainings == [(s, seed) for s in strategies for seed in seeds]
    assert calls.count("fine-tune") == len(cells) == \
        len(strategies) * len(targets) * len(modes) * len(seeds)


def test_ablation_cells_leave_the_trained_model_unchanged(monkeypatch):
    models = {}   # (strategy, seed) -> ids of the models its cells got
    real = ablate.run_cell

    def checked(trained, strategy, target, mode, seed, cfg):
        ir = trained[0]
        before = {n: w.tobytes() for n, w in ir.weights.items()}
        cell = real(trained, strategy, target, mode, seed, cfg)
        assert {n: w.tobytes() for n, w in ir.weights.items()} == before
        models.setdefault((strategy, seed), set()).add(id(ir))
        return cell

    monkeypatch.setattr(ablate, "run_cell", checked)
    run_ablation("spiral", *GRID, CFG)
    assert sorted(models) == sorted((s, seed) for s in GRID[0]
                                    for seed in GRID[3])
    assert all(len(ids) == 1 for ids in models.values())


def test_ablation_table_pools_a_repeated_strategy(monkeypatch):
    # cell accuracies count up in grid order, so each median names its cells
    accuracies = iter(range(12))

    def cell(_trained, strategy, target, mode, seed, _cfg):
        return ablate.AblationCell(strategy, target, mode, seed,
                                   float(next(accuracies)), target)

    monkeypatch.setattr(ablate, "train_cell_model", lambda *args: None)
    monkeypatch.setattr(ablate, "run_cell", cell)
    table, cells = run_ablation("spiral", ["b", "a", "b"], [2.0, 3.0],
                                ["uniform"], [0, 1], CFG)
    assert len(cells) == 12
    assert table == {("b", "2x/uniform"): 4.5, ("b", "3x/uniform"): 6.5,
                     ("a", "2x/uniform"): 4.5, ("a", "3x/uniform"): 6.5}

import dataclasses

import numpy as np
import pytest

from grouprune import ablate, zoo
from grouprune.ablate import _uniform_ratio_for_speedup, run_ablation
from grouprune.dependency import build_depgraph
from grouprune.grouping import extract_groups
from grouprune.pruning import build_uniform_plan, prune, speedup
from grouprune.sparse import SparseConfig
from reference import reference_run_cell

# spiral, two strategies (one of them random) x two speedups x both modes
# x two seeds: 16 cells from 4 trained models
GRID = (("full-grouping", "random"), (2.0, 3.0), ("uniform", "learned"),
        (3, 4))
CFG = SparseConfig(epochs=2, reg_weight=5e-3)


@pytest.mark.parametrize("target", [1.5, 2.0, 3.0])
def test_uniform_ratio_reaches_target_speedup(target):
    """Widths move in whole channels, so speedup is a step function of the
    ratio; the chosen ratio must sit on the reaching side of the step."""
    ir = zoo.residual_cnn(seed=0)
    groups = extract_groups(build_depgraph(ir))
    ratio = _uniform_ratio_for_speedup(ir, groups, target, "full-grouping",
                                       np.random.default_rng(1))
    plan = build_uniform_plan(ir, groups, ratio, "full-grouping")
    assert speedup(ir, prune(ir, plan, groups)) >= target


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

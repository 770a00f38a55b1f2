"""Grouping-strategy ablation harness.

One cell = (strategy, target speedup, sparsity mode, seed): sparse-train a
fresh toy model under the strategy, prune it to the target speedup with
uniform or learned layer sparsity, fine-tune briefly, and report test
accuracy. The harness drives every stochastic choice from the cell seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine, zoo
from .data import shapes, spiral, train_test_split
from .dependency import build_depgraph
from .errors import ConfigError
from .grouping import extract_groups
from .pruning import build_learned_plan, build_uniform_plan, prune, speedup
from .sparse import SparseConfig, train_sparse

STRATEGIES = ("random", "no-grouping", "conv-only", "full-grouping")
FINETUNE_EPOCHS = 5


@dataclass
class AblationCell:
    strategy: str
    target_speedup: float
    mode: str      # "uniform" | "learned"
    seed: int
    accuracy: float
    achieved_speedup: float


def make_model(dataset: str, seed: int):
    if dataset == "shapes":
        return zoo.residual_cnn(seed=seed)
    if dataset == "spiral":
        return zoo.spiral_mlp(seed=seed)
    raise ConfigError(f"unknown dataset {dataset!r}")


def make_data(dataset: str, seed: int):
    if dataset == "shapes":
        x, y = shapes(n=640, seed=seed)
    elif dataset == "spiral":
        x, y = spiral(n_per_class=320, seed=seed)
    else:
        raise ConfigError(f"unknown dataset {dataset!r}")
    return train_test_split(x, y, test_fraction=0.25, seed=seed)


def _uniform_ratio_for_speedup(ir, groups, target: float, strategy, rng):
    """Binary-search the per-group ratio that reaches a target speedup.

    Returns the smallest probed ratio whose speedup reached the target
    (the upper bound 0.95 if none did): widths change in whole units, so
    the last midpoint can sit below the target.
    """
    lo, hi = 0.0, 0.95
    for _ in range(18):
        mid = (lo + hi) / 2
        plan = build_uniform_plan(ir, groups, mid, strategy, rng=rng)
        pruned = prune(ir, plan, groups)
        s = speedup(ir, pruned)
        if s < target:
            lo = mid
        else:
            hi = mid
            if s / target < 1.02:
                break
    return hi


def run_cell(dataset: str, strategy: str, target_speedup: float, mode: str,
             seed: int, cfg: SparseConfig) -> AblationCell:
    """Train, prune and fine-tune one cell. The "random" strategy trains
    without a regularizer (sparse.sparsity_groups gives it no groups);
    training changes weights only, so the groups extracted up front serve
    planning and pruning too."""
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    (x_tr, y_tr), (x_te, y_te) = make_data(dataset, seed)
    ir = make_model(dataset, seed)
    groups = extract_groups(build_depgraph(ir))
    ir, _trace = train_sparse(ir, (x_tr, y_tr),
                              replace(cfg, seed=seed, strategy=strategy), groups)

    rng = np.random.default_rng(seed + 1)
    if mode == "uniform":
        ratio = _uniform_ratio_for_speedup(ir, groups, target_speedup,
                                           strategy, rng)
        plan = build_uniform_plan(ir, groups, ratio, strategy,
                                  rng=np.random.default_rng(seed + 1))
    else:
        plan = build_learned_plan(ir, groups, 1.0 / target_speedup,
                                  strategy, rng=rng)
    pruned = prune(ir, plan, groups)
    achieved = speedup(ir, pruned)

    ft_cfg = SparseConfig(epochs=FINETUNE_EPOCHS, reg_weight=0.0,
                          lr=cfg.lr / 2, momentum=cfg.momentum,
                          batch_size=cfg.batch_size, seed=seed + 2)
    ft_groups = extract_groups(build_depgraph(pruned))
    pruned, _ = train_sparse(pruned, (x_tr, y_tr), ft_cfg, ft_groups)

    acc = engine.accuracy(engine.forward(pruned, x_te), y_te)
    return AblationCell(strategy, target_speedup, mode, seed, acc, achieved)


def run_ablation(dataset: str, strategies, target_speedups, modes, seeds,
                 cfg: SparseConfig):
    """Full grid; returns {(strategy, f"{speedup}x/{mode}"): median accuracy}
    plus the raw per-cell results."""
    cells = []
    for strategy in strategies:
        for target in target_speedups:
            for mode in modes:
                for seed in seeds:
                    cells.append(run_cell(dataset, strategy, target, mode,
                                          seed, cfg))
    table = {}
    for strategy in strategies:
        for target in target_speedups:
            for mode in modes:
                accs = [c.accuracy for c in cells
                        if (c.strategy, c.target_speedup, c.mode)
                        == (strategy, target, mode)]
                table[(strategy, f"{target:g}x/{mode}")] = float(np.median(accs))
    return table, cells

"""Grouping-strategy ablation harness.

One cell = (strategy, target speedup, sparsity mode, seed): prune a toy
model sparse-trained under the strategy to the target speedup with uniform
or learned layer sparsity, fine-tune briefly, and report test accuracy.
Training reads only the dataset, strategy, seed and config, so the grid
trains one model per (strategy, seed) and every (target, mode) cell of it
starts from that model. A cell scores its groups once
(pruning.group_scores) and both modes only select from those scores; a
uniform cell prunes once, its plan found with pruning.plan_macs. The cell
seed drives every stochastic choice.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine, zoo
from .data import shapes, spiral, train_test_split
from .dependency import build_depgraph
from .errors import ConfigError
from .grouping import extract_groups
from .pruning import (PrunePlan, build_learned_plan, build_uniform_plan,
                      group_scores, plan_macs, prune, speedup)
from .sparse import SparseConfig, train_sparse

FINETUNE_EPOCHS = 5


@dataclass
class AblationCell:
    strategy: str
    target_speedup: float
    mode: str      # "uniform" | "learned"
    seed: int
    accuracy: float
    achieved_speedup: float


def _dataset(name: str):
    """(model builder, sample builder) of a dataset, each taking the seed."""
    if name == "shapes":
        return zoo.residual_cnn, lambda seed: shapes(n=640, seed=seed)
    if name == "spiral":
        return zoo.spiral_mlp, lambda seed: spiral(n_per_class=320, seed=seed)
    raise ConfigError(f"unknown dataset {name!r}")


def make_model(dataset: str, seed: int):
    return _dataset(dataset)[0](seed=seed)


def make_data(dataset: str, seed: int):
    x, y = _dataset(dataset)[1](seed)
    return train_test_split(x, y, seed=seed)


def uniform_plan_for_speedup(ir, groups, scores: dict[str, np.ndarray],
                             target: float) -> PrunePlan:
    """The uniform plan from scores (pruning.group_scores) of the smallest
    ratio in [0, 0.95] whose speedup reaches target, or of 0.95 if none
    does.

    A scored group of width k prunes int(ratio * k) indices, so the
    candidates are 0, 0.95 and the smallest ratio of each step j (the
    float j / k can sit on either side of it). The selections only grow
    with the ratio, so plan_macs falls as it grows and a bisection finds
    the smallest candidate that reaches the target.
    """
    steps = set()
    for k in {len(s) for s in scores.values()}:
        for j in range(1, k):
            r = j / k
            while int(r * k) < j:
                r = math.nextafter(r, 1.0)
            while int(math.nextafter(r, 0.0) * k) >= j:
                r = math.nextafter(r, 0.0)
            steps.add(r)
    candidates = [0.0, *sorted(r for r in steps if r < 0.95), 0.95]

    base = plan_macs(ir, groups, PrunePlan())
    i = bisect.bisect_left(candidates, True, key=lambda r: base / plan_macs(
        ir, groups, build_uniform_plan(ir, groups, scores, r)) >= target)
    return build_uniform_plan(ir, groups, scores,
                              candidates[min(i, len(candidates) - 1)])


def train_cell_model(dataset: str, strategy: str, seed: int,
                     cfg: SparseConfig):
    """Build the data and model of a seed and sparse-train the model under
    the strategy; returns (ir, groups, data). The "random" strategy trains
    without a regularizer (sparse.sparsity_groups gives it no groups);
    training changes weights only, so the groups extracted up front serve
    planning and pruning too."""
    data = make_data(dataset, seed)
    ir = make_model(dataset, seed)
    groups = extract_groups(build_depgraph(ir))
    ir, _trace = train_sparse(ir, data[0],
                              replace(cfg, seed=seed, strategy=strategy), groups)
    return ir, groups, data


def run_cell(trained, strategy: str, target_speedup: float, mode: str,
             seed: int, cfg: SparseConfig) -> AblationCell:
    """Prune and fine-tune one cell, starting from trained, the (ir, groups,
    data) that train_cell_model returned for the cell's strategy and seed.
    The trained IR is only read: prune copies every tensor it keeps, and
    the fine-tune trains that copy. The fine-tune gets no groups: at
    reg_weight 0 it regularizes nothing, and its trace is dropped."""
    ir, groups, ((x_tr, y_tr), (x_te, y_te)) = trained
    scores = group_scores(ir, groups, strategy,
                          rng=np.random.default_rng(seed + 1))
    if mode == "uniform":
        plan = uniform_plan_for_speedup(ir, groups, scores, target_speedup)
    else:
        plan = build_learned_plan(ir, groups, scores, 1.0 / target_speedup)
    pruned = prune(ir, plan, groups)
    achieved = speedup(ir, pruned)

    ft_cfg = SparseConfig(epochs=FINETUNE_EPOCHS, reg_weight=0.0,
                          lr=cfg.lr / 2, momentum=cfg.momentum,
                          batch_size=cfg.batch_size, seed=seed + 2)
    pruned, _ = train_sparse(pruned, (x_tr, y_tr), ft_cfg, [])

    acc = engine.accuracy(engine.forward(pruned, x_te), y_te)
    return AblationCell(strategy, target_speedup, mode, seed, acc, achieved)


def run_ablation(dataset: str, strategies, target_speedups, modes, seeds,
                 cfg: SparseConfig):
    """Full grid; returns {(strategy, f"{target:g}x/{mode}"): median
    accuracy of all cells under the key, a repeated strategy's included}
    plus the raw per-cell results, in strategy, target, mode, seed order.

    Each (strategy, seed) model is trained once, on its first cell, and
    every cell of that strategy and seed starts from it; the models of one
    strategy are dropped when the next strategy begins."""
    cells = []
    for strategy in strategies:
        trained = {}
        for target in target_speedups:
            for mode in modes:
                for seed in seeds:
                    if seed not in trained:
                        trained[seed] = train_cell_model(dataset, strategy,
                                                         seed, cfg)
                    cells.append(run_cell(trained[seed], strategy, target,
                                          mode, seed, cfg))
    accs = {}
    for c in cells:
        accs.setdefault((c.strategy, f"{c.target_speedup:g}x/{c.mode}"),
                        []).append(c.accuracy)
    return {key: float(np.median(a)) for key, a in accs.items()}, cells

"""Workloads of the benchmark: their inputs, their commands and the checks
on every command's outputs.

A workload is a list of CLI commands run in order (one cycle) over K
inputs made from the workload seed. The inputs differ only in their
random weights (or, for ablate-cell, in the cell seed), so the work in a
cycle is the same from seed to seed while the numbers it sees are not.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from grouprune import ablate, engine, zoo
from grouprune.ir import (NetworkIR, activation, batchnorm, conv2d, eltwise,
                          flatten, init_weights, linear, load_model, pool,
                          save_model)
from grouprune.pruning import PrunePlan

INPUTS_PER_RUN = 4
PRUNE_RATIO = 0.5
ABLATE_TARGET = 2.0
TRAIN_EPOCHS = 20   # at 5 epochs the wide MLP sits at chance on spiral
# deep-prune's residual CNN: BLOCKS blocks of WIDTH channels on a
# 1 x IMAGE x IMAGE input, with CLASSES outputs.
BLOCKS = 48
WIDTH = 16
IMAGE = 8
CLASSES = 4


def deep_resnet(seed: int) -> NetworkIR:
    """Stem conv, BLOCKS residual blocks (conv-bn-relu-conv-bn + skip
    add, relu), then pool/flatten/linear: 7 * BLOCKS + 4 components."""
    w = WIDTH
    comps = [conv2d("stem", 1, w, kernel=3, padding=1)]
    edges = []
    prev = "stem"
    for b in range(BLOCKS):
        p = f"b{b}."
        comps += [conv2d(p + "conv1", w, w, kernel=3, padding=1),
                  batchnorm(p + "bn1", w), activation(p + "act1", w),
                  conv2d(p + "conv2", w, w, kernel=3, padding=1),
                  batchnorm(p + "bn2", w), eltwise(p + "add", w),
                  activation(p + "act2", w)]
        edges += [(prev, 0, p + "conv1", 0), (p + "conv1", 0, p + "bn1", 0),
                  (p + "bn1", 0, p + "act1", 0), (p + "act1", 0, p + "conv2", 0),
                  (p + "conv2", 0, p + "bn2", 0), (p + "bn2", 0, p + "add", 0),
                  (prev, 0, p + "add", 1), (p + "add", 0, p + "act2", 0)]
        prev = p + "act2"
    spatial = (IMAGE // 2) ** 2
    comps += [pool("pool", w, kernel=2), flatten("flat", w, spatial),
              linear("head", w * spatial, CLASSES)]
    edges += [(prev, 0, "pool", 0), ("pool", 0, "flat", 0),
              ("flat", 0, "head", 0)]
    ir = NetworkIR(comps, edges, (1, IMAGE, IMAGE), [("stem", 0)])
    init_weights(ir, np.random.default_rng(seed))
    return ir.check_valid()


def wide_mlp(seed: int) -> NetworkIR:
    return zoo.mlp([2, 1024, 1024, 1024, 2], seed=seed)


@dataclass
class Input:
    index: int
    seed: int          # the CLI --seed (--seeds for ablate)
    model: Path        # descriptor written at set-up
    components: int
    classes: int
    macs: int = 0      # filled in by the first check that needs it


@dataclass
class Outcome:
    """Result of checking one command's outputs."""

    problems: list[str] = field(default_factory=list)
    speedup_error: float | None = None
    accuracy: float | None = None


# ---------------------------------------------------------------------------
# Set-up: one input per (model seed, CLI seed)


def setup_deep(i, model_seed, cli_seed, out: Path) -> Input:
    ir = deep_resnet(model_seed)
    path = out / f"deep{i}.json"
    save_model(ir, path)
    return Input(i, cli_seed, path, len(ir.components), CLASSES)


def setup_wide(i, model_seed, cli_seed, out: Path) -> Input:
    ir = wide_mlp(model_seed)
    path = out / f"wide{i}.json"
    save_model(ir, path)
    return Input(i, cli_seed, path, len(ir.components), 2)


def setup_cell(i, model_seed, cli_seed, out: Path) -> Input:
    """The model and data the ablation cell starts from; the CLI builds
    them again from the cell seed."""
    ir = ablate.make_model("shapes", cli_seed)
    (_, y_tr), _ = ablate.make_data("shapes", cli_seed)
    path = out / f"cell{i}.json"
    save_model(ir, path)
    return Input(i, cli_seed, path, len(ir.components), len(np.unique(y_tr)))


# ---------------------------------------------------------------------------
# Commands


def argv_for(kind: str, inp: Input) -> list[str]:
    seed = str(inp.seed)
    if kind == "inspect":
        return ["inspect", "--model", str(inp.model)]
    if kind in ("prune_uniform", "prune_learned"):
        return ["prune", "--model", str(inp.model), "--mode", kind[6:],
                "--ratio", str(PRUNE_RATIO), "--seed", seed]
    if kind == "train":
        return ["train", "--model", str(inp.model), "--data", "spiral",
                "--epochs", str(TRAIN_EPOCHS), "--reg-weight", "1e-4",
                "--seed", seed]
    if kind == "ablate":
        return ["ablate", "--data", "shapes", "--strategies", "full-grouping",
                "--modes", "uniform,learned", "--speedups", str(ABLATE_TARGET),
                "--seeds", seed]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Checks


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def _base_macs(inp: Input) -> int:
    if not inp.macs:
        inp.macs = engine.count_macs(load_model(inp.model))
    return inp.macs


def _reloads(path: Path, out: Outcome):
    """load_model runs validate(); a failure is an outcome problem."""
    try:
        ir = load_model(path)
    except Exception as exc:   # any failure to reload is a wrong output
        out.problems.append(f"{path.name} does not reload: {exc!r}")
        return None
    if ir.validate():
        out.problems.append(f"{path.name} fails validate()")
        return None
    return ir


def check_inspect(inp: Input, d: Path, stdout: str, out: Outcome) -> None:
    halves = 2 * inp.components
    dep = _lines(d / "depgraph.csv")
    if len(dep) != halves + 1 or len(dep[0].split(",")) != halves + 1:
        out.problems.append(f"depgraph.csv is not {halves}x{halves}")
    if len(_lines(d / "grouping.csv")) != inp.components + 1:
        out.problems.append("grouping.csv has the wrong number of rows")
    report = (d / "groups.txt").read_text()
    if not report.startswith("group g000") or not stdout.startswith(report):
        out.problems.append("groups.txt is missing or differs from stdout")


def check_prune(inp: Input, d: Path, stdout: str, out: Outcome,
                learned: bool) -> None:
    pruned = _reloads(d / "pruned.json", out)
    PrunePlan.from_json(d / "plan.json")   # must parse
    m = re.search(r"MACs (\d+) -> (\d+)", (d / "prune_report.txt").read_text())
    if m is None:
        out.problems.append("prune_report.txt has no MACs line")
        return
    base, after = int(m.group(1)), int(m.group(2))
    if base != _base_macs(inp):
        out.problems.append(f"report base MACs {base} != count_macs {inp.macs}")
    if pruned is not None and after != engine.count_macs(pruned):
        out.problems.append(f"report MACs {after} != count_macs of pruned.json")
    if learned:
        out.speedup_error = abs(base / after * (1 - PRUNE_RATIO) - 1)


def check_train(inp: Input, d: Path, stdout: str, out: Outcome) -> None:
    _reloads(d / "trained.json", out)
    m = re.search(r"test accuracy ([0-9.]+)", stdout)
    if m is None:
        out.problems.append("train printed no test accuracy")
        return
    out.accuracy = float(m.group(1))
    if out.accuracy <= 1 / inp.classes:
        out.problems.append(f"test accuracy {out.accuracy} is not above chance")


def check_ablate(inp: Input, d: Path, stdout: str, out: Outcome) -> None:
    with open(d / "ablation_cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    if sorted(c["mode"] for c in cells) != ["learned", "uniform"]:
        out.problems.append("ablation_cells.csv does not hold the two cells")
        return
    accs = [float(c["accuracy"]) for c in cells]
    achieved = [float(c["achieved_speedup"]) for c in cells]
    if min(accs) <= 1 / inp.classes:
        out.problems.append(f"cell accuracy {min(accs)} is not above chance")
    if min(achieved) <= 1:
        out.problems.append(f"cell speedup {min(achieved)} is not above 1")
    out.accuracy = float(np.median(accs))
    out.speedup_error = max(abs(a / ABLATE_TARGET - 1) for a in achieved)


def check(kind: str, inp: Input, d: Path, stdout: str) -> Outcome:
    out = Outcome()
    try:
        if kind == "inspect":
            check_inspect(inp, d, stdout, out)
        elif kind in ("prune_uniform", "prune_learned"):
            check_prune(inp, d, stdout, out, kind == "prune_learned")
        elif kind == "train":
            check_train(inp, d, stdout, out)
        else:
            check_ablate(inp, d, stdout, out)
    except (OSError, ValueError, KeyError) as exc:
        out.problems.append(f"output missing or malformed: {exc!r}")
    return out


# ---------------------------------------------------------------------------
# The workloads and what the traced run must see on each


@dataclass(frozen=True)
class Workload:
    kinds: tuple[str, ...]          # commands of one cycle, in order
    setup: Callable[[int, int, int, Path], Input]   # (i, model_seed, cli_seed, dir)
    absent: frozenset[str]          # probes this workload never reaches


WORKLOADS = {
    "deep-prune": Workload(
        ("inspect", "prune_uniform", "prune_learned"), setup_deep,
        frozenset({"sparse.train_sparse", "sparse.regularizer_grad",
                   "engine.forward", "engine.backward", "engine.sgd_step",
                   "ablate.run_cell"})),
    "wide-train": Workload(
        ("train", "prune_learned"), setup_wide,
        frozenset({"grouping.derive_grouping_matrix",
                   "pruning.build_uniform_plan", "ablate.run_cell"})),
    "ablate-cell": Workload(
        ("ablate",), setup_cell,
        frozenset({"ir.load_model", "ir.save_model",
                   "grouping.derive_grouping_matrix"})),
}

# Which end-to-end number each module's metrics should move, on which
# workload. cli.<command>_s are the untraced times per command.
PREDICTIONS = {
    "ir": "cli.prune_learned_s, cli.prune_uniform_s and cycle_s on deep-prune; "
          "not cycle_s on ablate-cell",
    "dependency": "cli.inspect_s on deep-prune",
    "grouping": "cli.inspect_s on deep-prune",
    "importance": "cli.train_s on wide-train (gamma refresh, per-epoch trace); "
                  "cli.prune_*_s on deep-prune",
    "sparse": "cli.train_s and cycle_s on wide-train; barely cycle_s on "
              "ablate-cell; absent on deep-prune",
    "engine": "conv: cycle_s on ablate-cell; linear: cli.train_s on wide-train",
    "pruning": "cli.prune_learned_s on deep-prune and wide-train; "
               "cli.prune_uniform_s on deep-prune",
    "ablate": "cycle_s on ablate-cell",
    "reporting": "cli.inspect_s on deep-prune (dense depgraph CSV); "
                 "cli.train_s on wide-train (trace CSV)",
    "cli": "cli.self_s: parsing, printing and writes outside the spans, in "
           "every command; cli.<command>_s is that command's untraced time, "
           "and op_geomean_s their geometric mean",
    "trace": "nothing: traced minus untraced time per command",
}

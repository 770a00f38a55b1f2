"""Command-line interface: inspect, train, prune, ablate.

Exit codes by failure category: 2 for parse/config problems, among them
a dataset whose samples do not fit the model (ShapeError), 3 for IR
validation failures, 4 for I/O. One seed drives every stochastic choice.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from . import engine
from .ablate import STRATEGIES, make_data, run_ablation
from .data import DATASETS
from .dependency import build_depgraph, export_depgraph
from .errors import (GroupingError, ModelParseError, PruneError, ShapeError,
                     TrainingDiverged, ValidationError)
from .grouping import derive_grouping_matrix, export_grouping, extract_groups, group_report
from .ir import load_model, save_model
from .pruning import end_to_end_prune, format_speedup_line
from .reporting import emit_sparsity_histogram, emit_table, emit_trace, write_csv
from .sparse import SparseConfig, train_sparse

EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_IO = 4


def _out_dir(args) -> pathlib.Path:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_inspect(args) -> int:
    ir = load_model(args.model)
    out = _out_dir(args)
    d = build_depgraph(ir)
    groups = extract_groups(d)
    gm = derive_grouping_matrix(d)
    export_depgraph(d, out / "depgraph.csv")
    export_grouping(gm, out / "grouping.csv")
    report = group_report(groups)
    report += "\ncomponent-level groups:\n"
    seen = set()
    for cid in gm.component_ids:
        coupled = tuple(gm.coupled(cid))
        if coupled in seen:
            continue
        seen.add(coupled)
        report += f"  {{{', '.join(coupled)}}}\n"
    (out / "groups.txt").write_text(report)
    print(report, end="")
    print(f"wrote {out / 'depgraph.csv'}, {out / 'grouping.csv'}, "
          f"{out / 'groups.txt'}")
    return 0


def cmd_train(args) -> int:
    ir = load_model(args.model)
    if args.data not in DATASETS:
        raise ValueError(f"unknown dataset {args.data!r}")
    if args.config:
        cfg = SparseConfig.from_json(args.config)
    else:
        cfg = SparseConfig()
    overrides = {"alpha": args.alpha, "reg_weight": args.reg_weight,
                 "epochs": args.epochs, "lr": args.lr, "seed": args.seed,
                 "strategy": args.strategy}
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    cfg.__post_init__()

    (x_tr, y_tr), (x_te, y_te) = make_data(args.data, cfg.seed)
    groups = extract_groups(build_depgraph(ir))
    ir, trace = train_sparse(ir, (x_tr, y_tr), cfg, groups)
    out = _out_dir(args)
    save_model(ir, out / "trained.json")
    emit_trace(trace, out / "trace.csv")
    emit_sparsity_histogram(trace, out / "sparsity_hist.csv")
    acc = engine.accuracy(engine.forward(ir, x_te), y_te)
    print(f"trained {cfg.epochs} epochs, strategy={cfg.strategy}, "
          f"test accuracy {acc:.4f}")
    print(f"wrote {out / 'trained.json'}, {out / 'trace.csv'}, "
          f"{out / 'sparsity_hist.csv'}")
    return 0


def cmd_prune(args) -> int:
    ir = load_model(args.model)
    pruned, plan, report = end_to_end_prune(
        ir, args.ratio, mode=args.mode, strategy=args.strategy,
        topn=args.topn, seed=args.seed)
    out = _out_dir(args)
    save_model(pruned, out / "pruned.json")
    plan.to_json(out / "plan.json")
    rows = [[g["group_id"], g["width_before"], g["width_after"], g["pruned"]]
            for g in report["groups"]]
    write_csv(out / "prune_report.csv",
              ["group", "width_before", "width_after", "pruned"], rows)
    line = format_speedup_line(report["base_macs"], report["pruned_macs"])
    (out / "prune_report.txt").write_text(
        f"mode={report['mode']} strategy={report['strategy']} "
        f"ratio={report['ratio']:g}\n{line}\n")
    print(line)
    print(f"wrote {out / 'pruned.json'}, {out / 'plan.json'}, "
          f"{out / 'prune_report.csv'}")
    return 0


def cmd_ablate(args) -> int:
    strategies = args.strategies.split(",")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}; choose from {STRATEGIES}")
    speedups = [float(r) for r in args.speedups.split(",")]
    modes = args.modes.split(",")
    for m in modes:
        if m not in ("uniform", "learned"):
            raise ValueError(f"unknown mode {m!r}")
    seeds = [int(s) for s in args.seeds.split(",")]
    cfg = SparseConfig(epochs=args.epochs, reg_weight=args.reg_weight
                       if args.reg_weight is not None else 5e-3,
                       alpha=args.alpha if args.alpha is not None else 4.0)
    table, cells = run_ablation(args.data, strategies, speedups, modes, seeds,
                                cfg)
    out = _out_dir(args)
    col_keys = [f"{t:g}x/{m}" for t in speedups for m in modes]
    emit_table(table, out / "ablation.csv", row_key="strategy",
               col_keys=col_keys)
    write_csv(out / "ablation_cells.csv",
              ["strategy", "target_speedup", "mode", "seed", "accuracy",
               "achieved_speedup"],
              [[c.strategy, c.target_speedup, c.mode, c.seed,
                round(c.accuracy, 6), round(c.achieved_speedup, 4)]
               for c in cells])
    for (strategy, col), acc in sorted(table.items()):
        print(f"{strategy:<14} {col:<16} median acc {acc:.4f}")
    print(f"wrote {out / 'ablation.csv'}, {out / 'ablation_cells.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="grouprune",
                                description="structural pruning with "
                                "automatic group discovery")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("inspect", help="dependency graph, grouping matrix "
                        "and group report for a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_inspect)

    sp = sub.add_parser("train", help="group-sparse training")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", default="shapes", help="spiral | shapes")
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", help="JSON SparseConfig file")
    sp.add_argument("--strategy", choices=("full-grouping", "conv-only",
                                           "no-grouping"))
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--reg-weight", type=float, dest="reg_weight")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("prune", help="physically prune a model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--ratio", type=float, required=True)
    sp.add_argument("--mode", choices=("uniform", "learned"), default="uniform")
    sp.add_argument("--strategy", choices=STRATEGIES, default="full-grouping")
    sp.add_argument("--topn", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_prune)

    sp = sub.add_parser("ablate", help="grouping-strategy ablation grid")
    sp.add_argument("--data", default="shapes")
    sp.add_argument("--out", required=True)
    sp.add_argument("--strategies", default="full-grouping,conv-only,no-grouping")
    sp.add_argument("--speedups", default="2.0", help="target speedups, comma list")
    sp.add_argument("--modes", default="learned", help="uniform,learned")
    sp.add_argument("--seeds", default="0,1,2,3,4")
    sp.add_argument("--epochs", type=int, default=12)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--reg-weight", type=float, dest="reg_weight")
    sp.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ModelParseError, ShapeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, GroupingError, PruneError,
            TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

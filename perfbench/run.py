#!/usr/bin/env python3
"""Benchmark of the grouprune CLI.

    python3 perfbench/run.py --workload deep-prune --seed 1 --seconds 25 --trace 0

Runs one workload from the root of a source checkout: builds its inputs
from --seed, then calls ``grouprune.cli.main(argv)`` in this process in a
closed loop (the next command starts when the previous one returns) for
--seconds, checks every command's outputs and prints a summary. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 every command is run twice, untraced and then traced
through perfbench/tracer.py, and the metrics are the per-module ones of
BENCHMARK.json. The traced replay must write byte-identical outputs.

BLAS is pinned to one thread. Op outputs go to a fresh directory under
.perfbench_work/ for every command and are removed once checked: on an
ext4 root mounted with `discard`, overwriting a file costs ~0.1 s.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    t = tail(values)
    pct = f"p{t[0]:.0f}={t[1]:.6g}" if t else "no percentile with 10 beyond"
    return (f"{name:<22} median {statistics.median(values):.6g} {unit}  "
            f"n={len(values)}  {pct}")


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def machine_record(args, work: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": commit,
        "src_sha1": src.hexdigest(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "op_outputs": f"{work.relative_to(ROOT)}/ops/<n>, fresh per command",
    }


@dataclass
class OpRun:
    kind: str
    index: int
    wall_s: float
    out: Path
    outcome: object
    trace: object = None


class Bench:
    """Runs commands, checks them and keeps the tally of failures."""

    def __init__(self, work: Path):
        from grouprune import cli, engine

        self.cli, self.count_macs = cli, engine.count_macs
        self.work = work
        self.n_dirs = 0
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems[:5]:
            print(f"FAILED {what}: {p}", file=sys.stderr)

    def run_op(self, kind, inp, tracer=None) -> OpRun:
        from workloads import Outcome, argv_for, check

        self.n_dirs += 1
        out = self.work / "ops" / str(self.n_dirs)
        argv = argv_for(kind, inp) + ["--out", str(out)]

        def call():
            try:
                return self.cli.main(argv)
            except Exception:   # a traceback is a failed command, not a crash
                return traceback.format_exc()

        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        trace = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                t0 = time.perf_counter()
                rc = call()
                wall = time.perf_counter() - t0
            else:
                rc, trace = tracer.run(call, self.count_macs)
                wall = trace.wall_s
        if rc == 0:
            outcome = check(kind, inp, out, stdout.getvalue())
        else:
            outcome = Outcome([f"exit {rc!r}: {stderr.getvalue().strip()}"])
        return OpRun(kind, inp.index, wall, out, outcome, trace)

    def settle(self, op: OpRun, keep: bool = False) -> None:
        self.attempted += 1
        if op.outcome.problems:
            self.fail(f"{op.kind} on input {op.index}", op.outcome.problems)
        if not keep:
            shutil.rmtree(op.out, ignore_errors=True)


def set_up(wl, seed: int, work: Path):
    """Builds the inputs SETUP_REPEATS times; returns the last inputs and
    every set-up time."""
    import numpy as np
    from workloads import INPUTS_PER_RUN

    rng = np.random.default_rng(seed)
    model_seeds = rng.integers(0, 2**31 - 3, INPUTS_PER_RUN)
    cli_seeds = rng.integers(0, 2**31 - 3, INPUTS_PER_RUN)
    times = []
    for r in range(SETUP_REPEATS):
        d = work / f"setup{r}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = [wl.setup(i, int(m), int(c), d)
                  for i, (m, c) in enumerate(zip(model_seeds, cli_seeds))]
        times.append(time.perf_counter() - t0)
    return inputs, times


def cycles(inputs, seconds: float):
    """Yields the input of each measured cycle until the next cycle would
    end after `seconds`."""
    start = time.perf_counter()
    spans = []
    i = 0
    while True:
        c0 = time.perf_counter()
        yield inputs[i % len(inputs)]
        spans.append(time.perf_counter() - c0)
        i += 1
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            return


def measure(bench: Bench, wl, inputs, seconds, setup_times) -> dict:
    for kind in wl.kinds:   # warm-up, checked but not timed
        bench.settle(bench.run_op(kind, inputs[0]))
    per_kind = {k: [] for k in wl.kinds}
    cycle_s, accuracy, errors = [], [], []
    for inp in cycles(inputs, seconds):
        total = 0.0
        for kind in wl.kinds:
            op = bench.run_op(kind, inp)
            bench.settle(op)
            per_kind[kind].append(op.wall_s)
            total += op.wall_s
            if op.outcome.accuracy is not None:
                accuracy.append(op.outcome.accuracy)
            if op.outcome.speedup_error is not None:
                errors.append(op.outcome.speedup_error)
        cycle_s.append(total)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Every command weighs the same here, so a short command's regression
    # shows as much as a long one's; in cycle_s it is diluted by the rest.
    op_geomean = statistics.geometric_mean(
        statistics.median(v) for v in per_kind.values())
    print(describe("setup_s", setup_times, "s"))
    for kind, values in per_kind.items():
        print(describe(f"cli.{kind}_s", values, "s"))
    print(describe("cycle_s", cycle_s, "s"))
    print(f"{'op_geomean_s':<22} {op_geomean:.6g} s  "
          f"(geometric mean of the cli.<command>_s medians)")
    print(f"{'peak_rss_mb':<22} {peak_mb:.6g} MB")
    if accuracy:
        print(f"{'test_accuracy':<22} median {statistics.median(accuracy):.4f}  "
              f"min {min(accuracy):.4f}  n={len(accuracy)}")
    if errors:
        print(f"{'speedup_error':<22} worst {max(errors):.6g}  n={len(errors)}")
    return {"setup_s": statistics.median(setup_times),
            "cycle_s": statistics.median(cycle_s), "op_geomean_s": op_geomean,
            "peak_rss_mb": peak_mb}


def trace_run(bench: Bench, wl, inputs, seconds):
    """Per-module metrics, and the names of those this workload never
    reaches (reported as 0)."""
    from tracer import PROBES, Tracer

    tracer = Tracer()
    for kind in wl.kinds:
        bench.settle(bench.run_op(kind, inputs[0]))
    untraced = {k: [] for k in wl.kinds}
    traces, cycle_traces, errors, accuracy = [], [], [], []
    signature = {}
    for inp in cycles(inputs, seconds):
        cycle = []
        for kind in wl.kinds:
            plain = bench.run_op(kind, inp)
            traced = bench.run_op(kind, inp, tracer)
            bench.settle(plain, keep=True)
            both_ran = not plain.outcome.problems and not traced.outcome.problems
            if both_ran and not same_files(plain.out, traced.out):
                traced.outcome.problems.append(
                    "traced replay wrote different bytes from the untraced op")
            tr = traced.trace
            sig = (tr.calls, tr.counts)
            if signature.setdefault((kind, inp.index), sig) != sig:
                traced.outcome.problems.append(
                    "counts differ between repetitions of the same op")
            bench.settle(traced)
            shutil.rmtree(plain.out, ignore_errors=True)
            untraced[kind].append(plain.wall_s)
            traces.append((plain.wall_s, tr))
            cycle.append(tr)
            if plain.outcome.accuracy is not None:
                accuracy.append(plain.outcome.accuracy)
            if plain.outcome.speedup_error is not None:
                errors.append(plain.outcome.speedup_error)
        cycle_traces.append(cycle)

    trs = [tr for _, tr in traces]
    calls = _total(trs, "calls")
    self_s = _total(trs, "self_s")
    incl_s = _total(trs, "incl_s")
    counts = _total(trs, "counts")

    reached = {p.name for p in PROBES if p.name not in wl.absent}
    silent = sorted(name for name in reached if not calls.get(name))
    if silent:
        bench.fail("span guard", [f"{', '.join(silent)} never fired"])

    def per_call(name):
        return self_s.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def per_cycle(key, field_name="calls"):
        return statistics.median(
            sum(getattr(tr, field_name).get(key, 0) for tr in cyc)
            for cyc in cycle_traces)

    m = {}
    for p in PROBES:
        if p.timed:
            m[f"{p.name}_s"] = per_call(p.name)
        else:
            m[f"{p.name}_calls"] = per_cycle(p.name)
    m["importance.group_l2_importance_calls"] = per_cycle(
        "importance.group_l2_importance")
    for key in ("dependency.edges", "grouping.groups", "grouping.members",
                "pruning.plan_indices_removed", "sparse.steps"):
        m[key] = per_cycle(key, "counts")
    cells = calls.get("ablate.run_cell", 0)
    m["ablate.trial_prunes"] = counts.get("ablate.trial_prunes", 0) / cells if cells else 0
    m["sparse.regularizer_share"] = (
        self_s.get("sparse.regularizer_grad", 0.0) / incl_s["sparse.train_sparse"]
        if incl_s.get("sparse.train_sparse") else 0.0)
    train_s = sum(tr.train_pass_s for tr in trs)
    m["engine.train_gmacs_per_s"] = (
        sum(tr.train_macs for tr in trs) / train_s / 1e9 if train_s else 0.0)
    m["cli.self_s"] = statistics.fmean(tr.cli_self_s for tr in trs)
    for kind in ("inspect", "prune_uniform", "prune_learned", "train", "ablate"):
        values = untraced.get(kind)
        m[f"cli.{kind}_s"] = statistics.median(values) if values else 0.0
    m["trace.overhead_s"] = statistics.fmean(tr.wall_s - u for u, tr in traces)
    m["pruning.speedup_error"] = max(errors) if errors else 0.0
    m["sparse.test_accuracy"] = statistics.median(accuracy) if accuracy else 0.0

    wall = sum(tr.wall_s for tr in trs)
    ranking = sorted([(v, k) for k, v in self_s.items()]
                     + [(sum(tr.cli_self_s for tr in trs), "cli.self")],
                     reverse=True)
    print(f"traced ops {len(trs)} in {len(cycle_traces)} cycles of "
          f"{', '.join(wl.kinds)}; counts below are per cycle, times per call")
    # cli.self is the wall time less the top-level spans, so the self
    # times below add up to the traced wall time by construction.
    print("self time per cycle, share of traced wall:")
    for v, k in ranking[:6]:
        print(f"  {k + '_s':<36} {v / len(cycle_traces):10.4f} s  {v / wall:6.1%}")
    reached |= {f"cli.{kind}" for kind in wl.kinds} | {"cli.self", "trace.overhead"}
    return m, {name for name in m if source(name) not in reached}


# Metrics that are not named after the probe they come from.
SOURCES = {
    "dependency.edges": "dependency.build_depgraph",
    "grouping.groups": "grouping.extract_groups",
    "grouping.members": "grouping.extract_groups",
    "pruning.plan_indices_removed": "pruning.build_learned_plan",
    "pruning.speedup_error": "pruning.build_learned_plan",
    "sparse.regularizer_share": "sparse.regularizer_grad",
    "sparse.steps": "sparse.train_sparse",
    "sparse.test_accuracy": "sparse.train_sparse",
    "engine.train_gmacs_per_s": "engine.backward",
    "ablate.trial_prunes": "ablate.run_cell",
}


def source(metric: str) -> str:
    """The probe (or cli.<command>) a per-module metric is measured at."""
    if metric in SOURCES:
        return SOURCES[metric]
    for suffix in ("_calls", "_s"):
        if metric.endswith(suffix):
            return metric[:-len(suffix)]
    return metric


def _total(traces, field_name) -> dict:
    out: dict = {}
    for tr in traces:
        for k, v in getattr(tr, field_name).items():
            out[k] = out.get(k, 0) + v
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grouprune" / "__init__.py").is_file():
        print(f"perfbench: no grouprune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grouprune

    if Path(grouprune.__file__).resolve().parent != (SRC / "grouprune").resolve():
        print(f"perfbench: grouprune imported from {grouprune.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import PREDICTIONS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(work)
        print("machine " + json.dumps(machine_record(args, work)))
        inputs, setup_times = set_up(wl, args.seed, work)
        if args.trace:
            values, absent = trace_run(bench, wl, inputs, args.seconds)
            names = [m["name"] for m in spec["per_layer"]]
        else:
            values = measure(bench, wl, inputs, args.seconds, setup_times)
            names = [m["name"] for m in spec["end_to_end"]]
        missing = sorted(set(names) ^ set(values))
        if missing:
            print(f"perfbench: BENCHMARK.json and the benchmark disagree on "
                  f"{missing}", file=sys.stderr)
            return 2
        if args.trace:
            for name in names:
                note = ("absent on this workload" if name in absent
                        else "moves " + PREDICTIONS[name.split(".")[0]])
                if name == "engine.train_gmacs_per_s":
                    note = "computed: count_macs x samples / (fwd + bwd s); " + note
                print(f"{name:<38} {values[name]:14.6g} {units[name]:<7} {note}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

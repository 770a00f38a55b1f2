"""Spans and call counters around grouprune's public functions.

The tracer replaces a function at every attribute of the ``grouprune``
package that is bound to it (``cli.load_model`` as well as
``ir.load_model``, for example) or, for a method, on its class, and puts
the originals back afterwards. Nothing inside the package is edited.

A span records the time of each call and subtracts the time of the spans
it encloses, which gives the call's self time. A counter only counts
calls: it is used for cheap functions called thousands of times, whose
cost stays in the enclosing span.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "grouprune"


@dataclass(frozen=True)
class Probe:
    name: str                  # metric prefix, e.g. "engine.forward"
    module: str                # e.g. "grouprune.engine"
    attr: str                  # "forward", or "NetworkIR.validate" for a method
    timed: bool                # span (True) or call counter (False)
    on_call: Callable | None = None   # (tracer, args, kwargs, result, dt)


def _count_edges(tr, args, kwargs, d, dt):
    tr.counts["dependency.edges"] += len(d.labels)


def _count_groups(tr, args, kwargs, groups, dt):
    tr.counts["grouping.groups"] += len(groups)
    tr.counts["grouping.members"] += sum(len(g.members) for g in groups)


def _count_plan(tr, args, kwargs, plan, dt):
    tr.counts["pruning.plan_indices_removed"] += sum(
        len(e.indices) for e in plan.entries)


def _count_trial_prune(tr, args, kwargs, result, dt):
    if "ablate.run_cell" in tr.open_spans:
        tr.counts["ablate.trial_prunes"] += 1


def _count_step(tr, args, kwargs, result, dt):
    if "sparse.train_sparse" in tr.open_spans:
        tr.counts["sparse.steps"] += 1


def _record_forward(tr, args, kwargs, result, dt):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    if mode == "train":
        ir, x = args[0], args[1]
        tr.train_forwards.append((ir, len(x)))
        tr.train_pass_s += dt


def _record_backward(tr, args, kwargs, result, dt):
    tr.train_pass_s += dt


PROBES = (
    Probe("ir.load_model", "grouprune.ir", "load_model", True),
    Probe("ir.save_model", "grouprune.ir", "save_model", True),
    Probe("ir.validate", "grouprune.ir", "NetworkIR.validate", True),
    Probe("ir.exit_component", "grouprune.ir", "NetworkIR.exit_component", False),
    Probe("ir.consumers_of", "grouprune.ir", "NetworkIR.consumers_of", False),
    Probe("ir.topo_order", "grouprune.ir", "NetworkIR.topo_order", False),
    Probe("dependency.build_depgraph", "grouprune.dependency",
          "build_depgraph", True, _count_edges),
    Probe("grouping.extract_groups", "grouprune.grouping", "extract_groups",
          True, _count_groups),
    Probe("grouping.derive_grouping_matrix", "grouprune.grouping",
          "derive_grouping_matrix", True),
    Probe("importance.group_l2_importance", "grouprune.importance",
          "group_l2_importance", True),
    Probe("sparse.train_sparse", "grouprune.sparse", "train_sparse", True),
    Probe("sparse.regularizer_grad", "grouprune.sparse", "regularizer_grad", True),
    Probe("engine.forward", "grouprune.engine", "forward", True, _record_forward),
    Probe("engine.backward", "grouprune.engine", "backward", True, _record_backward),
    Probe("engine.sgd_step", "grouprune.engine", "sgd_step", True, _count_step),
    Probe("engine.count_macs", "grouprune.engine", "count_macs", True),
    Probe("engine.infer_shapes", "grouprune.engine", "infer_shapes", False),
    Probe("pruning.build_uniform_plan", "grouprune.pruning",
          "build_uniform_plan", True, _count_plan),
    Probe("pruning.build_learned_plan", "grouprune.pruning",
          "build_learned_plan", True, _count_plan),
    Probe("pruning.prune", "grouprune.pruning", "prune", True, _count_trial_prune),
    Probe("pruning.min_keep_for", "grouprune.pruning", "min_keep_for", False),
    Probe("ablate.run_cell", "grouprune.ablate", "run_cell", True),
    Probe("reporting.write_csv", "grouprune.reporting", "write_csv", True),
)


@dataclass
class OpTrace:
    """What one traced call into the CLI did."""

    wall_s: float
    cli_self_s: float
    self_s: dict            # probe name -> summed self time
    incl_s: dict            # probe name -> summed inclusive time
    calls: dict             # probe name -> calls
    counts: dict            # derived count name -> value
    train_macs: int         # forward MACs summed over train-mode samples
    train_pass_s: float     # time in train-mode forward plus backward, so
                            # train_macs / train_pass_s is computed, not counted


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.train_forwards: list = []
        self.train_pass_s = 0.0
        self.open_spans: list[str] = []
        self._child_s = [0.0]

    # -- wrappers -------------------------------------------------------

    def _span(self, probe: Probe, fn):
        tracer = self

        def span(*args, **kwargs):
            tracer.open_spans.append(probe.name)
            tracer._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._child_s.pop()
                tracer._child_s[-1] += dt
                tracer.self_s[probe.name] += dt - child
                tracer.incl_s[probe.name] += dt
                tracer.calls[probe.name] += 1
                tracer.open_spans.pop()
            if probe.on_call is not None:
                probe.on_call(tracer, args, kwargs, result, dt)
            return result

        span.__wrapped__ = fn
        return span

    def _counter(self, probe: Probe, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[probe.name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for probe in PROBES:
            # A probe whose target was renamed away stays silent; the span
            # guard of the traced run reports it.
            module = importlib.import_module(probe.module)
            make = self._span if probe.timed else self._counter
            if "." in probe.attr:
                cls_name, meth = probe.attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, make(probe, original))
                continue
            original = getattr(module, probe.attr, None)
            if original is None:
                continue
            wrapper = make(probe, original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, fn, count_macs) -> tuple[object, OpTrace]:
        """Call fn() with every probe installed.

        count_macs is the unwrapped MAC counter, called after the probes
        are removed to turn the recorded train-mode forwards into MACs.
        """
        self._reset()
        try:
            self.install()
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            self.restore()
        macs_of: dict[int, int] = {}
        train_macs = 0
        for ir, n in self.train_forwards:
            key = id(ir)
            if key not in macs_of:
                macs_of[key] = count_macs(ir)
            train_macs += macs_of[key] * n
        trace = OpTrace(wall, wall - self._child_s[0], dict(self.self_s),
                        dict(self.incl_s), dict(self.calls), dict(self.counts),
                        train_macs, self.train_pass_s)
        self._reset()
        return result, trace

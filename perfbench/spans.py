"""Spans around wcfold's public functions, recorded from outside the package.

Tracer.install() replaces each target function with a wrapper on every
wcfold module that binds it (the defining module and every re-export), so
calls made inside the package, such as approx_fold looking up
choose_fold_point, are seen too.  Tracer.uninstall() puts the originals
back.  A wrapper records a span (name, start, end, parent, operation id)
only while the tracer is active; otherwise it calls straight through.
Spans stay in memory until write_spans().  The per-layer times are scaled
to the reference speed by the factor of the operation they belong to
(op_scale, set by the runner), like the end-to-end times.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name)
FUNCTIONS = (
    ("wcfold.solver", "exact_solve", "solver.exact_solve"),
    ("wcfold.solver", "optimal_score", "solver.optimal_score"),
    ("wcfold.approx", "approx_fold", "approx.approx_fold"),
    ("wcfold.approx", "choose_fold_point", "approx.choose_fold_point"),
    ("wcfold.approx", "relabel", "approx.relabel"),
    ("wcfold.model", "score", "model.score"),
    ("wcfold.model", "contact_graph", "model.contact_graph"),
    ("wcfold.model", "validate_folding", "model.validate_folding"),
    ("wcfold.matching", "maximum_bipartite_matching", "matching"),
    ("wcfold.reduction.layout", "parse_layout", "reduction.parse_layout"),
    ("wcfold.reduction.assemble", "assemble", "reduction.assemble"),
    ("wcfold.reduction.assemble", "verify_instance", "reduction.verify_instance"),
)
# (module, class, method, span name)
METHODS = (
    ("wcfold.reduction.assemble", "ReductionInstance", "intended_folding",
     "reduction.intended_folding"),
)


def cpu_seconds() -> tuple[float, float]:
    """(own, reaped children) user + system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        # [id, parent id, operation id, name, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        # operation id -> factor that scales its times to the reference speed
        self.op_scale: dict[int, float] = {}
        self.score_only: set[int] = set()  # ids of exact_solve spans with count=False
        self.solver_cpu: list[tuple[int, float, float]] = []  # (op, own + child CPU s, child CPU s)
        self.fold_point_samples: list[tuple[int, int]] = []  # (chain length, span id)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    tracer.op, name, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            cpu = cpu_seconds() if name == "solver.exact_solve" else None
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result, cpu)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "wcfold" or n.startswith("wcfold.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- counts taken at the boundaries ---------------------------------------

    def _on_solver_exact_solve(self, span, args, kwargs, report, cpu_before):
        own, kids = cpu_seconds()
        self.counts["solver.nodes"] += report.nodes_explored
        self.counts["solver.pruned"] += report.pruned
        self.counts["solver.worker_s"] += (span[5] - span[4]) * kwargs.get("workers", 1)
        child = kids - cpu_before[1]
        self.solver_cpu.append((span[2], own - cpu_before[0] + child, child))
        if not kwargs.get("count", True):
            self.score_only.add(span[0])

    def _on_approx_choose_fold_point(self, span, args, kwargs, plan, cpu):
        self.fold_point_samples.append((len(args[0].chain), span[0]))

    def _on_model_score(self, span, args, kwargs, result, cpu):
        self.counts["model.score.bases"] += len(args[0])

    def _on_model_contact_graph(self, span, args, kwargs, edges, cpu):
        self.counts["model.contact_graph.edges"] += len(edges)

    def _on_reduction_assemble(self, span, args, kwargs, instance, cpu):
        self.counts["reduction.bases"] += len(instance.chain)

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer numbers, per traced pass over the corpus."""
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        scaled = []  # each span's duration at reference speed
        for span, self_s in zip(self.spans, self.self_times()):
            scale = self.op_scale.get(span[2], 1.0)
            scaled.append((span[5] - span[4]) * scale)
            busy[span[3]] += scaled[-1]
            own[span[3]] += self_s * scale
            calls[span[3]] += 1
        c = self.counts
        nodes = c["solver.nodes"]
        bases = c["model.score.bases"]
        cpu = sum(total for _, total, _ in self.solver_cpu)
        score_only = sum(scaled[i] for i in self.score_only)
        m = {
            "solver.busy_s": busy["solver.exact_solve"],
            "solver.calls": calls["solver.exact_solve"],
            "solver.nodes": nodes,
            "solver.pruned_frac": c["solver.pruned"] / nodes if nodes else 0.0,
            "solver.ns_per_node": sum(total * self.op_scale.get(op, 1.0)
                                      for op, total, _ in self.solver_cpu) * 1e9 / nodes
                                  if nodes else 0.0,
            "solver.count_mode.busy_s": busy["solver.exact_solve"] - score_only,
            "solver.score_only.busy_s": score_only,
            "solver.pool.cpu_util": cpu / c["solver.worker_s"] if c["solver.worker_s"] else 0.0,
            "solver.pool.child_cpu_s": sum(child * self.op_scale.get(op, 1.0)
                                           for op, _, child in self.solver_cpu),
            "approx.approx_fold.busy_s": busy["approx.approx_fold"],
            "approx.approx_fold.self_s": own["approx.approx_fold"],
            "approx.choose_fold_point.busy_s": busy["approx.choose_fold_point"],
            "approx.choose_fold_point.calls": calls["approx.choose_fold_point"],
            "approx.relabel.busy_s": busy["approx.relabel"],
            "model.score.busy_s": busy["model.score"],
            "model.score.self_s": own["model.score"],
            "model.score.calls": calls["model.score"],
            "model.score.bases": bases,
            "model.contact_graph.busy_s": busy["model.contact_graph"],
            "model.contact_graph.edges": c["model.contact_graph.edges"],
            "model.validate_folding.busy_s": busy["model.validate_folding"],
            "matching.busy_s": busy["matching"],
            "model.ns_per_base": busy["model.score"] * 1e9 / bases if bases else 0.0,
            "reduction.parse_layout.busy_s": busy["reduction.parse_layout"],
            "reduction.assemble.busy_s": busy["reduction.assemble"],
            "reduction.assemble.self_s": own["reduction.assemble"],
            "reduction.intended_folding.busy_s": busy["reduction.intended_folding"],
            "reduction.intended_folding.calls": calls["reduction.intended_folding"],
            "reduction.verify_instance.busy_s": busy["reduction.verify_instance"],
            "reduction.bases": c["reduction.bases"],
        }
        ratios = ("solver.pruned_frac", "solver.ns_per_node", "solver.pool.cpu_util",
                  "model.ns_per_base")
        for key in m:
            if key not in ratios:
                m[key] /= passes
        m["approx.choose_fold_point.growth_exp"] = growth_exponent(
            [(length, scaled[i]) for length, i in self.fold_point_samples])
        return m

    def write_spans(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span, self_s in zip(self.spans, self.self_times()):
                sid, parent, op, name, start, end = span
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, "self": self_s}) + "\n")


def growth_exponent(samples: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(median seconds per call) against log(length).

    0 when fewer than two distinct lengths were timed.
    """
    by_length: dict[int, list[float]] = defaultdict(list)
    for length, seconds in samples:
        by_length[length].append(seconds)
    if len(by_length) < 2:
        return 0.0
    xs = [math.log(n) for n in by_length]
    ys = [math.log(statistics.median(v)) for v in by_length.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

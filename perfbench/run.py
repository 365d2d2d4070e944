"""wcfold benchmark runner.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; wcfold is imported from its src/ and
called only through its public library functions.  One process, one
client, closed loop: each call starts when the previous one has returned.
The only other processes are the solver's own pool in solve_pool.

A set-up is a fresh import of wcfold, the corpus, and one small warm-up
call.  A run makes whole passes over the corpus while the next pass is
expected to fit in --seconds (at least one pass), timing each call and
checking each result outside the timed call.  Every set-up and call is
timed at the host's reference speed (speed.py).  Before every untraced pass,
and after the last, it sets up SETUPS_PER_PASS times (a pass uses the
last set-up's operations), so the set-up samples are spread over the run
like the passes are, even in a run of one pass; setup_s is their median.  wall_s is the mean pass time.  With --trace 1
the passes alternate untraced and traced (at least one of each) after a
single set-up; the traced passes give the per-layer numbers and the
difference between the two kinds is the tracing overhead.

The human-readable lines come first; the last line of stdout is the JSON
result.  Metric names and units come from BENCHMARK.json: the end_to_end
list with --trace 0, the per_layer list with --trace 1.  --smoke swaps in
a tiny corpus so every workload and check runs in seconds.  Without
--workload, every workload runs in turn.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from corpus import input_text, make_corpus
from spans import Tracer, cpu_seconds
from speed import Probe
from workloads import build_ops, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
WORKLOADS = ("solve", "solve_pool", "approx", "reduce")
SETUPS_PER_PASS = 3
MODULES = {
    "model": "wcfold.model",
    "bounds": "wcfold.bounds",
    "solver": "wcfold.solver",
    "approx": "wcfold.approx",
    "reduction": "wcfold.reduction",
    "docio": "wcfold.docio",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_wcfold() -> SimpleNamespace:
    """Import wcfold from this checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "wcfold" or n.startswith("wcfold.")]:
        del sys.modules[name]
    wc = SimpleNamespace(**{k: importlib.import_module(v) for k, v in MODULES.items()})
    where = Path(sys.modules["wcfold"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"imported wcfold from {where}, not from {SRC}")
    return wc


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


class Checkout:
    """Set-ups of one workload from this checkout, and their times."""

    def __init__(self, workload: str, seed: int, smoke: bool, workers: int, probe: Probe):
        self.workload, self.seed, self.smoke, self.workers = workload, seed, smoke, workers
        self.probe = probe
        self.setup_times: list[float] = []  # at reference speed

    def set_up(self) -> list:
        with self.probe:
            self.wc = load_wcfold()
            self.inputs = make_corpus(self.workload, self.seed, self.smoke,
                                      self.wc.reduction.bundled_layout_text)
            ops = build_ops(self.wc, self.inputs, self.workers)
            warm_up(self.wc, self.workload, self.workers)
        self.setup_times.append(self.probe.seconds)
        return ops


class Run:
    """Passes over the corpus, with per-call times and failures."""

    def __init__(self, ops, tracer: Tracer | None, probe: Probe):
        self.ops = ops
        self.tracer = tracer
        self.probe = probe
        # traced? -> seconds at reference speed: a list per op, and the per-pass sums
        self.call_times = {kind: [[] for _ in ops] for kind in (False, True)}
        self.pass_times = {False: [], True: []}
        self.measured_pass_times = {False: [], True: []}  # not scaled
        self.attempted = 0
        self.failed = 0
        self.bonds = self.parity = 0
        self.bases = self.x_bases = self.au_bases = 0

    def one_pass(self, traced: bool) -> None:
        first = not self.pass_times[False] and not self.pass_times[True]
        total = measured = 0.0
        for op, times in zip(self.ops, self.call_times[traced]):
            self.attempted += 1
            if traced:
                self.tracer.op += 1
                self.tracer.active = True
            try:
                with self.probe:
                    result = op.call()
            except Exception:  # a failed call is counted, not fatal
                self.failed += 1
                print(f"FAIL {op.label}:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                if traced:
                    self.tracer.active = False
            if traced:
                self.tracer.op_scale[self.tracer.op] = self.probe.scale
            measured += self.probe.measured
            total += self.probe.seconds
            times.append(self.probe.seconds)
            try:
                problems = op.check(result)
            except Exception as exc:
                traceback.print_exc()
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                print(f"FAIL {op.label}: {'; '.join(problems)}", file=sys.stderr)
            elif first:
                self._record_input(op, result)
            # Every call starts from the same heap, whatever ran before it.
            del result
            gc.collect()
        self.pass_times[traced].append(total)
        self.measured_pass_times[traced].append(measured)

    def corpus_seconds(self, traced: bool) -> float:
        """Time to finish the corpus: the mean pass time."""
        return statistics.fmean(self.pass_times[traced])

    def median_call_seconds(self) -> float:
        """The median over the untraced calls of each call's mean time."""
        return statistics.median(statistics.fmean(t) for t in self.call_times[False] if t)

    def _record_input(self, op, result) -> None:
        bonds, parity = op.quality(result)
        self.bonds += bonds
        self.parity += parity
        for seq in op.chains(result):
            self.bases += len(seq)
            self.x_bases += seq.count("X")
            self.au_bases += seq.count("A") + seq.count("U")

    def measure(self, seconds: float, refresh=None) -> None:
        """refresh(), when given, runs before each pass and after the last,
        and returns the operations for the pass."""
        start = time.perf_counter()
        kinds = (False, True) if self.tracer else (False,)
        n = 0
        while True:
            if refresh:
                self.ops = refresh()
            self.one_pass(kinds[n % len(kinds)])
            n += 1
            elapsed = time.perf_counter() - start
            if n >= len(kinds) and elapsed * (n + 1) / n > seconds:
                if refresh:
                    refresh()
                return


def steal_seconds() -> float | None:
    """CPU time the hypervisor has taken from this machine so far, summed
    over its CPUs (the steal column of /proc/stat); None where unknown."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class MachineContext(dict):
    """Python version, CPU count and model, pool workers, and how the
    machine fared while the passes ran: the 1-minute load average at start
    and end, stolen CPU time, this process's CPU time (own plus reaped pool
    children) next to its wall time, and the mean speed probe sample as a
    multiple of speed.REFERENCE_S.  CPU time well below wall time times the
    busy workers, or steal above zero, marks a run that lost the CPU; a
    slowdown well above 1 marks a run on a core slowed by other tenants."""

    def __init__(self, workers: int):
        super().__init__(python=platform.python_version(), nproc=nproc(), cpu=cpu_model(),
                         workers=workers, load1_start=os.getloadavg()[0])
        self._start = (time.perf_counter(), sum(cpu_seconds()), steal_seconds())

    def finish(self, probe: Probe) -> None:
        wall, cpu, steal = self._start
        self["load1_end"] = os.getloadavg()[0]
        self["wall_s"] = round(time.perf_counter() - wall, 3)
        self["cpu_s"] = round(sum(cpu_seconds()) - cpu, 3)
        now = steal_seconds()
        self["steal_s"] = None if steal is None or now is None else round(now - steal, 3)
        self["slowdown"] = round(probe.slowdown(), 3)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark wcfold's library calls.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: every workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wcfold" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs {SRC}/wcfold and {SPEC}; run from a wcfold checkout",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    spec = json.loads(SPEC.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    sys.path.insert(0, str(SRC))
    workers = nproc() if args.workload == "solve_pool" else 1
    probe = Probe()
    checkout = Checkout(args.workload, args.seed, args.smoke, workers, probe)
    try:
        ops = checkout.set_up()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    def refresh():
        return [checkout.set_up() for _ in range(SETUPS_PER_PASS)][-1]

    tracer = Tracer() if args.trace else None
    context = MachineContext(workers)
    if tracer:
        tracer.install()
    run = Run(ops, tracer, probe)
    try:
        run.measure(args.seconds, refresh=None if tracer else refresh)
    finally:
        if tracer:
            tracer.uninstall()
    context.finish(probe)
    wc, inputs = checkout.wc, checkout.inputs

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "inputs": len(inputs),
        "digest": wc.docio.sequence_digest("\n".join(input_text(i) for i in inputs)),
        "why": why[args.workload],
    }
    print("context: " + json.dumps(context))
    print("corpus: " + json.dumps(record))
    untraced = run.corpus_seconds(False)
    for traced, times in run.pass_times.items():
        if times:
            kind = "traced" if traced else "untraced"
            measured = run.measured_pass_times[traced]
            print(f"{kind} passes: " + " ".join(f"{t:.4g}" for t in times)
                  + " s at reference speed; measured " + " ".join(f"{t:.4g}" for t in measured)
                  + " s")
    print(f"passes: {len(run.pass_times[False])} untraced, {len(run.pass_times[True])} traced; "
          f"calls: {run.attempted} attempted, {run.failed} failed, "
          f"failed_frac {run.failed / run.attempted:.6g}")

    if tracer:
        traced = run.corpus_seconds(True)
        values = tracer.layer_metrics(len(run.pass_times[True]))
        values["input.x_share"] = run.x_bases / run.bases if run.bases else 0.0
        values["input.au_share"] = run.au_bases / run.bases if run.bases else 0.0
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
        print(f"trace: traced corpus {traced:.6g} s, untraced corpus {untraced:.6g} s")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file, {"context": context, "corpus": record})
        print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
        listed = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(checkout.setup_times),
            "wall_s": untraced,
            "op_p50_s": run.median_call_seconds(),
            "peak_rss_mb": peak_rss_mb(),
            "bonds_per_parity": run.bonds / run.parity if run.parity else 0.0,
        }
        print(f"set-ups: {len(checkout.setup_times)}; op_p50_s over {len(run.ops)} calls")
        listed = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so that its set-up
    and peak_rss_mb are its own."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())

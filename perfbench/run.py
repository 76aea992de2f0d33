"""galring benchmark: time to verdict on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-survey --seed 1 --seconds 25 --trace 0

One run imports galring from ./src, sets it up several times (the median is
setup_s), then repeats rounds of the workload's seeded operations for
--seconds seconds, checking every result.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it spends the first half untraced and
the second half with per-layer wrappers installed, and reports the
per-layer metrics.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything runs in this one process and thread, pinned to one CPU, except
the galring subprocesses of cli-queries, which run one at a time on the
same CPU.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracer import Tracer, median_metrics  # noqa: E402
from workloads import all_workloads  # noqa: E402

SETUP_REPEATS = 15
PROBE_REPEATS = 9
KERNEL_RUNS = 3
SAMPLE_S = 0.1
CLI_KINDS = ("ring-info", "classify", "code", "dual", "selfdual", "distances", "distances-oracle", "verify")


def fresh_import():
    """Import galring (and its CLI) from ./src, dropping earlier copies."""
    for name in [n for n in sys.modules if n == "galring" or n.startswith("galring.")]:
        del sys.modules[name]
    lib = importlib.import_module("galring")
    importlib.import_module("galring.cli")
    if Path(lib.__file__).resolve().parent != SRC / "galring":
        raise ImportError(f"galring imported from {lib.__file__}, not {SRC}")
    return lib


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GALRING_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int):
        self.w = workload
        self.seed = seed
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.lib = fresh_import()
        self.inputs = workload.draw(self.lib, random.Random(seed))

    def setup(self) -> None:
        """Import plus ring and ambient construction.  The lib and state of
        the latest set-up become the run's."""
        self.lib = fresh_import()
        self.state = self.w.setup(self.lib, self.inputs)

    def build_ops(self):
        if self.w.name == "cli-queries":
            calls = self.w.materialize(self.inputs)
            refs = self.w.reference(self.lib, calls)
            return self.w.ops(calls, refs, self.env)
        return self.w.ops(self.lib, self.state, self.inputs)

    def rounds(self, ops, seconds: float, tracer: Tracer | None = None):
        """Repeat rounds until the next one would end after `seconds` of
        measured wall time.  Returns (round times, op latencies, per-round
        traced metrics); op latencies come as one list of (ms, wall ms)
        pairs per round, and a round's time is the sum of its first items.
        ms is the wall time scaled to the reference host, as timed() does.
        Speed is sampled during an operation only when nothing else runs:
        not while tracing, whose span times would include the probes, and
        not around CLI subprocesses, which share the pinned CPU."""
        sample = tracer is None and self.w.name != "cli-queries"
        round_s, round_wall, op_ms, traced = [], [], [], []
        measured = 0.0
        while True:
            if tracer is not None:
                tracer.reset_round()
            op_ms.append([])
            for op in ops:
                failure, scaled, wall = timed(lambda: self._attempt(op, tracer), sample)
                measured += wall
                op_ms[-1].append((scaled * 1e3, wall * 1e3))
                if failure is not None:
                    self.failures.append(f"round {len(round_s)} {op.kind} [{op.label}]: {failure}")
            round_s.append(sum(ms for ms, _ in op_ms[-1]) / 1e3)
            round_wall.append(sum(wall for _, wall in op_ms[-1]) / 1e3)
            if tracer is not None:
                traced.append(tracer.round_metrics())
            if measured + statistics.median(round_wall) > seconds:
                return round_s, op_ms, traced

    def setups(self) -> list:
        """SETUP_REPEATS set-ups back to back, each as a (seconds, wall
        seconds) pair, scaled like the operations.  The copies of galring
        that each set-up drops are freed between set-ups, untimed."""
        times = []
        for _ in range(SETUP_REPEATS):
            times.append(timed(self.setup, True)[1:])
            gc.collect()
        return times

    def _attempt(self, op, tracer):
        self.attempted += 1
        try:
            if tracer is not None:
                return tracer.operation(self.attempted, op.run)
            return op.run()
        except Exception as exc:  # every failure is counted and listed
            return f"{type(exc).__name__}: {exc}"


def pin_to_one_cpu() -> None:
    """Run this process, and the subprocesses it starts, on one CPU.

    The host's CPUs change speed independently of each other, so a speed
    probe only holds for work on the CPU it ran on.  Without the pin, a
    CLI subprocess often runs on the other CPU than the probe."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kernel_seconds() -> float:
    """The reference kernel's time on this host right now: the fastest of
    KERNEL_RUNS runs with the collector off, so that neither a short stall
    nor a collection over the program's heap is taken for host speed."""
    gc.disable()
    try:
        return min(reference_seconds() for _ in range(KERNEL_RUNS))
    finally:
        gc.enable()


def timed(fn, sample: bool):
    """Run fn; return (its result, scaled seconds, wall seconds).

    The host's speed is probed just before and just after fn and, with
    sample, every SAMPLE_S while it runs, from a timer signal whose handler
    runs in this thread between two bytecodes of fn.  Probes before and
    after alone miss a change of speed inside a long operation.  The wall
    time, less the time spent in the probes, is scaled by REFERENCE_S over
    the mean probe: the time fn would take on the reference host."""
    probes, spent = [kernel_seconds()], 0.0

    def probe(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        probes.append(kernel_seconds())
        spent += time.perf_counter() - t

    if sample:
        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t = time.perf_counter()
    try:
        result = fn()
    finally:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t - spent
    probes.append(kernel_seconds())
    return result, wall * REFERENCE_S / statistics.mean(probes), wall


def faster_half(values, key=None) -> list:
    """The faster half of repeated measurements of identical work.

    Every round of a run (and every set-up) does exactly the same work, so
    their times differ only by interference from the rest of the machine,
    which can slow a shared host by half for seconds at a time.  Keeping
    the faster half, and taking its median, filters that interference."""
    ordered = sorted(values, key=key)
    return ordered[: (len(ordered) + 1) // 2]


def end_to_end(run: Run, seconds: float) -> dict:
    setups = faster_half(run.setups())
    ops = run.build_ops()
    round_s, op_ms, _ = run.rounds(ops, seconds)
    kept = faster_half(range(len(round_s)), key=round_s.__getitem__)
    samples = [pair for r in kept for pair in op_ms[r]]
    op_scaled, op_wall = [ms for ms, _ in samples], [wall for _, wall in samples]
    metrics = {
        "verdict_s": (statistics.median(round_s[r] for r in kept), "s"),
        "op_p50_ms": (statistics.median(op_scaled), "ms"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "verdict_wall_s": statistics.median(sum(w for _, w in op_ms[r]) / 1e3 for r in kept),
        "op_p50_wall_ms": statistics.median(op_wall),
        "setup_wall_s": statistics.median(w for _, w in setups),
        "rounds": len(round_s),
        "rounds_kept": len(kept),
        "ops_per_round": len(ops),
        "op_samples": len(samples),
        "setup_samples": SETUP_REPEATS,
        "failed_op_ratio": len(run.failures) / run.attempted,
    }
    if len(samples) >= 100:
        notes["op_p90_ms"] = statistics.quantiles(op_scaled, n=10)[-1]
    return {"metrics": metrics, "notes": notes}


def per_layer(run: Run, seconds: float) -> dict:
    run.setup()
    t = time.perf_counter()
    ops = run.build_ops()
    plain_build = time.perf_counter() - t
    plain_s, _, _ = run.rounds(ops, seconds / 2)

    tracer = Tracer()
    run.lib = fresh_import()
    tracer.install()
    run.state = tracer.operation(0, lambda: run.w.setup(run.lib, run.inputs))
    setup_metrics = tracer.round_metrics()
    tracer.reset_round()
    first_span = len(tracer.spans)
    t = time.perf_counter()
    ops = run.build_ops()
    traced_build = time.perf_counter() - t
    reference = tracer.round_metrics()
    traced_s, _, traced = run.rounds(ops, seconds / 2, tracer)
    tracer.uninstall()

    values = median_metrics(traced)
    values["galois_ring.build_ring.s"] = setup_metrics["galois_ring.build_ring.s"]
    cli = {}
    if run.w.name == "cli-queries":
        # its rounds run galring in subprocesses, which are never traced; in
        # this process the layers run only in the reference passes, one
        # cli.main per argv, so the tracing overhead compares those passes
        values.update(reference)
        cli = dict(_cli_main_ms(tracer, first_span, run), **_probe_ms(run.env))
        values["trace.overhead_ratio"] = traced_build / plain_build
    else:
        values["trace.overhead_ratio"] = statistics.median(faster_half(traced_s)) / statistics.median(faster_half(plain_s))
    for kind in CLI_KINDS:
        values[f"cli.main_ms.{kind}"] = cli.get(kind, 0.0)
    values["cli.interpreter_ms"] = cli.get("interpreter", 0.0)
    values["cli.import_ms"] = cli.get("import", 0.0)
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    _write_spans(run, tracer)
    notes = {
        "untraced_rounds": len(plain_s),
        "traced_rounds": len(traced_s),
        "counts_repeat_across_rounds": all(_counts(r) == _counts(traced[0]) for r in traced),
        "spans": len(tracer.spans),
    }
    return {"metrics": metrics, "notes": notes}


def _counts(m: dict) -> dict:
    return {k: v for k, v in m.items() if isinstance(v, int)}


def _unit(key: str) -> str:
    if key.endswith("_ms") or ".main_ms." in key:
        return "ms"
    if key.endswith((".s", "_s")):
        return "s"
    if key.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


def _cli_main_ms(tracer, first_span, run) -> dict:
    """Median in-process cli.main time per command kind, from the traced
    reference pass."""
    kinds = [c["kind"] for c in run.inputs["calls"]]
    mains = [s for s in tracer.spans[first_span:] if s[1] == "cli_main"]
    by_kind: dict[str, list[float]] = {}
    for kind, span in zip(kinds, mains):
        by_kind.setdefault(kind, []).append((span[5] - span[4]) * 1e3)
    return {k: statistics.median(v) for k, v in by_kind.items()}


def _probe_ms(env) -> dict:
    """Interpreter start and galring import, each as its own subprocess,
    alternated so that both see the same machine."""
    codes = {"interpreter": "pass", "import": "import galring"}
    times = {name: [] for name in codes}
    for _ in range(PROBE_REPEATS):
        for name, code in codes.items():
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times[name].append((time.perf_counter() - t) * 1e3)
    return {name: statistics.median(faster_half(v)) for name, v in times.items()}


def _write_spans(run: Run, tracer: Tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run.w.name}-seed{run.seed}.json"
    fields = ("id", "name", "parent", "op", "start", "end")
    with open(path, "w") as fh:
        json.dump([dict(zip(fields, s)) for s in tracer.spans], fh)
        fh.write("\n")


def provenance(run: Run) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "galring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "workload": run.w.name,
        "seed": run.seed,
        "shape": run.w.shape(run.inputs),
    }


def main(argv=None) -> int:
    names = list(all_workloads(str(OUT)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "galring" / "__init__.py").is_file():
        print(f"error: no galring sources under {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    workload = all_workloads(str(OUT))[args.workload]
    run = Run(workload, args.seed)
    result = (per_layer if args.trace else end_to_end)(run, args.seconds)
    prov = provenance(run)

    print(f"workload {args.workload}  seed {args.seed}  trace {'on' if args.trace else 'off'}")
    for key, (value, unit) in result["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {key:42s} {shown} {unit}")
    for key, value in result["notes"].items():
        print(f"  {key:42s} {value}")
    print(f"  failed/attempted                           {len(run.failures)}/{run.attempted}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    line = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

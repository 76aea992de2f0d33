"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_<label>.json
    python3 perfbench/collect.py --workloads dual-scan --seeds 1-5 --trace 1

For every workload and end-to-end metric it reports the median of the
per-seed values, their quartiles (statistics.quantiles, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
Runs are made one at a time, each in its own process, with the
run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return dict(result, provenance=prov)


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.trace) for seed in args.seeds]
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            metrics[key] = dict(summarise(values, bounds.get(key)), unit=runs[0]["metrics"][key]["unit"])
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "provenance": [r["provenance"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: failed {report['workloads'][workload]['failed']}/{report['workloads'][workload]['attempted']}")
        for key, m in metrics.items():
            bound = f"  bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"  {key:42s} median {m['median']:14.6f} {m['unit']:6s} spread {m['spread']:.3f}{bound}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

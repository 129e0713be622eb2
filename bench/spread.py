"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads verify expand --seeds 1-10 \
        [--trace 0] [--seconds 28] [--out bench/out/spread.json]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound in
``BENCHMARK.json``. Runs happen one after another, never in parallel.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                      if bounds.get(k) is not None), flush=True)
        report[workload] = {"correct": all(r["correct"] for r in runs),
                            "failed": sum(r["failed"] for r in runs),
                            "attempted": sum(r["attempted"] for r in runs),
                            "metrics": {}}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = summary(vals)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            report[workload]["metrics"][name] = s
            bound = bounds.get(name)
            if bound is not None:
                print(f"  {workload:9s} {name:12s} median {s['median']:.4g} {s['unit']:3s} "
                      f"spread {s['spread']:.3f} (bound {bound}, "
                      f"{'ok' if s['spread'] < bound / 3 else 'WIDE'})", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

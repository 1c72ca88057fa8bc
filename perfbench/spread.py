"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workloads paper-train --seeds 1-5

For every workload and metric it prints the median of the runs, the first
and third quartiles (statistics.quantiles with n=4) and the spread, which is
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. With
`--out FILE` the raw values and the summary are also written as JSON. Runs
are sequential, one process at a time, from the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "n": len(values)}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {name: summarize([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        report[workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload}: {len(runs)} runs, failed checks "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        print(f"  {'metric':<34}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, s in summary.items():
            bound = bounds.get(name)
            print(f"  {name:<34}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                  f"{s['spread']:>9.4f}{'' if bound is None else bound:>7}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": machine(), "seconds": args.seconds,
                       "workloads": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 0-9 [--workloads a,b] [--trace 0|1] \
        [--seconds S] [--out FILE]

For every workload and seed it runs `perfbench/run.py` in a new process and
keeps the last line of its output. For each metric it reports the median,
the first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread, the distance between the quartiles as a share of the median, next to
the bound in BENCHMARK.json. With --out it writes every run and the summary
to FILE, which is how perfbench/baseline.json was made.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])["details"]
            runs.append({"seed": seed, "result": result, "details": details})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{details['total_s']:.1f}s", file=sys.stderr)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = summarise(values) if len(values) > 1 else {"median": values[0]}
            spread = summary[name].get("spread")
            bound = bounds.get(name) if not args.trace else None
            if bound and spread is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:14s} {name:40s} median {summary[name]['median']:.6g}"
                  + (f" spread {spread:.4f}" if spread is not None else "")
                  + (f" bound {bound}" if bound else ""))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if not args.trace:
        print(f"largest spread / bound, setup_s excluded: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

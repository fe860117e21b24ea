"""Benchmark harness for atrisk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. One run:

1. generates the workload's inputs with `synthgen` from --seed, five times,
   each in its own process, and reports the median set-up time;
2. runs the workload again and again, each time in a fresh process, until
   another run would not end within --seconds (at least one run; with
   --trace 1, at least one untraced and one traced run, alternating);
3. checks every output and prints, as the last line of standard output, one
   JSON object with `correct`, `attempted`, `failed` and `metrics`. With
   --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
   --trace 1 its per-layer metrics. The line before it holds the details:
   artifact hashes, commit, machine, source line count, per-run timings.

Children run with BLAS and OpenMP capped at one thread, so one client uses
one of the machine's cores. Work files go to perfbench/_runs/<workload>/.
--smoke shrinks every workload to a few seconds, for the harness's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_deploy", "score_daily")
SETUP_REPS = 5
HARD_LIMIT_S = 170.0  # the whole run, set-up included, ends before this
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], result: Path, deadline: float) -> tuple[dict | None, str]:
    """Run child.py in a new interpreter; return its result (None on failure)."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv, "--result", str(result)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if not result.is_file():
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(result.read_text()), proc.stderr.strip()[-2000:]


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "thread_caps": THREAD_CAPS,
    }


def source_info() -> dict:
    files = sorted((ROOT / "src" / "atrisk").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_atrisk_lines": lines}


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "atrisk" / "__init__.py").is_file():
        print(f"perfbench: no atrisk sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    work = HERE / "_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])
    attempted = failed = 0
    errors: list[str] = []

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            errors.append(what)

    setups = []
    for rep in range(SETUP_REPS):
        res, err = run_child(["setup", *common, "--seed", str(args.seed), "--dir", str(inputs)],
                             work / f"setup{rep}.json", deadline)
        if res is None:
            print(f"perfbench: set-up failed: {err}", file=sys.stderr)
            return 1
        setups.append(res)

    runs = []  # (traced, result)
    measure_start = time.monotonic()
    durations = []
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t0 = time.monotonic()
        k = len(runs)
        res, err = run_child(["work", *common, "--dir", str(inputs),
                              "--out", str(work / f"run{k}"), "--trace", str(int(traced))],
                             work / f"run{k}.json", deadline)
        durations.append(time.monotonic() - t0)
        if res is None:
            check(False, f"run {k}: {err}")
            print(f"perfbench: run {k} failed: {err}", file=sys.stderr)
            break
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]
        if res["failed"]:
            print(f"perfbench: run {k} checks failed: {res['errors']}\n{err}", file=sys.stderr)
        runs.append((traced, res))
        next_s = median(durations)
        now = time.monotonic()
        if args.trace and len(runs) < 2:
            continue
        if now - measure_start + next_s > args.seconds or now + next_s > deadline:
            break

    plain = [r for traced, r in runs if not traced and "wall_s" in r]
    traced_runs = [r for traced, r in runs if traced and "wall_s" in r]
    complete = plain + traced_runs
    if complete:
        # Same inputs, same code: every run must write the same bytes.
        same = all(r["sha256"] == complete[0]["sha256"] for r in complete)
        check(same, "runs on the same inputs disagree on model.json or report.json")

    values: dict[str, float | None] = {}
    day_ms = [ms for r in plain for ms in r["day_ms"]]
    if plain:
        values = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "wall_s": median([r["wall_s"] for r in plain]),
            "pairs_per_s": median([r["pairs"] / r["wall_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            # Reported per layer, not gated: cli_deploy flags only the 10-20
            # days that precede a test dropout, and both these and the scores
            # change with the seed's cohort far more than any bound allows.
            # Runs of one seed must agree on the scores exactly.
            "pipeline.day_score_ms_p50": percentile(day_ms, 50),
            "pipeline.day_score_ms_p90": percentile(day_ms, 90),
            "pipeline.day_samples": len(day_ms),
            "evaluation.auc_mean": plain[0]["auc_mean"],
            "evaluation.recall_at_30": plain[0]["recall_at_30"],
        }
    if args.trace and traced_runs:
        for name in traced_runs[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced_runs])
        values["synthgen.generate_s"] = median([s["generate_s"] for s in setups])
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced_runs])
                                      - median([r["wall_s"] for r in plain]))

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        check(value is not None, f"metric {m['name']} has no value")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "runs": len(runs), "traced_runs": len(traced_runs),
        "wall_s_per_run": [r["wall_s"] for r in plain],
        "cpu_s_per_run": [r["cpu_s"] for r in plain],
        "traced_wall_s_per_run": [r["wall_s"] for r in traced_runs],
        "setup_s_per_rep": [s["setup_s"] for s in setups],
        "day_samples": len(day_ms),
        # At these test-split sizes delta=1 has only a few positive query
        # points, and on some seeds none (then null), so it is not a metric.
        "auc_d1": complete[0]["auc_d1"] if complete else None,
        "auc_mean": complete[0]["auc_mean"] if complete else None,
        "recall_at_30": complete[0]["recall_at_30"] if complete else None,
        "error_rate": failed / attempted if attempted else None,
        "errors": errors[:20],
        "sha256": complete[0]["sha256"] if complete else None,
        "machine": dict(machine(), numpy=setups[0]["numpy"]),
        **source_info(),
        "total_s": time.monotonic() - started,
    }
    (work / "result.json").write_text(json.dumps({"details": details, "metrics": metrics},
                                                 indent=2) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

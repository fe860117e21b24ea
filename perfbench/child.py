"""One fresh process of the benchmark: either set-up or one timed workload run.

    python3 perfbench/child.py setup --workload W --seed N --dir INPUTS --result FILE [--smoke]
    python3 perfbench/child.py work --workload W --dir INPUTS --out OUT --trace 0|1 \
        --result FILE [--smoke]

`setup` times `import atrisk` plus `synthgen.generate` of the workload's
input files. `work` runs the workload once on those files and writes its
timings, checks and (with --trace 1) its per-layer numbers to FILE. Each run
starts in a new interpreter, so the feature caches start cold, as they do for
every CLI user.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

# Input sizes per workload, chosen so that one run repeats the timed work at
# least four times within 55 seconds on a 2-core Xeon. Quality numbers from
# test splits this small move a lot with the seed, so they are reported but
# not gated.
PARAMS = {
    "cli_deploy": {
        "full": {"n_students": 60, "train_fraction": 0.5, "n_trees": 200, "max_depth": 4},
        "smoke": {"n_students": 60, "train_fraction": 0.5, "n_trees": 3, "max_depth": 2},
    },
    "score_daily": {
        "full": {"n_students": 400, "train_fraction": 0.2, "n_trees": 80, "max_depth": 2},
        "smoke": {"n_students": 150, "train_fraction": 0.2, "n_trees": 3, "max_depth": 2},
    },
}


def setup(args, params) -> dict:
    t0 = time.perf_counter()
    import atrisk  # noqa: F401  (the package import is part of set-up time)
    from atrisk import synthgen

    t1 = time.perf_counter()
    synthgen.generate(
        synthgen.SimConfig(n_students=params["n_students"], seed=args.seed), args.dir)
    t2 = time.perf_counter()
    import numpy

    return {"setup_s": t2 - t0, "import_s": t1 - t0, "generate_s": t2 - t1,
            "numpy": numpy.__version__}


def work(args, params) -> dict:
    import tracing
    import workloads

    Path(args.out).mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ctx = workloads.Context(Path(args.dir), Path(args.out), params,
                            on_stop=tracer.uninstall if tracer else None)
    if tracer:
        tracer.install()
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    except Exception:  # the run's boundary: report the failure, keep the counts
        traceback.print_exc()
        ctx.ops.check(False, "exception: " + traceback.format_exc(limit=1).strip()[-300:])
        result = {}
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        missing = tracer.missing_spans(args.workload)
        ctx.ops.check(not missing, f"traced layers without spans: {missing}")
        tracer.write(Path(args.out) / "spans.jsonl")
        result["layers"] = tracer.layer_metrics()
    result.update(attempted=ctx.ops.attempted, failed=ctx.ops.failed, errors=ctx.ops.errors)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "work"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    params = PARAMS[args.workload]["smoke" if args.smoke else "full"]
    result = setup(args, params) if args.mode == "setup" else work(args, params)
    Path(args.result).write_text(json.dumps(result))
    return 0 if result.get("failed", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

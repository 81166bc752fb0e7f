"""One fresh, single-threaded measuring process; started by run.py.

    worker.py setup   --workload W --seed S --work DIR
    worker.py measure --workload W --seed S --trace 0|1 --work DIR [--spans FILE] [--until T]

`setup` runs the workload's first request and reports the perf_counter
reading (a system-wide monotonic clock) when its first frame is done, so
the parent can take process start -> first frame done. `measure` runs one
round of the workload (passes over one cycle until perf_counter reads T,
or one pass; or one survey sweep) and reports its raw
figures, and with --trace 1 its per-layer figures. Each prints one JSON
line last.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gdmux  # noqa: E402
import workloads  # noqa: E402


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None, help="write the traced spans here")
    ap.add_argument("--until", type=float, default=None,
                    help="perf_counter reading by which the timed passes of a stream round end")
    args = ap.parse_args(argv)
    if Path(gdmux.__file__).resolve().parent != ROOT / "src" / "gdmux":
        print(f"worker: imported gdmux from {gdmux.__file__}, not from this checkout", file=sys.stderr)
        return 2

    if args.mode == "setup":
        done, problems = workloads.first_frame(args.workload, args.seed, args.work)
        print(json.dumps({"done": done, "problems": problems}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    if args.workload == "design-survey":
        stats = workloads.run_survey(args.seed, args.work, tracer)
    else:
        stats = workloads.run_stream(args.workload, args.seed, args.work, tracer, args.until)
    result = {k: getattr(stats, k) for k in (
        "attempted", "failed", "failures", "timings", "timed_s", "requests", "kernel_s")}
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = np.__version__
    result["blas"] = _blas_name()
    if tracer is not None:
        result["layers"] = workloads.layer_metrics(stats, tracer)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

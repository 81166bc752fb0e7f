"""gdmux benchmark: one workload per call, outputs checked, metrics printed.

    python3 perfbench/run.py --workload {cli-stream,batch-wide,design-survey,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a gdmux checkout; the program is imported from its
src/ directory, so nothing needs to be installed. Every measurement
happens in fresh single-threaded child processes (perfbench/worker.py,
BLAS limited to one thread); this process only starts them, waits for
them and aggregates.

A run is a series of rounds: three for cli-stream and batch-wide, and for
design-survey three and more while another one fits in --seconds. Each
round starts fresh processes: with --trace 0, three set-up probes (process
start -> first frame done) and one measuring process that times passes
over one cycle of the workload until its slice of the run ends (one
survey sweep for design-survey, which must be cold). Every pass sends the
same requests. setup_s is the median over the probes; the other
end-to-end metrics take each request's fastest pass and aggregate those
times. Other tenants of a shared machine slow it down in bursts of a
fraction of a second to several seconds, and a run's fastest passes step
over them, where a median over a few seconds of work does not. The
machine's speed also drifts over minutes, so the times are scaled to a
reference host speed measured by a fixed kernel in the same processes
(hostspeed.py). With --trace 1, rounds alternate between untraced and
traced measuring processes; the per-layer metrics come from the traced
rounds and the tracing overhead is traced minus untraced timed work.
Metric names and units come from BENCHMARK.json; definitions, layers and
the end-to-end metric each layer figure should move are in metrics.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The full result, with the environment, is
also written to .bench_out/ in the checkout, and traced spans to
.bench_out/spans-<workload>.json.
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

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-stream", "batch-wide", "design-survey")
MIN_ROUNDS = 3
PROBES_PER_ROUND = 3
RUN_BUDGET_S = 170.0
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
NO_WAIT = "none: one closed-loop caller in one process, so nothing queues at any layer"


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, **WORKER_ENV)

    def worker(self, mode, traced=False, spans=None, until=None):
        """Run one worker; return (perf_counter just before it started, its JSON)."""
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--trace", str(int(traced)), "--work", str(self.work)]
        if spans:
            cmd += ["--spans", str(spans)]
        if until is not None:
            cmd += ["--until", repr(until)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed(f"{mode}: no time left in the {RUN_BUDGET_S:.0f} s budget")
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode}: worker still running after {timeout:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{mode}: exit code {proc.returncode}\n{proc.stderr[-3000:]}")
        return started, json.loads(lines[-1])

    def rounds(self):
        """The rounds of a run.

        An untraced round is PROBES_PER_ROUND set-up probes and one measuring
        process. An untraced stream run is MIN_ROUNDS rounds, each given an
        equal slice of --seconds to fill with passes; other runs hold
        MIN_ROUNDS rounds and then more while another one fits in --seconds.
        Spreading probes and passes over the run lets the fastest passes and
        the set-up median step over slow stretches of a shared machine. A
        traced round is one traced measuring process."""
        spans = ROOT / ".bench_out" / f"spans-{self.args.workload}.json"
        probes, rounds = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            if not self.args.trace:
                for _ in range(PROBES_PER_ROUND):
                    started, probe = self.worker("setup")
                    probes.append((probe["done"] - started, probe["problems"]))
            # a traced stream round measures its own overhead; survey sweeps
            # are cold, so traced sweeps alternate with untraced ones instead
            stream = self.args.workload != "design-survey"
            traced = bool(self.args.trace) and (stream or len(rounds) % 2 == 1)
            sliced = stream and not self.args.trace
            until = start + self.args.seconds * (len(rounds) + 1) / MIN_ROUNDS if sliced else None
            rounds.append((traced, self.worker("measure", traced, spans if traced else None,
                                               until)[1]))
            took = time.perf_counter() - began
            enough = len(rounds) >= MIN_ROUNDS and (
                sliced or time.perf_counter() - start + took > self.args.seconds)
            if enough or time.monotonic() + 1.5 * took > self.deadline:
                return probes, rounds


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest(runs) -> list[list[float]]:
    """Per request: [frames, mux s, demux s, round trip s, all timed s],
    each time the fastest over the passes that ran the request."""
    by_request: dict[str, list[list[float]]] = {}
    for r in runs:
        for key, timings in r["timings"].items():
            by_request.setdefault(key, []).extend(timings)
    return [[t[0][0], min(x[1] for x in t), min(x[2] for x in t),
             min(x[1] + x[2] for x in t), min(x[3] for x in t)] for t in by_request.values()]


def kernel_best(runs) -> list[float]:
    """Per kernel slot, its fastest time over the passes."""
    by_slot: dict[str, list[float]] = {}
    for r in runs:
        for slot, samples in r["kernel_s"].items():
            by_slot.setdefault(slot, []).extend(samples)
    return [min(s) for s in by_slot.values()]


def end_to_end(probes, runs) -> tuple[dict[str, float], dict[str, float], float]:
    """Set-up is the median over all probes; throughput and latency come from
    each request's fastest pass; memory is the largest of the rounds.

    Returns the figures scaled to the reference host speed, the raw figures
    and the scale: REFERENCE_S over the host-speed kernel's time, taken
    like the requests' (fastest pass per slot, then the median of slots)."""
    best = fastest(runs)
    frames = sum(b[0] for b in best)
    roundtrip_ms = [b[3] * 1e3 for b in best]
    raw = {
        "setup_s": statistics.median(t for t, _ in probes),
        "mux_fps": frames / sum(b[1] for b in best),
        "demux_fps": frames / sum(b[2] for b in best),
        "roundtrip_ms_p50": statistics.median(roundtrip_ms),
        "roundtrip_ms_p90": quantile(roundtrip_ms, 90),
        "survey_designs_per_s": len(best) / sum(b[4] for b in best),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
    }
    scale = REFERENCE_S / statistics.median(kernel_best(runs))
    per_time = {"setup_s": scale, "roundtrip_ms_p50": scale, "roundtrip_ms_p90": scale,
                "mux_fps": 1 / scale, "demux_fps": 1 / scale, "survey_designs_per_s": 1 / scale}
    return {k: v * per_time.get(k, 1.0) for k, v in raw.items()}, raw, scale


def per_layer(rounds, names) -> tuple[dict[str, float], dict[str, str]]:
    """Median over traced rounds of each layer figure, plus the tracing overhead."""
    traced = [r for t, r in rounds if t]
    if not traced:
        raise WorkerFailed(f"no traced round fitted in the {RUN_BUDGET_S:.0f} s budget")
    layers = dict(traced[0]["layers"])
    values = {n: statistics.median(r["layers"][n][0] for r in traced) for n in names if n in layers}
    if "trace.overhead_pct" not in layers:
        plain = statistics.median(r["timed_s"] for t, r in rounds if not t)
        with_trace = statistics.median(r["timed_s"] for r in traced)
        layers["trace.overhead_pct"] = (
            (with_trace - plain) / plain * 100,
            f"timed work {with_trace:.4f} s traced minus {plain:.4f} s untraced, medians per round")
        values["trace.overhead_pct"] = layers["trace.overhead_pct"][0]
    bases = {n: f"{layers[n][1]}; median of {len(traced)} traced rounds, base of the first"
             for n in names}
    return values, bases


def environment(args, runs) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gdmux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "blas": runs[0]["blas"],
        "blas_threads": int(WORKER_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_catalog() -> dict[str, dict[str, dict]]:
    """Each section's metrics: unit and direction from BENCHMARK.json, the
    rest from metrics.json, which must describe exactly the same metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    described = json.loads((HERE / "metrics.json").read_text())
    catalog = {}
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in declared[section]]
        if set(names) != set(described[section]):
            raise WorkerFailed(f"{section}: BENCHMARK.json and metrics.json name different "
                               f"metrics: {sorted(set(names) ^ set(described[section]))}")
        catalog[section] = {m["name"]: {**described[section][m["name"]], **m}
                            for m in declared[section]}
    return catalog


def run(args, work: Path) -> int:
    catalog = load_catalog()
    probes, rounds = Runner(args, work).rounds()
    runs = [r for _, r in rounds]

    probe_failures = [f"set-up probe {n}: {'; '.join(p)}" for n, (_, p) in enumerate(probes) if p]
    attempted = len(probes) + sum(r["attempted"] for r in runs)
    failed = len(probe_failures) + sum(r["failed"] for r in runs)
    failures = probe_failures + [f for r in runs for f in r["failures"]]
    if args.trace:
        section = "per_layer"
        values, bases = per_layer(rounds, catalog[section])
    else:
        section = "end_to_end"
        values, raw, scale = end_to_end(probes, runs)
        passes = sum(len(t) for r in runs for t in r["timings"].values())
        requests = len(fastest(runs))
        bases = {name: f"{requests} requests, each its fastest of {passes / requests:g} passes "
                       f"in {len(runs)} rounds" for name in values}
        bases["setup_s"] = f"median of {len(probes)} fresh processes"
        for name in bases:
            bases[name] += f"; raw {raw[name]:.6g}, host-speed scale {scale:.4f}"
        bases["peak_rss_mb"] = f"largest of {len(runs)} measuring processes"
    metrics = {name: {"value": values[name], "unit": catalog[section][name]["unit"]}
               for name in catalog[section]}

    env = environment(args, runs)
    print(f"gdmux benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, m in metrics.items():
        tag = " [computed]" if catalog[section][name].get("computed") else ""
        base = f"  ({bases[name]})" if name in bases else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{tag}{base}")
    print(f"  failed_ratio = {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted ops)")
    print(f"  wait time: {NO_WAIT}")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    record = {"environment": env, "metrics": metrics, "bases": bases, "attempted": attempted,
              "failed": failed, "failures": failures[:20], "wait_time": NO_WAIT,
              "setup_s_each": [t for t, _ in probes],
              "host_kernel_s_best": kernel_best(runs)}
    (ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_one(args) -> int:
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    try:
        return run(args, work)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gdmux benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gdmux" / "__init__.py").is_file():
        print(f"perfbench: no gdmux sources at {ROOT / 'src' / 'gdmux'}; "
              "run from the root of a gdmux checkout", file=sys.stderr)
        return 2
    codes = [run_one(argparse.Namespace(**{**vars(args), "workload": w}))
             for w in (WORKLOADS if args.workload == "all" else (args.workload,))]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

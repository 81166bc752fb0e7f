"""The three workloads: seeded inputs, one closed-loop caller, output checks.

cli-stream     text files through in-process `gdmux mux` then `gdmux demux`
               (cli.main), alternating (3,3,26) Hartley and (7,2,48) Fourier.
batch-wide     chunks through pipeline.mux_batch then pipeline.demux_batch at
               (3,4,80), alternating Hartley and Fourier.
design-survey  one sweep over 175 distinct designs: a cold and then eight
               warm library round trips, `design` for both kinds, `cosets`,
               `carriers` (N <= 26), a small `crosstalk` probe and, for
               m = 1, a small `psd` with ACF, all but the round trips
               through cli.main.

One measuring process runs one round: a stream workload warms up on one
request per design and then times passes over one cycle, which holds every
size of a fixed ladder once per design in a seeded order, so every pass
has the same mix of sizes whatever the seed and at least 100 samples; the
survey times one sweep, cold by construction. Every pass of a run sends
the same requests, and each request's times are reported by its index, so
run.py can take each request's fastest pass. Inputs are generated from the
seed before any timing starts. Only the calls into gdmux are timed; checks
run between timed calls, never inside them.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from gdmux import cli, pipeline
from gdmux.fields import SystemParams

import hostspeed
import reference as ref
from tracer import LAYERS, SpanStats

WORKLOADS = ("cli-stream", "batch-wide", "design-survey")

CLI_DESIGNS = (((3, 3, 26), "hartley"), ((7, 2, 48), "fourier"))
CLI_FRAMES = tuple(range(4, 56))             # 52 file sizes per design, 29.5 frames on average
BATCH_DESIGN = (3, 4, 80)
BATCH_KINDS = ("hartley", "fourier")
BATCH_FRAMES = tuple(range(8, 164, 3))       # 52 chunk sizes per kind, 84.5 frames on average
SCALAR_CHECK_SHARE = 8                       # one request in 8 gets the scalar leader check
SURVEY_ROUNDTRIP_FRAMES = 16
SURVEY_WARM_REPEATS = 8                      # warm round trips per design after the cold one
SURVEY_CROSSTALK_FRAMES = 32
SURVEY_CARRIERS_MAX_N = 26
SURVEY_PSD_ARGS = ("--frames", "1024", "--realizations", "4", "--nfft", "64")


def design_flags(design, kind=None) -> list[str]:
    p, m, N = design
    flags = ["-p", str(p), "-m", str(m), "-N", str(N)]
    return flags + ["--kind", kind] if kind else flags


class Stats:
    """Operations attempted and failed, timed samples, and counts for the layers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # request index -> [frames, mux s, demux s, all timed s] of each of its round trips
        self.timings: dict[int, list[list[float]]] = {}
        self.timed_s = 0.0
        # slot -> host-speed kernel samples (hostspeed.py), one per slot and pass
        self.kernel_s: dict[int, list[float]] = {}
        self.untraced_s = 0.0     # the same requests untraced, in a traced stream round
        self.requests = 0         # files, chunks or survey entries
        self.layer_frames = 0     # every frame the workload sent through mux and demux
        self.bytes_in = self.bytes_out = 0
        self.shapes = ref.ShapeCounts()

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {'; '.join(problems)}")

    def calibrate(self, slot: int) -> None:
        self.kernel_s.setdefault(slot, []).append(hostspeed.sample())

    def crashed(self, label: str) -> None:
        self.op(label, [traceback.format_exc(limit=-2).strip().replace("\n", " | ")])


def _root(tracer, name="bench.sample"):
    return tracer.sample(name) if tracer else contextlib.nullcontext()


def _leader_problems(got, want) -> list[str]:
    return [] if got == want else ["leader values differ from the scalar definition"]


def _array_leaders(leaders) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(tuple(int(c) for c in v[0]), tuple(int(c) for c in v[1])) for v in leaders]


# ---------------------------------------------------------------------------
# stream workloads
# ---------------------------------------------------------------------------

class Item:
    """One file or chunk of a cycle."""

    def __init__(self, design, kind, symbols, check_row):
        self.design, self.kind, self.symbols = design, kind, symbols
        self.frames = len(symbols)
        self.check_row = check_row   # frame given the scalar check, or None
        self.params = SystemParams.create(*design)
        p, m, N = design
        self.nu = ref.nu(N, p, kind)
        self.frame_len = ref.frame_length(p, m, N, kind)


def _cycle(rng, designs, ladder, work: Path | None) -> list[Item]:
    per_design = []
    for design, kind in designs:
        items = []
        checked = set(rng.choice(len(ladder), size=-(-len(ladder) // SCALAR_CHECK_SHARE),
                                  replace=False).tolist())
        for n, frames in enumerate(rng.permutation(ladder).tolist()):
            symbols = rng.integers(0, design[0], size=(frames, design[2]))
            item = Item(design, kind, symbols, int(rng.integers(frames)) if n in checked else None)
            if work is not None:
                stem = work / f"{kind}-{design[2]}-{n}"
                item.txt, item.bin, item.out = (str(stem.with_suffix(s)) for s in (".txt", ".bin", ".out"))
                item.text = ("\n".join(" ".join(map(str, row)) for row in symbols.tolist()) + "\n").encode()
                Path(item.txt).write_bytes(item.text)
            items.append(item)
        per_design.append(items)
    return [item for pair in zip(*per_design) for item in pair]


def _cli_item(item: Item, tracer, root):
    flags = design_flags(item.design, item.kind)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), _root(tracer, root):
        t0 = time.perf_counter()
        rc_mux = cli.main(["mux", *flags, "--in", item.txt, "--out", item.bin])
        t1 = time.perf_counter()
        rc_demux = cli.main(["demux", *flags, "--in", item.bin, "--out", item.out])
        t2 = time.perf_counter()
    wire = Path(item.bin).read_bytes()
    back = Path(item.out).read_bytes()
    problems = []
    if rc_mux or rc_demux:
        problems.append(f"exit codes {rc_mux}/{rc_demux}: {err.getvalue().strip()[:200]}")
    if back != item.text:
        problems.append("demuxed text differs from the input file")
    if len(wire) != item.frames * item.frame_len:
        problems.append(f"{len(wire)} frame bytes, expected {item.frames} x {item.frame_len}")
    elif item.check_row is not None:
        r = item.check_row
        frame = wire[r * item.frame_len:(r + 1) * item.frame_len]
        problems += _leader_problems(ref.wire_leaders(frame, item.design[1], item.nu),
                                     ref.scalar_leaders(item.params, item.kind, item.symbols[r]))
    return (t0, t1, t2), problems, (len(item.text) + len(wire), len(wire) + len(back))


def _batch_item(item: Item, tracer, root):
    with _root(tracer, root):
        t0 = time.perf_counter()
        leaders = pipeline.mux_batch(item.params, item.kind, item.symbols)
        t1 = time.perf_counter()
        back = pipeline.demux_batch(item.params, item.kind, leaders)
        t2 = time.perf_counter()
    problems = []
    if not np.array_equal(back, item.symbols):
        problems.append("demuxed symbols differ from the input chunk")
    if leaders.shape != (item.frames, item.nu, 2, item.design[1]):
        problems.append(f"leader array shape {leaders.shape}")
    elif item.check_row is not None:
        r = item.check_row
        problems += _leader_problems(_array_leaders(leaders[r]),
                                     ref.scalar_leaders(item.params, item.kind, item.symbols[r]))
    return (t0, t1, t2), problems, (0, 0)


def run_stream(workload, seed, work: Path, tracer, until=None) -> Stats:
    """Warm up on the first request of each design, then time passes over
    one cycle: one pass, or with `until` (a perf_counter reading) passes
    while the next one is expected to end by then.

    With a tracer, each timed request also runs untraced, back to back and
    in alternating order, so the tracing overhead is measured on the same
    work at the same moment rather than across the machine's slower drifts."""
    stats = Stats()
    rng = np.random.default_rng(seed)
    if workload == "cli-stream":
        items, run_item = _cycle(rng, CLI_DESIGNS, CLI_FRAMES, work), _cli_item
    else:
        items = _cycle(rng, [(BATCH_DESIGN, k) for k in BATCH_KINDS], BATCH_FRAMES, None)
        run_item = _batch_item

    def schedule():
        yield from ((None, item) for item in items[:2])
        while True:
            began = time.perf_counter()
            yield from enumerate(items)
            if until is None or 2 * time.perf_counter() - began > until:
                return

    for n, (index, item) in enumerate(schedule()):
        timed = index is not None
        if timed and index % hostspeed.CALIBRATE_EVERY == 0:
            stats.calibrate(index // hostspeed.CALIBRATE_EVERY)
        if tracer and timed:
            tracers = (tracer, None) if n % 2 else (None, tracer)
        else:
            tracers = (tracer,)
        label = f"{item.kind}{item.design} {item.frames} frames{'' if timed else ' (warm-up)'}"
        for pass_tracer in tracers:
            try:
                (t0, t1, t2), problems, (bytes_in, bytes_out) = run_item(
                    item, pass_tracer, "bench.sample" if timed else "bench.warmup")
            except Exception:
                stats.crashed(label)
                continue
            stats.op(label, problems)
            if not timed:
                continue
            if pass_tracer is None and tracer is not None:
                stats.untraced_s += t2 - t0
                continue
            stats.timings.setdefault(index, []).append([item.frames, t1 - t0, t2 - t1, t2 - t0])
            stats.timed_s += t2 - t0
            stats.layer_frames += item.frames
            stats.requests += 1
            stats.bytes_in += bytes_in
            stats.bytes_out += bytes_out
            stats.shapes.add(item.design, item.kind, item.frames)
    return stats


# ---------------------------------------------------------------------------
# design survey
# ---------------------------------------------------------------------------

def _cli_op(argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _root(tracer):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def _check_design_report(text, design, kind) -> list[str]:
    p, _, N = design
    other = "fourier" if kind == "hartley" else "hartley"
    nu, other_nu = ref.nu(N, p, kind), ref.nu(N, p, other)
    want_nu = f"{nu}   ({other}: {other_nu})"
    fields = dict(line.split(" = ", 1) for line in text.splitlines()
                  if line.startswith(("nu = ", "gamma_cc = ")))
    problems = []
    if fields.get("nu") != want_nu:
        problems.append(f"{kind} report has nu = {fields.get('nu')!r}, orbit count gives {want_nu!r}")
    gamma = fields.get("gamma_cc", "").split(" = ")[0]
    if not gamma or Fraction(gamma) != Fraction(N, nu):
        problems.append(f"{kind} report has gamma_cc = {gamma!r}, orbit count gives {Fraction(N, nu)}")
    return problems


def _check_cosets(text, design) -> list[str]:
    p, _, N = design
    want = [f"C{o[0]}=({','.join(map(str, o))})" for o in ref.orbits(N, p, "hartley")]
    return [] if text.splitlines() == want else ["coset table differs from the orbit walk"]


def _check_carriers(text, design) -> list[str]:
    N = design[2]
    rows = [line.split(" ") for line in text.splitlines()]
    if len(rows) != N or any(len(r) != N for r in rows):
        return [f"carrier matrix is not {N} x {N}"]
    if len(set(rows[0])) != 1 or any(rows[i][k] != rows[k][i] for i in range(N) for k in range(i)):
        return ["carrier matrix is not symmetric with a constant row 0 (cas(0) = 1)"]
    return []


def _check_crosstalk(text, user) -> list[str]:
    lines = text.splitlines()
    if len(lines) != 2 or not lines[0].startswith(f"user {user}:") \
            or not lines[0].endswith(" CLEAN") or lines[1] != "no cross-talk detected":
        return [f"crosstalk probe not CLEAN: {text.strip()[:200]!r}"]
    return []


def _check_csv(path: Path, rows: int) -> list[str]:
    lines = path.read_text().splitlines()[1:]
    values = [float(v) for line in lines for v in line.split(",")]
    if len(lines) != rows or not all(math.isfinite(v) for v in values):
        return [f"{path.name}: {len(lines)} rows (expected {rows}) or non-finite values"]
    return []


def run_survey(seed, work: Path, tracer) -> Stats:
    """One sweep over the survey designs."""
    stats = Stats()
    rng = np.random.default_rng(seed)
    designs = ref.survey_designs()
    inputs = [(rng.integers(0, d[0], size=(SURVEY_ROUNDTRIP_FRAMES, d[2])), int(rng.integers(d[2])))
              for d in designs]
    psd_out, acf_out = work / "psd.csv", work / "acf.csv"
    for n, (design, (symbols, user)) in enumerate(zip(designs, inputs)):
        p, m, N = design
        label = str(design)
        try:
            # the cold round trip builds the design and counts in its timed
            # work; the fps and round-trip figures come from the warm ones
            # after it, which time per-frame work across many design shapes
            with _root(tracer):
                t0 = time.perf_counter()
                params = SystemParams.create(p, m, N)
                leaders = pipeline.mux_batch(params, "hartley", symbols)
                back = pipeline.demux_batch(params, "hartley", leaders)
                t1 = time.perf_counter()
            stats.timed_s += t1 - t0
            problems = [] if np.array_equal(back, symbols) else ["round trip is not exact"]
            problems += _leader_problems(_array_leaders(leaders[0]),
                                         ref.scalar_leaders(params, "hartley", symbols[0]))
            # the design's own kernel slot, in the cache state its warm round trips see
            stats.calibrate(n)
            stats.timings[n] = []
            for _ in range(SURVEY_WARM_REPEATS):
                with _root(tracer):
                    t2 = time.perf_counter()
                    again = pipeline.mux_batch(params, "hartley", symbols)
                    t3 = time.perf_counter()
                    back_again = pipeline.demux_batch(params, "hartley", again)
                    t4 = time.perf_counter()
                if not (np.array_equal(again, leaders) and np.array_equal(back_again, symbols)):
                    problems.append("warm round trip differs from the cold one")
                # a design's timed work: the cold round trip, one warm one and its commands
                stats.timings[n].append([SURVEY_ROUNDTRIP_FRAMES, t3 - t2, t4 - t3, t1 - t0 + t4 - t2])
                stats.timed_s += t4 - t2
            stats.op(f"{label} round trip", problems)
        except Exception:
            stats.crashed(f"{label} round trip")

        commands = [(["design", *design_flags(design, k)],
                     lambda out, k=k: _check_design_report(out, design, k)) for k in ("hartley", "fourier")]
        commands.append((["cosets", "-p", str(p), "-N", str(N)], lambda out: _check_cosets(out, design)))
        if N <= SURVEY_CARRIERS_MAX_N:
            commands.append((["carriers", *design_flags(design)], lambda out: _check_carriers(out, design)))
        commands.append((["crosstalk", *design_flags(design, "fourier"), "--user", str(user),
                          "--frames", str(SURVEY_CROSSTALK_FRAMES), "--seed", str(seed)],
                         lambda out: _check_crosstalk(out, user)))
        if m == 1:
            commands.append((["psd", *design_flags(design), *SURVEY_PSD_ARGS, "--seed", str(seed),
                              "--out", str(psd_out), "--acf-out", str(acf_out)],
                             lambda out: _check_csv(psd_out, int(SURVEY_PSD_ARGS[-1])) + _check_csv(acf_out, N)))
        for argv, check in commands:
            what = f"{label} {argv[0]}"
            try:
                rc, out, err, seconds = _cli_op(argv, tracer)
                stats.timed_s += seconds
                for timing in stats.timings.get(n, ()):
                    timing[3] += seconds
                problems = [f"exit code {rc}: {err.strip()[:200]}"] if rc else check(out)
                stats.bytes_out += len(out) + len(err)
                if argv[0] == "psd" and not rc:
                    stats.bytes_out += psd_out.stat().st_size + acf_out.stat().st_size
                stats.op(what, problems)
            except Exception:
                stats.crashed(what)
        stats.requests += 1
        stats.layer_frames += (1 + SURVEY_WARM_REPEATS) * SURVEY_ROUNDTRIP_FRAMES + SURVEY_CROSSTALK_FRAMES
        stats.shapes.add(design, "hartley", (1 + SURVEY_WARM_REPEATS) * SURVEY_ROUNDTRIP_FRAMES)
        stats.shapes.add(design, "fourier", SURVEY_CROSSTALK_FRAMES)
    return stats


# ---------------------------------------------------------------------------
# set-up probe: process start -> first frame done, in a fresh process
# ---------------------------------------------------------------------------

def first_frame(workload, seed, work: Path) -> tuple[float, list[str]]:
    """Run the workload's first request and return (perf_counter when its
    first frame is done, problems found in that frame)."""
    rng = np.random.default_rng(seed)
    if workload == "cli-stream":
        design, kind = CLI_DESIGNS[0]
        symbols = rng.integers(0, design[0], size=(1, design[2]))
        text = (" ".join(map(str, symbols[0].tolist())) + "\n").encode()
        txt, bin_, out = (str(work / f"first{s}") for s in (".txt", ".bin", ".out"))
        Path(txt).write_bytes(text)
        flags = design_flags(design, kind)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["mux", *flags, "--in", txt, "--out", bin_]) or \
                cli.main(["demux", *flags, "--in", bin_, "--out", out])
        done = time.perf_counter()
        ok = rc == 0 and Path(out).read_bytes() == text
        return done, [] if ok else [f"first file did not round-trip: {err.getvalue()[:200]}"]
    if workload == "batch-wide":
        design, kind = BATCH_DESIGN, BATCH_KINDS[0]
    else:
        design, kind = ref.survey_designs()[0], "hartley"
    symbols = rng.integers(0, design[0], size=(1, design[2]))
    params = SystemParams.create(*design)
    back = pipeline.demux_batch(params, kind, pipeline.mux_batch(params, kind, symbols))
    done = time.perf_counter()
    return done, [] if np.array_equal(back, symbols) else ["first frame did not round-trip"]


# ---------------------------------------------------------------------------
# per-layer figures of a traced round
# ---------------------------------------------------------------------------

def layer_metrics(stats: Stats, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced round, each with the base it was computed from."""
    S = SpanStats(tracer.spans)
    frames, sh = stats.layer_frames, stats.shapes

    def per_frame(seconds, what):
        return (seconds * 1e6 / frames if frames else 0.0,
                f"{seconds:.6f} s self time / {frames} frames {what}")

    def ratio(num, den, base):
        return (num / den if den else 0.0, f"{num:g} / {den:g} {base}")

    def total(seconds):
        return seconds, "self time over warm-up and timed requests"

    creates = S.calls_timed["fields.SystemParams.create"]
    out = {
        "cli.mux_self_us_per_frame": per_frame(S.timed("cli.mux"), "muxed"),
        "cli.demux_self_us_per_frame": per_frame(S.timed("cli.demux"), "demuxed"),
        "cli.bytes_in": (stats.bytes_in, "bytes read by gdmux commands"),
        "cli.bytes_out": (stats.bytes_out, "bytes written by gdmux commands"),
        "pipeline.serialize_us_per_frame": per_frame(S.timed("pipeline.serialize"), "muxed"),
        "pipeline.parse_us_per_frame": per_frame(S.timed("pipeline.iter_frames.next"), "demuxed"),
        "pipeline.mux_us_per_frame": per_frame(S.timed("pipeline.mux", "pipeline.mux_batch"), "muxed"),
        "pipeline.reconstruct_us_per_frame": per_frame(S.timed("pipeline.reconstruct_batch"), "demuxed"),
        "pipeline.validate_system_s": total(S.total("pipeline.validate_system")),
        "pipeline.crosstalk_s": total(S.total("pipeline.crosstalk_probe")),
        "pipeline.wire_bytes_per_frame": ratio(sh.wire_bytes, sh.frames, "wire bytes per frame"),
        "pipeline.info_bits_per_wire_bit": ratio(sh.info_bits, 8 * sh.wire_bytes,
                                                 "user information bits per wire bit"),
        "pipeline.rejects": (sum(S.rejects.values()), "by exception class: " + (
            ", ".join(f"{k}={v}" for k, v in sorted(S.rejects.items())) or "none")),
        "fields.params_create_calls": (creates, "SystemParams.create calls in timed requests"),
        "fields.params_create_per_design": ratio(creates, stats.requests,
                                                 "SystemParams.create calls per design request (ideal 1)"),
        "fields.root_search_us_per_frame": per_frame(S.timed("fields.find_root_of_unity"), "demuxed"),
        "transforms.forward_us_per_frame": per_frame(S.timed("transforms.forward_batch"), "muxed"),
        "transforms.inverse_us_per_frame": per_frame(S.timed("transforms.inverse_batch"), "demuxed"),
        "transforms.first_call_s": (S.first_call_s,
                                    "first call per design and kind of forward_batch, inverse_batch "
                                    "and the kernel helpers pipeline calls directly"),
        "transforms.forward_macs_per_frame": ratio(sh.forward_macs, sh.frames, "2mN*N MACs per frame"),
        "transforms.inverse_macs_per_frame": ratio(sh.inverse_macs, sh.frames, "(2mN)^2 MACs per frame"),
        "transforms.forward_kept_ratio": ratio(sh.kept, sh.users, "leaders kept / spectrum values (nu/N)"),
        "cosets.coset_table_s": total(S.total_prefix("cosets.")),
        "trig.carrier_matrix_s": total(S.total("trig.carrier_matrix", "trig.carrier")),
        "statsim.psd_estimate_s": total(S.total("statsim.psd_estimate", "statsim.synthesize_envelope")),
        "statsim.galois_acf_s": total(S.total("statsim.galois_acf")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (S.layer_share(layer), f"of {S.timed_s:.6f} s in timed requests")
    out["trace.spans"] = (len(tracer.spans), "spans recorded")
    if stats.untraced_s:
        out["trace.overhead_pct"] = (
            (stats.timed_s - stats.untraced_s) / stats.untraced_s * 100,
            f"{stats.timed_s:.4f} s traced minus {stats.untraced_s:.4f} s untraced, same requests back to back")
    return out

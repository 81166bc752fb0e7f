"""Command-line front end.

Subcommands: design, cosets, carriers, mux, demux, crosstalk, psd,
selftest. Exit codes: 0 success, 1 usage/parameter error or a file that
cannot be read or written, 2 data error (including input text that is
not UTF-8), 3 selftest failure.

mux and demux move a whole file through one array. mux parses every
non-blank line into an (F, N) symbol array, muxes it with one
pipeline.mux_batch and writes it with one pipeline.encode_frames; demux
reads it with one pipeline.decode_frames, which names the first bad frame
("frame N: ..."), and demuxes it with one pipeline.demux_batch. Only when
the bulk parse refuses the text does mux re-read it line by line, to
report the first bad line as "line N: ...".

demux formats its text from a digit table: each symbol becomes the
right-aligned digits of the design's widest symbol p-1 plus a space or
a newline, with 0 bytes for the leading blanks, and one compaction
drops those. --out names stdout ("-") or a file, which is overwritten
in place and then cut at the end of the new bytes, so no byte of its
old content is left after them, also when a write fails. Nothing is
fsynced.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import cosets as cosets_mod
from . import pipeline, statsim, trig
from .errors import (FrameFormatError, GdmError, InconsistentFrame, InvalidParams,
                     require_positive)
from .fields import MAX_PRIME, SystemParams
from .transforms import Kind, TimeBlock, design

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

_OUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _digit_table(n: int) -> np.ndarray:
    """(n, w) uint8 ASCII digits of 0..n-1, right-aligned, a 0 byte per leading blank.

    Built by one printf-style format rather than numpy arithmetic: ufuncs
    that nothing else in a CLI process runs would map their code pages
    and grow its peak RSS.
    """
    w = len(str(n - 1))
    text = (f"%{w}d" * n % tuple(range(n))).replace(" ", "\0")
    return np.frombuffer(text.encode(), np.uint8).reshape(n, w)


_DIGITS = _digit_table(MAX_PRIME)   # demux text: p uses the last len(str(p - 1)) columns


def _parse_poly(text):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("polynomial must be comma-separated integers, low degree first")


def _add_param_flags(sp):
    sp.add_argument("-p", type=int, required=True, help="ground-field prime")
    sp.add_argument("-m", type=int, default=1, help="extension degree (default 1)")
    sp.add_argument("-N", type=int, required=True, help="block length, N | p^m - 1")
    sp.add_argument("--poly", type=_parse_poly, default=None,
                    help="reduction polynomial coefficients, low degree first, incl. leading 1")
    sp.add_argument("--kind", choices=["fourier", "hartley"], default="hartley")


def _params(args) -> SystemParams:
    return SystemParams.create(args.p, args.m, args.N, poly=args.poly)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gdmux",
                                 description="Galois-division multiplex toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("design", help="print the design report for one parameter set")
    _add_param_flags(sp)
    sp.add_argument("--snr-db", type=float, default=None,
                    help="check admissibility at this SNR")

    sp = sub.add_parser("cosets", help="print the cyclotomic coset table")
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--kind", choices=["fourier", "hartley"], default="hartley")

    sp = sub.add_parser("carriers", help="print the carrier matrix")
    _add_param_flags(sp)

    sp = sub.add_parser("mux", help="compress a text symbol stream to binary frames")
    _add_param_flags(sp)
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--out", dest="outfile", default="-")

    sp = sub.add_parser("demux", help="restore a text symbol stream from binary frames")
    _add_param_flags(sp)
    sp.add_argument("--in", dest="infile", default="-")
    sp.add_argument("--out", dest="outfile", default="-")

    sp = sub.add_parser("crosstalk", help="probe per-user leakage through mux/demux")
    _add_param_flags(sp)
    sp.add_argument("--user", type=int, default=None, help="active user (default: each in turn)")
    sp.add_argument("--frames", type=int, default=1000, help="trials per user")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("psd", help="estimate the baseband power spectral density")
    _add_param_flags(sp)
    sp.add_argument("--frames", type=int, default=100_000,
                    help="total frames, split across realizations")
    sp.add_argument("--realizations", type=int, default=128)
    sp.add_argument("--nfft", type=int, default=512)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", dest="outfile", default="-", help="PSD CSV destination")
    sp.add_argument("--acf-out", dest="acffile", default=None, help="also write the spectrum ACF CSV")

    sub.add_parser("selftest", help="check the built-in golden values")
    return ap


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    """Write data to stdout ("-") or over the file at path.

    A regular file is cut at the end of what was written, also when a
    write fails, so no byte of its old content is left after the new
    ones. It is not truncated to zero first, as open(path, "wb") does:
    that frees its blocks, and ext4 (auto_da_alloc) then starts writeback
    at close, which costs ten times the write itself.
    """
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    fd = os.open(path, _OUT_FLAGS, 0o666)
    try:
        st = os.fstat(fd)
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if stat.S_ISREG(st.st_mode) and st.st_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def cmd_design(args) -> int:
    params = _params(args)
    kind = Kind(args.kind)
    table = pipeline.validate_system(params, kind)
    met = pipeline.metrics(params, kind)
    other = Kind.FOURIER if kind is Kind.HARTLEY else Kind.HARTLEY
    other_nu = cosets_mod.coset_table(params.N, params.p, other).nu
    ring_note = "" if params.ring.is_field else " (ring with zero divisors: p^m = 1 mod 4)"
    print(f"{params}  kind={kind}")
    print(f"GI({params.p}^{params.m}){ring_note}")
    print(f"zeta = {params.field.element(params.zeta)}  (order {params.N})")
    print("cosets:")
    for line in table.format_lines():
        print(f"  {line}")
    print(f"nu = {met.nu}   ({other}: {other_nu})")
    print(f"gamma_cc = {met.gamma_cc} = {float(met.gamma_cc):.4f}")
    print(f"gain = {float(met.gain_percent):.1f}%   extra channels = {float(met.extra_channels):.1f}")
    print(f"B_GDM = {met.b_gdm_over_b1} * B_1")
    eta_single = float(np.log2(params.p))
    print(f"eta one-user = {eta_single:.4f}  TDM = {eta_single:.4f}  "
          f"GDM = {met.eta_gdm:.4f} bits/s/Hz")
    min_snr = pipeline.required_snr(params, kind)
    print(f"minimum SNR for admissibility: {min_snr:.4f} ({10 * np.log10(min_snr):.2f} dB)")
    if met.gamma_cc == 1 or params.m == 1:
        print("note: no gain when the transform is taken without alphabet extension")
    if args.snr_db is not None:
        chk = pipeline.capacity_check(params, kind, 10 ** (args.snr_db / 10))
        print(f"at {args.snr_db:.2f} dB: gamma_max = {chk.gamma_max:.4f} -> "
              f"{'admissible' if chk.admissible else 'NOT admissible'}")
    return EXIT_OK


def cmd_cosets(args) -> int:
    table = cosets_mod.coset_table(args.N, args.p, args.kind)
    for line in table.format_lines():
        print(line)
    return EXIT_OK


def cmd_carriers(args) -> int:
    params = _params(args)
    matrix = trig.carrier_matrix(params)
    for row in matrix.rows:
        print(" ".join(str(z) for z in row.samples))
    return EXIT_OK


def _symbol_rows(params: SystemParams, lines: list[str]):
    """(F, N) symbols of the non-blank lines, or None if some line is not N integers in [0, p)."""
    rows = [toks for toks in map(str.split, lines) if toks]
    if any(len(toks) != params.N for toks in rows):
        return None
    try:
        vs = np.array(rows, dtype=np.int64).reshape(len(rows), params.N)
    except (ValueError, OverflowError):   # numpy parses tokens as int() does, up to int64
        return None
    return vs if ((vs >= 0) & (vs < params.p)).all() else None


def _first_bad_line(params: SystemParams, kind, lines: list[str]) -> str:
    """The error message of the first line that is not N integers in [0, p)."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            TimeBlock(params, tuple(int(tok) for tok in line.split()))
        except (ValueError, GdmError) as exc:
            return f"line {lineno}: {exc}"
        design(params, kind)   # a design over budget is refused at the first good line
    raise AssertionError("every line parses, yet the bulk parse refused the text")


def cmd_mux(args) -> int:
    params = _params(args)
    lines = _read_bytes(args.infile).decode().splitlines()
    vs = _symbol_rows(params, lines)
    if vs is None:
        print(_first_bad_line(params, args.kind, lines), file=sys.stderr)
        return EXIT_DATA
    out = b""
    if len(vs):
        out = pipeline.encode_frames(params, args.kind, pipeline.mux_batch(params, args.kind, vs))
    _write_bytes(args.outfile, out)
    return EXIT_OK


def _symbol_text(vs: np.ndarray, p: int) -> bytes:
    """(F, N) symbols in [0, p) as F lines of N space-separated decimals."""
    width = len(str(p - 1))
    buf = np.empty(vs.shape + (width + 1,), dtype=np.uint8)
    buf[..., :width] = np.take(_DIGITS[:, -width:], vs, axis=0)
    buf[..., width] = ord(" ")
    buf[:, -1, width] = ord("\n")
    return buf[buf != 0].tobytes()


def cmd_demux(args) -> int:
    params = _params(args)
    data = _read_bytes(args.infile)
    try:
        leaders = pipeline.decode_frames(data, params, args.kind)
    except (FrameFormatError, InconsistentFrame) as exc:    # a bad frame, which it names
        print(f"frame {exc.frame_index}: {exc}", file=sys.stderr)
        return EXIT_DATA
    out = b""
    if len(leaders):
        try:
            # batch errors carry their own frame index in the message
            vs = pipeline.demux_batch(params, args.kind, leaders)
        except GdmError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        out = _symbol_text(vs, params.p)
    _write_bytes(args.outfile, out)
    return EXIT_OK


def cmd_crosstalk(args) -> int:
    params = _params(args)
    if args.user is not None and not 0 <= args.user < params.N:
        raise InvalidParams(f"--user {args.user} outside [0, {params.N})")
    require_positive("--frames", args.frames)
    users = [args.user] if args.user is not None else list(range(params.N))
    all_clean = True
    for u in users:
        rep = pipeline.crosstalk_probe(params, u, args.frames, args.kind, seed=args.seed + u)
        all_clean &= rep.clean
        print(f"user {u}: trials={rep.trials} max_leak={rep.max_leak} "
              f"active_errors={rep.active_errors} {'CLEAN' if rep.clean else 'LEAKY'}")
    print("no cross-talk detected" if all_clean else "CROSS-TALK DETECTED")
    return EXIT_OK if all_clean else EXIT_DATA


def cmd_psd(args) -> int:
    params = _params(args)
    require_positive("--frames", args.frames)
    require_positive("--realizations", args.realizations)
    require_positive("--nfft", args.nfft)
    frames_per = max(1, args.frames // args.realizations)
    est = statsim.psd_estimate(params, args.kind, realizations=args.realizations,
                               frames=frames_per, nfft=args.nfft, seed=args.seed)
    rows = ["freq_hz,psd_est,psd_theory"]
    rows += [f"{f:.6g},{p:.8g},{t:.8g}"
             for f, p, t in zip(est.freqs, est.power, est.theory)]
    _write_bytes(args.outfile, ("\n".join(rows) + "\n").encode())
    if args.acffile:
        acf = statsim.galois_acf(params, args.kind, frames=min(args.frames, 100_000),
                                 seed=args.seed)
        arows = ["lag,acf_re,acf_im,stderr"]
        arows += [f"{int(l)},{v.real:.8g},{v.imag:.8g},{e:.8g}"
                  for l, v, e in zip(acf.lags, acf.values, acf.stderr)]
        _write_bytes(args.acffile, ("\n".join(arows) + "\n").encode())
    print(f"realizations={est.realizations} segments={est.segments} "
          f"fitted_scale={est.fitted_scale:.4f} max_rel_dev={est.max_rel_dev:.4f} "
          f"ratio_spread={est.ratio_spread:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    failures = []

    def check(label, got, want):
        ok = got == want
        print(f"{'PASS' if ok else 'FAIL'} {label}: {got}" + ("" if ok else f" != {want}"))
        if not ok:
            failures.append(label)

    p514 = SystemParams.create(5, 1, 4)
    check("zeta(5,1,4)", str(p514.field.element(p514.zeta)), "2")
    matrix = trig.carrier_matrix(p514)
    table1 = [["1", "1", "1", "1"],
              ["1", "3j", "4", "2j"],
              ["1", "4", "1", "4"],
              ["1", "2j", "4", "3j"]]
    check("cas table GI(5)",
          [[str(z) for z in row.samples] for row in matrix.rows], table1)
    check("walsh degeneration", trig.rationalize_walsh(matrix),
          [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
    spec = pipeline.mux(TimeBlock(p514, (4, 0, 1, 2)), "hartley")
    full = pipeline.reconstruct_spectrum(spec)
    check("mux example spectrum", [str(z) for z in full.values], ["2", "3+4j", "3", "3+1j"])
    check("demux round trip", pipeline.demux(spec).symbols, (4, 0, 1, 2))
    ft = cosets_mod.fourier_cosets(26, 3)
    check("fourier cosets (26,3)", ft.nu, 10)
    check("fourier C1", ft.cosets[1], (1, 3, 9))
    ht = cosets_mod.hartley_cosets(26, 3)
    check("hartley cosets (26,3)", ht.nu, 6)
    check("hartley C1", ht.cosets[1], (1, 23, 9, 25, 3, 17))
    check("nu_g formula (3,3)", cosets_mod.nu_g_formula(3, 3), 10)
    check("nu_h formula (10,26)", cosets_mod.nu_h_formula(10, 26), 6)
    p3326 = SystemParams.create(3, 3, 26)
    met = pipeline.metrics(p3326, "hartley")
    check("gamma_cc (3,3,26) hartley", met.gamma_cc, Fraction(13, 3))
    check("gamma_cc (3,3,26) fourier",
          pipeline.metrics(p3326, "fourier").gamma_cc, Fraction(13, 5))
    check("extra channels", met.extra_channels, 20)
    return EXIT_OK if not failures else EXIT_SELFTEST


_COMMANDS = {
    "design": cmd_design,
    "cosets": cmd_cosets,
    "carriers": cmd_carriers,
    "mux": cmd_mux,
    "demux": cmd_demux,
    "crosstalk": cmd_crosstalk,
    "psd": cmd_psd,
    "selftest": cmd_selftest,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FrameFormatError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GdmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

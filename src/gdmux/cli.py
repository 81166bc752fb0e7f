"""Command-line front end.

Subcommands: design, cosets, carriers, mux, demux, crosstalk, psd,
selftest. Exit codes: 0 success, 1 usage/parameter error or a file that
cannot be read or written, 2 data error (including input text that is
not UTF-8), 3 selftest failure. A plain argv, `command (flag value)*`
with each flag an exact option string of one of that command's
one-value flags, given once, and each value "-" or a token that does
not start with "-" and passes the flag's type and choices, is read off
_FLAGS, the table that build_parser() adds each command's flags from,
with no argparse parser built. The whole parser parses every other argv
and writes every usage error and the help.

mux and demux move a whole file through one array. mux parses the text
on bytes: one table classes every byte as a digit, a blank (space, tab,
or a \\r right before \\n) or a \\n line break; a token ends where a digit
meets another byte, and its value is read off its last 3 digits, its
line off the breaks before it. Text of those bytes alone, with
tokens of at most 3 digits, N on every non-blank line and each below p,
becomes an (F, N) symbol array there. Any other text, and every refusal,
takes the str path: decode, then one pass line by line that reads each
token by int() and stops at the first bad line with "line N: ...". Both
paths accept the same texts with the same rows. One pipeline.mux_frames
muxes the array, which the parse has checked, into the frame buffer under
the design's header. demux reads the frames with one
pipeline.decode_frames, which checks their headers and coefficients and
names the first bad frame ("frame N: ..."), and demuxes its uint8
leaders with one pipeline.demux_frames, with no second check. Each input
is checked once, by the parse. A regular input file is read in one
os.read of its size.

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
import errno
import math
import os
import stat
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from . import cosets as cosets_mod
from . import pipeline, statsim, trig
from .errors import (FrameFormatError, GdmError, InconsistentFrame, InvalidParams,
                     NotGroundField, require_positive)
from .fields import MAX_PRIME, SystemParams
from .transforms import Kind, TimeBlock

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SELFTEST = 3

_IN_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
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

# mux text: the class of each byte, a digit's value or one of these
_BLANK, _BREAK, _OTHER = 16, 32, 255
_CLASS = np.frombuffer(bytes(b - 48 if 48 <= b < 58 else _BLANK if b in b" \t\r" else
                             _BREAK if b == 10 else _OTHER for b in range(256)), dtype=np.uint8)


def _parse_poly(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("polynomial must be comma-separated integers, low degree first")


# Each command's help and its one-value flags as (option, add_argument keywords), in help order:
# build_parser adds them, and _plain reads a plain argv off the same keywords. A default is used
# as given, so a flag with a type takes no str default, which argparse would convert.
_KIND = ("--kind", dict(choices=["fourier", "hartley"], default="hartley"))
_PARAMS = (
    ("-p", dict(type=int, required=True, help="ground-field prime")),
    ("-m", dict(type=int, default=1, help="extension degree (default 1)")),
    ("-N", dict(type=int, required=True, help="block length, N | p^m - 1")),
    ("--poly", dict(type=_parse_poly, default=None,
                    help="reduction polynomial coefficients, low degree first, incl. leading 1")),
    _KIND,
)
_IN_OUT = (("--in", dict(dest="infile", default="-")), ("--out", dict(dest="outfile", default="-")))
_FLAGS = {
    "design": ("print the design report for one parameter set", _PARAMS + (
        ("--snr-db", dict(type=float, default=None, help="check admissibility at this SNR")),)),
    "cosets": ("print the cyclotomic coset table", (
        ("-p", dict(type=int, required=True)), ("-N", dict(type=int, required=True)), _KIND)),
    "carriers": ("print the carrier matrix", _PARAMS),
    "mux": ("compress a text symbol stream to binary frames", _PARAMS + _IN_OUT),
    "demux": ("restore a text symbol stream from binary frames", _PARAMS + _IN_OUT),
    "crosstalk": ("probe per-user leakage through mux/demux", _PARAMS + (
        ("--user", dict(type=int, default=None, help="active user (default: each in turn)")),
        ("--frames", dict(type=int, default=1000, help="trials per user")),
        ("--seed", dict(type=int, default=0)))),
    "psd": ("estimate the baseband power spectral density", _PARAMS + (
        ("--frames", dict(type=int, default=100_000, help="total frames, split across realizations")),
        ("--realizations", dict(type=int, default=128)),
        ("--nfft", dict(type=int, default=512)),
        ("--seed", dict(type=int, default=0)),
        ("--out", dict(dest="outfile", default="-", help="PSD CSV destination")),
        ("--acf-out", dict(dest="acffile", default=None, help="also write the spectrum ACF CSV")))),
    "selftest": ("check the built-in golden values", ()),
}


def _params(args) -> SystemParams:
    return SystemParams.create(args.p, args.m, args.N, poly=args.poly)


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on EXIT_USAGE instead of 2; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="gdmux", description="Galois-division multiplex toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _FLAGS.items():
        sp = sub.add_parser(command, help=text)
        for option, keywords in flags:
            sp.add_argument(option, **keywords)
    return ap


def _read_bytes(path: str) -> bytes:
    """The bytes of stdin ("-") or of the file at path: a regular file in one os.read of its
    fstat size, anything else, and a read cut short, on to the end."""
    if path == "-":
        return sys.stdin.buffer.read()
    fd = os.open(path, _IN_FLAGS)
    try:
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):            # refused as open() words it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        data = os.read(fd, st.st_size) if stat.S_ISREG(st.st_mode) else b""
        if len(data) < st.st_size or not data:
            with open(fd, "rb", closefd=False) as fh:
                data += fh.read()
        return data
    finally:
        os.close(fd)


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
    if args.snr_db is not None:     # refused before any output
        try:
            snr_linear = 10 ** (args.snr_db / 10)
        except OverflowError:
            snr_linear = math.inf
        if not math.isfinite(snr_linear):
            raise InvalidParams(f"--snr-db {args.snr_db} gives no finite SNR")
    params = _params(args)
    kind = Kind(args.kind)
    table = pipeline.validate_system(params, kind)
    met = pipeline.metrics(params, kind)
    other = Kind.FOURIER if kind is Kind.HARTLEY else Kind.HARTLEY
    other_nu = cosets_mod.coset_table(params.N, params.p, other).nu
    ring_note = "" if params.ring.is_field else " (ring with zero divisors: p^m = 1 mod 4)"
    zeta = params.zeta_elem
    print(f"GDM(p={params.p}, m={params.m}, N={params.N}, zeta={zeta})  kind={kind}")
    print(f"GI({params.p}^{params.m}){ring_note}")
    print(f"zeta = {zeta}  (order {params.N})")
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
        chk = pipeline.capacity_check(params, kind, snr_linear)
        print(f"at {args.snr_db:.2f} dB: gamma_max = {chk.gamma_max:.4f} -> "
              f"{'admissible' if chk.admissible else 'NOT admissible'}")
    return EXIT_OK


def cmd_cosets(args) -> int:
    table = cosets_mod.coset_table(args.N, args.p, args.kind)
    for line in table.format_lines():
        print(line)
    return EXIT_OK


def cmd_carriers(args) -> int:
    for line in trig.carrier_lines(_params(args)):
        print(line)
    return EXIT_OK


def _byte_rows(data: bytes, p: int, N: int) -> Optional[np.ndarray]:
    """(F, N) uint16 symbols of plain text, or None: the text parse on bytes.

    Plain text holds only ASCII digits, blanks (space, tab, a \\r right
    before \\n) and \\n line breaks, each token has at most 3 digits, each
    non-blank line N tokens, and each token is below p. The str path
    accepts such a text with the same rows; None sends every other text,
    and every refusal, to it.
    """
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    # read at bytes i = 3..n-2 of the padded text, where bytes 3 and n-2 are breaks
    c = _CLASS.take(np.frombuffer(b"".join((b"\n" * 4, data, b"\n" * 2)), dtype=np.uint8))
    if c.max() > _BREAK:
        return None
    digit = c < 10
    pairs = digit[1:] & digit[:-1]
    if (pairs[2:] & pairs[:-2]).any():      # a token of 4 or more digits
        return None
    del pairs                               # each temporary goes as soon as it is read
    breaks = (c[3:-1] == _BREAK).nonzero()[0]
    c &= 15                                 # a digit's value, 0 for a blank or a break
    # the value of a token whose last digit is i: c[i-2] counts only when i-1 is a digit
    # dtype given, not taken from the operands: NumPy before 2 would keep uint8 and wrap
    value = np.multiply(c[1:-3] * digit[2:-2], 100, dtype=np.uint16)
    value += c[2:-2] * 10
    value += c[3:-1]
    del c
    ends = (digit[3:-1] > digit[4:]).nonzero()[0]
    del digit
    # tokens before each break: a line holds 0 or N of them
    at = ends.searchsorted(breaks)
    step = at[1:] - at[:-1]
    if ((step != 0) & (step != N)).any():
        return None
    value = value[ends]
    if value.max(initial=0) >= p:
        return None
    return value.reshape(-1, N)


def _text_rows(params: SystemParams, kind, text: str) -> np.ndarray | str:
    """(F, N) uint8 symbols of the non-blank lines of text, or the message "line N: ..."
    of the first line that is not N integers in [0, p).

    Each token is read by int(), and TimeBlock words a refusal. The design
    is validated at the first good line, so an over-budget design is
    refused there, and a bad line before it is named instead.
    """
    flat = []
    symbols = frozenset(range(params.p))
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if not toks:
            continue
        try:
            row = list(map(int, toks))
            if len(row) != params.N or not symbols.issuperset(row):
                TimeBlock(params, tuple(row))
        except ValueError as exc:
            return f"line {lineno}: {exc}"
        if not flat:
            pipeline.validate_system(params, kind)
        flat += row
    return np.array(flat, dtype=np.uint8).reshape(-1, params.N)


def cmd_mux(args) -> int:
    params = _params(args)
    data = _read_bytes(args.infile)
    vs = _byte_rows(data, params.p, params.N)
    if vs is None:      # not plain text, or refused: read as str, line by line
        vs = _text_rows(params, args.kind, data.decode())
        if isinstance(vs, str):
            print(vs, file=sys.stderr)
            return EXIT_DATA
    _write_bytes(args.outfile, pipeline.mux_frames(params, args.kind, vs) if len(vs) else b"")
    return EXIT_OK


def _symbol_text(vs: np.ndarray, p: int) -> bytes:
    """(F, N) symbols in [0, p), the uint8 of demux_batch, as F lines of N space-separated
    decimals."""
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
            # batch errors carry their own frame index in the message; an
            # over-budget design (UnsupportedParams) is no data error
            vs = pipeline.demux_frames(params, args.kind, leaders)
        except (InconsistentFrame, NotGroundField) as exc:
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
    users = [args.user] if args.user is not None else range(params.N)
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
    if args.realizations > args.frames:
        raise InvalidParams(f"--realizations {args.realizations} exceeds --frames {args.frames}")
    est = statsim.psd_estimate(params, args.kind, realizations=args.realizations, nfft=args.nfft,
                               frames=args.frames // args.realizations, seed=args.seed)
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
    check("zeta(5,1,4)", str(p514.zeta_elem), "2")
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
    full = p514.ring.from_array(
        pipeline.reconstruct_batch(p514, "hartley", pipeline.leader_array(spec)))
    check("mux example spectrum", [str(z) for z in full], ["2", "3+4j", "3", "3+1j"])
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


def _plain_rules(flags) -> tuple[dict, dict, frozenset]:
    """Each option's (dest, type, choices), each dest's default and the required dests of one
    command's flags, as argparse reads them: dest from the option's name, str with no type."""
    rules, defaults, required = {}, {}, set()
    for option, keywords in flags:
        dest = keywords.get("dest", option.lstrip("-").replace("-", "_"))
        rules[option] = (dest, keywords.get("type", str), keywords.get("choices"))
        defaults[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
    return rules, defaults, frozenset(required)


_PLAIN = {command: _plain_rules(flags) for command, (_, flags) in _FLAGS.items()}


def _plain(command: str, pairs: list[str]) -> Optional[argparse.Namespace]:
    """_parser().parse_args([command, *pairs]) when pairs is `(flag value)*`, read off _FLAGS.

    Each flag is an exact option string of one of the command's flags and
    appears once; each value is "-" or does not start with "-", and passes
    the flag's type and choices. Every required flag is there, and the
    others get their defaults, as given. Any other argv gives None, and
    argparse parses it.
    """
    rules = _PLAIN.get(command)
    if rules is None or len(pairs) % 2:
        return None
    flags, defaults, required = rules
    values = {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        rule = flags.get(flag)
        if rule is None or rule[0] in values or text.startswith("-") and text != "-":
            return None
        dest, convert, choices = rule
        try:
            value = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse writes the error
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=command, **(defaults | values))


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv): a plain argv is read off _FLAGS (_plain), and the whole
    parser parses any other argv and writes each error and the help."""
    args = _plain(argv[0], argv[1:]) if argv else None
    return _parser().parse_args(argv) if args is None else args


def _joined_snr_db(argv: list[str]) -> list[str]:
    """argv of `design` with each `--snr-db X`, X a number such as -1e1 or -inf, as `--snr-db=X`.

    argparse reads a token that starts with "-" as a flag unless it looks
    like -10 or -2.5, so `--snr-db -1e1` and `--snr-db -inf` would end in
    "expected one argument"; `--snr-db=X` reads any float.
    """
    if argv[:1] != ["design"]:
        return argv
    out = []
    for token in argv:
        if out and out[-1] == "--snr-db" and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"--snr-db={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    args = _parse(_joined_snr_db(sys.argv[1:] if argv is None else list(argv)))
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

"""The multiplexer: transform, coset-leader compression, reconstruction.

A frame carries one GF(p) symbol per user. mux() transforms the frame and
keeps only the spectrum values at cyclotomic coset leaders; demux()
recovers the symbols from those leaders. The round trip is exact, so in
the absence of channel errors there is no cross-talk between users.

The batch maps mux_batch, demux_batch and reconstruct_batch are the
leader-space core of transforms, re-exported here with its budget check
validate_system; this module adds the frame objects, the metrics, the
wire codec and the cross-talk probe. SAMPLE_BUDGET bounds each draw of
random frames, here and in statsim, and is checked before anything is
drawn.

Efficiency metrics are kept as exact rationals: the bandwidth compactness
factor gamma_cc = N/nu, channel gain 100(1 - 1/gamma_cc) percent,
(1 - 1/gamma_cc) N extra channels on the same bandwidth, and spectral
efficiency gamma_cc log2 p bits/s/Hz against log2 p for plain TDM. The
total-rate Shannon bound caps the usable alphabet extension at
gamma_cc <= log_p(1 + S/N).

Wire format (little endian): magic "GDM1", u16 p, u8 m, u16 N, u8 kind
(0 = Fourier, 1 = Hartley), m bytes of reduction-polynomial coefficients
(constant term first, leading 1 omitted), u16 nu, then nu leader values
of 2m bytes each (re coefficients low-first, then im), one byte per GF(p)
coefficient. A design with N > MAX_WIRE_N has no header (UnsupportedParams).
Every byte of a header is determined by the design, and the header's
fields determine the design: its zeta is the one SystemParams.create
derives from (p, m, N, poly). No other module knows the format: every
writer and reader reads frame_header, the one header record, packed once
per (params, Kind(kind)) for the DESIGN_CACHE_SIZE most recent designs,
and _raw_sizes, the one size rule, which reads a frame's lengths off its
raw m byte, at offset 6, and its nu. A stream of one design is a
(frames, frame_len) byte array, which encode_frames writes in one piece.
decode_frames, iter_frames and deserialize read one run of frames with
equal headers at a time: one header comparison and one coefficient range
check per run, so a refused stream costs what an accepted one does. Given
both expectations, they take the expected frame_header first and parse no
header equal to it. deserialize reads only the first frame's bytes.

The CLI runs the batch maps' kernels on what its own parse has checked,
with no second check. mux_frames writes v @ G of symbol rows in [0, p)
into one preallocated (F, header + n) buffer, under the design's
frame_header broadcast into every row, as encode_frames does with its
checked leaders. decode_frames checks every coefficient below p and
returns the leaders as a uint8 view of the stream, which demux_frames
reads with no copy beyond its perm gather. Each gives the bytes, symbols
and errors of the checked maps (mux_batch, demux_batch).

Leaders that no frame of symbols maps to raise (InconsistentFrame /
NotGroundField). A corruption that turns one valid frame into another
is not detected: it demuxes to wrong symbols. There is no
error-correction mode.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .cosets import Kind, coset_table
from .errors import (BadLength, BadMagic, GdmError, InconsistentFrame, InvalidParams,
                     ParamMismatch, UnsupportedParams, require_positive)
from .fields import GaloisInt, SystemParams
from .transforms import (DESIGN_CACHE_SIZE, TimeBlock, _demux_or_raise, _frames, _kind_first,
                         _mux, demux_batch, design, in_range, mux_batch, reconstruct_batch,
                         validate_system)
# unused here; kept bound because perfbench/tracer.py wraps them in this module
from .transforms import _forward_flat, sigma_matrix  # noqa: F401


@dataclass(frozen=True)
class CompressedFrame:
    """The nu coset-leader spectrum values actually transmitted per frame."""

    params: SystemParams
    kind: Kind
    leaders: tuple[GaloisInt, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", Kind(self.kind))
        expect = coset_table(self.params.N, self.params.p, self.kind).nu
        if len(self.leaders) != expect:
            raise ValueError(f"expected {expect} leader values, got {len(self.leaders)}")


@dataclass(frozen=True)
class MuxMetrics:
    nu: int
    gamma_cc: Fraction
    gain_percent: Fraction
    extra_channels: Fraction
    eta_gdm: float
    b_gdm_over_b1: Fraction


@dataclass(frozen=True)
class CapacityCheck:
    gamma_cc: Fraction
    gamma_max: float
    admissible: bool


@dataclass(frozen=True)
class CrosstalkReport:
    params: SystemParams
    kind: Kind
    active_user: int
    trials: int
    max_leak: int          # largest |recovered symbol| seen on an inactive channel
    active_errors: int     # active-channel symbols not recovered exactly
    clean: bool


# ---------------------------------------------------------------------------
# mux / demux
# ---------------------------------------------------------------------------

def mux(block: TimeBlock, kind=Kind.HARTLEY) -> CompressedFrame:
    """Transform one frame and keep the coset-leader values, in leader order."""
    arr = mux_batch(block.params, kind, np.array([block.symbols]))[0]
    return CompressedFrame(block.params, kind, block.params.ring.from_array(arr))


def leader_array(frame: CompressedFrame) -> np.ndarray:
    """(nu, 2, m) coefficient array of a frame's leader values."""
    return frame.params.ring.to_array(frame.leaders)


def demux(frame: CompressedFrame) -> TimeBlock:
    """Exact inverse of mux; raises NotGroundField on corrupted content."""
    vs = demux_batch(frame.params, frame.kind, leader_array(frame))
    return TimeBlock(frame.params, tuple(int(v) for v in vs))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metrics(params: SystemParams, kind=Kind.HARTLEY) -> MuxMetrics:
    nu = coset_table(params.N, params.p, kind).nu
    gamma = Fraction(params.N, nu)
    gain = 100 * (1 - 1 / gamma)
    extra = (1 - 1 / gamma) * params.N
    return MuxMetrics(nu=nu,
                      gamma_cc=gamma,
                      gain_percent=gain,
                      extra_channels=extra,
                      eta_gdm=float(gamma) * math.log2(params.p),
                      b_gdm_over_b1=Fraction(nu))


def capacity_check(params: SystemParams, kind, snr_linear: float) -> CapacityCheck:
    """Shannon bound on the compactness factor: gamma_cc <= log_p(1 + S/N)."""
    if not snr_linear >= 0:     # NaN too
        raise ValueError("snr must be >= 0")
    gamma = metrics(params, kind).gamma_cc
    gamma_max = math.log1p(snr_linear) / math.log(params.p)
    return CapacityCheck(gamma_cc=gamma, gamma_max=gamma_max,
                         admissible=float(gamma) <= gamma_max)


def required_snr(params: SystemParams, kind=Kind.HARTLEY) -> float:
    """Minimum linear SNR at which the design is admissible: p^gamma_cc - 1."""
    gamma = metrics(params, kind).gamma_cc
    return params.p ** float(gamma) - 1.0


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

MAGIC = b"GDM1"
MAX_WIRE_N = 0xFFFF     # N and nu <= N are u16 header fields
_HEADER = struct.Struct("<4sHBHB")      # the fixed fields: magic, p, m, N, kind
_KINDS = (Kind.FOURIER, Kind.HARTLEY)    # by kind code


@_kind_first
@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def frame_header(params: SystemParams, kind: Kind) -> bytes:
    """The header bytes every frame of (params, kind) starts with; its last two hold nu.
    N > MAX_WIRE_N is refused before any coset table."""
    if params.N > MAX_WIRE_N:
        raise UnsupportedParams(f"{params}/{kind}: N = {params.N} does not fit the 16-bit "
                                f"N field of the GDM1 header (N <= {MAX_WIRE_N})")
    return (_HEADER.pack(MAGIC, params.p, params.m, params.N, _KINDS.index(kind))
            + bytes(params.poly[:params.m])
            + struct.pack("<H", coset_table(params.N, params.p, kind).nu))


def _raw_sizes(data, pos: int = 0) -> tuple[int, int, int]:
    """(header length, nu, frame length) of the frame at pos, off its raw bytes: the header ends
    after the m byte at offset 6, m polynomial bytes and the u16 nu, and the frame 2m*nu bytes
    later. A cut field reads short."""
    m = data[pos + 6] if pos + 6 < len(data) else 0
    head = _HEADER.size + m + 2
    nu = int.from_bytes(data[pos + head - 2:pos + head], "little")
    return head, nu, head + nu * 2 * m


def frame_byte_length(params: SystemParams, kind) -> int:
    return _raw_sizes(frame_header(params, kind))[2]


def serialize(frame: CompressedFrame) -> bytes:
    return encode_frames(frame.params, frame.kind, leader_array(frame)[None])


def encode_frames(params: SystemParams, kind, leaders: np.ndarray) -> bytes:
    """Serialize leader arrays (F, nu, 2, m), entries in [0, p), as F frames.

    Any other shape, or an entry outside [0, p), raises ValueError.
    """
    header = frame_header(params, kind)
    shape = (_raw_sizes(header)[1], 2, params.m)
    body, single = _frames(leaders, shape, "leader values")
    if single:
        raise ValueError(f"expected frames (F, {shape[0]}, 2, {params.m}), got one frame")
    if not in_range(body, params.p):
        raise ValueError(f"leader coefficients must lie in [0, {params.p})")
    return _write_frames(header, body)


def _write_frames(header: bytes, leaders: np.ndarray) -> bytes:
    """F frames of leaders (F, ...) in [0, p): one uint8 buffer (F, len(header) + n), the
    header broadcast into every row, then each frame's n leader coefficients."""
    n = math.prod(leaders.shape[1:])
    out = np.empty((len(leaders), len(header) + n), dtype=np.uint8)
    out[:, :len(header)] = np.frombuffer(header, dtype=np.uint8)
    out[:, len(header):] = leaders.reshape(len(leaders), n)
    return out.tobytes()


def mux_frames(params: SystemParams, kind, vs: np.ndarray) -> bytes:
    """The frames of integer symbol rows (F, N) in [0, p), which the caller has checked:
    encode_frames of mux_batch, with no check, v @ G written under the design's frame_header.

    The design is built first, so a design over the budget is refused before a header with N
    over its 16-bit field.
    """
    d = design(params, kind)
    return _write_frames(frame_header(params, kind), _mux(d, vs.astype(d.G.dtype)))


def decode_frames(data: bytes, params: SystemParams, kind) -> np.ndarray:
    """uint8 leader arrays (F, nu, 2, m) of a stream of (params, kind), a view of data; raises
    as iter_frames does."""
    runs, error = _frame_runs(data, params, kind)
    if error:
        raise error
    if not runs:
        return np.zeros((0, _raw_sizes(frame_header(params, kind))[1], 2, params.m), np.uint8)
    return runs[0][2]      # with the design known, one header is valid


def demux_frames(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """uint8 symbol rows (F, N) of leaders (F, nu, 2, m) in [0, p), which the caller has
    checked, as decode_frames does: demux_batch with no check; raises as it does."""
    d = design(params, kind)
    return _demux_or_raise(d, leaders.reshape(len(leaders), -1)).astype(np.uint8)


def _parse_header(data: bytes, offset: int, expect: Optional[SystemParams],
                  expect_kind: Optional[Kind]) -> tuple[SystemParams, Kind, int]:
    """Check the header at offset; returns its design, kind and end position."""
    if len(data) - offset < len(MAGIC) or data[offset:offset + 4] != MAGIC:
        raise BadMagic("frame does not start with GDM1")
    if len(data) - offset < _HEADER.size:
        raise BadLength("truncated header")
    _, p, m, N, kind_code = _HEADER.unpack_from(data, offset)
    pos = offset + _HEADER.size
    if kind_code >= len(_KINDS):
        raise ParamMismatch(f"unknown kind code {kind_code}")
    kind = _KINDS[kind_code]
    if len(data) - pos < m + 2:
        raise BadLength("truncated header")
    poly = tuple(data[pos:pos + m]) + (1,)
    pos += m
    (nu,) = struct.unpack_from("<H", data, pos)
    pos += 2
    # a foreign design is refused on its raw fields, before it is built
    if expect is not None and not (
            (p, m, N) == (expect.p, expect.m, expect.N)
            and tuple(c % p for c in poly) == tuple(expect.poly)):
        raise ParamMismatch(f"frame for p={p}, m={m}, N={N}, poly={poly}, expected "
                            f"p={expect.p}, m={expect.m}, N={expect.N}, poly={tuple(expect.poly)}")
    if expect_kind is not None and kind is not Kind(expect_kind):
        raise ParamMismatch(f"frame kind {kind}, expected {Kind(expect_kind)}")
    try:
        params = SystemParams.create(p, m, N, poly=poly)
    except Exception as exc:
        raise ParamMismatch(f"header does not describe a valid system: {exc}") from exc
    table = coset_table(N, p, kind)
    if nu != table.nu:
        raise ParamMismatch(f"header claims {nu} leaders, cosets give {table.nu}")
    # the design reduces the polynomial mod p; refusing unreduced bytes
    # leaves one valid header per design
    if any(c >= p for c in poly):
        raise ParamMismatch(f"polynomial coefficient byte >= p = {p}")
    return params, kind, pos


def _frame_runs(data: bytes, expect: Optional[SystemParams],
                expect_kind: Optional[Kind]) -> tuple[list, Optional[GdmError]]:
    """(runs, error): (params, kind, uint8 leaders (F, nu, 2, m)) per run of frames with equal
    headers up to the first bad frame, and its error with frame_index set, or None.

    _parse_header checks each distinct header once; with both expectations, their
    frame_header is taken as checked up front. The first run is matched in one piece, later
    ones in windows of 1, 2, 4, ... frames: linear work.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    checked = {}                                           # header bytes -> (params, kind)
    if expect is not None and expect_kind is not None:
        checked[frame_header(expect, expect_kind)] = expect, Kind(expect_kind)
    runs, pos, index, window = [], 0, 0, len(buf)
    while pos < len(buf):
        try:
            head, nu, size = _raw_sizes(data, pos)
            header = bytes(data[pos:pos + head])
            if header not in checked:
                checked[header] = _parse_header(data, pos, expect, expect_kind)[:2]
            params, kind = checked[header]
            shape = (nu, 2, params.m)                          # nu, re/im, m
            if len(buf) - pos < size:
                raise BadLength("truncated leader values")
        except GdmError as exc:
            exc.frame_index = index
            return runs, exc
        frames = buf[pos:pos + (len(buf) - pos) // size * size].reshape(-1, size)
        heads, count = frames[:, :len(header)], 1      # frame 0 starts with header
        while count < len(heads):                      # rows of header bytes, by windows
            rows = heads[count:count + window]
            if rows.tobytes() != header * len(rows):
                count += int((rows == np.frombuffer(header, np.uint8)).all(axis=1).argmin())
                break
            count, window = count + len(rows), 2 * window
        body = frames[:count, len(header):]
        if body.max() >= params.p:
            count = int((body >= params.p).any(axis=1).argmax())
            runs.append((params, kind, body[:count].reshape((count,) + shape)))
            return runs, InconsistentFrame(f"coefficient byte >= p = {params.p}",
                                           frame_index=index + count)
        runs.append((params, kind, body.reshape((count,) + shape)))
        pos, index, window = pos + count * size, index + count, 1
    return runs, None


def deserialize(data: bytes, expect: Optional[SystemParams] = None,
                expect_kind: Optional[Kind] = None) -> CompressedFrame:
    """Parse exactly one frame; trailing bytes are an error.

    Only the bytes of the first frame, by _raw_sizes, are parsed: the header of a valid
    frame gives its length, and one that lies about m or nu is refused at frame 0.
    """
    data = data or b"\0"                             # b"" is refused as a cut magic
    size = _raw_sizes(data)[2]
    runs, error = _frame_runs(data[:size], expect, expect_kind)
    if error:
        error.frame_index = None
        raise error
    params, kind, leaders = runs[0]
    if len(data) > size:
        raise BadLength(f"{len(data) - size} trailing bytes after frame")
    return CompressedFrame(params, kind, params.ring.from_array(leaders[0]))


def iter_frames(data: bytes, expect: Optional[SystemParams] = None,
                expect_kind: Optional[Kind] = None) -> Iterator[CompressedFrame]:
    """Parse a frame stream; frames before a bad one are yielded, its error has frame_index."""
    runs, error = _frame_runs(data, expect, expect_kind)
    for params, kind, leaders in runs:
        for values in leaders:
            yield CompressedFrame(params, kind, params.ring.from_array(values))
    if error:
        raise error


# ---------------------------------------------------------------------------
# cross-talk probe
# ---------------------------------------------------------------------------

# most symbols (frames * N) one draw of random frames may hold; `gdmux psd`'s
# largest default draw, 100000 ACF frames at N = 250, fits
SAMPLE_BUDGET = 1 << 25


def _check_samples(params: SystemParams, frames: int) -> None:
    """Refuse, before anything is drawn, frames * N symbols over SAMPLE_BUDGET."""
    if frames * params.N > SAMPLE_BUDGET:
        raise InvalidParams(f"{frames} frames of {params.N} symbols exceed the sample "
                            f"budget of {SAMPLE_BUDGET} symbols per draw")


def crosstalk_probe(params: SystemParams, active_user: int, trials: int,
                    kind=Kind.HARTLEY, seed: int = 0) -> CrosstalkReport:
    """Drive one user with random symbols, all others silent, and demux.

    Exact round-tripping guarantees every inactive channel recovers
    exactly zero; the report makes that measurable.
    """
    kind = Kind(kind)
    if not 0 <= active_user < params.N:
        raise ValueError(f"active_user {active_user} outside [0, {params.N})")
    require_positive("trials", trials)
    _check_samples(params, trials)
    rng = np.random.default_rng(seed)
    vs = np.zeros((trials, params.N), dtype=np.uint8)
    vs[:, active_user] = rng.integers(0, params.p, size=trials)
    recovered = demux_batch(params, kind, mux_batch(params, kind, vs))
    others = np.delete(recovered, active_user, axis=1)
    max_leak = int(others.max()) if others.size else 0     # uint8: |v| = v
    active_errors = int((recovered[:, active_user] != vs[:, active_user]).sum())
    return CrosstalkReport(params=params, kind=kind, active_user=active_user,
                           trials=trials, max_leak=max_leak,
                           active_errors=active_errors,
                           clean=(max_leak == 0 and active_errors == 0))

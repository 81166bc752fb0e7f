"""The multiplexer: transform, coset-leader compression, reconstruction.

A frame carries one GF(p) symbol per user. mux() transforms the frame and
keeps only the spectrum values at cyclotomic coset leaders; demux()
re-expands the spectrum by chaining the conjugacy map along each orbit
and applies the inverse transform. The round trip is exact, so in the
absence of channel errors there is no cross-talk between users.

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
coefficient.

Corrupted input fails loudly (InconsistentFrame / NotGroundField); there
is no error-correction mode.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .cosets import CosetTable, coset_table
from .errors import BadLength, BadMagic, InconsistentFrame, ParamMismatch
from .fields import GaloisInt, SystemParams
from .transforms import (Kind, SpectrumBlock, TimeBlock, as_kind, design,
                         forward_batch, inverse_batch, _gi_coeff_array,
                         _spectrum_from_array)
# unused here; kept bound because perfbench/tracer.py wraps them in this module
from .transforms import _forward_flat, sigma_matrix  # noqa: F401

MAGIC = b"GDM1"
_KIND_CODE = {Kind.FOURIER: 0, Kind.HARTLEY: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


@dataclass(frozen=True)
class CompressedFrame:
    """The nu coset-leader spectrum values actually transmitted per frame."""

    params: SystemParams
    kind: Kind
    leaders: tuple[GaloisInt, ...]

    def __post_init__(self):
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
# design lookup
# ---------------------------------------------------------------------------

def validate_system(params: SystemParams, kind) -> CosetTable:
    """Coset table of (params, kind), compiling its design if needed.

    Carrier orthogonality and spectrum conjugacy hold for every valid
    (p, m, N) and are proved by the test suite, not re-checked here. The
    only refusal left is the memory budget: UnsupportedParams when the
    compiled design would exceed transforms.DESIGN_BUDGET_BYTES.
    """
    return design(params, as_kind(kind)).table


# ---------------------------------------------------------------------------
# mux / demux
# ---------------------------------------------------------------------------

def mux_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Compress symbol rows (F, N) to leader arrays (F, nu, 2, m)."""
    kind = as_kind(kind)
    V = forward_batch(params, kind, vs)
    return V[:, list(design(params, kind).table.leaders), :, :]


def reconstruct_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """Expand leader arrays (F, nu, 2, m) to full spectra (F, N, 2, m).

    Walks each orbit assigning V[sigma^t(leader)] = sigma_value^t(V[leader])
    and checks that the walk closes; a closure mismatch means the frame was
    corrupted (it cannot happen for frames produced by mux).
    """
    kind = as_kind(kind)
    leaders = np.asarray(leaders, dtype=np.int64)
    single = leaders.ndim == 3
    if single:
        leaders = leaders[None]
    F = leaders.shape[0]
    N, m, p = params.N, params.m, params.p
    w = 2 * m
    out = np.zeros((F, N, 2, m), dtype=np.int64)
    for c, (orbit, maps) in enumerate(design(params, kind).orbit_maps):
        lead = leaders[:, c, :, :].reshape(F, w)
        for t, idx in enumerate(orbit):
            out[:, idx] = ((lead @ maps[t].T) % p).reshape(F, 2, m)
        closure = (lead @ maps[len(orbit)].T) % p
        bad = (closure != lead).any(axis=1)
        if bad.any():
            f = int(np.argwhere(bad)[0][0])
            raise InconsistentFrame(
                f"frame {f}: orbit of leader {orbit[0]} does not close on its value")
    return out[0] if single else out


def demux_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    spectra = reconstruct_batch(params, kind, leaders)
    if spectra.ndim == 3:
        spectra = spectra[None]
        return inverse_batch(params, kind, spectra)[0]
    return inverse_batch(params, kind, spectra)


def mux(block: TimeBlock, kind=Kind.HARTLEY) -> CompressedFrame:
    """Transform one frame and keep the coset-leader values, in leader order."""
    kind = as_kind(kind)
    arr = mux_batch(block.params, kind, np.array([block.symbols]))[0]
    ring = block.params.ring
    vals = tuple(ring.from_coeffs(arr[i, 0], arr[i, 1]) for i in range(arr.shape[0]))
    return CompressedFrame(block.params, kind, vals)


def reconstruct_spectrum(frame: CompressedFrame) -> SpectrumBlock:
    arr = reconstruct_batch(frame.params, frame.kind,
                            _gi_coeff_array(frame.leaders, frame.params.m))
    return _spectrum_from_array(frame.params, frame.kind, arr)


def leader_array(frame: CompressedFrame) -> np.ndarray:
    """(nu, 2, m) coefficient array of a frame's leader values."""
    return _gi_coeff_array(frame.leaders, frame.params.m)


def demux(frame: CompressedFrame) -> TimeBlock:
    """Exact inverse of mux; raises NotGroundField on corrupted content."""
    vs = demux_batch(frame.params, frame.kind, leader_array(frame))
    return TimeBlock(frame.params, tuple(int(v) for v in vs))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metrics(params: SystemParams, kind=Kind.HARTLEY) -> MuxMetrics:
    kind = as_kind(kind)
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
    if snr_linear < 0:
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

_HEADER = struct.Struct("<4sHBHB")


def frame_byte_length(params: SystemParams, kind) -> int:
    nu = coset_table(params.N, params.p, as_kind(kind)).nu
    return _HEADER.size + params.m + 2 + nu * 2 * params.m


def serialize(frame: CompressedFrame) -> bytes:
    p = frame.params
    out = bytearray()
    out += _HEADER.pack(MAGIC, p.p, p.m, p.N, _KIND_CODE[frame.kind])
    out += bytes(p.poly[:p.m])
    out += struct.pack("<H", len(frame.leaders))
    for z in frame.leaders:
        out += bytes(z.re.coeffs)
        out += bytes(z.im.coeffs)
    return bytes(out)


def _parse_one(data: bytes, offset: int,
               expect: Optional[SystemParams] = None,
               expect_kind: Optional[Kind] = None) -> tuple[CompressedFrame, int]:
    if len(data) - offset < len(MAGIC) or data[offset:offset + 4] != MAGIC:
        raise BadMagic("frame does not start with GDM1")
    if len(data) - offset < _HEADER.size:
        raise BadLength("truncated header")
    _, p, m, N, kind_code = _HEADER.unpack_from(data, offset)
    pos = offset + _HEADER.size
    if kind_code not in _CODE_KIND:
        raise ParamMismatch(f"unknown kind code {kind_code}")
    kind = _CODE_KIND[kind_code]
    if len(data) - pos < m + 2:
        raise BadLength("truncated header")
    poly = tuple(data[pos:pos + m]) + (1,)
    pos += m
    (nu,) = struct.unpack_from("<H", data, pos)
    pos += 2
    try:
        params = SystemParams.create(p, m, N, poly=poly)
    except Exception as exc:
        raise ParamMismatch(f"header does not describe a valid system: {exc}") from exc
    table = coset_table(N, p, kind)
    if nu != table.nu:
        raise ParamMismatch(f"header claims {nu} leaders, cosets give {table.nu}")
    if expect is not None and params != expect:
        raise ParamMismatch(f"frame for {params}, expected {expect}")
    if expect_kind is not None and kind is not as_kind(expect_kind):
        raise ParamMismatch(f"frame kind {kind}, expected {as_kind(expect_kind)}")
    body = nu * 2 * m
    if len(data) - pos < body:
        raise BadLength("truncated leader values")
    ring = params.ring
    vals = []
    for _ in range(nu):
        re = data[pos:pos + m]
        im = data[pos + m:pos + 2 * m]
        pos += 2 * m
        if any(c >= p for c in re) or any(c >= p for c in im):
            raise InconsistentFrame(f"coefficient byte >= p = {p}")
        vals.append(ring.from_coeffs(tuple(re), tuple(im)))
    return CompressedFrame(params, kind, tuple(vals)), pos


def deserialize(data: bytes, expect: Optional[SystemParams] = None,
                expect_kind: Optional[Kind] = None) -> CompressedFrame:
    """Parse exactly one frame; trailing bytes are an error."""
    frame, pos = _parse_one(data, 0, expect, expect_kind)
    if pos != len(data):
        raise BadLength(f"{len(data) - pos} trailing bytes after frame")
    return frame


def iter_frames(data: bytes, expect: Optional[SystemParams] = None,
                expect_kind: Optional[Kind] = None) -> Iterator[CompressedFrame]:
    """Parse a concatenated frame stream."""
    pos = 0
    while pos < len(data):
        frame, pos = _parse_one(data, pos, expect, expect_kind)
        yield frame


# ---------------------------------------------------------------------------
# cross-talk probe
# ---------------------------------------------------------------------------

def crosstalk_probe(params: SystemParams, active_user: int, trials: int,
                    kind=Kind.HARTLEY, seed: int = 0) -> CrosstalkReport:
    """Drive one user with random symbols, all others silent, and demux.

    Exact round-tripping guarantees every inactive channel recovers
    exactly zero; the report makes that measurable.
    """
    kind = as_kind(kind)
    if not 0 <= active_user < params.N:
        raise ValueError(f"active_user {active_user} outside [0, {params.N})")
    rng = np.random.default_rng(seed)
    vs = np.zeros((trials, params.N), dtype=np.int64)
    vs[:, active_user] = rng.integers(0, params.p, size=trials)
    recovered = demux_batch(params, kind, mux_batch(params, kind, vs))
    others = np.delete(recovered, active_user, axis=1)
    max_leak = int(np.abs(others).max()) if others.size else 0
    active_errors = int((recovered[:, active_user] != vs[:, active_user]).sum())
    return CrosstalkReport(params=params, kind=kind, active_user=active_user,
                           trials=trials, max_leak=max_leak,
                           active_errors=active_errors,
                           clean=(max_leak == 0 and active_errors == 0))

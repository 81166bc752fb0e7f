"""Monte-Carlo checks of the whiteness and spectral-shape claims.

Symbols are mapped to the complex plane through centered representatives
{-(p-1)/2, ..., (p-1)/2}. Two embeddings of GI(p) exist for m = 1:

  * component: re + 1i*im, a two-dimensional point per value;
  * rationalized: substitute j := sqrt(-1) mod p and center, available
    when p = 1 (mod 4). This is the degenerate one-dimensional carrier
    case (over GF(5) the carriers collapse to Walsh sequences), and it is
    the embedding under which the spectral power equals the time-domain
    power: componentwise, generic spectrum bins carry two independent
    uniform coordinates and average 1.5x the symbol power.

The default "auto" rationalizes whenever possible. Extension fields are
not embeddable; m > 1 is rejected.

The spectrum ACF comes from Gram products of blocks of the stream: every
lag sum, and the sums of squares behind the standard errors, in
O(S * max_lag) time and O(S) memory for a stream of S samples. For an
integer-valued stream, such as every centered embedding, the values are
exact.

The synthesized baseband puts one pulse per transmitted coefficient
(the nu coset leaders per frame) at the compressed symbol clock, applies
a uniform random start offset over one frame per realization to
stationarize the block structure, and averages periodograms. For white
symbol streams the averaged periodogram follows the pulse energy
spectrum: sinc^2 for the rectangular pulse, with no shaping from the
multiplex itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .cosets import Kind, coset_table
from .errors import ExtensionNotEmbeddable, InvalidParams, require_positive
from .fields import GaloisInt, SystemParams, centered, sqrt_of_minus_one
from .pipeline import mux_batch, validate_system
from .transforms import forward_batch


class ConstellationPoint(NamedTuple):
    re: float
    im: float


def symbol_source(p: int, seed: int = 0) -> Iterator[int]:
    """Infinite i.i.d. uniform stream over {-(p-1)/2, ..., (p-1)/2}."""
    rng = np.random.default_rng(seed)
    half = (p - 1) // 2
    while True:
        for v in rng.integers(-half, half + 1, size=4096):
            yield int(v)


def embed(z: GaloisInt) -> ConstellationPoint:
    """Componentwise centered embedding of a GI(p) value; m = 1 only."""
    if z.field.m != 1:
        raise ExtensionNotEmbeddable(
            f"constellation embedding is two-dimensional; GF({z.field.p}^{z.field.m}) values do not embed")
    p = z.field.p
    return ConstellationPoint(float(centered(z.re.coeffs[0], p)),
                              float(centered(z.im.coeffs[0], p)))


def _resolve_embedding(params: SystemParams, embedding: str) -> str:
    if params.m != 1:
        raise ExtensionNotEmbeddable("statistical simulation requires m = 1")
    if embedding == "auto":
        return "rationalized" if params.p % 4 == 1 else "component"
    if embedding == "rationalized" and params.p % 4 != 1:
        raise InvalidParams(f"-1 is a non-residue mod {params.p}; cannot rationalize")
    if embedding not in ("component", "rationalized"):
        raise ValueError(f"unknown embedding {embedding!r}")
    return embedding


def embed_spectra(params: SystemParams, arr: np.ndarray,
                  embedding: str = "auto") -> np.ndarray:
    """Map spectrum coefficient arrays (..., 2, 1) to complex samples."""
    mode = _resolve_embedding(params, embedding)
    p = params.p
    re = arr[..., 0, 0]
    im = arr[..., 1, 0]
    if mode == "rationalized":
        s = sqrt_of_minus_one(params.p, 1, params.poly).coeffs[0]
        val = (re + s * im) % p
        return _center_array(val, p).astype(np.complex128)
    return _center_array(re, p) + 1j * _center_array(im, p)


def _center_array(a: np.ndarray, p: int) -> np.ndarray:
    a = a % p
    return np.where(a > (p - 1) // 2, a - p, a).astype(np.float64)


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcfEstimate:
    lags: np.ndarray
    values: np.ndarray        # complex, values[0] is the power R(0)
    stderr: np.ndarray
    r0: float
    time_r0: float            # empirical second moment of centered user symbols
    frames: int
    embedding: str


def _lag_sums(x: np.ndarray, lags: int) -> np.ndarray:
    """sum_n x[n+j] conj(x[n]) for 0 <= j < lags, from Gram products of blocks.

    x is cut into F zero-padded blocks of B = min(lags, isqrt(S) + 1)
    samples, the rows of X. Lag j = gB + d is the sum along diagonal d of
    [X^H X_g | X^H X_(g+1)], where X_g is X shifted down by g blocks: two
    B x B products per lag group, read with one strided view. Time is
    O(S * lags) and memory O(S) for any lags. Every partial sum of an
    integer-valued x is an integer, so below 2^53 the sums are exact.
    """
    size = len(x)
    width = min(lags, math.isqrt(size) + 1)
    groups = -(-lags // width)
    rows = -(-size // width)
    padded = np.zeros((rows + groups) * width, dtype=x.dtype)
    padded[:size] = x
    blocks = padded.reshape(-1, width)
    head = blocks[:rows].conj().T
    gram = np.empty((width, 2 * width), dtype=x.dtype)
    row, col = gram.strides
    diagonals = np.lib.stride_tricks.as_strided(gram, (width, width), (col, row + col))
    sums = np.empty(groups * width, dtype=x.dtype)
    for g in range(groups):
        np.matmul(head, blocks[g:g + rows], out=gram[:, :width])
        np.matmul(head, blocks[g + 1:g + 1 + rows], out=gram[:, width:])
        diagonals.sum(axis=1, out=sums[g * width:(g + 1) * width])
    return sums[:lags]


def acf_of_stream(stream: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Lagged products mean(s[n] conj(s[n-j])) with per-lag standard errors.

    With prod_j = s[n+j] conj(s[n]) over its cnt = S - j terms, the sums
    of prod_j come from _lag_sums of s and those of |prod_j|^2 from
    _lag_sums of |s|^2; the standard error is sqrt(var / cnt) with
    var = (cnt sum|prod|^2 - |sum prod|^2) / cnt^2, clamped at 0. For an
    integer-valued stream whose sums stay below 2^53 the numerator is
    exact and the means equal prod_j.mean() bit for bit.
    """
    stream = np.asarray(stream, dtype=np.complex128)
    lags = max_lag + 1
    cnt = len(stream) - np.arange(lags, dtype=np.float64)
    sums = _lag_sums(stream, lags)
    squares = _lag_sums(stream.real ** 2 + stream.imag ** 2, lags)
    spread = np.maximum(cnt * squares - (sums.real ** 2 + sums.imag ** 2), 0.0)
    return sums / cnt, np.sqrt(spread / cnt ** 3)


def galois_acf(params: SystemParams, kind=Kind.HARTLEY, frames: int = 100_000,
               seed: int = 0, max_lag: Optional[int] = None,
               embedding: str = "auto") -> AcfEstimate:
    """Estimate the spectrum-sequence ACF R_V(j) over random frames.

    Random user blocks are transformed (no compression: the whiteness
    claim concerns the full spectrum sequence), embedded, concatenated
    and correlated. For uniform inputs R_V(j) vanishes for j != 0 and
    R_V(0) matches the time-domain symbol power under the rationalized
    embedding.
    """
    mode = _resolve_embedding(params, embedding)
    require_positive("frames", frames)
    if max_lag is None:
        max_lag = params.N - 1
    if not 0 <= max_lag < frames * params.N:
        raise InvalidParams(f"max_lag {max_lag} outside [0, {frames * params.N})")
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, params.p, size=(frames, params.N))
    stream = embed_spectra(params, forward_batch(params, kind, vs), mode).reshape(-1)
    vals, errs = acf_of_stream(stream, max_lag)
    time_r0 = float((_center_array(vs, params.p) ** 2).mean())
    return AcfEstimate(lags=np.arange(max_lag + 1), values=vals, stderr=errs,
                       r0=float(vals[0].real), time_r0=time_r0,
                       frames=frames, embedding=mode)


# ---------------------------------------------------------------------------
# pulse shaping and the synthesized baseband
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseShape:
    """Transmit pulse u(t), normalized to unit energy.

    symbol_duration * sample_rate must be a positive integer (samples per
    symbol). The rectangular pulse is the reference case with the exact
    sinc^2 energy spectrum; raised-cosine is provided with its analytic
    spectrum and a truncated time-domain realization.
    """

    kind: str = "rectangular"
    beta: float = 0.0
    symbol_duration: float = 1.0
    sample_rate: float = 8.0

    def __post_init__(self):
        spp = self.symbol_duration * self.sample_rate
        if abs(spp - round(spp)) > 1e-9 or round(spp) < 1:
            raise InvalidParams("symbol_duration * sample_rate must be a positive integer")
        if self.kind not in ("rectangular", "raised-cosine"):
            raise InvalidParams(f"unknown pulse kind {self.kind!r}")
        if self.kind == "raised-cosine" and not 0.0 <= self.beta <= 1.0:
            raise InvalidParams("raised-cosine rolloff must be in [0, 1]")

    @property
    def samples_per_symbol(self) -> int:
        return round(self.symbol_duration * self.sample_rate)

    def taps(self) -> np.ndarray:
        ts = self.symbol_duration
        dt = 1.0 / self.sample_rate
        if self.kind == "rectangular":
            return np.full(self.samples_per_symbol, 1.0 / math.sqrt(ts))
        # raised cosine truncated to +-4 Ts, unit energy numerically
        span = 4
        t = (np.arange(-span * self.samples_per_symbol,
                       span * self.samples_per_symbol + 1)) * dt
        x = t / ts
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.sinc(x)
            denom = 1.0 - (2.0 * self.beta * x) ** 2
            shape = np.where(np.abs(denom) < 1e-12,
                             math.pi / 4 * np.sinc(1.0 / (2 * self.beta)) if self.beta else 1.0,
                             np.cos(math.pi * self.beta * x) / np.where(denom == 0, 1, denom))
        u = core * shape
        energy = float((u ** 2).sum() * dt)
        return u / math.sqrt(energy)

    def spectrum_sq(self, freqs: np.ndarray) -> np.ndarray:
        """|U(f)|^2 of the unit-energy pulse."""
        ts = self.symbol_duration
        if self.kind == "rectangular":
            return ts * np.sinc(freqs * ts) ** 2
        beta = self.beta
        f = np.abs(freqs)
        flat = f <= (1 - beta) / (2 * ts)
        roll = (f > (1 - beta) / (2 * ts)) & (f <= (1 + beta) / (2 * ts))
        mag = np.zeros_like(f)
        mag[flat] = 1.0
        if beta > 0:
            mag[roll] = 0.5 * (1 + np.cos(math.pi * ts / beta * (f[roll] - (1 - beta) / (2 * ts))))
        # unit-energy normalization: integral of mag^2 over f is (1 - beta/4)/ts
        return ts * mag ** 2 / (1 - beta / 4)


def _transmit_symbols(params: SystemParams, kind, frames: int,
                      rng: np.random.Generator, embedding: str,
                      source: str = "gdm") -> np.ndarray:
    """Complex symbol stream actually sent: nu coset leaders per frame."""
    nu = validate_system(params, kind).nu
    if source == "gaussian":
        # control experiment: white non-multiplexed symbols, same clock
        n = frames * nu
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    vs = rng.integers(0, params.p, size=(frames, params.N))
    leaders = mux_batch(params, kind, vs)
    return embed_spectra(params, leaders, embedding).reshape(-1)


def synthesize_envelope(params: SystemParams, kind=Kind.HARTLEY, frames: int = 1000,
                        pulse: Optional[PulseShape] = None,
                        rng: Optional[np.random.Generator] = None,
                        embedding: str = "auto",
                        source: str = "gdm") -> np.ndarray:
    """One realization of the complex baseband: a pulse per transmitted coefficient."""
    require_positive("frames", frames)
    pulse = pulse or PulseShape()
    rng = rng if rng is not None else np.random.default_rng(0)
    mode = _resolve_embedding(params, embedding) if source == "gdm" else embedding
    symbols = _transmit_symbols(params, kind, frames, rng, mode, source)
    spp = pulse.samples_per_symbol
    if pulse.kind == "rectangular":
        return np.repeat(symbols, spp) * pulse.taps()[0]
    up = np.zeros(len(symbols) * spp, dtype=np.complex128)
    up[::spp] = symbols
    return np.convolve(up, pulse.taps())


# ---------------------------------------------------------------------------
# PSD estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdEstimate:
    freqs: np.ndarray          # Hz, symmetric about 0
    power: np.ndarray          # averaged two-sided periodogram
    theory: np.ndarray         # R0_emp * |U(f)|^2 / Tsym
    r0: float
    fitted_scale: float        # least-squares estimate/theory scale on the main lobe
    main_lobe: np.ndarray      # boolean mask |f Tsym| <= 0.75
    max_rel_dev: float         # max |estimate/(scale*theory) - 1| on the main lobe
    ratio_spread: float        # max |ratio/mean(ratio) - 1| on the main lobe
    realizations: int
    frames: int
    segments: int = 0


def psd_estimate(params: SystemParams, kind=Kind.HARTLEY, *,
                 realizations: int = 192, frames: int = 1024,
                 pulse: Optional[PulseShape] = None, nfft: int = 512,
                 seed: int = 0, embedding: str = "auto",
                 source: str = "gdm") -> PsdEstimate:
    """Averaged periodogram of the synthesized envelope versus theory.

    Each realization draws fresh frames, applies a random start offset
    uniform over one frame, and contributes nfft-point segments. The
    main lobe excludes the neighborhood of the first sinc null, where the
    discrete-time model bias dominates any multiplex effect.
    """
    require_positive("realizations", realizations)
    require_positive("frames", frames)
    require_positive("nfft", nfft)
    pulse = pulse or PulseShape()
    rng = np.random.default_rng(seed)
    fs = pulse.sample_rate
    spp = pulse.samples_per_symbol
    nu = coset_table(params.N, params.p, kind).nu
    acc = np.zeros(nfft)
    nseg_total = 0
    for _ in range(realizations):
        env = synthesize_envelope(params, kind, frames, pulse, rng, embedding, source)
        theta = int(rng.integers(0, nu * spp))
        env = env[theta:]
        nseg = len(env) // nfft
        if nseg == 0:
            raise InvalidParams("frames too small for the requested nfft")
        segs = env[:nseg * nfft].reshape(nseg, nfft)
        spec = np.fft.fft(segs, axis=1)
        acc += (spec.real ** 2 + spec.imag ** 2).sum(axis=0)
        nseg_total += nseg
    # R0 from the same ensemble (fresh draw, same statistics)
    sym = _transmit_symbols(params, kind, min(frames, 4096), rng,
                            _resolve_embedding(params, embedding) if source == "gdm" else embedding,
                            source)
    r0 = float((sym.real ** 2 + sym.imag ** 2).mean())
    psd = np.fft.fftshift(acc) / (nseg_total * nfft * fs)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    tsym = pulse.symbol_duration
    theory = r0 * pulse.spectrum_sq(freqs) / tsym
    main = np.abs(freqs * tsym) <= 0.75
    scale = float((psd[main] * theory[main]).sum() / (theory[main] ** 2).sum())
    ratio = psd[main] / (scale * theory[main])
    return PsdEstimate(freqs=freqs, power=psd, theory=theory, r0=r0,
                       fitted_scale=scale, main_lobe=main,
                       max_rel_dev=float(np.abs(ratio - 1).max()),
                       ratio_spread=float(np.abs(ratio / ratio.mean() - 1).max()),
                       realizations=realizations, frames=frames,
                       segments=nseg_total)

"""Finite-field Hartley and Fourier transforms, forward and inverse.

Forward maps take N symbols of GF(p) to a spectrum in GI(p^m)^N:

    Fourier:  V_k = sum_i v_i zeta^(ik)
    Hartley:  V_k = sum_i v_i cas_k(i)

Inverses carry the 1/N normalization forced by exact round-tripping; the
Hartley kernel is self-inverse up to that factor (sum_k cas(ik) cas(kj)
= N delta_ij), so mux and demux share one kernel.

Spectra of ground-field signals are redundant. With F the coefficient
Frobenius a -> a^p:

    Fourier:  V_(pk mod N)  = frobenius(V_k)      (= a^p + j^p b^p)
    Hartley:  V_(-pk mod N) = a^p - j b^p          (conj_frobenius)

The Hartley map equals plain frobenius exactly when p = 3 (mod 4); for
p = 1 (mod 4) the extra conjugation is required (e.g. over GI(5) the
spectrum (2, 3+4j, 3, 3+j) has V_3 = conj(V_1), not V_1^5 = V_1). These
identities, like the orthogonality of the carriers, hold for every valid
(p, m, N) and are what coset compression relies on. The test suite proves
them on a basis over a grid of designs; nothing re-checks them at runtime.

Every transform is one integer matrix over GF(p) acting on coefficient
vectors (forward_batch / inverse_batch); the scalar operations
(ffht_forward and friends) go through the same matrices. design()
compiles those matrices, the coset table and the conjugacy maps of one
(params, kind) once, refuses any design whose matrices would exceed
DESIGN_BUDGET_BYTES before allocating them, and keeps the most recent
DESIGN_CACHE_SIZE designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cosets import CosetTable, coset_table
from .errors import NotGroundField, UnsupportedParams
from .fields import ExtField, FieldElement, GaloisInt, SystemParams
from .trig import _cas_by_product


class Kind(str, Enum):
    FOURIER = "fourier"
    HARTLEY = "hartley"

    def __str__(self):
        return self.value


def as_kind(kind) -> Kind:
    return Kind(kind.value if isinstance(kind, Kind) else str(kind).lower())


@dataclass(frozen=True)
class TimeBlock:
    """One frame of user symbols, entries in [0, p)."""

    params: SystemParams
    symbols: tuple[int, ...]

    def __post_init__(self):
        if len(self.symbols) != self.params.N:
            raise ValueError(f"expected {self.params.N} symbols, got {len(self.symbols)}")
        if any(not 0 <= s < self.params.p for s in self.symbols):
            raise ValueError(f"symbols must lie in [0, {self.params.p})")


@dataclass(frozen=True)
class SpectrumBlock:
    params: SystemParams
    kind: Kind
    values: tuple[GaloisInt, ...]

    def __post_init__(self):
        if len(self.values) != self.params.N:
            raise ValueError(f"expected {self.params.N} values, got {len(self.values)}")


# ---------------------------------------------------------------------------
# coefficient-array kernels
# ---------------------------------------------------------------------------
# Layout: a spectrum batch is an int64 array (F, N, 2, m); axis 2 is re/im,
# axis 3 the GF(p) coefficients. Flattened per-block length is 2*m*N.

def _mul_matrix(a: FieldElement) -> np.ndarray:
    """(m, m) matrix of multiplication by a on coefficient vectors."""
    field = a.field
    m = field.m
    cols = []
    for t in range(m):
        unit = tuple(1 if s == t else 0 for s in range(m))
        cols.append(field.mul_coeffs(a.coeffs, unit))
    return np.array(cols, dtype=np.int64).T


def _gi_mul_matrix(z: GaloisInt) -> np.ndarray:
    """(2m, 2m) matrix of multiplication by z on stacked (re, im) coefficients."""
    a = _mul_matrix(z.re)
    b = _mul_matrix(z.im)
    p = z.field.p
    return np.block([[a, (-b) % p], [b % p, a]]) % p


def frobenius_matrix(field: ExtField) -> np.ndarray:
    """(m, m) matrix of a -> a^p on coefficient vectors (GF(p)-linear)."""
    m = field.m
    cols = []
    for t in range(m):
        unit = field.element(tuple(1 if s == t else 0 for s in range(m)))
        cols.append((unit ** field.p).coeffs)
    return np.array(cols, dtype=np.int64).T


def _gi_coeff_array(values: Sequence[GaloisInt], m: int) -> np.ndarray:
    out = np.empty((len(values), 2, m), dtype=np.int64)
    for n, z in enumerate(values):
        out[n, 0] = z.re.coeffs
        out[n, 1] = z.im.coeffs
    return out


def _kernel(params: SystemParams, kind: Kind, inverse: bool) -> tuple[GaloisInt, ...]:
    """Transform kernel by argument t = i*k mod N."""
    if kind is Kind.HARTLEY:
        return _cas_by_product(params)  # self-dual
    field = params.field
    z = params.zeta_elem if not inverse else params.zeta_elem.inverse()
    pows = [field.one]
    for _ in range(params.N - 1):
        pows.append(pows[-1] * z)
    return tuple(GaloisInt(w, field.zero) for w in pows)


def _products(N: int) -> np.ndarray:
    """(N, N) kernel arguments i*k mod N."""
    n = np.arange(N)
    return np.outer(n, n) % N


def _forward_flat(params: SystemParams, kind: Kind) -> np.ndarray:
    """(2mN, N) integer matrix: spectrum coefficients = M @ symbols (mod p)."""
    N, m = params.N, params.m
    ker = _gi_coeff_array(_kernel(params, kind, inverse=False), m)
    return ker[_products(N)].transpose(0, 2, 3, 1).reshape(N * 2 * m, N)


def _inverse_flat(params: SystemParams, kind: Kind) -> np.ndarray:
    """(2mN, 2mN) integer matrix of the inverse transform (with the 1/N factor)."""
    N, w = params.N, 2 * params.m
    inv_n = params.field.scalar(N).inverse()
    blocks = np.stack([_gi_mul_matrix(z * inv_n)
                       for z in _kernel(params, kind, inverse=True)])
    # big[i, a, k, b] = blocks[i*k mod N, a, b], gathered straight into the
    # final layout so no (N, N, 2m, 2m) temporary is transposed and copied
    r = np.arange(w)
    big = blocks[_products(N)[:, None, :, None], r[:, None, None], r]
    return big.reshape(N * w, N * w)


# ---------------------------------------------------------------------------
# compiled designs
# ---------------------------------------------------------------------------

DESIGN_CACHE_SIZE = 8             # compiled designs kept, least recently used evicted
DESIGN_BUDGET_BYTES = 256 << 20   # largest compiled design; bigger ones are refused


@dataclass(frozen=True, eq=False)
class Design:
    """Everything the batch maps need for one (params, kind), compiled once.

    forward (2mN, N) and inverse (2mN, 2mN) are the transform matrices on
    stacked coefficient vectors, sigma (2m, 2m) is sigma_value as a
    matrix, and orbit_maps holds per coset its orbit (walk order) and
    sigma^t for t = 0..len(orbit). The arrays are read-only: every caller
    shares them.
    """

    params: SystemParams
    kind: Kind
    table: CosetTable
    forward: np.ndarray
    inverse: np.ndarray
    sigma: np.ndarray
    orbit_maps: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def nbytes(self) -> int:
        arrays = [self.forward, self.inverse, self.sigma]
        for orbit, maps in self.orbit_maps:
            arrays += [orbit, maps]
        return sum(a.nbytes for a in arrays)


def design_nbytes(m: int, N: int) -> int:
    """Upper bound on Design.nbytes, from the array shapes alone.

    The orbit maps hold N + nu <= 2N matrices of size (2m, 2m).
    """
    w = 2 * m
    entries = w * N * N + (w * N) ** 2 + w * w + N + 2 * N * w * w
    return entries * np.dtype(np.int64).itemsize


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _orbit_maps(table: CosetTable, sigma: np.ndarray, p: int):
    """Per coset: (orbit index array, stacked sigma^t matrices t = 0..len)."""
    w = sigma.shape[0]
    out = []
    for orbit in table.cosets:
        maps = np.empty((len(orbit) + 1, w, w), dtype=np.int64)
        maps[0] = np.eye(w, dtype=np.int64)
        for t in range(1, len(orbit) + 1):
            maps[t] = (sigma @ maps[t - 1]) % p
        out.append((_readonly(np.array(orbit, dtype=np.int64)), _readonly(maps)))
    return tuple(out)


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def design(params: SystemParams, kind) -> Design:
    """The compiled design of (params, kind).

    Raises UnsupportedParams, before allocating any matrix, when the
    design would need more than DESIGN_BUDGET_BYTES.
    """
    kind = as_kind(kind)
    size = design_nbytes(params.m, params.N)
    if size > DESIGN_BUDGET_BYTES:
        raise UnsupportedParams(
            f"{params}/{kind}: compiled design needs {size / 2**20:.1f} MiB, "
            f"over the {DESIGN_BUDGET_BYTES / 2**20:.0f} MiB budget")
    table = coset_table(params.N, params.p, kind)
    sigma = _readonly(sigma_matrix(params, kind))
    return Design(params=params, kind=kind, table=table,
                  forward=_readonly(_forward_flat(params, kind)),
                  inverse=_readonly(_inverse_flat(params, kind)),
                  sigma=sigma,
                  orbit_maps=_orbit_maps(table, sigma, params.p))


# ---------------------------------------------------------------------------
# batch transforms
# ---------------------------------------------------------------------------

def forward_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Transform a batch of symbol rows (F, N) to spectra (F, N, 2, m)."""
    kind = as_kind(kind)
    vs = np.atleast_2d(np.asarray(vs, dtype=np.int64)) % params.p
    M = design(params, kind).forward
    flat = (vs @ M.T) % params.p
    F = vs.shape[0]
    return flat.reshape(F, params.N, 2, params.m)


def inverse_batch(params: SystemParams, kind, spectra: np.ndarray) -> np.ndarray:
    """Invert spectra (F, N, 2, m) back to symbol rows (F, N).

    Raises NotGroundField when any recovered value has a nonzero imaginary
    part or nonzero high-degree coefficients.
    """
    kind = as_kind(kind)
    N, m, p = params.N, params.m, params.p
    spectra = np.asarray(spectra, dtype=np.int64)
    single = spectra.ndim == 3
    if single:
        spectra = spectra[None]
    F = spectra.shape[0]
    M = design(params, kind).inverse
    out = (spectra.reshape(F, N * 2 * m) @ M.T) % p
    out = out.reshape(F, N, 2, m)
    residue = np.zeros((F, N), dtype=bool)
    residue |= (out[:, :, 1, :] != 0).any(axis=2)
    if m > 1:
        residue |= (out[:, :, 0, 1:] != 0).any(axis=2)
    if residue.any():
        f, i = np.argwhere(residue)[0]
        raise NotGroundField(
            f"recovered value at frame {f}, position {i} is not in GF({p})")
    vs = out[:, :, 0, 0]
    return vs[0] if single else vs


def _spectrum_from_array(params: SystemParams, kind: Kind, arr: np.ndarray) -> SpectrumBlock:
    ring = params.ring
    vals = tuple(ring.from_coeffs(arr[k, 0], arr[k, 1]) for k in range(params.N))
    return SpectrumBlock(params, kind, vals)


def spectrum_to_array(spec: SpectrumBlock) -> np.ndarray:
    return _gi_coeff_array(spec.values, spec.params.m)


# ---------------------------------------------------------------------------
# the four transform operations
# ---------------------------------------------------------------------------

def ffht_forward(block: TimeBlock) -> SpectrumBlock:
    """V_k = sum_i v_i cas_k(i)."""
    arr = forward_batch(block.params, Kind.HARTLEY, np.array([block.symbols]))[0]
    return _spectrum_from_array(block.params, Kind.HARTLEY, arr)


def ffht_inverse(spec: SpectrumBlock) -> TimeBlock:
    """v_i = (1/N) sum_k V_k cas_i(k); exact inverse of ffht_forward."""
    vs = inverse_batch(spec.params, Kind.HARTLEY, spectrum_to_array(spec)[None])[0]
    return TimeBlock(spec.params, tuple(int(v) for v in vs))


def ffft_forward(block: TimeBlock) -> SpectrumBlock:
    """V_k = sum_i v_i zeta^(ik)."""
    arr = forward_batch(block.params, Kind.FOURIER, np.array([block.symbols]))[0]
    return _spectrum_from_array(block.params, Kind.FOURIER, arr)


def ffft_inverse(spec: SpectrumBlock) -> TimeBlock:
    """v_i = (1/N) sum_k V_k zeta^(-ik)."""
    vs = inverse_batch(spec.params, Kind.FOURIER, spectrum_to_array(spec)[None])[0]
    return TimeBlock(spec.params, tuple(int(v) for v in vs))


def transform_forward(block: TimeBlock, kind) -> SpectrumBlock:
    return ffht_forward(block) if as_kind(kind) is Kind.HARTLEY else ffft_forward(block)


def transform_inverse(spec: SpectrumBlock) -> TimeBlock:
    return ffht_inverse(spec) if spec.kind is Kind.HARTLEY else ffft_inverse(spec)


# ---------------------------------------------------------------------------
# conjugacy structure
# ---------------------------------------------------------------------------

def sigma_index(params: SystemParams, kind, k: int) -> int:
    """Index map whose orbits are the cyclotomic cosets: pk or -pk mod N."""
    step = params.p if as_kind(kind) is Kind.FOURIER else -params.p
    return (step * k) % params.N


def sigma_value(z: GaloisInt, kind) -> GaloisInt:
    """Value map paired with sigma_index on spectra of ground-field blocks."""
    return z.frobenius() if as_kind(kind) is Kind.FOURIER else z.conj_frobenius()


def sigma_matrix(params: SystemParams, kind: Kind) -> np.ndarray:
    """(2m, 2m) matrix form of sigma_value on stacked (re, im) coefficients."""
    Fm = frobenius_matrix(params.field)
    m, p = params.m, params.p
    zero = np.zeros((m, m), dtype=np.int64)
    if as_kind(kind) is Kind.FOURIER and p % 4 == 1:
        lower = Fm
    else:
        lower = (-Fm) % p
    return np.block([[Fm, zero], [zero, lower]]) % p

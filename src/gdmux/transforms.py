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

The leader-space core. A compiled Design holds G (N, n), the transform
at the coset leaders (n = 2m*nu coefficients per frame), D (n, N), its
left inverse (G @ D = I mod p), and the stacked powers of the conjugacy
map sigma. Every batch map is a short composition of four private
kernels on it: _mux (L = v @ G), _demux (v = L @ D, with the syndrome
check v @ G == L, true exactly for the frames mux could have produced),
_expand (the orbit walk V[orbit[t]] = sigma^t @ V[leader]) and
_orbit_error (the closure check sigma^len(orbit) @ leader == leader,
with no spectrum expanded). inverse_batch accepts a spectrum S exactly
when, with L = S at the leaders, v @ G == L and _expand(L) == S: then
forward(v) = _expand(v @ G) = S, and otherwise forward(v) differs from
S at a leader or _expand(L) does elsewhere.

Exactness. Each kernel is a float64 BLAS product of integers in [0, p)
whose sums stay below 2mN(p-1)^2 < 2^52 for every p <= MAX_PRIME and
p^m <= MAX_FIELD_SIZE (tests/test_pipeline.py checks the extremes), and
mod_p reduces such sums exactly. Symbols, spectrum entries and the
leaders given to expand_leaders are reduced mod p first; demux_batch and
reconstruct_batch refuse leaders outside [0, p), which never close
their orbits.

design() compiles, once per (params, kind), the coset table and these
arrays. It refuses any design over DESIGN_BUDGET_BYTES before
allocating it, and keeps the most recent DESIGN_CACHE_SIZE designs.

A design is compiled by array operations on (..., m) coefficient
vectors, with no GaloisInt arithmetic:

  * ExtField.x_power_matrices holds P, the m matrices of multiplication
    by x^j (j < m) read off the reduced powers of x; P[1] is the
    companion matrix. Multiplication by any batch of elements is
    einsum(a, P) mod p, and by a GI(p^m) value re + j im it is the block
    matrix [[A, -B], [B, A]] of those.
  * The kernel is computed once per build, as an (N, 2, m) array:
    zeta^t for Fourier, cas(t) for Hartley (trig.cas_coeffs), both from
    one array of the powers of zeta. G is gathered from it; the inverse
    kernel is the same array (Hartley) or the same array read at (-t)
    mod N (Fourier), times 1/N mod p. Demux reads each output at its
    (re, coefficient 0) entry, so the inverse is one linear form per
    argument t: coefficient 0 of the product, (N, 2m) in all.
  * sigma is built from the Frobenius matrix, whose columns are the
    powers of x^p, computed by ExtField.powers like those of zeta. All
    cosets walk the same powers sigma^t, so a design holds one stack of
    them, up to the longest orbit. D is gathered, like G, from one
    (N, 2m) table per orbit length.

No dense matrix is part of a design, and the library builds none: the
inverse is D. _forward_flat (2mN x N) is the reference tests compare
forward_batch against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .cosets import CosetTable, Kind, coset_table
from .errors import InconsistentFrame, NotGroundField, UnsupportedParams
from .fields import ExtField, GaloisInt, SystemParams
from .trig import cas_coeffs


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

def frobenius_matrix(field: ExtField) -> np.ndarray:
    """(m, m) matrix of a -> a^p on coefficient vectors (GF(p)-linear).

    Column t is (x^t)^p = y^t with y = x^p, so the matrix is the powers
    of y, one per column. For m = 1 "x" is 0 and any y gives [[1]].
    """
    y = field.powers(np.eye(1, field.m, 1)[0], field.p + 1)[field.p]
    return field.powers(y, field.m).T


def _kernel_coeffs(params: SystemParams, kind) -> np.ndarray:
    """(N, 2, m) transform kernel by argument t = i*k mod N: cas(t) or zeta^t."""
    if Kind(kind) is Kind.HARTLEY:
        return cas_coeffs(params)
    ker = np.zeros((params.N, 2, params.m), dtype=np.int64)
    ker[:, 0] = params.field.powers(params.zeta, params.N)
    return ker


def _forward_flat(params: SystemParams, kind) -> np.ndarray:
    """(2mN, N) integer matrix: spectrum coefficients = M @ symbols (mod p); tests only."""
    N, w = params.N, 2 * params.m
    ker = _kernel_coeffs(params, kind).reshape(N, w)
    n = np.arange(N)
    # flat[k, a, i] = ker[i*k mod N, a], gathered straight into the final layout
    return ker[(np.outer(n, n) % N)[:, None, :], np.arange(w)[:, None]].reshape(N * w, N)


def _inverse_form(params: SystemParams, kind, ker: np.ndarray) -> np.ndarray:
    """(N, 2m): coefficient 0 of (1/N) times the inverse kernel at argument t times z, as a
    linear form in z's stacked (re, im) coefficients, from the forward kernel ker (N, 2, m).

    The Hartley kernel is its own inverse. The inverse Fourier kernel is
    zeta^-t = zeta^(N-t), the forward kernel read at (-t) mod N. 1/N is
    an integer mod p, since N divides p^m - 1. Coefficient 0 of a * b is
    a @ P0 @ b, P0 = row 0 of the matrices of multiplication by x^j; the
    real part of (re + j im)(b + j c) is re*b - im*c.
    """
    N, p = params.N, params.p
    if Kind(kind) is Kind.FOURIER:
        ker = ker[(-np.arange(N)) % N]
    row0 = ker @ params.field.x_power_matrices[:, 0, :]                 # (N, 2, m)
    return np.concatenate([row0[:, 0], -row0[:, 1]], axis=1) * pow(N, -1, p) % p


# ---------------------------------------------------------------------------
# compiled designs
# ---------------------------------------------------------------------------

DESIGN_CACHE_SIZE = 8             # compiled designs kept, least recently used evicted
DESIGN_BUDGET_BYTES = 256 << 20   # largest compiled design; bigger ones are refused


@dataclass(frozen=True, eq=False)
class Design:
    """Everything the batch maps need for one (params, kind), compiled once.

    G (N, n) and D (n, N), with n = 2m*nu coefficients per frame, act on
    flattened leader arrays: G is the transform restricted to the coset
    leaders and D its left inverse, G @ D = I (mod p), the library's only
    inverse. They are float64 so that BLAS applies them. sigma_powers
    (L + 1, 2m, 2m) holds sigma^t for t = 0..L, L the longest orbit:
    every coset walks the same powers. walk (N + nu,) says where the walk
    finds each spectrum position, and where each orbit ends (the step
    len(orbit), which the closure check reads). The arrays are read-only:
    every caller shares them.
    """

    params: SystemParams
    kind: Kind
    table: CosetTable
    G: np.ndarray
    D: np.ndarray
    sigma_powers: np.ndarray
    walk: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.G, self.D, self.sigma_powers, self.walk))


def design_nbytes(m: int, N: int, nu: int, longest: int) -> int:
    """Design.nbytes of a design with nu cosets, from the array shapes alone.

    G and D have n = 2m*nu columns and rows of N entries; sigma_powers
    holds longest + 1 matrices of size (2m, 2m), longest <= 2m being the
    longest orbit, and walk N + nu indices. The size grows as m*nu*N.
    Every entry, int64 or float64, takes 8 bytes.
    """
    w = 2 * m
    entries = 2 * N * (w * nu) + (longest + 1) * w * w + N + nu
    return entries * 8


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _sigma_powers(sigma: np.ndarray, p: int, longest: int) -> np.ndarray:
    """(longest + 1, 2m, 2m): sigma^t for t = 0..longest."""
    out = np.empty((longest + 1,) + sigma.shape, dtype=np.int64)
    out[0] = np.eye(sigma.shape[0], dtype=np.int64)
    for t in range(1, longest + 1):
        out[t] = (sigma @ out[t - 1]) % p
    return out


def _walk(table: CosetTable, lengths: np.ndarray) -> np.ndarray:
    """(N + nu,) rows of the orbit walk: spectrum positions, then orbit ends.

    Position orbit_c[t] reads row c * (L + 1) + t, sigma^t @ leader_c;
    entry N + c reads the row of t = len(orbit_c).
    """
    N, nu, longest = table.N, table.nu, table.longest
    rows = np.arange(nu * (longest + 1)).reshape(nu, longest + 1)
    walk = np.empty(N + nu, dtype=np.int64)
    walk[np.concatenate(table.cosets)] = rows[np.arange(longest + 1) < lengths[:, None]]
    walk[N:] = rows[np.arange(nu), lengths]
    return walk


def _leader_matrices(params: SystemParams, table: CosetTable, lengths: np.ndarray,
                     ker: np.ndarray, sigma_powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G (N, n) and D (n, N) as float64, each gathered from an (N, 2m) table.

    G is the transform at the leaders: G[i, (c, a)] = ker[i * leader_c, a].
    Demux is reconstruction followed by the inverse transform, read at
    each output's (re, coefficient 0) entry. Reconstruction sets
    V[orbit[t]] = sigma^t @ leader, so the leader of coset c reaches
    output i through sum_{t < len(orbit)} R_t[i * orbit[t]], where
    R_t = _inverse_form @ sigma^t. Since orbit[t] = s^t * leader, with s
    the table's step, that sum is Q_len[i * leader], with
    Q_len = sum_{t < len} R_t[n * s^t] one table per orbit length.
    """
    N, w, p = params.N, 2 * params.m, params.p
    a = np.arange(w)
    args = np.outer(table.leaders, np.arange(N)) % N                  # (nu, N): leader * i
    G = ker.reshape(N, w).astype(np.float64)[args.T[:, :, None], a].reshape(N, -1)
    longest = len(sigma_powers) - 1
    R = (_inverse_form(params, table.kind, ker) @ sigma_powers[:longest]) % p  # (L, N, 2m)
    shifts = np.array([pow(table.step, t, N) for t in range(longest)])
    Q = np.cumsum(R[np.arange(longest)[:, None], np.outer(shifts, np.arange(N)) % N], axis=0) % p
    # D[(c, a), i] = Q_len(c)[i * leader_c, a], gathered straight into the final layout
    D = Q.astype(np.float64)[(lengths - 1)[:, None, None], args[:, None, :], a[:, None]]
    return _readonly(G), _readonly(D.reshape(-1, N))


@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def design(params: SystemParams, kind) -> Design:
    """The compiled design of (params, kind).

    Raises UnsupportedParams, before allocating any matrix, when the
    design would need more than DESIGN_BUDGET_BYTES.
    """
    kind = Kind(kind)
    table = coset_table(params.N, params.p, kind)
    size = design_nbytes(params.m, params.N, table.nu, table.longest)
    if size > DESIGN_BUDGET_BYTES:
        raise UnsupportedParams(
            f"{params}/{kind}: compiled design needs {size / 2**20:.1f} MiB, "
            f"over the {DESIGN_BUDGET_BYTES / 2**20:.0f} MiB budget")
    lengths = np.array([len(orbit) for orbit in table.cosets])
    sigma_powers = _readonly(_sigma_powers(sigma_matrix(params, kind), params.p, table.longest))
    G, D = _leader_matrices(params, table, lengths, _kernel_coeffs(params, kind), sigma_powers)
    return Design(params=params, kind=kind, table=table, G=G, D=D,
                  sigma_powers=sigma_powers, walk=_readonly(_walk(table, lengths)))


# ---------------------------------------------------------------------------
# the leader-space core and the batch maps
# ---------------------------------------------------------------------------

def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, exactly, for a float64 array of integers in [0, 2^52).

    Computes x - p*floor(x/p) on one temporary. IEEE division is
    correctly rounded: with x = qp + r, 0 < r < p, x/p lies at least 1/p
    below q + 1 and its rounding error is under 1/(2p) when x < 2^52, so
    floor gives q and the rest is exact integer arithmetic. It is all
    SIMD float work: no integer division and no libm remainder call.
    """
    p = np.array(p, dtype=np.float64)   # 0-d: spares two scalar conversions, which show on small x
    q = x / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def in_range(a: np.ndarray, p: int) -> bool:
    """Whether every entry of the int64 array a lies in [0, p)."""
    # viewed as uint64 a negative entry is >= 2^63, so one max checks both ends
    return bool(a.view(np.uint64).max(initial=0) < p)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The int64 array a reduced mod p; a itself when its entries lie in [0, p)."""
    return a if in_range(a, p) else a % p


def _frames(a, shape: tuple[int, ...], what: str) -> tuple[np.ndarray, bool]:
    """a as int64 rows (F, prod(shape)), and whether a was one item rather than a batch.

    a is one item of the given shape or a batch (F,) + shape of them; any
    other array raises ValueError ("expected {shape[0]} {what}, ...").
    """
    a = np.asarray(a, dtype=np.int64)
    single = a.ndim == len(shape)
    if a.shape[not single:] != shape:
        raise ValueError(f"expected {shape[0]} {what}, got an array of shape {a.shape}")
    # a batch of rows is returned as it is: the mux path then costs no reshape
    return (a if a.ndim == 2 and not single else a.reshape(-1, math.prod(shape))), single


def _mux(d: Design, vs: np.ndarray) -> np.ndarray:
    """Leader rows (F, n) of float64 symbol rows (F, N) in [0, p): v @ G."""
    return mod_p(vs @ d.G, d.params.p)


def _demux(d: Design, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, same) of float64 leader rows L (F, n) in [0, p): v = L @ D as float64, and the
    syndrome check same = (v @ G == L), true throughout the frames mux could have produced."""
    vs = mod_p(L @ d.D, d.params.p)
    return vs, _mux(d, vs) == L


def _expand(d: Design, L: np.ndarray) -> np.ndarray:
    """Spectra (F, N, 2, m) of float64 leader rows L (F, n) in [0, p): the orbit walk, one
    product with the stacked powers sigma^t, read out at V[orbit[t]] through d.walk."""
    N, m, p = d.params.N, d.params.m, d.params.p
    w = 2 * m
    # column t*2m + a is row a of sigma^t; each sum has 2m terms below p^2
    powers = d.sigma_powers.transpose(2, 0, 1).reshape(w, -1).astype(np.float64)
    steps = mod_p(L.reshape(-1, w) @ powers, p).astype(np.int64).reshape(len(L), -1, w)
    return steps[:, d.walk[:N]].reshape(len(L), N, 2, m)


def _orbit_error(d: Design, rows: np.ndarray) -> Optional[InconsistentFrame]:
    """The closure check of int64 leader rows (F, n): InconsistentFrame at the first coset, then
    frame, where sigma^len(orbit) @ leader != leader, or None. Walked values lie in [0, p), so a
    leader with an entry outside [0, p) never closes."""
    nu, w, p = d.table.nu, 2 * d.params.m, d.params.p
    lead = rows.reshape(len(rows), nu, w).transpose(1, 0, 2)            # (nu, F, 2m)
    # walk[N + c] is step len(orbit_c) in coset c's block of L + 1 steps
    closing = d.sigma_powers[d.walk[d.params.N:] % len(d.sigma_powers)].transpose(0, 2, 1)
    ends = mod_p(_residues(lead, p).astype(np.float64) @ closing.astype(np.float64), p)
    bad = (ends != lead).any(axis=2)                                    # (nu, F)
    if not bad.any():
        return None
    c, f = np.argwhere(bad)[0]
    return InconsistentFrame(
        f"frame {f}: orbit of leader {d.table.leaders[c]} does not close on its value",
        frame_index=int(f))


def _not_ground_field(f: int, p: int) -> NotGroundField:
    """The error for frame f, which no symbol row of GF(p)^N gives."""
    return NotGroundField(f"frame {f}: recovered symbols are not in GF({p})", frame_index=f)


def mux_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Compress symbol rows (F, N) or (N,) to leader arrays (F, nu, 2, m); symbols are taken mod p."""
    d = design(params, kind)
    vs, _ = _frames(vs, (params.N,), "symbols")
    L = _mux(d, _residues(vs, params.p).astype(np.float64))
    return L.astype(np.int64).reshape(len(vs), d.table.nu, 2, params.m)


def demux_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """Recover symbol rows (F, N) or (N,) from leader arrays (F, nu, 2, m) or (nu, 2, m).

    A frame mux could not have produced raises InconsistentFrame if some
    orbit does not close, else NotGroundField; each names the first such frame.
    """
    d = design(params, kind)
    rows, single = _frames(leaders, (d.table.nu, 2, params.m), "leader values")
    if not in_range(rows, params.p):
        raise _orbit_error(d, rows)
    vs, same = _demux(d, rows.astype(np.float64))
    if not same.all():
        raise _orbit_error(d, rows) or _not_ground_field(int(same.all(axis=1).argmin()), params.p)
    vs = vs.astype(np.int64)
    return vs[0] if single else vs


def reconstruct_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """Expand leader arrays (F, nu, 2, m) or (nu, 2, m) to spectra (F, N, 2, m) or (N, 2, m).

    Raises InconsistentFrame, naming the first frame whose orbits do not all close.
    """
    d = design(params, kind)
    rows, single = _frames(leaders, (d.table.nu, 2, params.m), "leader values")
    error = _orbit_error(d, rows)
    if error is not None:
        raise error
    spectra = _expand(d, rows.astype(np.float64))
    return spectra[0] if single else spectra


def expand_leaders(d: Design, leaders: np.ndarray) -> np.ndarray:
    """Spectra (F, N, 2, m) of leader arrays (F, nu, 2, m) or (nu, 2, m), taken mod p.

    The orbit walk alone: whether the orbits close is reconstruct_batch's check.
    """
    rows, _ = _frames(leaders, (d.table.nu, 2, d.params.m), "leader values")
    return _expand(d, _residues(rows, d.params.p).astype(np.float64))


def forward_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Transform symbol rows (F, N) or (N,) to spectra (F, N, 2, m); symbols are taken mod p."""
    d = design(params, kind)
    vs, _ = _frames(vs, (params.N,), "symbols")
    return _expand(d, _mux(d, _residues(vs, params.p).astype(np.float64)))


def inverse_batch(params: SystemParams, kind, spectra: np.ndarray) -> np.ndarray:
    """Invert spectra (F, N, 2, m) or (N, 2, m), taken mod p, to symbol rows (F, N) or (N,).

    Raises NotGroundField at the first spectrum of no symbol row, and
    UnsupportedParams for a design over the budget.
    """
    d = design(params, kind)
    N, m, p = params.N, params.m, params.p
    rows, single = _frames(spectra, (N, 2, m), "spectrum values")
    S = _residues(rows, p).reshape(-1, N, 2, m)
    L = S[:, d.table.leaders].reshape(len(S), -1).astype(np.float64)
    vs, same = _demux(d, L)
    good = same.all(axis=1) & (_expand(d, L) == S).all(axis=(1, 2, 3))
    if not good.all():
        raise _not_ground_field(int(good.argmin()), p)
    vs = vs.astype(np.int64)
    return vs[0] if single else vs


def spectrum_to_array(spec: SpectrumBlock) -> np.ndarray:
    return spec.params.ring.to_array(spec.values)


# ---------------------------------------------------------------------------
# the four transform operations
# ---------------------------------------------------------------------------

def ffht_forward(block: TimeBlock) -> SpectrumBlock:
    """V_k = sum_i v_i cas_k(i)."""
    arr = forward_batch(block.params, Kind.HARTLEY, np.array([block.symbols]))[0]
    return SpectrumBlock(block.params, Kind.HARTLEY, block.params.ring.from_array(arr))


def ffht_inverse(spec: SpectrumBlock) -> TimeBlock:
    """v_i = (1/N) sum_k V_k cas_i(k); exact inverse of ffht_forward."""
    vs = inverse_batch(spec.params, Kind.HARTLEY, spectrum_to_array(spec)[None])[0]
    return TimeBlock(spec.params, tuple(int(v) for v in vs))


def ffft_forward(block: TimeBlock) -> SpectrumBlock:
    """V_k = sum_i v_i zeta^(ik)."""
    arr = forward_batch(block.params, Kind.FOURIER, np.array([block.symbols]))[0]
    return SpectrumBlock(block.params, Kind.FOURIER, block.params.ring.from_array(arr))


def ffft_inverse(spec: SpectrumBlock) -> TimeBlock:
    """v_i = (1/N) sum_k V_k zeta^(-ik)."""
    vs = inverse_batch(spec.params, Kind.FOURIER, spectrum_to_array(spec)[None])[0]
    return TimeBlock(spec.params, tuple(int(v) for v in vs))


# ---------------------------------------------------------------------------
# conjugacy structure
# ---------------------------------------------------------------------------

def sigma_index(params: SystemParams, kind, k: int) -> int:
    """Index map whose orbits are the cyclotomic cosets: pk or -pk mod N."""
    return coset_table(params.N, params.p, kind).step * k % params.N


def sigma_matrix(params: SystemParams, kind: Kind) -> np.ndarray:
    """(2m, 2m) matrix, on stacked (re, im) coefficients, of the value map paired with
    sigma_index on spectra of ground-field blocks: z.frobenius() for Fourier,
    z.conj_frobenius() for Hartley."""
    Fm = frobenius_matrix(params.field)
    m, p = params.m, params.p
    out = np.zeros((2 * m, 2 * m), dtype=np.int64)
    out[:m, :m] = Fm
    # the im part maps to b^p (Fourier, j^p = j for p = 1 mod 4) or -b^p
    out[m:, m:] = Fm if Kind(kind) is Kind.FOURIER and p % 4 == 1 else (-Fm) % p
    return out

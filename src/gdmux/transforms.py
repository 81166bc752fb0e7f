"""Finite-field Hartley and Fourier transforms, forward and inverse, as batch maps.

forward_batch takes rows of N symbols of GF(p) to spectra in GI(p^m)^N:

    Fourier:  V_k = sum_i v_i zeta^(ik)
    Hartley:  V_k = sum_i v_i cas_k(i)

Every batch map takes an integer array of any width and returns uint8:
in the declared scope (odd p <= 251) every symbol and coefficient fits
in a byte. A spectrum batch is (F, N, 2, m), axis 2 re/im and axis 3
the GF(p) coefficients.
GaloisRing.from_array and to_array convert such arrays to GaloisInt
values and back, for printing or scalar checks; there is no per-value
copy of the maps.

inverse_batch carries the 1/N normalization forced by exact round-tripping; the
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
at the coset leaders (n = 2m*nu coefficients per frame), and the stacked
powers of the conjugacy map sigma. G has rank N, so N of its columns
carry the information: an information set I with G_I invertible. The
other columns are either identically zero, or "rest" columns with
G_rest = G_I @ C. The design keeps the column order perm = (I, rest,
zero) and W = [D_I | C] (N, N + r), where D_I = G_I^-1 (mod p). Every
batch map is a short composition of four private kernels on it:
_mux (L = v @ G), _demux (v = L_I @ D_I, with the check L_rest ==
L_I @ C and the zero test L_zero == 0, both in one product L_I @ W),
_expand (the orbit walk V[k] = sigma^t @ V[leader]: one product of the
leaders with the design's walk matrix, every sigma^t side by side, then
one take of each index's step at its coset and place t, read off the
flat CosetTable.walk_index) and _orbit_error (the closure check
sigma^len(orbit) @ leader == leader, len(orbit) read off
CosetTable.lengths, with no spectrum expanded).
For leaders in [0, p) the check and the zero test hold exactly when L
is in the row space of G, i.e. exactly for the frames mux could have
produced, and then v @ G == L. A frame costs N(N + r) multiply-adds,
where a left inverse and a re-encode cost 2nN. inverse_batch accepts a
spectrum S exactly when, with L = S at the leaders, L passes the check
and _expand(L) == S: then forward(v) = _expand(v @ G) = S, and
otherwise forward(v) differs from S at a leader or _expand(L) does
elsewhere.

Exactness. Each kernel is a BLAS product of integers in [0, p) whose
sums stay below 2mN(p-1)^2, and mod_p reduces such sums exactly in the
dtype of G. A design is float32 when 2mN(p-1)^2 < 2^24 and float64
otherwise; the bound is below 2^52 for every p <= MAX_PRIME and p^m <=
MAX_FIELD_SIZE (tests/test_pipeline.py checks the extremes of both).
Symbols and spectrum entries are reduced mod p first; demux_batch and
reconstruct_batch refuse leaders outside [0, p), which never close their
orbits.

Checked once, at the edge: each public batch map forms its Kind in
design() and checks its input's shape and dtype (_frames) and range
(in_range) once; the kernels trust what they are given. pipeline's
mux_frames and demux_frames run _mux and _demux_or_raise on rows the
CLI's parse has checked.

validate_system reads the coset table alone and refuses a design whose size
bound exceeds DESIGN_BUDGET_BYTES. design(), which only the batch maps and
the CLI's frame maps call, runs it, then compiles these arrays once per
(params, Kind(kind)): every spelling of a kind is one cache entry. It keeps
the most recent DESIGN_CACHE_SIZE designs.

A design is compiled by array operations on (..., m) coefficient
vectors, with no GaloisInt arithmetic:

  * ExtField.x_power_matrices holds P, the m matrices of multiplication
    by x^j (j < m) read off the reduced powers of x; P[1] is the
    companion matrix. Multiplication by any batch of elements is
    einsum(a, P) mod p, and by a GI(p^m) value re + j im it is the block
    matrix [[A, -B], [B, A]] of those.
  * The kernel is an (N, 2, m) array: zeta^t for Fourier, cas(t) for
    Hartley (trig.cas_coeffs), both from the powers of zeta that
    fields.zeta_powers reads off the rows of the design's root search.
    G is gathered from it, one row of it per (i, coset).
  * sigma is block diagonal: the Frobenius matrix F on re, and F or -F on
    im. All cosets walk the same powers sigma^t: a design holds them, up
    to the longest orbit, side by side in one walk matrix, read off
    ExtField.frobenius_powers.
  * I comes from one batched row reduction mod p. The cosets of k and -k
    form a group of d indices; the column blocks of G of different
    groups are independent, and the first d rows of a block are a basis
    of its rows. Reducing the first max(d) rows of every group at once,
    with the identity beside them, gives the pivots (I), E with
    G = G_I @ E, and T with E = T @ (those rows). Then C = E_rest, and a
    group's rows of D_I are T times the first rows of the projection
    onto the group's frequencies: a circulant over GF(p) whose first
    row is read off G with the field's trace forms
    (ExtField.trace_forms). They are formed a few groups at a time;
    neither a left inverse of G nor an inverse transform is built.

No dense matrix is part of a design, and the library builds none: the
inverse is D_I. _forward_flat (2mN x N) is the reference tests compare
forward_batch against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional

import numpy as np

from .cosets import CosetTable, Kind, coset_table
from .errors import InconsistentFrame, NotGroundField, UnsupportedParams
from .fields import SystemParams, zeta_powers
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


# ---------------------------------------------------------------------------
# coefficient-array kernels
# ---------------------------------------------------------------------------
# Layout: a spectrum batch is a uint8 array (F, N, 2, m); axis 2 is re/im,
# axis 3 the GF(p) coefficients. Flattened per-block length is 2*m*N.

def _kernel_coeffs(params: SystemParams, kind: Kind) -> np.ndarray:
    """(N, 2, m) transform kernel by argument t = i*k mod N: cas(t) or zeta^t."""
    if kind == Kind.HARTLEY:
        return cas_coeffs(params)
    ker = np.zeros((params.N, 2, params.m), dtype=np.int64)
    ker[:, 0] = zeta_powers(params)
    return ker


def _forward_flat(params: SystemParams, kind) -> np.ndarray:
    """(2mN, N) integer matrix: spectrum coefficients = M @ symbols (mod p); tests only."""
    N, w = params.N, 2 * params.m
    ker = _kernel_coeffs(params, Kind(kind)).reshape(N, w)
    n = np.arange(N)
    # flat[k, a, i] = ker[i*k mod N, a], gathered straight into the final layout
    return ker[(np.outer(n, n) % N)[:, None, :], np.arange(w)[:, None]].reshape(N * w, N)


# ---------------------------------------------------------------------------
# compiled designs
# ---------------------------------------------------------------------------

DESIGN_CACHE_SIZE = 8             # compiled designs kept, least recently used evicted
DESIGN_BUDGET_BYTES = 256 << 20   # largest compiled design; bigger ones are refused


@dataclass(frozen=True, eq=False)
class Design:
    """Everything the batch maps need for one (params, kind), compiled once.

    G (N, n), with n = 2m*nu coefficients per frame, is the transform
    restricted to the coset leaders: mux is v @ G. Its rank is N, and perm
    (n,) orders its columns as (I, rest, zero): an information set
    I of N columns with G_I invertible, the other nonzero columns, and
    the columns of G that are identically zero. W = [D_I | C] (N, N + r),
    r = len(rest), holds D_I = G_I^-1 (mod p), the library's only
    inverse, and C = D_I @ G_rest, so that G_rest = G_I @ C: a leader row
    L in [0, p) is one mux produced exactly when L_rest == L_I @ C and
    L_zero == 0, and then its symbols are L_I @ D_I. G, W and walk are
    float so that BLAS applies them: float32 when 2mN(p-1)^2 < 2^24
    (leader_dtype), float64 otherwise. walk (2m, (L + 1) 2m) holds
    sigma^t for t = 0..L, L the longest orbit, transposed side by side:
    every coset walks the same powers, and leader @ walk is the leader's
    whole walk, step t in columns t*2m to t*2m + 2m - 1. sigma_powers
    (L + 1, 2m, 2m) reads the same array as the stack of sigma^t. The
    coset table is the design's only record of its orbits: position k
    takes sigma^t @ leader_c at its coset c = coset_of[k] and place
    t = place_of[k], and coset c closes at t = lengths[c]. The arrays are
    read-only and shared.
    """

    params: SystemParams
    table: CosetTable
    G: np.ndarray
    W: np.ndarray
    perm: np.ndarray
    walk: np.ndarray

    @property
    def sigma_powers(self) -> np.ndarray:
        """(L + 1, 2m, 2m) read-only view of walk: sigma^t for t = 0..L."""
        w = len(self.walk)
        return self.walk.reshape(w, -1, w).transpose(1, 2, 0)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.G, self.W, self.perm, self.walk))


def leader_dtype(p: int, m: int, N: int) -> type:
    """The float dtype of G, W and walk: float32 when every product sum, below
    2mN(p-1)^2, is below 2^24 and so exact in it, else float64."""
    return np.float32 if 2 * m * N * (p - 1) ** 2 < 1 << 24 else np.float64


def design_nbytes(p: int, m: int, N: int, nu: int, longest: int) -> int:
    """A bound on Design.nbytes of a design with nu cosets, from the array shapes alone.

    G has N rows of n = 2m*nu entries of leader_dtype, 4 or 8 bytes, and W
    at most as many (N + r <= n); perm holds n intp indices, and
    walk longest + 1 matrices of size (2m, 2m) in leader_dtype,
    longest <= 2m being the longest orbit. The orbit layout is the coset
    table's, which the design shares and does not count. Design.nbytes
    is the bound less N entries per zero column of G (there are at least
    2m - 1: coset 0's value lies in GF(p)). It grows as m*nu*N.
    """
    w = 2 * m
    entry = np.dtype(leader_dtype(p, m, N)).itemsize
    return (2 * N * w * nu + (longest + 1) * w * w) * entry + 8 * w * nu


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _sigma_powers(params: SystemParams, kind: Kind, longest: int) -> np.ndarray:
    """(longest + 1, 2m, 2m): sigma^t for t = 0..longest. sigma is block diagonal: the
    Frobenius matrix F on re, and F or -F on im (sigma_matrix); so sigma^t holds F^t, read
    off ExtField.frobenius_powers (F^m = 1), and (+-1)^t F^t."""
    m, p = params.m, params.p
    t = np.arange(longest + 1)
    F = params.field.frobenius_powers[t % m]
    # the im part maps to b^p (Fourier, j^p = j for p = 1 mod 4) or -b^p
    sign = 1 if kind == Kind.FOURIER and p % 4 == 1 else -1
    out = np.zeros((longest + 1, 2 * m, 2 * m), dtype=np.int64)
    out[:, :m, :m] = F
    out[:, m:, m:] = F * (sign ** t % p)[:, None, None] % p
    return out


def _row_reduce(B: np.ndarray, p: int, c: int) -> np.ndarray:
    """Reduce each matrix B[:, i] of the integer batch B (k, g, c + k), entries in [0, p), in place
    to reduced row echelon form mod p, one row at a time, with pivots in the first c columns,
    and return the (k, g) pivot columns. The pivot of a row is its first nonzero entry there,
    which is 1; a row that depends on the rows above it reduces to zero, and its pivot reads 0.
    With B[:, :, c:] the identity, it ends as T with T @ B_0 = B, B_0 the batch as given.
    B's dtype must hold -(p - 1)^2."""
    # the inverse of each residue, 0 for 0
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int32)
    at = np.arange(B.shape[1])
    pivots = []
    for r in range(len(B)):
        pivots.append((B[r, :, :c] != 0).argmax(axis=1))
        col = B[:, at, pivots[-1]]                   # column 0 of a zero row, which stays zero
        row = B[r] * inverse[col[r], None] % p
        col[r] -= 1                                  # row r becomes B[r] - (col[r] - 1) row
        B -= col[:, :, None] * row
        B %= p
    return np.array(pivots)


def _information_set(params: SystemParams, table: CosetTable,
                     G: np.ndarray) -> tuple[np.ndarray, ...]:
    """W = [D_I | C] (N, N + r) in G's dtype and perm = (I, rest, zero) (n,) of G.

    The cosets of k and -k form one group (one coset when -k is in k's)
    of d_g indices, K_g = coset(k) u coset(-k). The column blocks of G of
    different groups have independent row spaces whose ranks sum to N.
    Row i of group g's block is a GF(p)-linear image of (z^i, z^-i),
    z = zeta^k, a sequence of linear recurrence order d_g, so rows
    0..d_g - 1 span the block; as the d_g sum to N, they are a basis.
    One batched row reduction of rows 0..k - 1, k = max(d_g), group by
    group and with the identity beside them, gives the reduced rows
    E_g = T_g @ B_g (B_g those rows of the block), nonzero in rows
    0..d_g - 1, and their pivot columns, which make up I, with
    G = G_I @ E and E block diagonal. So C = E_rest, and
    D_I = G_I^-1 = E @ D for any left inverse D of G. For D_g, the rows
    of the transform's inverse that read group g's leaders, B_g @ D_g is
    rows 0..k - 1 of P_g, the projection onto the frequencies K_g: so
    group g's rows of D_I are T_g @ P_g[:k]. P_g[i, i'] = r_g(i' - i)
    with r_g(u) = (1/N) sum_(k in K_g) zeta^(uk), a value of GF(p); as
    K_g = -K_g, the sum is also that of the re part of the kernel at uk.
    Over one orbit, that re part walks by the Frobenius map, so its sum
    is the trace form of the orbit's length (ExtField.trace_forms)
    applied to the re part at u times the leader, G's entries in row u.
    T_g @ P_g is taken a few groups at a time, about 2^18 entries of P
    each.
    """
    N, w, p, nu = params.N, 2 * params.m, params.p, table.nu
    leaders, lengths, n = table.leaders, table.lengths, nu * w
    partner = table.coset_of[-leaders % N]
    first = (np.arange(nu) <= partner).nonzero()[0]
    pairs = np.array([first, partner[first]]).T                       # (g, 2): the group's cosets
    single = pairs[:, 0] == pairs[:, 1]
    pairs[single, 1] = nu                                             # coset nu: none
    sizes = lengths[first] * (2 - single)                             # d_g: coset(-k) = -coset(k)
    # columns of G of each group; coset nu reads w zero columns, n..n + w - 1
    cols = (pairs[:, :, None] * w + np.arange(w)).reshape(len(pairs), 2 * w)
    k = sizes.max()
    top = np.zeros((k, n + w), dtype=np.int32)
    top[:, :n] = G[:k]
    used = (top != 0).any(axis=0)[cols]   # a column of G is zero where it is zero in rows 0..k - 1
    B = np.concatenate([top[:, cols], np.eye(k, dtype=np.int32)[:, None].repeat(len(cols), axis=1)],
                       axis=2)                                        # (k, g, 2w + k)
    pivots = _row_reduce(B, p, 2 * w)
    # row of B of each pivot; the pivot rows of a group by pivot column are its rows of W
    ri, gi = (np.arange(k)[:, None] < sizes).nonzero()
    row_of = np.full(used.shape, -1)
    row_of[gi, pivots[ri, gi]] = ri
    in_I = row_of >= 0
    gi, a = in_I.nonzero()                                            # of each row of W
    ri = row_of[gi, a]
    rest, zero = used & ~in_I, ~used & (cols < n)
    r = int(np.count_nonzero(rest))
    W = np.zeros((N, N + r), dtype=G.dtype)
    # C: row j of W is row ri[j] of B, with its entry at a rest column of
    # its group in column N + (the column's place in rest)
    place = rest.cumsum().reshape(rest.shape) + (N - 1)
    j, a = rest[gi].nonzero()
    W[j, place[gi[j], a]] = B[ri[j], gi[j], a]
    # D_I: r_g(u) for every group, then T_g @ P_g[:k] a few groups at a time
    trace = params.field.trace_forms[lengths - 1] * pow(N, -1, p) % p   # (nu, m)
    by_coset = np.zeros((nu + 1, N), dtype=G.dtype)                   # and coset nu, none
    np.einsum("ucm,cm->cu", G.reshape(N, nu, 2, -1)[:, :, 0], trace.astype(G.dtype),
              out=by_coset[:nu])
    rho = by_coset[pairs[:, 0]]
    rho += by_coset[pairs[:, 1]]
    del by_coset                       # freed before mod_p's temporaries, at the largest N
    rho = mod_p(rho, p)                                               # (g, N): r_g
    T = B[:, :, 2 * w:].astype(G.dtype).transpose(1, 0, 2)            # (g, k, k)
    shift = np.arange(N) - np.arange(k)[:, None]                      # (k, N): i' - i, read mod N
    step = max(1, (1 << 18) // (k * N))
    bounds = gi.searchsorted(np.arange(0, len(pairs) + step, step))  # rows of W, by chunk
    for c, lo in enumerate(range(0, len(pairs), step)):
        rows = slice(bounds[c], bounds[c + 1])
        TP = T[lo:lo + step] @ rho[lo:lo + step][:, shift]            # (groups, k, N)
        W[rows, :N] = mod_p(TP[gi[rows] - lo, ri[rows]], p)
    return W, np.concatenate([cols[in_I], cols[rest], cols[zero]])


def validate_system(params: SystemParams, kind) -> CosetTable:
    """The coset table of (params, kind), read alone: nothing is compiled. UnsupportedParams when
    design_nbytes exceeds DESIGN_BUDGET_BYTES. Carrier orthogonality and spectrum conjugacy hold
    for every valid (p, m, N) and are proved by the test suite, not re-checked here."""
    table = coset_table(params.N, params.p, kind)
    size = design_nbytes(params.p, params.m, params.N, table.nu, table.longest)
    if size > DESIGN_BUDGET_BYTES:
        raise UnsupportedParams(
            f"{params}/{table.kind}: compiled design needs {size / 2**20:.1f} MiB, "
            f"over the {DESIGN_BUDGET_BYTES / 2**20:.0f} MiB budget")
    return table


def _kind_first(cache):
    """cache, under its name, keyed by Kind(kind); a Kind or its value is already that key."""
    keys = frozenset(Kind)      # equal to their values, with the same hash
    keyed = wraps(cache)(lambda params, kind: cache(params, kind if kind in keys else Kind(kind)))
    keyed.cache_info, keyed.cache_clear = cache.cache_info, cache.cache_clear
    return keyed


@_kind_first
@lru_cache(maxsize=DESIGN_CACHE_SIZE)
def design(params: SystemParams, kind: Kind) -> Design:
    """The compiled design of (params, kind); raises UnsupportedParams, through validate_system,
    before allocating any matrix."""
    table = validate_system(params, kind)
    N, p = params.N, params.p
    # G[i, (c, a)] = ker[i * leader_c, a]
    w, dt = 2 * params.m, leader_dtype(p, params.m, N)
    ker = _kernel_coeffs(params, table.kind)
    args = np.arange(N)[:, None] * table.leaders % N                  # (N, nu): i * leader
    G = ker.reshape(N, w).astype(dt)[args].reshape(N, -1)
    W, perm = _information_set(params, table, G)
    # walk[a, t*w + b] = sigma^t[b, a]
    walk = _sigma_powers(params, table.kind, table.longest).transpose(2, 0, 1).astype(dt, order="C")
    return Design(params=params, table=table, G=_readonly(G), W=_readonly(W), perm=_readonly(perm),
                  walk=_readonly(walk.reshape(w, -1)))


# ---------------------------------------------------------------------------
# the leader-space core and the batch maps
# ---------------------------------------------------------------------------

def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, exactly, for a float array of integers in [0, 2^24) (float32) or
    [0, 2^52) (float64), in x's dtype.

    Computes x - p*floor(x/p) on one temporary. IEEE division is
    correctly rounded, with relative error at most u = 2^-24 (float32)
    or 2^-53 (float64). With x = qp + r, 0 < r < p, x/p lies at least
    1/p below q + 1, and its rounding error is at most u*x/p < 1/p when
    x < 2^24 in float32, or < 1/(2p) when x < 2^52 in float64; rounding
    is monotone and q is representable, so floor gives q. For r = 0, x/p
    = q exactly. The rest is exact integer arithmetic below x. It is all
    SIMD float work: no integer division and no libm remainder call.
    """
    p = np.array(p, dtype=x.dtype)      # 0-d: spares two scalar conversions, which show on small x
    q = x / p
    np.floor(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def in_range(a: np.ndarray, p: int) -> bool:
    """Whether every entry of the integer array a lies in [0, p), read in a's own width."""
    if a.dtype.kind == "i":
        if a.itemsize == 1 and a.min(initial=0) < 0:    # as uint8, -128 reads 128 < 251
            return False
        a = a.view(f"u{a.itemsize}")    # a negative entry reads >= 2^15 > p from 16 bits up
    return bool(a.max(initial=0) < p)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """The integer array a reduced mod p, or a itself when its entries lie in [0, p): unsigned
    input in its own dtype, which holds p <= 251, signed input in int64 (NumPy refuses
    int8 % 251)."""
    if in_range(a, p):
        return a
    return (a if a.dtype.kind == "u" else a.astype(np.int64, copy=False)) % p


def _frames(a, shape: tuple[int, ...], what: str) -> tuple[np.ndarray, bool]:
    """a as rows (F, prod(shape)) in its own dtype, and whether a was one item, not a batch.

    a is one item of the given shape or a batch (F,) + shape of them; any
    other array, or one of a dtype other than (unsigned) integer, raises
    ValueError ("expected {shape[0]} {what}, ...").
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iu":    # no silent truncation of 1.7 to 1, nor parsing of "3"
        raise ValueError(f"expected {shape[0]} integer {what}, got an array of dtype {a.dtype}")
    single = a.ndim == len(shape)
    if a.shape[not single:] != shape:
        raise ValueError(f"expected {shape[0]} {what}, got an array of shape {a.shape}")
    # a batch of rows is returned as it is: the mux path then costs no reshape
    return (a if a.ndim == 2 and not single else a.reshape(-1, math.prod(shape))), single


def _mux(d: Design, vs: np.ndarray) -> np.ndarray:
    """Leader rows (F, n) of symbol rows (F, N) in [0, p), both in G's dtype: v @ G."""
    return mod_p(vs @ d.G, d.params.p)


def _demux(d: Design, rows: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(v, bad) of integer leader rows (F, n) in [0, p): v = L_I @ D_I in G's dtype, and bad
    None when every frame passes the check L_rest == L_I @ C and L_zero == 0, true exactly
    for the frames mux could have produced, else the (F,) frames that fail it."""
    N, r = d.params.N, d.W.shape[1] - d.params.N
    L = rows.take(d.perm, axis=1).astype(d.G.dtype)    # (I, rest, zero), gathered in rows' dtype
    out = mod_p(L[:, :N] @ d.W, d.params.p)
    vs, check, rest, zero = out[:, :N], out[:, N:], L[:, N:N + r], L[:, N + r:]
    if (check == rest).all() and not zero.any():
        return vs, None
    return vs, (check != rest).any(axis=1) | zero.any(axis=1)


def _expand(d: Design, L: np.ndarray) -> np.ndarray:
    """uint8 spectra (F, N, 2, m) of leader rows L (F, n) in [0, p), in G's dtype: the orbit
    walk, one product with the walk matrix, read out at each index's coset and place by one
    take of the table's walk_index."""
    N, m, p, table = d.params.N, d.params.m, d.params.p, d.table
    w = 2 * m
    # row c * (longest + 1) + t of a frame is sigma^t @ leader_c; each sum has 2m terms below p^2
    steps = mod_p(L.reshape(-1, w) @ d.walk, p).astype(np.uint8)
    steps = steps.reshape(len(L), table.nu * (table.longest + 1), w)  # -1 fails for no frames
    return steps.take(table.walk_index, axis=1).reshape(len(L), N, 2, m)


def _orbit_error(d: Design, rows: np.ndarray) -> Optional[InconsistentFrame]:
    """The closure check of integer leader rows (F, n), read in their own dtype:
    InconsistentFrame at the first frame, then its first coset, where
    sigma^len(orbit) @ leader != leader, or None. Walked values lie in [0, p), so a leader
    with an entry outside [0, p) never closes."""
    nu, w, p = d.table.nu, 2 * d.params.m, d.params.p
    lead = rows.reshape(len(rows), nu, w).transpose(1, 0, 2)            # (nu, F, 2m)
    closing = d.sigma_powers[d.table.lengths].transpose(0, 2, 1)
    ends = mod_p(_residues(lead, p).astype(d.G.dtype) @ closing, p)
    bad = (ends != lead).any(axis=2)                                    # (nu, F)
    if not bad.any():
        return None
    f, c = np.argwhere(bad.T)[0]
    return InconsistentFrame(
        f"frame {f}: orbit of leader {d.table.leaders[c]} does not close on its value",
        frame_index=int(f))


def _not_ground_field(f: int, p: int) -> NotGroundField:
    """The error for frame f, which no symbol row of GF(p)^N gives."""
    return NotGroundField(f"frame {f}: recovered symbols are not in GF({p})", frame_index=f)


def _demux_or_raise(d: Design, rows: np.ndarray) -> np.ndarray:
    """v of integer leader rows (F, n) in [0, p), in G's dtype. A frame mux could not have
    produced raises InconsistentFrame if some orbit does not close, else NotGroundField; each
    names the first such frame."""
    vs, bad = _demux(d, rows)
    if bad is not None:
        raise _orbit_error(d, rows) or _not_ground_field(int(bad.argmax()), d.params.p)
    return vs


def mux_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Compress symbol rows (F, N) or (N,), taken mod p, to uint8 leader arrays (F, nu, 2, m)."""
    d = design(params, kind)
    vs, _ = _frames(vs, (params.N,), "symbols")
    L = _mux(d, _residues(vs, params.p).astype(d.G.dtype))
    return L.astype(np.uint8).reshape(len(vs), d.table.nu, 2, params.m)


def demux_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """Recover uint8 symbol rows (F, N) or (N,) from leader arrays (F, nu, 2, m) or (nu, 2, m).

    A frame mux could not have produced raises InconsistentFrame if some
    orbit does not close, else NotGroundField; each names the first such frame.
    """
    d = design(params, kind)
    rows, single = _frames(leaders, (d.table.nu, 2, params.m), "leader values")
    if not in_range(rows, params.p):
        raise _orbit_error(d, rows)
    vs = _demux_or_raise(d, rows).astype(np.uint8)
    return vs[0] if single else vs


def reconstruct_batch(params: SystemParams, kind, leaders: np.ndarray) -> np.ndarray:
    """Expand leader arrays (F, nu, 2, m) or (nu, 2, m) to uint8 spectra (F, N, 2, m) or (N, 2, m).

    Raises InconsistentFrame, naming the first frame whose orbits do not all close.
    """
    d = design(params, kind)
    rows, single = _frames(leaders, (d.table.nu, 2, params.m), "leader values")
    error = _orbit_error(d, rows)
    if error is not None:
        raise error
    spectra = _expand(d, rows.astype(d.G.dtype))
    return spectra[0] if single else spectra


def forward_batch(params: SystemParams, kind, vs: np.ndarray) -> np.ndarray:
    """Transform symbol rows (F, N) or (N,), taken mod p, to uint8 spectra (F, N, 2, m)."""
    d = design(params, kind)
    vs, _ = _frames(vs, (params.N,), "symbols")
    return _expand(d, _mux(d, _residues(vs, params.p).astype(d.G.dtype)))


def inverse_batch(params: SystemParams, kind, spectra: np.ndarray) -> np.ndarray:
    """Invert spectra (F, N, 2, m) or (N, 2, m), taken mod p, to uint8 symbol rows (F, N) or (N,).

    Raises NotGroundField at the first spectrum of no symbol row, and
    UnsupportedParams for a design over the budget.
    """
    d = design(params, kind)
    N, m, p = params.N, params.m, params.p
    rows, single = _frames(spectra, (N, 2, m), "spectrum values")
    S = _residues(rows, p).reshape(-1, N, 2, m)
    L = S[:, d.table.leaders].reshape(len(S), len(d.perm))
    vs, bad = _demux(d, L)
    good = (_expand(d, L.astype(d.G.dtype)) == S).all(axis=(1, 2, 3))
    if bad is not None:
        good &= ~bad
    if not good.all():
        raise _not_ground_field(int(good.argmin()), p)
    vs = vs.astype(np.uint8)
    return vs[0] if single else vs


# ---------------------------------------------------------------------------
# conjugacy structure
# ---------------------------------------------------------------------------

def sigma_matrix(params: SystemParams, kind: Kind) -> np.ndarray:
    """(2m, 2m) matrix, on stacked (re, im) coefficients, of the value map paired with
    the coset step k -> CosetTable.step * k on spectra of ground-field blocks:
    z.frobenius() for Fourier, z.conj_frobenius() for Hartley."""
    return _sigma_powers(params, Kind(kind), 1)[1]

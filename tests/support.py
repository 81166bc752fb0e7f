"""Shared parameter sets and reference oracles for the test suite."""

import math
from functools import lru_cache

import numpy as np

from gdmux import (BadLength, CarrierMatrix, CompressedFrame, GaloisInt, GdmError,
                   InconsistentFrame, Kind, NoRationalization, NoSuchRoot, NotGroundField,
                   SystemParams, TimeBlock)
from gdmux.cosets import CosetTable, coset_table, divisors
from gdmux.fields import (MAX_FIELD_SIZE, MAX_PRIME, ExtField, FieldElement, centered, get_field,
                          is_prime, mult_order, poly_is_irreducible)
from gdmux.pipeline import _parse_header, demux_batch, frame_header, leader_array, mux, mux_batch
from gdmux.statsim import AcfEstimate, PsdEstimate, PulseShape, _lag_sums, _resolve_embedding
from gdmux.transforms import _forward_flat, forward_batch, mod_p
from gdmux.trig import rationalize

# desk-scale systems with p^m <= 1000, used for exhaustive property checks
SMALL_SYSTEMS = [
    (3, 1, 2),
    (5, 1, 4),
    (7, 1, 6),
    (7, 1, 3),
    (11, 1, 10),
    (13, 1, 12),
    (3, 2, 8),
    (5, 2, 24),
    (3, 3, 26),
]

# the acceptance trio
ACCEPT_SYSTEMS = [(5, 1, 4), (3, 3, 26), (7, 2, 48)]


def make(p, m, N) -> SystemParams:
    return SystemParams.create(p, m, N)


def design_grid(max_p=60, max_q=400, max_n=60, min_n=2):
    """Every (p, m, N) with odd prime p < max_p, p^m <= max_q, N | p^m - 1, min_n <= N <= max_n."""
    out = []
    for p in range(3, max_p, 2):
        if not is_prime(p):
            continue
        m = 1
        while p ** m <= max_q:
            out += [(p, m, N) for N in range(min_n, max_n + 1) if (p ** m - 1) % N == 0]
            m += 1
    return out


@lru_cache(maxsize=1)
def scope_designs() -> tuple[tuple[int, int, int], ...]:
    """Every (p, m, N) of the declared scope: odd prime p <= MAX_PRIME, p^m <= MAX_FIELD_SIZE,
    N | p^m - 1 and N >= 2."""
    out = []
    for p in range(3, MAX_PRIME + 1, 2):
        if not is_prime(p):
            continue
        m = 1
        while p ** m <= MAX_FIELD_SIZE:
            out += [(p, m, N) for N in divisors(p ** m - 1) if N >= 2]
            m += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# the deterministic searches as canonical-order scans, one scalar power at a time
# ---------------------------------------------------------------------------

def scan_root_of_unity(p, m, n, poly=None) -> FieldElement:
    """The first element of multiplicative order exactly n, scanning GF(p^m) in canonical order."""
    field = get_field(p, m, poly)
    for i in range(1, field.order):
        x = field.from_int(i)
        if x ** n == field.one and mult_order(x) == n:
            return x
    raise NoSuchRoot(f"no element of order {n} in {field}")


def scan_sqrt_of_minus_one(p, m, poly=None):
    """The first x in canonical order with x^2 = -1, or None when p^m = 3 (mod 4)."""
    field = get_field(p, m, poly)
    if field.order % 4 != 1:
        return None
    minus_one = -field.one
    return next((x for x in map(field.from_int, range(field.order)) if x * x == minus_one), None)


def zeta_powers_by_powers(params: SystemParams) -> np.ndarray:
    """(N, m) int64 rows of zeta^0 .. zeta^(N-1), computed from zeta itself by ExtField.powers."""
    return params.field.powers(np.array(params.zeta), params.N)


def other_irreducible(p, m) -> tuple[int, ...]:
    """The last monic irreducible of degree m over GF(p) in canonical order; for m >= 1 and
    p > 2 it is not the default polynomial."""
    for idx in reversed(range(p ** m)):
        cand = tuple(idx // p ** k % p for k in range(m)) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


def rationalize_by_elements(matrix: CarrierMatrix) -> list[list[int]]:
    """The carriers with j := sqrt(-1) substituted, one FieldElement at a time, centered."""
    params = matrix.params
    p = params.p
    s = scan_sqrt_of_minus_one(params.p, params.m, params.poly)
    if s is None:
        raise NoRationalization(
            f"-1 is a non-residue in GF({params.p}^{params.m}); carriers stay two-dimensional")
    out = []
    for row in matrix.rows:
        vals = []
        for z in row.samples:
            v = z.re + s * z.im
            if any(v.coeffs[1:]):
                raise NoRationalization(
                    "substituted carrier value leaves the prime field; "
                    "no integer Walsh form exists for these parameters")
            c = v.coeffs[0]
            vals.append(c - p if c > (p - 1) // 2 else c)
        out.append(vals)
    return out


def kernel_definition(params: SystemParams, kind, inverse: bool = False) -> tuple[GaloisInt, ...]:
    """Transform kernel by argument t = i*k mod N, one GaloisInt per t.

    Hartley: cas(t) = cos(t) + sin(t) with cos(t) = (zeta^t + zeta^-t) / 2
    and sin(t) = (zeta^t - zeta^-t) / 2j (its own inverse kernel).
    Fourier: zeta^t, or powers of zeta.inverse() for the inverse kernel.
    """
    N, ring = params.N, params.ring
    zeta = params.zeta_elem
    base = zeta.inverse() if inverse and Kind(kind) is Kind.FOURIER else zeta
    pows = [ring.one]
    for _ in range(N - 1):
        pows.append(pows[-1] * base)
    if Kind(kind) is Kind.FOURIER:
        return tuple(pows)
    half, half_j = ring.element(2).inverse(), (ring.element(2) * ring.j).inverse()
    rev = [pows[(N - t) % N] for t in range(N)]
    return tuple((pows[t] + rev[t]) * half + (pows[t] - rev[t]) * half_j for t in range(N))


def forward_definition(params: SystemParams, kind, rows) -> list[tuple[GaloisInt, ...]]:
    """Spectra of symbol rows straight from the definition, one GaloisInt sum per bin.

    Hartley: V_k = sum_i v_i cas(i, k); Fourier: V_k = sum_i v_i zeta^(ik),
    with the kernel from kernel_definition, so the oracle shares no code
    with the batch kernels or trig.
    """
    N, ring = params.N, params.ring
    carriers = kernel_definition(params, kind)
    out = []
    for row in rows:
        spectrum = []
        for k in range(N):
            acc = ring.zero
            for i, v in enumerate(row):
                if v:
                    acc = acc + carriers[(i * k) % N] * int(v)
            spectrum.append(acc)
        out.append(tuple(spectrum))
    return out


# ---------------------------------------------------------------------------
# object-based builders of the compiled design's arrays, one element at a time
# ---------------------------------------------------------------------------

def mul_matrix(a: FieldElement) -> np.ndarray:
    """(m, m) matrix of multiplication by a: column t is a * x^t."""
    field, m = a.field, a.field.m
    cols = [field.mul_coeffs(a.coeffs, tuple(int(s == t) for s in range(m))) for t in range(m)]
    return np.array(cols, dtype=np.int64).T


def gi_mul_matrix(z: GaloisInt) -> np.ndarray:
    """(2m, 2m) matrix of multiplication by z on stacked (re, im) coefficients."""
    a, b, p = mul_matrix(z.re), mul_matrix(z.im), z.field.p
    return np.block([[a, (-b) % p], [b % p, a]]) % p


def frobenius_matrix(field: ExtField) -> np.ndarray:
    """(m, m) matrix of a -> a^p: column t is (x^t)^p."""
    m = field.m
    cols = [(field.element(tuple(int(s == t) for s in range(m))) ** field.p).coeffs
            for t in range(m)]
    return np.array(cols, dtype=np.int64).T


def sigma_matrix(params: SystemParams, kind) -> np.ndarray:
    """(2m, 2m) matrix of sigma_value: [[F, 0], [0, +-F]]."""
    Fm, p = frobenius_matrix(params.field), params.p
    zero = np.zeros_like(Fm)
    lower = Fm if Kind(kind) is Kind.FOURIER and p % 4 == 1 else (-Fm) % p
    return np.block([[Fm, zero], [zero, lower]]) % p


def orbits(N: int, p: int, kind) -> tuple[tuple[int, ...], ...]:
    """The orbits of k -> step * k mod N (step = p for Fourier, -p for Hartley), each in walk
    order from its smallest member, sorted by it: the brute-force reference for CosetTable,
    walked one index at a time."""
    step = (p if Kind(kind) is Kind.FOURIER else -p) % N
    seen = [False] * N
    out = []
    for s in range(N):
        if seen[s]:
            continue
        orbit, k = [], s
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = step * k % N
        out.append(tuple(orbit))
    return tuple(out)


def orbit_maps(table: CosetTable, sigma: np.ndarray, p: int):
    """Per coset: (orbit index array, sigma^t matrices for t = 0..len(orbit))."""
    w = sigma.shape[0]
    out = []
    for orbit in table.cosets:
        maps = np.empty((len(orbit) + 1, w, w), dtype=np.int64)
        maps[0] = np.eye(w, dtype=np.int64)
        for t in range(1, len(orbit) + 1):
            maps[t] = (sigma @ maps[t - 1]) % p
        out.append((np.array(orbit, dtype=np.int64), maps))
    return out


def inverse_blocks(params: SystemParams, kind) -> np.ndarray:
    """(N, 2m, 2m): multiplication by (1/N) times the inverse kernel, by argument t."""
    inv_n = params.field.scalar(params.N).inverse()
    return np.stack([gi_mul_matrix(z * inv_n)
                     for z in kernel_definition(params, kind, inverse=True)])


def leader_inverse(params: SystemParams, blocks: np.ndarray, maps) -> np.ndarray:
    """D (n, N) one coset at a time from inverse_blocks and orbit_maps:
    sum_t row0(B[i * orbit[t]]) @ sigma^t."""
    N, p = params.N, params.p
    row0 = blocks[:, 0, :]
    i = np.arange(N)
    return np.concatenate([
        np.einsum("tib,tba->ai", row0[np.outer(orbit, i) % N], sigma_t[:len(orbit)]) % p
        for orbit, sigma_t in maps])


def information_set(d):
    """(I, rest, zero, D_I, C) of a compiled design, read off its perm and W = [D_I | C]."""
    N = d.params.N
    r = d.W.shape[1] - N
    perm = d.perm.astype(np.intp)
    return perm[:N], perm[N:N + r], perm[N + r:], d.W[:, :N], d.W[:, N:]


def rank_mod_p(M, p: int) -> int:
    """Rank over GF(p) of an integer matrix, one pivot column at a time."""
    M = np.array(M, dtype=np.int64) % p
    rank = 0
    for c in range(M.shape[1]):
        below = np.flatnonzero(M[rank:, c])
        if not len(below):
            continue
        M[[rank, rank + below[0]]] = M[[rank + below[0], rank]]
        M[rank] = M[rank] * pow(int(M[rank, c]), -1, p) % p
        others = np.arange(len(M)) != rank
        M[others] = (M[others] - np.outer(M[others, c], M[rank])) % p
        rank += 1
        if rank == len(M):
            break
    return rank


def coset_groups(table: CosetTable) -> list[list[int]]:
    """The cosets of k and -k together, as coset indices: one list of one or two per group."""
    index = {k: c for c, orbit in enumerate(table.cosets) for k in orbit}
    groups: dict[int, list[int]] = {}
    for c, lead in enumerate(table.leaders):
        groups.setdefault(min(c, index[(-lead) % table.N]), []).append(c)
    return list(groups.values())


def leader_matrices(params: SystemParams, kind):
    """(G, D): the transform at the coset leaders (N, n), read off the dense forward matrix,
    and the left inverse leader_inverse builds one coset at a time, G @ D = I (mod p)."""
    N, w = params.N, 2 * params.m
    table = coset_table(N, params.p, kind)
    G = _forward_flat(params, kind).reshape(N, w, N)[list(table.leaders)].reshape(-1, N).T
    maps = orbit_maps(table, sigma_matrix(params, kind), params.p)
    return G, leader_inverse(params, inverse_blocks(params, kind), maps)


def reencode_demux(params: SystemParams, kind, leaders) -> np.ndarray:
    """demux_batch through the dense left inverse and the re-encode check: v = L @ D, accepted
    where v @ G == L (mod p). A refused batch raises the closure error of reconstruct_walk if
    some orbit does not close, else NotGroundField at the first frame that does not re-encode."""
    G, D = leader_matrices(params, kind)
    p = params.p
    leaders = np.asarray(leaders, dtype=np.int64)
    L = leaders.reshape(-1, G.shape[1])
    vs = L @ D % p
    same = (vs @ G % p == L).all(axis=1)
    if not same.all():
        reconstruct_walk(params, kind, leaders)
        f = int(np.argmin(same))
        raise NotGroundField(f"frame {f}: recovered symbols are not in GF({p})", frame_index=f)
    return vs[0] if leaders.ndim == 3 else vs


def reencode_inverse(params: SystemParams, kind, spectra) -> np.ndarray:
    """inverse_batch through the re-encode oracle: a spectrum is accepted where its leader
    values re-encode and their orbit walk gives the spectrum back, and the first other one
    raises NotGroundField."""
    table = coset_table(params.N, params.p, kind)
    spectra = np.asarray(spectra, dtype=np.int64) % params.p
    S = spectra.reshape((-1,) + spectra.shape[-3:])
    out = []
    for f, spectrum in enumerate(S):
        leaders = spectrum[list(table.leaders)]
        try:
            vs = reencode_demux(params, kind, leaders)
            good = np.array_equal(reconstruct_walk(params, kind, leaders), spectrum)
        except GdmError:
            good = False
        if not good:
            raise NotGroundField(f"frame {f}: recovered symbols are not in GF({params.p})",
                                 frame_index=f)
        out.append(vs)
    vs = np.array(out, dtype=np.int64).reshape(len(S), params.N)
    return vs[0] if spectra.ndim == 3 else vs


def outcome_of(exc: GdmError):
    """(class name, message, frame_index) of an error, to compare two paths' errors."""
    return (type(exc).__name__, str(exc), exc.frame_index)


def outcome(fn, *args):
    """("ok", values as lists) of fn(*args), or outcome_of the GdmError it raises."""
    try:
        return ("ok", fn(*args).tolist())
    except GdmError as exc:
        return outcome_of(exc)


def inverse_matrix(params: SystemParams, kind) -> np.ndarray:
    """(2mN, 2mN) integer matrix of the inverse transform, the 1/N factor included.

    Block (i, k) is the (2m, 2m) inverse-kernel block at argument i*k mod N.
    """
    blocks = inverse_blocks(params, kind)
    N, w = blocks.shape[0], blocks.shape[1]
    n, r = np.arange(N), np.arange(w)
    # big[i, a, k, b] = blocks[i*k mod N, a, b], gathered straight into the final layout
    big = blocks[(np.outer(n, n) % N)[:, None, :, None], r[:, None, None], r]
    return big.reshape(N * w, N * w)


def dense_inverse(params: SystemParams, kind, spectra) -> np.ndarray:
    """Symbol rows (F, N) or (N,) of spectra (F, N, 2, m) or (N, 2, m), through inverse_matrix.

    Raises NotGroundField at the first frame where some recovered value
    has a nonzero imaginary part or nonzero high-degree coefficients.
    """
    N, m, p = params.N, params.m, params.p
    spectra = np.asarray(spectra, dtype=np.int64) % p
    flat = spectra.reshape(-1, N * 2 * m)
    out = (flat @ inverse_matrix(params, kind).T % p).reshape(len(flat), N, 2 * m)
    residue = out[:, :, 1:].any(axis=(1, 2))
    if residue.any():
        f = int(np.argmax(residue))
        raise NotGroundField(f"frame {f}: recovered symbols are not in GF({p})", frame_index=f)
    vs = out[:, :, 0]
    return vs[0] if spectra.ndim == 3 else vs


def reconstruct_walk(params: SystemParams, kind, leaders) -> np.ndarray:
    """reconstruct_batch one coset and one orbit position at a time.

    Sets V[orbit[t]] = sigma^t @ leader along each orbit, with sigma from
    the object-based sigma_matrix, and raises InconsistentFrame at the
    first frame where some orbit does not come back to its leader, naming
    the first such coset of that frame.
    """
    kind = Kind(kind)
    leaders = np.asarray(leaders, dtype=np.int64)
    single = leaders.ndim == 3
    if single:
        leaders = leaders[None]
    F, N, m, p = leaders.shape[0], params.N, params.m, params.p
    out = np.zeros((F, N, 2, m), dtype=np.int64)
    table = coset_table(N, p, kind)
    open_orbits = [[] for _ in range(F)]   # per frame, the leaders of orbits that do not close
    for c, (orbit, sigma_t) in enumerate(orbit_maps(table, sigma_matrix(params, kind), p)):
        lead = leaders[:, c].reshape(F, 2 * m)
        for t, idx in enumerate(orbit):
            out[:, idx] = ((lead @ sigma_t[t].T) % p).reshape(F, 2, m)
        for f in np.flatnonzero((((lead @ sigma_t[len(orbit)].T) % p) != lead).any(axis=1)):
            open_orbits[f].append(orbit[0])
    for f, leaders_of_f in enumerate(open_orbits):
        if leaders_of_f:
            raise InconsistentFrame(
                f"frame {f}: orbit of leader {leaders_of_f[0]} does not close on its value",
                frame_index=f)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# the per-frame wire parser, one leader value and one byte at a time
# ---------------------------------------------------------------------------

def _parse_leaders(data, pos: int, params: SystemParams, kind) -> tuple[CompressedFrame, int]:
    """Read the leader values that follow a checked header at pos."""
    p, m = params.p, params.m
    nu = coset_table(params.N, p, kind).nu
    if len(data) - pos < nu * 2 * m:
        raise BadLength("truncated leader values")
    vals = []
    for _ in range(nu):
        re = data[pos:pos + m]
        im = data[pos + m:pos + 2 * m]
        pos += 2 * m
        if any(c >= p for c in re) or any(c >= p for c in im):
            raise InconsistentFrame(f"coefficient byte >= p = {p}")
        vals.append(GaloisInt(params.field.element(re), params.field.element(im)))
    return CompressedFrame(params, kind, tuple(vals)), pos


def reference_serialize(frame: CompressedFrame) -> bytes:
    """pipeline.serialize one coefficient byte string at a time."""
    out = bytearray(frame_header(frame.params, frame.kind))
    for z in frame.leaders:
        out += bytes(z.re.coeffs)
        out += bytes(z.im.coeffs)
    return bytes(out)


def reference_deserialize(data, expect=None, expect_kind=None) -> CompressedFrame:
    """pipeline.deserialize one leader value at a time."""
    params, kind, pos = _parse_header(data, 0, expect, expect_kind)
    frame, pos = _parse_leaders(data, pos, params, kind)
    if pos != len(data):
        raise BadLength(f"{len(data) - pos} trailing bytes after frame")
    return frame


def reference_iter_frames(data, expect=None, expect_kind=None):
    """pipeline.iter_frames one frame at a time.

    A header whose bytes equal those of the previous accepted frame
    reuses that frame's design and kind instead of being checked again.
    A parse error carries the index of its frame as frame_index.
    """
    pos = 0
    header = None
    index = 0
    while pos < len(data):
        try:
            if header is None or not data.startswith(header, pos):
                params, kind, end = _parse_header(data, pos, expect, expect_kind)
                header = data[pos:end]
            frame, pos = _parse_leaders(data, pos + len(header), params, kind)
        except GdmError as exc:
            exc.frame_index = index
            raise
        yield frame
        index += 1


def cli_mux_oracle(params: SystemParams, kind, text: bytes):
    """`gdmux mux` one line and one frame at a time: (exit code, frames or None, stderr).

    The CLI's own loop before it parsed and muxed whole files in bulk;
    the bulk path must give the same exit code, bytes and message.
    """
    out = bytearray()
    for lineno, line in enumerate(text.decode().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            block = TimeBlock(params, tuple(int(tok) for tok in line.split()))
        except (ValueError, GdmError) as exc:
            return 2, None, f"line {lineno}: {exc}\n"
        out += reference_serialize(mux(block, kind))
    return 0, bytes(out), ""


def cli_demux_oracle(params: SystemParams, kind, data: bytes):
    """`gdmux demux` one frame at a time: (exit code, text or None, stderr)."""
    arrays = []
    index = 0
    try:
        for frame in reference_iter_frames(data, expect=params, expect_kind=kind):
            arrays.append(leader_array(frame))
            index += 1
    except GdmError as exc:
        return 2, None, f"frame {index}: {exc}\n"
    if not arrays:
        return 0, b"", ""
    try:
        vs = demux_batch(params, kind, np.stack(arrays))
    except (InconsistentFrame, NotGroundField) as exc:
        return 2, None, f"error: {exc}\n"
    return 0, ("\n".join(" ".join(str(int(s)) for s in row) for row in vs) + "\n").encode(), ""


def acf_by_lags(stream, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """`statsim.acf_of_stream` one numpy pass per lag: the mean and the standard
    error of prod_j = s[n+j] conj(s[n]) from prod_j itself, for j <= max_lag."""
    stream = np.asarray(stream, dtype=np.complex128)
    vals = np.empty(max_lag + 1, dtype=np.complex128)
    errs = np.empty(max_lag + 1)
    for j in range(max_lag + 1):
        prod = stream[j:] * np.conj(stream[:len(stream) - j])
        vals[j] = prod.mean()
        errs[j] = float(np.std(prod) / math.sqrt(len(prod)))
    return vals, errs


# ---------------------------------------------------------------------------
# the orbit walk by two index arrays, and the statistics by arithmetic on
# every value, in fresh arrays: the references the library's outputs equal
# byte for byte
# ---------------------------------------------------------------------------

def two_array_expand(d, L) -> np.ndarray:
    """`transforms._expand` by a product with the transposed view of sigma_powers, read out
    with the two int32 index arrays coset_of and place_of."""
    N, m, p, table = d.params.N, d.params.m, d.params.p, d.table
    w = 2 * m
    powers = d.sigma_powers.transpose(2, 0, 1).reshape(w, -1)
    steps = mod_p(L.reshape(-1, w) @ powers, p).astype(np.uint8)
    steps = steps.reshape(len(L), table.nu, len(d.sigma_powers), w)
    return steps[:, table.coset_of, table.place_of].reshape(len(L), N, 2, m)


def embed_by_values(params: SystemParams, arr, embedding: str = "auto") -> np.ndarray:
    """`statsim.embed_spectra` by centered's and rationalize's arithmetic on every value."""
    if _resolve_embedding(params, embedding) == "rationalized":
        return rationalize(params, arr).astype(np.complex128)
    return centered(arr[..., 0, 0], params.p) + 1j * centered(arr[..., 1, 0], params.p)


def acf_in_complex(stream, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """`statsim.acf_of_stream` with every stream, real or not, summed in complex128."""
    stream = np.asarray(stream, dtype=np.complex128)
    lags = max_lag + 1
    cnt = len(stream) - np.arange(lags, dtype=np.float64)
    sums = _lag_sums(stream, lags)
    squares = _lag_sums(stream.real ** 2 + stream.imag ** 2, lags)
    spread = np.maximum(cnt * squares - (sums.real ** 2 + sums.imag ** 2), 0.0)
    return sums / cnt, np.sqrt(spread / cnt ** 3)


def galois_acf_by_values(params: SystemParams, kind, frames: int, seed: int,
                         embedding: str = "auto") -> AcfEstimate:
    """`statsim.galois_acf` at max_lag N - 1, embedded by embed_by_values and correlated by
    acf_in_complex, with time_r0 the mean of the centered symbols' squares."""
    mode = _resolve_embedding(params, embedding)
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, params.p, size=(frames, params.N))
    stream = embed_by_values(params, forward_batch(params, kind, vs), mode).reshape(-1)
    vals, errs = acf_in_complex(stream, params.N - 1)
    time_r0 = float((centered(vs, params.p) ** 2).mean())
    return AcfEstimate(lags=np.arange(params.N), values=vals, stderr=errs,
                       r0=float(vals[0].real), time_r0=time_r0, frames=frames, embedding=mode)


def _symbols_by_values(params: SystemParams, kind, frames: int, rng, embedding: str,
                       source: str) -> np.ndarray:
    nu = coset_table(params.N, params.p, kind).nu
    if source == "gaussian":
        n = frames * nu
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
    vs = rng.integers(0, params.p, size=(frames, params.N))
    return embed_by_values(params, mux_batch(params, kind, vs), embedding).reshape(-1)


def psd_by_values(params: SystemParams, kind, *, realizations: int, frames: int,
                  pulse: PulseShape, nfft: int, seed: int, embedding: str = "auto",
                  source: str = "gdm") -> PsdEstimate:
    """`statsim.psd_estimate` with symbols embedded by embed_by_values, a rectangular envelope
    by np.repeat, and fresh arrays for every envelope, FFT and power of every realization."""
    rng = np.random.default_rng(seed)
    fs, spp = pulse.sample_rate, pulse.samples_per_symbol
    nu = coset_table(params.N, params.p, kind).nu
    acc = np.zeros(nfft)
    nseg_total = 0
    for _ in range(realizations):
        symbols = _symbols_by_values(params, kind, frames, rng, embedding, source)
        if pulse.kind == "rectangular":
            env = np.repeat(symbols, spp) * pulse.taps()[0]
        else:
            up = np.zeros(len(symbols) * spp, dtype=np.complex128)
            up[::spp] = symbols
            env = np.convolve(up, pulse.taps())
        theta = int(rng.integers(0, nu * spp))
        env = env[theta:]
        nseg = len(env) // nfft
        segs = env[:nseg * nfft].reshape(nseg, nfft)
        spec = np.fft.fft(segs, axis=1)
        acc += (spec.real ** 2 + spec.imag ** 2).sum(axis=0)
        nseg_total += nseg
    sym = _symbols_by_values(params, kind, min(frames, 4096), rng, embedding, source)
    r0 = float((sym.real ** 2 + sym.imag ** 2).mean())
    psd = np.fft.fftshift(acc) / (nseg_total * nfft * fs)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    tsym = pulse.symbol_duration
    theory = r0 * pulse.spectrum_sq(freqs) / tsym
    main = (np.abs(freqs * tsym) <= 0.75) & (theory > 0)
    scale = float((psd[main] * theory[main]).sum() / (theory[main] ** 2).sum())
    ratio = psd[main] / (scale * theory[main])
    return PsdEstimate(freqs=freqs, power=psd, theory=theory, r0=r0,
                       fitted_scale=scale, main_lobe=main,
                       max_rel_dev=float(np.abs(ratio - 1).max()),
                       ratio_spread=float(np.abs(ratio / ratio.mean() - 1).max()),
                       realizations=realizations, frames=frames, segments=nseg_total)

"""Shared parameter sets and reference oracles for the test suite."""

import math

import numpy as np

from gdmux import (BadLength, CompressedFrame, GaloisInt, GdmError, InconsistentFrame, Kind,
                   NoSuchRoot, NotGroundField, SystemParams, TimeBlock)
from gdmux.cosets import CosetTable, coset_table
from gdmux.fields import ExtField, FieldElement, get_field, is_prime, mult_order
from gdmux.pipeline import _parse_header, demux_batch, frame_header, leader_array, mux

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
    first coset whose orbit does not come back to its leader, naming the
    first frame where it does not.
    """
    kind = Kind(kind)
    leaders = np.asarray(leaders, dtype=np.int64)
    single = leaders.ndim == 3
    if single:
        leaders = leaders[None]
    F, N, m, p = leaders.shape[0], params.N, params.m, params.p
    out = np.zeros((F, N, 2, m), dtype=np.int64)
    table = coset_table(N, p, kind)
    for c, (orbit, sigma_t) in enumerate(orbit_maps(table, sigma_matrix(params, kind), p)):
        lead = leaders[:, c].reshape(F, 2 * m)
        for t, idx in enumerate(orbit):
            out[:, idx] = ((lead @ sigma_t[t].T) % p).reshape(F, 2, m)
        bad = (((lead @ sigma_t[len(orbit)].T) % p) != lead).any(axis=1)
        if bad.any():
            f = int(np.argwhere(bad)[0][0])
            raise InconsistentFrame(
                f"frame {f}: orbit of leader {orbit[0]} does not close on its value",
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
    except GdmError as exc:
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

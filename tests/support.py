"""Shared parameter sets and reference oracles for the test suite."""

import numpy as np

from gdmux import GaloisInt, GdmError, Kind, SystemParams, TimeBlock
from gdmux.fields import is_prime
from gdmux.pipeline import demux_batch, iter_frames, leader_array, mux, serialize

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


def design_grid(max_p=60, max_q=400, max_n=60):
    """Every (p, m, N) with odd prime p < max_p, p^m <= max_q, N | p^m - 1, 2 <= N <= max_n."""
    out = []
    for p in range(3, max_p, 2):
        if not is_prime(p):
            continue
        m = 1
        while p ** m <= max_q:
            out += [(p, m, N) for N in range(2, max_n + 1) if (p ** m - 1) % N == 0]
            m += 1
    return out


def forward_definition(params: SystemParams, kind, rows) -> list[tuple[GaloisInt, ...]]:
    """Spectra of symbol rows straight from the definition, one GaloisInt sum per bin.

    Hartley: V_k = sum_i v_i cas(i, k); Fourier: V_k = sum_i v_i zeta^(ik).
    cas is taken from its definition, cos(t) + sin(t) with
    cos(t) = (zeta^t + zeta^-t) / 2 and sin(t) = (zeta^t - zeta^-t) / 2j,
    so the oracle shares no code with the batch kernels or trig.
    """
    N, ring = params.N, params.ring
    two = ring.element(2)
    carriers = []
    for t in range(N):
        z = ring.element(params.zeta_elem ** t)
        zinv = ring.element(params.zeta_elem ** ((N - t) % N))
        if Kind(kind) is Kind.FOURIER:
            carriers.append(z)
        else:
            carriers.append((z + zinv) / two + (z - zinv) / (two * ring.j))
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
        out += serialize(mux(block, kind))
    return 0, bytes(out), ""


def cli_demux_oracle(params: SystemParams, kind, data: bytes):
    """`gdmux demux` one frame at a time: (exit code, text or None, stderr)."""
    arrays = []
    index = 0
    try:
        for frame in iter_frames(data, expect=params, expect_kind=kind):
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

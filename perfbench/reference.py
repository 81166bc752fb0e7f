"""Independent references the benchmark checks the program against.

Everything here is derived from the definitions in the README, not from
the gdmux code paths under test: cyclotomic orbits are counted directly,
the wire layout is computed from the documented format, and coset-leader
values are recomputed one scalar product at a time in GaloisInt
arithmetic (trig.cas for Hartley, powers of zeta for Fourier).
"""

from __future__ import annotations

import math

# magic "GDM1", u16 p, u8 m, u16 N, u8 kind
FIXED_HEADER = 4 + 2 + 1 + 2 + 1


def odd_primes_below(n: int) -> list[int]:
    return [p for p in range(3, n, 2)
            if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def survey_designs() -> list[tuple[int, int, int]]:
    """Every (p, m, N): odd prime p < 60, p^m <= 400, 2 <= N <= 60, N | p^m - 1,
    followed by the two larger headline designs (3,4,80) and (5,3,124)."""
    out = []
    for p in odd_primes_below(60):
        m = 1
        while p ** m <= 400:
            out += [(p, m, N) for N in range(2, 61) if (p ** m - 1) % N == 0]
            m += 1
    return out + [(3, 4, 80), (5, 3, 124)]


def orbits(N: int, p: int, kind: str) -> list[tuple[int, ...]]:
    """Orbits of k -> pk (fourier) or k -> -pk (hartley) mod N, in walk order
    from their smallest member, sorted by that leader."""
    step = (p if kind == "fourier" else -p) % N
    seen = [False] * N
    out = []
    for lead in range(N):
        if seen[lead]:
            continue
        orbit, k = [], lead
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = (step * k) % N
        out.append(tuple(orbit))
    return out


def nu(N: int, p: int, kind: str) -> int:
    return len(orbits(N, p, kind))


def frame_length(p: int, m: int, N: int, kind: str) -> int:
    """Bytes of one GDM1 frame: header, m polynomial bytes, u16 nu, leaders."""
    return FIXED_HEADER + m + 2 + nu(N, p, kind) * 2 * m


def wire_leaders(frame: bytes, m: int, count: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(re, im) coefficient tuples of the leader values in one frame."""
    pos = FIXED_HEADER + m + 2
    out = []
    for _ in range(count):
        out.append((tuple(frame[pos:pos + m]), tuple(frame[pos + m:pos + 2 * m])))
        pos += 2 * m
    return out


def scalar_leaders(params, kind: str, symbols) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Leader values V_k = sum_i v_i * kernel(i*k), one GaloisInt at a time."""
    from gdmux import trig
    from gdmux.fields import GaloisInt

    N = params.N
    field = params.field
    leaders = [orbit[0] for orbit in orbits(N, params.p, kind)]
    if kind == "fourier":
        pows = [field.one]
        for _ in range(N - 1):
            pows.append(pows[-1] * params.zeta_elem)
    out = []
    for k in leaders:
        acc = params.ring.zero
        for i, v in enumerate(symbols):
            if kind == "hartley":
                term = trig.cas(i, k, params)
            else:
                term = GaloisInt(pows[(i * k) % N], field.zero)
            acc = acc + term * int(v)
        out.append((tuple(acc.re.coeffs), tuple(acc.im.coeffs)))
    return out


class ShapeCounts:
    """Per-frame quantities computed from design shapes, accumulated over frames."""

    def __init__(self):
        self.frames = 0
        self.wire_bytes = 0
        self.info_bits = 0.0
        self.forward_macs = 0
        self.inverse_macs = 0
        self.kept = 0
        self.users = 0

    def add(self, design: tuple[int, int, int], kind: str, frames: int) -> None:
        p, m, N = design
        self.frames += frames
        self.wire_bytes += frames * frame_length(p, m, N, kind)
        self.info_bits += frames * N * math.log2(p)
        self.forward_macs += frames * 2 * m * N * N
        self.inverse_macs += frames * (2 * m * N) ** 2
        self.kept += frames * nu(N, p, kind)
        self.users += frames * N

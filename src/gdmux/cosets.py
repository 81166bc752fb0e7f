"""Cyclotomic cosets modulo N and the counting formulas behind them.

Fourier cosets are the orbits of k -> pk mod N, Hartley cosets the orbits
of k -> -pk mod N. Spectra of ground-field signals are constant along
these orbits up to Frobenius, so only one coefficient per coset (the
leader, taken as the smallest member) needs to be transmitted.

The closed-form counts: I_k(q) = (1/k) sum_{d|k} mu(d) q^(k/d) monic
irreducibles of degree k over GF(q); for full length N = p^m - 1 the
Fourier coset count is sum_{d|m} I_d(p) - 1 (the -1 removes the
polynomial x, whose root 0 contributes no index). The Hartley half-count
(nu_G + N mod 2)/2 + 1 assumes reciprocal cosets pair off with exactly
two self-reciprocal ones; it matches brute force on the classic cases but
not universally (N = 3, p = 7 is a counterexample), so brute-force counts
stay authoritative everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import NotCoprime
from .fields import factorize


class Kind(str, Enum):
    """The transform, which fixes the coset map: k -> pk (Fourier) or k -> -pk (Hartley).

    Kind(x) is the one normaliser: it takes a member or its value in any case,
    and raises ValueError for anything else.
    """

    FOURIER = "fourier"
    HARTLEY = "hartley"

    def __str__(self):
        return self.value

    @classmethod
    def _missing_(cls, value):
        return cls.__members__.get(value.upper()) if isinstance(value, str) else None


@dataclass(frozen=True)
class CosetTable:
    """Partition of {0..N-1} into sigma-orbits, sorted by leader.

    Each orbit is stored in walk order starting at its leader, so the t-th
    entry is sigma^t(leader) = step^t * leader mod N.
    """

    kind: Kind
    N: int
    p: int
    step: int
    cosets: tuple[tuple[int, ...], ...]
    leaders: tuple[int, ...]

    @property
    def nu(self) -> int:
        return len(self.cosets)

    @property
    def longest(self) -> int:
        """Length of the longest orbit."""
        return max(len(c) for c in self.cosets)

    def format_lines(self) -> list[str]:
        return [f"C{c[0]}=({','.join(str(x) for x in c)})" for c in self.cosets]


def _orbits(N: int, p: int, kind: Kind) -> CosetTable:
    if N < 1:
        raise NotCoprime(f"N must be >= 1, got {N}")
    if math.gcd(N, p) != 1:
        raise NotCoprime(f"gcd({N}, {p}) != 1")
    step = (p if kind is Kind.FOURIER else -p) % N
    seen = [False] * N
    cosets = []
    for s in range(N):
        if seen[s]:
            continue
        # s is the smallest member: everything below is already assigned
        orbit = []
        k = s
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = (step * k) % N
        cosets.append(tuple(orbit))
    return CosetTable(kind=kind, N=N, p=p, step=step, cosets=tuple(cosets),
                      leaders=tuple(c[0] for c in cosets))


@lru_cache(maxsize=64)
def fourier_cosets(N: int, p: int) -> CosetTable:
    """Orbits of k -> pk mod N."""
    return _orbits(N, p, Kind.FOURIER)


@lru_cache(maxsize=64)
def hartley_cosets(N: int, p: int) -> CosetTable:
    """Orbits of k -> -pk mod N."""
    return _orbits(N, p, Kind.HARTLEY)


def coset_table(N: int, p: int, kind) -> CosetTable:
    return (fourier_cosets if Kind(kind) is Kind.FOURIER else hartley_cosets)(N, p)


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def count_irreducibles(k: int, q: int) -> int:
    """I_k(q) = (1/k) sum_{d|k} mu(d) q^(k/d): monic irreducibles of degree k over GF(q)."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    total = sum(moebius(d) * q ** (k // d) for d in divisors(k))
    assert total % k == 0
    return total // k


def nu_g_formula(p: int, m: int) -> int:
    """Fourier coset count for full length N = p^m - 1: sum_{d|m} I_d(p) - 1."""
    return sum(count_irreducibles(d, p) for d in divisors(m)) - 1


def nu_h_formula(nu_g: int, N: int) -> Fraction:
    """Reciprocal-clustering half count (nu_G + N mod 2)/2 + 1.

    Exact on its intended domain; returned as an exact rational so callers
    can detect when it disagrees with the brute-force count instead of
    silently trusting it.
    """
    return Fraction(nu_g + (N % 2), 2) + 1


def approx_nu(N: int, m: int) -> tuple[int, int]:
    """Rule-of-thumb counts for N = p^m - 1: (ceil(N/m), ceil(ceil(N/m)/2 + 1))."""
    nu_g = -(-N // m)
    nu_h = (nu_g + 1) // 2 + 1
    return nu_g, nu_h

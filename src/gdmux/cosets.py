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
not universally (N = 3, p = 7 is a counterexample), so the counts of the
orbit walk, CosetTable's arrays, stay authoritative everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidParams, NotCoprime, require_positive
from .fields import MAX_FIELD_SIZE, factorize, require_odd_prime


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
    """Partition of {0..N-1} into sigma-orbits, sorted by leader, as read-only int32 arrays
    built by array operations; the orbits as tuples are formed only to print or compare them.

    Coset c walks lengths[c] indices from its leader leaders[c], its smallest member: the
    t-th is sigma^t(leader) = step^t * leader mod N. Index k lies in coset coset_of[k], at
    place place_of[k] of its walk. (kind, N, p) fix the arrays, so tables compare without them.
    """

    kind: Kind
    N: int
    p: int
    step: int
    leaders: np.ndarray = field(compare=False)
    lengths: np.ndarray = field(compare=False)
    coset_of: np.ndarray = field(compare=False)
    place_of: np.ndarray = field(compare=False)
    nu: int                   # the number of cosets
    longest: int              # length of the longest orbit

    @cached_property
    def walk_index(self) -> np.ndarray:
        """(N,) intp: k's row coset_of[k] * (longest + 1) + place_of[k] in a coset-major walk of
        longest + 1 steps per coset, formed once, at its first use, and kept read-only."""
        index = self.coset_of.astype(np.intp) * (self.longest + 1) + self.place_of
        index.setflags(write=False)
        return index

    @property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        """The orbits as tuples of Python ints in walk order, formed anew to print or compare."""
        walk = np.lexsort((self.place_of, self.coset_of)).tolist()     # k by coset, then place
        ends = np.cumsum(self.lengths).tolist()
        return tuple(tuple(walk[a:b]) for a, b in zip([0] + ends, ends))

    def format_lines(self) -> list[str]:
        return [f"C{c[0]}=({','.join(str(x) for x in c)})" for c in self.cosets]


@lru_cache(maxsize=128)
def _orbits(N: int, p: int, kind: Kind) -> CosetTable:
    require_positive("N", N)
    if N >= MAX_FIELD_SIZE:     # refused before any array is allocated
        raise InvalidParams(f"N must be < {MAX_FIELD_SIZE}, as it divides p^m - 1, got {N}")
    require_odd_prime(p)
    if math.gcd(N, p) != 1:
        raise NotCoprime(f"gcd({N}, {p}) != 1")
    step = (p if kind is Kind.FOURIER else -p) % N
    # pointer doubling: after the pass of span s, least[k] = k * step^ahead[k] is the least of
    # k * step^t over t < 2s. A pass that lowers no least[k] leaves least[k] <= least[k * step^s]
    # for every k; along the chain k, k * step^s, ..., which cycles, least is then constant, and
    # its windows of s steps cover k's orbit, so least[k] is the orbit's leader
    least, ahead, span = np.arange(N, dtype=np.int32), np.zeros(N, dtype=np.int32), 1
    at = np.arange(N) * step % N                                    # k * step^span
    while True:
        there = least[at]
        lower = there < least
        if not np.count_nonzero(lower):
            break
        np.copyto(ahead, ahead[at] + span, where=lower)
        np.minimum(least, there, out=least)
        at, span = at[at], 2 * span
    del at, there, lower        # freed before the arrays below
    leader = least == np.arange(N, dtype=np.int32)
    coset_of = (np.cumsum(leader, dtype=np.int32) - 1)[least]      # the rank of k's leader
    lengths = np.bincount(coset_of).astype(np.int32)
    place_of = -ahead % lengths[coset_of]       # k = leader * step^place, as step^length fixes it
    leaders = np.flatnonzero(leader).astype(np.int32)
    for a in (leaders, lengths, coset_of, place_of):
        a.setflags(write=False)
    return CosetTable(kind=kind, N=N, p=p, step=step, leaders=leaders, lengths=lengths,
                      coset_of=coset_of, place_of=place_of, nu=len(leaders),
                      longest=int(lengths.max()))


def fourier_cosets(N: int, p: int) -> CosetTable:
    """Orbits of k -> pk mod N."""
    return _orbits(N, p, Kind.FOURIER)


def hartley_cosets(N: int, p: int) -> CosetTable:
    """Orbits of k -> -pk mod N."""
    return _orbits(N, p, Kind.HARTLEY)


def coset_table(N: int, p: int, kind) -> CosetTable:
    return _orbits(N, p, Kind(kind))


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
    """The divisors of n in ascending order, as products of its prime powers."""
    if n < 1:
        raise ValueError("divisors is defined for n >= 1")
    out = [1]
    for prime, exp in factorize(n).items():
        out = [d * prime ** e for d in out for e in range(exp + 1)]
    return sorted(out)


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

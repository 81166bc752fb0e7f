"""Finite-field trigonometry: cos, sin and cas carriers over GI(p^m).

With zeta a fixed element of order N in GF(p^m), argument t = i*k mod N:

    cos(t) = (zeta^t + zeta^-t) / 2          (lies in GF(p^m))
    sin(t) = (zeta^t - zeta^-t) / 2j         (purely imaginary in GI(p^m))
    cas(t) = cos(t) + sin(t)

The kernel depends only on the product i*k mod N, which gives the carrier
matrix its symmetry. Rows are pairwise orthogonal under the bilinear form
sum_k x_k * y_k with common energy N; note that the conjugated
sesquilinear form does NOT have this property (rows i and N-i pair up
instead), so orthogonality utilities default to the bilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import NoRationalization
from .fields import GaloisInt, SystemParams, centered, sqrt_of_minus_one


@lru_cache(maxsize=None)
def _cas_by_product(params: SystemParams) -> tuple[GaloisInt, ...]:
    """cas values indexed by t = i*k mod N."""
    field = params.field
    N = params.N
    inv2 = field.scalar(2).inverse()
    pows = [field.one]
    for _ in range(N - 1):
        pows.append(pows[-1] * params.zeta_elem)
    out = []
    for t in range(N):
        fwd, rev = pows[t], pows[(N - t) % N]
        out.append(GaloisInt((fwd + rev) * inv2, (rev - fwd) * inv2))
    return tuple(out)


def _check_index(i: int, N: int) -> None:
    if not 0 <= i < N:
        raise IndexError(f"index {i} outside [0, {N})")


def ff_cos(i: int, k: int, params: SystemParams) -> GaloisInt:
    _check_index(i, params.N)
    _check_index(k, params.N)
    z = _cas_by_product(params)[(i * k) % params.N]
    return GaloisInt(z.re, params.field.zero)


def ff_sin(i: int, k: int, params: SystemParams) -> GaloisInt:
    _check_index(i, params.N)
    _check_index(k, params.N)
    z = _cas_by_product(params)[(i * k) % params.N]
    return GaloisInt(params.field.zero, z.im)


def cas(i: int, k: int, params: SystemParams) -> GaloisInt:
    """cas_i(k) = cos_i(k) + sin_i(k); symmetric in i and k."""
    _check_index(i, params.N)
    _check_index(k, params.N)
    return _cas_by_product(params)[(i * k) % params.N]


@dataclass(frozen=True)
class Carrier:
    """Spreading sequence of one channel: samples[k] = cas_i(k)."""

    index: int
    samples: tuple[GaloisInt, ...]
    params: SystemParams


@dataclass(frozen=True)
class CarrierMatrix:
    rows: tuple[Carrier, ...]
    params: SystemParams

    def entry(self, i: int, k: int) -> GaloisInt:
        return self.rows[i].samples[k]


def carrier(i: int, params: SystemParams) -> Carrier:
    table = _cas_by_product(params)
    N = params.N
    _check_index(i, N)
    return Carrier(i, tuple(table[(i * k) % N] for k in range(N)), params)


def carrier_matrix(params: SystemParams) -> CarrierMatrix:
    return CarrierMatrix(tuple(carrier(i, params) for i in range(params.N)), params)


def inner_product(x: Sequence[GaloisInt], y: Sequence[GaloisInt],
                  conjugate: bool = False) -> GaloisInt:
    """sum_k x_k * y_k over GI(p^m); set conjugate=True for sum_k x_k * conj(y_k).

    Carrier orthogonality and the equal-energy property hold for the
    bilinear default.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if not x:
        raise ValueError("empty vectors")
    acc = None
    for a, b in zip(x, y):
        term = a * (b.conj() if conjugate else b)
        acc = term if acc is None else acc + term
    return acc


def rationalize_walsh(matrix: CarrierMatrix) -> list[list[int]]:
    """Collapse carriers to one dimension by substituting j := sqrt(-1).

    Possible when p^m = 1 (mod 4). Output entries are centered
    representatives in {-(p-1)/2, ..., (p-1)/2}; for p = 5, N = 4 this is
    the row-permuted 4x4 Walsh-Hadamard matrix.
    """
    params = matrix.params
    s = sqrt_of_minus_one(params.p, params.m, params.poly)
    if s is None:
        raise NoRationalization(
            f"-1 is a non-residue in GF({params.p}^{params.m}); carriers stay two-dimensional")
    out = []
    for row in matrix.rows:
        vals = []
        for z in row.samples:
            v = z.re + s * z.im
            if not v.in_prime_field():
                raise NoRationalization(
                    "substituted carrier value leaves the prime field; "
                    "no integer Walsh form exists for these parameters")
            vals.append(centered(v.coeffs[0], params.p))
        out.append(vals)
    return out

"""Finite-field trigonometry: the cas carriers over GI(p^m).

With zeta a fixed element of order N in GF(p^m), argument t = i*k mod N:

    cos(t) = (zeta^t + zeta^-t) / 2          (lies in GF(p^m))
    sin(t) = (zeta^t - zeta^-t) / 2j         (purely imaginary in GI(p^m))
    cas(t) = cos(t) + sin(t)

so cos(t) and sin(t) are the real and the imaginary part of cas(t). The
kernel depends only on the product i*k mod N, which gives the carrier
matrix its symmetry. Rows are pairwise orthogonal under the bilinear form
sum_k x_k * y_k with common energy N; the conjugated sesquilinear form
does NOT have this property (rows i and N-i pair up instead).

The values come from one coefficient array, cas_coeffs, built from the
powers of zeta read off the root search (fields.zeta_powers). transforms
compiles its kernels from that array; cas, carrier and carrier_matrix read
GaloisInt values off it for scalar references, carrier_lines formats each
once for printing, and rationalize is the one real embedding of such arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import NoRationalization, UnsupportedParams
from .fields import GaloisInt, SystemParams, centered, sqrt_of_minus_one, zeta_powers


def cas_coeffs(params: SystemParams) -> np.ndarray:
    """(N, 2, m) coefficient array of cas(t), t = i*k mod N; axis 1 is re/im.

    re = (zeta^t + zeta^-t) / 2 and im = (zeta^-t - zeta^t) / 2, with
    zeta^-t = zeta^(N-t) read from the same powers, widened first: uint8 sums would wrap.
    """
    fwd = zeta_powers(params).astype(np.int64)
    rev = fwd[-np.arange(params.N)]
    out = np.stack([fwd + rev, rev - fwd], axis=1)
    out *= (params.p + 1) // 2
    out %= params.p
    return out


def rationalize(params: SystemParams, coeffs: np.ndarray) -> np.ndarray:
    """Centered int64 values of re + s*im for an (..., 2, m) coefficient array, s = sqrt(-1).

    Substituting j := s maps GI(p^m) to GF(p^m); the result is real when
    every value lands in GF(p). Raises NoRationalization when -1 is a
    non-residue, and when some value leaves the prime field.
    """
    s = sqrt_of_minus_one(params.p, params.m, params.poly)
    if s is None:
        raise NoRationalization(
            f"-1 is a non-residue in GF({params.p}^{params.m}); carriers stay two-dimensional")
    # the matrix of multiplication by s, applied to each im row; nothing is reduced
    # but the checked coefficients, as centered() reduces the rest
    times_s = params.field.mul_matrices(np.array(s.coeffs)).T
    values = coeffs[..., 0, :] + np.einsum("...j,jk->...k", coeffs[..., 1, :], times_s)
    if (values[..., 1:] % params.p).any():
        raise NoRationalization(
            "substituted carrier value leaves the prime field; "
            "no integer Walsh form exists for these parameters")
    return centered(values[..., 0], params.p)


@lru_cache(maxsize=64)
def _cas_by_product(params: SystemParams) -> tuple[GaloisInt, ...]:
    """cas values indexed by t = i*k mod N, as GaloisInt (from cas_coeffs)."""
    return params.ring.from_array(cas_coeffs(params))


def _check_index(i: int, N: int) -> None:
    if not 0 <= i < N:
        raise IndexError(f"index {i} outside [0, {N})")


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


def carrier(i: int, params: SystemParams) -> Carrier:
    table = _cas_by_product(params)
    N = params.N
    _check_index(i, N)
    return Carrier(i, tuple(table[(i * k) % N] for k in range(N)), params)


# largest N of a carrier matrix: N^2 <= 2^20 values, each a GaloisInt
CARRIER_MAX_N = 1024


def _check_carrier_n(params: SystemParams) -> None:
    if params.N > CARRIER_MAX_N:
        raise UnsupportedParams(f"{params}: a carrier matrix of N^2 values needs N <= "
                                f"{CARRIER_MAX_N}, got N = {params.N}")


def carrier_matrix(params: SystemParams) -> CarrierMatrix:
    """The N carriers; UnsupportedParams for N > CARRIER_MAX_N, before any cas value."""
    _check_carrier_n(params)
    return CarrierMatrix(tuple(carrier(i, params) for i in range(params.N)), params)


def carrier_lines(params: SystemParams) -> Iterator[str]:
    """The rows of carrier_matrix as text, one line of N space-separated values per carrier.

    Each of the N distinct cas values is formatted once, and row i reads them at i*k mod N.
    For N > CARRIER_MAX_N the first line raises UnsupportedParams, as carrier_matrix does,
    before any cas value.
    """
    _check_carrier_n(params)
    N = params.N
    text = [str(z) for z in _cas_by_product(params)]
    for i in range(N):
        yield " ".join([text[i * k % N] for k in range(N)])


def rationalize_walsh(matrix: CarrierMatrix) -> list[list[int]]:
    """Collapse carriers to one dimension by substituting j := sqrt(-1).

    Possible when p^m = 1 (mod 4). Output entries are centered
    representatives in {-(p-1)/2, ..., (p-1)/2}; for p = 5, N = 4 this is
    the row-permuted 4x4 Walsh-Hadamard matrix.
    """
    params = matrix.params
    coeffs = params.ring.to_array([z for row in matrix.rows for z in row.samples])
    return rationalize(params, coeffs).reshape(len(matrix.rows), -1).tolist()

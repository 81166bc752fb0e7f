"""Exact arithmetic in GF(p), GF(p^m) and the Gaussian-integer ring GI(p^m).

GF(p^m) elements are coefficient vectors over GF(p) (low degree first),
reduced by a monic irreducible polynomial. GI(p^m) adjoins j with
j^2 = -1; it is a field precisely when p^m = 3 (mod 4), otherwise a ring
with zero divisors in which inversion is partial.

All values are immutable. Enumeration order is fixed everywhere: element
number i of GF(p^m) has the base-p digits of i as its coefficient vector,
least significant digit first (constant coefficient cycles fastest).
Deterministic searches (default reduction polynomial, roots of unity,
square roots of -1) return the canonical-first element, found by
enumeration, so every derived quantity is reproducible across runs.

Scope is deliberately "desk scale": odd primes p <= 251 and p^m <= 2^20,
which keeps one byte per coefficient on the wire and makes exhaustive
checks feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .errors import InvalidParams, NonInvertible, NoSuchRoot, NotAUnit

MAX_PRIME = 251
MAX_FIELD_SIZE = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine at desk scale."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def centered(value: int, p: int) -> int:
    """Representative of value mod p in {-(p-1)/2, ..., (p-1)/2}."""
    v = value % p
    return v - p if v > (p - 1) // 2 else v


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists over GF(p), low degree first)
# ---------------------------------------------------------------------------

def _digits(i: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(i % p)
        i //= p
    return tuple(out)


def _poly_rem(num: list[int], den: tuple[int, ...], p: int) -> list[int]:
    # den is monic
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            num[i] = 0
            for k in range(dd):
                num[i - dd + k] = (num[i - dd + k] - c * den[k]) % p
    return [x % p for x in num[:dd]]


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial factorization of a monic polynomial over GF(p)."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            den = _digits(idx, p, d) + (1,)
            if not any(_poly_rem(list(coeffs), den, p)):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m in canonical scan order.

    The scan runs the constant coefficient fastest, so the result is the
    lexicographically smallest choice and every downstream number is
    reproducible.
    """
    for idx in range(p**m):
        cand = _digits(idx, p, m) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise InvalidParams(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# GF(p^m)
# ---------------------------------------------------------------------------

class ExtField:
    """Context for GF(p^m); GF(p) is the m = 1 case.

    Elements carry a reference to their field; mixing contexts raises.
    """

    def __init__(self, p: int, m: int, poly: Optional[tuple[int, ...]] = None):
        if not is_prime(p) or p == 2:
            raise InvalidParams(f"p must be an odd prime, got {p}")
        if p > MAX_PRIME:
            raise InvalidParams(f"p must be <= {MAX_PRIME}, got {p}")
        if m < 1:
            raise InvalidParams(f"extension degree must be >= 1, got {m}")
        if p**m > MAX_FIELD_SIZE:
            raise InvalidParams(f"p^m must be <= {MAX_FIELD_SIZE}, got {p**m}")
        if poly is None:
            poly = smallest_irreducible(p, m)
        else:
            poly = tuple(int(c) % p for c in poly)
            if len(poly) != m + 1 or poly[-1] != 1:
                raise InvalidParams("reduction polynomial must be monic of degree m")
            if not poly_is_irreducible(poly, p):
                raise InvalidParams(f"reduction polynomial {poly} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.poly = poly
        self.order = p**m
        # reduced forms of x^m .. x^(2m-2), used by mul_coeffs
        xpows = [tuple((-poly[i]) % p for i in range(m))]
        for _ in range(m - 2):
            prev = xpows[-1]
            shifted = [0] + list(prev[: m - 1])
            top = prev[m - 1]
            xpows.append(tuple((shifted[i] - top * poly[i]) % p for i in range(m)))
        self._xpows = xpows
        self.zero = FieldElement(self, (0,) * m)
        self.one = FieldElement(self, (1,) + (0,) * (m - 1))

    def __eq__(self, other):
        return (isinstance(other, ExtField)
                and (self.p, self.m, self.poly) == (other.p, other.m, other.poly))

    def __hash__(self):
        return hash((self.p, self.m, self.poly))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.m:
            raise InvalidParams(f"expected {self.m} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def scalar(self, c: int) -> "FieldElement":
        return FieldElement(self, (c % self.p,) + (0,) * (self.m - 1))

    def from_int(self, i: int) -> "FieldElement":
        return FieldElement(self, _digits(i, self.p, self.m))

    @cached_property
    def x_power_matrices(self) -> np.ndarray:
        """(m, m, m) read-only: [j] is the matrix of multiplication by x^j.

        Column t of [j] is x^(j+t) reduced: a unit vector for j + t < m,
        else _xpows[j + t - m]. For m > 1, [1] is the companion matrix of poly.
        """
        m = self.m
        # reduced x^0 .. x^(2m-2), one row each
        rows = np.vstack([np.eye(m, dtype=np.int64),
                          np.array(self._xpows, dtype=np.int64)])
        j = np.arange(m)
        P = rows[np.add.outer(j, j)].transpose(0, 2, 1)
        P.setflags(write=False)
        return P

    def mul_matrices(self, a: np.ndarray) -> np.ndarray:
        """(..., m, m) matrices of multiplication by the elements a (..., m)."""
        return np.einsum("...j,jab->...ab", a, self.x_power_matrices) % self.p

    def powers(self, x, n: int) -> np.ndarray:
        """(n, m) int64 coefficient rows of x^0 .. x^(n-1), for x given by its m coefficients.

        Doubling: with the first k powers known, one product with the
        multiplication matrix of x^k gives up to k more.
        """
        out = np.zeros((n, self.m), dtype=np.int64)
        out[:1, 0] = 1
        step, k = self.mul_matrices(np.asarray(x, dtype=np.int64)), 1
        while k < n:
            c = min(k, n - k)
            np.matmul(out[:c], step.T, out=out[k:k + c])
            out[k:k + c] %= self.p
            step, k = step @ step % self.p, k + c
        return out

    def mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, m = self.p, self.m
        if m == 1:
            return (a[0] * b[0] % p,)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bk in enumerate(b):
                    conv[i + k] += ai * bk
        out = conv[:m]
        for t in range(m, 2 * m - 1):
            c = conv[t]
            if c:
                red = self._xpows[t - m]
                for s in range(m):
                    out[s] += c * red[s]
        return tuple(v % p for v in out)


class _Scalar:
    """The algebra FieldElement and GaloisInt share, written once over each class's own
    _coerce, __add__, __neg__, __mul__, inverse and multiplicative identity _one()."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self) + other

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __repr__(self):
        return str(self)


class FieldElement(_Scalar):
    """Element of GF(p^m) in the polynomial basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise InvalidParams("operands from different field contexts")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field,
                            tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field,
                            tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field.mul_coeffs(self.coeffs, o.coeffs))

    def _one(self) -> "FieldElement":
        return self.field.one

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise NonInvertible("zero has no multiplicative inverse")
        return self ** (self.field.order - 2)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def frobenius(self) -> "FieldElement":
        """The p-th power map, the generating automorphism of GF(p^m)/GF(p)."""
        return self ** self.field.p

    def to_int(self) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.field.p + c
        return v

    def in_prime_field(self) -> bool:
        return not any(self.coeffs[1:])

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.poly, self.coeffs))

    def __str__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        return ",".join(str(c) for c in self.coeffs)


@lru_cache(maxsize=64)
def get_field(p: int, m: int, poly: Optional[tuple[int, ...]] = None) -> ExtField:
    return ExtField(p, m, poly)


# ---------------------------------------------------------------------------
# GI(p^m) = GF(p^m)[j] / (j^2 + 1)
# ---------------------------------------------------------------------------

class GaloisRing:
    """Context for GI(p^m)."""

    def __init__(self, field: ExtField):
        self.field = field
        # -1 is a square in GF(q) iff q = 1 (mod 4); then j^2 + 1 splits and
        # GI(q) has zero divisors.  Kept as a diagnostic, never a rejection.
        self.is_field = field.order % 4 == 3
        self.zero = GaloisInt(field.zero, field.zero)
        self.one = GaloisInt(field.one, field.zero)
        self.j = GaloisInt(field.zero, field.one)

    def element(self, re, im=0) -> "GaloisInt":
        f = self.field
        if isinstance(re, int):
            re = f.scalar(re)
        if isinstance(im, int):
            im = f.scalar(im)
        return GaloisInt(re, im)

    def from_coeffs(self, re_coeffs, im_coeffs) -> "GaloisInt":
        f = self.field
        return GaloisInt(f.element(re_coeffs), f.element(im_coeffs))

    def from_array(self, arr) -> tuple["GaloisInt", ...]:
        """The values of an (n, 2, m) coefficient array; axis 1 is re/im."""
        f = self.field
        return tuple(GaloisInt(f.element(re), f.element(im)) for re, im in arr.tolist())

    def to_array(self, values) -> np.ndarray:
        """(n, 2, m) int64 coefficient array of n values; the inverse of from_array."""
        pairs = [(z.re.coeffs, z.im.coeffs) for z in values]
        return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2, self.field.m)

    def __repr__(self):
        if self.field.m == 1:
            return f"GI({self.field.p})"
        return f"GI({self.field.p}^{self.field.m})"

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and self.field == other.field

    def __hash__(self):
        return hash(("GI", self.field))


@lru_cache(maxsize=64)
def gaussian_ring(field: ExtField) -> GaloisRing:
    return GaloisRing(field)


class GaloisInt(_Scalar):
    """Element re + j*im of GI(p^m) with j^2 = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re: FieldElement, im: FieldElement):
        self.re = re
        self.im = im

    @property
    def field(self) -> ExtField:
        return self.re.field

    def _coerce(self, other):
        if isinstance(other, GaloisInt):
            return other
        if isinstance(other, FieldElement):
            return GaloisInt(other, other.field.zero)
        if isinstance(other, int):
            f = self.field
            return GaloisInt(f.scalar(other), f.zero)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaloisInt(self.re + o.re, self.im + o.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaloisInt(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaloisInt(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaloisInt(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def _one(self) -> "GaloisInt":
        return GaloisInt(self.field.one, self.field.zero)

    def conj(self) -> "GaloisInt":
        return GaloisInt(self.re, -self.im)

    def norm(self) -> FieldElement:
        """z * conj(z) = re^2 + im^2; zero exactly on non-units."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaloisInt":
        n = self.norm()
        if n.is_zero:
            if self.is_zero:
                raise NonInvertible("zero has no multiplicative inverse")
            raise NonInvertible(f"{self} is a zero divisor of {gaussian_ring(self.field)}")
        ninv = n.inverse()
        return GaloisInt(self.re * ninv, -(self.im * ninv))

    def frobenius(self) -> "GaloisInt":
        """z^p, the characteristic-p power map on GI(p^m).

        Computed componentwise: (a + jb)^p = a^p + j^p b^p with j^p = j for
        p = 1 (mod 4) and -j for p = 3 (mod 4).
        """
        a = self.re.frobenius()
        b = self.im.frobenius()
        return GaloisInt(a, b if self.field.p % 4 == 1 else -b)

    def conj_frobenius(self) -> "GaloisInt":
        """a^p - j b^p: the value map matching k -> -pk on Hartley spectra.

        Coincides with frobenius() when p = 3 (mod 4) and with
        conj(frobenius()) when p = 1 (mod 4).
        """
        return GaloisInt(self.re.frobenius(), -self.im.frobenius())

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, GaloisInt) else other
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((hash(self.re), hash(self.im)))

    def __str__(self):
        if self.im.is_zero:
            return str(self.re)
        if self.re.is_zero:
            return f"{self.im}j"
        return f"{self.re}+{self.im}j"


# ---------------------------------------------------------------------------
# orders and deterministic searches
# ---------------------------------------------------------------------------

def _order_from_exponent(x, one, exponent: int) -> int:
    if x ** exponent != one:
        raise NotAUnit(f"{x} is not a unit")
    t = exponent
    for q in factorize(exponent):
        while t % q == 0 and x ** (t // q) == one:
            t //= q
    return t


def mult_order(x: Union[FieldElement, GaloisInt]) -> int:
    """Smallest t >= 1 with x^t = 1; divides the unit-group exponent."""
    if isinstance(x, FieldElement):
        if x.is_zero:
            raise NotAUnit("zero is not a unit")
        return _order_from_exponent(x, x.field.one, x.field.order - 1)
    if isinstance(x, GaloisInt):
        if x.norm().is_zero:
            raise NotAUnit(f"{x} is zero or a zero divisor")
        q = x.field.order
        ring = gaussian_ring(x.field)
        exponent = q * q - 1 if ring.is_field else q - 1
        return _order_from_exponent(x, ring.one, exponent)
    raise TypeError(f"unsupported operand type {type(x)!r}")


@lru_cache(maxsize=64)
def find_root_of_unity(p: int, m: int, n: int,
                       poly: Optional[tuple[int, ...]] = None) -> FieldElement:
    """The element of multiplicative order exactly n that is first in canonical order.

    g = x^((q-1)/n) for the first x with g^(n/r) != 1 for every prime r | n
    generates the n-th roots of unity, and the elements of order n are
    exactly its powers g^k with gcd(k, n) = 1. Of those, read from
    field.powers(g, n), the one of least canonical index is returned.
    A pure function of its arguments; the most recent 64 results are
    kept, so SystemParams.create searches once per design and process.
    """
    field = get_field(p, m, poly)
    if n < 1 or (field.order - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide p^m - 1 = {field.order - 1}")
    primes = factorize(n)
    for i in range(1, field.order):
        g = field.from_int(i) ** ((field.order - 1) // n)
        if all(g ** (n // r) != field.one for r in primes):
            break
    coprime = np.ones(n, dtype=bool)
    for r in primes:
        coprime[::r] = False
    roots = field.powers(g.coeffs, n)
    index = np.where(coprime, roots @ p ** np.arange(m), field.order)
    return field.element(roots[index.argmin()])


def sqrt_of_minus_one(p: int, m: int,
                      poly: Optional[tuple[int, ...]] = None) -> Optional[FieldElement]:
    """Smallest x (canonical order) with x^2 = -1, or None when p^m = 3 (mod 4).

    x^2 = -1 exactly when x has order 4, so this is the root search for n = 4.
    """
    field = get_field(p, m, poly)
    return find_root_of_unity(p, m, 4, poly) if field.order % 4 == 1 else None


# ---------------------------------------------------------------------------
# system parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """One multiplex design: field GF(p^m), block length N, root of unity zeta.

    Frozen and hashable so kernel caches can key on it. Use create() to get
    a validated instance with the deterministic defaults filled in.
    """

    p: int
    m: int
    N: int
    poly: tuple[int, ...]
    zeta: tuple[int, ...]

    @classmethod
    def create(cls, p: int, m: int, N: int,
               poly: Optional[tuple[int, ...]] = None,
               zeta=None) -> "SystemParams":
        field = get_field(p, m, tuple(poly) if poly is not None else None)
        if N < 1:
            raise InvalidParams(f"N must be >= 1, got {N}")
        if (field.order - 1) % N != 0:
            raise InvalidParams(
                f"N = {N} does not divide p^m - 1 = {field.order - 1}")
        if zeta is None:
            z = find_root_of_unity(p, m, N, field.poly)
        else:
            if isinstance(zeta, FieldElement):
                if zeta.field != field:
                    raise InvalidParams(
                        f"zeta = {zeta} is an element of {zeta.field} mod {zeta.field.poly}, "
                        f"not of the design's {field} mod {field.poly}")
                z = zeta
            elif isinstance(zeta, int):
                z = field.scalar(zeta) if m == 1 else field.from_int(zeta)
            else:
                z = field.element(zeta)
            if mult_order(z) != N:
                raise InvalidParams(f"zeta = {z} does not have order {N}")
        return cls(p=p, m=m, N=N, poly=field.poly, zeta=z.coeffs)

    @cached_property
    def field(self) -> ExtField:
        return get_field(self.p, self.m, self.poly)

    @cached_property
    def ring(self) -> GaloisRing:
        return gaussian_ring(self.field)

    @cached_property
    def zeta_elem(self) -> FieldElement:
        return self.field.element(self.zeta)

    @property
    def q(self) -> int:
        return self.p**self.m

    def __str__(self):
        return f"GDM(p={self.p}, m={self.m}, N={self.N}, zeta={self.field.element(self.zeta)})"

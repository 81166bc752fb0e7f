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

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import InvalidParams, NonInvertible, NoSuchRoot, NotAUnit, require_positive

MAX_PRIME = 251
MAX_FIELD_SIZE = 1 << 20


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def require_odd_prime(p: int) -> None:
    """InvalidParams unless p is an odd prime <= MAX_PRIME; the bound is checked first, so
    no primality test runs on a p out of scope."""
    if p > MAX_PRIME:
        raise InvalidParams(f"p must be <= {MAX_PRIME}, got {p}")
    if not is_prime(p) or p == 2:
        raise InvalidParams(f"p must be an odd prime, got {p}")


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


def centered(value, p: int):
    """Representative of value mod p in {-(p-1)/2, ..., (p-1)/2}; elementwise on an int array."""
    v = value % p
    return v - p * (v > (p - 1) // 2)


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
        require_odd_prime(p)
        if m < 1:
            raise InvalidParams(f"extension degree must be >= 1, got {m}")
        # p > 2, so p^m > 2^m > MAX_FIELD_SIZE from m = MAX_FIELD_SIZE.bit_length() on
        if m >= MAX_FIELD_SIZE.bit_length() or p**m > MAX_FIELD_SIZE:
            raise InvalidParams(f"p^m must be <= {MAX_FIELD_SIZE}, got {p}^{m}")
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

    @cached_property
    def frobenius_matrix(self) -> np.ndarray:
        """(m, m) read-only matrix of a -> a^p on coefficient vectors (GF(p)-linear).

        Column t is (x^t)^p = y^t with y = x^p, so the matrix is the powers
        of y, one per column. For m = 1 "x" is 0 and any y gives [[1]].
        """
        y = self.power_table(np.eye(1, self.m, 1), [self.p])[0, 0]
        F = self.powers(y, self.m).T
        F.setflags(write=False)
        return F

    @cached_property
    def frobenius_powers(self) -> np.ndarray:
        """(m, m, m) read-only: [t] is the matrix of a -> a^(p^t) for t < m; the m-th power of
        the Frobenius matrix is the identity."""
        F = np.empty((self.m, self.m, self.m), dtype=np.int64)
        F[0] = np.eye(self.m, dtype=np.int64)
        for t in range(1, self.m):
            F[t] = self.frobenius_matrix @ F[t - 1] % self.p
        F.setflags(write=False)
        return F

    @cached_property
    def trace_forms(self) -> np.ndarray:
        """(2m, m) read-only: row t - 1 is the linear form of coefficient 0 of
        a + a^p + ... + a^(p^(t-1)) in the coefficients of a, for t = 1..2m."""
        out = self.frobenius_powers[np.arange(2 * self.m) % self.m, 0].cumsum(axis=0) % self.p
        out.setflags(write=False)
        return out

    @cached_property
    def ring(self) -> "GaloisRing":
        return GaloisRing(self)

    def mul_matrices(self, a: np.ndarray) -> np.ndarray:
        """(..., m, m) matrices of multiplication by the elements a (..., m)."""
        return np.einsum("...j,jab->...ab", a, self.x_power_matrices) % self.p

    def powers(self, x, n: int) -> np.ndarray:
        """(n, m) int64 coefficient rows of x^0 .. x^(n-1), for x given by its m coefficients.

        Doubling: with the first k powers known, one product with the
        multiplication matrix of x^k gives up to k more. The products are
        taken in int32: their sums stay below m(p - 1)^2 < 2^31.
        """
        out = np.zeros((n, self.m), dtype=np.int32)
        out[:1, 0] = 1
        step, k = self.mul_matrices(np.asarray(x, dtype=np.int64)).astype(np.int32), 1
        while k < n:
            c = min(k, n - k)
            np.matmul(out[:c], step.T, out=out[k:k + c])
            out[k:k + c] %= self.p
            k += c
            if k < n:
                step = step @ step % self.p
        return out.astype(np.int64)

    def power_table(self, xs, exponents) -> np.ndarray:
        """(K, R, m) int64: xs[k]^exponents[r], for the elements xs (K, m) and the exponents
        (R,), each >= 0.

        Square and multiply: M runs through the multiplication matrices of
        x^(2^i), and entry r takes the product with M when bit i of its
        exponent is set.
        """
        M = self.mul_matrices(np.asarray(xs, dtype=np.int64))              # (K, m, m)
        exponents = [int(e) for e in exponents]
        out = np.zeros((len(M), len(exponents), self.m), dtype=np.int64)
        out[:, :, 0] = 1
        for i in range(max(exponents, default=0).bit_length()):
            if i:
                M = M @ M % self.p
            for r, e in enumerate(exponents):
                if e >> i & 1:
                    out[:, r] = np.einsum("kab,kb->ka", M, out[:, r]) % self.p
        return out

    @cached_property
    def primitive(self) -> np.ndarray:
        """(m,) read-only coefficients of the first generator of GF(p^m)* in canonical order:
        the first x with x^((q-1)/r) != 1 for every prime r | q - 1, tested 16 at a time."""
        q, p = self.order, self.p
        cofactors = [(q - 1) // r for r in factorize(q - 1)]
        for lo in range(1, q, 16):
            xs = np.arange(lo, min(lo + 16, q))[:, None] // p ** np.arange(self.m) % p
            generates = (self.power_table(xs, cofactors) != self.one.coeffs).any(axis=2).all(axis=1)
            if generates.any():
                g = xs[generates.argmax()]
                g.setflags(write=False)
                return g
        raise AssertionError(f"{self} has no generator")       # GF(q)* is cyclic

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


def gaussian_ring(field: ExtField) -> GaloisRing:
    """GI(p^m) over field, kept on the field object (ExtField.ring)."""
    return field.ring


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
            raise NonInvertible(f"{self} is a zero divisor of {self.field.ring}")
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

def mult_order(x: FieldElement) -> int:
    """Smallest t >= 1 with x^t = 1; divides q - 1."""
    if not isinstance(x, FieldElement):     # a GaloisInt's order need not divide q - 1
        raise TypeError(f"mult_order takes a FieldElement, got {type(x).__name__}")
    if x.is_zero:
        raise NotAUnit("zero is not a unit")
    t = x.field.order - 1
    for q in factorize(t):
        while t % q == 0 and x ** (t // q) == x.field.one:
            t //= q
    return t


@lru_cache(maxsize=8)
def _root_table(p: int, m: int, n: int, poly: Optional[tuple[int, ...]]) -> tuple:
    """(rows, j, zeta): h^0 .. h^(n-1) as (n, m) read-only uint8 rows, for h = g^((q-1)/n)
    of order n (g the field's generator, ExtField.primitive, found once per field), and
    zeta = h^j, the element of order exactly n first in canonical order. The elements of
    order n are the h^j with gcd(j, n) = 1, the same set whichever g is used. The entries
    of the 8 most recent (p, m, n, poly) are kept."""
    field = get_field(p, m, poly)
    if n < 1 or (field.order - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide p^m - 1 = {field.order - 1}")
    h = field.power_table(field.primitive[None], [(field.order - 1) // n])[0, 0]
    coprime = np.ones(n, dtype=bool)
    for r in factorize(n):
        coprime[::r] = False
    roots = field.powers(h, n)
    j = int(np.where(coprime, roots @ p ** np.arange(m), field.order).argmin())
    rows = roots.astype(np.uint8)
    rows.setflags(write=False)
    return rows, j, field.element(roots[j])


def find_root_of_unity(p: int, m: int, n: int,
                       poly: Optional[tuple[int, ...]] = None) -> FieldElement:
    """The element of multiplicative order exactly n that is first in canonical order, read
    from the root table: SystemParams.create searches once per design while it is there."""
    return _root_table(p, m, n, poly)[2]


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

    zeta is find_root_of_unity(p, m, N, poly), the canonical-first element
    of order N, so (p, m, N, poly), the fields a GDM1 header names, fix
    the design. zeta is derived, never given, and poly None is the
    default polynomial; construction validates (p, m, N, poly) and raises
    InvalidParams for a design out of scope, so SystemParams(...) and
    create(...) give equal instances. Frozen and hashable so kernel
    caches can key on it.
    """

    p: int
    m: int
    N: int
    poly: Optional[tuple[int, ...]] = None
    zeta: tuple[int, ...] = dataclass_field(init=False)

    def __post_init__(self):
        field = get_field(self.p, self.m, None if self.poly is None else tuple(self.poly))
        require_positive("N", self.N)
        if (field.order - 1) % self.N != 0:
            raise InvalidParams(
                f"N = {self.N} does not divide p^m - 1 = {field.order - 1}")
        object.__setattr__(self, "poly", field.poly)
        object.__setattr__(self, "zeta",
                           find_root_of_unity(self.p, self.m, self.N, field.poly).coeffs)

    @classmethod
    def create(cls, p: int, m: int, N: int,
               poly: Optional[tuple[int, ...]] = None) -> "SystemParams":
        """SystemParams(p, m, N, poly); the name every caller uses."""
        return cls(p, m, N, poly)

    @cached_property
    def field(self) -> ExtField:
        return get_field(self.p, self.m, self.poly)

    @cached_property
    def ring(self) -> GaloisRing:
        return self.field.ring

    @cached_property
    def zeta_elem(self) -> FieldElement:
        return self.field.element(self.zeta)

    @property
    def q(self) -> int:
        return self.p**self.m

    def __str__(self):
        return f"GDM(p={self.p}, m={self.m}, N={self.N}, zeta={self.field.element(self.zeta)})"


def zeta_powers(params: SystemParams) -> np.ndarray:
    """(N, m) uint8 rows of zeta^0 .. zeta^(N-1), gathered from the root search's rows: with
    zeta = h^j, zeta^t = h^(jt mod N), so no power is computed again."""
    rows, j, _ = _root_table(params.p, params.m, params.N, params.poly)
    return rows[np.arange(params.N) * j % params.N]

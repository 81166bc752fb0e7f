import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (InvalidParams, NonInvertible, NoSuchRoot, NotAUnit, SystemParams,
                   centered, find_root_of_unity, gaussian_ring, get_field,
                   mult_order, sqrt_of_minus_one)
from gdmux import cosets, trig
from gdmux.fields import is_prime, poly_is_irreducible, smallest_irreducible
from gdmux.transforms import DESIGN_BUDGET_BYTES, frobenius_matrix

import support
from support import SMALL_SYSTEMS, design_grid


def test_prime_field_mul():
    f = get_field(5, 1)
    assert (f.scalar(4) * f.scalar(3)).to_int() == 2


def test_zero_divisor_in_gi5():
    ring = gaussian_ring(get_field(5, 1))
    z = ring.element(1, 2)
    assert (z * z.conj()).is_zero
    with pytest.raises(NonInvertible):
        z.inverse()
    assert not ring.is_field


def test_gf27_reduction():
    # x * x^2 = x^3 = -2x - 1 = x + 2 under x^3 + 2x + 1
    f = get_field(3, 3, (1, 2, 0, 1))
    x = f.element((0, 1, 0))
    assert (x * x * x).coeffs == (2, 1, 0)


def test_default_poly_is_lexicographically_smallest():
    assert smallest_irreducible(3, 3) == (1, 2, 0, 1)
    assert smallest_irreducible(5, 1) == (0, 1)
    assert smallest_irreducible(7, 2) == (1, 0, 1)   # x^2 + 1, -1 non-residue mod 7
    assert not poly_is_irreducible((1, 0, 0, 1), 3)  # x^3 + 1 = (x + 1)^3


def test_division_and_inverse():
    f = get_field(7, 2)
    for i in range(1, f.order):
        x = f.from_int(i)
        assert x * x.inverse() == f.one
    with pytest.raises(NonInvertible):
        f.zero.inverse()


def test_conj():
    ring = gaussian_ring(get_field(5, 1))
    z = ring.element(3, 4)
    assert str(z.conj()) == "3+1j"
    assert z.conj().conj() == z
    assert ring.element(2).conj() == ring.element(2)
    assert ring.j.conj() == -ring.j


def test_conj_is_multiplicative():
    ring = gaussian_ring(get_field(7, 2))
    f = ring.field
    import random
    rnd = random.Random(0)
    for _ in range(50):
        z = ring.element(f.from_int(rnd.randrange(f.order)), f.from_int(rnd.randrange(f.order)))
        w = ring.element(f.from_int(rnd.randrange(f.order)), f.from_int(rnd.randrange(f.order)))
        assert (z * w).conj() == z.conj() * w.conj()


def test_frobenius_gi3_conjugates():
    ring = gaussian_ring(get_field(3, 1))
    for a in range(3):
        for b in range(3):
            z = ring.element(a, b)
            assert z.frobenius() == z.conj()   # a^3 = a, j^3 = -j over GI(3)


def test_frobenius_fixes_prime_field_components():
    ring = gaussian_ring(get_field(13, 1))
    for a, b in [(0, 0), (1, 5), (12, 7)]:
        z = ring.element(a, b)
        assert z.frobenius() == z   # p = 1 (mod 4): j^p = j and Fermat fixes a, b


def test_frobenius_order_divides_2m():
    params = SystemParams.create(3, 3, 26)
    ring = params.ring
    f = params.field
    import random
    rnd = random.Random(1)
    for _ in range(20):
        z = ring.element(f.from_int(rnd.randrange(27)), f.from_int(rnd.randrange(27)))
        w = z
        for _ in range(6):
            w = w.frobenius()
        assert w == z


def test_frobenius_equals_pth_power():
    for p, m in [(3, 3), (5, 2), (7, 2), (13, 1)]:
        ring = gaussian_ring(get_field(p, m))
        f = ring.field
        import random
        rnd = random.Random(p * m)
        for _ in range(25):
            z = ring.element(f.from_int(rnd.randrange(f.order)),
                             f.from_int(rnd.randrange(f.order)))
            assert z.frobenius() == z ** p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3), (5, 2), (7, 2), (13, 1)]), st.data())
def test_frobenius_is_ring_homomorphism(pm, data):
    p, m = pm
    ring = gaussian_ring(get_field(p, m))
    f = ring.field
    pick = st.integers(0, f.order - 1)
    z = ring.element(f.from_int(data.draw(pick)), f.from_int(data.draw(pick)))
    w = ring.element(f.from_int(data.draw(pick)), f.from_int(data.draw(pick)))
    assert (z * w).frobenius() == z.frobenius() * w.frobenius()
    assert (z + w).frobenius() == z.frobenius() + w.frobenius()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(5, 1), (13, 1), (3, 3), (7, 2)]), st.data())
def test_field_axioms_on_random_triples(pm, data):
    p, m = pm
    f = get_field(p, m)
    pick = st.integers(0, f.order - 1)
    a, b, c = (f.from_int(data.draw(pick)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == f.zero
    if not a.is_zero:
        assert a * a.inverse() == f.one


def test_fermat_full_enumeration():
    # x^(q-1) = 1 for every unit, all contexts with q <= 1000
    contexts = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4), (3, 5), (3, 6)]
    for p, m in contexts:
        f = get_field(p, m)
        assert f.order <= 1000
        for i in range(1, f.order):
            assert f.from_int(i) ** (f.order - 1) == f.one


def test_mult_order_examples():
    f5 = get_field(5, 1)
    assert mult_order(f5.scalar(2)) == 4
    assert mult_order(f5.one) == 1
    assert mult_order(f5.scalar(3)) == 4
    with pytest.raises(NotAUnit):
        mult_order(f5.zero)
    ring = gaussian_ring(f5)
    with pytest.raises(NotAUnit):
        mult_order(ring.element(1, 2))   # zero divisor
    assert mult_order(ring.j) == 4


def test_mult_order_divides_group_order():
    f = get_field(3, 3)
    for i in range(1, f.order):
        assert (f.order - 1) % mult_order(f.from_int(i)) == 0


def test_find_root_of_unity():
    assert find_root_of_unity(5, 1, 4).to_int() == 2
    assert find_root_of_unity(3, 1, 2).to_int() == 2
    with pytest.raises(NoSuchRoot):
        find_root_of_unity(5, 1, 3)
    # deterministic across calls
    a = find_root_of_unity(3, 3, 26)
    b = find_root_of_unity(3, 3, 26)
    assert a == b and mult_order(a) == 26


def test_sqrt_of_minus_one():
    assert sqrt_of_minus_one(5, 1).to_int() == 2
    assert sqrt_of_minus_one(3, 1) is None
    assert sqrt_of_minus_one(13, 1).to_int() == 5
    s = sqrt_of_minus_one(3, 2)    # 9 = 1 (mod 4): exists in GF(9)
    assert s is not None and (s * s) == -get_field(3, 2).one


# every design with odd p <= 31 and p^m <= 2000, N = 1 included: 314 of them
ROOT_GRID = design_grid(max_p=32, max_q=2000, max_n=2000, min_n=1)


def test_root_search_matches_the_canonical_scan_over_the_grid():
    assert len(ROOT_GRID) == 314
    for p, m, N in ROOT_GRID:
        assert find_root_of_unity(p, m, N) == support.scan_root_of_unity(p, m, N), (p, m, N)


def test_sqrt_of_minus_one_matches_the_canonical_scan_over_the_grid():
    fields = sorted({(p, m) for p, m, _ in ROOT_GRID})
    assert sum(p**m % 4 == 1 for p, m in fields) == 18
    for p, m in fields:
        assert sqrt_of_minus_one(p, m) == support.scan_sqrt_of_minus_one(p, m), (p, m)


@pytest.mark.parametrize("p,m,N", [(101, 3, 1030300), (7, 7, 823542)])
def test_root_search_at_the_largest_n_matches_the_scan_within_half_the_design_budget(p, m, N):
    find_root_of_unity.cache_clear()
    tracemalloc.start()
    try:
        zeta = find_root_of_unity(p, m, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < DESIGN_BUDGET_BYTES // 2
    assert zeta == support.scan_root_of_unity(p, m, N)
    assert sqrt_of_minus_one(p, m) == support.scan_sqrt_of_minus_one(p, m)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 3), (7, 2), (3, 12)])
def test_powers_match_repeated_multiplication(p, m):
    field = get_field(p, m)
    rng = np.random.default_rng(p * m)
    for x in [field.zero, field.one] + [field.element(c) for c in rng.integers(0, p, (4, m))]:
        expected, acc = [], field.one
        for _ in range(40):
            expected.append(acc.coeffs)
            acc = acc * x
        for n in (0, 1, 2, 3, 17, 40):
            pows = field.powers(x.coeffs, n)
            assert pows.dtype == np.int64 and pows.shape == (n, m)
            assert pows.tolist() == [list(c) for c in expected[:n]]


@pytest.mark.parametrize("p,m,N", [(3, 12, 7), (3, 12, 80), (3, 12, 13), (5, 8, 13)])
def test_params_create_is_fast_cold_at_the_slow_corners(p, m, N):
    # a root that lies in a small subfield sits deep in the canonical scan
    # order; enumerating the N-th roots of unity does not depend on where
    find_root_of_unity.cache_clear()
    get_field.cache_clear()
    start = time.perf_counter()
    params = SystemParams.create(p, m, N)
    assert time.perf_counter() - start < 1.0
    assert mult_order(params.zeta_elem) == N


def test_centered():
    assert [centered(v, 5) for v in range(5)] == [0, 1, 2, -2, -1]
    assert centered(6, 5) == 1


def test_canonical_text():
    ring = gaussian_ring(get_field(5, 1))
    assert str(ring.element(3, 4)) == "3+4j"
    assert str(ring.element(0, 3)) == "3j"
    assert str(ring.element(2, 0)) == "2"
    ring27 = gaussian_ring(get_field(3, 3))
    z = ring27.from_coeffs((1, 0, 2), (0, 1, 1))
    assert str(z) == "1,0,2+0,1,1j"


def test_params_validation():
    with pytest.raises(InvalidParams):
        SystemParams.create(5, 1, 5)          # 5 does not divide 4
    with pytest.raises(InvalidParams):
        SystemParams.create(4, 1, 3)          # 4 not prime
    with pytest.raises(InvalidParams):
        SystemParams.create(2, 3, 7)          # characteristic 2 out of scope
    with pytest.raises(InvalidParams):
        SystemParams.create(5, 1, 4, zeta=4)  # order(4) = 2, not 4
    with pytest.raises(InvalidParams):
        SystemParams.create(3, 3, 26, poly=(1, 0, 0, 1))  # reducible
    p = SystemParams.create(5, 1, 4, zeta=3)  # 3 also has order 4
    assert p.zeta == (3,)


def test_params_create_refuses_a_zeta_from_another_field():
    # (0, 2, 0) has order 26 mod x^3 + 2x + 2, but 13 in the default field
    # of (3, 3, 26), mod x^3 + 2x + 1, where no round trip would succeed
    zeta = get_field(3, 3, (2, 2, 0, 1)).element((0, 2, 0))
    assert mult_order(zeta) == 26
    assert mult_order(SystemParams.create(3, 3, 26).field.element((0, 2, 0))) == 13
    with pytest.raises(InvalidParams, match=r"mod \(2, 2, 0, 1\), not of the design's "
                                            r"GF\(3\^3\) mod \(1, 2, 0, 1\)$"):
        SystemParams.create(3, 3, 26, zeta=zeta)
    with pytest.raises(InvalidParams, match="does not have order 26"):
        SystemParams.create(3, 3, 26, zeta=(0, 2, 0))
    assert SystemParams.create(3, 3, 26, poly=(2, 2, 0, 1), zeta=zeta).zeta == (0, 2, 0)


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_params_create_small(p, m, N):
    params = SystemParams.create(p, m, N)
    assert mult_order(params.zeta_elem) == N
    assert (params.q - 1) % N == 0


def test_small_caches_stay_bounded_and_equal_across_eviction():
    caches = (get_field, gaussian_ring, find_root_of_unity, cosets.fourier_cosets,
              cosets.hartley_cosets, trig._cas_by_product)
    field = get_field(3, 3)
    x = field.element((1, 2, 0))
    params = SystemParams.create(3, 3, 26)
    cas = trig._cas_by_product(params)
    table = cosets.hartley_cosets(26, 3)
    # more than 64 designs and more than 64 fields
    grid = design_grid()
    assert len(grid) > 64
    for p, m, N in grid:
        sweep = SystemParams.create(p, m, N)
        gaussian_ring(sweep.field)
        cosets.fourier_cosets(N, p)
        cosets.hartley_cosets(N, p)
        trig._cas_by_product(sweep)
    primes = [p for p in range(3, 252, 2) if is_prime(p)]
    assert 2 * len(primes) > 64
    for p in primes:
        for m in (1, 2):
            gaussian_ring(get_field(p, m))
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 64 and info.currsize <= 64, cache
    again = get_field(3, 3)
    assert again is not field and again == field
    y = again.element((1, 2, 0))
    assert y == x and y * y == x * x and (y * y).coeffs == (x * x).coeffs
    assert np.array_equal(again.x_power_matrices, field.x_power_matrices)
    assert trig._cas_by_product(SystemParams.create(3, 3, 26)) == cas
    assert cosets.hartley_cosets(26, 3) == table


@pytest.mark.parametrize("p,m", [(3, 1), (5, 2), (3, 5), (7, 3), (3, 12), (7, 7), (251, 2)])
def test_mul_matrices_match_the_element_product(p, m):
    field = get_field(p, m)
    rng = np.random.default_rng(p * m)
    values = rng.integers(0, p, size=(6, m))
    for a, M in zip(values, field.mul_matrices(values)):
        assert np.array_equal(M, support.mul_matrix(field.element(a)))
    assert np.array_equal(frobenius_matrix(field), support.frobenius_matrix(field))

import importlib
import pkgutil
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (InvalidParams, NonInvertible, NoSuchRoot, NotAUnit, SystemParams,
                   centered, find_root_of_unity, gaussian_ring, get_field,
                   mult_order, sqrt_of_minus_one)
import gdmux
from gdmux import Kind, cosets, fields, transforms, trig
from gdmux.fields import (MAX_FIELD_SIZE, ExtField, is_prime, poly_is_irreducible,
                          smallest_irreducible)
from gdmux.transforms import DESIGN_BUDGET_BYTES, design

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
    f27 = get_field(3, 3)
    assert mult_order(f27.element((0, 1, 0))) == 26    # x generates GF(27)*
    assert mult_order(f27.element((0, 0, 1))) == 13    # x^2
    assert mult_order(-f27.one) == 2
    with pytest.raises(TypeError):   # j has order 4 in GI(3), which does not divide 3 - 1
        mult_order(gaussian_ring(get_field(3, 1)).j)


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


@pytest.mark.parametrize("p,m,poly", [(3, 3, (2, 2, 0, 1)), (7, 2, (3, 1, 1))])
def test_root_search_matches_the_canonical_scan_under_other_polynomials(p, m, poly):
    assert poly != smallest_irreducible(p, m) and poly_is_irreducible(poly, p)
    field = get_field(p, m, poly)
    for N in cosets.divisors(p ** m - 1):
        zeta = find_root_of_unity(p, m, N, poly)
        assert zeta.field == field and zeta == support.scan_root_of_unity(p, m, N, poly), N
    # the field's generator is the first element of order q - 1 in canonical order
    g = field.element(field.primitive)
    assert mult_order(g) == p ** m - 1
    assert all(mult_order(field.from_int(i)) < p ** m - 1 for i in range(1, g.to_int()))


@pytest.mark.parametrize("p,m,poly", [(3, 3, (2, 2, 0, 1)), (3, 6, None)])
def test_root_search_does_not_depend_on_the_order_of_the_searches(p, m, poly):
    # the generator is found once per field; cold field and root caches, then
    # the divisors of q - 1 in ascending and in descending order
    Ns = cosets.divisors(p ** m - 1)
    zetas = []
    for order in (Ns, Ns[::-1]):
        get_field.cache_clear()
        fields._root_table.cache_clear()
        zetas.append({N: find_root_of_unity(p, m, N, poly).coeffs for N in order})
    assert zetas[0] == zetas[1]
    assert zetas[0] == {N: support.scan_root_of_unity(p, m, N, poly).coeffs for N in Ns}


@pytest.mark.parametrize("p,m,N", [(101, 3, 1030300), (7, 7, 823542)])
def test_root_search_at_the_largest_n_matches_the_scan_within_half_the_design_budget(p, m, N):
    fields._root_table.cache_clear()
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


@pytest.mark.parametrize("p,m", [(5, 1), (3, 3), (7, 2), (3, 6), (251, 2)])
def test_power_table_and_frobenius_forms_match_element_arithmetic(p, m):
    field = get_field(p, m)
    rng = np.random.default_rng(p + m)
    xs = rng.integers(0, p, (3, m))
    exponents = [0, 1, 2, p, field.order - 2, field.order - 1, 3 * field.order]
    table = field.power_table(xs, exponents)
    assert table.shape == (3, len(exponents), m)
    for x, row in zip(xs, table):
        x = field.element(x)
        assert [tuple(r) for r in row.tolist()] == [(x ** e).coeffs for e in exponents]
        # F^t a = a^(p^t); row t - 1 of trace_forms reads coefficient 0 of a + ... + a^(p^(t-1))
        for t in range(m):
            assert tuple(field.frobenius_powers[t] @ x.coeffs % p) == (x ** p ** t).coeffs
        for t in range(1, 2 * m + 1):
            total = sum((x ** p ** s for s in range(t)), field.zero)
            assert field.trace_forms[t - 1] @ x.coeffs % p == total.coeffs[0]
    assert not field.trace_forms.flags.writeable and not field.frobenius_powers.flags.writeable


@pytest.mark.parametrize("p,m,N", [(3, 12, 7), (3, 12, 80), (3, 12, 13), (5, 8, 13)])
def test_params_create_is_fast_cold_at_the_slow_corners(p, m, N):
    # a root that lies in a small subfield sits deep in the canonical scan
    # order; enumerating the N-th roots of unity does not depend on where
    fields._root_table.cache_clear()
    get_field.cache_clear()
    start = time.perf_counter()
    params = SystemParams.create(p, m, N)
    assert time.perf_counter() - start < 1.0
    assert mult_order(params.zeta_elem) == N


def test_centered():
    assert [centered(v, 5) for v in range(5)] == [0, 1, 2, -2, -1]
    assert centered(6, 5) == 1


def test_centered_works_elementwise_on_int_arrays():
    values = np.arange(-12, 13).reshape(5, 5)
    got = centered(values, 5)
    assert got.dtype == np.int64 and got.shape == (5, 5)
    assert got.tolist() == [[centered(int(v), 5) for v in row] for row in values]


def test_is_prime():
    assert [n for n in range(-3, 40) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_out_of_scope_fields_are_refused_before_any_large_work(monkeypatch):
    # primality is tested only for p <= MAX_PRIME: 10^18 + 3 would take
    # trial division up to 10^9 before the bound was checked
    def no_primality(n):
        raise AssertionError(f"is_prime({n}) called")
    monkeypatch.setattr(fields, "is_prime", no_primality)
    with pytest.raises(InvalidParams, match=r"^p must be <= 251, got 1000000000000000003$"):
        ExtField(10 ** 18 + 3, 1)
    monkeypatch.undo()
    # m is bounded before p^m is computed, and the message does not print p^m
    for m in (13, 21, 100_000):
        start = time.perf_counter()
        with pytest.raises(InvalidParams, match=rf"^p\^m must be <= {MAX_FIELD_SIZE}, got 3\^{m}$"):
            ExtField(3, m)
        assert time.perf_counter() - start < 0.5


def test_canonical_text():
    ring = gaussian_ring(get_field(5, 1))
    assert str(ring.element(3, 4)) == "3+4j"
    assert str(ring.element(0, 3)) == "3j"
    assert str(ring.element(2, 0)) == "2"
    ring27 = gaussian_ring(get_field(3, 3))
    z = ring27.element(ring27.field.element((1, 0, 2)), ring27.field.element((0, 1, 1)))
    assert str(z) == "1,0,2+0,1,1j"


def test_params_validation():
    with pytest.raises(InvalidParams):
        SystemParams.create(5, 1, 5)          # 5 does not divide 4
    with pytest.raises(InvalidParams):
        SystemParams.create(4, 1, 3)          # 4 not prime
    with pytest.raises(InvalidParams):
        SystemParams.create(2, 3, 7)          # characteristic 2 out of scope
    with pytest.raises(InvalidParams):
        SystemParams.create(3, 3, 26, poly=(1, 0, 0, 1))  # reducible


def test_params_zeta_is_the_root_the_header_fields_imply():
    # a GDM1 header names (p, m, N, poly) and not zeta, so zeta is no
    # argument of create: a frame muxed under another root of order N
    # demuxed, from its header, to wrong symbols
    with pytest.raises(TypeError):
        SystemParams.create(5, 1, 4, zeta=3)
    for p, m, N, poly in [(5, 1, 4, None), (3, 3, 26, None), (3, 3, 26, (2, 2, 0, 1)),
                          (7, 2, 48, None), (3, 4, 80, None)]:
        params = SystemParams.create(p, m, N, poly=poly)
        assert params.zeta == find_root_of_unity(p, m, N, params.poly).coeffs
    assert SystemParams.create(5, 1, 4).zeta == (2,)
    assert SystemParams.create(3, 3, 26, poly=(2, 2, 0, 1)).zeta == (0, 2, 0)


def test_params_constructor_derives_zeta_as_create_does():
    # SystemParams(p=5, m=1, N=4, poly=(0, 1), zeta=(3,)) once muxed
    # (4, 0, 1, 2) to a frame its header demuxed to (4, 2, 1, 0)
    with pytest.raises(TypeError):
        SystemParams(p=5, m=1, N=4, poly=(0, 1), zeta=(3,))
    for p, m, N, poly in [(5, 1, 4, None), (5, 1, 4, (0, 1)), (3, 3, 26, None),
                          (3, 3, 26, [2, 2, 0, 1]), (7, 2, 48, None), (3, 4, 80, None)]:
        params = SystemParams(p, m, N, poly)
        assert params == SystemParams.create(p, m, N, poly=poly)
        assert hash(params) == hash(SystemParams.create(p, m, N, poly=poly))
        assert params.zeta == find_root_of_unity(p, m, N, params.poly).coeffs
    for args in [(5, 1, 5), (4, 1, 3), (2, 3, 7), (5, 1, 0), (3, 3, 26, (1, 0, 0, 1))]:
        with pytest.raises(InvalidParams) as direct:
            SystemParams(*args)
        with pytest.raises(InvalidParams) as created:
            SystemParams.create(*args)
        assert (type(direct.value), str(direct.value)) == (type(created.value), str(created.value))


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_params_create_small(p, m, N):
    params = SystemParams.create(p, m, N)
    assert mult_order(params.zeta_elem) == N
    assert (params.q - 1) % N == 0


def test_every_cache_of_the_library_is_bounded():
    # every lru_cache of a gdmux module, found by the cache_info it carries: each holds a
    # value nothing else holds, so a new cache has to be named here
    caches = {}
    for info in pkgutil.iter_modules(gdmux.__path__):
        for value in vars(importlib.import_module(f"gdmux.{info.name}")).values():
            if hasattr(value, "cache_info"):
                caches[value] = f"{value.__module__}.{value.__qualname__}"
    assert set(caches.values()) == {
        "gdmux.fields.get_field", "gdmux.fields._root_table", "gdmux.cosets._orbits",
        "gdmux.trig._cas_by_product", "gdmux.transforms._inverses", "gdmux.transforms.design",
        "gdmux.pipeline.frame_header", "gdmux.cli._parser", "gdmux.cli._subparsers"}
    for cache, name in caches.items():
        assert cache.cache_info().maxsize is not None, name


def test_small_caches_stay_bounded_and_equal_across_eviction():
    caches = {get_field: 64, fields._root_table: 8, cosets._orbits: 128, trig._cas_by_product: 64}
    field = get_field(3, 3)
    x = field.element((1, 2, 0))
    params = SystemParams.create(3, 3, 26)
    cas = trig._cas_by_product(params)
    table = cosets.hartley_cosets(26, 3)
    pows = fields.zeta_powers(params)
    # more than 64 designs, more than 64 fields and more than 128 orbit tables
    grid = design_grid()
    assert len(grid) > 64 and len({(N, p) for p, m, N in grid}) > 64
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
    for cache, maxsize in caches.items():
        info = cache.cache_info()
        assert info.maxsize == maxsize and info.currsize <= maxsize, cache
    again = get_field(3, 3)
    assert again is not field and again == field
    assert again.ring is not field.ring and again.ring == field.ring == gaussian_ring(again)
    y = again.element((1, 2, 0))
    assert y == x and y * y == x * x and (y * y).coeffs == (x * x).coeffs
    assert np.array_equal(again.x_power_matrices, field.x_power_matrices)
    assert trig._cas_by_product(SystemParams.create(3, 3, 26)) == cas
    assert np.array_equal(fields.zeta_powers(SystemParams.create(3, 3, 26)), pows)
    assert cosets.hartley_cosets(26, 3) == table


def test_zeta_powers_are_the_powers_of_zeta():
    # the grid under the default polynomial and under one other polynomial per field
    other = {(p, m): support.other_irreducible(p, m) for p, m, _ in design_grid()}
    designs = [(p, m, N, None) for p, m, N in design_grid()]
    designs += [(p, m, N, other[p, m]) for p, m, N in design_grid()]
    designs += [(3, 7, 2186, None), (3, 8, 3280, None)]
    for p, m, N, poly in designs:
        params = SystemParams.create(p, m, N, poly)
        got = fields.zeta_powers(params)
        assert got.dtype == np.uint8, (p, m, N, poly)
        assert np.array_equal(got, support.zeta_powers_by_powers(params)), (p, m, N, poly)


def test_a_cold_design_and_its_carriers_compute_no_power(monkeypatch):
    params = SystemParams.create(5, 4, 78)
    # the field is warm: its generator and Frobenius matrices exist, from another design
    for kind in Kind:
        design(SystemParams.create(5, 4, 16), kind)
    design.cache_clear()
    transforms._inverses.cache_clear()
    trig._cas_by_product.cache_clear()
    calls = []
    powers = ExtField.powers
    monkeypatch.setattr(ExtField, "powers",
                        lambda self, x, n: calls.append(n) or powers(self, x, n))
    for kind in Kind:
        design(params, kind)
    assert len(list(trig.carrier_lines(params))) == params.N
    assert calls == []


def test_the_root_table_keeps_uint8_rows_and_evicts_at_its_maxsize():
    p, m, N = 3, 12, 531440
    get_field(p, m).primitive           # a warm field: the root search adds only its entry
    fields._root_table.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        params = SystemParams.create(p, m, N)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mult_order(params.zeta_elem) == N
    # uint8 rows keep N*m bytes; int64 rows would keep 8*N*m
    assert kept <= 1.25 * N * m
    fields._root_table.cache_clear()
    designs = [(3, 3, N) for N in (2, 13, 26)] + [(3, 4, N) for N in (2, 4, 5, 8, 10, 16, 20)]
    for design_args in designs:
        SystemParams.create(*design_args)
    info = fields._root_table.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (10, 8, 8)
    SystemParams.create(*designs[0])
    assert fields._root_table.cache_info().misses == 11
    SystemParams.create(*designs[-1])
    assert fields._root_table.cache_info().misses == 11


@pytest.mark.parametrize("p,m", [(3, 1), (5, 2), (3, 5), (7, 3), (3, 12), (7, 7), (251, 2)])
def test_mul_matrices_match_the_element_product(p, m):
    field = get_field(p, m)
    rng = np.random.default_rng(p * m)
    values = rng.integers(0, p, size=(6, m))
    for a, M in zip(values, field.mul_matrices(values)):
        assert np.array_equal(M, support.mul_matrix(field.element(a)))
    assert np.array_equal(field.frobenius_matrix, support.frobenius_matrix(field))

import math
from fractions import Fraction

import pytest

import gdmux
from gdmux import (Kind, NotCoprime, approx_nu, count_irreducibles, coset_table,
                   fourier_cosets, hartley_cosets, moebius, nu_g_formula,
                   nu_h_formula, transforms)

FOURIER_26_3 = [
    (0,), (1, 3, 9), (2, 6, 18), (4, 12, 10), (5, 15, 19),
    (7, 21, 11), (8, 24, 20), (13,), (14, 16, 22), (17, 25, 23),
]

HARTLEY_26_3_SETS = [
    {0}, {1, 23, 9, 25, 3, 17}, {2, 6, 18, 8, 24, 20},
    {4, 14, 10, 22, 12, 16}, {5, 11, 19, 21, 15, 7}, {13},
]


def test_fourier_cosets_26_3():
    t = fourier_cosets(26, 3)
    assert t.nu == 10
    assert list(t.cosets) == FOURIER_26_3
    assert t.leaders == (0, 1, 2, 4, 5, 7, 8, 13, 14, 17)


def test_hartley_cosets_26_3():
    t = hartley_cosets(26, 3)
    assert t.nu == 6
    assert [set(c) for c in t.cosets] == HARTLEY_26_3_SETS
    # walk order from the leader
    assert t.cosets[1] == (1, 23, 9, 25, 3, 17)
    assert t.cosets[3] == (4, 14, 10, 22, 12, 16)
    assert t.cosets[4] == (5, 11, 19, 21, 15, 7)
    assert t.cosets[5] == (13,)


def test_cosets_4_5():
    assert fourier_cosets(4, 5).cosets == ((0,), (1,), (2,), (3,))
    assert hartley_cosets(4, 5).cosets == ((0,), (1, 3), (2,))


def test_kind_normalises_any_case_and_refuses_the_rest():
    assert gdmux.Kind is transforms.Kind is Kind
    assert Kind("HARTLEY") is Kind.HARTLEY
    assert Kind("Fourier") is Kind.FOURIER
    assert Kind(Kind.HARTLEY) is Kind.HARTLEY
    for bad in ("foo", 3, None, ""):
        with pytest.raises(ValueError, match="not a valid Kind"):
            Kind(bad)
        with pytest.raises(ValueError, match="not a valid Kind"):
            coset_table(26, 3, bad)


@pytest.mark.parametrize("kind,step", [(Kind.FOURIER, 3), (Kind.HARTLEY, 23)])
def test_table_holds_its_kind_and_step(kind, step):
    t = coset_table(26, 3, kind.value.upper())
    assert t is coset_table(26, 3, kind)
    assert t.kind is kind and t.kind == kind.value and str(t.kind) == kind.value
    assert t.step == step
    assert all(c[(i + 1) % len(c)] == step * c[i] % 26 for c in t.cosets for i in range(len(c)))
    assert coset_table(1, 3, kind).step == 0


def test_trivial_length_one():
    assert fourier_cosets(1, 7).cosets == ((0,),)
    assert hartley_cosets(1, 7).cosets == ((0,),)


def test_not_coprime():
    with pytest.raises(NotCoprime):
        fourier_cosets(26, 13)
    with pytest.raises(NotCoprime):
        hartley_cosets(9, 3)


def test_format_lines():
    lines = hartley_cosets(26, 3).format_lines()
    assert lines[0] == "C0=(0)"
    assert lines[1] == "C1=(1,23,9,25,3,17)"
    assert lines[5] == "C13=(13)"


def test_moebius():
    assert moebius(1) == 1
    assert moebius(2) == -1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_count_irreducibles():
    assert count_irreducibles(3, 3) == 8      # (27 - 3) / 3
    assert count_irreducibles(2, 3) == 3
    for p in (3, 5, 7, 11):
        assert count_irreducibles(1, p) == p


def test_nu_g_formula_examples():
    assert nu_g_formula(3, 3) == 10
    assert nu_g_formula(5, 1) == 4
    assert nu_g_formula(3, 1) == 2


def test_nu_g_formula_matches_brute_force():
    for p in (3, 5, 7, 11, 13):
        for m in (1, 2, 3, 4):
            q = p**m
            if q > 3000:
                continue
            assert nu_g_formula(p, m) == fourier_cosets(q - 1, p).nu, (p, m)


def test_nu_h_formula_examples():
    assert nu_h_formula(10, 26) == 6
    assert nu_h_formula(4, 4) == 3
    assert nu_h_formula(2, 2) == 2


def test_nu_h_formula_outside_its_domain():
    # N = 3, p = 7: brute force gives 2 cosets but the clustering formula 3;
    # brute force stays authoritative for pipeline behavior
    assert hartley_cosets(3, 7).nu == 2
    assert nu_h_formula(fourier_cosets(3, 7).nu, 3) == 3
    # and it can even be non-integral
    assert nu_h_formula(5, 4) == Fraction(7, 2)


def test_approx_nu():
    assert approx_nu(26, 3) == (9, 6)
    assert approx_nu(4, 1) == (4, 3)
    assert approx_nu(2, 1) == (2, 2)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("kind", ["fourier", "hartley"])
def test_partition_property(p, kind):
    for N in range(1, 61):
        if math.gcd(N, p) != 1:
            continue
        t = coset_table(N, p, kind)
        seen = [x for c in t.cosets for x in c]
        assert sorted(seen) == list(range(N))
        assert t.cosets[0] == (0,)
        assert 1 <= t.nu <= N
        assert all(c[0] == min(c) for c in t.cosets)
        assert t.leaders == tuple(sorted(t.leaders))


def test_fourier_orbit_sizes_divide_m():
    for p, m in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)]:
        t = fourier_cosets(p**m - 1, p)
        for c in t.cosets:
            assert m % len(c) == 0, (p, m, c)


def _order_mod(p, N):
    t, x = 1, p % N
    while x != 1:
        x = x * p % N
        t += 1
    return t


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_reciprocal_clustering_for_odd_order(p):
    # each Hartley coset is C union -C of a Fourier coset whenever the
    # order of p mod N is odd (then <-p> contains p)
    for N in range(2, 61):
        if math.gcd(N, p) != 1 or _order_mod(p, N) % 2 == 0:
            continue
        fsets = [set(c) for c in fourier_cosets(N, p).cosets]
        for h in hartley_cosets(N, p).cosets:
            parts = [f for f in fsets if f & set(h)]
            assert set().union(*parts) == set(h)
            assert len(parts) <= 2


def test_reciprocal_clustering_counterexample_48_7():
    # ord(7 mod 48) = 2 is even; the Hartley orbit of 1 is {1, 41}, a proper
    # subset of the two Fourier orbits {1, 7} and {41, 47} it touches
    f = fourier_cosets(48, 7)
    h = hartley_cosets(48, 7)
    assert (1, 41) in h.cosets
    assert {1, 7} in [set(c) for c in f.cosets]
    assert not any(set(hc) == {1, 7, 41, 47} for hc in h.cosets)
    # and here Hartley compresses WORSE than Fourier
    assert h.nu == 28 and f.nu == 27

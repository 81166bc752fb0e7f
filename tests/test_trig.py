from collections import Counter

import numpy as np
import pytest

from gdmux import (GdmError, NoRationalization, SystemParams, carrier, carrier_matrix, cas,
                   rationalize_walsh)

from gdmux.trig import carrier_lines

from support import SMALL_SYSTEMS, design_grid, make, outcome_of, rationalize_by_elements

CAS_GI5 = [
    ["1", "1", "1", "1"],
    ["1", "3j", "4", "2j"],
    ["1", "4", "1", "4"],
    ["1", "2j", "4", "3j"],
]


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


def test_cas_table_golden(p514):
    got = [[str(cas(i, k, p514)) for k in range(4)] for i in range(4)]
    assert got == CAS_GI5


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS + [(7, 2, 48), (11, 2, 40)])
def test_carrier_lines_print_the_carrier_matrix(p, m, N):
    # `gdmux carriers` formatted every one of the N^2 values of the matrix
    params = make(p, m, N)
    assert list(carrier_lines(params)) == [" ".join(str(z) for z in row.samples)
                                           for row in carrier_matrix(params).rows]


def test_cas_from_first_principles(p514):
    # independent recomputation from integer powers of zeta (m = 1)
    p, N, z = 5, 4, 2
    inv2 = pow(2, p - 2, p)
    for i in range(N):
        for k in range(N):
            t = (i * k) % N
            fwd, rev = pow(z, t, p), pow(z, (N - t) % N, p)
            re = (fwd + rev) * inv2 % p
            im = (rev - fwd) * inv2 % p
            got = cas(i, k, p514)
            assert got.re.to_int() == re and got.im.to_int() == im


def test_identity_row_and_first_sample(p514):
    row0 = carrier(0, p514)
    assert all(z == p514.ring.one for z in row0.samples)
    for i in range(4):
        assert carrier(i, p514).samples[0] == p514.ring.one


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_symmetry(p, m, N):
    params = make(p, m, N)
    for i in range(N):
        for k in range(N):
            assert cas(i, k, params) == cas(k, i, params)


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_row_orthogonality_and_energy(p, m, N):
    params = make(p, m, N)
    matrix = carrier_matrix(params)
    energy = params.ring.element(N % p)
    for i in range(N):
        for k in range(N):
            ip = sum(a * b for a, b in zip(matrix.rows[i].samples, matrix.rows[k].samples))
            assert ip == (energy if i == k else params.ring.zero)


@pytest.mark.parametrize("p,m,N", [(5, 1, 4), (3, 3, 26), (3, 2, 8)])
def test_column_orthogonality(p, m, N):
    params = make(p, m, N)
    matrix = carrier_matrix(params)
    cols = [[matrix.rows[i].samples[k] for i in range(N)] for k in range(N)]
    energy = params.ring.element(N % p)
    for i in range(N):
        for k in range(N):
            ip = sum(a * b for a, b in zip(cols[i], cols[k]))
            assert ip == (energy if i == k else params.ring.zero)


def test_walsh_degeneration(p514):
    walsh = rationalize_walsh(carrier_matrix(p514))
    assert walsh == [[1, 1, 1, 1],
                     [1, 1, -1, -1],
                     [1, -1, 1, -1],
                     [1, -1, -1, 1]]
    # row-permuted Sylvester Hadamard matrix
    h4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    got = np.array(walsh)
    assert sorted(map(tuple, got)) == sorted(map(tuple, h4))
    assert np.array_equal(got @ got.T, 4 * np.eye(4))


def test_no_rationalization_p3():
    with pytest.raises(NoRationalization):
        rationalize_walsh(carrier_matrix(SystemParams.create(3, 1, 2)))


def test_rationalize_walsh_matches_the_element_loop_over_the_grid():
    # results and messages agree on every design of the grid, extension fields
    # included: (3,2,4) rationalizes, (3,2,8) leaves the prime field, and
    # (3,3,26) has no sqrt(-1), as 27 = 3 (mod 4)
    grid = design_grid(max_q=400, max_n=40)
    extension_outcomes = Counter()
    for p, m, N in grid:
        matrix = carrier_matrix(make(p, m, N))
        results = []
        for fn in (rationalize_walsh, rationalize_by_elements):
            try:
                results.append(("ok", fn(matrix)))
            except GdmError as exc:
                results.append(outcome_of(exc))
        assert results[0] == results[1], (p, m, N)
        status, value = results[0][:2]
        if status == "ok":
            assert {type(v) for row in value for v in row} == {int}
        if m > 1:
            extension_outcomes[status if status == "ok" else value.split(" ")[0]] += 1
    assert len(grid) == 161
    assert extension_outcomes == {"ok": 30, "substituted": 51, "-1": 13}


def test_inner_product_examples(p514):
    c1 = carrier(1, p514).samples
    c2 = carrier(2, p514).samples
    assert sum(a * b for a, b in zip(c1, c2)).is_zero
    zeros = (p514.ring.zero,) * 4
    assert sum(a * b for a, b in zip(zeros, c1)).is_zero


def test_conjugated_form_pairs_reciprocal_rows(p514):
    # regression pin: under sum x_k conj(y_k) rows i and N-i pair up with
    # value N, which is why orthogonality tests use the bilinear form
    c1 = carrier(1, p514).samples
    c3 = carrier(3, p514).samples
    assert sum(a * b.conj() for a, b in zip(c1, c3)) == p514.ring.element(4)
    assert sum(a * b.conj() for a, b in zip(c1, c1)).is_zero
    assert sum(a * b for a, b in zip(c1, c3)).is_zero

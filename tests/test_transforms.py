import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (Kind, NotGroundField, SpectrumBlock, SystemParams, TimeBlock,
                   UnsupportedParams, ffft_forward, ffft_inverse, ffht_forward,
                   ffht_inverse, forward_batch, inverse_batch, inner_product)
from gdmux.pipeline import demux_batch, mux_batch, validate_system
from gdmux.transforms import (DESIGN_BUDGET_BYTES, DESIGN_CACHE_SIZE, _gi_mul_matrix,
                              _kernel, design, design_nbytes, sigma_index, sigma_value,
                              spectrum_to_array)

from support import SMALL_SYSTEMS, forward_definition, make


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


def gi(params, re, im=0):
    return params.ring.element(re, im)


def test_mux_example_spectrum(p514):
    spec = ffht_forward(TimeBlock(p514, (4, 0, 1, 2)))
    assert spec.values == (gi(p514, 2), gi(p514, 3, 4), gi(p514, 3), gi(p514, 3, 1))


def test_hartley_impulse_and_zero(p514):
    assert all(z == p514.ring.one
               for z in ffht_forward(TimeBlock(p514, (1, 0, 0, 0))).values)
    assert all(z.is_zero for z in ffht_forward(TimeBlock(p514, (0, 0, 0, 0))).values)


def test_hartley_inverse_of_known_spectrum(p514):
    spec = SpectrumBlock(p514, Kind.HARTLEY,
                         (gi(p514, 2), gi(p514, 3, 4), gi(p514, 3), gi(p514, 3, 1)))
    assert ffht_inverse(spec).symbols == (4, 0, 1, 2)


def test_all_ones_spectrum_gives_impulse(p514):
    spec = SpectrumBlock(p514, Kind.HARTLEY, (p514.ring.one,) * 4)
    assert ffht_inverse(spec).symbols == (1, 0, 0, 0)


def test_ffft_examples(p514):
    assert all(z.is_zero for z in ffft_forward(TimeBlock(p514, (0, 0, 0, 0))).values)
    assert all(z == p514.ring.one
               for z in ffft_forward(TimeBlock(p514, (1, 0, 0, 0))).values)
    spec = ffft_forward(TimeBlock(p514, (4, 0, 1, 2)))
    assert spec.values[1] == gi(p514, 4)
    # full vector against an independent integer oracle
    brute = [sum(v * pow(2, (i * k) % 4, 5) for i, v in enumerate((4, 0, 1, 2))) % 5
             for k in range(4)]
    assert [z.re.to_int() for z in spec.values] == brute
    assert all(z.im.is_zero for z in spec.values)


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_round_trip_random(p, m, N, kind):
    params = make(p, m, N)
    rng = np.random.default_rng(42)
    vs = rng.integers(0, p, size=(200, N))
    out = inverse_batch(params, kind, forward_batch(params, kind, vs))
    assert np.array_equal(out, vs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(5, 1, 4), (3, 3, 26), (7, 1, 6)]), st.data())
def test_round_trip_scalar(pmn, data):
    params = make(*pmn)
    v = tuple(data.draw(st.integers(0, params.p - 1)) for _ in range(params.N))
    assert ffht_inverse(ffht_forward(TimeBlock(params, v))).symbols == v
    assert ffft_inverse(ffft_forward(TimeBlock(params, v))).symbols == v


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_linearity(kind):
    params = make(3, 3, 26)
    rng = np.random.default_rng(7)
    v, w = rng.integers(0, 3, size=(2, 26))
    for a in range(3):
        for b in range(3):
            lhs = forward_batch(params, kind, ((a * v + b * w) % 3)[None])[0]
            rhs = (a * forward_batch(params, kind, v[None])[0]
                   + b * forward_batch(params, kind, w[None])[0]) % 3
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_fourier_conjugacy(p, m, N):
    params = make(p, m, N)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = TimeBlock(params, tuple(int(x) for x in rng.integers(0, p, N)))
        V = ffft_forward(v).values
        for k in range(N):
            assert V[(p * k) % N] == V[k].frobenius()


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_hartley_conjugacy(p, m, N):
    # universal rule: V[-pk] = a^p - j b^p (conj_frobenius); for
    # p = 3 (mod 4) that map IS frobenius
    params = make(p, m, N)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = TimeBlock(params, tuple(int(x) for x in rng.integers(0, p, N)))
        V = ffht_forward(v).values
        for k in range(N):
            assert V[(-p * k) % N] == V[k].conj_frobenius()
            if p % 4 == 3:
                assert V[(-p * k) % N] == V[k].frobenius()


def test_hartley_frobenius_literal_fails_for_p1mod4(p514):
    # over GI(5) the worked spectrum has V_3 = conj(V_1), yet V_1^5 = V_1
    V = ffht_forward(TimeBlock(p514, (4, 0, 1, 2))).values
    assert V[3] == V[1].conj_frobenius() == V[1].conj()
    assert V[1].frobenius() == V[1]
    assert V[3] != V[1].frobenius()


def test_sigma_maps(p514):
    assert [sigma_index(p514, Kind.FOURIER, k) for k in range(4)] == [0, 1, 2, 3]
    assert [sigma_index(p514, Kind.HARTLEY, k) for k in range(4)] == [0, 3, 2, 1]
    z = p514.ring.element(3, 4)
    assert sigma_value(z, Kind.HARTLEY) == z.conj_frobenius()
    assert sigma_value(z, Kind.FOURIER) == z.frobenius()


@pytest.mark.parametrize("p,m,N", [(5, 1, 4), (3, 3, 26), (7, 1, 6)])
def test_parseval_energy(p, m, N):
    # Hartley: sum_k V_k^2 = N sum_i v_i^2 (bilinear carrier orthogonality);
    # Fourier: the same energy shows up under the index-reversed pairing
    # sum_k V_k V_(-k). The conjugated sesquilinear version of either
    # identity is false in GI(p^m).
    params = make(p, m, N)
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = tuple(int(x) for x in rng.integers(0, p, N))
        rhs = params.ring.element((N * sum(x * x for x in v)) % p)
        H = ffht_forward(TimeBlock(params, v)).values
        assert inner_product(H, H) == rhs
        F = ffft_forward(TimeBlock(params, v)).values
        rev = tuple(F[(N - k) % N] for k in range(N))
        assert inner_product(F, rev) == rhs


def _assert_forward_matches_definition(params, kind, vs):
    # the identity rows pin every matrix entry (forward_batch is linear);
    # the random rows also exercise the mod-p reduction of full sums
    vs = np.vstack([np.eye(params.N, dtype=np.int64), vs])
    got = forward_batch(params, kind, vs)
    for f, values in enumerate(forward_definition(params, kind, vs)):
        assert np.array_equal(got[f], spectrum_to_array(SpectrumBlock(params, kind, values)))


def test_forward_matches_definition_514(p514):
    vs = np.array([(4, 0, 1, 2), (1, 0, 0, 0), (0, 0, 0, 0), (4, 4, 4, 4)])
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        _assert_forward_matches_definition(p514, kind, vs)


def test_forward_matches_definition_3326_sample():
    rng = np.random.default_rng(11)
    _assert_forward_matches_definition(make(3, 3, 26), Kind.HARTLEY,
                                       rng.integers(0, 3, size=(8, 26)))


def test_forward_matches_definition_prime_length():
    rng = np.random.default_rng(12)
    _assert_forward_matches_definition(make(11, 1, 5), Kind.HARTLEY,
                                       rng.integers(0, 11, size=(20, 5)))


def test_forward_matches_definition_7248_both_kinds():
    params = make(7, 2, 48)   # extension field GF(49), composite N = 2^4 * 3
    rng = np.random.default_rng(14)
    vs = rng.integers(0, 7, size=(2, 48))
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        _assert_forward_matches_definition(params, kind, vs)


def test_n2_butterfly():
    params = make(3, 1, 2)
    for v0 in range(3):
        for v1 in range(3):
            got = ffht_forward(TimeBlock(params, (v0, v1))).values
            assert got[0] == params.ring.element((v0 + v1) % 3)
            assert got[1] == params.ring.element((v0 - v1) % 3)


def test_not_ground_field(p514):
    # a spectrum violating the conjugacy constraint cannot invert into GF(p)
    bad = SpectrumBlock(p514, Kind.HARTLEY,
                        (p514.ring.zero, p514.ring.one, p514.ring.zero, p514.ring.zero))
    with pytest.raises(NotGroundField):
        ffht_inverse(bad)
    badf = SpectrumBlock(p514, Kind.FOURIER,
                         (p514.ring.zero, p514.ring.element(0, 1),
                          p514.ring.zero, p514.ring.zero))
    with pytest.raises(NotGroundField):
        ffft_inverse(badf)


def test_extension_residue_detected():
    params = make(3, 3, 26)
    # inverse of a spectrum with a lone extension-field value at a size-1 coset
    vals = [params.ring.zero] * 26
    vals[13] = params.ring.element(params.field.element((0, 1, 0)), 0)
    with pytest.raises(NotGroundField):
        ffht_inverse(SpectrumBlock(params, Kind.HARTLEY, tuple(vals)))


def test_block_validation(p514):
    with pytest.raises(ValueError):
        TimeBlock(p514, (1, 2, 3))
    with pytest.raises(ValueError):
        TimeBlock(p514, (1, 2, 3, 7))


# ---------------------------------------------------------------------------
# compiled designs
# ---------------------------------------------------------------------------

def _loop_forward(params, kind):
    """Reference forward matrix, one kernel entry at a time."""
    N, m = params.N, params.m
    ker = _kernel(params, kind, inverse=False)
    K = np.empty((N, N, 2, m), dtype=np.int64)
    for k in range(N):
        for i in range(N):
            K[k, i, 0] = ker[(i * k) % N].re.coeffs
            K[k, i, 1] = ker[(i * k) % N].im.coeffs
    return K.transpose(0, 2, 3, 1).reshape(N * 2 * m, N)


def _loop_inverse(params, kind):
    """Reference inverse matrix, one (2m, 2m) block at a time."""
    N, w = params.N, 2 * params.m
    inv_n = params.field.scalar(N).inverse()
    ker = _kernel(params, kind, inverse=True)
    big = np.zeros((N * w, N * w), dtype=np.int64)
    for i in range(N):
        for k in range(N):
            big[i * w:(i + 1) * w, k * w:(k + 1) * w] = _gi_mul_matrix(ker[(i * k) % N] * inv_n)
    return big


@pytest.mark.parametrize("p,m,N", [(3, 1, 2), (5, 1, 4), (13, 1, 12), (3, 3, 26), (7, 2, 48)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_design_matrices_match_loop_builders(p, m, N, kind):
    d = design(make(p, m, N), kind)
    assert np.array_equal(d.forward, _loop_forward(d.params, kind))
    assert np.array_equal(d.inverse, _loop_inverse(d.params, kind))


def test_design_3_5_242_builds_and_round_trips():
    params = make(3, 5, 242)
    d = design(params, Kind.HARTLEY)
    assert d.table.nu == validate_system(params, Kind.HARTLEY).nu
    vs = np.random.default_rng(15).integers(0, 3, size=(1, 242))
    assert np.array_equal(demux_batch(params, Kind.HARTLEY,
                                      mux_batch(params, Kind.HARTLEY, vs)), vs)


def test_design_over_budget_refused_before_allocation():
    params = make(3, 6, 728)   # the dense inverse alone would be 582 MiB
    assert design_nbytes(6, 728) > DESIGN_BUDGET_BYTES
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(UnsupportedParams, match=r"MiB.*256 MiB budget"):
            design(params, Kind.HARTLEY)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    with pytest.raises(UnsupportedParams):
        validate_system(params, Kind.FOURIER)


@pytest.mark.parametrize("p,m,N", [(3, 1, 2), (5, 2, 24), (3, 3, 13), (7, 2, 48), (3, 4, 80)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_design_nbytes_within_prediction(p, m, N, kind):
    d = design(make(p, m, N), kind)
    assert 0 < d.nbytes <= design_nbytes(m, N)
    with pytest.raises(ValueError):
        d.inverse[0, 0] = 1   # shared by every caller, so read-only


def test_design_cache_is_bounded():
    assert 2 * len(SMALL_SYSTEMS) > DESIGN_CACHE_SIZE
    for p, m, N in SMALL_SYSTEMS:
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            design(make(p, m, N), kind)
            assert design.cache_info().currsize <= DESIGN_CACHE_SIZE
    assert design.cache_info().maxsize == DESIGN_CACHE_SIZE

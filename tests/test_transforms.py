import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (Kind, NotGroundField, SpectrumBlock, SystemParams, TimeBlock,
                   UnsupportedParams, ffft_forward, ffft_inverse, ffht_forward,
                   ffht_inverse, forward_batch, inverse_batch, inner_product)
from gdmux import transforms
from gdmux.cosets import coset_table
from gdmux.fields import MAX_PRIME, is_prime
from gdmux.pipeline import demux_batch, mux_batch, validate_system
from gdmux.transforms import (DESIGN_BUDGET_BYTES, DESIGN_CACHE_SIZE, _forward_flat,
                              _inverse_form, _kernel_coeffs, design,
                              design_nbytes, mod_p, sigma_index, sigma_matrix,
                              spectrum_to_array)

import support
from support import (ACCEPT_SYSTEMS, SMALL_SYSTEMS, design_grid, forward_definition, make,
                     outcome)


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


ODD_PRIMES = [p for p in range(3, MAX_PRIME + 1, 2) if is_prime(p)]


def _check_mod_p(x: np.ndarray, p: int):
    got = mod_p(x.astype(np.float64), p)
    assert got.dtype == np.float64
    assert np.array_equal(got.astype(np.int64), x % p), p


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_mod_p_matches_integer_remainder(p):
    # mod_p's domain is [0, 2^52): random values, then the multiples k*p
    # and k*p - 1 where a rounded-up quotient would show, up to 2^52
    rng = np.random.default_rng(p)
    _check_mod_p(rng.integers(0, 2 ** 52, size=20000), p)
    k = np.unique(np.concatenate([np.arange(1, 2000), rng.integers(1, 2 ** 52 // p, size=20000),
                                  2 ** 52 // p - np.arange(2000)]))
    assert (k * p < 2 ** 52).all() and 2 ** 52 // p in k
    _check_mod_p(k * p, p)
    _check_mod_p(k * p - 1, p)
    _check_mod_p(np.array([0, 1, p - 1, p, p + 1, 2 ** 52 - 1]), p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.lists(st.integers(0, 2 ** 52 - 1), min_size=1, max_size=32))
def test_mod_p_matches_integer_remainder_fuzzed(p, xs):
    _check_mod_p(np.array(xs, dtype=np.int64), p)


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_batch_transforms_reduce_out_of_range_input(kind):
    # forward_batch takes symbols, and inverse_batch spectrum coefficients,
    # mod p: their float products need entries in [0, p)
    params = make(3, 3, 26)
    vs = np.random.default_rng(26).integers(0, 3, size=(5, 26))
    odd = vs + 3 * np.array([[-1], [1], [2 ** 61], [-(2 ** 61)], [0]])
    spectra = forward_batch(params, kind, vs)
    assert np.array_equal(forward_batch(params, kind, odd), spectra)
    assert np.array_equal(inverse_batch(params, kind, spectra - 3), vs)
    assert np.array_equal(inverse_batch(params, kind, spectra + 3 * 2 ** 60), vs)


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
    # sigma_matrix applied to the stacked (re, im) coefficients of z gives
    # conj_frobenius(z) for Hartley and frobenius(z) for Fourier
    rng = np.random.default_rng(6)
    for params in (p514, make(3, 3, 26), make(5, 2, 24), make(7, 2, 48)):
        ring, m, p = params.ring, params.m, params.p
        values = (ring.element(3, 4),) + ring.from_array(rng.integers(0, p, size=(8, 2, m)))
        for z in values:
            coeffs = ring.to_array([z]).reshape(2 * m)
            for kind, want in ((Kind.HARTLEY, z.conj_frobenius()), (Kind.FOURIER, z.frobenius())):
                got = sigma_matrix(params, kind) @ coeffs % p
                assert ring.from_array(got.reshape(1, 2, m)) == (want,), (params, kind, z)


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
    ker = support.kernel_definition(params, kind)
    K = np.empty((N, N, 2, m), dtype=np.int64)
    for k in range(N):
        for i in range(N):
            K[k, i, 0] = ker[(i * k) % N].re.coeffs
            K[k, i, 1] = ker[(i * k) % N].im.coeffs
    return K.transpose(0, 2, 3, 1).reshape(N * 2 * m, N)


def _loop_inverse(params, kind):
    """Reference inverse matrix, one (2m, 2m) block at a time."""
    N, w = params.N, 2 * params.m
    blocks = support.inverse_blocks(params, kind)
    big = np.zeros((N * w, N * w), dtype=np.int64)
    for i in range(N):
        for k in range(N):
            big[i * w:(i + 1) * w, k * w:(k + 1) * w] = blocks[(i * k) % N]
    return big


@pytest.mark.parametrize("p,m,N", [(3, 1, 2), (5, 1, 4), (13, 1, 12), (3, 3, 26), (7, 2, 48)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_design_matrices_match_loop_builders(p, m, N, kind):
    params = make(p, m, N)
    assert np.array_equal(_forward_flat(params, kind), _loop_forward(params, kind))
    assert np.array_equal(support.inverse_matrix(params, kind), _loop_inverse(params, kind))


@pytest.mark.parametrize("p,m,N", [(5, 1, 4), (13, 1, 12), (3, 3, 26)])
def test_kernel_builders_accept_string_kind(p, m, N):
    params = make(p, m, N)
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        assert np.array_equal(_kernel_coeffs(params, kind.value), _kernel_coeffs(params, kind))
        assert np.array_equal(_inverse_form(params, kind.value, _kernel_coeffs(params, kind)),
                              support.inverse_blocks(params, kind)[:, 0, :])
        assert np.array_equal(_forward_flat(params, kind.value), _forward_flat(params, kind))
        assert np.array_equal(support.inverse_matrix(params, kind.value),
                              support.inverse_matrix(params, kind))
    assert not np.array_equal(_forward_flat(params, "hartley"), _forward_flat(params, "fourier"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_SYSTEMS), st.sampled_from([Kind.HARTLEY, Kind.FOURIER]), st.data())
def test_inverse_batch_matches_dense_inverse(pmn, kind, data):
    # the leader-space inverse and re-encode give what the dense (2mN)^2
    # inverse gives, values or NotGroundField at the same frame, on the
    # spectra of symbol rows and on those spectra with coefficients changed
    params = make(*pmn)
    p, m, N = pmn
    F = data.draw(st.integers(1, 4), label="frames")
    vs = np.array(data.draw(st.lists(st.integers(0, p - 1), min_size=F * N, max_size=F * N),
                            label="symbols")).reshape(F, N)
    spectra = forward_batch(params, kind, vs)
    flat = spectra.reshape(F, -1)
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        f = data.draw(st.integers(0, F - 1), label="frame")
        c = data.draw(st.integers(0, flat.shape[1] - 1), label="coefficient")
        flat[f, c] = (flat[f, c] + data.draw(st.integers(1, p - 1), label="delta")) % p
    got = outcome(inverse_batch, params, kind, spectra)
    assert got == outcome(support.dense_inverse, params, kind, spectra)
    assert got[0] in ("ok", "NotGroundField")
    if F == 1:   # one spectrum without the batch axis
        assert outcome(inverse_batch, params, kind, spectra[0]) == outcome(
            support.dense_inverse, params, kind, spectra[0])


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_inverse_refuses_a_changed_non_leader_bin(p, m, N, kind):
    # the leader values still re-encode, so only the comparison of their
    # orbit walk with the whole spectrum can refuse these spectra
    params = make(p, m, N)
    table = coset_table(N, p, kind)
    others = sorted(set(range(N)) - set(table.leaders))
    if not others:
        assert table.nu == N        # (5, 1, 4) Fourier: every bin is a leader
        return
    rng = np.random.default_rng(N + p)
    spectra = forward_batch(params, kind, rng.integers(0, p, size=(3, N)))
    for k in others:
        f = k % 3
        bad = spectra.copy()
        part, a = rng.integers(2), rng.integers(m)
        bad[f, k, part, a] = (bad[f, k, part, a] + rng.integers(1, p)) % p
        assert np.array_equal(demux_batch(params, kind, bad[:, table.leaders]),
                              inverse_batch(params, kind, spectra))
        want = ("NotGroundField", f"frame {f}: recovered symbols are not in GF({p})", f)
        assert outcome(support.dense_inverse, params, kind, bad) == want
        assert outcome(inverse_batch, params, kind, bad) == want


@pytest.mark.parametrize("shape", [(3, 48, 4, 1), (3, 96, 2, 1), (3, 24, 2, 4), (3, 48, 2, 1),
                                   (48, 4), (3, 48, 4), (2, 3, 48, 2, 2)])
def test_wrongly_shaped_spectra_refused(shape):
    # (3, 48, 4, 1), (3, 96, 2, 1) and (3, 24, 2, 4) hold as many entries as
    # three (48, 2, 2) spectra, and used to invert to (3, 48) wrong symbols
    params = make(7, 2, 48)
    spectra = np.ones(shape, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^expected 48 spectrum values, got an array of shape"):
        inverse_batch(params, Kind.HARTLEY, spectra)


def test_design_3_5_242_builds_and_round_trips():
    params = make(3, 5, 242)
    d = design(params, Kind.HARTLEY)
    assert d.table.nu == validate_system(params, Kind.HARTLEY).nu
    vs = np.random.default_rng(15).integers(0, 3, size=(1, 242))
    assert np.array_equal(demux_batch(params, Kind.HARTLEY,
                                      mux_batch(params, Kind.HARTLEY, vs)), vs)


def test_design_3_6_728_builds_and_round_trips():
    params = make(3, 6, 728)
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        table = coset_table(728, 3, kind)
        assert design_nbytes(6, 728, table.nu, table.longest) <= DESIGN_BUDGET_BYTES
    vs = np.random.default_rng(16).integers(0, 3, size=(4, 728))
    try:
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            leaders = mux_batch(params, kind, vs)
            assert np.array_equal(demux_batch(params, kind, leaders), vs)
            want = (vs @ _forward_flat(params, kind).T % 3).reshape(4, 728, 2, 6)
            assert np.array_equal(forward_batch(params, kind, vs), want)
    finally:
        design.cache_clear()   # two designs of ~17 MiB each; later tests need neither


def test_design_3_7_2186_builds_and_round_trips():
    params = make(3, 7, 2186)
    vs = np.random.default_rng(19).integers(0, 3, size=(3, 2186))
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        table = coset_table(2186, 3, kind)
        try:
            size = design(params, kind).nbytes
            assert size == design_nbytes(7, 2186, table.nu, table.longest) <= DESIGN_BUDGET_BYTES
            assert np.array_equal(demux_batch(params, kind, mux_batch(params, kind, vs)), vs)
        finally:
            design.cache_clear()   # 74 MiB Hartley, 147 MiB Fourier: hold one at a time


def test_design_over_budget_refused_before_allocation():
    params = make(3, 8, 3280)   # G and D would take about 340 MiB
    table = coset_table(3280, 3, Kind.HARTLEY)
    assert design_nbytes(8, 3280, table.nu, table.longest) > DESIGN_BUDGET_BYTES
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
    with pytest.raises(UnsupportedParams):   # the inverse is the design's D
        inverse_batch(params, Kind.HARTLEY, np.zeros((3280, 2, 8), dtype=np.int64))


@pytest.mark.parametrize("p,m,N", [(3, 1, 2), (5, 2, 24), (3, 3, 13), (7, 2, 48), (3, 4, 80)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_design_nbytes_within_prediction(p, m, N, kind):
    d = design(make(p, m, N), kind)
    assert 0 < d.nbytes == design_nbytes(m, N, d.table.nu, d.table.longest)
    for a in (d.G, d.D, d.sigma_powers, d.walk[None]):
        with pytest.raises(ValueError):
            a[0, 0] = 1   # shared by every caller, so read-only


def test_design_nbytes_exact_over_grid():
    # also: every array the design is compiled from equals its object-based
    # oracle in tests/support.py, built one GaloisInt product at a time
    grid = design_grid()
    assert 2 * len(grid) == 346
    for p, m, N in grid:
        params = make(p, m, N)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            d = design(params, kind)
            case = (p, m, N, kind)
            assert d.nbytes == design_nbytes(m, N, d.table.nu, d.table.longest), case
            sigma = support.sigma_matrix(params, kind)
            assert np.array_equal(sigma_matrix(params, kind), sigma), case
            assert np.array_equal(d.sigma_powers[1], sigma), case
            maps = support.orbit_maps(d.table, sigma, p)
            steps = d.table.longest + 1
            assert len(d.sigma_powers) == steps and len(d.walk) == N + len(maps), case
            for c, (orbit, sigma_t) in enumerate(maps):
                assert np.array_equal(d.sigma_powers[:len(orbit) + 1], sigma_t), case
                # step t of coset c is row c * steps + t of the walk's product
                rows = c * steps + np.arange(len(orbit) + 1)
                assert np.array_equal(d.walk[np.append(orbit, N + c)], rows), case
            blocks = support.inverse_blocks(params, kind)
            assert np.array_equal(_inverse_form(params, kind, _kernel_coeffs(params, kind)),
                                  blocks[:, 0, :]), case
            assert np.array_equal(d.D, support.leader_inverse(params, blocks, maps)), case


def test_design_budget_checks_the_exact_size(monkeypatch):
    params = make(3, 3, 26)
    table = coset_table(26, 3, Kind.HARTLEY)
    size = design_nbytes(3, 26, table.nu, table.longest)
    assert size < design_nbytes(3, 26, 26, table.longest)
    design.cache_clear()
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", size - 1)
    with pytest.raises(UnsupportedParams):
        design(params, Kind.HARTLEY)
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", size)
    assert design(params, Kind.HARTLEY).nbytes == size


def test_design_3_7_1093_fits_the_budget_by_its_coset_count():
    # 32*m*nu*N bytes of G and D, plus the walk and the sigma powers: 18.5
    # and 36.7 MiB; nu = N would take 255.2 MiB, at the edge of the budget
    sizes = {Kind.HARTLEY: 19_374_624, Kind.FOURIER: 38_461_168}
    for kind, size in sizes.items():
        table = coset_table(1093, 3, kind)
        assert design_nbytes(7, 1093, table.nu, table.longest) == size
    assert design_nbytes(7, 1093, 1093, 14) > 6 * max(sizes.values())


def test_design_is_shared_by_every_spelling_of_a_kind():
    params = make(3, 3, 26)
    assert design(params, "hartley") is design(params, Kind.HARTLEY)
    assert design(params, "fourier") is design(params, Kind.FOURIER)
    assert design(params, "Hartley").kind is design(params, "hartley").table.kind is Kind.HARTLEY


def test_design_cache_is_bounded():
    assert 2 * len(SMALL_SYSTEMS) > DESIGN_CACHE_SIZE
    for p, m, N in SMALL_SYSTEMS:
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            design(make(p, m, N), kind)
            assert design.cache_info().currsize <= DESIGN_CACHE_SIZE
    assert design.cache_info().maxsize == DESIGN_CACHE_SIZE

import hashlib
import time
import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (InconsistentFrame, Kind, NotGroundField, SystemParams, TimeBlock,
                   UnsupportedParams, forward_batch, inverse_batch)
from gdmux import cosets, transforms
from gdmux.cosets import CosetTable, coset_table
from gdmux.fields import MAX_PRIME, is_prime
from gdmux.pipeline import (decode_frames, demux_batch, encode_frames, mux_batch, reconstruct_batch,
                            validate_system)
from gdmux.transforms import (DESIGN_BUDGET_BYTES, DESIGN_CACHE_SIZE, _forward_flat,
                              _kernel_coeffs, design,
                              design_nbytes, leader_dtype, mod_p, sigma_matrix)

import support
from support import (ACCEPT_SYSTEMS, SMALL_SYSTEMS, design_grid, forward_definition, make,
                     outcome, scope_designs)


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


def gi(params, re, im=0):
    return params.ring.element(re, im)


def spectrum(params, kind, symbols):
    """forward_batch of one symbol row, as GaloisInt values."""
    return params.ring.from_array(forward_batch(params, kind, np.array(symbols))[0])


def invert(params, kind, values):
    """inverse_batch of one spectrum given as GaloisInt values, as a tuple of symbols."""
    return tuple(inverse_batch(params, kind, params.ring.to_array(values)).tolist())


def test_mux_example_spectrum(p514):
    spec = spectrum(p514, Kind.HARTLEY, (4, 0, 1, 2))
    assert spec == (gi(p514, 2), gi(p514, 3, 4), gi(p514, 3), gi(p514, 3, 1))


def test_hartley_impulse_and_zero(p514):
    assert all(z == p514.ring.one for z in spectrum(p514, Kind.HARTLEY, (1, 0, 0, 0)))
    assert all(z.is_zero for z in spectrum(p514, Kind.HARTLEY, (0, 0, 0, 0)))


def test_hartley_inverse_of_known_spectrum(p514):
    spec = (gi(p514, 2), gi(p514, 3, 4), gi(p514, 3), gi(p514, 3, 1))
    assert invert(p514, Kind.HARTLEY, spec) == (4, 0, 1, 2)


def test_all_ones_spectrum_gives_impulse(p514):
    assert invert(p514, Kind.HARTLEY, (p514.ring.one,) * 4) == (1, 0, 0, 0)


def test_ffft_examples(p514):
    assert all(z.is_zero for z in spectrum(p514, Kind.FOURIER, (0, 0, 0, 0)))
    assert all(z == p514.ring.one for z in spectrum(p514, Kind.FOURIER, (1, 0, 0, 0)))
    spec = spectrum(p514, Kind.FOURIER, (4, 0, 1, 2))
    assert spec[1] == gi(p514, 4)
    # full vector against an independent integer oracle
    brute = [sum(v * pow(2, (i * k) % 4, 5) for i, v in enumerate((4, 0, 1, 2))) % 5
             for k in range(4)]
    assert [z.re.to_int() for z in spec] == brute
    assert all(z.im.is_zero for z in spec)


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_round_trip_random(p, m, N, kind):
    params = make(p, m, N)
    rng = np.random.default_rng(42)
    vs = rng.integers(0, p, size=(200, N))
    out = inverse_batch(params, kind, forward_batch(params, kind, vs))
    assert np.array_equal(out, vs)


ODD_PRIMES = [p for p in range(3, MAX_PRIME + 1, 2) if is_prime(p)]


def _check_mod_p(x: np.ndarray, p: int, dtype=np.float64):
    got = mod_p(x.astype(dtype), p)
    assert got.dtype == dtype
    assert np.array_equal(got.astype(np.int64), x % p), p


def _check_mod_p_domain(p: int, dtype, top: int):
    # random values in [0, top), then the multiples k*p and k*p - 1 where
    # a rounded-up quotient would show, up to top
    rng = np.random.default_rng(p)
    _check_mod_p(rng.integers(0, top, size=20000), p, dtype)
    k = np.unique(np.concatenate([np.arange(1, 2000), rng.integers(1, top // p, size=20000),
                                  top // p - np.arange(2000)]))
    assert (k * p < top).all() and top // p in k
    _check_mod_p(k * p, p, dtype)
    _check_mod_p(k * p - 1, p, dtype)
    _check_mod_p(np.array([0, 1, p - 1, p, p + 1, top - 1]), p, dtype)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_mod_p_matches_integer_remainder(p):
    _check_mod_p_domain(p, np.float64, 2 ** 52)    # mod_p's float64 domain is [0, 2^52)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_mod_p_matches_integer_remainder_in_float32(p):
    _check_mod_p_domain(p, np.float32, 2 ** 24)    # and its float32 domain [0, 2^24)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.lists(st.integers(0, 2 ** 52 - 1), min_size=1, max_size=32))
def test_mod_p_matches_integer_remainder_fuzzed(p, xs):
    _check_mod_p(np.array(xs, dtype=np.int64), p)


NON_INTEGER_INPUT = {"float": lambda shape: np.full(shape, 1.7),
                     "str": lambda shape: np.full(shape, "1"),
                     "object": lambda shape: np.ones(shape, dtype=object)}


@pytest.mark.parametrize("make_input", NON_INTEGER_INPUT.values(), ids=NON_INTEGER_INPUT.keys())
@pytest.mark.parametrize("fn,shape,what", [
    (mux_batch, (2, 26), "26 integer symbols"), (forward_batch, (26,), "26 integer symbols"),
    (demux_batch, (2, 6, 2, 3), "6 integer leader values"),
    (inverse_batch, (26, 2, 3), "26 integer spectrum values"),
], ids=["mux_batch", "forward_batch", "demux_batch", "inverse_batch"])
def test_non_integer_input_is_refused(fn, shape, what, make_input):
    # a float symbol used to be truncated (1.7 muxed as 1) and a string parsed
    a = make_input(shape)
    with pytest.raises(ValueError, match=rf"^expected {what}, got an array of dtype {a.dtype}$"):
        fn(make(3, 3, 26), Kind.HARTLEY, a)


def test_integer_input_of_any_width_is_accepted():
    # every batch map reads its input in the input's own dtype and returns uint8
    params = make(5, 1, 4)
    vs = np.array([[4, 0, 1, 2]])
    want = mux_batch(params, Kind.HARTLEY, vs)
    spectra = forward_batch(params, Kind.HARTLEY, vs)
    for dtype in (np.int8, np.uint8, np.int32, np.int64, np.uint64):
        outs = [(mux_batch(params, Kind.HARTLEY, vs.astype(dtype)), want),
                (forward_batch(params, Kind.HARTLEY, vs.astype(dtype)), spectra),
                (demux_batch(params, Kind.HARTLEY, want.astype(dtype)), vs),
                (reconstruct_batch(params, Kind.HARTLEY, want.astype(dtype)), spectra),
                (inverse_batch(params, Kind.HARTLEY, spectra.astype(dtype)), vs)]
        for got, expect in outs:
            assert got.dtype == np.uint8 and np.array_equal(got, expect), dtype
    assert np.array_equal(mux_batch(params, Kind.HARTLEY, [[4, 0, 1, 2]]), want)
    with pytest.raises(ValueError, match="integer symbols, got an array of dtype float64$"):
        mux_batch(params, Kind.HARTLEY, [[1.7, 0, 0, 0]])


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_int8_input_at_p_251_reads_as_its_int64_value(kind):
    # 251 does not fit int8: NumPy refuses int8 % 251, and -128 read as a
    # uint8 byte is 128, inside [0, 251), where its residue is 123
    params = make(251, 1, 250)
    vs = np.random.default_rng(251).integers(-128, 128, size=(3, 250)).astype(np.int8)
    vs[0, :2] = [-1, -128]
    vs[1, -1] = -128
    for fn in (mux_batch, forward_batch):
        assert np.array_equal(fn(params, kind, vs), fn(params, kind, vs.astype(np.int64) % 251))
    # the int8 cast of a valid frame, negative where a leader is 128 or
    # more, is refused as its int64 copy is, not read as the frame
    leaders = mux_batch(params, kind, vs).astype(np.int8)
    for fn in (demux_batch, reconstruct_batch):
        want = outcome(fn, params, kind, leaders.astype(np.int64))
        assert want[0] == "InconsistentFrame" and outcome(fn, params, kind, leaders) == want


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_a_batch_of_no_frames_maps_to_no_frames(kind):
    # forward_batch, reconstruct_batch and inverse_batch ended in a reshape
    # ValueError on zero frames; mux_batch and demux_batch did not
    params = make(7, 2, 48)
    nu = coset_table(48, 7, kind).nu
    cases = [(mux_batch, (0, 48), (0, nu, 2, 2)), (demux_batch, (0, nu, 2, 2), (0, 48)),
             (forward_batch, (0, 48), (0, 48, 2, 2)), (inverse_batch, (0, 48, 2, 2), (0, 48)),
             (reconstruct_batch, (0, nu, 2, 2), (0, 48, 2, 2))]
    for fn, shape, want in cases:
        out = fn(params, kind, np.zeros(shape, dtype=np.int64))
        assert out.shape == want and out.dtype == np.uint8, fn.__name__


@pytest.mark.parametrize("fn,shape", [
    (mux_batch, (1, 4)), (forward_batch, (4,)), (inverse_batch, (4, 2, 1)),
    (demux_batch, (1, 3, 2, 1)), (reconstruct_batch, (1, 3, 2, 1)),
], ids=["mux_batch", "forward_batch", "inverse_batch", "demux_batch", "reconstruct_batch"])
def test_unsigned_input_at_or_above_2_63_reads_as_its_own_value(fn, shape):
    # an int64 cast would wrap 2^64 - 1 to -1, so mux_batch would give the
    # leaders of (4, 0, 0, 0) at (5, 1, 4), not those of the residue (0, 0, 0, 0):
    # maps that take their input mod p take its residue, and demux_batch and
    # reconstruct_batch refuse it as out of range, as they do any entry >= p
    params = make(5, 1, 4)
    top = np.zeros(shape, dtype=np.uint64)
    for value in (2 ** 64 - 1, 2 ** 63, 2 ** 63 - 1):
        top.flat[0] = value
        small = top.copy()
        small.flat[0] = value % 5 if fn in (mux_batch, forward_batch, inverse_batch) else 5
        assert outcome(fn, params, Kind.HARTLEY, top) == outcome(fn, params, Kind.HARTLEY,
                                                                 small.astype(np.int64))


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_batch_transforms_reduce_out_of_range_input(kind):
    # forward_batch takes symbols, and inverse_batch spectrum coefficients,
    # mod p: their float products need entries in [0, p)
    params = make(3, 3, 26)
    vs = np.random.default_rng(26).integers(0, 3, size=(5, 26))
    odd = vs + 3 * np.array([[-1], [1], [2 ** 61], [-(2 ** 61)], [0]])
    spectra = forward_batch(params, kind, vs).astype(np.int64)     # uint8 would wrap below 0
    assert np.array_equal(forward_batch(params, kind, odd), spectra)
    assert np.array_equal(inverse_batch(params, kind, spectra - 3), vs)
    assert np.array_equal(inverse_batch(params, kind, spectra + 3 * 2 ** 60), vs)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(5, 1, 4), (3, 3, 26), (7, 1, 6)]), st.data())
def test_round_trip_scalar(pmn, data):
    params = make(*pmn)
    v = tuple(data.draw(st.integers(0, params.p - 1)) for _ in range(params.N))
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        assert invert(params, kind, spectrum(params, kind, v)) == v


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
    for row in forward_batch(params, Kind.FOURIER, rng.integers(0, p, size=(20, N))):
        V = params.ring.from_array(row)
        for k in range(N):
            assert V[(p * k) % N] == V[k].frobenius()


@pytest.mark.parametrize("p,m,N", SMALL_SYSTEMS)
def test_hartley_conjugacy(p, m, N):
    # universal rule: V[-pk] = a^p - j b^p (conj_frobenius); for
    # p = 3 (mod 4) that map IS frobenius
    params = make(p, m, N)
    rng = np.random.default_rng(4)
    for row in forward_batch(params, Kind.HARTLEY, rng.integers(0, p, size=(20, N))):
        V = params.ring.from_array(row)
        for k in range(N):
            assert V[(-p * k) % N] == V[k].conj_frobenius()
            if p % 4 == 3:
                assert V[(-p * k) % N] == V[k].frobenius()


def test_hartley_frobenius_literal_fails_for_p1mod4(p514):
    # over GI(5) the worked spectrum has V_3 = conj(V_1), yet V_1^5 = V_1
    V = spectrum(p514, Kind.HARTLEY, (4, 0, 1, 2))
    assert V[3] == V[1].conj_frobenius() == V[1].conj()
    assert V[1].frobenius() == V[1]
    assert V[3] != V[1].frobenius()


def test_sigma_maps(p514):
    for kind, want in ((Kind.FOURIER, [0, 1, 2, 3]), (Kind.HARTLEY, [0, 3, 2, 1])):
        assert [coset_table(4, 5, kind).step * k % 4 for k in range(4)] == want
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
        H = spectrum(params, Kind.HARTLEY, v)
        assert sum(a * b for a, b in zip(H, H)) == rhs
        F = spectrum(params, Kind.FOURIER, v)
        rev = tuple(F[(N - k) % N] for k in range(N))
        assert sum(a * b for a, b in zip(F, rev)) == rhs


def _assert_forward_matches_definition(params, kind, vs):
    # the identity rows pin every matrix entry (forward_batch is linear);
    # the random rows also exercise the mod-p reduction of full sums
    vs = np.vstack([np.eye(params.N, dtype=np.int64), vs])
    got = forward_batch(params, kind, vs)
    for f, values in enumerate(forward_definition(params, kind, vs)):
        assert np.array_equal(got[f], params.ring.to_array(values))


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
            got = spectrum(params, Kind.HARTLEY, (v0, v1))
            assert got[0] == params.ring.element((v0 + v1) % 3)
            assert got[1] == params.ring.element((v0 - v1) % 3)


def test_not_ground_field(p514):
    # a spectrum violating the conjugacy constraint cannot invert into GF(p)
    bad = (p514.ring.zero, p514.ring.one, p514.ring.zero, p514.ring.zero)
    with pytest.raises(NotGroundField):
        invert(p514, Kind.HARTLEY, bad)
    badf = (p514.ring.zero, p514.ring.element(0, 1), p514.ring.zero, p514.ring.zero)
    with pytest.raises(NotGroundField):
        invert(p514, Kind.FOURIER, badf)


def test_extension_residue_detected():
    params = make(3, 3, 26)
    # inverse of a spectrum with a lone extension-field value at a size-1 coset
    vals = [params.ring.zero] * 26
    vals[13] = params.ring.element(params.field.element((0, 1, 0)), 0)
    with pytest.raises(NotGroundField):
        invert(params, Kind.HARTLEY, vals)


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


def _walk_outcomes(params, kind, rng):
    """The outputs, as bytes, or errors of forward_batch, reconstruct_batch and inverse_batch on
    random rows with an all-(p - 1) row, and of inverse_batch on a spectrum with a changed bin."""
    p, N, m = params.p, params.N, params.m
    vs = rng.integers(0, p, size=(4, N))
    vs[0] = p - 1
    spectra = forward_batch(params, kind, vs)
    bad = spectra.copy()
    bad[2, rng.integers(N), rng.integers(2), rng.integers(m)] += 1
    bad %= p
    maps = [(forward_batch, vs), (reconstruct_batch, mux_batch(params, kind, vs)),
            (inverse_batch, spectra), (inverse_batch, bad)]
    out = []
    for fn, arg in maps:
        try:
            out.append(fn(params, kind, arg).tobytes())
        except (InconsistentFrame, NotGroundField) as exc:
            out.append(support.outcome_of(exc))
    return out


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_batch_maps_equal_the_two_array_walk_byte_for_byte(monkeypatch, kind):
    # _expand takes each index's step with one flat take of CosetTable.walk_index; the
    # reference gathers it with coset_of and place_of, after a product with sigma_powers' view
    got = [_walk_outcomes(make(*pmn), kind, np.random.default_rng(pmn)) for pmn in design_grid()]
    monkeypatch.setattr(transforms, "_expand", support.two_array_expand)
    want = [_walk_outcomes(make(*pmn), kind, np.random.default_rng(pmn)) for pmn in design_grid()]
    assert got == want
    assert any(isinstance(o[3], tuple) for o in got) and all(isinstance(o[2], bytes) for o in got)


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
        assert design_nbytes(3, 6, 728, table.nu, table.longest) <= DESIGN_BUDGET_BYTES
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
            assert size <= design_nbytes(3, 7, 2186, table.nu, table.longest) <= DESIGN_BUDGET_BYTES
            assert np.array_equal(demux_batch(params, kind, mux_batch(params, kind, vs)), vs)
        finally:
            design.cache_clear()   # 37 MiB Hartley, 73 MiB Fourier: hold one at a time


def test_design_3_8_3280_builds_in_float32_at_about_its_size():
    # 4-byte G and W take at most 170 MiB, where 8-byte ones would be over the budget
    params = make(3, 8, 3280)
    table = coset_table(3280, 3, Kind.HARTLEY)
    size = design_nbytes(3, 8, 3280, table.nu, table.longest)
    assert size <= DESIGN_BUDGET_BYTES < 2 * size
    vs = np.random.default_rng(20).integers(0, 3, size=(4, 3280))
    design.cache_clear()
    tracemalloc.start()
    try:
        d = design(params, Kind.HARTLEY)
        back = demux_batch(params, Kind.HARTLEY, mux_batch(params, Kind.HARTLEY, vs))
        _, peak = tracemalloc.get_traced_memory()
        assert d.G.dtype == d.W.dtype == np.float32 and d.nbytes <= size
        assert d.W.shape[0] == 3280 and d.perm.shape == d.G.shape[1:]
        assert np.array_equal(back, vs)
        assert peak <= 1.2 * size
    finally:
        tracemalloc.stop()
        design.cache_clear()


def test_design_over_budget_refused_before_allocation():
    params = make(3, 8, 6560)   # G and W could take about 668 MiB at 4 bytes an entry
    table = coset_table(6560, 3, Kind.HARTLEY)
    assert design_nbytes(3, 8, 6560, table.nu, table.longest) > DESIGN_BUDGET_BYTES
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
    with pytest.raises(UnsupportedParams):   # the inverse is the design's W
        inverse_batch(params, Kind.HARTLEY, np.zeros((6560, 2, 8), dtype=np.int64))


@pytest.mark.parametrize("p,m,N", [(3, 1, 2), (5, 2, 24), (3, 3, 13), (7, 2, 48), (3, 4, 80)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_design_nbytes_within_prediction(p, m, N, kind):
    d = design(make(p, m, N), kind)
    assert 0 < d.nbytes <= design_nbytes(p, m, N, d.table.nu, d.table.longest)
    assert d.G.dtype == d.W.dtype == leader_dtype(p, m, N) == np.float32
    n = 2 * m * d.table.nu
    assert d.G.shape == (N, n) and d.perm.shape == (n,)
    assert N <= d.W.shape[1] <= n and d.W.shape[0] == N
    for a in (d.G, d.W, d.perm[None], d.sigma_powers):
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
            nu, longest, entry = d.table.nu, d.table.longest, d.G.itemsize
            assert d.nbytes <= design_nbytes(p, m, N, nu, longest), case
            # no larger than the G, left inverse D (n, N) and int64 sigma powers it replaced
            assert d.nbytes < 2 * N * 2 * m * nu * entry + ((longest + 1) * 4 * m * m + N + nu) * 8
            assert d.G.dtype == d.W.dtype == d.sigma_powers.dtype == leader_dtype(p, m, N), case
            n = 2 * m * nu
            assert d.perm.shape == (n,) and sorted(d.perm) == list(range(n)), case
            assert d.W.shape[0] == N and N <= d.W.shape[1] <= n, case
            sigma = support.sigma_matrix(params, kind)
            assert np.array_equal(sigma_matrix(params, kind), sigma), case
            assert np.array_equal(d.sigma_powers[1], sigma), case
            maps = support.orbit_maps(d.table, sigma, p)
            assert len(d.sigma_powers) == d.table.longest + 1 and d.table.nu == len(maps), case
            for c, (orbit, sigma_t) in enumerate(maps):
                assert np.array_equal(d.sigma_powers[:len(orbit) + 1], sigma_t), case
                # step t of coset c is sigma^t of its leader, and the orbit closes at its length
                assert (d.table.coset_of[orbit] == c).all(), case
                assert np.array_equal(d.table.place_of[orbit], np.arange(len(orbit))), case
                assert d.table.lengths[c] == len(orbit), case
            blocks = support.inverse_blocks(params, kind)
            # D_I = E @ D for the object-built left inverse D, E = [I | C | 0] in (I, rest, zero)
            I, rest, _, D_I, C = support.information_set(d)
            E = np.zeros((N, n), dtype=np.int64)
            E[:, I] = np.eye(N, dtype=np.int64)
            E[:, rest] = C
            D = support.leader_inverse(params, blocks, maps)
            assert np.array_equal(E @ D % p, D_I), case


def test_design_budget_checks_the_exact_size(monkeypatch):
    params = make(3, 3, 26)
    table = coset_table(26, 3, Kind.HARTLEY)
    size = design_nbytes(3, 3, 26, table.nu, table.longest)
    assert size < design_nbytes(3, 3, 26, 26, table.longest)
    n = 6 * table.nu
    assert size == 4 * (2 * 26 * n + (table.longest + 1) * 36) + 8 * n
    design.cache_clear()
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", size - 1)
    with pytest.raises(UnsupportedParams):
        design(params, Kind.HARTLEY)
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", size)
    assert design(params, Kind.HARTLEY).nbytes <= size


def test_design_3_7_1093_fits_the_budget_by_its_coset_count():
    # at most 16*m*nu*N bytes of float32 G and W, plus perm and the sigma
    # powers: 9.2 and 18.4 MiB; nu = N would take 127.7 MiB
    sizes = {Kind.HARTLEY: 9_691_472, Kind.FOURIER: 19_243_168}
    for kind, size in sizes.items():
        table = coset_table(1093, 3, kind)
        assert design_nbytes(3, 7, 1093, table.nu, table.longest) == size
    assert design_nbytes(3, 7, 1093, 1093, 14) > 6 * max(sizes.values())


def test_the_budget_builds_7259_and_refuses_1303_designs_of_the_scope():
    # the refusal policy over the declared scope, both kinds: design_nbytes of the coset table
    # against DESIGN_BUDGET_BYTES, with nothing compiled and one field's tables held at a time;
    # refused designs start at N = 2850, and built ones reach N = 5602
    built, refused = [], []
    for _, field in groupby(scope_designs(), key=lambda d: d[:2]):
        for p, m, N in field:
            for kind in (Kind.HARTLEY, Kind.FOURIER):
                table = coset_table(N, p, kind)
                fits = design_nbytes(p, m, N, table.nu, table.longest) <= DESIGN_BUDGET_BYTES
                (built if fits else refused).append((N, p, m, kind))
        cosets._orbits.cache_clear()
    assert (len(built), len(refused)) == (7259, 1303)
    assert min(refused) == (2850, 151, 2, Kind.FOURIER)
    assert max(built) == (5602, 7, 5, Kind.HARTLEY)


def test_information_set_groups_over_grid():
    # design() row-reduces the columns of G coset group by coset group, a
    # group being the cosets of k and -k, of d indices in all, on rows
    # 0..d-1 only: per group those rows are a basis of what all N rows
    # span, so the group ranks are the d and sum to N. The cosets alone do
    # not split G so: at (3, 2, 4) Hartley their ranks sum to more than N.
    grid = design_grid()
    assert 2 * len(grid) == 346
    for p, m, N in grid:
        params = make(p, m, N)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            d = design(params, kind)
            G, w = d.G.astype(np.int64), 2 * m
            ranks = []
            for group in support.coset_groups(d.table):
                cols = np.concatenate([np.arange(c * w, (c + 1) * w) for c in group])
                size = sum(len(d.table.cosets[c]) for c in group)
                ranks.append(support.rank_mod_p(G[:, cols], p))
                assert support.rank_mod_p(G[:size, cols], p) == ranks[-1] == size, (
                    p, m, N, kind, group)
            assert sum(ranks) == N, (p, m, N, kind)
    d = design(make(3, 2, 4), Kind.HARTLEY)
    G = d.G.astype(np.int64)
    assert sum(support.rank_mod_p(G[:, c * 4:(c + 1) * 4], 3) for c in range(d.table.nu)) > 4


SILENT_CORRUPTIONS = {((3, 3, 26), Kind.HARTLEY): (52, 72), ((3, 3, 26), Kind.FOURIER): (52, 120),
                      ((5, 1, 4), Kind.HARTLEY): (16, 24), ((7, 2, 48), Kind.HARTLEY): (36, 672)}


@pytest.mark.parametrize("pmn,kind", list(SILENT_CORRUPTIONS))
def test_silent_corruptions_are_the_zero_rows_of_c(pmn, kind):
    # changing one leader coefficient of a frame gives another frame mux
    # could have produced exactly when it hits a column of I whose row of C
    # is zero: (p - 1) of them per such row. Brute force over every
    # coefficient and every change agrees.
    params = make(*pmn)
    p, N = params.p, params.N
    d = design(params, kind)
    vs = np.random.default_rng(N).integers(0, p, size=N)
    flat = mux_batch(params, kind, vs).reshape(-1)
    silent = 0
    for c in range(len(flat)):
        for delta in range(1, p):
            bad = flat.copy()
            bad[c] = (bad[c] + delta) % p
            try:
                back = demux_batch(params, kind, bad.reshape(d.table.nu, 2, params.m))
            except (InconsistentFrame, NotGroundField):
                continue
            assert not np.array_equal(back, vs)
            silent += 1
    C = support.information_set(d)[4]
    predicted = (p - 1) * int(np.count_nonzero(~C.any(axis=1)))
    assert (silent, (p - 1) * len(flat)) == (predicted, (p - 1) * len(flat)) \
        == SILENT_CORRUPTIONS[pmn, kind]


def _corrupt(draw, frames, p):
    """frames (F, n) with a drawn set of digit changes and out-of-range values."""
    frames = frames.copy()
    for _ in range(draw(st.integers(0, 3))):
        f = draw(st.integers(0, len(frames) - 1))
        c = draw(st.integers(0, frames.shape[1] - 1))
        how = draw(st.sampled_from(["digit", "above", "negative"]))
        if how == "digit":
            frames[f, c] = (frames[f, c] + draw(st.integers(1, p - 1))) % p
        elif how == "above":
            frames[f, c] = draw(st.integers(p, 3 * p))
        else:
            frames[f, c] = -draw(st.integers(1, p))
    return frames


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ACCEPT_SYSTEMS + [(3, 2, 4), (13, 1, 12), (5, 2, 24)]),
       st.sampled_from([Kind.HARTLEY, Kind.FOURIER]), st.data())
def test_demux_and_inverse_accept_what_the_reencode_oracle_accepts(pmn, kind, data):
    # corrupted leader arrays (digit changes, values outside [0, p), batches
    # cut short) give the same values, or the same (class, message,
    # frame_index), as the dense left inverse and the re-encode v @ G == L
    params = make(*pmn)
    p, N = params.p, params.N
    nu = coset_table(N, p, kind).nu
    F = data.draw(st.integers(1, 6))
    vs = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).integers(0, p, (F, N))
    frames = mux_batch(params, kind, vs).reshape(F, -1).astype(np.int64)    # room for -1, 3p
    frames = _corrupt(data.draw, frames, p)[:data.draw(st.integers(0, F))]
    leaders = frames.reshape(-1, nu, 2, params.m)
    assert outcome(demux_batch, params, kind, leaders) == outcome(
        support.reencode_demux, params, kind, leaders)
    # spectra: the orbit walk of clean frames, then the same kind of damage
    spectra = forward_batch(params, kind, vs).reshape(F, -1).astype(np.int64)
    spectra = _corrupt(data.draw, spectra, p)[:data.draw(st.integers(0, F))]
    spectra = spectra.reshape(-1, N, 2, params.m)
    assert outcome(inverse_batch, params, kind, spectra) == outcome(
        support.reencode_inverse, params, kind, spectra)


def test_design_is_shared_by_every_spelling_of_a_kind():
    params = make(3, 3, 26)
    assert design(params, "hartley") is design(params, Kind.HARTLEY)
    assert design(params, "fourier") is design(params, Kind.FOURIER)
    hartley = design(params, "Hartley")
    assert hartley.table.kind is design(params, "hartley").table.kind is Kind.HARTLEY


def test_design_of_any_case_spelling_is_the_kinds_design():
    params = make(5, 2, 24)
    for spelling in ("HARTLEY", "Hartley", "hartley"):
        assert design(params, spelling) is design(params, Kind.HARTLEY)
    assert design(params, "FOURIER") is design(params, Kind.FOURIER)


def test_no_build_wire_or_map_path_forms_the_tuple_view(monkeypatch):
    # design() turned the table's tuples back into arrays, and validate_system scanned them
    # for the longest orbit; only printing and comparing form them now
    def formed(table):
        raise AssertionError(f"the {table.kind} cosets of N = {table.N} were formed as tuples")
    monkeypatch.setattr(CosetTable, "cosets", property(formed))
    cosets._orbits.cache_clear()
    design.cache_clear()
    params = make(3, 4, 80)
    vs = np.random.default_rng(7).integers(0, 3, (5, 80))
    for kind in (Kind.FOURIER, Kind.HARTLEY):
        leaders = mux_batch(params, kind, vs)
        wire = decode_frames(encode_frames(params, kind, leaders), params, kind)
        assert np.array_equal(demux_batch(params, kind, wire), vs)
        spectra = reconstruct_batch(params, kind, leaders)
        assert np.array_equal(inverse_batch(params, kind, spectra), vs)
        # the orbit of 10 is {10, 30} for both kinds; x in its leader's re part leaves GF(9)
        c = design(params, kind).table.leaders.tolist().index(10)
        leaders[2, c, 0, 1] = (leaders[2, c, 0, 1] + 1) % 3
        with pytest.raises(InconsistentFrame, match="^frame 2: orbit of leader 10 does not close"):
            reconstruct_batch(params, kind, leaders)
    with pytest.raises(UnsupportedParams, match="over the 256 MiB budget"):
        validate_system(make(3, 8, 6560), Kind.HARTLEY)


def test_a_kind_and_its_value_take_one_cache_entry():
    # a Kind is a str equal to its value, with the same hash, so the kind as
    # a member and as the lowercase string the CLI passes is one cache key:
    # DESIGN_CACHE_SIZE designs requested in both spellings all stay compiled
    design.cache_clear()
    systems = design_grid()[:DESIGN_CACHE_SIZE]
    assert len(systems) == DESIGN_CACHE_SIZE
    first = [design(make(*pmn), ("hartley", Kind.HARTLEY)[i % 2]) for i, pmn in enumerate(systems)]
    assert design.cache_info().currsize == DESIGN_CACHE_SIZE
    for i, (pmn, d) in enumerate(zip(systems, first)):
        assert design(make(*pmn), (Kind.HARTLEY, "hartley")[i % 2]) is d


def test_design_cache_is_bounded():
    assert 2 * len(SMALL_SYSTEMS) > DESIGN_CACHE_SIZE
    for p, m, N in SMALL_SYSTEMS:
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            design(make(p, m, N), kind)
            assert design.cache_info().currsize <= DESIGN_CACHE_SIZE
    assert design.cache_info().maxsize == DESIGN_CACHE_SIZE


# sha256 over every compiled design of design_grid() plus the four larger
# designs, both kinds: the bytes of G, W, perm as int64, sigma_powers and
# the orbit walk, with zeta, the dtype and the shapes. Any rewrite of the
# build must give the same arrays, so this digest must not change. The
# walk is formed from the coset table as designs once stored it: rows
# c * (L + 1) + t of each index at coset c and place t, then of each
# orbit's end t = len(orbit), L the longest orbit.
DESIGN_DIGEST = "170e02b542fc493ce978b5473aa9cb3635759ea8c7524bfdc674b96670e39dd2"


def design_digest() -> str:
    h = hashlib.sha256()
    for p, m, N in design_grid() + [(3, 4, 80), (5, 3, 124), (3, 5, 242), (3, 6, 728)]:
        params = make(p, m, N)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            d = design(params, kind)
            t, steps = d.table, d.table.longest + 1
            walk = np.concatenate([t.coset_of * steps + t.place_of,
                                   np.arange(t.nu, dtype=np.int32) * steps + t.lengths])
            arrays = (d.G, d.W, d.perm.astype(np.int64), d.sigma_powers, walk)
            h.update(repr((p, m, N, str(kind), params.zeta, str(d.G.dtype),
                           [a.shape for a in arrays])).encode())
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_every_compiled_design_has_its_pinned_digest():
    assert design_digest() == DESIGN_DIGEST

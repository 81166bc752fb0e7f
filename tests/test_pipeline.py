import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gdmux import (BadLength, BadMagic, InconsistentFrame, Kind, ParamMismatch,
                   SystemParams, TimeBlock, capacity_check, crosstalk_probe, demux,
                   deserialize, iter_frames, metrics, mux, reconstruct_spectrum,
                   required_snr, serialize)
from gdmux.pipeline import (CompressedFrame, demux_batch, mux_batch,
                            frame_byte_length, reconstruct_batch, validate_system)
from gdmux.transforms import forward_batch

from support import ACCEPT_SYSTEMS, design_grid, make


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


@pytest.fixture(scope="module")
def p3326():
    return SystemParams.create(3, 3, 26)


def test_mux_example(p514):
    frame = mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY)
    assert [str(z) for z in frame.leaders] == ["2", "3+4j", "3"]


def test_mux_zero_block(p514):
    frame = mux(TimeBlock(p514, (0, 0, 0, 0)), Kind.HARTLEY)
    assert len(frame.leaders) == 3
    assert all(z.is_zero for z in frame.leaders)
    spec = reconstruct_spectrum(frame)
    assert all(z.is_zero for z in spec.values)


def test_frame_length_3326(p3326):
    frame = mux(TimeBlock(p3326, (1,) * 26), Kind.HARTLEY)
    assert len(frame.leaders) == 6
    assert len(mux(TimeBlock(p3326, (1,) * 26), Kind.FOURIER).leaders) == 10


def test_reconstruction_follows_hartley_chain(p514):
    frame = mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY)
    spec = reconstruct_spectrum(frame)
    assert [str(z) for z in spec.values] == ["2", "3+4j", "3", "3+1j"]
    # V_3 is filled from leader V_1 by the Hartley map a^p - j b^p; for
    # p = 1 (mod 4) that is conj(frobenius), NOT the bare p-th power
    v1 = frame.leaders[1]
    assert spec.values[3] == v1.conj_frobenius() == (v1 ** 5).conj()
    assert spec.values[3] != v1 ** 5


def test_reconstruct_compress_identity(p3326):
    rng = np.random.default_rng(2)
    table = validate_system(p3326, Kind.HARTLEY)
    vs = rng.integers(0, 3, size=(1000, 26))
    full = forward_batch(p3326, Kind.HARTLEY, vs)
    rebuilt = reconstruct_batch(p3326, Kind.HARTLEY, full[:, list(table.leaders)])
    assert np.array_equal(rebuilt, full)


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_round_trip_random_batch(p, m, N, kind):
    params = make(p, m, N)
    rng = np.random.default_rng(9)
    vs = rng.integers(0, p, size=(500, N))
    assert np.array_equal(demux_batch(params, kind, mux_batch(params, kind, vs)), vs)


def test_round_trip_exhaustive_514(p514):
    vs = np.array(list(itertools.product(range(5), repeat=4)))
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        assert np.array_equal(demux_batch(p514, kind, mux_batch(p514, kind, vs)), vs)


def test_basis_round_trip_and_conjugacy_closure_over_grid():
    # Every map is GF(p)-linear, so checking the identity basis proves, for
    # all inputs of each design: demux(mux(v)) = v (carrier orthogonality
    # with energy N, and an injective leader map) and reconstruct(mux(v)) =
    # forward(v) (the spectrum is closed under the conjugacy map).
    grid = design_grid()
    assert 2 * len(grid) == 346
    for p, m, N in grid:
        params = make(p, m, N)
        basis = np.eye(N, dtype=np.int64)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            leaders = mux_batch(params, kind, basis)
            assert np.array_equal(demux_batch(params, kind, leaders), basis), (p, m, N, kind)
            assert np.array_equal(reconstruct_batch(params, kind, leaders),
                                  forward_batch(params, kind, basis)), (p, m, N, kind)


def test_scalar_round_trip(p3326):
    rng = np.random.default_rng(13)
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        for _ in range(5):
            v = tuple(int(x) for x in rng.integers(0, 3, 26))
            assert demux(mux(TimeBlock(p3326, v), kind)).symbols == v


def test_inconsistent_frame_detected(p3326):
    good = mux(TimeBlock(p3326, (1, 2) * 13), Kind.HARTLEY)
    # coset {13} has orbit length 1: its value must satisfy a^3 = a, b^3 = -b,
    # i.e. lie in GF(3); an extension element cannot close the orbit
    x = p3326.ring.element(p3326.field.element((0, 1, 0)), 0)
    leaders = list(good.leaders)
    leaders[-1] = x
    bad = CompressedFrame(p3326, Kind.HARTLEY, tuple(leaders))
    with pytest.raises(InconsistentFrame):
        reconstruct_spectrum(bad)
    # same on the DC coset {0}
    leaders = list(good.leaders)
    leaders[0] = p3326.ring.element(0, 1)
    with pytest.raises(InconsistentFrame):
        reconstruct_spectrum(CompressedFrame(p3326, Kind.HARTLEY, tuple(leaders)))


def test_frame_leader_count_checked(p514):
    with pytest.raises(ValueError):
        CompressedFrame(p514, Kind.HARTLEY, (p514.ring.one,) * 4)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_3326(p3326):
    h = metrics(p3326, Kind.HARTLEY)
    assert h.nu == 6
    assert h.gamma_cc == Fraction(13, 3)
    assert h.gain_percent == Fraction(1000, 13)          # 76.923%
    assert h.extra_channels == 20
    assert h.b_gdm_over_b1 == 6
    assert abs(h.eta_gdm - float(Fraction(13, 3)) * math.log2(3)) < 1e-9
    f = metrics(p3326, Kind.FOURIER)
    assert f.gamma_cc == Fraction(13, 5)
    assert float(f.gamma_cc) == 2.6
    assert f.gain_percent == Fraction(800, 13)           # 61.538%
    assert f.extra_channels == 16


def test_metrics_tdm_parity(p514):
    f = metrics(p514, Kind.FOURIER)     # nu = N: no compression
    assert f.gamma_cc == 1
    assert f.gain_percent == 0
    assert f.extra_channels == 0
    assert abs(f.eta_gdm - math.log2(5)) < 1e-12


def test_capacity_check(p3326):
    thr = 3 ** (13 / 3) - 1
    assert abs(required_snr(p3326, Kind.HARTLEY) - thr) / thr < 1e-9
    assert capacity_check(p3326, Kind.HARTLEY, thr * (1 + 1e-9)).admissible
    assert not capacity_check(p3326, Kind.HARTLEY, thr * (1 - 1e-9)).admissible
    zero = capacity_check(p3326, Kind.HARTLEY, 0.0)
    assert zero.gamma_max == 0.0 and not zero.admissible
    # log_3(1 + 8) = 2 < 2.6: Fourier design inadmissible at SNR 8
    chk = capacity_check(p3326, Kind.FOURIER, 8.0)
    assert abs(chk.gamma_max - 2.0) < 1e-12
    assert not chk.admissible
    with pytest.raises(ValueError):
        capacity_check(p3326, Kind.HARTLEY, -1.0)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_serialize_round_trip(p, m, N, kind):
    params = make(p, m, N)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = tuple(int(x) for x in rng.integers(0, p, N))
        frame = mux(TimeBlock(params, v), kind)
        blob = serialize(frame)
        assert len(blob) == frame_byte_length(params, kind)
        back = deserialize(blob, expect=params, expect_kind=kind)
        assert back == frame
        assert demux(back).symbols == v


def test_bad_magic(p514):
    with pytest.raises(BadMagic):
        deserialize(b"")
    with pytest.raises(BadMagic):
        deserialize(b"NOPE" + b"\x00" * 20)


def test_bad_length(p514):
    blob = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    for cut in (6, len(blob) - 1):
        with pytest.raises(BadLength):
            deserialize(blob[:cut])
    with pytest.raises(BadLength):
        deserialize(blob + b"\x00")


def test_param_mismatch(p514, p3326):
    blob = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    with pytest.raises(ParamMismatch):
        deserialize(blob, expect=p3326)
    with pytest.raises(ParamMismatch):
        deserialize(blob, expect=p514, expect_kind=Kind.FOURIER)
    # corrupting the claimed leader count breaks the coset invariant
    bad = bytearray(blob)
    bad[11] = 4
    with pytest.raises(ParamMismatch):
        deserialize(bytes(bad))


def test_out_of_range_coefficient(p514):
    blob = bytearray(serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY)))
    blob[-1] = 9    # >= p
    with pytest.raises(InconsistentFrame):
        deserialize(bytes(blob))


def test_iter_frames_stream(p514):
    frames = [mux(TimeBlock(p514, (i % 5, 0, 1, 2)), Kind.HARTLEY) for i in range(7)]
    blob = b"".join(serialize(f) for f in frames)
    assert list(iter_frames(blob, expect=p514)) == frames
    assert list(iter_frames(b"")) == []


# ---------------------------------------------------------------------------
# cross-talk
# ---------------------------------------------------------------------------

def test_crosstalk_user2(p514):
    rep = crosstalk_probe(p514, 2, 1000, Kind.HARTLEY, seed=5)
    assert rep.clean and rep.max_leak == 0 and rep.active_errors == 0


def test_crosstalk_all_users_3326(p3326):
    for u in range(26):
        rep = crosstalk_probe(p3326, u, 100, Kind.HARTLEY, seed=u)
        assert rep.clean, f"user {u} leaked"


def test_crosstalk_invalid_user(p514):
    with pytest.raises(ValueError):
        crosstalk_probe(p514, 7, 10)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output. Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gdmux import (Kind, SystemParams, capacity_check, carrier_matrix,
                   cas, fourier_cosets, hartley_cosets, metrics, nu_g_formula,
                   nu_h_formula, rationalize_walsh, required_snr)
from gdmux.pipeline import crosstalk_probe, demux_batch, mux_batch
from gdmux.statsim import PulseShape, galois_acf, psd_estimate
from gdmux.transforms import forward_batch

from support import ACCEPT_SYSTEMS


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


@pytest.fixture(scope="module")
def p3326():
    return SystemParams.create(3, 3, 26)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_c01_cas_golden_values(p514):
    t0 = time.time()
    expected = [["1", "1", "1", "1"],
                ["1", "3j", "4", "2j"],
                ["1", "4", "1", "4"],
                ["1", "2j", "4", "3j"]]
    got = [[str(cas(i, k, p514)) for k in range(4)] for i in range(4)]
    assert got == expected
    assert str(cas(1, 1, p514)) == "3j" and str(cas(3, 3, p514)) == "3j"
    assert time.time() - t0 < 1.0
    _report(1, "all 16 cas values over GI(5), zeta=2 match exactly")


def test_c02_walsh_degeneration(p514):
    t0 = time.time()
    got = rationalize_walsh(carrier_matrix(p514))
    assert got == [[1, 1, 1, 1],
                   [1, 1, -1, -1],
                   [1, -1, 1, -1],
                   [1, -1, -1, 1]]
    h4 = [(1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1)]
    assert sorted(tuple(r) for r in got) == sorted(h4)
    assert time.time() - t0 < 1.0
    _report(2, "carriers over (5,1,4) reduce to the +-1 Walsh matrix exactly")


def test_c03_mux_example(p514):
    t0 = time.time()
    spec = p514.ring.from_array(forward_batch(p514, Kind.HARTLEY, [4, 0, 1, 2])[0])
    assert [str(z) for z in spec] == ["2", "3+4j", "3", "3+1j"]
    assert time.time() - t0 < 1.0
    _report(3, "forward_batch(hartley, {4,0,1,2}) = (2, 3+4j, 3, 3+j)")


def test_c04_coset_tables():
    t0 = time.time()
    f = fourier_cosets(26, 3)
    expected_f = [{0}, {1, 3, 9}, {2, 6, 18}, {4, 12, 10}, {5, 15, 19},
                  {7, 21, 11}, {8, 24, 20}, {13}, {14, 16, 22}, {17, 25, 23}]
    assert [set(c) for c in f.cosets] == expected_f
    h = hartley_cosets(26, 3)
    expected_h = [{0}, {1, 23, 9, 25, 3, 17}, {2, 6, 18, 8, 24, 20},
                  {4, 14, 10, 22, 12, 16}, {5, 11, 19, 21, 15, 7}, {13}]
    assert [set(c) for c in h.cosets] == expected_h
    assert time.time() - t0 < 1.0
    _report(4, "fourier_cosets(26,3) gives the expected 10 cosets, hartley_cosets(26,3) the 6")


def test_c05_counting_formulas():
    t0 = time.time()
    assert nu_g_formula(3, 3) == 10
    assert nu_h_formula(10, 26) == 6
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for m in (1, 2, 3, 4):
            if p**m > 3000:
                continue
            assert nu_g_formula(p, m) == fourier_cosets(p**m - 1, p).nu, (p, m)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(5, f"nu formulas match brute force on {checked} (p, m) pairs in {elapsed:.2f}s")


def test_c06_metrics(p3326):
    h = metrics(p3326, Kind.HARTLEY)
    f = metrics(p3326, Kind.FOURIER)
    assert h.gamma_cc == Fraction(13, 3)
    assert f.gamma_cc == Fraction(13, 5) and float(f.gamma_cc) == 2.6
    assert h.gain_percent == Fraction(1000, 13)
    assert f.gain_percent == Fraction(800, 13)
    assert abs(float(h.gain_percent) - 76.923076923) < 1e-6
    assert abs(float(f.gain_percent) - 61.538461538) < 1e-6
    assert h.extra_channels == 20 and f.extra_channels == 16
    assert abs(h.eta_gdm - float(Fraction(13, 3)) * math.log2(3)) < 1e-9
    assert abs(f.eta_gdm - 2.6 * math.log2(3)) < 1e-9
    _report(6, "gamma_cc = 13/3 and 2.6, gains 76.9%/61.5%, extra channels 20/16, eta exact")


def test_c07_round_trip_exactness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for (p, m, N) in ACCEPT_SYSTEMS:
        params = SystemParams.create(p, m, N)
        vs = rng.integers(0, p, size=(10_000, N))
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            assert np.array_equal(demux_batch(params, kind, mux_batch(params, kind, vs)), vs)
    p514 = SystemParams.create(5, 1, 4)
    every = np.array(list(itertools.product(range(5), repeat=4)))
    for kind in (Kind.HARTLEY, Kind.FOURIER):
        assert np.array_equal(demux_batch(p514, kind, mux_batch(p514, kind, every)), every)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(7, f"demux(mux(v)) = v on 10^4 random frames per params per kind "
               f"and all 5^4 frames of (5,1,4), in {elapsed:.1f}s")


def test_c08_zero_crosstalk():
    for (p, m, N) in ACCEPT_SYSTEMS:
        params = SystemParams.create(p, m, N)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            for user in range(N):
                rep = crosstalk_probe(params, user, 256, kind, seed=user)
                assert rep.max_leak == 0 and rep.active_errors == 0
    _report(8, "cross-talk exactly 0 on every inactive channel, all params, both kinds")


def test_c09_conjugacy_invariant():
    rng = np.random.default_rng(99)
    notes = []
    for (p, m, N) in ACCEPT_SYSTEMS:
        params = SystemParams.create(p, m, N)
        vs = rng.integers(0, p, size=(1000, N))
        ring = params.ring

        F = forward_batch(params, Kind.FOURIER, vs)
        H = forward_batch(params, Kind.HARTLEY, vs)
        for f in range(0, 1000, 97):   # spot-convert a sample to exact elements
            Fv = ring.from_array(F[f])
            Hv = ring.from_array(H[f])
            for k in range(N):
                assert Fv[(p * k) % N] == Fv[k].frobenius()
                assert Hv[(-p * k) % N] == Hv[k].conj_frobenius()
                if p % 4 == 3:
                    assert Hv[(-p * k) % N] == Hv[k].frobenius()
        # full batch check through the matrix form of the same maps
        from gdmux.transforms import sigma_matrix
        for kind, spec in ((Kind.FOURIER, F), (Kind.HARTLEY, H)):
            sig = sigma_matrix(params, kind)
            step = p if kind is Kind.FOURIER else -p
            perm = [(step * k) % N for k in range(N)]
            mapped = (spec.reshape(1000, N, 2 * m) @ sig.T) % p
            assert np.array_equal(mapped.reshape(1000, N, 2, m), spec[:, perm])
        if p % 4 == 1:
            notes.append(f"(p={p}: Hartley map is conj(frobenius), j^p = j)")
    _report(9, "Fourier V[pk] = V[k]^p and Hartley V[-pk] = a^p - j b^p on 10^3 "
               f"frames per params {' '.join(notes)}")


def test_c10_spectrum_whiteness(p514):
    t0 = time.time()
    est = galois_acf(p514, Kind.HARTLEY, frames=100_000, seed=0)
    for j in range(1, len(est.values)):
        ratio = abs(est.values[j]) / est.r0
        assert ratio < 0.02, f"lag {j}: {ratio}"
    assert abs(est.r0 - est.time_r0) / est.time_r0 < 0.02
    elapsed = time.time() - t0
    _report(10, f"|R_V(j)|/R_V(0) < 0.02 for j != 0 and R_V(0) = R_v(0) within 2% "
                f"({est.r0:.4f} vs {est.time_r0:.4f}) over 10^5 frames in {elapsed:.1f}s")


def test_c11_psd_shape(p514):
    t0 = time.time()
    pulse = PulseShape(sample_rate=16.0)
    est = psd_estimate(p514, Kind.HARTLEY, realizations=256, frames=1024,
                       nfft=1024, seed=0, pulse=pulse)
    assert est.realizations * est.frames >= 100 * 1000
    assert est.max_rel_dev < 0.05, est.max_rel_dev
    assert est.ratio_spread < 0.05, est.ratio_spread
    elapsed = time.time() - t0
    _report(11, f"periodogram matches scale-fitted sinc^2: max dev "
                f"{est.max_rel_dev:.3f}, ratio spread {est.ratio_spread:.3f} "
                f"(256 x 1024 frames, {elapsed:.1f}s)")


def test_c12_capacity_bound(p3326):
    thr = 3 ** (13.0 / 3.0) - 1.0
    got = required_snr(p3326, Kind.HARTLEY)
    assert abs(got - thr) / thr < 1e-6
    assert capacity_check(p3326, Kind.HARTLEY, thr * (1 + 1e-9)).admissible
    assert not capacity_check(p3326, Kind.HARTLEY, thr * (1 - 1e-9)).admissible
    _report(12, f"minimum SNR = 3^(13/3) - 1 = {got:.6f}; admissibility flips there")

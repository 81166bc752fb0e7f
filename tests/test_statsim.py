import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gdmux import (ExtensionNotEmbeddable, InvalidParams, Kind, PulseShape, SystemParams,
                   centered, galois_acf, psd_estimate, synthesize_envelope)
from gdmux import pipeline, statsim
from gdmux.statsim import acf_of_stream, embed_spectra, _resolve_embedding

from support import acf_by_lags


@pytest.fixture(scope="module")
def p514():
    return SystemParams.create(5, 1, 4)


@pytest.fixture(scope="module")
def p716():
    return SystemParams.create(7, 1, 6)


def test_embed_examples(p514):
    # the componentwise embedding of GaloisInt values, through their coefficient array
    ring = p514.ring
    values = (ring.element(3, 4), ring.zero, ring.element(2), ring.element(0, 1))
    got = embed_spectra(p514, ring.to_array(values), "component")
    assert got.tolist() == [-2 - 1j, 0j, 2 + 0j, 1j]
    p3326 = SystemParams.create(3, 3, 26)
    with pytest.raises(ExtensionNotEmbeddable):
        embed_spectra(p3326, p3326.ring.to_array([p3326.ring.one]), "component")


def test_embedding_resolution(p514, p716):
    assert _resolve_embedding(p514, "auto") == "rationalized"
    assert _resolve_embedding(p716, "auto") == "component"
    with pytest.raises(InvalidParams):
        _resolve_embedding(p716, "rationalized")
    with pytest.raises(ExtensionNotEmbeddable):
        _resolve_embedding(SystemParams.create(3, 3, 26), "auto")


def test_embed_spectra_consistency(p514):
    arr = np.array([[[3], [4]], [[0], [0]], [[2], [0]]])
    comp = embed_spectra(p514, arr, "component")
    assert list(comp) == [(-2 - 1j), 0j, (2 + 0j)]
    rat = embed_spectra(p514, arr, "rationalized")
    # 3 + 2*4 = 11 = 1 (mod 5)
    assert list(rat) == [(1 + 0j), 0j, (2 + 0j)]


@pytest.mark.parametrize("pmn,mode", [((251, 1, 250), "component"), ((5, 1, 4), "rationalized")])
def test_embed_spectra_reads_uint8_leaders_as_their_int64_copy(pmn, mode):
    # the batch maps return uint8; a sum or a centering in uint8 would wrap
    params = SystemParams.create(*pmn)
    vs = np.random.default_rng(pmn[0]).integers(0, params.p, size=(8, params.N))
    leaders = pipeline.mux_batch(params, Kind.HARTLEY, vs)
    assert leaders.dtype == np.uint8 and leaders.max() > params.p // 2
    got = embed_spectra(params, leaders, mode)
    assert np.array_equal(got, embed_spectra(params, leaders.astype(np.int64), mode))


def test_acf_of_zero_stream():
    vals, errs = acf_of_stream(np.zeros(100, dtype=complex), 5)
    assert np.all(vals == 0)


@st.composite
def _integer_streams(draw):
    """Integer-valued real or complex streams in the centered range of p <= 251,
    with a lag count from one up to the whole stream (many lag groups)."""
    size = draw(st.integers(1, 3000))
    values = hnp.arrays(np.int64, size, elements=st.integers(-125, 125))
    stream = draw(values).astype(np.complex128)
    if draw(st.booleans()):
        stream += 1j * draw(values)
    return stream, draw(st.integers(0, size - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_integer_streams())
@example((np.arange(10, dtype=np.complex128), 9))                      # 3 groups of 4 lags
@example((np.append(np.full(2999, 125 + 125j), 124 + 125j), 2999))      # 55 groups
def test_acf_of_stream_matches_the_per_lag_oracle(case):
    stream, max_lag = case
    vals, errs = acf_of_stream(stream, max_lag)
    want_vals, want_errs = acf_by_lags(stream, max_lag)
    assert np.array_equal(vals, want_vals)
    # the oracle's std centers on its rounded mean, so it is off by up to that
    # rounding, |mean| * eps / sqrt(cnt), even where the exact stderr is 0
    cnt = len(stream) - np.arange(max_lag + 1)
    slack = 2 * np.finfo(float).eps * np.abs(want_vals) / np.sqrt(cnt)
    assert np.all(np.abs(errs - want_errs) <= 1e-12 * want_errs + slack)


def test_acf_of_stream_memory_is_linear_in_the_stream():
    # every lag of 10^4 samples: one 10^4 x 10^4 Gram would take 1.6 GB
    stream = np.random.default_rng(0).integers(-2, 3, 10_000).astype(np.complex128)
    tracemalloc.start()
    try:
        acf_of_stream(stream, len(stream) - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * stream.nbytes


def test_galois_acf_whiteness_quick(p514):
    est = galois_acf(p514, Kind.HARTLEY, frames=20_000, seed=1)
    assert est.embedding == "rationalized"
    assert est.r0 > 0
    assert abs(est.r0 - est.time_r0) / est.time_r0 < 0.02
    for j in range(1, len(est.values)):
        assert abs(est.values[j]) / est.r0 < 0.02


def test_galois_acf_cross_frame_lags(p514):
    # block independence: correlations vanish across frame boundaries too
    est = galois_acf(p514, Kind.HARTLEY, frames=20_000, seed=2, max_lag=8)
    for j in range(1, 9):
        assert abs(est.values[j]) / est.r0 < 0.02


def test_galois_acf_component_whiteness(p716):
    est = galois_acf(p716, Kind.HARTLEY, frames=20_000, seed=3)
    assert est.embedding == "component"
    for j in range(1, len(est.values)):
        assert abs(est.values[j]) / est.r0 < 0.02


def test_component_embedding_power_excess(p514):
    # pins the reason auto-rationalization exists: componentwise, generic
    # bins carry two uniform coordinates and R_V(0) = 1.5 R_v(0) on (5,1,4)
    est = galois_acf(p514, Kind.HARTLEY, frames=20_000, seed=4, embedding="component")
    assert abs(est.r0 / est.time_r0 - 1.5) < 0.03


def test_time_domain_whiteness():
    xs = centered(np.random.default_rng(9).integers(0, 5, size=100_000), 5)
    vals, errs = acf_of_stream(xs.astype(complex), 4)
    for j in range(1, 5):
        assert abs(vals[j]) < 3 * errs[j] + 1e-12


BAD_ARGUMENTS = [
    (galois_acf, {"frames": 0}, InvalidParams, "frames"),
    (galois_acf, {"frames": -3}, InvalidParams, "frames"),
    (galois_acf, {"frames": 2, "max_lag": 50}, InvalidParams, "max_lag"),
    (galois_acf, {"frames": 2, "max_lag": 8}, InvalidParams, "max_lag"),  # 2 frames of N = 4
    (galois_acf, {"frames": 2, "max_lag": -1}, InvalidParams, "max_lag"),
    (psd_estimate, {"realizations": 0}, InvalidParams, "realizations"),
    (psd_estimate, {"frames": 0}, InvalidParams, "frames"),
    (psd_estimate, {"nfft": 0}, InvalidParams, "nfft"),
    (psd_estimate, {"nfft": -4}, InvalidParams, "nfft"),
    (psd_estimate, {"source": "bogus"}, ValueError, "unknown source"),
    (synthesize_envelope, {"frames": 0}, InvalidParams, "frames"),
    (synthesize_envelope, {"frames": -2}, InvalidParams, "frames"),
    (synthesize_envelope, {"source": "bogus"}, ValueError, "unknown source"),
]


@pytest.mark.parametrize("fn,kwargs,error,name", BAD_ARGUMENTS,
                         ids=[fn.__name__ + "-" + ",".join(f"{k}={v}" for k, v in kw.items())
                              for fn, kw, _, _ in BAD_ARGUMENTS])
def test_unusable_arguments_are_refused_before_sampling(p514, monkeypatch, fn, kwargs, error,
                                                         name):
    def sampled(*args, **kw):
        raise AssertionError("samples drawn before the arguments were checked")
    for target in ("forward_batch", "synthesize_envelope", "_transmit_symbols"):
        monkeypatch.setattr(statsim, target, sampled)
    with pytest.raises(error, match=rf"^{name} "):
        fn(p514, Kind.HARTLEY, **kwargs)


class _Drawn(Exception):
    pass


class _RecordingRng:
    """A generator stand-in that raises _Drawn at the first draw."""

    def integers(self, *args, **kwargs):
        raise _Drawn

    standard_normal = integers


@pytest.mark.parametrize("source", ["gdm", "gaussian"])
def test_draws_over_the_sample_budget_are_refused_before_sampling(p514, monkeypatch, source):
    # (5,1,4): frames * 4 symbols per draw; one frame over the budget is
    # refused before anything is drawn, and the budget itself is drawn
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: _RecordingRng())
    most = pipeline.SAMPLE_BUDGET // 4
    over = rf"^{most + 1} frames of 4 symbols exceed the sample budget of {pipeline.SAMPLE_BUDGET}"
    calls = [lambda frames: synthesize_envelope(p514, Kind.HARTLEY, frames, rng=_RecordingRng(),
                                                source=source),
             lambda frames: psd_estimate(p514, Kind.HARTLEY, realizations=1, frames=frames,
                                         source=source)]
    if source == "gdm":
        calls.append(lambda frames: galois_acf(p514, Kind.HARTLEY, frames=frames))
    for call in calls:
        with pytest.raises(InvalidParams, match=over):
            call(most + 1)
        with pytest.raises(_Drawn):
            call(most)


def test_galois_acf_takes_every_lag_of_its_stream(p514):
    est = galois_acf(p514, Kind.HARTLEY, frames=2, seed=1, max_lag=7)
    assert list(est.lags) == list(range(8)) and np.isfinite(est.values).all()


# ---------------------------------------------------------------------------
# pulses and envelopes
# ---------------------------------------------------------------------------

def test_pulse_unit_energy():
    for pulse in (PulseShape(),
                  PulseShape(sample_rate=16.0),
                  PulseShape(kind="raised-cosine", beta=0.35, sample_rate=16.0)):
        taps = pulse.taps()
        energy = float((taps**2).sum()) / pulse.sample_rate
        assert abs(energy - 1.0) < 1e-9


def test_pulse_validation():
    with pytest.raises(InvalidParams):
        PulseShape(symbol_duration=1.0, sample_rate=2.5)
    with pytest.raises(InvalidParams):
        PulseShape(kind="triangle")
    with pytest.raises(InvalidParams):
        PulseShape(kind="raised-cosine", beta=1.5)


def test_rect_spectrum_peak():
    pulse = PulseShape()
    assert abs(pulse.spectrum_sq(np.array([0.0]))[0] - pulse.symbol_duration) < 1e-12
    # first null at f = 1/Ts
    assert pulse.spectrum_sq(np.array([1.0 / pulse.symbol_duration]))[0] < 1e-20


def test_single_pulse_energy():
    pulse = PulseShape()
    env = np.repeat(np.array([1.0 + 0j]), pulse.samples_per_symbol) * pulse.taps()[0]
    energy = float((np.abs(env) ** 2).sum()) / pulse.sample_rate
    assert abs(energy - 1.0) < 1e-12


def test_envelope_timing(p514):
    pulse = PulseShape()
    rng = np.random.default_rng(0)
    frames = 50
    env = synthesize_envelope(p514, Kind.HARTLEY, frames, pulse, rng)
    # rectangular pulses: back-to-back, no gap, no overlap
    assert len(env) == frames * 3 * pulse.samples_per_symbol


def test_envelope_power_matches_r0(p514):
    pulse = PulseShape()
    rng = np.random.default_rng(1)
    env = synthesize_envelope(p514, Kind.HARTLEY, 4000, pulse, rng)
    power = float((np.abs(env) ** 2).mean())
    est = galois_acf(p514, Kind.HARTLEY, frames=20_000, seed=6)
    # leader power equals full-spectrum power here; R0 / Tsym for unit Ts
    assert abs(power - est.r0 / pulse.symbol_duration) / est.r0 < 0.05


# ---------------------------------------------------------------------------
# PSD
# ---------------------------------------------------------------------------

def test_psd_matches_sinc_shape(p514):
    pulse = PulseShape(sample_rate=16.0)
    est = psd_estimate(p514, Kind.HARTLEY, realizations=96, frames=512,
                       nfft=512, seed=0, pulse=pulse)
    assert 0.9 < est.fitted_scale < 1.1
    assert est.max_rel_dev < 0.10
    assert est.ratio_spread < 0.10


def test_psd_control_experiment(p514):
    pulse = PulseShape(sample_rate=16.0)
    est = psd_estimate(p514, Kind.HARTLEY, realizations=96, frames=512,
                       nfft=512, seed=1, pulse=pulse, source="gaussian")
    assert est.max_rel_dev < 0.10


def test_psd_component_embedding_same_shape(p716):
    pulse = PulseShape(sample_rate=16.0)
    est = psd_estimate(p716, Kind.HARTLEY, realizations=96, frames=512,
                       nfft=512, seed=2, pulse=pulse)
    assert est.max_rel_dev < 0.10


def test_psd_bins_symmetric(p514):
    est = psd_estimate(p514, Kind.HARTLEY, realizations=8, frames=256,
                       nfft=256, seed=3)
    # symmetric about 0 apart from the single unpaired Nyquist bin
    assert np.allclose(est.freqs[1:], -est.freqs[1:][::-1])
    assert np.all(est.power >= 0)

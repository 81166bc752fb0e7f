import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gdmux import (ExtensionNotEmbeddable, InvalidParams, Kind, PulseShape, SystemParams,
                   UnsupportedParams, centered, galois_acf, psd_estimate, synthesize_envelope)
from gdmux import pipeline, statsim, transforms
from gdmux.statsim import acf_of_stream, embed_spectra, _resolve_embedding

import support
from support import acf_by_lags, design_grid, make

# every m = 1 design of the grid, under each embedding it admits
EMBEDDED = [(pmn, mode) for pmn in design_grid() if pmn[1] == 1
            for mode in ("component", "rationalized")[:1 + (pmn[0] % 4 == 1)]]


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


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
@pytest.mark.parametrize("p", [5, 13])
def test_embed_spectra_reads_any_integer_entry_mod_p(p, dtype):
    # the tables are indexed by residues only: negative entries, uint16 entries >= p and uint64
    # entries >= 2^63 are reduced first, and embed as their residues
    params = SystemParams.create(p, 1, p - 1)
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, -1, 0, p - 1, p, 2 * p + 1, info.max - 1, info.max]
    values = np.array([v for v in edges if info.min <= v <= info.max], dtype=dtype)
    pairs = np.stack(np.broadcast_arrays(values[:, None], values), axis=-1)[..., None]
    residues = np.array([v % p for v in pairs.ravel().tolist()]).reshape(pairs.shape)
    for mode in ("component", "rationalized"):
        got = embed_spectra(params, pairs, mode)
        assert got.tobytes() == support.embed_by_values(params, residues, mode).tobytes()
    with pytest.raises(ExtensionNotEmbeddable):
        embed_spectra(SystemParams.create(5, 2, 24), np.full((3, 2, 2), info.max, dtype=dtype))


def test_embed_spectra_equals_the_arithmetic_oracle_byte_for_byte():
    # every (re, im) pair of every m = 1 design of the grid, as uint8 leaders and as int64
    for (p, m, N), mode in EMBEDDED:
        params = make(p, m, N)
        pairs = np.stack(np.divmod(np.arange(p * p), p), axis=-1)[..., None]
        want = support.embed_by_values(params, pairs, mode).tobytes()
        for arr in (pairs, pairs.astype(np.uint8)):
            assert embed_spectra(params, arr, mode).tobytes() == want, (p, N, mode)


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_galois_acf_equals_the_complex_oracle_byte_for_byte(kind):
    # rationalized streams are correlated in real arithmetic, component ones in complex; the
    # values, standard errors and powers are the oracle's bits, signs of zero included
    for (p, m, N), mode in EMBEDDED:
        params = make(p, m, N)
        got = galois_acf(params, kind, frames=12, seed=N, embedding=mode)
        want = support.galois_acf_by_values(params, kind, frames=12, seed=N, embedding=mode)
        case = (p, N, mode)
        assert got.values.tobytes() == want.values.tobytes(), case
        assert got.stderr.tobytes() == want.stderr.tobytes(), case
        assert (got.r0, got.time_r0, got.embedding) == (want.r0, want.time_r0, want.embedding), case


def _psd_fields(est):
    return (est.freqs.tobytes(), est.power.tobytes(), est.theory.tobytes(), est.r0,
            est.fitted_scale, est.main_lobe.tobytes(), est.max_rel_dev, est.ratio_spread,
            est.realizations, est.frames, est.segments)


# beta = 0.6: the raised-cosine spectrum vanishes only beyond |f Tsym| = 0.8, outside the main lobe
PULSES = [PulseShape(sample_rate=4.0), PulseShape(kind="raised-cosine", beta=0.6, sample_rate=4.0)]


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_psd_estimate_equals_the_fresh_array_oracle_byte_for_byte(kind):
    # a reused envelope buffer and FFTs squared in place give the oracle's bits for GDM leaders
    # under each embedding and for the gaussian control, with rectangular and raised-cosine
    # pulses
    for (p, m, N), mode in EMBEDDED:
        params = make(p, m, N)
        sources = ["gdm", "gaussian"] if mode == "component" else ["gdm"]
        for source, pulse in [(source, pulse) for source in sources for pulse in PULSES]:
            args = dict(realizations=2, frames=6, pulse=pulse, nfft=16, seed=N,
                        embedding=mode, source=source)
            got = psd_estimate(params, kind, **args)
            assert _psd_fields(got) == _psd_fields(support.psd_by_values(params, kind, **args)), (
                p, N, mode, source, pulse.kind)


@pytest.mark.parametrize("pmn", [(5, 1, 4), (7, 1, 6)])
def test_psd_and_acf_peaks_per_drawn_symbol_stay_flat(pmn):
    # rationalized at (5,1,4), component at (7,1,6); at 2^13 and 2^15 frames the peak traced
    # bytes per drawn symbol (frames * N, one realization) stay under a constant. psd reads 192
    # and 171 B, against 288 and 256 B before the envelope was written into one reused buffer
    # and the FFT squared in place; its bound leaves 25% for numpy's own temporaries. galois_acf
    # reads 50 and 48 B, against 56 B before real streams were summed as real, so its bound
    # can sit only 8% above the figure without admitting the old one.
    params = make(*pmn)
    calls = [(lambda f: psd_estimate(params, Kind.HARTLEY, realizations=1, frames=f, nfft=512), 240),
             (lambda f: galois_acf(params, Kind.HARTLEY, frames=f), 54)]
    for call, bound in calls:
        call(256)               # the design and its tables, built once
        for frames in (1 << 13, 1 << 15):
            tracemalloc.start()
            try:
                call(frames)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * frames * params.N, (frames, peak / (frames * params.N))


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
    # an envelope of 1 frame * 3 leaders * 8 samples can hold no segment of 512
    (psd_estimate, {"realizations": 3, "frames": 1, "nfft": 512}, InvalidParams, "frames"),
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


def test_psd_checks_both_budgets_before_an_nfft_longer_than_its_envelope(p514, monkeypatch):
    # the sample and design budgets are checked first, as the draw itself checks them, so
    # input that breaks a budget and asks for too long an nfft reports the budget
    most = pipeline.SAMPLE_BUDGET // 4
    with pytest.raises(InvalidParams, match=rf"^{most + 1} frames of 4 symbols exceed"):
        psd_estimate(p514, Kind.HARTLEY, realizations=1, frames=most + 1, nfft=1 << 40)
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", 1)
    with pytest.raises(UnsupportedParams, match="over the 0 MiB budget"):
        psd_estimate(p514, Kind.HARTLEY, realizations=1, frames=1, nfft=512)


@pytest.mark.parametrize("pulse", [PulseShape(), PulseShape(kind="raised-cosine", beta=0.35)],
                         ids=["rectangular", "raised-cosine"])
def test_psd_refuses_an_nfft_its_latest_offset_leaves_short_whatever_the_seed(p514, monkeypatch,
                                                                            pulse):
    # the start offset is uniform over [0, nu * spp): an nfft above what the latest offset
    # leaves of the envelope was accepted for some seeds and refused, after a draw, for others
    nu, spp = transforms.validate_system(p514, Kind.HARTLEY).nu, pulse.samples_per_symbol
    length = 4 * nu * spp + (0 if pulse.kind == "rectangular" else len(pulse.taps()) - 1)
    bound = length - (nu * spp - 1)
    draws = []
    real = statsim._transmit_symbols
    monkeypatch.setattr(statsim, "_transmit_symbols", lambda *args: draws.append(1) or real(*args))
    for seed in range(10):
        with pytest.raises(InvalidParams, match="^frames too small for the requested nfft$"):
            psd_estimate(p514, Kind.HARTLEY, realizations=1, frames=4, nfft=bound + 1,
                         pulse=pulse, seed=seed)
    assert draws == []
    for seed in range(10):
        est = psd_estimate(p514, Kind.HARTLEY, realizations=1, frames=4, nfft=bound,
                           pulse=pulse, seed=seed)
        assert est.segments == 1


def test_psd_and_envelope_check_each_budget_once(p514, monkeypatch):
    # once per entry point, not again for each realization and the r0 draw
    calls = []
    for name in ("_check_samples", "validate_system"):
        monkeypatch.setattr(statsim, name, lambda *args, name=name, real=getattr(statsim, name):
                            calls.append(name) or real(*args))
    psd_estimate(p514, Kind.HARTLEY, realizations=3, frames=64, nfft=64)
    synthesize_envelope(p514, Kind.HARTLEY, 8)
    assert calls == ["_check_samples", "validate_system"] * 2


@pytest.mark.parametrize("beta", [0.35, 0.5])
def test_psd_fits_a_raised_cosine_only_where_its_theory_is_positive(beta):
    # the main lobe |f Tsym| <= 0.75 reaches where the spectrum is 0, above (1 + beta)/2 for
    # beta <= 0.5, and the fit divided by it; a gdmux warning fails the test
    est = psd_estimate(SystemParams.create(5, 1, 4), "hartley", realizations=2, frames=64,
                       nfft=512, pulse=PulseShape(kind="raised-cosine", beta=beta))
    assert np.isfinite(est.max_rel_dev) and np.isfinite(est.ratio_spread)
    assert est.main_lobe.any() and (est.theory[est.main_lobe] > 0).all()


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

import importlib
import itertools
import math
import re
import struct
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdmux import (BadLength, BadMagic, GdmError, InconsistentFrame, InvalidParams, Kind,
                   ParamMismatch, SystemParams, TimeBlock, UnsupportedParams, capacity_check,
                   crosstalk_probe, demux, deserialize, iter_frames, metrics, mux,
                   required_snr, serialize)
from gdmux import fields, pipeline, transforms
from gdmux.cosets import coset_table
from gdmux.fields import MAX_FIELD_SIZE, MAX_PRIME, GaloisInt, get_field, is_prime
from gdmux.pipeline import (CompressedFrame, decode_frames, demux_batch, encode_frames,
                            frame_byte_length, frame_header, leader_array, mux_batch,
                            reconstruct_batch, validate_system)
from gdmux.statsim import galois_acf, psd_estimate, synthesize_envelope
from gdmux.transforms import (DESIGN_BUDGET_BYTES, _forward_flat, design, design_nbytes,
                              forward_batch, inverse_batch, leader_dtype, sigma_matrix)

from support import (ACCEPT_SYSTEMS, dense_inverse, design_grid, information_set, make, outcome,
                     outcome_of, reconstruct_walk, reference_deserialize, reference_iter_frames,
                     reference_serialize, scope_designs)


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
    spec = reconstruct_batch(p514, Kind.HARTLEY, leader_array(frame))
    assert spec.shape == (4, 2, 1) and not spec.any()


def test_frame_length_3326(p3326):
    frame = mux(TimeBlock(p3326, (1,) * 26), Kind.HARTLEY)
    assert len(frame.leaders) == 6
    assert len(mux(TimeBlock(p3326, (1,) * 26), Kind.FOURIER).leaders) == 10


def test_reconstruction_follows_hartley_chain(p514):
    frame = mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY)
    spec = p514.ring.from_array(reconstruct_batch(p514, Kind.HARTLEY, leader_array(frame)))
    assert [str(z) for z in spec] == ["2", "3+4j", "3", "3+1j"]
    # V_3 is filled from leader V_1 by the Hartley map a^p - j b^p; for
    # p = 1 (mod 4) that is conj(frobenius), NOT the bare p-th power
    v1 = frame.leaders[1]
    assert spec[3] == v1.conj_frobenius() == (v1 ** 5).conj()
    assert spec[3] != v1 ** 5


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
    # with energy N, and an injective leader map) and that forward(v) and
    # reconstruct(mux(v)) both equal the dense forward matrix's product (the
    # spectrum is closed under the conjugacy map). On the compiled arrays:
    # G_I @ D_I = I (mod p), so D_I inverts G at the information set I, and
    # G = G_I @ E with E = [I | C | 0] in the columns (I, rest, zero), so
    # the leader rows L_I @ [I | C | 0] are exactly those mux produces.
    grid = design_grid()
    assert 2 * len(grid) == 346
    for p, m, N in grid:
        params = make(p, m, N)
        basis = np.eye(N, dtype=np.int64)
        for kind in (Kind.HARTLEY, Kind.FOURIER):
            d = design(params, kind)
            I, rest, zero, D_I, C = information_set(d)
            G = d.G.astype(np.int64)
            assert np.array_equal(G[:, I] @ D_I.astype(np.int64) % p, basis), (p, m, N, kind)
            assert np.array_equal(G[:, rest], G[:, I] @ C.astype(np.int64) % p), (p, m, N, kind)
            assert not G[:, zero].any(), (p, m, N, kind)
            leaders = mux_batch(params, kind, basis)
            assert np.array_equal(demux_batch(params, kind, leaders), basis), (p, m, N, kind)
            dense = (basis @ _forward_flat(params, kind).T % p).reshape(N, N, 2, m)
            assert np.array_equal(forward_batch(params, kind, basis), dense), (p, m, N, kind)
            assert np.array_equal(reconstruct_batch(params, kind, leaders), dense), (p, m, N, kind)


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
    # same on the DC coset {0}
    leaders = list(good.leaders)
    leaders[0] = p3326.ring.element(0, 1)
    for frame in (bad, CompressedFrame(p3326, Kind.HARTLEY, tuple(leaders))):
        want = outcome(reconstruct_walk, p3326, Kind.HARTLEY, leader_array(frame))
        assert want[0] == "InconsistentFrame"
        with pytest.raises(InconsistentFrame) as raised:
            reconstruct_batch(p3326, Kind.HARTLEY, leader_array(frame))
        assert outcome_of(raised.value) == want


def _reference_demux(params, kind, leaders):
    return dense_inverse(params, kind, reconstruct_walk(params, kind, leaders))


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_batch_errors_carry_their_frame_index(p, m, N, kind):
    params = make(p, m, N)
    rng = np.random.default_rng(7 * N + p)
    raised = 0
    for _ in range(30):
        F = int(rng.integers(2, 8))
        leaders = mux_batch(params, kind, rng.integers(0, p, size=(F, N)))
        f = int(rng.integers(F))
        flat = leaders.reshape(F, -1)
        c = int(rng.integers(flat.shape[1]))
        flat[f, c] = (flat[f, c] + rng.integers(1, p)) % p
        for demux_fn in (demux_batch, _reference_demux):
            try:
                demux_fn(params, kind, leaders)
            except GdmError as exc:
                assert exc.frame_index == int(re.search(r"frame (\d+)", str(exc))[1]) == f
                raised += 1
    assert raised
    assert GdmError("no frame").frame_index is None


@pytest.mark.parametrize("p,m,N", [(5, 1, 4), (5, 2, 24), (13, 1, 12), (3, 3, 26),
                                   (7, 2, 48), (3, 4, 80)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_demux_of_corrupted_frames_matches_reference(p, m, N, kind):
    # every outcome, values or exception class, message and frame index,
    # equals that of the per-position orbit walk (followed, for demux, by
    # the dense inverse)
    params = make(p, m, N)
    rng = np.random.default_rng(p * 1000 + N + (kind is Kind.FOURIER))
    seen = set()
    for _ in range(40):
        F = int(rng.integers(1, 5))
        leaders = mux_batch(params, kind, rng.integers(0, p, size=(F, N)))
        flat = leaders.reshape(F, -1)
        for _ in range(int(rng.integers(1, 4))):
            f, c = int(rng.integers(F)), int(rng.integers(flat.shape[1]))
            flat[f, c] = (flat[f, c] + rng.integers(1, p)) % p
        got = outcome(demux_batch, params, kind, leaders)
        assert got == outcome(_reference_demux, params, kind, leaders)
        assert outcome(reconstruct_batch, params, kind, leaders) == outcome(
            reconstruct_walk, params, kind, leaders)
        if F == 1:   # one frame without the batch axis
            want = ("ok", got[1][0]) if got[0] == "ok" else got
            assert outcome(demux_batch, params, kind, leaders[0]) == want
        seen.add(got[0])
    assert len(seen) > 1   # both silent and detected corruptions occurred
    # entries outside [0, p) are not frames mux produces: the [0, p) guard
    # of demux_batch's fast path sends them to the reference path. Huge
    # entries are not exact in float64 and overflow the reference walk's
    # int64 products.
    leaders = mux_batch(params, kind, rng.integers(1, p, size=(2, N))).astype(np.int64)
    odds = [-leaders, leaders + p]
    for big in (2 ** 52, 2 ** 53 + 1, np.iinfo(np.int64).max):
        odd = leaders.copy()
        odd.reshape(2, -1)[1, rng.integers(odd[0].size)] = big
        odds.append(odd)
    for odd in odds:
        assert outcome(demux_batch, params, kind, odd) == outcome(
            _reference_demux, params, kind, odd)
        assert outcome(reconstruct_batch, params, kind, odd) == outcome(
            reconstruct_walk, params, kind, odd)


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_mux_takes_symbols_mod_p(p3326, kind):
    # negative symbols, symbols >= p and +-2^62 mux as their residues
    vs = np.random.default_rng(3).integers(0, 3, size=(6, 26))
    odd = vs + 3 * np.array([[-1], [1], [-7], [2 ** 60], [-(2 ** 60)], [0]])
    odd[5, :6] = [-1, 3, 2 ** 62, -(2 ** 62), -5, 251]
    want = mux_batch(p3326, kind, odd % 3)
    assert np.array_equal(mux_batch(p3326, kind, odd), want)
    assert np.array_equal(want[:5], mux_batch(p3326, kind, vs[:5]))
    assert np.array_equal(mux_batch(p3326, kind, odd[5]), want[5:])


@pytest.mark.parametrize("shape", [(3, 7, 2, 3), (3, 5, 2, 3), (7, 2, 3), (3, 6, 2, 2),
                                   (3, 6, 6), (2, 3, 6, 2, 3), (6, 2)])
@pytest.mark.parametrize("fn", [demux_batch, reconstruct_batch])
def test_wrongly_shaped_leader_arrays_refused(p3326, shape, fn):
    # (3, 7, 2, 3) used to demux to the symbols of its first 6 leaders, and
    # (3, 5, 2, 3) to end in an IndexError
    leaders = np.ones(shape, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^expected 6 leader values, got an array of shape"):
        fn(p3326, Kind.HARTLEY, leaders)


def test_float_products_exact_across_scope():
    # mux and demux products sum at most n = 2m*nu <= 2mN terms below p^2;
    # the largest N for each (p, m) is p^m - 1
    worst = 0
    for p in range(3, MAX_PRIME + 1, 2):
        if not is_prime(p):
            continue
        m = 1
        while p ** m <= MAX_FIELD_SIZE:
            worst = max(worst, 2 * m * (p ** m - 1) * (p - 1) ** 2)
            m += 1
    assert 0 < worst < 2 ** 52     # transforms.mod_p is exact below 2^52


def _product_bound(design_key) -> int:
    p, m, N = design_key
    return 2 * m * N * (p - 1) ** 2


def test_float32_products_exact_across_scope():
    # mux and demux sums stay below 2mN(p-1)^2, so G and W may be float32,
    # whose mod_p is exact below 2^24, exactly where that bound is below it
    counts = {np.float32: 0, np.float64: 0}
    for p, m, N in scope_designs():
        dtype = np.float32 if _product_bound((p, m, N)) < 2 ** 24 else np.float64
        assert leader_dtype(p, m, N) is dtype, (p, m, N)
        counts[dtype] += 1
    assert counts == {np.float32: 2954, np.float64: 1327}


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_float32_bound_edges_of_the_buildable_scope(kind):
    # the buildable designs with the largest bound below 2^24 and the
    # smallest at or above it: the first is float32, the second float64,
    # and both are exact at their largest sums
    def fits(p, m, N):
        table = coset_table(N, p, kind)
        return design_nbytes(p, m, N, table.nu, table.longest) <= DESIGN_BUDGET_BYTES

    scope = sorted(scope_designs(), key=_product_bound)
    below = next(d for d in reversed(scope) if _product_bound(d) < 2 ** 24 and fits(*d))
    above = next(d for d in scope if _product_bound(d) >= 2 ** 24 and fits(*d))
    assert (below, above) == ((223, 2, 84), (233, 2, 78))
    rng = np.random.default_rng(24)
    for (p, m, N), dtype in ((below, np.float32), (above, np.float64)):
        params = make(p, m, N)
        d = design(params, kind)
        assert d.G.dtype == d.W.dtype == d.sigma_powers.dtype == dtype
        vs = rng.integers(0, p, size=(64, N))
        vs[0] = p - 1
        leaders = mux_batch(params, kind, vs)
        assert np.array_equal(demux_batch(params, kind, leaders), vs)
        want = (vs @ _forward_flat(params, kind).T % p).reshape(len(vs), N, 2, m)
        assert np.array_equal(forward_batch(params, kind, vs), want)


def test_traced_benchmark_finds_every_name_it_wraps(monkeypatch):
    # perfbench/tracer.py looks its entry points and pipeline's kernel
    # imports up by name; a name a source change unbinds fails here, and not
    # only in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("tracer").Tracer()   # raises AttributeError for a missing name


@pytest.mark.parametrize("pmn", [(5, 1, 4), (3, 3, 26)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_benchmark_reference_leaders_equal_mux_batch(monkeypatch, pmn, kind):
    # perfbench/reference.py checks the benchmark's outputs against leaders it
    # recomputes in GaloisInt arithmetic (trig.cas, +, *, zeta_elem); a source
    # change that breaks those fails here, and not only in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    reference = importlib.import_module("reference")
    params = make(*pmn)
    vs = np.random.default_rng(params.N).integers(0, params.p, size=(4, params.N))
    for row, leaders in zip(vs, mux_batch(params, kind, vs).tolist()):
        assert reference.scalar_leaders(params, kind.value, row) == [
            (tuple(re), tuple(im)) for re, im in leaders]


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
    with pytest.raises(ValueError, match="^snr must be >= 0$"):   # was gamma_max = nan
        capacity_check(p3326, Kind.HARTLEY, math.nan)
    assert capacity_check(p3326, Kind.HARTLEY, math.inf).admissible


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


def test_every_design_is_named_by_its_header():
    # without expect, the reader rebuilds the design from the header
    # fields alone: it must be the writer's, zeta included, so that its
    # frames demux to the writer's symbols
    cases = [(make(*pmn), kind) for pmn in design_grid() for kind in (Kind.HARTLEY, Kind.FOURIER)]
    cases.append((SystemParams.create(3, 3, 26, poly=(2, 2, 0, 1)), Kind.HARTLEY))
    for params, kind in cases:
        vs = np.random.default_rng(params.N).integers(0, params.p, size=(3, params.N))
        blob = encode_frames(params, kind, mux_batch(params, kind, vs))
        frames = list(iter_frames(blob))
        frames.insert(0, deserialize(blob[:frame_byte_length(params, kind)]))
        for frame, v in zip(frames, [vs[0]] + list(vs)):
            assert (frame.params, frame.kind) == (params, kind), (params, kind)
            assert demux(frame).symbols == tuple(v), (params, kind)


@pytest.mark.parametrize("pmn,kind,header,length", [
    ((5, 1, 4), Kind.HARTLEY, "47444d31050001040001000300", 19),
    ((3, 3, 26), Kind.FOURIER, "47444d310300031a00000102000a00", 75),
    ((7, 2, 48), Kind.FOURIER, "47444d3107000230000001001b00", 122)])
def test_header_bytes_are_the_documented_layout(pmn, kind, header, length):
    # "GDM1", u16 p, u8 m, u16 N, u8 kind, m poly bytes, u16 nu, written out by hand: no
    # other test reads the layout apart from the code that packs it
    params = make(*pmn)
    assert frame_header(params, kind).hex() == header
    assert frame_byte_length(params, kind) == length


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_header_refuses_n_over_its_16_bit_field(kind, monkeypatch):
    # (3, 12, 106288) is in the declared scope, but the header stores N,
    # and nu <= N, as u16: refused up front, before any coset table
    params = make(3, 12, 106288)
    frame = CompressedFrame(params, kind, (params.ring.zero,) * coset_table(106288, 3, kind).nu)
    monkeypatch.setattr(pipeline, "coset_table", _boom)
    calls = [lambda: frame_header(params, kind), lambda: frame_byte_length(params, kind),
             lambda: encode_frames(params, kind, leader_array(frame)[None]),
             lambda: decode_frames(b"", params, kind), lambda: serialize(frame),
             # given both expectations, before any frame is read
             lambda: list(iter_frames(b"NOPE", params, kind)),
             lambda: deserialize(b"NOPE", params, kind)]
    for call in calls:
        with pytest.raises(UnsupportedParams, match=r"N = 106288 does not fit the 16-bit N field "
                                                    r"of the GDM1 header \(N <= 65535\)$"):
            call()


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


def test_iter_frames_checks_each_new_header(p514, p3326, monkeypatch):
    calls = []
    create = SystemParams.create.__func__
    monkeypatch.setattr(SystemParams, "create", classmethod(
        lambda cls, *a, **kw: calls.append(a) or create(cls, *a, **kw)))
    good = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    assert len(list(iter_frames(good * 5, expect=p514))) == 5
    assert len(calls) == 1   # repeated header bytes are checked once
    # a later header that differs is checked in full, at its own frame
    other = serialize(mux(TimeBlock(p3326, (1,) * 26), Kind.HARTLEY))
    bad_nu = bytearray(good)
    bad_nu[11] = 4
    for tail, error in ((other + good, ParamMismatch), (bytes(bad_nu) + good, ParamMismatch),
                        (b"NOPE" + good[4:], BadMagic), (good[:12], BadLength)):
        seen = []
        with pytest.raises(error):
            for frame in iter_frames(good * 3 + tail, expect=p514):
                seen.append(frame)
        assert len(seen) == 3


def test_foreign_header_refused_before_any_design_is_built(p514, p3326, monkeypatch):
    # a header naming another design, or another kind, is refused on its raw
    # fields, without building the design it names
    good = serialize(mux(TimeBlock(p3326, (1,) * 26), Kind.HARTLEY))
    foreign = [struct.pack("<4sHBHB", b"GDM1", 3, 12, 80, 1) + bytes(12) + struct.pack("<H", 7),
               serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY)),
               good[:10] + bytes([2, 0, 1]) + good[13:],   # another polynomial of GF(27)
               serialize(mux(TimeBlock(p3326, (1,) * 26), Kind.FOURIER))]
    calls = []
    create = SystemParams.create.__func__
    monkeypatch.setattr(SystemParams, "create", classmethod(
        lambda cls, *a, **kw: calls.append(a) or create(cls, *a, **kw)))
    for header in foreign:
        for blob, index in ((header, 0), (good * 2 + header, 2)):
            calls.clear()
            with pytest.raises(ParamMismatch) as parsed:
                list(iter_frames(blob, expect=p3326, expect_kind=Kind.HARTLEY))
            assert parsed.value.frame_index == index
            assert len(calls) == 0   # the good header is the expected one: no design is built
            with pytest.raises(ParamMismatch) as decoded:
                decode_frames(blob, p3326, Kind.HARTLEY)
            assert (str(decoded.value), decoded.value.frame_index) == (str(parsed.value), index)
        calls.clear()
        with pytest.raises(ParamMismatch):
            deserialize(header, expect=p3326, expect_kind=Kind.HARTLEY)
        assert calls == []


@pytest.mark.parametrize("parse", [deserialize, lambda blob: list(iter_frames(blob))],
                         ids=["deserialize", "iter_frames"])
def test_crafted_header_of_a_slow_corner_is_refused_fast(parse):
    # 24 bytes naming (3, 12, 7), whose zeta lies deep in the canonical scan
    # order, with the canonical polynomial and a wrong leader count
    blob = (struct.pack("<4sHBHB", b"GDM1", 3, 12, 7, 1) + bytes(get_field(3, 12).poly[:12])
            + struct.pack("<H", 0))
    assert len(blob) == 24
    fields._root_table.cache_clear()
    start = time.perf_counter()
    with pytest.raises(ParamMismatch, match=r"^header claims 0 leaders, "):
        parse(blob)
    assert time.perf_counter() - start < 1.0
    assert fields._root_table.cache_info().currsize == 0


def test_unreduced_polynomial_byte_refused(p514, p3326):
    # the design reduces polynomial coefficients mod p, so c and c + p would
    # name the same system; only c is a valid header byte
    for params in (p514, p3326):
        blob = bytearray(serialize(mux(TimeBlock(params, (1,) * params.N), Kind.HARTLEY)))
        blob[10] += params.p
        with pytest.raises(ParamMismatch, match=r"polynomial coefficient byte >= p"):
            deserialize(bytes(blob))
        # also when the design is expected: the raw header check compares
        # polynomials mod p and leaves the byte to this rule
        with pytest.raises(ParamMismatch, match=r"polynomial coefficient byte >= p"):
            deserialize(bytes(blob), expect=params, expect_kind=Kind.HARTLEY)


def test_iter_frames_errors_carry_their_frame_index(p514):
    good = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    other = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.FOURIER))
    for blob, index in ((good * 3 + b"NOPE" + good[4:], 3), (good * 4 + good[:12], 4),
                        (good * 2 + good[:-1] + b"\x09" + good, 2), (good + other, 1),
                        (good * 5 + b"\x00", 5)):
        with pytest.raises(GdmError) as parsed:
            list(iter_frames(blob, expect=p514, expect_kind=Kind.HARTLEY))
        assert parsed.value.frame_index == index
        with pytest.raises(type(parsed.value)) as decoded:
            decode_frames(blob, p514, Kind.HARTLEY)
        assert (str(decoded.value), decoded.value.frame_index) == (str(parsed.value), index)


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_encode_decode_frames_match_per_frame_codec(p, m, N, kind):
    params = make(p, m, N)
    vs = np.random.default_rng(N).integers(0, p, size=(9, N))
    leaders = mux_batch(params, kind, vs)
    blob = encode_frames(params, kind, leaders)
    frames = [serialize(mux(TimeBlock(params, tuple(map(int, v))), kind)) for v in vs]
    assert blob == b"".join(frames)
    assert frames == [reference_serialize(mux(TimeBlock(params, tuple(map(int, v))), kind))
                      for v in vs]
    assert frames[0].startswith(frame_header(params, kind))
    assert np.array_equal(decode_frames(blob, params, kind), leaders)
    assert encode_frames(params, kind, leaders[:0]) == b""
    assert decode_frames(b"", params, kind).shape == (0,) + leaders.shape[1:]


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS + [(101, 1, 100)])
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_mux_frames_equals_mux_batch_then_encode_frames(p, m, N, kind):
    params = make(p, m, N)
    vs = np.random.default_rng(N).integers(0, p, size=(7, N))
    want = encode_frames(params, kind, mux_batch(params, kind, vs))
    for dtype in (np.uint8, np.uint16, np.int64):
        assert pipeline.mux_frames(params, kind, vs.astype(dtype)) == want


def test_mux_frames_refuses_an_over_budget_design_before_the_header():
    # the CLI built the design (mux_batch) before the header (encode_frames)
    params = make(3, 12, 531440)
    assert params.N > pipeline.MAX_WIRE_N
    with pytest.raises(UnsupportedParams, match="over the 256 MiB budget$"):
        pipeline.mux_frames(params, Kind.HARTLEY, np.zeros((1, params.N), dtype=np.uint8))


@pytest.mark.parametrize("p,m,N", ACCEPT_SYSTEMS)
@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_demux_frames_of_decoded_frames_equals_demux_batch(p, m, N, kind):
    # the CLI's demux step, demux_batch on the uint8 view decode_frames returns,
    # gives the same symbols as on int64 leaders, and for every
    # single-coefficient corruption the same error
    params = make(p, m, N)
    vs = np.random.default_rng(N).integers(0, p, size=(5, N))
    blob = encode_frames(params, kind, mux_batch(params, kind, vs))
    leaders = decode_frames(blob, params, kind)
    assert leaders.dtype == np.uint8 and leaders.base is not None
    got = demux_batch(params, kind, leaders)
    assert got.dtype == np.uint8 and np.array_equal(got, vs)
    outcomes = set()
    for c in range(leaders[0].size):
        bad = leaders.copy()
        bad[3].reshape(-1)[c] = (int(bad[3].reshape(-1)[c]) + 1) % p
        want = outcome(demux_batch, params, kind, bad.astype(np.int64))
        assert outcome(demux_batch, params, kind, bad) == want
        outcomes.add(want[0])
    assert outcomes - {"ok"}


def test_encode_frames_refuses_leaders_it_cannot_write(p3326):
    kind = Kind.HARTLEY
    # (2, 6, 2, 3), widened so that 257 and -1 fit
    leaders = mux_batch(p3326, kind, np.ones((2, 26), dtype=np.int64)).astype(np.int64)
    # one frame without its batch axis, another nu, flat rows, an extra axis
    for bad in (leaders[0], leaders[:, :-1], leaders.reshape(2, -1), leaders[None]):
        with pytest.raises(ValueError, match="^expected "):
            encode_frames(p3326, kind, bad)
    # a uint8 cast would write 257 as byte 1 and -1 as byte 255
    for value in (3, 257, -1):
        bad = leaders.copy()
        bad[1, 2, 0, 1] = value
        with pytest.raises(ValueError, match=r"in \[0, 3\)$"):
            encode_frames(p3326, kind, bad)


def test_frame_runs_check_each_distinct_header_once(p514, p3326, monkeypatch):
    calls = []
    parse = pipeline._parse_header
    monkeypatch.setattr(pipeline, "_parse_header",
                        lambda data, pos, *a: calls.append(pos) or parse(data, pos, *a))
    one = mux_batch(p514, Kind.HARTLEY, np.array([[4, 0, 1, 2]]))
    two = mux_batch(p3326, Kind.FOURIER, np.ones((1, 26), dtype=np.int64))
    first = encode_frames(p514, Kind.HARTLEY, one)
    runs, error = pipeline._frame_runs((first + encode_frames(p3326, "fourier", two)) * 1000,
                                       None, None)
    assert error is None and len(runs) == 2000
    assert calls == [0, len(first)]
    for n, (params, kind, leaders) in enumerate(runs):
        assert (params, kind) == ((p514, Kind.HARTLEY), (p3326, Kind.FOURIER))[n % 2]
        assert np.array_equal(leaders, (one, two)[n % 2])


@pytest.mark.parametrize("spelling", ["fourier", "FOURIER", "Fourier", Kind.FOURIER],
                         ids=["lower", "upper", "title", "member"])
def test_compressed_frame_holds_the_kind_of_any_spelling(p514, spelling):
    frame = mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.FOURIER)
    again = CompressedFrame(p514, spelling, frame.leaders)
    assert again == frame and again.kind is Kind.FOURIER
    assert mux(TimeBlock(p514, (4, 0, 1, 2)), spelling) == frame
    assert serialize(again) == serialize(frame) and demux(again) == demux(frame)
    with pytest.raises(ValueError, match="not a valid Kind$"):
        CompressedFrame(p514, "foo", frame.leaders)


@pytest.mark.parametrize("kind", ["foo", 3])
def test_bad_kind_raises_value_error_at_every_entry_point(p514, kind):
    vs = np.array([[4, 0, 1, 2]])
    leaders = mux_batch(p514, Kind.HARTLEY, vs)
    spectra = forward_batch(p514, Kind.HARTLEY, vs)
    calls = [lambda: mux_batch(p514, kind, vs), lambda: demux_batch(p514, kind, leaders),
             lambda: reconstruct_batch(p514, kind, leaders),
             lambda: forward_batch(p514, kind, vs), lambda: inverse_batch(p514, kind, spectra),
             lambda: design(p514, kind), lambda: validate_system(p514, kind),
             lambda: coset_table(4, 5, kind), lambda: sigma_matrix(p514, kind),
             lambda: metrics(p514, kind),
             lambda: required_snr(p514, kind), lambda: capacity_check(p514, kind, 10.0),
             lambda: mux(TimeBlock(p514, (4, 0, 1, 2)), kind),
             lambda: crosstalk_probe(p514, 0, 4, kind),
             lambda: frame_header(p514, kind), lambda: frame_byte_length(p514, kind),
             lambda: encode_frames(p514, kind, leaders), lambda: decode_frames(b"", p514, kind),
             lambda: iter_frames(serialize(mux(TimeBlock(p514, (4, 0, 1, 2)))),
                                 expect_kind=kind).__next__(),
             lambda: galois_acf(p514, kind, frames=8),
             lambda: synthesize_envelope(p514, kind, frames=8),
             lambda: psd_estimate(p514, kind, realizations=1, frames=64, nfft=16)]
    for call in calls:
        with pytest.raises(ValueError, match="not a valid Kind$"):
            call()


# ---------------------------------------------------------------------------
# the run parser against the per-frame reference parser
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _stream_designs():
    """(params, kind, 12 frames as bytes) for each acceptance system and kind, and for (3, 3, 26)
    Hartley under poly (2, 2, 0, 1), whose frames have the length of the default poly's."""
    out = []
    designs = [(make(*pmn), kind)
               for pmn in ACCEPT_SYSTEMS for kind in (Kind.HARTLEY, Kind.FOURIER)]
    designs.append((SystemParams.create(3, 3, 26, poly=(2, 2, 0, 1)), Kind.HARTLEY))
    for params, kind in designs:
        p, N = params.p, params.N
        vs = np.random.default_rng(p * N + len(out)).integers(0, p, size=(12, N))
        blob = encode_frames(params, kind, mux_batch(params, kind, vs))
        size = frame_byte_length(params, kind)
        out.append((params, kind, [blob[i:i + size] for i in range(0, len(blob), size)]))
    return tuple(out)


@st.composite
def _mutated_streams(draw):
    """(data, expect, expect_kind, params, kind): 0-12 frames of one or two designs,
    with byte flips (also inside a header), a cut anywhere, as bytes or bytearray."""
    designs = _stream_designs()
    base, other = draw(st.integers(0, len(designs) - 1)), draw(st.integers(0, len(designs) - 1))
    picks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 11)), max_size=12))
    frames = [designs[other if d == 0 else base][2][i] for d, i in picks]
    data = bytearray(b"".join(frames))
    starts = list(itertools.accumulate((len(f) for f in frames), initial=0))[:-1]
    for _ in range(draw(st.integers(0, 2))):
        if not data:
            break
        if draw(st.booleans()):
            pos = draw(st.sampled_from(starts)) + draw(st.integers(0, 14))   # a header byte
        else:
            pos = draw(st.integers(0, len(data) - 1))
        data[min(pos, len(data) - 1)] = draw(st.integers(0, 8) | st.integers(0, 255))
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    params, kind, _ = designs[draw(st.sampled_from([base, other]))]
    expect = draw(st.sampled_from([None, params]))
    expect_kind = draw(st.sampled_from([None, kind, Kind.FOURIER, Kind.HARTLEY]))
    return (draw(st.sampled_from([bytes, bytearray]))(data), expect, expect_kind, params, kind)


def _parsed(frames):
    """(frames yielded, outcome_of the error or None) of a frame iterator."""
    out = []
    try:
        for frame in frames:
            out.append(frame)
    except GdmError as exc:
        return out, outcome_of(exc)
    return out, None


def _deserialized(fn, *args):
    try:
        return ("ok", fn(*args))
    except GdmError as exc:
        return outcome_of(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutated_streams())
def test_frame_parsers_match_the_per_frame_reference(case):
    # the same frames, then the same error class, message and frame_index
    data, expect, expect_kind, params, kind = case
    assert (_parsed(iter_frames(data, expect, expect_kind))
            == _parsed(reference_iter_frames(data, expect, expect_kind)))
    assert (_deserialized(deserialize, data, expect, expect_kind)
            == _deserialized(reference_deserialize, data, expect, expect_kind))
    frames, error = _parsed(reference_iter_frames(data, params, kind))
    want = error or ("ok", [leader_array(frame).tolist() for frame in frames])
    assert outcome(decode_frames, data, params, kind) == want


@st.composite
def _edited_mixed_streams(draw):
    """(data, one-frame slices of it, the writer's params and kind): 1-8 frames of (5, 1, 4)
    Hartley and (3, 3, 26) Fourier, then one byte flip, truncation or splice."""
    designs = [d for d in _stream_designs()
               if (d[0].p, d[0].m, d[0].N, d[1]) in {(5, 1, 4, Kind.HARTLEY),
                                                      (3, 3, 26, Kind.FOURIER)}]
    picks = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 11)),
                          min_size=1, max_size=8))
    frames = [designs[d][2][i] for d, i in picks]
    data = b"".join(frames)
    starts = list(itertools.accumulate((len(f) for f in frames), initial=0))
    edit = draw(st.sampled_from(["flip", "cut", "splice"]))
    if edit == "flip":
        if draw(st.booleans()):
            pos = draw(st.sampled_from(starts[:-1])) + draw(st.integers(0, 14))   # a header byte
        else:
            pos = draw(st.integers(0, len(data) - 1))
        pos = min(pos, len(data) - 1)
        data = data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]
    elif edit == "cut":
        data = data[:draw(st.integers(0, len(data)))]
    else:   # a piece of any frame of either design replaces a range of the stream
        donor = designs[draw(st.integers(0, 1))][2][draw(st.integers(0, 11))]
        i, j = sorted(draw(st.lists(st.integers(0, len(data)), min_size=2, max_size=2)))
        k, n = sorted(draw(st.lists(st.integers(0, len(donor)), min_size=2, max_size=2)))
        data = data[:i] + donor[k:n] + data[j:]
    slices = [data[a:b] for a, b in zip(starts, starts[1:])]
    params, kind, _ = designs[picks[0][0]]
    return data, slices, params, kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_edited_mixed_streams())
def test_readers_match_the_reference_on_edited_mixed_streams(case):
    # with no expectations and with both, the same frames, then the same error class,
    # message and frame_index as the per-frame reference
    data, slices, params, kind = case
    for expect, expect_kind in ((None, None), (params, kind)):
        assert (_parsed(iter_frames(data, expect, expect_kind))
                == _parsed(reference_iter_frames(data, expect, expect_kind)))
        for piece in slices:
            assert (_deserialized(deserialize, piece, expect, expect_kind)
                    == _deserialized(reference_deserialize, piece, expect, expect_kind))
    frames, error = _parsed(reference_iter_frames(data, params, kind))
    want = error or ("ok", [leader_array(frame).tolist() for frame in frames])
    assert outcome(decode_frames, data, params, kind) == want


def test_readers_given_the_design_parse_only_headers_that_differ_from_it(p514, p3326,
                                                                         monkeypatch):
    kind = Kind.HARTLEY
    good = encode_frames(p3326, kind, mux_batch(p3326, kind, np.ones((4, 26), dtype=np.int64)))
    size = frame_byte_length(p3326, kind)
    other = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), kind))
    first = list(iter_frames(good))[0]
    calls = []
    parse = pipeline._parse_header
    monkeypatch.setattr(pipeline, "_parse_header",
                        lambda data, pos, *a: calls.append(pos) or parse(data, pos, *a))
    # a clean stream of the expected design parses no header
    assert len(list(iter_frames(good, p3326, kind))) == 4
    assert len(decode_frames(good, p3326, kind)) == 4
    assert deserialize(good[:size], p3326, kind) == first
    assert calls == []
    # a header that differs is parsed, once, at its own frame
    for read in (lambda blob: list(iter_frames(blob, p3326, kind)),
                 lambda blob: decode_frames(blob, p3326, kind)):
        calls.clear()
        with pytest.raises(ParamMismatch) as refused:
            read(good + other + good)
        assert refused.value.frame_index == 4 and calls == [len(good)]
    # bytes after the one frame deserialize reads are counted, with no frame named
    for expect in ((), (p3326, kind)):
        for blob, extra in ((good[:size] + b"\0", 1), (good[:size] * 2, size)):
            with pytest.raises(BadLength, match=rf"^{extra} trailing bytes after frame$") as exc:
                deserialize(blob, *expect)
            assert exc.value.frame_index is None


def test_deserialize_parses_no_header_after_its_one_frame(p514):
    # a valid (3, 12, 53144) header after the frame was parsed, and without
    # expect its root table built (20-24 ms), before the trailing bytes were counted
    frame = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    header = (struct.pack("<4sHBHB", b"GDM1", 3, 12, 53144, 1) + bytes(get_field(3, 12).poly[:12])
              + struct.pack("<H", coset_table(53144, 3, Kind.HARTLEY).nu))
    assert len(header) == 24
    for expect in ((), (p514, Kind.HARTLEY)):
        assert deserialize(frame, *expect) == deserialize(frame)
        before = fields._root_table.cache_info()
        with pytest.raises(BadLength, match=r"^24 trailing bytes after frame$") as exc:
            deserialize(frame + header, *expect)
        assert exc.value.frame_index is None
        after = fields._root_table.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_deserialize_reads_the_first_frame_by_its_raw_m_and_nu(p514, p3326):
    # a header that lies about nu is refused at frame 0 whatever follows it
    frame = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), Kind.HARTLEY))
    lying = frame[:11] + struct.pack("<H", 2) + frame[13:]
    for blob in (lying, lying + frame, lying[:-1]):
        assert outcome(deserialize, blob) == outcome(reference_deserialize, blob)
        assert outcome(deserialize, blob)[:2] == ("ParamMismatch",
                                                   "header claims 2 leaders, cosets give 3")
    for blob in (b"", b"GDM", frame[:6], frame[:12], frame[:-1], frame + frame[:3]):
        assert outcome(deserialize, blob) == outcome(reference_deserialize, blob)


def _boom(*args, **kwargs):
    raise AssertionError("called on a path that must not call it")


def test_decode_frames_reads_a_refused_stream_in_one_pass(p514, p3326, monkeypatch):
    # a bad last frame is named without building a frame object or a
    # GaloisInt, i.e. without parsing the stream a second time
    kind = Kind.HARTLEY
    good = encode_frames(p3326, kind, mux_batch(p3326, kind, np.ones((5, 26), dtype=np.int64)))
    foreign = serialize(mux(TimeBlock(p514, (4, 0, 1, 2)), kind))
    mismatch = _parsed(reference_iter_frames(foreign, p3326, kind))[1][1]
    cases = {good[:-1] + b"\xff": ("InconsistentFrame", "coefficient byte >= p = 3", 4),
             good[:-1]: ("BadLength", "truncated leader values", 4),
             good + good[:20]: ("BadLength", "truncated leader values", 5),
             good + foreign: ("ParamMismatch", mismatch, 5)}
    for blob, want in cases.items():
        assert _parsed(reference_iter_frames(blob, p3326, kind))[1] == want
    monkeypatch.setattr(pipeline, "CompressedFrame", _boom)
    monkeypatch.setattr(GaloisInt, "__init__", _boom)
    for blob, want in cases.items():
        assert outcome(decode_frames, blob, p3326, kind) == want


@pytest.mark.parametrize("kind", [Kind.HARTLEY, Kind.FOURIER])
def test_demux_reject_expands_no_spectrum(kind, monkeypatch):
    # a batch the re-encode refuses is named from the orbit ends alone, with
    # the orbit walk that expands spectra never called; (7, 2, 48) has
    # single-coefficient corruptions of both classes
    params = make(7, 2, 48)
    leaders = mux_batch(params, kind, np.random.default_rng(5).integers(0, 7, size=(6, 48)))
    wants = {}
    for c in range(leaders[0].size):
        bad = leaders.copy()
        bad[4].reshape(-1)[c] = (bad[4].reshape(-1)[c] + 1) % 7
        got = outcome(_reference_demux, params, kind, bad)
        wants.setdefault(got[0], (bad, got))
    assert set(wants) == {"ok", "InconsistentFrame", "NotGroundField"}
    del wants["ok"]
    monkeypatch.setattr(transforms, "_expand", _boom)
    for bad, want in wants.values():
        assert want[2] == 4
        assert outcome(demux_batch, params, kind, bad) == want


# ---------------------------------------------------------------------------
# cross-talk
# ---------------------------------------------------------------------------

def test_crosstalk_user2(p514):
    rep = crosstalk_probe(p514, 2, 1000, Kind.HARTLEY, seed=5)
    assert rep.clean and rep.max_leak == 0 and rep.active_errors == 0


@pytest.mark.parametrize("symbols", [1 << 18, 1 << 20])
def test_crosstalk_probe_peaks_at_most_20_bytes_per_symbol(p514, symbols):
    # int64 symbols, leaders and recovered rows peaked at 38 B per symbol: a
    # draw inside SAMPLE_BUDGET (2^25 symbols) took about 1.2 GiB
    crosstalk_probe(p514, 1, 4, Kind.HARTLEY)          # the design, built outside the trace
    tracemalloc.start()
    try:
        rep = crosstalk_probe(p514, 1, symbols // 4, Kind.HARTLEY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.clean
    assert peak <= 20 * symbols, peak / symbols


def test_crosstalk_all_users_3326(p3326):
    for u in range(26):
        rep = crosstalk_probe(p3326, u, 100, Kind.HARTLEY, seed=u)
        assert rep.clean, f"user {u} leaked"


@pytest.mark.parametrize("trials", [0, -3])
def test_crosstalk_without_trials_is_refused_before_sampling(p514, monkeypatch, trials):
    def sampled(*args, **kw):
        raise AssertionError("samples drawn before trials was checked")
    monkeypatch.setattr(pipeline.np.random, "default_rng", sampled)
    with pytest.raises(InvalidParams, match=rf"^trials must be >= 1, got {trials}$"):
        crosstalk_probe(p514, 1, trials)


def test_crosstalk_invalid_user(p514):
    with pytest.raises(ValueError):
        crosstalk_probe(p514, 7, 10)


def test_crosstalk_over_the_sample_budget_is_refused_before_sampling(p514, monkeypatch):
    def sampled(*args, **kw):
        raise AssertionError("samples drawn over the budget")
    monkeypatch.setattr(pipeline.np.random, "default_rng", sampled)
    over = pipeline.SAMPLE_BUDGET // 4 + 1
    with pytest.raises(InvalidParams, match=rf"^{over} frames of 4 symbols exceed the sample "):
        crosstalk_probe(p514, 1, over)
    with pytest.raises(ValueError, match="outside"):    # the user is checked first
        crosstalk_probe(p514, 7, over)
    with pytest.raises(AssertionError, match="drawn"):  # the budget itself is drawn
        crosstalk_probe(p514, 1, over - 1)

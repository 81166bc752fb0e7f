import argparse
import contextlib
import io
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import gdmux
from gdmux import (InconsistentFrame, UnsupportedParams, cli, fields, pipeline, statsim, transforms,
                   trig)
from gdmux.cosets import coset_table
from gdmux.cli import main
from gdmux.fields import MAX_FIELD_SIZE, MAX_PRIME, SystemParams
from gdmux.pipeline import encode_frames, frame_header, mux_batch

from support import (ACCEPT_SYSTEMS, acf_by_lags, cli_demux_oracle, cli_mux_oracle, design_grid,
                     make, outcome)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_design_3326(capsys):
    code, out, _ = run(capsys, "design", "-p", "3", "-m", "3", "-N", "26", "--kind", "hartley")
    assert code == 0
    assert "nu = 6" in out
    assert "13/3" in out
    assert "6.86" in out          # eta ~ 6.8685 bits/s/Hz
    assert "C1=(1,23,9,25,3,17)" in out


def test_design_no_gain_note(capsys):
    code, out, _ = run(capsys, "design", "-p", "5", "-m", "1", "-N", "4", "--kind", "fourier")
    assert code == 0
    assert "no gain" in out


def test_design_invalid_params(capsys):
    code, _, err = run(capsys, "design", "-p", "5", "-m", "1", "-N", "5")
    assert code == 1
    assert "error" in err


def test_design_snr_flag(capsys):
    code, out, _ = run(capsys, "design", "-p", "3", "-m", "3", "-N", "26",
                       "--snr-db", "25")
    assert code == 0
    assert "admissible" in out


@pytest.mark.parametrize("snr_db", ["nan", "inf", "1e10"])
def test_design_snr_of_no_finite_power_exits_1_with_a_message(capsys, snr_db):
    # nan printed "gamma_max = nan -> NOT admissible" and exited 0, and 1e10
    # ended in an OverflowError traceback from 10 ** (snr_db / 10)
    code, out, err = run(capsys, "design", "-p", "5", "-N", "4", "--snr-db", snr_db)
    assert (code, out, err) == (1, "", f"error: --snr-db {float(snr_db)} gives no finite SNR\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.txt")), ids=lambda path: path.stem)
def test_stdout_matches_its_golden_file(capsys, path):
    # each file holds the stdout of the command its name spells, "_" for " "
    assert run(capsys, *path.stem.split("_")) == (0, path.read_text(), "")


@pytest.mark.parametrize("path", sorted((GOLDEN / "acf").glob("*.csv")), ids=lambda path: path.stem)
def test_psd_acf_csv_matches_its_golden_file(tmp_path, capsys, path):
    # each file holds the ACF CSV of the psd command its name spells, "_" for " ", written with
    # --out /dev/null --acf-out; its lag sums are exact integer sums, so the bytes hold on any
    # platform (the PSD CSV rests on the FFT's rounding and is pinned by the oracle tests)
    acf = tmp_path / "acf.csv"
    code, out, err = run(capsys, *path.stem.split("_"), "--out", os.devnull, "--acf-out", str(acf))
    assert (code, out) == (0, "") and err.startswith("realizations=4 ")
    assert acf.read_bytes() == path.read_bytes()


def test_cosets_output(capsys):
    code, out, _ = run(capsys, "cosets", "-p", "3", "-N", "26", "--kind", "fourier")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "C0=(0)"
    assert lines[1] == "C1=(1,3,9)"
    assert len(lines) == 10


def test_carriers_output(capsys):
    code, out, _ = run(capsys, "carriers", "-p", "5", "-m", "1", "-N", "4")
    assert code == 0
    assert out.splitlines() == ["1 1 1 1", "1 3j 4 2j", "1 4 1 4", "1 2j 4 3j"]


def test_mux_demux_round_trip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    binf = tmp_path / "frames.bin"
    back = tmp_path / "out.txt"
    src.write_text("4 0 1 2\n")
    code, _, _ = run(capsys, "mux", "-p", "5", "-m", "1", "-N", "4",
                     "--in", str(src), "--out", str(binf))
    assert code == 0
    assert len(binf.read_bytes()) == 19   # 10 header + 1 poly + 2 nu + 3*2 leaders
    code, _, _ = run(capsys, "demux", "-p", "5", "-m", "1", "-N", "4",
                     "--in", str(binf), "--out", str(back))
    assert code == 0
    assert back.read_text() == src.read_text()


def test_mux_demux_bulk_byte_exact(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = [" ".join(str(x) for x in rng.integers(0, 3, 26)) for _ in range(10_000)]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(lines) + "\n")
    binf = tmp_path / "frames.bin"
    back = tmp_path / "out.txt"
    args = ["-p", "3", "-m", "3", "-N", "26", "--kind", "hartley"]
    assert run(capsys, "mux", *args, "--in", str(src), "--out", str(binf))[0] == 0
    assert run(capsys, "demux", *args, "--in", str(binf), "--out", str(back))[0] == 0
    assert back.read_bytes() == src.read_bytes()


def test_mux_empty_input(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("")
    out = tmp_path / "frames.bin"
    assert run(capsys, "mux", "-p", "5", "-m", "1", "-N", "4",
               "--in", str(src), "--out", str(out))[0] == 0
    assert out.read_bytes() == b""


def test_mux_parse_error_reports_line(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("4 0 1 2\n4 0 x 2\n")
    code, _, err = run(capsys, "mux", "-p", "5", "-m", "1", "-N", "4",
                       "--in", str(src), "--out", str(tmp_path / "o.bin"))
    assert code == 2
    assert "line 2" in err


def test_demux_corrupt_frame_reports_index(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("4 0 1 2\n1 1 1 1\n")
    binf = tmp_path / "frames.bin"
    args = ["-p", "5", "-m", "1", "-N", "4"]
    run(capsys, "mux", *args, "--in", str(src), "--out", str(binf))
    blob = bytearray(binf.read_bytes())
    blob = blob[: 19 + 4]  # truncate inside second frame
    binf.write_bytes(bytes(blob))
    code, _, err = run(capsys, "demux", *args, "--in", str(binf),
                       "--out", str(tmp_path / "o.txt"))
    assert code == 2
    assert "frame 1" in err


def test_crosstalk_command(capsys):
    code, out, _ = run(capsys, "crosstalk", "-p", "5", "-m", "1", "-N", "4",
                       "--user", "2", "--frames", "200")
    assert code == 0
    assert "no cross-talk detected" in out


@pytest.mark.parametrize("argv,message", [
    (["crosstalk", "--user", "9"], "error: --user 9 outside [0, 4)\n"),
    (["crosstalk", "--user", "-1"], "error: --user -1 outside [0, 4)\n"),
    (["crosstalk", "--frames", "-1"], "error: --frames must be >= 1, got -1\n"),
    (["crosstalk", "--frames", "0"], "error: --frames must be >= 1, got 0\n"),
    (["psd", "--realizations", "0"], "error: --realizations must be >= 1, got 0\n"),
    (["psd", "--nfft", "0"], "error: --nfft must be >= 1, got 0\n"),
    (["psd", "--nfft", "-4"], "error: --nfft must be >= 1, got -4\n"),
    (["psd", "--frames", "0"], "error: --frames must be >= 1, got 0\n"),
    (["psd", "--frames", "-5"], "error: --frames must be >= 1, got -5\n"),
])
def test_invalid_numbers_exit_1_with_a_message(capsys, argv, message):
    command, *flags = argv
    code, out, err = run(capsys, command, "-p", "5", "-N", "4", "--frames", "64", *flags)
    assert (code, out, err) == (1, "", message)


def test_psd_over_the_sample_budget_exits_1_before_sampling(capsys, monkeypatch):
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("samples drawn over the budget")
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
    code, out, err = run(capsys, "psd", "-p", "5", "-N", "4", "--frames", "100000000",
                         "--realizations", "1")
    assert (code, out) == (1, "")
    assert err == (f"error: 100000000 frames of 4 symbols exceed the sample budget of "
                   f"{pipeline.SAMPLE_BUDGET} symbols per draw\n")


def test_psd_of_an_nfft_longer_than_an_envelope_exits_1_before_sampling(capsys, monkeypatch):
    # 4 frames over 4 realizations: 1 frame * 3 leaders * 8 samples, no segment of 512
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("samples drawn for an nfft no envelope holds")
    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
    code, out, err = run(capsys, "psd", "-p", "5", "-N", "4", "--frames", "4",
                         "--realizations", "4", "--nfft", "512")
    assert (code, out, err) == (1, "", "error: frames too small for the requested nfft\n")


def test_psd_refuses_more_realizations_than_frames_before_sampling(tmp_path, capsys, monkeypatch):
    # --frames is the total split across realizations: 128 realizations of 10 frames drew 128
    def drawn(*args):
        raise AssertionError("samples drawn for more realizations than frames")
    monkeypatch.setattr(statsim, "_transmit_symbols", drawn)
    argv = ["psd", "-p", "5", "-N", "4", "--nfft", "1", "--out", str(tmp_path / "psd.csv")]
    assert run(capsys, *argv, "--frames", "10", "--realizations", "128") == (
        1, "", "error: --realizations 128 exceeds --frames 10\n")
    monkeypatch.undo()
    assert run(capsys, *argv, "--frames", "4", "--realizations", "4")[0] == 0


@pytest.mark.parametrize("user", [["--user", "1"], []], ids=["one-user", "each-user"])
def test_crosstalk_over_the_sample_budget_exits_1_before_sampling(capsys, user):
    # one draw of 100000000 frames of 4 symbols would peak near 6.8 GB, at 17 B per symbol
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "crosstalk", "-p", "5", "-N", "4", *user,
                             "--frames", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == (f"error: 100000000 frames of 4 symbols exceed the sample budget of "
                   f"{pipeline.SAMPLE_BUDGET} symbols per draw\n")
    assert peak < 1 << 20


def test_psd_command(tmp_path, capsys):
    csv = tmp_path / "psd.csv"
    acf = tmp_path / "acf.csv"
    code, _, err = run(capsys, "psd", "-p", "5", "-m", "1", "-N", "4",
                       "--frames", "4096", "--realizations", "16",
                       "--nfft", "256", "--out", str(csv), "--acf-out", str(acf))
    assert code == 0
    head = csv.read_text().splitlines()
    assert head[0] == "freq_hz,psd_est,psd_theory"
    assert len(head) == 257
    assert acf.read_text().splitlines()[0] == "lag,acf_re,acf_im,stderr"
    assert "fitted_scale" in err


@pytest.mark.parametrize("p,N,kind", [(5, 4, "hartley"), (7, 6, "hartley"), (13, 12, "fourier"),
                                      (59, 58, "hartley")])
def test_psd_acf_csv_equals_the_per_lag_oracle(tmp_path, capsys, monkeypatch, p, N, kind):
    argv = ["psd", "-p", str(p), "-m", "1", "-N", str(N), "--kind", kind, "--frames", "1024",
            "--realizations", "4", "--nfft", "64", "--out", str(tmp_path / "psd.csv")]
    assert run(capsys, *argv, "--acf-out", str(tmp_path / "acf.csv"))[0] == 0
    monkeypatch.setattr(statsim, "acf_of_stream", acf_by_lags)
    assert run(capsys, *argv, "--acf-out", str(tmp_path / "oracle.csv"))[0] == 0
    csv = (tmp_path / "acf.csv").read_bytes()
    assert csv == (tmp_path / "oracle.csv").read_bytes() and csv.count(b"\n") == N + 1


def test_mux_non_utf8_input_is_a_data_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"4 0 1 2\n\xff\xfe 1 2\n")
    out = tmp_path / "o.bin"
    code, _, err = run(capsys, "mux", "-p", "5", "-m", "1", "-N", "4",
                       "--in", str(src), "--out", str(out))
    assert code == 2
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


@pytest.mark.parametrize("command", ["mux", "demux"])
def test_unreadable_input_and_unwritable_output_exit_1(tmp_path, capsys, command):
    args = [command, "-p", "5", "-m", "1", "-N", "4"]
    code, _, err = run(capsys, *args, "--in", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: [Errno 2] No such file or directory")
    src = tmp_path / "in"
    src.write_bytes(b"")
    for bad_out in (tmp_path / "no-such-dir" / "o", tmp_path):
        code, _, err = run(capsys, *args, "--in", str(src), "--out", str(bad_out))
        assert code == 1
        assert err.startswith("error: [Errno ")


def _read_outcome(read, path):
    try:
        return read(path)
    except OSError as exc:
        return type(exc), str(exc)


def test_read_bytes_reads_what_an_open_file_reads(tmp_path):
    # a regular file is read in one os.read of its fstat size; a file fstat gives no size
    # for, a device, a pipe and a directory are read, or refused, as open() does
    def opened(path):
        with open(path, "rb") as fh:
            return fh.read()
    big = tmp_path / "big"
    big.write_bytes(bytes(range(256)) * 4099)
    (tmp_path / "empty").write_bytes(b"")
    paths = [big, tmp_path / "empty", tmp_path / "missing", tmp_path, "/dev/null"]
    paths += [path for path in ("/proc/version",) if os.path.exists(path)]
    for path in paths:
        assert _read_outcome(cli._read_bytes, str(path)) == _read_outcome(opened, str(path)), path
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c", "import sys; open(sys.argv[1], 'wb').write("
                               "bytes(range(256)) * 1000)", str(fifo)])
    try:
        assert cli._read_bytes(str(fifo)) == bytes(range(256)) * 1000
    finally:
        assert writer.wait(timeout=30) == 0


@pytest.mark.parametrize("argv", [
    ["mux"], ["mux", "-p", "5", "-N", "4", "--kind", "foo"], ["bogus"],
    ["mux", "-p", "x", "-N", "4"], ["cosets", "--poly", "1"], [],
], ids=["no-flags", "bad-kind", "unknown-command", "bad-int", "unknown-flag", "no-command"])
def test_usage_errors_exit_1_with_argparse_usage_text(capsys, monkeypatch, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    ours = capsys.readouterr()
    assert info.value.code == 1 and ours.out == ""
    # byte for byte what argparse itself writes before its exit 2
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit) as stock:
        main(argv)
    assert stock.value.code == 2
    assert ours.err == capsys.readouterr().err
    assert ours.err.startswith("usage: gdmux") and ": error: " in ours.err


@pytest.mark.parametrize("spelling,same_as", [
    (["--snr-db", "-1e1"], ["--snr-db", "-10"]), (["--snr-db", "-1E+1"], ["--snr-db", "-10"]),
    (["--snr-db", "-inf"], ["--snr-db=-inf"]), (["--snr-db", "-nan"], ["--snr-db=-nan"]),
], ids=["exponent", "upper-exponent", "minus-inf", "minus-nan"])
def test_design_snr_db_takes_any_negative_number(capsys, spelling, same_as):
    # argparse reads "-1e1" and "-inf" as flags ("expected one argument")
    # unless they are joined to --snr-db; only -10 and -2.5 passed before
    args = ["design", "-p", "5", "-N", "4"]
    assert run(capsys, *args, *spelling) == run(capsys, *args, *same_as)


def test_design_snr_db_of_minus_inf_is_not_admissible(capsys):
    code, out, err = run(capsys, "design", "-p", "5", "-N", "4", "--snr-db", "-inf")
    assert (code, err) == (0, "")
    assert out.endswith("\nat -inf dB: gamma_max = 0.0000 -> NOT admissible\n")


@pytest.mark.parametrize("argv", [
    ["design", "-p", "5", "-N", "4", "--snr-db"], ["design", "-p", "5", "-N", "4", "--snr-db", "-x"],
    ["design", "-p", "-1e1", "-N", "4"], ["design", "-p", "5", "--snr-db", "-N", "4"],
    ["design", "-p", "5", "-N", "4", "--poly", "--snr-db", "-1e1"],
    ["mux", "-p", "5", "-N", "4", "--snr-db", "-1e1"],
    ["design", "--snr", "-1e1", "-p", "5", "-N", "4"],
], ids=["no-value", "flag-like", "other-flag", "value-is-a-flag", "as-a-value", "other-command",
        "abbreviated"])
def test_other_snr_db_usage_errors_are_argparse_own(capsys, monkeypatch, argv):
    # only a number right after --snr-db of design is joined to it; every
    # other usage error is byte for byte what argparse itself writes
    with pytest.raises(SystemExit) as info:
        main(argv)
    ours = capsys.readouterr().err
    assert info.value.code == 1 and ours.startswith("usage: gdmux")
    monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    with pytest.raises(SystemExit):
        cli._parser().parse_args(argv)
    assert capsys.readouterr().err == ours


@pytest.mark.parametrize("argv", [["-h"], ["mux", "-h"], ["cosets", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gdmux")


@pytest.mark.parametrize("argv,message", [
    (["design", "-p", "1000000000000000003", "-N", "2"],
     "p must be <= 251, got 1000000000000000003"),
    (["design", "-p", "3", "-m", "100000", "-N", "2"],
     f"p^m must be <= {MAX_FIELD_SIZE}, got 3^100000"),
    (["cosets", "-p", "3", "-N", str(MAX_FIELD_SIZE)],
     f"N must be < {MAX_FIELD_SIZE}, as it divides p^m - 1, got {MAX_FIELD_SIZE}"),
    (["cosets", "-p", "4", "-N", "3"], "p must be an odd prime, got 4"),
    (["cosets", "-p", "1", "-N", "4"], "p must be an odd prime, got 1"),
    (["cosets", "-p", "-3", "-N", "4"], "p must be an odd prime, got -3"),
    (["cosets", "-p", "253", "-N", "4"], "p must be <= 251, got 253"),
], ids=["p", "m", "N", "cosets-p-4", "cosets-p-1", "cosets-p--3", "cosets-p-253"])
def test_out_of_scope_design_input_exits_1_before_any_large_work(capsys, monkeypatch, argv,
                                                                  message):
    # a prime test of 10^18 + 3 by trial division does not finish
    is_prime = fields.is_prime

    def bounded_is_prime(n):
        assert n <= MAX_PRIME, f"is_prime({n}) called"
        return is_prime(n)
    monkeypatch.setattr(fields, "is_prime", bounded_is_prime)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_demux_n_over_the_header_field_exits_1_without_a_traceback(tmp_path):
    # N = 106288 divides 3^12 - 1 but not the u16 N field of a GDM1 header
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(gdmux.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gdmux.cli", "demux", "-p", "3", "-m", "12",
                           "-N", "106288", "--in", str(src), "--out", "-"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "does not fit the 16-bit N field of the GDM1 header" in proc.stderr


# ---------------------------------------------------------------------------
# --out: overwrite in place, trim, and errors from the device or the limit
# ---------------------------------------------------------------------------

_MUX_ARGS = ["-p", "3", "-m", "3", "-N", "26"]


def _mux_text(lines):
    rng = np.random.default_rng(7)
    return "".join(" ".join(map(str, r)) + "\n" for r in rng.integers(0, 3, (lines, 26)).tolist())


def _outputs_of(tmp_path, capsys, command):
    """Run one command into fresh files: (argv builder taking --out and --acf-out, their bytes)."""
    src = tmp_path / "in"
    if command == "psd":
        def argv(out, acf):
            return ["psd", "-p", "5", "-N", "4", "--frames", "256", "--realizations", "4",
                    "--nfft", "16", "--out", str(out), "--acf-out", str(acf)]
    else:
        src.write_text(_mux_text(30))
        if command == "demux":
            assert main(["mux", *_MUX_ARGS, "--in", str(src), "--out", str(tmp_path / "frames")]) == 0
            src = tmp_path / "frames"

        def argv(out, acf):
            return [command, *_MUX_ARGS, "--in", str(src), "--out", str(out)]
    want = [tmp_path / "want.out", tmp_path / "want.acf"]
    assert main(argv(*want)) == 0
    capsys.readouterr()
    return argv, [w.read_bytes() for w in want if w.exists()]


@pytest.mark.parametrize("command", ["mux", "demux", "psd"])
def test_out_overwrites_an_existing_file_with_exactly_the_new_bytes(tmp_path, capsys, command):
    argv, want = _outputs_of(tmp_path, capsys, command)
    outs = [tmp_path / "o.out", tmp_path / "o.acf"]
    for extra in (1000, 1, 0, -1, -len(min(want, key=len)) // 2):   # longer, same, shorter
        for path, w in zip(outs, want):
            path.write_bytes(b"\xff" * (len(w) + extra))
        assert main(argv(*outs)) == 0
        assert [path.read_bytes() for path in outs[:len(want)]] == want, extra
    capsys.readouterr()


def test_out_creates_a_file_with_the_mode_open_gives(tmp_path, capsys):
    src = tmp_path / "in"
    src.write_text(_mux_text(2))
    old = os.umask(0o002)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        assert main(["mux", *_MUX_ARGS, "--in", str(src), "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    mode = {name: (tmp_path / name).stat().st_mode for name in ("reference", "o")}
    assert mode["o"] == mode["reference"]


@pytest.mark.parametrize("command", ["mux", "demux"])
@pytest.mark.parametrize("device,code,message", [
    ("/dev/null", 0, ""), ("/dev/full", 1, "error: [Errno 28] ")])
def test_out_to_a_device_is_written_and_not_trimmed(tmp_path, capsys, command, device, code,
                                                     message):
    if not os.path.exists(device):
        pytest.skip(f"no {device} here")
    argv, _ = _outputs_of(tmp_path, capsys, command)
    got, _, err = run(capsys, *argv(device, None))
    assert (got, err[:len(message)]) == (code, message)


def test_failed_write_leaves_no_old_bytes_after_the_new_ones(tmp_path, capsys):
    resource = pytest.importorskip("resource")
    import signal
    if not hasattr(signal, "SIGXFSZ"):
        pytest.skip("no SIGXFSZ here")
    argv, (want,) = _outputs_of(tmp_path, capsys, "mux")
    limit = len(want) // 2
    out = tmp_path / "o"
    out.write_bytes(b"\xff" * (len(want) + 1000))
    # the file size limit and the ignored signal hold in the child process only
    child = ("import resource, signal, sys\n"
             "from gdmux.cli import main\n"
             "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
             "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
             f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(gdmux.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", child, *argv(out, None)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: [Errno 27] ")
    got = out.read_bytes()
    assert len(got) <= limit and want.startswith(got)


def test_main_calls_share_no_parser_state(monkeypatch):
    seen = []
    for name in ("mux", "demux", "crosstalk"):
        monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)) or 0)
    main(["mux", "-p", "5", "-N", "4", "--kind", "fourier", "--in", "a"])
    main(["demux", "-p", "3", "-m", "3", "-N", "26"])
    main(["crosstalk", "-p", "5", "-N", "4", "--user", "2"])
    with pytest.raises(SystemExit):     # left over after "--": the whole parser's error
        main(["crosstalk", "-p", "5", "-N", "4", "--", "--user", "1"])
    main(["crosstalk", "-p", "5", "-N", "4"])
    main(["mux", "-p", "5", "-N", "4"])
    assert [(a["command"], a["kind"], a["m"]) for a in seen] == [
        ("mux", "fourier", 1), ("demux", "hartley", 3), ("crosstalk", "hartley", 1),
        ("crosstalk", "hartley", 1), ("mux", "hartley", 1)]
    assert (seen[0]["infile"], seen[4]["infile"]) == ("a", "-")
    assert (seen[2]["user"], seen[3]["user"]) == (2, None)
    assert "user" not in seen[4] and "infile" not in seen[2]


@pytest.mark.parametrize("argv", [
    ["design", "-p", "5", "-N", "4"],
    ["design", "-N", "26", "-p", "3", "-m", "3", "--kind", "fourier", "--poly", "1,2,0,1",
     "--snr-db", "25"],
    ["cosets", "-p", "3", "-N", "26"], ["cosets", "-N", "26", "--kind", "fourier", "-p", "3"],
    ["carriers", "-p", "5", "-N", "4"], ["carriers", "-p", "5", "-m", "1", "-N", "4", "--kind", "fourier"],
    ["mux", "-p", "3", "-m", "3", "-N", "26"],
    ["mux", "--in", "in.txt", "-p", "3", "-m", "3", "-N", "26", "--out", "-", "--kind", "hartley"],
    ["demux", "-p", "3", "-m", "3", "-N", "26"],
    ["demux", "-p", "7", "-m", "2", "-N", "48", "--kind", "fourier", "--in", "-", "--out", "out.txt"],
    ["crosstalk", "-p", "5", "-N", "4"],
    ["crosstalk", "-p", "5", "-N", "4", "--user", "2", "--frames", "64", "--seed", "7"],
    ["psd", "-p", "5", "-N", "4"],
    ["psd", "-p", "5", "-N", "4", "--frames", "4096", "--realizations", "16", "--nfft", "256",
     "--seed", "1", "--out", "psd.csv", "--acf-out", "acf.csv"],
    ["selftest"],
])
def test_plain_argv_never_reaches_argparse(monkeypatch, argv):
    # `command (flag value)*` is read off the flag table: no parser is built or parsed with
    want = vars(cli.build_parser().parse_args(argv))
    def reached(*args, **kwargs):
        raise AssertionError(f"argparse reached by {argv}")
    monkeypatch.setattr(cli, "build_parser", reached)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", reached)
    cli._parser.cache_clear()
    assert vars(cli._parse(argv)) == want


# argv drawn from every command, its flags, values and junk: plain
# `command (flag value)*` is read off the command's parser, and the whole
# parser takes the rest, such as "--", extras and no command. --snr-db
# reads nan and -nan as NaN, which both sides give as _NAN. The second
# kind of draw is `command (flag value)*` alone, to reach the plain path's
# edges: repeated flags, flags of other commands (--user on mux), values
# that int() reads ("007", " 5", "1_0", an Arabic-Indic 3) and values
# that start with "-" or are no flag's type
_ARGV_HEADS = sorted(cli._COMMANDS) + ["bogus", "mu", "-h", "--he", "--", ""]
_ARGV_FLAGS = ["-p", "-m", "-N", "--poly", "--kind", "--in", "--out", "--user", "--frames",
               "--seed", "--realizations", "--nfft", "--acf-out", "--snr-db", "--snr", "--fr",
               "--us", "-h", "--help", "--he", "--", "--bogus", "-p5", "--kind=fourier", "--in=-"]
_ARGV_VALUES = ["-", "5", "4", "3", "26", "-1", "x", "fourier", "hartley", "1,0,1", "-1e1", "-inf",
                "inf", "nan", "-nan", "extra", "mux", "007", "", " 5", "1_0", "\u0663", "a=b",
                "x.txt"]
_ARGV_REQUIRED = st.sampled_from([[], ["-p", "5", "-N", "4"], ["-p", "3", "-m", "3", "-N", "26"]])


def _argv_pairs(*kinds, max_size):
    """Lists of flag-value pairs, each flag and value drawn from one of kinds."""
    pair = st.one_of(*(st.tuples(st.sampled_from(flags), st.sampled_from(values))
                       for flags, values in kinds))
    return st.lists(pair.map(list), max_size=max_size).map(lambda pairs: sum(pairs, []))


_ARGVS = st.one_of(
    st.builds(lambda head, required, pairs, tail: head + required + pairs + tail,
              st.lists(st.sampled_from(_ARGV_HEADS), max_size=1), _ARGV_REQUIRED,
              _argv_pairs((_ARGV_FLAGS, _ARGV_VALUES), max_size=4),
              st.lists(st.sampled_from(_ARGV_FLAGS + _ARGV_VALUES), max_size=8)),
    st.builds(lambda head, required, pairs: [head] + required + pairs,
              st.sampled_from(sorted(cli._COMMANDS)),
              st.sampled_from([["-p", "5", "-N", "4"], ["-N", "26", "-p", "3"]]),
              _argv_pairs((["-m", "--frames", "--seed", "--user", "-p"],
                           ["3", "007", " 5", "1_0", "\u0663", "-1"]),
                          (["--kind", "--in", "--out", "--in=-", "-h"],
                           ["-", "x.txt", "a=b", "", "hartley", "fourier", "-x"]), max_size=3)))


_NAN = object()     # stands for a parsed NaN, which == never finds equal to itself


def _parse_outcome(parse, argv):
    """(the parsed vars or the exit code, stdout, stderr) of parse(argv), each NaN as _NAN."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = {dest: _NAN if isinstance(value, float) and math.isnan(value) else value
                      for dest, value in vars(parse(argv)).items()}
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _parse_in_main(argv):
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in cli._COMMANDS:
            mp.setitem(cli._COMMANDS, name, lambda args: seen.append(args) or 0)
        assert main(argv) == 0
    return seen[0]


@settings(max_examples=400, deadline=None)
@given(_ARGVS)
@example(["design", "-p", "5", "-N", "4", "--snr-db", "nan"])
@example(["design", "-p", "5", "-N", "4", "--snr-db", "-nan", "--kind", "fourier"])
def test_main_parses_argv_as_the_whole_parser_does(argv):
    assert _parse_outcome(_parse_in_main, argv) == _parse_outcome(
        cli._parser().parse_args, cli._joined_snr_db(argv))


_TOY = (("--n", dict(type=int, default=7)), ("--tag", dict(choices=["a", "b"], required=True)),
        ("--name", dict(default=None)))


@pytest.mark.parametrize("pairs,plain", [
    (["--tag", "a"], True), (["--n", "3", "--tag", "b"], True), (["--tag", "-"], False),
    (["--tag", "c"], False), (["--n", "x", "--tag", "a"], False), ([], False),
    (["--tag", "a", "--tag", "b"], False),
    (["--tag", "a", "--name", "-x"], False), (["--tag", "a", "--name", "x=-"], True),
    (["--ta", "a"], False), (["--tag=a"], False),
    (["--tag", "a", "-h", "x"], False),
], ids=lambda x: x if isinstance(x, bool) else " ".join(x))
def test_plain_reads_what_parse_known_args_reads(monkeypatch, pairs, plain):
    # the rules on a table entry of shapes gdmux's flags have not: a required flag with
    # choices, a str flag with no type
    monkeypatch.setitem(cli._FLAGS, "toy", ("a toy command", _TOY))
    monkeypatch.setitem(cli._PLAIN, "toy", cli._plain_rules(_TOY))
    got = cli._plain("toy", pairs)
    assert (got is not None) == plain
    if plain:
        assert (got, []) == cli.build_parser().parse_known_args(["toy", *pairs])


@pytest.mark.parametrize("argv,plain", [
    (["cosets", "-p", "3", "-N", "26"], True),
    (["cosets", "-N", "26", "-p", "3", "--kind", "fourier"], True),
    (["mux", "-p", "5", "-N", "4", "--in", "-"], True),
    (["mux", "-p", "5", "-N", "4", "--in", "x=-"], True),
    (["design", "-p", "5", "-N", "4", "--poly", "2,1", "--snr-db", "3.5"], True),
    (["mux", "-p", "5", "-N", "4", "-p", "5"], False),
    (["mux", "-p", "5", "-N", "4", "--in", "-x"], False),
    (["mux", "-p", "5", "-N", "4", "--ki", "fourier"], False),
    (["mux", "-p", "5", "-N", "4", "--kind=fourier"], False),
    (["mux", "-p", "5", "-N", "4", "-h", "x"], False),
    (["mux", "-p", "5", "-N", "4", "--kind", "bogus"], False),
    (["mux", "-p", "5", "-N", "4", "--kind", "-"], False),
    (["mux", "-p", "x", "-N", "4"], False),
    (["design", "-p", "5", "-N", "4", "--poly", "1,x"], False),
    (["mux", "-p", "5"], False), (["mux"], False),
    (["mux", "-p", "5", "-N", "4", "--user", "1"], False),
], ids=lambda x: x if isinstance(x, bool) else " ".join(x))
def test_plain_reads_gdmux_flags_as_parse_known_args_does(argv, plain):
    # the same rules on gdmux's own flags: a repeated flag, a value that starts with
    # "-", an abbreviation, --flag=value, -h, a refused choice or type, a missing required
    # flag and another command's flag go to argparse
    got = cli._plain(argv[0], argv[1:])
    assert (got is not None) == plain
    if plain:
        assert (got, []) == cli._parser().parse_known_args(argv)


def test_params_create_searches_the_root_once():
    # create searches nothing; the first read of zeta searches, and later reads hit
    fields._root_table.cache_clear()
    params = SystemParams.create(7, 2, 48)
    assert params.zeta == SystemParams.create(7, 2, 48).zeta
    info = fields._root_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize is not None


# ---------------------------------------------------------------------------
# bulk mux/demux against the per-line and per-frame oracles
# ---------------------------------------------------------------------------

# ACCEPT_SYSTEMS plus 2- and 3-digit alphabets, for the text codec
CLI_SYSTEMS = ACCEPT_SYSTEMS + [(11, 2, 40), (101, 1, 100)]


def _cli_file(tmp_path, capsys, command, params, kind, data):
    src, dst = tmp_path / f"{command}.in", tmp_path / f"{command}.out"
    src.write_bytes(data)
    dst.unlink(missing_ok=True)
    code = main([command, "-p", str(params.p), "-m", str(params.m), "-N", str(params.N),
                 "--kind", kind, "--in", str(src), "--out", str(dst)])
    return code, dst.read_bytes() if dst.exists() else None, capsys.readouterr().err


def _mux_corpus(p, N, rng):
    """Named text inputs: valid ones in several spellings and one bad line each."""
    def rows(n):
        return [[str(v) for v in r] for r in rng.integers(0, p, size=(n, N)).tolist()]

    def text(lines, sep=" ", eol="\n"):
        return "".join(sep.join(r) + eol for r in lines).encode()

    many = rows(int(rng.integers(20, 50)))
    corpus = {"empty": b"", "one": text(rows(1)), "many": text(many),
              "no final newline": text(many)[:-1],
              "tabs": text(many, sep="\t"),
              "blank lines and CRLF": b"\r\n" + text(many[:5], eol="\r\n\r\n  \r\n\t\n"),
              "signs and zeros": text([[f"+{v}" if i % 2 else f"0{v}" for i, v in enumerate(r)]
                                       for r in many])}
    # the byte path's edges: separators it leaves to the str path, NUL, widths of 3 and 4 digits,
    # tokens at byte 0 and at EOF, and blank-only text
    for sep in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"):
        corpus[f"{sep!r} between tokens"] = text(many, sep=sep)
        corpus[f"{sep!r} as line break"] = text(many, eol=sep)
    corpus["NUL between tokens"] = text(many, sep="\0")
    corpus["NUL line"] = text(many[:3]) + b"\0\n" + text(many[3:])
    corpus["3 digits, leading zeros"] = text([[v.zfill(3) for v in r] for r in many])
    corpus["4 digits, leading zeros"] = text([[v.zfill(4) for v in r] for r in many])
    corpus["one 4-digit token"] = text(many[:1] + [["0000"] + r[1:] for r in many[1:2]] + many[2:])
    corpus["largest symbol, 3 digits"] = text(many + [[str(p - 1).zfill(3)] * N])
    corpus["p, 3 digits"] = text(many + [[str(p).zfill(3)] + ["0"] * (N - 1)])
    corpus["1000"] = text(many + [["1000"] + ["0"] * (N - 1)])
    corpus["single line, no newline"] = text(many[:1])[:-1]
    corpus["blank only"] = b" \t\r\n\n  \n\t"
    corpus["CRLF and LF"] = b"".join(text([r], eol=("\r\n", "\n")[i % 2])
                                     for i, r in enumerate(many))
    corpus["CR before a blank"] = text(many[:2]) + b"\r \n" + text(many[2:])
    # 256, 300 and 999 wrap to 0, 44 and 231 if the hundreds are summed in uint8
    bad_tokens = ["x", "1.0", str(p), "-1", "-0x1", "9" * 20, "-" + "9" * 20, "\u0663x", "\u0663",
                  "256", "300", "999"]
    for tok in bad_tokens:
        lines = [list(r) for r in many]
        lines[int(rng.integers(len(lines)))][int(rng.integers(N))] = tok
        corpus[f"token {tok!r}"] = text(lines)
    for name, edit in (("too few", lambda r: r[:-1]), ("too many", lambda r: r + ["0"]),
                       ("one of N", lambda r: r[:1])):
        lines = [list(r) for r in many]
        k = int(rng.integers(len(lines)))
        lines[k] = edit(lines[k])
        corpus[f"{name} tokens"] = text(lines)
    return corpus


def _demux_corpus(params, kind, other_kind_frame, other_design_frame, rng):
    """Named frame streams: valid ones, and corruptions of each part of a frame."""
    p, N = params.p, params.N
    good = encode_frames(params, kind, mux_batch(params, kind, rng.integers(0, p, (24, N))))
    L, H = len(good) // 24, len(frame_header(params, kind))
    corpus = {"empty": b"", "one": good[:L], "many": good}

    def flipped(pos, value):
        blob = bytearray(good)
        blob[pos] = value
        return bytes(blob)

    for n in range(8):
        f, i = int(rng.integers(24)), int(rng.integers(H))
        corpus[f"header flip {n}"] = flipped(f * L + i, (good[f * L + i] + int(rng.integers(1, 256))) % 256)
    for n in range(12):
        pos = int(rng.integers(24)) * L + int(rng.integers(H, L))
        corpus[f"leader flip {n}"] = flipped(pos, (good[pos] + int(rng.integers(1, p))) % p)
        pos = int(rng.integers(24)) * L + int(rng.integers(H, L))
        corpus[f"coefficient >= p {n}"] = flipped(pos, int(rng.integers(p, 256)))
    for n in range(3):
        f = int(rng.integers(1, 24))
        corpus[f"cut in header {n}"] = good[:f * L + int(rng.integers(1, H))]
        corpus[f"cut in leaders {n}"] = good[:f * L + int(rng.integers(H, L))]
        corpus[f"trailing {n}"] = good + bytes(rng.integers(0, 256, int(rng.integers(1, L))).tolist())
    corpus["trailing header"] = good + good[:H]
    f = int(rng.integers(24)) * L
    corpus["unreduced polynomial byte"] = flipped(f + 10, good[f + 10] + p)
    for name, frame in (("other kind", other_kind_frame), ("other design", other_design_frame)):
        f = int(rng.integers(24)) * L
        corpus[f"{name} spliced"] = good[:f] + frame + good[f:]
    return corpus


def _zero_frame(params, kind):
    zeros = np.zeros((1, params.N), dtype=np.int64)
    return encode_frames(params, kind, mux_batch(params, kind, zeros))


def _outcome(result):
    code, _, err = result
    return "ok" if code == 0 else err.split(" ", 1)[0]


def test_bulk_mux_matches_per_line_oracle(tmp_path, capsys):
    rng = np.random.default_rng(41)
    outcomes = set()
    for p, m, N in CLI_SYSTEMS:
        params = make(p, m, N)
        for kind in ("hartley", "fourier"):
            for case, text in _mux_corpus(p, N, rng).items():
                got = _cli_file(tmp_path, capsys, "mux", params, kind, text)
                assert got == cli_mux_oracle(params, kind, text), (p, m, N, kind, case)
                outcomes.add(_outcome(got))
    assert outcomes == {"ok", "line"}


def test_byte_parse_reads_every_value_of_up_to_3_digits():
    # the hundreds are summed in uint16 whatever NumPy's promotion rules, so 256 is not read as 0
    text = "".join(f"{v} {v:03d}\n" for v in range(1000)).encode()
    assert cli._byte_rows(text, 1000, 2).tolist() == [[v, v] for v in range(1000)]
    assert cli._byte_rows(text, 999, 2) is None


# the characters of the text fuzz: digits, blanks the byte path reads and ones it leaves to the
# str path, and bytes that make a token bad
_FUZZ_ALPHABET = "0123456789 \t\n\r\x0b\x1c+-x"


@st.composite
def _fuzz_texts(draw):
    """(p, m, N, kind, text): lines of mostly N symbols, some zero-padded, with blanks between
    them, and now and then a bad token, a short or long line or characters of _FUZZ_ALPHABET
    put in anywhere, so that many texts parse and many do not; (101, 1, 4) has 3-digit
    symbols."""
    p, m, N = draw(st.sampled_from([(5, 1, 4), (101, 1, 4), (7, 1, 3)]))
    blank = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        for _ in range(draw(st.sampled_from([N] * 12 + [N - 1, N + 1]))):
            if draw(st.integers(0, 39)):
                width = draw(st.sampled_from([0] * 6 + [3, 4]))
                token = str(draw(st.integers(0, p - 1))).zfill(width)
            else:
                token = draw(st.text("0123456789", min_size=1, max_size=4))
            pieces.append(draw(blank) + token)
        pieces.append(draw(st.sampled_from(["", "", " ", "\t"])) + draw(st.sampled_from(
            ["\n", "\n", "\n", "\r\n", "\n\n", "\n \n"])))
    for _ in range(draw(st.sampled_from([0] * 5 + [1, 2]))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.text(_FUZZ_ALPHABET, min_size=1,
                                                                      max_size=2)))
    text = "".join(pieces)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return p, m, N, draw(st.sampled_from(["hartley", "fourier"])), text.encode()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_texts())
def test_mux_of_fuzzed_text_matches_per_line_oracle(tmp_path, capsys, case):
    # the byte path accepts a text only when the str path gives the same rows
    p, m, N, kind, text = case
    params = make(p, m, N)
    assert _cli_file(tmp_path, capsys, "mux", params, kind, text) == cli_mux_oracle(params, kind,
                                                                                    text)


def test_mux_of_a_large_file_peaks_below_14_times_its_size(tmp_path, capsys):
    # a 20k-frame (3, 3, 26) file: plain text read 14.4 times its size on
    # the old str path, and 4-digit tokens, which take the str path, 17.3
    params = make(3, 3, 26)
    vs = np.random.default_rng(43).integers(0, 3, size=(20_000, 26))
    frames = encode_frames(params, "hartley", mux_batch(params, "hartley", vs))
    first_line = b"0 " * 26 + b"\n"
    assert _cli_file(tmp_path, capsys, "mux", params, "hartley", first_line)[0] == 0   # warm design
    src, dst = tmp_path / "big.txt", tmp_path / "big.bin"
    for token in ("{}", "{:04d}"):
        text = ("\n".join(" ".join(map(token.format, row)) for row in vs.tolist()) + "\n").encode()
        src.write_bytes(text)
        tracemalloc.start()
        try:
            code = main(["mux", "-p", "3", "-m", "3", "-N", "26", "--in", str(src),
                         "--out", str(dst)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert dst.read_bytes() == frames
        assert peak <= 14 * len(text), token


def test_bulk_mux_refuses_an_over_budget_design_as_per_line(tmp_path, capsys, monkeypatch):
    # the per-line loop compiled the design at the first good line, so a
    # bad line after it reported the budget, one before it the line
    monkeypatch.setattr(transforms, "DESIGN_BUDGET_BYTES", 1)
    transforms.design.cache_clear()
    params = make(5, 1, 4)
    for text in (b"4 0 1 2\nx\n", b"\nx\n4 0 1 2\n", b"4 0 1 2\n", b""):
        try:
            want = cli_mux_oracle(params, "hartley", text)
        except UnsupportedParams as exc:
            want = (1, None, f"error: {exc}\n")
        assert _cli_file(tmp_path, capsys, "mux", params, "hartley", text) == want


def test_demux_refuses_an_over_budget_design_as_mux_and_crosstalk_do(tmp_path, capsys):
    # demux reported the refusal of demux_batch as a data error, with exit 2
    params = make(3, 8, 6560)
    header = frame_header(params, "hartley")
    frame = header + bytes(int.from_bytes(header[-2:], "little") * 2 * params.m)
    code, out, err = _cli_file(tmp_path, capsys, "demux", params, "hartley", 2 * frame)
    assert (code, out) == (1, None)
    assert err.startswith("error: GDM(p=3, m=8, N=6560, ")
    assert err.endswith("/hartley: compiled design needs 668.0 MiB, over the 256 MiB budget\n")
    assert _cli_file(tmp_path, capsys, "mux", params, "hartley", b"0 " * 6560 + b"\n") == (
        1, None, err)
    assert run(capsys, "crosstalk", "-p", "3", "-m", "8", "-N", "6560", "--user", "0",
               "--frames", "1") == (1, "", err)
    # a bad frame is still named first, as a data error
    bad = frame + frame[:-1] + b"\x03"
    code, out, err = _cli_file(tmp_path, capsys, "demux", params, "hartley", bad)
    assert (code, out) == (2, None)
    assert err.startswith("frame 1: ")


def test_demux_names_the_first_frame_whose_orbit_does_not_close(tmp_path, capsys):
    # frame 2 breaks at coset 13 and frame 5 at coset 0: the closure check
    # scanned cosets first and named frame 5
    params = make(3, 3, 26)
    leaders = mux_batch(params, "hartley", np.random.default_rng(5).integers(0, 3, size=(6, 26)))
    coset = list(coset_table(26, 3, "hartley").leaders).index
    for f, leader in ((2, 13), (5, 0)):
        leaders[f, coset(leader), 1, 0] = (leaders[f, coset(leader), 1, 0] + 1) % 3
    message = "frame 2: orbit of leader 13 does not close on its value"
    frames = encode_frames(params, "hartley", leaders)
    for call in (lambda: pipeline.demux_batch(params, "hartley", leaders),
                 lambda: pipeline.reconstruct_batch(params, "hartley", leaders),
                 lambda: pipeline.demux_batch(params, "hartley",
                                              pipeline.decode_frames(frames, params, "hartley"))):
        with pytest.raises(InconsistentFrame) as info:
            call()
        assert (str(info.value), info.value.frame_index) == (message, 2)
    assert _cli_file(tmp_path, capsys, "demux", params, "hartley", frames) == (
        2, None, f"error: {message}\n")


def test_mux_and_demux_check_their_input_once(tmp_path, capsys, monkeypatch):
    # mux_batch ran in_range again on the symbols _byte_rows had checked, demux_batch
    # on the leaders _frame_runs had checked, and each mux, then each demux, packed its
    # header again
    calls = []

    class CountedHeader(struct.Struct):
        def pack(self, *args):
            calls.append("pack")
            return super().pack(*args)

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    for module in (transforms, pipeline):
        monkeypatch.setattr(module, "in_range", counted("in_range", transforms.in_range))
    monkeypatch.setattr(pipeline, "_HEADER", CountedHeader(pipeline._HEADER.format))
    params = make(3, 3, 26)
    vs = np.random.default_rng(9).integers(0, 3, size=(30, 26))
    text = ("\n".join(" ".join(map(str, row)) for row in vs.tolist()) + "\n").encode()
    frames = encode_frames(params, "hartley", mux_batch(params, "hartley", vs))
    transforms.design.cache_clear()
    pipeline.frame_header.cache_clear()
    calls.clear()
    assert _cli_file(tmp_path, capsys, "mux", params, "hartley", text) == (0, frames, "")
    assert calls == ["pack"]                        # once, into the design's header record
    calls.clear()
    assert _cli_file(tmp_path, capsys, "mux", params, "hartley", text) == (0, frames, "")
    assert calls == []
    assert _cli_file(tmp_path, capsys, "demux", params, "hartley", frames) == (0, text, "")
    assert calls == []


_GRID = design_grid()


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_GRID), st.sampled_from(["hartley", "fourier"]), st.integers(1, 12),
       st.data())
def test_cli_runs_the_checked_maps_without_their_checks(tmp_path, capsys, pmn, kind, count, data):
    # the CLI's frames and symbols are those of the checked maps, and a frame of
    # coefficients in [0, p) that fails the check is refused as demux_batch refuses it
    params = make(*pmn)
    p, N = params.p, params.N
    vs = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).integers(0, p, (count, N))
    text = ("\n".join(" ".join(map(str, row)) for row in vs.tolist()) + "\n").encode()
    leaders = mux_batch(params, kind, vs)
    frames = encode_frames(params, kind, leaders)
    assert _cli_file(tmp_path, capsys, "mux", params, kind, text) == (0, frames, "")
    assert _cli_file(tmp_path, capsys, "demux", params, kind, frames) == (0, text, "")
    assert np.array_equal(pipeline.demux_batch(params, kind, pipeline.decode_frames(
        frames, params, kind)), vs)
    # a change at a column outside the information set always fails the check
    d = transforms.design(params, kind)
    f = data.draw(st.integers(0, count - 1))
    column = int(d.perm[data.draw(st.integers(N, len(d.perm) - 1))])
    bad = leaders.copy()
    bad[f].reshape(-1)[column] = (int(bad[f].reshape(-1)[column])
                                  + data.draw(st.integers(1, p - 1))) % p
    blob = encode_frames(params, kind, bad)
    want = outcome(pipeline.demux_batch, params, kind, bad)
    assert want[0] in ("InconsistentFrame", "NotGroundField") and want[2] == f
    assert outcome(pipeline.demux_frames, params, kind,
                   pipeline.decode_frames(blob, params, kind)) == want
    assert _cli_file(tmp_path, capsys, "demux", params, kind, blob) == (
        2, None, f"error: {want[1]}\n")


@pytest.mark.parametrize("kind", ["hartley", "fourier"])
def test_design_report_compiles_nothing(capsys, kind):
    # the report read the coset table off a compiled design: 149-191 MiB
    # traced at (3, 8, 3280), and the design stayed in the cache
    argv = ["design", "-p", "3", "-m", "8", "-N", "3280", "--kind", kind]
    params = make(3, 8, 3280)
    transforms.design.cache_clear()
    tracemalloc.start()
    try:
        cold = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cold[0] == 0 and cold[2] == ""
    assert peak < 8 << 20
    assert transforms.design.cache_info().currsize == 0
    try:
        built = transforms.design(params, kind)
        # one build is one miss and one entry, whatever the spelling of its kind
        assert transforms.design(params, kind.upper()) is built
        info = transforms.design.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert run(capsys, *argv) == cold
        assert transforms.design.cache_info().currsize == 1
    finally:
        transforms.design.cache_clear()


def test_design_report_over_the_budget_exits_1(capsys):
    code, out, err = run(capsys, "design", "-p", "3", "-m", "8", "-N", "6560")
    assert (code, out) == (1, "")
    assert err.startswith("error: GDM(p=3, m=8, N=6560, ")
    assert err.endswith("/hartley: compiled design needs 668.0 MiB, over the 256 MiB budget\n")


@pytest.mark.parametrize("argv", [
    "design -p 3 -m 12 -N 531440", "design -p 101 -m 3 -N 1030300", "design -p 7 -m 7 -N 823542",
    "carriers -p 3 -m 12 -N 531440", "mux -p 7 -m 7 -N 823542 --in line.txt",
    "crosstalk -p 7 -m 7 -N 823542 --frames 1 --user 0", "crosstalk -p 7 -m 7 -N 823542 --frames 1",
])
def test_refusals_of_the_largest_designs_run_no_root_search(tmp_path, monkeypatch, capsys, argv):
    # each refusal's message named the design by zeta, so each ran the root search first:
    # a traced peak of 40-74 MiB; the coset tables that refuse these designs take up to 29 MiB
    monkeypatch.chdir(tmp_path)
    (tmp_path / "line.txt").write_text("0 " * 823542 + "\n")
    _, _, p, _, m, _, N, *_ = argv.split()
    fields._root_table.cache_clear()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: GDM(p={p}, m={m}, N={N}, poly=(")
    info = fields._root_table.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    assert peak < 34 << 20


def test_carriers_over_their_bound_exit_1_before_any_cas_value(capsys, monkeypatch):
    # nothing bounded the N^2 GaloisInt values and text lines of `gdmux carriers`
    assert trig.CARRIER_MAX_N == 1024
    monkeypatch.setattr(trig, "_cas_by_product", None)      # a call raises TypeError
    params = make(3, 7, 1093)
    assert run(capsys, "carriers", "-p", "3", "-m", "7", "-N", "1093") == (
        1, "", f"error: {params}: a carrier matrix of N^2 values needs N <= 1024, got N = 1093\n")
    monkeypatch.undo()
    monkeypatch.setattr(trig, "CARRIER_MAX_N", 4)
    assert run(capsys, "carriers", "-p", "5", "-N", "4") == (
        0, (GOLDEN / "carriers_-p_5_-N_4.txt").read_text(), "")
    monkeypatch.setattr(trig, "CARRIER_MAX_N", 3)
    assert run(capsys, "carriers", "-p", "5", "-N", "4")[0] == 1


def test_bulk_demux_matches_per_frame_oracle(tmp_path, capsys):
    rng = np.random.default_rng(42)
    outcomes = set()
    designs = [make(*pmn) for pmn in CLI_SYSTEMS]
    for params, other in zip(designs, designs[1:] + designs[:1]):
        for kind, other_kind in (("hartley", "fourier"), ("fourier", "hartley")):
            corpus = _demux_corpus(params, kind, _zero_frame(params, other_kind),
                                   _zero_frame(other, kind), rng)
            for case, data in corpus.items():
                got = _cli_file(tmp_path, capsys, "demux", params, kind, data)
                assert got == cli_demux_oracle(params, kind, data), (params, kind, case)
                outcomes.add(_outcome(got))
    assert outcomes == {"ok", "frame", "error:"}

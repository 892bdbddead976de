"""End-to-end CLI behaviour through main(argv)."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import biphoton
from biphoton import auto_grid, build_jsa, load_preset, preset_with_pump
from biphoton.cli import _BYTES_PER_ROW, build_parser, main
from biphoton.dataio import format_float, load_scan


def data_rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def synthetic_scan(path):
    """A noiseless 101-point Gaussian dip as a measured scan file."""
    path.write_text("delay_ps,coincidences\n" + "".join(
        f"{d / 10:.1f},{1e4 * (1 - 0.9 * 2.0 ** (-(d / 10) ** 2 * 4)):.3f}\n"
        for d in range(-50, 51)))
    return path


def config_hash(path):
    first = path.read_text().splitlines()[0]
    return json.loads(first[len("# biphoton: "):])["config_sha256"]


class TestSimulate:
    def test_decorrelated_sinc(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--preset", "ppktp-8mm",
                   "--pump-fwhm-nm", "2.0", "--profile", "sinc")
        assert code == 0
        for name in ("jsa.csv", "jsi.csv", "marginals.csv", "schmidt.json"):
            assert (tmp_path / name).exists()
        payload = json.loads((tmp_path / "schmidt.json").read_text())
        assert abs(payload["rho"]) <= 0.1
        assert payload["correlation"] == "decorrelated"

    def test_unknown_preset(self, tmp_path, capsys):
        code = run(tmp_path, "simulate", "--preset", "nope")
        assert code == 1
        assert capsys.readouterr().err == "error: unknown preset 'nope'; available: ppktp-8mm\n"

    def test_chirp_leaves_jsi_unchanged(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        assert main(["simulate", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "0.7",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "0.7",
                     "--chirp-fs2", "5000", "--out", str(b)]) == 0
        assert data_rows(a / "jsi.csv") == data_rows(b / "jsi.csv")
        # the complex amplitude does change phase
        assert data_rows(a / "jsa.csv") != data_rows(b / "jsa.csv")

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        argv = ["simulate", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "2.0",
                "--profile", "sinc"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--out", str(b)]) == 0
        for name in ("jsa.csv", "jsi.csv", "marginals.csv", "schmidt.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_provenance_header(self, tmp_path):
        run(tmp_path, "simulate", "--preset", "ppktp-8mm")
        first = (tmp_path / "jsi.csv").read_text().splitlines()[0]
        assert first.startswith("# biphoton: ")
        meta = json.loads(first[len("# biphoton: "):])
        assert "tool" in meta and "config_sha256" in meta

    def test_config_file_precedence(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("pump_fwhm_nm = 0.7\n")
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        # config alone: anticorrelated
        assert main(["simulate", "--preset", "ppktp-8mm", "--config", str(config),
                     "--out", str(a)]) == 0
        assert json.loads((a / "schmidt.json").read_text())["correlation"] == "anticorrelated"
        # CLI flag wins over the config file
        assert main(["simulate", "--preset", "ppktp-8mm", "--config", str(config),
                     "--pump-fwhm-nm", "2.0", "--out", str(b)]) == 0
        assert json.loads((b / "schmidt.json").read_text())["correlation"] == "decorrelated"

    @pytest.mark.parametrize("text,message", [
        ("grid_n = abc\n", "run.conf:1: grid_n = 'abc' is not a valid int"),
        (None, "No such file"),
        ("grid_n 128\n", "run.conf:1: expected 'key = value', got 'grid_n 128'"),
        ("profile = bogus\n", "run.conf:1: profile = 'bogus' is not one of gaussian, sinc"),
        ("pump_fwhm_nm = nan\n", "--pump-fwhm-nm must be a finite number, got nan"),
        ("length_mm = inf\n", "--length-mm must be a finite number, got inf"),
        ("filter_fwhm_nm = -inf\n", "--filter-fwhm-nm must be a finite number, got -inf"),
    ])
    def test_bad_config_file(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.conf"
        if text is not None:
            config.write_text(text)
        code = run(tmp_path / "out", "simulate", "--preset", "ppktp-8mm", "--config", str(config))
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "hom"])
    def test_oversized_grid_rejected(self, tmp_path, capsys, command):
        code = run(tmp_path, command, "--preset", "ppktp-8mm", "--grid-n", "100000")
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            "error: --grid-n 100000 is too large: building the joint spectral amplitude would "
            "need about 686646 MiB, above the 1024 MiB memory budget\n"
        )
        assert not list(tmp_path.iterdir())


class TestHom:
    def test_numeric_sinc_dip(self, tmp_path):
        code = run(tmp_path, "hom", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "2.0",
                   "--model", "numeric-sinc")
        assert code == 0
        payload = json.loads((tmp_path / "hom.json").read_text())
        assert payload["t_c_ps"] == pytest.approx(1.16, rel=0.05)
        assert (tmp_path / "scan.csv").exists()

    def test_gaussian_model_pump_independent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(); b.mkdir()
        assert main(["hom", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "0.7",
                     "--model", "gaussian", "--out", str(a)]) == 0
        assert main(["hom", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "4.5",
                     "--model", "gaussian", "--out", str(b)]) == 0
        t_a = json.loads((a / "hom.json").read_text())["t_c_ps"]
        t_b = json.loads((b / "hom.json").read_text())["t_c_ps"]
        assert t_a == t_b

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_delay_points_rejected(self, tmp_path, capsys, points):
        code = run(tmp_path, "hom", "--preset", "ppktp-8mm", "--model", "gaussian",
                   "--delay-points", points)
        assert code == 1
        err = capsys.readouterr().err
        assert "--delay-points" in err and "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("by_config", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, capsys, value, by_config):
        argv = ["hom", "--preset", "ppktp-8mm", "--model", "gaussian"]
        if by_config:
            config = tmp_path / "run.conf"
            config.write_text(f"chirp_fs2 = {value}\n")
            argv += ["--config", str(config)]
        else:
            argv.append(f"--chirp-fs2={value}")
        code = run(tmp_path / "out", *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert f"--chirp-fs2 must be a finite number, got {value}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--model", "numeric", "--grid-n", "64"], ["--model", "gaussian"],
    ], ids=["numeric", "gaussian"])
    def test_oversized_delay_points_rejected(self, tmp_path, capsys, argv):
        # charged before any large allocation, 256 bytes a delay for every
        # model: 10^7 delays at n = 64 once died allocating a 9.4 GiB phase matrix
        code = run(tmp_path / "out", "hom", "--preset", "ppktp-8mm", *argv,
                   "--delay-points", "10000000")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --delay-points 10000000 is too large: the delay scan would need about "
            "2441 MiB, above the 1024 MiB memory budget\n"
        )
        assert not (tmp_path / "out").exists()

    def test_long_numeric_scan_peak(self, tmp_path):
        # within the charge per delay: the delays and the Horner sum's two
        # complex rows read 40 B/row; the whole (n - 1) x delays phase matrix
        # once made 200000 delays peak at 405 MB
        rows = 10**6
        tracemalloc.start()
        try:
            code = run(tmp_path, "hom", "--preset", "ppktp-8mm", "--model", "numeric",
                       "--grid-n", "64", "--delay-points", str(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= _BYTES_PER_ROW * rows

    def test_long_closed_form_scan_peak(self, tmp_path):
        # delays, rates and the dip depth, 8 bytes a row each, and a boolean
        # mask (25.07 B/row); a copied delay axis and a whole ps column made it 33.07
        rows = 10**6
        tracemalloc.start()
        try:
            code = run(tmp_path, "hom", "--preset", "ppktp-8mm", "--model", "gaussian",
                       "--delay-points", str(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 25.1 * rows

    def test_narrow_delay_range_fails(self, tmp_path, capsys):
        code = run(tmp_path, "hom", "--preset", "ppktp-8mm", "--delay-span", "0.4")
        assert code != 0
        assert "baseline" in capsys.readouterr().err


class TestSweep:
    def test_length_scaling(self, tmp_path):
        code = run(tmp_path, "sweep", "--preset", "ppktp-8mm", "--axis", "length",
                   "--start", "8", "--stop", "32", "--steps", "4", "--model", "gaussian")
        assert code == 0
        rows = [r.split(",") for r in data_rows(tmp_path / "sweep.csv")[1:]]
        lengths = np.array([float(r[0]) for r in rows])
        t_cs = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(lengths, [8, 16, 24, 32])
        for idx, factor in ((1, 2.0), (3, 4.0)):
            assert t_cs[idx] / t_cs[0] == pytest.approx(factor, rel=5e-3)

    def test_pump_sweep_constant_gaussian(self, tmp_path):
        code = run(tmp_path, "sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm",
                   "--start", "0.45", "--stop", "4.5", "--steps", "7", "--model", "gaussian")
        assert code == 0
        t_cs = np.array([float(r.split(",")[1]) for r in data_rows(tmp_path / "sweep.csv")[1:]])
        assert (t_cs.max() - t_cs.min()) / t_cs.min() < 1e-3

    def test_pump_sweep_sinc_trend(self, tmp_path):
        code = run(tmp_path, "sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm",
                   "--start", "0.7", "--stop", "4.5", "--steps", "3",
                   "--model", "numeric-sinc")
        assert code == 0
        t_cs = np.array([float(r.split(",")[1]) for r in data_rows(tmp_path / "sweep.csv")[1:]])
        assert t_cs[0] < t_cs[1] < t_cs[2]

    @pytest.mark.parametrize("axis,flag,start,stop,steps,model,extra", [
        ("pump_fwhm", "--pump-fwhm-nm", 0.7, 3.0, 3, "numeric-sinc", ("--grid-n", "64")),
        ("length", "--length-mm", 4.0, 16.0, 4, "gaussian", ()),
        ("chirp", "--chirp-fs2", -20000.0, 20000.0, 3, "numeric-gaussian", ("--grid-n", "64")),
    ])
    def test_row_equals_hom_run(self, tmp_path, axis, flag, start, stop, steps, model, extra):
        # a sweep point is the hom run with the axis's own option set to its value
        source = ("--preset", "ppktp-8mm", "--model", model, *extra)
        assert run(tmp_path, "sweep", *source, "--axis", axis, "--start", repr(start),
                   "--stop", repr(stop), "--steps", str(steps)) == 0
        rows = [r.split(",") for r in data_rows(tmp_path / "sweep.csv")[1:]]
        values = np.linspace(start, stop, steps)
        assert len(rows) == steps
        for k, (row, value) in enumerate(zip(rows, values)):
            out = tmp_path / f"hom{k}"
            assert run(out, "hom", *source, flag, repr(float(value))) == 0
            payload = json.loads((out / "hom.json").read_text())
            assert row == [format_float(value), format_float(payload["t_c_ps"]),
                           format_float(payload["visibility"])]

    def test_zero_steps_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm",
                   "--start", "1", "--stop", "2", "--steps", "0")
        assert code == 1
        err = capsys.readouterr().err
        assert "--steps" in err and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_oversized_steps_rejected(self, tmp_path, capsys):
        # charged before np.linspace would allocate the 74.5 GiB value array
        code = run(tmp_path / "out", "sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm",
                   "--start", "1", "--stop", "4", "--steps", "10000000000")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --steps 10000000000 is too large: the sweep would need about "
            "2441406 MiB, above the 1024 MiB memory budget\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_axis(self, tmp_path, capsys):
        code = run(tmp_path, "sweep", "--preset", "ppktp-8mm", "--start", "1", "--stop", "2")
        assert code == 2
        assert "--axis" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--start", "1", "--stop", "2"], "--axis"),
        (["--axis", "length", "--stop", "12"], "--start and --stop"),
        (["--axis", "length", "--start", "6"], "--start and --stop"),
    ])
    def test_argument_error_leaves_no_outdir(self, tmp_path, capsys, argv, message):
        code = run(tmp_path / "out", "sweep", "--preset", "ppktp-8mm", *argv)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--preset", "ppktp-8mm", "--grid-n", "2"], "half maximum not reached"),
    (["simulate", "--preset", "ppktp-8mm", "--filter-fwhm-nm", "0"], "filter width must be > 0"),
    (["hom", "--preset", "ppktp-8mm", "--delay-span", "0"], "--delay-span must be > 0, got 0.0"),
    (["hom", "--preset", "ppktp-8mm", "--delay-span", "-1"], "--delay-span must be > 0, got -1.0"),
    (["hom", "--preset", "ppktp-8mm", "--grid-n", "3"], "does not reach the baseline"),
    (["hom", "--preset", "ppktp-8mm", "--grid-n", "100000"], "memory budget"),
    (["sweep", "--preset", "ppktp-8mm", "--axis", "length", "--start", "0", "--stop", "8",
      "--steps", "3"], "waveguide length must be > 0"),
    (["analyze", "ZERO_SCAN"], "no positive counts"),
    # walk-offs whose squares overflow the closed-form coefficients
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--length-mm", "1e200"],
     "their squares overflow"),
    (["simulate", "--preset", "ppktp-8mm", "--length-mm", "1e300", "--grid-n", "16"],
     "their squares overflow"),
])
def test_failed_run_leaves_no_outdir(tmp_path, capsys, argv, message):
    # every output is computed before the output directory is made
    scan = tmp_path / "zero.csv"
    scan.write_text("delay_ps,coincidences\n" + "".join(f"{d},0\n" for d in range(12)))
    argv = [str(scan) if arg == "ZERO_SCAN" else arg for arg in argv]
    code = run(tmp_path / "out", *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--preset", "ppktp-8mm", "--grid-span-fwhms", "1e300", "--grid-n", "16"],
     "grid bounds must be finite"),
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--delay-span", "1e308"],
     "overflows to inf"),
    (["analyze", "SCAN", "--model", "sinc-kernel-dip", "--preset", "ppktp-8mm",
      "--pump-fwhm-nm", "1e17"], "pump FWHM 1e+17 nm has depth 0 < 0.02"),
    (["analyze", "SCAN", "--model", "sinc-kernel-dip", "--preset", "ppktp-8mm",
      "--pump-fwhm-nm", "1e300"], "pump FWHM 1e+300 nm has depth 0 < 0.02"),
    # finite, but the exponents overflow: exp(-inf) = 0 leaves no amplitude
    (["simulate", "--preset", "ppktp-8mm", "--grid-span-fwhms", "1e200", "--grid-n", "16"],
     "error: amplitude is identically zero"),
    # the sinc amplitude is not zero there, but its square underflows
    (["simulate", "--preset", "ppktp-8mm", "--profile", "sinc", "--grid-span-fwhms", "1e200",
      "--grid-n", "16"], "error: joint spectral intensity underflows to zero"),
    (["hom", "--preset", "ppktp-8mm", "--model", "numeric-sinc", "--grid-span-fwhms", "1e200",
      "--grid-n", "16"], "error: joint spectral intensity underflows to zero"),
    # the filter's exponent overflows: exp(-inf) = 0 leaves no amplitude
    (["simulate", "--preset", "ppktp-8mm", "--filter-fwhm-nm", "1e-300"],
     "error: filter leaves no amplitude inside the grid"),
    # the whole dip inside one delay step
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--delay-span", "1e6"],
     "dip FWHM spans 1 delay steps (< 4)"),
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--delay-span", "1e300"],
     "dip FWHM spans 1 delay steps (< 4)"),
    (["hom", "--preset", "ppktp-8mm", "--grid-n", "64", "--delay-span", "1e3"],
     "dip FWHM spans 1 delay steps (< 4)"),
    # pump widths whose sigma_p^2 overflows, or underflows to 0: a Python
    # OverflowError, a division by zero, numpy warnings from a sweep's floats
    (["hom", "--preset", "ppktp-8mm", "--pump-fwhm-nm", "1e150"],
     "sigma_p = 1.92044e+162 rad/s: its square overflows"),
    (["hom", "--preset", "ppktp-8mm", "--model", "numeric", "--grid-n", "64",
      "--pump-fwhm-nm", "1e-300"], "sigma_p = 1.92044e-288 rad/s: its square underflows"),
    (["sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm", "--start", "1e-300",
      "--stop", "1", "--steps", "3", "--model", "numeric-sinc", "--grid-n", "64"],
     "sigma_p = 1.92044e-288 rad/s: its square underflows"),
    # representable, but 1/sigma_p^2 ~ 3e275 overflows the grid's determinant
    (["hom", "--preset", "ppktp-8mm", "--model", "numeric-sinc", "--grid-n", "64",
      "--pump-fwhm-nm", "1e-150"],
     "sigma_p = 1.92044e-138 rad/s: the determinant of its quadratic form overflows"),
    # walk-offs whose squares overflow (a Python OverflowError), or whose dip
    # scale's square underflows (a division by zero, NaN rates)
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--length-mm", "1e300"],
     "walk-offs tau_s = -1.75109e+287 s, tau_i = 1.05216e+287 s: their squares overflow"),
    (["simulate", "--preset", "ppktp-8mm", "--grid-n", "16", "--length-mm", "1e300"],
     "walk-offs tau_s = -1.75109e+287 s, tau_i = 1.05216e+287 s: their squares overflow"),
    (["sweep", "--preset", "ppktp-8mm", "--axis", "length", "--start", "1e-300",
      "--stop", "8", "--steps", "2"],
     "the dip scale sqrt(gamma) |tau_s - tau_i| / 2 = 6.15758e-314 s underflows when squared"),
], ids=["grid-span", "delay-span", "pump-1e17", "pump-1e300", "grid-span-1e200",
        "sinc-intensity-underflow", "hom-sinc-intensity-underflow", "filter-1e-300",
        "delay-span-1e6", "delay-span-1e300", "numeric-delay-span-1e3",
        "hom-pump-1e150", "hom-numeric-pump-1e-300", "sweep-pump-1e-300",
        "hom-numeric-sinc-pump-1e-150", "hom-length-1e300", "simulate-length-1e300",
        "sweep-length-1e-300"])
def test_overflowing_input_fails_in_one_line(tmp_path, argv, message):
    # refused before numpy warns or LAPACK prints: a fresh interpreter, so
    # that warnings and C-level output reach the streams
    scan = synthetic_scan(tmp_path / "scan.csv")
    argv = [str(scan) if arg == "SCAN" else arg for arg in argv]
    src = str(Path(biphoton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "biphoton.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "out").exists()


SPAN_0_4 = ("--grid-span-fwhms 0.4 is too narrow for this source (idler marginal FWHM not "
            "resolved on this grid): ")


@pytest.mark.parametrize("argv,resolution,cause", [
    (["simulate", "--grid-n", "2"], "signal marginal FWHM not resolved on this grid",
     "half maximum not reached"),
    (["simulate", "--grid-n", "5"], "signal marginal has 1.0 samples per FWHM (< 8)",
     "zero variance"),
    (["hom", "--grid-n", "3"], "signal marginal has 1.0 samples per FWHM (< 8)",
     "does not reach the baseline"),
    (["hom", "--grid-n", "8"], "signal marginal has 2.0 samples per FWHM (< 8)",
     "rates outside [0, 1.05]"),
    (["hom", "--grid-n", "12"], "idler marginal has 2.1 samples per FWHM (< 8)",
     "rates outside [0, 1.05]"),
    (["sweep", "--grid-n", "8", "--model", "numeric-sinc", "--axis", "pump_fwhm",
      "--start", "1", "--stop", "2", "--steps", "2"],
     "signal marginal has 3.1 samples per FWHM (< 8)", "rates outside [0, 1.05]"),
    # the filter's own warning names the filter, not the grid
    (["simulate", "--grid-n", "512", "--filter-fwhm-nm", "0.005"],
     "--filter-fwhm-nm 0.005 is too narrow for this grid (filter has 0.1 samples per FWHM (< 8))",
     "variance product that underflows"),
    # both steps warned: each flag with its own warnings
    (["simulate", "--grid-n", "5", "--filter-fwhm-nm", "0.5"],
     "--grid-n 5 is too coarse for this source (signal marginal has 1.0 samples per FWHM (< 8), "
     "idler marginal has 1.0 samples per FWHM (< 8)) and --filter-fwhm-nm 0.5 is too narrow for "
     "this grid (filter has 0.1 samples per FWHM (< 8)): ", "zero variance"),
    # a window of 0.4 marginal FWHMs each side cuts the half maximum at any --grid-n
    (["simulate", "--grid-span-fwhms", "0.4"], SPAN_0_4, "half maximum not reached"),
    (["simulate", "--grid-n", "64", "--grid-span-fwhms", "0.4"], SPAN_0_4,
     "half maximum not reached"),
], ids=["simulate-2", "simulate-5", "hom-3", "hom-8", "hom-12", "sweep-8", "filter-0.005",
        "grid-5-filter-0.5", "span-0.4", "span-0.4-n64"])
def test_coarse_grid_failure_names_grid_n(tmp_path, capsys, argv, resolution, cause):
    code = run(tmp_path / "out", *argv[:1], "--preset", "ppktp-8mm", *argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    # the resolution warnings are in the one error line, not printed before it;
    # a case that names its flags itself gives them first
    blamed = f"--grid-n {argv[2]} is too coarse for this source ("
    assert err.startswith(f"error: {resolution if resolution.startswith('--') else blamed}")
    assert err.count("\n") == 1
    assert resolution in err and cause in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_coarse_grid_that_runs_keeps_its_warnings(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--preset", "ppktp-8mm", "--grid-n", "4") == 0
    warnings = json.loads((tmp_path / "schmidt.json").read_text())["warnings"]
    assert warnings and all("samples per FWHM" in w for w in warnings)
    assert "--grid-n" not in capsys.readouterr().err


def test_samples_just_below_eight_never_read_eight(tmp_path, capsys):
    # both marginals span 7.95-7.99 grid steps, which "%.1f" alone printed as 8.0
    argv = ["--model", "numeric", "--grid-n", "64", "--pump-fwhm-nm", "0.1"]
    assert run(tmp_path, "hom", "--preset", "ppktp-8mm", *argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {arm} marginal has 7.9 samples per FWHM (< 8); results may be inaccurate"
        for arm in ("signal", "idler")
    ]


@pytest.mark.parametrize("argv", [
    ["simulate", "--grid-n", "4"],
    ["hom", "--model", "numeric", "--grid-n", "16"],
    ["sweep", "--model", "numeric-sinc", "--grid-n", "48", "--axis", "pump_fwhm",
     "--start", "1", "--stop", "2", "--steps", "2"],
    ["simulate", "--filter-fwhm-nm", "0.01"],
    # the pump's chirp phase turns 17.9 rad a grid step
    ["simulate", "--chirp-fs2", "1e7", "--grid-n", "128"],
], ids=["simulate-4", "hom-16", "sweep-48", "filter-0.01", "chirp-1e7-128"])
def test_coarse_grid_warnings_on_stderr(tmp_path, capsys, argv):
    assert run(tmp_path, *argv[:1], "--preset", "ppktp-8mm", *argv[1:]) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert lines and all(
        l.startswith("warning: ") and l.endswith("; results may be inaccurate") for l in lines
    )
    assert "samples per FWHM" not in out
    if argv[0] == "simulate":
        warnings = json.loads((tmp_path / "schmidt.json").read_text())["warnings"]
        assert lines == [f"warning: {w}" for w in warnings]


@pytest.mark.parametrize("argv", [
    ["simulate"], ["hom", "--model", "gaussian"], ["hom", "--model", "numeric", "--grid-n", "128"],
    ["hom", "--model", "numeric"],
])
def test_resolved_runs_print_no_warnings(tmp_path, capsys, argv):
    assert run(tmp_path, *argv[:1], "--preset", "ppktp-8mm", *argv[1:]) == 0
    assert capsys.readouterr().err == ""


# the numeric rates repeat every 2 pi / dnu = 26.96 ps on the preset's n = 128 grid
ALIASED = "at least the grid's delay period 2 pi / dnu = 26.96 ps, and reads aliased dips"


def test_aliased_scan_warns(tmp_path, capsys):
    # 46.4 ps of delays: the run succeeds, and keeps its files, on aliased dips
    argv = ["--model", "numeric", "--grid-n", "128", "--delay-span", "20"]
    assert run(tmp_path, "hom", "--preset", "ppktp-8mm", *argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: the delay scan spans 46.4 ps, {ALIASED}: raise --grid-n or lower "
        "--delay-span; results may be inaccurate"
    ]
    assert (tmp_path / "scan.csv").is_file() and (tmp_path / "hom.json").is_file()


@pytest.mark.parametrize("argv,blamed,cause", [
    # 53.9 ps of delays end on the neighbouring periods' dips
    (["hom", "--model", "numeric", "--grid-n", "128", "--delay-span", "23.24"],
     "--grid-n 128 and --delay-span 23.24 alias the scan (the delay scan spans 53.92 ps, "
     f"{ALIASED}: raise --grid-n or lower --delay-span)", "does not reach the baseline"),
    # a sweep has no --delay-span: its 9.28 ps scans span 4.243 ps periods
    (["sweep", "--model", "numeric-gaussian", "--grid-n", "16", "--axis", "pump_fwhm",
      "--start", "1", "--stop", "2", "--steps", "2"],
     "--grid-n 16 aliases the scan (the delay scan spans 9.28 ps, at least the grid's delay "
     "period 2 pi / dnu = 4.243 ps, and reads aliased dips: raise --grid-n)",
     "rates outside [0, 1.05]"),
], ids=["hom", "sweep"])
def test_aliased_scan_failure_names_its_flags(tmp_path, capsys, argv, blamed, cause):
    code = run(tmp_path / "out", *argv[:1], "--preset", "ppktp-8mm", *argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{blamed}: " in err and cause in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_preset_chirp_kept_without_flag(tmp_path, monkeypatch):
    chirped = preset_with_pump(load_preset("ppktp-8mm"), beta=20000e-30)
    monkeypatch.setattr(biphoton.cli, "load_preset", lambda name: chirped)
    assert run(tmp_path, "simulate", "--preset", "ppktp-8mm", "--grid-n", "64") == 0
    state = build_jsa(chirped.pump, chirped.pm, auto_grid(chirped.pump, chirped.pm, n=64))
    im = [row.split(",")[3] for row in data_rows(tmp_path / "jsa.csv")[1:]]
    assert im == [format_float(x) for x in state.amplitude.imag.ravel()]
    assert np.any(state.amplitude.imag != 0)


@pytest.mark.parametrize("argv,key,allowed", [
    (["sweep", "--axis", "pump_fwhm", "--start", "1", "--stop", "2", "--steps", "2"],
     "model", "gaussian, numeric-sinc, numeric-gaussian"),
    (["sweep", "--start", "1", "--stop", "2", "--steps", "2"],
     "axis", "pump_fwhm, length, chirp"),
    (["hom"], "model", "numeric, numeric-sinc, numeric-gaussian, gaussian"),
])
def test_config_value_outside_choices(tmp_path, capsys, argv, key, allowed):
    config = tmp_path / "run.conf"
    config.write_text(f"# choices\n{key} = bogus\n")
    code = run(tmp_path / "out", *argv, "--preset", "ppktp-8mm", "--config", str(config))
    assert code == 1
    err = capsys.readouterr().err
    assert f"run.conf:2: {key} = 'bogus' is not one of {allowed}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestConfigKeys:
    @pytest.mark.parametrize("command,argv", [
        ("hom", ["--model", "gaussian"]),
        ("simulate", ["--grid-n", "64"]),
        ("sweep", ["--axis", "length", "--start", "6", "--stop", "8", "--steps", "2"]),
        ("analyze", []),
    ])
    @pytest.mark.parametrize("line,key", [
        ("pump_fwhm = 0.7", "pump_fwhm"),
        ("pump-fwhm = 0.7", "pump_fwhm"),
        ("lenght_mm = 12", "lenght_mm"),
    ])
    def test_key_of_no_command_refused(self, tmp_path, capsys, command, argv, line, key):
        config = tmp_path / "run.conf"
        config.write_text(f"# a typo on line 2\n{line}\n")
        scan = synthetic_scan(tmp_path / "scan.csv")
        args = [str(scan)] if command == "analyze" else ["--preset", "ppktp-8mm"]
        code = run(tmp_path / "out", command, *args, *argv, "--config", str(config))
        assert code == 1
        err = capsys.readouterr().err
        assert f"run.conf:2: unknown key '{key}'" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_key_of_another_command_ignored(self, tmp_path):
        # filter_fwhm_nm belongs to simulate, axis/steps to sweep, scan_file to analyze
        config = tmp_path / "shared.conf"
        config.write_text("filter_fwhm_nm = 3\naxis = length\nsteps = 4\nscan_file = x.csv\n")
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["hom", "--preset", "ppktp-8mm", "--model", "gaussian"]
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, "--config", str(config), "--out", str(b)]) == 0
        for name in ("scan.csv", "hom.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestAnalyze:
    @pytest.mark.parametrize("argv", [
        ["--model", "sinc-kernel-dip"],
        ["--model", "sinc-kernel-dip", "--preset", "ppktp-8mm"],
        ["--model", "sinc-kernel-dip", "--pump-fwhm-nm", "2"],
    ])
    def test_kernel_arguments_missing_leaves_no_outdir(self, tmp_path, capsys, argv):
        scan = synthetic_scan(tmp_path / "scan.csv")
        code = run(tmp_path / "out", "analyze", str(scan), *argv)
        assert code == 2
        assert "--preset and --pump-fwhm-nm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cell", ["0,nan,70", "0,inf,70", "0,5000,nan"],
                             ids=["nan-count", "inf-count", "nan-sigma"])
    def test_non_finite_scan_rejected(self, tmp_path, capfd, cell):
        # such a scan once reached LAPACK, which printed DLASCL errors
        lines = [f"{d / 10:.1f},{5000 * (1 - 0.9 * 2.0 ** (-(d / 10) ** 2 * 4)):.1f},70"
                 for d in range(-20, 21)]
        lines[20] = cell
        scan = tmp_path / "scan.csv"
        scan.write_text("delay_ps,coincidences,sigma\n" + "\n".join(lines) + "\n")
        code = run(tmp_path / "out", "analyze", str(scan))
        assert code == 1
        assert capfd.readouterr().err == (
            f"error: {scan}: delays, counts and sigma must be finite\n"
        )
        assert not (tmp_path / "out").exists()

    def test_fit_synthetic_scan(self, tmp_path):
        # generate a noiseless scan through the CLI, feed it back as counts
        assert run(tmp_path, "hom", "--preset", "ppktp-8mm", "--model", "gaussian") == 0
        rows = data_rows(tmp_path / "scan.csv")[1:]
        scan_file = tmp_path / "measured.csv"
        lines = ["delay_ps,coincidences"]
        for row in rows:
            tau_ps, rate = row.split(",")
            lines.append(f"{tau_ps},{float(rate) * 1e4}")
        scan_file.write_text("\n".join(lines) + "\n")
        code = main(["analyze", str(scan_file), "--model", "gaussian-dip",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["t_c_ps"] == pytest.approx(1.16, rel=1e-3)
        assert payload["visibility"] == pytest.approx(0.9733, abs=1e-3)
        # file parses back as a measured scan
        assert load_scan(scan_file).delays.size == len(rows)

    def test_reads_the_scan_hom_writes(self, tmp_path):
        # the noiseless closed-form scan fits back to the closed-form values
        assert run(tmp_path, "hom", "--preset", "ppktp-8mm", "--model", "gaussian") == 0
        hom = json.loads((tmp_path / "hom.json").read_text())
        assert run(tmp_path / "fit", "analyze", str(tmp_path / "scan.csv")) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert fit["t_c_ps"] == pytest.approx(hom["closed_form_t_c_ps"], rel=1e-6)
        assert fit["visibility"] == pytest.approx(hom["visibility_coefficient"], rel=1e-6)

    @pytest.mark.parametrize("header", ["tau_ps,coincidences", "tau_ps,rate,sigma", "tau_ps"])
    def test_simulated_header_is_exact(self, tmp_path, capsys, header):
        # the header is refused before the body is read
        scan = tmp_path / "scan.csv"
        scan.write_text(f"{header}\n" + "".join(f"{d},1\n" for d in range(12)))
        assert run(tmp_path / "out", "analyze", str(scan)) == 1
        assert capsys.readouterr().err == (
            f"error: {scan}:1: a simulated scan's columns are tau_ps,rate\n"
        )

    def test_visibility_outside_band_warns(self, tmp_path, capsys):
        # a dip 1.15 deep, clipped at zero counts: the Gaussian fit reads 1.068
        delays = np.linspace(-3.0, 3.0, 121)
        counts = np.clip(1e3 * (1 - 1.15 * np.exp(-4 * np.log(2) * (delays / 1.2) ** 2)), 0, None)
        scan = tmp_path / "scan.csv"
        scan.write_text("delay_ps,coincidences\n" + "".join(
            f"{d:.3f},{c:.6g}\n" for d, c in zip(delays, counts)))
        assert run(tmp_path / "out", "analyze", str(scan)) == 0
        warning = "fitted visibility 1.068 outside [0, 1.05]: model mismatch?"
        assert json.loads((tmp_path / "out" / "fit.json").read_text())["warnings"] == [warning]
        assert capsys.readouterr().err == f"warning: {warning}\n"

    def test_hash_follows_scan_contents(self, tmp_path):
        delays = np.linspace(-5.0, 5.0, 101)

        def write_scan(path, width_ps):
            counts = 1e4 * (1.0 - 0.9 * np.exp(-4 * np.log(2) * (delays / width_ps) ** 2))
            path.parent.mkdir(exist_ok=True)
            path.write_text("delay_ps,coincidences\n"
                            + "".join(f"{d},{c}\n" for d, c in zip(delays, counts)))

        def fit_hash(scan_file, out):
            assert main(["analyze", str(scan_file), "--out", str(out)]) == 0
            return json.loads((out / "fit.json").read_text())["provenance"]["config_sha256"]

        first, second = tmp_path / "a" / "scan.csv", tmp_path / "b" / "scan.csv"
        write_scan(first, 1.0)
        write_scan(second, 1.0)
        same = fit_hash(first, tmp_path / "fit_a")
        assert fit_hash(second, tmp_path / "fit_b") == same
        write_scan(first, 1.2)
        assert fit_hash(first, tmp_path / "fit_a2") != same


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "ppktp-8mm" in out


# (base argv, file holding the provenance line) per command
_HASH_BASES = {
    "simulate": (["simulate", "--preset", "ppktp-8mm", "--grid-n", "64"], "jsi.csv"),
    "hom": (["hom", "--preset", "ppktp-8mm", "--model", "gaussian"], "scan.csv"),
    "sweep": (["sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm", "--start", "1",
               "--stop", "2", "--steps", "3", "--model", "gaussian"], "sweep.csv"),
}


# (file holding the provenance line, every hashed key with a value) per command
_HASH_FLAGS = {
    "simulate": ("jsi.csv", {
        "preset": "ppktp-8mm", "pump_fwhm_nm": "2", "chirp_fs2": "500", "profile": "sinc",
        "length_mm": "16", "grid_n": "64", "grid_span_fwhms": "5", "filter_fwhm_nm": "3",
    }),
    "hom": ("scan.csv", {
        "preset": "ppktp-8mm", "pump_fwhm_nm": "2", "chirp_fs2": "500", "profile": "gaussian",
        "length_mm": "16", "model": "numeric", "grid_n": "128", "grid_span_fwhms": "5",
        "delay_points": "51", "delay_span": "5",
    }),
    "sweep": ("sweep.csv", {
        "preset": "ppktp-8mm", "pump_fwhm_nm": "2", "chirp_fs2": "500", "profile": "gaussian",
        "length_mm": "16", "grid_n": "64", "grid_span_fwhms": "5", "axis": "pump_fwhm",
        "start": "1", "stop": "2", "steps": "3", "model": "gaussian",
    }),
}


# config_sha256 of runs by flag and by config file, pinned from before the
# options map; "SCAN" stands for a fixed synthetic scan file
_PINNED_HASHES = [
    (["simulate", "--preset", "ppktp-8mm", "--grid-n", "128", "--filter-fwhm-nm", "1.5",
      "--grid-span-fwhms", "5"], None, "jsi.csv", "37db34d52ffd6549"),
    (["simulate", "--preset", "ppktp-8mm"], "pump_fwhm_nm = 0.7\nprofile = sinc\ngrid_n = 64\n",
     "jsi.csv", "6cbf5ac61a52b68d"),
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--pump-fwhm-nm", "4.5",
      "--chirp-fs2", "500", "--length-mm", "12", "--delay-points", "51"], None, "scan.csv",
     "a4ce3a159bfc7577"),
    (["hom", "--preset", "ppktp-8mm"], "model = gaussian\nlength_mm = 12\ndelay_points = 51\n",
     "scan.csv", "55450f1a9e19f07a"),
    (["sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm", "--start", "0.5", "--stop", "4.5",
      "--steps", "5"], None, "sweep.csv", "3947122358089979"),
    (["sweep", "--preset", "ppktp-8mm"],
     "axis = length\nstart = 8\nstop = 16\nsteps = 3\nmodel = gaussian\n", "sweep.csv",
     "38163345de375617"),
    (["analyze", "SCAN"], None, "fit.json", "6fa44c04a301666e"),
    (["analyze", "SCAN"], "model = gaussian-dip\npreset = ppktp-8mm\npump_fwhm_nm = 2\n",
     "fit.json", "a85a418b673b1fad"),
]


class TestProvenanceHash:
    @pytest.mark.parametrize("command,flag,value", [
        ("simulate", "--length-mm", "16"),
        ("simulate", "--filter-fwhm-nm", "1"),
        ("hom", "--length-mm", "16"),
        ("hom", "--grid-span-fwhms", "6"),
        ("hom", "--delay-points", "51"),
        ("sweep", "--chirp-fs2", "5000"),
        ("sweep", "--length-mm", "16"),
        ("sweep", "--grid-n", "256"),
        ("sweep", "--grid-span-fwhms", "6"),
    ])
    def test_flag_changes_hash(self, tmp_path, command, flag, value):
        argv, name = _HASH_BASES[command]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv, "--out", str(a)]) == 0
        assert main([*argv, flag, value, "--out", str(b)]) == 0
        assert config_hash(a / name) != config_hash(b / name)

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, values) in _HASH_FLAGS.items() for key in values
    ])
    def test_config_file_hashes_like_flag(self, tmp_path, command, key):
        name, values = _HASH_FLAGS[command]

        def argv(skip=None):
            flags = [command]
            for k, v in values.items():
                if k != skip:
                    flags += ["--" + k.replace("_", "-"), v]
            return flags

        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {values[key]}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([*argv(), "--out", str(a)]) == 0
        assert main([*argv(skip=key), "--config", str(config), "--out", str(b)]) == 0
        assert config_hash(a / name) == config_hash(b / name)
        assert data_rows(a / name) == data_rows(b / name)

    def test_unflagged_hash_unchanged(self, tmp_path):
        argv, name = _HASH_BASES["hom"]
        assert run(tmp_path, *argv) == 0
        assert config_hash(tmp_path / name) == "091104b2f13fc231"

    @pytest.mark.parametrize("command", sorted(_HASH_FLAGS))
    def test_hash_flags_cover_every_option(self, command):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        dests = {action.dest for action in subs.choices[command]._actions}
        assert set(_HASH_FLAGS[command][1]) == dests - {"help", "out", "config"}

    @pytest.mark.parametrize("argv,config,name,expected", _PINNED_HASHES)
    def test_pinned_hash(self, tmp_path, argv, config, name, expected):
        scan = tmp_path / "scan.csv"
        scan.write_text("delay_ps,coincidences\n" + "".join(
            f"{d / 10:.1f},{1e4 * (1 - 0.9 * 2.0 ** (-(d / 10) ** 2 * 4)):.3f}\n"
            for d in range(-50, 51)))
        argv = [str(scan) if arg == "SCAN" else arg for arg in argv]
        if config is not None:
            (tmp_path / "run.conf").write_text(config)
            argv += ["--config", str(tmp_path / "run.conf")]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        if name.endswith(".json"):
            assert json.loads((out / name).read_text())["provenance"]["config_sha256"] == expected
        else:
            assert config_hash(out / name) == expected


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: other tests have already imported scipy in this one
    script = textwrap.dedent("""
        import sys
        from biphoton.cli import main

        out, scan = sys.argv[1:]
        assert main(["presets"]) == 0
        assert main(["hom", "--preset", "ppktp-8mm", "--model", "gaussian", "--out", out]) == 0
        assert main(["sweep", "--preset", "ppktp-8mm", "--axis", "pump_fwhm", "--start", "1",
                     "--stop", "2", "--steps", "3", "--model", "gaussian", "--out", out]) == 0
        assert main(["analyze", scan, "--model", "gaussian-dip", "--out", out]) == 0
        assert main(["analyze", scan, "--model", "sinc-kernel-dip", "--preset", "ppktp-8mm",
                     "--pump-fwhm-nm", "2", "--out", out]) == 0
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    scan = synthetic_scan(tmp_path / "scan.csv")
    src = str(Path(biphoton.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), str(scan)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a threaded OpenBLAS product over 700 x 700 cells splits its rows by
    # thread, and schmidt.json's bits once followed OPENBLAS_NUM_THREADS
    src = str(Path(biphoton.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "biphoton.cli", "simulate", "--preset", "ppktp-8mm",
             "--profile", "sinc", "--grid-n", "700", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.iterdir())})
    assert digests[0] == digests[1]


def test_warns_without_a_blas_thread_setter(capsys, monkeypatch):
    monkeypatch.setattr("biphoton.cli._BLAS_THREAD_SETTERS", ())
    assert main(["presets"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "OPENBLAS_NUM_THREADS" in err


def run_into_closed_pipe(tmp_path, argv, stream, **env):
    """The CLI in a fresh interpreter in ``tmp_path``, with ``stream`` ("stdout"
    or "stderr") a pipe whose reader has closed; ``env`` is added to a
    buffered environment without $BIPHOTON_OUTDIR."""
    env = {**{key: value for key, value in os.environ.items()
              if key not in ("PYTHONUNBUFFERED", "BIPHOTON_OUTDIR")},
           "PYTHONPATH": str(Path(biphoton.__file__).resolve().parents[1]), **env}
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run([sys.executable, "-m", "biphoton.cli", *argv], cwd=tmp_path,
                              text=True, env=env, timeout=120, **streams)
    finally:
        os.close(write_end)


COARSE_64 = "".join(
    f"warning: {arm} marginal has {samples} samples per FWHM (< 8); results may be inaccurate\n"
    for arm, samples in (("signal", "6.3"), ("idler", "7.9"))
)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,files,err", [
    (["presets"], [], ""),
    (["hom", "--preset", "ppktp-8mm", "--model", "gaussian"], ["hom.json", "scan.csv"], ""),
    (["simulate", "--preset", "ppktp-8mm", "--grid-n", "64"],
     ["jsa.csv", "jsi.csv", "marginals.csv", "schmidt.json"], COARSE_64),
    # the fit's warning is printed before the first stdout line
    (["analyze", "too_deep.csv"], ["fit.json"],
     "warning: fitted visibility 1.068 outside [0, 1.05]: model mismatch?\n"),
], ids=["presets", "hom-gaussian", "simulate-64", "analyze-warns"])
def test_closed_stdout_ends_a_finished_run(tmp_path, argv, files, err, unbuffered):
    # stdout's reader closed before the run began: a finished run exits 0
    # with its files, and nothing but its warnings on stderr
    delays = np.linspace(-3.0, 3.0, 121)
    counts = np.clip(1e3 * (1 - 1.15 * np.exp(-4 * np.log(2) * (delays / 1.2) ** 2)), 0, None)
    (tmp_path / "too_deep.csv").write_text("delay_ps,coincidences\n" + "".join(
        f"{d:.3f},{c:.6g}\n" for d, c in zip(delays, counts)))
    proc = run_into_closed_pipe(tmp_path, argv, "stdout",
                                **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    assert (proc.returncode, proc.stderr) == (0, err)
    assert all((tmp_path / name).is_file() for name in files)


def test_closed_stderr_still_fails_a_run_that_warns(tmp_path):
    # the grid's warnings go to stderr before any file is written: a reader
    # that has closed stderr fails the run (exit 1, or 120 when the error line
    # cannot be written either), which writes nothing
    argv = ["simulate", "--preset", "ppktp-8mm", "--grid-n", "64", "--out", "out"]
    assert run_into_closed_pipe(tmp_path, argv, "stderr").returncode != 0
    assert not (tmp_path / "out").exists()

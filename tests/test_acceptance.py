"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single ``ACCEPTANCE nn [PASS|FAIL]`` line with the
measured numbers (run ``pytest tests/test_acceptance.py -v -s`` to see all
of them), then asserts at the stated tolerance.

Criterion 4's marginal-width clause is expected to fail by a fraction of a
percentage point: with the documented pump-width convention the simulated
decorrelated marginals converge to 3.653/4.603 nm, 15.05%/15.70% below the
tabulated 4.3/5.46 nm, just outside the 15% band.  The dip-width clause of
the same criterion passes.  See the project decision log for the analysis;
the assertion is kept faithful to the stated tolerance rather than widened.
"""

import math
import time

import numpy as np
import pytest

from biphoton.dataio import MeasuredScan, convolved_duration, fit_dip
from biphoton.hom import (
    coincidence_rate_gaussian,
    coincidence_scan,
    correlation_time_gaussian,
    default_delays,
    extract_dip,
    gaussian_dip_width,
    gaussian_scan,
    visibility_coefficient,
)
from biphoton.jsa import (
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    intensity_fwhm,
    marginals,
    schmidt_decompose,
)
from biphoton.presets import preset_with_pump
from biphoton.spectral import (
    C_M_PER_S,
    GAUSSIAN_FWHM_FACTOR,
    transform_limited_duration,
)
from biphoton.temporal import diagonal_widths, jta_from_jsa
from helpers import make_pm, make_pump, random_source

LAMBDA_PUMP = 767.5e-9
LAMBDA_PDC = 1535e-9


def verdict(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_numeric_matches_closed_form():
    """20 random gaussian sources: |numeric - closed form| < 1e-6, under a minute."""
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(20):
        pump, pm = random_source(rng)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=512))
        w = gaussian_dip_width(pm)
        delays = np.linspace(-4 * w, 4 * w, 33)
        numeric = coincidence_scan(state, delays).rates
        analytic = coincidence_rate_gaussian(pump, pm, delays)
        worst = max(worst, float(np.max(np.abs(numeric - analytic))))
    elapsed = time.monotonic() - started
    ok = worst < 1e-6 and elapsed < 60.0
    verdict(1, ok, f"max |numeric - analytic| = {worst:.3e} over 20 sources in {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 60.0


def test_criterion_02_pump_independence():
    """Gaussian-model dip width moves < 0.1% over a 10x pump span and chirps."""
    pm = make_pm(-1.4008708075362777e-12, 8.417281005938861e-13)
    values = []
    for sigma in np.geomspace(8e11, 8e12, 6):
        for beta in (0.0, 1e-26, -1e-26):
            pump = make_pump(sigma, beta)
            scan = gaussian_scan(pump, pm, default_delays(pm))
            values.append(extract_dip(scan, model="gaussian-analytic").t_c)
    spread = (max(values) - min(values)) / min(values)
    ok = spread < 1e-3
    verdict(2, ok, f"t_c spread {spread:.2e} over sigma x10 and beta 0/+-1e4 fs^2")
    assert spread < 1e-3


def test_criterion_03_length_scaling(ppktp):
    """Doubling the waveguide doubles the dip width (analytic and numeric)."""
    base = ppktp
    doubled = preset_with_pump(ppktp, length_scale=2.0)
    analytic_ratio = correlation_time_gaussian(doubled.pm) / correlation_time_gaussian(base.pm)

    numeric = []
    for src in (base, doubled):
        state = build_jsa(src.pump, src.pm)
        scan = coincidence_scan(state, default_delays(src.pm))
        numeric.append(extract_dip(scan).t_c)
    numeric_ratio = numeric[1] / numeric[0]
    ok = abs(analytic_ratio - 2) < 0.005 and abs(numeric_ratio - 2) < 0.01
    verdict(3, ok, f"t_c(2L)/t_c(L): analytic {analytic_ratio:.6f}, numeric {numeric_ratio:.6f}")
    assert analytic_ratio == pytest.approx(2.0, rel=0.005)
    assert numeric_ratio == pytest.approx(2.0, rel=0.005)


def test_criterion_04_decorrelated_row(ppktp):
    """Sinc profile at a 2.0 nm pump: dip 1.16 ps +-5%, marginals 4.3/5.46 nm +-15%."""
    src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, profile="sinc")
    state = build_jsa(src.pump, src.pm)
    t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
    signal, idler = marginals(state)
    to_nm = LAMBDA_PDC**2 / (2 * math.pi * C_M_PER_S) * 1e9
    dl_s = intensity_fwhm(state.grid.nu_s, signal) * to_nm
    dl_i = intensity_fwhm(state.grid.nu_i, idler) * to_nm
    t_ok = abs(t_c - 1.16e-12) / 1.16e-12 <= 0.05
    s_ok = abs(dl_s - 4.3) / 4.3 <= 0.15
    i_ok = abs(dl_i - 5.46) / 5.46 <= 0.15
    verdict(
        4,
        t_ok and s_ok and i_ok,
        f"t_c {t_c * 1e12:.4f} ps vs 1.16 ({'ok' if t_ok else 'off'}); "
        f"marginals {dl_s:.3f}/{dl_i:.3f} nm vs 4.3/5.46 "
        f"({(dl_s / 4.3 - 1) * 100:+.2f}%/{(dl_i / 5.46 - 1) * 100:+.2f}%)",
    )
    assert t_ok, f"dip width {t_c * 1e12:.4f} ps outside 1.16 ps +-5%"
    assert s_ok, f"signal marginal {dl_s:.3f} nm outside 4.3 nm +-15%"
    assert i_ok, f"idler marginal {dl_i:.3f} nm outside 5.46 nm +-15%"


def test_criterion_05_dip_width_ordering(ppktp):
    """Sinc dips for 0.7/2.0/4.5 nm pumps: increasing, within 10% of the table."""
    references = {0.7: 1.10e-12, 2.0: 1.16e-12, 4.5: 1.21e-12}
    measured = []
    deviations = []
    for width, reference in references.items():
        src = preset_with_pump(ppktp, pump_fwhm_nm=width, profile="sinc")
        state = build_jsa(src.pump, src.pm)
        t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
        measured.append(t_c)
        deviations.append((t_c - reference) / reference)
    increasing = measured[0] < measured[1] < measured[2]
    within = all(abs(d) <= 0.10 for d in deviations)
    verdict(
        5,
        increasing and within,
        "t_c = " + "/".join(f"{t * 1e12:.4f}" for t in measured)
        + " ps vs 1.10/1.16/1.21 ("
        + ", ".join(f"{d * 100:+.1f}%" for d in deviations)
        + ")",
    )
    assert increasing
    assert within


def test_criterion_06_time_bandwidth_rows():
    """Transform-limited durations and their convolutions match the table."""
    pump_rows = {4.5: 0.19, 2.0: 0.43, 0.7: 1.24}
    conv_rows = {(5.84, 10.14): 0.68, (4.3, 5.46): 1.02, (3.06, 3.12): 1.58}
    pump_ok = {
        nm: round(transform_limited_duration(LAMBDA_PUMP, nm * 1e-9) * 1e12, 2)
        for nm in pump_rows
    }
    conv_ok = {
        pair: round(convolved_duration(LAMBDA_PDC, pair[0] * 1e-9, pair[1] * 1e-9) * 1e12, 2)
        for pair in conv_rows
    }
    ok = pump_ok == pump_rows and conv_ok == conv_rows
    verdict(6, ok, f"pump durations {pump_ok}, convolutions {conv_ok}")
    assert pump_ok == pump_rows
    assert conv_ok == conv_rows


def test_criterion_07_symmetry_and_visibility():
    """Symmetric walk-offs null the rate; closed-form h matches the overlap."""
    symmetric = build_jsa(make_pump(3e12), make_pm(-1.1e-12, 1.1e-12))
    rate0 = coincidence_scan(symmetric, [0.0]).rates[0]

    rng = np.random.default_rng(107)
    worst = 0.0
    all_h_below_one = True
    for _ in range(6):
        pump, pm = random_source(rng)
        if abs(pm.tau_s + pm.tau_i) < 1e-13:
            continue
        h = visibility_coefficient(pump, pm)
        all_h_below_one &= h < 1.0
        state = build_jsa(pump, pm)
        overlap = 1.0 - coincidence_scan(state, [0.0]).rates[0]
        worst = max(worst, abs(overlap - h))
    ok = rate0 < 1e-9 and worst < 1e-9 and all_h_below_one
    verdict(7, ok, f"symmetric R(0) = {rate0:.2e}; max |overlap - h| = {worst:.2e}")
    assert rate0 < 1e-9
    assert worst < 1e-9
    assert all_h_below_one


def test_criterion_08_filter_dominance(ppktp):
    """A narrow one-arm filter sets the dip width, independent of the crystal."""
    def filtered_tc(source, width, grid_n=2048):
        state = build_jsa(source.pump, source.pm, auto_grid(source.pump, source.pm, n=grid_n))
        filt = SpectralFilter(shape="gaussian", center=0.0, width=width, target="signal")
        filtered = apply_spectral_filter(state, filt)
        # filtered dip scale: amplitude sigma_f = width/(2 sqrt(ln 2)), dip
        # FWHM about 4 sqrt(2) ln2 / width
        estimate = 4 * math.sqrt(2) * math.log(2) / width
        delays = np.linspace(-2.5 * estimate, 2.5 * estimate, 161)
        return extract_dip(coincidence_scan(filtered, delays)).t_c

    base = ppktp
    state = build_jsa(base.pump, base.pm)
    signal, _ = marginals(state)
    natural = intensity_fwhm(state.grid.nu_s, signal)
    natural_tc = extract_dip(coincidence_scan(state, default_delays(base.pm))).t_c

    w8 = natural / 8
    t8 = filtered_tc(base, w8)
    t16 = filtered_tc(base, w8 / 2)
    doubled = preset_with_pump(ppktp, length_scale=2.0)
    t8_long = filtered_tc(doubled, w8)

    dominated = t8 > 3 * natural_tc
    doubling = abs(t16 / t8 - 2.0) <= 0.10
    length_free = abs(t8_long / t8 - 1.0) <= 0.05
    ok = dominated and doubling and length_free
    verdict(
        8,
        ok,
        f"natural t_c {natural_tc * 1e12:.2f} ps -> filtered {t8 * 1e12:.2f} ps; "
        f"halving ratio {t16 / t8:.3f}; 2L ratio {t8_long / t8:.3f}",
    )
    assert dominated
    assert doubling
    assert length_free


def test_criterion_09_cross_representation(ppktp):
    """Temporal difference width equals the dip width; Parseval conserved."""
    worst_rel = 0.0
    worst_parseval = 0.0
    for width_nm, beta in ((0.7, 0.0), (2.0, 0.0), (4.5, 0.0), (2.0, 1e-26)):
        src = preset_with_pump(ppktp, pump_fwhm_nm=width_nm, beta=beta)
        state = build_jsa(src.pump, src.pm)
        jta = jta_from_jsa(state)
        dnu = state.grid.d_nu_s
        power_nu = np.sum(state.intensity) * dnu * dnu
        power_t = np.sum(np.abs(jta.amplitude) ** 2) * jta.dt * jta.dt
        worst_parseval = max(worst_parseval, abs(power_nu - power_t) / power_nu)
        dt_minus, _ = diagonal_widths(jta)
        t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
        worst_rel = max(worst_rel, abs(dt_minus - t_c) / t_c)
    ok = worst_rel < 0.02 and worst_parseval < 1e-9
    verdict(
        9, ok,
        f"max |dt_minus - t_c|/t_c = {worst_rel:.4f}; Parseval mismatch {worst_parseval:.1e}",
    )
    assert worst_rel < 0.02
    assert worst_parseval < 1e-9


def test_criterion_10_fit_recovery(ppktp):
    """200 Poisson scans at 1e4 baseline: unbiased width recovery, honest errors."""
    rng = np.random.default_rng(110)
    src = preset_with_pump(ppktp, pump_fwhm_nm=2.0)
    delays = default_delays(src.pm, n=201)
    rates = gaussian_scan(src.pump, src.pm, delays).rates
    truth = GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(src.pm)

    started = time.monotonic()
    recovered = []
    pulls = []
    for _ in range(200):
        counts = rng.poisson(1e4 * rates).astype(float)
        report = fit_dip(MeasuredScan(delays=delays, counts=counts))
        recovered.append(report.t_c)
        pulls.append((report.t_c - truth) / report.t_c_sigma)
    elapsed = time.monotonic() - started

    mean_error = abs(np.mean(recovered) - truth) / truth
    pull_std = float(np.std(pulls, ddof=1))
    ok = mean_error < 0.01 and 0.8 <= pull_std <= 1.2 and elapsed < 120.0
    verdict(
        10, ok,
        f"mean t_c error {mean_error * 100:.3f}%, pull std {pull_std:.3f}, {elapsed:.1f} s",
    )
    assert mean_error < 0.01
    assert 0.8 <= pull_std <= 1.2
    assert elapsed < 120.0


def test_criterion_11_schmidt_properties():
    """Separable state has one mode; mirrored states share the mode count."""
    sigma, gamma, tau_s = 3e12, 0.193, -1.2e-12
    tau_i = -4.0 / (gamma * sigma**2 * tau_s)
    separable = build_jsa(make_pump(sigma), make_pm(tau_s, tau_i, gamma))
    k_sep = schmidt_decompose(separable).schmidt_number

    tau = 1.0e-12
    sig_a = 2.0e12
    pump_a, pm_a = make_pump(sig_a), make_pm(-tau, tau, gamma)
    sig_b = 2.0 / (math.sqrt(gamma) * tau)
    tau_b = 2.0 / (math.sqrt(gamma) * sig_a)
    pump_b, pm_b = make_pump(sig_b), make_pm(-tau_b, tau_b, gamma)
    k_a = schmidt_decompose(build_jsa(pump_a, pm_a)).schmidt_number
    k_b = schmidt_decompose(build_jsa(pump_b, pm_b)).schmidt_number

    sep_ok = abs(k_sep - 1.0) <= 1e-6
    pair_ok = abs(k_a - k_b) / k_b <= 0.01
    verdict(
        11,
        sep_ok and pair_ok,
        f"separable K = 1 + {k_sep - 1:.2e}; mirrored pair K = {k_a:.4f}/{k_b:.4f}",
    )
    assert sep_ok
    assert pair_ok

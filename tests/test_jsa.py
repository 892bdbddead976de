"""JSA construction, closed-form agreement, marginals, filters, Schmidt, labels."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import (
    DomainError,
    EmptyStateError,
    FrequencyGrid,
    JointSpectralAmplitude,
    SpectralFilter,
    UnsupportedProfileError,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    correlation_classification,
    evaluate_gaussian_jsa,
    gaussian_jsa_params,
    gaussian_schmidt_number,
    intensity_fwhm,
    jsi,
    marginals,
    preset_with_pump,
    schmidt_decompose,
)
from biphoton.dataio import MeasuredScan
from biphoton.errors import CoverageError
from biphoton.hom import DelayScan
from biphoton.jsa import MEMORY_BUDGET_BYTES, GaussianJsaParams, gaussian_marginal_fwhms, jsa_bytes
from biphoton.jsa import BUILD_JSA_PEAK_FACTOR, MIN_SAMPLES_PER_FWHM, check_memory_budget
from biphoton.spectral import pump_envelope, sinc
from biphoton.temporal import JointTemporalAmplitude

from helpers import make_pm, make_pump, random_source


def reference_pump_envelope(pump, nu):
    return np.exp(-((nu / pump.sigma_p) ** 2) + 1j * pump.beta * nu * nu)


def reference_sinc(x):
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    x2 = x * x
    return np.where(small, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(safe) / safe)


def grid_sums(grid):
    """nu_s + nu_i on the full grid, as ``build_jsa`` takes it.

    With equal steps: ``nu_s_min + nu_i_min + (j + k) dnu``; with two
    different steps: the sum of the two axes.
    """
    if grid.d_nu_s != grid.d_nu_i:
        return grid.nu_s[:, None] + grid.nu_i[None, :]
    m = np.arange(grid.n_s)[:, None] + np.arange(grid.n_i)[None, :]
    return grid.nu_s_min + grid.nu_i_min + m * grid.d_nu_s


def reference_amplitude(pump, pm, grid, sums=None):
    """``pump_envelope * phasematching_profile`` as full-grid expressions.

    The pump is evaluated on ``sums``, by default :func:`grid_sums`.
    """
    ns = grid.nu_s[:, None]
    ni = grid.nu_i[None, :]
    if sums is None:
        sums = grid_sums(grid)
    x = 0.5 * (pm.tau_s * ns + pm.tau_i * ni)
    if pm.profile == "gaussian":
        return reference_pump_envelope(pump, sums) * np.exp(-pm.gamma * x * x)
    return reference_pump_envelope(pump, sums) * reference_sinc(x)


def sum_rounding_bound(pump, grid, amp):
    """Largest move of each cell when the pump's nu_s + nu_i moves by a few ulp.

    Either way of forming the sum rounds at most four times a value no larger
    than the grid's extent E = |nu_s_min| + |nu_s_max| + |nu_i_min| +
    |nu_i_max|, so the two sums differ by at most 4 eps E.  The pump's log,
    -(nu/sigma)^2 + i beta nu^2, then moves by |2 nu| 4 eps E (1/sigma^2 +
    |beta|) to first order, and each side rounds its exponent a and exp(a)
    within 8 eps (1 + |a|) of the cell.  Cells that underflow to subnormals
    keep a floor of a few of their spacings.
    """
    eps = np.finfo(float).eps
    extent = sum(abs(v) for v in (grid.nu_s_min, grid.nu_s_max, grid.nu_i_min, grid.nu_i_max))
    nu = np.abs(grid.nu_s[:, None] + grid.nu_i[None, :])
    moved = 2.0 * nu * 4.0 * eps * extent * (1.0 / pump.sigma_p**2 + abs(pump.beta))
    rounding = 8.0 * eps * (1.0 + (nu / pump.sigma_p) ** 2 + abs(pump.beta) * nu * nu)
    return np.abs(amp) * (moved + rounding) + 4.0 * np.finfo(float).smallest_subnormal


def reference_warnings(amp, grid):
    """The resolution warnings, from a freshly computed |amp|^2."""
    warnings = []
    intensity = np.abs(amp) ** 2
    for label, curve, d in (
        ("signal", intensity.sum(axis=1), grid.d_nu_s),
        ("idler", intensity.sum(axis=0), grid.d_nu_i),
    ):
        try:
            width = intensity_fwhm(np.arange(curve.size) * d, curve)
        except (DomainError, CoverageError):
            warnings.append(f"{label} marginal FWHM not resolved on this grid")
            continue
        if width / d < MIN_SAMPLES_PER_FWHM:
            warnings.append(
                f"{label} marginal has {width / d:.1f} samples per FWHM "
                f"(< {MIN_SAMPLES_PER_FWHM:g}); results may be inaccurate"
            )
    return warnings


class TestBuildBitIdentity:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 160),
        chirp=st.sampled_from(("random", "none", "negative")),
        span=st.sampled_from((1.0, 4.0, 12.0)),
    )
    @example(seed=1, profile="sinc", n=101, chirp="negative", span=4.0)
    @example(seed=2, profile="gaussian", n=129, chirp="none", span=12.0)
    def test_matches_full_grid_expressions(self, seed, profile, n, chirp, span):
        pump, pm = random_source(np.random.default_rng(seed), profile)
        if chirp != "random":
            pump = make_pump(pump.sigma_p, -abs(pump.beta) if chirp == "negative" else 0.0)
        grid = auto_grid(pump, pm, n=n, span_fwhms=span)
        state = build_jsa(pump, pm, grid)
        want = reference_amplitude(pump, pm, grid)
        assert state.amplitude.tobytes() == want.tobytes()
        assert state.provenance["warnings"] == reference_warnings(want, grid)
        # against the pump on the sum of the two axes, as it was evaluated
        # before the Hankel form: the sums differ by a few ulp
        full = reference_amplitude(pump, pm, grid, grid.nu_s[:, None] + grid.nu_i[None, :])
        assert np.all(np.abs(state.amplitude - full) <= sum_rounding_bound(pump, grid, full))
        # the factors on their own, where signed zeros are not yet multiplied away
        nu = grid.nu_s[:, None] + grid.nu_i[None, :]
        assert pump_envelope(pump, nu).tobytes() == reference_pump_envelope(pump, nu).tobytes()
        x = 0.5 * (pm.tau_s * grid.nu_s[:, None] + pm.tau_i * grid.nu_i[None, :])
        x[0, :3] = (0.0, -0.0, 5e-5)
        assert sinc(x).tobytes() == reference_sinc(x).tobytes()

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    @pytest.mark.parametrize("axes", [
        # two different steps: the pump on ns + ni, the old expression's bits
        ((48, -3e13, 3e13), (80, -2e13, 2.5e13)),
        ((97, -2e13, 1e13), (64, -4e13, 4e13)),
        # one step, two sizes: the Hankel pump on a rectangle
        ((41, -2e13, 2e13), (81, -3e13, 5e13)),
    ], ids=["unequal-a", "unequal-b", "equal-rectangle"])
    def test_rectangular_grids(self, profile, axes):
        pump, pm = random_source(np.random.default_rng(11), profile)
        (n_s, s0, s1), (n_i, i0, i1) = axes
        grid = FrequencyGrid(n_s, n_i, s0, s1, i0, i1)
        state = build_jsa(pump, pm, grid)
        assert state.amplitude.tobytes() == reference_amplitude(pump, pm, grid).tobytes()


class TestIntensity:
    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    def test_read_only_cached_and_exact(self, ppktp, profile):
        source = preset_with_pump(ppktp, profile=profile, beta=-1e-26)
        state = build_jsa(source.pump, source.pm, auto_grid(source.pump, source.pm, n=96))
        intensity = state.intensity
        assert intensity is state.intensity and jsi(state) is intensity
        assert not intensity.flags.writeable
        assert intensity.tobytes() == (np.abs(state.amplitude) ** 2).tobytes()
        with pytest.raises(ValueError):
            intensity[0, 0] = 1.0

    def test_filtered_and_normalized_states_get_their_own(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        filtered = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, 1e13, "both"))
        normalized = JointSpectralAmplitude(
            state.grid, state.amplitude / np.sqrt(state.norm_squared), state.provenance
        )
        for other in (filtered, normalized):
            assert other.intensity is not state.intensity
            assert other.intensity.tobytes() == (np.abs(other.amplitude) ** 2).tobytes()

    @pytest.mark.parametrize("hand_over,given", [
        (lambda a: JointSpectralAmplitude(FrequencyGrid.square_symmetric(1e13, 8), a).amplitude,
         np.ones((8, 8), dtype=complex)),
        (lambda a: JointTemporalAmplitude(np.linspace(-1e-12, 1e-12, 8), a, {}).amplitude,
         np.ones((8, 8), dtype=complex)),
        (lambda a: JointTemporalAmplitude(a, np.ones((12, 12), dtype=complex), {}).times,
         np.linspace(-1e-12, 1e-12, 12)),
        (lambda a: DelayScan(delays=a, rates=np.full(12, 0.5)).delays,
         np.linspace(-1e-12, 1e-12, 12)),
        (lambda a: MeasuredScan(delays=a, counts=np.ones(12)).delays,
         np.linspace(-1e-12, 1e-12, 12)),
    ], ids=["jsa-amplitude", "jta-amplitude", "jta-times", "delay-scan", "measured-scan"])
    def test_read_only_owned_array_adopted_other_copied(self, hand_over, given):
        owned = given.copy()
        owned.flags.writeable = False
        assert hand_over(owned) is owned
        writable = given.copy()
        view = writable[:]
        view.flags.writeable = False
        for array in (writable, view):
            kept = hand_over(array)
            writable.flat[0] = 5.0
            assert kept.flat[0] == given.flat[0] and not kept.flags.writeable
            writable.flat[0] = given.flat[0]

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    def test_build_peak_at_most_three_amplitudes(self, ppktp, profile):
        source = preset_with_pump(ppktp, profile=profile)
        grid = auto_grid(source.pump, source.pm, n=128)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_jsa(source.pump, source.pm, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * jsa_bytes(128, 128)


class TestGridAnalyticOracle:
    def test_grid_equals_closed_form(self, rng):
        for _ in range(10):
            pump, pm = random_source(rng)
            state = build_jsa(pump, pm)
            reference = evaluate_gaussian_jsa(gaussian_jsa_params(pump, pm), state.grid)
            mask = np.abs(reference) > 1e-30
            err = np.abs(state.amplitude[mask] - reference[mask]) / np.abs(reference[mask])
            assert err.max() < 1e-12

    def test_peak_modulus_is_one(self, ppktp):
        # the even-sized symmetric grid straddles zero detuning, so the
        # on-grid peak sits half a pixel from the unit-modulus maximum
        state = build_jsa(ppktp.pump, ppktp.pm)
        peak = np.abs(state.amplitude).max()
        assert peak <= 1.0 + 1e-12
        assert peak > 0.999

    def test_jsi_chirp_invariant(self):
        pm = make_pm(-1.4e-12, 0.84e-12)
        grid = auto_grid(make_pump(3e12), pm)
        plain = build_jsa(make_pump(3e12, 0.0), pm, grid)
        chirped = build_jsa(make_pump(3e12, 1e-26), pm, grid)
        np.testing.assert_allclose(jsi(plain), jsi(chirped), rtol=1e-12, atol=1e-300)

    def test_coarse_grid_warning(self, ppktp):
        grid = auto_grid(ppktp.pump, ppktp.pm, n=16)
        state = build_jsa(ppktp.pump, ppktp.pm, grid)
        assert any("samples per FWHM" in w for w in state.provenance["warnings"])


class TestMemoryBudget:
    def test_estimate(self):
        assert jsa_bytes(512, 256) == 16 * 512 * 256
        assert jsa_bytes(2048, 2048) <= MEMORY_BUDGET_BYTES < jsa_bytes(8193, 8193)

    def test_oversized_grid_refused_before_allocating(self, ppktp):
        grid = auto_grid(ppktp.pump, ppktp.pm, n=100_000)
        with pytest.raises(DomainError, match="memory budget"):
            build_jsa(ppktp.pump, ppktp.pm, grid)

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    def test_build_peak_within_charge(self, ppktp, profile):
        source = preset_with_pump(ppktp, profile=profile)
        grid = auto_grid(source.pump, source.pm, n=128)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_jsa(source.pump, source.pm, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert jsa_bytes(128, 128) < peak <= BUILD_JSA_PEAK_FACTOR * jsa_bytes(128, 128)

    def test_build_charge_admits_n1024_refuses_n4096(self, ppktp):
        check_memory_budget("n=1024", int(BUILD_JSA_PEAK_FACTOR * jsa_bytes(1024, 1024)))
        # 256 MiB for the amplitude alone, under the budget; the build's peak is not
        grid = auto_grid(ppktp.pump, ppktp.pm, n=4096)
        assert jsa_bytes(4096, 4096) < MEMORY_BUDGET_BYTES
        with pytest.raises(DomainError, match="memory budget"):
            build_jsa(ppktp.pump, ppktp.pm, grid)


class TestGaussianParams:
    def test_decorrelation_condition(self):
        # cross coefficient cancels when gamma tau_s tau_i / 4 = -1/sigma^2
        sigma, gamma, tau_s = 3e12, 0.193, -1.2e-12
        tau_i = -4.0 / (gamma * sigma**2 * tau_s)
        params = gaussian_jsa_params(make_pump(sigma), make_pm(tau_s, tau_i, gamma))
        assert abs(params.c_si) < 1e-18 * abs(params.c_ss)

    def test_chirp_enters_all_imaginary_parts(self):
        beta = 7e-27
        params = gaussian_jsa_params(make_pump(3e12, beta), make_pm(-1.4e-12, 0.84e-12))
        for coeff in (params.c_ss, params.c_ii, params.c_si):
            assert coeff.imag == pytest.approx(-beta, rel=1e-14)

    def test_wide_pump_limit(self):
        gamma, tau_s, tau_i = 0.3, -1.3e-12, 0.9e-12
        params = gaussian_jsa_params(make_pump(1e20), make_pm(tau_s, tau_i, gamma))
        assert params.c_ss.real == pytest.approx(gamma * tau_s**2 / 4, rel=1e-9)
        assert params.c_si.real == pytest.approx(gamma * tau_s * tau_i / 4, rel=1e-9)

    def test_sinc_profile_rejected(self):
        with pytest.raises(UnsupportedProfileError):
            gaussian_jsa_params(make_pump(3e12), make_pm(-1.4e-12, 0.84e-12, profile="sinc"))


class TestMarginals:
    def test_separable_gaussian_closed_form(self):
        # |f|^2 marginal of exp(-(nu/s)^2) is exp(-2 nu^2/s^2) with intensity
        # FWHM s*sqrt(2 ln 2)
        s_sig, s_idl = 2.0e12, 3.1e12
        n = 512
        grid = FrequencyGrid.square_symmetric(4 * 2.5 * s_idl, n)
        amp = np.exp(-((grid.nu_s[:, None] / s_sig) ** 2) - (grid.nu_i[None, :] / s_idl) ** 2)
        state = JointSpectralAmplitude(grid, amp, {"kind": "test"})
        signal, idler = marginals(state)
        expected_s = s_sig * math.sqrt(2 * math.log(2))
        expected_i = s_idl * math.sqrt(2 * math.log(2))
        assert intensity_fwhm(grid.nu_s, signal) == pytest.approx(expected_s, rel=5e-3)
        assert intensity_fwhm(grid.nu_i, idler) == pytest.approx(expected_i, rel=5e-3)

    def test_exchange_symmetric_marginals(self):
        pump, pm = make_pump(3e12), make_pm(-1.1e-12, 1.1e-12)
        state = build_jsa(pump, pm)
        signal, idler = marginals(state)
        np.testing.assert_allclose(signal, idler, rtol=1e-12)

    def test_analytic_marginal_formula(self, rng):
        # grid readout against the closed-form gaussian marginal widths
        pump, pm = random_source(rng)
        f_s, f_i = gaussian_marginal_fwhms(pump, pm)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=1024))
        signal, idler = marginals(state)
        assert intensity_fwhm(state.grid.nu_s, signal) == pytest.approx(f_s, rel=2e-3)
        assert intensity_fwhm(state.grid.nu_i, idler) == pytest.approx(f_i, rel=2e-3)

    def test_sinc_decorrelated_regression(self, ppktp_sinc):
        # frozen from a continuum-quadrature study of the shipped preset at
        # a 2.0 nm pump: 3.653 / 4.603 nm (the measured reference values are
        # 4.3 / 5.46; see the acceptance suite for that comparison)
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0, profile="sinc")
        state = build_jsa(src.pump, src.pm)
        signal, idler = marginals(state)
        to_nm = (1535e-9) ** 2 / (2 * math.pi * 299792458.0) * 1e9
        assert intensity_fwhm(state.grid.nu_s, signal) * to_nm == pytest.approx(3.653, rel=0.01)
        assert intensity_fwhm(state.grid.nu_i, idler) * to_nm == pytest.approx(4.603, rel=0.01)

    def test_fwhm_accuracy_at_coarse_sampling(self):
        # 8 samples per FWHM keeps the interpolated readout within 0.5%
        sigma = 1.0
        fwhm = sigma * math.sqrt(2 * math.log(2))
        dx = fwhm / 8
        x = np.arange(-40, 41) * dx
        y = np.exp(-2 * (x / sigma) ** 2)
        assert intensity_fwhm(x, y) == pytest.approx(fwhm, rel=5e-3)

    def test_fwhm_errors(self):
        with pytest.raises(DomainError):
            intensity_fwhm(np.arange(5.0), np.zeros(5))
        with pytest.raises(CoverageError):
            intensity_fwhm(np.linspace(-1, 1, 11), np.exp(-np.linspace(-1, 1, 11) ** 2 / 50))


class TestFilters:
    def test_wide_filter_is_identity(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        filtered = apply_spectral_filter(
            state, SpectralFilter(shape="gaussian", center=0.0, width=1e20, target="both")
        )
        np.testing.assert_allclose(filtered.amplitude, state.amplitude, rtol=0, atol=1e-12)

    def test_rect_truncation_sets_marginal_width(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        signal, _ = marginals(state)
        natural = intensity_fwhm(state.grid.nu_s, signal)
        width = natural / 2
        filtered = apply_spectral_filter(
            state, SpectralFilter(shape="rect", center=0.0, width=width, target="signal")
        )
        new_signal, _ = marginals(filtered)
        measured = intensity_fwhm(state.grid.nu_s, new_signal)
        assert measured == pytest.approx(width, abs=2 * state.grid.d_nu_s)

    def test_filter_outside_grid(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        beyond = 10 * state.grid.nu_s_max
        with pytest.raises(EmptyStateError):
            apply_spectral_filter(
                state,
                SpectralFilter(shape="rect", center=beyond, width=state.grid.nu_s_max, target="signal"),
            )

    def test_filter_provenance(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        filtered = apply_spectral_filter(
            state, SpectralFilter(shape="gaussian", center=0.0, width=1e12, target="idler")
        )
        assert filtered.provenance["filters"][0]["target"] == "idler"

    def test_filter_validation(self):
        with pytest.raises(DomainError):
            SpectralFilter(shape="box", center=0.0, width=1e12)
        with pytest.raises(DomainError):
            SpectralFilter(shape="rect", center=0.0, width=-1e12)


class TestSchmidt:
    def test_separable_is_rank_one(self):
        sigma, gamma, tau_s = 3e12, 0.193, -1.2e-12
        tau_i = -4.0 / (gamma * sigma**2 * tau_s)
        state = build_jsa(make_pump(sigma), make_pm(tau_s, tau_i, gamma))
        result = schmidt_decompose(state)
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-6)
        assert result.entropy_bits == pytest.approx(0.0, abs=1e-5)

    def test_analytic_gaussian_schmidt_number(self, rng):
        # purity of a real gaussian kernel: K = sqrt(ab/(ab - c^2))
        for _ in range(6):
            pump, pm = random_source(rng)
            pump = make_pump(pump.sigma_p, 0.0)
            params = gaussian_jsa_params(pump, pm)
            expected = gaussian_schmidt_number(params)
            if expected > 30:
                continue  # grid resolution of the default span degrades first
            state = build_jsa(pump, pm, auto_grid(pump, pm, n=1024, span_fwhms=5.0))
            result = schmidt_decompose(state)
            assert result.schmidt_number == pytest.approx(expected, rel=1e-4)

    def test_normalization_and_bounds(self, ppktp, rng):
        pump, pm = random_source(rng)
        state = build_jsa(pump, pm)
        result = schmidt_decompose(state)
        assert float(np.sum(result.coefficients**2)) == pytest.approx(1.0, abs=1e-10)
        assert result.schmidt_number >= 1.0
        assert np.all(np.diff(result.coefficients) <= 1e-15)

    def test_nonseparable_exceeds_one(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        state = build_jsa(src.pump, src.pm)
        assert schmidt_decompose(state).schmidt_number > 1.5

    def test_mirrored_pair_equal_entanglement(self):
        # symmetric-walk-off states with pump and phasematching curvatures
        # exchanged mirror the quadratic form: same K, opposite correlation
        gamma, tau = 0.193, 1.0e-12
        sigma = 2.0e12
        pump_a, pm_a = make_pump(sigma), make_pm(-tau, tau, gamma)
        sigma_b = 2.0 / (math.sqrt(gamma) * tau)
        tau_b = 2.0 / (math.sqrt(gamma) * sigma)
        pump_b, pm_b = make_pump(sigma_b), make_pm(-tau_b, tau_b, gamma)
        k_a = schmidt_decompose(build_jsa(pump_a, pm_a)).schmidt_number
        k_b = schmidt_decompose(build_jsa(pump_b, pm_b)).schmidt_number
        assert k_a == pytest.approx(k_b, rel=0.01)
        rho_a, _ = correlation_classification(build_jsa(pump_a, pm_a))
        rho_b, _ = correlation_classification(build_jsa(pump_b, pm_b))
        assert rho_a == pytest.approx(-rho_b, abs=0.02)

    def test_symmetric_filtering_does_not_increase_k(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        k_before = schmidt_decompose(state).schmidt_number
        signal, _ = marginals(state)
        natural = intensity_fwhm(state.grid.nu_s, signal)
        filtered = apply_spectral_filter(
            state, SpectralFilter(shape="gaussian", center=0.0, width=natural, target="both")
        )
        k_after = schmidt_decompose(filtered).schmidt_number
        assert k_after <= k_before + 1e-6

    def test_analytic_requires_real(self):
        with pytest.raises(DomainError):
            gaussian_schmidt_number(
                GaussianJsaParams(c_ss=1e-25 - 1e-27j, c_ii=1e-25 - 1e-27j, c_si=0.0 - 1e-27j)
            )


def reference_rho(state):
    """Pearson rho of the masked JSI from full-grid weighted sums (the old formula)."""
    weights = state.intensity
    peak = weights.max()
    weights = np.where(weights >= 0.05 * peak, weights, 0.0)
    weights = weights / weights.sum()
    ns = state.grid.nu_s[:, None]
    ni = state.grid.nu_i[None, :]
    mean_s = float(np.sum(weights * ns))
    mean_i = float(np.sum(weights * ni))
    var_s = float(np.sum(weights * (ns - mean_s) ** 2))
    var_i = float(np.sum(weights * (ni - mean_i) ** 2))
    cov = float(np.sum(weights * (ns - mean_s) * (ni - mean_i)))
    return cov / math.sqrt(var_s * var_i)


class TestClassification:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(16, 256),
        filtered=st.booleans(),
    )
    def test_one_pass_moments_match_full_grid_sums(self, seed, profile, n, filtered):
        rng = np.random.default_rng(seed)
        pump, pm = random_source(rng, profile)
        pump = make_pump(pump.sigma_p, rng.choice([-1.0, 1.0]) * rng.uniform(1e-27, 2e-26))
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        if filtered:
            width = rng.uniform(0.3, 2.0) * state.grid.nu_s_max
            target = str(rng.choice(["signal", "idler", "both"]))
            state = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, width, target))
        rho, label = correlation_classification(state)
        want = reference_rho(state)
        # relative, but with a floor of a few ulp of |rho| <= 1: a support
        # symmetric about its mean gives rho ~ 1e-32, rounding noise either way
        assert abs(rho - want) <= 1e-12 * abs(want) + 64 * np.finfo(float).eps
        assert label == ("anticorrelated" if want < -0.1 else "correlated" if want > 0.1
                         else "decorrelated")

    def test_separable_is_decorrelated(self):
        sigma, gamma, tau_s = 3e12, 0.193, -1.2e-12
        tau_i = -4.0 / (gamma * sigma**2 * tau_s)
        rho, label = correlation_classification(build_jsa(make_pump(sigma), make_pm(tau_s, tau_i, gamma)))
        assert abs(rho) < 0.01
        assert label == "decorrelated"

    def test_preset_labels(self, ppktp):
        narrow = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        rho, label = correlation_classification(build_jsa(narrow.pump, narrow.pm))
        assert rho < -0.5 and label == "anticorrelated"

        wide = preset_with_pump(ppktp, pump_fwhm_nm=4.5)
        rho, label = correlation_classification(build_jsa(wide.pump, wide.pm))
        assert rho > 0.1 and label == "correlated"

        default = build_jsa(ppktp.pump, ppktp.pm)
        rho, label = correlation_classification(default)
        assert abs(rho) <= 0.1 and label == "decorrelated"

    def test_sinc_label_stable_under_span(self, ppktp_sinc):
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0, profile="sinc")
        values = []
        for span in (4.0, 6.0, 8.0):
            state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, span_fwhms=span))
            values.append(correlation_classification(state)[0])
        assert max(values) - min(values) < 0.01
        assert all(abs(v) <= 0.1 for v in values)

    def test_degenerate_input(self):
        grid = FrequencyGrid.square_symmetric(1e12, 8)
        amp = np.zeros((8, 8))
        amp[4, :] = 1.0  # no spread along the signal axis
        state = JointSpectralAmplitude(grid, amp, {})
        with pytest.raises(DomainError):
            correlation_classification(state)

"""Conversions, pump envelope, phasematching profile, walk-offs."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biphoton import (
    C_M_PER_S,
    DomainError,
    PhasematchSpec,
    PumpSpec,
    coincidence_rate_sinc,
    correlation_time_gaussian,
    pump_envelope,
    transform_limited_duration,
    walkoff_from_group_velocities,
    wavelength_fwhm_to_sigma,
)
from biphoton.spectral import (
    AMPLITUDE_FWHM_FACTOR,
    GAUSSIAN_FWHM_FACTOR,
    omega_fwhm_to_wavelength_fwhm,
    phasematching_profile,
    sinc,
    tabulated_pump_duration,
)

OMEGA_1535 = 2 * math.pi * C_M_PER_S / 1535e-9


def make_pm(tau_s, tau_i, gamma=0.193, profile="gaussian", length=8e-3):
    return PhasematchSpec(
        length_L=length,
        tau_s=tau_s,
        tau_i=tau_i,
        omega_s0=OMEGA_1535,
        omega_i0=OMEGA_1535,
        gamma=gamma,
        profile=profile,
    )


class TestWavelengthConversions:
    def test_pump_width_example(self):
        # delta_f = c * dl / l^2 = 3.5625e11 Hz for 0.7 nm at 767.5 nm,
        # then sigma = 2 pi delta_f / (2 sqrt(ln 2))
        sigma = wavelength_fwhm_to_sigma(767.5e-9, 0.7e-9)
        assert sigma == pytest.approx(1.34428e12, rel=1e-4)
        delta_f = sigma * 2 * math.sqrt(math.log(2)) / (2 * math.pi)
        assert delta_f == pytest.approx(3.5625e11, rel=1e-4)

    def test_signal_width_example(self):
        sigma = wavelength_fwhm_to_sigma(1535e-9, 5.84e-9)
        delta_f = sigma * 2 * math.sqrt(math.log(2)) / (2 * math.pi)
        assert delta_f == pytest.approx(7.430e11, rel=1e-3)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DomainError):
            wavelength_fwhm_to_sigma(767.5e-9, 0.0)
        with pytest.raises(DomainError):
            wavelength_fwhm_to_sigma(-1e-9, 1e-9)

    def test_round_trip(self, rng):
        for _ in range(50):
            lam = rng.uniform(4e-7, 2e-6)
            fwhm = rng.uniform(1e-11, 1e-8)
            sigma = wavelength_fwhm_to_sigma(lam, fwhm)
            back = omega_fwhm_to_wavelength_fwhm(lam, sigma * AMPLITUDE_FWHM_FACTOR)
            assert back == pytest.approx(fwhm, rel=1e-12)


class TestTransformLimitedDuration:
    @pytest.mark.parametrize(
        "fwhm_nm,expected_ps",
        [(4.5, 0.19), (2.0, 0.43), (0.7, 1.24)],
    )
    def test_pump_rows(self, fwhm_nm, expected_ps):
        dt = transform_limited_duration(767.5e-9, fwhm_nm * 1e-9)
        assert round(dt * 1e12, 2) == expected_ps

    def test_errors(self):
        with pytest.raises(DomainError):
            transform_limited_duration(767.5e-9, 0.0)


class TestPumpEnvelope:
    def test_zero_detuning(self):
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=2e12, beta=3e-26)
        assert pump_envelope(pump, 0.0) == 1.0 + 0.0j

    def test_one_sigma_unchirped(self):
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=2e12, beta=0.0)
        val = pump_envelope(pump, 2e12)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_one_sigma_chirped(self):
        s, b = 2e12, 4e-26
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=s, beta=b)
        val = pump_envelope(pump, s)
        assert abs(val) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert np.angle(val) == pytest.approx(b * s * s, rel=1e-12)

    def test_modulus_chirp_independent(self, rng):
        nu = rng.uniform(-8e12, 8e12, size=200)
        base = PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=0.0)
        chirped = PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=1e-26)
        np.testing.assert_allclose(
            np.abs(pump_envelope(base, nu)), np.abs(pump_envelope(chirped, nu)), rtol=1e-13
        )

    @pytest.mark.parametrize("beta", [0.0, 1e-26, -1e-26])
    def test_scalar_is_complex(self, beta):
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=beta)
        for nu in (0.0, 2e12, -5e12):
            assert type(pump_envelope(pump, nu)) is complex

    @pytest.mark.parametrize("beta", [0.0, 1e-26, -1e-26])
    def test_far_detuning_is_zero_without_warning(self, beta):
        # the exponent overflows to -inf, and exp(-inf) = 0 is the limit
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pump_envelope(pump, np.array([1e200, -1e300, 0.0]))
        assert out.tolist() == [0j, 0j, 1 + 0j]

    def test_invalid_exponent_still_warns(self):
        # 0 * inf in the unchirped phase is NaN: only overflow is silenced
        pump = PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=0.0)
        with pytest.warns(RuntimeWarning, match="invalid"):
            pump_envelope(pump, np.array([np.inf]))

    def test_invariants(self):
        with pytest.raises(DomainError):
            PumpSpec(omega_p0=2.45e15, sigma_p=0.0)
        with pytest.raises(DomainError):
            PumpSpec(omega_p0=-1.0, sigma_p=1e12)


class TestPhasematchingAmplitude:
    def test_gaussian_far_detuning_is_zero_without_warning(self):
        pm = make_pm(-1.4e-12, 0.84e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = phasematching_profile(pm, np.array([1e200, 0.0]), np.array([1e200, 1e300]))
            far = phasematching_profile(pm, 1e300, -1e300)
        assert out.tolist() == [0.0, 0.0] and far == 0.0

    def test_perfect_phasematching(self):
        pm = make_pm(-1.4e-12, 0.84e-12)
        assert phasematching_profile(pm, 0.0, 0.0) == 1.0

    def test_gaussian_at_x_one(self):
        # choose detunings so x = (tau_s nu_s + tau_i nu_i)/2 = 1
        pm = make_pm(-1.4e-12, 0.84e-12, gamma=0.193)
        nu_i = 2.0 / pm.tau_i
        val = phasematching_profile(pm, 0.0, nu_i)
        assert abs(val) == pytest.approx(math.exp(-0.193), rel=1e-12)

    def test_sinc_first_zero(self):
        pm = make_pm(-1.4e-12, 0.84e-12, profile="sinc")
        nu_i = 2.0 * math.pi / pm.tau_i
        assert abs(phasematching_profile(pm, 0.0, nu_i)) < 1e-12

    def test_ridge_invariance(self, rng):
        # (nu_s, nu_i) -> (nu_s + d*tau_i, nu_i - d*tau_s) keeps x unchanged
        pm = make_pm(-1.4e-12, 0.84e-12)
        for _ in range(20):
            nu_s, nu_i = rng.uniform(-5e12, 5e12, size=2)
            d = rng.uniform(-3.0, 3.0)
            a = phasematching_profile(pm, nu_s, nu_i)
            b = phasematching_profile(pm, nu_s + d * pm.tau_i, nu_i - d * pm.tau_s)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)

    def test_profile_fwhm_agreement_at_default_gamma(self):
        # amplitude half-maximum of sin(x)/x sits at x ~ 1.8955 (bisection
        # oracle); exp(-gamma x^2) crosses 1/2 at sqrt(ln 2 / gamma)
        lo, hi = 1.0, 2.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if sinc(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        x_sinc = 0.5 * (lo + hi)
        x_gauss = math.sqrt(math.log(2.0) / 0.193)
        assert abs(x_gauss - x_sinc) / x_sinc < 0.01
        # both profiles equal 1 at x = 0
        pm_g = make_pm(-1.4e-12, 0.84e-12, profile="gaussian")
        pm_s = make_pm(-1.4e-12, 0.84e-12, profile="sinc")
        assert phasematching_profile(pm_g, 0.0, 0.0) == 1.0
        assert phasematching_profile(pm_s, 0.0, 0.0) == 1.0

    def test_sinc_series_branch(self):
        # series 1 - x^2/6 + x^4/120 against the sin(x)/x branch
        for x in (1e-7, 1e-5, 9.9e-5):
            series = 1.0 - x * x / 6.0 + x**4 / 120.0
            assert sinc(x) == pytest.approx(series, rel=1e-14)
        assert sinc(0.0) == 1.0
        # continuity across the branch switch at |x| = 1e-4
        assert sinc(1.0000001e-4) == pytest.approx(sinc(0.9999999e-4), rel=1e-10)

    def test_sinc_scalar_is_float_and_arrays_keep_shape(self):
        for x in (0.0, -0.0, 5e-5, 1.0, -3.0):
            assert type(sinc(x)) is float
        out = sinc(np.array([[0.0, 5e-5], [1.0, -2.0]]))
        assert out.shape == (2, 2) and out[0, 0] == 1.0
        assert out[1, 1] == math.sin(-2.0) / -2.0

    def test_spec_invariants(self):
        with pytest.raises(DomainError):
            make_pm(1e-12, 1e-12)  # equal walk-offs
        with pytest.raises(DomainError):
            make_pm(-1.4e-12, 0.84e-12, gamma=0.0)
        with pytest.raises(DomainError):
            make_pm(-1.4e-12, 0.84e-12, profile="lorentzian")


class TestWalkoffs:
    def test_matched_velocities(self):
        tau_s, tau_i = walkoff_from_group_velocities(8e-3, 1.5e8, 1.5e8, 1.5e8)
        assert tau_s == 0.0 and tau_i == 0.0

    def test_linearity_in_length(self):
        args = (1.49e8, 1.52e8, 1.47e8)
        a = walkoff_from_group_velocities(8e-3, *args)
        b = walkoff_from_group_velocities(16e-3, *args)
        assert b[0] == pytest.approx(2 * a[0], rel=1e-14)
        assert b[1] == pytest.approx(2 * a[1], rel=1e-14)

    def test_velocities_solving_preset_constraints(self, ppktp):
        # invert tau = L(1/u - 1/u_p) for a chosen pump group velocity and
        # confirm the walk-off difference of the shipped preset
        length = ppktp.pm.length_L
        u_p = C_M_PER_S / 1.8
        u_s = 1.0 / (ppktp.pm.tau_s / length + 1.0 / u_p)
        u_i = 1.0 / (ppktp.pm.tau_i / length + 1.0 / u_p)
        tau_s, tau_i = walkoff_from_group_velocities(length, u_s, u_i, u_p)
        assert tau_s == pytest.approx(ppktp.pm.tau_s, rel=1e-12)
        assert tau_i == pytest.approx(ppktp.pm.tau_i, rel=1e-12)
        assert abs(tau_s - tau_i) == pytest.approx(2.2426e-12, rel=1e-4)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        length=st.floats(1e-3, 5e-2),
        scale=st.floats(0.1, 10.0),
        velocities=st.lists(st.floats(1.35e8, 1.65e8), min_size=4, max_size=4),
    )
    def test_dispersion_alone_sets_the_dip(self, length, scale, velocities):
        # the paper's claim: the dip width is the crystal's, L |1/u_s - 1/u_i|,
        # so changing only the pump's group velocity u_p leaves the gaussian
        # dip FWHM and the sinc dip's support |tau| < |tau_s - tau_i| / 2 as
        # they are, and both grow linearly with the length
        u_s, u_i, u_p, other_u_p = velocities
        assume(min(abs(a - b) for a, b in [(u_s, u_i), (u_s, u_p), (u_i, u_p),
                                           (u_s, other_u_p), (u_i, other_u_p)]) > 1.5e5)
        pump = PumpSpec(omega_p0=2 * OMEGA_1535, sigma_p=3e12)

        def source(length, u_p):
            tau_s, tau_i = walkoff_from_group_velocities(length, u_s, u_i, u_p)
            return make_pm(tau_s, tau_i, length=length)

        def dip(pm, edge):
            """The gaussian dip FWHM, and whether the sinc dip's support ends at ``edge``."""
            inside, beyond = coincidence_rate_sinc(
                pump, replace(pm, profile="sinc"), [edge * (1 - 1e-9), edge * (1 + 1e-9)]
            )
            return correlation_time_gaussian(pm), inside < 1.0 and beyond == 1.0

        pm = source(length, u_p)
        edge = abs(pm.tau_s - pm.tau_i) / 2
        t_c, ends = dip(pm, edge)
        assert ends
        other_t_c, other_ends = dip(source(length, other_u_p), edge)
        assert other_t_c == pytest.approx(t_c, rel=1e-9) and other_ends
        longer_t_c, longer_ends = dip(source(scale * length, u_p), scale * edge)
        assert longer_t_c == pytest.approx(scale * t_c, rel=1e-9) and longer_ends

    def test_errors(self):
        with pytest.raises(DomainError):
            walkoff_from_group_velocities(8e-3, 0.0, 1.5e8, 1.5e8)
        with pytest.raises(DomainError):
            walkoff_from_group_velocities(-8e-3, 1.5e8, 1.5e8, 1.5e8)


class TestPulseDuration:
    @pytest.mark.parametrize("beta", [0.0, 1e-26, -2.5e-26])
    def test_against_numeric_transform(self, beta):
        # oracle: FFT of the sampled spectral amplitude, intensity FWHM by
        # linear interpolation on a heavily zero-padded axis
        sigma = 3e12
        n, pad = 4096, 256
        nu = np.linspace(-8 * sigma, 8 * sigma, n)
        dnu = nu[1] - nu[0]
        spec = np.exp(-((nu / sigma) ** 2) + 1j * beta * nu * nu)
        big = np.zeros(n * pad, dtype=complex)
        start = (big.size - n) // 2
        big[start : start + n] = spec
        field = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(big)))
        t = np.fft.fftshift(np.fft.fftfreq(big.size, d=dnu / (2 * np.pi)))
        intensity = np.abs(field) ** 2
        half = intensity.max() / 2
        above = np.where(intensity >= half)[0]
        lo, hi = above[0], above[-1]
        t_lo = np.interp(half, [intensity[lo - 1], intensity[lo]], [t[lo - 1], t[lo]])
        t_hi = np.interp(half, [intensity[hi + 1], intensity[hi]], [t[hi + 1], t[hi]])
        numeric = t_hi - t_lo
        # the chirp factor: the unchirped modeled envelope lasts 2 sqrt(2 ln 2) / sigma
        chirp = tabulated_pump_duration(PumpSpec(omega_p0=2.45e15, sigma_p=sigma, beta=beta))
        chirp /= tabulated_pump_duration(PumpSpec(omega_p0=2.45e15, sigma_p=sigma))
        assert chirp == pytest.approx(numeric / (GAUSSIAN_FWHM_FACTOR / sigma), rel=1e-6)

    def test_chirp_broadens(self):
        base = tabulated_pump_duration(PumpSpec(omega_p0=2.45e15, sigma_p=3e12))
        chirped = tabulated_pump_duration(PumpSpec(omega_p0=2.45e15, sigma_p=3e12, beta=2e-26))
        assert chirped > base

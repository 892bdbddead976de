"""Coincidence rates: numeric quadrature vs closed form, dip readout."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton import (
    CoverageError,
    DelayScan,
    DomainError,
    FrequencyGrid,
    GridError,
    JointSpectralAmplitude,
    NoDipError,
    UnsupportedProfileError,
    auto_grid,
    build_jsa,
    coincidence_rate_gaussian,
    coincidence_rate_sinc,
    coincidence_scan,
    correlation_time_gaussian,
    default_delays,
    extract_dip,
    gaussian_scan,
    intensity_fwhm,
    marginals,
    preset_with_pump,
    schmidt_decompose,
    transform_limited_duration,
    visibility_coefficient,
)
from biphoton import hom
from biphoton.hom import _exchange_overlap, gaussian_dip_width
from biphoton.spectral import GAUSSIAN_FWHM_FACTOR

from helpers import OMEGA0, make_pm, make_pump, matmul_overlap, random_source, record_adoptions


class TestNumericRate:
    def test_symmetric_state_bunches_perfectly(self):
        state = build_jsa(make_pump(3e12), make_pm(-1.1e-12, 1.1e-12))
        assert coincidence_scan(state, [0.0]).rates[0] < 1e-12

    def test_distinguishable_limit(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        t_c = correlation_time_gaussian(ppktp.pm)
        assert coincidence_scan(state, [20 * t_c]).rates[0] == pytest.approx(1.0, abs=1e-3)

    def test_numeric_equals_closed_form(self, rng):
        for _ in range(5):
            pump, pm = random_source(rng)
            state = build_jsa(pump, pm)
            w = gaussian_dip_width(pm)
            delays = np.linspace(-4 * w, 4 * w, 17)
            numeric = coincidence_scan(state, delays).rates
            analytic = coincidence_rate_gaussian(pump, pm, delays)
            assert np.max(np.abs(numeric - analytic)) < 1e-6

    def test_scan_symmetric_for_symmetric_state(self):
        pm = make_pm(-0.9e-12, 0.9e-12)
        state = build_jsa(make_pump(2.5e12), pm)
        scan = coincidence_scan(state, default_delays(pm))
        assert np.max(np.abs(scan.rates - scan.rates[::-1])) < 1e-9

    def test_non_square_grid_rejected(self):
        grid = FrequencyGrid(64, 64, -1e13, 1e13, -0.5e13, 1e13)
        nu_s = np.linspace(-1e13, 1e13, 64)
        nu_i = np.linspace(-0.5e13, 1e13, 64)
        amp = np.exp(-((nu_s[:, None] / 3e12) ** 2) - (nu_i[None, :] / 3e12) ** 2)
        state = JointSpectralAmplitude(grid, amp, {})
        with pytest.raises(GridError):
            coincidence_scan(state, [0.0])


class TestDiagonalSumOverlap:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 128),
        n_delays=st.integers(2, 101),
        spans=st.sampled_from((1.0, 4.0, 20.0)),
        scrambled=st.booleans(),
    )
    @example(seed=1, profile="sinc", n=127, n_delays=101, spans=4.0, scrambled=False)
    @example(seed=2, profile="gaussian", n=128, n_delays=2, spans=20.0, scrambled=True)
    def test_matches_matmul_reference(self, seed, profile, n, n_delays, spans, scrambled):
        rng = np.random.default_rng(seed)
        pump, pm = random_source(rng, profile)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        if scrambled:
            # a random phase per cell makes the D_m complex and the scan asymmetric in tau
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, state.amplitude.shape))
            state = JointSpectralAmplitude(state.grid, state.amplitude * phase)
        delays = default_delays(pm, n=n_delays, spans=spans)
        got = _exchange_overlap(state, delays)
        np.testing.assert_allclose(got, matmul_overlap(state, delays), rtol=0, atol=1e-12)
        # one delay alone: a scrambled state's rate can exceed the scan's bound
        assert _exchange_overlap(state, delays[-1:])[0] == pytest.approx(got[-1], abs=1e-12)

    @pytest.mark.parametrize("chirped", [False, True], ids=["unchirped", "chirped"])
    @pytest.mark.parametrize("n", [2, 3, 17, 96, 100, 256, 1024])
    def test_lag_steps_match_double_sum_past_one_period(self, n, chirped):
        # Horner's steps over the n - 1 lags, one at n = 2; the delays run
        # 1.5 periods 2 pi / dnu each side.  The smallest grids span fewer
        # marginal FWHMs so their samples do not underflow.
        rng = np.random.default_rng(n)
        for profile in ("gaussian", "sinc", "gaussian", "sinc"):
            pump, pm = random_source(rng, profile)
            if not chirped:
                pump = make_pump(pump.sigma_p)
            state = build_jsa(pump, pm, auto_grid(pump, pm, n=n, span_fwhms=min(4.0, n / 4)))
            period = 2 * math.pi / state.grid.d_nu_s
            delays = np.linspace(-1.5 * period, 1.5 * period, 301)
            np.testing.assert_allclose(
                _exchange_overlap(state, delays), matmul_overlap(state, delays),
                rtol=0, atol=1e-13,
            )

    @pytest.mark.parametrize("n", [96, 1024])
    def test_horner_sum_matches_direct_lag_product(self, ppktp, n):
        # 3 x 1024 + 77 random delays over 1.5 delay periods each side,
        # against the lag sum as a product of the D_m and the delays' phases
        # (in 8 batches of delays, 6.5 MB each at n = 1024), with and without
        # a random phase per cell
        src = preset_with_pump(ppktp, profile="sinc", beta=-1e-26)
        state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=n))
        rng = np.random.default_rng(5)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, state.amplitude.shape))
        period = 2 * math.pi / state.grid.d_nu_s
        for state in (state, JointSpectralAmplitude(state.grid, state.amplitude * phase)):
            delays = np.sort(rng.uniform(-1.5 * period, 1.5 * period, 3 * 1024 + 77))
            f = state.amplitude
            diag = np.array([np.vdot(f.diagonal(m), f.diagonal(-m)) for m in range(n)])
            lags = np.arange(1, n) * state.grid.d_nu_s
            lag_sum = np.concatenate([
                diag[1:] @ np.exp(1j * np.outer(lags, batch))
                for batch in np.array_split(delays, 8)
            ])
            direct = (diag[0].real + 2.0 * lag_sum.real) / float(np.sum(state.intensity))
            got = _exchange_overlap(state, delays)
            np.testing.assert_allclose(got, direct, rtol=0, atol=1e-13)


class TestChirpInvariance:
    # the pump phase depends on nu_s + nu_i only: it cancels in |f|^2 and in
    # the overlap's f[k + m, k] f*[k, k + m], though it reshapes the Schmidt modes
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 128),
        beta=st.floats(-4e-26, 4e-26),
    )
    @example(seed=1, profile="sinc", n=128, beta=-4e-26)
    def test_jsi_and_scan_unchanged_and_k_at_least_one(self, seed, profile, n, beta):
        pump, pm = random_source(np.random.default_rng(seed), profile)
        plain_pump, chirped_pump = make_pump(pump.sigma_p), make_pump(pump.sigma_p, beta)
        grid = auto_grid(plain_pump, pm, n=n)
        plain, chirped = (build_jsa(p, pm, grid) for p in (plain_pump, chirped_pump))
        peak = plain.intensity.max()
        np.testing.assert_allclose(chirped.intensity, plain.intensity, rtol=0, atol=1e-14 * peak)
        # the scan's overlap, unclipped: a grid of 8 points may alias it outside [0, 1]
        delays = default_delays(pm, n=41)
        np.testing.assert_allclose(
            _exchange_overlap(chirped, delays), _exchange_overlap(plain, delays),
            rtol=0, atol=1e-12,
        )
        for state in (plain, chirped):
            assert schmidt_decompose(state).schmidt_number >= 1.0


class TestRandomSourceInvariants:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 256))
    def test_gaussian_dip_width_doubles_with_length(self, seed, n):
        # doubling the length doubles both walk-offs and, with them, the dip
        # width sqrt(gamma)|tau_s - tau_i|/2; the pump does not enter.  The
        # numeric overlap is periodic in the delay with period 2 pi / dnu, so
        # only grids that resolve the marginals and whose period is at least
        # twice the scan are kept: there the aliased dips lie below rounding
        pump, pm = random_source(np.random.default_rng(seed), "gaussian")
        long = replace(pm, length_L=2 * pm.length_L, tau_s=2 * pm.tau_s, tau_i=2 * pm.tau_i)
        widths = []
        for source in (pm, long):
            state = build_jsa(pump, source, auto_grid(pump, source, n=n))
            delays = default_delays(source)
            assume(not state.provenance["warnings"])
            assume(2 * math.pi / state.grid.d_nu_s >= 2 * (delays[-1] - delays[0]))
            widths.append(extract_dip(coincidence_scan(state, delays)).t_c)
        assert abs(widths[1] / (2 * widths[0]) - 1) <= 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 256),
    )
    def test_zero_delay_overlap_at_most_one(self, seed, profile, n):
        # |sum f[j, k] f*[k, j]| <= sum |f|^2 (Cauchy-Schwarz), so visibility
        # <= 1; extract_dip clamps it and coincidence_scan clips the rate at 0,
        # so the raw overlap is checked
        pump, pm = random_source(np.random.default_rng(seed), profile)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        assume(not state.provenance["warnings"])
        assert _exchange_overlap(state, np.zeros(1))[0] <= 1.0 + 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 256),
    )
    def test_exchange_symmetric_rates_even_in_delay(self, seed, profile, n):
        # tau_i = -tau_s makes f(nu_s, nu_i) = f(nu_i, nu_s) for any pump
        # width, gamma and chirp, so the overlap is real and even in the delay
        pump, pm = random_source(np.random.default_rng(seed), profile)
        pm = replace(pm, tau_i=-pm.tau_s)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        assume(not state.provenance["warnings"])
        delays = default_delays(pm, n=41)
        np.testing.assert_allclose(
            coincidence_scan(state, -delays[::-1]).rates[::-1],
            coincidence_scan(state, delays).rates, rtol=0, atol=1e-12,
        )


class TestClosedForm:
    def test_symmetric_visibility_is_one(self):
        pump, pm = make_pump(3e12), make_pm(-1.1e-12, 1.1e-12)
        assert visibility_coefficient(pump, pm) == 1.0
        assert coincidence_rate_gaussian(pump, pm, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_visibility_below_one(self, rng):
        for _ in range(10):
            pump, pm = random_source(rng)
            h = visibility_coefficient(pump, pm)
            assert 0.0 < h <= 1.0
            if abs(pm.tau_s + pm.tau_i) > 1e-14:
                assert h < 1.0

    def test_h_matches_numeric_overlap(self, rng):
        for _ in range(5):
            pump, pm = random_source(rng)
            state = build_jsa(pump, pm)
            h = visibility_coefficient(pump, pm)
            assert 1.0 - coincidence_scan(state, [0.0]).rates[0] == pytest.approx(h, abs=1e-9)

    def test_chirp_leaves_scan_unchanged(self):
        pm = make_pm(-1.4e-12, 0.84e-12)
        delays = default_delays(pm)
        plain = coincidence_rate_gaussian(make_pump(3e12, 0.0), pm, delays)
        chirped = coincidence_rate_gaussian(make_pump(3e12, 1e-26), pm, delays)
        np.testing.assert_allclose(plain, chirped, rtol=0, atol=1e-12)

    def test_sinc_profile_rejected(self):
        pm = make_pm(-1.4e-12, 0.84e-12, profile="sinc")
        with pytest.raises(UnsupportedProfileError):
            coincidence_rate_gaussian(make_pump(3e12), pm, 0.0)
        with pytest.raises(UnsupportedProfileError):
            correlation_time_gaussian(pm)
        with pytest.raises(UnsupportedProfileError):
            visibility_coefficient(make_pump(3e12), pm)


class TestSincClosedForm:
    """The sinc profile's exchange overlap in closed form, as an oracle."""

    @pytest.mark.parametrize("pump_fwhm_nm", [0.7, 2.0, 4.5])
    def test_numeric_error_falls_with_grid(self, ppktp_sinc, pump_fwhm_nm):
        # the grid truncates the sinc's slow tails: doubling the span (and
        # the points, to keep the step) halves the numeric scan's error
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=pump_fwhm_nm)
        delays = default_delays(src.pm)
        exact = coincidence_rate_sinc(src.pump, src.pm, delays)
        errors = []
        for n, span in ((512, 4.0), (1024, 8.0)):
            grid = auto_grid(src.pump, src.pm, n=n, span_fwhms=span)
            rates = coincidence_scan(build_jsa(src.pump, src.pm, grid), delays).rates
            errors.append(np.max(np.abs(rates - exact)))
        assert errors[0] < 0.025
        assert errors[1] < 0.55 * errors[0]

    @pytest.mark.parametrize("sigma", [1e12, 4e12, 2e13])
    def test_symmetric_walkoffs_give_the_triangle(self, sigma):
        pm = make_pm(-1.1e-12, 1.1e-12, profile="sinc")
        delays = np.linspace(-2e-12, 2e-12, 401)
        triangle = 1.0 - np.maximum(0.0, 1.0 - np.abs(delays) / 1.1e-12)
        rates = coincidence_rate_sinc(make_pump(sigma), pm, delays)
        np.testing.assert_allclose(rates, triangle, rtol=0, atol=1e-15)
        assert coincidence_rate_sinc(make_pump(sigma), pm, 0.0) == 0.0

    def test_chirp_leaves_scan_unchanged(self, ppktp_sinc):
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0)
        chirped = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0, beta=-2e-26)
        delays = default_delays(src.pm)
        closed = coincidence_rate_sinc(src.pump, src.pm, delays)
        assert np.array_equal(coincidence_rate_sinc(chirped.pump, chirped.pm, delays), closed)
        grid = auto_grid(src.pump, src.pm, n=256)
        plain = coincidence_scan(build_jsa(src.pump, src.pm, grid), delays).rates
        numeric = coincidence_scan(build_jsa(chirped.pump, chirped.pm, grid), delays).rates
        np.testing.assert_allclose(numeric, plain, rtol=0, atol=1e-12)

    def test_visibility_at_most_one(self, rng):
        for _ in range(20):
            pump, pm = random_source(rng, profile="sinc")
            delays = default_delays(pm)
            rates = coincidence_rate_sinc(pump, pm, delays)
            assert 0.0 <= 1.0 - coincidence_rate_sinc(pump, pm, 0.0) <= 1.0
            assert np.all((rates >= 0.0) & (rates <= 1.0))

    def test_support_does_not_move_with_the_pump(self, ppktp_sinc):
        pm = ppktp_sinc.pm
        edge = abs(pm.tau_s - pm.tau_i) / 2
        outside = np.array([-2.0, -1.0, 1.0, 2.0]) * edge
        inside = np.array([-1.0, 1.0]) * edge * (1 - 1e-6)
        for width_nm in np.geomspace(0.45, 4.5, 5):
            src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=width_nm)
            assert np.array_equal(coincidence_rate_sinc(src.pump, src.pm, outside), np.ones(4))
            assert np.all(coincidence_rate_sinc(src.pump, src.pm, inside) < 1.0)

    def test_gaussian_profile_rejected(self):
        with pytest.raises(UnsupportedProfileError):
            coincidence_rate_sinc(make_pump(3e12), make_pm(-1.4e-12, 0.84e-12), 0.0)


class TestCorrelationTime:
    def test_preset_value(self, ppktp):
        assert correlation_time_gaussian(ppktp.pm) == pytest.approx(1.16e-12, rel=1e-12)

    def test_length_doubling(self, ppktp):
        doubled = preset_with_pump(ppktp, length_scale=2.0)
        assert correlation_time_gaussian(doubled.pm) == pytest.approx(
            2 * correlation_time_gaussian(ppktp.pm), rel=1e-12
        )

    def test_gamma_scaling(self):
        base = make_pm(-1.4e-12, 0.84e-12, gamma=0.2)
        quad = make_pm(-1.4e-12, 0.84e-12, gamma=0.8)
        assert correlation_time_gaussian(quad) == pytest.approx(
            2 * correlation_time_gaussian(base), rel=1e-12
        )

    def test_equal_walkoffs_rejected_at_construction(self):
        with pytest.raises(DomainError):
            make_pm(1e-12, 1e-12)


class TestExtractDip:
    def test_known_width_readout(self):
        pump, pm = make_pump(3e12), make_pm(-1.4e-12, 0.84e-12)
        scan = gaussian_scan(pump, pm, default_delays(pm))
        result = extract_dip(scan, model="gaussian-analytic")
        expected = GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(pm)
        assert result.t_c == pytest.approx(expected, rel=2e-3)
        assert result.visibility == pytest.approx(visibility_coefficient(pump, pm), abs=1e-9)

    def test_flat_scan(self):
        delays = np.linspace(-1e-12, 1e-12, 51)
        with pytest.raises(NoDipError):
            extract_dip(DelayScan(delays=delays, rates=np.ones(51)))

    def test_truncated_scan(self):
        pump, pm = make_pump(3e12), make_pm(-1.4e-12, 0.84e-12)
        w = gaussian_dip_width(pm)
        delays = np.linspace(-0.5 * w, 0.5 * w, 31)
        scan = gaussian_scan(pump, pm, delays)
        with pytest.raises(CoverageError):
            extract_dip(scan)

    def test_dip_narrower_than_minimum_steps_refused(self):
        # (n - 1) / (2 spans) steps per FWHM: 5 at 51 points, 3 at 31
        pump, pm = make_pump(3e12), make_pm(-1.4e-12, 0.84e-12)
        closed = correlation_time_gaussian(pm)
        fine = gaussian_scan(pump, pm, default_delays(pm, n=51, spans=5.0))
        assert extract_dip(fine).t_c == pytest.approx(closed, rel=0.05)
        coarse = gaussian_scan(pump, pm, default_delays(pm, n=31, spans=5.0))
        with pytest.raises(CoverageError, match=r"spans 3\.\d+ delay steps \(< 4\).*"
                           r"--delay-points.*--delay-span"):
            extract_dip(coarse)

    def test_absurd_delays_rate_one_without_warning(self):
        # tau^2 overflows to inf, and exp(-inf) = 0 is the right limit
        pump, pm = make_pump(3e12), make_pm(-1.4e-12, 0.84e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = coincidence_rate_gaussian(pump, pm, np.array([-1e300, 1e160, 0.0]))
            far = coincidence_rate_gaussian(pump, pm, 1e200)
        assert rates[:2].tolist() == [1.0, 1.0] and far == 1.0
        assert rates[2] == pytest.approx(1.0 - visibility_coefficient(pump, pm), abs=1e-15)

    def test_sinc_refinement(self, ppktp_sinc):
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0, profile="sinc")
        delays = default_delays(src.pm, n=401)
        coarse = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=512))
        fine = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=2048))
        t_coarse = extract_dip(coincidence_scan(coarse, delays)).t_c
        t_fine = extract_dip(coincidence_scan(fine, delays)).t_c
        assert t_coarse == pytest.approx(t_fine, rel=0.01)

    def test_delay_scan_validation(self):
        with pytest.raises(DomainError):
            DelayScan(delays=np.array([0.0, -1e-13, 1e-13]), rates=np.ones(3))
        with pytest.raises(DomainError):
            DelayScan(delays=np.array([0.0, 0.0, 1e-13]), rates=np.ones(3))
        with pytest.raises(DomainError):
            DelayScan(delays=np.array([0.0, np.nan, 1e-13]), rates=np.ones(3))
        with pytest.raises(DomainError):
            DelayScan(delays=np.linspace(-1, 1, 11), rates=np.full(11, 1.2))
        with pytest.raises(DomainError, match="min=nan, max=nan"):
            DelayScan(delays=np.linspace(-1e-12, 1e-12, 5), rates=[1, np.nan, 0.2, 0.5, 1])

    def test_one_delay_accepted_empty_refused(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        delays = default_delays(ppktp.pm, n=5)
        assert coincidence_scan(state, delays[1:2]).rates.tolist() == [
            coincidence_scan(state, delays).rates[1]
        ]
        with pytest.raises(DomainError, match="delays must not be empty"):
            DelayScan(delays=np.array([]), rates=np.array([]))

    @pytest.mark.parametrize("n,spans", [(2, 4.0), (201, 4.0), (801, 4.0), (1000, 0.4), (5, 0.0)])
    def test_default_delays_owned_linspace(self, ppktp, n, spans):
        end = spans * GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(ppktp.pm)
        delays = default_delays(ppktp.pm, n=n, spans=spans)
        assert delays.tobytes() == np.linspace(-end, end, n).tobytes()
        assert delays.flags.owndata and not delays.flags.writeable

    def test_default_delays_refuse_an_infinite_end(self, ppktp):
        with pytest.raises(DomainError, match="overflows to inf"):
            default_delays(ppktp.pm, spans=1e308)

    def test_fresh_rates_adopted(self, ppktp, monkeypatch):
        # a caller's writeable delays are copied; default_delays' read-only
        # axis and the freshly computed rates are kept
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=32))
        delays = default_delays(ppktp.pm)
        adopted = record_adoptions(monkeypatch, hom)
        gaussian_scan(ppktp.pump, ppktp.pm, np.array(delays))
        coincidence_scan(state, np.array(delays))
        gaussian_scan(ppktp.pump, ppktp.pm, delays)
        coincidence_scan(state, delays)
        assert adopted == [False, True, False, True, True, True, True, True]

    def test_gaussian_scan_memory(self, ppktp):
        # two temporaries of the rate formula, 8 bytes a row each; the axis
        # and the rates are adopted
        delays = default_delays(ppktp.pm, n=10**6)
        tracemalloc.start()
        try:
            gaussian_scan(ppktp.pump, ppktp.pm, delays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16.5 * delays.size


class TestPumpIndependence:
    def test_dip_width_invariant_under_pump(self, ppktp):
        widths_nm = np.geomspace(0.45, 4.5, 5)
        betas = [0.0, 1e-26, -1e-26]
        values = []
        for width in widths_nm:
            for beta in betas:
                src = preset_with_pump(ppktp, pump_fwhm_nm=float(width), beta=beta)
                scan = gaussian_scan(src.pump, src.pm, default_delays(src.pm))
                values.append(extract_dip(scan, model="gaussian-analytic").t_c)
        values = np.asarray(values)
        assert (values.max() - values.min()) / values.min() < 1e-3


class TestTableOne:
    def test_sinc_decorrelated_dip(self, ppktp_sinc):
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=2.0, profile="sinc")
        state = build_jsa(src.pump, src.pm)
        result = extract_dip(coincidence_scan(state, default_delays(src.pm)))
        assert result.t_c == pytest.approx(1.16e-12, rel=0.05)

    def test_sinc_ordering_across_pump_widths(self, ppktp_sinc):
        expected = {0.7: 1.10e-12, 2.0: 1.16e-12, 4.5: 1.21e-12}
        measured = []
        for width, reference in expected.items():
            src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=width, profile="sinc")
            state = build_jsa(src.pump, src.pm)
            t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
            assert t_c == pytest.approx(reference, rel=0.10)
            measured.append(t_c)
        assert measured[0] < measured[1] < measured[2]


class TestConvolutionRule:
    def test_decorrelated_state_matches_marginal_convolution(self):
        # at the zero-cross-coefficient point the dip width equals the
        # quadrature sum of the marginal transform-limited durations
        sigma, gamma, tau_s = 3e12, 0.193, -1.2e-12
        tau_i = -4.0 / (gamma * sigma**2 * tau_s)
        pump, pm = make_pump(sigma), make_pm(tau_s, tau_i, gamma)
        state = build_jsa(pump, pm)
        t_c = extract_dip(coincidence_scan(state, default_delays(pm))).t_c

        lam = 2 * math.pi * 299792458.0 / OMEGA0
        signal, idler = marginals(state)
        conv = math.hypot(
            transform_limited_duration(
                lam, _omega_to_lambda(lam, intensity_fwhm(state.grid.nu_s, signal))
            ),
            transform_limited_duration(
                lam, _omega_to_lambda(lam, intensity_fwhm(state.grid.nu_i, idler))
            ),
        )
        assert abs(t_c - conv) / conv < 0.10

    def test_correlated_state_departs_from_convolution(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=4.5)
        state = build_jsa(src.pump, src.pm)
        t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
        lam = 2 * math.pi * 299792458.0 / OMEGA0
        signal, idler = marginals(state)
        conv = math.hypot(
            transform_limited_duration(
                lam, _omega_to_lambda(lam, intensity_fwhm(state.grid.nu_s, signal))
            ),
            transform_limited_duration(
                lam, _omega_to_lambda(lam, intensity_fwhm(state.grid.nu_i, idler))
            ),
        )
        assert abs(t_c - conv) / conv > 0.10


def _omega_to_lambda(center_wavelength, fwhm_omega):
    return fwhm_omega * center_wavelength**2 / (2 * math.pi * 299792458.0)

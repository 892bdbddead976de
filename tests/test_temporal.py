"""Joint temporal amplitude: transform correctness and timing widths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import (
    CoverageError,
    DomainError,
    GridError,
    FrequencyGrid,
    JointSpectralAmplitude,
    build_jsa,
    coincidence_scan,
    correlation_classification,
    default_delays,
    diagonal_widths,
    extract_dip,
    jta_from_jsa,
    preset_with_pump,
    timing_gain,
)
from biphoton import temporal
from biphoton.jsa import MEMORY_BUDGET_BYTES, auto_grid
from biphoton.temporal import JointTemporalAmplitude, _diagonal_bins, jta_bytes
from helpers import random_source, record_adoptions


def reference_jta(state, oversample, axes=(1, 0)):
    """The transform as fftshift(fft2(ifftshift(padded), axes)), with its Parseval mismatch.

    ``axes=(1, 0)`` transforms the signal axis first, as :func:`jta_from_jsa`
    does; the default ``fft2`` order transforms the idler axis first.
    """
    n = state.grid.n_s
    dnu = state.grid.d_nu_s
    big_n = oversample * n
    padded = np.zeros((big_n, big_n), dtype=complex)
    start = (big_n - n) // 2
    padded[start : start + n, start : start + n] = state.amplitude
    out = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(padded), axes=axes))
    out *= dnu * dnu / (2.0 * math.pi)
    dt = 2.0 * math.pi / (big_n * dnu)
    power_nu = float(np.sum(np.abs(state.amplitude) ** 2)) * dnu * dnu
    power_t = float(np.sum(np.abs(out) ** 2)) * dt * dt
    return out, abs(power_nu - power_t) / power_nu


def reference_projections(amplitude):
    """Difference and sum bins of |A|^2 by bincount over meshgrid indices."""
    power = np.abs(amplitude) ** 2
    n = amplitude.shape[0]
    idx = np.arange(n)
    j_idx, k_idx = np.meshgrid(idx, idx, indexing="ij")
    minus = np.bincount((j_idx - k_idx + n - 1).ravel(), weights=power.ravel(), minlength=2 * n - 1)
    plus = np.bincount((j_idx + k_idx).ravel(), weights=power.ravel(), minlength=2 * n - 1)
    return minus, plus


def sheared_projections(amplitude):
    """The bins as column sums of |A|^2 rows shifted right by j in an (n, 2n) buffer."""
    n = amplitude.shape[0]
    buf = np.zeros((n, 2 * n))
    left = buf[:, :n]
    sheared = np.lib.stride_tricks.as_strided(
        buf, shape=(n, 2 * n - 1), strides=((2 * n - 1) * buf.itemsize, buf.itemsize),
        writeable=False,
    )
    np.square(np.abs(amplitude, out=left), out=left)
    plus = sheared.sum(axis=0)
    np.square(np.abs(amplitude[:, ::-1], out=left), out=left)
    minus = sheared.sum(axis=0)
    return minus, plus


class TestTransform:
    def test_parseval(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        jta = jta_from_jsa(state)
        dnu = state.grid.d_nu_s
        power_nu = np.sum(np.abs(state.amplitude) ** 2) * dnu * dnu
        power_t = np.sum(np.abs(jta.amplitude) ** 2) * jta.dt * jta.dt
        assert abs(power_nu - power_t) / power_nu < 1e-9
        assert jta.provenance["transform"]["parseval_mismatch"] < 1e-9

    def test_separable_gaussian_reciprocal_width(self):
        # exp(-(nu/s)^2) maps to a temporal amplitude with 1/e half-width 2/s
        s = 2.5e12
        grid = FrequencyGrid.square_symmetric(10 * s, 512)
        amp = np.exp(-((grid.nu_s[:, None] / s) ** 2) - (grid.nu_i[None, :] / s) ** 2)
        state = JointSpectralAmplitude(grid, amp, {"kind": "test"})
        jta = jta_from_jsa(state)
        mid = jta.times.size // 2
        profile = np.abs(jta.amplitude[:, mid])
        target = profile.max() / math.e
        above = np.where(profile >= target)[0]
        half_width = 0.5 * (jta.times[above[-1]] - jta.times[above[0]])
        assert half_width == pytest.approx(2.0 / s, rel=0.01)

    def test_sign_convention_rotates_anticorrelated_to_time_correlated(self, ppktp):
        narrow = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        state = build_jsa(narrow.pump, narrow.pm)
        rho_freq, label = correlation_classification(state)
        assert label == "anticorrelated"
        jta = jta_from_jsa(state, oversample=2)
        power = np.abs(jta.amplitude) ** 2
        t = jta.times
        weights = power / power.sum()
        mean_s = np.sum(weights * t[:, None])
        mean_i = np.sum(weights * t[None, :])
        cov = np.sum(weights * (t[:, None] - mean_s) * (t[None, :] - mean_i))
        var_s = np.sum(weights * (t[:, None] - mean_s) ** 2)
        var_i = np.sum(weights * (t[None, :] - mean_i) ** 2)
        rho_time = cov / math.sqrt(var_s * var_i)
        assert rho_freq < -0.5 and rho_time > 0.3

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(8, 128),
        oversample=st.integers(1, 4),
    )
    @example(seed=1, profile="sinc", n=101, oversample=3)
    @example(seed=2, profile="gaussian", n=128, oversample=4)
    @example(seed=6, profile="gaussian", n=8, oversample=1)
    @example(seed=7, profile="sinc", n=9, oversample=1)
    def test_matches_fft2_reference(self, seed, profile, n, oversample):
        # the examples put the fftshift wrap on an odd N, with no padding
        # (oversample 1) and on the smallest grid
        pump, pm = random_source(np.random.default_rng(seed), profile)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        expected, mismatch = reference_jta(state, oversample)
        jta = jta_from_jsa(state, oversample)
        assert jta.amplitude.tobytes() == expected.tobytes()
        assert jta.provenance["transform"] == {"oversample": oversample, "parseval_mismatch": mismatch}
        assert mismatch < 1e-9
        # the idler-first fft2 order differs by rounding only
        idler_first, _ = reference_jta(state, oversample, axes=(-2, -1))
        peak = np.max(np.abs(expected))
        np.testing.assert_allclose(jta.amplitude, idler_first, rtol=0, atol=1e-14 * peak)
        for got, want in zip(_diagonal_bins(jta.intensity), reference_projections(expected)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("seed,profile,n,oversample", [
        (3, "sinc", 97, 4), (4, "gaussian", 128, 3), (5, "sinc", 64, 1),
    ])
    def test_bins_match_sheared_sum_bits(self, seed, profile, n, oversample):
        pump, pm = random_source(np.random.default_rng(seed), profile)
        jta = jta_from_jsa(build_jsa(pump, pm, auto_grid(pump, pm, n=n)), oversample)
        want = sheared_projections(jta.amplitude)
        got = _diagonal_bins(jta.intensity)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_caller_array_is_copied(self):
        times = np.linspace(-1e-12, 1e-12, 8)
        amp = np.ones((8, 8), dtype=complex)
        view = amp[:]
        view.flags.writeable = False
        for given_amp in (amp, view):
            jta = JointTemporalAmplitude(times=times, amplitude=given_amp, provenance={})
            amp[0, 0] = 5.0
            assert jta.amplitude[0, 0] == 1.0 and not jta.amplitude.flags.writeable
            amp[0, 0] = 1.0

    def test_allocation_peak(self, ppktp):
        # the n x N transformed lines (0.25x at 4x oversampling) are freed
        # before the float intensity (0.5x) is made; a full-size temporary
        # besides the result would add 1x nbytes.  The state's own intensity
        # is made first, so only the transform's allocations are traced.
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=128))
        state.intensity
        tracemalloc.start()
        try:
            jta = jta_from_jsa(state, oversample=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * jta.amplitude.nbytes

    def test_intensity_filled_by_parseval_check(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        jta = jta_from_jsa(state, oversample=2)
        assert "intensity" in vars(jta)
        assert jta.intensity is jta.intensity and not jta.intensity.flags.writeable
        assert jta.intensity.tobytes() == (np.abs(jta.amplitude) ** 2).tobytes()

    def test_diagonal_widths_allocate_no_grid(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=128))
        jta = jta_from_jsa(state, oversample=4)
        tracemalloc.start()
        try:
            diagonal_widths(jta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * jta.amplitude.nbytes

    @pytest.mark.parametrize("oversample", [2.7, True, 0, -1, "2"])
    def test_non_integer_oversample_rejected(self, ppktp, oversample):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        with pytest.raises(DomainError, match="oversample must be an integer >= 1"):
            jta_from_jsa(state, oversample)

    def test_numpy_integer_oversample_accepted(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        jta = jta_from_jsa(state, np.int64(3))
        assert jta.times.size == 48
        assert jta.provenance["transform"]["oversample"] == 3
        assert type(jta.provenance["transform"]["oversample"]) is int

    def test_fresh_arrays_adopted(self, ppktp, monkeypatch):
        # the transform hands over its times axis and amplitude read-only,
        # so the JTA keeps them instead of copying
        adopted = record_adoptions(monkeypatch, temporal)
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        jta_from_jsa(state, 2)
        assert adopted == [True, True]

    def test_non_square_grid_rejected(self):
        grid = FrequencyGrid(32, 32, -1e13, 1e13, -0.6e13, 1e13)
        amp = np.ones((32, 32))
        state = JointSpectralAmplitude(grid, amp, {})
        with pytest.raises(GridError):
            jta_from_jsa(state)


class TestMemoryBudget:
    def test_estimate(self):
        assert jta_bytes(1024, 4) == 2 * 16 * 4096**2
        # the traced benchmark sweep transforms n=1024 at 4x; n=2048 is refused
        assert jta_bytes(1024, 4) <= MEMORY_BUDGET_BYTES < jta_bytes(2048, 4)

    def test_oversized_transform_refused_before_allocating(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        with pytest.raises(DomainError, match="memory budget"):
            jta_from_jsa(state, oversample=1000)


class TestDiagonalWidths:
    def test_difference_width_equals_dip_width(self, ppktp, rng):
        # both characterize the arrival-time difference spread
        for width_nm in (0.7, 2.0, 4.5):
            src = preset_with_pump(ppktp, pump_fwhm_nm=width_nm)
            state = build_jsa(src.pump, src.pm)
            dt_minus, _ = diagonal_widths(jta_from_jsa(state))
            t_c = extract_dip(coincidence_scan(state, default_delays(src.pm))).t_c
            assert dt_minus == pytest.approx(t_c, rel=0.02)

    def test_anticorrelated_resolves_differences(self, ppktp):
        narrow = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        jta = jta_from_jsa(build_jsa(narrow.pump, narrow.pm))
        dt_minus, dt_plus = diagonal_widths(jta)
        assert dt_minus < dt_plus

    def test_correlated_resolves_sums(self, ppktp):
        wide = preset_with_pump(ppktp, pump_fwhm_nm=4.5)
        jta = jta_from_jsa(build_jsa(wide.pump, wide.pm))
        dt_minus, dt_plus = diagonal_widths(jta)
        assert dt_plus < dt_minus

    def test_chirp_moves_sum_axis_only(self, ppktp):
        widths = {}
        for beta in (0.0, 5e-27, 1e-26):
            src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, beta=beta)
            state = build_jsa(src.pump, src.pm)
            widths[beta] = diagonal_widths(jta_from_jsa(state))
        minus = [w[0] for w in widths.values()]
        plus = [w[1] for w in widths.values()]
        assert max(minus) - min(minus) <= 1e-9 * min(minus)
        assert plus[0] <= plus[1] <= plus[2]

    def test_truncated_projection(self):
        # difference-time distribution centered beyond the window edge rises
        # monotonically to the boundary, leaving its half maximum unbracketed
        times = np.linspace(-1e-12, 1e-12, 64)
        amp = np.exp(-(((times[:, None] - times[None, :] - 3e-12) / 5e-13) ** 2))
        jta = JointTemporalAmplitude(times=times, amplitude=amp, provenance={})
        with pytest.raises(CoverageError):
            diagonal_widths(jta)


class TestTimingGain:
    def test_anticorrelated_gains_on_pump(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        state = build_jsa(src.pump, src.pm)
        report = timing_gain(jta_from_jsa(state), src.pump)
        assert round(report.pump_duration * 1e12, 2) == 1.24
        assert report.gain_minus > 1.0

    def test_decorrelated_loses_on_pump(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0)
        state = build_jsa(src.pump, src.pm)
        report = timing_gain(jta_from_jsa(state), src.pump)
        assert round(report.pump_duration * 1e12, 2) == 0.43
        assert report.gain_minus < 1.0

    def test_chirp_corrected_pump_duration(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, beta=1e-26)
        state = build_jsa(src.pump, src.pm)
        report = timing_gain(jta_from_jsa(state), src.pump)
        factor = math.sqrt(1.0 + (src.pump.beta * src.pump.sigma_p**2) ** 2)
        base = preset_with_pump(ppktp, pump_fwhm_nm=2.0, beta=0.0)
        base_report = timing_gain(jta_from_jsa(build_jsa(base.pump, base.pm)), base.pump)
        assert report.pump_duration == pytest.approx(base_report.pump_duration * factor, rel=1e-9)

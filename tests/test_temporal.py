"""Joint temporal amplitude: transform correctness and timing widths.

The timing widths come from lag sums of the JSA; the oracle here bins the
N x N |JTA|^2 of the transform, as the package did before.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton import (
    CoverageError,
    DomainError,
    GridError,
    FrequencyGrid,
    JointSpectralAmplitude,
    SpectralFilter,
    apply_spectral_filter,
    build_jsa,
    coincidence_scan,
    correlation_classification,
    correlation_time_gaussian,
    default_delays,
    diagonal_widths,
    extract_dip,
    gaussian_jsa_params,
    intensity_fwhm,
    JointTemporalAmplitude,
    jta_from_jsa,
    preset_with_pump,
    timing_gain,
)
from biphoton import temporal
from biphoton.errors import MemoryBudgetError
from biphoton.jsa import MEMORY_BUDGET_BYTES, auto_grid
from biphoton.temporal import _PARSEVAL_TOL, jta_bytes
from helpers import random_source


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


def diagonal_bins(power):
    """Bin sums of ``power`` over j - k + n - 1 and over j + k, ascending in j.

    Row j lands in bins j .. j + n - 1: as it is for the j + k bins, and
    reversed for the j - k bins.  Adding the rows in ascending order gives
    each bin the same sum, in the same order, as a column sum of the rows
    shifted right by j.
    """
    n = power.shape[0]
    minus = np.zeros(2 * n - 1)
    plus = np.zeros(2 * n - 1)
    for j, row in enumerate(power):
        plus[j : j + n] += row
        minus[j : j + n] += row[::-1]
    return minus, plus


def binned_widths(jta):
    """The oracle: FWHMs of the binned projections of the transform's |JTA|^2.

    Returns the two widths, the two bin vectors and the bins' shares of the
    mass beyond the N-point time window, which the torus folds back into it.
    """
    big_n = jta.times.size
    bins = diagonal_bins(np.abs(jta.amplitude) ** 2)
    axis = (np.arange(2 * big_n - 1) - (big_n - 1)) * jta.dt
    # bins N - 1 - N // 2 .. 2N - 2 - N // 2 lie on the window (the sum-time
    # bins are labelled one dt high for an even N, which moves no width)
    outside = np.ones(2 * big_n - 1, dtype=bool)
    outside[big_n - 1 - big_n // 2 : 2 * big_n - 1 - big_n // 2] = False
    widths = [intensity_fwhm(axis, b) for b in bins]
    shares = [float(b[outside].sum() / b.sum()) for b in bins]
    return widths, bins, shares


def crossing_step(curve):
    """The smaller rise over one sample of the two intervals that bracket half maximum."""
    peak = int(np.argmax(curve))
    half = 0.5 * curve[peak]
    i = peak
    while curve[i] > half:
        i -= 1
    j = peak
    while curve[j] > half:
        j += 1
    return min(curve[i + 1] - curve[i], curve[j - 1] - curve[j])


GAUSSIAN_FWHM = 2.0 * math.sqrt(2.0 * math.log(2.0))


def gaussian_timing_widths(pump, pm):
    """Closed-form dt_minus, dt_plus of a Gaussian-profile source.

    For f = exp(-nu^T C nu) the JTA is exp(-t^T C^-1 t / 4), so |JTA|^2 is a
    Gaussian with covariance S = (Re C^-1)^-1, and t_s -+ t_i have the
    variances S_ss + S_ii -+ 2 S_si.
    """
    p = gaussian_jsa_params(pump, pm)
    cov = np.linalg.inv(np.linalg.inv(np.array([[p.c_ss, p.c_si], [p.c_si, p.c_ii]])).real)
    spread = cov[0, 0] + cov[1, 1]
    return (GAUSSIAN_FWHM * math.sqrt(spread - 2.0 * cov[0, 1]),
            GAUSSIAN_FWHM * math.sqrt(spread + 2.0 * cov[0, 1]))


def sampled_gaussian_width_bound(width, dt, window):
    """Bound on the FWHM read from a centred Gaussian of FWHM ``width`` sampled
    every ``dt`` from its peak and folded onto a torus of length ``window``.

    Linear interpolation puts each half-maximum crossing within
    dt^2 max|y''| / 8 / min|y'| of the true one, extrema over the two samples
    around it.  Folding adds at most e = 4 y(window / 2) anywhere in the window
    (two nearest images, and the rest), which lifts half maximum by e / 2 and
    the curve by e: at most 1.5 e / min|y'| more.  Both crossings move alike.
    """
    sigma = width / GAUSSIAN_FWHM
    x = np.linspace(0.5 * width - dt, 0.5 * width + dt, 2001)
    y = np.exp(-0.5 * (x / sigma) ** 2)
    slope = np.min(x / sigma**2 * y)
    curvature = np.max(np.abs(x**2 / sigma**4 - 1.0 / sigma**2) * y)
    folded = 4.0 * math.exp(-0.5 * (0.5 * window / sigma) ** 2)
    return 2.0 * (dt * dt * curvature / 8.0 + 1.5 * folded) / slope


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
        assert mismatch < 1e-9
        # the idler-first fft2 order differs by rounding only
        idler_first, _ = reference_jta(state, oversample, axes=(-2, -1))
        peak = np.max(np.abs(expected))
        np.testing.assert_allclose(jta.amplitude, idler_first, rtol=0, atol=1e-14 * peak)
        for got, want in zip(diagonal_bins(np.abs(jta.amplitude) ** 2),
                             reference_projections(expected)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())

    @pytest.mark.parametrize("seed,profile,n,oversample", [
        (3, "sinc", 97, 4), (4, "gaussian", 128, 3), (5, "sinc", 64, 1),
    ])
    def test_bins_match_sheared_sum_bits(self, seed, profile, n, oversample):
        pump, pm = random_source(np.random.default_rng(seed), profile)
        jta = jta_from_jsa(build_jsa(pump, pm, auto_grid(pump, pm, n=n)), oversample)
        want = sheared_projections(jta.amplitude)
        got = diagonal_bins(np.abs(jta.amplitude) ** 2)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_allocation_peak(self, ppktp):
        # the first read of the amplitude runs the transform, which the
        # memory budget charges jta_bytes: the padded array and its shifted
        # copy peak at 2x the amplitude's bytes, and the Parseval check makes
        # no N x N array.  The state's own intensity is made first, so only
        # the transform's allocations are traced.
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=128))
        state.intensity
        jta = jta_from_jsa(state, oversample=4)
        tracemalloc.start()
        try:
            jta.amplitude
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= jta_bytes(128, 4) + 2**20

    def test_diagonal_widths_allocate_no_grid(self, ppktp):
        # the widths do not read the amplitude: the lag sums hold O(n) lines
        # at a time
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=512))
        tracemalloc.start()
        try:
            jta = jta_from_jsa(state, oversample=4)
            timing_gain(jta, ppktp.pump)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * jta_bytes(512, 4)
        assert "amplitude" not in vars(jta)

    def test_transform_parseval_checked(self, ppktp, monkeypatch):
        # a broken transform fails on its first read, as broken lag sums do
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=32))
        real = np.fft.fftshift
        monkeypatch.setattr(np.fft, "fftshift", lambda a: real(a) * (1.0 + 10 * _PARSEVAL_TOL))
        jta = jta_from_jsa(state)
        with pytest.raises(RuntimeError, match="Parseval violated by the transform"):
            jta.amplitude
        assert "amplitude" not in vars(jta)

    @pytest.mark.parametrize("oversample", [2.7, True, 0, -1, "2"])
    def test_non_integer_oversample_rejected(self, ppktp, oversample):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        with pytest.raises(DomainError, match="oversample must be an integer >= 1"):
            jta_from_jsa(state, oversample)

    def test_numpy_integer_oversample_accepted(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        jta = jta_from_jsa(state, np.int64(3))
        assert jta.times.size == 48
        assert jta.oversample == 3 and type(jta.oversample) is int

    def test_fresh_arrays_adopted(self, ppktp):
        # after the first read of the amplitude, the JTA keeps the transform's
        # fresh times axis and amplitude read-only, instead of copying them
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        jta = jta_from_jsa(state, 2)
        kept = (jta.times, jta.amplitude)
        for array, again in zip(kept, (jta.times, jta.amplitude)):
            assert array is again and array.base is None and not array.flags.writeable

    def test_class_is_the_constructor(self, ppktp):
        # jta_from_jsa is the class under its older name, 4x oversampled by default
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=16))
        assert jta_from_jsa is JointTemporalAmplitude
        assert JointTemporalAmplitude(state).oversample == 4

    def test_non_square_grid_rejected(self):
        grid = FrequencyGrid(32, 32, -1e13, 1e13, -0.6e13, 1e13)
        amp = np.ones((32, 32))
        state = JointSpectralAmplitude(grid, amp, {})
        with pytest.raises(GridError):
            jta_from_jsa(state)


class TestMemoryBudget:
    def test_estimate(self):
        assert jta_bytes(1024, 4) == 2 * 16 * 4096**2
        # the traced benchmark sweep transforms n=1024 at 4x; reading the
        # transform at n=2048 is refused
        assert jta_bytes(1024, 4) <= MEMORY_BUDGET_BYTES < jta_bytes(2048, 4)

    def test_oversized_transform_refused_before_allocating(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        jta = jta_from_jsa(state, oversample=1000)
        with pytest.raises(MemoryBudgetError, match="joint temporal amplitude would need"):
            jta.amplitude
        assert "amplitude" not in vars(jta)

    def test_oversized_time_lines_refused_on_making(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        with pytest.raises(MemoryBudgetError, match="time lines would need"):
            jta_from_jsa(state, oversample=10**9)

    def test_timing_admitted_at_n2048(self, ppktp):
        # the lag sums hold O(n) lines; only a read of the N x N transform is refused
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=2048))
        jta = jta_from_jsa(state)
        report = timing_gain(jta, ppktp.pump)
        assert report.dt_minus > 0 and report.dt_plus > 0
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="above the 1024 MiB memory budget"):
                jta.amplitude
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def cell_lines(f, anti, big_n):
    """The rows the lag sums transform, placed cell by cell: f[j, k] at position
    j of row (j + k) mod N (``anti``) or (j - k + n - 1) mod N, zero-padded to 2n."""
    n = f.shape[0]
    j, k = np.indices(f.shape)
    rows = (j + k if anti else j - k + n - 1) % big_n
    lines = np.zeros((min(big_n, 2 * n - 1), 2 * n), dtype=complex)
    np.add.at(lines, (rows, j), f)
    return lines


class TestLinePower:
    @pytest.mark.parametrize("oversample", [1, 4], ids=["torus-wraps", "oversample-4"])
    @pytest.mark.parametrize("n", [2, 3, 33, 100, 257])
    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    def test_in_place_blocks_match_unblocked(self, profile, n, oversample):
        # min(N, 2n - 1) lines, 64 a block in one reused buffer, each block
        # moved to position 0 and transformed at its own length: n = 33, 100
        # and 257 end on a ragged block, n = 100 and 257 are not powers of
        # two, and at oversample 1 line s + n wraps onto row s.  The reference
        # transforms all rows, cell j at position j, at length 2n at once.
        pump, pm = random_source(np.random.default_rng([n, oversample]), profile)
        f = build_jsa(pump, pm, auto_grid(pump, pm, n=n)).amplitude
        for anti in (True, False):
            got = temporal._lag_sums(f, anti, oversample * n)
            lines = cell_lines(f, anti, oversample * n)
            want = np.fft.ifft((np.abs(np.fft.fft(lines, axis=1)) ** 2).sum(axis=0))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_blocks_transform_at_their_longest_lines_length(self, monkeypatch):
        # n = 512 at oversample 4: 1023 lines in 16 blocks.  Each block is
        # transformed at the power of two that holds its longest line's lags,
        # 704,384 points a direction, where padding every line to 2n took
        # 1023 x 1024
        n = 512
        pump, pm = random_source(np.random.default_rng(n), "sinc")
        f = build_jsa(pump, pm, auto_grid(pump, pm, n=n)).amplitude
        shapes = []
        real_fft = np.fft.fft

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        for anti in (True, False):
            shapes.clear()
            temporal._lag_sums(f, anti, 4 * n)
            assert sum(rows for rows, _ in shapes) == 2 * n - 1
            assert sum(rows * size for rows, size in shapes) <= 0.70 * (2 * n - 1) * 2 * n


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
        # a linear phase centres the difference time on the edge of the time
        # window, t_s - t_i = T/2 with T = 2 pi / dnu: the torus splits the
        # projection between the window's two ends, leaving its half maximum
        # unbracketed
        s = 2.5e12
        grid = FrequencyGrid.square_symmetric(10 * s, 64)
        nu_s, nu_i = grid.nu_s[:, None], grid.nu_i[None, :]
        shift = 0.5 * (2.0 * math.pi / grid.d_nu_s)
        amp = np.exp(-((nu_s / s) ** 2) - (nu_i / s) ** 2 - 0.5j * (nu_s - nu_i) * shift)
        state = JointSpectralAmplitude(grid, amp, {"kind": "test"})
        for oversample in (1, 2, 4):
            with pytest.raises(CoverageError, match="truncated by the time window"):
                diagonal_widths(jta_from_jsa(state, oversample))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(2, 64),
        oversample=st.integers(1, 4),
        delays=st.tuples(st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)),
    )
    @example(seed=3, profile="sinc", n=7, oversample=1, delays=(0.0, 0.0))
    @example(seed=4, profile="gaussian", n=9, oversample=2, delays=(0.1, -0.05))
    def test_lag_sums_equal_folded_bins(self, seed, profile, n, oversample, delays):
        # the identity itself: the oracle's 2N - 1 bins, folded onto the
        # N-point torus, are the lag-sum projections up to rounding.  The
        # sources are symmetric in time, so a linear phase moves each photon
        # by a share of the window T = 2 pi / dnu to make them asymmetric.
        pump, pm = random_source(np.random.default_rng(seed), profile)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        window = 2.0 * math.pi / state.grid.d_nu_s
        phase = np.exp(-1j * window * (delays[0] * state.grid.nu_s[:, None]
                                       + delays[1] * state.grid.nu_i[None, :]))
        state = JointSpectralAmplitude(state.grid, state.amplitude * phase, state.provenance)
        jta = jta_from_jsa(state, oversample)
        big_n = jta.times.size
        # bin b of the difference is d = b - (N - 1), of the sum d = b - 2 (N // 2)
        b = np.arange(2 * big_n - 1)
        shifts = (big_n - 1, 2 * (big_n // 2))
        for got, bins, shift in zip(temporal._projections(state, oversample),
                                    diagonal_bins(np.abs(jta.amplitude) ** 2), shifts):
            folded = np.zeros(big_n)
            np.add.at(folded, (b - shift + big_n // 2) % big_n, bins)
            np.testing.assert_allclose(got, folded, rtol=0, atol=1e-12 * folded.max())

    @pytest.mark.parametrize("seed", [1901, 1902, 1903, 1904])
    def test_match_binned_oracle_at_n512(self, ppktp, seed):
        # sources as the benchmark draws them (1-4 nm pump, +-5000 fs^2,
        # 6-12 mm) on the default grid: the JTA window holds the pair, so
        # folding moves no width beyond rounding
        rng = np.random.default_rng(seed)
        src = preset_with_pump(
            ppktp,
            pump_fwhm_nm=rng.uniform(1.0, 4.0),
            beta=rng.uniform(-5000.0, 5000.0) * 1e-30,
            profile=("gaussian", "sinc")[seed % 2],
            length_scale=rng.uniform(6e-3, 12e-3) / ppktp.pm.length_L,
        )
        jta = jta_from_jsa(build_jsa(src.pump, src.pm), oversample=4)
        got = diagonal_widths(jta)
        want, _, _ = binned_widths(jta)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * w

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        chirped=st.booleans(),
        filtered=st.booleans(),
        n=st.integers(8, 256),
        oversample=st.integers(1, 4),
    )
    @example(seed=1, profile="sinc", chirped=True, filtered=False, n=36, oversample=1)
    @example(seed=133, profile="sinc", chirped=True, filtered=False, n=22, oversample=1)
    # the oracle cannot read this unresolved draw's widths: skipped
    @example(seed=253, profile="sinc", chirped=False, filtered=False, n=8, oversample=1)
    def test_match_binned_oracle_within_folded_mass(
        self, seed, profile, chirped, filtered, n, oversample
    ):
        # the lag sums fold the mass beyond +-T/2 back into the window.  That
        # lifts the projection by at most M, the oracle's mass out there, which
        # lifts half maximum by at most M/2: each crossing moves by at most
        # 1.5 M over the bracketing rise per dt.  Rounding adds 1e-10.
        rng = np.random.default_rng(seed)
        pump, pm = random_source(rng, profile)
        if not chirped:
            pump = replace(pump, beta=0.0)
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
        if filtered:
            width = float(rng.uniform(0.3, 2.0)) * 1e13
            state = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, width, "both"))
        jta = jta_from_jsa(state, oversample)
        try:
            want, bins, shares = binned_widths(jta)
        except CoverageError:
            assume(False)  # no oracle width to hold the lag sums to
        try:
            got = diagonal_widths(jta)
        except CoverageError:
            # refused only where the window does not hold the pair
            assert max(shares) > 0.01
            return
        for g, w, b, share in zip(got, want, bins, shares):
            bound = 3.0 * share * b.sum() * jta.dt / crossing_step(b) + 1e-10 * w
            assert abs(g - w) <= bound

    def test_zero_lag_checked(self, ppktp, monkeypatch):
        # a broken lag sum fails as a broken transform does
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=32))
        real = temporal._lag_sums
        monkeypatch.setattr(
            temporal, "_lag_sums", lambda *args: real(*args) * (1.0 + 10 * _PARSEVAL_TOL)
        )
        with pytest.raises(RuntimeError, match="Parseval violated by the lag sums"):
            diagonal_widths(jta_from_jsa(state))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(64, 256), oversample=st.integers(2, 4))
    def test_gaussian_closed_form(self, seed, n, oversample):
        # chirped Gaussian sources against dt_-+ from (Re C^-1)^-1.  The grid
        # spans 6 marginal FWHMs, so the amplitude it cuts off is below
        # rounding; the bound is the sampled read's, from dt and the window.
        pump, pm = random_source(np.random.default_rng(seed), "gaussian")
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=n, span_fwhms=6.0))
        jta = jta_from_jsa(state, oversample)
        window = jta.times.size * jta.dt
        want = gaussian_timing_widths(pump, pm)
        # a pair wider than about half the window folds onto its own half maximum
        assume(max(want) < 0.4 * window)
        got = diagonal_widths(jta)
        for g, w in zip(got, want):
            assert abs(g - w) <= sampled_gaussian_width_bound(w, jta.dt, window) + 1e-12 * w
        # the difference width is the dip width: a crystal property only
        t_c = correlation_time_gaussian(pm)
        assert want[0] == pytest.approx(t_c, rel=1e-12)
        assert abs(got[0] - t_c) <= sampled_gaussian_width_bound(t_c, jta.dt, window) + 1e-12 * t_c


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

"""JSA construction, closed-form agreement, marginals, filters, Schmidt, labels."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biphoton import jsa as jsa_module
from biphoton.dataio import MeasuredScan
from biphoton.errors import (
    CoverageError,
    DomainError,
    EmptyStateError,
    GridError,
    UnsupportedProfileError,
)
from biphoton.hom import DelayScan, coincidence_scan
from biphoton.jsa import (
    BLOCK_CELLS,
    BUILD_JSA_PEAK_FACTOR,
    FrequencyGrid,
    GaussianJsaParams,
    JointSpectralAmplitude,
    MEMORY_BUDGET_BYTES,
    MIN_SAMPLES_PER_FWHM,
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    check_memory_budget,
    correlation_classification,
    gaussian_jsa_params,
    gaussian_marginal_fwhms,
    gaussian_schmidt_number,
    intensity_fwhm,
    jsa_bytes,
    jsi,
    marginals,
    row_blocks,
    schmidt_decompose,
)
from biphoton.presets import preset_with_pump
from biphoton.spectral import pump_envelope, sinc
from biphoton.temporal import JointTemporalAmplitude, timing_gain

from helpers import FILTER_KEYS, PM_KEYS, PUMP_KEYS, make_pm, make_pump, random_source
from helpers import record_fields, whole_grid_amplitude, whole_grid_rho
from helpers import evaluate_gaussian_jsa, gaussian_norm, grid_norm, sinc_norm


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


def reference_warnings(amp, grid, pump):
    """The resolution warnings, from a freshly computed |amp|^2 and the pump's chirp."""
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
            # one decimal, but a count below 8 never reads 8.0
            shown = f"{width / d:.1f}"
            warnings.append(
                f"{label} marginal has {'7.9' if shown == '8.0' else shown} samples per FWHM "
                f"(< {MIN_SAMPLES_PER_FWHM:g}); results may be inaccurate"
            )
    turn = 2.0 * abs(pump.beta) * pump.sigma_p * max(grid.d_nu_s, grid.d_nu_i)
    if turn > math.pi:
        warnings.append(
            f"pump chirp phase turns {turn:.3g} rad per grid step at sigma_p (> pi); "
            "results may be inaccurate"
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
        assert state.provenance["warnings"] == reference_warnings(want, grid, pump)
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
        norm_squared = np.sum(state.intensity) * state.grid.d_nu_s * state.grid.d_nu_i
        normalized = JointSpectralAmplitude(
            state.grid, state.amplitude / np.sqrt(norm_squared), state.provenance
        )
        for other in (filtered, normalized):
            assert other.intensity is not state.intensity
            assert other.intensity.tobytes() == (np.abs(other.amplitude) ** 2).tobytes()

    @pytest.mark.parametrize("hand_over,given", [
        (lambda a: JointSpectralAmplitude(FrequencyGrid.square_symmetric(1e13, 8), a).amplitude,
         np.ones((8, 8), dtype=complex)),
        (lambda a: DelayScan(delays=a, rates=np.full(12, 0.5)).delays,
         np.linspace(-1e-12, 1e-12, 12)),
        (lambda a: MeasuredScan(delays=a, counts=np.ones(12)).delays,
         np.linspace(-1e-12, 1e-12, 12)),
    ], ids=["jsa-amplitude", "delay-scan", "measured-scan"])
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


@pytest.mark.parametrize("bounds", [
    (-math.inf, math.inf, -1.0, 1.0), (-1.0, 1.0, -1.0, math.inf), (math.nan, 1.0, -1.0, 1.0),
], ids=["both", "one", "nan"])
def test_grid_bounds_must_be_finite(bounds):
    with pytest.raises(GridError):
        FrequencyGrid(4, 4, *bounds)


def test_underflowing_intensity_refused(ppktp):
    # far out on a finite grid the sinc amplitude is about 1e-200: not zero,
    # but its square is
    source = preset_with_pump(ppktp, profile="sinc")
    grid = auto_grid(source.pump, source.pm, n=16, span_fwhms=1e200)
    with pytest.raises(EmptyStateError, match="intensity underflows to zero"):
        build_jsa(source.pump, source.pm, grid)


NORMALIZING_KERNELS = {
    "timing_gain": lambda state, pump: timing_gain(JointTemporalAmplitude(state, 4), pump),
    "coincidence_scan": lambda state, pump: coincidence_scan(state, np.linspace(-1e-12, 1e-12, 11)),
    "jta_amplitude": lambda state, pump: JointTemporalAmplitude(state, 2).amplitude,
    "schmidt_decompose": lambda state, pump: schmidt_decompose(state),
    "marginals": lambda state, pump: marginals(state),
}


@pytest.mark.parametrize("kernel", sorted(NORMALIZING_KERNELS))
@pytest.mark.parametrize("scale, error, text", [
    (1e-170, EmptyStateError, "joint spectral intensity underflows to zero"),
    (1e160, DomainError, "amplitude is not normalizable: its intensity sums to inf"),
    (5e153, DomainError, "amplitude is not normalizable: its intensity sums to inf"),
], ids=["sum-underflows", "sum-overflows", "finite-squares-sum-overflows"])
def test_unnormalizable_state_refused_first(ppktp, monkeypatch, kernel, scale, error, text):
    # every cell of this Gaussian is finite and nonzero, but its intensity
    # sums to 0 at 1e-170 and to inf at 1e160, where the peak's square
    # overflows, and at 5e153, where every square is finite.  Each kernel
    # divides by that sum: it refuses it by name before dividing or taking
    # an SVD, and warns of nothing.
    def svd(*args, **kwargs):
        raise AssertionError("SVD taken before the refusal")

    monkeypatch.setattr(np.linalg, "svd", svd)
    grid = FrequencyGrid.square_symmetric(1e13, 64)
    nu_s, nu_i = grid.nu_s[:, None], grid.nu_i[None, :]
    state = JointSpectralAmplitude(grid, scale * np.exp(-((nu_s / 3e12) ** 2) - (nu_i / 3e12) ** 2), {})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=text):
            NORMALIZING_KERNELS[kernel](state, ppktp.pump)


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

    @pytest.mark.parametrize("chirp_fs2,n,turn", [
        (1e7, 128, "17.9"), (1e7, 256, "8.92"), (1e7, 512, "4.45"),
        (1e6, 128, None), (1e6, 256, None), (1e6, 512, None), (1e6, 1024, None),
        (1e7, 1024, None),
    ])
    def test_under_sampled_chirp_warning(self, ppktp, chirp_fs2, n, turn):
        # K of the default source at 1e7 fs^2, of either sign, reads 16.8 /
        # 32.2 / 69.9 / 78.0 at n = 128 / 256 / 512 / 1024: the chirp phase
        # turns 2 |beta| sigma_p dnu per step, past pi below n = 1024
        chirped = preset_with_pump(ppktp, beta=-chirp_fs2 * 1e-30)
        state = build_jsa(chirped.pump, chirped.pm, auto_grid(chirped.pump, chirped.pm, n=n))
        want = [] if turn is None else [
            f"pump chirp phase turns {turn} rad per grid step at sigma_p (> pi); "
            "results may be inaccurate"
        ]
        assert state.provenance["warnings"] == want


class TestParsevalClosedForm:
    """The grid's norm against the closed-form integral of |f|^2 on random sources."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gaussian_grid_sum_is_the_integral(self, seed):
        # a resolved Gaussian's grid sum is spectrally accurate: 3.8e-15 at worst on 40 seeds
        pump, pm = random_source(np.random.default_rng(seed), "gaussian")
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=256, span_fwhms=4.0))
        assume(not state.provenance["warnings"])
        assert grid_norm(state) == pytest.approx(gaussian_norm(pump, pm), rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sinc_shortfall_halves_as_the_window_doubles(self, seed):
        # the window cuts the sinc's 1/x^2 tails: 0.6-3.4% of the norm at
        # (256, 4); doubling n and the span keeps the step and halves it
        pump, pm = random_source(np.random.default_rng(seed), "sinc")
        norm = sinc_norm(pump, pm)
        shortfall = []
        for n, span in ((256, 4.0), (512, 8.0)):
            state = build_jsa(pump, pm, auto_grid(pump, pm, n=n, span_fwhms=span))
            assume(not state.provenance["warnings"])
            shortfall.append(1.0 - grid_norm(state) / norm)
        assert 0.0 < shortfall[0] < 0.05
        assert 0.4 < shortfall[1] / shortfall[0] < 0.6


class TestProvenanceRecords:
    """Every field of the pump, phasematching and filter records is in the provenance."""

    def test_build_records_every_spec_field(self):
        pump, pm = random_source(np.random.default_rng(3), "sinc")
        state = build_jsa(pump, pm, auto_grid(pump, pm, n=32))
        assert state.provenance == {
            "kind": "model",
            "pump": record_fields(pump, PUMP_KEYS),
            "pm": record_fields(pm, PM_KEYS),
            "normalized": False,
            "warnings": state.provenance["warnings"],
        }

    def test_each_filter_appends_its_fields(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        span = state.grid.nu_s_max - state.grid.nu_s_min
        first = SpectralFilter("rect", 0.05 * span, 0.6 * span, "signal")
        second = SpectralFilter("gaussian", -0.05 * span, 0.5 * span, "both")
        once = apply_spectral_filter(state, first)
        twice = apply_spectral_filter(once, second)
        assert "filters" not in state.provenance
        assert once.provenance["filters"] == [record_fields(first, FILTER_KEYS)]
        assert twice.provenance["filters"] == [
            record_fields(first, FILTER_KEYS), record_fields(second, FILTER_KEYS)
        ]
        assert {k: v for k, v in twice.provenance.items() if k != "filters"} == state.provenance


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

    def test_narrow_filter_warns_in_its_own_list(self, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=6))
        built = list(state.provenance["warnings"])
        assert built
        step = state.grid.d_nu_s
        narrow = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, 2 * step, "both"))
        assert narrow.provenance["warnings"] == [
            *built, "filter has 2.0 samples per FWHM (< 8); results may be inaccurate"
        ]
        assert state.provenance["warnings"] == built
        wide = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, 8 * step, "signal"))
        assert wide.provenance["warnings"] == built

    @pytest.mark.parametrize("samples,shown", [
        (7.26, "7.3"), (7.94, "7.9"), (7.95, "7.9"), (7.97, "7.9"), (7.999, "7.9"), (0.5, "0.5"),
    ])
    def test_samples_below_eight_never_read_eight(self, ppktp, samples, shown):
        # one decimal as %.1f rounds it, except 7.95-7.99, which %.1f would
        # print as the minimum itself
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=64))
        width = samples * state.grid.d_nu_s
        narrow = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, width, "both"))
        assert narrow.provenance["warnings"][-1] == (
            f"filter has {shown} samples per FWHM (< 8); results may be inaccurate"
        )

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

    def test_overflowing_determinant_refused(self, ppktp):
        # 1/sigma_p^2 ~ 3e275: c_ss c_ii overflows and the determinant reads inf - inf
        narrow = preset_with_pump(ppktp, pump_fwhm_nm=1e-150)
        with pytest.raises(DomainError, match=r"sigma_p = 1.92044e-138 rad/s: the determinant"):
            gaussian_marginal_fwhms(narrow.pump, narrow.pm)
        with pytest.raises(DomainError, match="the determinant of its quadratic form overflows"):
            gaussian_schmidt_number(gaussian_jsa_params(narrow.pump, narrow.pm))

    def test_analytic_requires_real(self):
        with pytest.raises(DomainError):
            gaussian_schmidt_number(
                GaussianJsaParams(c_ss=1e-25 - 1e-27j, c_ii=1e-25 - 1e-27j, c_si=0.0 - 1e-27j)
            )


def full_svd_schmidt(state):
    """Coefficients and K from the full SVD, as ``schmidt_decompose`` took them on every grid."""
    s = np.linalg.svd(state.amplitude, compute_uv=False)
    lam = s / math.sqrt(float(np.sum(s * s)))
    return lam, 1.0 / float(np.sum(lam**4))


def sum_rounding(n, rank):
    """Rounding of a certified tail: ``||f||^2`` is a pairwise sum of n^2 squares
    and the captured mass a sum of ``rank`` squared singular values, each
    within about log2(n^2) and ``rank`` eps of the mass."""
    return (math.log2(n * n) + rank) * np.finfo(float).eps


def record_sketch_ranks(monkeypatch):
    """The rank of every sketch ``schmidt_decompose`` takes, in order."""
    ranks = []
    real = jsa_module._extend_range

    def spy(f, q, rank, rng):
        ranks.append(rank)
        return real(f, q, rank, rng)

    monkeypatch.setattr(jsa_module, "_extend_range", spy)
    return ranks


def seeded_state(seed, profile, n, chirped, filtered):
    """A random source on an n-point grid, chirped or not, optionally filtered."""
    rng = np.random.default_rng(seed)
    pump, pm = random_source(rng, profile)
    if not chirped:
        pump = make_pump(pump.sigma_p, 0.0)
    state = build_jsa(pump, pm, auto_grid(pump, pm, n=n))
    if filtered:
        width = rng.uniform(0.3, 2.0) * state.grid.nu_s_max
        target = str(rng.choice(["signal", "idler", "both"]))
        state = apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, width, target))
    return state


class TestSketchedSchmidt:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(("gaussian", "sinc")),
        n=st.integers(129, 384),
        chirped=st.booleans(),
        filtered=st.booleans(),
    )
    @example(seed=3, profile="sinc", n=129, chirped=False, filtered=False)
    @example(seed=4, profile="gaussian", n=256, chirped=True, filtered=True)
    def test_matches_full_svd(self, seed, profile, n, chirped, filtered):
        state = seeded_state(seed, profile, n, chirped, filtered)
        got = schmidt_decompose(state)
        lam, k = full_svd_schmidt(state)
        assert abs(got.schmidt_number - k) <= 1e-12 * k
        assert np.max(np.abs(got.coefficients[:16] - lam[:16])) <= 1e-13
        rank = got.coefficients.size
        assert rank in (32, 64, n)
        # the certified tail is never below the mass the coefficients leave out
        assert got.tail_mass >= float(np.sum(lam[rank:] ** 2)) - sum_rounding(n, rank)
        if rank == n:
            assert got.tail_mass == 0.0  # the full SVD left nothing out
        else:
            assert got.tail_mass <= 1e-12
        assert float(np.sum(got.coefficients**2)) == pytest.approx(1.0, abs=1e-10)
        again = schmidt_decompose(state)
        assert again.coefficients.tobytes() == got.coefficients.tobytes()
        assert (again.schmidt_number, again.entropy_bits, again.tail_mass) == (
            got.schmidt_number, got.entropy_bits, got.tail_mass
        )

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    @pytest.mark.parametrize("chirped", [False, True])
    def test_certificate_at_every_rank(self, profile, chirped):
        # each extension of one basis, below the rank schmidt_decompose
        # starts at: it stays orthonormal and keeps the basis it extends, its
        # values never exceed the full SVD's, and the mass they miss bounds
        # the true tail beyond them
        for seed in range(3):
            state = seeded_state(seed, profile, 200, chirped, filtered=seed == 2)
            f = state.amplitude if chirped else state.amplitude.real.copy()
            total = float(np.sum(state.intensity))
            lam, _ = full_svd_schmidt(state)
            rng, q = np.random.default_rng(seed), None
            for rank in (1, 2, 4, 8, 16):
                last, q = q, jsa_module._extend_range(f, q, rank, rng)
                assert q.shape == (200, rank)
                assert np.max(np.abs(q.conj().T @ q - np.eye(rank))) <= 1e-14
                if last is not None:
                    assert np.max(np.abs(last - q @ (q.conj().T @ last))) <= 1e-14
                s = np.linalg.svd(q.conj().T @ f, compute_uv=False)
                sigma = s / math.sqrt(total)
                slack = sum_rounding(200, rank)
                assert np.all(sigma <= lam[:rank] + slack)
                certified = 1.0 - float(np.sum(sigma * sigma))
                assert certified >= float(np.sum(lam[rank:] ** 2)) - slack

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    @pytest.mark.parametrize("chirped", [False, True])
    @pytest.mark.parametrize("n", [16, 77, 128])
    def test_small_grids_keep_full_svd_bits(self, monkeypatch, profile, chirped, n):
        state = seeded_state(n, profile, n, chirped, filtered=False)
        ranks = record_sketch_ranks(monkeypatch)
        got = schmidt_decompose(state)
        lam, k = full_svd_schmidt(state)
        assert ranks == []
        assert got.coefficients.tobytes() == lam.tobytes()
        assert (got.schmidt_number, got.tail_mass) == (k, 0.0)

    @pytest.mark.parametrize("pump_fwhm_nm,length_scale,n", [(0.5, 2.0, 320), (0.7, 1.0, 512)])
    def test_many_mode_source_doubles_the_rank(
        self, monkeypatch, ppktp_sinc, pump_fwhm_nm, length_scale, n
    ):
        # a narrow pump: rank 32 leaves more than 1e-12 (the second case is
        # the paper's 0.7 nm point at simulate's default grid).  The rank-64
        # basis adds what the rank-32 one left, so its tail falls to rounding
        # (the full SVD's tail beyond 64 is below 1e-16 for both)
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=pump_fwhm_nm, length_scale=length_scale)
        state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=n))
        ranks = record_sketch_ranks(monkeypatch)
        got = schmidt_decompose(state)
        lam, k = full_svd_schmidt(state)
        assert ranks == [32, 64]
        assert got.coefficients.size == 64 and 0.0 <= got.tail_mass <= 1e-14
        assert abs(got.schmidt_number - k) <= 1e-12 * k
        assert np.max(np.abs(got.coefficients[:16] - lam[:16])) <= 1e-13
        assert got.tail_mass >= float(np.sum(lam[64:] ** 2)) - sum_rounding(n, 64)

    @pytest.mark.parametrize("length_scale,n,sketched", [(2.0, 256, [32]), (1.0, 512, [32, 64])])
    def test_wider_spectrum_falls_back(self, monkeypatch, ppktp_sinc, length_scale, n, sketched):
        # once 4 r reaches n the full SVD runs, bit for bit the old result
        src = preset_with_pump(ppktp_sinc, pump_fwhm_nm=0.5, length_scale=length_scale)
        state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=n))
        ranks = record_sketch_ranks(monkeypatch)
        got = schmidt_decompose(state)
        lam, k = full_svd_schmidt(state)
        assert ranks == sketched
        assert got.coefficients.tobytes() == lam.tobytes()
        assert (got.schmidt_number, got.tail_mass) == (k, 0.0)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(129, 256),
        span=st.sampled_from((1.5, 2.0, 3.0, 4.0)),
    )
    @example(seed=2, n=256, span=1.5)
    @example(seed=23, n=184, span=4.0)
    def test_unchirped_gaussian_spectrum_is_geometric(self, seed, n, span):
        # Law, Walmsley and Eberly, PRL 84, 5304 (2000): lambda_n =
        # sqrt(1 - mu^2) mu^n with mu^2 = (K - 1)/(K + 1)
        pump, pm = random_source(np.random.default_rng(seed))
        pump = make_pump(pump.sigma_p, 0.0)
        grid = auto_grid(pump, pm, n=n, span_fwhms=span)
        state = build_jsa(pump, pm, grid)
        assume(not state.provenance["warnings"])
        params = gaussian_jsa_params(pump, pm)
        k = gaussian_schmidt_number(params)
        mu = math.sqrt((k - 1.0) / (k + 1.0))
        want = math.sqrt(1.0 - mu * mu) * mu ** np.arange(16)
        # the bound from the grid: |f|^2 = exp(-2 nu^T C nu) has marginal
        # variances c_ii / (4 det) and c_ss / (4 det), so the mass outside
        # the box is at most the two marginal tails; cutting it off moves each
        # normalized singular value by at most sqrt(edge / (1 - edge)) + edge
        # (Weyl).  The sum over the grid aliases by at most
        # 4 exp(-pi^2 / (lambda_max h^2)) (Poisson summation), and the sketch
        # agrees with the full SVD to 1e-13.
        a, b, c = params.c_ss.real, params.c_ii.real, params.c_si.real
        det = a * b - c * c
        x = grid.nu_s_max
        edge = math.erfc(x / math.sqrt(b / (2.0 * det))) + math.erfc(x / math.sqrt(a / (2.0 * det)))
        lam_max = float(np.linalg.eigvalsh(2.0 * np.array([[a, c], [c, b]])).max())
        alias = 4.0 * math.exp(-math.pi**2 / (lam_max * grid.d_nu_s**2))
        bound = math.sqrt(edge / (1.0 - edge)) + edge + alias + 1e-13
        got = schmidt_decompose(state)
        assert np.max(np.abs(got.coefficients[:16] - want)) <= bound


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
        with pytest.raises(DomainError, match="zero variance"):
            correlation_classification(state)
        # both variances about 3e-255: their product underflows to zero
        state = JointSpectralAmplitude(grid, np.full((8, 8), 1e-140), {})
        with pytest.raises(DomainError, match="variance product that underflows"):
            correlation_classification(state)


class TestRowBlocks:
    """The row-blocked build and moments against their whole-grid forms, bit for bit."""

    @pytest.mark.parametrize("n_rows,n_cols", [
        (2, 2), (3, 3), (33, 33), (100, 100), (257, 257), (81, 100), (512, 512), (9, 5000),
    ])
    def test_blocks_cover_rows_in_order(self, n_rows, n_cols):
        blocks = row_blocks(n_rows, n_cols)
        assert blocks[0].start == 0 and blocks[-1].stop == n_rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [b.stop - b.start for b in blocks]
        # groups of 4 rows, and no row left alone at the end
        assert all(size % 4 == 0 for size in sizes[:-1])
        assert len(sizes) == 1 or sizes[-1] > 1
        assert max(sizes) <= max(BLOCK_CELLS // n_cols, 4) + 1

    @pytest.mark.parametrize("n", [2, 3, 33, 100, 257])
    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    def test_square_grids(self, profile, n):
        # n = 100 and 257 end on a ragged block of 20 and 5 rows
        for seed in range(3):
            pump, pm = random_source(np.random.default_rng([seed, n]), profile)
            grid = auto_grid(pump, pm, n=n)
            state = build_jsa(pump, pm, grid)
            assert state.amplitude.tobytes() == whole_grid_amplitude(pump, pm, grid).tobytes()
            self.assert_same_intensity(state)
            self.assert_same_rho(state)

    @pytest.mark.parametrize("profile", ["gaussian", "sinc"])
    @pytest.mark.parametrize("axes", [
        # two different steps: the pump on nu_s + nu_i, a block at a time
        ((257, -3e13, 3e13), (100, -2e13, 2.5e13)),
        # one step: 81 rows of 100 cells, whose last row joins the block before it
        ((81, -2e13, 2e13), (100, -2e13, 2.95e13)),
    ], ids=["two-steps", "lone-last-row"])
    def test_rectangular_grids(self, profile, axes):
        pump, pm = random_source(np.random.default_rng(7), profile)
        (n_s, s0, s1), (n_i, i0, i1) = axes
        grid = FrequencyGrid(n_s, n_i, s0, s1, i0, i1)
        state = build_jsa(pump, pm, grid)
        assert state.amplitude.tobytes() == whole_grid_amplitude(pump, pm, grid).tobytes()
        self.assert_same_intensity(state)
        self.assert_same_rho(state)

    @staticmethod
    def assert_same_intensity(state):
        # squared a block at a time as the amplitude is filled
        assert not state.intensity.flags.writeable
        assert state.intensity.tobytes() == (np.abs(state.amplitude) ** 2).tobytes()

    @staticmethod
    def assert_same_rho(state):
        want = whole_grid_rho(state)
        if want is None:
            with pytest.raises(DomainError, match="zero variance"):
                correlation_classification(state)
        else:
            rho, _ = correlation_classification(state)
            assert np.float64(rho).tobytes() == np.float64(want).tobytes()

    def test_moments_hold_one_block(self, ppktp):
        # the masked JSI once took 8 n^2 bytes next to the state: 0.57 x
        # jsa_bytes under tracemalloc; one block and O(n) lines take 0.052 x
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=512))
        state.intensity  # computed once, outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            correlation_classification(state)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * jsa_bytes(512, 512)

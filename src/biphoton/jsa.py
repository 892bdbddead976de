"""Joint spectral amplitude: gridded construction and analysis.

The amplitude is sampled on a rectangular grid of signal/idler detunings
(rad/s) about the phasematched carriers.  Built amplitudes follow the
convention that linear phases of the phasematching function are dropped:
they only shift the pair in time, and dropping them keeps the grid
amplitude equal to the closed-form Gaussian expression and makes a
symmetric-walk-off state exchange symmetric at zero delay.

The pump factor depends on nu_s + nu_i only.  On a grid with equal steps on
both axes that sum is constant along each anti-diagonal, so the pump is
evaluated on the n_s + n_i - 1 distinct sums and read as a Hankel matrix;
a grid with two different steps evaluates it on the full grid.

A state's intensity |f|^2 is computed once, on first use, and kept
read-only next to the amplitude as ``intensity``; the resolution warnings,
marginals, correlation label, norm, HOM normalization, JSI export and the
JTA's Parseval check all read that one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CoverageError,
    DomainError,
    EmptyStateError,
    GridError,
    MemoryBudgetError,
    UnsupportedProfileError,
)
from .spectral import (
    AMPLITUDE_FWHM_FACTOR,
    GAUSSIAN_FWHM_FACTOR,
    PhasematchSpec,
    PumpSpec,
    phasematching_profile,
    pump_envelope,
)

# Moments for the correlation label are taken over the dominant lobe only,
# JSI >= 5% of peak: the sinc profile's 1/x^2 side lobes otherwise make the
# second moments grow with grid span (first side lobe sits at 4.7%).
CLASSIFICATION_SUPPORT_FLOOR = 0.05

# |rho| at or below this is reported as "decorrelated".
CLASSIFICATION_DEAD_ZONE = 0.1

MIN_SAMPLES_PER_FWHM = 8.0

# Largest set of arrays, in bytes, that one grid or transform may allocate.
# Sizes are estimated before allocating, so an oversized request fails with a
# DomainError instead of exhausting memory.  The budget admits the JTA of an
# n=1024 grid at 4x oversampling (charged about 0.54 GB, see jta_bytes) and
# rejects that of n=2048 (about 2.1 GB).
MEMORY_BUDGET_BYTES = 1 << 30

# build_jsa's peak allocation in units of the amplitude it returns (jsa_bytes),
# kept as an upper bound: the phasematching profile's float temporaries and
# then the intensity used for the resolution warnings live next to it.
# tracemalloc measures about 1.6x for either profile at n = 512 and about 2.5x
# at n = 128, where a fixed quarter MiB of ufunc casting buffers counts; a grid
# with two different steps, whose pump is evaluated on the full grid, measures
# 2.0-2.2x.  The budget charges 4.5x, so it admits square grids up to n = 3861
# (n = 1024 is charged 72 MiB).
BUILD_JSA_PEAK_FACTOR = 4.5

_COMPLEX_BYTES = np.dtype(complex).itemsize


def check_memory_budget(what: str, nbytes: int) -> None:
    """Raise MemoryBudgetError if ``what`` would need more than the memory budget."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"{what} would need about {nbytes / 2**20:.0f} MiB, above the "
            f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MiB memory budget"
        )


def _squared_modulus(amplitude: np.ndarray) -> np.ndarray:
    """Read-only |amplitude|^2, the bits of ``np.abs(amplitude) ** 2``."""
    power = np.abs(amplitude)
    np.square(power, out=power)
    power.flags.writeable = False
    return power


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself if it owns its data and is read-only, else a read-only copy."""
    if array.flags.writeable or array.base is not None:
        array = array.copy()
        array.flags.writeable = False
    return array


def jsa_bytes(n_s: int, n_i: int) -> int:
    """Bytes of the complex amplitude on an ``n_s`` x ``n_i`` grid."""
    return _COMPLEX_BYTES * n_s * n_i


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform rectangular detuning grid (rad/s)."""

    n_s: int
    n_i: int
    nu_s_min: float
    nu_s_max: float
    nu_i_min: float
    nu_i_max: float

    def __post_init__(self):
        if self.n_s < 2 or self.n_i < 2:
            raise GridError(f"need at least 2 samples per axis, got {self.n_s}x{self.n_i}")
        if not self.nu_s_max > self.nu_s_min or not self.nu_i_max > self.nu_i_min:
            raise GridError("grid bounds must satisfy max > min on both axes")

    @classmethod
    def square_symmetric(cls, nu_max: float, n: int) -> "FrequencyGrid":
        """Square grid spanning [-nu_max, nu_max] on both axes."""
        if not nu_max > 0:
            raise GridError(f"nu_max must be > 0, got {nu_max}")
        return cls(n, n, -nu_max, nu_max, -nu_max, nu_max)

    @property
    def nu_s(self) -> np.ndarray:
        return np.linspace(self.nu_s_min, self.nu_s_max, self.n_s)

    @property
    def nu_i(self) -> np.ndarray:
        return np.linspace(self.nu_i_min, self.nu_i_max, self.n_i)

    @property
    def d_nu_s(self) -> float:
        return (self.nu_s_max - self.nu_s_min) / (self.n_s - 1)

    @property
    def d_nu_i(self) -> float:
        return (self.nu_i_max - self.nu_i_min) / (self.n_i - 1)

    @property
    def is_square(self) -> bool:
        return (
            self.n_s == self.n_i
            and self.nu_s_min == self.nu_i_min
            and self.nu_s_max == self.nu_i_max
        )


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex pair amplitude f(nu_s, nu_i) sampled on a grid.

    ``provenance`` records how the amplitude was obtained (model parameters
    or a measurement source) plus any builder warnings; it travels with the
    object into exports.
    """

    grid: FrequencyGrid
    amplitude: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.shape != (self.grid.n_s, self.grid.n_i):
            raise GridError(
                f"amplitude shape {amp.shape} does not match grid "
                f"{(self.grid.n_s, self.grid.n_i)}"
            )
        if not np.all(np.isfinite(amp)):
            raise DomainError("amplitude contains non-finite entries")
        if not np.any(amp):
            raise EmptyStateError("amplitude is identically zero")
        object.__setattr__(self, "amplitude", _read_only(amp))

    @cached_property
    def intensity(self) -> np.ndarray:
        """Joint spectral intensity |f|^2, computed at most once, read-only."""
        return _squared_modulus(self.amplitude)

    @property
    def norm_squared(self) -> float:
        """L2 norm integral, sum |f|^2 dnu_s dnu_i."""
        return float(np.sum(self.intensity)) * self.grid.d_nu_s * self.grid.d_nu_i


@dataclass(frozen=True)
class GaussianJsaParams:
    """Coefficients of the closed-form Gaussian amplitude.

    ``f = exp[-(c_ss nu_s^2 + c_ii nu_i^2 + 2 c_si nu_s nu_i)]`` with complex
    coefficients in s^2; real parts of the diagonal coefficients must be
    positive for an integrable state.
    """

    c_ss: complex
    c_ii: complex
    c_si: complex

    def __post_init__(self):
        if not (self.c_ss.real > 0 and self.c_ii.real > 0):
            raise DomainError("diagonal coefficients need positive real part")


@dataclass(frozen=True)
class SpectralFilter:
    """Amplitude filter applied along one (or both) frequency axes.

    ``width`` is the transmission intensity FWHM for the gaussian shape and
    the full width for rect; ``center`` is a detuning (rad/s).
    """

    shape: str  # "rect" | "gaussian"
    center: float
    width: float
    target: str = "signal"  # "signal" | "idler" | "both"

    def __post_init__(self):
        if self.shape not in ("rect", "gaussian"):
            raise DomainError(f"filter shape must be rect|gaussian, got {self.shape!r}")
        if self.target not in ("signal", "idler", "both"):
            raise DomainError(f"filter target must be signal|idler|both, got {self.target!r}")
        if not self.width > 0:
            raise DomainError(f"filter width must be > 0, got {self.width}")

    def transmission(self, nu: np.ndarray) -> np.ndarray:
        """Amplitude transmission sampled on a detuning axis."""
        nu = np.asarray(nu, dtype=float)
        if self.shape == "rect":
            return (np.abs(nu - self.center) <= 0.5 * self.width).astype(float)
        sigma_f = self.width / AMPLITUDE_FWHM_FACTOR
        return np.exp(-(((nu - self.center) / sigma_f) ** 2))


def gaussian_jsa_params(pump: PumpSpec, pm: PhasematchSpec) -> GaussianJsaParams:
    """Closed-form quadratic coefficients for the gaussian-profile amplitude.

    Each coefficient is ``1/sigma_p^2 + (gamma/4) tau_a tau_b - i beta``.
    """
    if pm.profile != "gaussian":
        raise UnsupportedProfileError(
            "closed-form coefficients exist only for the gaussian profile"
        )
    inv_s2 = 1.0 / pump.sigma_p**2
    ib = 1j * pump.beta
    return GaussianJsaParams(
        c_ss=inv_s2 + 0.25 * pm.gamma * pm.tau_s**2 - ib,
        c_ii=inv_s2 + 0.25 * pm.gamma * pm.tau_i**2 - ib,
        c_si=inv_s2 + 0.25 * pm.gamma * pm.tau_s * pm.tau_i - ib,
    )


def evaluate_gaussian_jsa(params: GaussianJsaParams, grid: FrequencyGrid) -> np.ndarray:
    """Sample the closed-form Gaussian amplitude on a grid.

    The quadratic form is evaluated as a completed square,
    ``c_ss (nu_s + (c_si/c_ss) nu_i)^2 + (c_ii - c_si^2/c_ss) nu_i^2``,
    which avoids the catastrophic cancellation the expanded three-term sum
    suffers along the amplitude ridge.
    """
    ns = grid.nu_s[:, None]
    ni = grid.nu_i[None, :]
    shift = params.c_si / params.c_ss
    residual = params.c_ii - params.c_si * shift
    return np.exp(-(params.c_ss * (ns + shift * ni) ** 2 + residual * ni * ni))


def gaussian_marginal_fwhms(pump: PumpSpec, pm: PhasematchSpec) -> tuple[float, float]:
    """Analytic intensity-FWHM of signal/idler marginals for the gaussian profile (rad/s)."""
    p = gaussian_jsa_params(pump, pm)
    a_s, a_i, c = p.c_ss.real, p.c_ii.real, p.c_si.real
    det = a_s * a_i - c * c
    if not det > 0:
        raise DomainError("quadratic form is not positive definite")
    return (
        GAUSSIAN_FWHM_FACTOR * math.sqrt(a_i / (4.0 * det)),
        GAUSSIAN_FWHM_FACTOR * math.sqrt(a_s / (4.0 * det)),
    )


# Span multiplier applied to the gaussian marginal estimate when sizing grids
# for the sinc profile: its main lobe is wider and its tails carry weight.
SINC_SPAN_FACTOR = 1.5


def auto_grid(
    pump: PumpSpec,
    pm: PhasematchSpec,
    n: int = 512,
    span_fwhms: float = 4.0,
) -> FrequencyGrid:
    """Square symmetric grid spanning ``span_fwhms`` marginal FWHMs per side.

    Marginal widths come from the closed-form gaussian coefficients; for the
    sinc profile the same estimate is inflated by :data:`SINC_SPAN_FACTOR`.
    """
    f_s, f_i = gaussian_marginal_fwhms(pump, replace(pm, profile="gaussian"))
    extent = max(f_s, f_i)
    if pm.profile == "sinc":
        extent *= SINC_SPAN_FACTOR
    return FrequencyGrid.square_symmetric(span_fwhms * extent, n)


def build_jsa(
    pump: PumpSpec,
    pm: PhasematchSpec,
    grid: FrequencyGrid | None = None,
) -> JointSpectralAmplitude:
    """Sample ``pump_envelope * phasematching`` on a grid, unnormalized.

    With equal steps on both axes the pump is evaluated once per distinct
    sum, on the n_s + n_i - 1 values ``nu_s_min + nu_i_min + m dnu``, and
    spread over the grid as a Hankel view; with two different steps it is
    evaluated on the full grid of ``nu_s + nu_i``.

    The linear phasematching phase is dropped (module docstring); for the
    gaussian profile the result equals :func:`evaluate_gaussian_jsa` of
    :func:`gaussian_jsa_params` pointwise, with peak modulus 1.  Kernels that
    need a norm divide by it themselves.  A grid coarser than ~8 samples per
    marginal FWHM gets a warning recorded in the provenance.
    """
    if grid is None:
        grid = auto_grid(pump, pm)
    check_memory_budget(
        "building the joint spectral amplitude",
        int(BUILD_JSA_PEAK_FACTOR * jsa_bytes(grid.n_s, grid.n_i)),
    )
    ns = grid.nu_s[:, None]
    ni = grid.nu_i[None, :]
    if grid.d_nu_s == grid.d_nu_i:
        # nu_s + nu_i is constant along each anti-diagonal
        sums = grid.nu_s_min + grid.nu_i_min + np.arange(grid.n_s + grid.n_i - 1) * grid.d_nu_s
        pump_grid = sliding_window_view(pump_envelope(pump, sums), grid.n_i)
        amp = np.multiply(pump_grid, phasematching_profile(pm, ns, ni))
    else:
        amp = pump_envelope(pump, ns + ni)
        amp *= phasematching_profile(pm, ns, ni)
    amp.flags.writeable = False

    # filled below from the state's intensity, before the state is returned
    warnings: list[str] = []
    provenance = {
        "kind": "model",
        "pump": {"omega_p0": pump.omega_p0, "sigma_p": pump.sigma_p, "beta": pump.beta},
        "pm": {
            "length_L": pm.length_L,
            "tau_s": pm.tau_s,
            "tau_i": pm.tau_i,
            "gamma": pm.gamma,
            "profile": pm.profile,
            "omega_s0": pm.omega_s0,
            "omega_i0": pm.omega_i0,
        },
        # kept: it is hashed into the header of every written grid
        "normalized": False,
        "warnings": warnings,
    }
    out = JointSpectralAmplitude(grid, amp, provenance)
    for label, curve, d in (
        ("signal", out.intensity.sum(axis=1), grid.d_nu_s),
        ("idler", out.intensity.sum(axis=0), grid.d_nu_i),
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
    return out


def jsi(state: JointSpectralAmplitude) -> np.ndarray:
    """Joint spectral intensity |f|^2 (the state's read-only ``intensity``)."""
    return state.intensity


def marginals(state: JointSpectralAmplitude) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler marginal spectra (JSI row/column sums times spacing)."""
    intensity = state.intensity
    if not np.any(intensity):
        raise DomainError("cannot take marginals of an all-zero intensity")
    signal = intensity.sum(axis=1) * state.grid.d_nu_i
    idler = intensity.sum(axis=0) * state.grid.d_nu_s
    return signal, idler


def intensity_fwhm(axis: np.ndarray, values: np.ndarray) -> float:
    """FWHM of a sampled curve by linear interpolation around half maximum.

    The crossings adjacent to the global maximum are used, which keeps the
    readout stable for curves with secondary lobes.
    """
    x = np.asarray(axis, dtype=float)
    y = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError("axis and values must be 1-D arrays of equal length")
    if not np.any(y):
        raise DomainError("cannot measure the FWHM of an all-zero curve")
    if np.any(y < 0):
        y = np.clip(y, 0.0, None)
    peak = int(np.argmax(y))
    half = 0.5 * y[peak]

    i = peak
    while i > 0 and y[i] > half:
        i -= 1
    if y[i] > half:
        raise CoverageError("half maximum not reached on the left flank")
    left = np.interp(half, [y[i], y[i + 1]], [x[i], x[i + 1]])

    j = peak
    while j < y.size - 1 and y[j] > half:
        j += 1
    if y[j] > half:
        raise CoverageError("half maximum not reached on the right flank")
    right = np.interp(half, [y[j], y[j - 1]], [x[j], x[j - 1]])
    return float(right - left)


def apply_spectral_filter(
    state: JointSpectralAmplitude, filt: SpectralFilter
) -> JointSpectralAmplitude:
    """Multiply the amplitude by a filter transmission along the target axis."""
    amp = np.array(state.amplitude)
    if filt.target in ("signal", "both"):
        t = filt.transmission(state.grid.nu_s)
        amp *= t[:, None]
    if filt.target in ("idler", "both"):
        t = filt.transmission(state.grid.nu_i)
        amp *= t[None, :]
    if not np.any(amp):
        raise EmptyStateError("filter leaves no amplitude inside the grid")
    amp.flags.writeable = False
    prov = dict(state.provenance)
    prov.setdefault("filters", [])
    prov["filters"] = list(prov["filters"]) + [
        {
            "shape": filt.shape,
            "center": filt.center,
            "width": filt.width,
            "target": filt.target,
        }
    ]
    return JointSpectralAmplitude(state.grid, amp, prov)


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of a pair amplitude."""

    coefficients: np.ndarray  # descending, sum of squares = 1
    schmidt_number: float
    entropy_bits: float


def schmidt_decompose(state: JointSpectralAmplitude) -> SchmidtResult:
    """Schmidt coefficients via SVD of the discretized kernel.

    The amplitude is L2-normalized internally; coefficients satisfy
    ``sum(lambda_n^2) = 1``, the Schmidt number is ``1/sum(lambda_n^4)`` and
    the entropy is ``-sum(lambda_n^2 log2 lambda_n^2)``.
    """
    s = np.linalg.svd(state.amplitude, compute_uv=False)
    total = float(np.sum(s * s))
    if not total > 0 or not np.isfinite(total):
        raise DomainError("amplitude is not normalizable")
    lam = s / math.sqrt(total)
    k = 1.0 / float(np.sum(lam**4))
    nz = lam[lam > 1e-18] ** 2
    entropy = float(-np.sum(nz * np.log2(nz)))
    return SchmidtResult(coefficients=lam, schmidt_number=float(k), entropy_bits=entropy)


def gaussian_schmidt_number(params: GaussianJsaParams) -> float:
    """Analytic Schmidt number of a real Gaussian amplitude.

    For ``f = exp[-(a nu_s^2 + b nu_i^2 + 2 c nu_s nu_i)]`` with real
    coefficients, the reduced-state purity integral evaluates to
    ``sqrt(1 - c^2/(a b))`` so ``K = sqrt(a b / (a b - c^2))``.  Only valid
    for an unchirped state.
    """
    if any(abs(z.imag) > 1e-30 for z in (params.c_ss, params.c_ii, params.c_si)):
        raise DomainError("analytic Schmidt number requires real coefficients (no chirp)")
    a, b, c = params.c_ss.real, params.c_ii.real, params.c_si.real
    det = a * b - c * c
    if not det > 0:
        raise DomainError("quadratic form is not positive definite")
    return math.sqrt(a * b / det)


def correlation_classification(state: JointSpectralAmplitude) -> tuple[float, str]:
    """Pearson correlation of (nu_s, nu_i) under the JSI, with a label.

    Moments are restricted to the dominant lobe (JSI above
    :data:`CLASSIFICATION_SUPPORT_FLOOR` of its peak) so that phasematching
    side lobes do not dominate the second moments.  Labels:
    ``anticorrelated`` (rho < -0.1), ``decorrelated`` (|rho| <= 0.1),
    ``correlated`` (rho > 0.1).
    """
    weights = state.intensity
    peak = weights.max()
    if not peak > 0:
        raise DomainError("JSI carries no weight")
    weights = np.where(weights >= CLASSIFICATION_SUPPORT_FLOOR * peak, weights, 0.0)
    # the means and variances from the masked JSI's marginals, the covariance
    # from one matrix-vector product; the common 1/total cancels in rho
    signal = weights.sum(axis=1)
    idler = weights.sum(axis=0)
    total = float(signal.sum())
    ds = state.grid.nu_s - float(signal @ state.grid.nu_s) / total
    di = state.grid.nu_i - float(idler @ state.grid.nu_i) / total
    var_s = float(signal @ (ds * ds))
    var_i = float(idler @ (di * di))
    if var_s <= 0 or var_i <= 0:
        raise DomainError("JSI has zero variance along an axis")
    cov = float(ds @ (weights @ di))
    rho = cov / math.sqrt(var_s * var_i)
    if rho < -CLASSIFICATION_DEAD_ZONE:
        label = "anticorrelated"
    elif rho > CLASSIFICATION_DEAD_ZONE:
        label = "correlated"
    else:
        label = "decorrelated"
    return rho, label

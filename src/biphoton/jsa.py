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

A state's intensity |f|^2 is computed once, by :func:`build_jsa` with the
amplitude or else on first use, and kept read-only next to the amplitude
as ``intensity``; the resolution warnings, marginals, correlation label,
norm, HOM normalization, JSI export, the Schmidt spectrum's certificate and
the JTA's Parseval check all read that one array.

A built state's provenance holds its ``PumpSpec`` and ``PhasematchSpec``,
and a filtered one each ``SpectralFilter``, field by field from the
dataclass (``dataclasses.asdict``), so each record lists its fields once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CoverageError,
    Diagnostic,
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
    sigma_p_squared,
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
# DomainError instead of exhausting memory.  The budget admits the first read
# of the JTA's transform on an n=1024 grid at 4x oversampling (charged about
# 0.54 GB, see jta_bytes) and refuses it at n=2048 (about 2.1 GB), where the
# timing widths, which never read the transform, still run.
MEMORY_BUDGET_BYTES = 1 << 30

# build_jsa's peak allocation in units of the amplitude it returns (jsa_bytes),
# kept as an upper bound: the amplitude and the intensity used for the
# resolution warnings are filled one row block at a time, so one block's
# temporaries live next to them.  tracemalloc measures 1.59x for either
# profile at n = 512 (1.57x when the profile was made whole and the intensity
# squared after it) and 1.62x on a grid with two different steps (2.0-2.1x
# when its pump and profile were made whole), and 2.8x at n = 128, where a
# block is half the grid and a fixed quarter MiB of ufunc casting buffers
# counts.  The budget charges 4.5x, so it admits square grids up to n = 3861
# (n = 1024 is charged 72 MiB).
BUILD_JSA_PEAK_FACTOR = 4.5

# Cells per row block of the full-grid kernels (build_jsa, the correlation
# moments, the CSV writer): their temporaries are one block, not n x n.
BLOCK_CELLS = 8192

_COMPLEX_BYTES = np.dtype(complex).itemsize


def check_memory_budget(what: str, nbytes: int) -> None:
    """Raise MemoryBudgetError if ``what`` would need more than the memory budget."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"{what} would need about {nbytes / 2**20:.0f} MiB, above the "
            f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MiB memory budget"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself if it owns its data and is read-only, else a read-only copy."""
    if array.flags.writeable or array.base is not None:
        array = array.copy()
        array.flags.writeable = False
    return array


def _resolution_warning(code: str, what: str, samples: float) -> Diagnostic:
    """The warning for ``samples`` < 8 per FWHM: one decimal, but 7.95-7.99 read 7.9, not 8.0."""
    shown = min(round(samples, 1), MIN_SAMPLES_PER_FWHM - 0.1)
    return Diagnostic(code, f"{what} has {shown:.1f} samples per FWHM (< {MIN_SAMPLES_PER_FWHM:g})")


def jsa_bytes(n_s: int, n_i: int) -> int:
    """Bytes of the complex amplitude on an ``n_s`` x ``n_i`` grid."""
    return _COMPLEX_BYTES * n_s * n_i


def row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices of an ``n_rows`` x ``n_cols`` grid, about
    :data:`BLOCK_CELLS` cells each, in order.

    A block holds a multiple of 4 rows, and a last row left alone joins the
    block before it.  BLAS then takes each row of a blocked matrix-vector
    product in the same group of 4 rows, and with the same kernel, as in the
    whole grid's product, so the blocks give its bits (one BLAS thread: above
    about 600 x 600 cells a threaded product splits its rows by thread, and
    its bits then depend on the thread count).
    """
    step = max(4, BLOCK_CELLS // n_cols // 4 * 4)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n_rows])]


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
        bounds = (self.nu_s_min, self.nu_s_max, self.nu_i_min, self.nu_i_max)
        if not all(map(math.isfinite, bounds)):
            raise GridError(f"grid bounds must be finite, got {bounds}")

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
        """Joint spectral intensity |f|^2, computed at most once, read-only.

        It has the bits of ``np.abs(amplitude) ** 2``, squared in place.  A
        square that overflows is inf, without a warning: :func:`_squared_norm`
        refuses it by name before a kernel divides by it.
        """
        with np.errstate(over="ignore"):
            power = np.abs(self.amplitude)
            np.square(power, out=power)
        power.flags.writeable = False
        return power


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

    ``width`` is the FWHM of the amplitude transmission for the gaussian shape
    and the full width for rect; ``center`` is a detuning (rad/s).
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
        with np.errstate(over="ignore"):  # exp(-inf) = 0, as in pump_envelope
            return np.exp(-(((nu - self.center) / sigma_f) ** 2))


def gaussian_jsa_params(pump: PumpSpec, pm: PhasematchSpec) -> GaussianJsaParams:
    """Closed-form quadratic coefficients for the gaussian-profile amplitude.

    Each coefficient is ``1/sigma_p^2 + (gamma/4) tau_a tau_b - i beta``.
    """
    if pm.profile != "gaussian":
        raise UnsupportedProfileError(
            "closed-form coefficients exist only for the gaussian profile"
        )
    sigma_p2 = sigma_p_squared(pump)  # a Python float: no numpy warning on underflow
    if sigma_p2 == 0.0:
        raise DomainError(f"pump width sigma_p = {pump.sigma_p:g} rad/s: its square underflows")
    inv_s2 = 1.0 / sigma_p2
    ib = 1j * pump.beta
    return GaussianJsaParams(
        c_ss=inv_s2 + 0.25 * pm.gamma * pm.tau_s**2 - ib,
        c_ii=inv_s2 + 0.25 * pm.gamma * pm.tau_i**2 - ib,
        c_si=inv_s2 + 0.25 * pm.gamma * pm.tau_s * pm.tau_i - ib,
    )


def _determinant(params: GaussianJsaParams, what: str) -> float:
    """``c_ss c_ii - c_si^2`` of the real parts, refused if it is not a positive
    number: a product that overflows (inf - inf reads nan) names ``what``."""
    a, b, c = params.c_ss.real, params.c_ii.real, params.c_si.real
    det = a * b - c * c
    if not math.isfinite(det):
        raise DomainError(f"{what}: the determinant of its quadratic form overflows")
    if not det > 0:
        raise DomainError("quadratic form is not positive definite")
    return det


def gaussian_marginal_fwhms(pump: PumpSpec, pm: PhasematchSpec) -> tuple[float, float]:
    """Analytic intensity-FWHM of signal/idler marginals for the gaussian profile (rad/s)."""
    p = gaussian_jsa_params(pump, pm)
    a_s, a_i = p.c_ss.real, p.c_ii.real
    det = _determinant(p, f"pump width sigma_p = {pump.sigma_p:g} rad/s")
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
    evaluated on the grid of ``nu_s + nu_i``.  The intensity and then the
    amplitude are allocated once and filled one row block (:func:`row_blocks`)
    at a time: the pump's rows times the profile's, then that block's squared
    modulus.  The only other temporaries are one block's; each cell gets the
    bits of the whole-grid product, and the intensity those of
    :attr:`JointSpectralAmplitude.intensity`.

    The linear phasematching phase is dropped (module docstring); for the
    gaussian profile the result equals, pointwise, the closed form
    ``exp(-(c_ss nu_s^2 + 2 c_si nu_s nu_i + c_ii nu_i^2))`` with the
    coefficients of :func:`gaussian_jsa_params`: peak modulus 1.  Kernels
    that need a norm divide by it themselves.  The provenance records a
    :class:`~biphoton.errors.Diagnostic` for a marginal FWHM the grid does not
    resolve (``unresolved-marginal``) or samples fewer than 8 times
    (``coarse-marginal``), and for a step that turns the pump's chirp phase by
    more than pi at sigma_p (``coarse-chirp``: ``2 |beta| sigma_p dnu > pi``,
    dnu the larger step).
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
    else:
        pump_grid = None
    # the intensity is allocated first, below the amplitude in the heap: a
    # caller that keeps only the intensity then frees the amplitude's memory
    # at the heap's top, where it can be returned to the system
    power = np.empty((grid.n_s, grid.n_i))
    amp = np.empty((grid.n_s, grid.n_i), dtype=complex)
    for rows in row_blocks(grid.n_s, grid.n_i):
        pump_rows = pump_envelope(pump, ns[rows] + ni) if pump_grid is None else pump_grid[rows]
        np.multiply(pump_rows, phasematching_profile(pm, ns[rows], ni), out=amp[rows])
        power[rows] = np.abs(amp[rows]) ** 2
    amp.flags.writeable = False
    power.flags.writeable = False

    # filled below from the state's intensity, before the state is returned
    warnings: list[Diagnostic] = []
    provenance = {
        "kind": "model",
        "pump": asdict(pump),
        "pm": asdict(pm),
        # kept: it is hashed into the header of every written grid
        "normalized": False,
        "warnings": warnings,
    }
    out = JointSpectralAmplitude(grid, amp, provenance)
    # seeds the cached property with the bits it would compute
    out.__dict__["intensity"] = power
    _squared_norm(out)
    for label, curve, d in (
        ("signal", out.intensity.sum(axis=1), grid.d_nu_s),
        ("idler", out.intensity.sum(axis=0), grid.d_nu_i),
    ):
        try:
            width = intensity_fwhm(np.arange(curve.size) * d, curve)
        except (DomainError, CoverageError):
            warnings.append(Diagnostic("unresolved-marginal",
                                       f"{label} marginal FWHM not resolved on this grid",
                                       doubtful=False))
            continue
        if width / d < MIN_SAMPLES_PER_FWHM:
            warnings.append(_resolution_warning("coarse-marginal", f"{label} marginal", width / d))
    # the pump's phase beta nu^2 turns by 2 |beta| nu dnu a step, taken at nu = sigma_p
    phase_step = 2.0 * abs(float(pump.beta)) * float(pump.sigma_p) * max(grid.d_nu_s, grid.d_nu_i)
    if phase_step > math.pi:
        warnings.append(Diagnostic("coarse-chirp", f"pump chirp phase turns {phase_step:.3g} rad "
                                   "per grid step at sigma_p (> pi)"))
    return out


def _squared_norm(state: JointSpectralAmplitude) -> float:
    """``sum |f|^2``, the sum of the state's ``intensity``, for a kernel to divide by.

    Raises EmptyStateError if it underflows to zero and DomainError if it
    overflows, before the caller divides by it.
    """
    with np.errstate(over="ignore"):
        total = float(np.sum(state.intensity))
    if total == 0.0:
        raise EmptyStateError(
            "joint spectral intensity underflows to zero: the amplitude peaks at "
            f"{np.max(np.abs(state.amplitude)):.3g} on this grid"
        )
    if not math.isfinite(total):
        raise DomainError(f"amplitude is not normalizable: its intensity sums to {total}")
    return total


def jsi(state: JointSpectralAmplitude) -> np.ndarray:
    """Joint spectral intensity |f|^2 (the state's read-only ``intensity``)."""
    return state.intensity


def marginals(state: JointSpectralAmplitude) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler marginal spectra (JSI row/column sums times spacing).

    Raises as :func:`_squared_norm` does for an intensity that sums to zero
    or overflows.
    """
    _squared_norm(state)
    intensity = state.intensity
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
    """Multiply the amplitude by a filter transmission along the target axis.

    A filter whose width spans fewer than :data:`MIN_SAMPLES_PER_FWHM` steps
    of a filtered axis gets a ``coarse-filter`` diagnostic in the filtered
    state's provenance.
    """
    amp = np.array(state.amplitude)
    step = 0.0
    if filt.target in ("signal", "both"):
        t = filt.transmission(state.grid.nu_s)
        amp *= t[:, None]
        step = state.grid.d_nu_s
    if filt.target in ("idler", "both"):
        t = filt.transmission(state.grid.nu_i)
        amp *= t[None, :]
        step = max(step, state.grid.d_nu_i)
    if not np.any(amp):
        raise EmptyStateError("filter leaves no amplitude inside the grid")
    amp.flags.writeable = False
    prov = dict(state.provenance)
    if filt.width / step < MIN_SAMPLES_PER_FWHM:
        # a new list: the parent state keeps its own warnings
        prov["warnings"] = [
            *prov.get("warnings", ()),
            _resolution_warning("coarse-filter", "filter", filt.width / step),
        ]
    prov["filters"] = [*prov.get("filters", ()), asdict(filt)]
    return JointSpectralAmplitude(state.grid, amp, prov)


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum of a pair amplitude."""

    coefficients: np.ndarray  # descending, sum of squares = 1 - tail_mass
    schmidt_number: float
    entropy_bits: float
    tail_mass: float  # share of the pair's mass left out of ``coefficients``


# The randomized range finder of schmidt_decompose (Halko, Martinsson and
# Tropp, SIAM Review 53, 217 (2011)): the first sketch rank, the power
# iterations, and the share of the mass the sketch may leave uncaptured.
_SKETCH_RANK = 32
_SKETCH_POWER_STEPS = 1
_SKETCH_TAIL = 1e-12


def _extend_range(
    f: np.ndarray, q: np.ndarray | None, rank: int, rng: np.random.Generator
) -> np.ndarray:
    """Orthonormal basis ``q`` of a sketch of the range of ``f``, extended to ``rank`` columns.

    The new columns sample what ``q`` leaves of ``f``: ``f`` times fresh
    Gaussian columns drawn from ``rng``, with ``q``'s span projected out of
    every product by ``f``, :data:`_SKETCH_POWER_STEPS` power iterations and
    a QR after every product.  A last QR of ``[q, new]`` keeps the whole basis
    orthonormal to rounding, which the certificate needs.  With ``q`` None
    the basis is the new columns alone.
    """

    def residual(y):
        return y if q is None else y - q @ (q.conj().T @ y)

    new = rank if q is None else rank - q.shape[1]
    y, _ = np.linalg.qr(residual(f @ rng.standard_normal((f.shape[1], new))))
    for _ in range(_SKETCH_POWER_STEPS):
        # f^H y as (y^H f)^H, which copies no conjugate of f
        y, _ = np.linalg.qr((y.conj().T @ f).conj().T)
        y, _ = np.linalg.qr(residual(f @ y))
    return y if q is None else np.linalg.qr(np.hstack([q, y]))[0]


def _certified_spectrum(state: JointSpectralAmplitude, total: float):
    """``(sigma, tail)`` from the smallest certified sketch of a state of mass
    ``total`` = ``||f||^2``, or None.

    None where the full SVD is due: ``4 r`` reaches the grid's shorter side,
    at once (n <= 4 :data:`_SKETCH_RANK`) or after the rank has doubled.  Each
    doubling extends the basis the last sketch found rather than starting
    again.
    """
    f = state.amplitude
    if not f.imag.any():  # exactly real, as an unchirped source is
        f = np.ascontiguousarray(f.real)
    rng = np.random.default_rng(0)
    q, rank = None, _SKETCH_RANK
    while 4 * rank < min(f.shape):
        q = _extend_range(f, q, rank, rng)
        s = np.linalg.svd(q.conj().T @ f, compute_uv=False)
        tail = max(total - float(np.sum(s * s)), 0.0) / total
        if tail <= _SKETCH_TAIL:
            return s, tail
        rank *= 2
    return None


def schmidt_decompose(state: JointSpectralAmplitude) -> SchmidtResult:
    """Schmidt coefficients from the singular values of the discretized kernel.

    The coefficients are the singular values divided by the amplitude's norm
    ``||f|| = sqrt(sum |f|^2)``, so ``sum(lambda_n^2) = 1`` over the whole
    spectrum; the Schmidt number is ``1/sum(lambda_n^4)`` and the entropy
    ``-sum(lambda_n^2 log2 lambda_n^2)``.

    A pair state has few coefficients above rounding, so the spectrum is
    sketched in O(n^2 r) time rather than taken by the full O(n^3) SVD: the
    singular values of ``Q^H f``, where ``Q`` is an orthonormal basis of an
    ``r``-column sketch of the range of ``f``, taken on the real part when
    ``f`` is exactly real (see :func:`_extend_range`).  They capture
    ``sum sigma^2`` of the mass ``||f||^2``, the sum of the state's
    ``intensity``, and what they leave is certified: it bounds, up to a few
    eps of rounding, the mass beyond the ``r`` largest singular values.  The
    rank starts at :data:`_SKETCH_RANK` and doubles, extending the basis,
    while that tail exceeds :data:`_SKETCH_TAIL` of the mass.  Once ``4 r``
    reaches the grid's shorter side the full SVD is taken instead, so every
    grid with n <= 128 keeps the full SVD's bits.

    ``coefficients`` holds the ``r`` sketched values, or all of them after
    the full SVD; ``tail_mass`` is the certified share ``t`` of the mass left
    out of them (0 after the full SVD), so their squares sum to ``1 - t``.
    Each sketched value is at most the true one, and ``t`` is the sum of the
    true squares beyond ``r`` plus the shortfalls ``lambda_i^2 -
    lambda~_i^2`` within it, so each shortfall is at most ``t``:
    ``|lambda_i - lambda~_i| <= min(sqrt(t), t / lambda_i)``.  K and the
    entropy are sums over the returned coefficients; K is, up to rounding,
    never below the true one and above it by at most ``2 K t`` relative, and
    the entropy moves by at most ``t log2(n / t)`` bits, about 5e-11 at
    n = 512.  These are the certified bounds; on the test suite's random
    sources and the paper's operating points the sketch was far closer (K
    within 5e-15 relative, the first 16 coefficients within about 1e-15).

    A mass that underflows to zero or overflows is refused before any SVD
    (:func:`_squared_norm`).
    """
    total = _squared_norm(state)
    sketch = _certified_spectrum(state, total)
    if sketch is None:
        s = np.linalg.svd(state.amplitude, compute_uv=False)
        total, tail = float(np.sum(s * s)), 0.0
    else:
        s, tail = sketch
    lam = s / math.sqrt(total)
    k = 1.0 / float(np.sum(lam**4))
    nz = lam[lam > 1e-18] ** 2
    entropy = float(-np.sum(nz * np.log2(nz)))
    return SchmidtResult(
        coefficients=lam, schmidt_number=float(k), entropy_bits=entropy, tail_mass=tail
    )


def gaussian_schmidt_number(params: GaussianJsaParams) -> float:
    """Analytic Schmidt number of a real Gaussian amplitude.

    For ``f = exp[-(a nu_s^2 + b nu_i^2 + 2 c nu_s nu_i)]`` with real
    coefficients, the reduced-state purity integral evaluates to
    ``sqrt(1 - c^2/(a b))`` so ``K = sqrt(a b / (a b - c^2))``.  Only valid
    for an unchirped state.
    """
    if any(abs(z.imag) > 1e-30 for z in (params.c_ss, params.c_ii, params.c_si)):
        raise DomainError("analytic Schmidt number requires real coefficients (no chirp)")
    a, b = params.c_ss.real, params.c_ii.real
    det = _determinant(params, f"coefficients c_ss = {a:g}, c_ii = {b:g} s^2")
    return math.sqrt(a * b / det)


def correlation_classification(state: JointSpectralAmplitude) -> tuple[float, str]:
    """Pearson correlation of (nu_s, nu_i) under the JSI, with a label.

    Moments are restricted to the dominant lobe (JSI above
    :data:`CLASSIFICATION_SUPPORT_FLOOR` of its peak) so that phasematching
    side lobes do not dominate the second moments.  Labels:
    ``anticorrelated`` (rho < -0.1), ``decorrelated`` (|rho| <= 0.1),
    ``correlated`` (rho > 0.1).

    The masked JSI is made one row block (:func:`row_blocks`) at a time,
    once for the marginals and once for the covariance's matrix-vector
    product, so the temporaries are one block and O(n) lines; rho has the
    bits of the same sums over the whole masked JSI.
    """
    intensity = state.intensity
    peak = intensity.max()
    if not peak > 0:
        raise DomainError("JSI carries no weight")
    floor = CLASSIFICATION_SUPPORT_FLOOR * peak
    blocks = row_blocks(*intensity.shape)

    def masked(rows):
        return np.where(intensity[rows] >= floor, intensity[rows], 0.0)

    # the means and variances from the masked JSI's marginals, the covariance
    # from one matrix-vector product; the common 1/total cancels in rho.  Each
    # block's rows are added to the idler sum so far in row order, as one sum
    # over the whole masked JSI adds them.
    signal = np.empty(intensity.shape[0])
    idler = np.zeros(intensity.shape[1])
    for rows in blocks:
        part = np.vstack([idler, masked(rows)])
        signal[rows] = part[1:].sum(axis=1)
        idler = part.sum(axis=0)
    total = float(signal.sum())
    ds = state.grid.nu_s - float(signal @ state.grid.nu_s) / total
    di = state.grid.nu_i - float(idler @ state.grid.nu_i) / total
    var_s = float(signal @ (ds * ds))
    var_i = float(idler @ (di * di))
    if not var_s * var_i > 0:
        raise DomainError(
            f"JSI has zero variance along an axis or a variance product that underflows "
            f"(signal {var_s:.3g}, idler {var_i:.3g})"
        )
    weighted_di = np.empty(intensity.shape[0])
    for rows in blocks:
        np.matmul(masked(rows), di, out=weighted_di[rows])
    cov = float(ds @ weighted_di)
    rho = cov / math.sqrt(var_s * var_i)
    if rho < -CLASSIFICATION_DEAD_ZONE:
        label = "anticorrelated"
    elif rho > CLASSIFICATION_DEAD_ZONE:
        label = "correlated"
    else:
        label = "decorrelated"
    return rho, label

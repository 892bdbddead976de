"""Hong-Ou-Mandel coincidence scans: numeric from a JSA, closed forms for
the gaussian and sinc profiles, and dip readout.

Normalization: the interference integral is divided by the L2 norm of the
amplitude, so the coincidence rate is 1 far from overlap and ``1 - h`` at
zero delay, with ``h`` the visibility coefficient.  No detector model.

The numeric overlap sums ``e^{i(nu_j - nu_k) tau} f[j, k] f*[k, j]`` over an
n x n grid.  On the uniform square grid ``nu_j - nu_k = (j - k) dnu``, so
the sum collapses onto the diagonal sums
``D_m = sum_k f[k+m, k] f*[k, k+m]``, with ``D_{-m} = conj(D_m)``:

    overlap(tau) = D_0 + 2 Re sum_{m >= 1} D_m e^{i m dnu tau}.

The D_m take one O(n^2) pass.  The lag sum is a polynomial in
``z = e^{i theta}``, ``theta = dnu tau``, with no constant term, so Horner's
rule (Knuth, TAOCP vol. 2, section 4.6.4) evaluates it as

    sum_{m >= 1} D_m z^m = (...((D_{n-1} z + D_{n-2}) z + ...) + D_1) z,

one complex exponential per delay and n - 1 multiply-adds.  A scan of D
delays thus costs O(n^2 + n D), where the double sum over the grid takes
O(n^2 D), and holds two complex rows, z and the sum: 32 bytes a delay, 48
at the peak with the two real rows of the result.

The rates are exactly periodic in tau with period ``2 pi / dnu``: the grid
cannot tell a delay from one shifted by a whole period, so a scan wider than
the period reads aliased copies of the dip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, GridError, NoDipError, UnsupportedProfileError
from .jsa import JointSpectralAmplitude, _read_only, intensity_fwhm
from .spectral import GAUSSIAN_FWHM_FACTOR, PhasematchSpec, PumpSpec, sigma_p_squared

# A dip shallower than this is treated as "no dip" by the readout.
MIN_VISIBILITY = 0.02

# Scan end points must sit above this rate for a trustworthy baseline.
BASELINE_RATE = 0.9

# The readout refuses a dip FWHM narrower than this many delay steps: the
# half-depth crossings are interpolated between samples, so a dip inside a
# step or two reads as the step, not as its width.
MIN_DIP_STEPS = 4.0

_RATE_SLACK = 0.05

_erf = np.vectorize(math.erf, otypes=[float])  # elementwise, and no scipy import


@dataclass(frozen=True)
class DelayScan:
    """Coincidence rate versus relative delay, baseline-normalized to 1."""

    delays: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if delays.ndim != 1 or delays.shape != rates.shape:
            raise DomainError("delays and rates must be 1-D arrays of equal length")
        # compared in place: np.diff would add a temporary of 8 bytes a row
        if delays.size < 2 or not np.all(delays[1:] > delays[:-1]):
            raise DomainError("delays must be strictly increasing")
        # written so that a NaN, which fails every comparison, is refused too
        if not (np.min(rates) >= -1e-9 and np.max(rates) <= 1.0 + _RATE_SLACK):
            raise DomainError(
                f"rates outside [0, {1 + _RATE_SLACK}]: "
                f"min={np.min(rates):.3g}, max={np.max(rates):.3g}"
            )
        object.__setattr__(self, "delays", _read_only(delays))
        object.__setattr__(self, "rates", _read_only(rates))


@dataclass(frozen=True)
class HOMResult:
    """Dip readout: correlation time (dip intensity FWHM) and visibility."""

    scan: DelayScan
    t_c: float
    visibility: float
    model: str  # "numeric" | "gaussian-analytic"

    def __post_init__(self):
        if not self.t_c > 0:
            raise DomainError(f"t_c must be > 0, got {self.t_c}")
        if not 0.0 <= self.visibility <= 1.0 + _RATE_SLACK:
            raise DomainError(f"visibility out of range: {self.visibility}")


def _exchange_overlap(state: JointSpectralAmplitude, delays: np.ndarray) -> np.ndarray:
    """Re Int e^{i(nu - nu')tau} f(nu,nu') f*(nu',nu) / Int |f|^2 per delay.

    On the uniform square grid the phase depends on j - k only, so the
    double sum is taken over the diagonal sums D_m, and their lag sum by
    Horner's rule (module docstring).
    """
    if not state.grid.is_square:
        raise GridError(
            "coincidence rates need a square grid (identical signal/idler axes) "
            "so the exchanged amplitude is a transpose"
        )
    f = state.amplitude
    n = f.shape[0]
    # D_m = sum_k f[k+m, k] f*[k, k+m]; D_{-m} is its conjugate
    diag = np.array([np.vdot(f.diagonal(m), f.diagonal(-m)) for m in range(n)])
    z = np.exp(1j * (state.grid.d_nu_s * delays))
    lag_sum = np.zeros_like(z)
    for d_m in diag[:0:-1].tolist():
        lag_sum += d_m
        lag_sum *= z
    return (diag[0].real + 2.0 * lag_sum.real) / float(np.sum(state.intensity))


def coincidence_rate_numeric(state: JointSpectralAmplitude, tau: float) -> float:
    """Coincidence rate at one relative delay, by grid quadrature."""
    return float(1.0 - _exchange_overlap(state, np.asarray([float(tau)]))[0])


def coincidence_scan(state: JointSpectralAmplitude, delays) -> DelayScan:
    """Vectorized coincidence rates over a delay axis."""
    delays = np.asarray(delays, dtype=float)
    rates = np.clip(1.0 - _exchange_overlap(state, delays), 0.0, None)
    rates.flags.writeable = False  # fresh: DelayScan adopts it
    return DelayScan(delays=delays, rates=rates)


def gaussian_dip_width(pm: PhasematchSpec) -> float:
    """Gaussian-model dip scale W in ``exp[-tau^2/(2 W^2)]``: sqrt(gamma)|tau_s - tau_i|/2."""
    return 0.5 * math.sqrt(pm.gamma) * abs(pm.tau_s - pm.tau_i)


def correlation_time_gaussian(pm: PhasematchSpec) -> float:
    """Closed-form dip intensity FWHM, a crystal property only.

    ``2 sqrt(2 ln 2) sqrt(gamma) (L/2) |1/u_s - 1/u_i|``, equal to
    ``sqrt(2 ln 2) sqrt(gamma) |tau_s - tau_i|``.  There is deliberately no
    pump argument: the dip shape does not depend on the pump.
    """
    if pm.profile != "gaussian":
        raise UnsupportedProfileError("closed-form correlation time requires the gaussian profile")
    return GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(pm)


def visibility_coefficient(pump: PumpSpec, pm: PhasematchSpec) -> float:
    """Dip depth h of the gaussian-profile closed form.

    Carrying out the Gaussian integrals of the exchange overlap gives

        h = [1 + gamma sigma_p^2 (tau_s + tau_i)^2 / 16]^(-1/2),

    which is 1 exactly when tau_s = -tau_i (exchange-symmetric state) and
    chirp-independent.  Verified against the numeric overlap at zero delay.
    """
    if pm.profile != "gaussian":
        raise UnsupportedProfileError("closed-form visibility requires the gaussian profile")
    arg = pm.gamma * sigma_p_squared(pump) * (pm.tau_s + pm.tau_i) ** 2 / 16.0
    return 1.0 / math.sqrt(1.0 + arg)


def coincidence_rate_gaussian(pump: PumpSpec, pm: PhasematchSpec, tau):
    """Closed-form coincidence rate ``1 - h exp[-tau^2/(2 W^2)]``."""
    if pm.profile != "gaussian":
        raise UnsupportedProfileError("closed-form rate requires the gaussian profile")
    w = gaussian_dip_width(pm)
    if w == 0.0:
        raise DomainError("tau_s = tau_i gives a zero-width dip")
    h = visibility_coefficient(pump, pm)
    tau = np.asarray(tau, dtype=float)
    # tau^2 overflows far out on an absurd delay axis, where exp(-inf) = 0 is
    # the rate's right limit
    with np.errstate(over="ignore"):
        out = 1.0 - h * np.exp(-(tau * tau) / (2.0 * w * w))
    return out if out.ndim else float(out)


def coincidence_rate_sinc(pump: PumpSpec, pm: PhasematchSpec, tau):
    """Closed-form sinc-profile rate ``1 - sqrt(pi) / (2 kappa) erf(kappa w / 2)``.

    The exchange overlap of Grice and Walmsley (PRA 56, 1627 (1997)) with
    ``w = max(0, 2 - 4 |tau| / |tau_s - tau_i|)``, ``kappa = |tau_s + tau_i|
    sigma_p / (4 sqrt(2))``, and the triangle ``1 - w / 2`` at kappa = 0.  The
    support |tau| < |tau_s - tau_i| / 2 is the crystal's alone: the pump
    reshapes the dip only through kappa, the chirp not at all.
    """
    if pm.profile != "sinc":
        raise UnsupportedProfileError("closed-form sinc rate requires the sinc profile")
    tau = np.asarray(tau, dtype=float)
    w = np.maximum(0.0, 2.0 - 4.0 * np.abs(tau) / abs(pm.tau_s - pm.tau_i))
    kappa = abs(pm.tau_s + pm.tau_i) * pump.sigma_p / (4.0 * math.sqrt(2.0))
    if kappa == 0.0:
        out = 1.0 - 0.5 * w
    else:
        out = 1.0 - math.sqrt(math.pi) / (2.0 * kappa) * _erf(0.5 * kappa * w)
    return out if out.ndim else float(out)


def gaussian_scan(pump: PumpSpec, pm: PhasematchSpec, delays) -> DelayScan:
    """Closed-form rates over a delay axis."""
    delays = np.asarray(delays, dtype=float)
    rates = np.asarray(coincidence_rate_gaussian(pump, pm, delays))
    rates.flags.writeable = False  # fresh: DelayScan adopts it
    return DelayScan(delays=delays, rates=rates)


def default_delays(pm: PhasematchSpec, n: int = 201, spans: float = 4.0) -> np.ndarray:
    """Symmetric delay axis covering ``spans`` predicted dip widths each side."""
    w = gaussian_dip_width(pm)
    if w == 0.0:
        raise DomainError("tau_s = tau_i gives a zero-width dip")
    end = spans * GAUSSIAN_FWHM_FACTOR * w
    if not math.isfinite(end):
        raise DomainError(f"delay span {spans} dip widths overflows to {end} s")
    return _read_only(np.linspace(-end, end, n))  # an owned copy of linspace's view: adopted


def extract_dip(scan: DelayScan, model: str = "numeric") -> HOMResult:
    """Visibility and dip FWHM from a scan.

    Requires baseline coverage (first/last rates above ``BASELINE_RATE``),
    a dip deeper than ``MIN_VISIBILITY`` and a FWHM of at least
    ``MIN_DIP_STEPS`` of the scan's mean delay step.  The FWHM is read
    between the half-depth crossings adjacent to the dip minimum, linearly
    interpolated.
    """
    rates = scan.rates
    if rates[0] <= BASELINE_RATE or rates[-1] <= BASELINE_RATE:
        raise CoverageError(
            f"scan does not reach the baseline on both sides "
            f"(end rates {rates[0]:.3f}, {rates[-1]:.3f})"
        )
    depth = 1.0 - rates
    visibility = float(np.max(depth))
    if visibility < MIN_VISIBILITY:
        raise NoDipError(f"no dip: visibility {visibility:.4f} < {MIN_VISIBILITY}")
    t_c = intensity_fwhm(scan.delays, depth)
    delays = scan.delays
    steps = t_c * (delays.size - 1) / (delays[-1] - delays[0])
    if not steps >= MIN_DIP_STEPS:
        raise CoverageError(
            f"dip FWHM spans {steps:.3g} delay steps (< {MIN_DIP_STEPS:g}): "
            f"sample the dip more finely with more --delay-points or a smaller --delay-span"
        )
    return HOMResult(scan=scan, t_c=t_c, visibility=min(visibility, 1.0), model=model)

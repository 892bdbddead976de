"""Hong-Ou-Mandel coincidence scans: numeric from a JSA, closed form for
the gaussian profile, and dip readout.

Normalization: the interference integral is divided by the L2 norm of the
amplitude, so the coincidence rate is 1 far from overlap and ``1 - h`` at
zero delay, with ``h`` the visibility coefficient.  No detector model.

The numeric overlap sums ``e^{i(nu_j - nu_k) tau} f[j, k] f*[k, j]`` over an
n x n grid.  On the uniform square grid ``nu_j - nu_k = (j - k) dnu``, so
the sum collapses onto the diagonal sums
``D_m = sum_k f[k+m, k] f*[k, k+m]``, with ``D_{-m} = conj(D_m)``:

    overlap(tau) = D_0 + 2 Re sum_{m >= 1} D_m e^{i m dnu tau}.

The D_m take one O(n^2) pass and each delay O(n), so a scan of D delays
costs O(n^2 + n D) instead of the O(n^2 D) of the direct double sum.  The
phases e^{i m dnu tau} are taken for :data:`DELAY_BLOCK` delays at a time,
so the scan's temporaries stay O(n DELAY_BLOCK) however many delays it has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, GridError, NoDipError, UnsupportedProfileError
from .jsa import JointSpectralAmplitude, _read_only, intensity_fwhm
from .spectral import GAUSSIAN_FWHM_FACTOR, PhasematchSpec, PumpSpec

# A dip shallower than this is treated as "no dip" by the readout.
MIN_VISIBILITY = 0.02

# Scan end points must sit above this rate for a trustworthy baseline.
BASELINE_RATE = 0.9

_RATE_SLACK = 0.05

# Delays whose phases the numeric overlap holds at once: an (n - 1) x
# DELAY_BLOCK complex matrix, 8 MiB a block at n = 512.
DELAY_BLOCK = 1024


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
        if delays.size < 2 or not np.all(np.diff(delays) > 0):
            raise DomainError("delays must be strictly increasing")
        if np.min(rates) < -1e-9 or np.max(rates) > 1.0 + _RATE_SLACK:
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
    double sum is taken over the diagonal sums D_m (module docstring).
    """
    if not state.grid.is_square:
        raise GridError(
            "coincidence rates need a square grid (identical signal/idler axes) "
            "so the exchanged amplitude is a transpose"
        )
    f = state.amplitude
    # D_m = sum_k f[k+m, k] f*[k, k+m]; D_{-m} is its conjugate
    diag = np.array([np.vdot(f.diagonal(m), f.diagonal(-m)) for m in range(f.shape[0])])
    lags = np.arange(1, diag.size)
    steps = state.grid.d_nu_s * delays
    overlap = np.empty(steps.size)
    for d0 in range(0, steps.size, DELAY_BLOCK):
        phases = np.exp(1j * np.outer(lags, steps[d0 : d0 + DELAY_BLOCK]))
        overlap[d0 : d0 + DELAY_BLOCK] = diag[0].real + 2.0 * np.real(diag[1:] @ phases)
    return overlap / float(np.sum(state.intensity))


def coincidence_rate_numeric(state: JointSpectralAmplitude, tau: float) -> float:
    """Coincidence rate at one relative delay, by grid quadrature."""
    return float(1.0 - _exchange_overlap(state, np.asarray([float(tau)]))[0])


def coincidence_scan(state: JointSpectralAmplitude, delays) -> DelayScan:
    """Vectorized coincidence rates over a delay axis."""
    delays = np.asarray(delays, dtype=float)
    rates = 1.0 - _exchange_overlap(state, delays)
    return DelayScan(delays=delays, rates=np.clip(rates, 0.0, None))


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
    arg = pm.gamma * pump.sigma_p**2 * (pm.tau_s + pm.tau_i) ** 2 / 16.0
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
    out = 1.0 - h * np.exp(-(tau * tau) / (2.0 * w * w))
    return out if out.ndim else float(out)


def gaussian_scan(pump: PumpSpec, pm: PhasematchSpec, delays) -> DelayScan:
    """Closed-form rates over a delay axis."""
    delays = np.asarray(delays, dtype=float)
    return DelayScan(delays=delays, rates=coincidence_rate_gaussian(pump, pm, delays))


def default_delays(pm: PhasematchSpec, n: int = 201, spans: float = 4.0) -> np.ndarray:
    """Symmetric delay axis covering ``spans`` predicted dip widths each side."""
    w = gaussian_dip_width(pm)
    if w == 0.0:
        raise DomainError("tau_s = tau_i gives a zero-width dip")
    return np.linspace(-spans * GAUSSIAN_FWHM_FACTOR * w, spans * GAUSSIAN_FWHM_FACTOR * w, n)


def extract_dip(scan: DelayScan, model: str = "numeric") -> HOMResult:
    """Visibility and dip FWHM from a scan.

    Requires baseline coverage (first/last rates above ``BASELINE_RATE``)
    and a dip deeper than ``MIN_VISIBILITY``.  The FWHM is read between the
    half-depth crossings adjacent to the dip minimum, linearly interpolated.
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
    return HOMResult(scan=scan, t_c=t_c, visibility=min(visibility, 1.0), model=model)

"""Scalar physics primitives: unit conversions, pump envelope, phasematching.

Width conventions (used consistently across the package)
---------------------------------------------------------
All user-facing spectral widths are intensity FWHMs, in nm for wavelength
axes.  Internally the pump amplitude is ``exp[-(nu/sigma)^2]`` where
``sigma`` is the amplitude 1/e half-width in rad/s.  The two are linked by

    sigma = delta_omega_fwhm / (2 sqrt(ln 2)),

i.e. the stated FWHM is read as the full width at half maximum of the
amplitude envelope.  This choice is what reproduces the joint-spectrum
marginals of the reference ppKTP source; see the preset notes.

Durations quoted in reports use the Gaussian time-bandwidth product for
intensity FWHMs, ``delta_f * delta_tau = 0.44``, times the chirp broadening
factor ``sqrt(1 + (beta sigma^2)^2)`` of the amplitude
``exp[-(nu/sigma)^2 + i beta nu^2]``.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

C_M_PER_S = 299792458.0

# Gaussian intensity-FWHM time-bandwidth product, delta_f * delta_tau.
TIME_BANDWIDTH_FWHM = 0.44

# exp[-(x/s)^2] falls to 1/2 at x = s*sqrt(ln 2); full width is twice that.
AMPLITUDE_FWHM_FACTOR = 2.0 * math.sqrt(math.log(2.0))

# exp[-x^2/(2 w^2)] (intensity) has FWHM = 2*sqrt(2 ln 2) * w.
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Gaussian factor matching the amplitude FWHM of sin(x)/x: the half-maximum
# of sin(x)/x sits at x = 1.8955, and ln(2)/1.8955^2 = 0.1929.
GAMMA_SINC_MATCH = 0.193

PROFILES = ("gaussian", "sinc")


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse: carrier, spectral width and quadratic chirp.

    omega_p0: carrier angular frequency (rad/s), equal to the sum of the
        degenerate signal/idler carriers.
    sigma_p: amplitude 1/e spectral half-width (rad/s); see module notes.
    beta: quadratic spectral phase coefficient (s^2); 0 for an
        unchirped, transform-limited pulse.
    """

    omega_p0: float
    sigma_p: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.omega_p0 > 0:
            raise DomainError(f"pump carrier frequency must be > 0, got {self.omega_p0}")
        if not self.sigma_p > 0:
            raise DomainError(f"pump spectral width must be > 0, got {self.sigma_p}")


def sigma_p_squared(pump: PumpSpec) -> float:
    """``sigma_p^2`` as a Python float, refused where it overflows (a product of
    Python floats is then inf, where ``**`` raises and numpy floats warn)."""
    sigma_p = float(pump.sigma_p)
    square = sigma_p * sigma_p
    if math.isinf(square):
        raise DomainError(f"pump width sigma_p = {sigma_p:g} rad/s: its square overflows")
    return square


@dataclass(frozen=True)
class PhasematchSpec:
    """Waveguide phasematching in the linear group-velocity-walk-off model.

    The phase mismatch is linearized around the phasematched carriers:
    ``L*delta_k = tau_s*nu_s + tau_i*nu_i`` with ``tau = L*(1/u - 1/u_pump)``
    the group delay of each photon relative to the pump over the full
    waveguide length.

    length_L: waveguide length (m).
    tau_s, tau_i: signal/idler walk-off parameters (s).  They must differ;
        equal walk-offs collapse the interference dip to zero width.
    gamma: Gaussian-approximation factor; the default 0.193 matches the
        amplitude FWHM of the sinc profile.
    profile: "gaussian" for the Gaussian-approximated profile, "sinc" for
        the uniform-poling sinc profile.
    omega_s0, omega_i0: phasematched signal/idler carriers (rad/s).
    """

    length_L: float
    tau_s: float
    tau_i: float
    omega_s0: float
    omega_i0: float
    gamma: float = GAMMA_SINC_MATCH
    profile: str = "gaussian"

    def __post_init__(self):
        if not self.length_L > 0:
            raise DomainError(f"waveguide length must be > 0, got {self.length_L}")
        if not self.gamma > 0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")
        if self.tau_s == self.tau_i:
            raise DomainError(
                "tau_s and tau_i must differ: equal walk-offs give a "
                "zero-width correlation time"
            )
        if self.profile not in PROFILES:
            raise DomainError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if not self.omega_s0 > 0 or not self.omega_i0 > 0:
            raise DomainError("central PDC frequencies must be > 0")


def wavelength_to_angular_frequency(wavelength):
    """omega = 2 pi c / lambda."""
    return 2.0 * np.pi * C_M_PER_S / np.asarray(wavelength, dtype=float)


def wavelength_fwhm_to_sigma(center_wavelength: float, fwhm: float) -> float:
    """Convert an intensity FWHM in wavelength to the amplitude sigma in rad/s.

    Small-bandwidth relation ``delta_omega = 2 pi c delta_lambda / lambda^2``
    followed by the amplitude-FWHM convention of this package
    (``sigma = delta_omega / (2 sqrt(ln 2))``).
    """
    if not center_wavelength > 0 or not fwhm > 0:
        raise DomainError(
            f"wavelengths must be > 0, got center={center_wavelength}, fwhm={fwhm}"
        )
    delta_omega = 2.0 * np.pi * C_M_PER_S * fwhm / center_wavelength**2
    return delta_omega / AMPLITUDE_FWHM_FACTOR


def omega_fwhm_to_wavelength_fwhm(center_wavelength: float, fwhm_omega: float) -> float:
    """Convert an angular-frequency FWHM (rad/s) to a wavelength FWHM (m)."""
    return fwhm_omega * center_wavelength**2 / (2.0 * np.pi * C_M_PER_S)


def transform_limited_duration(center_wavelength: float, fwhm: float) -> float:
    """Intensity-FWHM duration of a transform-limited Gaussian pulse.

    ``delta_tau = 0.44 / delta_f`` with ``delta_f = c delta_lambda / lambda^2``,
    the convention used throughout the tabulated source characterization.
    """
    if not center_wavelength > 0 or not fwhm > 0:
        raise DomainError(
            f"wavelengths must be > 0, got center={center_wavelength}, fwhm={fwhm}"
        )
    delta_f = C_M_PER_S * fwhm / center_wavelength**2
    return TIME_BANDWIDTH_FWHM / delta_f


def tabulated_pump_duration(pump: PumpSpec) -> float:
    """Report-convention pump duration: 0.44 TBP on the stated FWHM, chirp-corrected.

    This is the duration a transform-limited pulse of the user-facing
    spectral FWHM would have, times the chirp broadening factor
    ``sqrt(1 + (beta sigma_p^2)^2)``: Fourier transforming the amplitude
    ``exp[-(nu/sigma_p)^2 + i beta nu^2]`` gives the temporal intensity
    ``exp[-t^2 sigma_p^2 / (2 (1 + beta^2 sigma_p^4))]``.  The chirp factor is
    unit-tested against a direct numerical transform.  This is the number
    comparable to tabulated source parameters; the physical duration of the
    modeled envelope, ``2 sqrt(2 ln 2) / sigma_p`` unchirped, is about
    sqrt(2) longer under this package's sigma convention.
    """
    delta_f = pump.sigma_p * AMPLITUDE_FWHM_FACTOR / (2.0 * np.pi)
    chirp = math.sqrt(1.0 + (pump.beta * pump.sigma_p**2) ** 2)
    return TIME_BANDWIDTH_FWHM / delta_f * chirp


def pump_envelope(pump: PumpSpec, nu_sum):
    """Complex pump amplitude at summed detuning ``nu_sum = nu_s + nu_i``.

    Returns ``exp[-(nu/sigma_p)^2] * exp[i beta nu^2]``; unit modulus at zero
    detuning, and the modulus is independent of the chirp.
    """
    nu = np.asarray(nu_sum, dtype=float)
    out = np.empty(nu.shape, dtype=complex)
    # far detunings overflow the exponent to -inf, and exp(-inf) = 0 is the
    # envelope's limit; invalid operations (an inf phase) still warn
    with np.errstate(over="ignore"):
        np.square(nu / pump.sigma_p, out=out.real)
        np.multiply(pump.beta * nu, nu, out=out.imag)
    np.negative(out.real, out=out.real)
    # a -0 phase becomes +0, as in the sum of a real and a complex array
    out.imag += 0.0
    np.exp(out, out=out)
    return out if out.ndim else complex(out)


def sinc(x):
    """sin(x)/x with sinc(0) = 1, series branch below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    out = np.sin(x, out=np.empty_like(x))
    np.divide(out, x, out=out, where=~small)
    x2 = x[small] ** 2
    out[small] = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return out if out.ndim else float(out)


def phasematching_profile(pm: PhasematchSpec, nu_s, nu_i):
    """Real profile part of the phasematching amplitude.

    With ``x = (tau_s nu_s + tau_i nu_i)/2``: ``exp(-gamma x^2)`` for the
    gaussian profile, ``sin(x)/x`` (sign kept) for the sinc profile.
    """
    x = (pm.tau_s * np.asarray(nu_s, dtype=float) + pm.tau_i * np.asarray(nu_i, dtype=float)) * 0.5
    if pm.profile == "sinc":
        return sinc(x)
    with np.errstate(over="ignore"):  # exp(-inf) = 0, as in pump_envelope
        return np.exp(-pm.gamma * x * x)


def walkoff_from_group_velocities(length_L: float, u_s: float, u_i: float, u_p: float):
    """Walk-off parameters ``tau = L*(1/u - 1/u_p)`` from group velocities (m/s)."""
    if not length_L > 0:
        raise DomainError(f"length must be > 0, got {length_L}")
    for name, u in (("u_s", u_s), ("u_i", u_i), ("u_p", u_p)):
        if not u > 0:
            raise DomainError(f"group velocity {name} must be > 0, got {u}")
    return (
        length_L * (1.0 / u_s - 1.0 / u_p),
        length_L * (1.0 / u_i - 1.0 / u_p),
    )

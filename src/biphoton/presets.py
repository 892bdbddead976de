"""Named source presets and the parameter derivation behind the shipped one.

Preset files are plain ``key = value`` documents (SI units, ``#`` comments)
stored under ``biphoton/data/``.  The shipped ``ppktp-8mm`` preset describes
an 8 mm periodically poled KTP waveguide producing frequency-degenerate
type-II pairs at 1535 nm.  Its walk-off parameters are not measured values:
they are solved from two published constraints (see
:func:`derive_walkoffs_from_ridge_and_dip`) and the file records that
provenance.  ``tests/test_presets.py`` holds the published constants and
re-executes the derivation against the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from importlib import resources

from .errors import DomainError, ParseError
from .spectral import (
    C_M_PER_S,
    GAMMA_SINC_MATCH,
    PhasematchSpec,
    PumpSpec,
    wavelength_fwhm_to_sigma,
)


@dataclass(frozen=True)
class SourcePreset:
    """A named (pump, phasematch) parameter set with provenance notes."""

    name: str
    pump: PumpSpec
    pm: PhasematchSpec
    notes: str = ""


def derive_walkoffs_from_ridge_and_dip(
    dip_fwhm: float,
    ridge_angle_deg: float,
    gamma: float = GAMMA_SINC_MATCH,
    signal_is_slow: bool = False,
):
    """Solve (tau_s, tau_i) from a phasematching ridge angle and a dip width.

    Two constraints, two unknowns:

    * the ridge of maximum phasematching, ``tau_s nu_s + tau_i nu_i = 0``,
      makes an angle ``theta`` with the signal-frequency axis, fixing the
      ratio ``-tau_s/tau_i = tan(theta)``;
    * the Gaussian-model interference dip has intensity FWHM
      ``2 sqrt(2 ln 2) * sqrt(gamma) * |tau_s - tau_i| / 2``, fixing the
      difference.

    Only the magnitudes and the sign ratio are determined; which photon is
    the faster one is a free choice (``signal_is_slow`` flips it).
    """
    if not dip_fwhm > 0:
        raise DomainError(f"dip width must be > 0, got {dip_fwhm}")
    if not 0 < ridge_angle_deg < 90:
        raise DomainError(f"ridge angle must lie in (0, 90) deg, got {ridge_angle_deg}")
    ratio = math.tan(math.radians(ridge_angle_deg))
    diff = dip_fwhm / (math.sqrt(2.0 * math.log(2.0)) * math.sqrt(gamma))
    tau_i = diff / (1.0 + ratio)
    tau_s = -ratio * tau_i
    if signal_is_slow:
        tau_s, tau_i = -tau_s, -tau_i
    return tau_s, tau_i


def _key_value_lines(text: str, origin: str):
    """Yield ``(lineno, key, value)`` for each ``key = value`` line, both stripped.

    Blank lines and ``#`` comments are skipped; any other line without ``=``
    raises ParseError at ``origin:lineno``.  Preset and config files share it.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _parse_preset_text(text: str, origin: str) -> SourcePreset:
    values = {key: value for _, key, value in _key_value_lines(text, origin)}

    def need(key: str) -> str:
        if key not in values:
            raise ParseError(f"{origin}: missing required key {key!r}")
        return values[key]

    def fnum(key: str) -> float:
        raw = need(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ParseError(f"{origin}: key {key!r} is not a number: {raw!r}") from exc

    def spec(cls, prefix: str):
        # every field is a required key, read in field order; only the profile is text
        return cls(**{
            f.name: (need if f.name == "profile" else fnum)(f"{prefix}.{f.name}")
            for f in fields(cls)
        })

    pump, pm = spec(PumpSpec, "pump"), spec(PhasematchSpec, "pm")
    return SourcePreset(name=need("name"), pump=pump, pm=pm, notes=values.get("notes", ""))


def available_presets() -> list[str]:
    """Names of the presets shipped with the package."""
    root = resources.files("biphoton").joinpath("data")
    return sorted(p.name[: -len(".preset")] for p in root.iterdir() if p.name.endswith(".preset"))


def load_preset(name: str) -> SourcePreset:
    """Load a shipped preset by name (see :func:`available_presets`)."""
    res = resources.files("biphoton").joinpath("data").joinpath(f"{name}.preset")
    if not res.is_file():
        raise DomainError(f"unknown preset {name!r}; available: {', '.join(available_presets())}")
    return _parse_preset_text(res.read_text(encoding="utf-8"), f"preset:{name}")


def preset_with_pump(
    preset: SourcePreset,
    pump_fwhm_nm: float | None = None,
    beta: float | None = None,
    profile: str | None = None,
    length_scale: float = 1.0,
) -> SourcePreset:
    """Return a copy of ``preset`` with pump width, chirp, profile or length overridden.

    ``pump_fwhm_nm`` is the spectral amplitude's FWHM in nm at the pump carrier;
    ``beta`` is the pump chirp in s^2, and None keeps the preset's chirp;
    ``length_scale`` rescales the waveguide length and both walk-offs with it.
    """
    pump = preset.pump
    if beta is not None:
        pump = replace(pump, beta=beta)
    if pump_fwhm_nm is not None:
        lam_p = 2.0 * math.pi * C_M_PER_S / pump.omega_p0
        pump = replace(pump, sigma_p=wavelength_fwhm_to_sigma(lam_p, pump_fwhm_nm * 1e-9))
    pm = replace(
        preset.pm,
        length_L=preset.pm.length_L * length_scale,
        tau_s=preset.pm.tau_s * length_scale,
        tau_i=preset.pm.tau_i * length_scale,
        profile=preset.pm.profile if profile is None else profile,
    )
    return replace(preset, pump=pump, pm=pm)

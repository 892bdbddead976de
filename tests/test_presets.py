"""Shipped preset: derivation reproduction, file parsing, overrides."""

import math
from dataclasses import replace

import pytest

from biphoton import (
    DomainError,
    ParseError,
    available_presets,
    correlation_time_gaussian,
    load_preset,
    preset_with_pump,
    wavelength_fwhm_to_sigma,
)
from biphoton.presets import _parse_preset_text, derive_walkoffs_from_ridge_and_dip
from biphoton.spectral import GAMMA_SINC_MATCH, wavelength_to_angular_frequency

from helpers import PM_KEYS, PUMP_KEYS, record_fields


def ppktp_reference_values() -> dict:
    """The published constants the shipped ppktp-8mm preset is derived from."""
    lam_pump = 767.5e-9
    lam_pdc = 1535e-9
    return {
        "pump_wavelength": lam_pump,
        "pdc_wavelength": lam_pdc,
        "pump_omega0": float(wavelength_to_angular_frequency(lam_pump)),
        "pdc_omega0": float(wavelength_to_angular_frequency(lam_pdc)),
        "length": 8e-3,
        "gamma": GAMMA_SINC_MATCH,
        "ridge_angle_deg": 59.0,
        "dip_fwhm": 1.16e-12,
        "default_pump_fwhm_nm": 2.0,
    }


class TestDerivation:
    def test_preset_file_matches_derivation(self, ppktp):
        ref = ppktp_reference_values()
        tau_s, tau_i = derive_walkoffs_from_ridge_and_dip(
            ref["dip_fwhm"], ref["ridge_angle_deg"], ref["gamma"]
        )
        assert ppktp.pm.tau_s == pytest.approx(tau_s, rel=1e-9)
        assert ppktp.pm.tau_i == pytest.approx(tau_i, rel=1e-9)
        assert ppktp.pm.length_L == ref["length"]
        assert ppktp.pm.gamma == ref["gamma"]
        assert ppktp.pump.omega_p0 == pytest.approx(ref["pump_omega0"], rel=1e-12)
        assert ppktp.pm.omega_s0 == pytest.approx(ref["pdc_omega0"], rel=1e-12)
        default_sigma = wavelength_fwhm_to_sigma(
            ref["pump_wavelength"], ref["default_pump_fwhm_nm"] * 1e-9
        )
        assert ppktp.pump.sigma_p == pytest.approx(default_sigma, rel=1e-12)

    def test_derived_magnitudes(self):
        tau_s, tau_i = derive_walkoffs_from_ridge_and_dip(1.16e-12, 59.0, 0.193)
        assert abs(tau_s - tau_i) == pytest.approx(2.2426e-12, rel=1e-4)
        assert abs(tau_i) == pytest.approx(0.8417e-12, rel=1e-4)
        assert abs(tau_s) == pytest.approx(1.4009e-12, rel=1e-4)
        assert tau_s * tau_i < 0
        assert -tau_s / tau_i == pytest.approx(math.tan(math.radians(59.0)), rel=1e-12)

    def test_ridge_and_dip_reproduced(self, ppktp):
        # the closed-form dip width of the shipped preset is the 1.16 ps input
        assert correlation_time_gaussian(ppktp.pm) == pytest.approx(1.16e-12, rel=1e-12)

    def test_sign_flip_option(self):
        a = derive_walkoffs_from_ridge_and_dip(1.16e-12, 59.0, 0.193, signal_is_slow=False)
        b = derive_walkoffs_from_ridge_and_dip(1.16e-12, 59.0, 0.193, signal_is_slow=True)
        assert a[0] == -b[0] and a[1] == -b[1]

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            derive_walkoffs_from_ridge_and_dip(0.0, 59.0)
        with pytest.raises(DomainError):
            derive_walkoffs_from_ridge_and_dip(1e-12, 95.0)


class TestPresetFiles:
    def test_available(self):
        assert "ppktp-8mm" in available_presets()

    def test_provenance_notes(self, ppktp):
        assert ppktp.name == "ppktp-8mm"
        assert "derived" in ppktp.notes.lower()
        assert ppktp.pm.profile == "gaussian"
        # energy conservation of the carriers
        assert ppktp.pump.omega_p0 == pytest.approx(
            ppktp.pm.omega_s0 + ppktp.pm.omega_i0, rel=1e-14
        )

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            load_preset("no-such-device")

    def test_parse_roundtrip(self, ppktp):
        text = "\n".join(
            [
                "# a comment",
                "name = toy",
                "notes = hand-written test preset",
                f"pump.omega_p0 = {ppktp.pump.omega_p0!r}",
                f"pump.sigma_p = {ppktp.pump.sigma_p!r}",
                "pump.beta = 0.0",
                f"pm.length_L = {ppktp.pm.length_L!r}",
                f"pm.tau_s = {ppktp.pm.tau_s!r}",
                f"pm.tau_i = {ppktp.pm.tau_i!r}",
                "pm.gamma = 0.193",
                "pm.profile = sinc",
                f"pm.omega_s0 = {ppktp.pm.omega_s0!r}",
                f"pm.omega_i0 = {ppktp.pm.omega_i0!r}",
            ]
        )
        preset = _parse_preset_text(text, "toy.preset")
        assert preset.name == "toy"
        assert preset.pm.profile == "sinc"
        assert preset.pm.tau_s == ppktp.pm.tau_s

    @pytest.mark.parametrize(
        "key", [f"pump.{k}" for k in PUMP_KEYS] + [f"pm.{k}" for k in PM_KEYS] + ["name"]
    )
    def test_each_key_required(self, ppktp, key):
        lines = [f"name = {ppktp.name}"]
        lines += [f"pump.{k} = {v}" for k, v in record_fields(ppktp.pump, PUMP_KEYS).items()]
        lines += [f"pm.{k} = {v}" for k, v in record_fields(ppktp.pm, PM_KEYS).items()]
        assert _parse_preset_text("\n".join(lines), "full.preset") == replace(ppktp, notes="")
        kept = [line for line in lines if not line.startswith(f"{key} =")]
        with pytest.raises(ParseError, match=f"^short.preset: missing required key '{key}'$"):
            _parse_preset_text("\n".join(kept), "short.preset")

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="a.preset:2:"):
            _parse_preset_text("name = x\njust some words\n", "a.preset")
        with pytest.raises(ParseError, match="missing required key"):
            _parse_preset_text("name = x\npump.omega_p0 = 1e15\n", "b.preset")
        with pytest.raises(ParseError, match="not a number"):
            _parse_preset_text(
                "name = x\npump.omega_p0 = fast\npump.sigma_p = 1e12\npump.beta = 0\n",
                "c.preset",
            )


class TestOverrides:
    def test_pump_width_override(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=0.7)
        assert src.pump.sigma_p == pytest.approx(
            wavelength_fwhm_to_sigma(767.5e-9, 0.7e-9), rel=1e-9
        )
        assert src.pm == ppktp.pm

    def test_length_scale(self, ppktp):
        src = preset_with_pump(ppktp, length_scale=2.0)
        assert src.pm.length_L == pytest.approx(2 * ppktp.pm.length_L)
        assert src.pm.tau_s == pytest.approx(2 * ppktp.pm.tau_s)
        assert src.pm.tau_i == pytest.approx(2 * ppktp.pm.tau_i)

    def test_profile_override(self, ppktp):
        src = preset_with_pump(ppktp, profile="sinc")
        assert src.pm.profile == "sinc"
        assert src.pump == ppktp.pump

    def test_chirp_override(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, beta=5e-27)
        assert src.pump.beta == 5e-27

    @pytest.mark.parametrize(
        "override",
        [{"profile": "sinc"}, {"length_scale": 1.5}, {"pump_fwhm_nm": 3.0}],
        ids=["profile", "length_scale", "pump_fwhm_nm"],
    )
    def test_chirp_kept_through_other_overrides(self, ppktp, override):
        chirped = preset_with_pump(ppktp, beta=5e-27)
        assert preset_with_pump(chirped, **override).pump.beta == 5e-27

    def test_explicit_zero_chirp_clears_it(self, ppktp):
        chirped = preset_with_pump(ppktp, beta=5e-27)
        assert preset_with_pump(chirped, profile="sinc", beta=0.0).pump.beta == 0.0

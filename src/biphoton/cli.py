"""Command-line front end: simulate | hom | sweep | analyze | presets.

Runs are deterministic: outputs carry a provenance header with the tool
version and a hash of the resolved configuration, never timestamps, so
identical configurations produce byte-identical files.

Option precedence is CLI flag > config file (``key = value`` lines) >
preset defaults.  The output directory defaults to $BIPHOTON_OUTDIR or the
current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    export_delay_scan,
    export_jsa_csv,
    export_jsi_csv,
    fit_dip,
    load_scan,
    sinc_dip_kernel,
    write_rows,
)
from .errors import DomainError
from .hom import (
    coincidence_scan,
    correlation_time_gaussian,
    default_delays,
    extract_dip,
    gaussian_scan,
    visibility_coefficient,
)
from .jsa import (
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    correlation_classification,
    intensity_fwhm,
    marginals,
    schmidt_decompose,
)
from .presets import available_presets, load_preset, preset_with_pump
from .spectral import omega_fwhm_to_wavelength_fwhm, C_M_PER_S

_N_SCHMIDT_REPORTED = 16


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(config: dict) -> dict:
    return {"tool": f"biphoton {__version__}", "config_sha256": _config_hash(config)}


def _read_config_file(path: str, types: dict) -> dict:
    """``key = value`` lines, each value cast with its flag's argparse type.

    Casting here gives a value the same type, and so the same hash, whether
    it comes from a flag or from the file.  Keys that are no typed flag of
    the command stay strings.
    """
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        cast = types.get(key)
        if cast is not None:
            try:
                value = cast(value)
            except ValueError:
                raise DomainError(
                    f"{path}:{lineno}: {key} = {value!r} is not a valid {cast.__name__}"
                ) from None
        values[key] = value
    return values


def _resolve(args: argparse.Namespace, key: str, default=None):
    """CLI flag beats config file beats default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args._config.get(key, default)


def _outdir(args) -> Path:
    out = _resolve(args, "out")
    if out is None:
        out = os.environ.get("BIPHOTON_OUTDIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_source(args):
    name = _resolve(args, "preset")
    if name is None:
        raise DomainError("a --preset is required")
    preset = load_preset(name)
    pump_fwhm_nm = _resolve(args, "pump_fwhm_nm")
    chirp_fs2 = _resolve(args, "chirp_fs2", 0.0) or 0.0
    profile = _resolve(args, "profile")
    length_mm = _resolve(args, "length_mm")
    length_scale = 1.0
    if length_mm is not None:
        length_scale = (length_mm * 1e-3) / preset.pm.length_L
    return preset_with_pump(
        preset,
        pump_fwhm_nm=pump_fwhm_nm,
        beta=chirp_fs2 * 1e-30,
        profile=profile,
        length_scale=length_scale,
    )


def _build_state(args, source):
    n = int(_resolve(args, "grid_n", 512))
    span = float(_resolve(args, "grid_span_fwhms", 4.0))
    grid = auto_grid(source.pump, source.pm, n=n, span_fwhms=span)
    return build_jsa(source.pump, source.pm, grid)


def _config_dict(args, keys) -> dict:
    config = {}
    for key in keys:
        value = _resolve(args, key)
        if value is not None:
            config[key] = value if isinstance(value, (int, float, str)) else str(value)
    return config


def cmd_simulate(args) -> int:
    source = _load_source(args)
    state = _build_state(args, source)
    outdir = _outdir(args)
    config = _config_dict(
        args,
        ("preset", "pump_fwhm_nm", "chirp_fs2", "profile", "length_mm", "grid_n",
         "grid_span_fwhms", "filter_fwhm_nm"),
    )
    meta = _meta(config)

    filter_fwhm_nm = _resolve(args, "filter_fwhm_nm")
    if filter_fwhm_nm is not None:
        lam = 2 * np.pi * C_M_PER_S / source.pm.omega_s0
        width = filter_fwhm_nm * 1e-9 * 2 * np.pi * C_M_PER_S / lam**2
        state = apply_spectral_filter(
            state,
            SpectralFilter(shape="gaussian", center=0.0, width=width, target="both"),
        )

    export_jsa_csv(state, outdir / "jsa.csv", meta)
    export_jsi_csv(state, outdir / "jsi.csv", meta)

    sig, idl = marginals(state)
    lam_pdc = 2 * np.pi * C_M_PER_S / source.pm.omega_s0
    write_rows(
        outdir / "marginals.csv", meta, "nu_rad_s,signal,idler", [state.grid.nu_s, sig, idl]
    )

    schmidt = schmidt_decompose(state)
    rho, label = correlation_classification(state)
    fwhm_s = intensity_fwhm(state.grid.nu_s, sig)
    fwhm_i = intensity_fwhm(state.grid.nu_i, idl)
    payload = {
        "provenance": meta,
        "schmidt_number": schmidt.schmidt_number,
        "entropy_bits": schmidt.entropy_bits,
        "coefficients": [float(c) for c in schmidt.coefficients[:_N_SCHMIDT_REPORTED]],
        "rho": rho,
        "correlation": label,
        "marginal_fwhm_s_nm": omega_fwhm_to_wavelength_fwhm(lam_pdc, fwhm_s) * 1e9,
        "marginal_fwhm_i_nm": omega_fwhm_to_wavelength_fwhm(lam_pdc, fwhm_i) * 1e9,
        "warnings": state.provenance.get("warnings", []),
    }
    (outdir / "schmidt.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"simulate: wrote jsa.csv jsi.csv marginals.csv schmidt.json to {outdir}")
    print(f"  correlation: {label} (rho = {rho:+.3f}), K = {schmidt.schmidt_number:.3f}")
    return 0


def cmd_hom(args) -> int:
    n_delays = int(_resolve(args, "delay_points", 201))
    if n_delays < 2:
        raise DomainError(f"--delay-points must be >= 2, got {n_delays}")
    source = _load_source(args)
    outdir = _outdir(args)
    model = _resolve(args, "model", "numeric")
    config = _config_dict(
        args,
        ("preset", "pump_fwhm_nm", "chirp_fs2", "profile", "length_mm", "model", "grid_n",
         "grid_span_fwhms", "delay_points", "delay_span"),
    )
    meta = _meta(config)

    span = float(_resolve(args, "delay_span", 4.0))

    if model == "gaussian":
        pm = source.pm
        if pm.profile != "gaussian":
            source = preset_with_pump(source, profile="gaussian")
            pm = source.pm
        delays = default_delays(pm, n=n_delays, spans=span)
        scan = gaussian_scan(source.pump, pm, delays)
        result = extract_dip(scan, model="gaussian-analytic")
        extra = {
            "closed_form_t_c_ps": correlation_time_gaussian(pm) * 1e12,
            "visibility_coefficient": visibility_coefficient(source.pump, pm),
        }
    elif model in ("numeric", "numeric-sinc", "numeric-gaussian"):
        if model == "numeric-sinc":
            source = preset_with_pump(source, profile="sinc")
        elif model == "numeric-gaussian":
            source = preset_with_pump(source, profile="gaussian")
        state = _build_state(args, source)
        delays = default_delays(source.pm, n=n_delays, spans=span)
        scan = coincidence_scan(state, delays)
        result = extract_dip(scan, model="numeric")
        extra = {"profile": source.pm.profile}
    else:
        print(f"error: unknown hom model {model!r}", file=sys.stderr)
        return 2

    export_delay_scan(result.scan, outdir / "scan.csv", meta)
    payload = {
        "provenance": meta,
        "t_c_ps": result.t_c * 1e12,
        "visibility": result.visibility,
        "model": result.model,
    }
    payload.update(extra)
    (outdir / "hom.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"hom: t_c = {result.t_c * 1e12:.4f} ps, visibility = {result.visibility:.4f}")
    print(f"hom: wrote scan.csv hom.json to {outdir}")
    return 0


def cmd_sweep(args) -> int:
    steps = int(_resolve(args, "steps", 9))
    if steps < 1:
        raise DomainError(f"--steps must be >= 1, got {steps}")
    source = _load_source(args)
    outdir = _outdir(args)
    axis = _resolve(args, "axis")
    if axis not in ("pump_fwhm", "length", "chirp"):
        print("error: --axis must be pump_fwhm | length | chirp", file=sys.stderr)
        return 2
    start = _resolve(args, "start")
    stop = _resolve(args, "stop")
    if start is None or stop is None:
        print("error: sweep needs --start and --stop", file=sys.stderr)
        return 2
    start, stop = float(start), float(stop)
    model = _resolve(args, "model", "gaussian")
    config = _config_dict(
        args,
        ("preset", "pump_fwhm_nm", "chirp_fs2", "profile", "length_mm", "grid_n",
         "grid_span_fwhms", "axis", "start", "stop", "steps", "model"),
    )
    meta = _meta(config)

    values = np.linspace(start, stop, steps)
    t_c_ps, visibility = [], []
    for value in values:
        point = preset_with_pump(
            source,
            pump_fwhm_nm=value if axis == "pump_fwhm" else None,
            beta=value * 1e-30 if axis == "chirp" else None,
            length_scale=(value * 1e-3) / source.pm.length_L if axis == "length" else 1.0,
        )
        if model == "gaussian":
            pm = point.pm if point.pm.profile == "gaussian" else preset_with_pump(
                point, profile="gaussian"
            ).pm
            scan = gaussian_scan(point.pump, pm, default_delays(pm))
            result = extract_dip(scan, model="gaussian-analytic")
        else:
            if model == "numeric-sinc":
                point = preset_with_pump(point, profile="sinc")
            elif model == "numeric-gaussian":
                point = preset_with_pump(point, profile="gaussian")
            state = _build_state(args, point)
            scan = coincidence_scan(state, default_delays(point.pm))
            result = extract_dip(scan, model="numeric")
        t_c_ps.append(result.t_c * 1e12)
        visibility.append(result.visibility)

    write_rows(
        outdir / "sweep.csv", meta, f"{axis},t_c_ps,visibility", [values, t_c_ps, visibility]
    )
    print(f"sweep: {axis} over [{start}, {stop}] in {steps} steps -> {outdir / 'sweep.csv'}")
    return 0


def cmd_analyze(args) -> int:
    scan = load_scan(args.scan_file)
    model = _resolve(args, "model", "gaussian-dip")
    outdir = _outdir(args)
    config = _config_dict(args, ("model", "preset", "pump_fwhm_nm"))
    config["scan_sha256"] = hashlib.sha256(Path(args.scan_file).read_bytes()).hexdigest()
    meta = _meta(config)

    kernel = None
    if model == "sinc-kernel-dip":
        name = _resolve(args, "preset")
        pump_fwhm_nm = _resolve(args, "pump_fwhm_nm")
        if name is None or pump_fwhm_nm is None:
            print(
                "error: sinc-kernel-dip needs --preset and --pump-fwhm-nm for the kernel",
                file=sys.stderr,
            )
            return 2
        kernel = sinc_dip_kernel(load_preset(name), pump_fwhm_nm)

    report = fit_dip(scan, model=model, kernel=kernel)
    payload = {"provenance": meta}
    payload.update(report.to_dict())
    (outdir / "fit.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"analyze: t_c = {report.t_c * 1e12:.4f} +- {report.t_c_sigma * 1e12:.4f} ps, "
        f"visibility = {report.visibility:.4f} +- {report.visibility_sigma:.4f}"
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"analyze: wrote fit.json to {outdir}")
    return 0


def cmd_presets(args) -> int:
    for name in available_presets():
        preset = load_preset(name)
        print(f"{name}: {preset.notes}")
    return 0


def _add_source_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", help="named source preset (see `biphoton presets`)")
    sub.add_argument("--pump-fwhm-nm", type=float, dest="pump_fwhm_nm",
                     help="pump spectral intensity FWHM in nm")
    sub.add_argument("--chirp-fs2", type=float, dest="chirp_fs2",
                     help="pump quadratic spectral phase in fs^2")
    sub.add_argument("--profile", choices=("gaussian", "sinc"),
                     help="phasematching profile override")
    sub.add_argument("--length-mm", type=float, dest="length_mm",
                     help="waveguide length override in mm (rescales walk-offs)")
    sub.add_argument("--grid-n", type=int, dest="grid_n", help="grid samples per axis")
    sub.add_argument("--grid-span-fwhms", type=float, dest="grid_span_fwhms",
                     help="grid half-span in marginal FWHMs")
    sub.add_argument("--config", help="key = value config file (flags win)")
    sub.add_argument("--out", help="output directory (default $BIPHOTON_OUTDIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Photon-pair joint-spectrum simulation and interference analysis",
    )
    parser.add_argument("--version", action="version", version=f"biphoton {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="joint spectrum, marginals, Schmidt analysis")
    _add_source_options(sim)
    sim.add_argument("--filter-fwhm-nm", type=float, dest="filter_fwhm_nm",
                     help="apply a gaussian filter of this FWHM (nm) to both arms")
    sim.set_defaults(func=cmd_simulate)

    hom = subs.add_parser("hom", help="interference scan and dip readout")
    _add_source_options(hom)
    hom.add_argument("--model", choices=("numeric", "numeric-sinc", "numeric-gaussian", "gaussian"),
                     help="numeric quadrature (profile variants) or closed form")
    hom.add_argument("--delay-points", type=int, dest="delay_points")
    hom.add_argument("--delay-span", type=float, dest="delay_span",
                     help="delay half-range in predicted dip widths")
    hom.set_defaults(func=cmd_hom)

    sweep = subs.add_parser("sweep", help="dip width versus a source parameter")
    _add_source_options(sweep)
    sweep.add_argument("--axis", choices=("pump_fwhm", "length", "chirp"))
    sweep.add_argument("--start", type=float, help="first value (nm, mm or fs^2)")
    sweep.add_argument("--stop", type=float, help="last value (nm, mm or fs^2)")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--model", choices=("gaussian", "numeric-sinc", "numeric-gaussian"))
    sweep.set_defaults(func=cmd_sweep)

    analyze = subs.add_parser("analyze", help="fit a measured scan file")
    analyze.add_argument("scan_file")
    analyze.add_argument("--model", choices=("gaussian-dip", "sinc-kernel-dip"))
    analyze.add_argument("--preset", help="source preset for the sinc kernel")
    analyze.add_argument("--pump-fwhm-nm", type=float, dest="pump_fwhm_nm",
                         help="pump width for the sinc kernel")
    analyze.add_argument("--config", help="key = value config file")
    analyze.add_argument("--out", help="output directory")
    analyze.set_defaults(func=cmd_analyze)

    presets = subs.add_parser("presets", help="list shipped source presets")
    presets.set_defaults(func=cmd_presets)
    for sub in subs.choices.values():
        sub.set_defaults(_types={a.dest: a.type for a in sub._actions if a.type is not None})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = getattr(args, "config", None)
    try:
        args._config = _read_config_file(config_path, args._types) if config_path else {}
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

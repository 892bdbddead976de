"""Command-line front end: simulate | hom | sweep | analyze | presets.

Runs are deterministic: outputs carry a provenance header with the tool
version and a hash of the resolved configuration, never timestamps, so
identical configurations produce byte-identical files.

Each run is resolved once, into one options map that the command both runs
and hashes.  It holds every option of the subcommand that is set: its flag,
else its line in the ``--config`` file (``key = value``), else nothing, and
the command falls back to the preset's or its own default.  A config-file
value is cast with its flag's type and checked against its flag's choices,
so it runs and hashes exactly as the flag would; a non-finite float from
either source is refused.  A key that is an option of another subcommand is
ignored, so one file can serve several commands; a key that is an option of
no subcommand is refused as a typo.  The hash covers the whole map except
``out``, ``config`` and ``scan_file`` (``analyze`` hashes the scan file's
sha256 in its place), so no option can change an output without changing
the hash.
The output directory defaults to $BIPHOTON_OUTDIR or the current directory.
Each command computes all of its results before it creates that directory,
so a run that fails writes nothing.  ``build_jsa``'s warnings about a grid
too coarse for the source go to stderr, and a failure on such a grid names
``--grid-n``, its value and the samples per FWHM; so does a grid above the
memory budget.  A ``--delay-points`` or ``--steps`` whose scan or sweep would
exceed that budget is refused, with its flag and value, before anything large
is allocated.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
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
from .errors import DomainError, MemoryBudgetError, ParseError
from .hom import (
    DELAY_BLOCK,
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
    check_memory_budget,
    correlation_classification,
    intensity_fwhm,
    jsa_bytes,
    marginals,
    schmidt_decompose,
)
from .presets import _key_value_lines, available_presets, load_preset, preset_with_pump
from .spectral import omega_fwhm_to_wavelength_fwhm, C_M_PER_S

_N_SCHMIDT_REPORTED = 16
_GRID_N = 512

# Options that locate inputs and outputs but do not change an output's content.
_UNHASHED = {"out", "config", "scan_file"}

# Bytes charged per row of a delay scan or a sweep, a loose bound on its float
# columns and their copies: the CSV rows are formatted a block at a time, and
# tracemalloc reads 33 for a closed-form hom scan of 10^6 delays.
_BYTES_PER_ROW = 256


def _meta(opts: dict, **extra) -> dict:
    hashed = {key: value for key, value in opts.items() if key not in _UNHASHED}
    blob = json.dumps({**hashed, **extra}, sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    return {"tool": f"biphoton {__version__}", "config_sha256": digest}


def _read_config_file(path: str, actions: dict, known: frozenset) -> dict:
    """``key = value`` lines, each value cast and checked like its flag.

    The value is cast with the flag's argparse type and must be one of the
    flag's choices, so it runs and hashes the same from a flag or the file.
    Keys that are an option of another subcommand are ignored; a key in no
    subcommand's ``known`` options raises ``ParseError``.
    """
    values: dict = {}
    for lineno, key, value in _key_value_lines(Path(path).read_text(encoding="utf-8"), path):
        key = key.replace("-", "_")
        action = actions.get(key)
        if action is None:
            if key not in known:
                raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
            continue
        where = f"{path}:{lineno}: {key} = {value!r}"
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                raise DomainError(f"{where} is not a valid {action.type.__name__}") from None
        if action.choices is not None and value not in action.choices:
            raise DomainError(f"{where} is not one of {', '.join(action.choices)}")
        values[key] = value
    return values


def _options(args: argparse.Namespace) -> dict:
    """The run's options map: flag beats config file, unset options left out."""
    flags = {dest: getattr(args, dest) for dest in args._actions}
    config = (
        _read_config_file(flags["config"], args._actions, args._known)
        if flags.get("config") else {}
    )
    opts = {**config, **{key: value for key, value in flags.items() if value is not None}}
    for key, value in opts.items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = args._actions[key].option_strings[0]
            raise DomainError(f"{flag} must be a finite number, got {value}")
    return opts


def _outdir(opts: dict) -> Path:
    path = Path(opts.get("out", os.environ.get("BIPHOTON_OUTDIR", ".")))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_source(opts: dict):
    name = opts.get("preset")
    if name is None:
        raise DomainError("a --preset is required")
    preset = load_preset(name)
    length_scale = 1.0
    if "length_mm" in opts:
        length_scale = (opts["length_mm"] * 1e-3) / preset.pm.length_L
    return preset_with_pump(
        preset,
        pump_fwhm_nm=opts.get("pump_fwhm_nm"),
        beta=opts["chirp_fs2"] * 1e-30 if "chirp_fs2" in opts else None,
        profile=opts.get("profile"),
        length_scale=length_scale,
    )


@contextlib.contextmanager
def _budget_names(flag: str, value):
    """Re-raise a ``MemoryBudgetError`` as a ``DomainError`` naming ``flag`` and its ``value``."""
    try:
        yield
    except MemoryBudgetError as exc:
        raise DomainError(f"{flag} {value} is too large: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _build_state(opts: dict, source):
    """The source's JSA on the run's grid; a grid above the memory budget names ``--grid-n``."""
    n, span = opts.get("grid_n", _GRID_N), opts.get("grid_span_fwhms", 4.0)
    grid = auto_grid(source.pump, source.pm, n=n, span_fwhms=span)
    with _budget_names("--grid-n", n):
        return build_jsa(source.pump, source.pm, grid)


@contextlib.contextmanager
def _coarse_grid_reported(opts: dict, state):
    """Report the resolution warnings of ``state`` once the kernels run on it.

    If they succeed, each warning is printed on stderr.  A failure on a state
    that ``build_jsa`` found too coarse is re-raised as a ``DomainError``
    naming ``--grid-n`` and the warnings; one on a well resolved state passes
    as it is.
    """
    # build_jsa records only resolution warnings, each "<samples per marginal
    # FWHM>; results may be inaccurate" or "... not resolved on this grid"
    warnings = state.provenance.get("warnings", ())
    try:
        yield
    except ValueError as exc:
        if not warnings:
            raise
        coarse = ", ".join(w.partition(";")[0] for w in warnings)
        raise DomainError(
            f"--grid-n {opts.get('grid_n', _GRID_N)} is too coarse for this source "
            f"({coarse}): {exc}"
        ) from exc
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _dip(opts: dict, source, model: str, n_delays: int = 201, delay_span: float = 4.0):
    """HOM scan and dip readout of ``source`` under ``model``.

    ``gaussian`` is the closed form on the Gaussian-approximated profile;
    ``numeric`` integrates the gridded JSA with the source's own profile, and
    ``numeric-sinc``/``numeric-gaussian`` force that profile first.  Returns
    the ``HOMResult`` and the source the model ran on.
    """
    if model != "numeric":
        source = preset_with_pump(source, profile=model.removeprefix("numeric-"))
    state = None if model == "gaussian" else _build_state(opts, source)
    # the numeric overlap's phases of one block of delays: an (n - 1) x block
    # complex exponent and its exp
    block = min(n_delays, DELAY_BLOCK)
    phases = 0 if state is None else 2 * jsa_bytes(state.grid.n_s - 1, block)
    with _budget_names("--delay-points", n_delays):
        check_memory_budget("the delay scan", _BYTES_PER_ROW * n_delays + phases)
    delays = default_delays(source.pm, n=n_delays, spans=delay_span)
    if state is None:
        scan = gaussian_scan(source.pump, source.pm, delays)
        return extract_dip(scan, model="gaussian-analytic"), source
    with _coarse_grid_reported(opts, state):
        return extract_dip(coincidence_scan(state, delays), model="numeric"), source


def cmd_simulate(opts: dict) -> int:
    source = _load_source(opts)
    state = _build_state(opts, source)
    meta = _meta(opts)
    lam_pdc = 2 * np.pi * C_M_PER_S / source.pm.omega_s0

    with _coarse_grid_reported(opts, state):
        filter_fwhm_nm = opts.get("filter_fwhm_nm")
        if filter_fwhm_nm is not None:
            width = filter_fwhm_nm * 1e-9 * 2 * np.pi * C_M_PER_S / lam_pdc**2
            state = apply_spectral_filter(
                state,
                SpectralFilter(shape="gaussian", center=0.0, width=width, target="both"),
            )
        sig, idl = marginals(state)
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

    outdir = _outdir(opts)
    export_jsa_csv(state, outdir / "jsa.csv", meta)
    export_jsi_csv(state, outdir / "jsi.csv", meta)
    write_rows(
        outdir / "marginals.csv", meta, "nu_rad_s,signal,idler", [state.grid.nu_s, sig, idl]
    )
    _write_json(outdir / "schmidt.json", payload)
    print(f"simulate: wrote jsa.csv jsi.csv marginals.csv schmidt.json to {outdir}")
    print(f"  correlation: {label} (rho = {rho:+.3f}), K = {schmidt.schmidt_number:.3f}")
    return 0


def cmd_hom(opts: dict) -> int:
    n_delays = opts.get("delay_points", 201)
    if n_delays < 2:
        raise DomainError(f"--delay-points must be >= 2, got {n_delays}")
    delay_span = opts.get("delay_span", 4.0)
    if not delay_span > 0:
        raise DomainError(f"--delay-span must be > 0, got {delay_span}")
    source = _load_source(opts)
    model = opts.get("model", "numeric")
    meta = _meta(opts)

    result, source = _dip(opts, source, model, n_delays, delay_span)
    if model == "gaussian":
        extra = {
            "closed_form_t_c_ps": correlation_time_gaussian(source.pm) * 1e12,
            "visibility_coefficient": visibility_coefficient(source.pump, source.pm),
        }
    else:
        extra = {"profile": source.pm.profile}
    payload = {
        "provenance": meta,
        "t_c_ps": result.t_c * 1e12,
        "visibility": result.visibility,
        "model": result.model,
    }
    payload.update(extra)

    outdir = _outdir(opts)
    export_delay_scan(result.scan, outdir / "scan.csv", meta)
    _write_json(outdir / "hom.json", payload)
    print(f"hom: t_c = {result.t_c * 1e12:.4f} ps, visibility = {result.visibility:.4f}")
    print(f"hom: wrote scan.csv hom.json to {outdir}")
    return 0


def cmd_sweep(opts: dict) -> int:
    steps = opts.get("steps", 9)
    if steps < 1:
        raise DomainError(f"--steps must be >= 1, got {steps}")
    axis = opts.get("axis")
    if axis is None:
        print("error: --axis must be pump_fwhm | length | chirp", file=sys.stderr)
        return 2
    start = opts.get("start")
    stop = opts.get("stop")
    if start is None or stop is None:
        print("error: sweep needs --start and --stop", file=sys.stderr)
        return 2
    with _budget_names("--steps", steps):
        check_memory_budget("the sweep", _BYTES_PER_ROW * steps)
    source = _load_source(opts)
    model = opts.get("model", "gaussian")
    meta = _meta(opts)

    values = np.linspace(start, stop, steps)
    t_c_ps, visibility = [], []
    for value in values:
        point = preset_with_pump(
            source,
            pump_fwhm_nm=value if axis == "pump_fwhm" else None,
            beta=value * 1e-30 if axis == "chirp" else None,
            length_scale=(value * 1e-3) / source.pm.length_L if axis == "length" else 1.0,
        )
        result, _ = _dip(opts, point, model)
        t_c_ps.append(result.t_c * 1e12)
        visibility.append(result.visibility)

    outdir = _outdir(opts)
    write_rows(
        outdir / "sweep.csv", meta, f"{axis},t_c_ps,visibility", [values, t_c_ps, visibility]
    )
    print(f"sweep: {axis} over [{start}, {stop}] in {steps} steps -> {outdir / 'sweep.csv'}")
    return 0


def cmd_analyze(opts: dict) -> int:
    scan = load_scan(opts["scan_file"])
    model = opts.get("model", "gaussian-dip")
    name = opts.get("preset")
    pump_fwhm_nm = opts.get("pump_fwhm_nm")
    if model == "sinc-kernel-dip" and (name is None or pump_fwhm_nm is None):
        print(
            "error: sinc-kernel-dip needs --preset and --pump-fwhm-nm for the kernel",
            file=sys.stderr,
        )
        return 2
    scan_sha256 = hashlib.sha256(Path(opts["scan_file"]).read_bytes()).hexdigest()
    meta = _meta(opts, scan_sha256=scan_sha256)

    kernel = None
    if model == "sinc-kernel-dip":
        kernel = sinc_dip_kernel(load_preset(name), pump_fwhm_nm)

    report = fit_dip(scan, model=model, kernel=kernel)
    payload = {"provenance": meta}
    payload.update(report.to_dict())
    outdir = _outdir(opts)
    _write_json(outdir / "fit.json", payload)
    print(
        f"analyze: t_c = {report.t_c * 1e12:.4f} +- {report.t_c_sigma * 1e12:.4f} ps, "
        f"visibility = {report.visibility:.4f} +- {report.visibility_sigma:.4f}"
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"analyze: wrote fit.json to {outdir}")
    return 0


def cmd_presets(opts: dict) -> int:
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
    actions = {
        name: {a.dest: a for a in sub._actions if a.dest != "help"}
        for name, sub in subs.choices.items()
    }
    known = frozenset().union(*actions.values())
    for name, sub in subs.choices.items():
        sub.set_defaults(_actions=actions[name], _known=known)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_options(args))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

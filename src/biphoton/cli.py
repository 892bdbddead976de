"""Command-line front end: simulate | hom | sweep | analyze | presets.

Runs are deterministic: outputs carry a provenance header with the tool
version and a hash of the resolved configuration, never timestamps, so
identical configurations produce byte-identical files, at any BLAS thread
setting: ``main`` first sets numpy's OpenBLAS to one thread.

Each run is resolved once, into one options map that the command both runs
and hashes.  It holds every option of the subcommand that is set: its flag,
else its line in the ``--config`` file (``key = value``), else nothing, and
the command falls back to the preset's or its own default.  A config-file
value is cast with its flag's type and checked against its flag's choices,
so it runs and hashes exactly as the flag would; a non-finite float from
either source is refused, and so is a value below its option's bound in
``_LOWER_BOUNDS``, with the flag named; a sweep's ``--start`` and ``--stop``
are held to the bound of the option its axis replaces.  A key that is an
option of another subcommand is ignored, so one file can serve several
commands; a key that is an option of no subcommand is refused as a typo.  The hash covers the whole
map except ``out``, ``config`` and ``scan_file`` (``analyze`` hashes the scan
file's sha256 in its place), so no option can change an output without
changing the hash.
The output directory defaults to $BIPHOTON_OUTDIR or the current directory.
Each command computes all of its results before it creates that directory,
so a run that fails writes nothing.  Its stdout report comes last, after the
files, and a closed stdout does not fail the run.  Each step that may warn hands
``_warnings_reported`` a ``(cause, warnings)`` pair naming its flag, picking
its warnings by their ``Diagnostic`` code: the grid (``--grid-n``, or
``--grid-span-fwhms`` for an ``unresolved-marginal`` on a window that cuts a
marginal's half maximum), ``simulate``'s filter (``--filter-fwhm-nm``, its
``coarse-filter``) and a numeric scan whose delays span the grid's delay
period 2 pi / dnu (``aliased-scan``: ``--grid-n`` and ``--delay-span``;
``--grid-n`` alone in a sweep).  The warnings go to stderr, and a failure on
a state with warnings names each cause with each warning's finding.  A
grid above the memory budget names ``--grid-n`` too.  A ``--delay-points`` or
``--steps`` whose scan or sweep would exceed that budget is refused, with its
flag and value, before anything large is allocated.

A sweep point is the run with its axis's option (``pump_fwhm_nm``, ``length_mm``
or ``chirp_fs2``) set to the point's value, a Python float as the flag's
would be, and a profile-forcing ``--model`` sets ``profile``: both resolve
through ``_load_source``, as the run does.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import operator
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
from .errors import Diagnostic, DomainError, MemoryBudgetError, ParseError
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
    check_memory_budget,
    correlation_classification,
    intensity_fwhm,
    marginals,
    schmidt_decompose,
)
from .presets import _key_value_lines, available_presets, load_preset, preset_with_pump
from .spectral import C_M_PER_S, PROFILES, omega_fwhm_to_wavelength_fwhm

_N_SCHMIDT_REPORTED = 16
_GRID_N = 512

# Options that locate inputs and outputs but do not change an output's content.
_UNHASHED = {"out", "config", "scan_file"}

# Bytes charged per row of a delay scan or a sweep, a loose bound on its float
# columns and their copies: the CSV rows are formatted a block at a time, and
# tracemalloc reads 25.07 for a closed-form hom scan of 10^6 delays.
_BYTES_PER_ROW = 256

# OpenBLAS's thread-count setter in the scipy-openblas builds of numpy's wheels
# (64-bit and 32-bit integers) and in plain OpenBLAS.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads")

# Each numeric option's lower bound, for its flag and its config value alike:
# a count's least value, and 0 for a width, span or length, which must exceed it.
_LOWER_BOUNDS = {
    "grid_n": (">=", 2), "delay_points": (">=", 2), "steps": (">=", 1),
    **{key: (">", 0) for key in ("grid_span_fwhms", "delay_span", "pump_fwhm_nm",
                                 "length_mm", "filter_fwhm_nm")},
}
_RELATIONS = {">=": operator.ge, ">": operator.gt}

# Each sweep axis and the option its points replace (see the module docstring).
_SWEEP_AXES = {"pump_fwhm": "pump_fwhm_nm", "length": "length_mm", "chirp": "chirp_fs2"}


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
    # a sweep's ends are held to the bound of the option its axis replaces
    replaced = _SWEEP_AXES.get(opts.get("axis"))
    for key, value in opts.items():
        bounded = replaced if key in ("start", "stop") else key
        relation, bound = _LOWER_BOUNDS.get(bounded, (None, None))
        if isinstance(value, float) and not math.isfinite(value):
            need = "a finite number"
        elif relation is not None and not _RELATIONS[relation](value, bound):
            need = f"{relation} {bound}"
        else:
            continue
        flag = args._actions[key].option_strings[0]
        raise DomainError(f"{flag} must be {need}, got {value}")
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


def _report(*lines: str) -> None:
    """Print the run's report on stdout, its last output: a closed stdout does not fail the run.

    On a ``BrokenPipeError`` stdout is pointed at devnull, since Python
    flushes it again at exit (the ``signal`` module's note on SIGPIPE).
    """
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _build_state(opts: dict, source):
    """The source's JSA on the run's grid, and the build's ``(cause, warnings)`` pairs.

    A window under half the marginal estimate ``auto_grid`` sizes it by each
    side cuts the half maximum itself: a marginal FWHM not resolved on it
    blames ``--grid-span-fwhms``, every other warning ``--grid-n``.
    """
    n, span = opts.get("grid_n", _GRID_N), opts.get("grid_span_fwhms", 4.0)
    grid = auto_grid(source.pump, source.pm, n=n, span_fwhms=span)
    with _budget_names("--grid-n", n):
        state = build_jsa(source.pump, source.pm, grid)
    warnings = state.provenance["warnings"]
    cut = [w for w in warnings if span < 0.5 and w.code == "unresolved-marginal"]
    return state, [
        (f"--grid-n {n} is too coarse for this source", [w for w in warnings if w not in cut]),
        (f"--grid-span-fwhms {span} is too narrow for this source", cut),
    ]


@contextlib.contextmanager
def _warnings_reported(blamed: list[tuple[str, list[Diagnostic]]]):
    """Print the warnings of ``blamed``, ``(cause, warnings)`` pairs in order, if the body succeeds.

    A ``ValueError`` while any cause has warnings becomes one ``DomainError``
    naming each such cause with its warnings' findings.
    """
    try:
        yield
    except ValueError as exc:
        if not any(found for _, found in blamed):
            raise
        causes = " and ".join(
            f"{cause} ({', '.join(w.finding for w in found)})"
            for cause, found in blamed if found
        )
        raise DomainError(f"{causes}: {exc}") from exc
    for _, found in blamed:
        for warning in found:
            print(f"warning: {warning}", file=sys.stderr)


def _aliasing(opts: dict, state, delays, delay_span) -> list[tuple[str, list[Diagnostic]]]:
    """``[(cause, [warning])]`` for a scan whose delays span the grid's delay period, else ``[]``.

    The numeric rates repeat with period 2 pi / dnu, so such a scan reads the
    dips of the neighbouring periods.  ``delay_span`` is the run's
    ``--delay-span``, None for a sweep, which has no such flag.
    """
    span = float(delays[-1] - delays[0])
    period = 2.0 * math.pi / state.grid.d_nu_s
    if span < period:
        return []
    grid_n = f"--grid-n {opts.get('grid_n', _GRID_N)}"
    if delay_span is None:
        cause, fix = f"{grid_n} aliases the scan", "raise --grid-n"
    else:
        cause = f"{grid_n} and --delay-span {delay_span} alias the scan"
        fix = "raise --grid-n or lower --delay-span"
    return [(cause, [Diagnostic("aliased-scan", f"the delay scan spans {span * 1e12:.4g} ps, at "
                                f"least the grid's delay period 2 pi / dnu = {period * 1e12:.4g} "
                                f"ps, and reads aliased dips: {fix}")])]


def _dip(opts: dict, model: str, n_delays: int = 201, delay_span: float | None = None):
    """HOM scan and dip readout of the run ``opts`` describes, under ``model``.

    ``gaussian`` is the closed form on the Gaussian-approximated profile;
    ``numeric`` integrates the gridded JSA with the source's own profile, and
    ``numeric-sinc``/``numeric-gaussian`` force that profile first.  The scan
    covers ``delay_span`` (``--delay-span``; None, as in a sweep, is 4)
    predicted dip widths each side; a numeric scan that spans the grid's
    delay period warns and, if it then fails, names the flags that set it.
    Returns the ``HOMResult`` and the model's own fields of ``hom.json``.
    """
    if model != "numeric":
        opts = {**opts, "profile": model.removeprefix("numeric-")}
    source = _load_source(opts)
    with _budget_names("--delay-points", n_delays):
        check_memory_budget("the delay scan", _BYTES_PER_ROW * n_delays)
    state, blamed = (None, []) if model == "gaussian" else _build_state(opts, source)
    delays = default_delays(source.pm, n=n_delays, spans=4.0 if delay_span is None else delay_span)
    if state is None:
        scan = gaussian_scan(source.pump, source.pm, delays)
        return extract_dip(scan, model="gaussian-analytic"), {
            "closed_form_t_c_ps": correlation_time_gaussian(source.pm) * 1e12,
            "visibility_coefficient": visibility_coefficient(source.pump, source.pm),
        }
    with _warnings_reported(blamed + _aliasing(opts, state, delays, delay_span)):
        result = extract_dip(coincidence_scan(state, delays), model="numeric")
    return result, {"profile": source.pm.profile}


def cmd_simulate(opts: dict) -> int:
    source = _load_source(opts)
    state, blamed = _build_state(opts, source)
    meta = _meta(opts)
    # each arm's width at that arm's own carrier; the one filter width at the signal's
    lam_s, lam_i = (2 * np.pi * C_M_PER_S / w for w in (source.pm.omega_s0, source.pm.omega_i0))

    filter_fwhm_nm = opts.get("filter_fwhm_nm")
    if filter_fwhm_nm is not None:
        width = filter_fwhm_nm * 1e-9 * 2 * np.pi * C_M_PER_S / lam_s**2
        filt = SpectralFilter(shape="gaussian", center=0.0, width=width, target="both")
        state = apply_spectral_filter(state, filt)
        blamed.append((f"--filter-fwhm-nm {filter_fwhm_nm} is too narrow for this grid",
                       [w for w in state.provenance["warnings"] if w.code == "coarse-filter"]))
    with _warnings_reported(blamed):
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
        "marginal_fwhm_s_nm": omega_fwhm_to_wavelength_fwhm(lam_s, fwhm_s) * 1e9,
        "marginal_fwhm_i_nm": omega_fwhm_to_wavelength_fwhm(lam_i, fwhm_i) * 1e9,
        "warnings": state.provenance.get("warnings", []),
    }

    outdir = _outdir(opts)
    export_jsa_csv(state, outdir / "jsa.csv", meta)
    export_jsi_csv(state, outdir / "jsi.csv", meta)
    write_rows(
        outdir / "marginals.csv", meta, "nu_rad_s,signal,idler", [state.grid.nu_s, sig, idl]
    )
    _write_json(outdir / "schmidt.json", payload)
    _report(f"simulate: wrote jsa.csv jsi.csv marginals.csv schmidt.json to {outdir}",
            f"  correlation: {label} (rho = {rho:+.3f}), K = {schmidt.schmidt_number:.3f}")
    return 0


def cmd_hom(opts: dict) -> int:
    n_delays = opts.get("delay_points", 201)
    delay_span = opts.get("delay_span", 4.0)
    meta = _meta(opts)

    result, fields = _dip(opts, opts.get("model", "numeric"), n_delays, delay_span)
    payload = {
        "provenance": meta,
        "t_c_ps": result.t_c * 1e12,
        "visibility": result.visibility,
        "model": result.model,
        **fields,
    }

    outdir = _outdir(opts)
    export_delay_scan(result.scan, outdir / "scan.csv", meta)
    _write_json(outdir / "hom.json", payload)
    _report(f"hom: t_c = {result.t_c * 1e12:.4f} ps, visibility = {result.visibility:.4f}",
            f"hom: wrote scan.csv hom.json to {outdir}")
    return 0


def cmd_sweep(opts: dict) -> int:
    steps = opts.get("steps", 9)
    axis = opts.get("axis")
    if axis is None:
        print(f"error: --axis must be {' | '.join(_SWEEP_AXES)}", file=sys.stderr)
        return 2
    start = opts.get("start")
    stop = opts.get("stop")
    if start is None or stop is None:
        print("error: sweep needs --start and --stop", file=sys.stderr)
        return 2
    with _budget_names("--steps", steps):
        check_memory_budget("the sweep", _BYTES_PER_ROW * steps)
    # the run's own options must hold, the one the axis replaces included
    _load_source(opts)
    model = opts.get("model", "gaussian")
    meta = _meta(opts)

    values = np.linspace(start, stop, steps)
    t_c_ps, visibility = [], []
    for value in values.tolist():
        result, _ = _dip({**opts, _SWEEP_AXES[axis]: value}, model)
        t_c_ps.append(result.t_c * 1e12)
        visibility.append(result.visibility)

    outdir = _outdir(opts)
    write_rows(
        outdir / "sweep.csv", meta, f"{axis},t_c_ps,visibility", [values, t_c_ps, visibility]
    )
    _report(f"sweep: {axis} over [{start}, {stop}] in {steps} steps -> {outdir / 'sweep.csv'}")
    return 0


def cmd_analyze(opts: dict) -> int:
    scan = load_scan(opts["scan_file"])
    model = opts.get("model", "gaussian-dip")
    kernel = None
    if model == "sinc-kernel-dip":
        name, pump_fwhm_nm = opts.get("preset"), opts.get("pump_fwhm_nm")
        if name is None or pump_fwhm_nm is None:
            print("error: sinc-kernel-dip needs --preset and --pump-fwhm-nm for the kernel",
                  file=sys.stderr)
            return 2
        kernel = sinc_dip_kernel(load_preset(name), pump_fwhm_nm)
    scan_sha256 = hashlib.sha256(Path(opts["scan_file"]).read_bytes()).hexdigest()
    meta = _meta(opts, scan_sha256=scan_sha256)

    report = fit_dip(scan, kernel)
    payload = {"provenance": meta}
    payload.update(report.to_dict())
    outdir = _outdir(opts)
    _write_json(outdir / "fit.json", payload)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _report(
        f"analyze: t_c = {report.t_c * 1e12:.4f} +- {report.t_c_sigma * 1e12:.4f} ps, "
        f"visibility = {report.visibility:.4f} +- {report.visibility_sigma:.4f}",
        f"analyze: wrote fit.json to {outdir}",
    )
    return 0


def cmd_presets(opts: dict) -> int:
    _report(*(f"{name}: {load_preset(name).notes}" for name in available_presets()))
    return 0


def _add_source_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--preset", help="named source preset (see `biphoton presets`)")
    sub.add_argument("--pump-fwhm-nm", type=float,
                     help="pump spectral amplitude FWHM in nm (1/sqrt(2) of it in intensity)")
    sub.add_argument("--chirp-fs2", type=float, help="pump quadratic spectral phase in fs^2")
    sub.add_argument("--profile", choices=PROFILES,
                     help="phasematching profile override")
    sub.add_argument("--length-mm", type=float,
                     help="waveguide length override in mm (rescales walk-offs)")
    sub.add_argument("--grid-n", type=int, help="grid samples per axis")
    sub.add_argument("--grid-span-fwhms", type=float, help="grid half-span in marginal FWHMs")
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
    sim.add_argument("--filter-fwhm-nm", type=float,
                     help="apply a gaussian filter of this FWHM (nm) to both arms")
    sim.set_defaults(func=cmd_simulate)

    hom = subs.add_parser("hom", help="interference scan and dip readout")
    _add_source_options(hom)
    hom.add_argument("--model", choices=("numeric", "numeric-sinc", "numeric-gaussian", "gaussian"),
                     help="numeric quadrature (profile variants) or closed form")
    hom.add_argument("--delay-points", type=int)
    hom.add_argument("--delay-span", type=float, help="delay half-range in predicted dip widths")
    hom.set_defaults(func=cmd_hom)

    sweep = subs.add_parser("sweep", help="dip width versus a source parameter")
    _add_source_options(sweep)
    sweep.add_argument("--axis", choices=tuple(_SWEEP_AXES))
    sweep.add_argument("--start", type=float, help="first value (nm, mm or fs^2)")
    sweep.add_argument("--stop", type=float, help="last value (nm, mm or fs^2)")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--model", choices=("gaussian", "numeric-sinc", "numeric-gaussian"))
    sweep.set_defaults(func=cmd_sweep)

    analyze = subs.add_parser("analyze", help="fit a measured scan file")
    analyze.add_argument("scan_file")
    analyze.add_argument("--model", choices=("gaussian-dip", "sinc-kernel-dip"))
    analyze.add_argument("--preset", help="source preset for the sinc kernel")
    analyze.add_argument("--pump-fwhm-nm", type=float, help="pump width for the sinc kernel")
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
    parser.set_defaults(_one_value_flags=frozenset(
        flag for acts in actions.values() for a in acts.values() if a.nargs is None
        for flag in a.option_strings
    ))
    return parser


def _negatives_joined(argv: list[str], flags: frozenset) -> list[str]:
    """``argv`` with each one-value flag followed by a negative number joined as ``--flag=-2e4``.

    argparse reads a token that starts with ``-`` as a flag unless it matches
    its negative-number pattern, which has no exponent form.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in flags and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _one_blas_thread() -> None:
    """Set numpy's OpenBLAS to one thread: a threaded product rounds a large
    grid by how its threads split the rows.  Or warn that the bits may vary.

    The setter is called through ctypes on the OpenBLAS that numpy's wheel
    ships in ``numpy.libs``, the technique of threadpoolctl
    (https://github.com/joblib/threadpoolctl).
    """
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the library numpy has loaded, not a second copy
        for setter in filter(None, (getattr(lib, name, None) for name in _BLAS_THREAD_SETTERS)):
            setter(1)
            return
    print("warning: cannot set numpy's BLAS to one thread; output bits may depend on "
          "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS", file=sys.stderr)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_negatives_joined(argv, parser.get_default("_one_value_flags")))
    try:
        return args.func(_options(args))
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

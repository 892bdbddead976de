"""The three benchmark workloads: seeded inputs, one op, and its output checks.

Each workload is a closed loop with one client.  ``setup`` draws a small
pool of configs from the seed and precomputes every expected value, so the
checks after an op call nothing in the package.  ``run_op(i, tracer)``
picks op ``i``'s config from the pool (configs repeat, which is what a
cache would exploit), runs it, times only the program's part and returns
the problems its checks found.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from biphoton import dataio, hom, jsa, presets, spectral, temporal

BENCH = Path(__file__).resolve().parent
PRESET = "ppktp-8mm"
CHILD_TIMEOUT_S = 120
CHILD_SPANS = "child-spans.json"

# Seeded input ranges; every op passes its checks over all of them.
PUMP_FWHM_NM = (1.0, 4.0)
CHIRP_FS2 = (-5000.0, 5000.0)
LENGTH_MM = (6.0, 12.0)
FILTER_FWHM_NM = (2.0, 6.0)
DELAY_POINTS = 201
TABLE_WIDTHS = 5
SWEEP_STEPS = 15

# The readout interpolates the dip between delay samples (step 0.04 FWHM),
# which moves the FWHM by up to ~3e-4 of itself.
DIP_WIDTH_RTOL = 1e-3
# Same code on the same inputs: only summation order could differ.
SAME_CODE_RTOL = 1e-6
# load_jsi must give back the intensities written with 9 significant digits;
# the sqrt and square on the way add a few ulp.
ROUND_TRIP_RTOL = 6e-9
# The numeric Gaussian-profile scan against its closed form (criterion 01).
GAUSSIAN_SCAN_ATOL = 1e-6
FIT_SIGMAS = 5.0


@dataclass
class Context:
    work: Path
    env: dict
    seed: int
    grid_n: int

    @property
    def out(self) -> Path:
        return self.work / "out"


@dataclass
class OpResult:
    elapsed: float
    key: str
    digest: str
    problems: list[str] = field(default_factory=list)


def pick(seed: int, i: int, size: int) -> int:
    """Pool index of op ``i``: the same for every run with this seed."""
    return int(np.random.default_rng([seed, 1, i]).integers(size))


def fmt(x: float) -> str:
    return f"{x:.4f}"


def base_preset():
    return presets.load_preset(PRESET)


def seeded_source(base, width: str, chirp: str, length: str, profile=None):
    """The source the CLI resolves from ``--pump-fwhm-nm/--chirp-fs2/--length-mm``."""
    return presets.preset_with_pump(
        base,
        pump_fwhm_nm=float(width),
        beta=float(chirp) * 1e-30,
        profile=profile,
        length_scale=float(length) * 1e-3 / base.pm.length_L,
    )


def draw_source_args(rng) -> tuple[str, str, str]:
    return (
        fmt(rng.uniform(*PUMP_FWHM_NM)),
        fmt(rng.uniform(*CHIRP_FS2)),
        fmt(rng.uniform(*LENGTH_MM)),
    )


def reset_out(ctx: Context) -> None:
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.out.mkdir(parents=True)


def digest_outputs(ctx: Context, stdout: bytes = b"") -> str:
    h = hashlib.sha256(stdout)
    for path in sorted(ctx.out.iterdir()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def maybe_span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def run_cli(ctx: Context, argv: list[str], traced: bool):
    """One CLI command in a child process.

    Untraced it is ``python -m biphoton.cli``; traced it is the same
    ``main(argv)`` under :mod:`cli_child`, which writes its spans to
    ``CHILD_SPANS`` for :func:`adopt_child_spans`.
    """
    if traced:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), CHILD_SPANS, *argv]
    else:
        cmd = [sys.executable, "-m", "biphoton.cli", *argv]
    return subprocess.run(
        cmd, cwd=ctx.work, env=ctx.env, capture_output=True, timeout=CHILD_TIMEOUT_S
    )


def adopt_child_spans(ctx: Context, tracer, parent) -> None:
    path = ctx.work / CHILD_SPANS
    if tracer is not None and path.exists():
        tracer.adopt(json.loads(path.read_text(encoding="utf-8")), parent)
        path.unlink()


def exit_problems(proc) -> list[str]:
    if proc.returncode == 0:
        return []
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
    return [f"exit code {proc.returncode}: {' '.join(tail)}"]


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class CliShort:
    """Short CLI commands, one child interpreter each, in a fixed cycle."""

    name = "cli-short"
    MIX = ("presets", "hom_gaussian", "hom_numeric_sinc", "sweep", "analyze")
    POOL = 3
    IN_PROCESS = False
    SMOKE_OPS = len(MIX)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        ctx, base = self.ctx, base_preset()
        rng = np.random.default_rng([ctx.seed, 0])
        self.pool: dict[str, list[tuple[list[str], dict]]] = {"presets": [(["presets"], {})]}

        self.pool["hom_gaussian"] = []
        for _ in range(self.POOL):
            w, c, length = draw_source_args(rng)
            src = seeded_source(base, w, c, length)
            argv = ["hom", "--preset", PRESET, "--model", "gaussian", "--pump-fwhm-nm", w,
                    "--chirp-fs2", c, "--length-mm", length, "--out", "out"]
            want = {
                "t_c_ps": hom.correlation_time_gaussian(src.pm) * 1e12,
                "visibility": hom.visibility_coefficient(src.pump, src.pm),
            }
            self.pool["hom_gaussian"].append((argv, want))

        self.pool["hom_numeric_sinc"] = []
        for _ in range(self.POOL):
            w, c, length = draw_source_args(rng)
            src = presets.preset_with_pump(seeded_source(base, w, c, length), profile="sinc")
            state = jsa.build_jsa(src.pump, src.pm, jsa.auto_grid(src.pump, src.pm, n=ctx.grid_n))
            delays = hom.default_delays(src.pm, n=DELAY_POINTS)
            dip = hom.extract_dip(hom.coincidence_scan(state, delays), model="numeric")
            argv = ["hom", "--preset", PRESET, "--model", "numeric-sinc", "--grid-n",
                    str(ctx.grid_n), "--pump-fwhm-nm", w, "--chirp-fs2", c, "--length-mm",
                    length, "--out", "out"]
            want = {"t_c_ps": dip.t_c * 1e12, "visibility": dip.visibility}
            self.pool["hom_numeric_sinc"].append((argv, want))

        self.pool["sweep"] = []
        axes = {"pump_fwhm": ((0.5, 1.5), (3.0, 5.0)), "length": ((4.0, 6.0), (10.0, 16.0)),
                "chirp": ((-8000.0, -2000.0), (2000.0, 8000.0))}
        for axis in axes:
            lo, hi = axes[axis]
            start, stop = fmt(rng.uniform(*lo)), fmt(rng.uniform(*hi))
            rows = []
            for value in np.linspace(float(start), float(stop), SWEEP_STEPS):
                point = presets.preset_with_pump(
                    base,
                    pump_fwhm_nm=value if axis == "pump_fwhm" else None,
                    beta=value * 1e-30 if axis == "chirp" else base.pump.beta,
                    length_scale=value * 1e-3 / base.pm.length_L if axis == "length" else 1.0,
                )
                rows.append((hom.correlation_time_gaussian(point.pm) * 1e12,
                             hom.visibility_coefficient(point.pump, point.pm)))
            argv = ["sweep", "--preset", PRESET, "--model", "gaussian", "--axis", axis,
                    "--start", start, "--stop", stop, "--steps", str(SWEEP_STEPS),
                    "--out", "out"]
            self.pool["sweep"].append((argv, {"rows": rows}))

        self.pool["analyze"] = []
        for k in range(self.POOL):
            t_c_ps = rng.uniform(0.8, 2.0)
            visibility = rng.uniform(0.6, 0.95)
            baseline = rng.uniform(2000.0, 8000.0)
            delays_ps = np.linspace(-3.0 * t_c_ps, 3.0 * t_c_ps, 81)
            mean = baseline * (1.0 - visibility * np.exp(-4.0 * np.log(2.0) * (delays_ps / t_c_ps) ** 2))
            counts = rng.poisson(mean)
            lines = ["delay_ps,coincidences"]
            lines += [f"{d:.6f},{int(n)}" for d, n in zip(delays_ps, counts)]
            name = f"scan-{k}.csv"
            (ctx.work / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            argv = ["analyze", name, "--model", "gaussian-dip", "--out", "out"]
            self.pool["analyze"].append((argv, {"t_c_ps": t_c_ps}))

    def run_op(self, i: int, tracer) -> OpResult:
        kind = self.MIX[i % len(self.MIX)]
        index = pick(self.ctx.seed, i, len(self.pool[kind]))
        argv, want = self.pool[kind][index]
        reset_out(self.ctx)
        with maybe_span(tracer, f"op.{kind}") as op_span:
            start = time.perf_counter()
            proc = run_cli(self.ctx, argv, tracer is not None)
            elapsed = time.perf_counter() - start
        adopt_child_spans(self.ctx, tracer, op_span)
        problems = exit_problems(proc) or getattr(self, f"_check_{kind}")(want)
        return OpResult(elapsed, f"{kind}/{index}", digest_outputs(self.ctx, proc.stdout), problems)

    def _check_presets(self, want) -> list[str]:
        return []

    def _check_hom(self, want, rtol_t_c: float) -> list[str]:
        got = read_json(self.ctx.out / "hom.json")
        problems = []
        if rel_err(got["t_c_ps"], want["t_c_ps"]) > rtol_t_c:
            problems.append(f"dip width {got['t_c_ps']} ps, expected {want['t_c_ps']} ps")
        if rel_err(got["visibility"], want["visibility"]) > SAME_CODE_RTOL:
            problems.append(f"visibility {got['visibility']}, expected {want['visibility']}")
        return problems

    def _check_hom_gaussian(self, want) -> list[str]:
        return self._check_hom(want, DIP_WIDTH_RTOL)

    def _check_hom_numeric_sinc(self, want) -> list[str]:
        return self._check_hom(want, SAME_CODE_RTOL)

    def _check_sweep(self, want) -> list[str]:
        lines = (self.ctx.out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
        if len(rows) != len(want["rows"]):
            return [f"sweep wrote {len(rows)} rows, expected {len(want['rows'])}"]
        problems = []
        for (_, t_c, vis), (want_t_c, want_vis) in zip(rows, want["rows"]):
            if rel_err(t_c, want_t_c) > DIP_WIDTH_RTOL or rel_err(vis, want_vis) > SAME_CODE_RTOL:
                problems.append(f"sweep row ({t_c}, {vis}) != closed form ({want_t_c}, {want_vis})")
        return problems

    def _check_analyze(self, want) -> list[str]:
        got = read_json(self.ctx.out / "fit.json")
        miss = abs(got["t_c_ps"] - want["t_c_ps"])
        if not miss <= FIT_SIGMAS * got["t_c_sigma_ps"]:
            return [f"fit {got['t_c_ps']} +- {got['t_c_sigma_ps']} ps misses {want['t_c_ps']} ps"]
        return []


class SimulateRoundtrip:
    """``simulate`` at n=512 in a child, then ``load_jsi`` on its jsi.csv in-process."""

    name = "simulate-roundtrip"
    POOL = 3
    IN_PROCESS = False
    SMOKE_OPS = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        ctx, base = self.ctx, base_preset()
        rng = np.random.default_rng([ctx.seed, 0])
        self.pool = []
        for k in range(self.POOL):
            w, c = fmt(rng.uniform(*PUMP_FWHM_NM)), fmt(rng.uniform(*CHIRP_FS2))
            filter_nm = fmt(rng.uniform(*FILTER_FWHM_NM)) if k % 2 else None
            argv = ["simulate", "--preset", PRESET, "--profile", "sinc", "--grid-n",
                    str(ctx.grid_n), "--pump-fwhm-nm", w, "--chirp-fs2", c, "--out", "out"]
            src = presets.preset_with_pump(
                base, pump_fwhm_nm=float(w), beta=float(c) * 1e-30, profile="sinc"
            )
            state = jsa.build_jsa(src.pump, src.pm, jsa.auto_grid(src.pump, src.pm, n=ctx.grid_n))
            if filter_nm is not None:
                argv += ["--filter-fwhm-nm", filter_nm]
                lam = 2 * np.pi * spectral.C_M_PER_S / src.pm.omega_s0
                width = float(filter_nm) * 1e-9 * 2 * np.pi * spectral.C_M_PER_S / lam**2
                state = jsa.apply_spectral_filter(
                    state, jsa.SpectralFilter(shape="gaussian", center=0.0, width=width, target="both")
                )
            want = {
                "intensity": jsa.jsi(state),
                "schmidt_number": jsa.schmidt_decompose(state).schmidt_number,
            }
            self.pool.append((argv, want))

    def run_op(self, i: int, tracer) -> OpResult:
        index = pick(self.ctx.seed, i, len(self.pool))
        argv, want = self.pool[index]
        reset_out(self.ctx)
        with maybe_span(tracer, "op.simulate") as op_span:
            start = time.perf_counter()
            proc = run_cli(self.ctx, argv, tracer is not None)
            loaded = dataio.load_jsi(self.ctx.out / "jsi.csv") if proc.returncode == 0 else None
            elapsed = time.perf_counter() - start
        adopt_child_spans(self.ctx, tracer, op_span)
        problems = exit_problems(proc) or self._check(loaded, want)
        return OpResult(elapsed, f"simulate/{index}", digest_outputs(self.ctx), problems)

    def _check(self, loaded, want) -> list[str]:
        problems = []
        for name in ("jsa.csv", "jsi.csv", "marginals.csv", "schmidt.json"):
            if not (self.ctx.out / name).is_file():
                problems.append(f"simulate did not write {name}")
        ref = want["intensity"]
        got = np.asarray(loaded.amplitude) ** 2
        if got.shape != ref.shape:
            problems.append(f"load_jsi grid {got.shape}, written {ref.shape}")
        elif np.any(np.abs(got - ref) > ROUND_TRIP_RTOL * ref + 1e-300):
            worst = float(np.max(np.abs(got - ref) / np.maximum(ref, 1e-300)))
            problems.append(f"load_jsi intensities off by {worst:.2e} relative")
        k = read_json(self.ctx.out / "schmidt.json")["schmidt_number"]
        if k < 1.0 or rel_err(k, want["schmidt_number"]) > SAME_CODE_RTOL:
            problems.append(f"Schmidt number {k}, expected {want['schmidt_number']}")
        return problems


class KernelsN512:
    """The physics kernels in-process on one seeded source per op; nothing written."""

    name = "kernels-n512"
    POOL = 3
    IN_PROCESS = True
    SMOKE_OPS = 2

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        ctx, base = self.ctx, base_preset()
        rng = np.random.default_rng([ctx.seed, 0])
        self.pool = []
        for k in range(self.POOL):
            profile = ("gaussian", "sinc")[k % 2] if k < 2 else str(rng.choice(["gaussian", "sinc"]))
            src = seeded_source(base, *draw_source_args(rng), profile=profile)
            widths = np.sort(rng.uniform(*PUMP_FWHM_NM, TABLE_WIDTHS))
            delays = hom.default_delays(src.pm, n=DELAY_POINTS)
            closed_form = (
                hom.coincidence_rate_gaussian(src.pump, src.pm, delays)
                if profile == "gaussian" else None
            )
            self.pool.append((src, widths, delays, closed_form))

    def run_op(self, i: int, tracer) -> OpResult:
        index = pick(self.ctx.seed, i, len(self.pool))
        src, widths, delays, closed_form = self.pool[index]
        with maybe_span(tracer, "op.kernels"):
            start = time.perf_counter()
            out = self._kernels(src, widths, delays)
            elapsed = time.perf_counter() - start
        scan, dip, schmidt, rho, timing, rows = out
        problems = []
        if closed_form is not None:
            worst = float(np.max(np.abs(scan.rates - closed_form)))
            if worst > GAUSSIAN_SCAN_ATOL:
                problems.append(f"numeric Gaussian scan off its closed form by {worst:.2e}")
        norm = float(np.sum(schmidt.coefficients**2))
        if abs(norm - 1.0) > 1e-9 or schmidt.schmidt_number < 1.0:
            problems.append(f"Schmidt coefficients norm {norm}, K {schmidt.schmidt_number}")
        if not (0.0 < dip.visibility <= 1.0 and timing.gain_minus > 0 and timing.gain_plus > 0):
            problems.append(f"dip visibility {dip.visibility}, timing gains {timing}")
        if len(rows) != len(widths) or any(not row.t_c_sim > 0 for row in rows):
            problems.append(f"table has {len(rows)} rows for {len(widths)} widths")
        values = [dip.t_c, dip.visibility, schmidt.schmidt_number, schmidt.entropy_bits, rho,
                  timing.dt_minus, timing.dt_plus, *(row.t_c_sim for row in rows),
                  *(row.rho for row in rows), *scan.rates]
        digest = hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()
        return OpResult(elapsed, f"kernels/{index}", digest, problems)

    def _kernels(self, src, widths, delays):
        n = self.ctx.grid_n
        state = jsa.build_jsa(src.pump, src.pm, jsa.auto_grid(src.pump, src.pm, n=n))
        scan = hom.coincidence_scan(state, delays)
        dip = hom.extract_dip(scan, model="numeric")
        schmidt = jsa.schmidt_decompose(state)
        rho, _ = jsa.correlation_classification(state)
        timing = temporal.timing_gain(temporal.jta_from_jsa(state, oversample=4), src.pump)
        rows = dataio.table_report(src, widths, profile=src.pm.profile, grid_n=n)
        return scan, dip, schmidt, rho, timing, rows


BY_NAME = {w.name: w for w in (CliShort, SimulateRoundtrip, KernelsN512)}

"""Per-layer metrics: each module's public functions timed from outside.

Grid-dependent timings and counts are taken at every size in ``sizes`` and
carry a ``.n<size>`` suffix; the rest are taken once, at the middle size.
A timing is the best of up to ``reps`` calls, stopping early once the calls
have used ``budget_s``, so the n=1024 writers run once.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from biphoton import cli, dataio, hom, jsa, presets, temporal
from workloads import (
    PRESET,
    PUMP_FWHM_NM,
    TABLE_WIDTHS,
    Context,
    base_preset,
    draw_source_args,
    seeded_source,
)

SIZES = (256, 512, 1024)

# The end-to-end metric and workload each per-layer metric should move,
# matched on the longest name prefix.
TARGETS = {
    "import.": "op_p50_s on cli-short; setup_s on kernels-n512",
    "cli.": "the non-import share of op_p50_s on cli-short (simulate: on simulate-roundtrip)",
    "presets.": "op_p50_s on cli-short (expected negligible)",
    "jsa.": "op_p50_s on kernels-n512",
    "hom.": "op_p50_s on kernels-n512 and hom --model numeric-sinc in cli-short",
    "temporal.": "op_p50_s and peak_rss_mb on kernels-n512",
    "dataio.": "op_p50_s on simulate-roundtrip",
    "dataio.fit_dip_s": "analyze in cli-short",
    "dataio.sinc_dip_kernel_s": "analyze in cli-short",
    "dataio.table_report_s": "the table step of kernels-n512",
    "trace.": "none: tracing cost and reach of the traced run",
}


def target_of(metric: str) -> str:
    prefix = max((p for p in TARGETS if metric.startswith(p)), key=len)
    return TARGETS[prefix]


def best_of(fn, reps: int = 3, budget_s: float = 1.0):
    """Smallest wall time of up to ``reps`` calls; returns (seconds, last result)."""
    best, spent, result = float("inf"), 0.0, None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best, spent = min(best, elapsed), spent + elapsed
        if spent >= budget_s:
            break
    return best, result


class Metrics(dict):
    def add(self, name: str, value: float, unit: str) -> None:
        self[name] = {"value": float(value), "unit": unit}


def sweep(ctx: Context, sizes=SIZES) -> Metrics:
    m = Metrics()
    base = base_preset()
    rng = np.random.default_rng([ctx.seed, 2])
    src = seeded_source(base, *draw_source_args(rng), profile="sinc")
    widths = np.sort(rng.uniform(*PUMP_FWHM_NM, TABLE_WIDTHS))
    middle = sizes[len(sizes) // 2]
    files = ctx.work / "layers"
    files.mkdir(exist_ok=True)
    filt = jsa.SpectralFilter(shape="gaussian", center=0.0, width=4e12, target="both")

    _import_metrics(ctx, m)
    _cli_metrics(ctx, m)
    m.add("presets.load_preset_s", best_of(lambda: presets.load_preset(PRESET), reps=20)[0], "s")

    for n in sizes:
        grid = jsa.auto_grid(src.pump, src.pm, n=n)
        t, state = best_of(lambda: jsa.build_jsa(src.pump, src.pm, grid))
        m.add(f"jsa.build_jsa_s.n{n}", t, "s")
        m.add(f"jsa.schmidt_decompose_s.n{n}", best_of(lambda: jsa.schmidt_decompose(state))[0], "s")
        m.add(f"jsa.marginals_s.n{n}", best_of(lambda: jsa.marginals(state))[0], "s")
        m.add(f"jsa.correlation_classification_s.n{n}",
              best_of(lambda: jsa.correlation_classification(state))[0], "s")
        m.add(f"jsa.apply_spectral_filter_s.n{n}",
              best_of(lambda: jsa.apply_spectral_filter(state, filt))[0], "s")
        m.add(f"jsa.grid_cells.n{n}", state.amplitude.size, "count")

        delays = hom.default_delays(src.pm, n=201)
        t, scan = best_of(lambda: hom.coincidence_scan(state, delays))
        m.add(f"hom.coincidence_scan_s.n{n}", t, "s")
        if n == middle:
            m.add("hom.extract_dip_s", best_of(lambda: hom.extract_dip(scan), reps=20)[0], "s")
            m.add("hom.delay_points", scan.delays.size, "count")

        t, jta = best_of(lambda: temporal.jta_from_jsa(state, oversample=4), reps=2)
        m.add(f"temporal.jta_from_jsa_s.n{n}", t, "s")
        m.add(f"temporal.diagonal_widths_s.n{n}",
              best_of(lambda: temporal.diagonal_widths(jta), reps=2)[0], "s")
        m.add(f"temporal.fft_cells.n{n}", jta.amplitude.size, "count")
        if n == middle:
            m.add("temporal.fft_fill_ratio", state.amplitude.size / jta.amplitude.size, "ratio")
        del jta
        tracemalloc.start()
        try:
            temporal.jta_from_jsa(state, oversample=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m.add(f"temporal.jta_alloc_peak_mb.n{n}", peak / 1e6, "MB")

        jsa_csv, jsi_csv = files / "jsa.csv", files / "jsi.csv"
        t_jsa = best_of(lambda: dataio.export_jsa_csv(state, jsa_csv, {"tool": "bench"}))[0]
        t_jsi = best_of(lambda: dataio.export_jsi_csv(state, jsi_csv, {"tool": "bench"}))[0]
        t_load, loaded = best_of(lambda: dataio.load_jsi(jsi_csv))
        written = jsa_csv.stat().st_size + jsi_csv.stat().st_size
        m.add(f"dataio.export_jsa_csv_s.n{n}", t_jsa, "s")
        m.add(f"dataio.export_jsi_csv_s.n{n}", t_jsi, "s")
        m.add(f"dataio.load_jsi_s.n{n}", t_load, "s")
        m.add(f"dataio.bytes_written.n{n}", written, "bytes")
        m.add(f"dataio.rows_parsed.n{n}", loaded.amplitude.size, "count")
        m.add(f"dataio.write_mb_per_s.n{n}", written / 1e6 / (t_jsa + t_jsi), "MB/s")
        jsa_csv.unlink()
        jsi_csv.unlink()
        del state, loaded

        m.add(f"dataio.table_report_s.n{n}", best_of(
            lambda: dataio.table_report(src, widths, profile="sinc", grid_n=n), reps=2)[0], "s")

    scan = _synthetic_scan(rng)
    m.add("dataio.fit_dip_s", best_of(lambda: dataio.fit_dip(scan), reps=5)[0], "s")
    m.add("dataio.sinc_dip_kernel_s",
          best_of(lambda: dataio.sinc_dip_kernel(base, float(widths[0])), reps=2)[0], "s")
    return m


def _synthetic_scan(rng) -> dataio.MeasuredScan:
    delays = np.linspace(-4e-12, 4e-12, 81)
    mean = 5000.0 * (1.0 - 0.9 * np.exp(-4.0 * np.log(2.0) * (delays / 1.2e-12) ** 2))
    return dataio.MeasuredScan(delays=delays, counts=rng.poisson(mean).astype(float))


def _child_seconds(ctx: Context, args: list[str]):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ctx.work, env=ctx.env,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stderr


def _import_metrics(ctx: Context, m: Metrics) -> None:
    m.add("import.interpreter_s",
          statistics.median(_child_seconds(ctx, ["-c", "pass"])[0] for _ in range(5)), "s")
    cli_s, scipy_s = [], []
    for _ in range(3):
        report = _child_seconds(ctx, ["-X", "importtime", "-c", "import biphoton.cli"])[1]
        cli_us, scipy_us = _parse_importtime(report)
        cli_s.append(cli_us / 1e6)
        scipy_s.append(scipy_us / 1e6)
    m.add("import.biphoton_cli_s", statistics.median(cli_s), "s")
    m.add("import.scipy_s", statistics.median(scipy_s), "s")


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def _parse_importtime(report: str) -> tuple[int, int]:
    """Cumulative microseconds of ``biphoton.cli`` and of all scipy imports.

    ``-X importtime`` prints a module after the modules it imports, indented
    one step deeper, so read backwards to see parents before children and
    count only scipy modules that no scipy module imported.
    """
    cli_us = scipy_us = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(report.splitlines()):
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, depth, name = int(match[2]), len(match[3]), match[4]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name == "biphoton.cli":
            cli_us = cumulative
        if name.split(".")[0] == "scipy" and not any(p.split(".")[0] == "scipy" for _, p in stack):
            scipy_us += cumulative
        stack.append((depth, name))
    return cli_us, scipy_us


def _cli_metrics(ctx: Context, m: Metrics) -> None:
    """``cli.main(argv)`` in-process for each command the workloads run."""
    out = str(ctx.work / "layers" / "cli")
    scan_path = ctx.work / "layers" / "scan.csv"
    scan = _synthetic_scan(np.random.default_rng([ctx.seed, 3]))
    dataio.export_scan(scan, scan_path)
    w, c, length = draw_source_args(np.random.default_rng([ctx.seed, 4]))
    source = ["--preset", PRESET, "--pump-fwhm-nm", w, "--chirp-fs2", c]
    n = str(ctx.grid_n)
    commands = {
        "presets": ["presets"],
        "hom_gaussian": ["hom", *source, "--length-mm", length, "--model", "gaussian"],
        "hom_numeric_sinc": ["hom", *source, "--length-mm", length, "--model", "numeric-sinc",
                             "--grid-n", n],
        "sweep": ["sweep", "--preset", PRESET, "--model", "gaussian", "--axis", "pump_fwhm",
                  "--start", "1", "--stop", "4", "--steps", "15"],
        "analyze": ["analyze", str(scan_path), "--model", "gaussian-dip"],
        "simulate": ["simulate", *source, "--profile", "sinc", "--grid-n", n],
    }
    for name, argv in commands.items():
        argv = argv if name == "presets" else [*argv, "--out", out]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"cli {argv} exited {code}")

        m.add(f"cli.{name}.inproc_s", best_of(call, reps=3, budget_s=2.0)[0], "s")

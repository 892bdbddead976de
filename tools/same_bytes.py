#!/usr/bin/env python3
"""Compare what two checkouts of biphoton write for one fixed list of CLI runs.

    python tools/same_bytes.py PARENT CHANGE [--expect GLOB]...

PARENT and CHANGE are checkout roots, each holding ``src/biphoton``.  Both
trees are byte-compiled first, so that neither side's runs differ by whether
they find bytecode.  Each run in :data:`RUNS` then executes
``python -m biphoton.cli ARGV`` once per tree, with that tree's ``src`` on
``PYTHONPATH``, in a fresh temporary directory that holds the run's input
files.  Stdout and stderr go through one pipe, so the order of their lines
counts, and ``PYTHONUNBUFFERED`` is removed from the child's environment, so
stdout is block-buffered whatever the caller's shell sets.  For every run
the script compares the sha256 of each file the run leaves in its directory,
of that output and its exit code; the temporary directory and the tree root
are masked in the output.

It prints one line per difference, named ``RUN/FILE`` (``RUN/output`` and
``RUN/exit`` for the output and the exit code), and exits 1 unless every
difference matches an ``--expect`` glob, which names a documented output
change.  No hashes are stored: numpy's SIMD kernels and LAPACK differ by CPU,
so the two sides are always run on the same machine.

Runs that would allocate more than the package's memory budget at an older
commit (an oversized ``--delay-points`` or ``--steps``) are left out: on
such a commit they try to allocate gigabytes.  Only the standard library is
used, so the script runs under any interpreter that can run the package.
"""

from __future__ import annotations

import argparse
import compileall
import fnmatch
import hashlib
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple


class Run(NamedTuple):
    """One CLI invocation; ``quick`` marks the n <= 128 subset the test suite runs."""

    name: str
    argv: tuple[str, ...]
    quick: bool = False


def _scan_text(seed: int = 7, points: int = 121, counts: float = 5000.0) -> str:
    """A seeded Poisson scan of a 1.17 ps Gaussian dip with visibility 0.9."""
    rng = random.Random(seed)
    lines = ["delay_ps,coincidences"]
    for k in range(points):
        tau = -3.0 + 6.0 * k / (points - 1)
        mean = counts * (1.0 - 0.9 * math.exp(-4.0 * math.log(2.0) * (tau / 1.17) ** 2))
        # Knuth's product of uniforms, in chunks so exp(-mean) stays normal
        n, left = 0, mean
        while left > 0:
            step = min(left, 500.0)
            left -= step
            limit, product = math.exp(-step), rng.random()
            while product > limit:
                n += 1
                product *= rng.random()
        lines.append(f"{tau:.3f},{n}")
    return "\n".join(lines) + "\n"


def _nan_scan_text() -> str:
    lines = _scan_text().splitlines()
    lines[61] = lines[61].split(",")[0] + ",nan"
    return "\n".join(lines) + "\n"


def _messy_scan_text() -> str:
    """The seeded scan with a ``#`` line, a whitespace-only line and a padded cell in its body."""
    lines = _scan_text().splitlines()
    lines[40] = lines[40].replace(",", ",\xa0")
    lines[80:80] = ["   "]
    lines[20:20] = ["# lamp check"]
    return "\n".join(lines) + "\n"


def _simulated_scan_text() -> str:
    """A noiseless 1.16 ps dip of visibility 0.97 in the ``tau_ps,rate`` layout of ``hom``."""
    lines = ["tau_ps,rate"]
    for k in range(101):
        tau = -4.0 + 8.0 * k / 100
        rate = 1.0 - 0.97 * math.exp(-4.0 * math.log(2.0) * (tau / 1.16) ** 2)
        lines.append(f"{tau:.3f},{rate:.9g}")
    return "\n".join(lines) + "\n"


def _bad_row_scan_text() -> str:
    """A no-break-space padded good row on line 3 and a bad one on line 8."""
    rows = [f"{t},100" for t in range(12)]
    rows[1], rows[5] = "1,\xa0100", "5,x"
    return "\n".join(["delay_ps,coincidences", *rows[:2], "# note", *rows[2:]]) + "\n"


def _too_deep_scan_text() -> str:
    """A noiseless 1.2 ps dip 1.15 deep, clipped at zero counts: its fit reads visibility 1.068."""
    lines = ["delay_ps,coincidences"]
    for k in range(121):
        tau = -3.0 + 6.0 * k / 120
        counts = 1000.0 * (1.0 - 1.15 * math.exp(-4.0 * math.log(2.0) * (tau / 1.2) ** 2))
        lines.append(f"{tau:.3f},{max(counts, 0.0):.6g}")
    return "\n".join(lines) + "\n"


def _sigma_scan_text() -> str:
    """The seeded scan with a sigma column of sqrt(max(n, 1))."""
    rows = [line.split(",") for line in _scan_text().splitlines()[1:]]
    lines = [f"{tau},{n},{math.sqrt(max(int(n), 1)):.6g}" for tau, n in rows]
    return "\n".join(["delay_ps,coincidences,sigma", *lines]) + "\n"


# Files written into every run's directory before it starts.
INPUTS = {
    "run.conf": "pump_fwhm_nm = 0.7\nprofile = sinc\ngrid_n = 128\n",
    "scan.csv": _scan_text(),
    "nan_scan.csv": _nan_scan_text(),
    "zero_scan.csv": "delay_ps,coincidences\n" + "".join(f"{d},0\n" for d in range(12)),
    "messy_scan.csv": _messy_scan_text(),
    "bad_row_scan.csv": _bad_row_scan_text(),
    "too_deep_scan.csv": _too_deep_scan_text(),
    "simulated_scan.csv": _simulated_scan_text(),
    # no dip: the fit leaves its centre and width free
    "flat_scan.csv": "delay_ps,coincidences\n" + "".join(
        f"{-2 + k / 10:.1f},1000\n" for k in range(41)),
    "sigma_scan.csv": _sigma_scan_text(),
}

_P = ("--preset", "ppktp-8mm")
_OUT = ("--out", "out")

RUNS = (
    Run("presets", ("presets",), quick=True),
    Run("simulate-default", ("simulate", *_P, *_OUT)),
    Run("simulate-sinc-chirped-301",
        ("simulate", *_P, "--profile", "sinc", "--chirp-fs2", "-20000", "--grid-n", "301", *_OUT)),
    Run("simulate-chirped-128",
        ("simulate", *_P, "--chirp-fs2", "-20000", "--grid-n", "128", *_OUT), quick=True),
    Run("simulate-filtered-301",
        ("simulate", *_P, "--filter-fwhm-nm", "3", "--grid-n", "301", *_OUT)),
    # a chirp phase of 17.9 rad a grid step: the build warns
    Run("simulate-chirp-1e7-128",
        ("simulate", *_P, "--chirp-fs2", "1e7", "--grid-n", "128", *_OUT), quick=True),
    Run("simulate-n4", ("simulate", *_P, "--grid-n", "4", *_OUT), quick=True),
    # 80-row blocks of 100 cells: the build's and the moments' last block holds 20 rows
    Run("simulate-n100", ("simulate", *_P, "--grid-n", "100", *_OUT), quick=True),
    Run("simulate-sinc-filtered-100",
        ("simulate", *_P, "--grid-n", "100", "--profile", "sinc", "--filter-fwhm-nm", "3", *_OUT),
        quick=True),
    Run("simulate-n6", ("simulate", *_P, "--grid-n", "6", *_OUT)),
    Run("simulate-n1024", ("simulate", *_P, "--grid-n", "1024", *_OUT)),
    # a many-mode source: its Schmidt sketch doubles from rank 32 to 64, and
    # at n=256 that reaches the full SVD
    Run("simulate-many-mode-320",
        ("simulate", *_P, "--profile", "sinc", "--pump-fwhm-nm", "0.5", "--length-mm", "16",
         "--grid-n", "320", *_OUT)),
    Run("simulate-many-mode-256",
        ("simulate", *_P, "--profile", "sinc", "--pump-fwhm-nm", "0.5", "--length-mm", "16",
         "--grid-n", "256", *_OUT)),
    Run("simulate-config", ("simulate", *_P, "--config", "run.conf", *_OUT), quick=True),
    # every recorded input set at once: the grid header carries non-default
    # pump, phasematching, grid and filter fields
    Run("simulate-all-inputs-128",
        ("simulate", *_P, "--profile", "sinc", "--chirp-fs2", "-5000", "--length-mm", "12",
         "--filter-fwhm-nm", "3", "--grid-n", "128", *_OUT), quick=True),
    Run("simulate-n2-fails", ("simulate", *_P, "--grid-n", "2", *_OUT), quick=True),
    Run("simulate-n4000-fails", ("simulate", *_P, "--grid-n", "4000", *_OUT)),
    # a window of 0.4 marginal FWHMs each side cuts the idler's half maximum
    Run("simulate-span-0.4-fails",
        ("simulate", *_P, "--grid-span-fwhms", "0.4", "--grid-n", "64", *_OUT), quick=True),
    # walk-offs whose squares overflow
    Run("simulate-length-1e300-fails",
        ("simulate", *_P, "--grid-n", "16", "--length-mm", "1e300", *_OUT), quick=True),
    Run("simulate-filter-0-fails", ("simulate", *_P, "--filter-fwhm-nm", "0", *_OUT)),
    # filters narrower than the grid step: a warning, then a variance product that underflows
    Run("simulate-filter-0.01", ("simulate", *_P, "--filter-fwhm-nm", "0.01", *_OUT)),
    Run("simulate-filter-0.005-fails", ("simulate", *_P, "--filter-fwhm-nm", "0.005", *_OUT)),
    # both the grid and the filter warn, and the failure names both flags
    Run("simulate-n5-filter-0.5-fails",
        ("simulate", *_P, "--grid-n", "5", "--filter-fwhm-nm", "0.5", *_OUT), quick=True),
    # both the grid and the filter warn, and the run succeeds: the warnings'
    # order on stderr, in the grid headers and in schmidt.json
    Run("simulate-n32-filter-0.5",
        ("simulate", *_P, "--grid-n", "32", "--filter-fwhm-nm", "0.5", *_OUT), quick=True),
    Run("simulate-span-overflow-fails",
        ("simulate", *_P, "--grid-span-fwhms", "1e300", "--grid-n", "16", *_OUT)),
    Run("simulate-span-1e200-fails",
        ("simulate", *_P, "--grid-span-fwhms", "1e200", "--grid-n", "16", *_OUT)),
    Run("simulate-sinc-span-1e200-fails",
        ("simulate", *_P, "--profile", "sinc", "--grid-span-fwhms", "1e200", "--grid-n", "16",
         *_OUT), quick=True),
    Run("hom-numeric", ("hom", *_P, "--model", "numeric", *_OUT)),
    Run("hom-numeric-chirped-128",
        ("hom", *_P, "--model", "numeric", "--chirp-fs2", "-20000", "--grid-n", "128", *_OUT),
        quick=True),
    Run("hom-numeric-sinc-0.7",
        ("hom", *_P, "--model", "numeric-sinc", "--pump-fwhm-nm", "0.7", *_OUT)),
    Run("hom-gaussian-99",
        ("hom", *_P, "--model", "gaussian", "--delay-points", "99", *_OUT), quick=True),
    # a negative value in exponent form, which argparse alone reads as a flag
    Run("hom-chirp-exponent",
        ("hom", *_P, "--model", "gaussian", "--chirp-fs2", "-2e4", *_OUT), quick=True),
    Run("hom-gaussian-100k",
        ("hom", *_P, "--model", "gaussian", "--delay-points", "100000", *_OUT)),
    Run("hom-numeric-n16", ("hom", *_P, "--model", "numeric", "--grid-n", "16", *_OUT),
        quick=True),
    # 99 lags: a grid size that is no power of two
    Run("hom-numeric-n100", ("hom", *_P, "--model", "numeric", "--grid-n", "100", *_OUT),
        quick=True),
    # marginals of 7.95-7.99 samples per FWHM, which once printed as 8.0
    Run("hom-n64-pump-0.1",
        ("hom", *_P, "--model", "numeric", "--grid-n", "64", "--pump-fwhm-nm", "0.1", *_OUT),
        quick=True),
    # a scan past 1024 delays, the block size of an older lag sum
    Run("hom-numeric-64-3000",
        ("hom", *_P, "--model", "numeric", "--grid-n", "64", "--delay-points", "3000", *_OUT),
        quick=True),
    # pump widths whose sigma_p^2 overflows or underflows are refused; the
    # closed form keeps its continuous-wave limit
    Run("hom-pump-1e150-fails", ("hom", *_P, "--pump-fwhm-nm", "1e150", *_OUT), quick=True),
    Run("hom-numeric-pump-1e-300-fails",
        ("hom", *_P, "--model", "numeric", "--grid-n", "64", "--pump-fwhm-nm", "1e-300", *_OUT),
        quick=True),
    # 1/sigma_p^2 ~ 3e275 overflows the determinant that sizes the grid
    Run("hom-numeric-sinc-pump-1e-150-fails",
        ("hom", *_P, "--model", "numeric-sinc", "--grid-n", "64", "--pump-fwhm-nm", "1e-150",
         *_OUT), quick=True),
    Run("hom-length-1e300-fails",
        ("hom", *_P, "--model", "gaussian", "--length-mm", "1e300", *_OUT), quick=True),
    Run("hom-gaussian-pump-1e-300",
        ("hom", *_P, "--model", "gaussian", "--pump-fwhm-nm", "1e-300", *_OUT), quick=True),
    Run("sweep-pump-1e-300-fails",
        ("sweep", *_P, "--axis", "pump_fwhm", "--start", "1e-300", "--stop", "1", "--steps", "3",
         "--model", "numeric-sinc", "--grid-n", "64", *_OUT), quick=True),
    # scans of 46.4 and 53.9 ps on a grid whose delay period is 27 ps: the
    # first reads aliased dips and warns, the second fails on them
    Run("hom-aliased-128",
        ("hom", *_P, "--model", "numeric", "--grid-n", "128", "--delay-span", "20", *_OUT),
        quick=True),
    Run("hom-aliased-128-fails",
        ("hom", *_P, "--model", "numeric", "--grid-n", "128", "--delay-span", "23.24", *_OUT),
        quick=True),
    # a sweep's 9.28 ps scans on a grid whose delay period is 4.243 ps: the
    # failure names --grid-n alone, as a sweep has no --delay-span
    Run("sweep-aliased-16-fails",
        ("sweep", *_P, "--model", "numeric-gaussian", "--grid-n", "16", "--axis", "pump_fwhm",
         "--start", "1", "--stop", "2", "--steps", "2", *_OUT), quick=True),
    Run("hom-sinc-span-1e200-fails",
        ("hom", *_P, "--model", "numeric-sinc", "--grid-span-fwhms", "1e200", "--grid-n", "16",
         *_OUT), quick=True),
    Run("hom-n3-fails", ("hom", *_P, "--grid-n", "3", *_OUT)),
    Run("hom-n4000-fails", ("hom", *_P, "--grid-n", "4000", *_OUT)),
    Run("hom-delay-span-0-fails", ("hom", *_P, "--delay-span", "0", *_OUT)),
    Run("hom-delay-span-overflow-fails",
        ("hom", *_P, "--model", "gaussian", "--delay-span", "1e308", *_OUT)),
    Run("hom-delay-span-1e6-fails",
        ("hom", *_P, "--model", "gaussian", "--delay-span", "1e6", *_OUT)),
    Run("hom-gaussian-over-profile-sinc",
        ("hom", *_P, "--model", "gaussian", "--profile", "sinc", *_OUT)),
    Run("sweep-pump-gaussian",
        ("sweep", *_P, "--axis", "pump_fwhm", "--start", "0.7", "--stop", "4.5", "--steps", "5",
         "--model", "gaussian", *_OUT)),
    Run("sweep-length-gaussian",
        ("sweep", *_P, "--axis", "length", "--start", "4", "--stop", "16", "--steps", "4", *_OUT),
        quick=True),
    Run("sweep-length-over-length-mm",
        ("sweep", *_P, "--length-mm", "16", "--axis", "length", "--start", "4", "--stop", "16",
         "--steps", "4", "--model", "gaussian", *_OUT)),
    Run("sweep-chirp-over-chirp-fs2-128",
        ("sweep", *_P, "--chirp-fs2", "500", "--profile", "sinc", "--axis", "chirp",
         "--start", "-20000", "--stop", "20000", "--steps", "3", "--model", "numeric-sinc",
         "--grid-n", "128", *_OUT), quick=True),
    Run("sweep-chirp-numeric-sinc",
        ("sweep", *_P, "--axis", "chirp", "--start", "-20000", "--stop", "20000", "--steps", "3",
         "--model", "numeric-sinc", "--grid-n", "128", *_OUT)),
    Run("sweep-chirp-exponent",
        ("sweep", *_P, "--model", "gaussian", "--axis", "chirp", "--start", "-8e3", "--stop",
         "8e3", "--steps", "3", *_OUT), quick=True),
    Run("sweep-pump-numeric-gaussian",
        ("sweep", *_P, "--axis", "pump_fwhm", "--start", "1", "--stop", "4", "--steps", "3",
         "--model", "numeric-gaussian", "--grid-n", "256", *_OUT)),
    Run("sweep-length-0-fails",
        ("sweep", *_P, "--axis", "length", "--start", "0", "--stop", "8", "--steps", "3", *_OUT)),
    Run("sweep-pump-start-negative-fails",
        ("sweep", *_P, "--axis", "pump_fwhm", "--start", "-1", "--stop", "2", "--steps", "3",
         "--model", "gaussian", *_OUT), quick=True),
    # the point 1e300 runs as the flag's float would: the typed error alone
    Run("sweep-pump-stop-1e300-fails",
        ("sweep", *_P, "--axis", "pump_fwhm", "--start", "1", "--stop", "1e300", "--steps", "2",
         "--model", "gaussian", *_OUT), quick=True),
    # walk-offs whose dip scale's square underflows
    Run("sweep-length-1e-300-fails",
        ("sweep", *_P, "--axis", "length", "--start", "1e-300", "--stop", "8", "--steps", "2",
         *_OUT), quick=True),
    Run("analyze-gaussian", ("analyze", "scan.csv", "--model", "gaussian-dip", *_OUT),
        quick=True),
    Run("analyze-sinc",
        ("analyze", "scan.csv", "--model", "sinc-kernel-dip", *_P, "--pump-fwhm-nm", "2",
         *_OUT)),
    Run("analyze-sinc-4.5",
        ("analyze", "scan.csv", "--model", "sinc-kernel-dip", *_P, "--pump-fwhm-nm", "4.5",
         *_OUT)),
    Run("analyze-zero-fails", ("analyze", "zero_scan.csv", *_OUT)),
    Run("analyze-nan-fails", ("analyze", "nan_scan.csv", *_OUT)),
    Run("analyze-messy", ("analyze", "messy_scan.csv", "--model", "gaussian-dip", *_OUT),
        quick=True),
    Run("analyze-visibility-warning", ("analyze", "too_deep_scan.csv", *_OUT), quick=True),
    Run("analyze-bad-row-fails", ("analyze", "bad_row_scan.csv", *_OUT)),
    Run("analyze-simulated-scan", ("analyze", "simulated_scan.csv", *_OUT), quick=True),
    Run("analyze-flat-fails", ("analyze", "flat_scan.csv", *_OUT), quick=True),
    Run("analyze-sigma", ("analyze", "sigma_scan.csv", *_OUT), quick=True),
    Run("analyze-sinc-no-dip-fails",
        ("analyze", "scan.csv", "--model", "sinc-kernel-dip", *_P, "--pump-fwhm-nm", "1e17",
         *_OUT)),
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_once(tree: Path, run: Run) -> dict[str, str]:
    """Run ``run`` against ``tree``; map each compared item to its sha256 (exit: the code)."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("BIPHOTON_OUTDIR", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(tree / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        work = Path(tmp)
        for name, text in INPUTS.items():
            (work / name).write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "biphoton.cli", *run.argv],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=600,
        )
        output = proc.stdout
        for path, mark in ((work, b"<RUN>"), (tree, b"<TREE>")):
            output = output.replace(os.fsencode(path.resolve()), mark)
            output = output.replace(os.fsencode(path), mark)
        items = {"exit": str(proc.returncode), "output": _digest(output)}
        for path in sorted(work.rglob("*")):
            name = path.relative_to(work).as_posix()
            if path.is_file() and name not in INPUTS:
                items[name] = _digest(path.read_bytes())
    return items


def differences(parent: Path, change: Path, runs=RUNS) -> list[str]:
    """``RUN/ITEM: how`` for every item whose bytes differ between the two trees."""
    for tree in {parent, change}:
        compileall.compile_dir(str(tree / "src"), quiet=1)
    out = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for run in runs:
            before, after = pool.map(lambda tree: run_once(tree, run), (parent, change))
            for item in sorted(before.keys() | after.keys()):
                if item not in after:
                    out.append(f"{run.name}/{item}: only in parent")
                elif item not in before:
                    out.append(f"{run.name}/{item}: only in change")
                elif before[item] != after[item]:
                    how = f"{before[item]} -> {after[item]}" if item == "exit" else "differs"
                    out.append(f"{run.name}/{item}: {how}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the reference checkout")
    parser.add_argument("change", type=Path, help="root of the checkout under test")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="RUN/FILE glob of a documented output change (repeatable)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "biphoton" / "__init__.py").is_file():
            parser.error(f"no src/biphoton under {tree}")
    unexpected = 0
    found = differences(args.parent.resolve(), args.change.resolve())
    for line in found:
        key = line.partition(": ")[0]
        expected = any(fnmatch.fnmatchcase(key, glob) for glob in args.expect)
        unexpected += not expected
        print(f"{line}{' (expected)' if expected else ''}")
    print(f"same_bytes: {len(RUNS)} runs, {len(found)} differences, {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())

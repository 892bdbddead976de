"""File formats, dip fitting and the summary table.

CSV conventions
---------------
* measured scans: header ``delay_ps,coincidences[,sigma]`` (or ``delay_mm``
  for double-pass stage travel, converted as ``tau = 2 x / c``);
* simulated scans: ``tau_ps,rate``, which :func:`load_scan` also reads, the
  rates as counts;
* joint spectra: ``lambda_s_nm,lambda_i_nm,intensity`` with wavelength axes;
  :func:`load_jsi` also reads ``nu_s_rad_s,nu_i_rad_s,intensity`` with
  detuning axes, as measured spectra may come that way;
* joint amplitudes: ``nu_s_rad_s,nu_i_rad_s,re,im``.

Every CSV file is written by :func:`write_rows`, one row per cell of its
equal-shape columns; :func:`write_grid` adapts it to the N x N joint grids
(signal-major), passing the two formatted axes as row labels.  The body is
formatted in one loop over the row blocks of the full-grid kernels
(``jsa.row_blocks``, about 8192 rows), so memory stays bounded.  Files start
with a ``# biphoton: {json}`` provenance line if given metadata; that of a
joint grid also holds the state's ``provenance`` and its ``grid``, the
``FrequencyGrid`` field by field.  Floats are written with 9 significant
digits (``%.9g``, the routine behind :func:`format_float`), which
round-trips exactly through parse/format cycles and keeps repeated runs
byte-identical.  Every cell, axis labels included, is formatted by one
numpy-vectorized routine that gives exactly the bytes of ``%.9g``; the
cells it cannot settle with certainty (within 1e-5 of a rounding tie,
non-finite, or 10 <= |v| < 1e9, which no grid holds) are formatted by
Python's ``%``.

The readers share one parser: blank lines and ``#`` lines are skipped
anywhere, cells may be padded with whitespace, and a malformed line is
reported as ``path:lineno:``.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r``
only.  The header is found by iterating the file, and the body is parsed by
one ``np.loadtxt`` call on the file itself, as every file written here is.
A body that call refuses is parsed again in one Python pass, with ``float()``,
which names the first bad line: a 512 x 512 JSI with one ``#`` line in its
body loads in about 0.7-1.1 s, against 0.12-0.2 s clean.
:func:`load_jsi` accepts grid rows in any order but rejects duplicate and
missing cells; it scatters each row's square root straight into the complex
amplitude that the state adopts.

:func:`fit_dip` fits the dip with a small numpy Levenberg-Marquardt loop
and takes the covariance from the SVD of its Jacobian, as
``scipy.optimize.curve_fit`` does; the package imports no scipy.
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, Diagnostic, DomainError, FitError, NoDipError, ParseError
from .hom import MIN_VISIBILITY, DelayScan, coincidence_rate_sinc, coincidence_scan
from .hom import default_delays, extract_dip
from .jsa import (
    FrequencyGrid,
    JointSpectralAmplitude,
    _read_only,
    auto_grid,
    build_jsa,
    correlation_classification,
    intensity_fwhm,
    marginals,
    row_blocks,
)
from .presets import SourcePreset, preset_with_pump
from .spectral import (
    C_M_PER_S,
    omega_fwhm_to_wavelength_fwhm,
    transform_limited_duration,
    wavelength_to_angular_frequency,
)

PROVENANCE_PREFIX = "# biphoton: "

_FOUR_LN2 = 4.0 * math.log(2.0)

# Per decimal exponent e of a finite non-zero double (indexed by e - _E_MIN):
# two correctly rounded powers of ten whose product is 10**(8 - e), split so
# that |v| times the first stays in range from the subnormals to 1.8e308; the
# lead kind (2-5 for ``%.9g``'s ``0.d`` to ``0.000d``); whether ``%.9g``
# writes digits left of the point (e = 1..8, left to Python); and the
# exponent field, empty where ``%.9g`` writes no exponent.
_E_MIN, _E_MAX = -324, 308
_E = np.arange(_E_MIN, _E_MAX + 1)
_POW10 = np.array([float(f"1e{k}") for k in range(-150, 167)])
_SCALE_1 = _POW10[(8 - _E) // 2 + 150]
_SCALE_2 = _POW10[8 - _E - (8 - _E) // 2 + 150]
_KIND = np.where((_E >= -4) & (_E < 0), 1 - _E, 0)
_WIDE_FIXED = (_E >= 1) & (_E <= 8)
_EXPONENT = np.array([b"" if -4 <= e <= 8 else b"e%+03d" % e for e in _E.tolist()])
# A cell's text up to its first digit d, by (sign * 6 + kind) * 10 + d: kind 0
# is ``d``, 1 is ``d.`` and 2-5 are ``0.d`` to ``0.000d``; zero is kind 0, d 0.
_LEAD = np.array(
    [
        sign + (digit + b"." * kind if kind < 2 else b"0." + b"0" * (kind - 2) + digit)
        for sign in (b"", b"-")
        for kind in range(6)
        for digit in [b"%d" % d for d in range(10)]
    ]
)


def _quad_digits() -> np.ndarray:
    """The four digits of q = 0..9999 as one uint32 each: at q with trailing
    zeros dropped (NUL-padded), at 10000 + q all four."""
    chars = np.frombuffer(b"0123456789", dtype=np.uint8)
    quad = np.stack(np.meshgrid(*[chars] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
    kept = np.logical_or.accumulate(quad[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([quad * kept, quad]).view(np.uint32).ravel()


_QUADS = _quad_digits()


def format_float(x: float) -> str:
    """Canonical 9-significant-digit float formatting for all CSV output."""
    return f"{float(x):.9g}"


def _format_cells(values, end: bytes) -> np.ndarray:
    """``b"%.9g" % v + end`` for each float of ``values``, as a NUL-padded bytes array.

    The 9-digit mantissa m and exponent e come from s = |v| * 10**(8 - e),
    computed to within about 4 ulp (< 5e-7), so m = rint(s) is the mantissa
    ``%.9g`` writes unless s lies within 1e-5 of a rounding tie or below
    1e8 - 1e-5 (e one decade too high even after one correction).  Those cells,
    non-finite ones and 10 <= |v| < 1e9 (``%.9g``'s fixed layout with digits
    left of the point) are formatted by Python instead.  The text is joined
    from a lead (sign, ``0.000`` and the first digit), the other eight digits
    with trailing zeros dropped, and the exponent with ``end``; ``np.add``,
    which concatenates bytes arrays from numpy 2.0 on, drops the NUL padding
    in between.
    """
    v = np.asarray(values, dtype=float).ravel()
    finite = np.isfinite(v)
    normal = finite & (v != 0)
    a = np.abs(v)
    np.copyto(a, 1.0, where=~normal)
    ei = (np.floor(np.log10(a)) - _E_MIN).astype(np.intp)
    s = a * _SCALE_1[ei] * _SCALE_2[ei]
    # log10 can miss the decade next to a power of ten, and rounding can carry
    # s into the next one: move those cells one decade and redo them
    step = (s < 1e8 - 1e-5).view(np.int8) - (s >= 1e9 - 0.5).view(np.int8)
    moved = np.flatnonzero(step)
    if moved.size:
        ei[moved] = np.clip(ei[moved] - step[moved], 0, _E_MAX - _E_MIN)
        s[moved] = a[moved] * _SCALE_1[ei[moved]] * _SCALE_2[ei[moved]]
    m = np.rint(s)
    exact = (s >= 1e8 - 1e-5) & (s < 1e9 - 0.5) & (np.abs(s - m) < 0.5 - 1e-5)
    exact &= finite & ~_WIDE_FIXED[ei]

    first, rest = np.divmod(m.astype(np.uint32), np.uint32(10**8))
    high, low = np.divmod(rest, np.uint32(10**4))
    digits = np.empty((v.size, 2), dtype=np.uint32)
    digits[:, 0] = _QUADS[high + (low != 0) * 10000]
    digits[:, 1] = _QUADS[low]
    kind = np.maximum(_KIND[ei], rest != 0)
    lead = _LEAD[np.signbit(v) * 60 + kind * 10 + first * normal]
    out = np.add(lead, digits.view("S8").ravel())
    out = np.add(out, np.add(_EXPONENT, end)[ei])
    python = np.flatnonzero(~exact)
    out[python] = [b"%.9g" % c + end for c in v[python].tolist()]
    return out


def provenance_line(meta: dict) -> str:
    return PROVENANCE_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":"))


def _row_cells(columns) -> np.ndarray:
    """CSV rows joined from equal-shape float ``columns``, one per cell."""
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    return functools.reduce(np.add, map(_format_cells, columns, ends))


def _body_blocks(columns, labels=None):
    """The CSV body of equal-shape float ``columns``, one byte chunk per block.

    A block is a slice ``rows`` of the first axis from ``jsa.row_blocks``,
    about ``BLOCK_CELLS`` CSV rows, one per cell; ``labels(rows)``, if given,
    is the text that starts those rows.
    """
    for rows in row_blocks(len(columns[0]), math.prod(columns[0].shape[1:])):
        cells = _row_cells([c[rows] for c in columns])
        if labels is not None:
            cells = np.add(labels(rows), cells)
        yield b"".join(cells.tolist())


def write_rows(path, meta: dict | None, header: str, columns, comments=(), labels=None) -> None:
    """Write a CSV file: the provenance line, ``comments``, ``header``, then one row per
    cell of the equal-shape float ``columns``, each after ``labels(rows)`` if given."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({c.shape for c in columns}) != 1:
        raise ValueError(f"columns of unequal shapes {[c.shape for c in columns]}")
    head = [] if meta is None else [provenance_line(meta)]
    with open(path, "wb") as fh:
        fh.write(("\n".join([*head, *comments, header]) + "\n").encode("utf-8"))
        fh.writelines(_body_blocks(columns, labels))


def write_grid(path, meta: dict | None, header: str, axis_s, axis_i, values) -> None:
    """Write 2-D ``values`` sampled on (``axis_s``, ``axis_i``), one CSV row per cell.

    Rows run signal-major as ``axis_s[j],axis_i[k],values[0][j,k],...``.  Each
    axis value is formatted once and labels its rows in every block.
    """
    labels_s = _format_cells(axis_s, b",")
    labels_i = _format_cells(axis_i, b",")
    write_rows(path, meta, header, values,
               labels=lambda rows: np.add(labels_s[rows, None], labels_i).ravel())


def _read_csv(path: Path, header_problem) -> tuple[list[str], list[str], np.ndarray]:
    """The ``#`` comment lines, header cells and numeric body rows of a CSV file.

    ``header_problem(cells)`` returns why a header is wrong, or None.  A line
    ends at ``\\n``, ``\\r\\n`` or ``\\r`` on both paths.  The header is
    found by iterating the file, and the body is then parsed by one
    ``np.loadtxt`` call on the file itself, which skips empty lines but
    refuses ``#`` and whitespace-only ones.  Only when that call fails are the
    lines read again and parsed in one Python pass, which skips blank and
    ``#`` lines, strips each cell as ``np.loadtxt`` does and reports the first
    bad line.  The comments are those before the header, or every ``#`` line
    when the body held some.
    """
    comments: list[str] = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                if header is None:
                    comments.append(raw.rstrip("\n"))
                continue
            if header is not None:
                break  # a first body row: the body is not empty
            header = [c.strip() for c in line.split(",")]
            problem = header_problem(header)
            if problem is not None:
                raise ParseError(f"{path}:{lineno}: {problem}")
            header_at = lineno
        else:
            missing = "header row" if header is None else "data rows"
            raise ParseError(f"{path}: no {missing} found")
    try:
        data = np.loadtxt(
            path, delimiter=",", comments=None, skiprows=header_at, ndmin=2, encoding="utf-8"
        )
        if data.shape[1] == len(header):
            return comments, header, data
    except ValueError:
        pass
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    values = array("d")
    for lineno, raw in enumerate(lines[header_at:], start=header_at + 1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            comments.append(raw)
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        try:
            # float() also reads 1_0 and non-ASCII digits, which np.loadtxt refuses
            if not all(c.isascii() and "_" not in c for c in cells):
                raise ValueError
            values.extend(map(float, cells))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in {raw!r}") from None
    return comments, header, np.frombuffer(values).reshape(-1, len(header))


@dataclass(frozen=True)
class MeasuredScan:
    """A measured coincidence scan: delays (s), counts, optional uncertainties."""

    delays: np.ndarray
    counts: np.ndarray
    sigma: np.ndarray | None = None
    comments: tuple[str, ...] = ()

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        sigma = None if self.sigma is None else np.asarray(self.sigma, dtype=float)
        if delays.ndim != 1 or delays.shape != counts.shape:
            raise DomainError("delays and counts must be 1-D arrays of equal length")
        if delays.size < 10:
            raise DomainError(f"need at least 10 points, got {delays.size}")
        if not all(np.all(np.isfinite(a)) for a in (delays, counts, sigma) if a is not None):
            raise DomainError("delays, counts and sigma must be finite")
        if not np.all(np.diff(delays) > 0):
            raise DomainError("delays must be strictly increasing")
        if np.any(counts < 0):
            raise DomainError("counts must be non-negative")
        object.__setattr__(self, "delays", _read_only(delays))
        object.__setattr__(self, "counts", _read_only(counts))
        if sigma is not None:
            if sigma.shape != delays.shape or np.any(sigma < 0):
                raise DomainError("sigma must match delays and be non-negative")
            object.__setattr__(self, "sigma", _read_only(sigma))


def _scan_header_problem(header: list[str]) -> str | None:
    if header[0] == "tau_ps":  # a simulated scan, as ``hom`` writes it
        return None if header == ["tau_ps", "rate"] else "a simulated scan's columns are tau_ps,rate"
    if header[0] not in ("delay_ps", "delay_mm"):
        return f"first column must be delay_ps or delay_mm, got {header[0]!r}"
    if len(header) < 2 or header[1] != "coincidences":
        return "second column must be coincidences"
    if len(header) > 3 or (len(header) == 3 and header[2] != "sigma"):
        return f"unexpected columns {header[2:]}"
    return None


def load_scan(path) -> MeasuredScan:
    """Read a measured scan CSV, or a simulated ``tau_ps,rate`` one, its rates
    taken as counts; the delay unit comes from the header, never guessed."""
    path = Path(path)
    comments, header, data = _read_csv(path, _scan_header_problem)
    if header[0] in ("delay_ps", "tau_ps"):
        delays_s = data[:, 0] * 1e-12
    else:
        # double-pass delay stage: path difference is twice the travel
        delays_s = 2.0 * data[:, 0] * 1e-3 / C_M_PER_S
    try:
        return MeasuredScan(
            delays=delays_s,
            counts=data[:, 1],
            sigma=data[:, 2] if data.shape[1] == 3 else None,
            comments=tuple(comments),
        )
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def export_scan(scan: MeasuredScan, path, meta: dict | None = None) -> None:
    """Write a measured scan in the canonical CSV layout (delays in ps)."""
    header = "delay_ps,coincidences"
    columns = [scan.delays * 1e12, scan.counts]
    if scan.sigma is not None:
        header += ",sigma"
        columns.append(scan.sigma)
    write_rows(path, meta, header, columns, scan.comments)


def export_delay_scan(scan: DelayScan, path, meta: dict | None = None) -> None:
    """Write a simulated scan as ``tau_ps,rate``, scaling one block of delays at a time."""
    write_rows(path, meta, "tau_ps,rate", [scan.rates],
               labels=lambda rows: _format_cells(scan.delays[rows] * 1e12, b","))


def export_jsa_csv(state: JointSpectralAmplitude, path, meta: dict | None = None) -> None:
    """Write the complex amplitude as ``nu_s_rad_s,nu_i_rad_s,re,im``."""
    amp = state.amplitude
    write_grid(
        path,
        _state_meta(state, meta),
        "nu_s_rad_s,nu_i_rad_s,re,im",
        state.grid.nu_s,
        state.grid.nu_i,
        (amp.real, amp.imag),
    )


def export_jsi_csv(state: JointSpectralAmplitude, path, meta: dict | None = None) -> None:
    """Write |f|^2 as ``lambda_s_nm,lambda_i_nm,intensity``."""
    omega_s0, omega_i0 = _central_frequencies(state)
    lam_s = 2.0 * math.pi * C_M_PER_S / (omega_s0 + state.grid.nu_s) * 1e9
    lam_i = 2.0 * math.pi * C_M_PER_S / (omega_i0 + state.grid.nu_i) * 1e9
    write_grid(
        path,
        _state_meta(state, meta),
        "lambda_s_nm,lambda_i_nm,intensity",
        lam_s,
        lam_i,
        (state.intensity,),
    )


def _state_meta(state: JointSpectralAmplitude, meta: dict | None) -> dict:
    header_meta = {"grid": asdict(state.grid), "provenance": state.provenance}
    if meta:
        header_meta.update(meta)
    return header_meta


def _central_frequencies(state: JointSpectralAmplitude) -> tuple[float, float]:
    """The carriers of the state's phasematching, else of its file; refused unless both are > 0."""
    prov = state.provenance
    carriers = prov["pm"] if "omega_s0" in prov.get("pm", {}) else prov
    omega_s0, omega_i0 = carriers.get("omega_s0", 0.0), carriers.get("omega_i0", 0.0)
    if not (omega_s0 > 0 and omega_i0 > 0):
        raise DomainError("state provenance does not carry central frequencies > 0")
    return omega_s0, omega_i0


def _jsi_header_problem(header: list[str]) -> str | None:
    if header in (
        ["lambda_s_nm", "lambda_i_nm", "intensity"],
        ["nu_s_rad_s", "nu_i_rad_s", "intensity"],
    ):
        return None
    return f"unrecognized JSI header {header}"


def load_jsi(path) -> JointSpectralAmplitude:
    """Read a measured joint spectral intensity grid.

    Rows may come in any order, but every (signal, idler) cell must appear
    exactly once.  Wavelength axes are converted to detunings about the axis
    midpoint; the amplitude is sqrt(intensity) with zero phase, and the
    provenance is flagged accordingly so downstream interference predictions
    can be labeled approximate.  Either kind of axis is snapped to a uniform
    grid, with a ``snapped-axes`` diagnostic when a point moves by more than
    5% of a step.
    """
    path = Path(path)
    _, header, data = _read_csv(path, _jsi_header_problem)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite cells")
    if np.any(data[:, 2] < 0):
        raise ParseError(f"{path}: negative intensities")
    axis_s, axis_i = np.unique(data[:, 0]), np.unique(data[:, 1])
    row_s = np.searchsorted(axis_s, data[:, 0])
    row_i = np.searchsorted(axis_i, data[:, 1])
    hits = np.bincount(row_s * axis_i.size + row_i)
    if hits.max() > 1:
        j, k = divmod(int(np.argmax(hits)), axis_i.size)
        raise ParseError(
            f"{path}: duplicate cell ({format_float(axis_s[j])}, {format_float(axis_i[k])})"
        )
    if axis_s.size * axis_i.size != data.shape[0]:
        raise ParseError(
            f"{path}: rows do not form a full {axis_s.size}x{axis_i.size} grid"
        )

    in_nm = header[0] == "lambda_s_nm"
    if in_nm:
        if not (axis_s[0] > 0 and axis_i[0] > 0):
            raise ParseError(f"{path}: wavelengths must be > 0")
        # omega = 2 pi c / lambda falls as lambda rises: the reversed axes
        # ascend, and row j of a wavelength axis lands at n - 1 - j
        omega_s = wavelength_to_angular_frequency(axis_s[::-1] * 1e-9)
        omega_i = wavelength_to_angular_frequency(axis_i[::-1] * 1e-9)
        omega_s0 = 0.5 * (omega_s.min() + omega_s.max())
        omega_i0 = 0.5 * (omega_i.min() + omega_i.max())
        nu_s = omega_s - omega_s0
        nu_i = omega_i - omega_i0
        row_s = axis_s.size - 1 - row_s
        row_i = axis_i.size - 1 - row_i
    else:
        omega_s0 = omega_i0 = 0.0
        nu_s, nu_i = axis_s, axis_i
    grid = FrequencyGrid(
        nu_s.size, nu_i.size, float(nu_s[0]), float(nu_s[-1]), float(nu_i[0]), float(nu_i[-1])
    )

    # the grid is uniform but the axes need not be (wavelength-spaced ones
    # never are in frequency): record how far interior points moved
    warnings: list[Diagnostic] = []
    dev = 0.0
    for ax in (nu_s, nu_i):
        uniform = np.linspace(ax[0], ax[-1], ax.size)
        spacing = uniform[1] - uniform[0]
        dev = max(dev, float(np.max(np.abs(ax - uniform)) / spacing))
    if dev > 0.05:
        kind = "wavelength" if in_nm else "detuning"
        warnings.append(Diagnostic("snapped-axes", f"{kind} axes deviate from uniform frequency "
                                   f"spacing by {dev:.1%} of one step (snapped to uniform)",
                                   doubtful=False))

    # one scatter into the array the state adopts: read-only, owning its data
    amplitude = np.zeros((grid.n_s, grid.n_i), dtype=complex)
    amplitude.real[row_s, row_i] = np.sqrt(data[:, 2])
    amplitude.flags.writeable = False
    provenance = {
        "kind": "measured",
        "source": str(path),
        "phase_assumed_zero": True,
        "omega_s0": float(omega_s0),
        "omega_i0": float(omega_i0),
        "warnings": warnings,
    }
    return JointSpectralAmplitude(grid, amplitude, provenance)


def sinc_dip_kernel(preset: SourcePreset, pump_fwhm_nm: float):
    """The source's sinc-profile dip D(u), of depth 1 at u = 0 and FWHM 1 in u.

    :func:`~biphoton.hom.coincidence_rate_sinc`, scaled; the half-depth delay
    is bisected on the half support [0, |tau_s - tau_i| / 2], where the depth
    falls monotonically (a Newton step can leave it at strong pump coupling).
    A depth below ``MIN_VISIBILITY`` (a pump so broad that the dip vanishes
    in rounding) raises ``NoDipError``.
    """
    src = preset_with_pump(preset, pump_fwhm_nm=pump_fwhm_nm, profile="sinc")
    rate = functools.partial(coincidence_rate_sinc, src.pump, src.pm)
    depth = 1.0 - rate(0.0)
    if not depth >= MIN_VISIBILITY:
        raise NoDipError(
            f"no dip: the sinc kernel at pump FWHM {pump_fwhm_nm} nm has depth "
            f"{depth:.4g} < {MIN_VISIBILITY}"
        )
    half = 0.5 * depth
    lo, hi = 0.0, 0.5 * abs(src.pm.tau_s - src.pm.tau_i)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if 1.0 - rate(mid) > half else (lo, mid)
    return lambda u: (1.0 - rate(np.asarray(u, dtype=float) * (lo + hi))) / (2.0 * half)


def _gaussian_depth(u) -> np.ndarray:
    # unit-FWHM Gaussian dip shape
    u = np.asarray(u, dtype=float)
    return np.exp(-_FOUR_LN2 * u * u)


@dataclass(frozen=True)
class FitReport:
    """Weighted least-squares dip fit results."""

    t_c: float
    t_c_sigma: float
    visibility: float
    visibility_sigma: float
    baseline: float
    center: float
    model: str
    residual_rms: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.t_c > 0:
            raise DomainError(f"fitted t_c must be > 0, got {self.t_c}")
        if self.t_c_sigma < 0 or self.visibility_sigma < 0:
            raise DomainError("uncertainties must be non-negative")

    def to_dict(self) -> dict:
        return {
            "t_c_ps": self.t_c * 1e12,
            "t_c_sigma_ps": self.t_c_sigma * 1e12,
            "visibility": self.visibility,
            "visibility_sigma": self.visibility_sigma,
            "baseline": self.baseline,
            "center_ps": self.center * 1e12,
            "model": self.model,
            "residual_rms": self.residual_rms,
            "warnings": list(self.warnings),
        }


# Iteration cap of fit_dip's Levenberg-Marquardt loop; an iteration costs one
# model evaluation, and four more for the Jacobian after an accepted step.
_FIT_MAX_ITERATIONS = 1000

# fit_dip stops once a step moves the parameters by less than this, relative.
_FIT_STEP_TOL = 1e-10


def _jacobian(residual, p, r, lower, upper) -> np.ndarray:
    """Forward-difference Jacobian of ``residual`` at ``p``, where it is ``r``.

    The steps are scipy's '2-point' ones, sqrt(eps) max(1, |p_k|) signed like
    p_k, taken the other way where they would leave the box.
    """
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(p))
    h = np.where(p < 0, -h, h)
    h = np.where((p + h < lower) | (p + h > upper), -h, h)
    jac = np.empty((r.size, p.size))
    for k in range(p.size):
        q = p.copy()
        q[k] += h[k]
        jac[:, k] = (residual(q) - r) / (q[k] - p[k])
    return jac


def _levenberg_marquardt(residual, p: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """Minimize ``sum(residual(p) ** 2)`` over the box ``lower <= p <= upper``.

    Damped Gauss-Newton (Marquardt, J. SIAM 11, 431 (1963)): each step solves
    (J^T J + lam diag(J^T J)) d = -J^T r, here as the equivalent least-squares
    problem [J; sqrt(lam diag(J^T J))] d = [-r; 0], and the trial point
    p + d is projected onto the box.  A trial that lowers the sum is taken
    and lam shrinks tenfold, otherwise lam grows tenfold.  The loop stops
    once a step is below ``_FIT_STEP_TOL`` relative to p and returns p with
    its residuals and Jacobian, or ``None`` after ``_FIT_MAX_ITERATIONS``.
    """
    r = residual(p)
    jac = _jacobian(residual, p, r, lower, upper)
    lam = 1e-3
    for _ in range(_FIT_MAX_ITERATIONS):
        damping = np.diag(np.sqrt(lam * np.sum(jac * jac, axis=0)))
        step = np.linalg.lstsq(
            np.vstack([jac, damping]), np.concatenate([-r, np.zeros(p.size)]), rcond=None
        )[0]
        trial = np.clip(p + step, lower, upper)
        converged = np.linalg.norm(trial - p) <= _FIT_STEP_TOL * np.linalg.norm(p)
        r_trial = residual(trial)
        if r_trial @ r_trial < r @ r:
            p, r = trial, r_trial
            jac = _jacobian(residual, p, r, lower, upper)
            lam /= 10.0
        else:
            lam *= 10.0
        if converged:
            return p, r, jac
    return None


def fit_dip(scan: MeasuredScan, kernel=None) -> FitReport:
    """Fit (baseline, visibility, center, width) to a measured scan.

    ``kernel`` is the dip shape, of depth 1 and FWHM 1, such as
    :func:`sinc_dip_kernel` returns (model ``sinc-kernel-dip``); None fits the
    Gaussian dip (``gaussian-dip``).  Counts with a sigma column are weighted
    by it; integer-looking raw counts get Poisson sqrt(n) weights; otherwise
    the fit is unweighted.  The fitted width parameter is the dip intensity
    FWHM, reported with its covariance-based uncertainty.  A fitted
    visibility outside [0, 1.05] adds a ``fit-visibility`` diagnostic to the
    report's warnings.
    """
    model = "gaussian-dip" if kernel is None else "sinc-kernel-dip"
    shape = _gaussian_depth if kernel is None else kernel

    delays = scan.delays
    counts = scan.counts
    if not np.any(counts > 0):
        raise DomainError("scan has no positive counts")

    edge = max(2, delays.size // 10)
    baseline0 = float(np.mean(np.concatenate([counts[:edge], counts[-edge:]])))
    if baseline0 <= 0:
        baseline0 = float(np.max(counts))
    imin = int(np.argmin(counts))
    vis0 = min(max(1.0 - counts[imin] / baseline0, 0.05), 1.0)
    center0 = float(delays[imin])
    try:
        width0 = intensity_fwhm(delays, np.clip(baseline0 - counts, 0.0, None))
    except (DomainError, CoverageError):
        width0 = (delays[-1] - delays[0]) / 4.0

    # fit in dimensionless units (delays over width0, counts over baseline0):
    # second-scale widths next to 1e4-scale counts otherwise wreck the
    # conditioning of the Levenberg-Marquardt steps
    x = delays / width0
    y = counts / baseline0

    def model_scaled(xv, baseline, visibility, center, width):
        return baseline * (1.0 - visibility * shape((xv - center) / width))

    if scan.sigma is not None:
        sigma = np.clip(scan.sigma, 1e-12 * max(1.0, counts.max()), None) / baseline0
    elif np.allclose(counts, np.round(counts)) and counts.max() >= 10:
        sigma = np.sqrt(np.clip(counts, 1.0, None)) / baseline0
    else:
        sigma = None
    weight = 1.0 if sigma is None else 1.0 / sigma

    def residual(p):
        return weight * (model_scaled(x, *p) - y)

    fit = _levenberg_marquardt(
        residual,
        np.array([1.0, vis0, center0 / width0, 1.0]),
        np.array([0.0, 0.0, x[0], 1e-3]),
        np.array([np.inf, 1.2, x[-1], np.inf]),
    )
    if fit is None:
        raise FitError(
            f"dip fit did not converge (model={model}, "
            f"p0={[baseline0, vis0, center0, width0]})"
        )
    popt, r, jac = fit

    # curve_fit's covariance: the pseudo-inverse of J^T J from the SVD of J,
    # dropping singular values at or below eps max(J.shape) s[0], scaled by
    # the reduced chi^2 when the fit is unweighted
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    pcov = (vt[keep].T / s[keep] ** 2) @ vt[keep]
    if sigma is None:
        pcov *= (r @ r) / (r.size - popt.size)
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    if not np.all(np.isfinite(perr)):
        raise FitError("singular fit covariance; scan does not constrain the dip")
    residuals = (y - model_scaled(x, *popt)) * baseline0
    warnings: list[Diagnostic] = []
    if not 0.0 <= popt[1] <= 1.05:
        warnings.append(Diagnostic("fit-visibility", f"fitted visibility {popt[1]:.3f} outside "
                                   "[0, 1.05]: model mismatch?", doubtful=False))
    return FitReport(
        t_c=float(popt[3] * width0),
        t_c_sigma=float(perr[3] * width0),
        visibility=float(popt[1]),
        visibility_sigma=float(perr[1]),
        baseline=float(popt[0] * baseline0),
        center=float(popt[2] * width0),
        model=model,
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        warnings=tuple(warnings),
    )


def convolved_duration(center_wavelength: float, fwhm_a: float, fwhm_b: float) -> float:
    """Quadrature sum of the transform-limited durations of two spectra."""
    return math.hypot(
        transform_limited_duration(center_wavelength, fwhm_a),
        transform_limited_duration(center_wavelength, fwhm_b),
    )


@dataclass(frozen=True)
class TableRow:
    """One operating point of the source: its simulated tabulated values."""

    label: str
    pump_fwhm_nm: float
    t_c_sim: float
    marginal_s_nm: float
    marginal_i_nm: float
    duration_s: float
    duration_i: float
    duration_pump: float
    duration_conv: float
    rho: float


def table_report(
    preset: SourcePreset,
    pump_fwhms_nm,
    profile: str = "sinc",
    grid_n: int = 512,
) -> list[TableRow]:
    """Simulate every tabulated quantity for a list of pump widths.

    For each pump width: the sinc-model (or gaussian-model) dip width and
    correlation label, the marginal FWHMs in nm, the transform-limited
    durations of pump and marginals, and their quadrature convolution.  Each
    row is made by :func:`_table_row`, so one row's state is alive at a time.
    """
    return [_table_row(preset, width_nm, profile, grid_n) for width_nm in pump_fwhms_nm]


def _table_row(preset: SourcePreset, width_nm, profile: str, grid_n: int) -> TableRow:
    """The :class:`TableRow` of one pump width; its state is freed on return."""
    lam_pump = 2.0 * math.pi * C_M_PER_S / preset.pump.omega_p0
    lam_pdc = 2.0 * math.pi * C_M_PER_S / preset.pm.omega_s0
    src = preset_with_pump(preset, pump_fwhm_nm=width_nm, profile=profile)
    state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=grid_n))
    dip = extract_dip(coincidence_scan(state, default_delays(src.pm)))
    sig, idl = marginals(state)
    dl_s = omega_fwhm_to_wavelength_fwhm(lam_pdc, intensity_fwhm(state.grid.nu_s, sig))
    dl_i = omega_fwhm_to_wavelength_fwhm(lam_pdc, intensity_fwhm(state.grid.nu_i, idl))
    rho, label = correlation_classification(state)
    return TableRow(
        label=label,
        pump_fwhm_nm=float(width_nm),
        t_c_sim=dip.t_c,
        marginal_s_nm=dl_s * 1e9,
        marginal_i_nm=dl_i * 1e9,
        duration_s=transform_limited_duration(lam_pdc, dl_s),
        duration_i=transform_limited_duration(lam_pdc, dl_i),
        duration_pump=transform_limited_duration(lam_pump, width_nm * 1e-9),
        duration_conv=convolved_duration(lam_pdc, dl_s, dl_i),
        rho=rho,
    )

"""Joint temporal amplitude and timing-information accounting.

The JTA is the centered 2-D Fourier transform of the JSA with the
``exp(-i nu t)`` sign convention and a ``1/(2 pi)`` weight per axis, which
makes the transform unitary (Parseval holds between the sampled integrals).
The frequency grid is zero-padded before transforming so the conjugate time
step ``dt = 2 pi / (N dnu)`` resolves the temporal structure; the padding
factor only refines the sampling, it adds no information.

:func:`jta_from_jsa` gives the same bits as
``fftshift(fft2(ifftshift(padded), axes=(1, 0)))`` without building the
padded array.  That ``fft2`` is a 1-D FFT along the signal axis followed by
one along the idler axis, and each 1-D FFT is computed line by line with one
plan per length, so a line's result does not depend on what else is
transformed with it.  The first pass therefore transforms the ``n``
non-zero idler columns only (a zero line transforms to zero), each as one
contiguous padded line placed where ``ifftshift`` would put it.  Those
places are one contiguous range modulo N, so the lines are copied in as two
slices, not scattered by index.  The result is copied once, transposed, so
that each signal time's ``n`` idler values are contiguous.  The second pass
walks the output in blocks of :data:`_ROW_BLOCK` signal-time rows, split at
the fftshift wrap point so each block reads one contiguous range of lines:
it places them in a small zero slab, transforms the slab's contiguous rows
and scales the two fftshift halves straight into the result.  An
``oversample`` of 4 skips 3/4 of the first pass.

Two N x N arrays exist: the complex result and its float |JTA|^2, which
the Parseval check computes once and the JTA keeps as ``intensity``.
:func:`diagonal_widths` bins that array row by row into two 2N - 1 vectors
and allocates nothing of size N x N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverageError, DomainError, GridError
from .jsa import (
    JointSpectralAmplitude,
    check_memory_budget,
    intensity_fwhm,
    jsa_bytes,
    _read_only,
    _squared_modulus,
)
from .spectral import PumpSpec, tabulated_pump_duration

DEFAULT_OVERSAMPLE = 4

# Parseval mismatch above this aborts: it indicates a broken transform.
_PARSEVAL_TOL = 1e-9

# Signal-time rows per block in the second transform pass: the slab stays in cache.
_ROW_BLOCK = 16


@dataclass(frozen=True)
class JointTemporalAmplitude:
    """Complex pair amplitude over (t_s, t_i), conjugate to a source JSA."""

    times: np.ndarray  # shared 1-D axis for both photons (s)
    amplitude: np.ndarray
    provenance: dict

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        if t.ndim != 1 or amp.shape != (t.size, t.size):
            raise GridError("JTA needs a square amplitude on a shared 1-D time axis")
        object.__setattr__(self, "times", _read_only(t))
        object.__setattr__(self, "amplitude", _read_only(amp))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @cached_property
    def intensity(self) -> np.ndarray:
        """|JTA|^2, computed at most once, read-only."""
        return _squared_modulus(self.amplitude)


@dataclass(frozen=True)
class TimingReport:
    """Biphoton timing widths against the pump duration.

    ``gain_minus``/``gain_plus`` are pump_duration over the difference-time
    and sum-time FWHMs; a ratio above 1 means the pair resolves finer than
    the pump along that coordinate.  The ratio definition is a convention of
    this package, not a measured quantity.
    """

    dt_minus: float
    dt_plus: float
    pump_duration: float
    gain_minus: float
    gain_plus: float

    def __post_init__(self):
        for name in ("dt_minus", "dt_plus", "pump_duration"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")


def jta_bytes(n: int, oversample: int = DEFAULT_OVERSAMPLE) -> int:
    """Bytes charged for the JTA of an n x n grid: 2 x 16 (oversample n)^2.

    An upper bound on what the transform keeps: the complex amplitude
    (16 bytes a cell) and its float intensity (8 bytes a cell).
    """
    return 2 * jsa_bytes(oversample * n, oversample * n)


def jta_from_jsa(
    state: JointSpectralAmplitude, oversample: int = DEFAULT_OVERSAMPLE
) -> JointTemporalAmplitude:
    """Centered 2-D Fourier transform of a square-grid JSA.

    Raises GridError for non-square grids and checks Parseval conservation
    to 1e-9 relative.
    """
    if not state.grid.is_square:
        raise GridError("temporal transform needs a square symmetric grid")
    if isinstance(oversample, bool) or not isinstance(oversample, numbers.Integral) or oversample < 1:
        raise DomainError(f"oversample must be an integer >= 1, got {oversample!r}")
    oversample = int(oversample)
    n = state.grid.n_s
    dnu = state.grid.d_nu_s
    big_n = oversample * n
    check_memory_budget("the joint temporal amplitude", jta_bytes(n, oversample))
    half = big_n // 2
    # ifftshift puts the padded rows (and columns) that hold the JSA at
    # start, start + 1, ... modulo big_n: two slices, the second wrapped
    start = ((big_n - n) // 2 - half) % big_n
    head = min(n, big_n - start)
    placed = ((slice(start, start + head), slice(0, head)), (slice(0, n - head), slice(head, n)))

    # pass 1, signal axis: one padded line per idler frequency
    lines = np.zeros((n, big_n), dtype=complex)
    for dst, src in placed:
        lines[:, dst] = state.amplitude[src].T
    np.fft.fft(lines, axis=1, out=lines)
    # row t of the copy holds signal time t's n idler values
    lines = lines.T.copy()

    # pass 2, idler axis: fftshift along the signal axis puts line
    # (r - half) mod big_n in output row r, so the walk splits at row half
    scale = dnu * dnu / (2.0 * math.pi)
    out = np.empty((big_n, big_n), dtype=complex)
    slab = np.zeros((_ROW_BLOCK, big_n), dtype=complex)
    spectra = np.empty_like(slab)
    for lo, hi in ((0, half), (half, big_n)):
        for r0 in range(lo, hi, _ROW_BLOCK):
            rows = min(_ROW_BLOCK, hi - r0)
            first = (r0 - half) % big_n
            block = slab[:rows]
            for dst, src in placed:
                block[:, dst] = lines[first : first + rows, src]
            spec = np.fft.fft(block, axis=1, out=spectra[:rows])
            # fftshift along the idler axis, scaled on the way into the result
            np.multiply(spec[:, big_n - half :], scale, out=out[r0 : r0 + rows, :half])
            np.multiply(spec[:, : big_n - half], scale, out=out[r0 : r0 + rows, half:])
    del lines
    dt = 2.0 * math.pi / (big_n * dnu)
    times = (np.arange(big_n) - half) * dt

    times.flags.writeable = False
    out.flags.writeable = False
    prov = dict(state.provenance)
    jta = JointTemporalAmplitude(times=times, amplitude=out, provenance=prov)

    power_nu = float(np.sum(state.intensity)) * dnu * dnu
    power_t = float(np.sum(jta.intensity)) * dt * dt
    mismatch = abs(power_nu - power_t) / power_nu
    if mismatch > _PARSEVAL_TOL:
        raise RuntimeError(f"Parseval violated by the transform: {mismatch:.3e}")
    prov["transform"] = {"oversample": oversample, "parseval_mismatch": mismatch}
    return jta


def _diagonal_bins(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bin sums of ``power`` over j - k + n - 1 and over j + k, ascending in j.

    Row j lands in bins j .. j + n - 1: as it is for the j + k bins, and
    reversed for the j - k bins.  Adding the rows in ascending order gives
    each bin the same sum, in the same order, as a column sum of the rows
    shifted right by j.
    """
    n = power.shape[0]
    minus = np.zeros(2 * n - 1)
    plus = np.zeros(2 * n - 1)
    for j, row in enumerate(power):
        plus[j : j + n] += row
        minus[j : j + n] += row[::-1]
    return minus, plus


def diagonal_widths(jta: JointTemporalAmplitude) -> tuple[float, float]:
    """FWHMs of |JTA|^2 projected on the difference and sum time coordinates.

    Projections are exact anti-diagonal/diagonal bin sums (bin width equals
    the grid dt), reported directly in ``t_s - t_i`` and ``t_s + t_i``.

    For gaussian-profile states the difference width coincides with the
    interference-dip FWHM; for rect-like temporal profiles (sinc
    phasematching) the dip is the narrower autocorrelation of the profile,
    so the two differ by up to a factor of two.
    """
    minus, plus = _diagonal_bins(jta.intensity)
    n = jta.times.size
    axis = (np.arange(2 * n - 1) - (n - 1)) * jta.dt
    try:
        dt_minus = intensity_fwhm(axis, minus)
        dt_plus = intensity_fwhm(axis, plus)
    except CoverageError as exc:
        raise CoverageError(f"diagonal projection truncated by the time window: {exc}") from exc
    return dt_minus, dt_plus


def timing_gain(jta: JointTemporalAmplitude, pump: PumpSpec) -> TimingReport:
    """Compare biphoton timing widths with the (chirp-corrected) pump duration."""
    dt_minus, dt_plus = diagonal_widths(jta)
    pump_duration = tabulated_pump_duration(pump)
    return TimingReport(
        dt_minus=dt_minus,
        dt_plus=dt_plus,
        pump_duration=pump_duration,
        gain_minus=pump_duration / dt_minus,
        gain_plus=pump_duration / dt_plus,
    )

"""Joint temporal amplitude and timing-information accounting.

The JTA is the centered 2-D Fourier transform of the JSA with the
``exp(-i nu t)`` sign convention and a ``1/(2 pi)`` weight per axis, which
makes the transform unitary (Parseval holds between the sampled integrals).
The frequency grid is zero-padded before transforming so the conjugate time
step ``dt = 2 pi / (N dnu)`` resolves the temporal structure; the padding
factor only refines the sampling, it adds no information.

The transform is the reference form: the JSA zero-padded to one N x N
array, ``ifftshift``, an in-place 1-D FFT along the signal axis and then
along the idler axis, ``fftshift``, then the scale.  It peaks at about 2x the
JTA's complex bytes (the array and its shifted copy), which :func:`jta_bytes`
bounds.  Making a :class:`JointTemporalAmplitude` checks its arguments and
charges only the O(N) lines of the time axis and the lag sums, so timing at
n = 2048 is admitted; the JTA charges :func:`jta_bytes` and runs the
transform on the first read of its ``amplitude``, and keeps only that
complex array.  The timing widths never read it.

:func:`diagonal_widths` takes the two projections of |JTA|^2 from lag sums
of the JSA instead.  Summing |JTA|^2 over the cells with
``t_s - t_i = d dt`` on the N-point time torus and applying Parseval along
each line of constant ``j + k`` gives ``N c^2 sum_D A[D] exp(-2 pi i D d / N)``,
with ``c = dnu^2 / (2 pi)`` the transform's scale and
``A[D] = sum_jk f[j, k] f*[j - D, k + D]`` the autocorrelation along the
anti-diagonals (``D = -(n - 1) .. n - 1``); the sum-time projection is the
same along the diagonals, ``A[D] = sum_jk f[j, k] f*[j - D, k - D]``.  Each
line's autocorrelation is one FFT of length 2n, the lines taken
:data:`_LINE_BLOCK` at a time; one FFT of length N of the summed lags then
gives the projection on the JTA's dt grid.  That is O(n^2 log n) time and
O(n _LINE_BLOCK) memory, and nothing N x N is made.  With ``oversample`` 1
the lines wrap around the torus: line ``j + k = s`` and line ``s + n`` fill
disjoint parts of one line.  The zero lag summed over all lines is
sum |f|^2, and it is checked against the state's intensity as the transform
checks Parseval.  The torus folds ``|t_s -+ t_i| > N dt / 2`` back into the
window, where binning the N x N intensity would not; a width moves only as
far as that folded mass moves its half-maximum crossings.
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
)
from .spectral import PumpSpec, tabulated_pump_duration

# Parseval mismatch above this aborts: it indicates a broken transform or lag sum.
_PARSEVAL_TOL = 1e-9

# JSA lines per block of the lag sums: 64 FFTs of length 2n at a time.
_LINE_BLOCK = 64


@dataclass(frozen=True)
class JointTemporalAmplitude:
    """Complex pair amplitude over (t_s, t_i), conjugate to a source JSA: the
    centered 2-D Fourier transform of ``spectrum``, run when first read.

    Holds the spectrum and the oversampling only.  Raises GridError for a
    non-square grid and DomainError for an oversample that is not an integer
    >= 1 or whose O(N) time lines are above the memory budget.  The first
    read of ``amplitude`` raises MemoryBudgetError before allocating if
    :func:`jta_bytes` is above the budget, else runs the transform, checks
    Parseval conservation to 1e-9 relative and keeps the read-only result.
    """

    spectrum: JointSpectralAmplitude
    oversample: int = 4

    def __post_init__(self):
        oversample = self.oversample
        if not self.spectrum.grid.is_square:
            raise GridError("temporal transform needs a square symmetric grid")
        if isinstance(oversample, bool) or not isinstance(oversample, numbers.Integral) or oversample < 1:
            raise DomainError(f"oversample must be an integer >= 1, got {oversample!r}")
        object.__setattr__(self, "oversample", int(oversample))
        # the time axis and the lag sums' torus, its FFT and projections:
        # at most four complex lines of N points
        big_n = self.oversample * self.spectrum.grid.n_s
        check_memory_budget("the joint temporal amplitude's time lines", 4 * jsa_bytes(1, big_n))

    @property
    def dt(self) -> float:
        """The time step 2 pi / (N dnu) of the N = oversample n point axis (s)."""
        return 2.0 * math.pi / (self.oversample * self.spectrum.grid.n_s * self.spectrum.grid.d_nu_s)

    @cached_property
    def times(self) -> np.ndarray:
        """The shared 1-D time axis of both photons (s), read-only."""
        big_n = self.oversample * self.spectrum.grid.n_s
        times = (np.arange(big_n) - big_n // 2) * self.dt
        times.flags.writeable = False
        return times

    @cached_property
    def amplitude(self) -> np.ndarray:
        """The N x N transform in the reference form (module docstring), read-only."""
        state = self.spectrum
        n = state.grid.n_s
        dnu = state.grid.d_nu_s
        big_n = self.oversample * n
        check_memory_budget("the joint temporal amplitude", jta_bytes(n, self.oversample))
        start = (big_n - n) // 2
        out = np.zeros((big_n, big_n), dtype=complex)
        out[start : start + n, start : start + n] = state.amplitude
        out = np.fft.ifftshift(out)
        np.fft.fft(out, axis=0, out=out)
        np.fft.fft(out, axis=1, out=out)
        out = np.fft.fftshift(out)
        out *= dnu * dnu / (2.0 * math.pi)
        out.flags.writeable = False
        power_nu = float(np.sum(state.intensity)) * dnu * dnu
        _check_parseval("the transform", power_nu, np.vdot(out, out).real * self.dt * self.dt)
        return out


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


def jta_bytes(n: int, oversample: int) -> int:
    """Bytes charged for the JTA of an n x n grid: 2 x 16 (oversample n)^2.

    An upper bound on the transform's peak: the padded array and its
    shifted copy, 16 bytes a cell each; the JTA then keeps the complex
    amplitude alone.
    """
    return 2 * jsa_bytes(oversample * n, oversample * n)


# the constructor's older name, which the benchmark still calls
jta_from_jsa = JointTemporalAmplitude


def _check_parseval(what: str, want: float, got: float) -> None:
    """Raise RuntimeError naming ``what`` if ``got`` misses the power ``want`` by
    more than :data:`_PARSEVAL_TOL` relative: a broken transform or lag sum."""
    mismatch = abs(want - got) / want
    if mismatch > _PARSEVAL_TOL:
        raise RuntimeError(f"Parseval violated by {what}: {mismatch:.3e}")


def _line_power(amplitude: np.ndarray, anti: bool, big_n: int) -> np.ndarray:
    """Sum over the lines of ``amplitude`` of |FFT_2n(line)|^2.

    Line s = 0 .. 2n - 2 holds the elements with ``j + k = s`` (``anti``) or
    ``j - k = s - (n - 1)``, element j at position j.  On a torus of
    ``big_n`` < 2n - 1 points, line s + big_n fills the rest of line s.
    The lines are transformed :data:`_LINE_BLOCK` at a time.
    """
    n = amplitude.shape[0]
    flat = amplitude.ravel()
    # element j of line s is flat[first + j * step]
    step = n - 1 if anti else n + 1
    rows = min(big_n, 2 * n - 1)
    lines = np.empty((min(_LINE_BLOCK, rows), 2 * n), dtype=complex)
    power = np.zeros(2 * n)
    for r0 in range(0, rows, _LINE_BLOCK):
        r1 = min(r0 + _LINE_BLOCK, rows)
        block = lines[: r1 - r0]
        block[...] = 0.0
        for s in (*range(r0, r1), *range(r0 + big_n, min(r1 + big_n, 2 * n - 1))):
            lo, hi = max(0, s - n + 1), min(n - 1, s)
            first = s if anti else n - 1 - s
            block[s % big_n - r0, lo : hi + 1] = flat[first + lo * step : first + hi * step + 1 : step]
        power += (np.abs(np.fft.fft(block, axis=1)) ** 2).sum(axis=0)
    return power


def _projections(state: JointSpectralAmplitude, oversample: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums of |JTA|^2 over ``t_s - t_i`` and over ``t_s + t_i`` on the N-point
    time torus, in steps of dt from -(N // 2) dt, from the lag sums of the JSA
    (module docstring).  Raises RuntimeError if a zero lag misses sum |f|^2.
    """
    f = state.amplitude
    n = f.shape[0]
    big_n = oversample * n
    total = float(np.sum(state.intensity))
    lags = np.arange(-(n - 1), n)
    scale = big_n * (state.grid.d_nu_s**2 / (2.0 * math.pi)) ** 2
    out = []
    for anti in (True, False):
        # autocorrelation at lag D in entry D mod 2n: the lags do not wrap
        autocorrelation = np.fft.ifft(_line_power(f, anti, big_n))
        _check_parseval("the lag sums", total, autocorrelation[0].real)
        torus = np.zeros(big_n, dtype=complex)
        np.add.at(torus, lags % big_n, autocorrelation[lags])
        out.append(np.fft.fftshift(np.fft.fft(torus).real) * scale)
    return out[0], out[1]


def diagonal_widths(jta: JointTemporalAmplitude) -> tuple[float, float]:
    """FWHMs of |JTA|^2 projected on the difference and sum time coordinates.

    The projections are taken from lag sums of the JSA on the JTA's own dt
    grid (module docstring), so the transform does not run; they are reported
    directly in ``t_s - t_i`` and ``t_s + t_i``.

    For gaussian-profile states the difference width coincides with the
    interference-dip FWHM; for rect-like temporal profiles (sinc
    phasematching) the dip is the narrower autocorrelation of the profile,
    so the two differ by up to a factor of two.
    """
    minus, plus = _projections(jta.spectrum, jta.oversample)
    try:
        dt_minus = intensity_fwhm(jta.times, minus)
        dt_plus = intensity_fwhm(jta.times, plus)
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

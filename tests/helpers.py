"""Shared construction helpers for the test suite."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from biphoton.jsa import CLASSIFICATION_SUPPORT_FLOOR, _read_only, gaussian_jsa_params
from biphoton.spectral import (
    PhasematchSpec,
    PumpSpec,
    phasematching_profile,
    pump_envelope,
)

OMEGA0 = 1.227134571536712e15

# The fields each source record writes into provenance and grid headers,
# listed by hand: the writers read them from the dataclasses, so these lists
# pin the header keys.
PUMP_KEYS = ("omega_p0", "sigma_p", "beta")
PM_KEYS = ("length_L", "tau_s", "tau_i", "omega_s0", "omega_i0", "gamma", "profile")
GRID_KEYS = ("n_s", "n_i", "nu_s_min", "nu_s_max", "nu_i_min", "nu_i_max")
FILTER_KEYS = ("shape", "center", "width", "target")


def record_fields(record, keys):
    """``{key: record.key}`` for each of ``keys``."""
    return {key: getattr(record, key) for key in keys}


def make_pm(tau_s, tau_i, gamma=0.193, profile="gaussian", length=8e-3):
    return PhasematchSpec(
        length_L=length,
        tau_s=tau_s,
        tau_i=tau_i,
        omega_s0=OMEGA0,
        omega_i0=OMEGA0,
        gamma=gamma,
        profile=profile,
    )


def make_pump(sigma, beta=0.0):
    return PumpSpec(omega_p0=2 * OMEGA0, sigma_p=sigma, beta=beta)


def random_source(rng, profile="gaussian"):
    """Random physical source parameters.

    Walk-offs closer than 0.4 ps are rejected: the amplitude then becomes so
    eccentric that a 512-point grid cannot resolve its narrow axis, which is
    the regime the phasematch type excludes as degenerate anyway.
    """
    sigma = 10 ** rng.uniform(11.9, 13.0)
    while True:
        tau_s = rng.uniform(0.3e-12, 2e-12) * rng.choice([-1.0, 1.0])
        tau_i = rng.uniform(0.3e-12, 2e-12) * rng.choice([-1.0, 1.0])
        if abs(tau_s - tau_i) >= 4e-13:
            break
    gamma = rng.uniform(0.1, 1.0)
    beta = rng.uniform(-1e-26, 1e-26)
    return make_pump(sigma, beta), make_pm(tau_s, tau_i, gamma, profile)


def evaluate_gaussian_jsa(params, grid):
    """The closed-form gaussian-profile amplitude on a grid: the oracle for ``build_jsa``.

    The quadratic form is evaluated as a completed square,
    ``c_ss (nu_s + (c_si/c_ss) nu_i)^2 + (c_ii - c_si^2/c_ss) nu_i^2``,
    which avoids the catastrophic cancellation the expanded three-term sum
    suffers along the amplitude ridge.
    """
    ns = grid.nu_s[:, None]
    ni = grid.nu_i[None, :]
    shift = params.c_si / params.c_ss
    residual = params.c_ii - params.c_si * shift
    return np.exp(-(params.c_ss * (ns + shift * ni) ** 2 + residual * ni * ni))


def gaussian_norm(pump, pm):
    """The integral of |f|^2 over the plane for the gaussian profile: pi / (2 sqrt(ab - c^2)).

    |f|^2 = exp(-2 (a nu_s^2 + 2 c nu_s nu_i + b nu_i^2)), with a, b, c the
    real parts of :func:`~biphoton.jsa.gaussian_jsa_params`.
    """
    params = gaussian_jsa_params(pump, pm)
    a, b, c = params.c_ss.real, params.c_ii.real, params.c_si.real
    return math.pi / (2.0 * math.sqrt(a * b - c * c))


def sinc_norm(pump, pm):
    """The integral of |f|^2 over the plane for the sinc profile.

    In the coordinates u = nu_s + nu_i and x = (tau_s nu_s + tau_i nu_i) / 2
    the area element is 2 / |tau_s - tau_i| du dx, and |f|^2 is
    exp(-2 u^2 / sigma_p^2) sinc^2(x), whose integrals are sigma_p sqrt(pi/2)
    and pi: the norm is 2 pi sigma_p sqrt(pi/2) / |tau_s - tau_i|.
    """
    return 2.0 * math.pi * pump.sigma_p * math.sqrt(math.pi / 2.0) / abs(pm.tau_s - pm.tau_i)


def grid_norm(state):
    """The grid's sum of |f|^2 times the cell area: the norm as the kernels sample it."""
    return float(np.sum(state.intensity)) * state.grid.d_nu_s * state.grid.d_nu_i


def matmul_overlap(state, delays):
    """The HOM exchange overlap as the direct double sum over the grid.

    ``Re sum_jk e^{i(nu_j - nu_k) tau} f[j, k] f*[k, j] / sum |f|^2``, one
    matrix product per scan, as the overlap was computed before it was taken
    over diagonal sums.
    """
    f = state.amplitude
    kernel = f * np.conj(f.T)
    norm = float(np.sum(np.abs(f) ** 2))
    phases = np.exp(1j * np.outer(state.grid.nu_s, delays))
    return np.real(np.sum(phases * (kernel @ np.conj(phases)), axis=0)) / norm


def record_adoptions(monkeypatch, module):
    """Wrap ``module._read_only``; the returned list gets, per hand-over,
    whether the array was adopted (True) or copied (False)."""
    adopted = []

    def spy(array):
        kept = _read_only(array)
        adopted.append(kept is array)
        return kept

    monkeypatch.setattr(module, "_read_only", spy)
    return adopted


# The unblocked forms of the full-grid kernels, kept as oracles: each blocked
# kernel must give their bits.


def whole_grid_amplitude(pump, pm, grid):
    """``build_jsa``'s amplitude as one whole-grid product: the Hankel view of
    the pump times the profile on a grid with equal steps, else the pump on
    ``nu_s + nu_i`` times the profile."""
    ns = grid.nu_s[:, None]
    ni = grid.nu_i[None, :]
    if grid.d_nu_s == grid.d_nu_i:
        sums = grid.nu_s_min + grid.nu_i_min + np.arange(grid.n_s + grid.n_i - 1) * grid.d_nu_s
        pump_grid = sliding_window_view(pump_envelope(pump, sums), grid.n_i)
        return np.multiply(pump_grid, phasematching_profile(pm, ns, ni))
    amp = pump_envelope(pump, ns + ni)
    amp *= phasematching_profile(pm, ns, ni)
    return amp


def whole_grid_rho(state):
    """``correlation_classification``'s rho from one ``np.where`` copy of the
    masked JSI; None where the variance product is not positive."""
    weights = state.intensity
    weights = np.where(weights >= CLASSIFICATION_SUPPORT_FLOOR * weights.max(), weights, 0.0)
    signal = weights.sum(axis=1)
    idler = weights.sum(axis=0)
    total = float(signal.sum())
    ds = state.grid.nu_s - float(signal @ state.grid.nu_s) / total
    di = state.grid.nu_i - float(idler @ state.grid.nu_i) / total
    var_s = float(signal @ (ds * ds))
    var_i = float(idler @ (di * di))
    if not var_s * var_i > 0:
        return None
    return float(ds @ (weights @ di)) / math.sqrt(var_s * var_i)


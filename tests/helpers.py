"""Shared construction helpers for the test suite."""

import numpy as np

from biphoton import PhasematchSpec, PumpSpec
from biphoton.jsa import _read_only

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

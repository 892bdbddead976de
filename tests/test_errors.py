"""The coded ``Diagnostic`` that every warning is, and the producers that record one."""

import copy
import json
import pickle

import numpy as np
import pytest

from biphoton import (
    Diagnostic,
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    default_delays,
    fit_dip,
    load_jsi,
    load_scan,
    preset_with_pump,
)
from biphoton.cli import _aliasing

DOUBT = "; results may be inaccurate"


def test_a_diagnostic_is_its_text():
    doubtful = Diagnostic("coarse-filter", "filter has 2.0 samples per FWHM (< 8)")
    plain = Diagnostic("fit-visibility", "fitted visibility 1.068 outside [0, 1.05]", False)
    assert doubtful == "filter has 2.0 samples per FWHM (< 8)" + DOUBT
    assert plain == "fitted visibility 1.068 outside [0, 1.05]"
    assert (doubtful.code, doubtful.finding) == (
        "coarse-filter", "filter has 2.0 samples per FWHM (< 8)"
    )
    assert json.dumps([doubtful, plain]) == json.dumps([str(doubtful), str(plain)])
    assert json.dumps({"w": [plain]}, indent=2) == json.dumps({"w": [str(plain)]}, indent=2)
    assert f"warning: {doubtful}" == f"warning: {str(doubtful)}"
    assert {doubtful: 1}[str(doubtful)] == 1


def test_copies_of_a_warned_state_keep_code_and_finding(ppktp):
    # a naive str subclass is rebuilt from its text alone, which __new__ refuses
    state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=6))
    state = apply_spectral_filter(
        state, SpectralFilter("gaussian", 0.0, 2 * state.grid.d_nu_s, "both")
    )
    warnings = state.provenance["warnings"]
    assert [w.code for w in warnings] == ["coarse-marginal", "coarse-marginal", "coarse-filter"]
    for copied in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        kept = copied.provenance["warnings"]
        assert kept == warnings
        assert all(isinstance(w, Diagnostic) for w in kept)
        assert [(w.code, w.finding) for w in kept] == [(w.code, w.finding) for w in warnings]


def _built(ppktp, n=64, beta=None):
    source = ppktp if beta is None else preset_with_pump(ppktp, beta=beta)
    return build_jsa(source.pump, source.pm, auto_grid(source.pump, source.pm, n=n))


def _filtered(ppktp):
    state = _built(ppktp)
    width = 2 * state.grid.d_nu_s
    return apply_spectral_filter(state, SpectralFilter("gaussian", 0.0, width, "both"))


def _snapped(tmp_path):
    axis = (0.0, 1.0, 3.0)
    rows = [f"{a:g},{b:g},1" for a in axis for b in axis]
    (tmp_path / "jsi.csv").write_text("\n".join(["nu_s_rad_s,nu_i_rad_s,intensity", *rows]) + "\n")
    return load_jsi(tmp_path / "jsi.csv")


def _fit_too_deep(tmp_path):
    # a dip 1.15 deep, clipped at zero counts: the Gaussian fit reads 1.068
    delays = np.linspace(-3.0, 3.0, 121)
    counts = np.clip(1e3 * (1 - 1.15 * np.exp(-4 * np.log(2) * (delays / 1.2) ** 2)), 0, None)
    (tmp_path / "scan.csv").write_text("delay_ps,coincidences\n" + "".join(
        f"{d:.3f},{c:.6g}\n" for d, c in zip(delays, counts)))
    return fit_dip(load_scan(tmp_path / "scan.csv")).warnings


def _aliased(ppktp):
    # 46.4 ps of delays on the n = 128 grid, whose delay period is 26.96 ps
    state = _built(ppktp, n=128)
    delays = default_delays(ppktp.pm, n=201, spans=20.0)
    ((_, found),) = _aliasing({"grid_n": 128}, state, delays, 20.0)
    return found


# Each producer's code, one of the warning cases of its own tests, and the
# finding that case records.
PRODUCERS = {
    "unresolved-marginal": (
        lambda ppktp, tmp_path: _built(ppktp, n=2).provenance["warnings"],
        "signal marginal FWHM not resolved on this grid", False,
    ),
    "coarse-marginal": (
        lambda ppktp, tmp_path: _built(ppktp, n=8).provenance["warnings"],
        "signal marginal has 2.0 samples per FWHM (< 8)", True,
    ),
    "coarse-chirp": (
        lambda ppktp, tmp_path: _built(ppktp, n=128, beta=-1e7 * 1e-30).provenance["warnings"],
        "pump chirp phase turns 17.9 rad per grid step at sigma_p (> pi)", True,
    ),
    "coarse-filter": (
        lambda ppktp, tmp_path: _filtered(ppktp).provenance["warnings"],
        "filter has 2.0 samples per FWHM (< 8)", True,
    ),
    "snapped-axes": (
        lambda ppktp, tmp_path: _snapped(tmp_path).provenance["warnings"],
        "detuning axes deviate from uniform frequency spacing by 33.3% of one step "
        "(snapped to uniform)", False,
    ),
    "fit-visibility": (
        lambda ppktp, tmp_path: _fit_too_deep(tmp_path),
        "fitted visibility 1.068 outside [0, 1.05]: model mismatch?", False,
    ),
    "aliased-scan": (
        lambda ppktp, tmp_path: _aliased(ppktp),
        "the delay scan spans 46.4 ps, at least the grid's delay period 2 pi / dnu = "
        "26.96 ps, and reads aliased dips: raise --grid-n or lower --delay-span", True,
    ),
}


@pytest.mark.parametrize("code", PRODUCERS)
def test_each_producer_records_its_code(ppktp, tmp_path, code):
    produce, finding, doubtful = PRODUCERS[code]
    coded = [w for w in produce(ppktp, tmp_path) if w.code == code]
    assert coded[0].finding == finding
    assert coded[0] == finding + (DOUBT if doubtful else "")

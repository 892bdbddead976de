"""Simulation and analysis of photon-pair joint spectra and their
Hong-Ou-Mandel interference.

The package builds joint spectral amplitudes from a chirped Gaussian pump
and a group-velocity-walk-off phasematching model (Gaussian-approximated or
sinc), predicts coincidence scans numerically and in closed form, Fourier
transforms to the joint temporal picture, and fits measured dip data.
"""

__version__ = "0.1.0"

from .errors import (
    CoverageError,
    Diagnostic,
    DomainError,
    EmptyStateError,
    FitError,
    GridError,
    NoDipError,
    ParseError,
    UnsupportedProfileError,
)
from .spectral import (
    C_M_PER_S,
    GAMMA_SINC_MATCH,
    PhasematchSpec,
    PumpSpec,
    pump_envelope,
    transform_limited_duration,
    walkoff_from_group_velocities,
    wavelength_fwhm_to_sigma,
)
from .presets import (
    SourcePreset,
    available_presets,
    derive_walkoffs_from_ridge_and_dip,
    load_preset,
    preset_with_pump,
)
from .jsa import (
    FrequencyGrid,
    GaussianJsaParams,
    JointSpectralAmplitude,
    SchmidtResult,
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    correlation_classification,
    gaussian_jsa_params,
    gaussian_marginal_fwhms,
    gaussian_schmidt_number,
    intensity_fwhm,
    jsi,
    marginals,
    schmidt_decompose,
)
from .hom import (
    DelayScan,
    HOMResult,
    coincidence_rate_gaussian,
    coincidence_rate_sinc,
    coincidence_scan,
    correlation_time_gaussian,
    default_delays,
    extract_dip,
    gaussian_scan,
    visibility_coefficient,
)
from .temporal import (
    JointTemporalAmplitude,
    TimingReport,
    diagonal_widths,
    jta_from_jsa,
    timing_gain,
)
from .dataio import (
    FitReport,
    MeasuredScan,
    TableRow,
    convolved_duration,
    export_delay_scan,
    export_jsa_csv,
    export_jsi_csv,
    export_scan,
    fit_dip,
    load_jsi,
    load_scan,
    sinc_dip_kernel,
    table_report,
    write_grid,
    write_rows,
)

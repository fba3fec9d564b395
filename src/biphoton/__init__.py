"""Spectral engineering of photon pairs from parametric downconversion.

Submodules: materials (dispersion and phasematching), jsa (joint spectral
amplitudes), schmidt (entanglement and heralding metrics), gvm_design
(group-velocity-matched sources), assembly (segmented crystal stacks).
"""

from .assembly import (
    AssemblyConfig,
    AssemblyDesign,
    assembly_config_from_design,
    assembly_jsa_grid,
    assembly_phasematching,
    central_ridge_grid,
    design_assembly,
    isolate_central_ridge,
    quantize_spacer,
    ridge_slope,
    upsilon,
)
from .constants import (
    C_UM_PS,
    GAMMA_SINC,
    GAMMA_SINC2,
    fwhm_nm_from_sigma,
    lambda_from_omega,
    omega_from_lambda,
    sigma_from_fwhm_nm,
)
from .errors import (
    AlreadyMatched,
    BadDomain,
    BiphotonError,
    ConfigError,
    DegenerateGrid,
    NoOppositeSign,
    NoPhasematch,
    NotAsymmetric,
    NumericalFailure,
    OutOfRange,
    SolverError,
    ZeroHeraldRate,
    ZeroMismatch,
)
from .gvm_design import (
    FactorizabilityReport,
    GvmScan,
    TemporalReport,
    asymmetric_design,
    decorrelation_range,
    factorizability_report,
    gvm_scan,
    gvm_wavelength_search,
    temporal_report,
)
from .io import read_bjsa, read_csv, write_bjsa, write_csv
from .jsa import (
    CrystalConfig,
    FrequencyGrid,
    JointAmplitude,
    PumpConfig,
    TaylorCoefficients,
    TimeGrid,
    angle_matched_crystal,
    default_grid,
    gaussian_model,
    intensity_correlation,
    joint_temporal_intensity,
    jsa_grid,
    marginal_sigmas,
    matched_source,
    pump_envelope,
    qpm_matched_crystal,
    taylor_coefficients,
)
from .materials import (
    DispersionModel,
    Pol,
    RaySpec,
    Sellmeier,
    carrier_mismatch,
    get_material,
    gvd,
    inverse_group_velocity,
    load_database,
    phasematching_angle,
    refractive_index,
    walkoff_angle,
    wavenumber,
)
from .schmidt import (
    HeraldMetrics,
    SchmidtSpectrum,
    SpectralFilter,
    cooperativity,
    entropy,
    herald_metrics,
    heralded_state,
    purity,
    schmidt_decompose,
    spectrum_metrics,
)

__version__ = "0.1.0"

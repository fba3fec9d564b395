"""Segmented sources: N identical crystals separated by N-1 compensating spacers.

Each crystal-plus-spacer period adds the pair phase Phi = L D_c + h D_sp with
D = k_s + k_i - k_p evaluated in the respective medium, so the N-crystal
phasematching function is the single-crystal complex sinc times the exact
geometric sum over periods:

    phi_N = exp(i (N-1) Phi / 2) sin(N Phi / 2) / sin(Phi / 2) * phi_1

A single crystal is the stack with N = 1 and jsa evaluates both: a poled crystal
keeps its grating inside D_c, and the spacer is unpoled and cut at theta = pi/2
(materials.NONCRITICAL_THETA). Crystal and spacer share the one pair geometry of
materials: extraordinary pump and signal, ordinary idler.

The spacer is chosen so that its carrier mismatch rewinds an integer number of
2 pi turns (h = m h_min) while its group-velocity mismatch cancels the
crystal's, which symmetrizes the central ridge and steers its slope to +1.
"""

from dataclasses import dataclass

import numpy as np

from .constants import C_UM_PS, GAMMA_SINC2, domega_from_dlambda, omega_from_lambda
from .errors import ConfigError, NoOppositeSign, ZeroMismatch
# upsilon lives beside the stack evaluator in jsa and is re-exported here
from .jsa import (
    CrystalConfig,
    FrequencyGrid,
    _check_carrier,
    _normalized,
    _stack_on_grid,
    _stack_phasematching,
    upsilon,
)
from .materials import (
    NONCRITICAL_THETA,
    carrier_mismatch,
    forward_mismatch,
    group_delays,
    phasematching_angle,
)


@dataclass(frozen=True)
class AssemblyConfig:
    """A crystal stack: crystal config, spacer medium (None for one crystal), geometry."""

    crystal: CrystalConfig
    spacer_material: object
    spacer_h_um: float
    n_crystals: int

    def __post_init__(self):
        if self.n_crystals < 1:
            raise ConfigError("n_crystals must be at least 1")
        if not 0 <= self.spacer_h_um < np.inf:
            raise ConfigError("spacer thickness must be nonnegative and finite")
        if self.n_crystals > 1 and self.spacer_material is None:
            raise ConfigError("a stack of more than one crystal needs a spacer material")


def assembly_phasematching(cfg, nu_s, nu_i):
    """Complex N-crystal phasematching at arbitrary detunings, full dispersion."""
    return _stack_phasematching(cfg.crystal, forward_mismatch, (nu_s, nu_i), cfg)


def assembly_jsa_grid(pump, cfg, grid):
    """Normalized assembly joint amplitude on a square grid."""
    _check_carrier(pump, cfg.crystal)
    return _stack_on_grid(pump, cfg.crystal, grid, cfg)


def _unit_mismatch_sums(material, theta, omega0):
    """(k_s' + k_i' - 2 k_p', k_p' - k_s', k_p' - k_i') per unit length."""
    kp1, ks1, ki1 = group_delays(material, theta, omega0)
    return ks1 + ki1 - 2 * kp1, kp1 - ks1, kp1 - ki1


def generalized_gvm_ratio(crystal_material, spacer_material, lambda_um, theta_crystal):
    """h/L nulling the period-averaged group-velocity mismatch, or None.

    Solves (k_s' + k_i' - 2 k_p') L + (kappa_s' + kappa_i' - 2 kappa_p') h = 0;
    a positive solution needs opposite signs in crystal and spacer.
    """
    w0 = omega_from_lambda(lambda_um)
    mc, _, _ = _unit_mismatch_sums(crystal_material, theta_crystal, w0)
    msp, _, _ = _unit_mismatch_sums(spacer_material, NONCRITICAL_THETA, w0)
    if mc == 0.0 or msp == 0.0 or np.sign(mc) == np.sign(msp):
        return None
    return float(-mc / msp)


def quantize_spacer(spacer_material, lambda_um, m_integer):
    """(h_min, h): thicknesses whose carrier phase is an exact 2 pi multiple.

    h_min = 2 pi / |delta_kappa0|; h = m h_min keeps every crystal's central
    peak aligned while leaving room to satisfy the h/L ratio.
    """
    if int(m_integer) < 1:
        raise ConfigError("m must be a positive integer")
    dk0 = carrier_mismatch(spacer_material, NONCRITICAL_THETA, lambda_um)
    if abs(dk0) < 1e-9:
        raise ZeroMismatch("spacer carrier mismatch vanishes; nothing to quantize")
    h_min = 2.0 * np.pi / abs(dk0)
    return float(h_min), float(int(m_integer) * h_min)


@dataclass(frozen=True)
class AssemblyDesign:
    """Solved stack geometry and the ridge/pump numbers that follow from it.

    T_s, T_i are the per-period group delays (ps) of signal and idler relative
    to the pump; T_minus = (T_i - T_s)/2 sets the ridge geometry. The mismatch
    sums are d(delta k)/d nu per unit length along the symmetric detuning,
    2 k_p' - k_s' - k_i', in the k_p - k_s - k_i mismatch convention; opposite
    signs between crystal and spacer are what make compensation possible.
    Wavelength figures are quoted at the degenerate carrier.
    """

    crystal_material_id: str
    spacer_material_id: str
    lambda0_um: float
    theta_c_rad: float
    n_crystals: int
    m_integer: int
    ratio_h_over_l: float
    h_min_um: float
    h_um: float
    length_um: float
    t_s_ps: float
    t_i_ps: float
    t_minus_ps: float
    mismatch_sum_crystal_ps_um: float
    mismatch_sum_spacer_ps_um: float
    delta_lambda_ridge_spacing_nm: float
    delta_lambda_ridge_fwhm_nm: float
    sigma_pump_rad_ps: float
    gen_gvm_residual_ps: float


def design_assembly(crystal_material, spacer_material, lambda_um, n_crystals, m_integer):
    """Solve a crystal/spacer stack for a separable central ridge.

    The crystal is cut at its collinear phasematching angle; the spacer
    thickness is quantized to h = m h_min and the crystal length follows from
    the generalized group-velocity-matching ratio.
    """
    n_crystals = int(n_crystals)
    m_integer = int(m_integer)
    if n_crystals < 1:
        raise ConfigError("n_crystals must be at least 1")
    theta_c = phasematching_angle(crystal_material, lambda_um)
    w0 = omega_from_lambda(lambda_um)
    m_c, ps_c, pi_c = _unit_mismatch_sums(crystal_material, theta_c, w0)
    m_sp, ps_sp, pi_sp = _unit_mismatch_sums(spacer_material, NONCRITICAL_THETA, w0)
    if not m_c * m_sp < 0:
        raise NoOppositeSign(
            "crystal and spacer group-velocity mismatches do not compensate"
        )
    ratio = -m_c / m_sp
    h_min, h = quantize_spacer(spacer_material, lambda_um, m_integer)
    length = h / ratio
    t_s = ps_c * length + ps_sp * h
    t_i = pi_c * length + pi_sp * h
    t_minus = 0.5 * (t_i - t_s)
    residual = t_s + t_i
    tm = abs(t_minus)
    lam2 = lambda_um**2
    spacing_um = lam2 / (np.sqrt(2.0) * C_UM_PS * tm)
    fwhm_um = np.sqrt(2.0) * lam2 * GAMMA_SINC2 / (np.pi * C_UM_PS * n_crystals * tm)
    sigma_pump = 2.0 * GAMMA_SINC2 / (np.sqrt(np.log(2.0)) * n_crystals * tm)
    return AssemblyDesign(
        crystal_material_id=crystal_material.material_id,
        spacer_material_id=spacer_material.material_id,
        lambda0_um=float(lambda_um),
        theta_c_rad=float(theta_c),
        n_crystals=n_crystals,
        m_integer=m_integer,
        ratio_h_over_l=float(ratio),
        h_min_um=h_min,
        h_um=h,
        length_um=float(length),
        t_s_ps=float(t_s),
        t_i_ps=float(t_i),
        t_minus_ps=float(t_minus),
        mismatch_sum_crystal_ps_um=float(-m_c),
        mismatch_sum_spacer_ps_um=float(-m_sp),
        delta_lambda_ridge_spacing_nm=float(spacing_um * 1e3),
        delta_lambda_ridge_fwhm_nm=float(fwhm_um * 1e3),
        sigma_pump_rad_ps=float(sigma_pump),
        gen_gvm_residual_ps=float(residual),
    )


def assembly_config_from_design(design, crystal_material, spacer_material):
    """Materialize the evaluation config for a solved design."""
    crystal = CrystalConfig(
        material=crystal_material,
        length_um=design.length_um,
        theta=design.theta_c_rad,
        omega0=omega_from_lambda(design.lambda0_um),
    )
    return AssemblyConfig(
        crystal=crystal,
        spacer_material=spacer_material,
        spacer_h_um=design.h_um,
        n_crystals=design.n_crystals,
    )


def central_ridge_grid(design, n=256):
    """Square grid covering the central ridge: half-span Delta-lambda/(2 sqrt 2)
    per axis, converted to angular frequency at the carrier."""
    lam = design.lambda0_um
    spacing_um = design.delta_lambda_ridge_spacing_nm * 1e-3
    half_span = domega_from_dlambda(spacing_um, lam) / (2.0 * np.sqrt(2.0))
    return FrequencyGrid(omega0=omega_from_lambda(lam), half_span=half_span, n=n)


def ridge_slope(ja):
    """Slope d nu_i / d nu_s of the dominant intensity crest.

    For every signal row whose crest carries at least a quarter of the global
    peak intensity, the idler-axis crest position is refined by a three-point
    parabola around the row maximum; an intensity-weighted least-squares line
    through the crest track gives the slope.  Feed it a pump-free
    phasematching grid to read off the ridge orientation; a pumped amplitude
    reports the crest of the pump-weighted product instead.
    """
    inten = np.abs(ja.values) ** 2
    x = ja.grid.axis()
    d = ja.grid.spacing
    peak = inten.max()
    if peak <= 0.0:
        raise ConfigError("amplitude is identically zero")
    xs, ys, ws = [], [], []
    for j in range(inten.shape[0]):
        row = inten[j]
        k = int(np.argmax(row))
        if row[k] < 0.25 * peak or k == 0 or k == row.size - 1:
            continue
        denom = row[k - 1] - 2.0 * row[k] + row[k + 1]
        frac = 0.0 if denom == 0.0 else 0.5 * (row[k - 1] - row[k + 1]) / denom
        xs.append(x[j])
        ys.append(x[k] + frac * d)
        ws.append(row[k])
    if len(xs) < 3:
        raise ConfigError("fewer than three usable crest rows")
    xs, ys, ws = np.array(xs), np.array(ys), np.array(ws)
    wsum = ws.sum()
    mx = np.dot(ws, xs) / wsum
    my = np.dot(ws, ys) / wsum
    vxx = np.dot(ws, (xs - mx) ** 2)
    if vxx == 0.0:
        return float("inf")
    return float(np.dot(ws, (xs - mx) * (ys - my)) / vxx)


def isolate_central_ridge(ja, design):
    """Restrict a sampled amplitude to its central interference ridge.

    Zeroes everything beyond the first transverse nulls of the N-crystal
    interference factor, at |nu_s - nu_i| = 2 pi / (N |T_minus|); the grid's
    own span (central_ridge_grid) bounds the ridge along it.  The transverse
    cut is what isolates the ridge: the sideband ridges kept by a plain box
    window act as extra Schmidt modes and pin the cooperativity near 1.24
    regardless of the box size.  Returns a renormalized amplitude.
    """
    t_minus = abs(design.t_minus_ps)
    if t_minus == 0.0:
        raise ConfigError("design has zero transverse period T_minus")
    nu_cut = 2.0 * np.pi / (design.n_crystals * t_minus)
    nu = ja.grid.axis()
    keep = np.abs(nu[:, None] - nu[None, :]) < nu_cut
    vals = np.where(keep, ja.values, 0.0)
    return _normalized(ja.grid, vals, ja.domain)

"""Factorizability analysis and group-velocity-matched source design.

In the Gaussian model (jsa.gaussian_form) the joint amplitude separates exactly when b = 0:

    (1)  Re b = 1/sigma^2 + (gamma/4) tau_s tau_i = 0     (magnitude mixed term)
    (2)  Im b = -(beta_t + beta_p/4) = 0                  (phase mixed term)

Condition (1) fixes the pump bandwidth whenever the two group-velocity
mismatches straddle the pump (tau_s tau_i < 0); condition (2) fixes the pump
chirp beta_t* = -beta_p/4. The solvers below locate wavelengths where these
become available and quantify how factorable the result is.
"""

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_SINC, omega_from_lambda, sigma_from_fwhm_nm
from .errors import ConfigError, NotAsymmetric
from .jsa import (
    PumpConfig,
    angle_matched_crystal,
    gaussian_form,
    marginal_sigmas,
    qpm_matched_crystal,
    taylor_coefficients,
)
from .materials import NONCRITICAL_THETA, find_root, group_delays, phasematching_angle

#: wavelengths in the scan that brackets the matched-wavelength roots
SCAN_POINTS = 64


@dataclass(frozen=True)
class FactorizabilityReport:
    """How close a pump/crystal pair is to emitting a separable state.

    cond1_residual is sigma^2 Re b, condition (1) normalized by 1/sigma^2;
    required_sigma is the bandwidth closing condition (1), None when the
    mismatch signs forbid it; beta_t_star closes condition (2). sigma_s, sigma_i
    are jsa.marginal_sigmas, the slice widths (Re a)^-1/2 and (Re c)^-1/2 at zero
    detuning of the other photon, not the marginals; aspect_ratio_r = max/min >= 1,
    theta_II_deg is the phasematching ridge angle, gvm_residual = tau_s + tau_i (ps).
    """

    cond1_residual: float
    required_sigma: float
    beta_t_star: float
    sigma_s: float
    sigma_i: float
    aspect_ratio_r: float
    theta_II_deg: float
    gvm_residual: float


def _separable_sigma(coeffs):
    """Pump sigma that closes condition (1); None unless tau_s tau_i < 0."""
    ts, ti = coeffs.tau_s, coeffs.tau_i
    return float(2.0 / np.sqrt(-GAMMA_SINC * ts * ti)) if ts * ti < 0 else None


def factorizability_report(pump, coeffs):
    ts, ti = coeffs.tau_s, coeffs.tau_i
    sig_s, sig_i = marginal_sigmas(pump, coeffs)
    r = max(sig_s / sig_i, sig_i / sig_s)
    theta = np.degrees(np.arctan(-ts / ti)) if ti != 0.0 else 90.0
    return FactorizabilityReport(
        cond1_residual=float(pump.sigma**2 * gaussian_form(pump, coeffs)[1].real),
        required_sigma=_separable_sigma(coeffs),
        beta_t_star=float(-coeffs.beta_p / 4.0),
        sigma_s=float(sig_s),
        sigma_i=float(sig_i),
        aspect_ratio_r=float(r),
        theta_II_deg=float(theta),
        gvm_residual=float(ts + ti),
    )


def solve_pump_bandwidth(crystal):
    """Pump sigma (rad/ps) that makes the Gaussian-model magnitude separable.

    None when tau_s tau_i >= 0, i.e. the pump group velocity does not lie
    between the two photon group velocities.
    """
    return _separable_sigma(taylor_coefficients(crystal))


def _mismatch_curves(material, scheme, lambdas):
    """Per-unit-length group-velocity mismatches g_mu = k_mu' - k_p', elementwise.

    Entries are NaN where no phasematching angle exists.
    """
    theta = phasematching_angle(material, lambdas) if scheme == "angle" else NONCRITICAL_THETA
    ok = ~np.isnan(theta)
    w0 = omega_from_lambda(lambdas)
    kp, ks, ki = group_delays(material, np.where(ok, theta, NONCRITICAL_THETA), w0)
    return np.where(ok, ks - kp, np.nan), np.where(ok, ki - kp, np.nan)


def _scan(material, scheme, window):
    """Wavelengths spanning the window, with the mismatch curves on them.

    The window is clipped to 2% inside the range where both the pair and the
    pump wavelengths are valid.
    """
    lo, hi = material.valid_range
    lo, hi = max(2.0 * lo * 1.02, lo * 1.02), hi * 0.98
    if window is not None:
        if not np.all(np.isfinite(window)):
            raise ConfigError(f"scan window {window} is not finite")
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if not lo < hi:
        raise ConfigError(f"empty scan window [{lo}, {hi}] um for {material.material_id}")
    lambdas = np.linspace(lo, hi, SCAN_POINTS)
    return (lambdas, *_mismatch_curves(material, scheme, lambdas))


def _refine_root(material, scheme, fn, a, b):
    """Roots of fn(g_s, g_i) in the wavelength brackets [a, b]."""
    return find_root(lambda lam: fn(*_mismatch_curves(material, scheme, lam)), a, b)


def gvm_wavelength_search(material, scheme="angle", window=None):
    """Degenerate wavelength where the pair group velocities straddle the
    pump symmetrically: k_s' + k_i' = 2 k_p'. None when no root exists."""
    lambdas, gs, gi = _scan(material, scheme, window)
    s = gs + gi
    hits = np.flatnonzero(s[:-1] * s[1:] <= 0)
    if not hits.size:
        return None
    j = hits[0]
    return float(_refine_root(material, scheme, np.add, lambdas[j], lambdas[j + 1]))


def decorrelation_range(material, scheme="angle", window=None):
    """Wavelength interval with tau_s tau_i < 0 (asymmetric factorability).

    Endpoints are the zeros of the individual mismatches. Returns the widest
    such interval inside the scan window, or None.
    """
    lambdas, gs, gi = _scan(material, scheme, window)
    prod = gs * gi
    # each run of samples with tau_s tau_i < 0 ends at a first and a last
    # sample; inner holds both ends of every run, outer the sample one further out
    neg = np.concatenate(([False], prod < 0, [False]))
    first = np.flatnonzero(~neg[:-1] & neg[1:])
    last = np.flatnonzero(neg[:-1] & ~neg[1:]) - 1
    if not first.size:
        return None
    inner, outer = np.concatenate((first, last)), np.concatenate((first - 1, last + 1))
    ends = lambdas[inner]
    # an end is refined when the product one sample out is finite, on whichever
    # curve crosses zero between the two samples
    padded = np.concatenate(([np.nan], prod, [np.nan]))
    ref = np.flatnonzero(np.isfinite(padded[outer + 1]))
    lo, hi = np.minimum(inner, outer)[ref], np.maximum(inner, outer)[ref]
    on_s = gs[lo] * gs[hi] <= 0
    ends[ref] = _refine_root(
        material, scheme, lambda s, i: np.where(on_s, s, i), lambdas[lo], lambdas[hi]
    )
    a, b = np.split(ends, 2)
    k = np.argmax(b - a)
    return float(a[k]), float(b[k])


def asymmetric_design(material, lambda_um, length_um, pump_fwhm_nm, scheme="angle"):
    """Factorizability report in the asymmetric (one tau near zero) regime.

    The pump is unchirped with intensity FWHM pump_fwhm_nm. Returns
    (report, long_crystal_regime, crystal, pump, coeffs); raises NotAsymmetric
    unless one mismatch is below 5% of the other.
    """
    if scheme == "angle":
        crystal = angle_matched_crystal(material, lambda_um, length_um)
    else:
        crystal = qpm_matched_crystal(material, lambda_um, length_um)
    sigma = sigma_from_fwhm_nm(float(pump_fwhm_nm), lambda_um / 2.0)
    pump = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma)
    coeffs = taylor_coefficients(crystal)
    lo = min(abs(coeffs.tau_s), abs(coeffs.tau_i))
    hi = max(abs(coeffs.tau_s), abs(coeffs.tau_i))
    if hi == 0.0 or lo / hi >= 0.05:
        raise NotAsymmetric(
            f"|tau| ratio {lo / hi if hi else np.nan:.3f} is not below 0.05"
        )
    report = factorizability_report(pump, coeffs)
    long_crystal = bool(pump.sigma * hi > 10.0)
    return report, long_crystal, crystal, pump, coeffs


@dataclass(frozen=True)
class TemporalReport:
    """Joint temporal intensity widths and correlation of the Gaussian model.

    dt_mu are the width parameters (ps) of the JTI exponent
    exp(-2 t_mu^2 / dt_mu^2), so dt_mu = 2/sigma_mu when all betas vanish;
    sigma_M_sq is the mixed-term coefficient (ps^-2) of the same exponent.
    sigma_M_sq_asymptotic is the long-crystal estimate, which decays as 1/L^2.
    """

    dt_s: float
    dt_i: float
    sigma_M_sq: float
    sigma_M_sq_asymptotic: float


def temporal_report(pump, coeffs):
    """Exact Gaussian-model temporal metrics via the complex covariance.

    Valid in the magnitude-separable regime (condition (1) satisfied, Re b = 0),
    where with jsa.gaussian_form's (a, b, c) the spectral exponent is
    -nu^T M nu with M = [[a, i Im b], [i Im b, c]]; Re b is dropped.
    Fourier transforming, the JTI is exp(-t^T R t / 2) with R = Re(M^{-1}),
    so dt_mu = 2 / sqrt(R_mumu) and sigma_M^2 = R_01 / 2.
    """
    a, b, c = gaussian_form(pump, coeffs)
    M = np.array([[a, 1j * b.imag], [1j * b.imag, c]])
    R = np.linalg.inv(M).real
    # long-crystal estimate: the broad photon (smaller Re) keeps the pump width and
    # the narrow one collapses; R to first order in 1/Re of the narrow one
    broad, narrow = (a, c) if a.real <= c.real else (c, a)
    asym = -b.imag * broad.imag / (2.0 * narrow.real * abs(broad) ** 2)
    return TemporalReport(
        dt_s=float(2.0 / np.sqrt(R[0, 0])),
        dt_i=float(2.0 / np.sqrt(R[1, 1])),
        sigma_M_sq=float(0.5 * R[0, 1]),
        sigma_M_sq_asymptotic=float(asym),
    )

"""Factorizability analysis and group-velocity-matched source design.

In the Gaussian model (jsa.gaussian_form) the joint amplitude separates exactly when b = 0:

    (1)  Re b = 1/sigma^2 + (gamma/4) tau_s tau_i = 0     (magnitude mixed term)
    (2)  Im b = -(beta_t + beta_p/4) = 0                  (phase mixed term)

Condition (1) fixes the pump bandwidth whenever the two group-velocity
mismatches straddle the pump (tau_s tau_i < 0); condition (2) fixes the pump
chirp beta_t* = -beta_p/4. The solvers below locate wavelengths where these
become available and quantify how factorable the result is.

A design window is sampled once: gvm_scan solves the mismatch curves on its
wavelengths and refines every zero of g_s + g_i, g_s and g_i in one find_root
call, and gvm_wavelength_search and decorrelation_range read their roots from
that scan. For an angle-matched crystal the scan's phasematching_angle call is
the only cold angle solve: each refine wavelength takes Newton steps
(materials.continue_angle) from the angle interpolated between its bracket's
two scanned angles.
"""

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_SINC, omega_from_lambda
from .errors import ConfigError, NotAsymmetric, NumericalFailure
from .jsa import _check_scheme, gaussian_form, marginal_sigmas, matched_source
from .materials import (
    NONCRITICAL_THETA,
    continue_angle,
    find_root,
    group_delays,
    phasematching_angle,
)

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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def factorizability_report(pump, coeffs):
    """The report for this pump and crystal; a figure beyond float range, such as
    sigma^2 Re b of a pump far wider than its carrier, or the aspect ratio once
    both slice widths round to 0, comes out infinite or NaN and without a
    warning, for the caller to reject."""
    ts, ti = coeffs.tau_s, coeffs.tau_i
    sig_s, sig_i = np.array(marginal_sigmas(pump, coeffs))
    r = max(sig_s / sig_i, sig_i / sig_s)
    theta = np.degrees(np.arctan(-ts / ti)) if ti != 0.0 else 90.0
    return FactorizabilityReport(
        cond1_residual=float(pump.sigma**2 * gaussian_form(pump, coeffs)[1].real),
        required_sigma=float(2.0 / np.sqrt(-GAMMA_SINC * ts * ti)) if ts * ti < 0 else None,
        beta_t_star=float(-coeffs.beta_p / 4.0),
        sigma_s=float(sig_s),
        sigma_i=float(sig_i),
        aspect_ratio_r=float(r),
        theta_II_deg=float(theta),
        gvm_residual=float(ts + ti),
    )


def _mismatch_curves(material, lambdas, theta):
    """Per-unit-length group-velocity mismatches g_mu = k_mu' - k_p', elementwise,
    for the cut theta; NaN where theta is NaN (no phasematching angle exists)."""
    ok = ~np.isnan(theta)
    w0 = omega_from_lambda(lambdas)
    (kp, _), (ks, _), (ki, _) = group_delays(material, np.where(ok, theta, NONCRITICAL_THETA), w0)
    return np.where(ok, ks - kp, np.nan), np.where(ok, ki - kp, np.nan)


@dataclass(frozen=True, eq=False)
class GvmScan:
    """The mismatch curves sampled across a wavelength window, with their zeros.

    g_s and g_i are k_s' - k_p' and k_i' - k_p' (ps/um) at lambdas (um), NaN
    where no phasematching angle exists. zeros[k, j] is the refined zero of
    curve k (0: g_s + g_i, 1: g_s, 2: g_i) between lambdas[j] and
    lambdas[j + 1], NaN where the curve keeps its sign there.
    """

    lambdas: np.ndarray
    g_s: np.ndarray
    g_i: np.ndarray
    zeros: np.ndarray


def gvm_scan(material, scheme="angle", window=None):
    """Sample the mismatch curves on SCAN_POINTS wavelengths spanning the
    window and refine every sign change of g_s + g_i, g_s and g_i in one
    find_root call, which starts from the sampled values at the bracket ends.
    A refine wavelength's phasematching angle is continued from its bracket's
    two scanned angles, not solved afresh.

    The window is clipped to 2% inside the range where both the pair and the
    pump wavelengths are valid; the pump at lambda/2 sets the lower end.
    """
    _check_scheme(scheme)
    lo, hi = material.valid_range
    lo, hi = 2.0 * lo * 1.02, hi * 0.98
    if window is not None:
        if not np.all(np.isfinite(window)):
            raise ConfigError(f"scan window {window} is not finite")
        lo, hi = max(lo, window[0]), min(hi, window[1])
    if not lo < hi:
        raise ConfigError(f"empty scan window [{lo}, {hi}] um for {material.material_id}")
    lambdas = np.linspace(lo, hi, SCAN_POINTS)
    theta = phasematching_angle(material, lambdas) if scheme == "angle" else NONCRITICAL_THETA
    gs, gi = _mismatch_curves(material, lambdas, theta)
    curves = np.stack((gs + gi, gs, gi))
    k, j = np.nonzero(curves[:, :-1] * curves[:, 1:] <= 0)
    if scheme == "angle":
        # both ends of every bracket have an angle; each refine wavelength
        # continues the one interpolated in lambda between them
        rate = (theta[j + 1] - theta[j]) / (lambdas[j + 1] - lambdas[j])

    def f(lam):
        cut = NONCRITICAL_THETA
        if scheme == "angle":
            cut = continue_angle(material, lam, theta[j] + rate * (lam - lambdas[j]))
        s, i = _mismatch_curves(material, lam, cut)
        return np.choose(k, (s + i, s, i))

    zeros = np.full((3, SCAN_POINTS - 1), np.nan)
    zeros[k, j] = find_root(f, lambdas[j], lambdas[j + 1], curves[k, j], curves[k, j + 1])
    return GvmScan(lambdas, gs, gi, zeros)


def gvm_wavelength_search(scan):
    """Degenerate wavelength where the pair group velocities straddle the
    pump symmetrically: k_s' + k_i' = 2 k_p'. The first zero of g_s + g_i in
    the gvm_scan, None when it has none."""
    hits = scan.zeros[0][~np.isnan(scan.zeros[0])]
    return float(hits[0]) if hits.size else None


def decorrelation_range(scan):
    """Wavelength interval with tau_s tau_i < 0 (asymmetric factorability).

    Endpoints are the zeros of the individual mismatches in the gvm_scan.
    Returns the widest such interval inside the scan window, or None.
    """
    gs, gi = scan.g_s, scan.g_i
    prod = gs * gi
    # each run of samples with tau_s tau_i < 0 ends at a first and a last
    # sample; inner holds both ends of every run, outer the sample one further out
    neg = np.concatenate(([False], prod < 0, [False]))
    first = np.flatnonzero(~neg[:-1] & neg[1:])
    last = np.flatnonzero(neg[:-1] & ~neg[1:]) - 1
    if not first.size:
        return None
    inner, outer = np.concatenate((first, last)), np.concatenate((first - 1, last + 1))
    ends = scan.lambdas[inner]
    # an end is refined when the product one sample out is finite, to the zero
    # of whichever curve crosses zero between the two samples
    padded = np.concatenate(([np.nan], prod, [np.nan]))
    ref = np.flatnonzero(np.isfinite(padded[outer + 1]))
    lo, hi = np.minimum(inner, outer)[ref], np.maximum(inner, outer)[ref]
    ends[ref] = scan.zeros[np.where(gs[lo] * gs[hi] <= 0, 1, 2), lo]
    a, b = np.split(ends, 2)
    k = np.argmax(b - a)
    return float(a[k]), float(b[k])


def asymmetric_design(material, lambda_um, length_um, pump_fwhm_nm, scheme="angle"):
    """A matched_source in the asymmetric (one tau near zero) regime.

    The pump is unchirped with intensity FWHM pump_fwhm_nm. Returns
    (long_crystal_regime, crystal, pump, coeffs), where long_crystal_regime is
    sigma max|tau| > 10; raises NotAsymmetric unless one mismatch is below 5%
    of the other. factorizability_report(pump, coeffs) gives the report.
    """
    crystal, pump, coeffs = matched_source(material, lambda_um, length_um, pump_fwhm_nm, scheme)
    lo = min(abs(coeffs.tau_s), abs(coeffs.tau_i))
    hi = max(abs(coeffs.tau_s), abs(coeffs.tau_i))
    if hi == 0.0 or lo / hi >= 0.05:
        raise NotAsymmetric(
            f"|tau| ratio {lo / hi if hi else np.nan:.3f} is not below 0.05"
        )
    long_crystal = bool(pump.sigma * hi > 10.0)
    return long_crystal, crystal, pump, coeffs


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


@np.errstate(divide="ignore")
def temporal_report(pump, coeffs):
    """Exact Gaussian-model temporal metrics via the complex covariance.

    Valid in the magnitude-separable regime (condition (1) satisfied, Re b = 0),
    where with jsa.gaussian_form's (a, b, c) the spectral exponent is
    -nu^T M nu with M = [[a, i Im b], [i Im b, c]]; Re b is dropped.
    Fourier transforming, the JTI is exp(-t^T R t / 2) with R = Re(M^{-1}),
    so dt_mu = 2 / sqrt(R_mumu) and sigma_M^2 = R_01 / 2. An infinite (a, b, c)
    makes dt_mu infinite, unwarned, for the caller to reject.
    """
    a, b, c = gaussian_form(pump, coeffs)
    M = np.array([[a, 1j * b.imag], [1j * b.imag, c]])
    R = np.linalg.inv(M).real
    # long-crystal estimate: the broad photon (smaller Re) keeps the pump width and
    # the narrow one collapses; R to first order in 1/Re of the narrow one
    broad, narrow = (a, c) if a.real <= c.real else (c, a)
    try:
        asym = -b.imag * broad.imag / (2.0 * narrow.real * abs(broad) ** 2)
    except OverflowError as exc:
        msg = f"temporal report overflows for pump chirp {pump.beta_t:g} ps^2"
        raise NumericalFailure(msg) from exc
    return TemporalReport(
        dt_s=float(2.0 / np.sqrt(R[0, 0])),
        dt_i=float(2.0 / np.sqrt(R[1, 1])),
        sigma_M_sq=float(0.5 * R[0, 1]),
        sigma_M_sq_asymptotic=float(asym),
    )

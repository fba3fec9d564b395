"""Factorizability conditions, GVM wavelength searches, temporal metrics."""

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
from biphoton.gvm_design import (
    asymmetric_design,
    decorrelation_range,
    factorizability_report,
    gvm_wavelength_search,
    solve_pump_bandwidth,
    temporal_report,
)
from biphoton.jsa import (
    JointAmplitude,
    PumpConfig,
    TaylorCoefficients,
    default_grid,
    gaussian_model,
    joint_temporal_intensity,
    marginal_sigmas,
    taylor_coefficients,
)

GAMMA = bp.GAMMA_SINC


def synthetic_coeffs(tau_s, tau_i, beta_s=0.0, beta_i=0.0, beta_p=0.0):
    return TaylorCoefficients(
        tau_s=tau_s,
        tau_i=tau_i,
        beta_s=beta_s,
        beta_i=beta_i,
        beta_p=beta_p,
        residual_dk0=0.0,
    )


# ------------------------------------------------------- bandwidth condition


def test_same_sign_mismatches_admit_no_pump_bandwidth(kdp_source):
    crystal, _, coeffs = kdp_source
    assert coeffs.tau_s * coeffs.tau_i > 0
    assert solve_pump_bandwidth(crystal) is None


def test_pump_bandwidth_closes_condition_one(db):
    lam = gvm_wavelength_search(db["BBO"], scheme="angle")
    crystal = bp.angle_matched_crystal(db["BBO"], lam, 10_000.0)
    sigma = solve_pump_bandwidth(crystal)
    assert sigma is not None and sigma > 0
    coeffs = taylor_coefficients(crystal)
    pump = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma)
    rep = factorizability_report(pump, coeffs)
    assert abs(rep.cond1_residual) < 1e-12
    assert rep.required_sigma == pytest.approx(sigma, rel=1e-12)
    # symmetric straddle: equal-magnitude mismatches, unit aspect, 45 deg ridge
    assert abs(rep.gvm_residual) < 1e-9 * max(abs(coeffs.tau_s), abs(coeffs.tau_i))
    assert rep.aspect_ratio_r == pytest.approx(1.0, abs=1e-6)
    assert rep.theta_II_deg == pytest.approx(45.0, abs=1.0)
    assert rep.beta_t_star == -coeffs.beta_p / 4.0


def test_required_bandwidth_scales_inversely_with_length(db):
    lam = gvm_wavelength_search(db["BBO"], scheme="angle")
    sig1 = solve_pump_bandwidth(bp.angle_matched_crystal(db["BBO"], lam, 10_000.0))
    sig2 = solve_pump_bandwidth(bp.angle_matched_crystal(db["BBO"], lam, 20_000.0))
    assert sig2 == pytest.approx(0.5 * sig1, rel=1e-9)


# --------------------------------------------------------- wavelength search


def test_gvm_search_ktp_qpm(db):
    lam = gvm_wavelength_search(db["KTP"], scheme="qpm")
    assert lam == pytest.approx(1.565982, abs=1e-4)


def test_gvm_search_bbo_angle(db):
    lam = gvm_wavelength_search(db["BBO"], scheme="angle")
    assert lam == pytest.approx(1.514727, abs=1e-4)


def test_gvm_search_respects_window(db):
    assert gvm_wavelength_search(db["BBO"], scheme="angle", window=(0.9, 1.2)) is None


@pytest.mark.parametrize(
    "window", [(2.0, 1.3), (1.5, 1.5), (float("nan"), 2.0), (1.3, float("inf")), (5.0, 6.0)]
)
def test_bad_scan_windows_rejected(db, window):
    with pytest.raises(bp.ConfigError):
        gvm_wavelength_search(db["KTP"], scheme="qpm", window=window)
    with pytest.raises(bp.ConfigError):
        decorrelation_range(db["KTP"], scheme="qpm", window=window)


def test_decorrelation_range_ktp(db):
    rng = decorrelation_range(db["KTP"], scheme="qpm")
    assert rng is not None
    lo, hi = rng
    assert lo == pytest.approx(1.21925, abs=2e-3)
    assert hi == pytest.approx(2.37860, abs=2e-3)
    lam = gvm_wavelength_search(db["KTP"], scheme="qpm")
    assert lo < lam < hi


def test_decorrelation_range_bbo(db):
    rng = decorrelation_range(db["BBO"], scheme="angle")
    assert rng is not None
    lo, hi = rng
    assert lo == pytest.approx(1.16938, abs=2e-3)
    assert hi == pytest.approx(1.94958, abs=2e-3)


def test_decorrelation_range_clipped_by_window(db):
    rng = decorrelation_range(db["KTP"], scheme="qpm", window=(1.3, 2.0))
    assert rng is not None
    lo, hi = rng
    # interior of the opposite-sign band: the window itself bounds the result
    assert lo == pytest.approx(1.3, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


# --------------------------------------------------------- asymmetric design


def test_symmetric_point_is_not_asymmetric(db):
    lam = gvm_wavelength_search(db["BBO"], scheme="angle")
    with pytest.raises(bp.NotAsymmetric):
        asymmetric_design(db["BBO"], lam, 10_000.0, 1.0)


def test_asymmetric_design_kdp(db):
    report, long_crystal, *_ = asymmetric_design(db["KDP"], 0.83, 20_000.0, 5.0)
    assert long_crystal is True
    # one mismatch is tiny: no symmetric bandwidth solution, extreme aspect
    assert report.required_sigma is None
    assert report.aspect_ratio_r > 10.0
    assert abs(abs(report.theta_II_deg) - 90.0) < 0.5


# ----------------------------------------------------------- temporal report


def test_temporal_widths_without_dispersion():
    sigma = 25.0
    tau = 2.0 / (np.sqrt(GAMMA) * sigma)
    pump = PumpConfig(omega_p0=2.0 * bp.omega_from_lambda(0.8), sigma=sigma)
    coeffs = synthetic_coeffs(tau_s=tau, tau_i=-tau)
    rep = temporal_report(pump, coeffs)
    sig_s, sig_i = marginal_sigmas(pump, coeffs)
    assert rep.dt_s == pytest.approx(2.0 / sig_s, rel=1e-12)
    assert rep.dt_i == pytest.approx(2.0 / sig_i, rel=1e-12)
    assert rep.sigma_M_sq == 0.0
    assert rep.sigma_M_sq_asymptotic == 0.0


def test_pump_chirp_at_star_cancels_mixed_term():
    sigma = 25.0
    tau = 2.0 / (np.sqrt(GAMMA) * sigma)
    coeffs = synthetic_coeffs(tau_s=tau, tau_i=-tau, beta_s=0.01, beta_i=0.01, beta_p=0.05)
    w0 = bp.omega_from_lambda(0.8)
    chirped = PumpConfig(omega_p0=2.0 * w0, sigma=sigma, beta_t=-coeffs.beta_p / 4.0)
    rep = temporal_report(chirped, coeffs)
    assert abs(rep.sigma_M_sq) < 1e-18
    assert rep.sigma_M_sq_asymptotic == 0.0
    plain = temporal_report(PumpConfig(omega_p0=2.0 * w0, sigma=sigma), coeffs)
    assert abs(plain.sigma_M_sq) > 1e-3


def test_temporal_report_matches_transform():
    # magnitude-separable construction, so the quadratic-exponent model holds
    sigma = 25.0
    tau = 2.0 / (np.sqrt(GAMMA) * sigma)
    coeffs = synthetic_coeffs(
        tau_s=tau, tau_i=-tau, beta_s=0.013, beta_i=-0.004, beta_p=0.06
    )
    w0 = bp.omega_from_lambda(0.8)
    pump = PumpConfig(omega_p0=2.0 * w0, sigma=sigma)
    rep = temporal_report(pump, coeffs)

    grid = default_grid(pump, coeffs, n=256)
    nu = grid.axis()
    vals = gaussian_model(pump, coeffs, nu[:, None], nu[None, :])
    norm = np.sqrt(np.sum(np.abs(vals) ** 2)) * grid.spacing
    jti = joint_temporal_intensity(JointAmplitude(grid, vals / norm))
    t = jti.grid.axis()
    w = np.abs(jti.values) ** 2
    w /= w.sum()
    ts = t[:, None] * np.ones_like(w)
    ti = t[None, :] * np.ones_like(w)
    mus = np.sum(w * ts)
    mui = np.sum(w * ti)
    cov = np.array(
        [
            [np.sum(w * (ts - mus) ** 2), np.sum(w * (ts - mus) * (ti - mui))],
            [np.sum(w * (ts - mus) * (ti - mui)), np.sum(w * (ti - mui) ** 2)],
        ]
    )
    # JTI = exp(-t^T R t / 2) is a Gaussian density with covariance R^{-1}
    R_fit = np.linalg.inv(cov)
    assert 2.0 / np.sqrt(R_fit[0, 0]) == pytest.approx(rep.dt_s, rel=0.02)
    assert 2.0 / np.sqrt(R_fit[1, 1]) == pytest.approx(rep.dt_i, rel=0.02)
    assert 0.5 * R_fit[0, 1] == pytest.approx(rep.sigma_M_sq, rel=0.02)


def test_asymptotic_mixed_term_tracks_exact(kdp_source):
    _, pump, coeffs = kdp_source
    rep = temporal_report(pump, coeffs)
    assert rep.sigma_M_sq_asymptotic == pytest.approx(rep.sigma_M_sq, rel=5e-3)


def test_mixed_term_decays_quadratically_with_length(db, kdp_source):
    crystal, pump, _ = kdp_source
    reports = []
    for length in (80_000.0, 160_000.0):
        cfg = bp.CrystalConfig(
            material=crystal.material,
            length_um=length,
            theta=crystal.theta,
            omega0=crystal.omega0,
        )
        reports.append(temporal_report(pump, taylor_coefficients(cfg)))
    ratio = reports[1].sigma_M_sq / reports[0].sigma_M_sq
    assert ratio == pytest.approx(0.26864871039475385, rel=1e-10)
    assert ratio == pytest.approx(0.25, rel=0.10)

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
from biphoton.jsa import GAMMA_SINC, CrystalConfig, PumpConfig, phasematching, phasematching_sinc


def test_sigma_from_fwhm_conversion():
    # sigma = (2 pi c / lam^2) (fwhm / sqrt(2 ln 2)), fwhm in the same units
    lam, fwhm_nm = 0.415, 5.0
    expected = 2.0 * np.pi * bp.C_UM_PS / lam**2 * fwhm_nm * 1e-3 / np.sqrt(2.0 * np.log(2.0))
    got = bp.sigma_from_fwhm_nm(fwhm_nm, lam)
    assert abs(got - expected) / expected < 1e-12
    assert abs(bp.fwhm_nm_from_sigma(got, lam) - fwhm_nm) < 1e-12


def test_omega_lambda_round_trip():
    for lam in (0.4, 0.83, 1.568):
        assert abs(bp.lambda_from_omega(bp.omega_from_lambda(lam)) - lam) < 1e-14


def test_pump_envelope_shape():
    pump = PumpConfig(omega_p0=2.0 * bp.omega_from_lambda(0.8), sigma=20.0, beta_t=0.3)
    nu = np.array([0.0, 10.0, -10.0])
    alpha = bp.pump_envelope(pump, nu)
    assert abs(alpha[0] - 1.0) < 1e-14
    assert abs(abs(alpha[1]) - np.exp(-0.25)) < 1e-14
    assert abs(np.angle(alpha[1]) - 0.3 * 100.0 + 2.0 * np.pi * 5) < 1e-9
    assert alpha[1] == alpha[2]


def test_taylor_coefficients_carrier_residual(db, kdp_source):
    _, _, coeffs = kdp_source
    assert abs(coeffs.residual_dk0) < 1e-6
    off = CrystalConfig(
        material=db["KDP"],
        length_um=20000.0,
        theta=bp.phasematching_angle(db["KDP"], 0.83) + 0.05,
        omega0=bp.omega_from_lambda(0.83),
    )
    with pytest.raises(bp.ConfigError):
        bp.taylor_coefficients(off)


def test_phasematching_first_zero(kdp_source):
    crystal, _, coeffs = kdp_source
    # |phi| = 0 where tau_s nu / 2 + beta_s nu^2 / 2 = -pi (tau_s < 0)
    predicted = np.roots([coeffs.beta_s / 2.0, coeffs.tau_s / 2.0, np.pi])
    predicted = float(predicted[np.argmin(np.abs(predicted))])
    nu = np.linspace(0.5 * predicted, 1.5 * predicted, 100001)
    mag = np.abs(phasematching_sinc(crystal, nu, np.zeros_like(nu)))
    measured = nu[np.argmin(mag)]
    assert abs(measured - predicted) < 0.01 * abs(predicted)
    assert mag.min() < 1e-4


def test_phasematching_phase_convention(kdp_source):
    crystal, _, coeffs = kdp_source
    # carrier-matched crystal: arg phi = L delta_k / 2 expanded to the Taylor terms
    nu = 0.3
    phi = phasematching_sinc(crystal, np.array([nu]), np.array([0.0]))[0]
    x = (coeffs.tau_s * nu + coeffs.beta_s * nu**2) / 2.0
    assert abs(np.angle(phi) - x) < 1e-8


def test_phasematching_argument_linear_in_length(db):
    theta = bp.phasematching_angle(db["KDP"], 0.83)
    w0 = bp.omega_from_lambda(0.83)

    def arg_at(length):
        crystal = CrystalConfig(material=db["KDP"], length_um=length, theta=theta, omega0=w0)
        return np.angle(phasematching_sinc(crystal, np.array([0.05]), np.array([0.0]))[0])

    assert abs(arg_at(8000.0) / arg_at(4000.0) - 2.0) < 1e-9


def test_phasematching_zero_mismatch_is_exactly_one():
    assert np.all(phasematching(np.zeros((8, 8)), 123.0) == 1.0)


def test_jsa_grid_matches_pointwise_path(db, kdp_source):
    kdp, kdp_pump, _ = kdp_source
    ktp = bp.qpm_matched_crystal(db["KTP"], 1.566, 20000.0)
    ktp_pump = PumpConfig(omega_p0=2.0 * ktp.omega0, sigma=bp.sigma_from_fwhm_nm(1.5, 0.783))
    for crystal, pump in ((kdp, kdp_pump), (ktp, ktp_pump)):
        grid = bp.default_grid(pump, bp.taylor_coefficients(crystal), n=128)
        nu = grid.axis()
        direct = phasematching_sinc(crystal, nu[:, None], nu[None, :])
        direct *= bp.pump_envelope(pump, nu[:, None] + nu[None, :])
        direct /= np.sqrt(np.sum(np.abs(direct) ** 2)) * grid.spacing
        # the grid path sums the pump detuning as (j + k - n) dnu, the
        # pointwise path as nu_j + nu_k; the ulp noise passes through exp(i L D / 2)
        assert np.max(np.abs(direct - bp.jsa_grid(pump, crystal, grid).values)) < 1e-9


def test_jsa_grid_is_normalized(kdp_source):
    crystal, pump, coeffs = kdp_source
    grid = bp.default_grid(pump, coeffs, n=128)
    for model in ("full_sinc", "gaussian"):
        ja = bp.jsa_grid(pump, crystal, grid, model=model)
        assert abs(ja.norm_squared() - 1.0) < 1e-12


def test_gaussian_model_matches_sinc_slice_widths(kdp_source):
    crystal, pump, coeffs = kdp_source
    grid = bp.default_grid(pump, coeffs, n=512)
    nu = grid.axis()
    ja_s = bp.jsa_grid(pump, crystal, grid)
    ja_g = bp.jsa_grid(pump, crystal, grid, model="gaussian")

    def slice_half_width(ja, axis):
        v = np.abs(ja.values)
        c = v.shape[0] // 2
        sl = (v[:, c] if axis == 0 else v[c, :]) / v.max()
        above = nu[sl >= np.exp(-1.0)]
        return 0.5 * (above.max() - above.min())

    for axis in (0, 1):
        ws = slice_half_width(ja_s, axis)
        wg = slice_half_width(ja_g, axis)
        assert abs(ws - wg) / ws < 0.08


def test_gaussian_model_log_magnitude_cross_term(kdp_source):
    _, pump, coeffs = kdp_source
    h = 0.05
    def logmag(ns, ni):
        return np.log(np.abs(bp.gaussian_model(pump, coeffs, np.array([ns]), np.array([ni]))[0]))
    mixed = (logmag(h, h) - logmag(h, -h) - logmag(-h, h) + logmag(-h, -h)) / (4.0 * h * h)
    expected = -2.0 / pump.sigma**2 - GAMMA_SINC * coeffs.tau_s * coeffs.tau_i / 2.0
    assert abs(mixed - expected) < 1e-9


def test_gaussian_model_bilinear_phase_term(kdp_source):
    _, _, coeffs = kdp_source
    w0 = bp.omega_from_lambda(0.83)
    h = 0.02

    def mixed_phase(beta_t):
        pump = PumpConfig(omega_p0=2.0 * w0, sigma=46.0, beta_t=beta_t)
        def arg(ns, ni):
            return np.angle(bp.gaussian_model(pump, coeffs, np.array([ns]), np.array([ni]))[0])
        return (arg(h, h) - arg(h, -h) - arg(-h, h) + arg(-h, -h)) / (4.0 * h * h)

    assert abs(mixed_phase(0.7) - (2.0 * 0.7 + coeffs.beta_p / 2.0)) < 1e-9
    assert abs(mixed_phase(-coeffs.beta_p / 4.0)) < 1e-12


def test_grid_validation():
    w0 = bp.omega_from_lambda(0.8)
    with pytest.raises(bp.ConfigError):
        bp.FrequencyGrid(omega0=w0, half_span=10.0, n=48)
    with pytest.raises(bp.ConfigError):
        bp.FrequencyGrid(omega0=w0, half_span=10.0, n=16)
    for half_span in (-1.0, float("nan"), float("inf")):
        with pytest.raises(bp.ConfigError):
            bp.FrequencyGrid(omega0=w0, half_span=half_span, n=64)
    for omega0 in (float("nan"), float("inf")):
        with pytest.raises(bp.ConfigError):
            bp.FrequencyGrid(omega0=omega0, half_span=10.0, n=64)
    # read_csv's default carrier when the header carries none
    assert bp.FrequencyGrid(omega0=0.0, half_span=10.0, n=64).omega0 == 0.0


def test_nan_length_and_pump_width_rejected(db):
    w0 = bp.omega_from_lambda(0.83)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(bp.ConfigError):
            CrystalConfig(db["KDP"], length_um=bad, theta=1.0, omega0=w0)
        with pytest.raises(bp.ConfigError):
            PumpConfig(omega_p0=2.0 * w0, sigma=bad)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(bp.ConfigError):
            PumpConfig(omega_p0=2.0 * w0, sigma=40.0, beta_t=bad)


def test_degenerate_grid_rejected(kdp_source):
    crystal, pump, coeffs = kdp_source
    grid = bp.FrequencyGrid(omega0=crystal.omega0, half_span=0.01, n=64)
    with pytest.raises(bp.DegenerateGrid):
        bp.jsa_grid(pump, crystal, grid)


def test_pump_carrier_must_match(db, kdp_source):
    crystal, _, _ = kdp_source
    pump = PumpConfig(omega_p0=2.2 * crystal.omega0, sigma=40.0)
    with pytest.raises(bp.ConfigError):
        bp.jsa_grid(pump, crystal)


def test_default_grid_shape(kdp_source):
    _, pump, coeffs = kdp_source
    grid = bp.default_grid(pump, coeffs)
    assert grid.n == 256 and grid.n & (grid.n - 1) == 0
    sig_s, sig_i = bp.marginal_sigmas(pump, coeffs)
    assert abs(grid.half_span - 4.0 * max(sig_s, sig_i)) < 1e-12


def test_parseval_under_temporal_transform(kdp_jsa):
    jti = bp.joint_temporal_intensity(kdp_jsa)
    assert abs(jti.norm_squared() - 1.0) < 1e-12
    with pytest.raises(bp.BadDomain):
        bp.joint_temporal_intensity(jti)


def test_kdp_correlations(kdp_jsa):
    assert bp.intensity_correlation(kdp_jsa) < -0.2
    assert abs(bp.intensity_correlation(bp.joint_temporal_intensity(kdp_jsa))) < 0.05


def test_cooperativity_grid_converged(kdp_source, kdp_jsa):
    crystal, pump, coeffs = kdp_source
    k256 = bp.cooperativity(bp.schmidt_decompose(kdp_jsa))
    fine = bp.jsa_grid(pump, crystal, bp.default_grid(pump, coeffs, n=512))
    k512 = bp.cooperativity(bp.schmidt_decompose(fine))
    assert abs(k512 - k256) / k256 < 1e-3

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import biphoton as bp
from biphoton.assembly import AssemblyConfig, assembly_phasematching
from biphoton.jsa import GAMMA_SINC, CrystalConfig, PumpConfig, _sinc
from biphoton.materials import (
    IDLER_POL,
    NONCRITICAL_THETA,
    PUMP_POL,
    SIGNAL_POL,
    RaySpec,
    wavenumber,
)


def crystal_phasematching(crystal, nu_s, nu_i):
    """Complex phasematching of one crystal at any points: the one-crystal stack."""
    return assembly_phasematching(AssemblyConfig(crystal, None, 0.0, 1), nu_s, nu_i)


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
    mag = np.abs(crystal_phasematching(crystal, nu, np.zeros_like(nu)))
    measured = nu[np.argmin(mag)]
    assert abs(measured - predicted) < 0.01 * abs(predicted)
    assert mag.min() < 1e-4


def test_phasematching_phase_convention(kdp_source):
    crystal, _, coeffs = kdp_source
    # carrier-matched crystal: arg phi = L delta_k / 2 expanded to the Taylor terms
    nu = 0.3
    phi = crystal_phasematching(crystal, np.array([nu]), np.array([0.0]))[0]
    x = (coeffs.tau_s * nu + coeffs.beta_s * nu**2) / 2.0
    assert abs(np.angle(phi) - x) < 1e-8


def test_phasematching_argument_linear_in_length(db):
    theta = bp.phasematching_angle(db["KDP"], 0.83)
    w0 = bp.omega_from_lambda(0.83)

    def arg_at(length):
        crystal = CrystalConfig(material=db["KDP"], length_um=length, theta=theta, omega0=w0)
        return np.angle(crystal_phasematching(crystal, np.array([0.05]), np.array([0.0]))[0])

    assert abs(arg_at(8000.0) / arg_at(4000.0) - 2.0) < 1e-9


def test_phasematching_zero_mismatch_is_exactly_one():
    assert np.all(_sinc(np.zeros((8, 8))) == 1.0)


def test_jsa_grid_matches_pointwise_path(db, kdp_source):
    kdp, kdp_pump, _ = kdp_source
    ktp = bp.qpm_matched_crystal(db["KTP"], 1.566, 20000.0)
    ktp_pump = PumpConfig(omega_p0=2.0 * ktp.omega0, sigma=bp.sigma_from_fwhm_nm(1.5, 0.783))
    for crystal, pump in ((kdp, kdp_pump), (ktp, ktp_pump)):
        grid = bp.default_grid(pump, bp.taylor_coefficients(crystal), n=128)
        nu = grid.axis()
        direct = crystal_phasematching(crystal, nu[:, None], nu[None, :])
        direct *= bp.pump_envelope(pump, nu[:, None] + nu[None, :])
        direct /= np.sqrt(np.sum(np.abs(direct) ** 2)) * grid.spacing
        # the grid path sums the pump detuning as (j + k - n) dnu, the
        # pointwise path as nu_j + nu_k; the ulp noise passes through exp(i L D / 2)
        assert np.max(np.abs(direct - bp.jsa_grid(pump, crystal, grid).values)) < 1e-9


def _dense_mismatch(material, theta, omega0, grid, grating=0.0):
    """D = k_s + k_i - (k_p - grating) on the n x n grid, k_p sampled on the
    2n - 1 sums (m - n) dnu and gathered at index j + k."""
    n, nu = grid.n, grid.axis()
    ks = wavenumber(material, RaySpec(SIGNAL_POL, theta), omega0 + nu)
    ki = wavenumber(material, RaySpec(IDLER_POL, theta), omega0 + nu)
    nu_sum = (np.arange(2 * n - 1) - n) * grid.spacing
    kp = wavenumber(material, RaySpec(PUMP_POL, theta), 2 * omega0 + nu_sum) - grating
    idx = np.arange(n)
    return ks[:, None] + ki[None, :] - kp[idx[:, None] + idx[None, :]]


def dense_reference(pump, crystal, grid, stack=None):
    """The full-sinc amplitude with every factor taken per grid point: x = L D / 2,
    np.sinc(x / pi) e^{ix}, the N-crystal factor N upsilon(N, Phi / 2)
    e^{i (N - 1) Phi / 2}, and the pump envelope on the n^2 sums nu_j + nu_k."""
    w0 = crystal.omega0
    dc = _dense_mismatch(crystal.material, crystal.theta, w0, grid, crystal.grating)
    x = 0.5 * crystal.length_um * dc
    values = np.sinc(x / np.pi) * np.exp(1j * x)
    if stack is not None and stack.n_crystals > 1:
        n = stack.n_crystals
        dsp = _dense_mismatch(stack.spacer_material, NONCRITICAL_THETA, w0, grid)
        phi = crystal.length_um * dc + stack.spacer_h_um * dsp
        values = n * bp.upsilon(n, 0.5 * phi) * np.exp(0.5j * (n - 1) * phi) * values
    nu = grid.axis()
    values = values * bp.pump_envelope(pump, nu[:, None] + nu[None, :])
    return values / (np.sqrt(np.sum(np.abs(values) ** 2)) * grid.spacing)


#: (material, lambda_pdc_um, length_um, pump_fwhm_nm, scheme, chirp_ps2, n)
REFERENCE_GRIDS = {
    "KDP-angle": ("KDP", 0.83, 20000.0, 5.0, "angle", 0.0, 256),
    "KDP-angle-1024": ("KDP", 0.83, 20000.0, 5.0, "angle", 0.0, 1024),
    "KTP-qpm": ("KTP", 1.566, 20000.0, 1.5, "qpm", 0.0, 256),
    "KDP-chirped": ("KDP", 0.83, 20000.0, 5.0, "angle", 0.015, 256),
}


@pytest.mark.parametrize("name", REFERENCE_GRIDS)
def test_grid_evaluator_matches_dense_reference(db, name):
    # the separable phase rounds L k ~ 1e5 rad per wave where the dense form
    # rounds L D / 2: both carry ~1e-11 rad, far inside 1e-10 of the peak
    material, lam, length, fwhm, scheme, chirp, n = REFERENCE_GRIDS[name]
    crystal, pump, coeffs = bp.matched_source(db[material], lam, length, fwhm, scheme, chirp)
    grid = bp.default_grid(pump, coeffs, n=n)
    ref = dense_reference(pump, crystal, grid)
    peak = np.max(np.abs(ref))
    one = AssemblyConfig(crystal, None, 0.0, 1)
    for ja in (bp.jsa_grid(pump, crystal, grid), bp.assembly_jsa_grid(pump, one, grid)):
        assert np.max(np.abs(ja.values - ref)) < 1e-10 * peak


def test_stack_grid_matches_dense_reference(db, stack_design):
    cfg = bp.assembly_config_from_design(stack_design, db["BBO"], db["CALCITE"])
    grid = bp.central_ridge_grid(stack_design, n=256)
    ref = dense_reference(stack_design.pump, cfg.crystal, grid, cfg)
    ja = bp.assembly_jsa_grid(stack_design.pump, cfg, grid)
    assert np.max(np.abs(ja.values - ref)) < 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("stacked", [False, True])
def test_point_evaluator_is_the_grid_evaluator(db, kdp_source, stack_design, stacked):
    # with a power-of-two step every nu_j + nu_k is exact, so the point path's
    # pump detunings are the grid's 2n - 1 sums and both paths take the same
    # wavenumbers; only the order of the final products differs
    if stacked:
        cfg = bp.assembly_config_from_design(stack_design, db["BBO"], db["CALCITE"])
        pump, grid = stack_design.pump, bp.central_ridge_grid(stack_design, n=128)
    else:
        crystal, pump, coeffs = kdp_source
        cfg = AssemblyConfig(crystal, None, 0.0, 1)
        grid = bp.default_grid(pump, coeffs, n=128)
    step = 2.0 ** np.round(np.log2(grid.spacing))
    grid = replace(grid, half_span=0.5 * grid.n * step)
    nu = grid.axis()
    points = assembly_phasematching(cfg, nu[:, None], nu[None, :])
    points *= bp.pump_envelope(pump, nu[:, None] + nu[None, :])
    points /= np.sqrt(np.sum(np.abs(points) ** 2)) * grid.spacing
    values = bp.assembly_jsa_grid(pump, cfg, grid).values
    assert np.max(np.abs(points - values)) < 1e-13 * np.max(np.abs(values))


@pytest.mark.parametrize("source", ["KDP-angle", "KTP-qpm"])
def test_grating_costs_no_dispersion_calls(db, monkeypatch, source):
    # a poled crystal carries its grating from construction on, so its grid and
    # point evaluations need the same wavenumber calls as an unpoled crystal's:
    # three for the grid and three per point call (the Taylor residual reads the
    # principal indices directly, without wavenumber)
    if source == "KTP-qpm":
        crystal = bp.qpm_matched_crystal(db["KTP"], 1.566, 20000.0)
    else:
        crystal = bp.angle_matched_crystal(db["KDP"], 0.83, 20000.0)
    sigma = bp.sigma_from_fwhm_nm(1.0, bp.lambda_from_omega(crystal.omega0) / 2)
    pump = PumpConfig(2.0 * crystal.omega0, sigma)
    grid = bp.default_grid(pump, bp.taylor_coefficients(crystal), n=256)
    wavenumber, calls = bp.materials.wavenumber, []

    def counted(*args):
        calls.append(args)
        return wavenumber(*args)

    for module in (bp.materials, bp.jsa):
        monkeypatch.setattr(module, "wavenumber", counted)
    bp.jsa_grid(pump, crystal, grid)
    assert len(calls) == 3
    calls.clear()
    crystal_phasematching(crystal, 0.1, -0.2)
    assert len(calls) == 3


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
    # a zero carrier is a valid grid
    assert bp.FrequencyGrid(omega0=0.0, half_span=10.0, n=64).omega0 == 0.0


def test_grid_needs_a_nonzero_step():
    """A positive half span whose step 2 half_span / n underflows to zero (as a
    file header can name) is refused, not left to divide by zero later."""
    with pytest.raises(bp.ConfigError, match="nonzero step"):
        bp.FrequencyGrid(omega0=bp.omega_from_lambda(0.8), half_span=5e-324, n=64)


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


@pytest.mark.parametrize("model", ["full_sinc", "gaussian", "assembly"])
def test_grid_carrier_must_match(db, kdp_source, stack_design, model):
    # the amplitude is evaluated at the crystal's carrier, while filters and
    # exports read the grid's; a grid labelled with another carrier is refused
    if model == "assembly":
        cfg = bp.assembly_config_from_design(stack_design, db["BBO"], db["CALCITE"])
        grid = bp.central_ridge_grid(stack_design, n=64)

        def build(g):
            return bp.assembly_jsa_grid(stack_design.pump, cfg, g)
    else:
        crystal, pump, coeffs = kdp_source
        grid = bp.default_grid(pump, coeffs, n=64)

        def build(g):
            return bp.jsa_grid(pump, crystal, g, model=model)
    w0 = grid.omega0
    for ok in (w0, w0 * (1.0 + 1e-12)):
        assert build(replace(grid, omega0=ok)).grid.omega0 == ok
    for bad in (w0 * (1.0 + 1e-8), bp.omega_from_lambda(0.9), 1.0):
        with pytest.raises(bp.ConfigError, match="grid carrier"):
            build(replace(grid, omega0=bad))


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


def reference_intensity_correlation(ja):
    """Pearson correlation with every step on the n^2 intensity: |f|^2 through
    abs, normalized, and the covariance as one three-operand contraction."""
    w = np.abs(ja.values) ** 2
    w = w / np.sum(w)
    x = ja.grid.axis()
    px, py = w.sum(axis=1), w.sum(axis=0)
    mx, my = np.dot(px, x), np.dot(py, x)
    vx, vy = np.dot(px, (x - mx) ** 2), np.dot(py, (x - my) ** 2)
    return float(np.einsum("j,k,jk->", x - mx, x - my, w) / np.sqrt(vx * vy))


@pytest.mark.parametrize("chirp", [0.0, 0.015])
def test_intensity_correlation_matches_reference(kdp_source, chirp):
    crystal, pump, coeffs = kdp_source
    pump = replace(pump, beta_t=chirp)
    ja = bp.jsa_grid(pump, crystal, bp.default_grid(pump, coeffs, n=256))
    for amp in (ja, bp.joint_temporal_intensity(ja)):
        ref = reference_intensity_correlation(amp)
        assert abs(bp.intensity_correlation(amp) - ref) < 1e-12 * abs(ref)


def test_cooperativity_grid_converged(kdp_source, kdp_jsa):
    crystal, pump, coeffs = kdp_source
    k256 = bp.cooperativity(bp.schmidt_decompose(kdp_jsa))
    fine = bp.jsa_grid(pump, crystal, bp.default_grid(pump, coeffs, n=512))
    k512 = bp.cooperativity(bp.schmidt_decompose(fine))
    assert abs(k512 - k256) / k256 < 1e-3

"""Crystal/spacer stacks: interference factor, design solver, ridge isolation."""

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
from biphoton.assembly import (
    AssemblyConfig,
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
from biphoton.jsa import (
    CrystalConfig,
    FrequencyGrid,
    JointAmplitude,
    PumpConfig,
    _stack_phasematching,
    pump_envelope,
)
from biphoton.materials import (
    IDLER_POL,
    PUMP_POL,
    SIGNAL_POL,
    DispersionModel,
    RaySpec,
    Sellmeier,
    inverse_group_velocity,
)
from biphoton.schmidt import cooperativity, schmidt_decompose

LAMBDA0 = 0.8

FLAT = DispersionModel(
    material_id="FLAT",
    sellmeier_o=Sellmeier(c0=1.7**2, terms=()),
    sellmeier_e=Sellmeier(c0=1.7**2, terms=()),
    valid_range=(0.1, 10.0),
)


def _stack_config(db, design):
    return assembly_config_from_design(design, db["BBO"], db["CALCITE"])


def _ridge_window_grid(n=256):
    # +-20 nm around the degenerate carrier, in angular frequency
    half_span = 2.0 * np.pi * bp.C_UM_PS / LAMBDA0**2 * 0.020
    return FrequencyGrid(omega0=bp.omega_from_lambda(LAMBDA0), half_span=half_span, n=n)


# -------------------------------------------------------- interference factor


def test_upsilon_peak_values_exact():
    for n in range(1, 13):
        for k in range(-3, 4):
            expect = -1.0 if (k * (n - 1)) % 2 else 1.0
            assert upsilon(n, k * np.pi) == expect


def test_upsilon_continuous_at_peaks():
    for n in (2, 5, 10):
        for k in (-2, -1, 0, 1, 2):
            x0 = k * np.pi
            for eps in (1e-8, -1e-8):
                assert abs(upsilon(n, x0 + eps) - upsilon(n, x0)) < 1e-6


def test_upsilon_bounded_and_trivial_order():
    x = np.linspace(-10.0, 10.0, 20001)
    for n in (1, 2, 7, 12):
        vals = upsilon(n, x)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert np.max(np.abs(upsilon(1, x) - 1.0)) == 0.0
    assert isinstance(upsilon(4, 0.3), float)
    with pytest.raises(bp.ConfigError):
        upsilon(0, 0.1)


def test_single_crystal_stack_ignores_spacer(db, stack_design):
    cfg = _stack_config(db, stack_design)
    cfg_one = AssemblyConfig(
        crystal=cfg.crystal,
        spacer_material=cfg.spacer_material,
        spacer_h_um=cfg.spacer_h_um,
        n_crystals=1,
    )
    cfg_one_thick = AssemblyConfig(
        crystal=cfg.crystal,
        spacer_material=cfg.spacer_material,
        spacer_h_um=5.0 * cfg.spacer_h_um,
        n_crystals=1,
    )
    nu = np.linspace(-40.0, 40.0, 41)
    a = assembly_phasematching(cfg_one, nu[:, None], nu[None, :])
    b = assembly_phasematching(cfg_one_thick, nu[:, None], nu[None, :])
    assert np.array_equal(a, b)
    # and the single-crystal factor is the complex sinc with unit peak
    # (up to the angle solver's carrier-mismatch residual times L/2)
    assert abs(assembly_phasematching(cfg_one, 0.0, 0.0) - 1.0) < 1e-6


def test_full_turn_per_period_gives_plus_n(db):
    # a full 2 pi turn per period is the comb peak: the Dirichlet sign and the
    # accumulated phase factor cancel, leaving +N regardless of parity
    crystal = CrystalConfig(db["BBO"], 123.0, 0.5, bp.omega_from_lambda(LAMBDA0))

    def waves(material, theta, omega0, grating=0.0):
        # zero mismatch in the crystal, 1 rad/um in the spacer (all on k_s)
        ks = np.full((8, 8), 0.0 if material is db["BBO"] else 1.0)
        return ks, np.zeros((8, 8)), np.zeros((8, 8)), lambda v: v

    for n in (2, 3, 10):
        cfg = AssemblyConfig(crystal, db["CALCITE"], 2.0 * np.pi, n)
        assert np.allclose(
            _stack_phasematching(cfg, waves), float(n), rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize("scheme", ["KDP-angle", "KTP-qpm"])
def test_single_crystal_stack_is_the_single_crystal(db, scheme):
    # a poled crystal keeps its grating inside a one-crystal stack
    if scheme == "KTP-qpm":
        crystal = bp.qpm_matched_crystal(db["KTP"], 1.568, 20000.0)
    else:
        crystal = bp.angle_matched_crystal(db["KDP"], 0.83, 20000.0)
    sigma = bp.sigma_from_fwhm_nm(1.0, bp.lambda_from_omega(crystal.omega0) / 2)
    pump = PumpConfig(2.0 * crystal.omega0, sigma)
    grid = bp.default_grid(pump, bp.taylor_coefficients(crystal), n=64)
    one = AssemblyConfig(crystal, None, 0.0, 1)
    assert np.array_equal(
        assembly_jsa_grid(pump, one, grid).values, bp.jsa_grid(pump, crystal, grid).values
    )


def test_stack_amplitude_bounded_by_n_with_equality_at_center(db, stack_design):
    cfg = _stack_config(db, stack_design)
    cfg_one = AssemblyConfig(
        crystal=cfg.crystal,
        spacer_material=cfg.spacer_material,
        spacer_h_um=cfg.spacer_h_um,
        n_crystals=1,
    )
    nu = _ridge_window_grid(n=64).axis()
    many = assembly_phasematching(cfg, nu[:, None], nu[None, :])
    one = assembly_phasematching(cfg_one, nu[:, None], nu[None, :])
    n = cfg.n_crystals
    assert np.all(np.abs(many) <= n * np.abs(one) + 1e-12)
    center = assembly_phasematching(cfg, 0.0, 0.0)
    assert abs(center - n * assembly_phasematching(cfg_one, 0.0, 0.0)) < 1e-6 * n


# ------------------------------------------------------------- design solver


def test_design_numbers(stack_design):
    d = stack_design
    assert d.n_crystals == 10 and d.m_integer == 10
    assert d.mismatch_sum_crystal_ps_um == pytest.approx(3.535e-4, rel=0.02)
    assert d.mismatch_sum_spacer_ps_um == pytest.approx(-2.936e-4, rel=0.02)
    assert d.ratio_h_over_l == pytest.approx(1.204, rel=0.02)
    assert d.h_min_um == pytest.approx(5.88, rel=0.02)
    assert d.h_um == pytest.approx(58.83, rel=0.02)
    assert d.length_um == pytest.approx(48.85, rel=0.02)
    assert d.delta_lambda_ridge_spacing_nm == pytest.approx(67.05, rel=0.03)
    fwhm_nm = bp.fwhm_nm_from_sigma(d.sigma_pump_rad_ps, LAMBDA0 / 2.0)
    assert fwhm_nm == pytest.approx(1.48, rel=0.05)


def test_design_internal_consistency(db, stack_design):
    d = stack_design
    # ratio is what the two public mismatch sums imply
    assert d.ratio_h_over_l == pytest.approx(
        -d.mismatch_sum_crystal_ps_um / d.mismatch_sum_spacer_ps_um, rel=1e-12
    )
    assert d.h_um == pytest.approx(d.m_integer * d.h_min_um, rel=1e-12)
    assert d.length_um == pytest.approx(d.h_um / d.ratio_h_over_l, rel=1e-12)
    assert d.t_minus_ps == pytest.approx(0.5 * (d.t_i_ps - d.t_s_ps), rel=1e-12)
    # per-period group delays cancel by construction
    assert abs(d.gen_gvm_residual_ps) < 1e-10
    # quoted wavelength figures follow from T_minus
    lam2 = LAMBDA0**2
    spacing_nm = lam2 / (np.sqrt(2.0) * bp.C_UM_PS * abs(d.t_minus_ps)) * 1e3
    assert d.delta_lambda_ridge_spacing_nm == pytest.approx(spacing_nm, rel=1e-12)
    # public mismatch sums match a direct group-velocity computation
    w0 = bp.omega_from_lambda(LAMBDA0)
    kp1 = inverse_group_velocity(db["BBO"], RaySpec(PUMP_POL, d.theta_c_rad), 2 * w0)
    ks1 = inverse_group_velocity(db["BBO"], RaySpec(SIGNAL_POL, d.theta_c_rad), w0)
    ki1 = inverse_group_velocity(db["BBO"], RaySpec(IDLER_POL, d.theta_c_rad), w0)
    assert d.mismatch_sum_crystal_ps_um == pytest.approx(
        2 * kp1 - ks1 - ki1, rel=1e-12
    )


def test_quantize_spacer(db):
    h_min1, h1 = quantize_spacer(db["CALCITE"], LAMBDA0, 1)
    h_min2, h2 = quantize_spacer(db["CALCITE"], LAMBDA0, 2)
    assert h_min1 == h_min2
    assert h1 == pytest.approx(h_min1, rel=1e-15)
    assert h2 == pytest.approx(2.0 * h_min1, rel=1e-15)
    with pytest.raises(bp.ConfigError):
        quantize_spacer(db["CALCITE"], LAMBDA0, 0)
    with pytest.raises(bp.ZeroMismatch):
        quantize_spacer(FLAT, LAMBDA0, 1)


def test_same_sign_spacer_rejected(db):
    with pytest.raises(bp.NoOppositeSign):
        design_assembly(db["BBO"], db["BBO"], LAMBDA0, 2, 1)


def test_config_validation(db, stack_design):
    cfg = _stack_config(db, stack_design)
    with pytest.raises(bp.ConfigError):
        AssemblyConfig(
            crystal=cfg.crystal,
            spacer_material=cfg.spacer_material,
            spacer_h_um=cfg.spacer_h_um,
            n_crystals=0,
        )
    with pytest.raises(bp.ConfigError):
        AssemblyConfig(
            crystal=cfg.crystal,
            spacer_material=cfg.spacer_material,
            spacer_h_um=-1.0,
            n_crystals=2,
        )
    with pytest.raises(bp.ConfigError):
        design_assembly(db["BBO"], db["CALCITE"], LAMBDA0, 0, 1)


@pytest.mark.parametrize("h_um", [np.nan, np.inf])
def test_nonfinite_spacer_thickness_rejected(db, stack_design, h_um):
    cfg = _stack_config(db, stack_design)
    for n in (1, 2):
        with pytest.raises(bp.ConfigError):
            AssemblyConfig(cfg.crystal, cfg.spacer_material, h_um, n)


def test_stack_needs_spacer_material(db, stack_design):
    cfg = _stack_config(db, stack_design)
    with pytest.raises(bp.ConfigError):
        AssemblyConfig(cfg.crystal, None, cfg.spacer_h_um, 2)
    # a single crystal needs no spacer
    one = AssemblyConfig(cfg.crystal, None, 0.0, 1)
    assert abs(assembly_phasematching(one, 0.0, 0.0) - 1.0) < 1e-6


# ------------------------------------------------------------- ridge geometry


def test_antidiagonal_comb_spacing_matches_design(db, stack_design):
    d = stack_design
    cfg = _stack_config(db, d)
    nu = np.linspace(-200.0, 200.0, 40001)
    inten = np.abs(assembly_phasematching(cfg, nu, -nu)) ** 2
    peak = inten.max()
    centers = []
    for j in range(1, nu.size - 1):
        if inten[j] >= inten[j - 1] and inten[j] > inten[j + 1] and inten[j] > 0.25 * peak:
            denom = inten[j - 1] - 2.0 * inten[j] + inten[j + 1]
            frac = 0.0 if denom == 0.0 else 0.5 * (inten[j - 1] - inten[j + 1]) / denom
            centers.append(nu[j] + frac * (nu[1] - nu[0]))
    assert len(centers) >= 3
    diffs = np.diff(centers)
    measured = float(np.mean(diffs))
    assert measured == pytest.approx(np.pi / abs(d.t_minus_ps), rel=5e-3)
    # quoted ridge spacing is the diagonal-plane distance, sqrt(2) per-axis steps
    per_axis_nm = LAMBDA0**2 * measured / (2.0 * np.pi * bp.C_UM_PS) * 1e3
    assert d.delta_lambda_ridge_spacing_nm == pytest.approx(
        np.sqrt(2.0) * per_axis_nm, rel=5e-3
    )


def test_ridge_slope_is_plus_one(db, stack_design):
    cfg = _stack_config(db, stack_design)
    grid = _ridge_window_grid()
    nu = grid.axis()
    vals = assembly_phasematching(cfg, nu[:, None], nu[None, :])
    slope = ridge_slope(JointAmplitude(grid, vals))
    assert slope == pytest.approx(-stack_design.t_s_ps / stack_design.t_i_ps, rel=0.01)
    assert slope == pytest.approx(1.0, rel=0.02)


def test_central_ridge_grid_span(stack_design):
    grid = central_ridge_grid(stack_design, n=128)
    assert grid.n == 128
    per_axis_nm = stack_design.delta_lambda_ridge_spacing_nm / (2.0 * np.sqrt(2.0))
    half_span = 2.0 * np.pi * bp.C_UM_PS / LAMBDA0**2 * per_axis_nm * 1e-3
    assert grid.half_span == pytest.approx(half_span, rel=1e-12)


# ------------------------------------------------------------ ridge isolation


@pytest.fixture(scope="module")
def stack_amplitude(db, stack_design):
    cfg = _stack_config(db, stack_design)
    return assembly_jsa_grid(stack_design.pump, cfg, _ridge_window_grid())


def test_assembly_amplitude_normalized_and_matches_direct_path(db, stack_design, stack_amplitude):
    assert abs(stack_amplitude.norm_squared() - 1.0) < 1e-12
    cfg = _stack_config(db, stack_design)
    pump = stack_design.pump
    grid = stack_amplitude.grid
    nu = grid.axis()
    direct = assembly_phasematching(cfg, nu[:, None], nu[None, :]) * pump_envelope(
        pump, nu[:, None] + nu[None, :]
    )
    direct = direct / (np.sqrt(np.sum(np.abs(direct) ** 2)) * grid.spacing)
    # paths sum the pump frequency in different association orders, and the
    # ~1e-13 rad/ps argument noise passes through exp(i L D / 2)
    assert np.max(np.abs(direct - stack_amplitude.values)) < 1e-9


def test_pump_carrier_checked(db, stack_design):
    cfg = _stack_config(db, stack_design)
    bad = PumpConfig(omega_p0=1.5 * bp.omega_from_lambda(LAMBDA0), sigma=10.0)
    with pytest.raises(bp.ConfigError):
        assembly_jsa_grid(bad, cfg, _ridge_window_grid(n=64))


def test_isolated_ridge_is_nearly_separable(stack_design, stack_amplitude):
    iso = isolate_central_ridge(stack_amplitude, stack_design)
    k = cooperativity(schmidt_decompose(iso))
    assert k < 1.05
    assert abs(iso.norm_squared() - 1.0) < 1e-12


@pytest.mark.parametrize("n_crystals", [5, 10])
def test_ridge_cut_keeps_the_grid_edge(db, n_crystals):
    # the cut runs across the ridge only: on central_ridge_grid the entries of
    # the edge row and column that lie inside it survive
    d = design_assembly(db["BBO"], db["CALCITE"], LAMBDA0, n_crystals, 10)
    cfg = assembly_config_from_design(d, db["BBO"], db["CALCITE"])
    assert d.pump == PumpConfig(omega_p0=2.0 * cfg.crystal.omega0, sigma=d.sigma_pump_rad_ps)
    ja = assembly_jsa_grid(d.pump, cfg, central_ridge_grid(d))
    iso = isolate_central_ridge(ja, d)
    nu = ja.grid.axis()
    in_cut = np.abs(nu - nu[0]) < 2.0 * np.pi / (n_crystals * abs(d.t_minus_ps))
    assert in_cut.sum() > 1
    assert np.all(iso.values[0, in_cut] != 0.0)
    assert np.all(iso.values[in_cut, 0] != 0.0)


def test_box_window_alone_keeps_sideband_modes(stack_design, stack_amplitude):
    # without the transverse cut the secondary interference lobes survive as
    # extra Schmidt modes, so the box-windowed stack stays visibly entangled
    grid = stack_amplitude.grid
    nu = grid.axis()
    half_w = 2.0 * np.pi * bp.C_UM_PS / LAMBDA0**2 * 0.020
    keep = (np.abs(nu)[:, None] <= half_w) & (np.abs(nu)[None, :] <= half_w)
    vals = np.where(keep, stack_amplitude.values, 0.0)
    vals = vals / (np.sqrt(np.sum(np.abs(vals) ** 2)) * grid.spacing)
    k_box = cooperativity(schmidt_decompose(JointAmplitude(grid, vals)))
    assert k_box > 1.15

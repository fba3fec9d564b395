"""Schmidt spectrum, entanglement measures, and heralded-state metrics."""

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
from biphoton.schmidt import (
    SpectralFilter,
    cooperativity,
    entropy,
    herald_metrics,
    heralded_state,
    purity,
    schmidt_decompose,
)

from conftest import correlated_gaussian


def dense_heralded_state(ja, filt):
    """Reference path: rho = A W A^H on the full n x n grid, and the herald rate
    tr(A W A^H) / tr(A A^H), i.e. per unfiltered pair."""
    A = ja.values * ja.grid.spacing
    weights = filt.amplitude_transmission(ja.grid.omega0 + ja.grid.axis()) ** 2
    rho_raw = (A * weights[None, :]) @ A.conj().T
    rate = float(np.trace(rho_raw).real)
    rho = rho_raw / rate
    return 0.5 * (rho + rho.conj().T), rate / float(np.sum(np.abs(A) ** 2))


def test_separable_amplitude_is_rank_one():
    ja = correlated_gaussian(20.0, 20.0, n=128)
    spec = schmidt_decompose(ja)
    assert spec.lambdas[0] > 1.0 - 1e-10
    assert abs(cooperativity(spec) - 1.0) < 1e-9
    assert abs(entropy(spec)) < 1e-7
    rho, rate = heralded_state(spec, np.ones(ja.grid.n))
    assert abs(purity(rho) - 1.0) < 1e-9
    assert rate > 0.0


def test_weights_normalized_and_nonnegative(kdp_jsa):
    spec = schmidt_decompose(kdp_jsa)
    assert abs(spec.lambdas.sum() - 1.0) < 1e-12
    assert np.all(spec.lambdas >= 0.0)
    # descending order straight out of the SVD
    assert np.all(np.diff(spec.lambdas) <= 1e-15)


@pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
def test_correlated_gaussian_spectrum_is_geometric(r):
    # analytic spectrum for exp(-nu_+^2/4a^2 - nu_-^2/4b^2):
    # lambda_n = (1 - mu) mu^n with mu = ((a-b)/(a+b))^2
    a, b = 10.0 * r, 10.0
    ja = correlated_gaussian(a, b)
    spec = schmidt_decompose(ja)
    mu = ((a - b) / (a + b)) ** 2
    n = np.arange(spec.lambdas.size)
    expected = (1.0 - mu) * mu**n
    assert np.max(np.abs(spec.lambdas - expected)) < 1e-9
    k_expected = (a * a + b * b) / (2.0 * a * b)
    assert abs(cooperativity(spec) - k_expected) < 1e-9


def test_cooperativity_invariant_under_axis_swap(kdp_jsa):
    spec = schmidt_decompose(kdp_jsa)
    swapped = bp.JointAmplitude(kdp_jsa.grid, kdp_jsa.values.T)
    spec_t = schmidt_decompose(swapped)
    assert abs(cooperativity(spec) - cooperativity(spec_t)) < 1e-12


def test_cooperativity_invariant_under_global_phase(kdp_jsa):
    spec = schmidt_decompose(kdp_jsa)
    rotated = bp.JointAmplitude(kdp_jsa.grid, kdp_jsa.values * np.exp(0.7j))
    spec_r = schmidt_decompose(rotated)
    assert abs(cooperativity(spec) - cooperativity(spec_r)) < 1e-12
    assert np.max(np.abs(spec.lambdas - spec_r.lambdas)) < 1e-12


def test_mode_columns_orthonormal():
    ja = correlated_gaussian(30.0, 10.0, n=128)
    spec = schmidt_decompose(ja)
    for modes in (spec.signal_modes, spec.idler_modes):
        gram = modes.conj().T @ modes
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8


def test_truncation_discards_numerical_noise():
    # K = 1.25 amplitude: weights decay as mu^n with mu = 1/9, so only a
    # handful sit above the relative cutoff on a 256-point grid
    ja = correlated_gaussian(20.0, 10.0)
    spec = schmidt_decompose(ja)
    assert spec.lambdas.size < 20
    assert spec.signal_modes.shape == (256, spec.lambdas.size)
    assert spec.idler_modes.shape == (256, spec.lambdas.size)


def test_zero_amplitude_raises():
    grid = bp.FrequencyGrid(omega0=bp.omega_from_lambda(0.8), half_span=10.0, n=64)
    ja = bp.JointAmplitude(grid, np.zeros((64, 64), dtype=complex))
    with pytest.raises(bp.NumericalFailure):
        schmidt_decompose(ja)


def test_unfiltered_heralded_state_matches_schmidt_spectrum():
    ja = correlated_gaussian(30.0, 10.0, n=128)
    spec = schmidt_decompose(ja)
    rho, rate = heralded_state(spec, np.ones(ja.grid.n))
    assert rho.shape == (spec.lambdas.size,) * 2
    assert np.max(np.abs(np.linalg.eigvalsh(rho)[::-1] - spec.lambdas)) < 1e-8
    assert abs(purity(rho) - 1.0 / cooperativity(spec)) < 1e-10
    # unfiltered herald rate is the full pair rate
    assert abs(rate - 1.0) < 1e-9
    # the dense reference carries the same spectrum on the full grid
    dense, _ = dense_heralded_state(ja, SpectralFilter.unit())
    evals = np.linalg.eigvalsh(dense)[::-1]
    assert np.max(np.abs(evals[: spec.lambdas.size] - spec.lambdas)) < 1e-8


def test_gaussian_filter_trades_rate_for_purity():
    ja = correlated_gaussian(30.0, 10.0, n=128)
    omega0 = ja.grid.omega0
    purities, rates = [], []
    for fwhm in (50.0, 25.0, 12.0, 6.0, 3.0):
        m = herald_metrics(ja, SpectralFilter.gaussian(center=omega0, fwhm=fwhm))
        purities.append(m.purity)
        rates.append(m.herald_rate)
    assert np.all(np.diff(purities) > 0.0)
    assert np.all(np.diff(rates) < 0.0)


def test_single_bin_tophat_heralds_pure_state():
    ja = correlated_gaussian(40.0, 10.0)
    grid = ja.grid
    m = herald_metrics(ja, SpectralFilter.tophat(center=grid.omega0, width=0.5 * grid.spacing))
    assert m.purity > 0.999
    assert 0.0 < m.herald_rate < 1.0


def test_tophat_outside_grid_raises():
    ja = correlated_gaussian(20.0, 10.0, n=64)
    grid = ja.grid
    filt = SpectralFilter.tophat(center=grid.omega0 + 10.0 * grid.half_span, width=1.0)
    with pytest.raises(bp.ZeroHeraldRate):
        herald_metrics(ja, filt)
    with pytest.raises(bp.ZeroHeraldRate):
        heralded_state(schmidt_decompose(ja), np.full(grid.n, np.nan))


def test_filter_validation():
    with pytest.raises(bp.ConfigError):
        SpectralFilter(kind="boxcar")
    with pytest.raises(bp.ConfigError):
        SpectralFilter.gaussian(center=0.0, fwhm=0.0)
    with pytest.raises(bp.ConfigError):
        SpectralFilter.tophat(center=0.0, width=-1.0)
    for center, width in ((1.0, np.nan), (1.0, np.inf), (np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0)):
        with pytest.raises(bp.ConfigError):
            SpectralFilter.gaussian(center=center, fwhm=width)
    flat = SpectralFilter.unit()
    assert np.all(flat.amplitude_transmission(np.linspace(-5, 5, 7)) == 1.0)


def test_idler_filter_raises_kdp_purity(kdp_jsa):
    unfiltered = herald_metrics(kdp_jsa)
    filt = SpectralFilter.gaussian(center=kdp_jsa.grid.omega0, fwhm=10.0)
    filtered = herald_metrics(kdp_jsa, filt)
    assert filtered.purity > unfiltered.purity
    assert filtered.herald_rate < unfiltered.herald_rate
    # Schmidt-side numbers describe the unfiltered pair and do not move
    assert abs(filtered.cooperativity_K - unfiltered.cooperativity_K) < 1e-12
    assert abs(filtered.entropy_S - unfiltered.entropy_S) < 1e-12


def test_herald_metrics_consistency(kdp_jsa):
    m = herald_metrics(kdp_jsa)
    spec = schmidt_decompose(kdp_jsa)
    assert np.array_equal(m.spectrum.lambdas, spec.lambdas)
    assert abs(m.cooperativity_K - cooperativity(spec)) < 1e-12
    assert abs(m.entropy_S - entropy(spec)) < 1e-12
    ref, _ = dense_heralded_state(kdp_jsa, SpectralFilter.unit())
    assert abs(m.purity - purity(ref)) < 1e-10
    assert m.entropy_S > 0.0


@pytest.fixture(scope="module")
def herald_sources(db, kdp_jsa, stack_design):
    """KDP, the isolated assembly ridge, BBO 5 mm / 10 nm and a Mehler Gaussian."""
    cfg = bp.assembly_config_from_design(stack_design, db["BBO"], db["CALCITE"])
    omega0 = cfg.crystal.omega0
    pump = bp.PumpConfig(omega_p0=2.0 * omega0, sigma=stack_design.sigma_pump_rad_ps)
    half_w = omega0 / stack_design.lambda0_um * 0.020
    grid = bp.FrequencyGrid(omega0=omega0, half_span=half_w, n=256)
    ridge = bp.isolate_central_ridge(
        bp.assembly_jsa_grid(pump, cfg, grid), stack_design, half_width_nm=20.0
    )
    bbo = bp.angle_matched_crystal(db["BBO"], 0.8, 5000.0)
    pump = bp.PumpConfig(omega_p0=2.0 * bbo.omega0, sigma=bp.sigma_from_fwhm_nm(10.0, 0.4))
    coeffs = bp.taylor_coefficients(bbo)
    bbo_jsa = bp.jsa_grid(pump, bbo, bp.default_grid(pump, coeffs, n=256))
    return {
        "kdp": kdp_jsa,
        "ridge": ridge,
        "bbo": bbo_jsa,
        "mehler": correlated_gaussian(30.0, 10.0),
    }


@pytest.mark.parametrize("kind", ["unit", "gaussian", "tophat"])
@pytest.mark.parametrize("source", ["kdp", "ridge", "bbo", "mehler"])
def test_herald_metrics_match_dense_reference(herald_sources, source, kind):
    ja = herald_sources[source]
    grid = ja.grid
    if kind == "unit":
        filt = SpectralFilter.unit()
    else:
        # a band that clips the source, so purity and rate both move
        width = {"gaussian": 0.3, "tophat": 0.4}[kind] * grid.half_span
        filt = SpectralFilter(kind, grid.omega0, width)
    m = herald_metrics(ja, filt)
    rho, rate = dense_heralded_state(ja, filt)
    assert abs(m.purity - purity(rho)) <= 1e-11 * purity(rho)
    assert abs(m.herald_rate - rate) <= 1e-11 * rate

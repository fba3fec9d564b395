"""Schmidt spectrum, entanglement measures, and heralded-state metrics."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import biphoton as bp
from biphoton import schmidt
from biphoton.schmidt import (
    TRUNCATION,
    SpectralFilter,
    cooperativity,
    entropy,
    herald_metrics,
    heralded_state,
    purity,
    schmidt_decompose,
    spectrum_metrics,
)

from conftest import correlated_gaussian


def dense_heralded_state(ja, filt):
    """Reference path: rho = A W A^H on the full n x n grid, and the herald rate
    tr(A W A^H) / tr(A A^H), i.e. per unfiltered pair; W = I with no filter (None)."""
    A = ja.values * ja.grid.spacing
    omega = ja.grid.omega0 + ja.grid.axis()
    weights = np.ones(ja.grid.n) if filt is None else filt.amplitude_transmission(omega) ** 2
    rho_raw = (A * weights[None, :]) @ A.conj().T
    rate = float(np.trace(rho_raw).real)
    rho = rho_raw / rate
    return 0.5 * (rho + rho.conj().T), rate / float(np.sum(np.abs(A) ** 2))


def dense_spectrum(ja):
    """Reference path: Schmidt weights from a dense SVD of the same A, cut at TRUNCATION."""
    s = np.linalg.svd(ja.values * ja.grid.spacing, compute_uv=False)
    lam = s**2 / np.sum(s**2)
    return lam[lam >= TRUNCATION * lam[0]]


@pytest.fixture
def paths(monkeypatch):
    """Records, per schmidt_decompose call, whether it took the low-rank path."""
    taken = []
    low_rank = schmidt._range_basis

    def spy(a, norm):
        found = low_rank(a, norm)
        taken.append("dense" if found is None else "low-rank")
        return found

    monkeypatch.setattr(schmidt, "_range_basis", spy)
    return taken


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
    # a non-finite entry cannot be scaled away
    for bad in (np.inf, np.nan):
        vals = np.ones((64, 64), dtype=complex)
        vals[3, 5] = bad
        with pytest.raises(bp.NumericalFailure, match="not finite"):
            schmidt_decompose(bp.JointAmplitude(grid, vals))


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
    dense, _ = dense_heralded_state(ja, None)
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
    # no filter is None: "unit" is not a kind
    for kind in ("boxcar", "unit"):
        with pytest.raises(bp.ConfigError):
            SpectralFilter(kind=kind, center=1.0, width=1.0)
    assert not hasattr(SpectralFilter, "unit")
    with pytest.raises(bp.ConfigError):
        SpectralFilter.gaussian(center=0.0, fwhm=0.0)
    with pytest.raises(bp.ConfigError):
        SpectralFilter.tophat(center=0.0, width=-1.0)
    for center, width in ((1.0, np.nan), (1.0, np.inf), (np.nan, 1.0), (-1.0, 1.0), (0.0, 1.0)):
        with pytest.raises(bp.ConfigError):
            SpectralFilter.gaussian(center=center, fwhm=width)


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
    ref, _ = dense_heralded_state(kdp_jsa, None)
    assert abs(m.purity - purity(ref)) < 1e-10
    assert m.entropy_S > 0.0


@pytest.fixture(scope="module")
def herald_sources(db, kdp_source, kdp_jsa, stack_design):
    """KDP at n=256 and 1024, the isolated assembly ridge, BBO 5 mm / 10 nm and
    a Mehler Gaussian."""
    cfg = bp.assembly_config_from_design(stack_design, db["BBO"], db["CALCITE"])
    omega0 = cfg.crystal.omega0
    half_w = omega0 / stack_design.lambda0_um * 0.020
    grid = bp.FrequencyGrid(omega0=omega0, half_span=half_w, n=256)
    ridge = bp.isolate_central_ridge(
        bp.assembly_jsa_grid(stack_design.pump, cfg, grid), stack_design
    )
    bbo = bp.angle_matched_crystal(db["BBO"], 0.8, 5000.0)
    pump = bp.PumpConfig(omega_p0=2.0 * bbo.omega0, sigma=bp.sigma_from_fwhm_nm(10.0, 0.4))
    coeffs = bp.taylor_coefficients(bbo)
    bbo_jsa = bp.jsa_grid(pump, bbo, bp.default_grid(pump, coeffs, n=256))
    crystal, pump, coeffs = kdp_source
    return {
        "kdp": kdp_jsa,
        "kdp1024": bp.jsa_grid(pump, crystal, bp.default_grid(pump, coeffs, n=1024)),
        "ridge": ridge,
        "bbo": bbo_jsa,
        "mehler": correlated_gaussian(30.0, 10.0),
    }


def clipping_filter(grid, kind):
    """No filter (kind None), or a Gaussian or top-hat band that clips the
    source, so purity and rate both move."""
    if kind is None:
        return None
    width = {"gaussian": 0.3, "tophat": 0.4}[kind] * grid.half_span
    return SpectralFilter(kind, grid.omega0, width)


def kind_id(value):
    """Test id "unit" for no filter, the CLI's --filter-kind name for it."""
    return "unit" if value is None else None


@pytest.mark.parametrize("kind", [None, "gaussian", "tophat"], ids=kind_id)
@pytest.mark.parametrize("source", ["kdp", "ridge", "bbo", "mehler"])
def test_herald_metrics_match_dense_reference(herald_sources, source, kind):
    ja = herald_sources[source]
    filt = clipping_filter(ja.grid, kind)
    m = herald_metrics(ja, filt)
    rho, rate = dense_heralded_state(ja, filt)
    assert abs(m.purity - purity(rho)) <= 1e-11 * purity(rho)
    assert abs(m.herald_rate - rate) <= 1e-11 * rate


@pytest.mark.parametrize(
    "source, kind, path",
    [
        ("kdp", None, "low-rank"),
        ("kdp", "gaussian", "low-rank"),
        ("kdp", "tophat", "low-rank"),
        ("kdp1024", None, "low-rank"),
        # the hard edges of the isolating mask leave 121 weights above the cut
        ("ridge", None, "dense"),
        ("bbo", None, "low-rank"),
        ("mehler", None, "low-rank"),
    ],
    ids=kind_id,
)
def test_spectrum_matches_dense_svd(herald_sources, paths, source, kind, path):
    ja = herald_sources[source]
    filt = clipping_filter(ja.grid, kind)
    m = herald_metrics(ja, filt)
    assert paths == [path]
    lam = dense_spectrum(ja)
    rho, rate = dense_heralded_state(ja, filt)
    assert m.spectrum.lambdas.size == lam.size
    assert np.max(np.abs(m.spectrum.lambdas - lam)) <= 1e-10
    K = 1.0 / np.sum(lam**2)
    assert abs(m.cooperativity_K - K) <= 1e-10 * K
    assert abs(m.purity - purity(rho)) <= 1e-10 * purity(rho)
    assert abs(m.herald_rate - rate) <= 1e-10 * rate


@pytest.fixture(scope="module")
def chirped_kdp(kdp_source):
    """KDP 830 nm / 20 mm / 5 nm with a 0.015 ps^2 pump chirp at n=512: the
    singular values fall only to sigma_128 / sigma_0 = 4e-3 over the first n/4."""
    crystal, pump, coeffs = kdp_source
    chirped = bp.PumpConfig(omega_p0=pump.omega_p0, sigma=pump.sigma, beta_t=0.015)
    return bp.jsa_grid(chirped, crystal, bp.default_grid(chirped, coeffs, n=512))


def test_high_rank_grid_takes_the_dense_path(chirped_kdp, paths, monkeypatch):
    # decided from the first sketch alone: no power iteration, no grown block
    blocks = []
    monkeypatch.setattr(schmidt, "_orth", lambda x: blocks.append(x) or np.linalg.qr(x)[0])
    spec = schmidt_decompose(chirped_kdp)
    assert paths == ["dense"] and blocks == []
    lam = dense_spectrum(chirped_kdp)
    assert spec.lambdas.size == lam.size > 128
    assert np.max(np.abs(spec.lambdas - lam)) <= 1e-10


def test_repeated_calls_are_bit_identical(kdp_jsa, chirped_kdp):
    for ja in (kdp_jsa, chirped_kdp):
        first, second = schmidt_decompose(ja), schmidt_decompose(ja)
        for key in ("lambdas", "signal_modes", "idler_modes"):
            assert np.array_equal(getattr(first, key), getattr(second, key)), key


def test_mode_phases_do_not_depend_on_the_path(kdp_jsa, monkeypatch):
    low_rank = schmidt_decompose(kdp_jsa)
    monkeypatch.setattr(schmidt, "_range_basis", lambda a, norm: None)
    dense = schmidt_decompose(kdp_jsa)
    for key in ("signal_modes", "idler_modes"):
        diff = getattr(low_rank, key)[:, :3] - getattr(dense, key)[:, :3]
        assert np.max(np.abs(diff)) <= 1e-8, key
    for spec in (low_rank, dense):
        u = spec.signal_modes
        peak = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        assert np.all(peak.real > 0.0) and np.max(np.abs(peak.imag)) < 1e-12 * np.max(np.abs(u))
        # the idler mode takes the opposite rotation: sum_j s_j u_j v_j^T is still A
        A = kdp_jsa.values * kdp_jsa.grid.spacing
        approx = (u * np.sqrt(spec.lambdas)) @ spec.idler_modes.T
        assert np.linalg.norm(approx - A / np.linalg.norm(A)) < 1e-5


def test_import_leaves_numpy_random_out():
    code = "import sys, biphoton; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


#: the grids of the weights-only tests and the Schmidt path each takes
WEIGHTS_ONLY_PATHS = {
    "kdp": "low-rank",
    "kdp1024": "low-rank",
    "bbo": "low-rank",
    "mehler": "low-rank",
    "ridge": "dense",
    "chirped_kdp": "dense",
    "kdp64": "dense",
}


@pytest.fixture(scope="module")
def weights_only_sources(herald_sources, chirped_kdp, kdp_source):
    """The heralding sources plus the chirped KDP grid and KDP at n=64."""
    crystal, pump, coeffs = kdp_source
    kdp64 = bp.jsa_grid(pump, crystal, bp.default_grid(pump, coeffs, n=64))
    return {**herald_sources, "chirped_kdp": chirped_kdp, "kdp64": kdp64}


def spectrum_purity(spectrum):
    lam = spectrum.lambdas
    return np.sum(lam**2) / np.sum(lam) ** 2


@pytest.mark.parametrize("source", WEIGHTS_ONLY_PATHS)
def test_weights_only_spectrum_matches_the_one_with_modes(weights_only_sources, paths, source):
    ja, path = weights_only_sources[source], WEIGHTS_ONLY_PATHS[source]
    full, weights = schmidt_decompose(ja), schmidt_decompose(ja, modes=False)
    assert paths == [path, path]
    assert weights.signal_modes is None and weights.idler_modes is None
    assert weights.lambdas.size == full.lambdas.size
    assert np.max(np.abs(weights.lambdas - full.lambdas)) <= 1e-10
    if path == "low-rank":
        assert np.array_equal(weights.lambdas, full.lambdas)
    for measure in (cooperativity, entropy, spectrum_purity):
        ref = measure(full)
        assert abs(measure(weights) - ref) <= 1e-12 * ref, measure.__name__


@pytest.mark.parametrize("source", WEIGHTS_ONLY_PATHS)
def test_unfiltered_herald_metrics_equal_the_unit_filter(weights_only_sources, source):
    # no filter (None) reads the weights alone; a flat |T|^2 = 1 through
    # heralded_state reads the idler modes of a spectrum that has them
    ja = weights_only_sources[source]
    plain, full = herald_metrics(ja), schmidt_decompose(ja)
    assert plain.spectrum.idler_modes is None
    rho, rate = heralded_state(full, np.ones(ja.grid.n))
    flat = {"purity": purity(rho), "herald_rate": rate,
            "cooperativity_K": cooperativity(full), "entropy_S": entropy(full)}
    with_modes = spectrum_metrics(full, ja.grid)
    for key, ref in flat.items():
        assert abs(getattr(plain, key) - ref) <= 1e-12 * ref, key
        assert abs(getattr(with_modes, key) - ref) <= 1e-12 * ref, key
        # one formula: on the low-rank path the weights, and so the figures, are
        # the same bit for bit with and without modes
        if WEIGHTS_ONLY_PATHS[source] == "low-rank":
            assert getattr(with_modes, key) == getattr(plain, key), key


def test_repeated_weights_only_calls_are_bit_identical(chirped_kdp):
    first, second = (schmidt_decompose(chirped_kdp, modes=False) for _ in range(2))
    assert np.array_equal(first.lambdas, second.lambdas)


@pytest.mark.parametrize("corruption", ["nan", "trace", "frobenius"])
def test_corrupted_gram_eigenvalues_raise(weights_only_sources, monkeypatch, corruption):
    ja = weights_only_sources["kdp64"]
    real = np.linalg.eigvalsh

    def corrupted(g):
        w = real(g).copy()  # ascending: w[-1] is the leading weight
        if corruption == "nan":
            w[0] = np.nan
        elif corruption == "trace":
            w[-1] *= 1.0 + 1e-9
        else:  # the sum is kept, the sum of squares is not
            shift = 1e-6 * w[-1]
            w[-1] -= shift
            w[-2] += shift
        return w

    monkeypatch.setattr(schmidt.np.linalg, "eigvalsh", corrupted)
    with pytest.raises(bp.NumericalFailure, match="eigenvalues miss"):
        schmidt_decompose(ja, modes=False)

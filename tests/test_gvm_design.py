"""Factorizability conditions, GVM wavelength searches, temporal metrics."""

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
import biphoton.cli  # noqa: F401  (bp.cli.main below)
from biphoton.gvm_design import (
    SCAN_POINTS,
    asymmetric_design,
    decorrelation_range,
    factorizability_report,
    gvm_scan,
    gvm_wavelength_search,
    temporal_report,
)
from biphoton.jsa import (
    JointAmplitude,
    PumpConfig,
    TaylorCoefficients,
    angle_matched_crystal,
    default_grid,
    gaussian_form,
    gaussian_model,
    joint_temporal_intensity,
    marginal_sigmas,
    qpm_matched_crystal,
    taylor_coefficients,
)
from biphoton.materials import continue_angle

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


def required_sigma(crystal):
    """The pump sigma closing condition (1); it depends on the expansion alone,
    so the report of any probe pump carries it."""
    probe = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=1.0)
    return factorizability_report(probe, crystal.coeffs).required_sigma


def test_same_sign_mismatches_admit_no_pump_bandwidth(kdp_source):
    crystal, _, coeffs = kdp_source
    assert coeffs.tau_s * coeffs.tau_i > 0
    assert required_sigma(crystal) is None


def test_pump_bandwidth_closes_condition_one(db):
    lam = gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angle"))
    crystal = bp.angle_matched_crystal(db["BBO"], lam, 10_000.0)
    sigma = required_sigma(crystal)
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
    lam = gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angle"))
    sig1 = required_sigma(bp.angle_matched_crystal(db["BBO"], lam, 10_000.0))
    sig2 = required_sigma(bp.angle_matched_crystal(db["BBO"], lam, 20_000.0))
    assert sig2 == pytest.approx(0.5 * sig1, rel=1e-9)


# --------------------------------------------------------- wavelength search


def test_gvm_search_ktp_qpm(db):
    lam = gvm_wavelength_search(gvm_scan(db["KTP"], scheme="qpm"))
    assert lam == pytest.approx(1.565982, abs=1e-4)


def test_gvm_search_bbo_angle(db):
    lam = gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angle"))
    assert lam == pytest.approx(1.514727, abs=1e-4)


def test_gvm_search_respects_window(db):
    assert gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angle", window=(0.9, 1.2))) is None


@pytest.mark.parametrize(
    "window", [(2.0, 1.3), (1.5, 1.5), (float("nan"), 2.0), (1.3, float("inf")), (5.0, 6.0)]
)
def test_bad_scan_windows_rejected(db, window):
    with pytest.raises(bp.ConfigError):
        gvm_wavelength_search(gvm_scan(db["KTP"], scheme="qpm", window=window))
    with pytest.raises(bp.ConfigError):
        decorrelation_range(gvm_scan(db["KTP"], scheme="qpm", window=window))


def test_decorrelation_range_ktp(db):
    rng = decorrelation_range(gvm_scan(db["KTP"], scheme="qpm"))
    assert rng is not None
    lo, hi = rng
    assert lo == pytest.approx(1.21925, abs=2e-3)
    assert hi == pytest.approx(2.37860, abs=2e-3)
    lam = gvm_wavelength_search(gvm_scan(db["KTP"], scheme="qpm"))
    assert lo < lam < hi


def test_decorrelation_range_bbo(db):
    rng = decorrelation_range(gvm_scan(db["BBO"], scheme="angle"))
    assert rng is not None
    lo, hi = rng
    assert lo == pytest.approx(1.16938, abs=2e-3)
    assert hi == pytest.approx(1.94958, abs=2e-3)


def test_decorrelation_range_clipped_by_window(db):
    rng = decorrelation_range(gvm_scan(db["KTP"], scheme="qpm", window=(1.3, 2.0)))
    assert rng is not None
    lo, hi = rng
    # interior of the opposite-sign band: the window itself bounds the result
    assert lo == pytest.approx(1.3, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


# ------------------------------------- one scan and one refine per window


def _two_refine_reference(material, scheme, window):
    """design-gvm as two separate searches, each with its own scan and its own
    find_root that evaluates the mismatch afresh at the bracket ends: the
    matched wavelength and the decorrelation range, or the error they raise."""
    from biphoton.gvm_design import SCAN_POINTS, _mismatch_curves
    from biphoton.jsa import _check_scheme
    from biphoton.materials import NONCRITICAL_THETA, find_root, phasematching_angle

    def curves(lam):
        # every wavelength solves its own cut afresh
        cut = phasematching_angle(material, lam) if scheme == "angle" else NONCRITICAL_THETA
        return _mismatch_curves(material, lam, cut)

    def scan():
        _check_scheme(scheme)
        lo, hi = material.valid_range
        lo, hi = 2.0 * lo * 1.02, hi * 0.98
        if window is not None:
            if not np.all(np.isfinite(window)):
                raise bp.ConfigError("scan window is not finite")
            lo, hi = max(lo, window[0]), min(hi, window[1])
        if not lo < hi:
            raise bp.ConfigError("empty scan window")
        lambdas = np.linspace(lo, hi, SCAN_POINTS)
        return (lambdas, *curves(lambdas))

    def refine(fn, a, b):
        def f(lam):
            return fn(*curves(lam))

        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        return find_root(f, a, b, f(a), f(b))

    def gvm():
        lambdas, gs, gi = scan()
        s = gs + gi
        hits = np.flatnonzero(s[:-1] * s[1:] <= 0)
        if not hits.size:
            return None
        j = hits[0]
        return float(refine(np.add, lambdas[j], lambdas[j + 1]))

    def decorrelation():
        lambdas, gs, gi = scan()
        prod = gs * gi
        neg = np.concatenate(([False], prod < 0, [False]))
        first = np.flatnonzero(~neg[:-1] & neg[1:])
        last = np.flatnonzero(neg[:-1] & ~neg[1:]) - 1
        if not first.size:
            return None
        inner, outer = np.concatenate((first, last)), np.concatenate((first - 1, last + 1))
        ends = lambdas[inner]
        padded = np.concatenate(([np.nan], prod, [np.nan]))
        ref = np.flatnonzero(np.isfinite(padded[outer + 1]))
        lo, hi = np.minimum(inner, outer)[ref], np.maximum(inner, outer)[ref]
        on_s = gs[lo] * gs[hi] <= 0
        ends[ref] = refine(lambda s, i: np.where(on_s, s, i), lambdas[lo], lambdas[hi])
        a, b = np.split(ends, 2)
        k = np.argmax(b - a)
        return float(a[k]), float(b[k])

    try:
        return gvm(), decorrelation()
    except bp.BiphotonError as exc:
        return type(exc)


def _design_windows(material, seed):
    """None and ten seeded windows over the material's range, about a fifth of
    them reversed (empty)."""
    rng = np.random.default_rng(seed)
    lo, hi = material.valid_range
    windows = [None]
    for _ in range(10):
        a, b = np.sort(rng.uniform(2.0 * lo * 0.95, hi * 1.02, 2))
        windows.append((float(b), float(a)) if rng.random() < 0.2 else (float(a), float(b)))
    return windows


@pytest.mark.parametrize("scheme", ["angle", "qpm"])
@pytest.mark.parametrize("material", ["KDP", "BBO", "KTP", "CALCITE"])
def test_shared_scan_matches_two_separate_refines(db, material, scheme):
    seed = ["KDP", "BBO", "KTP", "CALCITE"].index(material) * 2 + (scheme == "qpm")
    found = 0
    for window in _design_windows(db[material], seed):
        want = _two_refine_reference(db[material], scheme, window)
        try:
            scan = gvm_scan(db[material], scheme=scheme, window=window)
            got = gvm_wavelength_search(scan), decorrelation_range(scan)
        except bp.BiphotonError as exc:
            got = type(exc)
        if isinstance(want, type):
            assert got is want, window
            continue
        assert not isinstance(got, type), (window, got)
        lam, rng = got
        assert (lam is None) == (want[0] is None) and (rng is None) == (want[1] is None), window
        for value, ref in zip((lam, *(rng or ())), (want[0], *(want[1] or ()))):
            if value is not None:
                assert value == pytest.approx(ref, rel=1e-13, abs=0.0), window
                found += 1
    assert found > 0


def _count_calls(monkeypatch, name):
    """Wrap gvm_design's `name` in place; the list of argument tuples it gets."""
    real, calls = getattr(bp.gvm_design, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bp.gvm_design, name, counted)
    return calls


def test_design_gvm_solves_the_bbo_window_in_one_angle_call(monkeypatch, capsys):
    # the 64-wavelength scan is the one cold angle solve; the refine continues
    # the scanned angles
    calls = _count_calls(monkeypatch, "phasematching_angle")
    assert bp.cli.main(["design-gvm", "--material", "BBO", "--scheme", "angle"]) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1 and np.shape(calls[0][1]) == (SCAN_POINTS,)


#: the angle scheme's seeds in test_shared_scan_matches_two_separate_refines
ANGLE_SEEDS = {"KDP": 0, "BBO": 2, "KTP": 4, "CALCITE": 6}


@pytest.mark.parametrize("material", sorted(ANGLE_SEEDS))
def test_refine_continues_the_scanned_angles(monkeypatch, db, material):
    model = db[material]
    cold_calls = _count_calls(monkeypatch, "phasematching_angle")
    continued = _count_calls(monkeypatch, "continue_angle")
    refined = 0
    for window in _design_windows(model, ANGLE_SEEDS[material]):
        cold_calls.clear()
        try:
            scan = gvm_scan(model, "angle", window)
        except bp.ConfigError:
            continue
        # the scan's own call, however many refine iterations follow it
        assert len(cold_calls) == 1, window
        refined += bool(np.isfinite(scan.zeros).any())
    assert refined > 0
    lams = np.concatenate([np.asarray(lam) for _, lam, _ in continued])
    thetas = np.concatenate([continue_angle(*args) for args in continued])
    cold = bp.phasematching_angle(model, lams)
    # phasematching_angle itself lies up to 1.7e-14 (relative) from the exact zero
    # of its rounded formula, which the continuation solves too: two correct
    # solves can differ by twice that
    assert np.max(np.abs(thetas - cold) / cold) <= 5e-14
    assert np.max(np.abs(bp.carrier_mismatch(model, thetas, lams))) <= 1e-10


def _kdp_angle(db):
    return bp.phasematching_angle(db["KDP"], 0.83)


@pytest.mark.parametrize(
    "lam, guess",
    [
        (0.45, lambda db: 1.0),  # no angle exists: Newton never settles
        (0.83, lambda db: np.nan),
        (0.83, lambda db: np.pi / 2),  # zero slope: the step runs off
        (0.83, lambda db: np.pi - _kdp_angle(db) + 1e-3),  # next to the mirror root
        (np.array([0.83, 0.45]), lambda db: np.array([_kdp_angle(db), 1.0])),
    ],
    ids=["no-angle", "nan-guess", "flat-guess", "mirror-root", "one-bad-lane"],
)
def test_continuation_that_does_not_converge_raises(db, lam, guess):
    with pytest.raises(bp.NumericalFailure):
        continue_angle(db["KDP"], lam, guess(db))


def test_gvm_scan_zeros_are_the_sign_changes(db):
    scan = gvm_scan(db["KTP"], scheme="angle")
    curves = np.stack((scan.g_s + scan.g_i, scan.g_s, scan.g_i))
    assert scan.zeros.shape == (3, scan.lambdas.size - 1)
    crosses = curves[:, :-1] * curves[:, 1:] <= 0
    np.testing.assert_array_equal(~np.isnan(scan.zeros), crosses)
    k, j = np.nonzero(crosses)
    assert set(k) == {0, 1, 2}
    assert np.all((scan.lambdas[j] <= scan.zeros[k, j]) & (scan.zeros[k, j] <= scan.lambdas[j + 1]))


# --------------------------------------------------------- asymmetric design


def test_symmetric_point_is_not_asymmetric(db):
    lam = gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angle"))
    with pytest.raises(bp.NotAsymmetric):
        asymmetric_design(db["BBO"], lam, 10_000.0, 1.0)


def test_asymmetric_design_kdp(db):
    long_crystal, _, pump, coeffs = asymmetric_design(db["KDP"], 0.83, 20_000.0, 5.0)
    assert long_crystal is True
    report = factorizability_report(pump, coeffs)
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


# ------------------------------------- one quadratic form: b = 0 is separable


def _gaussian_k(pump, coeffs):
    grid = default_grid(pump, coeffs, n=256)
    nu = grid.axis()
    vals = gaussian_model(pump, coeffs, nu[:, None], nu[None, :])
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2)) * grid.spacing
    return bp.herald_metrics(JointAmplitude(grid, vals)).cooperativity_K


def test_b_zero_is_the_separability_condition():
    sigma = 25.0
    tau = 2.0 / (np.sqrt(GAMMA) * sigma)
    w0 = bp.omega_from_lambda(0.8)
    coeffs = synthetic_coeffs(tau_s=tau, tau_i=-tau, beta_p=0.05)
    star = PumpConfig(omega_p0=2.0 * w0, sigma=sigma, beta_t=-coeffs.beta_p / 4.0)
    assert gaussian_form(star, coeffs)[1] == 0.0
    assert _gaussian_k(star, coeffs) - 1.0 == 0.0
    # Im b != 0: condition (2) fails, the unchirped pump leaves a phase correlation
    plain = PumpConfig(omega_p0=2.0 * w0, sigma=sigma)
    assert _gaussian_k(plain, coeffs) == pytest.approx(4.03, abs=5e-3)
    # Re b != 0: condition (1) fails
    unmatched = synthetic_coeffs(tau_s=tau, tau_i=-tau / 2.0, beta_p=0.05)
    assert _gaussian_k(star, unmatched) == pytest.approx(1.054, abs=5e-4)


def _real_source(db, material, lambda_um, length_um, fwhm_nm, scheme="angle", chirp=0.0):
    matched = angle_matched_crystal if scheme == "angle" else qpm_matched_crystal
    crystal = matched(db[material], lambda_um, length_um)
    sigma = bp.sigma_from_fwhm_nm(fwhm_nm, lambda_um / 2.0)
    pump = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma, beta_t=chirp)
    return pump, taylor_coefficients(crystal)


def _synthetic_source(sigma, beta_t, *taylor):
    pump = PumpConfig(omega_p0=2.0 * bp.omega_from_lambda(0.8), sigma=sigma, beta_t=beta_t)
    return pump, synthetic_coeffs(*taylor)


_TAU = 2.0 / (np.sqrt(GAMMA) * 25.0)
REFERENCE_SOURCES = {
    "KDP": lambda db: _real_source(db, "KDP", 0.83, 20_000.0, 5.0),
    "KDP-chirped": lambda db: _real_source(db, "KDP", 0.83, 20_000.0, 5.0, chirp=0.015),
    "BBO-800": lambda db: _real_source(db, "BBO", 0.8, 2_000.0, 1.0),
    "BBO-732": lambda db: _real_source(db, "BBO", 0.73267, 4_708.0, 2.751),
    "KTP-qpm": lambda db: _real_source(db, "KTP", 1.566, 20_000.0, 1.5, scheme="qpm"),
    "b=0": lambda db: _synthetic_source(25.0, -0.0125, _TAU, -_TAU, 0.0, 0.0, 0.05),
    "Im-b": lambda db: _synthetic_source(25.0, 0.0, _TAU, -_TAU, 0.0, 0.0, 0.05),
    "Re-b": lambda db: _synthetic_source(25.0, -0.0125, _TAU, -_TAU / 2.0, 0.0, 0.0, 0.05),
    "straddle": lambda db: _synthetic_source(12.0, 0.01, 0.8, -0.3, 0.013, -0.004, 0.06),
    "asymmetric": lambda db: _synthetic_source(7.0, -0.003, -2.5, 0.05, -0.02, 0.03, 0.1),
}


def _reference_report(pump, coeffs):
    """Slice widths, cond1, temporal metrics and the amplitude on the default
    grid, each written out term by term from sigma, tau and beta."""
    s, ts, ti, bt = pump.sigma, coeffs.tau_s, coeffs.tau_i, pump.beta_t
    sig_s = 2.0 * s / np.sqrt(4.0 + GAMMA * s**2 * ts**2)
    sig_i = 2.0 * s / np.sqrt(4.0 + GAMMA * s**2 * ti**2)
    cond1 = (4.0 / s**2 + GAMMA * ts * ti) / (4.0 / s**2)
    c_s, c_i = bt + 0.5 * coeffs.beta_s, bt + 0.5 * coeffs.beta_i
    c_mix = 2.0 * bt + 0.5 * coeffs.beta_p
    M = np.array(
        [
            [1.0 / sig_s**2 - 1j * c_s, -0.5j * c_mix],
            [-0.5j * c_mix, 1.0 / sig_i**2 - 1j * c_i],
        ]
    )
    R = np.linalg.inv(M).real
    sig_b, sig_n, c_b = (sig_s, sig_i, c_s) if sig_s >= sig_i else (sig_i, sig_s, c_i)
    asym = -c_mix * c_b * sig_n**2 * sig_b**4 / (4.0 * (1.0 + sig_b**4 * c_b**2))
    temporal = (2.0 / np.sqrt(R[0, 0]), 2.0 / np.sqrt(R[1, 1]), 0.5 * R[0, 1], asym)
    nu = default_grid(pump, coeffs, n=256).axis()
    vs, vi = nu[:, None], nu[None, :]
    lin = ts * vs + ti * vi
    logmag = -(((vs + vi) / s) ** 2) - 0.25 * GAMMA * lin**2
    phase = bt * (vs + vi) ** 2 + 0.5 * (
        lin + coeffs.beta_s * vs**2 + coeffs.beta_i * vi**2 + coeffs.beta_p * vs * vi
    )
    return (sig_s, sig_i), cond1, temporal, np.exp(logmag + 1j * phase)


@pytest.mark.parametrize("name", sorted(REFERENCE_SOURCES))
def test_gaussian_form_matches_the_term_by_term_reference(db, name):
    pump, coeffs = REFERENCE_SOURCES[name](db)
    widths, cond1, temporal, amplitude = _reference_report(pump, coeffs)
    assert marginal_sigmas(pump, coeffs) == pytest.approx(widths, rel=1e-13, abs=0.0)
    rep = factorizability_report(pump, coeffs)
    assert (rep.sigma_s, rep.sigma_i) == pytest.approx(widths, rel=1e-13, abs=0.0)
    # cond1 is normalized by 1/sigma^2, so its terms are of order 1
    assert rep.cond1_residual == pytest.approx(cond1, rel=1e-13, abs=1e-13)
    t = temporal_report(pump, coeffs)
    got = (t.dt_s, t.dt_i, t.sigma_M_sq, t.sigma_M_sq_asymptotic)
    assert got == pytest.approx(temporal, rel=1e-13, abs=0.0)
    # the exponents round differently, so compare to the peak, not per point
    nu = default_grid(pump, coeffs, n=256).axis()
    values = gaussian_model(pump, coeffs, nu[:, None], nu[None, :])
    assert np.max(np.abs(values - amplitude)) <= 1e-13 * np.max(np.abs(amplitude))


#: (material, lambda_pdc_um, length_um, pump_fwhm_nm, scheme, beta_t) of REFERENCE_SOURCES
MATCHED_REQUESTS = {
    "KDP": ("KDP", 0.83, 20_000.0, 5.0, "angle", 0.0),
    "KDP-chirped": ("KDP", 0.83, 20_000.0, 5.0, "angle", 0.015),
    "KTP-qpm": ("KTP", 1.566, 20_000.0, 1.5, "qpm", 0.0),
}


@pytest.mark.parametrize("source", sorted(MATCHED_REQUESTS))
def test_matched_source_is_the_source_built_by_hand(db, source):
    material, *request = MATCHED_REQUESTS[source]
    _, pump, coeffs = bp.matched_source(db[material], *request)
    assert (pump, coeffs) == REFERENCE_SOURCES[source](db)


@pytest.mark.parametrize(
    "call",
    [
        lambda db: gvm_wavelength_search(gvm_scan(db["BBO"], scheme="angel")),
        lambda db: decorrelation_range(gvm_scan(db["BBO"], scheme="angel")),
        lambda db: asymmetric_design(db["KDP"], 0.83, 20_000.0, 5.0, scheme="Angle"),
        lambda db: bp.matched_source(db["KDP"], 0.83, 20_000.0, 5.0, scheme="Angle"),
    ],
    ids=["gvm_wavelength_search", "decorrelation_range", "asymmetric_design", "matched_source"],
)
def test_unknown_scheme_is_a_config_error(db, call):
    # NotAsymmetric is a ConfigError too, so the message tells the two apart
    with pytest.raises(bp.ConfigError, match="unknown scheme"):
        call(db)


@pytest.mark.parametrize("build", [asymmetric_design, bp.matched_source],
                         ids=["asymmetric_design", "matched_source"])
def test_material_name_is_a_config_error(build):
    with pytest.raises(bp.ConfigError, match=r"pass get_material\('KDP'\)"):
        build("KDP", 0.83, 20_000.0, 5.0)

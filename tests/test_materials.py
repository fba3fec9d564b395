from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import biphoton as bp
from biphoton.materials import (
    DispersionModel,
    Pol,
    RaySpec,
    Sellmeier,
    find_root,
)

FLAT_N = 1.7
FLAT = DispersionModel(
    material_id="FLAT",
    sellmeier_o=Sellmeier(c0=FLAT_N**2, terms=()),
    sellmeier_e=Sellmeier(c0=FLAT_N**2, terms=()),
    valid_range=(0.1, 10.0),
)


def _ray(pol, theta=np.pi / 2):
    return RaySpec(pol, theta)


def test_ordinary_index_ignores_angle(db):
    bbo = db["BBO"]
    n0 = bp.refractive_index(bbo, _ray(Pol.ORDINARY, 0.1), 0.8)
    n1 = bp.refractive_index(bbo, _ray(Pol.ORDINARY, 1.2), 0.8)
    assert n0 == n1


def test_extraordinary_index_at_zero_angle_equals_ordinary(db):
    bbo = db["BBO"]
    ne0 = bp.refractive_index(bbo, _ray(Pol.EXTRAORDINARY, 0.0), 0.8)
    no = bp.refractive_index(bbo, _ray(Pol.ORDINARY, 0.0), 0.8)
    assert abs(ne0 - no) < 1e-14


def test_extraordinary_index_at_ninety_is_principal(db):
    bbo = db["BBO"]
    ne = bp.refractive_index(bbo, _ray(Pol.EXTRAORDINARY, np.pi / 2), 0.8)
    assert abs(ne - np.sqrt(bbo.sellmeier_e.x_derivatives(0.64)[0])) < 1e-14


def test_angle_tuned_index_monotone_for_negative_uniaxial(db):
    bbo = db["BBO"]
    thetas = np.linspace(0.0, np.pi / 2, 30)
    n = np.array([bp.refractive_index(bbo, _ray(Pol.EXTRAORDINARY, t), 0.8) for t in thetas])
    assert np.all(np.diff(n) < 0)
    no = bp.refractive_index(bbo, _ray(Pol.ORDINARY), 0.8)
    assert np.all(n <= no + 1e-14)


def test_wavenumber_monotone_in_frequency(db):
    kdp = db["KDP"]
    omega = np.linspace(bp.omega_from_lambda(1.4), bp.omega_from_lambda(0.4), 200)
    k = bp.wavenumber(kdp, _ray(Pol.ORDINARY), omega)
    assert np.all(np.diff(k) > 0)


def test_out_of_range_rejected(db):
    kdp = db["KDP"]
    with pytest.raises(bp.OutOfRange):
        bp.refractive_index(kdp, _ray(Pol.ORDINARY), 10.0)
    with pytest.raises(bp.OutOfRange):
        bp.wavenumber(kdp, _ray(Pol.ORDINARY), bp.omega_from_lambda(0.1))
    with pytest.raises(bp.OutOfRange):
        bp.refractive_index(kdp, _ray(Pol.ORDINARY), float("nan"))
    with pytest.raises(bp.OutOfRange):
        bp.refractive_index(kdp, _ray(Pol.ORDINARY), np.array([0.8, 10.0]))


def test_array_angles_broadcast_against_wavelengths(db):
    bbo = db["BBO"]
    thetas = np.array([0.2, 0.7, 1.3])
    lams = np.array([0.6, 0.8, 1.0, 1.5])
    n = bp.refractive_index(bbo, _ray(Pol.EXTRAORDINARY, thetas[:, None]), lams[None, :])
    for j, t in enumerate(thetas):
        for k, lam in enumerate(lams):
            expect = bp.refractive_index(bbo, _ray(Pol.EXTRAORDINARY, t), lam)
            assert n[j, k] == pytest.approx(expect, rel=1e-15)
    for bad in (np.array([0.2, -0.1]), np.array([0.2, np.nan]), np.array([2.0])):
        with pytest.raises(bp.ConfigError):
            RaySpec(Pol.EXTRAORDINARY, bad)
        with pytest.raises(bp.ConfigError):
            bp.carrier_mismatch(bbo, bad, 0.8)
        with pytest.raises(bp.ConfigError):
            bp.walkoff_angle(bbo, bad, 0.8)


def test_flat_material_group_velocity_and_gvd():
    w = bp.omega_from_lambda(0.8)
    ivg = bp.inverse_group_velocity(FLAT, _ray(Pol.ORDINARY), w)
    assert abs(ivg - FLAT_N / bp.C_UM_PS) < 1e-12
    assert abs(bp.gvd(FLAT, _ray(Pol.ORDINARY), w)) < 1e-12


def test_group_velocity_against_analytic_dispersion():
    # n^2 = g(x) = c0 + E x + (A + B x)/(x - D) with x = lam^2; in lambda,
    # n' = lam g_x / n and n'' = (g_x + 2x g_xx)/n - x g_x^2/n^3, so that
    # k' = (n - lam n')/c and k'' = lam^3 n''/(2 pi c^2)
    c0, e2, (a, b, d) = 2.4, -0.01, (0.01, 0.9, 0.05)
    for pole in (0.0, 1.0):
        sellmeier = Sellmeier(c0=c0, terms=((pole * a, pole * b, d),), lambda_sq=e2)
        model = DispersionModel("DISP", sellmeier, sellmeier, valid_range=(0.1, 10.0))
        for lam in (0.4, 0.8, 1.6):
            x = lam * lam
            g = c0 + e2 * x + pole * (a + b * x) / (x - d)
            gx = e2 + pole * (b / (x - d) - (a + b * x) / (x - d) ** 2)
            gxx = pole * (2 * (a + b * x) / (x - d) ** 3 - 2 * b / (x - d) ** 2)
            n = np.sqrt(g)
            dn, d2n = lam * gx / n, (gx + 2 * x * gxx) / n - x * gx**2 / n**3
            w = bp.omega_from_lambda(lam)
            ivg = bp.inverse_group_velocity(model, _ray(Pol.ORDINARY), w)
            assert ivg == pytest.approx((n - lam * dn) / bp.C_UM_PS, rel=1e-14)
            if not pole:
                # without the pole, dk/domega = c0 / (n c) exactly
                assert ivg == pytest.approx(c0 / (n * bp.C_UM_PS), rel=1e-14)
            k2 = lam**3 * d2n / (2 * np.pi * bp.C_UM_PS**2)
            assert bp.gvd(model, _ray(Pol.ORDINARY), w) == pytest.approx(k2, rel=1e-13)


def test_derivatives_match_central_differences(db):
    kdp = db["KDP"]
    w = bp.omega_from_lambda(0.83)
    for ray in (_ray(Pol.ORDINARY), _ray(Pol.EXTRAORDINARY, 1.0)):
        h = 1e-3 * w
        km, k0, kp = (bp.wavenumber(kdp, ray, w + j * h) for j in (-1, 0, 1))
        # the stencils' truncation error is about 1e-8 and 1e-6 relative at this step
        k1, k2 = bp.inverse_group_velocity(kdp, ray, w), bp.gvd(kdp, ray, w)
        assert k1 == pytest.approx((kp - km) / (2 * h), rel=1e-7)
        assert k2 == pytest.approx((kp - 2 * k0 + km) / h**2, rel=1e-5)


def test_walkoff_vanishes_on_axes(db):
    bbo = db["BBO"]
    assert bp.walkoff_angle(bbo, 0.0, 0.4) == 0.0
    assert bp.walkoff_angle(bbo, np.pi / 2, 0.4) < 1e-12
    assert bp.walkoff_angle(bbo, np.pi / 4, 0.4) > 1.0


def test_phasematching_angle_kdp(db):
    theta = bp.phasematching_angle(db["KDP"], 0.83)
    assert abs(np.degrees(theta) - 67.77) < 0.5
    assert abs(bp.carrier_mismatch(db["KDP"], theta, 0.83)) < 1e-10


def test_phasematching_angle_bbo(db):
    theta = bp.phasematching_angle(db["BBO"], 0.8)
    assert abs(np.degrees(theta) - 42.35) < 0.5
    assert abs(bp.carrier_mismatch(db["BBO"], theta, 0.8)) < 1e-10


def test_no_phasematching_angle_in_band(db):
    with pytest.raises(bp.NoPhasematch):
        bp.phasematching_angle(db["KDP"], 0.45)


def test_phasematching_angle_array_matches_scalar_calls(db):
    kdp = db["KDP"]
    lams = np.array([[0.45, 0.7, 0.83], [1.0, 1.2, 1.4]])
    thetas = bp.phasematching_angle(kdp, lams)
    assert thetas.shape == lams.shape
    assert np.isnan(thetas[0, 0])
    for lam, theta in zip(lams.ravel(), thetas.ravel()):
        try:
            expect = bp.phasematching_angle(kdp, lam)
        except bp.NoPhasematch:
            assert np.isnan(theta)
            continue
        # the root is fixed only up to the rounding noise of the mismatch
        assert abs(theta - expect) < 1e-13
        assert abs(bp.carrier_mismatch(kdp, theta, lam)) < 1e-10
    assert bp.phasematching_angle(kdp, np.array([])).shape == (0,)


def _reference_angle(model, lam):
    """The angle solve written on carrier_mismatch itself: the same 61-point
    bracket and find_root from the scanned values, with NaN where no angle exists."""
    lam = np.asarray(lam, dtype=float)
    scan = np.linspace(np.radians(0.5), np.radians(89.99), 61)
    values = bp.carrier_mismatch(model, scan.reshape((-1,) + (1,) * lam.ndim), lam)
    sign = np.sign(values)
    change = sign[:-1] * sign[1:] < 0
    found, first = change.any(axis=0), change.argmax(axis=0)
    theta = np.full(lam.shape, np.nan)
    lo = first[found]
    lanes = np.flatnonzero(found)
    theta[found] = find_root(
        lambda t: bp.carrier_mismatch(model, t, lam[found]),
        scan[lo], scan[lo + 1], values[lo, lanes], values[lo + 1, lanes],
    )
    return theta


def test_phasematching_angle_is_bit_identical_to_a_carrier_mismatch_solve(db):
    nan_lanes = 0
    for model in db.values():
        lo, hi = model.valid_range
        lams = np.linspace(2.0 * lo * 1.02, 0.98 * hi, 64)
        expect = _reference_angle(model, lams)
        nan_lanes += np.isnan(expect).sum()
        assert bp.phasematching_angle(model, lams).tobytes() == expect.tobytes()
        for lam, want in zip(lams, expect):
            if np.isnan(want):
                with pytest.raises(bp.NoPhasematch):
                    bp.phasematching_angle(model, lam)
            else:
                assert bp.phasematching_angle(model, lam) == want
    assert nan_lanes > 0


@pytest.fixture
def reads(monkeypatch):
    """The Sellmeier.x_derivatives calls made from here on, the only evaluator
    of the dispersion data."""
    real, calls = Sellmeier.x_derivatives, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(Sellmeier, "x_derivatives", counted)
    return calls


@pytest.mark.parametrize("material, lam", [("KDP", 0.83), ("BBO", 0.8), ("KTP", 1.5)])
def test_angle_solve_reads_the_dispersion_once(reads, db, material, lam):
    # n_o^2 and n_e^2 at the pair and at the pump wavelength: the scan, the root
    # iterations and the residual check at the root all reuse these four reads
    bp.phasematching_angle(db[material], lam)
    assert len(reads) == 4


def test_group_delays_read_each_sellmeier_once_per_wavelength(reads, db):
    # the signal and the idler share their wavelength and so their two reads;
    # the pump at twice the frequency makes the other two; sharing them leaves
    # every value as the single-ray calls give it
    bbo, w0 = db["BBO"], bp.omega_from_lambda(0.8)
    expect = tuple(
        (bp.inverse_group_velocity(bbo, _ray(pol, 0.5), w), bp.gvd(bbo, _ray(pol, 0.5), w))
        for pol, w in ((Pol.EXTRAORDINARY, 2 * w0), (Pol.EXTRAORDINARY, w0), (Pol.ORDINARY, w0))
    )
    reads.clear()
    assert bp.materials.group_delays(bbo, 0.5, w0) == expect
    assert len(reads) == 4


E_RAY, W_800 = RaySpec(Pol.EXTRAORDINARY, 0.5), bp.omega_from_lambda(0.8)
#: (materials function, its arguments after the model, Sellmeier reads) at 800 nm
DISPERSION_CALLS = [
    ("refractive_index", (E_RAY, 0.8), 2),
    ("wavenumber", (E_RAY, W_800), 2),
    ("walkoff_angle", (0.5, 0.8), 2),
    ("inverse_group_velocity", (E_RAY, W_800), 2),
    ("gvd", (E_RAY, W_800), 2),
    ("carrier_mismatch", (0.5, 0.8), 4),
    ("phasematching_angle", (0.8,), 4),
    ("group_delays", (0.5, W_800), 4),
]


@pytest.mark.parametrize("name, args, n_reads", DISPERSION_CALLS,
                         ids=[call[0] for call in DISPERSION_CALLS])
def test_dispersion_calls_read_both_sellmeiers_once_per_wavelength(reads, db, name, args, n_reads):
    # every index, wavenumber, walk-off, group delay and mismatch is formed from
    # the one read of the Sellmeier data: two reads per wavelength it needs
    getattr(bp.materials, name)(db["BBO"], *args)
    assert len(reads) == n_reads


def test_sellmeier_has_one_evaluator():
    assert not hasattr(Sellmeier, "n_squared")


def _solve(f, a, b):
    """find_root on brackets whose end values are sampled here, as callers do."""
    return find_root(f, a, b, f(np.asarray(a, dtype=float)), f(np.asarray(b, dtype=float)))


def test_find_root_solves_a_vector_of_brackets():
    c = np.array([2.0, 8.0, 27.0, 0.001, 5.0])
    a = np.array([0.0, 0.0, 3.0, 0.0, 1.0])
    b = np.array([2.0, 2.0, 4.0, 1.0, 2.0])
    roots = _solve(lambda x: x**3 - c, a, b)
    # exact zeros at a bracket end come back exactly
    assert roots[1] == 2.0 and roots[2] == 3.0
    np.testing.assert_allclose(roots, np.cbrt(c), rtol=1e-15)
    # a root at 0 is found to a few ulp of the starting bracket
    assert abs(_solve(lambda x: x + 1e-30, -1.0, 1.0)) < 1e-15
    dottie = _solve(lambda x: np.cos(x) - x, 0.0, 1.0)
    assert dottie == pytest.approx(0.7390851332151607, abs=1e-15)


def test_find_root_rejects_brackets_without_a_sign_change():
    with pytest.raises(bp.NumericalFailure):
        _solve(lambda x: x**2 + 1.0, np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(bp.NumericalFailure):
        _solve(lambda x: x - 0.5, np.array([0.0, np.nan]), np.array([1.0, 1.0]))
    # a function that turns non-finite inside the bracket cannot be trusted
    with pytest.raises(bp.NumericalFailure):
        _solve(lambda x: np.where(np.abs(x - 0.5) < 0.3, np.nan, x - 0.5), 0.0, 1.0)


def test_find_root_never_evaluates_a_bracket_end():
    c = np.array([2.0, 8.0, 0.001, 5.0])
    a = np.array([0.0, 1.0, 0.0, 1.0])
    b = np.array([2.0, 3.0, 1.0, 2.0])
    points = []

    def f(x):
        points.append(np.array(x, copy=True))
        return x**3 - c

    roots = find_root(f, a, b, a**3 - c, b**3 - c)
    np.testing.assert_allclose(roots, np.cbrt(c), rtol=1e-15)
    # every lane's call lies strictly inside its starting bracket, frozen lanes too
    assert points and all(np.all((a < x) & (x < b)) for x in points)
    # the values passed in are the only ones read at the ends: an exact zero
    # claimed at an end is taken as the root without a call
    points.clear()
    assert find_root(f, 1.0, 3.0, 0.0, 19.0) == 1.0 and points == []


def test_import_leaves_scipy_out():
    code = "import sys, biphoton; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_qpm_period_cancels_mismatch(db):
    ktp = db["KTP"]
    period = bp.qpm_matched_crystal(ktp, 1.568, 10_000.0).qpm_period_um
    assert period > 0
    dk = bp.carrier_mismatch(ktp, np.pi / 2, 1.568)
    assert abs(dk - np.sign(dk) * 2.0 * np.pi / period) < 1e-12


def test_qpm_period_scales_inversely_with_mismatch():
    lam = 0.8
    base = bp.carrier_mismatch(FLAT, np.pi / 2, lam)
    assert abs(base) < 1e-15
    with pytest.raises(bp.AlreadyMatched):
        bp.qpm_matched_crystal(FLAT, lam, 10_000.0)
    # a dispersive flat-angle material: doubling lambda_sq doubles delta_k
    def poled(e2):
        return DispersionModel(
            material_id="POLED",
            sellmeier_o=Sellmeier(c0=2.4, terms=(), lambda_sq=e2),
            sellmeier_e=Sellmeier(c0=2.4, terms=(), lambda_sq=e2),
            valid_range=(0.1, 10.0),
        )

    p1 = bp.qpm_matched_crystal(poled(-0.004), lam, 10_000.0).qpm_period_um
    p2 = bp.qpm_matched_crystal(poled(-0.008), lam, 10_000.0).qpm_period_um
    assert abs(p1 / p2 - 2.0) < 1e-3


def test_database_env_override(tmp_path, monkeypatch):
    doc = {
        "materials": {
            "toy": {
                "sellmeier_o": {"c0": 2.25, "terms": []},
                "sellmeier_e": {"c0": 2.25, "terms": []},
                "valid_range": [0.2, 2.0],
            }
        }
    }
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(doc, sort_keys=True))
    monkeypatch.setenv("BIPHOTON_MATERIALS_PATH", str(path))
    db = bp.load_database()
    assert sorted(db) == ["TOY"]
    assert abs(bp.refractive_index(db["TOY"], _ray(Pol.ORDINARY), 0.8) - 1.5) < 1e-14


def test_database_requires_materials_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(bp.ConfigError):
        bp.load_database(str(path))


def test_unknown_material_rejected(db):
    with pytest.raises(bp.ConfigError):
        bp.get_material("unobtainium", db)
    assert bp.get_material("bbo", db) is db["BBO"]

from __future__ import annotations

import numpy as np
import pytest

import biphoton as bp
from biphoton.jsa import PumpConfig


@pytest.fixture(scope="session")
def db():
    return bp.load_database()


@pytest.fixture(scope="session")
def kdp_source(db):
    """The 2 cm KDP crystal with its 5 nm pump: crystal, pump, coeffs."""
    crystal = bp.angle_matched_crystal(db["KDP"], 0.83, 20000.0)
    pump = PumpConfig(
        omega_p0=2.0 * crystal.omega0, sigma=bp.sigma_from_fwhm_nm(5.0, 0.415)
    )
    return crystal, pump, bp.taylor_coefficients(crystal)


@pytest.fixture(scope="session")
def kdp_jsa(kdp_source):
    crystal, pump, coeffs = kdp_source
    grid = bp.default_grid(pump, coeffs, n=256)
    return bp.jsa_grid(pump, crystal, grid)


@pytest.fixture(scope="session")
def stack_design(db):
    return bp.design_assembly(db["BBO"], db["CALCITE"], 0.8, 10, 10)


def correlated_gaussian(a, b, n=256, omega0=None, phase=None):
    """Normalized exp(-nu_+^2/(2a)^2-ish) test amplitude with K=(a^2+b^2)/(2ab)."""
    half_span = 5.0 * np.sqrt(0.5 * (a * a + b * b))
    grid = bp.FrequencyGrid(
        omega0=bp.omega_from_lambda(0.8) if omega0 is None else omega0,
        half_span=half_span,
        n=n,
    )
    nu = grid.axis()
    vp = (nu[:, None] + nu[None, :]) ** 2 / (4.0 * a * a)
    vm = (nu[:, None] - nu[None, :]) ** 2 / (4.0 * b * b)
    vals = np.exp(-vp - vm) + 0.0j
    if phase is not None:
        vals = vals * np.exp(1j * phase(nu[:, None], nu[None, :]))
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2)) * grid.spacing
    return bp.JointAmplitude(grid, vals)

"""Joint spectral amplitudes of collinear degenerate downconversion pairs.

The two-photon amplitude is f(nu_s, nu_i) = alpha(nu_s + nu_i) phi(nu_s, nu_i)
with a chirped Gaussian pump envelope alpha and the crystal phasematching phi.
Detunings nu are measured from the degenerate carrier omega0 in rad/ps.

Two evaluation models: "full_sinc" keeps the complete dispersion relation,
"gaussian" uses the second-order Taylor expansion with sinc(x) ~ exp(-0.193 x^2).
Both carry the forward phase exp(+i L (k_s + k_i - k_p)/2), whose expansion is
the (i/2)(tau nu + beta nu^2) phase of the Gaussian model.
"""

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_SINC, lambda_from_omega, omega_from_lambda
from .errors import BadDomain, ConfigError, DegenerateGrid
from .materials import (
    DEFAULT_ROLES,
    RaySpec,
    _k_derivatives,
    carrier_mismatch,
    forward_mismatch,
    group_delays,
    phasematching_angle,
    qpm_period,
    wavenumber,
)


@dataclass(frozen=True)
class PumpConfig:
    """Pump amplitude exp(-(nu/sigma)^2 + i beta_t nu^2) at carrier omega_p0."""

    omega_p0: float
    sigma: float
    beta_t: float = 0.0

    def __post_init__(self):
        if not (0 < self.sigma < np.inf and np.isfinite(self.beta_t)):
            raise ConfigError("pump sigma must be positive and finite, and beta_t finite")


@dataclass(frozen=True)
class CrystalConfig:
    material: object
    length_um: float
    theta: float
    omega0: float
    roles: object = DEFAULT_ROLES
    qpm_period_um: float = None

    def __post_init__(self):
        if not 0 < self.length_um < np.inf:
            raise ConfigError("crystal length must be positive and finite")

    def lambda0_um(self):
        return lambda_from_omega(self.omega0)

    def delta_k0(self):
        """Residual carrier mismatch k_p - k_s - k_i (minus grating if poled)."""
        return carrier_mismatch(
            self.material, self.theta, self.lambda0_um(), self.roles, self.qpm_period_um
        )


def angle_matched_crystal(material, lambda_pdc_um, length_um, roles=DEFAULT_ROLES):
    """CrystalConfig at the solved birefringent phasematching angle."""
    theta = phasematching_angle(material, lambda_pdc_um, roles)
    return CrystalConfig(material, length_um, theta, omega_from_lambda(lambda_pdc_um), roles)


def qpm_matched_crystal(material, lambda_pdc_um, length_um, roles=DEFAULT_ROLES, theta=np.pi / 2):
    """CrystalConfig with a first-order poling period closing the mismatch."""
    period = qpm_period(material, lambda_pdc_um, theta, roles)
    return CrystalConfig(
        material, length_um, theta, omega_from_lambda(lambda_pdc_um), roles, period
    )


@dataclass(frozen=True)
class TaylorCoefficients:
    """Second-order expansion of L (k_s + k_i - k_p) around the carriers.

    tau_mu = L (k_mu'(omega0) - k_p'(2 omega0))           [ps]
    beta_mu = L/2 (k_mu''(omega0) - k_p''(2 omega0))      [ps^2]
    beta_p = L k_p''(2 omega0)                            [ps^2]
    """

    tau_s: float
    tau_i: float
    beta_s: float
    beta_i: float
    beta_p: float
    residual_dk0: float


def taylor_coefficients(crystal):
    L = crystal.length_um
    residual = crystal.delta_k0()
    if abs(residual) > 1e-6:
        raise ConfigError(
            f"crystal not phasematched: residual delta_k0 = {residual:.3e} rad/um"
        )
    carriers = (crystal.material, crystal.theta, crystal.roles, crystal.omega0)
    (kp1, kp2), (ks1, ks2), (ki1, ki2) = group_delays(*carriers, _k_derivatives)
    return TaylorCoefficients(
        tau_s=L * (ks1 - kp1),
        tau_i=L * (ki1 - kp1),
        beta_s=0.5 * L * (ks2 - kp2),
        beta_i=0.5 * L * (ki2 - kp2),
        beta_p=L * kp2,
        residual_dk0=residual,
    )


def marginal_sigmas(pump, coeffs):
    """Gaussian-model 1/e amplitude half-widths of the two marginals (rad/ps)."""
    s = pump.sigma
    g = GAMMA_SINC
    sig_s = 2.0 * s / np.sqrt(4.0 + g * s**2 * coeffs.tau_s**2)
    sig_i = 2.0 * s / np.sqrt(4.0 + g * s**2 * coeffs.tau_i**2)
    return sig_s, sig_i


class _SquareGrid:
    """Axis x_k = (k - n/2) dx, dx = 2 half_span / n, of the frequency and time grids."""

    @property
    def spacing(self):
        return 2.0 * self.half_span / self.n

    def axis(self):
        return (np.arange(self.n) - self.n // 2) * self.spacing


@dataclass(frozen=True)
class FrequencyGrid(_SquareGrid):
    """Square detuning grid nu_k = (k - n/2) dnu, dnu = 2 half_span / n."""

    omega0: float
    half_span: float
    n: int

    def __post_init__(self):
        if self.n < 32 or (self.n & (self.n - 1)) != 0:
            raise ConfigError("grid n must be a power of two, at least 32")
        if not (np.isfinite(self.half_span) and self.half_span > 0):
            raise ConfigError("grid half_span must be positive and finite")
        if not np.isfinite(self.omega0):
            raise ConfigError("grid omega0 must be finite")


@dataclass(frozen=True)
class TimeGrid(_SquareGrid):
    """Conjugate square time grid t_k = (k - n/2) dt."""

    half_span: float
    n: int


@dataclass(frozen=True)
class JointAmplitude:
    grid: object
    values: np.ndarray
    domain: str = "spectral"

    def norm_squared(self):
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**2)


def default_grid(pump, coeffs, n=256, span_factor=4.0):
    sig_s, sig_i = marginal_sigmas(pump, coeffs)
    return FrequencyGrid(
        omega0=0.5 * pump.omega_p0,
        half_span=span_factor * max(sig_s, sig_i),
        n=n,
    )


def pump_envelope(pump, nu_sum):
    nu = np.asarray(nu_sum, dtype=float)
    return np.exp(-((nu / pump.sigma) ** 2) + 1j * pump.beta_t * nu**2)


def _grating_shift(crystal):
    if crystal.qpm_period_um is None:
        return 0.0
    raw = carrier_mismatch(crystal.material, crystal.theta, crystal.lambda0_um(), crystal.roles)
    return np.sign(raw) * 2.0 * np.pi / crystal.qpm_period_um


def mismatch_on_grid(material, theta, roles, omega0, grid, grating=0.0):
    """D = k_s + k_i - (k_p - grating) on the n x n grid, rows nu_s.

    k_p is sampled once on the 2n-1 detuning sums (m - n) dnu and read back
    at index j + k, so each wavenumber costs O(n) evaluations.
    """
    n = grid.n
    nu = grid.axis()
    ks = wavenumber(material, RaySpec(roles.signal, theta), omega0 + nu)
    ki = wavenumber(material, RaySpec(roles.idler, theta), omega0 + nu)
    nu_sum = (np.arange(2 * n - 1) - n) * grid.spacing
    kp = wavenumber(material, RaySpec(roles.pump, theta), 2 * omega0 + nu_sum) - grating
    idx = np.arange(n)
    return ks[:, None] + ki[None, :] - kp[idx[:, None] + idx[None, :]]


def phasematching(mismatch, length):
    """Complex sinc phasematching sinc(x) e^{ix}, x = L D / 2, for D = k_s + k_i - k_p."""
    x = 0.5 * length * mismatch
    return np.sinc(x / np.pi) * np.exp(1j * x)


def phasematching_sinc(crystal, nu_s, nu_i):
    """Complex single-crystal phasematching, full dispersion, any points.

    Returns sinc(L delta_k/2) exp(-i L delta_k/2) with delta_k = k_p - k_s - k_i
    reduced by the grating vector when the crystal is poled.
    """
    m, th, roles, w0 = crystal.material, crystal.theta, crystal.roles, crystal.omega0
    d = forward_mismatch(m, th, roles, w0, nu_s, nu_i, _grating_shift(crystal))
    return phasematching(d, crystal.length_um)


def gaussian_model(pump, coeffs, nu_s, nu_i):
    """Gaussian-approximated amplitude at arbitrary points (not normalized)."""
    vs = np.asarray(nu_s, dtype=float)
    vi = np.asarray(nu_i, dtype=float)
    vsum = vs + vi
    lin = coeffs.tau_s * vs + coeffs.tau_i * vi
    logmag = -((vsum / pump.sigma) ** 2) - 0.25 * GAMMA_SINC * lin**2
    phase = pump.beta_t * vsum**2 + 0.5 * (
        lin + coeffs.beta_s * vs**2 + coeffs.beta_i * vi**2 + coeffs.beta_p * vs * vi
    )
    return np.exp(logmag + 1j * phase)


def _normalized(grid, values, domain="spectral"):
    norm = np.sqrt(np.sum(np.abs(values) ** 2)) * grid.spacing
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateGrid("amplitude vanishes or diverges on the grid")
    return JointAmplitude(grid, values / norm, domain)


def jsa_grid(pump, crystal, grid=None, model="full_sinc"):
    """Normalized joint spectral amplitude on a square grid.

    rows index nu_s, columns nu_i. Normalization: sum |f|^2 dnu^2 = 1.
    """
    if abs(pump.omega_p0 - 2.0 * crystal.omega0) > 1e-9 * pump.omega_p0:
        raise ConfigError("pump carrier must be twice the downconversion carrier")
    coeffs = taylor_coefficients(crystal)
    if grid is None:
        grid = default_grid(pump, coeffs)
    sig_s, sig_i = marginal_sigmas(pump, coeffs)
    if grid.half_span < min(sig_s, sig_i) / 10.0:
        raise DegenerateGrid(
            f"half_span {grid.half_span:.3g} cannot resolve marginal width "
            f"{min(sig_s, sig_i):.3g}"
        )
    nu = grid.axis()
    if model == "gaussian":
        # the Gaussian model carries the pump factor already
        values = gaussian_model(pump, coeffs, nu[:, None], nu[None, :])
    elif model == "full_sinc":
        m, th, roles, w0 = crystal.material, crystal.theta, crystal.roles, crystal.omega0
        d = mismatch_on_grid(m, th, roles, w0, grid, _grating_shift(crystal))
        values = phasematching(d, crystal.length_um)
        values *= pump_envelope(pump, nu[:, None] + nu[None, :])
    else:
        raise ConfigError(f"unknown model {model!r}")
    return _normalized(grid, values)


def joint_temporal_intensity(ja):
    """Centered 2-D DFT of a spectral amplitude; preserves the L2 norm."""
    if ja.domain != "spectral":
        raise BadDomain("input amplitude is not in the spectral domain")
    grid = ja.grid
    f = ja.values
    F = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(f)))
    F = F * (grid.spacing**2 / (2.0 * np.pi))
    dt = 2.0 * np.pi / (grid.n * grid.spacing)
    tgrid = TimeGrid(half_span=0.5 * grid.n * dt, n=grid.n)
    return JointAmplitude(tgrid, F, domain="temporal")


def intensity_correlation(ja):
    """Pearson correlation of the two axes under the intensity |f|^2."""
    w = np.abs(ja.values) ** 2
    w = w / np.sum(w)
    x = ja.grid.axis()
    px = w.sum(axis=1)
    py = w.sum(axis=0)
    mx = np.dot(px, x)
    my = np.dot(py, x)
    vx = np.dot(px, (x - mx) ** 2)
    vy = np.dot(py, (x - my) ** 2)
    cov = np.einsum("j,k,jk->", x - mx, x - my, w)
    return float(cov / np.sqrt(vx * vy))

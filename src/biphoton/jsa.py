"""Joint spectral amplitudes of collinear degenerate downconversion pairs.

The two-photon amplitude is f(nu_s, nu_i) = alpha(nu_s + nu_i) phi(nu_s, nu_i)
with a chirped Gaussian pump envelope alpha and the crystal phasematching phi.
Detunings nu are measured from the degenerate carrier omega0 in rad/ps.

Two evaluation models: "full_sinc" keeps the complete dispersion relation,
"gaussian" uses the second-order Taylor expansion with sinc(x) ~ exp(-0.193 x^2).
Both carry the forward phase exp(+i L (k_s + k_i - k_p)/2), whose expansion is
the (i/2)(tau nu + beta nu^2) phase of the Gaussian model.
A single crystal is the crystal/spacer stack with N = 1: one evaluator gives both.
"""

from dataclasses import dataclass

import numpy as np

from .constants import GAMMA_SINC, lambda_from_omega, omega_from_lambda
from .errors import BadDomain, ConfigError, DegenerateGrid
from .materials import (
    IDLER_POL,
    NONCRITICAL_THETA,
    PUMP_POL,
    SIGNAL_POL,
    RaySpec,
    _k_derivatives,
    carrier_mismatch,
    forward_mismatch,
    group_delays,
    phasematching_angle,
    qpm_grating,
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
    """A crystal cut at theta for the degenerate carrier omega0; grating is the
    signed grating vector (rad/um) of a poled crystal, 0 when unpoled."""

    material: object
    length_um: float
    theta: float
    omega0: float
    grating: float = 0.0

    def __post_init__(self):
        if not 0 < self.length_um < np.inf:
            raise ConfigError("crystal length must be positive and finite")

    @property
    def qpm_period_um(self):
        """Poling period 2 pi / |grating| (um), None when unpoled."""
        return 2.0 * np.pi / abs(self.grating) if self.grating else None

    def lambda0_um(self):
        return lambda_from_omega(self.omega0)

    def delta_k0(self):
        """Residual carrier mismatch k_p - k_s - k_i - grating."""
        return carrier_mismatch(self.material, self.theta, self.lambda0_um()) - self.grating


def angle_matched_crystal(material, lambda_pdc_um, length_um):
    """CrystalConfig at the solved birefringent phasematching angle."""
    theta = phasematching_angle(material, lambda_pdc_um)
    return CrystalConfig(material, length_um, theta, omega_from_lambda(lambda_pdc_um))


def qpm_matched_crystal(material, lambda_pdc_um, length_um):
    """CrystalConfig cut at NONCRITICAL_THETA, poled with the first-order grating
    that closes the carrier mismatch."""
    grating = qpm_grating(material, lambda_pdc_um)
    return CrystalConfig(
        material, length_um, NONCRITICAL_THETA, omega_from_lambda(lambda_pdc_um), grating
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
    carriers = (crystal.material, crystal.theta, crystal.omega0)
    (kp1, kp2), (ks1, ks2), (ki1, ki2) = group_delays(*carriers, _k_derivatives)
    return TaylorCoefficients(
        tau_s=L * (ks1 - kp1),
        tau_i=L * (ki1 - kp1),
        beta_s=0.5 * L * (ks2 - kp2),
        beta_i=0.5 * L * (ki2 - kp2),
        beta_p=L * kp2,
        residual_dk0=residual,
    )


def gaussian_form(pump, coeffs):
    """Complex (a, b, c) of the Gaussian-model exponent -(a nu_s^2 + 2 b nu_s nu_i
    + c nu_i^2) + i (tau_s nu_s + tau_i nu_i)/2; the amplitude factorizes exactly
    when b = 0 (Grice, U'Ren & Walmsley, PRA 64, 063815)."""
    s2, g4 = pump.sigma**-2, 0.25 * GAMMA_SINC
    ts, ti, bt = coeffs.tau_s, coeffs.tau_i, pump.beta_t
    a = complex(s2 + g4 * ts**2, -(bt + 0.5 * coeffs.beta_s))
    b = complex(s2 + g4 * ts * ti, -(bt + 0.25 * coeffs.beta_p))
    c = complex(s2 + g4 * ti**2, -(bt + 0.5 * coeffs.beta_i))
    return a, b, c


def marginal_sigmas(pump, coeffs):
    """Gaussian-model 1/e amplitude half-widths (rad/ps) of the signal slice at
    zero idler detuning and of the idler slice at zero signal detuning,
    (Re a)^-1/2 and (Re c)^-1/2; they are the marginals' widths only when b = 0."""
    a, _, c = gaussian_form(pump, coeffs)
    return a.real**-0.5, c.real**-0.5


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


def mismatch_on_grid(material, theta, omega0, grid, grating=0.0):
    """D = k_s + k_i - (k_p - grating) on the n x n grid, rows nu_s.

    k_p is sampled once on the 2n-1 detuning sums (m - n) dnu and read back
    at index j + k, so each wavenumber costs O(n) evaluations.
    """
    n = grid.n
    nu = grid.axis()
    ks = wavenumber(material, RaySpec(SIGNAL_POL, theta), omega0 + nu)
    ki = wavenumber(material, RaySpec(IDLER_POL, theta), omega0 + nu)
    nu_sum = (np.arange(2 * n - 1) - n) * grid.spacing
    kp = wavenumber(material, RaySpec(PUMP_POL, theta), 2 * omega0 + nu_sum) - grating
    idx = np.arange(n)
    return ks[:, None] + ki[None, :] - kp[idx[:, None] + idx[None, :]]


def phasematching(mismatch, length):
    """Complex sinc phasematching sinc(x) e^{ix}, x = L D / 2, for D = k_s + k_i - k_p."""
    x = 0.5 * length * mismatch
    return np.sinc(x / np.pi) * np.exp(1j * x)


def upsilon(n_crystals, x):
    """Normalized Dirichlet kernel sin(N x) / (N sin x), array-capable.

    The removable singularities at x = k pi evaluate to (-1)^{k (N-1)}, so the
    peak values are exactly +-1.
    """
    n = int(n_crystals)
    if n < 1:
        raise ConfigError("n_crystals must be at least 1")
    xa = np.asarray(x, dtype=float)
    s = np.sin(xa)
    near = np.abs(s) < 1e-9
    k = np.rint(xa / np.pi)
    limit = np.where(((n - 1) * k.astype(np.int64)) % 2 == 0, 1.0, -1.0)
    safe = np.where(near, 1.0, s)
    out = np.where(near, limit, np.sin(n * xa) / (n * safe))
    return out if out.ndim else float(out)


def _stack_phasematching(crystal, mismatch, where, stack=None):
    """Complex phasematching of a crystal stack; no stack is one crystal.

    mismatch is mismatch_on_grid with where = (grid,), or forward_mismatch with
    where = (nu_s, nu_i).  stack carries spacer_material, spacer_h_um and
    n_crystals (an AssemblyConfig).  A poled crystal keeps its grating; N
    crystals multiply its sinc by the exact geometric sum over periods of the
    pair phase Phi = L D_c + h D_sp, the spacer unpoled and cut at NONCRITICAL_THETA.
    """
    w0 = crystal.omega0
    dc = mismatch(crystal.material, crystal.theta, w0, *where, crystal.grating)
    single = phasematching(dc, crystal.length_um)
    n = 1 if stack is None else stack.n_crystals
    if n == 1:
        return single
    dsp = mismatch(stack.spacer_material, NONCRITICAL_THETA, w0, *where)
    phi = crystal.length_um * dc + stack.spacer_h_um * dsp
    return n * upsilon(n, 0.5 * phi) * np.exp(0.5j * (n - 1) * phi) * single


def phasematching_sinc(crystal, nu_s, nu_i):
    """Complex single-crystal phasematching, full dispersion, any points.

    Returns sinc(L delta_k/2) exp(-i L delta_k/2) with delta_k = k_p - k_s - k_i
    reduced by the grating vector when the crystal is poled.
    """
    return _stack_phasematching(crystal, forward_mismatch, (nu_s, nu_i))


def gaussian_model(pump, coeffs, nu_s, nu_i):
    """Gaussian-approximated amplitude at arbitrary points (not normalized):
    exp(-(a nu_s^2 + 2 b nu_s nu_i + c nu_i^2) + i (tau_s nu_s + tau_i nu_i)/2)."""
    vs = np.asarray(nu_s, dtype=float)
    vi = np.asarray(nu_i, dtype=float)
    a, b, c = gaussian_form(pump, coeffs)
    # real arithmetic; on a grid only the sums and the mixed terms are n x n
    logmag = -a.real * vs**2 - c.real * vi**2 - 2.0 * b.real * vs * vi
    phase = (0.5 * coeffs.tau_s - a.imag * vs) * vs + (0.5 * coeffs.tau_i - c.imag * vi) * vi
    phase = phase - 2.0 * b.imag * vs * vi
    return np.exp(logmag + 1j * phase)


def _normalized(grid, values, domain="spectral"):
    norm = np.sqrt(np.sum(np.abs(values) ** 2)) * grid.spacing
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateGrid("amplitude vanishes or diverges on the grid")
    return JointAmplitude(grid, values / norm, domain)


def _check_carrier(pump, crystal):
    if abs(pump.omega_p0 - 2.0 * crystal.omega0) > 1e-9 * pump.omega_p0:
        raise ConfigError("pump carrier must be twice the downconversion carrier")


def _stack_on_grid(pump, crystal, grid, stack=None):
    """Normalized full-sinc amplitude of a crystal stack on a square grid."""
    values = _stack_phasematching(crystal, mismatch_on_grid, (grid,), stack)
    nu = grid.axis()
    values *= pump_envelope(pump, nu[:, None] + nu[None, :])
    return _normalized(grid, values)


def jsa_grid(pump, crystal, grid=None, model="full_sinc"):
    """Normalized joint spectral amplitude on a square grid.

    rows index nu_s, columns nu_i. Normalization: sum |f|^2 dnu^2 = 1.
    """
    _check_carrier(pump, crystal)
    coeffs = taylor_coefficients(crystal)
    if grid is None:
        grid = default_grid(pump, coeffs)
    narrow = min(marginal_sigmas(pump, coeffs))
    if grid.half_span < narrow / 10.0:
        raise DegenerateGrid(
            f"half_span {grid.half_span:.3g} cannot resolve zero-detuning slice width {narrow:.3g}"
        )
    if model == "full_sinc":
        return _stack_on_grid(pump, crystal, grid)
    if model != "gaussian":
        raise ConfigError(f"unknown model {model!r}")
    nu = grid.axis()
    # the Gaussian model carries the pump factor already
    return _normalized(grid, gaussian_model(pump, coeffs, nu[:, None], nu[None, :]))


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

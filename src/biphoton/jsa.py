"""Joint spectral amplitudes of collinear degenerate downconversion pairs.

The two-photon amplitude is f(nu_s, nu_i) = alpha(nu_s + nu_i) phi(nu_s, nu_i)
with a chirped Gaussian pump envelope alpha and the crystal phasematching phi.
Detunings nu are measured from the degenerate carrier omega0 in rad/ps.

Two evaluation models: "full_sinc" keeps the complete dispersion relation,
"gaussian" uses the second-order Taylor expansion with sinc(x) ~ exp(-0.193 x^2).
Both carry the forward phase exp(+i L (k_s + k_i - k_p)/2), whose expansion is
the (i/2)(tau nu + beta nu^2) phase of the Gaussian model.
A single crystal is the stack AssemblyConfig(crystal, None, 0.0, 1): one evaluator takes both.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import GAMMA_SINC, lambda_from_omega, omega_from_lambda, sigma_from_fwhm_nm
from .errors import BadDomain, ConfigError, DegenerateGrid, NumericalFailure
from .materials import (
    IDLER_POL,
    NONCRITICAL_THETA,
    PUMP_POL,
    SIGNAL_POL,
    DispersionModel,
    RaySpec,
    carrier_mismatch,
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
        # gaussian_form takes sigma^-2, which is finite for sigma above 2^-511
        if not (2.0**-511 < self.sigma < np.inf and np.isfinite(self.beta_t)):
            raise ConfigError(
                "pump sigma must be positive and finite, with sigma^-2 finite, and beta_t finite"
            )


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

    @cached_property
    def coeffs(self):
        """The crystal's Taylor expansion, taken once (taylor_coefficients)."""
        return taylor_coefficients(self)


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
    L, material, theta = crystal.length_um, crystal.material, crystal.theta
    # the residual carrier mismatch k_p - k_s - k_i - grating
    residual = carrier_mismatch(material, theta, lambda_from_omega(crystal.omega0)) - crystal.grating
    if abs(residual) > 1e-6:
        raise ConfigError(
            f"crystal not phasematched: residual delta_k0 = {residual:.3e} rad/um"
        )
    (kp1, kp2), (ks1, ks2), (ki1, ki2) = group_delays(material, theta, crystal.omega0)
    return TaylorCoefficients(
        tau_s=L * (ks1 - kp1),
        tau_i=L * (ki1 - kp1),
        beta_s=0.5 * L * (ks2 - kp2),
        beta_i=0.5 * L * (ki2 - kp2),
        beta_p=L * kp2,
        residual_dk0=residual,
    )


def _check_scheme(scheme):
    if scheme not in ("angle", "qpm"):
        raise ConfigError(f"unknown scheme {scheme!r}; expected 'angle' or 'qpm'")


def matched_source(material, lambda_pdc_um, length_um, pump_fwhm_nm, scheme="angle", beta_t=0.0):
    """(crystal, pump, coeffs) of one crystal phasematched at lambda_pdc_um.

    scheme "angle" cuts the crystal at its phasematching angle, "qpm" poles it
    (angle_matched_crystal, qpm_matched_crystal). The pump at carrier 2 omega0
    has intensity FWHM pump_fwhm_nm, quoted at lambda_pdc_um / 2, and chirp beta_t.
    material is a DispersionModel (get_material), not a material name.
    """
    if not isinstance(material, DispersionModel):
        raise ConfigError(f"material must be a DispersionModel: pass get_material({material!r})")
    _check_scheme(scheme)
    matched = angle_matched_crystal if scheme == "angle" else qpm_matched_crystal
    crystal = matched(material, lambda_pdc_um, length_um)
    sigma = sigma_from_fwhm_nm(float(pump_fwhm_nm), lambda_pdc_um / 2.0)
    pump = PumpConfig(omega_p0=2.0 * crystal.omega0, sigma=sigma, beta_t=beta_t)
    return crystal, pump, crystal.coeffs


@np.errstate(over="ignore")
def gaussian_form(pump, coeffs):
    """Complex (a, b, c) of the Gaussian-model exponent -(a nu_s^2 + 2 b nu_s nu_i
    + c nu_i^2) + i (tau_s nu_s + tau_i nu_i)/2; the amplitude factorizes exactly
    when b = 0 (Grice, U'Ren & Walmsley, PRA 64, 063815). A tau^2 beyond float
    range gives an infinite coefficient, unwarned, for the caller to reject."""
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
        if not 0 < self.spacing < np.inf:
            raise ConfigError("grid half_span must be positive and finite, with a nonzero step")
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

    def norm_squared(self):
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.spacing**2)


def default_grid(pump, coeffs, n=256, span_factor=4.0):
    sig_s, sig_i = marginal_sigmas(pump, coeffs)
    return FrequencyGrid(
        omega0=0.5 * pump.omega_p0,
        half_span=span_factor * max(sig_s, sig_i),
        n=n,
    )


@np.errstate(over="ignore", invalid="ignore")
def pump_envelope(pump, nu_sum):
    """Pump amplitude at detunings nu_sum; 0 or NaN, unwarned, where nu^2 overflows."""
    nu = np.asarray(nu_sum, dtype=float)
    return np.exp(-((nu / pump.sigma) ** 2) + 1j * pump.beta_t * nu**2)


def _sinc(x):
    """sin(x) / x, exactly 1 at x = 0 (np.sinc without its scalings by pi)."""
    x = np.where(x == 0.0, 1e-20, x)  # sin(1e-20) rounds to 1e-20
    s = np.sin(x)
    s /= x
    return s


def _waves(nu_s, nu_i, nu_p, lift):
    """The waves function of _stack_phasematching at signal, idler and pump
    detunings nu_s, nu_i and nu_p; lift reads a function of nu_p at the
    signal-idler points."""

    def waves(material, theta, omega0, grating=0.0):
        ks = wavenumber(material, RaySpec(SIGNAL_POL, theta), omega0 + nu_s)
        ki = wavenumber(material, RaySpec(IDLER_POL, theta), omega0 + nu_i)
        kp = wavenumber(material, RaySpec(PUMP_POL, theta), 2 * omega0 + nu_p)
        return ks, ki, kp - grating, lift

    return waves


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
    # k is a whole float, so its parity is exact, beyond int64 range too
    k = np.rint(xa / np.pi)
    limit = np.where((n - 1) % 2 * (k % 2) == 0, 1.0, -1.0)
    safe = np.where(near, 1.0, s)
    out = np.where(near, limit, np.sin(n * xa) / (n * safe))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class AssemblyConfig:
    """A crystal stack: crystal config, spacer medium (None for one crystal), geometry."""

    crystal: CrystalConfig
    spacer_material: object
    spacer_h_um: float
    n_crystals: int

    def __post_init__(self):
        if self.n_crystals < 1:
            raise ConfigError("n_crystals must be at least 1")
        if not 0 <= self.spacer_h_um < np.inf:
            raise ConfigError("spacer thickness must be nonnegative and finite")
        if self.n_crystals > 1 and self.spacer_material is None:
            raise ConfigError("a stack of more than one crystal needs a spacer material")


def _stack_phasematching(stack, waves, envelope=1.0):
    """Complex phasematching of a crystal stack (an AssemblyConfig).

    waves(material, theta, omega0, grating) gives (k_s, k_i, k_p - grating,
    lift): _waves on a grid, with the Hankel view as lift, or at points, with
    the identity. A poled crystal keeps its grating; N crystals multiply its
    sinc(x) e^{ix}, x = L D_c / 2, by the exact geometric sum over periods of
    the pair phase Phi = L D_c + h D_sp, the spacer unpoled and cut at
    NONCRITICAL_THETA, with D = k_s + k_i - k_p in each medium.

    The phase e^{i (x + (N - 1) Phi / 2)} is linear in the three wavenumbers,
    so it is the product of one factor per wave, each taken on its own
    samples; envelope, a factor on the pump samples (the pump amplitude on a
    grid), joins the pump wave's. Only sinc and the Dirichlet kernel are
    evaluated per point. sinc(x) e^{ix} is not taken as (e^{2ix} - 1) / (2ix)
    from those factors: at the carrier x is about 1e-9, and the 1e-11 rad
    rounding of L k ~ 1e5 rad would leave relative errors up to 1e-2.
    """
    crystal, n = stack.crystal, stack.n_crystals
    w0, length = crystal.omega0, crystal.length_um
    ks, ki, kp, lift = waves(crystal.material, crystal.theta, w0, crystal.grating)
    dc = ks + ki - lift(kp)
    amp = _sinc(0.5 * length * dc)
    c = 0.5 * n * length
    phase_s, phase_i, phase_p = c * ks, c * ki, c * kp
    if n > 1:
        ss, si, sp, _ = waves(stack.spacer_material, NONCRITICAL_THETA, w0)
        h = stack.spacer_h_um
        amp *= n * upsilon(n, 0.5 * (length * dc + h * (ss + si - lift(sp))))
        c = 0.5 * (n - 1) * h
        phase_s, phase_i, phase_p = phase_s + c * ss, phase_i + c * si, phase_p + c * sp
    values = np.exp(1j * phase_s) * np.exp(1j * phase_i)
    values *= lift(np.exp(-1j * phase_p) * envelope)
    values *= amp
    return values


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


def _normalized(grid, values):
    norm = np.sqrt(np.sum(np.abs(values) ** 2)) * grid.spacing
    if norm == 0.0 or not np.isfinite(norm):
        raise DegenerateGrid("amplitude vanishes or diverges on the grid")
    return JointAmplitude(grid, values / norm)


def _check_carrier(pump, crystal, grid):
    """The amplitude is evaluated at crystal.omega0; the pump and the grid must agree."""
    w0 = crystal.omega0
    if abs(pump.omega_p0 - 2.0 * w0) > 1e-9 * pump.omega_p0:
        raise ConfigError("pump carrier must be twice the downconversion carrier")
    if abs(grid.omega0 - w0) > 1e-9 * w0:
        raise ConfigError(f"grid carrier {grid.omega0!r} rad/ps is not the crystal's {w0!r} rad/ps")


def _stack_on_grid(pump, stack, grid):
    """Normalized full-sinc amplitude of a crystal stack on a square grid.

    The pump wave and the pump envelope depend on nu_s + nu_i alone: both are
    sampled once on the 2n - 1 sums (m - n) dnu and read back at index j + k
    through a Hankel view, so every wavenumber and phase costs O(n).
    """
    n = grid.n
    nu = grid.axis()
    nu_sum = (np.arange(2 * n - 1) - n) * grid.spacing
    waves = _waves(nu[:, None], nu[None, :], nu_sum, lambda v: sliding_window_view(v, n))
    values = _stack_phasematching(stack, waves, pump_envelope(pump, nu_sum))
    return _normalized(grid, values)


def jsa_grid(pump, crystal, grid=None, model="full_sinc"):
    """Normalized joint spectral amplitude on a square grid.

    rows index nu_s, columns nu_i. Normalization: sum |f|^2 dnu^2 = 1.
    """
    coeffs = crystal.coeffs
    if grid is None:
        grid = default_grid(pump, coeffs)
    _check_carrier(pump, crystal, grid)
    narrow = min(marginal_sigmas(pump, coeffs))
    if grid.half_span < narrow / 10.0:
        raise DegenerateGrid(
            f"half_span {grid.half_span:.3g} cannot resolve zero-detuning slice width {narrow:.3g}"
        )
    if model == "full_sinc":
        return _stack_on_grid(pump, AssemblyConfig(crystal, None, 0.0, 1), grid)
    if model != "gaussian":
        raise ConfigError(f"unknown model {model!r}")
    nu = grid.axis()
    # the Gaussian model carries the pump factor already
    return _normalized(grid, gaussian_model(pump, coeffs, nu[:, None], nu[None, :]))


def joint_temporal_intensity(ja):
    """Centered 2-D DFT of a spectral amplitude (on a FrequencyGrid) onto a
    TimeGrid; preserves the L2 norm."""
    if not isinstance(ja.grid, FrequencyGrid):
        raise BadDomain("input amplitude is not in the spectral domain")
    grid = ja.grid
    f = ja.values
    F = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(f)))
    F = F * (grid.spacing**2 / (2.0 * np.pi))
    dt = 2.0 * np.pi / (grid.n * grid.spacing)
    tgrid = TimeGrid(half_span=0.5 * grid.n * dt, n=grid.n)
    return JointAmplitude(tgrid, F)


def intensity_correlation(ja):
    """Pearson correlation of the two axes under the intensity |f|^2; an
    intensity on one row or column, with zero variance, is a NumericalFailure."""
    v = ja.values
    w = np.square(v.real)
    w += np.square(v.imag)
    x = ja.grid.axis()
    px = w.sum(axis=1)
    py = w.sum(axis=0)
    total = px.sum()
    px /= total
    py /= total
    dx = x - np.dot(px, x)
    dy = x - np.dot(py, x)
    cov = np.dot(dx, w @ dy) / total
    var = np.dot(px, dx**2) * np.dot(py, dy**2)
    if not var > 0.0:
        msg = f"intensity correlation undefined: the axis variances multiply to {var:g}"
        raise NumericalFailure(msg)
    return float(cov / np.sqrt(var))

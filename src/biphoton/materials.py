"""Birefringent dispersion models and phasematching solvers.

Crystals are treated as uniaxial: ordinary rays see n_o, extraordinary rays
see the angle-tuned index 1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2.
Biaxial KTP is mapped onto this form for the usual collinear x-cut geometry
(n_e := n_y, n_o := n_z, theta = 90 deg); see the bundled database notes.

Every source here is collinear type II with one fixed geometry: an
extraordinary pump (PUMP_POL) gives an extraordinary signal (SIGNAL_POL) and an
ordinary idler (IDLER_POL). Poled crystals and spacers are cut at
NONCRITICAL_THETA = pi/2.

Every index, group delay and mismatch here is formed from one read of the
Sellmeier data, _principal_reads: n^2 and its two x-derivatives, x = lambda^2.

The carrier phase mismatch reported everywhere is delta_k = k_p - k_s - k_i.
"""

import enum
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .constants import C_UM_PS, lambda_from_omega, omega_from_lambda
from .errors import (
    AlreadyMatched,
    ConfigError,
    NoPhasematch,
    NumericalFailure,
    OutOfRange,
)

ENV_MATERIALS_PATH = "BIPHOTON_MATERIALS_PATH"


class Pol(str, enum.Enum):
    ORDINARY = "o"
    EXTRAORDINARY = "e"


@dataclass(frozen=True)
class Sellmeier:
    """n^2(lambda) = c0 + sum_j (A_j + B_j L2)/(L2 - D_j) + lambda_sq L2."""

    c0: float
    terms: tuple
    lambda_sq: float = 0.0

    def x_derivatives(self, x):
        """(n^2, d n^2/dx, d^2 n^2/dx^2) at x = lambda^2 (um^2)."""
        f, fx, fxx = self.c0 + self.lambda_sq * x, self.lambda_sq, 0.0
        for a, b, d in self.terms:
            r = (a + b * d) / (x - d) ** 2
            f, fx, fxx = f + (a + b * x) / (x - d), fx - r, fxx + 2.0 * r / (x - d)
        return f, fx, fxx


@dataclass(frozen=True)
class DispersionModel:
    material_id: str
    sellmeier_o: Sellmeier
    sellmeier_e: Sellmeier
    valid_range: tuple
    source: str = ""


@dataclass(frozen=True)
class RaySpec:
    polarization: Pol
    theta: float = np.pi / 2

    def __post_init__(self):
        _check_theta(self.theta)


def _check_theta(theta):
    th = np.asarray(theta, dtype=float)
    if not np.all((th >= 0.0) & (th <= np.pi / 2 + 1e-12)):
        raise ConfigError(f"theta {theta} outside [0, pi/2]")


#: the principal index each wave of the pair geometry sees
PUMP_POL = Pol.EXTRAORDINARY
SIGNAL_POL = Pol.EXTRAORDINARY
IDLER_POL = Pol.ORDINARY

#: cut of poled crystals and of spacers: optic axis normal to the beam
NONCRITICAL_THETA = np.pi / 2


def _parse_sellmeier(node):
    terms = tuple(tuple(float(x) for x in t) for t in node["terms"])
    if any(len(t) != 3 for t in terms):
        raise ValueError("a Sellmeier term must hold three numbers (A, B, D)")
    return Sellmeier(float(node["c0"]), terms, float(node.get("lambda_sq", 0.0)))


def load_database(path=None):
    """Load the materials database; env var overrides the bundled file. A file
    or material entry that cannot be parsed raises ConfigError naming it."""
    if path is None:
        path = os.environ.get(ENV_MATERIALS_PATH)
    where = "bundled materials database" if path is None else f"materials database {path}"
    db, name = {}, None
    try:
        if path is None:
            text = resources.files("biphoton.data").joinpath("materials.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        for name, node in json.loads(text)["materials"].items():
            lo, hi = node["valid_range"]
            db[name.upper()] = DispersionModel(
                material_id=name.upper(),
                sellmeier_o=_parse_sellmeier(node["sellmeier_o"]),
                sellmeier_e=_parse_sellmeier(node["sellmeier_e"]),
                valid_range=(float(lo), float(hi)),
                source=str(node.get("source", "")),
            )
    except (OSError, AttributeError, LookupError, TypeError, ValueError) as exc:
        entry = "" if name is None else f", material {name!r}"
        raise ConfigError(f"{where}{entry}: {type(exc).__name__}: {exc}") from exc
    return db


def get_material(name, db=None):
    if db is None:
        db = load_database()
    key = str(name).upper()
    if key not in db:
        raise ConfigError(f"unknown material {name!r}; have {sorted(db)}")
    return db[key]


def _check_range(model, lambda_um):
    lam = np.asarray(lambda_um, dtype=float)
    lo, hi = model.valid_range
    if not np.all((lam >= lo) & (lam <= hi)):
        raise OutOfRange(
            f"{model.material_id}: wavelength outside validity range [{lo}, {hi}] um"
        )


def _principal_reads(model, lambda_um):
    """x = lambda^2 and the o- and e-ray Sellmeier.x_derivatives at vacuum
    wavelength lambda_um (um), after the one range check."""
    _check_range(model, lambda_um)
    x = np.asarray(lambda_um, dtype=float) ** 2
    return x, model.sellmeier_o.x_derivatives(x), model.sellmeier_e.x_derivatives(x)


def _mixed_index(no2, ne2, s2):
    """Extraordinary index from n_o^2, n_e^2 and s2 = sin^2(theta)."""
    return 1.0 / np.sqrt((1.0 - s2) / no2 + s2 / ne2)


def refractive_index(model, ray, lambda_um):
    """Index seen by the ray at vacuum wavelength lambda_um (um)."""
    _, (no2, *_), (ne2, *_) = _principal_reads(model, lambda_um)
    if ray.polarization is Pol.ORDINARY:
        return np.sqrt(no2)
    return _mixed_index(no2, ne2, np.sin(ray.theta) ** 2)


def wavenumber(model, ray, omega):
    """k = n(omega) omega / c in rad/um; omega in rad/ps."""
    lam = lambda_from_omega(np.asarray(omega, dtype=float))
    return refractive_index(model, ray, lam) * np.asarray(omega, dtype=float) / C_UM_PS


def _k_derivatives(model, omega, *rays):
    """Yields (dk/domega, d2k/domega2) of each ray at omega, from one Sellmeier read.

    u = 1/n^2 = (1 - s2)/n_o^2 + s2/n_e^2, with s2 = sin^2(theta) for the
    extraordinary ray and 0 for the ordinary one, gives n_x and n_xx at
    x = lambda^2. With dx/domega = -2x/omega, k' = (n - 2x n_x)/c and
    k'' = 2x (n_x + 2x n_xx)/(c omega).
    """
    x, *reads = _principal_reads(model, lambda_from_omega(np.asarray(omega, dtype=float)))
    for ray in rays:
        s2 = 0.0 if ray.polarization is Pol.ORDINARY else np.sin(ray.theta) ** 2
        u = ux = uxx = 0.0
        for (f, fx, fxx), w in zip(reads, (1.0 - s2, s2)):
            u, ux, uxx = u + w / f, ux - w * fx / f**2, uxx + w * (2.0 * fx**2 / f - fxx) / f**2
        n = u**-0.5
        nx, nxx = -0.5 * n**3 * ux, n**3 * (0.75 * n**2 * ux**2 - 0.5 * uxx)
        yield (n - 2.0 * x * nx) / C_UM_PS, 2.0 * x * (nx + 2.0 * x * nxx) / (C_UM_PS * omega)


def inverse_group_velocity(model, ray, omega):
    """dk/domega (ps/um)."""
    return next(_k_derivatives(model, omega, ray))[0]


def gvd(model, ray, omega):
    """d2k/domega2 (ps^2/um)."""
    return next(_k_derivatives(model, omega, ray))[1]


def walkoff_angle(model, theta, lambda_um):
    """Poynting walkoff magnitude of the extraordinary ray, in degrees."""
    _check_theta(theta)
    _, (no2, *_), (ne2, *_) = _principal_reads(model, lambda_um)
    neff = _mixed_index(no2, ne2, np.sin(theta) ** 2)
    rho = np.arctan(0.5 * neff**2 * np.abs(1.0 / ne2 - 1.0 / no2) * np.abs(np.sin(2.0 * theta)))
    return np.degrees(rho)


def group_delays(model, theta, omega0):
    """((k', k'') of the pump, of the signal, of the idler), with the pump at
    2 omega0 and the pair at omega0."""
    pump, signal, idler = (RaySpec(pol, theta) for pol in (PUMP_POL, SIGNAL_POL, IDLER_POL))
    return (*_k_derivatives(model, 2 * omega0, pump), *_k_derivatives(model, omega0, signal, idler))


def carrier_mismatch(model, theta, lambda_pdc_um):
    """delta_k = k_p - k_s - k_i at degeneracy, without any grating."""
    _check_theta(theta)
    return _angle_mismatch(theta, *_carrier_parts(model, lambda_pdc_um))


#: iteration cap of find_root; bisection alone reaches one ulp in about 60
FIND_ROOT_MAXITER = 100


@np.errstate(divide="ignore", invalid="ignore")
def find_root(f, a, b, fa, fb):
    """Roots of an elementwise f, one per bracket [a_j, b_j] with fa_j fb_j <= 0.

    fa and fb are f at the bracket ends, which every caller has already
    sampled to find the bracket; f is called only inside the brackets.
    Chandrupatla's method (Adv. Eng. Softw. 28, 145 (1997)): inverse quadratic
    interpolation where the last three points allow it, bisection otherwise.
    A lane is frozen once f is exactly 0 or its bracket is a few ulp wide, in
    units of the root or, for a root at 0, of the starting bracket.
    """
    # a is the newest point, [a, b] brackets the root, c is the point a replaced
    b, a, fb, fa = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, fa, fb)))
    if not np.all(np.sign(fa) * np.sign(fb) <= 0):
        raise NumericalFailure("find_root: bracket without a sign change")
    c, fc, t, width = a, fa, 0.5, np.abs(b - a)
    root = np.where(np.abs(fa) < np.abs(fb), a, b)
    done = (fa == 0) | (fb == 0)
    eps = np.finfo(float).eps
    for _ in range(FIND_ROOT_MAXITER + 1):
        if done.all():
            return root
        xt = a + t * (b - a)
        ft = f(xt)
        if not np.all(np.isfinite(ft) | done):
            raise NumericalFailure("find_root: non-finite function value in a bracket")
        same = done | (np.sign(ft) == np.sign(fa))
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = np.where(done, a, xt), np.where(done, fa, ft)
        a_best = np.abs(fa) < np.abs(fb)
        xm, fm = np.where(a_best, a, b), np.where(a_best, fa, fb)
        tlim = 2.0 * eps * (np.abs(xm) + width) / np.abs(b - c)
        stop = ~done & ((fm == 0) | (tlim > 0.5))
        root, done = np.where(stop, xm, root), done | stop
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        iqi = (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
        t = fa / (fb - fa) * fc / (fb - fc) + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        t = np.where(done, 0.5, np.clip(np.where(iqi, t, 0.5), tlim, 1.0 - tlim))
    raise NumericalFailure(f"find_root: no convergence in {FIND_ROOT_MAXITER} iterations")


def _carrier_parts(model, lam):
    """What delta_k reads that is independent of theta: the principal indices, read once."""
    w_s = omega_from_lambda(lam)
    w_p = 2 * w_s
    _, (no2_s, *_), (ne2_s, *_) = _principal_reads(model, lambda_from_omega(w_s))
    _, (no2_p, *_), (ne2_p, *_) = _principal_reads(model, lambda_from_omega(w_p))
    return w_s, no2_s, ne2_s, np.sqrt(no2_s) * w_s / C_UM_PS, w_p, no2_p, ne2_p


def _angle_mismatch(theta, w_s, no2_s, ne2_s, k_i, w_p, no2_p, ne2_p, slope=False):
    """delta_k at theta from _carrier_parts, the one formula of carrier_mismatch,
    phasematching_angle and continue_angle; with slope=True also its theta slope,
    through dn/d(s2) = -n^3 (1/n_e^2 - 1/n_o^2) / 2 and d(s2)/d(theta) = sin(2 theta)."""
    s2 = np.sin(theta) ** 2
    n_s, n_p = _mixed_index(no2_s, ne2_s, s2), _mixed_index(no2_p, ne2_p, s2)
    dk = -(n_s * w_s / C_UM_PS + k_i - n_p * w_p / C_UM_PS)
    if not slope:
        return dk
    dn_s = -0.5 * n_s**3 * (1.0 / ne2_s - 1.0 / no2_s)
    dn_p = -0.5 * n_p**3 * (1.0 / ne2_p - 1.0 / no2_p)
    return dk, (dn_p * w_p - dn_s * w_s) / C_UM_PS * np.sin(2.0 * theta)


def _check_residual(dk):
    if np.any(np.abs(dk) > 1e-10):
        raise NumericalFailure("phasematching residual above 1e-10 rad/um")


def phasematching_angle(model, lambda_pdc_um):
    """Collinear degenerate phasematching angle (rad), elementwise in lambda.

    A 61-point scan in theta brackets the first sign change of the carrier
    mismatch and find_root refines it from the scan's values at the bracket
    ends. The scan, the root iterations and the residual check at the root all
    take _angle_mismatch on one _carrier_parts read. An array of wavelengths
    gives NaN where no angle exists; a scalar wavelength raises NoPhasematch there.
    """
    lam = np.asarray(lambda_pdc_um, dtype=float)
    parts = _carrier_parts(model, lam)
    scan = np.linspace(np.radians(0.5), np.radians(89.99), 61)
    values = _angle_mismatch(scan.reshape((-1,) + (1,) * lam.ndim), *parts)
    sign = np.sign(values)
    change = sign[:-1] * sign[1:] < 0
    found, first = change.any(axis=0), change.argmax(axis=0)
    lanes = [p[found] for p in parts]
    lo = first[found]
    f_lo, f_hi = np.take_along_axis(values, np.stack((first, first + 1)), axis=0)[:, found]

    theta = np.full(lam.shape, np.nan)
    theta[found] = find_root(
        lambda t: _angle_mismatch(t, *lanes), scan[lo], scan[lo + 1], f_lo, f_hi
    )
    _check_residual(_angle_mismatch(theta[found], *lanes))
    if lam.ndim:
        return theta
    if not found:
        raise NoPhasematch(
            f"{model.material_id}: no collinear phasematching angle at {lambda_pdc_um} um"
        )
    return float(theta)


#: iteration cap of continue_angle; from a guess interpolated between two
#: scanned angles Newton reaches the rounding floor in 3-4 steps
CONTINUE_MAXITER = 12


@np.errstate(divide="ignore", invalid="ignore")
def continue_angle(model, lambda_pdc_um, theta_guess):
    """The phasematching angle (rad) continued by Newton steps in theta from a
    guess near it, such as an angle interpolated between two solved wavelengths.

    Takes the mismatch and its theta slope from the formula phasematching_angle
    iterates. A lane is frozen one step after its mismatch is within 16 ulp of
    k_p, its rounding floor. Raises NumericalFailure when a lane does not settle
    within CONTINUE_MAXITER steps, settles outside [0, pi/2] (on the mirror root
    pi - theta, say) or misses the 1e-10 rad/um residual, so an angle it returns
    is a zero of the carrier mismatch in [0, pi/2].
    """
    parts = _carrier_parts(model, np.asarray(lambda_pdc_um, dtype=float))
    theta = np.array(theta_guess, dtype=float)
    theta, *parts = np.broadcast_arrays(theta, *parts)
    floor = 32.0 * np.finfo(float).eps * parts[3]  # 16 ulp of k_p, about 2 k_i
    done = np.zeros(theta.shape, dtype=bool)
    for _ in range(CONTINUE_MAXITER):
        dk, slope = _angle_mismatch(theta, *parts, slope=True)
        theta = np.where(done, theta, theta - dk / slope)
        done = done | (np.abs(dk) <= floor)
        if done.all():
            break
    else:
        raise NumericalFailure(f"continue_angle: no convergence in {CONTINUE_MAXITER} steps")
    if not np.all((theta >= 0.0) & (theta <= np.pi / 2)):
        raise NumericalFailure("continue_angle: left [0, pi/2]")
    _check_residual(_angle_mismatch(theta, *parts))
    return theta


def qpm_grating(model, lambda_pdc_um):
    """First-order grating vector (rad/um) of a crystal cut at NONCRITICAL_THETA:
    2 pi / Lambda for the poling period Lambda = 2 pi / |delta_k|, signed like
    delta_k so that delta_k - grating closes the carrier mismatch."""
    dk = carrier_mismatch(model, NONCRITICAL_THETA, lambda_pdc_um)
    if abs(dk) < 1e-12:
        raise AlreadyMatched("carrier mismatch already below 1e-12 rad/um")
    # the vector of the period as a float, which can differ from dk by an ulp
    return 2.0 * np.pi / (2.0 * np.pi / dk)

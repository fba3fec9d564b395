"""Birefringent dispersion models and phasematching solvers.

Crystals are treated as uniaxial: ordinary rays see n_o, extraordinary rays
see the angle-tuned index 1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e^2.
Biaxial KTP is mapped onto this form for the usual collinear x-cut geometry
(n_e := n_y, n_o := n_z, theta = 90 deg); see the bundled database notes.

Every source here is collinear type II with one fixed geometry: an
extraordinary pump (PUMP_POL) gives an extraordinary signal (SIGNAL_POL) and an
ordinary idler (IDLER_POL). Poled crystals and spacers are cut at
NONCRITICAL_THETA = pi/2.

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

    def n_squared(self, lambda_um):
        L2 = np.asarray(lambda_um, dtype=float) ** 2
        acc = self.c0 + self.lambda_sq * L2
        for a, b, d in self.terms:
            acc = acc + (a + b * L2) / (L2 - d)
        return acc

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
        th = np.asarray(self.theta, dtype=float)
        if not np.all((th >= 0.0) & (th <= np.pi / 2 + 1e-12)):
            raise ConfigError(f"theta {self.theta} outside [0, pi/2]")


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


def refractive_index(model, ray, lambda_um):
    """Index seen by the ray at vacuum wavelength lambda_um (um)."""
    _check_range(model, lambda_um)
    no2 = model.sellmeier_o.n_squared(lambda_um)
    if ray.polarization is Pol.ORDINARY:
        return np.sqrt(no2)
    ne2 = model.sellmeier_e.n_squared(lambda_um)
    s2 = np.sin(ray.theta) ** 2
    return 1.0 / np.sqrt((1.0 - s2) / no2 + s2 / ne2)


def wavenumber(model, ray, omega):
    """k = n(omega) omega / c in rad/um; omega in rad/ps."""
    lam = lambda_from_omega(np.asarray(omega, dtype=float))
    return refractive_index(model, ray, lam) * np.asarray(omega, dtype=float) / C_UM_PS


def _k_derivatives(model, ray, omega):
    """(dk/domega, d2k/domega2) in closed form from the Sellmeier data.

    u = 1/n^2 = (1 - s2)/n_o^2 + s2/n_e^2, with s2 = sin^2(theta) for the
    extraordinary ray and 0 for the ordinary one, gives n_x and n_xx at
    x = lambda^2. With dx/domega = -2x/omega, k' = (n - 2x n_x)/c and
    k'' = 2x (n_x + 2x n_xx)/(c omega).
    """
    lam = lambda_from_omega(np.asarray(omega, dtype=float))
    _check_range(model, lam)
    x = lam**2
    s2 = 0.0 if ray.polarization is Pol.ORDINARY else np.sin(ray.theta) ** 2
    u = ux = uxx = 0.0
    for sellmeier, w in ((model.sellmeier_o, 1.0 - s2), (model.sellmeier_e, s2)):
        f, fx, fxx = sellmeier.x_derivatives(x)
        u, ux, uxx = u + w / f, ux - w * fx / f**2, uxx + w * (2.0 * fx**2 / f - fxx) / f**2
    n = u**-0.5
    nx, nxx = -0.5 * n**3 * ux, n**3 * (0.75 * n**2 * ux**2 - 0.5 * uxx)
    return (n - 2.0 * x * nx) / C_UM_PS, 2.0 * x * (nx + 2.0 * x * nxx) / (C_UM_PS * omega)


def inverse_group_velocity(model, ray, omega):
    """dk/domega (ps/um)."""
    return _k_derivatives(model, ray, omega)[0]


def gvd(model, ray, omega):
    """d2k/domega2 (ps^2/um)."""
    return _k_derivatives(model, ray, omega)[1]


def walkoff_angle(model, theta, lambda_um):
    """Poynting walkoff magnitude of the extraordinary ray, in degrees."""
    neff = refractive_index(model, RaySpec(Pol.EXTRAORDINARY, theta), lambda_um)
    no2 = model.sellmeier_o.n_squared(lambda_um)
    ne2 = model.sellmeier_e.n_squared(lambda_um)
    rho = np.arctan(0.5 * neff**2 * np.abs(1.0 / ne2 - 1.0 / no2) * np.abs(np.sin(2.0 * theta)))
    return np.degrees(rho)


def group_delays(model, theta, omega0, deriv=None):
    """(pump, signal, idler) values of deriv, by default k' (pass gvd for k'',
    _k_derivatives for both), with the pump at 2 omega0 and the pair at omega0."""
    deriv = deriv or inverse_group_velocity
    waves = ((PUMP_POL, 2 * omega0), (SIGNAL_POL, omega0), (IDLER_POL, omega0))
    return tuple(deriv(model, RaySpec(pol, theta), w) for pol, w in waves)


def forward_mismatch(material, theta, omega0, nu_s, nu_i, grating=0.0):
    """D = k_s + k_i - (k_p - grating) at arbitrary detunings."""
    vs = np.asarray(nu_s, dtype=float)
    vi = np.asarray(nu_i, dtype=float)
    ks = wavenumber(material, RaySpec(SIGNAL_POL, theta), omega0 + vs)
    ki = wavenumber(material, RaySpec(IDLER_POL, theta), omega0 + vi)
    kp = wavenumber(material, RaySpec(PUMP_POL, theta), 2 * omega0 + vs + vi)
    return ks + ki - (kp - grating)


def carrier_mismatch(model, theta, lambda_pdc_um):
    """delta_k = k_p - k_s - k_i at degeneracy, without any grating."""
    return -forward_mismatch(model, theta, omega_from_lambda(lambda_pdc_um), 0.0, 0.0)


#: iteration cap of find_root; bisection alone reaches one ulp in about 60
FIND_ROOT_MAXITER = 100


@np.errstate(divide="ignore", invalid="ignore")
def find_root(f, a, b):
    """Roots of an elementwise f, one per bracket [a_j, b_j] with f(a_j) f(b_j) <= 0.

    Chandrupatla's method (Adv. Eng. Softw. 28, 145 (1997)): inverse quadratic
    interpolation where the last three points allow it, bisection otherwise.
    A lane is frozen once f is exactly 0 or its bracket is a few ulp wide, in
    units of the root or, for a root at 0, of the starting bracket.
    """
    # a is the newest point, [a, b] brackets the root, c is the point a replaced
    b, a = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    fb, fa = f(b), f(a)
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


def phasematching_angle(model, lambda_pdc_um):
    """Collinear degenerate phasematching angle (rad), elementwise in lambda.

    A 61-point scan in theta brackets the first sign change of the carrier
    mismatch and find_root refines it. An array of wavelengths gives NaN where
    no angle exists; a scalar wavelength raises NoPhasematch there.
    """
    lam = np.asarray(lambda_pdc_um, dtype=float)
    scan = np.linspace(np.radians(0.5), np.radians(89.99), 61)
    sign = np.sign(carrier_mismatch(model, scan.reshape((-1,) + (1,) * lam.ndim), lam))
    change = sign[:-1] * sign[1:] < 0
    found, first = change.any(axis=0), change.argmax(axis=0)

    def f(theta):
        return carrier_mismatch(model, theta, lam[found])

    theta = np.full(lam.shape, np.nan)
    theta[found] = find_root(f, scan[first[found]], scan[first[found] + 1])
    if np.any(np.abs(f(theta[found])) > 1e-10):
        raise NumericalFailure("phasematching residual above 1e-10 rad/um")
    if lam.ndim:
        return theta
    if not found:
        raise NoPhasematch(
            f"{model.material_id}: no collinear phasematching angle at {lambda_pdc_um} um"
        )
    return float(theta)


def qpm_grating(model, lambda_pdc_um):
    """First-order grating vector (rad/um) of a crystal cut at NONCRITICAL_THETA:
    2 pi / Lambda for the poling period Lambda = 2 pi / |delta_k|, signed like
    delta_k so that delta_k - grating closes the carrier mismatch."""
    dk = carrier_mismatch(model, NONCRITICAL_THETA, lambda_pdc_um)
    if abs(dk) < 1e-12:
        raise AlreadyMatched("carrier mismatch already below 1e-12 rad/um")
    # the vector of the period as a float, which can differ from dk by an ulp
    return 2.0 * np.pi / (2.0 * np.pi / dk)


def qpm_period(model, lambda_pdc_um):
    """First-order poling period Lambda = 2 pi / |grating| (um) at NONCRITICAL_THETA."""
    return 2.0 * np.pi / abs(qpm_grating(model, lambda_pdc_um))

"""Reference physics for the benchmark's correctness checks.

Everything here is computed apart from the `biphoton` package: the Sellmeier
coefficients are read from its JSON database, but indices, group indices and
group-velocity dispersion come from analytic derivatives of the Sellmeier
form (the package differentiates numerically), phasematching angles come from
plain bisection (the package uses a scan plus Brent's method), and joint
amplitudes, Schmidt weights and Gaussian-model purities are formed directly
from their definitions. Units follow the package: um, ps, rad/ps, rad/um.

Scalar functions take plain floats so that the root checks stay cheap; the
arithmetic also broadcasts over numpy arrays where the grid code needs it.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

C_UM_PS = 299.792458
#: sinc(x) ~ exp(-GAMMA_SINC x^2): the Gaussian model's stand-in for the sinc
GAMMA_SINC = 0.193

# default collinear roles: pump e, signal e, idler o
PUMP, SIGNAL, IDLER = "e", "e", "o"


@dataclass(frozen=True)
class Sellmeier:
    """n^2 = c0 + sum (A + B L2) / (L2 - D) + E L2, L2 = lambda^2 (um^2)."""

    c0: float
    terms: tuple
    lambda_sq: float

    def derivs(self, lam):
        """(n^2, d n^2 / d lambda, d^2 n^2 / d lambda^2) at lam (um)."""
        L2 = lam * lam
        f = self.c0 + self.lambda_sq * L2
        g1 = self.lambda_sq
        g2 = 0.0
        for a, b, d in self.terms:
            q = L2 - d
            f = f + (a + b * L2) / q
            g1 = g1 - (a + b * d) / (q * q)
            g2 = g2 + 2.0 * (a + b * d) / (q * q * q)
        return f, 2.0 * lam * g1, 2.0 * g1 + 4.0 * L2 * g2


@dataclass(frozen=True)
class Material:
    name: str
    o: Sellmeier
    e: Sellmeier
    valid_range: tuple


def load_materials(path):
    raw = json.loads(Path(path).read_text(encoding="utf-8"))["materials"]

    def sm(node):
        return Sellmeier(
            float(node["c0"]),
            tuple(tuple(float(x) for x in t) for t in node["terms"]),
            float(node.get("lambda_sq", 0.0)),
        )

    return {
        name.upper(): Material(
            name.upper(),
            sm(node["sellmeier_o"]),
            sm(node["sellmeier_e"]),
            tuple(float(x) for x in node["valid_range"]),
        )
        for name, node in raw.items()
    }


def omega(lam):
    return 2.0 * math.pi * C_UM_PS / lam


def _inverse_square_index(mat, pol, theta, lam):
    """(u, du, d2u) with u = 1/n^2 and its lambda derivatives."""
    o, do, d2o = mat.o.derivs(lam)
    uo, duo, d2uo = 1.0 / o, -do / (o * o), 2.0 * do * do / o**3 - d2o / (o * o)
    if pol == "o":
        return uo, duo, d2uo
    e, de, d2e = mat.e.derivs(lam)
    ue, due, d2ue = 1.0 / e, -de / (e * e), 2.0 * de * de / e**3 - d2e / (e * e)
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    return c2 * uo + s2 * ue, c2 * duo + s2 * due, c2 * d2uo + s2 * d2ue


def index_derivs(mat, pol, theta, lam):
    """(n, dn/dlambda, d2n/dlambda2) of a ray at vacuum wavelength lam (um)."""
    u, du, d2u = _inverse_square_index(mat, pol, theta, lam)
    return (
        u**-0.5,
        -0.5 * u**-1.5 * du,
        0.75 * u**-2.5 * du * du - 0.5 * u**-1.5 * d2u,
    )


def index(mat, pol, theta, lam):
    return index_derivs(mat, pol, theta, lam)[0]


def wavenumber(mat, pol, theta, w):
    """k = n omega / c (rad/um) at angular frequency w (rad/ps)."""
    return index(mat, pol, theta, 2.0 * math.pi * C_UM_PS / w) * w / C_UM_PS


def k1(mat, pol, theta, lam):
    """Inverse group velocity dk/domega = (n - lambda n') / c (ps/um)."""
    n, dn, _ = index_derivs(mat, pol, theta, lam)
    return (n - lam * dn) / C_UM_PS


def k2(mat, pol, theta, lam):
    """Group-velocity dispersion d2k/domega2 = lambda^3 n'' / (2 pi c^2)."""
    d2n = index_derivs(mat, pol, theta, lam)[2]
    return lam**3 * d2n / (2.0 * math.pi * C_UM_PS**2)


def walkoff_deg(mat, theta, lam):
    no2 = mat.o.derivs(lam)[0]
    ne2 = mat.e.derivs(lam)[0]
    neff = index(mat, "e", theta, lam)
    rho = math.atan(
        0.5 * neff**2 * abs(1.0 / ne2 - 1.0 / no2) * abs(math.sin(2.0 * theta))
    )
    return math.degrees(rho)


def mismatch(mat, theta, lam):
    """Carrier mismatch k_p - k_s - k_i (rad/um) at degeneracy."""
    w0 = omega(lam)
    return (
        wavenumber(mat, PUMP, theta, 2.0 * w0)
        - wavenumber(mat, SIGNAL, theta, w0)
        - wavenumber(mat, IDLER, theta, w0)
    )


def bisect(f, a, b):
    """Root of f in [a, b] (f(a), f(b) of opposite sign) to the last ulp."""
    fa = f(a)
    while True:
        m = 0.5 * (a + b)
        if m in (a, b):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b = m


def phasematching_angle(mat, lam):
    """Collinear angle (rad) with k_p = k_s + k_i; None when there is none."""
    lo, hi = math.radians(0.5), math.radians(89.99)
    if (mismatch(mat, lo, lam) < 0.0) == (mismatch(mat, hi, lam) < 0.0):
        return None
    return bisect(lambda t: mismatch(mat, t, lam), lo, hi)


def gv_mismatches(mat, scheme, lam):
    """(k_s' - k_p', k_i' - k_p') (ps/um) at degenerate wavelength lam, or None."""
    theta = phasematching_angle(mat, lam) if scheme == "angle" else math.pi / 2
    if theta is None:
        return None
    kp = k1(mat, PUMP, theta, lam / 2.0)
    return k1(mat, SIGNAL, theta, lam) - kp, k1(mat, IDLER, theta, lam) - kp


def taylor(mat, theta, lam, length_um):
    """Second-order expansion coefficients of L (k_s + k_i - k_p)."""
    kp1, kp2 = k1(mat, PUMP, theta, lam / 2), k2(mat, PUMP, theta, lam / 2)
    ks1, ks2 = k1(mat, SIGNAL, theta, lam), k2(mat, SIGNAL, theta, lam)
    ki1, ki2 = k1(mat, IDLER, theta, lam), k2(mat, IDLER, theta, lam)
    L = length_um
    return {
        "tau_s": L * (ks1 - kp1),
        "tau_i": L * (ki1 - kp1),
        "beta_s": 0.5 * L * (ks2 - kp2),
        "beta_i": 0.5 * L * (ki2 - kp2),
        "beta_p": L * kp2,
    }


def sigma_from_fwhm_nm(fwhm_nm, lam):
    """Pump amplitude width (rad/ps) of an intensity FWHM in nm at lam (um)."""
    dw = 2.0 * math.pi * C_UM_PS / lam**2 * (fwhm_nm * 1e-3)
    return dw / math.sqrt(2.0 * math.log(2.0))


def full_sinc_jsa(mat, theta, lam, length_um, sigma, chirp, n, half_span, qpm_period=None):
    """Normalized full-dispersion joint amplitude and the grid step (rad/ps)."""
    w0 = omega(lam)
    dnu = 2.0 * half_span / n
    nu = (np.arange(n) - n // 2) * dnu
    vs, vi = nu[:, None], nu[None, :]
    grating = 0.0
    if qpm_period is not None:
        grating = math.copysign(2.0 * math.pi / qpm_period, mismatch(mat, theta, lam))
    d = (
        wavenumber(mat, SIGNAL, theta, w0 + vs)
        + wavenumber(mat, IDLER, theta, w0 + vi)
        - wavenumber(mat, PUMP, theta, 2.0 * w0 + vs + vi)
        + grating
    )
    x = 0.5 * length_um * d
    f = np.sinc(x / np.pi) * np.exp(1j * x)
    f = f * np.exp(-(((vs + vi) / sigma) ** 2) + 1j * chirp * (vs + vi) ** 2)
    return f / (np.sqrt(np.sum(np.abs(f) ** 2)) * dnu), dnu


def gaussian_jsa(taylor_coeffs, sigma, chirp, n, half_span):
    """Normalized Gaussian-model joint amplitude and the grid step (rad/ps)."""
    t = taylor_coeffs
    dnu = 2.0 * half_span / n
    nu = (np.arange(n) - n // 2) * dnu
    vs, vi = nu[:, None], nu[None, :]
    lin = t["tau_s"] * vs + t["tau_i"] * vi
    quad = t["beta_s"] * vs**2 + t["beta_i"] * vi**2 + t["beta_p"] * vs * vi
    f = np.exp(
        -(((vs + vi) / sigma) ** 2) - 0.25 * GAMMA_SINC * lin**2
        + 1j * (chirp * (vs + vi) ** 2 + 0.5 * (lin + quad))
    )
    return f / (np.sqrt(np.sum(np.abs(f) ** 2)) * dnu), dnu


def schmidt_weights_eig(f, dnu):
    """Schmidt weights from the eigenvalues of the reduced state A A^H."""
    a = f * dnu
    lam = np.clip(np.linalg.eigvalsh(a @ a.conj().T), 0.0, None)
    return lam / lam.sum()


def _gaussian_form(t, sigma, chirp):
    """(a, b, c) of the Gaussian-model exponent -(a x^2 + 2 b x y + c y^2),
    dropping the linear phase, which factors into signal and idler parts."""
    g = GAMMA_SINC
    s2 = 1.0 / sigma**2
    a = s2 + 0.25 * g * t["tau_s"] ** 2 - 1j * (chirp + 0.5 * t["beta_s"])
    c = s2 + 0.25 * g * t["tau_i"] ** 2 - 1j * (chirp + 0.5 * t["beta_i"])
    b = s2 + 0.25 * g * t["tau_s"] * t["tau_i"] - 1j * (chirp + 0.25 * t["beta_p"])
    return a, b, c


def gaussian_purity(taylor_coeffs, sigma, chirp):
    """Heralded purity of the Gaussian-model amplitude, in closed form.

    Tr(rho^2) is a 4-D Gaussian integral, pi^2 / sqrt(det Q), and the norm a
    2-D one, pi / sqrt(det N), so the purity is det N / sqrt(det Q).
    """
    a, b, c = _gaussian_form(taylor_coeffs, sigma, chirp)
    ra, rc, bc = 2.0 * a.real, 2.0 * c.real, b.conjugate()
    q = np.array(
        [[ra, 0.0, b, bc], [0.0, ra, bc, b], [b, bc, rc, 0.0], [bc, b, 0.0, rc]],
        dtype=complex,
    )
    det_n = ra * rc - (2.0 * b.real) ** 2
    return float(det_n / math.sqrt(abs(np.linalg.det(q))))


def gaussian_grid_resolves(taylor_coeffs, sigma, chirp, n, half_span):
    """Whether a square grid can integrate the Gaussian model accurately.

    |f|^2 = exp(-v^T N v). The grid must reach three amplitude widths of
    each true marginal, sample the narrowest principal width twice per step,
    and advance the quadratic phase by at most 0.5 rad per step out there.
    """
    a, b, c = _gaussian_form(taylor_coeffs, sigma, chirp)
    nmat = 2.0 * np.array([[a.real, b.real], [b.real, c.real]])
    reach = 3.0 * float(np.sqrt(2.0 * np.diag(np.linalg.inv(nmat))).max())
    narrow = math.sqrt(2.0 / float(np.linalg.eigvalsh(nmat).max()))
    step = 2.0 * half_span / n
    phase_step = 2.0 * (max(abs(a.imag), abs(c.imag)) + abs(b.imag)) * reach * step
    return half_span >= reach and step <= 0.5 * narrow and phase_step <= 0.5

"""Schmidt decomposition, entanglement measures, and heralded-state metrics.

The discrete amplitude is turned into a Hilbert-Schmidt kernel by the
trapezoid quadrature weight: A = f dnu, so the singular values squared are
the Schmidt weights lambda_n and sum lambda_n = 1 for a normalized amplitude.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure, ZeroHeraldRate

#: Schmidt weights below this fraction of the leading one are discarded
TRUNCATION = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt weights (descending) and mode matrices.

    Mode columns carry the sqrt(dnu) quadrature weight, i.e. they are
    orthonormal under the plain Euclidean inner product.
    """

    lambdas: np.ndarray
    signal_modes: np.ndarray
    idler_modes: np.ndarray


def schmidt_decompose(ja):
    """SVD of the quadrature-weighted amplitude."""
    A = ja.values * ja.grid.spacing
    try:
        u, s, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD failed: {exc}") from exc
    w = s**2
    total = w.sum()
    if total <= 0:
        raise NumericalFailure("amplitude has zero norm")
    # validate the factorization itself before discarding negligible weights
    err = np.linalg.norm((u * s) @ vh - A)
    if err > 1e-8:
        raise NumericalFailure(f"Schmidt reconstruction error {err:.3e}")
    lam = w / total
    keep = lam >= TRUNCATION * lam[0]
    return SchmidtSpectrum(
        lambdas=lam[keep], signal_modes=u[:, keep], idler_modes=vh[keep, :].T
    )


def cooperativity(spectrum):
    """Schmidt number K = 1 / sum lambda_n^2."""
    return float(1.0 / np.sum(spectrum.lambdas**2))


def entropy(spectrum):
    """Entanglement entropy in bits, with 0 log 0 = 0."""
    lam = spectrum.lambdas[spectrum.lambdas > 0]
    return float(-np.sum(lam * np.log2(lam)))


@dataclass(frozen=True)
class SpectralFilter:
    """Amplitude transmission on the idler arm.

    kind "unit": flat; "gaussian": intensity FWHM `width` around `center`;
    "tophat": unit inside a band of full width `width` around `center`.
    Frequencies are absolute (grid omega0 plus detuning).
    """

    kind: str = "unit"
    center: float = 0.0
    width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "gaussian", "tophat"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind != "unit" and not (0 < self.center < np.inf and 0 < self.width < np.inf):
            raise ConfigError("filter center and width must be positive and finite")

    @classmethod
    def unit(cls):
        return cls()

    @classmethod
    def gaussian(cls, center, fwhm):
        return cls("gaussian", center, fwhm)

    @classmethod
    def tophat(cls, center, width):
        return cls("tophat", center, width)

    def amplitude_transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        if self.kind == "unit":
            return np.ones_like(w)
        if self.kind == "gaussian":
            # intensity FWHM = width
            return np.exp(-2.0 * np.log(2.0) * ((w - self.center) / self.width) ** 2)
        return np.where(np.abs(w - self.center) <= 0.5 * self.width, 1.0, 0.0)


def heralded_state(ja, filt=None):
    """Signal density matrix after a filtered idler detection.

    Returns (rho, herald_rate): rho is Hermitian, PSD, unit trace in the
    discrete mode basis; herald_rate is the pre-normalization trace, the
    heralding probability relative to the unfiltered pair rate.
    """
    if filt is None:
        filt = SpectralFilter.unit()
    A = ja.values * ja.grid.spacing
    omega = ja.grid.omega0 + ja.grid.axis()
    weights = filt.amplitude_transmission(omega) ** 2
    rho_raw = (A * weights[None, :]) @ A.conj().T
    rate = float(np.trace(rho_raw).real)
    if not rate >= 1e-30:
        raise ZeroHeraldRate("filter passes no amplitude on this grid")
    rho = rho_raw / rate
    return 0.5 * (rho + rho.conj().T), rate


def purity(rho):
    """Tr(rho^2) for a Hermitian density matrix."""
    return float(np.sum(np.abs(rho) ** 2))


@dataclass(frozen=True)
class HeraldMetrics:
    """Heralding figures plus the Schmidt spectrum K and S were computed from."""

    purity: float
    cooperativity_K: float
    entropy_S: float
    herald_rate: float
    spectrum: SchmidtSpectrum


def herald_metrics(ja, filt=None):
    """Schmidt measures plus heralded purity and rate in one pass."""
    spectrum = schmidt_decompose(ja)
    rho, rate = heralded_state(ja, filt)
    return HeraldMetrics(
        purity=purity(rho),
        cooperativity_K=cooperativity(spectrum),
        entropy_S=entropy(spectrum),
        herald_rate=rate,
        spectrum=spectrum,
    )

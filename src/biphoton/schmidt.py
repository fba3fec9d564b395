"""Schmidt decomposition, entanglement measures, and heralded-state metrics.

A = f dnu (the trapezoid weight) is a Hilbert-Schmidt kernel; its normalized
squared singular values are the Schmidt weights, the one spectrum that K, S,
heralded purity and herald rate (relative to the pair rate) all come from.

`schmidt_decompose` divides A by its largest |entry|, so the weights do not
depend on the amplitude's overall scale. Joint amplitudes are nearly low rank,
so it first builds an orthonormal basis Q of A's range with the adaptive
randomized range finder of Halko, Martinsson & Tropp, SIAM Rev. 53, 217 (2011),
Alg. 4.2 and Sec. 4.3: Gaussian sketches from a fixed seed, one power
iteration per block and QR re-orthonormalization. Q grows a block at a time;
each new block's sketch first serves as a probe that estimates
||A - Q Q^H A||_F, and the loop stops once that estimate is below a tenth of
RESIDUAL * ||A||_F. The SVD of the small Q^H A then gives the spectrum, after
an exact check that ||A - Q Q^H A||_F <= RESIDUAL * ||A||_F. If the singular
values of the first sketch, continued at their own geometric decay, do not
fall to that level within n/4 columns (strongly chirped sources), or if
n < 128, the spectrum comes from the whole grid instead, so a high-rank grid
costs that plus the one sketch. With modes, that is one dense SVD, which must
reproduce A to RESIDUAL * ||A||_F. Without modes (`modes=False`, for requests
that read only the weights), it is the eigenvalues w of the Gram matrix
G = A^H A, which must satisfy sum w = tr G = ||A||_F^2 and
sum w^2 = ||G||_F^2 to INVARIANT relative: these two sums are what K and the
unfiltered purity are made of (purity = ||G||_F^2 / (tr G)^2). A failed check
raises NumericalFailure. The seed is fixed, so the same grid gives the same
spectrum bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure, ZeroHeraldRate

#: Schmidt weights below this fraction of the leading one are discarded
TRUNCATION = 1e-12
#: the factorization must reproduce A to this fraction of ||A||_F
RESIDUAL = 1e-8
#: Gram eigenvalues must give tr G and ||G||_F^2 to this relative error
INVARIANT = 1e-12
#: columns of the first range sketch and of each later block
FIRST_BLOCK, BLOCK = 32, 16
#: seed of the Gaussian range sketches
SKETCH_SEED = 2011


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt weights (descending) and mode matrices.

    Mode columns carry the sqrt(dnu) quadrature weight, i.e. they are
    orthonormal under the plain Euclidean inner product. Both mode matrices
    are None when the spectrum was taken without modes.
    """

    lambdas: np.ndarray
    signal_modes: np.ndarray | None
    idler_modes: np.ndarray | None


def schmidt_decompose(ja, modes=True):
    """Schmidt weights and phase-fixed modes of the quadrature-weighted amplitude.

    Low-rank range finder first, the whole grid for high-rank grids (see the
    module docstring). Each pair's phase is rotated so that the largest entry of
    the signal mode is real and positive (the first entry within 1e-6 of the
    largest magnitude, so mirror-image ties do not depend on rounding); the
    idler mode takes the opposite rotation, leaving u s v^H unchanged. With
    modes=False only the weights are returned, with the same count and the same
    values (bit for bit on the low-rank path).
    """
    scale = np.max(np.abs(ja.values))
    if scale == 0:
        raise NumericalFailure("amplitude has zero norm")
    if not scale < np.inf:
        raise NumericalFailure("amplitude is not finite")
    a = ja.values / scale
    norm = np.linalg.norm(a)
    try:
        found = _range_basis(a, norm)
        if found is not None:
            q, b, err = found
            u, s, vh = np.linalg.svd(b, full_matrices=False)
            w = s**2
        elif modes:
            u, s, vh = np.linalg.svd(a, full_matrices=False)
            w, err = s**2, np.linalg.norm((u * s) @ vh - a)
        else:  # no factorization to check: the Gram eigenvalues check themselves
            w, err = _gram_eigenvalues(a, norm), 0.0
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Schmidt decomposition failed: {exc}") from exc
    if err > RESIDUAL * norm:
        raise NumericalFailure(f"Schmidt reconstruction error {err / norm:.3e} of |A|_F")
    lam = w / w.sum()
    keep = lam >= TRUNCATION * lam[0]
    if not modes:
        return SchmidtSpectrum(lam[keep], None, None)
    u = u[:, keep] if found is None else q @ u[:, keep]
    mag = np.abs(u)
    peak = np.argmax(mag >= (1.0 - 1e-6) * mag.max(axis=0), axis=0)
    cols = np.arange(u.shape[1])
    phase = u[peak, cols] / mag[peak, cols]
    return SchmidtSpectrum(
        lambdas=lam[keep], signal_modes=u * phase.conj(), idler_modes=vh[keep, :].T * phase
    )


def _gram_eigenvalues(a, norm):
    """Eigenvalues of G = A^H A, descending, after checking sum w = tr G = ||A||_F^2
    and sum w^2 = ||G||_F^2 to INVARIANT relative (written so that NaN fails)."""
    g = a.conj().T @ a
    w = np.linalg.eigvalsh(g)[::-1]
    trace, frob_sq = norm**2, np.linalg.norm(g) ** 2
    dev = np.array([w.sum() / trace, np.sum(w**2) / frob_sq]) - 1.0
    if not np.all(np.abs(dev) <= INVARIANT):
        raise NumericalFailure(f"eigenvalues miss tr G, |G|_F^2 by {dev[0]:.2e}, {dev[1]:.2e}")
    return w


def _range_basis(a, norm):
    """(Q, Q^H A, ||A - Q Q^H A||_F) with that residual <= RESIDUAL * ||A||_F,
    or None when n < 4 FIRST_BLOCK or the spectrum will not settle within n/4
    columns."""
    import numpy.random  # here, so that `import biphoton` does not load it

    n = a.shape[1]
    cap = n // 4
    if FIRST_BLOCK > cap:
        return None
    target = RESIDUAL * norm
    sketch = numpy.random.default_rng(SKETCH_SEED).standard_normal
    y, r = np.linalg.qr(a @ sketch((n, FIRST_BLOCK)))
    # the sketch's singular values are about sqrt(FIRST_BLOCK) times A's
    if _columns_needed(np.linalg.svd(r, compute_uv=False), target * np.sqrt(FIRST_BLOCK)) > cap:
        return None
    q = np.empty((n, 0), dtype=a.dtype)
    while True:
        # one power iteration on the new block, then orthonormal to Q twice
        w = _project_out(q, a @ _orth((y.conj().T @ a).conj().T))
        q = np.hstack([q, _orth(_project_out(q, _orth(w)))])
        # the next block's sketch is also the probe: for Gaussian x,
        # E |(I - Q Q^H) A x|^2 = ||(I - Q Q^H) A||_F^2
        y = _project_out(q, a @ sketch((n, BLOCK)))
        if np.linalg.norm(y) <= 0.1 * target * np.sqrt(BLOCK):
            b = q.conj().T @ a
            err = np.linalg.norm(a - q @ b)
            if err <= target:
                return q, b, err
        if q.shape[1] + BLOCK > cap:
            return None
        y = _orth(y)


def _columns_needed(s, target):
    """Columns after which the descending values s, continued at the
    geometric rate of their second half, fall to `target`."""
    if s[-1] <= target:
        return s.size
    half = s.size // 2
    rate = (s[-1] / s[half]) ** (1.0 / (s.size - 1 - half))
    return s.size + np.log(target / s[-1]) / np.log(rate) if rate < 1.0 else np.inf


def _orth(x):
    return np.linalg.qr(x)[0]


def _project_out(q, x):
    return x - q @ (q.conj().T @ x)


def cooperativity(spectrum):
    """Schmidt number K = 1 / sum lambda_n^2."""
    return float(1.0 / np.sum(spectrum.lambdas**2))


def entropy(spectrum):
    """Entanglement entropy in bits, with 0 log 0 = 0."""
    lam = spectrum.lambdas[spectrum.lambdas > 0]
    return float(-np.sum(lam * np.log2(lam)))


@dataclass(frozen=True)
class SpectralFilter:
    """Amplitude transmission on the idler arm; no filter is None, not a kind.

    kind "gaussian": intensity FWHM `width` around `center`; "tophat": unit
    inside a band of full width `width` around `center`. Frequencies are
    absolute (grid omega0 plus detuning).
    """

    kind: str
    center: float
    width: float

    def __post_init__(self):
        if self.kind not in ("gaussian", "tophat"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if not (0 < self.center < np.inf and 0 < self.width < np.inf):
            raise ConfigError("filter center and width must be positive and finite")

    @classmethod
    def gaussian(cls, center, fwhm):
        return cls("gaussian", center, fwhm)

    @classmethod
    def tophat(cls, center, width):
        return cls("tophat", center, width)

    def amplitude_transmission(self, omega):
        w = np.asarray(omega, dtype=float)
        if self.kind == "gaussian":
            # intensity FWHM = width; far outside it the square is inf, unwarned: T = 0
            with np.errstate(over="ignore"):
                return np.exp(-2.0 * np.log(2.0) * ((w - self.center) / self.width) ** 2)
        return np.where(np.abs(w - self.center) <= 0.5 * self.width, 1.0, 0.0)


def heralded_state(spectrum, transmission):
    """Signal density matrix in the kept Schmidt basis behind an idler filter.

    With V the kept idler modes and `transmission` the filter's |T|^2 on the
    idler axis, M = sqrt(lambda) V^H diag(transmission) V sqrt(lambda) (r x r).
    Returns (M / tr M made Hermitian, herald_rate = tr M per unfiltered pair).
    """
    v, root = spectrum.idler_modes, np.sqrt(spectrum.lambdas)
    m = root[:, None] * ((v.T * transmission) @ v.conj()) * root[None, :]
    rate = float(np.trace(m).real)
    if not rate >= 1e-30:
        raise ZeroHeraldRate("filter passes no amplitude on this grid")
    rho = m / rate
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


def spectrum_metrics(spectrum, grid, filt=None):
    """HeraldMetrics of a Schmidt spectrum taken on `grid`, behind an optional idler filter.

    With no filter the heralded state is diag(lambda) / sum lambda over the kept
    weights, read from the weights alone, modes or not; a filter reads the idler
    modes through heralded_state.
    """
    if filt is None:
        rate = float(np.sum(spectrum.lambdas))
        pure = float(np.sum((spectrum.lambdas / rate) ** 2))
    else:
        omega = grid.omega0 + grid.axis()
        rho, rate = heralded_state(spectrum, filt.amplitude_transmission(omega) ** 2)
        pure = purity(rho)
    return HeraldMetrics(
        purity=pure,
        cooperativity_K=cooperativity(spectrum),
        entropy_S=entropy(spectrum),
        herald_rate=rate,
        spectrum=spectrum,
    )


def herald_metrics(ja, filt=None):
    """spectrum_metrics of one decomposition of ja, of its weights alone with no filter."""
    return spectrum_metrics(schmidt_decompose(ja, modes=filt is not None), ja.grid, filt)

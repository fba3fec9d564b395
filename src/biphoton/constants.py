"""Shared physical constants and unit conversions.

Internal unit system: length in um, time in ps, angular frequency in rad/ps,
wavenumber in rad/um. Wavelengths at API boundaries are vacuum wavelengths.
"""

import numpy as np

from .errors import ConfigError

#: speed of light in um/ps
C_UM_PS = 299.792458

#: Gaussian approximation exponent for sinc(x) ~ exp(-GAMMA_SINC x^2)
GAMMA_SINC = 0.193

#: half width at half maximum of sinc^2, i.e. sinc^2(GAMMA_SINC2) = 1/2
GAMMA_SINC2 = 1.39156


def omega_from_lambda(lambda_um):
    """Angular frequency (rad/ps) of vacuum wavelength (um)."""
    return 2.0 * np.pi * C_UM_PS / lambda_um


def lambda_from_omega(omega):
    """Vacuum wavelength (um) of angular frequency (rad/ps)."""
    return 2.0 * np.pi * C_UM_PS / omega


def domega_from_dlambda(dlambda_um, lambda_um):
    """Width in rad/ps of a small width in um: |d omega / d lambda| = 2 pi c / lambda^2."""
    return 2.0 * np.pi * C_UM_PS / lambda_um**2 * dlambda_um


def sigma_from_fwhm_nm(fwhm_nm, lambda_um):
    """Pump amplitude width sigma (rad/ps) from an intensity FWHM in nm.

    The envelope is exp(-(nu/sigma)^2) in amplitude, so the intensity FWHM in
    angular frequency is sqrt(2 ln 2) sigma. A FWHM of lambda_um or more, a
    pump at least as wide in frequency as its own carrier, is a ConfigError.
    """
    if np.any(fwhm_nm * 1e-3 >= lambda_um):
        pump_nm = np.round(lambda_um * 1e3, 6)
        raise ConfigError(f"pump FWHM {fwhm_nm} nm is not below the pump wavelength {pump_nm} nm")
    return domega_from_dlambda(fwhm_nm * 1e-3, lambda_um) / np.sqrt(2.0 * np.log(2.0))


def fwhm_nm_from_sigma(sigma, lambda_um):
    """Inverse of sigma_from_fwhm_nm."""
    dw = sigma * np.sqrt(2.0 * np.log(2.0))
    return dw * lambda_um**2 / (2.0 * np.pi * C_UM_PS) * 1e3

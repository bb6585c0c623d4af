"""Equalization, demapping, and MSE/BER/SNR metric helpers."""

import numpy as np

from .errors import COND_LIMIT, InvalidArgumentError, NumericalFailureError
from .signal_model import Constellation


def snr_to_noise_var(snr_db: float, c: Constellation, n_tx: int) -> float:
    """sigma^2 from per-receive-antenna signal power over noise power.

    Under a unit-power channel the average receive signal power is
    n_tx * avg symbol energy, so sigma^2 = n_tx * E_s / 10^(snr/10).
    An SNR of +inf is the noiseless case; -inf (no signal) is rejected.
    """
    if not snr_db > -np.inf:
        raise InvalidArgumentError(f"snr_db must be above -inf, got {snr_db}")
    return n_tx * c.avg_energy / (10.0 ** (snr_db / 10.0))


def equalize_lmmse(y: np.ndarray, h_hat: np.ndarray, sigma2: float,
                   sym_energy: float) -> np.ndarray:
    """X_hat = (H*H + sigma^2/E_s I)^-1 H* Y.

    Accepts a single subcarrier ([N_r x N_s], [N_r x N_t]) or stacked
    subcarriers with a leading axis.  The regularizer is scaled by the
    symbol energy so the filter stays MMSE-consistent with the
    unnormalized constellation.
    """
    y = np.asarray(y, dtype=complex)
    h_hat = np.asarray(h_hat, dtype=complex)
    if sym_energy <= 0:
        raise InvalidArgumentError("symbol energy must be > 0")
    hh = np.conj(np.swapaxes(h_hat, -1, -2))
    gram = hh @ h_hat
    n_tx = gram.shape[-1]
    a = gram + (sigma2 / sym_energy) * np.eye(n_tx)
    cond = np.linalg.cond(a)
    if not np.all(np.isfinite(cond)) or np.max(cond) > COND_LIMIT:
        raise NumericalFailureError("equalizer system singular or ill-conditioned")
    return np.linalg.solve(a, hh @ y)


def compute_mse(h_true: np.ndarray, h_est: np.ndarray) -> float:
    """Frobenius error summed over subcarriers, divided by N_t * N_r * N_c."""
    h_true = np.asarray(h_true, dtype=complex)
    h_est = np.asarray(h_est, dtype=complex)
    if h_true.shape != h_est.shape:
        raise InvalidArgumentError(
            f"shape mismatch {h_true.shape} vs {h_est.shape}"
        )
    return float(np.sum(np.abs(h_true - h_est) ** 2) / h_true.size)


def compute_ber(bits_true, bits_est):
    """(bit_errors, bits_total, ber) for two aligned bit sequences."""
    bits_true = np.asarray(bits_true, dtype=int).ravel()
    bits_est = np.asarray(bits_est, dtype=int).ravel()
    if bits_true.size != bits_est.size:
        raise InvalidArgumentError("bit sequences differ in length")
    errors = int(np.count_nonzero(bits_true != bits_est))
    return errors, bits_true.size, errors / bits_true.size

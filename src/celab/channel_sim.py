"""Seeded frequency-selective MIMO block-fading channel simulator.

An L-tap integer-delay Rayleigh model with an exponential power delay
profile stands in for a measured macrocell channel: it keeps the frequency
selectivity that correlation-based estimators exploit while staying
dependency-free, and its frequency correlation has an exact closed form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .signal_model import SubframeSpec, TransmitGrid


@dataclass(frozen=True)
class PowerDelayProfile:
    delays: np.ndarray  # integer sample delays, strictly increasing
    powers: np.ndarray  # strictly positive, sums to 1

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=int)
        powers = np.asarray(self.powers, dtype=float)
        if delays.ndim != 1 or powers.shape != delays.shape or delays.size == 0:
            raise InvalidArgumentError("delays and powers must be 1-D and equal length")
        if np.any(np.diff(delays) <= 0):
            raise InvalidArgumentError("delays must be strictly increasing")
        if np.any(powers <= 0):
            raise InvalidArgumentError("powers must be strictly positive")
        if abs(powers.sum() - 1.0) > 1e-9:
            raise InvalidArgumentError("powers must sum to 1")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "powers", powers)


@dataclass(frozen=True)
class ChannelRealization:
    """One subframe's channel: taps [N_r x N_t x L] and H(c) for every c."""

    taps: np.ndarray
    freq_response: np.ndarray  # [n_sc x N_r x N_t]


@dataclass(frozen=True)
class NoiseSpec:
    variance: float  # sigma^2 per complex receive sample

    def __post_init__(self):
        if self.variance < 0:
            raise InvalidArgumentError("noise variance must be >= 0")


def exponential_pdp(num_taps: int, decay: float) -> PowerDelayProfile:
    """PDP with delays 0..num_taps-1 and powers proportional to exp(-p/decay),
    floored at the smallest normal float so that no tap underflows to 0."""
    if num_taps < 1:
        raise InvalidArgumentError("num_taps must be >= 1")
    if decay <= 0:
        raise InvalidArgumentError("decay must be > 0")
    with np.errstate(over="ignore"):  # p/decay is inf for a near-zero decay
        powers = np.maximum(np.exp(-np.arange(num_taps) / decay), np.finfo(float).tiny)
    return PowerDelayProfile(delays=np.arange(num_taps), powers=powers / powers.sum())


def dft_vectors(pdp: PowerDelayProfile, n_sc: int) -> np.ndarray:
    """U[c, p] = exp(-j 2 pi delay_p c / n_sc), so that the analytic frequency
    correlation is U diag(powers) U^H."""
    c = np.arange(n_sc)
    return np.exp(-2j * np.pi * np.outer(c, pdp.delays) / n_sc)  # [n_sc x L]


def taps_to_freq_response(taps: np.ndarray, pdp: PowerDelayProfile, n_sc: int) -> np.ndarray:
    """H(c) = sum_p taps[..., p] * exp(-j 2 pi delay_p c / n_sc)."""
    return np.einsum("cl,rtl->crt", dft_vectors(pdp, n_sc), taps)


def sample_channel(pdp: PowerDelayProfile, spec: SubframeSpec, seed) -> ChannelRealization:
    """Draw i.i.d. circularly-symmetric complex Gaussian taps, variance powers[p]."""
    if pdp.delays[-1] >= spec.n_sc:
        raise InvalidArgumentError("max delay must be < n_sc")
    rng = np.random.default_rng(seed)
    shape = (spec.n_rx, spec.n_tx, pdp.delays.size)
    scale = np.sqrt(pdp.powers / 2.0)
    taps = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelRealization(taps=taps, freq_response=taps_to_freq_response(taps, pdp, spec.n_sc))


def analytic_freq_correlation(pdp: PowerDelayProfile, n_sc: int) -> np.ndarray:
    """R[k, l] = sum_p powers[p] * exp(-j 2 pi delay_p (k - l) / n_sc), built
    as U diag(powers) U^H from `dft_vectors`: the U the simulator draws H with
    and GenieLMMSE filters with."""
    u = dft_vectors(pdp, n_sc)
    return (u * pdp.powers) @ u.conj().T


def apply_channel(x: TransmitGrid, h: ChannelRealization, noise: NoiseSpec, seed) -> np.ndarray:
    """Per-subcarrier Y(c) = H(c) X(c) + N(c); returns [n_sc x N_r x N_s].
    The noise is `add_noise`'s, so one product H X taken with NoiseSpec(0.0)
    gives every noise level's Y, byte for byte, through `add_noise`."""
    full = x.full
    n_sc, n_rx, n_tx = h.freq_response.shape
    if full.shape[0] != n_sc or full.shape[1] != n_tx:
        raise InvalidArgumentError(
            f"grid shape {full.shape} incompatible with channel {h.freq_response.shape}"
        )
    return add_noise(np.einsum("crt,cts->crs", h.freq_response, full), noise, seed)


def add_noise(y: np.ndarray, noise: NoiseSpec, seed) -> np.ndarray:
    """y + N, with N circularly-symmetric complex Gaussian of variance
    noise.variance drawn from `seed`; y itself when the variance is 0."""
    if noise.variance > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise.variance / 2.0)
        y = y + scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return y

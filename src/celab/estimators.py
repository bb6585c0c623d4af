"""Conventional baselines: LS, genie LMMSE, and empirical LMMSE.

The LMMSE filter uses the per-coefficient LS error variance
sigma_eff^2 = sigma^2 / E_p as its regularizer, which generalizes the
unit-energy-pilot form to the unnormalized QAM constellation.

Correlations are held factored, C = a*I + U W U^H with U of n x k and W of
k x k.  The filter C (C + s I)^-1 then has the same form,

    a/b * I + U [s/b * W (b I_k + U^H U W)^-1] U^H,   b = a + s,

(the push-through identity), so building it costs one k x k solve plus
O(n k^2) for U^H U, and applying it costs O(n k) per vector.  GenieLMMSE's
analytic correlation has k = L, the number of PDP taps (U the DFT columns at
the tap delays, W = diag(powers)).  EmLMMSE's running correlation keeps the
weighted history of the LS vectors it has seen: k grows by one per update
until it reaches n, when the state folds into U = I, W = the dense n x n
correlation.  A dense correlation is the folded form too, so every filter is
built by the one formula above.

LS and the equalizer check their systems with `checked_inverse`: Gauss-Jordan
elimination without pivoting over the whole stack, stable on positive-definite
matrices (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
Positive pivots prove a matrix positive definite, and then cond2(a) <=
tr(a) tr(a^-1); a bound of at most COND_LIMIT / 2 (a margin for its rounding)
certifies it.  The bound can exceed cond n^2-fold, so np.linalg.cond runs on
every uncertified matrix and alone decides, with its message, whether to raise;
where its SVD fails, as on a NaN entry, the check raises with cond = inf.
LS, 2 x 2 at 64 / 1024 subcarriers on a 2-core KVM guest: 247 us / 2.3 ms per
call (median), where cond on every matrix made it 361 us / 4.5 ms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import COND_LIMIT, InvalidArgumentError, NumericalFailureError


def checked_inverse(a: np.ndarray, message: str) -> np.ndarray:
    """The inverse of a Hermitian positive semi-definite stack [... x n x n];
    raises NumericalFailureError(message.format(cond=max cond)) where
    np.linalg.cond would find a condition number non-finite or above COND_LIMIT,
    or would fail, as its SVD does on a NaN entry (cond=inf)."""
    n = a.shape[-1]
    m = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], axis=-1)
    low = np.inf
    with np.errstate(all="ignore"):  # a singular or NaN input goes to the exact check
        for k in range(n):
            pivot = m[..., k, k]
            low = np.minimum(low, pivot.real)
            row = m[..., k, :] / pivot[..., None]
            m -= m[..., :, k, None] * row[..., None, :]
            m[..., k, :] = row
        inv = m[..., n:]
        bound = np.trace(a, axis1=-2, axis2=-1).real * np.trace(inv, axis1=-2, axis2=-1).real
    unsure = ~((low > 0) & (bound <= COND_LIMIT / 2))
    if np.any(unsure):
        try:
            cond = np.linalg.cond(a[unsure])
        except np.linalg.LinAlgError:  # the SVD fails on a NaN entry
            cond = np.inf
        if not np.all(np.isfinite(cond)) or np.max(cond) > COND_LIMIT:
            raise NumericalFailureError(message.format(cond=np.max(cond)))
    return inv


def estimate_ls(y_p: np.ndarray, x_p: np.ndarray) -> np.ndarray:
    """LS channel estimate Y_p X_p* (X_p X_p*)^-1 for one subcarrier.

    Also accepts stacked inputs [n_sc x N_r x N_p] / [n_sc x N_t x N_p].
    The Gram matrix passes `checked_inverse`; LAPACK solves for the estimate.
    """
    y_p = np.asarray(y_p, dtype=complex)
    x_p = np.asarray(x_p, dtype=complex)
    with np.errstate(all="ignore"):  # non-finite pilots raise in the check
        gram = x_p @ np.conj(np.swapaxes(x_p, -1, -2))
    checked_inverse(gram, "pilot Gram matrix ill-conditioned (cond={cond:.3e})")
    cross = y_p @ np.conj(np.swapaxes(x_p, -1, -2))
    # A G^-1 via a Hermitian solve: (G^-1 A^H)^H.
    return np.conj(np.swapaxes(np.linalg.solve(gram, np.conj(np.swapaxes(cross, -1, -2))), -1, -2))


@dataclass(frozen=True)
class FactoredCorr:
    """The n x n matrix a*I + U W U^H; `x @` applies it in O(n k)."""

    a: float
    u: np.ndarray  # (n, k)
    w: np.ndarray  # (k, k)

    @classmethod
    def from_dense(cls, r_hh) -> "FactoredCorr":
        """A dense Hermitian correlation as 0*I + I R I^H."""
        r_hh = np.asarray(r_hh, dtype=complex)
        if r_hh.ndim != 2 or r_hh.shape[0] != r_hh.shape[1]:
            raise InvalidArgumentError("correlation matrix must be square")
        if not np.allclose(r_hh, r_hh.conj().T, atol=1e-8):
            raise InvalidArgumentError("correlation matrix must be Hermitian")
        return cls(0.0, np.eye(r_hh.shape[0], dtype=complex), r_hh)

    @property
    def shape(self) -> tuple:
        """(n, n), the shape of the matrix it stands for."""
        n = self.u.shape[0]
        return (n, n)

    def dense(self) -> np.ndarray:
        return self.a * np.eye(self.u.shape[0]) + self.u @ self.w @ self.u.conj().T

    def __matmul__(self, x):
        return self.a * x + self.u @ (self.w @ (self.u.conj().T @ x))


def lmmse_filter(r_hh, sigma_eff2: float):
    """R (R + sigma_eff^2 I)^-1, reusable across estimates at the same noise level.

    R is a FactoredCorr, and the filter is returned as one; a dense R gives
    a dense filter.  sigma_eff^2 = 0 gives the identity.
    """
    factored = r_hh if isinstance(r_hh, FactoredCorr) else FactoredCorr.from_dense(r_hh)
    if sigma_eff2 < 0:
        raise InvalidArgumentError("noise variance must be >= 0")
    n, k = factored.u.shape
    if sigma_eff2 == 0:
        filt = FactoredCorr(1.0, np.zeros((n, 0), dtype=complex), np.zeros((0, 0), dtype=complex))
    else:
        b = factored.a + sigma_eff2
        m = b * np.eye(k) + (factored.u.conj().T @ factored.u) @ factored.w
        # W M^-1 as (M^-H W^H)^H.
        w_m = np.linalg.solve(m.conj().T, factored.w.conj().T).conj().T
        filt = FactoredCorr(factored.a / b, factored.u, (sigma_eff2 / b) * w_m)
    return filt if isinstance(r_hh, FactoredCorr) else filt.dense()


class EmLmmseState:
    """Running channel-correlation estimate for one (r, t) antenna pair.

    The correlation is held as `factored`: the identity prior of `initial`
    is a = 1 with no columns; after updates it is the weighted history of
    LS vectors, or the dense n x n matrix once the history would reach n
    columns.  `corr` builds the n x n matrix on demand.
    """

    def __init__(self, factored: FactoredCorr, subframes_seen: int = 0, window: int = 100):
        if window < 1:
            raise InvalidArgumentError(f"window must be >= 1, got {window}")
        self.factored = factored
        self.subframes_seen = subframes_seen
        self.window = window

    @classmethod
    def initial(cls, n_sc: int, window: int = 100) -> "EmLmmseState":
        empty = FactoredCorr(1.0, np.zeros((n_sc, 0), dtype=complex),
                             np.zeros((0, 0), dtype=complex))
        return cls(factored=empty, subframes_seen=0, window=window)

    @property
    def corr(self) -> np.ndarray:
        return self.factored.dense()


def update_empirical_correlation(state: EmLmmseState, h_hat) -> EmLmmseState:
    """Capped-window moving average of h h* outer products:
    C <- (1 - 1/w) C + (1/w) h h*, w = min(updates so far + 1, window)."""
    h_hat = np.asarray(h_hat, dtype=complex)
    w = min(state.subframes_seen + 1, state.window)
    keep = 1.0 - 1.0 / w
    old = state.factored
    n, k = old.u.shape
    if k == n:  # folded: U = I
        u = old.u
        weights = keep * old.w + (1.0 / w) * np.outer(h_hat, h_hat.conj())
    else:
        u = np.concatenate([old.u, h_hat[:, None]], axis=1)
        weights = np.zeros((k + 1, k + 1), dtype=complex)
        weights[:k, :k] = keep * old.w
        weights[k, k] = 1.0 / w
        if k + 1 == n:
            u, weights = np.eye(n, dtype=complex), u @ weights @ u.conj().T
    return EmLmmseState(factored=FactoredCorr(keep * old.a, u, weights),
                        subframes_seen=state.subframes_seen + 1, window=state.window)


def estimate_em_lmmse(state: EmLmmseState, h_ls, sigma2: float, pilot_energy: float) -> np.ndarray:
    """LMMSE filtering of one (r, t) LS channel vector, with the empirical
    correlation in place of the true one."""
    if pilot_energy <= 0:
        raise InvalidArgumentError("pilot energy must be > 0")
    return lmmse_filter(state.factored, sigma2 / pilot_energy) @ np.asarray(h_ls, dtype=complex)

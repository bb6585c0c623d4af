"""Online channel learner: channel layer, interference-invariant layers,
binary-classifier MLP with hand-written gradients, and the per-subframe
training loop that reads the channel estimate back out of the weights.

Each realized stream (one PAM axis of one transmit antenna) gets its own
model per subcarrier.  Training alternates between a classifier step and a
channel-weight step on full-batch gradients of the binary cross-entropy.
The classifier step changes only the MLP weights, so both steps of an epoch
share one channel-layer and IIL forward.
`estimate_channel_structnet` trains every (subcarrier, stream) model at once
through the batched trainer, `_BatchTrainer`.  The batched code is the only
implementation: one initializer (`_init_stream`, `_init_mlp`), one forward
(`_modulo`, `_grid_tanh_sum`, `_mlp`) and one pilot-sample rule
(`_binary_samples`).  `model_forward` runs one `StructNetModel` through it
as a batch of one.

Precision.  `estimate_channel_structnet` trains in float32 around a float64
anchor, the LS estimate: the channel layer's input at the anchor,
y + lambda * h_LS, is formed in float64, the trainer's desired weights hold
only the change from h_LS (starting at 0), and the estimate h_LS + change is
summed in float64, so zero epochs return LS exactly.  The trainer's default
stays float64, as does `model_forward`: their gradients and outputs are
checked against finite differences and to 1e-9, which float32 would swamp.

No structure across subcarriers enters the learner: batching shares no
weight, gradient or sample between subcarriers, so each model sees only its
own subcarrier's pilots.  With as many pilot symbols as transmit antennas
those pilots are fitted exactly by the LS estimate the learner starts from,
so every training sample is a noise-free function of that estimate.

Parallel parts.  Since no model shares anything with another, the batch
trains as contiguous parts along the model axis, one per core
(`_train_in_parts`): the first in the caller's thread, the others on a
`concurrent.futures.ThreadPoolExecutor` that lives for the call.  Each part
is a view of the one `_BatchTrainer` built for the whole batch
(`_BatchTrainer.part`), whose updates write through to its arrays, and numpy
releases the GIL inside its loops.  The numbers are bit for bit those of the
whole batch in one thread.  A batch splits only when each part keeps at
least one model and `_PART_WORK` (model, sample, shift-grid point) triples
(`_n_parts`).  The threshold was measured on the modulo layer, where below
it thread hand-offs cost more than the second core gives.  `harness.bench_iil`
trains in one thread.

BLAS calls.  A part makes only per-model BLAS calls: every matmul of an
epoch and of `loss` is a stack of one small product per model.  The
largest are the shifting layer's (D, K) @ (K, G) shifts and its backward's
(D, G) @ (G, K), D*K*G multiply-adds each: 4116 at 2x2, 5.0e5 at 3x3.
OpenBLAS spreads a product over n threads only from about n * 2.6e5
multiply-adds, so up to 3x3 no part starts BLAS threads of its own and the
busy threads are the parts.  One flat (B*D, K) @ (K, G) product for a
part's shifts crosses that line at 128 models (5.3e5): with BLAS allowed
both cores of a 2-core machine, two parts then kept four threads busy, and
the 64-subcarrier 2x2 shifting sweep trained 13.2 cells/s in two parts
against 14.0 in one.  With per-model products it trains ~23 cells/s in two
parts against ~15 in one, with one BLAS thread or two (numpy 2.4, OpenBLAS
0.3.31).
"""

import copy
import enum
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatioError,
    InvalidArgumentError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from .signal_model import child_seeds, complexify_channel, realify_channel_column, realify_signal
from .estimators import estimate_ls

# Bytes the shifting IIL's backward cache (G*B*S*D values) may take.  The
# largest cache built by the tests, c11's 8x8 toy, is 105 MB in float32.  It
# also bounds the int64 (G, K) shift grid, built after the check: in the
# learner (K = 2*N_t - 1 < B models, S, D >= 2) that is under half the cache.
CACHE_BYTE_CAP = 1 << 29


class IilKind(enum.Enum):
    SHIFTING = "shifting"
    MODULO = "modulo"


class IilOrder(enum.Enum):
    DESCENDING_STRENGTH = "descending"
    GIVEN_ORDER = "given"


@dataclass
class TrainConfig:
    epochs: int = 200
    lr_classifier: float = 0.01
    lr_channel: float = 0.001
    iil_kind: IilKind = IilKind.MODULO
    iil_window: int = 3  # m in [-window, window] for the shifting layer
    iil_order: IilOrder = IilOrder.DESCENDING_STRENGTH
    update_interference: bool = True
    eps_mod: float = 1e-6
    n_h1: int = 16
    n_h2: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgumentError("epochs must be >= 0")
        if self.lr_classifier < 0 or self.lr_channel < 0:
            raise InvalidArgumentError("learning rates must be >= 0")
        if self.iil_window < 1:
            raise InvalidArgumentError("iil_window must be >= 1")
        if self.n_h1 < 1 or self.n_h2 < 1:
            raise InvalidArgumentError("n_h1 and n_h2 must be >= 1")


# Work, in (model, sample, shift-grid point) triples, each parallel part must
# keep.  Two parts against one, modulo, 200 epochs, on a 2-core Xeon (KVM)
# with numpy 2.4: 0.93x at 1024 triples (64 subcarriers x 4 streams x 4
# samples), 1.09x at 1536, 1.33x at 2048 and 1.51x at 4096.
_PART_WORK = 1024

# Weight names of a model, in StructNetModel and _BatchTrainer alike.
_WEIGHTS = ("desired", "interference", "w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class StructNetModel:
    """Per-(subcarrier, stream) learner state."""

    desired: np.ndarray        # (2*N_r,)
    interference: np.ndarray   # (K, 2*N_r), K = 2*N_t - 1
    w1: np.ndarray             # (n_h1, 2*N_r)
    b1: np.ndarray
    w2: np.ndarray             # (n_h2, n_h1)
    b2: np.ndarray
    w3: np.ndarray             # (2, n_h2)
    b3: np.ndarray
    iil_kind: IilKind = IilKind.MODULO
    iil_window: int = 3
    eps_mod: float = 1e-6


def _init_mlp(rng, n_models: int, dim: int, cfg: TrainConfig) -> tuple:
    """MLP weights (w1, b1, w2, b2, w3, b3) of n_models classifiers:
    weights N(0, 0.1), drawn in the order w1, w2, w3; biases 0."""
    mlp = ()
    for shape in ((cfg.n_h1, dim), (cfg.n_h2, cfg.n_h1), (2, cfg.n_h2)):
        mlp += (rng.normal(0.0, 0.1, (n_models,) + shape), np.zeros((n_models, shape[0])))
    return mlp


def _init_stream(h_ls, stream: int, cfg: TrainConfig, rng):
    """Initial weights of one realized stream's models, one per subcarrier.

    h_ls is (n_sc, N_r, N_t).  Returns (desired (n_sc, D), interference
    (n_sc, K, D), MLP weights), D = 2*N_r, K = 2*N_t - 1.  The desired weights
    are the stream's realified channel column; the interference weights are
    the other realized streams' columns, ordered per cfg.iil_order on each
    subcarrier separately.
    """
    n_sc, n_rx, n_tx = h_ls.shape
    desired = realify_channel_column(h_ls[:, :, stream % n_tx], stream, n_tx)
    interference = np.stack([realify_channel_column(h_ls[:, :, j % n_tx], j, n_tx)
                             for j in range(2 * n_tx) if j != stream], axis=1)
    if cfg.iil_order is IilOrder.DESCENDING_STRENGTH:
        order = np.argsort(-np.sum(interference**2, axis=2), axis=1, kind="stable")
        interference = np.take_along_axis(interference, order[:, :, None], axis=1)
    return desired, interference, _init_mlp(rng, n_sc, 2 * n_rx, cfg)


def _channel_layer(y, lam, h):
    """The channel layer on a batch, y + lam * h: each model's samples y
    (B, S, D) shifted by lam (B, S) along its desired channel h (B, D)."""
    return y + lam[:, :, None] * h[:, None, :]


def channel_layer_forward(model: StructNetModel, y_raw, shift: float) -> np.ndarray:
    """Shift the received vector along the desired channel: y + shift * h."""
    y = np.asarray(y_raw, dtype=float)
    d = y.shape[-1]
    lam = np.full((1, y.size // d), float(shift))
    return _channel_layer(y.reshape(1, -1, d), lam, model.desired[None]).reshape(y.shape)


def shift_grid(n_vectors: int, m_window: int) -> np.ndarray:
    """All integer shift tuples (m_1..m_K) in [-M, M]^K, shape (G, K)."""
    size = (2 * m_window + 1) ** n_vectors
    if n_vectors == 0:
        return np.zeros((1, 0), dtype=int)
    axes = np.meshgrid(*([np.arange(-m_window, m_window + 1)] * n_vectors), indexing="ij")
    return np.stack(axes, axis=-1).reshape(size, n_vectors)


# -- the forward, on batches: s and z are (B, S, D), interference (B, K, D) --
def _modulo(s, interference, eps: float):
    """Sequential elementwise modulo by 2*h_k; returns (output, per-vector
    quotients).  Entries of h_k with magnitude below eps are skipped
    (quotient 0)."""
    z = s
    alphas = []
    for k in range(interference.shape[1]):
        h = interference[:, k, :][:, None, :]  # (B, 1, D)
        mask = np.abs(h) >= eps
        denom = np.where(mask, 2.0 * h, 1.0)
        alpha = np.where(mask, np.floor(z / denom), 0.0)
        z = z - 2.0 * h * alpha
        alphas.append(alpha)
    return z, alphas


def _grid_tanh_sum(s, interference, grid, chunk: int):
    """Sum over the shift grid (G, K) of tanh(s + 2 m . h), `chunk` grid
    points at a time; returns (output, per-chunk tanh arrays (B, S, D, Gc)).
    The grid axis is innermost, so the broadcast add, the tanh and the sum
    over the grid all run along contiguous rows of Gc values."""
    z = np.zeros_like(s)
    tanhs = []
    h = np.ascontiguousarray(interference.swapaxes(1, 2))  # (B, D, K)
    for start in range(0, grid.shape[0], chunk):
        # B per-model products (D, K) @ (K, Gc), each far below OpenBLAS's
        # threading threshold; one flat (B*D, K) GEMM crosses it (module
        # docstring, "BLAS calls").
        shifts = np.matmul(h, 2.0 * np.ascontiguousarray(grid[start:start + chunk].T))
        t = s[..., None] + shifts[:, None]
        np.tanh(t, out=t)  # in place: one (B, S, D, Gc) allocation, not two
        z += t.sum(axis=3)
        tanhs.append(t)
    return z, tanhs


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Two-class softmax over the last axis, as the logistic of the score
    difference d = s1 - s0: the larger class gets 1 / (1 + e) and the smaller
    e / (1 + e), with e = exp(-|d|) <= 1, so nothing overflows."""
    d = scores[..., 1] - scores[..., 0]
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    big, small = 1.0 / den, e / den
    up = d >= 0
    p = np.empty_like(scores)
    p[..., 0] = np.where(up, small, big)
    p[..., 1] = np.where(up, big, small)
    return p


def _mlp(z, w1, b1, w2, b2, w3, b3):
    """Both tanh hidden layers and the softmax output: (a1, a2, p)."""
    a1 = np.tanh(z @ w1.swapaxes(1, 2) + b1[:, None, :])
    a2 = np.tanh(a1 @ w2.swapaxes(1, 2) + b2[:, None, :])
    return a1, a2, _softmax(a2 @ w3.swapaxes(1, 2) + b3[:, None, :])


def _binary_samples(x_pam, y):
    """The two binary samples of each PAM pilot level x, received as y: the
    channel-layer shift -x+1 with class 1 (label +1), then -x-1 with class 0
    (label -1), both on y.  For x (..., P) and y (..., P, D), returns the
    class indices (2P,), the shifts (..., 2P) and the samples (..., 2P, D)."""
    x = np.asarray(x_pam, dtype=float)
    shifts = np.stack([-x + 1.0, -x - 1.0], axis=-1).reshape(x.shape[:-1] + (-1,))
    samples = np.repeat(np.asarray(y, dtype=float), 2, axis=-2)
    return np.tile([1, 0], x.shape[-1]), shifts, samples


def iil_modulo_forward(z, interference, eps: float):
    """Sequential elementwise modulo by 2*h_j; returns (output, quotient list).

    Entries of h_j with magnitude below eps are skipped (quotient 0).
    """
    z = np.array(z, dtype=float)
    d = z.shape[-1]
    interference = np.asarray(interference, dtype=float).reshape(1, -1, d)
    out, alphas = _modulo(z.reshape(1, -1, d), interference, eps)
    return out.reshape(z.shape), [a.reshape(z.shape) for a in alphas]


class _BatchTrainer:
    """Full-batch alternating gradient descent over B independent models.

    All weight arrays carry a leading batch axis; the per-model loss is the
    mean cross-entropy over that model's S samples, so gradients (and
    learning rates) are batch-size independent.

    An epoch runs the channel layer and the IIL once (`_forward`), giving
    the IIL output z and a backward cache: the modulo quotients, or the
    shifting grid's tanh values.  The classifier step back-propagates
    through the MLP weights only; the channel step runs the MLP with the
    updated weights down to dz and takes the channel gradients from the
    cache, which does not outlive the epoch.
    """

    # Shift-grid chunk: bounds the forward's temporaries; the cached tanh
    # values still span the whole grid.
    _CHUNK = 1 << 16

    def __init__(self, desired, interference, mlp, labels, lam, y, cfg: TrainConfig,
                 dtype=np.float64):
        self.cfg = cfg
        self.desired = np.ascontiguousarray(desired, dtype=dtype)       # (B, D)
        self.interference = np.ascontiguousarray(interference, dtype=dtype)  # (B, K, D)
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = (
            np.ascontiguousarray(a, dtype=dtype) for a in mlp
        )
        self.labels = np.asarray(labels, dtype=int)                     # (S,) class indices
        self.lam = np.ascontiguousarray(lam, dtype=dtype)               # (B, S)
        self.y = np.ascontiguousarray(y, dtype=dtype)                   # (B, S, D)
        self.n_samples = self.y.shape[1]
        if cfg.iil_kind is IilKind.SHIFTING:
            # Checked before the grid is built: its size alone can be large.
            n_points = (2 * cfg.iil_window + 1) ** self.interference.shape[1]
            cache_bytes = n_points * self.y.size * self.y.itemsize
            if cache_bytes > CACHE_BYTE_CAP:
                raise ResourceLimitError(
                    f"shifting IIL cache of {cache_bytes} bytes exceeds cap {CACHE_BYTE_CAP}")
            self.grid = shift_grid(self.interference.shape[1], cfg.iil_window).astype(dtype)

    def part(self, lo: int, hi: int) -> "_BatchTrainer":
        """Models [lo, hi) as a trainer of their own: a shallow copy whose
        weights, lam and y are views of this trainer's, so its updates write
        through.  The config, labels and shift grid are shared."""
        part = copy.copy(self)
        for name in _WEIGHTS + ("lam", "y"):
            setattr(part, name, getattr(self, name)[lo:hi])
        return part

    # -- forward pieces -------------------------------------------------

    def _channel_out(self):
        return _channel_layer(self.y, self.lam, self.desired)

    def _iil_modulo(self, s):
        """Sequential modulo; returns (output, per-vector quotients)."""
        return _modulo(s, self.interference, self.cfg.eps_mod)

    def _iil_shifting(self, s):
        """Sum over the shift grid; returns (output, per-chunk tanh arrays).

        The tanh arrays, (B, S, D, Gc) each, are the whole layer's backward
        cache: together they hold G*B*S*D values.
        """
        return _grid_tanh_sum(s, self.interference, self.grid, self._CHUNK)

    def _iil_shifting_backward(self, tanhs, dz):
        """Gradients w.r.t. the layer input (B, S, D) and the interference
        weights (B, K, D), from dz (B, S, D) and the (B, S, D, Gc) cache.

        Each cached t becomes dz * (1 - t^2) in place, so the cache is spent.
        """
        ds = np.zeros_like(dz)
        g_int = np.zeros_like(self.interference)
        for start, t in zip(range(0, self.grid.shape[0], self._CHUNK), tanhs):
            grid_c = self.grid[start:start + self._CHUNK]
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            u = np.multiply(dz[..., None], t, out=t)
            ds += u.sum(axis=3)
            # u summed over the samples, (B, D, Gc), times the grid (Gc, K): (B, D, K).
            g_int += 2.0 * np.matmul(u.sum(axis=1), grid_c).swapaxes(1, 2)
        return ds, g_int

    def _mlp_forward(self, z):
        return _mlp(z, self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def _forward(self):
        """Channel layer and IIL: (z, IIL backward cache) for the current weights."""
        s = self._channel_out()
        if self.cfg.iil_kind is IilKind.MODULO:
            return self._iil_modulo(s)
        return self._iil_shifting(s)

    def loss(self) -> np.ndarray:
        """Per-model mean cross-entropy, shape (B,)."""
        z, _ = self._forward()
        _, _, p = self._mlp_forward(z)
        picked = p[:, np.arange(self.n_samples), self.labels]
        return -np.log(np.maximum(picked, np.finfo(picked.dtype).tiny)).mean(axis=1)

    # -- backward --------------------------------------------------------

    def _grads(self, fwd=None, mlp=True, channel=True):
        """Gradients of the mean cross-entropy, keyed by weight name.

        `fwd` is a `_forward()` result for the current channel weights (one
        is computed when it is None).  `mlp` selects the six MLP gradients,
        `channel` the `desired` and `interference` gradients; a channel
        pass spends a shifting cache.
        """
        z, cache = self._forward() if fwd is None else fwd
        a1, a2, p = self._mlp_forward(z)

        dlogits = p.copy()
        dlogits[:, np.arange(self.n_samples), self.labels] -= 1.0
        dlogits /= self.n_samples
        da2 = (dlogits @ self.w3) * (1.0 - a2 * a2)
        da1 = (da2 @ self.w2) * (1.0 - a1 * a1)
        g = {}
        if mlp:
            g["w3"] = dlogits.swapaxes(1, 2) @ a2
            g["b3"] = dlogits.sum(axis=1)
            g["w2"] = da2.swapaxes(1, 2) @ a1
            g["b2"] = da2.sum(axis=1)
            g["w1"] = da1.swapaxes(1, 2) @ z
            g["b1"] = da1.sum(axis=1)
        if not channel:
            return g
        dz = da1 @ self.w1

        if self.cfg.iil_kind is IilKind.MODULO:
            # Quotients are constants, so the layer is affine in its input
            # and in each interference vector.
            ds = dz
            if cache:
                g["interference"] = np.stack(
                    [-2.0 * (dz * a).sum(axis=1) for a in cache], axis=1
                )
            else:
                g["interference"] = np.zeros_like(self.interference)
        else:
            ds, g["interference"] = self._iil_shifting_backward(cache, dz)
        g["desired"] = np.matmul(self.lam[:, None, :], ds)[:, 0, :]
        return g

    def run_epochs(self, n_epochs: int, stop: threading.Event = None) -> None:
        """Alternation: one classifier step, then one channel step, per epoch.

        The classifier step leaves the channel weights as they are, so both
        steps share one channel-layer and IIL forward.  An epoch that leaves
        a channel weight non-finite raises `TrainingDivergenceError`; a NaN
        in an MLP weight reaches the channel weights through the same
        epoch's channel step.  Training ends early, before the next epoch,
        once `stop` is set.
        """
        cfg = self.cfg
        for epoch in range(n_epochs):
            if stop is not None and stop.is_set():
                return
            fwd = self._forward()
            # g_mlp stays bound until the next epoch's replaces it.  Freed at
            # the end of each epoch, its weight-sized arrays let malloc trim
            # the heap and fault it back in: ~500 page faults per epoch at
            # 64 subcarriers, 15-25% of the epoch.
            g_mlp = self._grads(fwd, channel=False)
            for name in _WEIGHTS[2:]:
                w = getattr(self, name)
                w -= cfg.lr_classifier * g_mlp[name]
            g = self._grads(fwd, mlp=False)
            del fwd  # the next epoch's forward must not overlap this cache
            self.desired -= cfg.lr_channel * g["desired"]
            if cfg.update_interference:
                self.interference -= cfg.lr_channel * g["interference"]
            if not (np.isfinite(self.desired).all() and np.isfinite(self.interference).all()):
                raise TrainingDivergenceError(f"non-finite channel weight in epoch {epoch + 1}")


def _n_parts(trainer: _BatchTrainer) -> int:
    """Parts to train the batch in: one per core the process may run on (per
    core of the machine where the platform cannot tell which), as long as
    each keeps `_PART_WORK` (model, sample, grid point) triples and at least
    one model."""
    n_models = trainer.y.shape[0]
    grid = trainer.grid.shape[0] if trainer.cfg.iil_kind is IilKind.SHIFTING else 1
    work = n_models * trainer.n_samples * grid
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cores or 1, work // _PART_WORK, n_models))


def _train_in_parts(trainer: _BatchTrainer, n_epochs: int, n_parts: int) -> np.ndarray:
    """Train the batch as n_parts contiguous parts along the model axis, the
    first in the caller's thread and the others on a thread pool.

    Returns the per-model loss after training, each part's computed by that
    part.  An exception raised in any part is raised here, once every part
    has ended; the other parts stop before their next epoch.
    """
    bounds = [trainer.y.shape[0] * i // n_parts for i in range(n_parts + 1)]
    parts = [trainer.part(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    failed = threading.Event()

    def run(part):
        try:
            part.run_epochs(n_epochs, failed)
        except BaseException:
            failed.set()
            raise
        return part.loss()

    with ThreadPoolExecutor(max(n_parts - 1, 1), "structnet-part") as pool:
        futures = [pool.submit(run, part) for part in parts[1:]]
        losses = [run(parts[0])] + [future.result() for future in futures]
    return np.concatenate(losses)


def model_forward(model: StructNetModel, y_raw, shift: float) -> np.ndarray:
    """Full pipeline: channel layer -> IIL -> binary classifier probabilities,
    run as a batch-of-one trainer with the model's IIL settings."""
    y = np.asarray(y_raw, dtype=float)
    rows = y.reshape(1, -1, y.shape[-1])
    if rows.shape[1] == 0:
        raise InvalidArgumentError("at least one received vector is required")
    cfg = TrainConfig(iil_kind=model.iil_kind, iil_window=model.iil_window,
                      eps_mod=model.eps_mod)
    trainer = _BatchTrainer(model.desired[None], model.interference[None],
                            tuple(getattr(model, name)[None] for name in _WEIGHTS[2:]),
                            np.ones(rows.shape[1]), np.full(rows.shape[:2], float(shift)),
                            rows, cfg)
    _, _, p = trainer._mlp_forward(trainer._forward()[0])
    return p[0].reshape(y.shape[:-1] + (2,))


def detect_multinomial(model: StructNetModel, y, posterior=None) -> np.ndarray:
    """4-PAM class probabilities for (-3, -1, +1, +3) via the shifting chain.

    `posterior`, when given, replaces the IIL + classifier: it maps the
    shifted received vector to the two binary-class probabilities.
    """
    if posterior is None:
        def posterior(z):
            return model_forward(model, z, 0.0)
    ratios = []
    for shift in (2.0, 0.0, -2.0):
        p = np.asarray(posterior(channel_layer_forward(model, y, shift)), dtype=float)
        if p[0] <= 0.0 or p[1] <= 0.0:
            raise DegenerateRatioError("classifier produced a zero probability")
        ratios.append(p[0] / p[1])
    q1, q2, q3 = ratios
    raw = np.array([q1 * q2 * q3, q2 * q3, q3, 1.0])
    return raw / raw.sum()


def estimate_channel_structnet(y_p, x_p, cfg: TrainConfig, seed, h_ls=None) -> np.ndarray:
    """Per-subframe channel estimate from pilots, all subcarriers at once.

    Initializes every stream's weights from the LS estimate (`h_ls`, or
    computed from the pilots when it is None), trains
    cfg.epochs alternating epochs per (subcarrier, stream), then reassembles
    the complex channel from the desired weights.

    Training runs in float32 in residual form: the desired weights learn the
    change from the LS anchor, which stays in float64 in the channel layer's
    input and in the readout, anchor + change.  With cfg.epochs == 0 the
    change is 0 and the output reproduces the LS estimate exactly.

    Each (subcarrier, stream) model trains on its own subcarrier's pilots
    only; frequency correlation across subcarriers (and the cyclic-prefix
    bound on the channel's delay support) is not used.
    """
    y_p = np.asarray(y_p, dtype=complex)   # (n_sc, N_r, N_p)
    x_p = np.asarray(x_p, dtype=complex)   # (n_sc, N_t, N_p)
    n_sc = y_p.shape[0]
    n_tx = x_p.shape[1]
    if h_ls is None:
        h_ls = estimate_ls(y_p, x_p)       # (n_sc, N_r, N_t)
    seeds = child_seeds(seed, 2 * n_tx)

    # All streams share sample count only when their antennas are active on
    # the same number of pilot slots (always true for both pilot patterns),
    # so every (subcarrier, stream) model trains in one batched pass.
    active = np.any(x_p != 0, axis=0)      # (N_t, N_p)
    n_slots = active.sum(axis=1)
    odd = np.flatnonzero((n_slots == 0) | (n_slots != n_slots[0]))
    if odd.size and n_slots[odd[0]] == 0:
        raise InvalidArgumentError(f"antenna {odd[0]} transmits no pilot symbol")
    if odd.size:
        raise InvalidArgumentError("antennas differ in active pilot slot count")
    per_stream = []
    for i in range(2 * n_tx):
        slots = np.flatnonzero(active[i % n_tx])
        x = x_p[:, i % n_tx, slots]
        y_real = realify_signal(np.transpose(y_p[:, :, slots], (0, 2, 1)))  # (n_sc, P, D)
        classes, lam, y_samples = _binary_samples(x.real if i < n_tx else x.imag, y_real)
        desired, interference, mlp = _init_stream(h_ls, i, cfg,
                                                  np.random.default_rng(seeds[i]))
        per_stream.append((desired, interference, *mlp, lam, y_samples))

    # Streams stacked along the batch axis: stream i owns models [i*n_sc, (i+1)*n_sc).
    anchor, interference, *mlp, lam, y = (np.concatenate(a) for a in zip(*per_stream))
    trainer = _BatchTrainer(np.zeros_like(anchor), interference, mlp, classes, lam,
                            _channel_layer(y, lam, anchor), cfg, dtype=np.float32)
    if cfg.epochs > 0:
        loss = _train_in_parts(trainer, cfg.epochs, _n_parts(trainer))
        if not np.all(np.isfinite(loss)):
            raise TrainingDivergenceError("non-finite loss during channel training")

    # (n_sc, N_r, N_t) from the 2*N_t per-stream weight sets.
    desired = anchor + trainer.desired
    return complexify_channel([desired[i * n_sc:(i + 1) * n_sc] for i in range(2 * n_tx)])

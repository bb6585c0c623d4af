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
(`_binary_samples`).  `model_forward` runs one `StructNetModel` (its weights)
through it as a batch of one, with the IIL settings of a `TrainConfig`.

Precision.  `estimate_channel_structnet` trains in float32 around a float64
anchor, the LS estimate.  Each part of the batch is built stream by stream,
straight into its trainer's float32 arrays (`_Batch.rows`); only the anchor
and the channel layer's input at it, y + lambda * h_LS, are formed in
float64.  The desired weights hold the change from h_LS (starting at 0); a
part returns that float32 change alone, and the caller sums the estimate
h_LS + change in float64, so zero epochs return LS exactly.  The trainer's
default stays float64, as does `model_forward`: their gradients and outputs
are checked against finite differences and to 1e-9, which float32 would
swamp.

No structure across subcarriers enters the learner: batching shares no
weight, gradient or sample between subcarriers, so each model sees only its
own subcarrier's pilots.  With as many pilot symbols as transmit antennas
those pilots are fitted exactly by the LS estimate the learner starts from,
so every training sample is a noise-free function of that estimate.

Parallel parts.  Since no model shares anything with another, the batch
trains as parts of whole realized streams, one part per core but at most
one per stream (`_n_parts`): the first in the caller, each other in a
worker process of its own (`_train_in_parts`).  No process holds the whole
batch.  The caller sends a worker, through a pipe, the subframe's inputs
(`_Batch`: pilots, LS estimate, config and stream seeds, ~200 KB at 1024
subcarriers, with the pilot layout the batch read, once, when it was made)
and the part's stream range.  One function, `_train_part`, trains every
part, in the caller or a worker: it builds the part's streams from one
table of the LS estimate's stream columns, trains them and returns their
desired weights, or the exception training raised; a worker sends that as
its reply, which the caller gathers.  A one-part batch takes the same path
and forks no worker.  Each stream's models are drawn from its own seed, so
the numbers are bit for bit those of the whole batch in one process.  A
batch thus uses at most 2*N_t cores: a 2x2 batch on an 8-core machine
trains in 4 parts.  `harness.bench_iil` trains its own trainer in the
caller.

Blocks.  `run_epochs` trains `_BLOCK` = 256 models at a time, all epochs per
block, so a block's gradients, weight copies and activations stay in the
core's cache: 20 float32 modulo epochs of a 2048-model part took 9.0-10.0 ms
per epoch in blocks of 256, 9.2-11.0 in blocks of 512 and 13.5-14.8 whole
(one BLAS thread, one and two processes at once, 2 MB L2 per core).

Processes, not threads.  An epoch is ~100 numpy calls of 2-70 us each, and
the GIL changes hands at every call: two threads training the 64-subcarrier
modulo batch (256 models, 200 epochs) ran at 0.65-0.87x the speed of one,
and two threads running 4 us numpy calls got 0.34-0.68x the throughput of
one.  Two processes each keep their solo speed.

Lifecycle.  Workers are forked (`os.fork`) at the first call that splits,
one per part but the caller's, and serve later calls, which fork only the
workers they lack: forking, exiting and reaping a worker on every call took
~4 ms in a 35-50 MB caller.  A worker keeps nothing between calls: each
part it builds is dropped once its reply is sent.  `_close_workers` ends
the workers and waits for them, and runs at interpreter exit.  A worker
never returns into the caller's code: it ends with `os._exit`, so no
`atexit` hook or test finalizer runs in it.  It ignores SIGINT, which is
the caller's to handle, and exits by itself on EOF from its pipe, whose
other end only the caller holds, when the caller dies without ending it.
A process forked from the caller does not inherit its workers.  Fork, not
spawn: a worker starts in ~1 ms with the lab imported and inherits the
caller's code as it stands, monkeypatches included.  Without `os.fork` the
batch trains in one part.

BLAS calls.  A part makes only per-model BLAS calls: every matmul is a
stack of one small product per model.  The largest, the shifting layer's
(D, K) @ (K, G) and (D, G) @ (G, K), take D*K*G multiply-adds: 4116 at 2x2,
5.0e5 at 3x3, below the n * 2.6e5 from which OpenBLAS spreads a product over
n threads, so no part starts BLAS threads of its own; one flat (B*D, K) @
(K, G) product per part would cross that line at 128 models.  The hidden
layers multiply by w1 and w2 as contiguous (B, in, out) copies, which
`run_epochs` refreshes after each classifier step: for 128 float32 models,
z @ w1.T and a1 @ w2.T took 20 and 40 us on `swapaxes` views against 7 and
13 us on copies, in the same bits (OpenBLAS 0.3.31; feature-major w @ x.T
was slower, and not bit-identical in float64).  With the refresh counted,
in blocks of 256, `run_epochs` on a view of w2 took 1.04-1.11x the time on
copies, and on views of both 1.11-1.34x.  w3's view and the weight
gradients' transposed first operands are as fast as copies, or faster.
"""

import atexit
import copy
import enum
import mmap
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatioError,
    InvalidArgumentError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from .signal_model import child_seeds, realify_signal
from .estimators import estimate_ls

# Bytes the shifting IIL's backward cache (G*B*S*D values) may take.  The
# largest cache built by the tests, c11's 8x8 toy, is 105 MB in float32.  It
# also bounds the int64 (G, K) shift grid, built after the check: in the
# learner (K = 2*N_t - 1 < B models, S, D >= 2) that is under half the cache.
CACHE_BYTE_CAP = 1 << 29

# The modulo IIL skips interference entries below this magnitude (quotient 0).
EPS_MOD = 1e-6


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


# Models `_BatchTrainer.run_epochs` trains at a time (module docstring,
# "Blocks"); also the rows of one MLP weight drawn at a time (`_init_mlp`).
_BLOCK = 256

# Weight names of a model, in StructNetModel and _BatchTrainer alike.
_WEIGHTS = ("desired", "interference", "w1", "b1", "w2", "b2", "w3", "b3")
# A _BatchTrainer's arrays with one row per model: a part's are views of its batch's.
_PER_MODEL = _WEIGHTS + ("lam", "y")


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


def _check_cache(cfg: TrainConfig, n_interferers: int, n_inputs: int, itemsize: int) -> None:
    """Raise `ResourceLimitError` when the shifting IIL's backward cache over
    n_inputs layer inputs (model, sample and real dimension) would exceed
    `CACHE_BYTE_CAP`; checked before the shift grid is built, since its size
    alone can be large."""
    if cfg.iil_kind is IilKind.SHIFTING:
        cache_bytes = (2 * cfg.iil_window + 1) ** n_interferers * n_inputs * itemsize
        if cache_bytes > CACHE_BYTE_CAP:
            raise ResourceLimitError(
                f"shifting IIL cache of {cache_bytes} bytes exceeds cap {CACHE_BYTE_CAP}")


def _mlp_shapes(dim: int, cfg: TrainConfig) -> tuple:
    """One model's (w1, b1, w2, b2, w3, b3) shapes, for D = dim inputs."""
    return (cfg.n_h1, dim), (cfg.n_h1,), (cfg.n_h2, cfg.n_h1), (cfg.n_h2,), (2, cfg.n_h2), (2,)


def _init_mlp(rng, n_models: int, dim: int, cfg: TrainConfig, out=None) -> tuple:
    """MLP weights (w1, b1, w2, b2, w3, b3) of n_models classifiers: weights
    N(0, 0.1), drawn in the order w1, w2, w3; biases 0.  Written into `out`,
    six arrays of any float dtype with n_models rows, or new float64 arrays.

    Each weight is drawn `_BLOCK` models at a time, in the bits of one draw
    of the whole weight, so no float64 draw of a whole weight is held."""
    if out is None:
        out = tuple(np.empty((n_models,) + shape) for shape in _mlp_shapes(dim, cfg))
    for w, b in zip(out[::2], out[1::2]):
        for start in range(0, n_models, _BLOCK):
            block = w[start:start + _BLOCK]
            block[...] = rng.normal(0.0, 0.1, block.shape)
        b[...] = 0.0
    return out


def _columns(h) -> np.ndarray:
    """Every realized stream's channel column of h (n_sc, N_r, N_t), as
    (2*N_t, n_sc, D), D = 2*N_r: the realified model's channel matrix.
    Stream t < N_t carries the real PAM axis of antenna t, whose column
    realifies to [Re; Im] (`realify_signal`); stream N_t + t carries its
    imaginary axis, whose column is that of j*h, [-Im; Re]."""
    h = np.moveaxis(h, -1, 0)
    return np.concatenate([realify_signal(h), np.concatenate([-h.imag, h.real], axis=-1)])


def _complexify(columns) -> np.ndarray:
    """The inverse of `_columns`: (n_sc, N_r, N_t) complex, C-contiguous,
    from a (2*N_t, n_sc, D) stack of stream columns.  Antenna t's column
    averages the direct reconstruction from stream t with the de-rotated one
    from stream N_t + t, so the two estimates of it each count half."""
    n_tx, n_rx = len(columns) // 2, columns.shape[-1] // 2
    v, w = columns[:n_tx], columns[n_tx:]
    h = ((v[..., :n_rx] + 1j * v[..., n_rx:]) + (w[..., n_rx:] - 1j * w[..., :n_rx])) / 2.0
    return np.ascontiguousarray(np.moveaxis(h, 0, -1))


def _init_stream(columns, stream: int, cfg: TrainConfig, rng, mlp_out=None):
    """Initial weights of one realized stream's models, one per subcarrier.

    columns is `_columns(h_ls)`, (2*N_t, n_sc, D), of the LS estimate h_ls:
    built once and shared by every stream.  Returns (desired (n_sc, D),
    interference (n_sc, K, D), MLP weights), D = 2*N_r, K = 2*N_t - 1.  The
    desired weights are the stream's realified channel column; the
    interference weights are the other realized streams' columns, ordered per
    cfg.iil_order on each subcarrier separately.  The MLP weights
    (`_init_mlp`) are written into `mlp_out` if it is given.
    """
    interference = np.delete(columns, stream, 0).swapaxes(0, 1)
    if cfg.iil_order is IilOrder.DESCENDING_STRENGTH:
        order = np.argsort(-np.sum(interference**2, axis=2), axis=1, kind="stable")
        interference = np.take_along_axis(interference, order[:, :, None], axis=1)
    return columns[stream], interference, _init_mlp(rng, *columns.shape[1:], cfg, mlp_out)


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
    side = 2 * m_window + 1
    grid = np.indices((side,) * n_vectors).reshape(n_vectors, side ** n_vectors) - m_window
    return np.ascontiguousarray(grid.T)


# -- the forward, on batches: s and z are (B, S, D), interference (B, K, D) --
def _modulo(s, interference, eps: float):
    """Sequential elementwise modulo by 2*h_k; returns (output, quotients
    (K, B, S, D), row k for h_k).  Entries of h_k with magnitude below eps are
    skipped (quotient 0).  The mask and 2*h are built for all k, repeated over
    the samples: ops on a (B, 1, D) row broadcast over S run ~5x slower."""
    h = np.repeat(interference.swapaxes(0, 1)[:, :, None, :], s.shape[1], axis=2)
    two_h = 2.0 * h
    skip = ~(np.abs(h) >= eps)
    denom = two_h.copy()
    np.copyto(denom, 1.0, where=skip)
    alphas = np.empty_like(denom)
    z = s
    for k, alpha in enumerate(alphas):
        np.floor(np.divide(z, denom[k], out=alpha), out=alpha)
        np.copyto(alpha, 0.0, where=skip[k])
        z = z - two_h[k] * alpha
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


def _transposed(w):
    """A stack of matrices (B, m, n) as a contiguous (B, n, m) array."""
    return np.ascontiguousarray(w.swapaxes(1, 2))


def _mlp(z, w1, b1, w2, b2, w3, b3, wt=None):
    """Both tanh hidden layers and the softmax output: (a1, a2, p).  The hidden
    layers take w1 and w2 transposed as contiguous arrays, `wt`, or copies
    made here when it is None (module docstring, "BLAS calls")."""
    w1t, w2t = (_transposed(w1), _transposed(w2)) if wt is None else wt
    a1 = z @ w1t
    a1 += b1[:, None, :]
    np.tanh(a1, out=a1)
    a2 = a1 @ w2t
    a2 += b2[:, None, :]
    np.tanh(a2, out=a2)
    return a1, a2, _softmax(a2 @ w3.swapaxes(1, 2) + b3[:, None, :])


def _sum_samples(x, out=None):
    """x (..., S, n) summed over its S samples in order, from +0 as numpy
    sums, into `out` if given: the bits of `x.sum(axis=-2)`, at about half its cost."""
    total = np.add(x[..., 0, :], 0.0, out=out)
    for i in range(1, x.shape[-2]):
        total += x[..., i, :]
    return total


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

    # Shift-grid chunk.  The cached tanh values span the whole grid either
    # way, yet chunks are faster and smaller: c11's 8x8 toy (823,543 grid
    # points, 50 epochs, float32) took 8.1-9.2 s and peaked at 170 MB RSS,
    # against 10.2-10.7 s and 209 MB in one pass (2-core KVM guest).
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
        self._onehot = np.eye(2, dtype=dtype)[self.labels]              # (S, 2)
        self.lam = np.ascontiguousarray(lam, dtype=dtype)               # (B, S)
        self.y = np.ascontiguousarray(y, dtype=dtype)                   # (B, S, D)
        self.n_samples = self.y.shape[1]
        self._wt = None  # `_mlp`'s wt while a block of `run_epochs` trains
        self._g = None  # `_grads`'s MLP gradient arrays while a block of `run_epochs` trains
        _check_cache(cfg, self.interference.shape[1], self.y.size, self.y.itemsize)
        if cfg.iil_kind is IilKind.SHIFTING:
            self.grid = shift_grid(self.interference.shape[1], cfg.iil_window).astype(dtype)

    def part(self, lo: int, hi: int) -> "_BatchTrainer":
        """Models [lo, hi) as a trainer of their own: a shallow copy whose
        weights, lam and y are views of this trainer's, so its updates write
        through.  The config, labels and shift grid are shared."""
        part = copy.copy(self)
        for name in _PER_MODEL:
            setattr(part, name, getattr(self, name)[lo:hi])
        return part

    # -- forward pieces -------------------------------------------------

    def _channel_out(self):
        return _channel_layer(self.y, self.lam, self.desired)

    def _iil_modulo(self, s):
        """Sequential modulo; returns (output, quotients (K, B, S, D))."""
        return _modulo(s, self.interference, EPS_MOD)

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
        return _mlp(z, self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self._wt)

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
        pass spends a shifting cache.  The MLP gradients are written into
        `self._g` while `run_epochs` runs, and are new arrays otherwise.
        """
        z, cache = self._forward() if fwd is None else fwd
        a1, a2, dlogits = self._mlp_forward(z)

        dlogits -= self._onehot
        dlogits /= self.n_samples
        da2 = dlogits @ self.w3
        da2 *= 1.0 - a2 * a2
        da1 = da2 @ self.w2
        da1 *= 1.0 - a1 * a1
        g = {}
        if mlp:
            out = self._g or dict.fromkeys(_WEIGHTS[2:])
            g["w3"] = np.matmul(dlogits.swapaxes(1, 2), a2, out=out["w3"])
            g["b3"] = _sum_samples(dlogits, out["b3"])
            g["w2"] = np.matmul(da2.swapaxes(1, 2), a1, out=out["w2"])
            g["b2"] = _sum_samples(da2, out["b2"])
            g["w1"] = np.matmul(da1.swapaxes(1, 2), z, out=out["w1"])
            g["b1"] = _sum_samples(da1, out["b1"])
        if not channel:
            return g
        dz = da1 @ self.w1

        if self.cfg.iil_kind is IilKind.MODULO:
            # Quotients are constants, so the layer is affine in its input
            # and in each interference vector.
            ds = dz
            g["interference"] = (-2.0 * _sum_samples(dz * cache)).swapaxes(0, 1)
        else:
            ds, g["interference"] = self._iil_shifting_backward(cache, dz)
        g["desired"] = np.matmul(self.lam[:, None, :], ds)[:, 0, :]
        return g

    def run_epochs(self, n_epochs: int, stop=None) -> None:
        """Alternation: one classifier step, then one channel step, per epoch,
        in blocks of `_BLOCK` models: each block (a `part` view, so its
        updates write through) trains all n_epochs before the next starts.

        The classifier step leaves the channel weights as they are, so both
        steps share one channel-layer and IIL forward.  An epoch that leaves
        a channel weight non-finite raises `TrainingDivergenceError`, naming
        the block's epoch; a NaN in an MLP weight reaches the channel weights
        through the same epoch's channel step.  A later block's divergence is
        found only after the earlier blocks have finished, as
        `_train_in_parts` raises a part's only once every part has ended.
        Training ends early, before the next epoch, once the byte `stop[0]`
        is nonzero.
        """
        for lo in range(0, self.y.shape[0], _BLOCK):
            self.part(lo, lo + _BLOCK)._run_block(n_epochs, stop)

    def _run_block(self, n_epochs: int, stop) -> None:
        """`run_epochs` on one block.  It runs on a `part` copy made for the
        block, so the MLP buffers it binds (`_wt`, `_g`) go with that copy and
        the trainer `run_epochs` was called on never holds them."""
        cfg = self.cfg
        # w1 and w2 transposed for the forward, and the one set of MLP gradients.
        self._wt = (_transposed(self.w1), _transposed(self.w2))
        self._g = {name: np.empty_like(getattr(self, name)) for name in _WEIGHTS[2:]}
        for epoch in range(n_epochs):
            if stop is not None and stop[0]:
                return
            fwd = self._forward()
            for name, g in self._grads(fwd, channel=False).items():
                g *= cfg.lr_classifier  # then w -= g: the bits of w -= lr * g
                w = getattr(self, name)
                w -= g
            for wt, w in zip(self._wt, (self.w1, self.w2)):
                np.copyto(wt, w.swapaxes(1, 2))
            g = self._grads(fwd, mlp=False)
            del fwd  # the next epoch's forward must not overlap this cache
            self.desired -= cfg.lr_channel * g["desired"]
            if cfg.update_interference:
                self.interference -= cfg.lr_channel * g["interference"]
            if not (np.isfinite(self.desired).all() and np.isfinite(self.interference).all()):
                raise TrainingDivergenceError(f"non-finite channel weight in epoch {epoch + 1}")


def _cores() -> int:
    """Cores the process may run on (the machine's where the platform cannot
    tell which)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class _Batch:
    """One subframe's learner batch, held as its inputs: every (subcarrier,
    stream) model, streams stacked along the model axis, so stream i owns
    models [i*n_sc, (i+1)*n_sc).  A range of streams is built from these
    alone (`rows`), so each process builds only the part it trains.

    The pilot layout is read once, when the batch is made: `slots` (N_t, P)
    holds the P pilot slots each antenna transmits in, from which each of its
    streams takes its samples, and `n_samples` = 2P is every model's sample
    count.  Making the batch raises `InvalidArgumentError` when an antenna
    transmits in no slot or the antennas' slot counts differ, and
    `ResourceLimitError` when the whole batch's shifting IIL cache would
    exceed `CACHE_BYTE_CAP` in float32, before any part is built."""

    y_p: np.ndarray    # (n_sc, N_r, N_p) received pilots
    x_p: np.ndarray    # (n_sc, N_t, N_p) pilot symbols
    h_ls: np.ndarray   # (n_sc, N_r, N_t) the LS anchor
    cfg: TrainConfig
    seeds: list        # one seed per realized stream

    def __post_init__(self):
        # All streams share sample count only when their antennas are active on
        # the same number of pilot slots (always true for both pilot patterns),
        # so every (subcarrier, stream) model trains in one batched pass.
        active = np.any(self.x_p != 0, axis=0)  # (N_t, N_p)
        n_slots = active.sum(axis=1)
        odd = np.flatnonzero((n_slots == 0) | (n_slots != n_slots[0]))
        if odd.size and n_slots[odd[0]] == 0:
            raise InvalidArgumentError(f"antenna {odd[0]} transmits no pilot symbol")
        if odd.size:
            raise InvalidArgumentError("antennas differ in active pilot slot count")
        self.slots = np.nonzero(active)[1].reshape(len(active), -1)
        self.n_samples = 2 * self.slots.shape[1]
        # Every model's samples (n_sc per stream), each of D = 2*N_r values, in float32.
        n_inputs = self.n_streams * len(self.x_p) * self.n_samples * 2 * self.y_p.shape[1]
        _check_cache(self.cfg, self.n_streams - 1, n_inputs, 4)

    @property
    def n_streams(self) -> int:
        return 2 * self.x_p.shape[1]

    def rows(self, first: int, last: int) -> _BatchTrainer:
        """Streams [first, last), models [first*n_sc, last*n_sc), as a float32
        trainer, built stream by stream straight into its arrays.  Their
        desired weights hold the change from the anchor, 0; only the anchor
        and the channel layer's input at it, y + lambda * anchor, are formed
        in float64."""
        n_sc, dim, f32 = len(self.x_p), 2 * self.y_p.shape[1], np.float32
        n_models = (last - first) * n_sc
        interference = np.empty((n_models, self.n_streams - 1, dim), f32)
        mlp = tuple(np.empty((n_models,) + shape, f32) for shape in _mlp_shapes(dim, self.cfg))
        lam = np.empty((n_models, self.n_samples), f32)
        y = np.empty(lam.shape + (dim,), f32)
        # Every stream's PAM pilot levels (n_sc, 2*N_t, N_p), pilot slots
        # (2*N_t, P) and channel columns, in `_columns`' order.
        levels = np.concatenate([self.x_p.real, self.x_p.imag], axis=1)
        slots, columns = np.tile(self.slots, (2, 1)), _columns(self.h_ls)
        for i in range(first, last):
            rows = slice((i - first) * n_sc, (i - first + 1) * n_sc)
            # The stream's received pilots, (n_sc, P, D), and their binary samples.
            y_real = realify_signal(np.transpose(self.y_p[:, :, slots[i]], (0, 2, 1)))
            _, lam_i, y_samples = _binary_samples(levels[:, i, slots[i]], y_real)
            anchor, interference[rows], _ = _init_stream(
                columns, i, self.cfg, np.random.default_rng(self.seeds[i]),
                [w[rows] for w in mlp])
            lam[rows] = lam_i
            y[rows] = _channel_layer(y_samples, lam_i, anchor)
        labels = np.tile([1, 0], lam.shape[1] // 2)  # `_binary_samples`' classes, every stream's
        return _BatchTrainer(np.zeros((n_models, dim), f32), interference, mlp, labels, lam, y,
                             self.cfg, dtype=f32)

    def train(self, first: int, last: int, stop=None) -> np.ndarray:
        """Build streams [first, last), train them for cfg.epochs epochs and
        return their desired weights: the change from the anchor,
        ((last - first) * n_sc, D) float32."""
        trainer = self.rows(first, last)
        trainer.run_epochs(self.cfg.epochs, stop)
        return trainer.desired


def _n_parts(batch: _Batch) -> int:
    """Parts to train the batch in: one per core, but at most one per
    realized stream.  Without `os.fork` the batch trains in one part."""
    return min(_cores(), batch.n_streams) if hasattr(os, "fork") else 1


def _train_part(batch: _Batch, first: int, last: int, stop):
    """Streams [first, last) of the batch, built and trained (`batch.train`):
    their desired weights, or the exception training raised, after setting
    `stop[0]` so that the other parts stop before their next epoch."""
    try:
        return batch.train(first, last, stop)
    except BaseException as exc:  # `_train_in_parts` raises it once every part has ended
        stop[0] = 1
        return exc


def _serve(conn, stop: mmap.mmap) -> None:
    """A worker's loop: reply to each part received as (batch, first, last)
    with `_train_part`'s result.  Returns once every copy of the caller's end
    of the connection is closed, as when the caller dies."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # `_Workers.close` ends the process
    while True:
        try:
            batch, first, last = conn.recv()
        except EOFError:
            return
        conn.send(_train_part(batch, first, last, stop))


class _Workers:
    """Forked processes that train the parts `_train_in_parts` hands out,
    kept from call to call.  `lock` lets one call use them at a time."""

    def __init__(self):
        self.lock = threading.Lock()
        self.stop = mmap.mmap(-1, 1)  # nonzero once a part has raised; shared with the workers
        self.procs = []  # (pid, connection), in fork order

    def start(self, n: int) -> list:
        """Connections to the first n workers; forks those missing."""
        while len(self.procs) < n:
            ours, theirs = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:  # the worker; `forget` has closed the others' connections
                try:
                    ours.close()
                    _serve(theirs, self.stop)
                finally:
                    os._exit(0)
            theirs.close()
            self.procs.append((pid, ours))
        return [conn for _, conn in self.procs[:n]]

    def close(self) -> None:
        """End every worker and wait for it."""
        for pid, conn in self.procs:
            conn.close()
            try:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped elsewhere
        self.procs = []

    def forget(self) -> None:
        """In a forked child: drop the parent's workers without ending them."""
        for _, conn in self.procs:
            conn.close()
        self.procs = []
        self.lock = threading.Lock()


_WORKERS = _Workers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_WORKERS.forget)


def _close_workers() -> None:
    """End the training workers; the next split batch forks new ones."""
    with _WORKERS.lock:
        _WORKERS.close()


atexit.register(_close_workers)


def _train_in_parts(batch: _Batch, n_parts: int) -> np.ndarray:
    """Train the batch as n_parts parts of whole streams (`_train_part`): the
    first in the caller, each other in a worker process of its own, each
    built where it trains.  Returns every model's trained desired weights,
    (n_models, D), bit for bit those of the whole batch trained in the
    caller.  One part forks no worker.

    An exception raised in any part is raised here, once every part has
    ended; the other parts stop before their next epoch.  The caller's part's
    exception comes first, then the workers', in model order.
    """
    bounds = [batch.n_streams * i // n_parts for i in range(n_parts + 1)]
    with _WORKERS.lock:
        try:
            conns = _WORKERS.start(n_parts - 1)
            _WORKERS.stop[0] = 0
            for conn, first, last in zip(conns, bounds[1:], bounds[2:]):
                conn.send((batch, first, last))
            # In model order.  Every reply is read: an unread one would answer the next call.
            parts = [_train_part(batch, 0, bounds[1], _WORKERS.stop)] + [c.recv() for c in conns]
        except BaseException:
            _WORKERS.close()  # replies may still be on their way
            raise
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    return np.concatenate(parts)


def model_forward(model: StructNetModel, y_raw, shift: float, cfg=None) -> np.ndarray:
    """Full pipeline: channel layer -> IIL -> binary classifier probabilities,
    run as a batch-of-one trainer with the IIL settings of `cfg` (or `TrainConfig()`)."""
    y = np.asarray(y_raw, dtype=float)
    rows = y.reshape(1, -1, y.shape[-1])
    if rows.shape[1] == 0:
        raise InvalidArgumentError("at least one received vector is required")
    trainer = _BatchTrainer(model.desired[None], model.interference[None],
                            tuple(getattr(model, name)[None] for name in _WEIGHTS[2:]),
                            np.ones(rows.shape[1]), np.full(rows.shape[:2], float(shift)),
                            rows, cfg or TrainConfig())
    _, _, p = trainer._mlp_forward(trainer._forward()[0])
    return p[0].reshape(y.shape[:-1] + (2,))


def detect_multinomial(model: StructNetModel, y, posterior=None) -> np.ndarray:
    """4-PAM class probabilities for (-3, -1, +1, +3) via the shifting chain.

    `posterior`, when given, replaces the IIL + classifier: it maps the
    shifted received vector to the two binary-class probabilities.  A
    probability that is zero, NaN or infinite raises `DegenerateRatioError`.
    """
    if posterior is None:
        def posterior(z):
            return model_forward(model, z, 0.0)
    ratios = []
    for shift in (2.0, 0.0, -2.0):
        p = np.asarray(posterior(channel_layer_forward(model, y, shift)), dtype=float)
        if not (0.0 < p[0] < np.inf and 0.0 < p[1] < np.inf):  # NaN fails both
            raise DegenerateRatioError("classifier produced a zero or non-finite probability")
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
    h_ls = np.asarray(estimate_ls(y_p, x_p) if h_ls is None else h_ls, dtype=complex)
    batch = _Batch(y_p, x_p, h_ls, cfg, child_seeds(seed, 2 * x_p.shape[1]))  # checks the slots
    change = _train_in_parts(batch, _n_parts(batch)) if cfg.epochs > 0 else 0.0
    # (n_sc, N_r, N_t) from the 2*N_t per-stream weight sets, anchor + change.
    anchor = _columns(h_ls)  # (2*N_t, n_sc, D)
    return _complexify((anchor.reshape(-1, anchor.shape[-1]) + change).reshape(anchor.shape))

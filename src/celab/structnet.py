"""Online channel learner: channel layer, interference-invariant layers,
binary-classifier MLP with hand-written gradients, and the per-subframe
training loop that reads the channel estimate back out of the weights.

Each realized stream (one PAM axis of one transmit antenna) gets its own
model per subcarrier.  Training alternates between a classifier step and a
channel-weight step on full-batch gradients of the binary cross-entropy.
The classifier step changes only the MLP weights, so both steps of an epoch
share one channel-layer and IIL forward.
For throughput, `estimate_channel_structnet` trains all subcarriers of one
stream simultaneously through the batched trainer; the single-model
operations below are thin views of the same arithmetic.

No structure across subcarriers enters the learner: batching shares no
weight, gradient or sample between subcarriers, so each model sees only its
own subcarrier's pilots.  With as many pilot symbols as transmit antennas
those pilots are fitted exactly by the LS estimate the learner starts from,
so every training sample is a noise-free function of that estimate.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRatioError,
    InvalidArgumentError,
    ResourceLimitError,
    TrainingDivergenceError,
)
from .signal_model import realify_channel_column, complexify_channel
from .estimators import estimate_ls

DEFAULT_GRID_CAP = 2_000_000


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
    grid_cap: int = DEFAULT_GRID_CAP

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidArgumentError("epochs must be >= 0")
        if self.lr_classifier < 0 or self.lr_channel < 0:
            raise InvalidArgumentError("learning rates must be >= 0")
        if self.iil_window < 1:
            raise InvalidArgumentError("iil_window must be >= 1")


@dataclass(frozen=True)
class TrainingSample:
    label: int          # -1 or +1
    y_raw: np.ndarray   # received pilot vector, length 2*N_r
    shift: float        # lambda, applied through the channel layer


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

    def flatten(self) -> np.ndarray:
        """Flat numeric snapshot of all weights (for test fixtures)."""
        parts = [self.desired, self.interference, self.w1, self.b1,
                 self.w2, self.b2, self.w3, self.b3]
        return np.concatenate([p.ravel() for p in parts])


def init_model(h_ls: np.ndarray, stream: int, cfg: TrainConfig, seed) -> StructNetModel:
    """Initialize a stream's model from the LS estimate.

    The desired weights are the stream's realified channel column; the
    interference weights are the realified columns of all other realized
    streams, ordered per cfg.iil_order.  MLP weights are N(0, 0.1), biases 0.
    """
    h_ls = np.asarray(h_ls, dtype=complex)
    n_rx, n_tx = h_ls.shape
    if not 0 <= stream < 2 * n_tx:
        raise InvalidArgumentError(f"stream {stream} out of range")
    desired = realify_channel_column(h_ls[:, stream % n_tx], stream, n_tx)
    others = [j for j in range(2 * n_tx) if j != stream]
    interference = np.stack(
        [realify_channel_column(h_ls[:, j % n_tx], j, n_tx) for j in others]
    )
    if cfg.iil_order is IilOrder.DESCENDING_STRENGTH:
        order = np.argsort(-np.sum(interference**2, axis=1), kind="stable")
        interference = interference[order]
    rng = np.random.default_rng(seed)
    d = 2 * n_rx
    return StructNetModel(
        desired=desired,
        interference=interference,
        w1=rng.normal(0.0, 0.1, (cfg.n_h1, d)),
        b1=np.zeros(cfg.n_h1),
        w2=rng.normal(0.0, 0.1, (cfg.n_h2, cfg.n_h1)),
        b2=np.zeros(cfg.n_h2),
        w3=rng.normal(0.0, 0.1, (2, cfg.n_h2)),
        b3=np.zeros(2),
        iil_kind=cfg.iil_kind,
        iil_window=cfg.iil_window,
        eps_mod=cfg.eps_mod,
    )


def channel_layer_forward(model: StructNetModel, y_raw, shift: float) -> np.ndarray:
    """Shift the received vector along the desired channel: y + shift * h."""
    return np.asarray(y_raw, dtype=float) + shift * model.desired


def shift_grid(n_vectors: int, m_window: int, grid_cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """All integer shift tuples (m_1..m_K) in [-M, M]^K, shape (G, K)."""
    size = (2 * m_window + 1) ** n_vectors
    if size > grid_cap:
        raise ResourceLimitError(
            f"shift grid size {size} exceeds cap {grid_cap}"
        )
    if n_vectors == 0:
        return np.zeros((1, 0), dtype=int)
    axes = np.meshgrid(*([np.arange(-m_window, m_window + 1)] * n_vectors), indexing="ij")
    return np.stack(axes, axis=-1).reshape(size, n_vectors)


def iil_shifting_forward(z, interference, m_window: int,
                         grid_cap: int = DEFAULT_GRID_CAP) -> np.ndarray:
    """Truncated periodic sum: sum over the shift grid of tanh(z + 2 m . h)."""
    z = np.asarray(z, dtype=float)
    interference = np.asarray(interference, dtype=float).reshape(-1, z.shape[-1])
    grid = shift_grid(interference.shape[0], m_window, grid_cap)
    shifts = 2.0 * grid @ interference  # (G, D)
    return np.tanh(z[..., None, :] + shifts).sum(axis=-2)


def iil_modulo_forward(z, interference, eps: float):
    """Sequential elementwise modulo by 2*h_j; returns (output, quotient list).

    Entries of h_j with magnitude below eps are skipped (quotient 0).
    """
    z = np.asarray(z, dtype=float).copy()
    interference = np.asarray(interference, dtype=float).reshape(-1, z.shape[-1])
    alphas = []
    for h in interference:
        mask = np.abs(h) >= eps
        denom = np.where(mask, 2.0 * h, 1.0)
        alpha = np.where(mask, np.floor(z / denom), 0.0)
        z = z - 2.0 * h * alpha
        alphas.append(alpha)
    return z, alphas


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def classifier_forward(model: StructNetModel, z) -> np.ndarray:
    """Two-class probabilities (index 0: label -1, index 1: label +1)."""
    z = np.asarray(z, dtype=float)
    a1 = np.tanh(z @ model.w1.T + model.b1)
    a2 = np.tanh(a1 @ model.w2.T + model.b2)
    return _softmax(a2 @ model.w3.T + model.b3)


def iil_forward(model: StructNetModel, z) -> np.ndarray:
    if model.iil_kind is IilKind.MODULO:
        out, _ = iil_modulo_forward(z, model.interference, model.eps_mod)
        return out
    return iil_shifting_forward(z, model.interference, model.iil_window)


def model_forward(model: StructNetModel, y_raw, shift: float) -> np.ndarray:
    """Full pipeline: channel layer -> IIL -> binary classifier probabilities."""
    return classifier_forward(model, iil_forward(model, channel_layer_forward(model, y_raw, shift)))


def make_training_samples(pilot_pairs) -> list:
    """Two binary samples per pilot pair: labels +/-1 with shifts -x+1 and -x-1.

    The shift is stored, not pre-applied, so the gradient flows through the
    channel layer's current weights.
    """
    samples = []
    for x_pam, y_raw in pilot_pairs:
        x = float(x_pam)
        if x != round(x) or int(round(x)) % 2 == 0:
            raise InvalidArgumentError(f"{x_pam} is not a valid PAM level")
        y = np.asarray(y_raw, dtype=float)
        samples.append(TrainingSample(label=+1, y_raw=y, shift=-x + 1.0))
        samples.append(TrainingSample(label=-1, y_raw=y, shift=-x - 1.0))
    return samples


def sample_loss(model: StructNetModel, samples) -> float:
    """Mean binary cross-entropy of the current model over the samples."""
    total = 0.0
    for s in samples:
        p = model_forward(model, s.y_raw, s.shift)
        total -= np.log(p[1] if s.label > 0 else p[0])
    return float(total / len(samples))


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
        self.dtype = dtype
        self.desired = np.ascontiguousarray(desired, dtype=dtype)       # (B, D)
        self.interference = np.ascontiguousarray(interference, dtype=dtype)  # (B, K, D)
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = (
            np.ascontiguousarray(a, dtype=dtype) for a in mlp
        )
        self.labels = np.asarray(labels, dtype=int)                     # (S,) class indices
        self.lam = np.ascontiguousarray(lam, dtype=dtype)               # (B, S)
        self.y = np.ascontiguousarray(y, dtype=dtype)                   # (B, S, D)
        self.n_batch, self.n_samples, self.dim = self.y.shape
        if cfg.iil_kind is IilKind.SHIFTING:
            self.grid = shift_grid(self.interference.shape[1], cfg.iil_window,
                                   cfg.grid_cap).astype(dtype)

    # -- forward pieces -------------------------------------------------

    def _channel_out(self):
        return self.y + self.lam[:, :, None] * self.desired[:, None, :]

    def _iil_modulo(self, s):
        """Sequential modulo; returns (output, per-vector quotients)."""
        z = s
        alphas = []
        for k in range(self.interference.shape[1]):
            h = self.interference[:, k, :][:, None, :]  # (B, 1, D)
            mask = np.abs(h) >= self.cfg.eps_mod
            denom = np.where(mask, 2.0 * h, 1.0)
            alpha = np.where(mask, np.floor(z / denom), 0.0)
            z = z - 2.0 * h * alpha
            alphas.append(alpha)
        return z, alphas

    def _iil_shifting(self, s):
        """Sum over the shift grid; returns (output, per-chunk tanh arrays).

        The tanh arrays, (B, S, Gc, D) each, are the whole layer's backward
        cache: together they hold G*B*S*D values.
        """
        z = np.zeros_like(s)
        tanhs = []
        for start in range(0, self.grid.shape[0], self._CHUNK):
            grid_c = self.grid[start:start + self._CHUNK]  # (Gc, K)
            shifts = 2.0 * np.matmul(grid_c, self.interference)  # (B, Gc, D)
            t = np.tanh(s[:, :, None, :] + shifts[:, None, :, :])  # (B, S, Gc, D)
            z += t.sum(axis=2)
            tanhs.append(t)
        return z, tanhs

    def _iil_shifting_backward(self, tanhs, dz):
        """Gradients w.r.t. the layer input and the interference weights.

        Each cached t becomes dz * (1 - t^2) in place, so the cache is spent.
        """
        ds = np.zeros_like(dz)
        g_int = np.zeros_like(self.interference)
        for start, t in zip(range(0, self.grid.shape[0], self._CHUNK), tanhs):
            grid_c = self.grid[start:start + self._CHUNK]
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            u = np.multiply(dz[:, :, None, :], t, out=t)
            ds += u.sum(axis=2)
            g_int += 2.0 * np.matmul(grid_c.T, u.sum(axis=1))
        return ds, g_int

    def _mlp_forward(self, z):
        a1 = np.tanh(z @ self.w1.swapaxes(1, 2) + self.b1[:, None, :])
        a2 = np.tanh(a1 @ self.w2.swapaxes(1, 2) + self.b2[:, None, :])
        logits = a2 @ self.w3.swapaxes(1, 2) + self.b3[:, None, :]
        return a1, a2, _softmax(logits)

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
        return -np.log(np.maximum(picked, 1e-300)).mean(axis=1)

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

    def run_epochs(self, n_epochs: int) -> None:
        """Alternation: one classifier step, then one channel step, per epoch.

        The classifier step leaves the channel weights as they are, so both
        steps share one channel-layer and IIL forward.
        """
        cfg = self.cfg
        for _ in range(n_epochs):
            fwd = self._forward()
            # g_mlp stays bound until the next epoch's replaces it.  Freed at
            # the end of each epoch, its weight-sized arrays let malloc trim
            # the heap and fault it back in: ~500 page faults per epoch at
            # 64 subcarriers, 15-25% of the epoch.
            g_mlp = self._grads(fwd, channel=False)
            self.w1 -= cfg.lr_classifier * g_mlp["w1"]
            self.b1 -= cfg.lr_classifier * g_mlp["b1"]
            self.w2 -= cfg.lr_classifier * g_mlp["w2"]
            self.b2 -= cfg.lr_classifier * g_mlp["b2"]
            self.w3 -= cfg.lr_classifier * g_mlp["w3"]
            self.b3 -= cfg.lr_classifier * g_mlp["b3"]
            g = self._grads(fwd, mlp=False)
            del fwd  # the next epoch's forward must not overlap this cache
            self.desired -= cfg.lr_channel * g["desired"]
            if cfg.update_interference:
                self.interference -= cfg.lr_channel * g["interference"]


def _trainer_from_model(model: StructNetModel, samples, cfg: TrainConfig) -> _BatchTrainer:
    lam = np.array([[s.shift for s in samples]])
    y = np.stack([s.y_raw for s in samples])[None, :, :]
    labels = np.array([1 if s.label > 0 else 0 for s in samples])
    return _BatchTrainer(
        desired=model.desired[None, :],
        interference=model.interference[None, :, :],
        mlp=(model.w1[None], model.b1[None], model.w2[None],
             model.b2[None], model.w3[None], model.b3[None]),
        labels=labels,
        lam=lam,
        y=y,
        cfg=cfg,
    )


def train_epoch(model: StructNetModel, samples, cfg: TrainConfig) -> float:
    """One alternating epoch (classifier step, then channel step) in place.

    Returns the post-update mean cross-entropy loss.
    """
    if not samples:
        raise InvalidArgumentError("training requires at least one sample")
    trainer = _trainer_from_model(model, samples, cfg)
    trainer.run_epochs(1)
    model.desired = trainer.desired[0]
    model.interference = trainer.interference[0]
    model.w1, model.b1 = trainer.w1[0], trainer.b1[0]
    model.w2, model.b2 = trainer.w2[0], trainer.b2[0]
    model.w3, model.b3 = trainer.w3[0], trainer.b3[0]
    loss = float(trainer.loss()[0])
    if not np.isfinite(loss):
        raise TrainingDivergenceError(f"non-finite training loss ({loss})")
    return loss


def detect_multinomial(model: StructNetModel, y, posterior=None) -> np.ndarray:
    """4-PAM class probabilities for (-3, -1, +1, +3) via the shifting chain.

    `posterior`, when given, replaces the IIL + classifier: it maps the
    shifted received vector to the two binary-class probabilities.
    """
    if posterior is None:
        def posterior(z):
            return classifier_forward(model, iil_forward(model, z))
    ratios = []
    for shift in (2.0, 0.0, -2.0):
        p = np.asarray(posterior(channel_layer_forward(model, y, shift)), dtype=float)
        if p[0] <= 0.0 or p[1] <= 0.0:
            raise DegenerateRatioError("classifier produced a zero probability")
        ratios.append(p[0] / p[1])
    q1, q2, q3 = ratios
    raw = np.array([q1 * q2 * q3, q2 * q3, q3, 1.0])
    return raw / raw.sum()


def estimate_channel_structnet(y_p, x_p, cfg: TrainConfig, seed) -> np.ndarray:
    """Per-subframe channel estimate from pilots, all subcarriers at once.

    Initializes every stream's weights from the LS estimate, trains
    cfg.epochs alternating epochs per (subcarrier, stream), then reassembles
    the complex channel from the desired weights.  With cfg.epochs == 0 the
    output reproduces the LS estimate exactly.

    Each (subcarrier, stream) model trains on its own subcarrier's pilots
    only; frequency correlation across subcarriers (and the cyclic-prefix
    bound on the channel's delay support) is not used.
    """
    y_p = np.asarray(y_p, dtype=complex)   # (n_sc, N_r, N_p)
    x_p = np.asarray(x_p, dtype=complex)   # (n_sc, N_t, N_p)
    n_sc, n_rx, _ = y_p.shape
    n_tx = x_p.shape[1]
    h_ls = estimate_ls(y_p, x_p)           # (n_sc, N_r, N_t)
    def stream_column(j):
        col = h_ls[:, :, j % n_tx]
        if j < n_tx:
            return np.concatenate([col.real, col.imag], axis=1)
        return np.concatenate([-col.imag, col.real], axis=1)

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = ss.spawn(2 * n_tx)

    # All streams share sample count only when their antennas are active on
    # the same number of pilot slots (always true for both pilot patterns),
    # so every (subcarrier, stream) model trains in one batched pass.
    per_stream = []
    n_pairs_ref = None
    for i in range(2 * n_tx):
        antenna = i % n_tx
        slots = [p for p in range(x_p.shape[2]) if np.any(x_p[:, antenna, p] != 0)]
        if not slots:
            raise InvalidArgumentError(f"antenna {antenna} transmits no pilot symbol")
        if n_pairs_ref is None:
            n_pairs_ref = len(slots)
        elif len(slots) != n_pairs_ref:
            raise InvalidArgumentError("antennas differ in active pilot slot count")
        x_vals = x_p[:, antenna, slots].real if i < n_tx else x_p[:, antenna, slots].imag
        y_slots = np.transpose(y_p[:, :, slots], (0, 2, 1))  # (n_sc, P, N_r)
        y_real = np.concatenate([y_slots.real, y_slots.imag], axis=2)  # (n_sc, P, D)

        lam = np.empty((n_sc, 2 * len(slots)))
        lam[:, 0::2] = -x_vals + 1.0
        lam[:, 1::2] = -x_vals - 1.0
        y_samples = np.repeat(y_real, 2, axis=1)

        desired = stream_column(i)
        interference = np.stack([stream_column(j) for j in range(2 * n_tx) if j != i], axis=1)
        if cfg.iil_order is IilOrder.DESCENDING_STRENGTH:
            order = np.argsort(-np.sum(interference**2, axis=2), axis=1, kind="stable")
            interference = np.take_along_axis(interference, order[:, :, None], axis=1)

        rng = np.random.default_rng(seeds[i])
        d = 2 * n_rx
        mlp = (
            rng.normal(0.0, 0.1, (n_sc, cfg.n_h1, d)),
            np.zeros((n_sc, cfg.n_h1)),
            rng.normal(0.0, 0.1, (n_sc, cfg.n_h2, cfg.n_h1)),
            np.zeros((n_sc, cfg.n_h2)),
            rng.normal(0.0, 0.1, (n_sc, 2, cfg.n_h2)),
            np.zeros((n_sc, 2)),
        )
        per_stream.append((desired, interference, mlp, lam, y_samples))

    labels = np.tile([1, 0], n_pairs_ref)
    trainer = _BatchTrainer(
        desired=np.concatenate([p[0] for p in per_stream]),
        interference=np.concatenate([p[1] for p in per_stream]),
        mlp=tuple(np.concatenate([p[2][k] for p in per_stream]) for k in range(6)),
        labels=labels,
        lam=np.concatenate([p[3] for p in per_stream]),
        y=np.concatenate([p[4] for p in per_stream]),
        cfg=cfg,
    )
    if cfg.epochs > 0:
        trainer.run_epochs(cfg.epochs)
        losses = trainer.loss()
        if not np.all(np.isfinite(losses)):
            raise TrainingDivergenceError("non-finite loss during channel training")

    # (n_sc, N_r, N_t) from the 2*N_t per-stream weight sets.
    desired_all = [trainer.desired[i * n_sc:(i + 1) * n_sc] for i in range(2 * n_tx)]
    return complexify_channel(desired_all)

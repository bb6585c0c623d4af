"""Config-driven experiment runner: SNR sweeps, IIL runtime benchmark, CSV."""

import math
import os
import time
import typing
import warnings
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

from . import channel_sim, estimators, evaluation, signal_model, structnet
from .errors import CelabError, ConfigError, InvalidArgumentError, ResourceLimitError
from .signal_model import SubframeSpec
from .structnet import IilKind, TrainConfig


def _genie_filter(spec, pdp, sigma2, e_s):
    # The analytic correlation, factored: U diag(powers) U^H.
    r_true = estimators.FactoredCorr(0.0, channel_sim.dft_vectors(pdp, spec.n_sc),
                                     np.diag(pdp.powers))
    return estimators.lmmse_filter(r_true, sigma2 / e_s)


def _em_states(spec, pdp, sigma2, e_s):
    return {(r, t): estimators.EmLmmseState.initial(spec.n_sc)
            for r in range(spec.n_rx) for t in range(spec.n_tx)}


def _em_estimate(states, cell):
    est = np.empty_like(cell.h_ls)
    for (r, t), state in states.items():
        est[:, r, t] = estimators.estimate_em_lmmse(state, cell.h_ls[:, r, t],
                                                    cell.sigma2, cell.e_s)
        # Feeding the filter's own output back collapses the running
        # correlation to rank one (the first update replaces the identity
        # prior), so the running statistic accumulates the unbiased LS estimates.
        states[r, t] = estimators.update_empirical_correlation(state, cell.h_ls[:, r, t])
    return est


class _Cell(typing.NamedTuple):
    """What an estimator sees of one (subframe, SNR) cell."""
    h: np.ndarray          # true frequency response (n_sc, N_r, N_t)
    h_ls: np.ndarray       # the shared LS estimate; None when no method starts from it
    y_p: np.ndarray        # received pilots (n_sc, N_r, N_p)
    pilots: np.ndarray     # transmitted pilots (n_sc, N_t, N_p)
    sigma2: float
    e_s: float
    train: TrainConfig
    seed: np.random.SeedSequence


# {name: (per-SNR state init or None, estimate, starts from LS)}.  An init
# maps (spec, pdp, sigma2, e_s) to the state its estimate gets with each
# cell of that SNR; the shared LS estimate's time counts toward every method
# that starts from it.  Estimators are looked up in their modules per call.
_METHODS = {
    "LS": (None, lambda state, cell: cell.h_ls, True),
    "GenieLMMSE": (_genie_filter, lambda filt, cell: (
        filt @ cell.h_ls.reshape(cell.h_ls.shape[0], -1)).reshape(cell.h_ls.shape), True),
    "EmLMMSE": (_em_states, _em_estimate, True),
    "StructNetCE": (None, lambda state, cell: structnet.estimate_channel_structnet(
        cell.y_p, cell.pilots, cell.train, cell.seed, h_ls=cell.h_ls), True),
    "PerfectCSI": (None, lambda state, cell: cell.h, False),
}
METHODS = tuple(_METHODS)


@dataclass(frozen=True)
class ExperimentConfig:
    spec: SubframeSpec = SubframeSpec()
    qam_order: int = 16
    pdp_taps: int = 8
    pdp_decay: float = 3.0
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    n_subframes: int = 200
    methods: tuple[str, ...] = METHODS
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out: str = "results.csv"

    def __post_init__(self):
        if self.n_subframes < 1:
            raise ConfigError("n_subframes must be >= 1")
        if not self.snr_db:
            raise ConfigError("snr_db list must be nonempty")
        if self.pdp_taps < 1 or self.pdp_taps > self.spec.n_sc:
            raise ConfigError("pdp_taps must be in [1, n_sc]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for i, m in enumerate(self.methods):
            if m not in _METHODS:
                raise ConfigError(f"unknown method '{m}' for key 'methods'")
            if m in self.methods[:i]:
                raise ConfigError(f"duplicate method '{m}' for key 'methods'")
        try:
            _sweep_setup(self)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from exc


def _sweep_setup(cfg: ExperimentConfig):
    """The sweep's constellation, power delay profile and per-SNR noise variances."""
    const = signal_model.build_constellation(cfg.qam_order)
    pdp = channel_sim.exponential_pdp(cfg.pdp_taps, cfg.pdp_decay)
    return const, pdp, [evaluation.snr_to_noise_var(s, const, cfg.spec.n_tx) for s in cfg.snr_db]


@dataclass(frozen=True)
class ResultRow:
    method: str
    pilot_pattern: str
    snr_db: float
    mse: float
    ber: float
    subframes: int
    wall_time_s: float
    seed: int


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class BenchRow:
    n_tx: int
    iil: str
    epochs: int
    wall_time_s: float
    skipped: bool = False


PRESETS = {
    # Full-scale profile from the published experiment settings.
    "paper-table3": {
        "n_rx": "2", "n_tx": "2", "n_sc": "1024", "n_cp": "32",
        "n_sym": "14", "n_pilot": "2", "qam_order": "16",
        "n_h1": "16", "n_h2": "32",
    },
}

# Config keys are the field names of SubframeSpec, TrainConfig and
# ExperimentConfig, except these two.
_KEY_OF_FIELD = {"cp_len": "n_cp", "iil_kind": "iil"}

# {config key: (owning dataclass, field name, field type)}
_KEYS = {_KEY_OF_FIELD.get(name, name): (owner, name, kind)
         for owner in (SubframeSpec, TrainConfig, ExperimentConfig)
         for name, kind in typing.get_type_hints(owner).items()
         if not is_dataclass(kind)}

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_scalar(kind, text: str):
    """`text` as an int, a float (not NaN), a str or a member of an Enum."""
    if issubclass(kind, Enum):
        return kind(text.strip().lower())
    value = kind(text)
    if kind is float and math.isnan(value):
        raise ValueError("NaN")
    return value


def _parse_value(key: str, kind, text: str):
    """`text` as a value of type `kind`: a bool, a scalar, or a
    comma-separated tuple[scalar, ...]."""
    if kind is bool:
        word = text.strip().lower()
        if word not in _BOOL:
            raise ConfigError(f"bad boolean for key '{key}': {text}")
        return _BOOL[word]
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(_parse_scalar(item, v.strip()) for v in text.split(","))
        return _parse_scalar(kind, text)
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {text}") from exc


def config_from_items(items: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from raw key=value strings, with defaults."""
    kwargs = {SubframeSpec: {}, TrainConfig: {}, ExperimentConfig: {}}
    for key, text in items.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        owner, name, kind = _KEYS[key]
        kwargs[owner][name] = _parse_value(key, kind, text)
    try:
        spec = SubframeSpec(**kwargs[SubframeSpec])
        train = TrainConfig(**kwargs[TrainConfig])
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(spec=spec, train=train, **kwargs[ExperimentConfig])


def parse_config(path: str) -> ExperimentConfig:
    """Strict line-oriented key=value parser; unknown and repeated keys are
    rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IOError(f"cannot read config file {path}: {exc}") from exc
    items = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: malformed line '{line}'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        items[key] = value.strip()
    return config_from_items(items)


def run_sweep(cfg: ExperimentConfig):
    """Run every requested estimator over the sweep; one ResultRow per
    (method, SNR) aggregate.  Fully reproducible from (config, seed); all
    estimators see the identical Y and H within a subframe (paired design).

    A method that raises a `CelabError` in a cell stops at that SNR: its row
    reads NaN, and one `RuntimeWarning` names the method, the SNR, the
    subframe and the error.
    """
    spec = cfg.spec
    const, pdp, sigma2s = _sweep_setup(cfg)
    e_s = const.avg_energy
    methods = [(m, *_METHODS[m]) for m in cfg.methods]
    states = {(m, i): init(spec, pdp, s2, e_s)
              for m, init, _, _ in methods if init is not None
              for i, s2 in enumerate(sigma2s)}
    need_ls = any(from_ls for *_, from_ls in methods)

    acc = {
        (m, i): {"mse": 0.0, "errors": 0, "bits": 0, "time": 0.0, "failed": False}
        for m in cfg.methods
        for i in range(len(sigma2s))
    }

    for sf in range(cfg.n_subframes):
        ss = np.random.SeedSequence(entropy=(cfg.seed, sf))
        seeds = ss.spawn(2 + 2 * len(sigma2s))
        h = channel_sim.sample_channel(pdp, spec, seeds[0])
        grid = signal_model.generate_transmit_grid(spec, const, seeds[1])

        for i, sigma2 in enumerate(sigma2s):
            y = channel_sim.apply_channel(grid, h, channel_sim.NoiseSpec(sigma2),
                                          seeds[2 + 2 * i])
            y_p = y[:, :, :spec.n_pilot]
            y_d = y[:, :, spec.n_pilot:]
            h_ls, ls_time = None, 0.0
            if need_ls:
                t0 = time.perf_counter()
                h_ls = estimators.estimate_ls(y_p, grid.pilots)
                ls_time = time.perf_counter() - t0
            cell = _Cell(h.freq_response, h_ls, y_p, grid.pilots, sigma2, e_s, cfg.train,
                         seeds[3 + 2 * i])

            for method, _, estimate, from_ls in methods:
                slot = acc[(method, i)]
                if slot["failed"]:
                    continue
                try:
                    t0 = time.perf_counter()
                    est = estimate(states.get((method, i)), cell)
                    slot["time"] += time.perf_counter() - t0
                    if from_ls:
                        slot["time"] += ls_time

                    slot["mse"] += evaluation.compute_mse(h.freq_response, est)
                    x_hat = evaluation.equalize_lmmse(y_d, est, sigma2, e_s)
                    bits_est = signal_model.demodulate_hard(x_hat.ravel(), const)
                    err, tot, _ = evaluation.compute_ber(grid.data_bits, bits_est)
                    slot["errors"] += err
                    slot["bits"] += tot
                except CelabError as exc:
                    slot["failed"] = True
                    warnings.warn(f"{method} at {cfg.snr_db[i]:g} dB failed on subframe {sf}: "
                                  f"{type(exc).__name__}: {exc}", RuntimeWarning, stacklevel=2)

    rows = []
    for method in cfg.methods:
        for i, snr in enumerate(cfg.snr_db):
            slot = acc[(method, i)]
            if slot["failed"]:
                mse, ber = float("nan"), float("nan")
            else:
                mse = slot["mse"] / cfg.n_subframes
                ber = slot["errors"] / slot["bits"]
            rows.append(ResultRow(method, spec.pilot_pattern.value, float(snr), mse, ber,
                                  cfg.n_subframes, slot["time"], cfg.seed))
    return rows


def bench_iil(n_tx_list, kinds=(IilKind.SHIFTING, IilKind.MODULO), epochs=500,
              seed=0, m_window=3):
    """Wall-time of the training loop for single-subcarrier toy models.

    Interference is accounted per transmit antenna (n_tx - 1 vectors), so
    the shifting grid grows as (2M+1)^(n_tx-1).  A shifting configuration
    whose backward cache would exceed `structnet.CACHE_BYTE_CAP` is reported
    as skipped, before its grid is built; modulo rows are always produced.
    """
    if any(n_tx < 1 for n_tx in n_tx_list):
        raise InvalidArgumentError(f"every n_tx must be >= 1, got {n_tx_list}")
    rows = []
    rng = np.random.default_rng(seed)
    for n_tx in n_tx_list:
        dim = 2 * n_tx  # N_r = N_t toy setup
        desired = rng.normal(0.0, 0.5, (1, dim))
        interference = rng.normal(0.0, 0.5, (1, max(n_tx - 1, 0), dim))
        x_pam = rng.choice([-3.0, -1.0, 1.0, 3.0])
        labels, lam, y = structnet._binary_samples([[x_pam]], rng.normal(0.0, 1.0, (1, 1, dim)))
        for kind in kinds:
            cfg = TrainConfig(epochs=epochs, iil_kind=kind, iil_window=m_window)
            mlp = structnet._init_mlp(np.random.default_rng(seed + n_tx), 1, dim, cfg)
            try:
                trainer = structnet._BatchTrainer(
                    desired.copy(), interference.copy(), mlp, labels, lam, y, cfg,
                    dtype=np.float32)
            except ResourceLimitError:
                rows.append(BenchRow(n_tx=n_tx, iil=kind.value, epochs=epochs,
                                     wall_time_s=float("nan"), skipped=True))
                continue
            t0 = time.perf_counter()
            trainer.run_epochs(epochs)
            rows.append(BenchRow(n_tx=n_tx, iil=kind.value, epochs=epochs,
                                 wall_time_s=time.perf_counter() - t0))
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_csv(rows, path) -> None:
    """Fixed-schema CSV; floats carry 10 significant digits.  The rows go to a
    temporary file beside `path` that then replaces it, so a failed write
    leaves any earlier file at `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(",".join(_fmt(getattr(r, f.name)) for f in fields(ResultRow)) + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_csv(path):
    """Inverse of write_csv (round-trip at 10 significant digits)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise IOError(f"{path}: unexpected CSV header")
    kinds = typing.get_type_hints(ResultRow).values()
    return [ResultRow(*(kind(cell) for kind, cell in zip(kinds, ln.split(","), strict=True)))
            for ln in lines[1:]]

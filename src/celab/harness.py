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
    # One state over every (r, t) pair, boxed in a list so that `_em_estimate`
    # can replace it.
    return [estimators.EmLmmseState.initial(spec.n_sc)]


def _em_estimate(state, cell):
    pairs = cell.h_ls.reshape(cell.h_ls.shape[0], -1).T  # (N_r N_t, n_sc), (r, t) row-major
    est = estimators.estimate_em_lmmse(state[0], pairs, cell.sigma2, cell.e_s)
    # Feeding the filter's own output back collapses the running
    # correlation to rank one (the first update replaces the identity
    # prior), so the running statistic accumulates the unbiased LS estimates.
    state[0] = estimators.update_empirical_correlation(state[0], pairs)
    return est.T.reshape(cell.h_ls.shape)


class _Cell(typing.NamedTuple):
    """What an estimator sees of one (subframe, SNR) cell."""
    h: np.ndarray          # true frequency response (n_sc, N_r, N_t)
    h_ls: np.ndarray       # this SNR's slice of the subframe's LS; None where no method uses it
    y_p: np.ndarray        # received pilots (n_sc, N_r, N_p)
    pilots: np.ndarray     # transmitted pilots (n_sc, N_t, N_p)
    sigma2: float
    e_s: float
    train: TrainConfig
    seed: np.random.SeedSequence


# {name: (per-SNR state init or None, estimate, starts from LS)}.  An init
# maps (spec, pdp, sigma2, e_s) to the state its estimate gets with each
# cell of that SNR.  Methods that start from LS share the subframe's LS
# estimate (`run_sweep`).  Estimators are looked up in their modules per call.
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
    except (OSError, UnicodeDecodeError) as exc:
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

    Each subframe takes one channel product H X, to which each SNR adds its
    own noise, and is scored in one pass once every cell has its estimates:
    one LS call for all its SNRs, whose time is split evenly among them and
    counts toward every method that starts from LS, then one MSE, one
    equalizer, one demapper and one bit-error call over every surviving
    (method, SNR) estimate.  The LS call stacks the SNRs' received pilots
    along the receive-antenna axis against the one set of transmitted pilots:
    LS rows are independent, so each subcarrier's pilot Gram matrix is built
    and checked once, not once per SNR, and every estimate keeps its bytes.
    Each estimate's shape is checked in its own cell, before the stack.

    A method that raises a `CelabError` in a cell stops at that SNR: its row
    reads NaN, and one `RuntimeWarning` names the method, the SNR, the
    subframe and the error.  A failing LS estimate fails every method that
    starts from it, each in its own cell, and no other.  A subframe's
    equalizer failures are found by equalizing its cells one at a time, and
    warn after its estimate failures.  Once every cell has failed, the sweep
    draws no further subframe.

    The books are four (method, SNR) tables, indexed by the method's position
    in `cfg.methods` and the SNR's in `cfg.snr_db`: summed MSE, seconds, bit
    errors, and whether the cell has failed.  A cell's seconds are added as
    its estimate returns; each subframe adds its MSEs and bit errors with one
    indexed sum each, a cell appearing at most once.  A cell that has not
    failed was scored on every subframe, each with as many data bits, so its
    BER is its errors over n_subframes times that count; both are integers
    below 2^53, so the quotient is the correctly rounded one.
    """
    spec = cfg.spec
    const, pdp, sigma2s = _sweep_setup(cfg)
    e_s = const.avg_energy
    methods = [_METHODS[m] for m in cfg.methods]
    states = [[None if init is None else init(spec, pdp, s2, e_s) for s2 in sigma2s]
              for init, _, _ in methods]
    uses_ls = any(from_ls for *_, from_ls in methods)
    mse, seconds, errors, failed = (np.zeros((len(methods), len(sigma2s)), dtype=kind)
                                    for kind in (float, float, int, bool))

    def fail(j, i, sf, exc):
        failed[j, i] = True
        warnings.warn(f"{cfg.methods[j]} at {cfg.snr_db[i]:g} dB failed on subframe {sf}: "
                      f"{type(exc).__name__}: {exc}", RuntimeWarning, stacklevel=3)

    for sf in range(cfg.n_subframes):
        seeds = np.random.SeedSequence(entropy=(cfg.seed, sf)).spawn(2 + 2 * len(sigma2s))
        h = channel_sim.sample_channel(pdp, spec, seeds[0])
        grid = signal_model.generate_transmit_grid(spec, const, seeds[1])
        clean = channel_sim.apply_channel(grid, h, channel_sim.NoiseSpec(0.0), None)
        y = np.stack([channel_sim.add_noise(clean, channel_sim.NoiseSpec(sigma2), seeds[2 + 2 * i])
                      for i, sigma2 in enumerate(sigma2s)])  # (n_snr, n_sc, N_r, n_sym)
        del clean  # not held through the estimators, the learner's peak included
        y_p = y[..., :spec.n_pilot]

        # LS for every SNR at once: the received pilots stacked along the
        # receive axis (n_sc, n_snr N_r, N_p); each cell's estimate is a
        # contiguous (n_sc, N_r, N_t) slice of the result.
        h_ls, ls_error, ls_time = [None] * len(sigma2s), None, 0.0
        if uses_ls:
            t0 = time.perf_counter()
            try:
                h_ls = estimators.estimate_ls(np.concatenate(y_p, axis=1), grid.pilots)
                h_ls = np.ascontiguousarray(np.swapaxes(
                    h_ls.reshape(spec.n_sc, len(sigma2s), spec.n_rx, spec.n_tx), 0, 1))
            except CelabError as exc:
                ls_error = exc
            ls_time = (time.perf_counter() - t0) / len(sigma2s)

        scored, estimates = [], []  # (method, SNR) index of every cell still running; its estimate
        for i, sigma2 in enumerate(sigma2s):
            cell = _Cell(h.freq_response, h_ls[i], y_p[i], grid.pilots, sigma2, e_s, cfg.train,
                         seeds[3 + 2 * i])
            for j, (_, estimate, from_ls) in enumerate(methods):
                if failed[j, i]:
                    continue
                try:
                    if from_ls and ls_error is not None:
                        raise ls_error
                    t0 = time.perf_counter()
                    est = estimate(states[j][i], cell)
                    seconds[j, i] += time.perf_counter() - t0 + (ls_time if from_ls else 0.0)
                    if np.shape(est) != h.freq_response.shape:
                        raise InvalidArgumentError(f"estimate shape {np.shape(est)}, "
                                                   f"channel {h.freq_response.shape}")
                    scored.append((j, i))
                    estimates.append(est)
                except CelabError as exc:
                    fail(j, i, sf, exc)
        if not scored:  # every cell has failed: nothing is left to run
            break

        cells = tuple(np.transpose(scored))  # (method indices, SNR indices)
        h_hat = np.stack(estimates)
        mse[cells] += evaluation.compute_mse(h.freq_response, h_hat)
        y_d = y[..., spec.n_pilot:]
        snr = cells[1]
        try:
            x_hat = evaluation.equalize_lmmse(y_d[snr], h_hat, np.array(sigma2s)[snr, None], e_s)
        except CelabError:  # find the failing cells, one at a time
            x_hat = []
            for (j, i), est in zip(scored, estimates):
                try:
                    x_hat.append(evaluation.equalize_lmmse(y_d[i], est, sigma2s[i], e_s))
                except CelabError as exc:
                    fail(j, i, sf, exc)
            if not x_hat:  # every cell has failed
                break
            cells = tuple(np.transpose([c for c in scored if not failed[c]]))
        bits = signal_model.demodulate_hard(x_hat, const)
        errors[cells] += evaluation.compute_ber(grid.data_bits, bits.reshape(len(x_hat), -1))[0]

    # Every subframe's grid holds as many data bits as the last one's.
    mse = np.where(failed, np.nan, mse / cfg.n_subframes).tolist()
    ber = np.where(failed, np.nan, errors / (cfg.n_subframes * grid.data_bits.size)).tolist()
    return [ResultRow(method, spec.pilot_pattern.value, float(snr), mse[j][i], ber[j][i],
                      cfg.n_subframes, float(seconds[j, i]), cfg.seed)
            for j, method in enumerate(cfg.methods) for i, snr in enumerate(cfg.snr_db)]


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
    """Inverse of write_csv (round-trip at 10 significant digits).  A wrong
    header, or a row with the wrong number of fields or a field that does not
    parse, is an IOError naming the file (and the row's line)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise IOError(f"{path}: unexpected CSV header")
    kinds = typing.get_type_hints(ResultRow).values()
    rows = []
    for lineno, ln in lines[1:]:
        try:
            rows.append(ResultRow(*(k(v) for k, v in zip(kinds, ln.split(","), strict=True))))
        except ValueError as exc:
            raise IOError(f"{path}:{lineno}: malformed row '{ln}': {exc}") from exc
    return rows

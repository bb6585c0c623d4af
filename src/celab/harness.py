"""Config-driven experiment runner: SNR sweeps, IIL runtime benchmark, CSV."""

import time
from dataclasses import dataclass, field

import numpy as np

from . import channel_sim, estimators, evaluation, signal_model, structnet
from .errors import CelabError, ConfigError
from .signal_model import PilotPattern, SubframeSpec
from .structnet import IilKind, IilOrder, TrainConfig

METHODS = ("LS", "GenieLMMSE", "EmLMMSE", "StructNetCE", "PerfectCSI")
# Methods that start from the shared LS estimate; its time counts toward each.
LS_BASED = frozenset({"LS", "GenieLMMSE", "EmLMMSE"})

CSV_HEADER = "method,pilot_pattern,snr_db,mse,ber,subframes,wall_time_s,seed"


@dataclass(frozen=True)
class ExperimentConfig:
    spec: SubframeSpec = SubframeSpec()
    qam_order: int = 16
    pdp_taps: int = 8
    pdp_decay: float = 3.0
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    n_subframes: int = 200
    methods: tuple = METHODS
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out: str = "results.csv"


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

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, value: str):
    try:
        if key in ("n_rx", "n_tx", "n_sc", "n_cp", "n_sym", "n_pilot", "pdp_taps",
                   "n_subframes", "epochs", "iil_window", "seed", "n_h1", "n_h2"):
            return int(value)
        if key in ("pdp_decay", "lr_classifier", "lr_channel"):
            return float(value)
        if key == "snr_db":
            return tuple(float(v) for v in value.split(","))
        if key == "methods":
            methods = tuple(m.strip() for m in value.split(","))
            for m in methods:
                if m not in METHODS:
                    raise ConfigError(f"unknown method '{m}' for key 'methods'")
            return methods
        if key == "pilot_pattern":
            return PilotPattern(value.strip().lower())
        if key == "iil":
            return IilKind(value.strip().lower())
        if key == "iil_order":
            return IilOrder(value.strip().lower())
        if key == "update_interference":
            if value.strip().lower() not in _BOOL:
                raise ConfigError(f"bad boolean for key '{key}': {value}")
            return _BOOL[value.strip().lower()]
        if key in ("out", "qam_order"):
            return int(value) if key == "qam_order" else value
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}': {value}") from exc
    raise ConfigError(f"unknown config key '{key}'")


def config_from_items(items: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from raw key=value strings, with defaults."""
    parsed = {k: _parse_value(k, v) for k, v in items.items()}

    spec_kwargs = {}
    for key, attr in (("n_rx", "n_rx"), ("n_tx", "n_tx"), ("n_sc", "n_sc"),
                      ("n_cp", "cp_len"), ("n_sym", "n_sym"),
                      ("n_pilot", "n_pilot"), ("pilot_pattern", "pilot_pattern")):
        if key in parsed:
            spec_kwargs[attr] = parsed[key]
    train_kwargs = {}
    for key, attr in (("epochs", "epochs"), ("lr_classifier", "lr_classifier"),
                      ("lr_channel", "lr_channel"), ("iil", "iil_kind"),
                      ("iil_window", "iil_window"), ("iil_order", "iil_order"),
                      ("update_interference", "update_interference"),
                      ("n_h1", "n_h1"), ("n_h2", "n_h2")):
        if key in parsed:
            train_kwargs[attr] = parsed[key]
    top_kwargs = {}
    for key in ("qam_order", "pdp_taps", "pdp_decay", "snr_db", "n_subframes",
                "methods", "seed", "out"):
        if key in parsed:
            top_kwargs[key] = parsed[key]

    try:
        spec = SubframeSpec(**spec_kwargs)
        train = TrainConfig(**train_kwargs)
        cfg = ExperimentConfig(spec=spec, train=train, **top_kwargs)
        if cfg.qam_order not in (4, 16, 64):
            raise ConfigError(f"unsupported qam_order {cfg.qam_order}")
        if cfg.n_subframes < 1:
            raise ConfigError("n_subframes must be >= 1")
        if not cfg.snr_db:
            raise ConfigError("snr_db list must be nonempty")
        if cfg.pdp_taps < 1 or cfg.pdp_taps > spec.n_sc:
            raise ConfigError("pdp_taps must be in [1, n_sc]")
    except CelabError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    """Strict line-oriented key=value parser; unknown keys are rejected."""
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
        items[key] = value.strip()
    return config_from_items(items)


def run_sweep(cfg: ExperimentConfig):
    """Run every requested estimator over the sweep; one ResultRow per
    (method, SNR) aggregate.  Fully reproducible from (config, seed); all
    estimators see the identical Y and H within a subframe (paired design).
    """
    spec = cfg.spec
    const = signal_model.build_constellation(cfg.qam_order)
    pdp = channel_sim.exponential_pdp(cfg.pdp_taps, cfg.pdp_decay)
    e_s = const.avg_energy

    sigma2s = [evaluation.snr_to_noise_var(s, const, spec.n_tx) for s in cfg.snr_db]
    genie_filters = {}
    if "GenieLMMSE" in cfg.methods:
        r_true = channel_sim.analytic_freq_correlation(pdp, spec.n_sc)
        genie_filters = {
            i: estimators.lmmse_filter(r_true, s2 / e_s) for i, s2 in enumerate(sigma2s)
        }
    em_states = {
        (i, r, t): estimators.EmLmmseState.initial(spec.n_sc)
        for i in range(len(sigma2s))
        for r in range(spec.n_rx)
        for t in range(spec.n_tx)
        if "EmLMMSE" in cfg.methods
    }

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
            if set(cfg.methods) & LS_BASED:
                t0 = time.perf_counter()
                h_ls = estimators.estimate_ls(y_p, grid.pilots)
                ls_time = time.perf_counter() - t0

            for method in cfg.methods:
                slot = acc[(method, i)]
                if slot["failed"]:
                    continue
                try:
                    t0 = time.perf_counter()
                    if method == "LS":
                        est = h_ls
                    elif method == "PerfectCSI":
                        est = h.freq_response
                    elif method == "GenieLMMSE":
                        filt = genie_filters[i]
                        est = np.einsum("kl,lrt->krt", filt, h_ls)
                    elif method == "EmLMMSE":
                        est = np.empty_like(h_ls)
                        for r in range(spec.n_rx):
                            for t in range(spec.n_tx):
                                state = em_states[(i, r, t)]
                                vec = estimators.estimate_em_lmmse(
                                    state, h_ls[:, r, t], sigma2, e_s)
                                est[:, r, t] = vec
                                # Feeding the filter's own output back collapses the
                                # running correlation to rank one (the first update
                                # replaces the identity prior), so the running
                                # statistic accumulates the unbiased LS estimates.
                                em_states[(i, r, t)] = (
                                    estimators.update_empirical_correlation(
                                        state, h_ls[:, r, t]))
                    elif method == "StructNetCE":
                        est = structnet.estimate_channel_structnet(
                            y_p, grid.pilots, cfg.train, seeds[3 + 2 * i])
                    else:
                        raise ConfigError(f"unknown method {method}")
                    slot["time"] += time.perf_counter() - t0
                    if method in LS_BASED:
                        slot["time"] += ls_time

                    slot["mse"] += evaluation.compute_mse(h.freq_response, est)
                    x_hat = evaluation.equalize_lmmse(y_d, est, sigma2, e_s)
                    bits_est = signal_model.demodulate_hard(x_hat.ravel(), const)
                    err, tot, _ = evaluation.compute_ber(grid.data_bits, bits_est)
                    slot["errors"] += err
                    slot["bits"] += tot
                except CelabError:
                    slot["failed"] = True

    rows = []
    for method in cfg.methods:
        for i, snr in enumerate(cfg.snr_db):
            slot = acc[(method, i)]
            if slot["failed"] or slot["bits"] == 0:
                mse, ber = float("nan"), float("nan")
            else:
                mse = slot["mse"] / cfg.n_subframes
                ber = slot["errors"] / slot["bits"]
            rows.append(ResultRow(
                method=method,
                pilot_pattern=spec.pilot_pattern.value,
                snr_db=float(snr),
                mse=mse,
                ber=ber,
                subframes=cfg.n_subframes,
                wall_time_s=slot["time"],
                seed=cfg.seed,
            ))
    return rows


def bench_iil(n_tx_list, kinds=(IilKind.SHIFTING, IilKind.MODULO), epochs=500,
              seed=0, m_window=3, grid_cap=structnet.DEFAULT_GRID_CAP):
    """Wall-time of the training loop for single-subcarrier toy models.

    Interference is accounted per transmit antenna (n_tx - 1 vectors), so
    the shifting grid grows as (2M+1)^(n_tx-1).  Shifting configurations
    whose grid exceeds the cap are reported as skipped; modulo rows are
    always produced.
    """
    rows = []
    rng = np.random.default_rng(seed)
    for n_tx in n_tx_list:
        dim = 2 * n_tx  # N_r = N_t toy setup
        n_int = n_tx - 1
        desired = rng.normal(0.0, 0.5, (1, dim))
        interference = rng.normal(0.0, 0.5, (1, max(n_int, 0), dim))
        x_pam = rng.choice([-3.0, -1.0, 1.0, 3.0])
        y_raw = rng.normal(0.0, 1.0, (1, 1, dim))
        lam = np.array([[-x_pam + 1.0, -x_pam - 1.0]])
        labels = np.array([1, 0])
        y = np.repeat(y_raw, 2, axis=1)
        for kind in kinds:
            cfg = TrainConfig(epochs=epochs, iil_kind=kind, iil_window=m_window,
                              grid_cap=grid_cap)
            if kind is IilKind.SHIFTING:
                grid_size = (2 * m_window + 1) ** n_int
                if grid_size > grid_cap:
                    rows.append(BenchRow(n_tx=n_tx, iil=kind.value, epochs=epochs,
                                         wall_time_s=float("nan"), skipped=True))
                    continue
            mlp_rng = np.random.default_rng(seed + n_tx)
            mlp = (
                mlp_rng.normal(0.0, 0.1, (1, cfg.n_h1, dim)),
                np.zeros((1, cfg.n_h1)),
                mlp_rng.normal(0.0, 0.1, (1, cfg.n_h2, cfg.n_h1)),
                np.zeros((1, cfg.n_h2)),
                mlp_rng.normal(0.0, 0.1, (1, 2, cfg.n_h2)),
                np.zeros((1, 2)),
            )
            trainer = structnet._BatchTrainer(
                desired.copy(), interference.copy(), mlp, labels, lam, y, cfg,
                dtype=np.float32)
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
    """Fixed-schema CSV; floats carry 10 significant digits."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(",".join([
                    r.method, r.pilot_pattern, _fmt(r.snr_db), _fmt(r.mse),
                    _fmt(r.ber), str(r.subframes), _fmt(r.wall_time_s), str(r.seed),
                ]) + "\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def read_csv(path):
    """Inverse of write_csv (round-trip at 10 significant digits)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise IOError(f"{path}: unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        m, pat, snr, mse, ber, sub, wt, seed = ln.split(",")
        rows.append(ResultRow(
            method=m, pilot_pattern=pat, snr_db=float(snr), mse=float(mse),
            ber=float(ber), subframes=int(sub), wall_time_s=float(wt),
            seed=int(seed)))
    return rows

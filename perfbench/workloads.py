"""The benchmark's four workloads, each built through the lab's own config parser.

A workload runs in rounds: one round is one `harness.run_sweep` call over
`config.n_subframes` subframes at every SNR of the config, seeded from the
benchmark seed and the round index.  A *cell* is one (subframe, SNR) pair.
"""

from dataclasses import dataclass, replace

import numpy as np

from celab import harness

# Seeds of warm-up sweeps live apart from the round indices 0, 1, 2, ...
_WARMUP_BASE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: dict        # key=value items for harness.config_from_items
    min_rounds: int    # rounds every run makes; the MSE metrics use exactly these
    learned: str       # method reported as `mse.learned`

    @property
    def config(self) -> harness.ExperimentConfig:
        return harness.config_from_items(self.items)

    @property
    def cells_per_round(self) -> int:
        cfg = self.config
        return cfg.n_subframes * len(cfg.snr_db)

    def round_config(self, seed: int, index: int) -> harness.ExperimentConfig:
        return replace(self.config, seed=_derive(seed, index))

    def warmup_config(self, seed: int, index: int) -> harness.ExperimentConfig:
        """One cell at the first SNR with every method, training at most 2 epochs."""
        cfg = self.config
        return replace(cfg, n_subframes=1, snr_db=cfg.snr_db[:1],
                       train=replace(cfg.train, epochs=min(cfg.train.epochs, 2)),
                       seed=_derive(seed, _WARMUP_BASE + index))


def _derive(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="baselines-64",
        why="simulator, LS, LMMSE filters and equalizer at the default 64-subcarrier "
            "subframe with the learner idle",
        items={"methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI", "n_subframes": "20"},
        min_rounds=10,
        learned="EmLMMSE",
    ),
    Workload(
        name="structnet-modulo-64",
        why="the learner with the modulo IIL and 200 epochs, as the acceptance "
            "ledger runs it (c06) at 10, 15 and 20 dB",
        items={"methods": "LS,StructNetCE", "snr_db": "10,15,20", "n_subframes": "1"},
        min_rounds=8,
        learned="StructNetCE",
    ),
    Workload(
        name="structnet-shifting-64",
        # 200 epochs of the shifting layer take ~33 s per cell; 5 keep the
        # per-epoch profile (tanh over the 343-point grid) at ~1 s per cell.
        why="the learner with the shifting IIL (7^3 shift grid, 5 epochs), where "
            "the tanh over the grid is nearly all the time",
        items={"methods": "LS,StructNetCE", "snr_db": "10,15,20", "n_subframes": "1",
               "iil": "shifting", "epochs": "5"},
        min_rounds=8,
        learned="StructNetCE",
    ),
    Workload(
        name="paper-table3",
        # 200 epochs take ~21 s per cell; 20 keep the 1024-subcarrier trainer,
        # EmLMMSE's 1024x1024 solves and the preset's set-up within one run.
        why="the paper-table3 preset (1024 subcarriers) at 10 dB with all five "
            "methods and 20 epochs, where arrays no longer fit in cache",
        items={**harness.PRESETS["paper-table3"], "snr_db": "10", "n_subframes": "1",
               "epochs": "20"},
        min_rounds=5,
        learned="StructNetCE",
    ),
)}

"""Two SHA-256 digests per sweep config of its rows, `wall_time_s` masked,
for proving a refactor bit for bit: run it on two trees and compare the lines.

    python tests/csv_digests.py

The first digest hashes the CSV text `harness.write_csv` writes, whose floats
carry 10 significant digits; the second hashes the same rows with every float
written as `float.hex()`, so it sees a change in the last bit of any value.
Each config runs twice: as is, where the learner trains in one part per core,
and in one part, with `structnet._cores` patched to 1.  The lab is imported
from the `src` beside this file.  Not a test module: pytest does not collect
it.
"""

import hashlib
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from celab import harness, structnet  # noqa: E402

_LEARNER = {"snr_db": "10,20", "n_subframes": "2", "methods": "LS,StructNetCE", "seed": "7"}

# {name: config items}
CONFIGS = {
    "modulo-64": {**_LEARNER, "epochs": "200"},
    "shifting-64": {**_LEARNER, "iil": "shifting", "epochs": "3"},
    "c13": {"n_sc": "16", "n_subframes": "5", "snr_db": "0,10",
            "methods": "LS,GenieLMMSE,EmLMMSE,StructNetCE", "epochs": "5",
            "seed": "3", "pdp_taps": "4"},
    "paper-table3": {**harness.PRESETS["paper-table3"], "snr_db": "10", "n_subframes": "1",
                     "methods": ",".join(harness.METHODS), "epochs": "3", "seed": "7"},
    "orthogonal": {**_LEARNER, "n_sc": "32", "pilot_pattern": "orthogonal",
                   "iil_order": "given", "epochs": "20"},
    # n_pilot > n_tx: slot 2 is silent for every antenna, so each model
    # trains on the slots its antenna transmits in, not on every slot.
    "orthogonal-silent-slot": {**_LEARNER, "n_sc": "32", "pilot_pattern": "orthogonal",
                               "n_pilot": "3", "epochs": "20"},
    "three-antennas": {**_LEARNER, "n_sc": "32", "n_tx": "3", "n_pilot": "3",
                       "update_interference": "false", "iil": "shifting", "iil_window": "1",
                       "epochs": "20"},
    # 70 subframes: EmLMMSE's history folds to dense at the 64th.
    "baselines-64": {"snr_db": "0,10,20", "n_subframes": "70", "seed": "7",
                     "methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI"},
    # sigma^2 = 0 beside sigma^2 > 0 in one subframe; pins the noiseless branch.
    "noiseless": {"n_sc": "32", "snr_db": "10,inf", "n_subframes": "3", "seed": "7",
                  "methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI"},
    # N_r != N_t pins the (r, t) order of EmLMMSE's stacked state and LS's SNRs
    # stacked along the receive axis; 40 subframes: EmLMMSE folds at the 32nd.
    "rx3-tx2": {"n_rx": "3", "n_tx": "2", "n_sc": "32", "snr_db": "0,20,inf",
                "n_subframes": "40", "seed": "7",
                "methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI"},
    # N_r < N_t: at sigma^2 = 0 every inf-dB cell fails in the equalizer on
    # subframe 0, so its rows read NaN, while the 10 dB cells survive the
    # failed stacked call; pins the failure bookkeeping.
    "rank-deficient": {"n_rx": "1", "n_tx": "2", "n_sc": "16", "snr_db": "10,inf",
                       "n_subframes": "4", "seed": "7", "epochs": "3",
                       "methods": ",".join(harness.METHODS)},
}


def digests(rows) -> tuple:
    """(text, bytes) SHA-256 hex digests of sweep rows with every `wall_time_s`
    masked: of the CSV text, and of the rows with floats as `float.hex()`."""
    names = [f.name for f in fields(harness.ResultRow)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        harness.write_csv(rows, str(path))
        text = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    exact = [names] + [[v.hex() if isinstance(v, float) else str(v)
                        for v in (getattr(r, name) for name in names)] for r in rows]
    column = names.index("wall_time_s")
    hashes = []
    for table in (text, exact):
        for cells in table[1:]:
            cells[column] = "-"
        hashes.append(hashlib.sha256("\n".join(map(",".join, table)).encode()).hexdigest())
    return tuple(hashes)


def main() -> None:
    cores = structnet._cores
    for name, items in CONFIGS.items():
        for mode in ("as-is", "one-part"):
            structnet._cores = cores if mode == "as-is" else (lambda: 1)
            text, exact = digests(harness.run_sweep(harness.config_from_items(items)))
            print(f"{name:<16} {mode:<9} {text} {exact}", flush=True)
    structnet._cores = cores


if __name__ == "__main__":
    main()

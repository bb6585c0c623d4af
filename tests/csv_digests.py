"""One SHA-256 per sweep config of its CSV rows, `wall_time_s` masked, for
proving a refactor bit for bit: run it on two trees and compare the lines.

    python tests/csv_digests.py

Each config runs twice: as is, where the learner trains in one part per core,
and in one part, with `structnet._cores` patched to 1.  The lab is imported
from the `src` beside this file.  Not a test module: pytest does not collect
it.
"""

import hashlib
import sys
import tempfile
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
    "three-antennas": {**_LEARNER, "n_sc": "32", "n_tx": "3", "n_pilot": "3",
                       "update_interference": "false", "iil": "shifting", "iil_window": "1",
                       "epochs": "20"},
    # 70 subframes: EmLMMSE's history folds to dense at the 64th.
    "baselines-64": {"snr_db": "0,10,20", "n_subframes": "70", "seed": "7",
                     "methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI"},
}


def digest(items: dict) -> str:
    """SHA-256 of the sweep's CSV text with every `wall_time_s` cell masked."""
    rows = harness.run_sweep(harness.config_from_items(items))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        harness.write_csv(rows, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("wall_time_s")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[column] = "-"
        masked.append(",".join(cells))
    return hashlib.sha256("\n".join(masked).encode()).hexdigest()


def main() -> None:
    cores = structnet._cores
    for name, items in CONFIGS.items():
        for mode in ("as-is", "one-part"):
            structnet._cores = cores if mode == "as-is" else (lambda: 1)
            print(f"{name:<16} {mode:<9} {digest(items)}", flush=True)
    structnet._cores = cores


if __name__ == "__main__":
    main()

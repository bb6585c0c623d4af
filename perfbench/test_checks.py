"""Each output check must pass on a real sweep and fail on a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from celab import estimators, harness, structnet  # noqa: E402

BASELINES = harness.config_from_items(
    {"methods": "LS,GenieLMMSE,EmLMMSE,PerfectCSI", "n_subframes": "4", "seed": "3"})
LEARNER = harness.config_from_items(
    {"methods": "LS,StructNetCE", "snr_db": "10,20", "n_subframes": "2", "epochs": "3",
     "seed": "3"})


def _tally(cfg, rows=None):
    t = checks.Tally(cfg)
    t.add(harness.run_sweep(cfg) if rows is None else rows, cfg.n_subframes)
    return t


def _zeros_like_channel(y_p, x_p, *args, **kwargs):
    return np.zeros((y_p.shape[0], y_p.shape[1], x_p.shape[1]), dtype=complex)


@pytest.fixture(scope="module")
def baseline_rows():
    return harness.run_sweep(BASELINES)


@pytest.mark.parametrize("cfg", [BASELINES, LEARNER], ids=["baselines", "learner"])
def test_real_sweep_passes_every_check(cfg):
    t = _tally(cfg)
    assert checks.run_checks(t) == []
    assert t.cells == cfg.n_subframes * len(cfg.snr_db)
    assert t.failed_cells == 0


def test_ls_estimate_replaced_by_zeros(monkeypatch):
    monkeypatch.setattr(estimators, "estimate_ls", _zeros_like_channel)
    assert checks.ls_error_scales_with_noise(_tally(BASELINES))


def test_em_lmmse_estimate_replaced_by_zeros(monkeypatch):
    monkeypatch.setattr(estimators, "estimate_em_lmmse",
                        lambda state, h_ls, *a: np.zeros_like(h_ls))
    failures = checks.ber_better_than_chance(_tally(BASELINES))
    assert failures and all(f.startswith("EmLMMSE") for f in failures)


def test_structnet_estimate_replaced_by_zeros(monkeypatch):
    monkeypatch.setattr(structnet, "estimate_channel_structnet", _zeros_like_channel)
    t = _tally(LEARNER)
    assert checks.learner_stays_near_ls(t)
    assert checks.ber_better_than_chance(t)


def test_genie_no_better_than_ls(monkeypatch):
    monkeypatch.setattr(estimators, "lmmse_filter",
                        lambda r_hh, s2: np.eye(r_hh.shape[0], dtype=complex))
    assert checks.genie_beats_ls(_tally(replace(BASELINES, methods=("LS", "GenieLMMSE"))))


def test_perfect_csi_mse_not_zero(baseline_rows):
    rows = [replace(r, mse=1e-9) if r.method == "PerfectCSI" and r.snr_db == 10.0 else r
            for r in baseline_rows]
    assert checks.perfect_csi_exact(_tally(BASELINES, rows))


def test_ber_rising_with_snr(baseline_rows):
    ber = {r.snr_db: r.ber for r in baseline_rows if r.method == "LS"}
    rows = [replace(r, ber=ber[20.0 - r.snr_db]) if r.method == "LS" else r
            for r in baseline_rows]
    failures = checks.ber_falls_with_snr(_tally(BASELINES, rows))
    assert failures and all(f.startswith("LS") for f in failures)


def test_ber_below_perfect_csi(baseline_rows):
    perfect = {r.snr_db: r.ber for r in baseline_rows if r.method == "PerfectCSI"}
    rows = [replace(r, ber=0.5 * perfect[r.snr_db]) if r.method == "EmLMMSE" else r
            for r in baseline_rows]
    assert checks.ber_not_below_perfect_csi(_tally(BASELINES, rows))


@pytest.mark.parametrize("corrupt", ["drop", "nan"])
def test_missing_or_nonfinite_row(baseline_rows, corrupt):
    target = ("EmLMMSE", 5.0)
    rows = [r for r in baseline_rows if (r.method, r.snr_db) != target]
    if corrupt == "nan":
        rows.append(replace(next(r for r in baseline_rows
                                 if (r.method, r.snr_db) == target), mse=float("nan")))
    t = _tally(BASELINES, rows)
    assert checks.rows_present_and_finite(t)
    assert t.failed_cells == BASELINES.n_subframes


def test_tracer_reports_an_absent_trainer_stage_and_completes():
    targets = tracing.TARGETS + (
        (structnet._BatchTrainer, "_merged_step", "structnet.trainer.merged_step"),)
    original = harness.run_sweep
    with tracing.Tracer(targets) as tracer:
        rows = harness.run_sweep(LEARNER)
    assert harness.run_sweep is original
    assert tracer.absent == ["structnet.trainer.merged_step"]
    busy, calls, sweep_self_ns = tracer.totals()
    assert calls["structnet.trainer.grads"] == 2 * LEARNER.train.epochs * len(LEARNER.snr_db) \
        * LEARNER.n_subframes
    assert calls["structnet.trainer.merged_step"] == 0
    assert 0 < sweep_self_ns < busy["harness.run_sweep"]
    assert checks.run_checks(_tally(LEARNER, rows)) == []

import math
from dataclasses import fields, is_dataclass, replace

import pytest

from celab import cli, harness
from celab.errors import ConfigError, InvalidArgumentError, TrainingDivergenceError
from celab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    bench_iil,
    config_from_items,
    parse_config,
    read_csv,
    run_sweep,
    write_csv,
)
from celab.signal_model import PilotPattern, SubframeSpec
from celab.structnet import IilKind, IilOrder, TrainConfig


def _write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = "n_sc=8\nn_subframes=3\nsnr_db=10\nmethods=LS\nepochs=2\n"


class TestParseConfig:
    def test_minimal_file_with_defaults(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, "n_sc=64\nsnr_db=0,5,10,15,20\n"))
        assert cfg.spec.n_sc == 64
        assert cfg.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.spec.n_tx == 2 and cfg.qam_order == 16
        assert cfg.train.epochs == 200

    def test_range_check(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write_config(tmp_path, "n_pilot=0\n"))

    def test_paper_scale_profile_accepted(self, tmp_path):
        text = "\n".join(f"{k}={v}" for k, v in harness.PRESETS["paper-table3"].items())
        cfg = parse_config(_write_config(tmp_path, text + "\n"))
        assert cfg.spec.n_sc == 1024
        assert cfg.train.n_h1 == 16 and cfg.train.n_h2 == 32

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write_config(tmp_path, "bogus_key=1\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write_config(tmp_path, "n_sc 64\n"))

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(_write_config(tmp_path, "# comment\n\nn_sc=16\n"))
        assert cfg.spec.n_sc == 16

    def test_duplicate_key(self, tmp_path):
        path = _write_config(tmp_path, "n_sc=16\n# comment\nseed=1\nn_sc=32\n")
        with pytest.raises(ConfigError, match=f"^{path}:4: duplicate key 'n_sc'$"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(IOError):
            parse_config("/nonexistent/exp.cfg")

    def test_enums_and_bools(self):
        cfg = config_from_items(
            {"pilot_pattern": "orthogonal", "iil": "shifting", "update_interference": "no"}
        )
        assert cfg.spec.pilot_pattern is PilotPattern.ORTHOGONAL
        assert cfg.train.iil_kind is IilKind.SHIFTING
        assert cfg.train.update_interference is False

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            config_from_items({"methods": "LS,Oracle"})

    def test_duplicate_method(self):
        # Both entries would add into one accumulator slot, doubling the MSE.
        with pytest.raises(ConfigError, match="^duplicate method 'LS' for key 'methods'$"):
            config_from_items({"methods": "LS,PerfectCSI,LS"})

    def test_unknown_method_in_direct_config(self):
        with pytest.raises(ConfigError, match="unknown method 'Oracle'"):
            ExperimentConfig(methods=("Oracle",))

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_items({"seed": "-1"})
        with pytest.raises(ConfigError, match="seed"):
            replace(ExperimentConfig(), seed=-1)

    @pytest.mark.parametrize("key", ["n_h1", "n_h2"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_hidden_width_below_one(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_items({key: value})

    @pytest.mark.parametrize("key, text", [("snr_db", "nan"), ("snr_db", "0,NaN"),
                                           ("pdp_decay", "nan"), ("lr_channel", "nan")])
    def test_nan_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"^bad value for key '{key}': {text}$"):
            config_from_items({key: text})

    # Values the sweep's set-up refuses are refused when the config is built.
    @pytest.mark.parametrize("key, text, match", [
        ("qam_order", "8", "order 8"), ("pdp_decay", "0", "decay"),
        ("pdp_decay", "-1", "decay"), ("snr_db", "-inf", "snr_db"),
        ("snr_db", "10,-inf", "snr_db")])
    def test_sweep_setup_checked_when_built(self, key, text, match):
        with pytest.raises(ConfigError, match=match):
            config_from_items({key: text})

    def test_short_decay_accepted(self):
        # exp(-1/0.001) underflows to 0; the second tap is kept, tiny.
        cfg = config_from_items({"pdp_decay": "0.001", "pdp_taps": "2"})
        assert (cfg.pdp_decay, cfg.pdp_taps) == (0.001, 2)

    def test_minus_infinite_snr_rejected_by_replace(self):
        with pytest.raises(ConfigError, match="snr_db"):
            replace(ExperimentConfig(), snr_db=(-math.inf,))

    def test_infinite_snr_is_noiseless(self):
        cfg = config_from_items(
            {"n_sc": "8", "n_subframes": "2", "snr_db": "inf", "methods": "LS"})
        assert cfg.snr_db == (math.inf,)
        assert run_sweep(cfg)[0].mse < 1e-15


# Every config key, a non-default value for it, and the field it sets.
KEY_CASES = [
    ("n_tx", "3", "spec.n_tx", 3),
    ("n_rx", "3", "spec.n_rx", 3),
    ("n_sc", "32", "spec.n_sc", 32),
    ("n_sym", "10", "spec.n_sym", 10),
    ("n_pilot", "3", "spec.n_pilot", 3),
    ("n_cp", "8", "spec.cp_len", 8),
    ("pilot_pattern", " Orthogonal", "spec.pilot_pattern", PilotPattern.ORTHOGONAL),
    ("qam_order", "64", "qam_order", 64),
    ("pdp_taps", "5", "pdp_taps", 5),
    ("pdp_decay", "1.5", "pdp_decay", 1.5),
    ("snr_db", " 1, 2.5,inf", "snr_db", (1.0, 2.5, math.inf)),
    ("n_subframes", "7", "n_subframes", 7),
    ("methods", "PerfectCSI, LS", "methods", ("PerfectCSI", "LS")),
    ("epochs", "0", "train.epochs", 0),
    ("lr_classifier", "0.5", "train.lr_classifier", 0.5),
    ("lr_channel", "0.25", "train.lr_channel", 0.25),
    ("iil", "Shifting", "train.iil_kind", IilKind.SHIFTING),
    ("iil_window", "2", "train.iil_window", 2),
    ("iil_order", "given", "train.iil_order", IilOrder.GIVEN_ORDER),
    ("update_interference", " No", "train.update_interference", False),
    ("n_h1", "3", "train.n_h1", 3),
    ("n_h2", "4", "train.n_h2", 4),
    ("seed", "9", "seed", 9),
    ("out", "x.csv", "out", "x.csv"),
]


class TestConfigKeys:
    def test_keys_are_exactly_these(self):
        assert sorted(harness._KEYS) == sorted(key for key, *_ in KEY_CASES)

    def test_every_field_has_a_key(self):
        keyed = {(owner, name) for owner, name, _ in harness._KEYS.values()}
        assert [f"{owner.__name__}.{f.name}"
                for owner in (SubframeSpec, TrainConfig, ExperimentConfig)
                for f in fields(owner)
                if not is_dataclass(getattr(owner(), f.name))
                and (owner, f.name) not in keyed] == []

    @pytest.mark.parametrize("key, text, path, value", KEY_CASES,
                             ids=[case[0] for case in KEY_CASES])
    def test_key_sets_its_field_only(self, key, text, path, value):
        default = ExperimentConfig()
        part, _, name = path.rpartition(".")
        if part:
            assert getattr(getattr(default, part), name) != value
            expected = replace(default, **{part: replace(getattr(default, part),
                                                         **{name: value})})
        else:
            assert getattr(default, name) != value
            expected = replace(default, **{name: value})
        assert config_from_items({key: text}) == expected

    @pytest.mark.parametrize("key", ["eps_mod", "grid_cap", "cp_len", "iil_kind"])
    def test_field_names_without_a_key(self, key):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            config_from_items({key: "1"})


class TestRunSweep:
    def test_ls_noiseless_exact(self, tmp_path):
        cfg = config_from_items(
            {"n_sc": "8", "n_subframes": "3", "snr_db": "200", "methods": "LS"}
        )
        rows = run_sweep(cfg)
        assert len(rows) == 1
        assert rows[0].mse < 1e-15

    def test_genie_beats_ls(self):
        cfg = config_from_items(
            {"n_sc": "32", "n_subframes": "30", "snr_db": "5,15", "methods": "LS,GenieLMMSE"}
        )
        rows = {(r.method, r.snr_db): r for r in run_sweep(cfg)}
        for snr in (5.0, 15.0):
            assert rows[("GenieLMMSE", snr)].mse <= rows[("LS", snr)].mse

    def test_method_isolation(self):
        base = {"n_sc": "8", "n_subframes": "3", "snr_db": "10", "seed": "4"}
        alone = run_sweep(config_from_items({**base, "methods": "LS"}))
        paired = run_sweep(config_from_items({**base, "methods": "LS,PerfectCSI"}))
        ls_alone = [r for r in alone if r.method == "LS"][0]
        ls_paired = [r for r in paired if r.method == "LS"][0]
        assert ls_alone.mse == ls_paired.mse
        assert ls_alone.ber == ls_paired.ber

    def test_learner_reuses_the_sweep_ls_estimate(self, monkeypatch):
        calls = []
        for owner in (harness.estimators, harness.structnet):
            monkeypatch.setattr(owner, "estimate_ls",
                                lambda *a, f=owner.estimate_ls: calls.append(1) or f(*a))
        cfg = config_from_items({"n_sc": "8", "n_subframes": "3", "snr_db": "0,10",
                                 "methods": "LS,StructNetCE", "epochs": "2"})
        rows = run_sweep(cfg)
        assert len(calls) == cfg.n_subframes * len(cfg.snr_db)
        assert all(math.isfinite(r.mse) for r in rows)

    def test_perfect_csi_zero_mse(self):
        cfg = config_from_items(
            {"n_sc": "8", "n_subframes": "2", "snr_db": "10", "methods": "PerfectCSI"}
        )
        assert run_sweep(cfg)[0].mse == 0.0

    def test_row_schema(self):
        cfg = config_from_items(
            {"n_sc": "8", "n_subframes": "2", "snr_db": "0,10", "methods": "LS,PerfectCSI"}
        )
        rows = run_sweep(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r.pilot_pattern == "nonorthogonal"
            assert r.subframes == 2
            assert 0.0 <= r.ber <= 1.0

    def test_failed_cell_is_a_nan_row_and_a_warning(self, monkeypatch):
        # Calls run subframe by subframe, SNR by SNR: the third is subframe 1
        # at 10 dB, the only cell that fails.
        calls = []
        learner = harness.structnet.estimate_channel_structnet

        def diverging(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise TrainingDivergenceError("non-finite loss during channel training")
            return learner(*args, **kwargs)

        monkeypatch.setattr(harness.structnet, "estimate_channel_structnet", diverging)
        cfg = config_from_items({"n_sc": "8", "n_subframes": "3", "snr_db": "10,20",
                                 "methods": "LS,StructNetCE", "epochs": "1"})
        with pytest.warns(RuntimeWarning) as record:
            rows = {(r.method, r.snr_db): r for r in run_sweep(cfg)}
        assert [str(w.message) for w in record] == [
            "StructNetCE at 10 dB failed on subframe 1: "
            "TrainingDivergenceError: non-finite loss during channel training"]
        failed = rows[("StructNetCE", 10.0)]
        assert math.isnan(failed.mse) and math.isnan(failed.ber)
        assert failed.subframes == 3
        others = [r for key, r in rows.items() if key != ("StructNetCE", 10.0)]
        assert all(math.isfinite(r.mse) and math.isfinite(r.ber) for r in others)
        assert len(calls) == 5  # the failed SNR is skipped on subframe 2

    def test_nonfinite_estimate_is_a_nan_row_and_a_warning(self, monkeypatch):
        # The equalizer's conditioning check cannot run an SVD on a system
        # with a NaN entry; the cell fails with the lab's error, not numpy's.
        def with_nan(state, cell):
            h = cell.h.copy()
            h[0, 0, 0] = complex("nan")
            return h

        monkeypatch.setitem(harness._METHODS, "PerfectCSI", (None, with_nan, False))
        cfg = config_from_items({"n_sc": "8", "n_subframes": "3", "snr_db": "10",
                                 "methods": "LS,PerfectCSI"})
        with pytest.warns(RuntimeWarning) as record:
            rows = {r.method: r for r in run_sweep(cfg)}
        assert [str(w.message) for w in record] == [
            "PerfectCSI at 10 dB failed on subframe 0: "
            "NumericalFailureError: equalizer system singular or ill-conditioned"]
        assert math.isnan(rows["PerfectCSI"].mse) and math.isnan(rows["PerfectCSI"].ber)
        assert math.isfinite(rows["LS"].mse) and math.isfinite(rows["LS"].ber)


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_csv([], path)
        assert (tmp_path / "empty.csv").read_text() == CSV_HEADER + "\n"

    def test_single_row_round_trip(self, tmp_path):
        row = ResultRow(
            method="LS", pilot_pattern="orthogonal", snr_db=10.0,
            mse=0.1234567891234, ber=0.01, subframes=5, wall_time_s=1.5, seed=42,
        )
        path = str(tmp_path / "one.csv")
        write_csv([row], path)
        lines = (tmp_path / "one.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[0] == CSV_HEADER
        back = read_csv(path)[0]
        assert back.method == row.method
        assert back.snr_db == row.snr_db
        assert math.isclose(back.mse, row.mse, rel_tol=1e-9)
        assert back.seed == row.seed

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        row = ResultRow(
            method="LS", pilot_pattern="orthogonal", snr_db=10.0,
            mse=0.5, ber=0.01, subframes=5, wall_time_s=1.5, seed=42,
        )
        path = tmp_path / "out.csv"
        write_csv([row, row], str(path))
        before = path.read_text()
        with pytest.raises(AttributeError):
            write_csv([row, object()], str(path))
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_rows_round_trip_field_for_field(self, tmp_path):
        rows = [
            ResultRow("LS", "orthogonal", 10.0, 0.125, 0.5, 5, 1.5, 42),
            ResultRow("StructNetCE", "nonorthogonal", -3.5, 1.25e-12, 0.0, 200,
                      0.001234, 0),
            ResultRow("PerfectCSI", "nonorthogonal", math.inf, 0.0, 0.25, 1, 2.0, 7),
        ]
        path = str(tmp_path / "rows.csv")
        write_csv(rows, path)
        back = read_csv(path)
        assert back == rows
        assert all(type(getattr(b, name)) is type(getattr(r, name))
                   for b, r in zip(back, rows) for name in vars(r))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,snr\nLS,1\n")
        with pytest.raises(IOError):
            read_csv(str(path))


class TestBenchIil:
    def test_single_antenna_both_kinds(self):
        rows = bench_iil([1], epochs=3, seed=0)
        assert {r.iil for r in rows} == {"shifting", "modulo"}
        assert all(not r.skipped and r.wall_time_s >= 0 for r in rows)

    @pytest.mark.parametrize("n_tx_list", [[0], [-1], [2, 0]])
    def test_fewer_than_one_antenna_rejected(self, n_tx_list):
        with pytest.raises(InvalidArgumentError, match="n_tx"):
            bench_iil(n_tx_list, epochs=3)

    def test_cache_cap_marks_shifting_skipped(self):
        # 10 transmit antennas: 7^9 grid points x 2 samples x 20 reals in
        # float32, ~6.5 GB of cache, refused before the grid is built.
        import tracemalloc

        tracemalloc.start()
        try:
            rows = bench_iil([10], kinds=(IilKind.SHIFTING,), epochs=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[0].skipped
        assert math.isnan(rows[0].wall_time_s)
        assert peak < 50e6
        modulo = bench_iil([10], kinds=(IilKind.MODULO,), epochs=3)
        assert not modulo[0].skipped


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, SMALL)
        out_path = str(tmp_path / "rows.csv")
        assert cli.main(["run", "--config", cfg_path, "--out", out_path]) == 0
        rows = read_csv(out_path)
        assert len(rows) == 1 and rows[0].method == "LS"

    def test_seed_override(self, tmp_path):
        cfg_path = _write_config(tmp_path, SMALL + "seed=1\n")
        out = str(tmp_path / "a.csv")
        cli.main(["run", "--config", cfg_path, "--out", out, "--seed", "2"])
        assert read_csv(out)[0].seed == 2

    def test_bad_config_is_diagnosed(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, "bogus=1\n")
        assert cli.main(["run", "--config", cfg_path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_override_is_diagnosed(self, tmp_path, capsys):
        cfg_path = _write_config(tmp_path, SMALL)
        out = str(tmp_path / "a.csv")
        assert cli.main(["run", "--config", cfg_path, "--out", out, "--seed", "-1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_presets_list(self, capsys):
        assert cli.main(["presets", "--list"]) == 0
        assert "paper-table3" in capsys.readouterr().out

    def test_presets_show(self, capsys):
        assert cli.main(["presets", "--show", "paper-table3"]) == 0
        assert "n_sc=1024" in capsys.readouterr().out

    def test_bench_subcommand(self, capsys):
        assert cli.main(["bench-iil", "--sizes", "1", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "shifting" in out and "modulo" in out

    @pytest.mark.parametrize("sizes", ["2,x", "1.5", "", "0", "-1", "2,0"])
    def test_bench_bad_sizes_are_diagnosed(self, sizes, capsys):
        assert cli.main(["bench-iil", "--sizes", sizes, "--epochs", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

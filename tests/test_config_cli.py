"""Config round-trip, validation messages, and the CLI surface."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rissim import presets
from rissim.cli import main
from rissim.config import (
    ConfigError,
    ExperimentConfig,
    parse_text,
    serialize,
)


class TestRoundTrip:
    def test_default_config_round_trips(self):
        cfg = ExperimentConfig()
        assert parse_text(serialize(cfg)) == cfg

    def test_preset_configs_round_trip(self):
        for cfg in (
            presets.schedule_config(),
            presets.single_ue_config(0, ris_on=True),
            presets.single_ue_config(1, ris_on=False),
            presets.sweep_config(),
        ):
            assert parse_text(serialize(cfg)) == cfg

    @given(
        alpha=st.floats(1e-6, 0.99),
        ts=st.integers(1, 100000),
        seed=st.integers(0, 2**31),
        nu=st.floats(-60.0, 60.0),
    )
    @settings(max_examples=100)
    def test_randomized_round_trip(self, alpha, ts, seed, nu):
        cfg = presets.schedule_config()
        cfg = replace(
            cfg,
            sched=replace(cfg.sched, alpha=alpha),
            ris=replace(cfg.ris, ts_slots=ts),
            sim=replace(cfg.sim, seed=seed),
        )
        assert parse_text(serialize(cfg)) == cfg

    def test_comments_and_blanks_ignored(self):
        text = serialize(ExperimentConfig()) + "\n# trailing comment\n\n"
        assert parse_text(text) == ExperimentConfig()

    def test_optional_sections_round_trip(self):
        from rissim.config import ChannelConfig

        cfg = replace(
            ExperimentConfig(),
            ris=replace(ExperimentConfig().ris, angles=((10.0, 0.0), (60.0, 5.0)), probs=(0.25, 0.75), seed=9),
            chan=ChannelConfig(rician_k_db=12.0, coherence_slots=400),
        )
        assert parse_text(serialize(cfg)) == cfg


class TestValidation:
    def test_alpha_error_names_key(self):
        with pytest.raises(ConfigError, match="sched.alpha"):
            parse_text(serialize(ExperimentConfig()).replace(
                "sched.alpha = 5e-05", "sched.alpha = 1.5"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="nonsense.key"):
            parse_text("nonsense.key = 3\n")

    def test_bad_mode_names_key(self):
        with pytest.raises(ConfigError, match="ris.mode"):
            parse_text(serialize(ExperimentConfig()).replace(
                "ris.mode = periodic", "ris.mode = chaotic"))

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_text("this is not a config\n")


class TestCli:
    def test_beam_pattern_writes_csv(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "beam-pattern", "--steer-deg", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak=" in out and "sll=" in out
        csv = (tmp_path / "pattern_30deg.csv").read_text().splitlines()
        assert csv[0] == "angle_deg,gain_db"
        assert len(csv) > 100

    def test_schedule_run_emits_files(self, tmp_path):
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "--duration-s", "4",
                "--set", "sim.warmup_s=1",
                "--set", "ris.ts_slots=2000",
                "schedule",
            ]
        )
        assert rc == 0
        assert (tmp_path / "schedule_periodic_trace.csv").exists()
        assert (tmp_path / "schedule_periodic_summary.txt").exists()
        assert (tmp_path / "schedule_periodic_histogram.csv").exists()
        header = (tmp_path / "schedule_periodic_trace.csv").read_text().splitlines()[0]
        assert header == (
            "slot,time_ms,ris_state,ue,rsrp0_dbm,rsrp1_dbm,snr_db,mcs,tb_bits,outcome,is_retx"
        )

    def test_invalid_alpha_exits_with_config_code(self, capsys):
        rc = main(["schedule", "--alpha", "1.5"])
        assert rc == 2
        assert "sched.alpha" in capsys.readouterr().err

    def test_single_ue_summary(self, tmp_path, capsys):
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "--duration-s", "4",
                "--set", "sim.warmup_s=1",
                "single-ue", "--ue", "1", "--ris", "on",
            ]
        )
        assert rc == 0
        assert "throughput_mbps" in capsys.readouterr().out

    def test_config_file_round_trip_through_cli(self, tmp_path):
        cfg = presets.schedule_config(duration_s=4.0, warmup_s=1.0)
        cfg = replace(cfg, ris=replace(cfg.ris, ts_slots=2000))
        path = tmp_path / "run.cfg"
        path.write_text(serialize(cfg))
        rc = main(["--config", str(path), "--out-dir", str(tmp_path), "schedule"])
        assert rc == 0
        emitted = parse_text((tmp_path / "schedule_periodic_config.txt").read_text())
        assert emitted == cfg

    def test_histogram_file_matches_summary(self, tmp_path):
        # Swapped state angles: state 0 serves UE 1's direction.
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "--duration-s", "4",
                "--set", "sim.warmup_s=1",
                "--set", "ris.ts_slots=2000",
                "--set", "ris.angles=45:0,30:0",
                "schedule",
            ]
        )
        assert rc == 0
        summary = dict(
            line.split("=")
            for line in (tmp_path / "schedule_periodic_summary.txt").read_text().splitlines()
        )
        header, *rows = (tmp_path / "schedule_periodic_histogram.csv").read_text().splitlines()
        fields = {
            "aligned_fraction": "served_frac_aligned_dl",
            "misaligned_fraction": "served_frac_misaligned_dl",
            "aligned_fraction_total": "served_frac_aligned_total",
            "misaligned_fraction_total": "served_frac_misaligned_total",
        }
        assert header.split(",") == ["ue", *fields]
        assert len(rows) == 2
        for row in rows:
            ue, *values = row.split(",")
            for value, key in zip(values, fields.values()):
                assert value == summary[f"{key}.{ue}"]


class TestNonFinite:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("budget.tx_power_dbm", "nan"),
            ("budget.tx_power_dbm", "inf"),
            ("ue.noise_dbm", "nan,nan"),
            ("ue.noise_dbm", "-inf,-120"),
            ("chan.rician_k_db", "nan"),
        ],
    )
    def test_cli_rejects_with_config_code(self, tmp_path, capsys, key, value):
        rc = main(
            [
                "--out-dir", str(tmp_path),
                "--duration-s", "3",
                "--set", "sim.warmup_s=1",
                "--set", f"{key}={value}",
                "schedule",
            ]
        )
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_parse_names_key(self):
        text = serialize(ExperimentConfig()).replace(
            "budget.rsrp_offset_db = 0.0", "budget.rsrp_offset_db = -inf"
        )
        with pytest.raises(ConfigError, match="budget.rsrp_offset_db"):
            parse_text(text)

    def test_run_rejects_config_built_in_code(self):
        from rissim.engine import run

        cfg = presets.schedule_config(duration_s=1.0, warmup_s=0.0)
        cfg = replace(cfg, sim=replace(cfg.sim, duration_s=float("nan")))
        with pytest.raises(ConfigError, match="sim.duration_s"):
            run(cfg)

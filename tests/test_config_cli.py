"""Config round-trip, validation messages, and the CLI surface."""

import ast
import functools
import importlib
import io
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rissim import array_model, cells, cli, engine, presets
from rissim.cli import main
from rissim.config import (
    _RULES,
    MAX_SLOTS,
    MEMORY_BUDGET,
    PHASOR_BUILD_BYTES,
    RIS_MODES,
    SCHED_KINDS,
    SLOT_MS,
    ChannelConfig,
    ConfigError,
    ExperimentConfig,
    GeometryConfig,
    LaConfig,
    RisConfig,
    SIZE_KEYS,
    SIZE_RULE,
    SchedConfig,
    SimConfig,
    UeConfig,
    parse_text,
    run_bytes,
    serialize,
    to_flat,
    to_slots,
    validate,
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
            ris=replace(
                ExperimentConfig().ris,
                mode="iid",
                angles=((10.0, 0.0), (60.0, 5.0)),
                probs=(0.25, 0.75),
                seed=9,
            ),
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

    def test_empty_state_set_names_key(self):
        from rissim.engine import run

        cfg = presets.schedule_config()
        with pytest.raises(ConfigError, match="ris.angles: need at least one state"):
            run(replace(cfg, ris=replace(cfg.ris, angles=())))


class TestCli:
    def test_beam_pattern_writes_csv(self, tmp_path, capsys):
        rc = main(["--out-dir", str(tmp_path), "beam-pattern", "--steer-deg", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak=" in out and "sll=" in out
        csv = (tmp_path / "pattern_30deg.csv").read_text().splitlines()
        assert csv[0] == "angle_deg,gain_db"
        assert len(csv) > 100

    def test_beam_pattern_does_not_load_the_engine(self, tmp_path):
        # Nine targets: more than one evaluation block, so every path of the
        # block loop and the CSV cell builder runs.
        steers = [f"{5 * i}" for i in range(cli.BEAM_BLOCK + 1)]
        argv = ["--out-dir", str(tmp_path), "beam-pattern", "--grid-step-deg", "0.1"]
        argv += ["--steer-deg", *steers]
        code = (
            "import sys\n"
            "from rissim.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'rissim.engine' not in sys.modules, 'beam-pattern loaded rissim.engine'\n"
            # Calibrating a preset reads array_model alone.
            "from rissim import presets\n"
            "presets.schedule_config(), presets.single_ue_config(0), presets.sweep_config()\n"
            "assert 'rissim.engine' not in sys.modules, 'a preset loaded rissim.engine'\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.glob("*")) == sorted(
            f"pattern_{s}deg.csv" for s in steers
        )

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
        cfg = presets.schedule_config().with_overrides(
            {"sim.duration_s": "4", "sim.warmup_s": "1", "ris.ts_slots": "2000"}
        )
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


def _cell_lines(values) -> list[str]:
    """``cells.fixed4_cells`` of ``values`` as text, one line per value."""
    return cells.text_lines(cells.fixed4_cells(values), b"\n").tobytes().decode().splitlines()


class TestFixed4Cells:
    """``cells.fixed4_cells`` gives the text of ``f"{v:.4f}"`` for every value."""

    @staticmethod
    def assert_formats_like_python(values):
        values = np.asarray(values, dtype=float)
        got, want = _cell_lines(values), [f"{v:.4f}" for v in values.tolist()]
        assert len(got) == len(want)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not bad, bad[:5]

    def test_random_gains(self):
        # The span of beam-pattern's gain cells: 0 dB down to the 1e-12 floor.
        self.assert_formats_like_python(np.random.default_rng(28).uniform(-301.0, 0.0, 200_000))

    def test_binary_ties(self):
        # Odd multiples of 1/32 are the doubles whose value times 1e4 is
        # exactly a half-integer: Python rounds them half to even.
        values = np.arange(-301 * 32, 32 + 1) / 32
        assert (values[1::2] * 1e4 % 1 == 0.5).all()
        self.assert_formats_like_python(values)

    def test_products_near_a_half_integer(self):
        # The exact product is within 1e-9 of a half-integer, inside the
        # float product's rounding error: only Python can tell the side.
        rng = np.random.default_rng(29)
        halves = (rng.integers(-3_010_000, 10_000, 20_000) + 0.5) / 1e4
        jitter = rng.uniform(-1e-9, 1e-9, halves.size) / 1e4
        self.assert_formats_like_python(
            np.concatenate([
                halves,
                halves + jitter,
                np.nextafter(halves, np.inf),
                np.nextafter(halves, -np.inf),
            ])
        )

    def test_zeros_signs_and_the_gain_floor(self):
        floor_db = 20.0 * np.log10(np.maximum(0.0, 1e-12) / 1024)
        assert -300.3 < floor_db < -300.2
        self.assert_formats_like_python(
            [0.0, -0.0, -1e-9, 1e-9, -0.00004999, 0.00004999, -0.00005, floor_db, -floor_db]
        )

    def test_values_outside_the_fixed_point_range(self):
        self.assert_formats_like_python(
            [1e5, -1e5, 99999.99995, -123456.789, 1e300, -5e-324, np.inf, -np.inf, np.nan]
        )

    def test_empty(self):
        assert cells.fixed4_cells(np.array([])).shape[0] == 0


class TestSubcommandFlags:
    """Subcommand flags are overrides on top of ``--config``; output tags come
    from the config that ran."""

    @pytest.fixture
    def run_cfg(self, tmp_path):
        cfg = presets.schedule_config().with_overrides(
            {"sim.duration_s": "2", "sim.warmup_s": "0.5"}
        )
        path = tmp_path / "run.cfg"
        path.write_text(serialize(cfg))
        return cfg, path

    def test_schedule_flags_override_config_file(self, tmp_path, run_cfg):
        cfg, path = run_cfg
        argv = ["--config", str(path), "--out-dir", str(tmp_path / "out"), "schedule"]
        assert main([*argv, "--mode", "iid", "--alpha", "0.01"]) == 0
        emitted = parse_text((tmp_path / "out" / "schedule_iid_config.txt").read_text())
        assert emitted == replace(
            cfg, ris=replace(cfg.ris, mode="iid"), sched=replace(cfg.sched, alpha=0.01)
        )
        assert not list((tmp_path / "out").glob("schedule_periodic_*"))

    def test_schedule_tag_follows_config_file_mode(self, tmp_path, run_cfg):
        cfg, _ = run_cfg
        path = tmp_path / "off.cfg"
        path.write_text(serialize(replace(cfg, ris=replace(cfg.ris, mode="off"))))
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "schedule"]) == 0
        assert parse_text((tmp_path / "schedule_off_config.txt").read_text()).ris.mode == "off"

    def test_schedule_preset_flags_keep_the_preset(self, tmp_path):
        # Without --config the flags pick the preset: genie runs round robin.
        argv = ["--out-dir", str(tmp_path), "--duration-s", "0", "schedule"]
        assert main([*argv, "--mode", "genie", "--alpha", "0.01"]) == 0
        want = presets.schedule_config("genie").with_overrides(
            {"sched.alpha": "0.01", "sim.duration_s": "0"}
        )
        assert (tmp_path / "schedule_genie_config.txt").read_text() == serialize(want)

    def test_single_ue_ris_flag_overrides_config_file(self, tmp_path):
        cfg = presets.single_ue_config(1).with_overrides(
            {"sim.duration_s": "2", "sim.warmup_s": "0.5"}
        )
        path = tmp_path / "one.cfg"
        path.write_text(serialize(cfg))
        argv = ["--config", str(path), "--out-dir", str(tmp_path), "single-ue", "--ris", "off"]
        assert main(argv) == 0
        emitted = parse_text((tmp_path / "single_ue_off_config.txt").read_text())
        assert emitted == replace(cfg, ris=replace(cfg.ris, mode="off"))

    def test_single_ue_rejects_ue_with_config(self, tmp_path, capsys, run_cfg):
        _, path = run_cfg
        out = tmp_path / "out"
        argv = ["--config", str(path), "--out-dir", str(out), "single-ue", "--ue", "2", "--ris", "off"]
        assert main(argv) == 2
        assert "--ue" in capsys.readouterr().err
        assert not out.exists()

    def test_single_ue_needs_ue_without_config(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "single-ue", "--ris", "on"]) == 2
        assert "--ue" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_short_duration_error_names_the_duration(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--duration-s", "2", "schedule"]) == 2
        err = capsys.readouterr().err
        assert "sim.warmup_s" in err and "sim.duration_s = 2.0" in err
        assert not list(tmp_path.iterdir())

    def test_coherence_without_k_factor_exits_2_naming_it(self, tmp_path, capsys):
        # Without a K factor there is no scatter to redraw, so the cadence would be ignored.
        argv = [
            "--out-dir", str(tmp_path), "--duration-s", "1",
            "--set", "sim.warmup_s=0.2", "--set", "chan.coherence_slots=20", "schedule",
        ]
        assert main(argv) == 2
        assert "chan.coherence_slots" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main([*argv[:-1], "--set", "chan.rician_k_db=6", "schedule"]) == 0

    @pytest.mark.parametrize("mode", ["periodic", "genie", "off"])
    @pytest.mark.parametrize("key,value", [("ris.probs", "0.9,0.1"), ("ris.seed", "5")])
    def test_iid_keys_outside_iid_exit_2_naming_them(self, tmp_path, capsys, key, value, mode):
        # Only i.i.d. switching reads them; any other mode would ignore them.
        argv = [
            "--out-dir", str(tmp_path), "--duration-s", "2", "--set", "sim.warmup_s=0.5",
            "--set", f"{key}={value}", "schedule", "--mode", mode,
        ]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep_over_an_iid_config_with_its_keys(self, tmp_path):
        # The genie and no-surface reference rows run without the i.i.d. keys.
        argv = [
            "--out-dir", str(tmp_path), "--duration-s", "0.2", "--set", "sim.warmup_s=0.05",
            "--set", "ris.mode=iid", "--set", "ris.probs=0.9,0.1", "--set", "ris.seed=5",
            "sweep-alpha", "--alphas", "0.01",
        ]
        assert main(argv) == 0
        rows = (tmp_path / "sweep_alpha.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["random", "genie", "no_ris"]


class TestNonFinite:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("budget.tx_power_dbm", "nan"),
            ("budget.tx_power_dbm", "inf"),
            ("ue.noise_dbm", "nan,nan"),
            ("ue.noise_dbm", "-inf,-120"),
            ("chan.rician_k_db", "nan"),
            ("sim.seed", "-1"),
            ("ris.seed", "-1"),
            ("ris.probs", "0.6,0.6"),
            ("ris.probs", "-0.5,1.5"),
            ("ris.probs", "1.0"),  # one probability for two states
            ("ris.ts_slots", "0"),
            ("ris.ts_slots", "1" + "0" * 400),  # no float holds it (exit 3)
            ("sim.prbs", "274"),  # NR carries at most 273 PRBs
            ("sim.prbs", "1" + "0" * 320),  # no float holds its TB size (exit 3)
            # Finite keys whose link gain 10 ** ((tx - pathloss - noise) / 10) overflows.
            ("ue.pathloss_db", "-1e308,60"),
            ("budget.tx_power_dbm", "1e308"),
            ("ue.noise_dbm", "-1e308,-120"),
            # Finite keys whose ts-scaled slot count is not.
            ("la.window_ms", "1e308"),
            ("la.cqi_period_ms", "1e308"),
            ("sim.ts_scaling", "1e-310"),
            # Finite keys whose SNR |h|**2 x link gain overflows (|h|**2 raised
            # OverflowError), and an RSRP offset that wrote a 309-digit RSRP cell.
            ("ue.noris_gain", "1e200,0"),
            ("ue.direct_leak", "1e200+0j,0j"),
            ("ue.direct_leak", "1.7e308+1.7e308j,0j"),  # abs() itself overflows
            ("budget.rsrp_offset_db", "1e308"),
            # A K factor whose scatter scale divided by zero, or whose |h| ** 2 or
            # 10 ** (K / 10) overflowed (exit 3).
            ("chan.rician_k_db", "-4000"),
            ("chan.rician_k_db", "-3200"),
            ("chan.rician_k_db", "1e308"),
            # A spacing whose phases lost every bit: NaN RSRP, 0 bits acked, exit 0.
            ("geom.spacing_ratio", "1e308"),
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
                # Only i.i.d. switching reads the probabilities.
                *(["--mode", "iid"] if key == "ris.probs" else []),
            ]
        )
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--seed", "-5", "schedule"], "sim.seed"),
            (["--set", "ris.seed=-1", "schedule", "--mode", "iid"], "ris.seed"),
            # Checked with the config, before the output directory is made.
            (
                ["--set", "ris.angles=10:0,60:0", "schedule", "--mode", "genie"],
                "config error: ris.mode: genie requires a state aligned to every UE (ris.angles)\n",
            ),
            # Strong scatter on a huge link gain: an infinite SNR that exited 0.
            (
                ["--set", "ue.pathloss_db=-2900,60", "--set", "chan.rician_k_db=-200", "schedule"],
                "chan.rician_k_db",
            ),
        ],
    )
    def test_negative_seed_flags_exit_2_naming_the_key(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        base = ["--out-dir", str(out), "--duration-s", "3", "--set", "sim.warmup_s=1"]
        assert main([*base, *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        # Zero is a seed, and an unset ris.seed derives from sim.seed.
        cfg = _cli_config(["--set", "sim.seed=0", "--set", "ris.seed=0", "--set", "ris.mode=iid"])
        assert (cfg.sim.seed, cfg.ris.seed, ExperimentConfig().ris.seed) == (0, 0, None)

    def test_duration_without_a_finite_slot_count_exits_2(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "--duration-s", "1e308", "schedule"]) == 2
        assert "sim.duration_s" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_duration_past_the_trace_cap_exits_2(self, tmp_path, capsys):
        # The cap bounds Trace's six list cells per slot to 1 GiB.
        cap_s = MAX_SLOTS * SLOT_MS / 1000.0
        assert to_slots(cap_s) == MAX_SLOTS == 2**30 // 48
        base = ExperimentConfig()
        validate(replace(base, sim=replace(base.sim, duration_s=cap_s)))
        with pytest.raises(ConfigError, match="sim.duration_s"):
            validate(replace(base, sim=replace(base.sim, duration_s=math.nextafter(cap_s, 1e9))))
        assert main(["--out-dir", str(tmp_path), "--duration-s", "1e9", "schedule"]) == 2
        err = capsys.readouterr().err
        assert "sim.duration_s" in err and str(MAX_SLOTS) in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "key,build,hi",
        [
            # One channel epoch per slot: 148 bytes a slot, about 7.25 million slots.
            ("sim.duration_s", lambda n: ExperimentConfig(
                chan=ChannelConfig(rician_k_db=6.0, coherence_slots=1),
                sim=SimConfig(duration_s=n * SLOT_MS / 1000.0),
            ), MAX_SLOTS),
            ("geom.n_h", lambda n: ExperimentConfig(geom=GeometryConfig(n_h=n)), 2**30),
            ("geom.n_v", lambda n: ExperimentConfig(
                geom=GeometryConfig(n_v=n), chan=ChannelConfig(rician_k_db=6.0),
            ), 2**30),
            # About 64,000 states of 1,024 elements.
            ("ris.angles", lambda n: ExperimentConfig(
                ris=RisConfig(angles=((0.0, 0.0),) * n)
            ), 2**17),
        ],
    )
    def test_size_rule_just_inside_and_just_past_the_budget(self, key, build, hi):
        # The largest value of the key whose estimate fits, found on the estimate alone
        # below ``hi``, which is past it; neither side is simulated.
        lo = 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if run_bytes(build(mid)) <= MEMORY_BUDGET else (lo, mid)
        validate(build(lo))
        with pytest.raises(ConfigError) as raised:
            validate(build(hi))
        assert str(raised.value) == f"{SIZE_KEYS}: {SIZE_RULE}, got {run_bytes(build(hi))} bytes"
        assert key in SIZE_KEYS.split("/")
        if key == "sim.duration_s":
            assert to_slots(build(hi).sim.duration_s) == hi < MAX_SLOTS

    @pytest.mark.parametrize(
        "overrides",
        [
            ["--set", "geom.n_h=100000", "--set", "geom.n_v=100000"],
            ["--set", "ris.angles=" + ",".join(["30:0"] * 10_000), "--set", "geom.n_h=1000"],
            ["--duration-s", "11184", "--set", "chan.rician_k_db=6", "--set", "chan.coherence_slots=1"],
        ],
        ids=["surface", "states", "epochs"],
    )
    def test_runs_past_the_size_budget_exit_2_naming_the_keys(self, tmp_path, capsys, overrides):
        # Each validates without the size rule and would ask for gigabytes.
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *overrides, "schedule"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {SIZE_KEYS}: {SIZE_RULE}, got ")
        assert not out.exists()

    def test_every_preset_fits_the_size_budget(self):
        for cfg in (
            ExperimentConfig(),
            presets.schedule_config(),
            presets.sweep_config(),
            presets.single_ue_config(0, ris_on=True),
            presets.single_ue_config(1, ris_on=False),
        ):
            assert run_bytes(cfg) < MEMORY_BUDGET // 100

    def test_ten_thousand_states_at_32_by_32_fit_the_size_budget(self):
        cfg = ExperimentConfig(ris=RisConfig(angles=((30.0, 0.0),) * 10_000))
        validate(cfg)
        assert run_bytes(cfg) > PHASOR_BUILD_BYTES * 10_000 * 32 * 32

    @pytest.mark.parametrize(
        "geom,angles,duration_s,n_ues",
        [
            (GeometryConfig(n_h=400, n_v=400), None, 0.01, 2),
            (GeometryConfig(n_h=1, n_v=200_000), None, 0.01, 2),
            (GeometryConfig(n_h=128, n_v=128), tuple((0.5 * i, 0.0) for i in range(64)), 0.01, 2),
            (GeometryConfig(), None, 10.0, 1),
            (GeometryConfig(), None, 10.0, 2),
        ],
        ids=["2x400x400", "2x1x200000", "64x128x128", "10s_one_ue", "10s_two_ues"],
    )
    def test_run_peak_is_within_the_estimate(self, geom, angles, duration_s, n_ues):
        # From a cold design-offset cache: 20 slots of states x elements, and 10 s
        # static runs, longer than one summary chunk.  At 16 B per state and element,
        # before the phasor build was counted, the first three read 1.28, 1.25 and 2.77
        # times the estimate; without the chunk terms the 10 s runs read 2.7 and 1.7.
        cfg = ExperimentConfig(
            geom=geom,
            ues=ExperimentConfig().ues[:n_ues],
            ris=RisConfig(angles=angles),
            sim=SimConfig(duration_s=duration_s, warmup_s=0.0),
        )
        array_model.design_phase_offsets.cache_clear()
        tracemalloc.start()
        try:
            engine.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= run_bytes(cfg)

    def test_parse_names_key(self):
        text = serialize(ExperimentConfig()).replace(
            "budget.rsrp_offset_db = 0.0", "budget.rsrp_offset_db = -inf"
        )
        with pytest.raises(ConfigError, match="budget.rsrp_offset_db"):
            parse_text(text)

    def test_run_rejects_config_built_in_code(self):
        from rissim.engine import run

        cfg = presets.schedule_config()
        cfg = replace(cfg, sim=replace(cfg.sim, duration_s=float("nan"), warmup_s=0.0))
        with pytest.raises(ConfigError, match="sim.duration_s"):
            run(cfg)


# The benchmark's workloads, loaded without running the benchmark.
BENCH_WORKLOADS = runpy.run_path(
    str(Path(cli.__file__).resolve().parents[2] / "perfbench" / "run.py"), run_name="not_main"
)["WORKLOADS"]


def _bench_seed(spec) -> int:
    return 0 if spec.default_seed is None else spec.default_seed


class TestBenchmarkWorkloads:
    """Each ``perfbench/run.py`` workload's command line parses and builds a
    valid config, so a change that drops a flag or key it uses fails here."""

    @pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
    def test_cli_args_parse_into_a_valid_config(self, tmp_path, name):
        spec = BENCH_WORKLOADS[name]
        args = cli._build_parser().parse_args(spec.cli_args(_bench_seed(spec), tmp_path))
        base = {  # each subcommand's preset, as its handler picks it
            "beam-pattern": ExperimentConfig,
            "schedule": lambda: presets.schedule_config(mode=args.mode or "periodic"),
            "sweep-alpha": presets.sweep_config,
        }[args.command]
        if args.command == "beam-pattern":
            cli._check_beam_flags(args)
        validate(cli._config(args, base))


class TestBenchmarkWraps:
    """``perfbench/traced_child.py`` wraps functions by name and skips a name
    that does not resolve, so a rename would zero its per-layer metric."""

    # The (module, attribute) targets of its WRAPS that resolve.
    LIVE = [
        ("rissim.engine", "run"),
        ("rissim.engine", "build_link_tables"),
        ("rissim.engine", "write_trace_csv"),
        ("rissim.array_model", "pattern_gains"),
        ("rissim.cli", "beam_metrics"),
        ("rissim.cli", "pattern_gains"),
        ("rissim.presets", "schedule_config"),
        ("rissim.config", "from_flat"),
    ]

    def test_live_targets_still_resolve(self):
        tracer = Path(cli.__file__).resolve().parents[2] / "perfbench" / "traced_child.py"
        wraps = runpy.run_path(str(tracer), run_name="not_main")["WRAPS"]
        assert set(self.LIVE) <= {(module, path) for module, path, _, _ in wraps}
        for module, path in self.LIVE:
            owner = importlib.import_module(module)
            for attr in path.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), f"{module}.{path}"


class TestBenchmarkSetupProbe:
    """``perfbench/setup_child.py`` builds each workload's config through the
    preset API and runs it for zero slots."""

    @pytest.mark.parametrize(
        "argv",
        [spec.setup_args(_bench_seed(spec)) for spec in BENCH_WORKLOADS.values()],
        ids=" ".join,
    )
    def test_probe_prints_a_ready_line(self, argv):
        root = Path(cli.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        probe = root / "perfbench" / "setup_child.py"
        done = subprocess.run(
            [sys.executable, str(probe), *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "ready" in json.loads(done.stdout.splitlines()[-1])


class TestScripts:
    """The scripts call the preset and engine API; nothing else runs them."""

    root = Path(cli.__file__).resolve().parents[2]

    def test_show_calibration_prints_every_ue(self):
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        done = subprocess.run(
            [sys.executable, str(self.root / "scripts" / "show_calibration.py")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert sum(line.lstrip().startswith("UE") for line in done.stdout.splitlines()) == 4

    def test_single_ue_table_imports_resolve(self):
        names = runpy.run_path(
            str(self.root / "scripts" / "run_single_ue_table.py"), run_name="not_main"
        )
        assert names["run"] is engine.run and names["presets"] is presets


# Generated configs: every section field, 1..4 UEs, optional keys present or absent.
_finite_floats = st.floats(-50.0, 50.0)


@st.composite
def experiment_configs(draw):
    n_ues = draw(st.integers(1, 4))
    ues = tuple(
        UeConfig(
            nu_deg=draw(st.floats(-90.0, 90.0)),
            psi_deg=draw(st.floats(-90.0, 90.0)),
            pathloss_db=draw(st.floats(40.0, 120.0)),
            noise_dbm=draw(st.floats(-200.0, -130.0)),
            direct_leak=draw(
                st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
            ),
            noris_gain=draw(st.floats(0.0, 1.0)),
        )
        for _ in range(n_ues)
    )
    angles = draw(
        st.none()
        | st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-90.0, 90.0)), min_size=1, max_size=4)
        .map(tuple)
    )
    n_states = len(angles) if angles is not None else n_ues
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n_states, max_size=n_states))
    probs = draw(st.sampled_from([None, tuple(w / sum(weights) for w in weights)]))
    duration = draw(st.floats(0.0, 500.0))
    rician_k_db = draw(st.none() | _finite_floats)
    # Scatter redraws need a K factor: without one the cadence must stay 0.
    coherence_slots = 0 if rician_k_db is None else draw(st.integers(0, 10**4))
    cfg = ExperimentConfig(
        geom=GeometryConfig(
            n_h=draw(st.integers(1, 64)),
            n_v=draw(st.integers(1, 64)),
            spacing_ratio=draw(st.floats(0.01, 2.0)),
            dither=draw(st.booleans()),
        ),
        ues=ues,
        ris=RisConfig(
            mode=draw(st.sampled_from(RIS_MODES)),
            ts_slots=draw(st.integers(1, 10**6)),
            seed=draw(st.none() | st.integers(0, 2**63)),
            offset_slots=draw(st.integers(0, 10**4)),
            angles=angles,
            probs=probs,
        ),
        sched=SchedConfig(
            kind=draw(st.sampled_from(SCHED_KINDS)),
            alpha=draw(st.floats(1e-7, 0.49)),
            floor=draw(st.floats(1e-9, 1.0)),
        ),
        la=LaConfig(
            impl_margin_db=draw(_finite_floats),
            slope=draw(st.floats(0.01, 10.0)),
            cqi_backoff_db=draw(_finite_floats),
            window_ms=draw(st.floats(0.5, 1000.0)),
            cqi_period_ms=draw(st.floats(0.5, 1000.0)),
            bler_low=draw(st.floats(0.0, 0.49)),
            bler_high=draw(st.floats(0.5, 1.0)),
            mcs_min=draw(st.integers(0, 28)),
        ),
        sim=SimConfig(
            duration_s=duration,
            # Strictly below a positive duration, also where duration * f
            # rounds back up to it (subnormal durations).
            warmup_s=min(duration * draw(st.floats(0.0, 0.99)), math.nextafter(duration, 0.0)),
            seed=draw(st.integers(0, 2**63)),
            ts_scaling=draw(st.floats(0.1, 2.0)),
            prbs=draw(st.integers(1, 273)),
        ),
        chan=ChannelConfig(
            rician_k_db=rician_k_db,
            coherence_slots=coherence_slots,
        ),
        tx_power_dbm=draw(st.floats(0.0, 40.0)),
        rsrp_offset_db=draw(st.floats(-100.0, 100.0)),
    )
    # Only i.i.d. switching reads ris.seed and ris.probs; the other modes reject them.
    if cfg.ris.mode == "iid":
        return cfg
    # Genie needs a state at every UE's angles: the UE angles themselves.
    angles = None if cfg.ris.mode == "genie" else cfg.ris.angles
    return replace(cfg, ris=replace(cfg.ris, seed=None, probs=None, angles=angles))


def _cli_config(argv):
    """The config the CLI builds for ``argv`` on the default base."""
    return cli._config(cli._build_parser().parse_args([*argv, "beam-pattern"]), ExperimentConfig)


class TestGeneratedConfigs:
    @given(experiment_configs())
    @settings(max_examples=200, deadline=None)
    def test_text_round_trip(self, cfg):
        assert parse_text(serialize(cfg)) == cfg

    @given(experiment_configs())
    @settings(max_examples=50, deadline=None)
    def test_every_key_accepted_by_set(self, cfg):
        sets = [arg for k, v in to_flat(cfg).items() for arg in ("--set", f"{k}={v}")]
        assert _cli_config(sets) == cfg

    @given(st.from_regex(r"[a-z]{1,8}\.[a-z_]{1,12}", fullmatch=True))
    @settings(max_examples=50, deadline=None)
    def test_unknown_key_exits_2_naming_it(self, key):
        assume(key not in to_flat(_all_optional_keys_set()))
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main(["--set", f"{key}=1", "beam-pattern"])
        assert rc == 2
        assert key in err.getvalue()

    def test_seed_and_duration_flags_are_overrides(self):
        flags = _cli_config(["--seed", "17", "--duration-s", "30.5"])
        sets = _cli_config(["--set", "sim.seed=17", "--set", "sim.duration_s=30.5"])
        assert flags == sets == replace(
            ExperimentConfig(), sim=replace(ExperimentConfig().sim, seed=17, duration_s=30.5)
        )
        assert _cli_config(["--set", "sim.seed=5", "--seed", "17"]).sim.seed == 17


def _all_optional_keys_set():
    base = ExperimentConfig()
    return replace(
        base,
        ris=replace(
            base.ris, mode="iid", seed=3, angles=((30.0, 0.0), (45.0, 0.0)), probs=(0.5, 0.5)
        ),
        chan=ChannelConfig(rician_k_db=6.0, coherence_slots=20),
    )


# Ten targets whose beams on a 2-element row all have a -3 dB crossing
# inside 0 to 90 deg; a beam at 30 deg on that row has none.
FIRST_TEN = [f"{0.5 * i:g}" for i in range(10)]


class TestOneConfigPath:
    @pytest.mark.parametrize(
        "command",
        [["single-ue", "--ue", "1"], ["beam-pattern", "--steer-deg", "30"]],
    )
    def test_config_file_with_unknown_key_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense.key = 3\n")
        rc = main(["--config", str(path), "--out-dir", str(tmp_path / "out"), *command])
        assert rc == 2
        assert "nonsense.key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beam_pattern_reads_geometry(self, tmp_path):
        cfg = replace(ExperimentConfig(), geom=replace(ExperimentConfig().geom, n_h=16))
        path = tmp_path / "geom.cfg"
        path.write_text(serialize(cfg))
        coarse = ["beam-pattern", "--steer-deg", "30", "--grid-step-deg", "0.1"]
        for name, extra in (
            ("default", []),
            ("set", ["--set", "geom.n_h=16"]),
            ("file", ["--config", str(path)]),
        ):
            assert main(["--out-dir", str(tmp_path / name), *extra, *coarse]) == 0
        default, by_set, by_file = (
            (tmp_path / name / "pattern_30deg.csv").read_text() for name in ("default", "set", "file")
        )
        assert by_set != default
        assert by_file == by_set

    @pytest.mark.parametrize(
        "overrides,keys",
        [
            (["--seed", "5", "--set", "ris.mode=off"], ["sim.seed", "ris.mode"]),
            (["--duration-s", "3"], ["sim.duration_s"]),
            (["--set", "geom.n_h=16", "--set", "sched.alpha=0.1"], ["sched.alpha"]),
        ],
    )
    def test_beam_pattern_rejects_non_geometry_overrides(self, tmp_path, capsys, overrides, keys):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), *overrides, "beam-pattern", "--steer-deg", "30"])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err
        assert "beam-pattern takes only geom.* overrides" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--csv-step-deg", "-1"], "--csv-step-deg"),
            (["--csv-step-deg", "0"], "--csv-step-deg"),
            (["--csv-step-deg", "inf"], "--csv-step-deg"),
            (["--grid-step-deg", "5"], "--grid-step-deg"),
            (["--grid-step-deg", "0"], "--grid-step-deg"),
            (["--steer-deg", "95"], "--steer-deg"),
            (["--steer-deg", "-30"], "--steer-deg"),
            (["--steer-deg", "30", "nan"], "--steer-deg"),
            # Below the 0.001 deg floor; 1e-300 asks for a grid numpy cannot allocate.
            (["--csv-step-deg", "1e-300"], "--csv-step-deg"),
            (["--csv-step-deg", "0.0009"], "--csv-step-deg"),
            (["--grid-step-deg", "1e-300"], "--grid-step-deg"),
            (["--grid-step-deg", "0.0009"], "--grid-step-deg"),
            # Observation bases past the 1 GiB budget: (90,001 + 90,001) angles x 1,024
            # columns x 16 bytes, about 2.9 GB; and the default grids' 2,702 angles at
            # one column past the budget.
            (
                ["--set", "geom.n_h=1024", "--grid-step-deg", "0.001", "--csv-step-deg", "0.001"],
                "geom.n_h/--grid-step-deg/--csv-step-deg",
            ),
            (
                ["--set", f"geom.n_h={MEMORY_BUDGET // (2702 * 16) + 1}", "--set", "geom.n_v=1"],
                "geom.n_h/--grid-step-deg/--csv-step-deg",
            ),
        ],
    )
    def test_beam_pattern_rejects_bad_flags(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "out"
        # Leading --set overrides go before the subcommand, its flags after.
        sets = []
        while flags[:1] == ["--set"]:
            sets, flags = sets + flags[:2], flags[2:]
        rc = main(["--out-dir", str(out), *sets, "beam-pattern", "--steer-deg", "30", *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: must be")
        assert not out.exists()

    def test_beam_pattern_bound_counts_the_target_block(self, tmp_path, capsys, monkeypatch):
        # Eight targets of 32 x 2,000 elements under a 4 MiB budget: the default grids'
        # bases, 2,702 angles x 32 x 16 B, take about 1.4 MB of it, and one block's
        # phasors about 31.7 MB at their build peak (8 x 32 x 2,000 x 62 B).
        monkeypatch.setattr(cli, "MEMORY_BUDGET", 4 * 2**20)
        out = tmp_path / "out"
        steers = [f"{5 * i}" for i in range(cli.BEAM_BLOCK)]
        argv = ["--out-dir", str(out), "--set", "geom.n_v=2000", "beam-pattern"]
        assert main([*argv, "--steer-deg", *steers]) == 2
        assert "geom.n_v=2000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n_h,steers,written",
        [
            ("1", ["30"], []),
            ("2", ["0", "30"], ["pattern_0deg.csv"]),
            ("2", [*FIRST_TEN, "30"], sorted(f"pattern_{s}deg.csv" for s in FIRST_TEN)),
        ],
    )
    def test_beam_wider_than_the_grid_exits_2(self, tmp_path, capsys, n_h, steers, written):
        # A beam with no -3 dB crossing inside 0 to 90 deg has no width to report;
        # the targets before it keep their CSVs.
        out = tmp_path / "out"
        argv = ["--out-dir", str(out), "--set", f"geom.n_h={n_h}", "beam-pattern"]
        assert main([*argv, "--steer-deg", *steers]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --steer-deg 30: ")
        assert f"geom.n_h={n_h}" in err and "geom.spacing_ratio=0.25" in err
        assert out.exists() == bool(written)  # made only for a CSV to write
        assert sorted(path.name for path in out.glob("*")) == written

    def test_targets_before_a_degenerate_one_keep_their_output(self, tmp_path, capsys):
        # Ten targets fill more than one evaluation block; the failing one comes
        # after them, in the second block.  The output before it is exactly that
        # of a run of the ten alone, stdout line by line, in order.
        argv = ["--set", "geom.n_h=2", "beam-pattern", "--steer-deg", *FIRST_TEN]
        assert main(["--out-dir", str(tmp_path / "clean"), *argv]) == 0
        clean = capsys.readouterr().out.replace(str(tmp_path / "clean"), "<out>")
        assert main(["--out-dir", str(tmp_path / "cut"), *argv, "30", "5"]) == 2
        cut = capsys.readouterr()
        assert cut.out.replace(str(tmp_path / "cut"), "<out>") == clean
        assert len(clean.splitlines()) == 10
        assert cut.err.startswith("config error: --steer-deg 30: ")
        for steer in FIRST_TEN:
            name = f"pattern_{steer}deg.csv"
            assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
        assert len(list((tmp_path / "cut").glob("*"))) == 10

    @pytest.mark.parametrize(
        "step,n_rows,last", [("7", 13, "84.0000"), ("0.7", 129, "89.6000"), ("0.25", 361, "90.0000")]
    )
    def test_beam_pattern_csv_ends_within_90_deg(self, tmp_path, step, n_rows, last):
        argv = ["--out-dir", str(tmp_path), "beam-pattern", "--steer-deg", "30"]
        assert main([*argv, "--grid-step-deg", "0.1", "--csv-step-deg", step]) == 0
        header, *rows = (tmp_path / "pattern_30deg.csv").read_text().splitlines()
        angles = [row.split(",")[0] for row in rows]
        assert len(rows) == n_rows
        assert angles[0] == "0.0000" and angles[-1] == last


ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


class TestReadmeKeys:
    def test_readme_lists_every_flat_key(self):
        listed = re.findall(r"^\| `([a-z_]+\.[a-z_]+)`", README, flags=re.MULTILINE)
        assert len(listed) == len(set(listed))
        assert set(listed) == set(to_flat(_all_optional_keys_set()))

    def test_readme_states_every_rule(self):
        # Each ranged key's row states its rule's requirement word for word,
        # the text of the error that rejects it.
        rows = dict(re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|(.*)$", README, flags=re.MULTILINE))
        assert [f"{key}: {need}" for key, (need, _) in _RULES.items() if need not in rows[key]] == []

    def test_readme_states_the_size_rule(self):
        # Word for word, as the error that rejects a config over the budget reads.
        assert f"{SIZE_KEYS}: {SIZE_RULE}" in README.replace("\n", " ")


def _unresolved(spans) -> list[str]:
    """The ``(module, name)`` pairs that name no attribute of a rissim module."""
    unresolved = []
    for module, name in spans:
        try:
            getattr(importlib.import_module(f"rissim.{module}"), name)
        except (ImportError, AttributeError):
            unresolved.append(f"{module}.{name}")
    return unresolved


def _docstrings(path: Path) -> list[tuple[str, str | None]]:
    """The module, class and function docstrings of one source file, each
    with the name of its class (a class's own, or its method's), else None."""
    tree = ast.parse(path.read_text())
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    nodes = [tree, *(node for node in ast.walk(tree) if isinstance(node, defs))]
    owner = {}
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            owner[node] = node.name
            owner.update((item, node.name) for item in node.body if isinstance(item, defs))
    return [(doc, owner.get(node)) for node in nodes if (doc := ast.get_docstring(node))]


def _resolves(scopes, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute (or an attribute's attribute)
    of any of ``scopes``."""
    for scope in scopes:
        try:
            functools.reduce(getattr, dotted.split("."), scope)
        except AttributeError:
            continue
        return True
    return False


class TestReadmeNames:
    def test_backticked_module_names_resolve(self):
        # Every `<word>.<name>` span but a config key, a file name or an
        # outside module's names a rissim module and something it defines.
        sections = {key.split(".")[0] for key in to_flat(_all_optional_keys_set())}
        skip = sections | {"np", "dataclasses"}
        spans = re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)", README)
        assert _unresolved(
            (module, name) for module, name in spans
            if module not in skip and name not in ("csv", "py")
        ) == []

    def test_backticked_class_names_resolve(self):
        # Every `<Class>.<name>` span names a rissim class and one of its
        # attributes, or an attribute of its instances (`Trace.rsrp`), read
        # from the objects a short run returns.
        package = ROOT / "src" / "rissim"
        modules = [importlib.import_module(f"rissim.{path.stem}") for path in package.glob("*.py")]
        cfg = presets.schedule_config().with_overrides({"sim.duration_s": "0.01", "sim.warmup_s": "0"})
        instances = {type(obj).__name__: obj for obj in engine.run(cfg)}
        spans = re.findall(r"`([A-Z]\w*)\.([A-Za-z_]\w*)", README)
        assert spans
        unresolved = [
            f"{cls}.{name}" for cls, name in spans
            if not _resolves([getattr(m, cls) for m in modules if hasattr(m, cls)], name)
            and not (cls in instances and _resolves([instances[cls]], name))
        ]
        assert unresolved == []

    def test_backticked_docstring_names_resolve(self):
        # Every backticked `<module>.<name>` span in a docstring, with or
        # without a `rissim.` prefix, whose module is a rissim module names
        # something that module defines.  A Sphinx role without a module
        # prefix (:func:`name`, :meth:`Class.name`) names something in the
        # docstring's module, or in its class for a class or method docstring.
        package = ROOT / "src" / "rissim"
        modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
        files = {f"rissim.{path.stem}": path for path in sorted(package.glob("*.py"))}
        files["reference_engine"] = ROOT / "tests" / "reference_engine.py"
        spans, roles = [], []
        for module_name, path in files.items():
            module = importlib.import_module(module_name)
            for doc, cls in _docstrings(path):
                spans += [
                    span for span in re.findall(r"`(?:rissim\.)?([a-z_]+)\.([A-Za-z_]\w*)", doc)
                    if span[0] in modules
                ]
                roles += [
                    (module_name, target, [getattr(module, cls), module] if cls else [module])
                    for target in re.findall(r":(?:func|meth|class|data):`~?([\w.]+)`", doc)
                    if target.split(".")[0] not in modules | {"rissim"}
                ]
        assert spans and roles
        assert _unresolved(spans) == []
        assert [f"{m}: {target}" for m, target, scopes in roles if not _resolves(scopes, target)] == []


class TestReadmeCommands:
    def test_experiment_commands_parse(self):
        section = README.split("## Experiment commands", 1)[1].split("\n## ", 1)[0]
        commands = [line for line in section.splitlines() if line.startswith("rissim ")]
        assert len(commands) == 3
        parser = cli._build_parser()
        for line in commands:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command in ("beam-pattern", "schedule", "sweep-alpha"), line

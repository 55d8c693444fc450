"""Config round-trip, validation messages, and the CLI surface."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rissim import cli, presets
from rissim.cli import main
from rissim.config import (
    RIS_MODES,
    SCHED_KINDS,
    ChannelConfig,
    ConfigError,
    ExperimentConfig,
    GeometryConfig,
    LaConfig,
    RisConfig,
    SchedConfig,
    SimConfig,
    UeConfig,
    parse_text,
    serialize,
    to_flat,
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

    def test_beam_pattern_does_not_load_the_engine(self, tmp_path):
        argv = ["--out-dir", str(tmp_path), "beam-pattern", "--grid-step-deg", "0.1"]
        code = (
            "import sys\n"
            "from rissim.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert 'rissim.engine' not in sys.modules, 'beam-pattern loaded rissim.engine'\n"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "pattern_30deg.csv").exists()

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

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--seed", "-5", "schedule"], "sim.seed"),
            (["--set", "ris.seed=-1", "schedule", "--mode", "iid"], "ris.seed"),
        ],
    )
    def test_negative_seed_flags_exit_2_naming_the_key(self, tmp_path, capsys, argv, key):
        base = ["--out-dir", str(tmp_path), "--duration-s", "3", "--set", "sim.warmup_s=1"]
        assert main([*base, *argv]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # Zero is a seed, and an unset ris.seed derives from sim.seed.
        cfg = _cli_config(["--set", "sim.seed=0", "--set", "ris.seed=0"])
        assert (cfg.sim.seed, cfg.ris.seed, ExperimentConfig().ris.seed) == (0, 0, None)

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


class TestBenchmarkSetupProbe:
    """``perfbench/setup_child.py`` builds each workload's config through the
    preset API and runs it for zero slots."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "periodic", "1"],
            ["schedule", "iid", "1", "chan.rician_k_db=6", "chan.coherence_slots=20"],
            ["sweep", "periodic", "7"],
            ["beam", "-", "0"],
        ],
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
    return ExperimentConfig(
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
        ris=replace(base.ris, seed=3, angles=((30.0, 0.0), (45.0, 0.0)), probs=(0.5, 0.5)),
        chan=ChannelConfig(rician_k_db=6.0, coherence_slots=20),
    )


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
        ],
    )
    def test_beam_pattern_rejects_bad_flags(self, tmp_path, capsys, flags, flag):
        out = tmp_path / "out"
        rc = main(["--out-dir", str(out), "beam-pattern", "--steer-deg", "30", *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"config error: {flag}: must be")
        assert not out.exists()

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


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


class TestReadmeKeys:
    def test_readme_lists_every_flat_key(self):
        listed = re.findall(r"^\| `([a-z_]+\.[a-z_]+)`", README, flags=re.MULTILINE)
        assert len(listed) == len(set(listed))
        assert set(listed) == set(to_flat(_all_optional_keys_set()))


class TestReadmeCommands:
    def test_experiment_commands_parse(self):
        section = README.split("## Experiment commands", 1)[1].split("\n## ", 1)[0]
        commands = [line for line in section.splitlines() if line.startswith("rissim ")]
        assert len(commands) == 3
        parser = cli._build_parser()
        for line in commands:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command in ("beam-pattern", "schedule", "sweep-alpha"), line

"""Golden hashes: exact trace, summary, histogram, link-table, config-text, sweep and
beam-pattern bytes.

Every speed-up of the slot loop or the link-table builder must keep
these digests.  A change that moves one on purpose must say why and
re-pin it; regenerate the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest

from reference_engine import bler_curve, stacks
from rissim import presets
from rissim.cli import main
from rissim.config import ChannelConfig, ExperimentConfig, serialize
from rissim.engine import build_link_tables, run, thresholds_db, write_trace_csv

HISTOGRAM_KEYS = (
    "aligned_fraction", "misaligned_fraction",
    "aligned_fraction_total", "misaligned_fraction_total",
)


def _short(mode="periodic"):
    return presets.schedule_config(mode).with_overrides(
        {"sim.duration_s": "4", "sim.warmup_s": "1", "ris.ts_slots": "2000"}
    )


def _rr():
    cfg = _short()
    return replace(cfg, sched=replace(cfg.sched, kind="rr"))


def _rician():
    return replace(_short(), chan=ChannelConfig(rician_k_db=6.0, coherence_slots=20))


def _three_ues():
    return _short().with_overrides(
        {
            "ue.angles": "20:0,40:0,-30:0",
            "ue.pathloss_db": "60.0,61.5,59.0",
            "ue.noise_dbm": "-60.0,-58.5,-61.0",
            "ue.direct_leak": "0.01+0.02j,-0.015+0.005j,0j",
            "ue.noris_gain": "0.1,0.12,0.08",
        }
    )


def _rician_three_ues():
    # Three UEs, surface switches inside coherence epochs, and 8000 slots: not a
    # whole number of blocks of 13-slot epochs, so the last block is partial.
    return _three_ues().with_overrides(
        {
            "ris.mode": "iid",
            "ris.ts_slots": "7",
            "chan.rician_k_db": "6",
            "chan.coherence_slots": "13",
        }
    )


CONFIGS = {
    "periodic": _short,
    "iid": lambda: _short(mode="iid"),
    "genie": lambda: _short(mode="genie"),
    "off": lambda: _short(mode="off"),
    "rr": _rr,
    "rician": _rician,
    "rician_three_ues": _rician_three_ues,
    "single_ue": lambda: presets.single_ue_config(0, ris_on=True).with_overrides(
        {"sim.duration_s": "4", "sim.warmup_s": "1"}
    ),
    "three_ues": _three_ues,
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(cfg, tmp_dir) -> tuple[str, str, str]:
    """SHA-256 of the trace CSV, the summary text and the histogram repr.

    The histogram is the summary's four ``served_frac_*`` fields as one
    dict per UE.
    """
    trace, summary = run(cfg)
    path = tmp_dir / "trace.csv"
    write_trace_csv(trace, path)
    fractions = (
        summary.served_frac_aligned_dl,
        summary.served_frac_misaligned_dl,
        summary.served_frac_aligned_total,
        summary.served_frac_misaligned_total,
    )
    hist = [dict(zip(HISTOGRAM_KEYS, ue)) for ue in zip(*fractions)]
    return (
        _sha(path.read_bytes()),
        _sha(summary.as_kv_text().encode()),
        _sha(repr(hist).encode()),
    )


def table_digest(cfg, rebuilds: int = 3) -> str:
    """SHA-256 over the link-table bytes of the first ``rebuilds`` channel draws.

    The draws come from one builder call.  Each (row, UE) SNR also adds
    its block-error probability at every MCS index, from the reference
    curve.
    """
    thresholds = thresholds_db(cfg.la.impl_margin_db)
    h = hashlib.sha256()
    for epoch in build_link_tables(cfg, np.random.default_rng(3), rebuilds):
        snr_db, se, rsrp = epoch.swapaxes(0, 1).tolist()  # per row, per UE
        bler = [
            [bler_curve(snr, thresholds, cfg.la.slope) for snr in row]
            for row in snr_db
        ]
        for a in (snr_db, se, rsrp, bler):
            h.update(np.array(a).tobytes())
    return h.hexdigest()


PINS = {
    "genie": (
        "297700938fe5b460d76ad3ba2dd7d3a08fd1faca01a11f673c9b0a124c8d1e14",
        "5b6a7a809a1969c4c496f4de6b415c008b4c79b39aea9b7a5ab455001bf5c0bc",
        "a8e89b4a62c8f36323629d77c191c39dc09f8da251cb04b984554880bd865054",
    ),
    "iid": (
        "113a27748d14c7992a0d5ae50c8dc698447598ebd63270e3d0a2458ccdd1fbe4",
        "48aae0e3efac1073aec0a3730a4ad5e10be2fc20d2cc2b36ce15074738e4fc79",
        "18516100e99c1caadf461ee10053b1e78ffe8134f6bed48c34bb59155297954c",
    ),
    "off": (
        "d92ed805110db04ca52f2fd4922a0917bfcfdcc92bb49c8d6bf09b270fd1078d",
        "6c6a74b2a50b23c3bfa168c432a8458272125fa7ac56e046739ead0b1aac8c34",
        "f08cd6adfcd14b1f4f863e9af181eaea885db626504883061047c0f409caba6d",
    ),
    "periodic": (
        "50975c86f4e4e5de9a98daff41497185a5bfe98bed8973d5c0db14ba9b4deb29",
        "f598c56999b685d263fe1b562e9377139d456b15d879dd51977bbdfe5ccd94fa",
        "f376975385356bdeaf367a3596b18968467494942ec57fce12fcd7a920669e6b",
    ),
    "rician": (
        "cb3b83efa9bb8d1455c30fec3ba50f340af3084d088c5149a1307a818db55e9a",
        "077b16c5e3521bcabc91d0c35d53f1ebbf7f276d9a55a5c93d27199453cfcb57",
        "5ec8c42f59a158daecd5789c29666078b839411bee71fc33ec9b3525271b0e0e",
    ),
    "rician_three_ues": (
        "e42c06feac6c29f02e544b4f5da59175e01135df5dd62e2ae6658d6315b32317",
        "60ce8d599b0e5c1b79513f128a353aac3bfd4206bd54e95dd392b535aa5fb9df",
        "c3156666303ae385632c4f14f0c61e6b0faa3c25efda679578fa1c5baefc4d20",
    ),
    "rr": (
        "2ee6bcb54d84fcdcd6ad7428abbcca47bc02b2b346fec389acd36597db19db43",
        "289ffdd43e3961ea7a5fa3ae53e968f65c575c7d45997db2c70e610fa87d67ac",
        "73bee1dcaecfa7572fd7954d90e295d88163835211d99f820a2a31fdb1b2374b",
    ),
    "single_ue": (
        "9e2c50c021314560d683a1ba69b1b853ba4353c103b6a57011258f29e7943569",
        "e4a52b8c9ce04cc417f7a949312443141442e6c825e7ba95c54823e343221351",
        "d7d292f3ea1c547d4eb1614d080929a35123857b9937bb4a14c37162127c3056",
    ),
    "three_ues": (
        "355b9b9225f13690a923646d30f651aa7163a9a825bcdf5d210e54b662448a0a",
        "dd63927e8c2c22e9197e8734b79665df4f1112be129ba12faa23b7fe90e75653",
        "4ad3de5f8f5c34d1a37acac714740944ac8024a8cbaa2bd430f6b501d1416a92",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert digests(CONFIGS[name](), tmp_path) == PINS[name], stacks()


TABLE_PINS = {
    "rician": "3f1761d31495abc406507556c06fd0bcd011ca4ffa4b76ffa7ddbcdb0ec73db5",
    "rician_three_ues": "d9255f106d5e92f409ba76b62c61ba14c9055c41121751105027c542c5c86061",
    "three_ues": "792730f2a0ce3502608153f45fc4259e86f3bb0eb41c97f002ef406371a70082",
}


@pytest.mark.parametrize("name", sorted(TABLE_PINS))
def test_golden_link_tables(name):
    assert table_digest(CONFIGS[name]()) == TABLE_PINS[name], stacks()


def _optional_sections():
    base = ExperimentConfig()
    return replace(
        base,
        ris=replace(
            base.ris, mode="iid", angles=((10.0, 0.0), (60.0, 5.0)), probs=(0.25, 0.75), seed=9
        ),
        chan=ChannelConfig(rician_k_db=12.0, coherence_slots=400),
    )


TEXT_CONFIGS = {
    "default": ExperimentConfig,
    "schedule": presets.schedule_config,
    "schedule_genie": lambda: presets.schedule_config("genie"),
    "schedule_iid": lambda: presets.schedule_config("iid"),
    "sweep": presets.sweep_config,
    "single_ue_0_on": lambda: presets.single_ue_config(0),
    "single_ue_0_off": lambda: presets.single_ue_config(0, ris_on=False),
    "single_ue_1_on": lambda: presets.single_ue_config(1),
    "single_ue_1_off": lambda: presets.single_ue_config(1, ris_on=False),
    "optional_sections": _optional_sections,
}

TEXT_PINS = {
    "default": "34029d2d8635dd74dc82b8e206d15409632b12d700c6c1ac8c77c533ba5fde5a",
    "optional_sections": "a4dd4cfbebf3d07ea9a9948fe1a27f3a9c5ee4a7cf82f78ceecc098be725432a",
    "schedule": "35e1a449a77410e933820e6c2dfd4780a56c01a22713c57dffce27a2e8517ad9",
    "schedule_genie": "619a1ff7bc8b702ef0befeb839e5bac12926818d4bec2bc35165d6b50264432f",
    "schedule_iid": "edae4910b1a013825617f1aa20d56b5e5268e44296d6b930f4e6507ff4e70097",
    "single_ue_0_off": "b6ddae75962abfcfd0d51f98d9fa7a915fbc5947dcb9e57fcfadbde0072bda50",
    "single_ue_0_on": "bc34791c7624b739a989154743c6eca09772a769ae9b4f5f7366350bb7436308",
    "single_ue_1_off": "53add788e4f8ea6d1865130e8e6b503217ebb838a2ed1de20f74c0c8ee2f0a0a",
    "single_ue_1_on": "06260b107304f3a6fccd67821fb146094db0aca76e4928cc055ea8df272b3ffe",
    "sweep": "25524243c317db3f0a20df516e24707c0da3d2147c8845a4d81d8915b4669683",
}


@pytest.mark.parametrize("name", sorted(TEXT_PINS))
def test_golden_config_text(name):
    assert _sha(serialize(TEXT_CONFIGS[name]()).encode()) == TEXT_PINS[name], stacks()


# A short sweep through the CLI: its runs execute one after another in this process.
SWEEP_ARGS = (
    "--duration-s", "4", "--set", "sim.warmup_s=1", "sweep-alpha", "--alphas", "0.01", "5e-4",
)
SWEEP_PIN = "9f1c73189cb65fbb43f1abadede094a2020b8e715b52555b3bb54e1329465f90"


def sweep_digest(out_dir) -> str:
    """SHA-256 of the ``sweep_alpha.csv`` the CLI writes for ``SWEEP_ARGS``."""
    with redirect_stdout(io.StringIO()):
        rc = main(["--out-dir", str(out_dir), *SWEEP_ARGS])
    assert rc == 0
    return _sha((out_dir / "sweep_alpha.csv").read_bytes())


def test_golden_sweep_csv(tmp_path):
    assert sweep_digest(tmp_path) == SWEEP_PIN, stacks()


# beam-pattern through the CLI: several targets on the default grids, one
# target on the coarsest metrics grid with a coarser CSV grid, a plain
# (undithered) non-square surface, and two runs of more targets than one
# evaluation block: 0 to 90 deg in 7.5 deg steps (a partial last block) and
# ten targets on a plain 24x4 surface.
BEAM_ARGS = {
    "default": ("beam-pattern", "--steer-deg", "0", "7.25", "30", "60"),
    "coarse": (
        "beam-pattern", "--steer-deg", "45", "--grid-step-deg", "0.1", "--csv-step-deg", "0.25",
    ),
    "plain": (
        "--set", "geom.dither=false", "--set", "geom.n_h=16", "--set", "geom.n_v=8",
        "beam-pattern", "--steer-deg", "0", "12.5", "40",
    ),
    "scan_0_90": (
        "beam-pattern", "--steer-deg", *(f"{7.5 * i:g}" for i in range(13)),
        "--csv-step-deg", "0.25",
    ),
    "plain_blocks": (
        "--set", "geom.dither=false", "--set", "geom.n_h=24", "--set", "geom.n_v=4",
        "beam-pattern", "--steer-deg", *(f"{2.5 + 7.5 * i:g}" for i in range(10)),
    ),
}


def beam_digests(args, out_dir) -> dict[str, str]:
    """SHA-256 of each CSV ``beam-pattern`` writes for ``args``, and of its stdout.

    The output directory is replaced by ``<out>`` in the stdout first.
    """
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["--out-dir", str(out_dir), *args])
    assert rc == 0
    pins = {p.name: _sha(p.read_bytes()) for p in sorted(out_dir.glob("pattern_*deg.csv"))}
    pins["stdout"] = _sha(buf.getvalue().replace(str(out_dir), "<out>").encode())
    return pins


BEAM_PINS = {
    "coarse": {
        "pattern_45deg.csv": "319d9fd798d34aeda518e8460730c017c0af550c8e51656aaf4e3eaa93da1589",
        "stdout": "bf94c6574e7e634f3a8c64e048c31f8997850bdddc7615a503b9829e25d14a35",
    },
    "default": {
        "pattern_0deg.csv": "ad5262f6ea8dc96d889e37f991088a0b730576d376ba4e8a89b6abea7b94928a",
        "pattern_30deg.csv": "e73c271d35660acb34211e1c40fbc3f74ab591d4777aeb4b7b1ccfd787d03fca",
        "pattern_60deg.csv": "d7d53da766a1bd105d4724e299399a4453fa4e47c0eeb26b2b980e691da7f59a",
        "pattern_7.25deg.csv": "e8a815495e32a83fd3871a26a5cffcaf8343d02c7f47f4bf419fa6136b533265",
        "stdout": "199a863224844d3e53f0d44850d8c8cd8416279f5c00fe4d1975e67d298ef3ba",
    },
    "plain": {
        "pattern_0deg.csv": "e2ebb328ab269f8ab0999cf05c73d1820ed3bb8411715a3e7fbdfe32bbff555b",
        "pattern_12.5deg.csv": "ad11a7e44dd678cd77cf560fdc1a41c23cd9eacdb0b7f4f2f9ed8e7e1871b6bd",
        "pattern_40deg.csv": "2a4a17f807393af34adee1ff4a86263fb67dd5b9c3a1d25a0f3274fab4aa9ce1",
        "stdout": "284084eb6ed32241804f45899c303b60ccaa926ec8946c87ebd3b50bb0db95ab",
    },
    "plain_blocks": {
        "pattern_10deg.csv": "ec8c376608fe7e8c1ebec96908664ec00689429c536d9d273d5245e702eac817",
        "pattern_17.5deg.csv": "1ac2d43fbb1b3e784947c13b29e62456f915f987e15affa0a07cd37e81069e00",
        "pattern_2.5deg.csv": "f359dd09dbeefb2bba636b47aba9b9cb4d96170f68f844b52305210c4bf4ae27",
        "pattern_25deg.csv": "04aea72cd1ea66f8efacd56d0d50144d7392b78751a3558c2e745ee765b226db",
        "pattern_32.5deg.csv": "3f556eae5408d0723e5f1824fced625cd85cbbc90633fe1bca90c8afe279f6cc",
        "pattern_40deg.csv": "54d89ccf0b3e540b6d2a1ad5febdd8679ce59236509d540e8bfc5b8ab33869c6",
        "pattern_47.5deg.csv": "8d4f80376ad031edb51d4b38c0f7a4fc2ea865c77615c428219144418a8cc4eb",
        "pattern_55deg.csv": "9df30f084481f9f728d73faceb2995ce89e6895d04c67bd43bccc7508a0d4273",
        "pattern_62.5deg.csv": "7aa8fa751c3e52fbea4a6a32cc3764f27854e5271e0e85fe713faeb9a8d3e25b",
        "pattern_70deg.csv": "34862e61302746e10225c6c82211563b8862d3c5cdd6b8a9743b91c064b77f1e",
        "stdout": "3086e78b9e0259e53d11ad5ab653c8f4fdedd0ccf3d351f2760d738d259952eb",
    },
    "scan_0_90": {
        "pattern_0deg.csv": "4ec807c0159dd41e4249f13a0cac30d4c03ff857d1331d7e5b060435b04ce47b",
        "pattern_15deg.csv": "01c639e73d84c91301cf9cda44b00f0d8d1cfa908eb480308b7539012fbbccb4",
        "pattern_22.5deg.csv": "6545573f771cb6f9a0b216c098b5caeb59e6b69381e8f5cc5952ffb6ea604926",
        "pattern_30deg.csv": "8ffc642cd675856aa1fa733a72b2882ed87af871618c057f720689b4826f748e",
        "pattern_37.5deg.csv": "6137af322546c53e47223b8a0017e0a4695bd7e54a019dda6f54cba03122792f",
        "pattern_45deg.csv": "319d9fd798d34aeda518e8460730c017c0af550c8e51656aaf4e3eaa93da1589",
        "pattern_52.5deg.csv": "9966541e56348714cf6f6dab144cb813f132e44ebf3066e27702e4f4072b7518",
        "pattern_60deg.csv": "3f7d84fc82a5cfef9d2fac465768e95ede63a1002b866768f2a21756d4090381",
        "pattern_67.5deg.csv": "653ceecc9f707c9b2b14701573193b34215ed184cc43dd60e21e130cc5079fe5",
        "pattern_7.5deg.csv": "bb2a3c5a453879247b76b83aeb7740addb219a0846a3d74118a62a4e75729bc5",
        "pattern_75deg.csv": "cd148f71e82cb72c4a359ee428897a65eaf515056e1017c7d7937e4cbf5d1c70",
        "pattern_82.5deg.csv": "2501a43eb9e3f8e51810c036a713f6aedfd49c8ae56b4ca41ecb1150eb7f0ce3",
        "pattern_90deg.csv": "51450dea82e7dde6d662778f3815f76aad8d06219160f335db2c76223a9638d8",
        "stdout": "1d137db5885eab3ef9c4d3fc2979789ee273901dc4ada72491ba1c6025c96dda",
    },
}


@pytest.mark.parametrize("name", sorted(BEAM_ARGS))
def test_golden_beam_pattern(name, tmp_path):
    assert beam_digests(BEAM_ARGS[name], tmp_path) == BEAM_PINS[name], stacks()


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        for name in sorted(CONFIGS):
            print(f"    {name!r}: {digests(CONFIGS[name](), Path(d))!r},")  # PINS
    for name in sorted(TABLE_PINS):
        print(f"    {name!r}: {table_digest(CONFIGS[name]())!r},")  # TABLE_PINS
    for name in sorted(TEXT_CONFIGS):
        print(f"    {name!r}: {_sha(serialize(TEXT_CONFIGS[name]()).encode())!r},")  # TEXT_PINS
    with tempfile.TemporaryDirectory() as d:
        print(f"SWEEP_PIN = {sweep_digest(Path(d))!r}")
    for name in sorted(BEAM_ARGS):
        with tempfile.TemporaryDirectory() as d:
            print(f"    {name!r}: {beam_digests(BEAM_ARGS[name], Path(d))!r},")  # BEAM_PINS

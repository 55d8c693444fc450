"""Canaries for the stack-dependent primitives still on the byte path.

The golden digests (``test_golden.py``) pin whole outputs.  When one fails
on another stack, these say which primitive moved: each pins a digest of
one primitive's inputs, as the byte path gives them, and of its results.

- numpy's ``Generator.standard_normal``: the first block of normals of the
  ``fading`` benchmark workload's channel stream (master seed 1);
- libm through ``math``: ``log10``, ``log2`` and ``exp`` on the presets'
  link-table magnitudes and SNRs, the MCS thresholds and the block-error
  curve's arguments;
- ``np.sum`` over ``engine.build_link_tables``' product rows;
- ``np.cumsum`` as ``engine.summarize`` uses it.

A mismatch in a canary's inputs means a primitive before it moved.  The
seeds and uniforms (``rissim.streams``) are integer arithmetic, the same on
any stack, so they need no canary.  Regenerate the pins with

    PYTHONPATH=src python tests/test_stack_canaries.py
"""

import hashlib
import math
from functools import cache

import numpy as np
import pytest

from reference_engine import stacks
from rissim import engine, presets, streams
from rissim.array_model import upa_profiles, upa_steering
from rissim.config import EPOCH_BLOCK, state_angles
from rissim.engine import CSV_CHUNK, build_link_tables, thresholds_db

PRESETS = {
    "schedule": presets.schedule_config,
    "single_ue_0": lambda: presets.single_ue_config(0),
    "single_ue_1": lambda: presets.single_ue_config(1),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values).tobytes()).hexdigest()


@cache
def _link_rows(name):
    """The preset's config, and the (effective channels, SNR gains, rx dBm,
    offset) of each ``engine._row_values`` call of its one-epoch table build."""
    cfg, calls = PRESETS[name](), []
    original = engine._row_values
    engine._row_values = lambda *args: calls.append(args) or original(*args)
    try:
        build_link_tables(cfg, None, 1)
    finally:
        engine._row_values = original
    return cfg, calls


def _product_rows(cfg) -> np.ndarray:
    """(state, UE, element) products of the state's phasors and the UE's
    line-of-sight channel, as ``build_link_tables`` builds them without scatter."""
    g = cfg.geom
    los = upa_steering([(ue.nu_deg, ue.psi_deg) for ue in cfg.ues], g.n_h, g.n_v, g.spacing_ratio)
    los *= 1.0 / (g.n_h * g.n_v)
    weights = upa_profiles(state_angles(cfg), g.n_h, g.n_v, g.spacing_ratio, g.dither)
    return weights[:, None, :] * los[None, :, :]


def _snr(name):
    cfg, calls = _link_rows(name)
    return [abs(eff) ** 2 * gain for effs, gains, *_ in calls for eff, gain in zip(effs, gains)]


def _preset_canaries(name):
    """The preset's (inputs, results) of each ``np.sum`` and ``math`` primitive."""
    cfg, calls = _link_rows(name)
    products = _product_rows(cfg)
    mags = [abs(eff) for effs, *_ in calls for eff in effs]
    snr = _snr(name)
    log10_in = [m for m in mags if m] + snr
    log10_in += [2.0 ** se - 1.0 for se in engine.MCS_TABLE_64QAM]  # thresholds_db's
    slope, thresholds = cfg.la.slope, thresholds_db(cfg.la.impl_margin_db)
    exp_in = [
        x for s in snr for thr in thresholds if (x := slope * (10.0 * math.log10(s) - thr)) <= 700.0
    ]
    return {
        f"np.sum ({name})": (products, products.sum(axis=-1)),
        f"math.log10 ({name})": (log10_in, [math.log10(v) for v in log10_in]),
        f"math.log2 ({name})": (snr, [math.log2(1.0 + s) for s in snr]),
        f"math.exp ({name})": (exp_in, [math.exp(x) for x in exp_in]),
    }


def _normals():
    """The fading workload's first block of channel normals, (epoch, UE,
    real/imaginary, element) as ``build_link_tables`` fills it; its inputs
    are that shape and the stream's seed words."""
    cfg = presets.schedule_config()
    shape = (EPOCH_BLOCK, len(cfg.ues), 2, cfg.geom.n_h * cfg.geom.n_v)
    normals = streams.normal_generator(1, (0,)).standard_normal(shape)
    return [*shape, *streams.seed_words(1, 8, (0,))], normals


def _cumsums():
    """Three summary chunks of RSRP-like values, each with the running sum
    added into its first value, as ``summarize`` reduces them, and the
    aggregate of a throughput tuple."""
    values = streams.uniforms(5, 3 * CSV_CHUNK) * 40.0 - 120.0
    running, results = 0.0, []
    for chunk in np.split(values.copy(), 3):
        chunk[0] += running
        results.append(np.cumsum(chunk))
        running = float(results[-1][-1])
    results.append(np.cumsum((values[:2] + 130.0).tolist()))
    return values, np.concatenate(results)


@cache
def canaries() -> dict[str, tuple[str, str]]:
    """Per canary: the digests of its inputs and of its results."""
    found = {"standard_normal": _normals(), "np.cumsum": _cumsums()}
    for name in PRESETS:
        found.update(_preset_canaries(name))
    return {name: (_digest(inputs), _digest(results)) for name, (inputs, results) in found.items()}


PINS = {
    "math.exp (schedule)": (
        "192648ba5ac2e83e8bc3e16a9edbc318bb9ddbd3b32ad64d99494ed8b628ca44",
        "4ea2c481ed575183bc729b35538daa2fcf7ce4e4bab9ce495a7033e493f7812e",
    ),
    "math.exp (single_ue_0)": (
        "093f0a540fab62bb426d3b09f5e6d40c88aba7c00e2dd46468dcdf3c7622215f",
        "578a2908e4e6d82e3d1c7ef78afaac50fc346c7d75532e384652ab090c730b36",
    ),
    "math.exp (single_ue_1)": (
        "30945ba06910b209e354e9ceaeb53f384a97595c9f1e2a43f30e64f6771dbaae",
        "ac89e883c3991b4e56c06fe00286aba537f58f78b3efb3d51652c770055aede4",
    ),
    "math.log10 (schedule)": (
        "e0d03bfe2a744bb25f05fc591298cbda29bff4d419cf66a385fd8e68be4d3f2f",
        "9e4ca17d48a15adfdb7283f900ec42b5f51623f8fd17ccd69599711e150368d5",
    ),
    "math.log10 (single_ue_0)": (
        "69477c6fd5ae97a530f371efe60c1d949d5d6b8add8a980cdef6a0824c60e420",
        "002a3170914de16dd42ac8d99d3667bf8797a0b27ed28bc1e6b86d4a234f80ff",
    ),
    "math.log10 (single_ue_1)": (
        "0270f4c82a5d302bc35a6a086f97ae6eba1a9426614cecd84ae490abce4f5d19",
        "484719c5314b57c10bf34f89a464a96bb249676620ed095fa4fcf8ccc6ac3aef",
    ),
    "math.log2 (schedule)": (
        "cfdaec3652ba266d9b89eb19f4f7ddc3d8f1cb51315def68cc1d92013886a566",
        "07bdd08ab1fa7ea422659fbc0fc5b585113008f31960b99b0c8362e8eb91ce07",
    ),
    "math.log2 (single_ue_0)": (
        "5e9bbe5e7e1bb00a6b63f02d0e2e3b159ccd619e5a90cc08bc9f2d7d9242250f",
        "c0123d78d95d4a96a3605e5a19d2c82b3c3232fd64debe8af10fba540bfae49b",
    ),
    "math.log2 (single_ue_1)": (
        "0972f2377fb1a90bfd1adf3203ff771e38b317b6f358bd3c4f485f1db9406aaf",
        "2b706862e1fd76da0c49ae8ba01485488171f30fa00d0d356c9a6bc87fd02c4e",
    ),
    "np.cumsum": (
        "f8cfe1611898ba7a2f7c114d6373e522fda8d7f06d7d03c0da459b8ab186eed0",
        "1dbc8787bfc3ab63eb1b955eac7a54faa08e744b0e193790964a123f4e837d51",
    ),
    "np.sum (schedule)": (
        "fd25844a03a43a609bdd43fb0e786f5b95555c0fe3f14cca7e0be2fc51e2225b",
        "1a5516ecc4219469dd063bd23b63c20bb22ff0fe70f414af04b6afe64789884e",
    ),
    "np.sum (single_ue_0)": (
        "93a4f0c85044b064ff5f08f9482bedb51a4b646d4277da41e36664f27e745d3d",
        "1d42339e86802b180f611ae6111cea970aea3795d95c3580bf997df8cc8960c8",
    ),
    "np.sum (single_ue_1)": (
        "ea95c6ca16d169c2286c2f5033ed3aa560049adc827444afcadaf5cb8a274906",
        "dec0ab3fecb699d8ee86f8db533e376ca7267e58f44e4fe0ebdd4f3c07d864c0",
    ),
    "standard_normal": (
        "b9d10e57c9483a91eb2dea79731fd7af63b4793492e55a778435a25c202f9db5",
        "080cc6921a20cd24147a7f56eaf44ec3e70ed9c65b490898ab66749f8d1c4a06",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_canary(name):
    inputs, results = canaries()[name]
    assert inputs == PINS[name][0], f"{name}: its inputs moved, so a primitive before it did; {stacks()}"
    assert results == PINS[name][1], f"{name} gives other bits on the pinned inputs; {stacks()}"


def test_every_canary_is_pinned():
    assert sorted(canaries()) == sorted(PINS)


def test_the_canaries_see_the_byte_path():
    # The restated product rows sum to the channels the table build gave
    # _row_values, and every preset row has a positive SNR.
    for name in PRESETS:
        cfg, calls = _link_rows(name)
        sums = _product_rows(cfg).sum(axis=-1)
        leaks = np.array([ue.direct_leak for ue in cfg.ues], complex)
        assert np.array_equal(sums + leaks, [effs for effs, *_ in calls[1:]])
        assert all(s > 0 for s in _snr(name))


if __name__ == "__main__":
    for name, pins in sorted(canaries().items()):
        print(f"    {name!r}: {pins!r},")  # PINS

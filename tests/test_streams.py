"""``rissim.streams`` against numpy's own ``SeedSequence`` and ``Generator``, bit
for bit, and the commands that must not load ``numpy.random``."""

import os
import subprocess
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rissim import array_model, cli, streams
from rissim.streams import DRAW_CHUNK

ENTROPIES = [0, 2**32, 2**64 - 1, 2**100]  # one to four 32-bit words
TUPLES = [(1, 0), (7, 2), (2**40, 3), (0, 2**33)]  # sweep-alpha's and iid_state's (seed, i)
SPAWN_KEYS = [(), (0,), (1,), (2,)]


def numpy_generator(entropy, spawn_key=()):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=spawn_key)))


def drawn(entropy, n, spawn_key=()):
    """The first ``n`` draws of the stream, as ``engine.simulate`` takes them."""
    blocks = streams.uniform_blocks(entropy, DRAW_CHUNK, spawn_key)
    return list(islice(chain.from_iterable(map(memoryview, blocks)), n))


@pytest.mark.parametrize("entropy", ENTROPIES + TUPLES)
@pytest.mark.parametrize("spawn_key", SPAWN_KEYS)
def test_seed_words_are_generate_state(entropy, spawn_key):
    expected = np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(9)
    assert streams.seed_words(entropy, 9, spawn_key) == expected.tolist()


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_spawn_keys_are_spawned_children(entropy):
    children = np.random.SeedSequence(entropy).spawn(3)
    assert [streams.seed_words(entropy, 4, (i,)) for i in range(3)] == [
        child.generate_state(4).tolist() for child in children
    ]


@pytest.mark.parametrize("entropy", ENTROPIES + TUPLES)
@pytest.mark.parametrize("spawn_key", SPAWN_KEYS)
def test_pcg64_state_and_first_draw(entropy, spawn_key):
    generator = numpy_generator(entropy, spawn_key)
    state = generator.bit_generator.state["state"]
    assert streams.pcg64_state(entropy, spawn_key) == (state["state"], state["inc"])
    assert streams.uniform(entropy, spawn_key) == generator.random()


@pytest.mark.parametrize("n", [1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK])
@pytest.mark.parametrize("entropy,spawn_key", [(1, (1,)), (2**64 - 1, (1,)), (2**100, ()), ((7, 2), ())])
def test_blocks_are_generator_random(n, entropy, spawn_key):
    expected = numpy_generator(entropy, spawn_key).random(n)
    assert drawn(entropy, n, spawn_key) == expected.tolist()


@pytest.mark.parametrize("width", [1, 5, 1000, 1536])
def test_blocks_of_any_width_are_successive_random_calls(width):
    # Up to LANES wide a block is its lanes; 1536 is three jumps of 512 lanes.
    generator = numpy_generator(11, (1,))
    blocks = streams.uniform_blocks(11, width, (1,))
    for _ in range(3):
        assert next(blocks).tobytes() == generator.random(width).tobytes()


@pytest.mark.parametrize("n_h,n_v", [(1, 1), (32, 32), (400, 400)])
def test_design_offsets_are_generator_uniform(n_h, n_v):
    array_model.design_phase_offsets.cache_clear()
    expected = numpy_generator(array_model.DESIGN_DITHER_SEED).uniform(-np.pi, np.pi, n_h * n_v)
    assert array_model.design_phase_offsets(n_h, n_v).tobytes() == expected.tobytes()


def test_normal_generator_is_the_channel_stream():
    ours = streams.normal_generator(1, (0,)).standard_normal(5000)
    theirs = np.random.default_rng(np.random.SeedSequence(1).spawn(3)[0]).standard_normal(5000)
    assert ours.tobytes() == theirs.tobytes()


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="entropy"):
        streams.seed_words((3, -1), 1)


@settings(max_examples=60, deadline=None)
@given(
    entropy=st.one_of(st.integers(0, 2**130), st.tuples(st.integers(0, 2**64), st.integers(0, 999))),
    spawn_key=st.sampled_from(SPAWN_KEYS),
    n=st.integers(1, 2 * DRAW_CHUNK + 3),
)
def test_streams_match_numpy_on_any_seed(entropy, spawn_key, n):
    sequence = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    assert streams.seed_words(entropy, 2, spawn_key) == sequence.generate_state(2).tolist()
    assert drawn(entropy, n, spawn_key) == numpy_generator(entropy, spawn_key).random(n).tolist()


def _run_in_child(code: str) -> None:
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_uniform_only_commands_do_not_load_numpy_random(tmp_path):
    short = ["--out-dir", str(tmp_path), "--duration-s", "0.5", "--set", "sim.warmup_s=0.1"]
    runs = [
        ["--out-dir", str(tmp_path), "beam-pattern", "--steer-deg", "30", "--grid-step-deg", "0.1"],
        [*short, "schedule"],
        [*short, "schedule", "--mode", "iid"],
        [*short, "sweep-alpha", "--alphas", "0.01"],
        [*short, "single-ue", "--ue", "1"],
    ]
    rician = [*short, "--set", "chan.rician_k_db=6", "--set", "chan.coherence_slots=200", "schedule"]
    _run_in_child(
        "import sys\n"
        "from rissim.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0\n"
        "    assert 'numpy.random' not in sys.modules, f'{argv} loaded numpy.random'\n"
        f"assert main({rician!r}) == 0\n"
        "assert 'numpy.random' in sys.modules, 'a Rician run drew no normals from numpy'\n"
    )

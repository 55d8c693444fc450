"""The trace CSV writer against the literal reference formatter, and its memory.

``engine.write_trace_csv`` streams its lines in chunks of
``engine.CSV_CHUNK``.  The golden runs are shorter than one chunk, so
the equality test shrinks the chunk until flushes land both inside
channel epochs and on their boundaries.
"""

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import reference_engine
from rissim import engine, presets
from rissim.config import RIS_MODES, SCHED_KINDS, ChannelConfig
from rissim.engine import run, write_trace_csv
from test_reference_engine import small_configs

# Static line of sight, and Rician scatter redrawn every slot or every 13 slots.
CHANNELS = (ChannelConfig(), ChannelConfig(6.0, 1), ChannelConfig(6.0, 13))


@pytest.mark.parametrize("kind", SCHED_KINDS)
@pytest.mark.parametrize("mode", RIS_MODES)
@given(data=st.data())
@settings(
    max_examples=6,
    derandomize=True,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chunked_file_equals_reference(mode, kind, data):
    cfg = data.draw(small_configs(mode, kind))
    trace, _ = run(replace(cfg, chan=data.draw(st.sampled_from(CHANNELS))))
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(engine, "CSV_CHUNK", 7)
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == reference_engine.trace_csv(trace).encode()
        # The row is the surface state: -1 without the surface, as the file writes it.
        states = [int(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
        assert states == list(trace.row())


def test_writer_memory_does_not_grow_with_the_trace(tmp_path):
    # A static run is one channel epoch, which a per-epoch column slice
    # would copy whole; a whole-file string would grow with the trace.
    peak, size = {}, {}
    for seconds in (10, 40):  # 20,000 and 80,000 slots
        cfg = presets.schedule_config().with_overrides(
            {"sim.duration_s": str(seconds), "sim.warmup_s": "1"}
        )
        trace, _ = run(cfg)
        path = tmp_path / f"{seconds}.csv"
        tracemalloc.start()
        try:
            write_trace_csv(trace, path)
            peak[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size[seconds] = path.stat().st_size
    assert peak[40] < size[40]
    assert peak[40] < 1.5 * peak[10]

"""The trace CSV writer against the literal reference formatter, and its memory.

``engine.write_trace_csv`` reads the trace and writes its lines in
chunks of ``engine.CSV_CHUNK`` slots.  The golden runs are shorter than
one chunk, so the equality tests shrink the chunk until chunks cut TDD
periods, channel epochs and retransmissions, and the in-flight TB size
and the genie state carry from one chunk into the next.  The summary,
which reads the same chunks, is checked at those chunk sizes too.
"""

import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import reference_engine
from rissim import engine, presets
from rissim.cells import digit_cells, text_lines
from rissim.config import MAX_SLOTS, RIS_MODES, SCHED_KINDS, ChannelConfig, to_slots
from rissim.engine import TDD_DL_SYMBOLS, run, simulate, write_trace_csv
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
        assert states == reference_engine.slot_columns(trace)["row"]


# The preset surface, 100 ms (200 slots) each.
CHUNK_CASES = {
    # At la.mcs_min = 27 nearly every block fails all four transmissions, so
    # the retransmissions of one block straddle chunk boundaries; scatter is
    # redrawn every 13 slots.
    "every block retransmitted": ("periodic", {
        "la.mcs_min": "27", "chan.rician_k_db": "6", "chan.coherence_slots": "13",
    }),
    # The state follows the served UE, and carries over uplink slots.
    "genie": ("genie", {"sched.kind": "rr"}),
    "iid": ("iid", {"chan.rician_k_db": "6", "chan.coherence_slots": "7", "ris.ts_slots": "3"}),
    "off": ("off", {}),
}


@pytest.mark.parametrize("chunk", [1, 2, 9, 10, 11])
@pytest.mark.parametrize("case", CHUNK_CASES.values(), ids=CHUNK_CASES)
def test_chunk_boundaries_equal_reference(case, chunk, tmp_path):
    mode, overrides = case
    # The summary's window opens at slot 23, inside a chunk of every size but 1.
    cfg = presets.schedule_config(mode).with_overrides({
        "sim.duration_s": "0.1", "sim.warmup_s": "0.0115", **overrides,
    })
    assert to_slots(cfg.sim.warmup_s) == 23
    trace, counters = simulate(cfg)
    # Chunks of 9 slots start on the uplink slots 9, 18 and 27.
    assert not any(TDD_DL_SYMBOLS[t % 10] for t in (9, 18, 27))
    if mode == "periodic":
        retx = reference_engine.slot_columns(trace)["retx"]
        # Slot 0's block is resent on slots 1 to 3, slot 4's on 5, 6 and, past
        # the uplink slots, 10.
        assert [t for t in range(11) if retx[t]] == [1, 2, 3, 5, 6, 10]
    path = tmp_path / "trace.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CSV_CHUNK", chunk)
        write_trace_csv(trace, path)
        summary = engine.summarize(cfg, trace, counters)
    assert path.read_bytes() == reference_engine.trace_csv(trace).encode()
    # The RSRP sums, counts and acknowledged bits carry across chunks.
    want = reference_engine.summarize(cfg, reference_engine.run(cfg))
    assert reference_engine.same_summary(summary, want), (summary, want)


def test_time_cell_is_the_float_format():
    # The writer builds `slot,time_ms,` from integers: `digit_cells` of the
    # slot, and of five times the slot with one place.  Each equals the
    # float format at every digit-width change, of the slot, of its half
    # and of the counts themselves, and at the longest run's last slots.
    widths = [10**k + d for k in range(1, 8) for d in (-1, 0, 1)]
    widths += [2 * w for w in widths] + [2 * w + 1 for w in widths]
    counts = np.array(sorted({*range(200_001), *widths, MAX_SLOTS - 1, MAX_SLOTS, MAX_SLOTS + 1}))
    for places in (0, 1):
        text = text_lines(digit_cells(counts, places), b",").tobytes().decode()
        assert text == "".join(f"{c / 10**places:.{places}f}," for c in counts.tolist())
    prefixes = text_lines(digit_cells(counts), b",", digit_cells(counts * 5, 1), b",")
    assert prefixes.tobytes().decode() == "".join(
        f"{t},{t * engine.SLOT_MS:.1f}," for t in counts.tolist()
    )


def test_digit_cells_of_no_counts():
    for places in (0, 1, 4):
        assert digit_cells(np.array([], np.int64), places).shape == (0, places + 1 + (places > 0))
        assert text_lines(digit_cells(np.array([], np.int64), places), b"\n").size == 0


def test_writer_refuses_another_slot_length(tmp_path):
    cfg = presets.schedule_config().with_overrides({"sim.duration_s": "0.01", "sim.warmup_s": "0"})
    trace, _ = run(cfg)
    path = tmp_path / "trace.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SLOT_MS", 1.0)
        with pytest.raises(ValueError, match="SLOT_MS"):
            write_trace_csv(trace, path)
    assert not path.exists()


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

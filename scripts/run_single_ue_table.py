#!/usr/bin/env python3
"""Single-UE comparison table: RSRP and throughput with and without the
reflecting surface, for both UE positions: four independent runs of
``engine.run``, one after another in this process."""

from rissim import presets
from rissim.engine import run

if __name__ == "__main__":
    cases = [(k, on) for k in range(2) for on in (True, False)]
    summaries = [run(presets.single_ue_config(k, ris_on=on))[1] for k, on in cases]
    print(f"{'ue':>3} {'surface':>8} {'rsrp_dbm':>9} {'tput_mbps':>10} {'bler':>7}")
    tput = {}
    for (k, on), s in zip(cases, summaries):
        rsrp = s.mean_rsrp_aligned_dbm[0] if on else s.mean_rsrp_misaligned_dbm[0]
        tput[k, on] = s.throughput_mbps[0]
        print(
            f"{k + 1:>3} {'on' if on else 'off':>8} {rsrp:>9.2f} "
            f"{s.throughput_mbps[0]:>10.2f} {s.long_run_bler[0]:>7.4f}"
        )
    for k in range(2):
        g = 100.0 * (tput[k, True] / tput[k, False] - 1.0)
        print(f"UE{k + 1} throughput gain from the surface: {g:.1f}%")

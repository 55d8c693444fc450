#!/usr/bin/env python3
"""Print the solved link-budget constants for both calibrated operating
points.  The solve is deterministic: rerunning always reproduces the
same numbers from the measurement targets in rissim.presets."""

from rissim import presets

if __name__ == "__main__":
    for name, snr in (("scheduling", presets.SNR_ALIGNED_SCHED_DB),
                      ("single-ue", presets.SNR_ALIGNED_SINGLE_DB)):
        cfg = presets._calibrate(snr)
        print(f"[{name} operating point]  rsrp_offset_db = {cfg.rsrp_offset_db:.4f}")
        for k, u in enumerate(cfg.ues):
            print(
                f"  UE{k + 1}: pathloss_db={u.pathloss_db:.4f} noise_dbm={u.noise_dbm:.4f} "
                f"direct_leak={u.direct_leak:.6f} noris_gain={u.noris_gain:.6f}"
            )

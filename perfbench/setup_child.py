"""Set-up probe: build a workload's config and run it for zero slots.

Usage: setup_child.py PRESET MODE SEED [KEY=VALUE ...]

PRESET is ``schedule``, ``sweep`` or ``beam``.  For the two slot presets
the script builds the config the way the CLI does (preset calibration,
``--set`` overrides, seed), sets ``sim.duration_s`` to 0 and calls
``engine.run`` on it, which validates the config, builds the surface
state distribution and the first link tables.  For ``beam`` it builds the
static per-element phase table that ``beam-pattern`` needs before its
first target.  It then prints ``time.monotonic()`` and the numpy version
as one JSON line, so the caller can time spawn-to-ready on the same clock.
"""

import json
import sys
import time
from dataclasses import replace

import numpy as np

from rissim import cli, engine, presets  # noqa: F401  (cli: the import a user pays)
from rissim.array_model import design_phase_offsets


def main(argv: list[str]) -> int:
    preset, mode, seed, *overrides = argv
    if preset == "beam":
        g = presets.GEOMETRY
        if g.dither:
            design_phase_offsets(g.n_h, g.n_v)
    else:
        cfg = presets.sweep_config() if preset == "sweep" else presets.schedule_config(mode=mode)
        if overrides:
            cfg = cfg.with_overrides(dict(item.split("=", 1) for item in overrides))
        cfg = replace(cfg, sim=replace(cfg.sim, seed=int(seed), duration_s=0.0))
        engine.run(cfg)
    print(json.dumps({"ready": time.monotonic(), "numpy": np.__version__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

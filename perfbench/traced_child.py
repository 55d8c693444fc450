"""Run the rissim CLI once with timing wrappers around its layers.

Usage: traced_child.py STATS_JSON CLI_ARG...

Each wrapper replaces a function at the name its caller looks up (for
example ``rissim.scheduler.select_ue``, which the engine calls as
``sched_mod.select_ue``), so the program itself is unchanged.  Calls made
once per run or per target are recorded as spans (name, start, end,
parent span).  Calls made per slot or per link-table entry only add to a
count and a summed time, which keeps the tracer cheap on 240k-slot runs.
Every wrapped call also adds to its layer's self time: its duration minus
the time spent in wrapped calls it made.  Everything is held in memory
and written to STATS_JSON when the CLI returns.
"""

import importlib
import json
import sys
import time

SPAN = True
COUNT = False

# (module, attribute path, layer name, record spans?)
WRAPS = [
    ("rissim.engine", "run", "engine.run", SPAN),
    ("rissim.engine", "sweep_alpha", "engine.sweep_alpha", SPAN),
    ("rissim.engine", "build_distribution", "engine.build_distribution", SPAN),
    ("rissim.engine", "build_link_tables", "engine.build_link_tables", COUNT),
    ("rissim.engine", "write_trace_csv", "engine.write_trace_csv", SPAN),
    ("rissim.engine", "scheduling_histogram", "engine.scheduling_histogram", SPAN),
    ("rissim.engine", "tb_bits", "engine.tb_bits", COUNT),
    ("rissim.engine", "slot_kind", "engine.slot_kind", COUNT),
    ("rissim.engine", "design_phase_offsets", "array_model.design_phase_offsets", SPAN),
    ("rissim.scheduler", "select_ue", "scheduler.select_ue", COUNT),
    ("rissim.scheduler", "ewma_update", "scheduler.ewma_update", COUNT),
    ("rissim.scheduler", "rr_select", "scheduler.rr_select", COUNT),
    ("rissim.link_adapt", "bler", "link_adapt.bler", COUNT),
    ("rissim.link_adapt", "cqi_update", "link_adapt.cqi_update", COUNT),
    ("rissim.link_adapt", "step_mcs", "link_adapt.step_mcs", COUNT),
    ("rissim.link_adapt", "harq_on_nack", "link_adapt.harq_on_nack", COUNT),
    ("rissim.channel", "los_cascaded_channel", "channel.los_cascaded_channel", COUNT),
    ("rissim.channel", "effective_channel", "channel.effective_channel", COUNT),
    ("rissim.ris_control", "state_at_slot", "ris_control.state_at_slot", COUNT),
    ("rissim.ris_control", "upa_profile", "array_model.upa_profile", SPAN),
    ("rissim.array_model", "pattern_gains", "array_model.pattern_gains", SPAN),
    ("rissim.array_model", "RisPhaseProfile.reflection_weights",
     "array_model.reflection_weights", COUNT),
    ("rissim.cli", "beam_metrics", "array_model.beam_metrics", SPAN),
    ("rissim.cli", "pattern_gains", "array_model.pattern_gains", SPAN),
    ("rissim.cli", "upa_profile", "array_model.upa_profile", SPAN),
    ("rissim.cli", "design_phase_offsets", "array_model.design_phase_offsets", SPAN),
    ("rissim.presets", "schedule_config", "presets.schedule_config", SPAN),
    ("rissim.presets", "upa_profile", "array_model.upa_profile", SPAN),
    ("rissim.presets", "design_phase_offsets", "array_model.design_phase_offsets", SPAN),
    ("rissim.config", "from_flat", "config.from_flat", SPAN),
]


class Tracer:
    def __init__(self):
        self.stack = []  # open calls: [time in wrapped children, enclosing span index]
        self.stats = {}  # layer name -> [calls, total_s, self_s]
        self.spans = []  # [name, start, end, parent span index or -1]
        self.runs = {"slots": 0, "trace_rows": 0, "acked_bits": 0, "new_tx_bits": 0}

    def wrap(self, name, fn, span, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            idx = stack[-1][1] if stack else -1
            if span:
                spans.append([name, 0.0, 0.0, idx])
                idx = len(spans) - 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[idx][1:3] = [t0, t1]
            if observe is not None:
                observe(result)
            return result

        return traced

    def observe_run(self, result):
        """Per-run totals from ``engine.run``'s (trace, summary) result."""
        try:
            trace, summary = result
            self.runs["slots"] += summary.n_slots
            self.runs["trace_rows"] += len(trace)
            self.runs["acked_bits"] += summary.acked_bits
            self.runs["new_tx_bits"] += summary.new_tx_bits
        except (TypeError, ValueError, AttributeError):
            pass  # a changed return type leaves these totals at 0


def install(tracer):
    """Wrap every name in WRAPS that exists; return the names not found."""
    missing = []
    for module_name, path, name, span in WRAPS:
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for p in parents:
                owner = getattr(owner, p)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        observe = tracer.observe_run if name == "engine.run" else None
        setattr(owner, attr, tracer.wrap(name, fn, span, observe))
    return missing


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import rissim.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    missing = install(tracer)
    rc = tracer.wrap("cli.main", rissim.cli.main, SPAN)(cli_args)
    with open(stats_path, "w") as f:
        json.dump(
            {
                "import_s": import_s,
                "numpy": sys.modules["numpy"].__version__,
                "stats": tracer.stats,
                "runs": tracer.runs,
                "missing": missing,
                "spans": tracer.spans,
            },
            f,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

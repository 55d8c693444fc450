"""rissim benchmark: the CLI run the way a user runs it, with checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload schedule --seed 1 --seconds 20 --trace 0

Each invocation is ``rissim.cli.main`` in a fresh child process, one at a
time (a closed loop with one client), with the workload seed passed as
``--seed``.  Invocations repeat while the next one is expected to end
within ``--seconds``.  Every child runs with the BLAS and OpenMP pools
pinned to one thread.

``--trace 0`` prints the end-to-end metrics: medians over the run's
invocations of wall time, CPU time and peak RSS, the median set-up time
over several zero-slot set-ups, and the share of invocations that pass
every output check.  ``--trace 1`` runs the workload once untraced and
once under ``traced_child.py`` and prints the per-layer metrics; the two
runs must write identical files.  See README.md in this directory for the
metric definitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-invocation
records, output digests and the environment are also written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
PINS_PATH = BENCH_DIR / "digests.json"

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_MAIN = "import sys; from rissim.cli import main; sys.exit(main())"
SETUP_RUNS = 15
# The whole run must exit within 180 s; children are killed past this.
DEADLINE_S = 170.0
MCS_MAX = 28
BEAM_STEERS = tuple(f"{0.25 * i:g}" for i in range(241))  # 0 to 60 deg


@dataclass(frozen=True)
class Workload:
    global_args: tuple[str, ...]  # CLI options before the subcommand
    command: tuple[str, ...]  # subcommand and its options
    default_seed: int | None  # seed the CLI uses unasked; None: no randomness
    setup: tuple[str, ...]  # setup_child.py arguments before the seed

    def cli_args(self, seed: int, out_dir: Path) -> list[str]:
        seed_args = ["--seed", str(seed)] if self.default_seed is not None else []
        return ["--out-dir", str(out_dir), *seed_args, *self.global_args, *self.command]

    def setup_args(self, seed: int) -> list[str]:
        overrides = [v for k, v in zip(self.global_args, self.global_args[1:]) if k == "--set"]
        return [*self.setup, str(seed), *overrides]


WORKLOADS = {
    "schedule": Workload((), ("schedule",), 1, ("schedule", "periodic")),
    "sweep": Workload((), ("sweep-alpha",), 7, ("sweep", "periodic")),
    "fading": Workload(
        ("--duration-s", "40", "--set", "chan.rician_k_db=6", "--set", "chan.coherence_slots=20"),
        ("schedule", "--mode", "iid"),
        1,
        ("schedule", "iid"),
    ),
    "beam-scan": Workload((), ("beam-pattern", "--steer-deg", *BEAM_STEERS), None, ("beam", "-")),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Invocation:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def spawn(argv: list[str], timeout: float, log_path: Path) -> Invocation:
    """Run one child to completion and measure it on its own.

    CPU time is the change in this process's cumulative child usage, which
    includes any processes the child waited for.  Peak RSS comes from the
    child's own ``wait4`` usage, the largest resident set of the child and
    the processes it waited for; the cumulative ``RUSAGE_CHILDREN`` peak
    never goes down, so it would carry one workload's peak into the next.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the child left behind in its group
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    log_text = log_path.read_text(errors="replace")
    return Invocation(proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, log_text)


def digest_dir(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def dir_mb(out_dir: Path, pattern: str = "*") -> float:
    return sum(p.stat().st_size for p in out_dir.rglob(pattern) if p.is_file()) / 2**20


# ---------------------------------------------------------------- output checks


def _one(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern}, found {len(found)}")
    return found[0]


def _kv(path: Path) -> dict[str, str]:
    pairs = (line.partition("=") for line in path.read_text().splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, _, v in pairs}


def check_schedule(out_dir: Path) -> list[str]:
    """Invariants of a ``schedule`` run: bit conservation, served shares
    summing to 1, every trace MCS within [la.mcs_min, 28], one trace row
    per slot, and a histogram row per UE."""
    errors = []
    summary = _kv(_one(out_dir, "*_summary.txt"))
    mcs_min = int(_kv(_one(out_dir, "*_config.txt"))["la.mcs_min"])
    bits = {k: int(summary[k]) for k in ("new_tx_bits", "acked_bits", "discarded_bits", "inflight_bits")}
    if bits["new_tx_bits"] != bits["acked_bits"] + bits["discarded_bits"] + bits["inflight_bits"]:
        errors.append(f"bit conservation broken: {bits}")
    shares = [float(v) for k, v in summary.items() if k.startswith("served_share.")]
    if not shares or abs(sum(shares) - 1.0) > 1e-5:
        errors.append(f"served_share sums to {sum(shares)}")
    lines = _one(out_dir, "*_trace.csv").read_text().splitlines()
    col = lines[0].split(",").index("mcs")
    mcs = [row.split(",")[col] for row in lines[1:]]
    bad = [m for m in mcs if m and not mcs_min <= int(m) <= MCS_MAX]
    if bad:
        errors.append(f"{len(bad)} trace MCS values outside [{mcs_min}, {MCS_MAX}], e.g. {bad[0]}")
    if len(mcs) != int(summary["n_slots"]):
        errors.append(f"trace has {len(mcs)} rows for n_slots={summary['n_slots']}")
    hist = _one(out_dir, "*_histogram.csv").read_text().splitlines()
    if len(hist) - 1 != len(shares):
        errors.append(f"histogram has {len(hist) - 1} rows for {len(shares)} UEs")
    return errors


def check_sweep(out_dir: Path) -> list[str]:
    """Every table row (3 alpha points, genie, no-surface) has served shares summing to 1."""
    errors = []
    lines = (out_dir / "sweep_alpha.csv").read_text().splitlines()
    header = lines[0].split(",")
    share_cols = [i for i, c in enumerate(header) if c.startswith("served_share")]
    modes = [row.split(",")[0] for row in lines[1:]]
    if modes != ["random"] * 3 + ["genie", "no_ris"]:
        errors.append(f"unexpected sweep rows {modes}")
    for row in lines[1:]:
        cells = row.split(",")
        total = sum(float(cells[i]) for i in share_cols)
        if abs(total - 1.0) > 1e-5:
            errors.append(f"{cells[0]} row served shares sum to {total}")
    return errors


def check_beam_scan(out_dir: Path) -> list[str]:
    """One pattern per target, 901 angles from 0 to 90 deg, no gain above
    the fully coherent 0 dB."""
    errors = []
    names = sorted(p.name for p in out_dir.glob("pattern_*deg.csv"))
    expected = sorted(f"pattern_{s}deg.csv" for s in BEAM_STEERS)
    if names != expected:
        errors.append(f"{len(names)} pattern files for {len(expected)} targets")
    for name in names:
        rows = (out_dir / name).read_text().splitlines()[1:]
        if len(rows) != 901:
            errors.append(f"{name}: {len(rows)} angles")
        if max(float(r.split(",")[1]) for r in rows) > 1e-4:
            errors.append(f"{name}: gain above 0 dB")
    return errors


CHECKS = {
    "schedule": check_schedule,
    "sweep": check_sweep,
    "fading": check_schedule,
    "beam-scan": check_beam_scan,
}


class Verifier:
    """Decides whether one invocation's outputs are correct.

    Invariants are checked once per distinct set of output digests; every
    invocation in a run must write the same files as the first (the model
    is deterministic), and at the default seed they must match the digests
    pinned in digests.json.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        spec = WORKLOADS[workload]
        pins = json.loads(PINS_PATH.read_text())[workload]
        pinned = spec.default_seed is None or seed == spec.default_seed
        self.pinned = pins if pinned else None
        self.first: dict[str, str] | None = None
        self.verdicts: dict[str, list[str]] = {}

    def check(self, inv: Invocation, out_dir: Path) -> tuple[dict[str, str], list[str]]:
        if inv.returncode != 0:
            return {}, [f"exit code {inv.returncode}: {inv.log[-2000:]}"]
        digests = digest_dir(out_dir)
        key = json.dumps(digests, sort_keys=True)
        if key not in self.verdicts:
            try:
                self.verdicts[key] = CHECKS[self.workload](out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.verdicts[key] = [f"unreadable output: {exc!r}"]
        errors = list(self.verdicts[key])
        if self.first is None:
            self.first = digests
        elif digests != self.first:
            errors.append("outputs differ from the run's first invocation")
        if self.pinned is not None and digests != self.pinned:
            diff = sorted(set(digests.items()) ^ set(self.pinned.items()))
            errors.append(f"digests differ from the pinned ones: {[name for name, _ in diff][:5]}")
        return digests, errors


# ---------------------------------------------------------------- runs


class Run:
    """One benchmark run: its invocations, their checks and a deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.spec = WORKLOADS[workload]
        self.verifier = Verifier(workload, seed)
        self.records: list[dict] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def invoke(self, traced: bool = False) -> tuple[dict, dict | None]:
        """One CLI invocation in a fresh output directory, deleted after checking."""
        tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            out_dir = tmp / "out"
            cli_args = self.spec.cli_args(self.seed, out_dir)
            stats_path = tmp / "stats.json"
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_child.py"), str(stats_path), *cli_args]
            else:
                argv = [sys.executable, "-c", CLI_MAIN, *cli_args]
            inv = spawn(argv, self.remaining(), tmp / "log.txt")
            out_dir.mkdir(exist_ok=True)
            digests, errors = self.verifier.check(inv, out_dir)
            stats = json.loads(stats_path.read_text()) if traced and stats_path.exists() else None
            record = {
                "traced": traced, "returncode": inv.returncode, "wall_s": inv.wall_s,
                "cpu_s": inv.cpu_s, "peak_rss_mb": inv.peak_rss_mb,
                "output_mb": dir_mb(out_dir), "trace_mb": dir_mb(out_dir, "*trace*.csv"),
                "digest": combined_digest(digests), "errors": errors,
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self.records.append(record)
        for err in errors:
            print(f"check failed ({self.workload}, seed {self.seed}): {err}", file=sys.stderr)
        return record, stats

    def setup_times(self) -> tuple[list[float], str]:
        argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), *self.spec.setup_args(self.seed)]
        times, numpy_version = [], "unknown"
        for _ in range(SETUP_RUNS):
            t0 = time.monotonic()
            done = subprocess.run(
                argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=max(self.remaining(), 1.0),
            )
            if done.returncode != 0:
                raise SystemExit(f"set-up failed for {self.workload}:\n{done.stderr[-2000:]}")
            ready = json.loads(done.stdout.splitlines()[-1])
            times.append(ready["ready"] - t0)
            numpy_version = ready["numpy"]
        return times, numpy_version


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    setups, numpy_version = run.setup_times()
    start = time.monotonic()
    walls = []
    while True:
        record, _ = run.invoke()
        walls.append(record["wall_s"])
        elapsed = time.monotonic() - start
        expected = statistics.median(walls)
        if elapsed + expected > seconds or expected > run.remaining():
            break
    ok = [r for r in run.records if not r["errors"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in run.records),
        "cpu_s": statistics.median(r["cpu_s"] for r in run.records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in run.records),
        "pass_rate": len(ok) / len(run.records),
    }
    return metrics, {"numpy": numpy_version, "setup_s": setups}


def layer_metrics(stats: dict, traced: dict, untraced: dict) -> dict[str, float]:
    s = stats["stats"]
    runs = stats["runs"]

    def calls(name):
        return s.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return s.get(name, [0, 0.0, 0.0])[2]

    metrics = {}
    for name in (
        "engine.build_link_tables", "engine.tb_bits", "engine.slot_kind",
        "scheduler.select_ue", "scheduler.ewma_update", "link_adapt.bler",
        "link_adapt.cqi_update", "link_adapt.step_mcs", "channel.los_cascaded_channel",
        "channel.effective_channel", "ris_control.state_at_slot", "array_model.pattern_gains",
        "array_model.reflection_weights", "array_model.upa_profile",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = self_s(name)
    for name in (
        "engine.write_trace_csv", "engine.scheduling_histogram", "array_model.beam_metrics",
        "array_model.design_phase_offsets", "config.from_flat", "presets.schedule_config",
    ):
        metrics[f"{name}.s"] = self_s(name)
    for name in ("scheduler.rr_select", "link_adapt.harq_on_nack"):
        metrics[f"{name}.calls"] = calls(name)
    run_total = s.get("engine.run", [0, 0.0, 0.0])[1]
    metrics.update({
        "engine.run.self_s": self_s("engine.run"),
        "engine.slots": runs["slots"],
        "engine.us_per_slot": run_total / runs["slots"] * 1e6 if runs["slots"] else 0.0,
        "engine.trace_rows": runs["trace_rows"],
        "engine.trace_mb": traced["trace_mb"],
        "engine.ack_bit_ratio": (
            runs["acked_bits"] / runs["new_tx_bits"] if runs["new_tx_bits"] else 0.0
        ),
        "cli.import_s": stats["import_s"],
        "cli.self_s": self_s("cli.main"),
        "cli.output_mb": traced["output_mb"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
    })
    return metrics


def measure_traced(run: Run) -> tuple[dict[str, float], dict]:
    untraced, _ = run.invoke()
    traced, stats = run.invoke(traced=True)
    if stats is None:
        raise SystemExit("traced run wrote no statistics")
    if traced["digest"] != untraced["digest"]:
        traced["errors"].append("traced outputs differ from untraced outputs")
        print(f"check failed ({run.workload}, seed {run.seed}): {traced['errors'][-1]}", file=sys.stderr)
    return layer_metrics(stats, traced, untraced), {
        "numpy": stats["numpy"], "missing_wraps": stats["missing"], "spans": stats["spans"],
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "rissim" / "cli.py").is_file():
        print(f"rissim sources not found under {SRC}", file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            metrics, extra = measure_traced(run)
        else:
            metrics, extra = measure(run, args.seconds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    failed = sum(1 for r in run.records if r["errors"])
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": extra.pop("numpy"),
        **THREAD_ENV,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "env": env,
        "metrics": metrics, "invocations": run.records, "digests": run.verifier.first, **extra,
    }, indent=1))
    print(json.dumps({
        "env": env, "samples": len(run.records), "results": str(result_path.relative_to(ROOT)),
        "digest": run.records[0]["digest"],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""balint benchmark: replication-grid wall time, solve latency, per-layer timings.

From the repository root:

    python3 perfbench/run.py --workload fig1_serial [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined, with the reason each exists, in perfbench/workloads.py.
The library is imported from the checkout's src/ and driven in-process, one
grid at a time. Every grid's CSV is checked (perfbench/checks.py). The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a JSON record of the environment, the
checks and the sample counts.

--trace 0 (the default) measures the end-to-end metrics with tracing off,
from samples interleaved over the whole run; each timing but setup_s is a
10%-trimmed mean of its samples (measure() says why not a median):

    setup_s      median wall time of a fresh interpreter importing balint,
                 loading and parsing the config and expanding the grid
    grid_wall_s  wall time of run_grid + write_csv for the whole grid, as
                 `balint simulate` does it, pool start-up included
    solve_s_p50  median time of one intercept.solve per cell that yields an
                 intercept, taken per pass over the grid
    solve_s_p90  the same for the 90th percentile
    peak_rss_mb  peak resident memory of this process plus the largest peak
                 of any child it waited for (getrusage)

--trace 1 reports the per-layer metrics of perfbench/spans.py from a separate
traced pass, with the tracing overhead: the traced minus the untraced time of
all cells, each cell run both ways back to back.

--seed sets the grids' master_seed; it defaults to each config's pinned seed.
The pinned CSV digests hold only at that seed and at the full run size, so
any other seed (or --smoke) skips the digest comparison and says so; every
other check still runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
# solve-latency passes keep up with this share of the run's elapsed time
SOLVE_SHARE = 0.1
# a traced run spends up to this share of its time on untraced grid runs
TRACE_UNTRACED_SHARE = 1 / 3


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="master_seed (default: the config's)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="shrink the grid (perfbench/smoke.py)")
    return p.parse_args(argv)


def import_balint():
    """Import balint from this checkout's src/, never from an installed copy."""
    if not (SRC / "balint" / "__init__.py").is_file():
        sys.exit(f"perfbench: no balint sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import balint

    if Path(balint.__file__).resolve().parent != SRC / "balint":
        sys.exit(f"perfbench: imported balint from {balint.__file__}, not from {SRC}")
    return balint


# ------------------------------------------------------------------ set-up


class SetupProbe:
    """Fresh interpreters from start-up to an expanded grid, timed whole."""

    def __init__(self, config: Path, overrides: dict):
        script = HERE / "setup_probe.py"
        self.cmd = [sys.executable, str(script), str(SRC), str(config), json.dumps(overrides)]
        self.walls: list[float] = []
        self.phases: list[dict] = []

    def run(self, keep: bool = True) -> None:
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        if keep:
            self.walls.append(wall)
            self.phases.append(json.loads(done.stdout))


# ------------------------------------------------------------------- grids

class GridRuns:
    """Timed grid runs of one config, each followed by its output check."""

    def __init__(self, cfg, cells, digest, out_path: Path):
        self.cfg = cfg
        self.cells = cells
        self.digest = digest
        self.out_path = out_path
        self.walls: list[float] = []
        self.run_grid_s: list[float] = []
        self.write_csv_s: list[float] = []
        self.first: bytes | None = None
        self.rows = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self) -> None:
        from balint import run_grid, write_csv
        from checks import check_csv

        t0 = time.perf_counter()
        rows = run_grid(self.cfg)
        t1 = time.perf_counter()
        write_csv(rows, str(self.out_path))
        t2 = time.perf_counter()
        self.walls.append(t2 - t0)
        self.run_grid_s.append(t1 - t0)
        self.write_csv_s.append(t2 - t1)
        data = self.out_path.read_bytes()
        if self.first is None:
            self.first, self.rows = data, rows
            problems = check_csv(data, self.cells, self.digest)
        else:
            problems = [] if data == self.first else ["CSV bytes differ between runs of one grid"]
        self.fail_if(problems)

    def fail_if(self, problems: list[str]) -> None:
        """Count a run's cells; all of them fail if its check found problems."""
        self.attempted += len(self.cells)
        if problems:
            self.failed += len(self.cells)
            self.problems += problems

    def repeat_until(self, deadline: float) -> None:
        """At least one run; another while half a typical run still fits."""
        from spans import median

        if not self.walls:
            self.run()
        while time.perf_counter() + 0.5 * median(self.walls) < deadline:
            self.run()

    def check_pool_equals_serial(self) -> None:
        """harness.py's contract: the bytes do not depend on the worker count."""
        from balint import run_grid, write_csv

        if self.cfg.workers == 1:
            return
        buf = io.StringIO()
        write_csv(run_grid(dataclasses.replace(self.cfg, workers=1)), buf)
        if buf.getvalue().encode("utf-8") != self.first:
            # every pooled run wrote these same bytes, so all their cells fail
            self.failed = self.attempted
            self.problems.append(f"workers={self.cfg.workers} CSV differs from the workers=1 CSV")


def solve_pass(cells) -> list[float]:
    """Time one intercept.solve per cell, on the solver's own stream."""
    from balint import MgfDomainError, scenario_stream, solve

    times = []
    for c in cells:
        s = c.scenario
        rng = scenario_stream(s.master_seed, s.id).child(0)
        t0 = time.perf_counter()
        try:
            solve(s.dgp, s.solver, engine=s.engine, tol=s.tol, rng=rng)
        except MgfDomainError:
            continue  # no intercept exists; the harness skips this cell
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


# ------------------------------------------------------------- the two modes


def measure(grids: GridRuns, probe: SetupProbe, seconds: float) -> tuple[dict, dict]:
    """Grid runs back to back, with set-up probes and solve passes interleaved.

    Every metric is sampled across the whole run and summarized by a trimmed
    mean, not a median: on a shared host the CPU flips between a fast and a
    slow state every few seconds (fig1's closed-form solve reads 18 or 30 us,
    little in between), so a median jumps between the two modes from run to
    run, while a trimmed mean moves in proportion to the time spent in each.
    """
    from spans import median, percentile, trimmed_mean

    start = time.perf_counter()
    p50s, p90s, solve_used, per_pass = [], [], 0.0, 0
    while True:
        grids.run()
        elapsed = time.perf_counter() - start
        while len(probe.walls) < SETUP_PROBES * min(1.0, elapsed / seconds):
            probe.run()
        while not p50s or solve_used < SOLVE_SHARE * (time.perf_counter() - start):
            times = solve_pass(grids.cells)
            solve_used += sum(times)
            per_pass = len(times)
            p50s.append(percentile(times, 50))
            p90s.append(percentile(times, 90))
        if time.perf_counter() + 0.5 * median(grids.walls) >= start + seconds:
            break
    while len(probe.walls) < SETUP_PROBES:
        probe.run()
    grids.check_pool_equals_serial()
    metrics = {
        "setup_s": (median(probe.walls), "s"),
        "grid_wall_s": (trimmed_mean(grids.walls), "s"),
        "solve_s_p50": (trimmed_mean(p50s), "s"),
        "solve_s_p90": (trimmed_mean(p90s), "s"),
    }
    samples = {"grid_runs": len(grids.walls), "solve_passes": len(p50s), "solves_per_pass": per_pass}
    return metrics, samples


def outcome(run, scenario):
    """A cell's ScenarioResult, None when the harness skips it, or its Error."""
    from balint import Error, MgfDomainError

    try:
        return run(scenario)
    except MgfDomainError:
        return None
    except Error as e:
        return e


def traced(grids: GridRuns, seconds: float, hot: str) -> tuple[dict, dict]:
    from balint import Error, ScenarioResult, run_scenario
    from spans import Tracer, layer_metrics, median, patched, percentile, reenact_cell

    grids.repeat_until(time.perf_counter() + TRACE_UNTRACED_SHARE * seconds)
    grids.check_pool_equals_serial()
    # Each cell runs untraced through the real run_scenario and at once again
    # re-enacted in spans, so that both see the same state of the host.
    tracer = Tracer()
    cell_times, mismatched = [], []
    untraced_wall = traced_wall = 0.0
    for c in grids.cells:
        t0 = time.perf_counter()
        r = outcome(run_scenario, c.scenario)
        t1 = time.perf_counter()
        with patched(tracer):
            t2 = time.perf_counter()
            again = outcome(lambda s: reenact_cell(tracer, s), c.scenario)
            t3 = time.perf_counter()
        untraced_wall += t1 - t0
        traced_wall += t3 - t2
        if isinstance(r, ScenarioResult):
            cell_times.append(t1 - t0)
        if again != r and not (isinstance(r, Error) and type(again) is type(r)):
            mismatched.append(c.scenario.id)
    grids.fail_if([f"re-enactment differs from run_scenario on {sid}" for sid in mismatched[:5]])

    statuses = [row.status for row in grids.rows]
    workers = grids.cfg.workers
    metrics = layer_metrics(tracer.spans, hot)
    metrics.update(
        {
            "harness.run_scenario_s_p50": (percentile(cell_times, 50), "s"),
            "harness.run_scenario_s_p90": (percentile(cell_times, 90), "s"),
            "harness.run_grid_s": (median(grids.run_grid_s), "s"),
            "harness.pool_efficiency": (sum(cell_times) / (workers * median(grids.run_grid_s)), "ratio"),
            "harness.write_csv_s": (median(grids.write_csv_s), "s"),
            "harness.csv_bytes": (len(grids.first), "B"),
            "harness.cells_ok": (statuses.count("ok"), "count"),
            "harness.cells_skipped": (statuses.count("skipped"), "count"),
            "harness.cells_error": (statuses.count("error"), "count"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        }
    )
    samples = {
        "grid_runs": len(grids.walls),
        "cells_timed": len(cell_times),
        "spans": len(tracer.spans),
        "untraced_cells_s": untraced_wall,
        "traced_cells_s": traced_wall,
    }
    return metrics, samples


# --------------------------------------------------------------- reporting


def environment(cfg) -> dict:
    import numpy as np

    from balint import MonteCarlo

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    n_mc = cfg.engine.n_mc if isinstance(cfg.engine, MonteCarlo) else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "working_set": {
            "generation_array_bytes": 8 * cfg.n,
            "mc_array_bytes": None if n_mc is None else 8 * n_mc,
            "note": (
                "each hot array fits in L2 and a solve's few n_mc-sized temporaries "
                "together fit in L3, so *_bytes metrics are computed from array sizes, "
                "not measured, and the four-times-LLC bandwidth rule is not applied"
            ),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    load_before = os.getloadavg()
    balint = import_balint()
    from balint import cli
    from checks import sha256
    from spans import median
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    config = ROOT / w.config
    doc = cli.load_config(str(config))
    pinned_seed = doc["master_seed"]
    seed = pinned_seed if args.seed is None else args.seed
    overrides = {**w.overrides, **(w.smoke if args.smoke else {}), "master_seed": seed}
    digest_checked = seed == pinned_seed and not args.smoke
    cfg = cli.parse_grid_config({**doc, **overrides})
    cells = balint.expand_grid(cfg)

    probe = SetupProbe(config, overrides)
    probe.run(keep=False)  # fills __pycache__, as a user's first run does
    OUT.mkdir(exist_ok=True)
    grids = GridRuns(cfg, cells, w.digest if digest_checked else None, OUT / f"{w.name}.csv")
    # first-call costs (imports inside numpy, allocator growth) are paid once
    # per process by users too, but not once per grid; keep them out
    try:
        balint.run_scenario(cells[0].scenario)
    except balint.Error:
        pass
    if args.trace:
        for _ in range(SETUP_PROBES):
            probe.run()
        metrics, samples = traced(grids, args.seconds, w.hot)
        for phase in ("import_s", "cli.load_config_s", "cli.parse_grid_config_s", "harness.expand_grid_s"):
            metrics[phase] = (median(p[phase] for p in probe.phases), "s")
        metrics["failed_frac"] = (grids.failed / grids.attempted, "ratio")
    else:
        metrics, samples = measure(grids, probe, args.seconds)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    samples["setup_probes"] = len(probe.walls)

    notes = []
    if not digest_checked:
        why = "--smoke shrinks the grid" if args.smoke else f"seed {seed} is not the pinned {pinned_seed}"
        notes.append(f"CSV digest comparison skipped: {why}")
    context = {
        "workload": w.name,
        "seed": seed,
        "digest_checked": digest_checked,
        "csv_sha256": sha256(grids.first),
        "notes": notes,
        "problems": grids.problems[:20],
        "samples": samples,
        "env": environment(cfg),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print(json.dumps(context))
    result = {
        "correct": not grids.problems,
        "attempted": grids.attempted,
        "failed": grids.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, at minimal size.

    python3 perfbench/smoke.py

1. Runs every workload with --smoke (a shrunken grid) and --seconds 1, with
   tracing off and on, and checks the last output line: exactly the keys
   correct, attempted, failed and metrics, a correct run, and every metric
   BENCHMARK.json names for that mode emitted with its unit and nothing else.
2. Shows that the output check bites: a CSV that passes check_csv fails it
   once one beta0 is nudged, through the pinned digest (fig1 at its run size
   and pinned seed) and through the value checks alone, on the closed-form
   route (fig1) and the Monte Carlo route (logit_numeric_mc).

Exits 0 when everything holds and 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def emitted_metrics(workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        return [f"{workload} trace {trace}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"run not correct: {result['attempted']} attempted, {result['failed']} failed")
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    if bad:
        problems.append(f"non-numeric values: {bad}")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def nudge_first_beta0(data: bytes) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    col = rows[0].index("beta0")
    row = next(r for r in rows[1:] if r[col])
    row[col] = format(float(row[col]) + 1e-3, ".9g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


def check_bites(workload: str, smoke: bool) -> list[str]:
    from balint import cli, expand_grid, run_grid, write_csv
    from checks import check_csv
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    doc = cli.load_config(str(run.ROOT / w.config))
    cfg = cli.parse_grid_config({**doc, **w.overrides, **(w.smoke if smoke else {})})
    cells = expand_grid(cfg)
    buf = io.StringIO()
    write_csv(run_grid(cfg), buf)
    good = buf.getvalue().encode("utf-8")
    bad = nudge_first_beta0(good)
    digests = [None] if smoke else [None, w.digest]
    problems = []
    for digest in digests:
        label = f"{workload} ({'digest' if digest else 'values only'})"
        if check_csv(good, cells, digest):
            problems.append(f"{label}: the true CSV fails its check: {check_csv(good, cells, digest)[:3]}")
        if not check_csv(bad, cells, digest):
            problems.append(f"{label}: a CSV with a nudged beta0 passes its check")
    return problems


def main() -> int:
    run.import_balint()
    spec = json.loads(BENCHMARK.read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += emitted_metrics(workload, trace)
    problems += check_bites("fig1_serial", smoke=False)
    problems += check_bites("logit_numeric_mc", smoke=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

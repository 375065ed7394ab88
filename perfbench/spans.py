"""Spans for the traced pass, and the per-layer metrics made from them.

A span records a name (`<module>.<function>`), its start and end, its parent
span and the cell it belongs to. Spans stay in memory and are reduced to
metrics when the pass ends. The program itself is not instrumented: the
traced pass re-enacts each cell through the public calls run_scenario makes
(reenact_cell), and `patched` wraps the covariate samplers,
RngStream.generator and the links' invert methods at class level for the
duration of the pass, so that spans open around the calls generate and solve
make into those layers. The wrappers call the originals and return their
results untouched.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

from balint import (
    Bernoulli,
    Categorical,
    Cauchy,
    Gamma,
    Identity,
    Log,
    Logit,
    MgfDomainError,
    Normal,
    RngStream,
    ScenarioResult,
    UniformContinuous,
    generate,
    scenario_stream,
    solve,
)

CELL = "harness.run_scenario"
SAMPLE = "distributions.sample"
STREAM = "distributions.RngStream.generator"
INVERT = "links.invert"
SOLVE = "intercept.solve"
GENERATE = "datagen.generate"

# Bytes are computed from array sizes, not measured: every array here is
# float64 or int64, a sampler writes its output once, and invert reads eta
# and writes mu.
SAMPLE_BYTES_PER_ELEMENT = 8
INVERT_BYTES_PER_ELEMENT = 16


class Span:
    __slots__ = ("tracer", "name", "parent", "top", "cell", "start", "end", "size", "iterations")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.size = 0
        self.iterations = None

    def __enter__(self) -> "Span":
        t = self.tracer
        self.parent = t.stack[-1] if t.stack else None
        # top: the span directly under the cell span (a solve or a generate)
        if self.parent is None or self.parent.name == CELL:
            self.top = self
        else:
            self.top = self.parent.top
        self.cell = t.cell
        t.spans.append(self)
        t.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer.stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.cell = None

    def span(self, name: str) -> Span:
        return Span(self, name)


def _wrap(tracer: Tracer, name: str, fn):
    def traced(self, *args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(self, *args, **kwargs)
            sp.size = int(np.size(out))
        return out

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Wrap the inner layers' methods in spans; restore them on exit."""
    samplers = (Bernoulli, UniformContinuous, Normal, Gamma, Cauchy, Categorical)
    targets = [(cls, "sample", SAMPLE) for cls in samplers]
    targets += [(cls, "invert", INVERT) for cls in (Identity, Log, Logit)]
    targets.append((RngStream, "generator", STREAM))
    saved = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in targets]
    try:
        for cls, attr, name in targets:
            setattr(cls, attr, _wrap(tracer, name, cls.__dict__[attr]))
        yield tracer
    finally:
        for cls, attr, fn in saved:
            setattr(cls, attr, fn)


def reenact_cell(tracer: Tracer, s) -> ScenarioResult | None:
    """run_scenario's computation through the same public calls, in spans.

    Returns the ScenarioResult run_scenario would, or None for a cell whose
    exponential moment diverges (the harness records it as skipped).
    """
    tracer.cell = s.id
    with tracer.span(CELL):
        ss = scenario_stream(s.master_seed, s.id)
        try:
            with tracer.span(SOLVE) as sp:
                sol = solve(s.dgp, s.solver, engine=s.engine, tol=s.tol, rng=ss.child(0))
                sp.iterations = sol.iterations
        except MgfDomainError:
            return None
        rep_base = ss.child(1)
        means = np.empty(s.replicates)
        clamped = 0
        for k in range(s.replicates):
            with tracer.span(GENERATE):
                ds = generate(s.dgp, sol.beta0, s.n, rep_base.child(k))
            means[k] = ds.outcome.mean()
            clamped += ds.clamp_count
        achieved = float(means.mean())
        return ScenarioResult(
            scenario_id=s.id,
            beta0=float(sol.beta0),
            achieved_mean=achieved,
            bias=achieved - s.dgp.target_mean,
            bias_se=float(means.std(ddof=1) / math.sqrt(s.replicates)),
            clamp_rate=clamped / (s.replicates * s.n),
            replicates=s.replicates,
            warnings=sol.warnings,
            replicate_means=tuple(float(m) for m in means),
        )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and highest cut share."""
    values = sorted(values)
    k = int(cut * len(values))
    return statistics.fmean(values[k : len(values) - k])


def percentile(values, q: float) -> float:
    values = list(values)
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], hot: str) -> dict[str, tuple[float, str]]:
    """Per-layer (value, unit) of one traced pass.

    hot names the workload's bounding span (a generate or a solve); the
    sampling, stream and invert numbers are taken under it, at the array size
    that span works on (n for generation, n_mc for solving).
    """
    if hot not in (SOLVE, GENERATE):
        raise ValueError(f"bounding span must be {SOLVE} or {GENERATE}, got {hot!r}")
    covered = {}
    for sp in spans:
        if sp.parent is not None:
            covered[id(sp.parent)] = covered.get(id(sp.parent), 0.0) + sp.duration

    def self_time(sp: Span) -> float:
        return sp.duration - covered.get(id(sp), 0.0)

    def named(name: str, under_hot: bool = False) -> list[Span]:
        return [sp for sp in spans if sp.name == name and (not under_hot or sp.top.name == hot)]

    groups: dict[int, list[Span]] = {}
    for sp in named(SAMPLE, under_hot=True):
        groups.setdefault(id(sp.top), []).append(sp)
    solves = named(SOLVE)
    iters = [sp.iterations for sp in solves if sp.iterations is not None]
    gens = named(GENERATE)
    inverts = named(INVERT, under_hot=True)
    # a cell that ran (was not skipped) generated at least one replicate
    ran = {id(sp.parent) for sp in gens}
    cells = [sp for sp in named(CELL) if id(sp) in ran]
    return {
        "intercept.solve_s_total": (math.fsum(sp.duration for sp in solves), "s"),
        "intercept.solve_calls": (len(solves), "count"),
        "intercept.solve_iters_mean": (statistics.fmean(iters) if iters else 0.0, "count"),
        "links.invert_s_per_call": (median(sp.duration for sp in inverts), "s"),
        "links.invert_bytes": (median(INVERT_BYTES_PER_ELEMENT * sp.size for sp in inverts), "B"),
        "distributions.sample_s": (median(math.fsum(sp.duration for sp in g) for g in groups.values()), "s"),
        "distributions.stream_s": (median(sp.duration for sp in named(STREAM, under_hot=True)), "s"),
        "distributions.sample_bytes": (
            median(SAMPLE_BYTES_PER_ELEMENT * sum(sp.size for sp in g) for g in groups.values()),
            "B",
        ),
        "datagen.generate_calls": (len(gens), "count"),
        "datagen.generate_s_p50": (percentile((sp.duration for sp in gens), 50), "s"),
        "datagen.generate_s_p90": (percentile((sp.duration for sp in gens), 90), "s"),
        "datagen.self_s": (median(self_time(sp) for sp in gens), "s"),
        "harness.replicate_self_s": (median(self_time(sp) for sp in cells), "s"),
    }

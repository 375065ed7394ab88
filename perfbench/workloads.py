"""The benchmark's three workloads and why each one exists.

Each workload is one closed loop from one caller: the benchmark process runs
a whole grid, waits for its CSV, checks it, and only then starts the next.
The config is loaded and overridden the way `balint simulate` applies its
command-line flags, so the program sees nothing but the generated grid.

fig1_serial
    The bundled fig1.yaml (log link, normal outcome, log_closed_form solver,
    exact engine) at workers 1, with replicates cut to 5 so that one grid
    takes about a second and a run holds dozens of them. 180 cells: 144 run,
    36 gamma cells with beta2 >= rate are skipped (divergent exponential
    moment). Generation-bound: the closed-form solve takes tens of
    microseconds per cell against about a millisecond per replicate. It is
    the workload that shows datagen and distributions changes (one eta
    kernel), and it passes through the solver and the process pool untouched.

suppfig1_pool
    The bundled suppfig1.yaml (Bernoulli outcome, clamp_to_unit) at
    workers 2 and 10 replicates. It uses the generation layer differently
    from fig1: a uniform-compare outcome draw plus the clamp count instead of
    a normal draw. It is the only workload that goes through run_grid's
    process pool, whose start-up is a visible share of a one-second grid.

logit_numeric_mc
    A grid owned by the benchmark (configs/logit_numeric_mc.yaml, which
    gives its choices): suppfig1's axes with a logit link, the numeric
    solver, the mc engine at its default n_mc and tiny n and replicates.
    Solve-bound: each cell is one bisection over 100k frozen draws, about
    45-60 ms, while generation takes almost nothing. It is the workload that
    shows solver and link changes (a faster root finder, a cheaper
    Logit.invert), and it bypasses replicate generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    """Grid config, relative to the repository root."""
    overrides: dict
    """Applied to the loaded config as `balint simulate` applies its flags."""
    digest: str
    """sha256 of the result CSV at the config's master_seed and these overrides."""
    hot: str
    """The span whose inner layers (sampling, streams, invert) bound the run."""
    smoke: dict = field(default_factory=dict)
    """Extra overrides that shrink the grid for perfbench/smoke.py."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1_serial",
            config="src/balint/configs/fig1.yaml",
            overrides={"replicates": 5, "workers": 1},
            digest="c8a8f952e77cad158e467886ef684e723e6991adba58487ce4ce6af08432af73",
            hot="datagen.generate",
            smoke={"replicates": 2, "n": 500},
        ),
        Workload(
            name="suppfig1_pool",
            config="src/balint/configs/suppfig1.yaml",
            overrides={"replicates": 10, "workers": 2},
            digest="916489db40283930d2386baa43aa87e5a80c24e64b084d85d4f164d5e3f3626c",
            hot="datagen.generate",
            smoke={"replicates": 2, "n": 500},
        ),
        Workload(
            name="logit_numeric_mc",
            config="perfbench/configs/logit_numeric_mc.yaml",
            overrides={},
            digest="6562c7f819f82731996b539e7543e5a5c741f3f75f77e3d64083e5cb8a71f118",
            hot="intercept.solve",
            smoke={"n_mc": 2000},
        ),
    )
}

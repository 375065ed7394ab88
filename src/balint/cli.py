"""Command-line front end: solve | verify | simulate.

Configs are YAML documents validated strictly: an unrecognized key anywhere is
a hard error naming the key, so typos never silently fall back to defaults.
Command-line flags override file values. All randomness flows from the
config's master_seed (or its --seed override); nothing is wall-clock seeded.

Exit codes: 0 success; 1 usage or config error; 2 mathematical infeasibility
(divergent moment, missing MGF, no root); 3 verification gap too large.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import MISSING, fields
from typing import NamedTuple, Optional, Sequence

import yaml

from .distributions import (
    Bernoulli,
    Categorical,
    Cauchy,
    Gamma,
    Normal,
    RngStream,
    UniformContinuous,
)
from .errors import ConfigError, Error
from .harness import GridConfig, run_grid, summarize, write_csv
from .intercept import (
    BernoulliOutcome,
    DgpSpec,
    Engine,
    ExactEnumeration,
    MonteCarlo,
    NormalOutcome,
    SOLVER_NAMES,
    Term,
    default_tol,
    expectation_of_mean,
    solve,
)
from .links import link_by_name

__all__ = [
    "load_config",
    "parse_grid_config",
    "parse_dgp_config",
    "DgpDocument",
    "main",
    "entry",
]

VERIFY_GAP_EXIT = 3


# ---------------------------------------------------------------- validation

def _check_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in mapping:
            raise ConfigError(f"missing key '{key}' in {where}")


def _num(value, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number, got {value!r}")
    return float(value)


def _int(value, key: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' in {where} must be an integer, got {value!r}")
    return value


def _str(value, key: str, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"key '{key}' in {where} must be a string, got {value!r}")
    return value


def _num_tuple(value, key: str, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' in {where} must be a nonempty list of numbers")
    return tuple(_num(v, key, where) for v in value)


def load_config(path: str) -> dict:
    try:
        with open(path, "rb") as f:  # yaml decodes, so a bad byte is a YAMLError
            doc = yaml.safe_load(f)
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse {path}: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must contain a mapping at the top level")
    return doc


# ------------------------------------------------------- dataclass entries

# one reader per dataclass field type, as harness._CELL_TEXT has one
# formatter per GridRow field type
_FIELD_READERS = {
    "float": _num,
    "str": _str,
    "tuple[float, ...]": _num_tuple,
}


def _parse_fields(cls, entry: dict, where: str, keys: set[str], required: set[str]):
    """cls built from entry, each dataclass field read by its declared type.

    A field without a default is a required key, a field with one may be
    left out. keys and required name the entry's other keys, which the
    caller reads.
    """
    own = fields(cls)
    _check_keys(
        entry,
        keys | {f.name for f in own},
        required | {f.name for f in own if f.default is MISSING},
        where,
    )
    values = {}
    for f in own:
        if f.name in entry:
            values[f.name] = _FIELD_READERS[f.type](entry[f.name], f.name, where)
    return cls(**values)


_KINDS = {
    "dist": (
        "distribution",
        {cls.kind: cls for cls in (Bernoulli, UniformContinuous, Normal, Gamma, Cauchy, Categorical)},
    ),
    "family": ("outcome family", {cls.family: cls for cls in (NormalOutcome, BernoulliOutcome)}),
}


def _parse_kind(entry, where: str, switch: str, keys=(), required=()):
    """The class that entry[switch] names ('dist' or 'family'), built by _parse_fields."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    if switch not in entry:
        raise ConfigError(f"missing key '{switch}' in {where}")
    name = _str(entry[switch], switch, where)
    label, kinds = _KINDS[switch]
    if name not in kinds:
        raise ConfigError(f"unknown {label} '{name}' in {where} (expected one of {sorted(kinds)})")
    return _parse_fields(kinds[name], entry, where, {switch, *keys}, {switch, *required})


def _parse_engine(doc: dict, where: str) -> Engine:
    name = _str(doc.get("engine", "exact"), "engine", where)
    if name == "exact":
        return ExactEnumeration()
    if name == "mc":
        return MonteCarlo(n_mc=_int(doc.get("n_mc", 100_000), "n_mc", where))
    raise ConfigError(f"key 'engine' in {where} must be 'exact' or 'mc', got '{name}'")


def _parse_solver(doc: dict, where: str) -> str:
    # a required key: the caller's _check_keys has already seen it
    solver = _str(doc["solver"], "solver", where)
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver '{solver}' in {where} (expected one of {SOLVER_NAMES})")
    return solver


def _parse_tol(doc: dict, where: str) -> Optional[float]:
    if "tol" not in doc:
        return None
    tol = _num(doc["tol"], "tol", where)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"key 'tol' in {where} must be positive and finite, got {tol}")
    return tol


# -------------------------------------------------------------- grid configs

_GRID_REQUIRED = {
    "name",
    "link",
    "outcome",
    "exposure",
    "covariate_axis",
    "beta2_axis",
    "target_axis",
    "n",
    "replicates",
    "master_seed",
    "solver",
}
_GRID_KEYS = _GRID_REQUIRED | {"engine", "n_mc", "tol", "workers"}


def parse_grid_config(doc: dict) -> GridConfig:
    where = "grid config"
    _check_keys(doc, _GRID_KEYS, _GRID_REQUIRED, where)
    exp = doc["exposure"]
    # parsed first: it checks that exp is a mapping holding every key read below
    spec = _parse_fields(Categorical, exp, "exposure", {"name", "betas"}, {"name", "betas"})
    exposure = Term(
        name=_str(exp["name"], "name", "exposure"),
        spec=spec,
        beta=_num_tuple(exp["betas"], "betas", "exposure"),
    )
    axis_doc = doc["covariate_axis"]
    if not isinstance(axis_doc, list) or not axis_doc:
        raise ConfigError("key 'covariate_axis' in grid config must be a nonempty list")
    z_axis = []
    for i, entry in enumerate(axis_doc):
        where_i = f"covariate_axis[{i}]"
        spec = _parse_kind(entry, where_i, "dist", {"name"})
        z_axis.append((_str(entry.get("name", "z"), "name", where_i), spec))
    return GridConfig(
        name=_str(doc["name"], "name", where),
        link=link_by_name(_str(doc["link"], "link", where)),
        outcome=_parse_kind(doc["outcome"], "outcome", "family"),
        exposure=exposure,
        z_axis=tuple(z_axis),
        beta2_axis=_num_tuple(doc["beta2_axis"], "beta2_axis", where),
        target_axis=_num_tuple(doc["target_axis"], "target_axis", where),
        n=_int(doc["n"], "n", where),
        replicates=_int(doc["replicates"], "replicates", where),
        master_seed=_int(doc["master_seed"], "master_seed", where),
        solver=_parse_solver(doc, where),
        engine=_parse_engine(doc, where),
        tol=_parse_tol(doc, where),
        workers=_int(doc.get("workers", 1), "workers", where),
    )


# --------------------------------------------------------- single-DGP configs

_DGP_REQUIRED = {"link", "target_mean", "outcome", "covariates", "solver"}
_DGP_KEYS = _DGP_REQUIRED | {"engine", "n_mc", "tol", "master_seed"}


class DgpDocument(NamedTuple):
    dgp: DgpSpec
    solver: str
    engine: Engine
    tol: Optional[float]
    master_seed: int


def parse_dgp_config(doc: dict) -> DgpDocument:
    where = "dgp config"
    _check_keys(doc, _DGP_KEYS, _DGP_REQUIRED, where)
    cov_doc = doc["covariates"]
    if not isinstance(cov_doc, list):
        raise ConfigError("key 'covariates' in dgp config must be a list")
    terms = []
    for i, entry in enumerate(cov_doc):
        where_i = f"covariates[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where_i} must be a mapping")
        # a categorical takes a coefficient block, any other covariate a scalar
        if entry.get("dist") == Categorical.kind:
            key, wrong, what, read = "betas", "beta", "a categorical", _num_tuple
        else:
            key, wrong, what, read = "beta", "betas", "a continuous covariate", _num
        if wrong in entry:
            raise ConfigError(f"{where_i}: {what} takes '{key}', not '{wrong}'")
        spec = _parse_kind(entry, where_i, "dist", {"name", key}, {key})
        name = _str(entry.get("name", f"x{i + 1}"), "name", where_i)
        terms.append(Term(name=name, spec=spec, beta=read(entry[key], key, where_i)))
    dgp = DgpSpec(
        terms=tuple(terms),
        link=link_by_name(_str(doc["link"], "link", where)),
        outcome=_parse_kind(doc["outcome"], "outcome", "family"),
        target_mean=_num(doc["target_mean"], "target_mean", where),
    )
    return DgpDocument(
        dgp=dgp,
        solver=_parse_solver(doc, where),
        engine=_parse_engine(doc, where),
        tol=_parse_tol(doc, where),
        master_seed=_int(doc.get("master_seed", 0), "master_seed", where),
    )


# ------------------------------------------------------------------ commands

_OVERRIDE_KEYS = (
    ("seed", "master_seed"),
    ("replicates", "replicates"),
    ("workers", "workers"),
    ("engine", "engine"),
    ("n_mc", "n_mc"),
    ("tol", "tol"),
)


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    for attr, key in _OVERRIDE_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            doc[key] = value
    return doc


def cmd_solve(args: argparse.Namespace) -> int:
    parsed = parse_dgp_config(_apply_overrides(load_config(args.config), args))
    rng = RngStream(parsed.master_seed).child(0)
    sol = solve(parsed.dgp, parsed.solver, engine=parsed.engine, tol=parsed.tol, rng=rng)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["beta0", "method", "residual", "mc_se", "warnings"])
    w.writerow(
        [
            repr(sol.beta0),
            sol.method,
            format(sol.residual, ".9g"),
            format(sol.mc_se, ".9g"),
            ";".join(sorted(sol.warnings)),
        ]
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    parsed = parse_dgp_config(_apply_overrides(load_config(args.config), args))
    if not math.isfinite(args.beta0):
        raise ConfigError(f"--beta0 must be finite, got {args.beta0}")
    rng = RngStream(parsed.master_seed).child(1)
    value, se = expectation_of_mean(args.beta0, parsed.dgp, engine=parsed.engine, rng=rng)
    gap = abs(value - parsed.dgp.target_mean)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["achieved_mean", "se", "gap"])
    w.writerow([repr(value), format(se, ".9g"), format(gap, ".9g")])
    tol = default_tol(parsed.engine) if parsed.tol is None else parsed.tol
    if gap <= max(tol, 4.0 * se):
        return 0
    print(
        f"verification failed: gap {gap:.6g} exceeds max(tol {tol:g}, 4*se {4 * se:.6g})",
        file=sys.stderr,
    )
    return VERIFY_GAP_EXIT


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_grid_config(_apply_overrides(load_config(args.config), args))
    rows = run_grid(cfg)
    write_csv(rows, args.out)
    s = summarize(rows)
    note = f", {s['error']} failed" if s["error"] else ""
    print(
        f"{s['ok']} cells run, {s['skipped']} skipped{note}, "
        f"max |bias|/bias_se = {s['max_bias_ratio']:.3g}",
        file=sys.stderr,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    # usage mistakes are exit code 1; argparse's default is 2, which this
    # package reserves for mathematical infeasibility
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="balint",
        description="Balancing intercepts: solve them, verify them, and run replication grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--engine", choices=("exact", "mc"), default=None, help="override engine")
        p.add_argument("--n-mc", dest="n_mc", type=int, default=None, help="override MC draw count")
        p.add_argument("--tol", type=float, default=None, help="override solver tolerance")

    p_solve = sub.add_parser("solve", help="solve the balancing intercept for one DGP")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a beta0 against its target mean")
    common(p_verify)
    p_verify.add_argument("--beta0", type=float, required=True, help="intercept to verify")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a scenario grid and write the result CSV")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--replicates", type=int, default=None, help="override replicate count")
    p_sim.add_argument("--workers", type=int, default=None, help="override worker count (0 = auto)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Error as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

"""Command-line front end: solve | verify | simulate.

Configs are YAML documents validated strictly: an unrecognized key anywhere is
a hard error naming the key, so typos never silently fall back to defaults.
Command-line flags override file values. All randomness flows from the
config's master_seed (or its --seed override); nothing is wall-clock seeded.

The engine is a config kind in _KINDS, beside a covariate's dist and an
outcome's family: the top-level engine key names its class (exact when the
key is absent), and that class's dataclass fields are its other keys (n_mc
under mc). A new engine class in intercept.Engine needs no edit here.

Exit codes: 0 success; 1 usage or config error; 2 mathematical infeasibility
(divergent moment, missing MGF, no root); 3 verification gap too large, or
a sample's se that is not finite.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence, get_args

import yaml

from .distributions import Categorical, CovariateSpec, RngStream
from .errors import ConfigError, Error
from .harness import GridConfig, run_grid, summarize, write_csv
from .intercept import (
    DgpSpec,
    Engine,
    ExactEnumeration,
    OutcomeFamily,
    SOLVER_NAMES,
    Solver,
    Term,
    expectation_of_mean,
    moment_mean,
    solve,
)
from .links import Link, link_by_name

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

def _parse_fields(cls, entry: dict, where: str, keys=(), required=(), **read):
    """cls built from entry, each dataclass field read by its declared type.

    A field without a default is a required key, a field with one may be
    left out, and a field that __init__ does not take is no key. keys and
    required name the entry's other keys, which the caller reads, and read
    holds the fields it has already built. Missing keys are sought in a
    fixed order: required as listed, then the fields as declared.
    """
    own = [f for f in fields(cls) if f.init and f.name not in read]
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    allowed = {*keys, *(f.name for f in own)}
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in (*required, *(f.name for f in own if f.default is MISSING)):
        if key not in entry:
            raise ConfigError(f"missing key '{key}' in {where}")
    values = {
        f.name: _FIELD_READERS[f.type](entry[f.name], f.name, where) for f in own if f.name in entry
    }
    return cls(**read, **values)


_KINDS = {
    "dist": ("distribution", {cls.kind: cls for cls in get_args(CovariateSpec)}),
    "family": ("outcome family", {cls.family: cls for cls in get_args(OutcomeFamily)}),
    "engine": ("engine", {cls.name: cls for cls in get_args(Engine)}),
}


def _parse_kind(entry, where: str, switch: str, keys=(), required=()):
    """The class that entry[switch] names ('dist', 'family' or 'engine'), built by _parse_fields."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping")
    if switch not in entry:
        raise ConfigError(f"missing key '{switch}' in {where}")
    name = _str(entry[switch], switch, where)
    label, kinds = _KINDS[switch]
    if name not in kinds:
        raise ConfigError(f"unknown {label} '{name}' in {where} (expected one of {sorted(kinds)})")
    return _parse_fields(kinds[name], entry, where, (switch, *keys), (switch, *required))


def _parse_document(cls, doc: dict, where: str):
    """cls from a top-level document: first its engine (exact if unnamed), then its other fields.

    The engine takes those other fields as its keys beside its own, so it refuses a key neither has.
    """
    rest = [f.name for f in fields(cls) if f.init and f.name != "engine"]
    engine = _parse_kind({"engine": ExactEnumeration.name, **doc}, where, "engine", rest)
    return _parse_fields(cls, {key: doc[key] for key in rest if key in doc}, where, engine=engine)


def _solver(value, key: str, where: str) -> str:
    solver = _str(value, key, where)
    if solver not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver '{solver}' in {where} (expected one of {SOLVER_NAMES})")
    return solver


def _tol(value, key: str, where: str) -> float:
    tol = _num(value, key, where)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"key '{key}' in {where} must be positive and finite, got {tol}")
    return tol


def _exposure(value, key: str, where: str) -> Term:
    # parsed first: it checks that value is a mapping holding every key read below
    spec = _parse_fields(Categorical, value, key, ("name", "betas"), ("name", "betas"))
    return Term(
        name=_str(value["name"], "name", key),
        spec=spec,
        beta=_num_tuple(value["betas"], "betas", key),
    )


def _covariate_axis(value, key: str, where: str) -> tuple[tuple[str, CovariateSpec], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' in {where} must be a nonempty list")
    axis = []
    for i, entry in enumerate(value):
        where_i = f"{key}[{i}]"
        spec = _parse_kind(entry, where_i, "dist", ("name",))
        axis.append((_str(entry.get("name", "z"), "name", where_i), spec))
    return tuple(axis)


def _covariates(value, key: str, where: str) -> tuple[Term, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"key '{key}' in {where} must be a list")
    terms = []
    for i, entry in enumerate(value):
        where_i = f"{key}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where_i} must be a mapping")
        # a categorical takes a coefficient block, any other covariate a scalar
        if entry.get("dist") == Categorical.kind:
            beta, wrong, what, read = "betas", "beta", "a categorical", _num_tuple
        else:
            beta, wrong, what, read = "beta", "betas", "a continuous covariate", _num
        if wrong in entry:
            raise ConfigError(f"{where_i}: {what} takes '{beta}', not '{wrong}'")
        spec = _parse_kind(entry, where_i, "dist", ("name", beta), (beta,))
        name = _str(entry.get("name", f"x{i + 1}"), "name", where_i)
        terms.append(Term(name=name, spec=spec, beta=read(entry[beta], beta, where_i)))
    return tuple(terms)


# one reader per dataclass field type, as harness._CELL_TEXT has one
# formatter per GridRow field type
_FIELD_READERS = {
    "float": _num,
    "int": _int,
    "str": _str,
    "tuple[float, ...]": _num_tuple,
    # the one optional number is a tolerance: absent, the engine's default
    "Optional[float]": _tol,
    "Solver": _solver,
    "Link": lambda value, key, where: link_by_name(_str(value, key, where)),
    "OutcomeFamily": lambda value, key, where: _parse_kind(value, key, "family"),
    "Term": _exposure,
    "tuple[Term, ...]": _covariates,
    "tuple[tuple[str, CovariateSpec], ...]": _covariate_axis,
}


def parse_grid_config(doc: dict) -> GridConfig:
    return _parse_document(GridConfig, doc, "grid config")


@dataclass(frozen=True)
class DgpDocument:
    """A single-DGP config, one field per key; dgp is built from the first four."""

    link: Link
    target_mean: float
    outcome: OutcomeFamily
    covariates: tuple[Term, ...]
    solver: Solver
    engine: Engine = ExactEnumeration()
    tol: Optional[float] = None
    master_seed: int = 0
    dgp: DgpSpec = field(init=False)

    def __post_init__(self) -> None:
        dgp = DgpSpec(self.covariates, self.link, self.outcome, self.target_mean)
        object.__setattr__(self, "dgp", dgp)


def parse_dgp_config(doc: dict) -> DgpDocument:
    return _parse_document(DgpDocument, doc, "dgp config")


# ------------------------------------------------------------------ commands

# each flag's dest is the key it overrides
_OVERRIDE_KEYS = ("master_seed", "replicates", "workers", "engine", "n_mc", "tol")


def _apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    return doc


def cmd_solve(args: argparse.Namespace) -> int:
    parsed = parse_dgp_config(_apply_overrides(load_config(args.config), args))
    rng = RngStream(parsed.master_seed).child(0)
    sol = solve(parsed.dgp, parsed.solver, engine=parsed.engine, tol=parsed.tol, rng=rng)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["beta0", "method", "residual", "mc_se", "warnings"])
    residual, mc_se = format(sol.residual, ".9g"), format(sol.mc_se, ".9g")
    w.writerow([repr(sol.beta0), sol.method, residual, mc_se, ";".join(sorted(sol.warnings))])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    parsed = parse_dgp_config(_apply_overrides(load_config(args.config), args))
    if not math.isfinite(args.beta0):
        raise ConfigError(f"--beta0 must be finite, got {args.beta0}")
    # exact from the summed link moments where they exist, whatever the engine:
    # a sample's se understates the error where the variance is infinite
    value, se = moment_mean(args.beta0, parsed.dgp), 0.0
    if value is None:
        rng = RngStream(parsed.master_seed).child(1)
        value, se = expectation_of_mean(args.beta0, parsed.dgp, engine=parsed.engine, rng=rng)
    gap = abs(value - parsed.dgp.target_mean)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(["achieved_mean", "se", "gap"])
    w.writerow([repr(value), format(se, ".9g"), format(gap, ".9g")])
    tol = parsed.engine.tol if parsed.tol is None else parsed.tol
    if not math.isfinite(se):
        print(f"verification failed: the sample's se is {se}, which bounds no gap", file=sys.stderr)
        return VERIFY_GAP_EXIT
    if gap <= max(tol, 4.0 * se):
        return 0
    print(
        f"verification failed: gap {gap:.6g} exceeds max(tol {tol:g}, 4*se {4 * se:.6g})",
        file=sys.stderr,
    )
    return VERIFY_GAP_EXIT


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = parse_grid_config(_apply_overrides(load_config(args.config), args))
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out!r} is a directory")
    # opened before any cell runs, so an unwritable --out fails at once, and
    # moved onto --out when complete, so a failed run leaves --out as it was
    partial = f"{args.out}.part"
    try:
        f = open(partial, "w", newline="")
    except OSError as e:
        raise OSError(e.errno, e.strerror, args.out) from None
    try:
        with f:
            rows = run_grid(cfg)
            write_csv(rows, f)
        os.replace(partial, args.out)
    except BaseException:
        os.remove(partial)
        raise
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
        p.add_argument(
            "--seed", dest="master_seed", metavar="SEED", type=int, help="override master_seed"
        )
        p.add_argument("--engine", choices=tuple(_KINDS["engine"][1]), help="override engine")
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

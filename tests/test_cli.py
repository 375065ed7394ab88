import copy
import csv
import dataclasses
import io
import math
import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path
from typing import get_args

import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

import balint
import balint.harness as harness_mod
from balint import (
    CLAMPS,
    CODINGS,
    Bernoulli,
    BernoulliOutcome,
    Categorical,
    Cauchy,
    ConfigError,
    DgpSpec,
    Engine,
    ExactEnumeration,
    Gamma,
    GridConfig,
    Log,
    MonteCarlo,
    Normal,
    NormalOutcome,
    Term,
    UniformContinuous,
    expand_grid,
)
from balint.cli import (
    DgpDocument,
    build_parser,
    load_config,
    main,
    parse_dgp_config,
    parse_grid_config,
)

LOG_BETA0 = -0.7422235688278819

DGP_DOC = """\
link: log
target_mean: 0.5
outcome: {family: normal, sd: 0.1}
covariates:
  - {name: x, dist: categorical, probs: [0.5, 0.35, 0.15], betas: [0.2, -0.2]}
solver: log_closed_form
master_seed: 11
"""

GRID_DOC = """\
name: mini
link: log
outcome: {family: normal, sd: 0.1}
exposure: {name: x, probs: [0.5, 0.35, 0.15], betas: [0.2, -0.2]}
covariate_axis:
  - {name: z, dist: bernoulli, p: 0.8}
  - {name: z, dist: normal, mu: 0.0, sigma: 1.0}
beta2_axis: [1.0]
target_axis: [0.3, 0.5]
n: 100
replicates: 4
master_seed: 5
solver: log_closed_form
"""

# DGP_DOC's exposure, and GRID_DOC's
EXPOSURE = Term("x", Categorical(probs=(0.5, 0.35, 0.15)), (0.2, -0.2))


def mini_grid() -> GridConfig:
    """GRID_DOC built by hand."""
    return GridConfig(
        name="mini",
        link=Log(),
        outcome=NormalOutcome(0.1),
        exposure=EXPOSURE,
        covariate_axis=(("z", Bernoulli(0.8)), ("z", Normal(0.0, 1.0))),
        beta2_axis=(1.0,),
        target_axis=(0.3, 0.5),
        n=100,
        replicates=4,
        master_seed=5,
        solver="log_closed_form",
    )


@pytest.fixture
def dgp_config(tmp_path):
    path = tmp_path / "dgp.yaml"
    path.write_text(DGP_DOC)
    return str(path)


@pytest.fixture
def grid_config(tmp_path):
    path = tmp_path / "grid.yaml"
    path.write_text(GRID_DOC)
    return str(path)


def solve_row(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return dict(zip(rows[0], rows[1]))


class TestLoadConfig:
    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_malformed_yaml_names_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("a: [1, 2\n")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_config(str(path))

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(path))


class TestParseDgpConfig:
    def test_minimal(self):
        parsed = parse_dgp_config(yaml.safe_load(DGP_DOC))
        assert parsed.solver == "log_closed_form"
        assert parsed.engine == ExactEnumeration()
        assert parsed.tol is None
        assert parsed.master_seed == 11
        assert parsed.dgp.link.name == "log"
        assert parsed.dgp.terms[0].spec == Categorical(probs=(0.5, 0.35, 0.15))

    def test_default_names_and_seed(self):
        doc = yaml.safe_load(DGP_DOC)
        del doc["master_seed"]
        doc["covariates"] = [
            {"dist": "normal", "mu": 0.0, "sigma": 1.0, "beta": 1.0},
            {"dist": "bernoulli", "p": 0.5, "beta": 0.3},
        ]
        parsed = parse_dgp_config(doc)
        assert [t.name for t in parsed.dgp.terms] == ["x1", "x2"]
        assert parsed.master_seed == 0

    def test_unknown_key_named(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["solvr"] = "numeric"
        with pytest.raises(ConfigError, match="'solvr'"):
            parse_dgp_config(doc)

    def test_unknown_dist_named(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["covariates"] = [{"dist": "beta", "beta": 1.0}]
        with pytest.raises(ConfigError, match="'beta'"):
            parse_dgp_config(doc)

    def test_bool_is_not_a_number(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["target_mean"] = True
        with pytest.raises(ConfigError, match="target_mean"):
            parse_dgp_config(doc)

    def test_categorical_beta_confusion(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["covariates"][0]["beta"] = 0.2
        with pytest.raises(ConfigError, match="betas"):
            parse_dgp_config(doc)

    def test_continuous_betas_confusion(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["covariates"] = [{"dist": "normal", "mu": 0, "sigma": 1, "betas": [1.0]}]
        with pytest.raises(ConfigError, match="'beta'"):
            parse_dgp_config(doc)

    def test_missing_dist_param(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["covariates"] = [{"dist": "normal", "mu": 0, "beta": 1.0}]
        with pytest.raises(ConfigError, match="'sigma'"):
            parse_dgp_config(doc)

    def test_round_trip(self):
        parsed = parse_dgp_config(yaml.safe_load(DGP_DOC))
        assert parsed == DgpDocument(
            link=Log(),
            target_mean=0.5,
            outcome=NormalOutcome(0.1),
            covariates=(EXPOSURE,),
            solver="log_closed_form",
            engine=ExactEnumeration(),
            tol=None,
            master_seed=11,
        )
        assert parsed.dgp == DgpSpec((EXPOSURE,), Log(), NormalOutcome(0.1), 0.5)

    def test_every_distribution_round_trips(self):
        doc = yaml.safe_load(DGP_DOC)
        doc["covariates"] = [
            {"name": "b", "dist": "bernoulli", "p": 0.3, "beta": 0.5},
            {"name": "u", "dist": "uniform", "a": -1.0, "b": 3.0, "beta": 0.2},
            {"name": "n", "dist": "normal", "mu": 0.5, "sigma": 2.0, "beta": 0.1},
            {"name": "g", "dist": "gamma", "shape": 2.0, "rate": 1.5, "beta": 0.4},
            {"name": "c", "dist": "cauchy", "location": 0.0, "scale": 1.0, "beta": 0.0},
            {
                "name": "k",
                "dist": "categorical",
                "probs": [0.2, 0.8],
                "coding": "effect",
                "betas": [0.3],
            },
        ]
        parsed = parse_dgp_config(doc)
        assert [t.spec.kind for t in parsed.dgp.terms] == [
            "bernoulli",
            "uniform",
            "normal",
            "gamma",
            "cauchy",
            "categorical",
        ]
        assert parsed.dgp.terms == (
            Term("b", Bernoulli(0.3), 0.5),
            Term("u", UniformContinuous(-1.0, 3.0), 0.2),
            Term("n", Normal(0.5, 2.0), 0.1),
            Term("g", Gamma(2.0, 1.5), 0.4),
            Term("c", Cauchy(0.0, 1.0), 0.0),
            Term("k", Categorical(probs=(0.2, 0.8), coding="effect"), (0.3,)),
        )


class TestParseGridConfig:
    def test_mini_grid(self):
        cfg = parse_grid_config(yaml.safe_load(GRID_DOC))
        assert cfg.name == "mini"
        assert [spec.kind for _, spec in cfg.covariate_axis] == ["bernoulli", "normal"]
        assert cfg.workers == 1
        assert len(expand_grid(cfg)) == 4

    def test_round_trip(self):
        assert parse_grid_config(yaml.safe_load(GRID_DOC)) == mini_grid()

    def test_engine_with_draw_count_round_trips(self):
        doc = yaml.safe_load(GRID_DOC)
        doc["engine"] = "mc"
        doc["n_mc"] = 5000
        doc["solver"] = "numeric"
        cfg = parse_grid_config(doc)
        assert cfg.engine == MonteCarlo(5000)
        assert cfg == dataclasses.replace(mini_grid(), solver="numeric", engine=MonteCarlo(5000))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError, match="master_seed"):
            dataclasses.replace(mini_grid(), master_seed=seed)

    def test_unknown_engine(self):
        doc = yaml.safe_load(GRID_DOC)
        doc["engine"] = "quadrature"
        message = "unknown engine 'quadrature' in grid config (expected one of ['exact', 'mc'])"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_grid_config(doc)

    def test_exposure_typo_named(self):
        doc = yaml.safe_load(GRID_DOC)
        doc["exposure"]["prob"] = doc["exposure"].pop("probs")
        with pytest.raises(ConfigError, match="'prob'"):
            parse_grid_config(doc)


_REAL = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _level_probs(draw):
    # mass on level 0, which weighted effect coding needs
    raw = [draw(st.floats(0.01, 1.0))] + draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    return [v / sum(raw) for v in raw]


# (switch key, kind, class, strategy for the entry's other keys)
_ENTRIES = [
    ("dist", "bernoulli", Bernoulli, st.fixed_dictionaries({"p": st.floats(0.0, 1.0)})),
    (
        "dist",
        "uniform",
        UniformContinuous,
        st.tuples(_REAL, _REAL)
        .filter(lambda ab: ab[0] != ab[1])
        .map(lambda ab: {"a": min(ab), "b": max(ab)}),
    ),
    ("dist", "normal", Normal, st.fixed_dictionaries({"mu": _REAL, "sigma": _POSITIVE})),
    ("dist", "gamma", Gamma, st.fixed_dictionaries({"shape": _POSITIVE, "rate": _POSITIVE})),
    ("dist", "cauchy", Cauchy, st.fixed_dictionaries({"location": _REAL, "scale": _POSITIVE})),
    (
        "dist",
        "categorical",
        Categorical,
        st.fixed_dictionaries(
            {"probs": _level_probs()}, optional={"coding": st.sampled_from(CODINGS)}
        ),
    ),
    ("family", "normal", NormalOutcome, st.fixed_dictionaries({"sd": _POSITIVE})),
    (
        "family",
        "bernoulli",
        BernoulliOutcome,
        st.fixed_dictionaries({}, optional={"clamp": st.sampled_from(CLAMPS)}),
    ),
]
_OPTIONAL_KEYS = {"coding", "clamp"}
_GRID = yaml.safe_load(GRID_DOC)


@st.composite
def _entries(draw):
    switch, kind, cls, values = draw(st.sampled_from(_ENTRIES))
    params = draw(values)
    return switch, {switch: kind, **params}, cls(**params)


def _parse_entry(switch, entry):
    """entry read where a grid config holds it: as its outcome, or on its covariate axis."""
    doc = copy.deepcopy(_GRID)
    if switch == "family":
        doc["outcome"] = entry
        return parse_grid_config(doc).outcome
    doc["covariate_axis"] = [entry]
    return parse_grid_config(doc).covariate_axis[0][1]


class TestEntryReader:
    """Every distribution and outcome entry goes through one field-driven reader."""

    @settings(max_examples=300, deadline=None)
    @given(_entries())
    def test_entry_parses_to_the_constructed_object(self, case):
        switch, entry, expected = case
        assert _parse_entry(switch, entry) == expected

    @settings(max_examples=300, deadline=None)
    @given(_entries(), st.data())
    def test_dropped_required_key_is_missing(self, case, data):
        switch, entry, _ = case
        key = data.draw(st.sampled_from(sorted(set(entry) - _OPTIONAL_KEYS)))
        del entry[key]
        with pytest.raises(ConfigError, match=f"missing key '{key}'"):
            _parse_entry(switch, entry)

    @settings(max_examples=300, deadline=None)
    @given(_entries(), st.text(min_size=1))
    def test_extra_key_is_unknown(self, case, key):
        switch, entry, _ = case
        assume(key not in entry and key != "name")
        entry[key] = 1.0
        with pytest.raises(ConfigError, match="unknown key"):
            _parse_entry(switch, entry)

    @settings(max_examples=300, deadline=None)
    @given(_entries(), st.data())
    def test_bool_or_string_value_names_the_key(self, case, data):
        switch, entry, _ = case
        key = data.draw(st.sampled_from(sorted(entry)))
        # a string in a string-valued key is a name, checked by the class
        string_valued = key in _OPTIONAL_KEYS or key == switch
        bad = st.booleans() if string_valued else st.one_of(st.booleans(), st.text())
        entry[key] = data.draw(bad)
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            _parse_entry(switch, entry)


# each top-level document with every optional key set, and those optional keys
_DOCUMENTS = {
    "grid": (
        parse_grid_config,
        {**_GRID, "engine": "mc", "n_mc": 1000, "tol": 1.0e-3, "workers": 2},
        {"engine", "n_mc", "tol", "workers"},
    ),
    "dgp": (
        parse_dgp_config,
        {**yaml.safe_load(DGP_DOC), "engine": "mc", "n_mc": 1000, "tol": 1.0e-3},
        {"engine", "n_mc", "tol", "master_seed"},
    ),
}
# the keys holding a number or a list of numbers
_NUMERIC_KEYS = {
    "target_mean",
    "beta2_axis",
    "target_axis",
    "n",
    "replicates",
    "master_seed",
    "n_mc",
    "tol",
    "workers",
}


def _document(which):
    parse, doc, optional = _DOCUMENTS[which]
    return parse, copy.deepcopy(doc), optional


class TestTopLevelDocuments:
    """The grid and single-DGP documents go through the same field-driven reader."""

    def test_full_documents_parse(self):
        for which in _DOCUMENTS:
            parse, doc, _ = _document(which)
            assert parse(doc).engine == MonteCarlo(1000)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(_DOCUMENTS)), st.data())
    def test_dropped_required_key_is_missing(self, which, data):
        parse, doc, optional = _document(which)
        key = data.draw(st.sampled_from(sorted(set(doc) - optional)))
        del doc[key]
        with pytest.raises(ConfigError, match=f"missing key '{key}' in {which} config"):
            parse(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_DOCUMENTS)), st.text(min_size=1))
    def test_extra_key_is_unknown(self, which, key):
        parse, doc, _ = _document(which)
        assume(key not in doc)
        doc[key] = 1.0
        with pytest.raises(ConfigError, match="unknown key"):
            parse(doc)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(_DOCUMENTS)), st.data())
    def test_bool_or_string_in_numeric_key_names_the_key(self, which, data):
        parse, doc, _ = _document(which)
        key = data.draw(st.sampled_from(sorted(_NUMERIC_KEYS & set(doc))))
        doc[key] = data.draw(st.one_of(st.booleans(), st.text()))
        with pytest.raises(ConfigError, match=re.escape(f"'{key}'")):
            parse(doc)

    @pytest.mark.parametrize("which", sorted(_DOCUMENTS))
    def test_left_out_keys_take_the_dataclass_defaults(self, which):
        parse, doc, optional = _document(which)
        for key in optional:
            del doc[key]
        parsed = parse(doc)
        assert parsed.engine == ExactEnumeration()
        assert parsed.tol is None
        if which == "grid":
            assert parsed.workers == 1
        else:
            assert parsed.master_seed == 0
        doc["engine"] = "mc"
        assert parse(doc).engine.n_mc == 100_000

    @pytest.mark.parametrize(
        "which, key, value, message",
        [
            ("grid", "outcome", 5, "outcome must be a mapping"),
            ("grid", "covariate_axis", [5], "covariate_axis[0] must be a mapping"),
            ("grid", "covariate_axis", [], "'covariate_axis' in grid config must be a nonempty list"),
            ("grid", "covariate_axis", {}, "'covariate_axis' in grid config must be a nonempty list"),
            ("dgp", "covariates", {}, "'covariates' in dgp config must be a list"),
            ("dgp", "covariates", ["x"], "covariates[0] must be a mapping"),
        ],
    )
    def test_wrong_container_is_named(self, which, key, value, message):
        parse, doc, _ = _document(which)
        doc[key] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse(doc)

    @pytest.mark.parametrize("engine", ["exact", None])
    @pytest.mark.parametrize("which", sorted(_DOCUMENTS))
    def test_n_mc_outside_the_mc_engine_is_unknown(self, which, engine):
        # exact reads no draw count, so one given would silently do nothing
        parse, doc, _ = _document(which)
        del doc["engine"]
        if engine is not None:
            doc["engine"] = engine
        for n_mc in (5000, True):
            doc["n_mc"] = n_mc
            message = f"unknown key 'n_mc' in {which} config"
            with pytest.raises(ConfigError, match=re.escape(message) + "$"):
                parse(doc)

    @pytest.mark.parametrize("engine", get_args(Engine), ids=lambda cls: cls.name)
    @pytest.mark.parametrize("which", sorted(_DOCUMENTS))
    def test_each_engine_reads_its_own_fields(self, which, engine):
        # every engine class is a config kind: its name and its fields are its keys
        parse, doc, _ = _document(which)
        own = {f.name: getattr(engine(), f.name) for f in dataclasses.fields(engine)}
        doc = {key: v for key, v in doc.items() if key not in ("engine", "n_mc")}
        assert parse({**doc, "engine": engine.name, **own}).engine == engine(**own)
        flag = build_parser().parse_args(["solve", "--config", "c.yaml", "--engine", engine.name])
        assert flag.engine == engine.name

    def test_missing_key_named_whatever_the_hash_seed(self, tmp_path):
        # several keys missing: the first one asked for is named, in a fixed order
        doc = {**_GRID, "exposure": {}}
        config = tmp_path / "exposure.yaml"
        config.write_text(yaml.safe_dump(doc))
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "rows.csv")]
        errors = set()
        for seed in range(4):
            env = {**_child_env(), "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run(
                [sys.executable, "-m", "balint", *argv], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 1
            errors.add(proc.stderr)
        assert errors == {"error: missing key 'name' in exposure\n"}


class TestBundledConfigs:
    def _load(self, filename):
        path = resources.files("balint") / "configs" / filename
        return yaml.safe_load(path.read_text())

    def test_fig1_shape(self):
        cfg = parse_grid_config(self._load("fig1.yaml"))
        assert cfg.name == "fig1"
        assert cfg.link.name == "log"
        assert cfg.outcome == NormalOutcome(sd=0.1)
        assert cfg.exposure.spec.probs == (0.5, 0.35, 0.15)
        assert cfg.exposure.beta == (0.2, -0.2)
        assert [spec.kind for _, spec in cfg.covariate_axis] == [
            "bernoulli",
            "uniform",
            "normal",
            "gamma",
        ]
        by_kind = {spec.kind: spec for _, spec in cfg.covariate_axis}
        assert by_kind["bernoulli"] == Bernoulli(0.8)
        assert by_kind["uniform"] == UniformContinuous(-1.0, 3.0)
        assert by_kind["normal"] == Normal(0.0, 1.0)
        assert by_kind["gamma"] == Gamma(1.0, 1.5)
        assert all(name == "z" for name, _ in cfg.covariate_axis)
        assert cfg.beta2_axis == (1.0, 1.5, 2.0, 2.5, 3.0)
        assert cfg.target_axis == tuple((i + 1) / 10 for i in range(9))
        assert (cfg.n, cfg.replicates, cfg.master_seed) == (10_000, 500, 20_210_822)
        assert cfg.solver == "log_closed_form"
        assert len(expand_grid(cfg)) == 180

    def test_suppfig1_shape(self):
        cfg = parse_grid_config(self._load("suppfig1.yaml"))
        assert cfg.name == "suppfig1"
        assert cfg.outcome == BernoulliOutcome(clamp="clamp_to_unit")
        assert len(expand_grid(cfg)) == 180


class TestSolveCommand:
    def test_closed_form_full_precision(self, capsys, dgp_config):
        row = solve_row(capsys, ["solve", "--config", dgp_config])
        assert set(row) == {"beta0", "method", "residual", "mc_se", "warnings"}
        assert float(row["beta0"]) == pytest.approx(LOG_BETA0, abs=1e-15)
        assert row["method"] == "log_closed_form"
        assert float(row["residual"]) <= 1e-14
        assert row["warnings"] == ""

    def test_seed_changes_monte_carlo_solution(self, capsys, tmp_path):
        path = tmp_path / "mc.yaml"
        path.write_text(
            DGP_DOC.replace("solver: log_closed_form", "solver: numeric")
            + "engine: mc\nn_mc: 5000\n"
        )
        a = solve_row(capsys, ["solve", "--config", str(path)])
        b = solve_row(capsys, ["solve", "--config", str(path), "--seed", "99"])
        c = solve_row(capsys, ["solve", "--config", str(path)])
        assert a["beta0"] == c["beta0"]
        assert a["beta0"] != b["beta0"]
        assert float(a["mc_se"]) > 0.0

    def test_engine_override_rescues_cauchy(self, capsys, tmp_path):
        # it does not: a Cauchy term's E[exp(beta X)] is infinite, so the
        # closed form has no intercept to give under any engine
        path = tmp_path / "cauchy.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n  - {name: c, dist: cauchy, location: 0.0, scale: 1.0, beta: 0.5}\n"
            "solver: log_closed_form\n"
        )
        for engine in (["--engine", "exact"], ["--engine", "mc", "--n-mc", "1000"]):
            assert main(["solve", "--config", str(path), *engine]) == 2
            captured = capsys.readouterr()
            assert "term 'c'" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("link", ["log", "identity"])
    def test_numeric_solve_and_verify_refuse_cauchy_moment(self, capsys, tmp_path, link):
        # under log E[exp(beta X)], under identity E[X]: neither exists for a
        # Cauchy X, so a sample would balance, or verify, a mean that
        # converges to nothing (verify passed any beta0 on its huge se)
        path = tmp_path / "cauchy_numeric.yaml"
        path.write_text(
            f"link: {link}\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n  - {name: c, dist: cauchy, location: 0.0, scale: 1.0, beta: 0.5}\n"
            "solver: numeric\nengine: mc\n"
        )
        for command in (["solve"], ["verify", "--beta0=-3"]):
            for n_mc in ("1000", "100000"):
                assert main([*command, "--config", str(path), "--n-mc", n_mc]) == 2
                captured = capsys.readouterr()
                assert "term 'c'" in captured.err
                assert captured.out == ""

    def test_divergent_gamma_exits_2(self, capsys, tmp_path):
        path = tmp_path / "gamma.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n  - {name: g, dist: gamma, shape: 1.0, rate: 1.5, beta: 2.0}\n"
            "solver: log_closed_form\n"
        )
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "term 'g'" in err

    @pytest.mark.parametrize(
        "covariate",
        [
            "{name: c, dist: categorical, probs: [0.5, 0.5], betas: [800]}",
            "{name: c, dist: normal, mu: 0.0, sigma: 1.0, beta: 40}",
        ],
        ids=["categorical", "normal"],
    )
    def test_overflowing_moment_exits_2(self, capsys, tmp_path, covariate):
        path = tmp_path / "huge.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            f"covariates:\n  - {covariate}\n"
            "solver: log_closed_form\n"
        )
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "term 'c'" in err
        assert "overflows" in err

    @pytest.mark.parametrize(
        "covariate",
        [
            "{name: c, dist: categorical, probs: [0.0, 1.0], betas: [-800]}",
            "{name: c, dist: normal, mu: -800.0, sigma: 1.0, beta: 1.0}",
        ],
        ids=["categorical", "normal"],
    )
    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_underflowing_moment_exits_2(self, capsys, tmp_path, covariate, engine):
        path = tmp_path / "tiny.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            f"covariates:\n  - {covariate}\n"
            "solver: log_closed_form\n"
        )
        n_mc = ["--n-mc", "1000"] if engine == "mc" else []  # exact reads no n_mc
        assert main(["solve", "--config", str(path), "--engine", engine, *n_mc]) == 2
        err = capsys.readouterr().err
        assert "term 'c'" in err
        assert "underflows" in err

    def test_underflowing_mc_fallback_exits_2(self, capsys, tmp_path):
        # far to the left a sample's every exp(x) would underflow to 0, but a
        # Cauchy term has no MGF and is refused before anything is drawn
        path = tmp_path / "far_cauchy.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n"
            "  - {name: c, dist: cauchy, location: -1000000.0, scale: 1.0, beta: 1.0}\n"
            "solver: log_closed_form\n"
        )
        assert main(["solve", "--config", str(path), "--engine", "mc", "--n-mc", "1000"]) == 2
        err = capsys.readouterr().err
        assert "term 'c'" in err
        assert "no MGF" in err

    @pytest.mark.parametrize(
        "mu, target, residual",
        [("-700.0", "1000000.0", "648721.271"), ("-800.0", "0.5", "nan")],
        ids=["exp_beta0_overflows", "moment_underflows"],
    )
    def test_linear_scale_beyond_exp_range_exits_0(self, capsys, tmp_path, mu, target, residual):
        path = tmp_path / "far.yaml"
        path.write_text(
            f"link: log\ntarget_mean: {target}\n"
            "outcome: {family: normal, sd: 0.1}\n"
            f"covariates:\n  - {{name: z, dist: normal, mu: {mu}, sigma: 1.0, beta: 1.0}}\n"
            "solver: linear_scale\n"
        )
        row = solve_row(capsys, ["solve", "--config", str(path)])
        assert float(row["beta0"]) > 709.0
        assert row["residual"] == residual

    @pytest.mark.parametrize(
        "covariate, message",
        [
            ("{name: z, dist: normal, mu: 0.0, sigma: 1.0, beta: .nan}", "term 'z': beta must be finite"),
            ("{name: z, dist: normal, mu: .nan, sigma: 1.0, beta: 1.0}", "normal mu must be finite"),
            ("{name: z, dist: uniform, a: -.inf, b: 1.0, beta: 1.0}", "uniform a must be finite"),
            (
                "{name: z, dist: categorical, probs: [.nan, 0.5, 0.5], betas: [0.1, 0.2]}",
                "probs must lie in [0, 1], got [nan, 0.5, 0.5]",
            ),
        ],
        ids=["beta", "mu", "uniform_a", "probs"],
    )
    @pytest.mark.parametrize("solver", ["log_closed_form", "numeric"])
    def test_non_finite_input_exits_1(self, capsys, tmp_path, covariate, message, solver):
        path = tmp_path / "nan.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            f"covariates:\n  - {covariate}\n"
            f"solver: {solver}\n"
        )
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_non_utf8_config_exits_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(DGP_DOC.encode() + b"# \xff\n")
        assert main(["solve", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot parse {path}" in captured.err

    def test_non_finite_outcome_sd_exits_1(self, capsys, tmp_path):
        path = tmp_path / "sd.yaml"
        path.write_text(DGP_DOC.replace("sd: 0.1", "sd: .inf"))
        assert main(["solve", "--config", str(path)]) == 1
        assert "sd must be positive and finite" in capsys.readouterr().err

    def test_zero_coefficients_numeric(self, capsys, tmp_path):
        path = tmp_path / "flat.yaml"
        path.write_text(
            "link: logit\ntarget_mean: 0.5\n"
            "outcome: {family: bernoulli}\n"
            "covariates: []\n"
            "solver: numeric\n"
        )
        row = solve_row(capsys, ["solve", "--config", str(path)])
        assert abs(float(row["beta0"])) <= 1e-9


class TestVerifyCommand:
    def test_solve_then_verify_round_trip(self, capsys, dgp_config):
        row = solve_row(capsys, ["solve", "--config", dgp_config])
        code = main(["verify", "--config", dgp_config, "--beta0", row["beta0"]])
        out = capsys.readouterr().out
        assert code == 0
        parsed = dict(zip(*csv.reader(io.StringIO(out))))
        assert float(parsed["gap"]) <= 1e-10

    def test_wrong_beta0_exits_3(self, capsys, dgp_config):
        assert main(["verify", "--config", dgp_config, "--beta0", "0.0"]) == 3
        err = capsys.readouterr().err
        assert "verification failed" in err

    def test_loose_tol_accepts_the_gap(self, capsys, dgp_config):
        code = main(["verify", "--config", dgp_config, "--beta0", "0.0", "--tol", "10"])
        assert code == 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta0", "nan", "--beta0 must be finite"),
            ("--beta0", "inf", "--beta0 must be finite"),
            ("--tol", "inf", "'tol' in dgp config must be positive and finite"),
        ],
    )
    def test_non_finite_flag_exits_1(self, capsys, dgp_config, flag, value, message):
        argv = ["verify", "--config", dgp_config, "--beta0", "0.0", flag, value]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_monte_carlo_verification(self, capsys, tmp_path):
        # logit has no moment to sum, so verify samples under the mc engine
        path = tmp_path / "logit.yaml"
        path.write_text(DGP_DOC.replace("link: log", "link: logit").replace("log_closed_form", "numeric"))
        row = solve_row(capsys, ["solve", "--config", str(path)])
        argv = ["verify", "--config", str(path), "--beta0", row["beta0"], "--engine", "mc"]
        code = main([*argv, "--n-mc", "20000"])
        out = capsys.readouterr().out
        assert code == 0
        parsed = dict(zip(*csv.reader(io.StringIO(out))))
        se = float(parsed["se"])
        assert se > 0.0
        assert float(parsed["gap"]) <= 4 * se

    @pytest.mark.parametrize("seed", [39, 68, 95, 146, 168, 183])
    def test_infinite_variance_verifies_from_the_moments(self, capsys, tmp_path, seed):
        # E[exp(z)] is finite for z ~ Gamma(1, 1.5) but E[exp(2z)] is not, so
        # a sample's 4*se understated its error and verify --engine mc exited
        # 3 at these seeds, on the exact closed-form intercept
        path = tmp_path / "gamma.yaml"
        z = "  - {name: z, dist: gamma, shape: 1.0, rate: 1.5, beta: 1.0}\n"
        path.write_text(DGP_DOC.replace("solver:", z + "solver:"))
        row = solve_row(capsys, ["solve", "--config", str(path)])
        argv = ["verify", "--config", str(path), "--beta0", row["beta0"], "--engine", "mc"]
        code = main([*argv, "--seed", str(seed)])
        parsed = dict(zip(*csv.reader(io.StringIO(capsys.readouterr().out))))
        assert code == 0
        assert parsed["se"] == "0"
        assert float(parsed["gap"]) <= 1e-15

    def test_overflowing_se_exits_3_without_a_warning(self, capsys, tmp_path):
        # exp(158 z) has a finite sample mean here, but its squared deviations
        # overflow, so se is inf and 4*se would accept any intercept
        path = tmp_path / "overflow.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\noutcome: {family: normal, sd: 1.0}\n"
            "covariates:\n  - {dist: normal, mu: 0.0, sigma: 1.0, beta: 158.0}\n"
            "solver: numeric\nengine: mc\nn_mc: 2000\nmaster_seed: 373\n"
        )
        assert main(["verify", "--config", str(path), "--beta0", "0.0"]) == 3
        out, err = capsys.readouterr()
        assert dict(zip(*csv.reader(io.StringIO(out))))["se"] == "inf"
        assert "verification failed: the sample's se is inf" in err

    def test_exact_engine_verifies_a_continuous_log_term(self, capsys, tmp_path):
        # the summed moments need no finite support
        path = tmp_path / "normal.yaml"
        z = "  - {name: z, dist: normal, mu: 0.0, sigma: 1.0, beta: 1.0}\n"
        path.write_text(DGP_DOC.replace("solver:", z + "solver:"))
        beta0 = repr(LOG_BETA0 - 0.5)  # E[exp(z)] = e^0.5
        assert main(["verify", "--config", str(path), "--beta0", beta0, "--engine", "exact"]) == 0
        parsed = dict(zip(*csv.reader(io.StringIO(capsys.readouterr().out))))
        assert parsed["se"] == "0"
        assert float(parsed["gap"]) <= 1e-15

    def test_overflowing_moment_keeps_the_engine(self, capsys, tmp_path):
        # E[exp(800 x)] overflows a double, while the numeric root beta0 ~ -800
        # gives a mean of 0.5; the engine enumerates it
        path = tmp_path / "big.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n  - {name: c, dist: categorical, probs: [0.5, 0.5], betas: [800.0]}\n"
            "solver: numeric\n"
        )
        row = solve_row(capsys, ["solve", "--config", str(path)])
        argv = ["verify", "--config", str(path), "--beta0", row["beta0"], "--engine", "exact"]
        assert main(argv) == 0
        parsed = dict(zip(*csv.reader(io.StringIO(capsys.readouterr().out))))
        assert float(parsed["achieved_mean"]) == pytest.approx(0.5, abs=1e-9)

    def test_underflowing_moment_keeps_the_engine(self, capsys, tmp_path):
        # E[exp(z)] = e^-799.5 underflows, so the moments cannot give the mean
        # and the engine does; e^(beta0 + z) itself is of order 1
        path = tmp_path / "far.yaml"
        path.write_text(
            "link: log\ntarget_mean: 0.5\n"
            "outcome: {family: normal, sd: 0.1}\n"
            "covariates:\n  - {name: z, dist: normal, mu: -800.0, sigma: 1.0, beta: 1.0}\n"
            "solver: log_closed_form\n"
        )
        beta0 = repr(math.log(0.5) + 799.5)
        assert main(["verify", "--config", str(path), "--beta0", beta0, "--engine", "exact"]) == 1
        assert "continuous" in capsys.readouterr().err
        assert main(["verify", "--config", str(path), "--beta0", beta0, "--engine", "mc"]) == 0
        parsed = dict(zip(*csv.reader(io.StringIO(capsys.readouterr().out))))
        assert float(parsed["se"]) > 0.0
        assert float(parsed["gap"]) <= 4 * float(parsed["se"])


class TestSimulateCommand:
    def test_writes_grid_and_reports(self, capsys, grid_config, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", grid_config, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "4 cells run, 0 skipped" in err
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("scenario_id,")

    def test_reruns_are_byte_identical(self, capsys, grid_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", grid_config, "--out", str(a)])
        main(["simulate", "--config", grid_config, "--out", str(b), "--workers", "2"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_overflowing_cells_become_error_rows(self, capsys, tmp_path):
        doc = load_config(str(resources.files("balint") / "configs" / "fig1.yaml"))
        doc.update(beta2_axis=[1.0, 40.0], n=50, replicates=2)
        config = tmp_path / "fig1_wide.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert "9 failed" in capsys.readouterr().err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 72
        for r in rows:
            if r["z_dist"] == "normal" and r["beta2"] == "40":
                assert r["status"] == "error"
                assert r["warnings"].startswith("InfeasibleError: scenario fig1/normal/40.0/")
                assert "term 'z'" in r["warnings"]
                assert r["beta0"] == ""
            elif r["z_dist"] == "gamma" and r["beta2"] == "40":
                assert r["status"] == "skipped"
            else:
                assert r["status"] == "ok"

    def test_cauchy_cells_are_skipped_like_divergent_gamma(self, capsys, grid_config, tmp_path):
        # both E[exp(2 Z)] are infinite, so neither cell has a balancing intercept
        doc = load_config(grid_config)
        doc.update(
            covariate_axis=[
                {"name": "z", "dist": "cauchy", "location": 0.0, "scale": 1.0},
                {"name": "z", "dist": "gamma", "shape": 1.0, "rate": 1.5},
            ],
            beta2_axis=[2.0],
            target_axis=[0.5],
        )
        config = tmp_path / "heavy.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert "0 cells run, 2 skipped," in capsys.readouterr().err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["z_dist"], r["status"], r["warnings"]) for r in rows] == [
            ("cauchy", "skipped", "divergent_exp_moment"),
            ("gamma", "skipped", "divergent_exp_moment"),
        ]

    @pytest.mark.parametrize("solver", ["linear_scale", "numeric"])
    def test_cauchy_cell_without_a_mean_is_skipped(self, capsys, grid_config, tmp_path, solver):
        # the identity link balances E[eta], which does not exist for a Cauchy Z
        doc = load_config(grid_config)
        doc.update(
            link="identity",
            covariate_axis=[{"name": "z", "dist": "cauchy", "location": 0.0, "scale": 1.0}],
            beta2_axis=[1.0],
            target_axis=[0.5],
            solver=solver,
        )
        config = tmp_path / "cauchy.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "0 cells run, 1 skipped," in err and "failed" not in err
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(r["z_dist"], r["status"], r["warnings"], r["beta0"]) for r in rows] == [
            ("cauchy", "skipped", "undefined_mean", "")
        ]

    def test_unwritable_out_exits_1_before_any_cell_runs(
        self, capsys, grid_config, tmp_path, monkeypatch
    ):
        def never(scenario):
            raise AssertionError(f"cell {scenario.id} ran")

        monkeypatch.setattr(harness_mod, "run_scenario", never)
        out = tmp_path / "no_such_dir" / "rows.csv"
        argv = ["simulate", "--config", grid_config, "--out", str(out), "--workers", "1"]
        assert main(argv) == 1
        assert f"No such file or directory: '{out}'" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_directory_out_exits_1_before_any_cell_runs(
        self, capsys, grid_config, tmp_path, monkeypatch
    ):
        def never(scenario):
            raise AssertionError(f"cell {scenario.id} ran")

        monkeypatch.setattr(harness_mod, "run_scenario", never)
        argv = ["simulate", "--config", grid_config, "--out", str(tmp_path), "--workers", "1"]
        assert main(argv) == 1
        assert f"--out '{tmp_path}' is a directory" in capsys.readouterr().err
        assert not Path(f"{tmp_path}.part").exists()

    @pytest.mark.parametrize(
        "keys, flags",
        [({}, ["--n-mc", "1"]), ({"engine": "mc", "n_mc": 5000}, ["--engine", "exact"])],
        ids=["n-mc-flag", "engine-flag"],
    )
    def test_n_mc_under_the_exact_engine_exits_1_before_any_cell_runs(
        self, capsys, grid_config, tmp_path, monkeypatch, keys, flags
    ):
        def never(scenario):
            raise AssertionError(f"cell {scenario.id} ran")

        monkeypatch.setattr(harness_mod, "run_scenario", never)
        config = tmp_path / "engine.yaml"
        config.write_text(yaml.safe_dump({**load_config(grid_config), **keys}))
        out = tmp_path / "rows.csv"
        argv = ["simulate", "--config", str(config), "--out", str(out), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: unknown key 'n_mc' in grid config\n"
        assert not out.exists()

    def test_failed_run_leaves_existing_out_as_it_was(self, grid_config, tmp_path, monkeypatch):
        def interrupted(scenario):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness_mod, "run_scenario", interrupted)
        out = tmp_path / "rows.csv"
        out.write_text("earlier rows\n")
        with pytest.raises(KeyboardInterrupt):
            main(["simulate", "--config", grid_config, "--out", str(out), "--workers", "1"])
        assert out.read_text() == "earlier rows\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.yaml", "rows.csv"]

    def test_bad_exposure_coding_exits_1_without_csv(self, capsys, grid_config, tmp_path):
        # weighted effect coding divides by the reference level's probability
        doc = load_config(grid_config)
        doc["exposure"].update(probs=[0.0, 0.5, 0.5], coding="weighted_effect")
        config = tmp_path / "coding.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "reference level with nonzero probability" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "exposure, message",
        [
            ({"probs": [0.5, 0.35, 0.15], "betas": [0.2, -0.2]}, "missing key 'name' in exposure"),
            (5, "exposure must be a mapping"),
        ],
        ids=["no-name", "not-a-mapping"],
    )
    def test_malformed_exposure_exits_1(self, capsys, grid_config, tmp_path, exposure, message):
        doc = load_config(grid_config)
        doc["exposure"] = exposure
        config = tmp_path / "exposure.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_axis_value_exits_1(self, capsys, grid_config, tmp_path):
        # 1.0 and 1 name one cell, dup/normal/1.0/0.5; running it twice would
        # write two identical rows that summarize counts twice
        doc = load_config(grid_config)
        doc.update(name="dup", beta2_axis=[1.0, 1])
        config = tmp_path / "dup.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "beta2_axis repeats the value 1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_1_without_csv(self, capsys, grid_config, tmp_path, seed):
        out = tmp_path / "o.csv"
        argv = ["simulate", "--config", grid_config, "--out", str(out)]
        assert main([*argv, "--seed", str(seed)]) == 1
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()
        doc = load_config(grid_config)
        doc["master_seed"] = seed
        config = tmp_path / "seed.yaml"
        config.write_text(yaml.safe_dump(doc))
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_axis_value_exits_1(self, capsys, grid_config, tmp_path):
        doc = load_config(grid_config)
        doc["beta2_axis"] = [1.0, float("nan")]
        config = tmp_path / "nan_axis.yaml"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert "beta2_axis" in capsys.readouterr().err
        assert not out.exists()

    def test_replicate_and_seed_overrides_land_in_rows(self, capsys, grid_config, tmp_path):
        out = tmp_path / "o.csv"
        main(
            [
                "simulate",
                "--config",
                grid_config,
                "--out",
                str(out),
                "--replicates",
                "3",
                "--seed",
                "77",
            ]
        )
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert {r["replicates"] for r in rows} == {"3"}
        assert {r["master_seed"] for r in rows} == {"77"}


class TestUsageErrors:
    def test_unknown_key_in_config(self, capsys, tmp_path):
        path = tmp_path / "typo.yaml"
        path.write_text(DGP_DOC + "solvr: numeric\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert "'solvr'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
    def test_unknown_solver_exits_1(self, capsys, dgp_config, grid_config, tmp_path, command):
        config = Path(grid_config if command == "simulate" else dgp_config)
        doc = load_config(str(config))
        doc["solver"] = "bogus"
        config.write_text(yaml.safe_dump(doc))
        out = tmp_path / "rows.csv"
        extra = {"solve": [], "verify": ["--beta0", "0.0"], "simulate": ["--out", str(out)]}
        assert main([command, "--config", str(config), *extra[command]]) == 1
        kind = "grid" if command == "simulate" else "dgp"
        assert f"unknown solver 'bogus' in {kind} config (expected one of" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file(self, capsys, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.yaml"])
        assert exc.value.code == 1

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_impossible_target_is_infeasibility(self, capsys, tmp_path):
        path = tmp_path / "neg.yaml"
        path.write_text(DGP_DOC.replace("target_mean: 0.5", "target_mean: -0.5"))
        assert main(["solve", "--config", str(path)]) == 2
        assert "target_mean" in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _child_env():
    """Environment whose PYTHONPATH starts at the imported ``balint``'s root.

    A child process then runs the same code as this one, from any working
    directory, whether or not the package is installed.
    """
    env = dict(os.environ)
    root = str(Path(balint.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestConsoleScript:
    def test_entry_point_help(self, tmp_path):
        # Runs what the generated console script runs for the
        # [project.scripts] entry, without needing the script on PATH.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["balint"]
        module, func = target.split(":")
        code = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "solve" in proc.stdout and "simulate" in proc.stdout

    @pytest.mark.skipif(shutil.which("balint") is None,
                        reason="balint console script is not installed on PATH")
    def test_installed_script_help(self):
        proc = subprocess.run(["balint", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "solve" in proc.stdout and "simulate" in proc.stdout

    def test_module_main_help(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "balint", "--help"],
            capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: balint")
        for command in ("solve", "verify", "simulate"):
            assert command in proc.stdout

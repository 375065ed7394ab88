"""Golden bytes: sha256 pins of outputs that a refactor must not change.

The digests were captured before the covariate-draw and eta-assembly code
was consolidated; a refactor or speed-up that alters a single output bit
fails here. A deliberate change of the random stream layout or of the CSV
format is a behaviour change and must re-pin these with a note in
CHANGES.md.
"""

import hashlib
import io
from importlib import resources

import pytest

from balint import (
    Categorical,
    DgpSpec,
    Effect,
    Log,
    Normal,
    NormalOutcome,
    RngStream,
    Term,
    WeightedEffect,
    generate,
    run_grid,
    write_csv,
)
from balint.cli import load_config, parse_grid_config

CONFIGS = resources.files("balint") / "configs"

GRID_DIGESTS = {
    "fig1.yaml": "b110d6c7e6382af51365a961aee7c0d3267705efa4b9c4df196a297e57bddc51",
    "suppfig1.yaml": "ac0ff276d7dc162c6e64507e679a10c85956f4acf02227169d794fe883ec9968",
}

OUTCOME_DIGESTS = {
    "effect": "0b84d17ee7bc72d238a6a7b33a12dafe9c7ce2360e5704a426a53cfa85c26066",
    "weighted_effect": "fea5a74713fcd06cd24a5a85b3f2bf3883c5cc0802779808595baaad98270401",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("config", sorted(GRID_DIGESTS))
def test_grid_csv_bytes(config):
    doc = load_config(str(CONFIGS / config))
    doc.update(replicates=2, n=500, workers=1)
    buf = io.StringIO()
    write_csv(run_grid(parse_grid_config(doc)), buf)
    assert _sha256(buf.getvalue().encode("utf-8")) == GRID_DIGESTS[config]


@pytest.mark.parametrize("coding", [Effect(), WeightedEffect()], ids=lambda c: c.name)
def test_five_level_categorical_outcome_bytes(coding):
    # five levels with unequal probabilities, so every coding row is distinct
    # and the weighted-effect reference row is a nontrivial ratio
    exposure = Categorical(probs=(0.1, 0.2, 0.3, 0.25, 0.15), coding=coding)
    dgp = DgpSpec(
        terms=(
            Term("x", exposure, (0.3, -0.7, 0.45, 1.1)),
            Term("z", Normal(0.0, 1.0), 0.35),
        ),
        link=Log(),
        outcome=NormalOutcome(0.1),
        target_mean=0.4,
    )
    ds = generate(dgp, -1.3, 2000, RngStream(20231018, (5,)))
    assert _sha256(ds.outcome.tobytes()) == OUTCOME_DIGESTS[coding.name]

"""README's library quick start runs as printed, and its config blocks parse and run."""

import csv
import io
import re
from pathlib import Path

import yaml

from balint.cli import main, parse_dgp_config, parse_grid_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_gives_its_commented_beta0(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    commented = float(re.search(r"# beta0 = (\S+)", code).group(1))
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["sol"].beta0 == commented
    assert abs(float(capsys.readouterr().out) - 0.5) < 0.05


def test_config_blocks_parse():
    dgp_block, grid_block = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    assert [t.name for t in parse_dgp_config(yaml.safe_load(dgp_block)).dgp.terms] == ["x", "z"]
    assert parse_grid_config(yaml.safe_load(grid_block)).name == "demo"


def test_single_dgp_block_solves_then_verifies(capsys, tmp_path):
    dgp_block = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)[0]
    config = tmp_path / "dgp.yaml"
    config.write_text(dgp_block)
    assert main(["solve", "--config", str(config)]) == 0
    row = dict(zip(*csv.reader(io.StringIO(capsys.readouterr().out))))
    assert main(["verify", "--config", str(config), "--beta0", row["beta0"]]) == 0
